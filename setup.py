"""Package definition for the Neilsen ICDCS'91 DAG-mutex reproduction.

Metadata lives here (rather than in ``pyproject.toml``'s ``[project]``
table) so the definition stays importable and editable-installable on the
oldest toolchains the CI matrix covers; ``pyproject.toml`` carries the
build-system pin and the pytest configuration.
"""

from pathlib import Path

from setuptools import find_packages, setup

setup(
    name="repro-neilsen-dag-mutex",
    version="0.2.0",
    description=(
        "Reproduction of Neilsen's DAG-based distributed mutual exclusion "
        "(ICDCS '91): discrete-event simulation substrate, the paper's "
        "algorithm, eight baseline algorithms, and a benchmark harness"
    ),
    long_description=(
        Path("PAPER.md").read_text(encoding="utf-8")
        if Path("PAPER.md").exists()
        else ""  # PAPER.md is not shipped in sdists
    ),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
    extras_require={
        "test": ["pytest", "pytest-timeout", "hypothesis"],
    },
    keywords=[
        "distributed-systems",
        "mutual-exclusion",
        "discrete-event-simulation",
    ],
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: System :: Distributed Computing",
    ],
)
