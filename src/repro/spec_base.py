"""The one JSON codec every spec uses, and the specs the live service reads.

A spec's JSON form is its fields (:class:`_SpecCodec`; the design rules are in
:mod:`repro.spec`, which holds the simulator's specs and re-exports these).
This module holds the codec, the specs both products read (:class:`TopologySpec`,
:class:`ObsSpec`) and the lock service's own, and imports only
:mod:`repro.exceptions` and :mod:`repro.topology`: a shard process decodes its
:class:`RuntimeSpec` without loading an algorithm, a workload or the engine.
"""

# No ``from __future__ import annotations`` here: the codec reads field
# annotations as the objects evaluated at import, so decoding a spec (as each
# forked shard process does) never runs the compiler on annotation strings.
import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import (
    Any, Dict, Optional, Tuple, Type, TypeVar, Union, get_args, get_origin, get_type_hints,
)

from repro.exceptions import ExperimentError
from repro.topology import balanced_tree, line, random_tree, star
from repro.topology.base import Topology

#: Topology families a spec can name.  ``tree`` is the benchmark's frozen
#: balanced binary tree of about ``n`` nodes; ``random`` is a seeded Prüfer
#: tree of exactly ``n`` nodes.
TOPOLOGY_KINDS = ("line", "star", "tree", "random")


def _unknown(kind: str, value: Any, known: Tuple[str, ...]) -> str:
    return f"unknown {kind} {value!r}; known: {list(known)}"


#: The JSON values a scalar field accepts, and how an error names them.
#: ``bool`` is an ``int`` to Python, so a number field checks it apart, and
#: a ``float`` field is a finite number: JSON's NaN and Infinity extensions
#: never reach a spec.
_SCALARS: Dict[type, Tuple[Tuple[type, ...], str]] = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a finite number"),
    str: ((str,), "a string"),
    type(None): ((type(None),), "null"),
}

_S = TypeVar("_S", bound="_SpecCodec")


def _label(cls: type) -> str:
    """How errors name a spec class: ``ShardCrashSpec`` -> ``shard crash spec``."""
    return "".join(f" {c}" if c.isupper() else c for c in cls.__name__).strip().lower()


def _accepts(hint: Any, value: Any) -> bool:
    accepted, _ = _SCALARS.get(hint, ((), ""))
    return (
        isinstance(value, accepted)
        and (hint is bool or not isinstance(value, bool))
        and (hint is not float or isinstance(value, int) or math.isfinite(value))
    )


def _encode(value: Any) -> Any:
    if isinstance(value, _SpecCodec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def _decode(hint: Any, value: Any, where: str) -> Any:
    """``value`` read from JSON as a field annotated ``hint``, or an error."""
    if isinstance(hint, type) and issubclass(hint, _SpecCodec):
        return hint.from_dict(value)
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple and isinstance(value, list):
        return tuple(_decode(args[0], item, where) for item in value)
    arms = args if origin is Union else (hint,)
    if any(_accepts(arm, value) for arm in arms):
        return value
    if origin is Union and arms[0] not in _SCALARS:
        # Optional[spec]: the nested spec's own check names its field.
        return _decode(arms[0], value, where)
    # What is neither a scalar nor a spec is a tuple of specs: a JSON list.
    expected = " or ".join(_SCALARS[arm][1] if arm in _SCALARS else "a list" for arm in arms)
    raise ExperimentError(f"{where} must be {expected}, got {value!r}")


class _SpecCodec:
    """The one JSON codec of every spec class: its fields are the format.

    ``to_dict`` writes every dataclass field under its own name — a nested
    spec as an object, a tuple as a list — plus ``schema`` when the class
    declares a ``SCHEMA``.  ``from_dict`` is its inverse and the input gate:
    the input must be an object with no unknown and no missing field, the
    class's schema (if given) and, per field, a value of the annotated type
    (an ``int`` passes for a ``float``; a ``bool`` never passes for a number).
    """

    SCHEMA: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"schema": self.SCHEMA} if self.SCHEMA else {}
        data.update((f.name, _encode(getattr(self, f.name))) for f in fields(self))
        return data

    @classmethod
    def from_dict(cls: Type[_S], data: Any) -> _S:
        label = _label(cls)
        if not isinstance(data, dict):
            raise ExperimentError(f"{label} must be a JSON object, got {type(data).__name__}")
        payload = dict(data)
        if cls.SCHEMA:
            schema = payload.pop("schema", cls.SCHEMA)
            if schema != cls.SCHEMA:
                raise ExperimentError(f"unknown {label} schema {schema!r}")
        declared = {f.name: f for f in fields(cls)}
        unknown = sorted(set(payload) - set(declared))
        if unknown:
            raise ExperimentError(
                f"{label} has unknown fields {unknown}; expected a subset of {sorted(declared)}"
            )
        missing = [
            name for name, f in declared.items()
            if name not in payload and f.default is MISSING and f.default_factory is MISSING
        ]
        if missing:
            raise ExperimentError(f"{label} is missing required fields {missing}")
        hints = get_type_hints(cls)
        return cls(**{
            name: _decode(hints[name], value, f"{label} field {name!r}")
            for name, value in payload.items()
        })

    def canonical_json(self) -> str:
        """The spec's canonical serialisation (stable key order, one form)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls: Type[_S], text: str) -> _S:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExperimentError(f"{_label(cls)} is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def load(cls: Type[_S], path: str) -> _S:
        """Read a spec from a JSON file (the ``repro run --spec`` loader)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def save(self, path: str) -> None:
        """Write the spec to ``path`` in canonical form."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.canonical_json())


@dataclass(frozen=True)
class TopologySpec(_SpecCodec):
    """A named logical topology: family, size and (random trees only) seed."""

    kind: str
    n: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ExperimentError(_unknown("topology kind", self.kind, TOPOLOGY_KINDS))
        if self.n < 1:
            raise ExperimentError(f"topology size must be >= 1, got {self.n}")

    def build(self) -> Topology:
        """Construct the topology (the benchmark's frozen families)."""
        if self.kind == "line":
            return line(self.n)
        if self.kind == "star":
            return star(self.n)
        if self.kind == "tree":
            depth = max(1, (self.n - 1).bit_length() - 1)
            return balanced_tree(2, depth)
        return random_tree(self.n, seed=self.seed)



@dataclass(frozen=True)
class ObsSpec(_SpecCodec):
    """The observability toggle shared by simulated and live experiments.

    ``enabled`` turns the :mod:`repro.obs` metrics registry on (off by
    default: the disabled registry hands out no-op instruments, so the hot
    paths keep their instrument calls at near-zero cost).  ``sample_every``
    is the sampling knob — histograms record every Nth observation, stride
    not random, so deterministic replays observe identical sample sets.
    (A Chrome ``trace_event`` export is asked for with ``--trace FILE``.)
    """

    enabled: bool = False
    sample_every: int = 1

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ExperimentError(
                f"sample_every must be >= 1, got {self.sample_every}"
            )



#: Socket families the networked runtime can serve on.
SOCKET_KINDS = ("unix", "tcp")


@dataclass(frozen=True)
class ShardCrashSpec(_SpecCodec):
    """One live-service crash: shard ``shard`` calls ``os._exit`` at wall
    time ``at`` (seconds after it starts serving).

    The runtime twin of :class:`~repro.spec.CrashSpec` — same declarative shape, real
    wall clock instead of virtual time, a whole worker process instead of a
    simulated node.
    """

    shard: int
    at: float

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ExperimentError(f"crash shard must be >= 0, got {self.shard}")
        if self.at <= 0:
            raise ExperimentError(f"crash time must be > 0, got {self.at}")


@dataclass(frozen=True)
class RuntimeFaultSpec(_SpecCodec):
    """Deterministic failure schedule for the networked lock service.

    The live-service counterpart of :class:`~repro.spec.FaultSpec`: crashes fire on a
    wall-clock schedule inside the shard processes, and ``drop_rate``
    discards incoming client frames from a ``SeededRNG`` stream derived from
    ``seed`` and the shard index — so a fault run is as declarative and
    replayable as a simulated one (modulo real-scheduler timing).

    Attributes:
        crashes: shard kill schedule (see :class:`ShardCrashSpec`).
        drop_rate: per-frame Bernoulli drop probability in ``[0, 1)``; a
            dropped frame is simply never answered, which is what exercises
            the client's deadline + retry path.  Because nothing ever
            answers a dropped frame, any client driving a ``drop_rate``
            service **must** set ``op_timeout`` (lockbench cells enforce
            this at construction; control-plane calls like ``stats`` carry a
            built-in deadline either way).
        seed: drop-stream seed (combined with the shard index).
    """

    crashes: Tuple[ShardCrashSpec, ...] = ()
    drop_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        if not 0.0 <= self.drop_rate < 1.0:
            raise ExperimentError(f"drop_rate must be in [0, 1), got {self.drop_rate}")


@dataclass(frozen=True)
class RuntimeSpec(_SpecCodec):
    """The spec-to-runtime bridge: one description of a networked lock service.

    The simulator measures the protocol in virtual time; the runtime
    (:mod:`repro.runtime.service`) serves it over real sockets.  Both are
    driven by the *same* names: ``algorithm`` is the simulator's name for
    the protocol (the runtime implements the paper's ``dag``) and
    ``topology`` is the standard :class:`TopologySpec` — it shapes the
    per-lock-key token tree exactly as it shapes a simulated system, so
    ``dag`` + ``star:8`` means the same thing under ``repro run`` and under
    ``repro lockbench``.

    Attributes:
        algorithm: the algorithm's name; the asyncio runtime implements
            ``"dag"`` only, and refuses every other name.
        topology: the per-lock-key agent tree (kind/size/seed), built through
            :meth:`TopologySpec.build` like every simulated topology.
        shards: worker processes the lock namespace is consistent-hashed
            across.
        socket: ``"unix"`` or ``"tcp"`` (see :data:`SOCKET_KINDS`).
        faults: optional live-service failure schedule (shard crashes,
            frame drops) — see :class:`RuntimeFaultSpec`.
        heartbeat_interval: seconds between a shard's heartbeats to the
            cluster supervisor.
        miss_window: seconds of heartbeat silence after which the supervisor
            declares a shard dead (process exits are detected immediately via
            the process sentinel; the window only catches hangs).
    """

    SCHEMA = "runtime-spec/v1"

    algorithm: str = "dag"
    topology: TopologySpec = TopologySpec(kind="star", n=8)
    shards: int = 2
    socket: str = "unix"
    faults: Optional[RuntimeFaultSpec] = None
    heartbeat_interval: float = 0.1
    miss_window: float = 2.0
    obs: Optional[ObsSpec] = None

    def __post_init__(self) -> None:
        if self.algorithm != "dag":
            # The asyncio node runtime implements the paper's protocol; the
            # baselines have no AsyncNode counterparts (yet).
            raise ExperimentError(
                "the networked runtime implements the 'dag' algorithm only, "
                f"not {self.algorithm!r}"
            )
        if self.shards < 1:
            raise ExperimentError(f"shards must be >= 1, got {self.shards}")
        if self.socket not in SOCKET_KINDS:
            raise ExperimentError(_unknown("socket kind", self.socket, SOCKET_KINDS))
        if self.topology.n < 2:
            raise ExperimentError(
                "a lock key's token tree needs >= 2 agent nodes, got "
                f"{self.topology.n}"
            )
        if self.heartbeat_interval <= 0:
            raise ExperimentError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval}"
            )
        if self.miss_window <= self.heartbeat_interval:
            raise ExperimentError(
                f"miss_window ({self.miss_window}) must exceed the heartbeat "
                f"interval ({self.heartbeat_interval})"
            )
        for crash in self.faults.crashes if self.faults is not None else ():
            if crash.shard >= self.shards:
                raise ExperimentError(
                    f"crash targets shard {crash.shard} but the cluster has "
                    f"shards 0..{self.shards - 1}"
                )

    @property
    def name(self) -> str:
        """Matrix-style identity, mirroring :attr:`ExperimentSpec.name`."""
        return (
            f"{self.algorithm}-{self.topology.kind}-n{self.topology.n}"
            f"-s{self.shards}-{self.socket}"
        )
