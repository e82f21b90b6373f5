"""A hand-wound clock for the running event loop.

Timers (``call_at`` / ``call_later``, and so the in-memory transport's message
delays) fire when the test advances the clock, never because wall time passed.
Only for loops that always have something ready to run — here, the test's own
``sleep(0)`` — since a loop that blocks in ``select`` would wait in real time.
"""

from __future__ import annotations

import asyncio


class VirtualClock:
    def __init__(self) -> None:
        loop = asyncio.get_running_loop()
        self.now = loop.time()
        loop.time = lambda: self.now  # type: ignore[method-assign]

    async def advance(self, seconds: float) -> None:
        """Let what is ready run at the current time, move the clock, then let
        every timer that is now due (and what those arm for the same instant)
        run."""
        for _ in range(2):
            await asyncio.sleep(0)
        self.now += seconds
        for _ in range(4):
            await asyncio.sleep(0)
