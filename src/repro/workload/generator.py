"""Reproducible workload generators.

The average-bound and heavy-demand analyses of Section 6.2 assume particular
request patterns ("each node equally likely to hold the token", "heavy
demand").  These generators produce such patterns as explicit
:class:`~repro.workload.requests.Workload` schedules so that the *same*
schedule can be replayed against every algorithm.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Sequence

from repro.exceptions import WorkloadError
from repro.sim.rng import SeededRNG
from repro.workload.requests import CSRequest, Workload
from repro.workload.streaming import StreamingWorkload

#: Requests a heavy stream makes per batch: the requests a replay holds
#: before it fires them.  At 72 bytes a request (the 56-byte slotted object,
#: its list slot and its time in the batch's order check) a batch is 0.7 MB,
#: and the per-batch Python overhead is still noise.  The replay does not
#: depend on it; its memory does a little: a fresh-process star(1M) replay
#: peaked at 570 MB with 10 000 and at 572 MB with 100 000 (2-core box,
#: CPython 3.11).
STREAM_BATCH_REQUESTS = 10_000


class WorkloadGenerator:
    """Factory for randomised workloads, deterministic per seed."""

    def __init__(self, node_ids: Sequence[int], *, seed: int = 0) -> None:
        if not node_ids:
            raise WorkloadError("workloads need at least one node")
        self.node_ids = tuple(node_ids)
        self._rng = SeededRNG(seed, label="workload")

    # ------------------------------------------------------------------ #
    # arrival patterns
    # ------------------------------------------------------------------ #
    def poisson(
        self,
        *,
        total_requests: int,
        mean_interarrival: float,
    ) -> Workload:
        """Poisson arrivals over uniformly chosen nodes.

        ``mean_interarrival`` controls the load: small values produce heavy
        contention (many requests outstanding at once), large values keep the
        system mostly idle between requests.
        """
        if total_requests < 0:
            raise WorkloadError(f"total_requests must be >= 0, got {total_requests}")
        rng = self._rng.child("poisson")
        requests = []
        time = 0.0
        for _ in range(total_requests):
            time += rng.exponential(mean_interarrival)
            requests.append(CSRequest(rng.choice(self.node_ids), time))
        return Workload(
            requests=tuple(requests),
            description=(
                f"poisson: {total_requests} requests, mean interarrival "
                f"{mean_interarrival}, cs=1.0"
            ),
        )

    def heavy_demand(self, *, rounds: int) -> Workload:
        """Every node requests in every round, all rounds back to back.

        This is the paper's "heavy demand" regime: the token never idles and
        each entry amortises to at most three messages on the star topology.
        A round is one ``map`` over the nodes, so ``CSRequest.__init__`` is
        the only Python frame per request, and the round's requests share
        one arrival-time float.
        """
        if rounds < 1:
            raise WorkloadError(f"rounds must be >= 1, got {rounds}")
        nodes = self.node_ids
        requests = []
        for round_index in range(rounds):
            requests.extend(
                map(CSRequest, nodes, repeat(float(round_index)))
            )
        return Workload(
            requests=tuple(requests),
            description=f"heavy demand: {rounds} rounds x {len(self.node_ids)} nodes",
        )

    def heavy_demand_stream(self, *, rounds: int) -> StreamingWorkload:
        """Streaming form of :meth:`heavy_demand`: batches, not a list.

        Yields the identical schedule — every node requests in every round,
        in ``(arrival_time, node)`` order — but materialises at most
        :data:`STREAM_BATCH_REQUESTS` request objects at a time, which is
        what lets the million-node tier replay heavy demand in bounded
        memory.  The batch iterator is re-iterable and deterministic (no
        randomness at all).
        """
        if rounds < 1:
            raise WorkloadError(f"rounds must be >= 1, got {rounds}")
        # A materialised Workload sorts by (arrival_time, node); emitting the
        # per-round node sweep in ascending node order reproduces that
        # ordering exactly, so the streamed and materialised schedules are
        # interchangeable request for request.
        ordered = tuple(sorted(self.node_ids))
        size = STREAM_BATCH_REQUESTS

        def batches():
            for round_index in range(rounds):
                arrival = float(round_index)
                for start in range(0, len(ordered), size):
                    yield list(map(CSRequest, ordered[start:start + size], repeat(arrival)))

        return StreamingWorkload(
            batches,
            total_requests=rounds * len(ordered),
            description=f"heavy demand: {rounds} rounds x {len(ordered)} nodes (streamed)",
        )

    def hotspot(
        self,
        *,
        total_requests: int,
        hot_nodes: Sequence[int],
        hot_fraction: float = 0.8,
        mean_interarrival: float = 5.0,
    ) -> Workload:
        """A skewed workload where a few nodes issue most of the requests.

        Useful for showing how the DAG re-orients itself toward the active
        region of the tree (requests from the hot region become cheap).
        """
        if not 0.0 <= hot_fraction <= 1.0:
            raise WorkloadError(f"hot_fraction must be in [0, 1], got {hot_fraction}")
        hot = tuple(hot_nodes)
        known = set(self.node_ids)
        missing = [node for node in hot if node not in known]
        if missing:
            raise WorkloadError(f"hot nodes {missing} are not part of the node set")
        hot_set = set(hot)
        cold = tuple(node for node in self.node_ids if node not in hot_set) or hot
        rng = self._rng.child("hotspot")
        requests = []
        time = 0.0
        for _ in range(total_requests):
            time += rng.exponential(mean_interarrival)
            pool = hot if rng.random() < hot_fraction else cold
            requests.append(CSRequest(rng.choice(pool), time))
        return Workload(
            requests=tuple(requests),
            description=(
                f"hotspot: {total_requests} requests, {hot_fraction:.0%} from {list(hot)}"
            ),
        )

    def bursty(
        self,
        *,
        total_requests: int,
        mean_burst_size: float = 8.0,
        burst_interarrival: float = 0.5,
        mean_idle_gap: float = 50.0,
    ) -> Workload:
        """On/off bursts: dense request clusters separated by long idle gaps.

        Arrivals alternate between an *on* phase — a burst whose size is drawn
        from an exponential of mean ``mean_burst_size`` (at least one request)
        with exponential ``burst_interarrival`` spacing inside the burst — and
        an *off* phase, an exponential idle gap of mean ``mean_idle_gap``.
        With ``mean_idle_gap`` much larger than ``burst_interarrival`` this
        produces the bursty regime the steady Poisson workloads miss: the
        system is driven from idle into heavy contention and back every burst.
        """
        if total_requests < 0:
            raise WorkloadError(f"total_requests must be >= 0, got {total_requests}")
        if mean_burst_size < 1.0:
            raise WorkloadError(
                f"mean_burst_size must be >= 1, got {mean_burst_size}"
            )
        if burst_interarrival <= 0 or mean_idle_gap <= 0:
            raise WorkloadError(
                "burst_interarrival and mean_idle_gap must be positive, got "
                f"{burst_interarrival} and {mean_idle_gap}"
            )
        rng = self._rng.child("bursty")
        requests = []
        time = 0.0
        bursts = 0
        while len(requests) < total_requests:
            time += rng.exponential(mean_idle_gap)
            burst_size = max(1, round(rng.exponential(mean_burst_size)))
            bursts += 1
            for _ in range(min(burst_size, total_requests - len(requests))):
                time += rng.exponential(burst_interarrival)
                requests.append(CSRequest(rng.choice(self.node_ids), time))
        return Workload(
            requests=tuple(requests),
            description=(
                f"bursty: {total_requests} requests in {bursts} bursts "
                f"(mean size {mean_burst_size}, in-burst gap {burst_interarrival}, "
                f"idle gap {mean_idle_gap})"
            ),
        )

    def diurnal(self, *, total_requests: int) -> Workload:
        """Sinusoidal-rate arrivals: a seeded day/night demand curve.

        A non-homogeneous Poisson process whose instantaneous rate swings
        around the base rate ``1 / mean_interarrival``::

            rate(t) = (1 + amplitude * sin(2 * pi * t / period)) / mean_interarrival

        with ``period`` 200, ``mean_interarrival`` 5 and ``amplitude`` 0.8, so
        each ``period`` of virtual time holds one full peak (rate up to
        ``(1 + amplitude)`` times base) and one trough (down to
        ``(1 - amplitude)`` times base) — the diurnal load shape the steady
        Poisson and on/off bursty tiers both miss.  Arrivals are drawn by
        Lewis–Shedler thinning: seeded candidates at the peak rate, accepted
        with probability ``rate(t) / peak_rate``, which keeps the schedule a
        pure function of the generator's seed.
        """
        if total_requests < 0:
            raise WorkloadError(f"total_requests must be >= 0, got {total_requests}")
        period, mean_interarrival, amplitude = 200.0, 5.0, 0.8
        rng = self._rng.child("diurnal")
        peak_rate = (1.0 + amplitude) / mean_interarrival
        angular = 2.0 * math.pi / period
        requests = []
        time = 0.0
        while len(requests) < total_requests:
            # Candidate stream at the constant peak rate...
            time += rng.exponential(1.0 / peak_rate)
            rate = (1.0 + amplitude * math.sin(angular * time)) / mean_interarrival
            # ...thinned down to the instantaneous sinusoidal rate.
            if rng.random() * peak_rate <= rate:
                requests.append(CSRequest(rng.choice(self.node_ids), time))
        return Workload(
            requests=tuple(requests),
            description=(
                f"diurnal: {total_requests} requests, period {period}, "
                f"mean interarrival {mean_interarrival}, amplitude {amplitude}"
            ),
        )
