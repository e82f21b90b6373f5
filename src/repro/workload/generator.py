"""Reproducible workload generators.

The average-bound and heavy-demand analyses of Section 6.2 assume particular
request patterns ("each node equally likely to hold the token", "heavy
demand").  These generators produce such patterns as explicit
:class:`~repro.workload.requests.Workload` schedules so that the *same*
schedule can be replayed against every algorithm.

A schedule is built as columns, not request objects: the arrival processes
append each arrival's time and node to two lists (drawing the RNG exactly as
one request at a time would), and heavy demand is one
:class:`~repro.workload.requests.HeavyRounds` value, the sorted node tuple
and a round count.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.exceptions import WorkloadError
from repro.sim.rng import SeededRNG
from repro.workload.requests import Columns, HeavyRounds, Workload


def _check_count(total_requests: int) -> None:
    if total_requests < 0:
        raise WorkloadError(f"total_requests must be >= 0, got {total_requests}")


def _check_mean(mean_interarrival: float) -> None:
    if not 0 < mean_interarrival < math.inf:  # a NaN too
        raise WorkloadError(
            f"mean_interarrival must be positive and finite, got {mean_interarrival}"
        )


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
        _check_count(total_requests)
        _check_mean(mean_interarrival)
        rng = self._rng.child("poisson")
        times, nodes = [], []
        time = 0.0
        for _ in range(total_requests):
            time += rng.exponential(mean_interarrival)
            times.append(time)
            nodes.append(rng.choice(self.node_ids))
        return Workload.of(
            Columns(times, nodes, None),
            description=(
                f"poisson: {total_requests} requests, mean interarrival "
                f"{mean_interarrival}, cs=1.0"
            ),
        )

    def heavy_demand(self, *, rounds: int) -> Workload:
        """Every node requests in every round, all rounds back to back.

        This is the paper's "heavy demand" regime: the token never idles and
        each entry amortises to at most three messages on the star topology.
        The schedule is one :class:`~repro.workload.requests.HeavyRounds`
        value, O(n) memory whatever the round count, and no request object
        is built to replay it.
        """
        if rounds < 1:
            raise WorkloadError(f"rounds must be >= 1, got {rounds}")
        return Workload.of(
            HeavyRounds(self.node_ids, rounds),
            description=f"heavy demand: {rounds} rounds x {len(self.node_ids)} nodes",
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
        _check_count(total_requests)
        _check_mean(mean_interarrival)
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
        times, nodes = [], []
        time = 0.0
        for _ in range(total_requests):
            time += rng.exponential(mean_interarrival)
            pool = hot if rng.random() < hot_fraction else cold
            times.append(time)
            nodes.append(rng.choice(pool))
        return Workload.of(
            Columns(times, nodes, None),
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
        _check_count(total_requests)
        # Every test is `not x > bound`, so a NaN is refused too: the
        # columns hold times unchecked, where a request object refused one.
        if not mean_burst_size >= 1.0:
            raise WorkloadError(
                f"mean_burst_size must be >= 1, got {mean_burst_size}"
            )
        if not burst_interarrival > 0 or not mean_idle_gap > 0:
            raise WorkloadError(
                "burst_interarrival and mean_idle_gap must be positive, got "
                f"{burst_interarrival} and {mean_idle_gap}"
            )
        rng = self._rng.child("bursty")
        times, nodes = [], []
        time = 0.0
        bursts = 0
        while len(times) < total_requests:
            time += rng.exponential(mean_idle_gap)
            burst_size = max(1, round(rng.exponential(mean_burst_size)))
            bursts += 1
            for _ in range(min(burst_size, total_requests - len(times))):
                time += rng.exponential(burst_interarrival)
                times.append(time)
                nodes.append(rng.choice(self.node_ids))
        return Workload.of(
            Columns(times, nodes, None),
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
        _check_count(total_requests)
        period, mean_interarrival, amplitude = 200.0, 5.0, 0.8
        rng = self._rng.child("diurnal")
        peak_rate = (1.0 + amplitude) / mean_interarrival
        angular = 2.0 * math.pi / period
        times, nodes = [], []
        time = 0.0
        while len(times) < total_requests:
            # Candidate stream at the constant peak rate...
            time += rng.exponential(1.0 / peak_rate)
            rate = (1.0 + amplitude * math.sin(angular * time)) / mean_interarrival
            # ...thinned down to the instantaneous sinusoidal rate.
            if rng.random() * peak_rate <= rate:
                times.append(time)
                nodes.append(rng.choice(self.node_ids))
        return Workload.of(
            Columns(times, nodes, None),
            description=(
                f"diurnal: {total_requests} requests, period {period}, "
                f"mean interarrival {mean_interarrival}, amplitude {amplitude}"
            ),
        )
