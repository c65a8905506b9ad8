"""The shared IPID sample bank.

MIDAR, Ally and Speedtrap all reduce to the same primitive: collect an IPID
time series from a target on some probing schedule and reason about the
merged sequences.  Before this module each technique probed the simulated
Internet on its own, so validating one candidate set with two techniques
paid for two full probing campaigns against the same targets.

:class:`IpidSampleBank` collects each series **once per (addresses,
schedule)** and shares it across validators: a composed validation (e.g.
MIDAR followed by Ally over the same sampled sets, see
:mod:`repro.validation.runner`) answers the second technique's sample
requests from the bank instead of the network, cutting the probe count —
``benchmarks/bench_validation.py`` asserts the reduction with verdict
parity.

The bank is a pure memoisation layer: a cold bank issues exactly the calls
:func:`~repro.baselines.ipid.collect_series` /
:func:`~repro.baselines.ipid.collect_interleaved` would, in the same order,
so single-technique runs (including pipelines built on a private bank)
behave byte-for-byte like the pre-bank probers.
"""

from __future__ import annotations

from typing import Sequence

from repro import obs
from repro.baselines.ipid import (
    IpidTimeSeries,
    collect_interleaved,
    collect_series,
    shared_counter_test,
)
from repro.simnet.network import SimulatedInternet, VantagePoint

#: Memoisation key of one collected series or interleaved collection.
ScheduleKey = tuple


class IpidSampleBank:
    """Collect IPID time series once per (addresses, schedule) and share them.

    One bank wraps one (network, vantage) pair — samples taken from
    different vantage points see different loss and rate-limit state, so
    they must not be conflated.  Cached series are treated as immutable.
    """

    def __init__(self, network: SimulatedInternet, vantage: VantagePoint) -> None:
        self._network = network
        self._vantage = vantage
        self._series: dict[ScheduleKey, IpidTimeSeries] = {}
        self._interleaved: dict[ScheduleKey, dict[str, IpidTimeSeries]] = {}
        #: unordered pair -> key of the latest interleaved collection that
        #: probed both addresses together (schedule-agnostic pair reuse).
        self._pairs: dict[frozenset[str], ScheduleKey] = {}
        #: (address, samples, interval) -> key of the canonical estimation
        #: series for that schedule shape, whatever its start time.  One
        #: canonical collection per vantage serves every validator whose
        #: estimation window aligns (same sample count and spacing),
        #: replacing the per-validator series collection the exact-key path
        #: would require.
        self._estimation: dict[tuple[str, int, float], ScheduleKey] = {}
        self._probes_issued = 0
        self._probes_reused = 0

    def _count(self, outcome: str, probes: int) -> None:
        """Track one collection's probe spend (private tally + registry).

        Called per *collection* (a batch of probes), never per probe, so
        the counter cost stays off the simulated-network hot path.
        """
        if outcome == "issued":
            self._probes_issued += probes
        else:
            self._probes_reused += probes
        if obs.is_enabled():
            obs.add(
                "validation.probes", probes, outcome=outcome, vantage=self._vantage.name
            )

    @property
    def network(self) -> SimulatedInternet:
        """The network the bank probes."""
        return self._network

    @property
    def vantage(self) -> VantagePoint:
        """The vantage point every collection probes from."""
        return self._vantage

    @property
    def probes_issued(self) -> int:
        """Probes actually sent to the network (responses and timeouts)."""
        return self._probes_issued

    @property
    def probes_reused(self) -> int:
        """Probes answered from the bank instead of the network."""
        return self._probes_reused

    def series(
        self, address: str, samples: int, interval: float, start_time: float
    ) -> IpidTimeSeries:
        """One address probed ``samples`` times (MIDAR's estimation stage)."""
        key = ("series", address, samples, interval, start_time)
        cached = self._series.get(key)
        if cached is not None:
            self._count("reused", samples)
            return cached
        collected = collect_series(
            self._network,
            address,
            self._vantage,
            samples=samples,
            interval=interval,
            start_time=start_time,
        )
        self._count("issued", samples)
        self._series[key] = collected
        return collected

    def interleaved(
        self,
        addresses: Sequence[str],
        rounds: int,
        interval: float,
        start_time: float,
    ) -> dict[str, IpidTimeSeries]:
        """A round-robin interleaved collection over ``addresses``."""
        members = tuple(addresses)
        key = ("interleaved", members, rounds, interval, start_time)
        cached = self._interleaved.get(key)
        if cached is not None:
            self._count("reused", rounds * len(members))
            return cached
        collected = collect_interleaved(
            self._network,
            list(members),
            self._vantage,
            rounds=rounds,
            interval=interval,
            start_time=start_time,
        )
        self._count("issued", rounds * len(members))
        self._interleaved[key] = collected
        for position, left in enumerate(members):
            for right in members[position + 1 :]:
                self._pairs[frozenset((left, right))] = key
        return collected

    def cached_interleaved(
        self,
        left: str,
        right: str,
        requested_probes: int | None = None,
        now: float | None = None,
        max_age: float | None = None,
    ) -> dict[str, IpidTimeSeries] | None:
        """Any banked interleaved collection that probed both addresses.

        Schedule-agnostic: this is how a second technique (Ally) reuses the
        series a first one (MIDAR corroboration) already paid for.  Returns
        the most recently collected match, or ``None``.

        ``requested_probes`` is what the caller's own schedule would have
        issued for this pair — the quantity a hit adds to
        :attr:`probes_reused`, keeping the counter's meaning ("probes not
        sent thanks to the bank") consistent with the exact-key paths.  It
        defaults to the banked collection's own probe slots for the pair.

        ``now``/``max_age`` bound reuse by simulated-time staleness: a
        banked collection older than ``max_age`` relative to ``now`` is
        *not* served (returns ``None``), forcing the caller back to live
        probing — the probe-budget optimizer's guard against reusing
        pair evidence across churn.  Both default to ``None`` (unbounded),
        which preserves the pre-optimizer behaviour byte for byte.
        """
        key = self._pairs.get(frozenset((left, right)))
        if key is None:
            return None
        if max_age is not None and now is not None:
            collected_at = float(key[4])
            if abs(now - collected_at) > max_age:
                return None
        if requested_probes is None:
            banked_rounds = key[2]
            requested_probes = 2 * banked_rounds
        self._count("reused", requested_probes)
        return self._interleaved[key]

    # ------------------------------------------------------------------ #
    # Canonical estimation (the shared estimation stage)
    # ------------------------------------------------------------------ #
    def estimation_free(
        self,
        address: str,
        samples: int,
        interval: float,
        start_time: float,
        max_age: float | None = None,
    ) -> bool:
        """Whether :meth:`estimation_series` would be served without probing.

        The probe-budget scheduler's pre-check: a ``True`` answer means the
        matching read mutates nothing but the reuse counters, so it stays
        allowed even after the budget closes.
        """
        canonical = self._estimation.get((address, samples, interval))
        if canonical is not None:
            collected_at = float(canonical[4])
            if max_age is None or abs(start_time - collected_at) <= max_age:
                return True
        return ("series", address, samples, interval, start_time) in self._series

    def cached_estimation(
        self, address: str, samples: int, interval: float
    ) -> tuple[IpidTimeSeries, float] | None:
        """Peek at the canonical estimation series for one schedule shape.

        Returns ``(series, collected_at)`` without touching the probe
        counters, or ``None`` when no canonical collection exists yet.
        """
        canonical = self._estimation.get((address, samples, interval))
        if canonical is None:
            return None
        return self._series[canonical], float(canonical[4])

    def estimation_series(
        self,
        address: str,
        samples: int,
        interval: float,
        start_time: float,
        max_age: float | None = None,
        early_stop: tuple[int, float] | None = None,
    ) -> tuple[IpidTimeSeries, float, int]:
        """One canonical estimation read per (address, schedule shape).

        Unlike :meth:`series`, which memoises on the exact start time, this
        serves *any* banked canonical collection whose window aligns (same
        sample count and interval) and is no older than ``max_age``
        relative to ``start_time`` — MIDAR, Ally-style and Speedtrap
        estimation all read from one schedule per vantage instead of
        collecting per-validator series.  A staleness-expired canonical
        entry is never silently reused: the read falls back to a live
        collection, which then becomes the new canonical series.

        ``early_stop=(min_responses, max_velocity)`` opts a *fresh*
        collection into stopping as soon as the caller's
        :func:`~repro.baselines.ipid.classify_series` outcome is already
        decided (see :meth:`_collect_estimation`); banked reads are
        unaffected.  Callers that omit it keep the pure-memoisation
        behaviour: a cold read issues exactly the probes
        :func:`~repro.baselines.ipid.collect_series` would.

        Returns ``(series, collected_at, issued)`` where ``issued`` counts
        the fresh network probes spent (the quantity a probe budget must
        be charged and the simulated clock advanced for; zero for a read
        served from the bank).
        """
        canonical = self._estimation.get((address, samples, interval))
        if canonical is not None:
            collected_at = float(canonical[4])
            if max_age is None or abs(start_time - collected_at) <= max_age:
                self._count("reused", samples)
                return self._series[canonical], collected_at, 0
        issued_before = self._probes_issued
        key = ("series", address, samples, interval, start_time)
        if early_stop is None or key in self._series:
            collected = self.series(address, samples, interval, start_time)
        else:
            collected = self._collect_estimation(
                address, samples, interval, start_time, *early_stop
            )
            self._series[key] = collected
        self._estimation[(address, samples, interval)] = key
        return collected, start_time, self._probes_issued - issued_before

    def _collect_estimation(
        self,
        address: str,
        samples: int,
        interval: float,
        start_time: float,
        min_responses: int,
        max_velocity: float,
    ) -> IpidTimeSeries:
        """Collect an estimation series, stopping once its class is decided.

        :func:`~repro.baselines.ipid.shared_counter_test` is adjacency
        based: a bound violation between two consecutive responses stays a
        violation no matter what is appended afterwards, and the response
        count only grows.  So once the collected prefix already fails the
        test with ``min_responses`` responses in hand,
        :func:`~repro.baselines.ipid.classify_series` is guaranteed to
        return ``NON_MONOTONIC`` for the full series — the remaining
        probes buy no information and are skipped.  (Random-IPID targets,
        the bulk of real candidate sets, almost always violate the bound
        within the first few samples.)  The truncated series is banked as
        the canonical collection for this schedule shape, which is safe
        for every consumer classifying under the same or a stricter
        ``max_velocity``: a violation of a looser bound implies one of any
        tighter bound, and velocities are only ever read for ``USABLE``
        addresses, which are never truncated.
        """
        series = IpidTimeSeries(address=address)
        issued = 0
        for index in range(samples):
            timestamp = start_time + index * interval
            series.add(timestamp, self._network.sample_ipid(address, self._vantage, now=timestamp))
            issued += 1
            if series.response_count >= min_responses and not shared_counter_test(
                series.samples, max_velocity=max_velocity
            ):
                break
        self._count("issued", issued)
        return series

    # ------------------------------------------------------------------ #
    # State export/restore (persisted sample banks)
    # ------------------------------------------------------------------ #
    def export_state(self) -> dict:
        """The bank's collected samples and accounting as plain JSON data.

        Everything a reloaded session needs to re-score candidate sets
        offline: the vantage identity, every collected series and
        interleaved collection (with their exact schedule keys), the
        pair-reuse and canonical-estimation maps, and the probe counters.
        ``from_state`` inverts it exactly; :mod:`repro.persist.bank` wraps
        the state in a signature-verified document.
        """
        interleaved_keys = list(self._interleaved)
        key_positions = {key: position for position, key in enumerate(interleaved_keys)}
        return {
            "vantage": {
                "name": self._vantage.name,
                "address": self._vantage.address,
                "distributed": self._vantage.distributed,
            },
            "probes_issued": self._probes_issued,
            "probes_reused": self._probes_reused,
            "series": [
                {
                    "address": key[1],
                    "samples": key[2],
                    "interval": key[3],
                    "start_time": key[4],
                    "points": [[timestamp, value] for timestamp, value in series.samples],
                }
                for key, series in self._series.items()
            ],
            "interleaved": [
                {
                    "members": list(key[1]),
                    "rounds": key[2],
                    "interval": key[3],
                    "start_time": key[4],
                    "points": {
                        address: [[timestamp, value] for timestamp, value in series.samples]
                        for address, series in collection.items()
                    },
                }
                for key, collection in self._interleaved.items()
            ],
            "pairs": [
                [sorted(pair)[0], sorted(pair)[1], key_positions[key]]
                for pair, key in self._pairs.items()
            ],
            "estimation": [
                [address, samples, interval, key[4]]
                for (address, samples, interval), key in self._estimation.items()
            ],
        }

    @classmethod
    def from_state(
        cls, network: SimulatedInternet, state: dict
    ) -> "IpidSampleBank":
        """Rebuild a bank over ``network`` from :meth:`export_state` output.

        The restored bank answers every read its saved counterpart could —
        exact-key, pair-wise, and canonical-estimation — without touching
        the network, which is what makes reloaded sessions re-score
        candidate sets with zero probes.
        """
        vantage = VantagePoint(
            name=str(state["vantage"]["name"]),
            address=str(state["vantage"]["address"]),
            distributed=bool(state["vantage"]["distributed"]),
        )
        bank = cls(network, vantage)
        bank._probes_issued = int(state["probes_issued"])
        bank._probes_reused = int(state["probes_reused"])
        for entry in state["series"]:
            key = (
                "series",
                str(entry["address"]),
                int(entry["samples"]),
                float(entry["interval"]),
                float(entry["start_time"]),
            )
            series = IpidTimeSeries(address=str(entry["address"]))
            series.samples = [
                (float(timestamp), int(value)) for timestamp, value in entry["points"]
            ]
            bank._series[key] = series
        interleaved_keys: list[ScheduleKey] = []
        for entry in state["interleaved"]:
            members = tuple(str(address) for address in entry["members"])
            key = (
                "interleaved",
                members,
                int(entry["rounds"]),
                float(entry["interval"]),
                float(entry["start_time"]),
            )
            collection = {}
            for address, points in entry["points"].items():
                series = IpidTimeSeries(address=str(address))
                series.samples = [
                    (float(timestamp), int(value)) for timestamp, value in points
                ]
                collection[str(address)] = series
            bank._interleaved[key] = collection
            interleaved_keys.append(key)
        for left, right, position in state["pairs"]:
            bank._pairs[frozenset((str(left), str(right)))] = interleaved_keys[
                int(position)
            ]
        for address, samples, interval, start_time in state["estimation"]:
            bank._estimation[(str(address), int(samples), float(interval))] = (
                "series",
                str(address),
                int(samples),
                float(interval),
                float(start_time),
            )
        return bank
