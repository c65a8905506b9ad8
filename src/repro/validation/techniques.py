"""IPID technique pipelines over a shared sample bank.

:class:`MidarPipeline` (estimation → elimination → corroboration) and
:class:`AllyPipeline` (pairwise tests) collect through an
:class:`~repro.validation.bank.IpidSampleBank`, which is what lets
composed validations share collected series.  Each takes the run's
optional :class:`~repro.validation.budget.ProbeBudgetOptimizer`, and
whether one is attached is the only switch between two behaviours:

* **Without an optimizer** a cold bank issues exactly the probes the
  classic MIDAR and Ally probers issued, in the same order and at the
  same simulated times (``tests/validation/test_probe_schedule.py`` pins
  the sequence; ``bench_validation.py`` holds Table 2 to byte parity).
* **With an optimizer** the levers apply: estimation reads go through
  the bank's shared, early-stopping estimation stage and the velocity
  cache; corroboration skips pairs already connected by passing tests
  and answers repeat passes from the banked first pass; banked pair
  evidence is reused only within the optimizer's staleness bound; and
  every fresh collection is requested from, and charged to, the global
  probe budget (a denial raises
  :class:`~repro.validation.budget.ProbeBudgetExhausted`).

Decision parity is the optimizer's invariant: under an unlimited budget
every decision (testable, agrees, partition) matches the plain pipeline.
Estimation served from a fresh canonical series classifies identically
to the collection it memoises; a pair already connected by passing tests
cannot change the partition (a pass unions nothing, a failure never
splits); and a repeat pass read from the banked first pass reproduces
that pass's decision.  What *can* differ is the schedule — cached reads
consume no simulated time — which is why parity is stated over
decisions, not timestamps.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

from repro.baselines.ipid import (
    IpidTimeSeries,
    TargetClass,
    classify_series,
    shared_counter_test,
)
from repro.core.alias_resolution import UnionFind
from repro.validation.bank import IpidSampleBank
from repro.validation.budget import ProbeBudgetOptimizer


@dataclasses.dataclass(frozen=True)
class MidarConfig:
    """Probing parameters for the MIDAR pipeline."""

    estimation_samples: int = 8
    estimation_interval: float = 2.0
    corroboration_rounds: int = 6
    corroboration_interval: float = 1.0
    corroboration_passes: int = 2
    min_responses: int = 3
    max_velocity: float = 2_000.0
    velocity_ratio_bound: float = 20.0
    max_set_size: int = 10


@dataclasses.dataclass
class MidarSetVerdict:
    """MIDAR's verdict on one candidate alias set.

    Attributes:
        candidate: the input set.
        target_classes: per-address estimation-stage classification.
        testable: whether at least two members were usable.
        partition: the partition of the usable members produced by pairwise
            corroboration (empty when not testable).
        agrees: whether the partition keeps all usable members in one group,
            i.e. MIDAR confirms the candidate set.
        started_at / finished_at: simulation time window of the probing.
    """

    candidate: frozenset[str]
    target_classes: dict[str, TargetClass]
    testable: bool
    partition: list[frozenset[str]]
    agrees: bool
    started_at: float
    finished_at: float


class MidarPipeline:
    """The MIDAR estimation/elimination/corroboration stages over a bank."""

    def __init__(
        self,
        bank: IpidSampleBank,
        config: MidarConfig | None = None,
        optimizer: ProbeBudgetOptimizer | None = None,
    ) -> None:
        self._bank = bank
        self._config = config or MidarConfig()
        self._optimizer = optimizer

    @property
    def bank(self) -> IpidSampleBank:
        """The sample bank the pipeline collects through."""
        return self._bank

    @property
    def config(self) -> MidarConfig:
        """The probing configuration in use."""
        return self._config

    # ------------------------------------------------------------------ #
    # Stage 1: estimation
    # ------------------------------------------------------------------ #
    def estimate(
        self, addresses: Sequence[str], start_time: float
    ) -> tuple[dict[str, TargetClass], dict[str, float], float]:
        """Classify every address; returns (classes, velocities, end_time)."""
        optimizer = self._optimizer
        classes: dict[str, TargetClass] = {}
        velocities: dict[str, float] = {}
        now = start_time
        for address in addresses:
            if optimizer is None:
                target, velocity, now = self._estimate_own(address, now)
            else:
                target, velocity, now = self._estimate_shared(optimizer, address, now)
            classes[address] = target
            if velocity is not None:
                velocities[address] = velocity
        return classes, velocities, now

    def _estimate_own(
        self, address: str, now: float
    ) -> tuple[TargetClass, float | None, float]:
        """One address's own full estimation series (the classic schedule)."""
        config = self._config
        series = self._bank.series(
            address,
            samples=config.estimation_samples,
            interval=config.estimation_interval,
            start_time=now,
        )
        target = classify_series(
            series, min_responses=config.min_responses, max_velocity=config.max_velocity
        )
        now += config.estimation_samples * config.estimation_interval
        return target, series.velocity(), now

    def _estimate_shared(
        self, optimizer: ProbeBudgetOptimizer, address: str, now: float
    ) -> tuple[TargetClass, float | None, float]:
        """One address through the shared estimation stage.

        Fresh collections charge the budget and advance the clock by the
        probes actually issued — the collection stops early once the
        address's class is decided (see
        :meth:`IpidSampleBank._collect_estimation`), so a random-IPID
        target costs a few probes, not the full schedule.  Reads served
        from the canonical series (or, after a reload, from a restored
        bank) are free in both probes and simulated time.
        """
        config = self._config
        cache = optimizer.velocity_cache
        cost = config.estimation_samples
        if not self._bank.estimation_free(
            address, cost, config.estimation_interval, now, max_age=cache.ttl
        ):
            optimizer.require(cost, f"estimating {address}")
        series, observed_at, issued = self._bank.estimation_series(
            address,
            cost,
            config.estimation_interval,
            now,
            max_age=cache.ttl,
            early_stop=(config.min_responses, config.max_velocity),
        )
        if issued:
            optimizer.charge(issued)
            now += issued * config.estimation_interval
        entry = cache.classify(address, series, observed_at, config)
        return entry.target_class, entry.velocity, now

    # ------------------------------------------------------------------ #
    # Stage 2 + 3: elimination and corroboration
    # ------------------------------------------------------------------ #
    def _velocity_compatible(self, left: float, right: float) -> bool:
        low, high = sorted((max(left, 0.1), max(right, 0.1)))
        return high / low <= self._config.velocity_ratio_bound

    def _pair_decision(
        self, series: dict[str, IpidTimeSeries], left: str, right: str
    ) -> bool:
        """The monotonic-bounds decision over one interleaved collection."""
        config = self._config
        left_samples = series[left].samples
        right_samples = series[right].samples
        if (
            len(left_samples) < config.min_responses
            or len(right_samples) < config.min_responses
        ):
            return False
        return shared_counter_test(
            left_samples + right_samples, max_velocity=config.max_velocity
        )

    def _pair_shares_counter(
        self, left: str, right: str, start_time: float
    ) -> tuple[bool, float]:
        """Run the interleaved corroboration passes for one pair.

        With an optimizer the pair is decided bank-first: a banked
        collection of the pair that is still fresh (the velocity cache's
        staleness bound, which also bounds how old pair evidence may be)
        decides without probing or consuming time.  Failing that, only the
        first pass is probed — the members' velocities were just
        (re-)estimated fresh, so a repeat collection adds no information
        and the banked first pass answers it, halving the per-pair cost.
        """
        config = self._config
        optimizer = self._optimizer
        per_pass = 2 * config.corroboration_rounds
        passes = config.corroboration_passes
        if optimizer is not None:
            banked = self._bank.cached_interleaved(
                left,
                right,
                requested_probes=passes * per_pass,
                now=start_time,
                max_age=optimizer.ttl,
            )
            if banked is not None:
                return self._pair_decision(banked, left, right), start_time
            passes = 1
            optimizer.require(per_pass, f"corroborating {left}/{right}")
        issued_before = self._bank.probes_issued
        now = start_time
        shares = True
        for _ in range(passes):
            series = self._bank.interleaved(
                (left, right),
                rounds=config.corroboration_rounds,
                interval=config.corroboration_interval,
                start_time=now,
            )
            now += per_pass * config.corroboration_interval
            if not self._pair_decision(series, left, right):
                shares = False
                break
        if optimizer is not None:
            optimizer.charge(self._bank.probes_issued - issued_before)
        return shares, now

    def verify_set(self, candidate: Iterable[str], start_time: float = 0.0) -> MidarSetVerdict:
        """Run the full pipeline on one candidate alias set.

        With an optimizer, pairs already connected by passing tests are
        skipped: a k-member true alias set then pays for a spanning tree
        of pair tests instead of ~k²/2, with the partition unchanged.
        """
        members = sorted(candidate)[: self._config.max_set_size]
        classes, velocities, now = self.estimate(members, start_time)
        usable = [address for address in members if classes[address] is TargetClass.USABLE]
        if len(usable) < 2:
            return MidarSetVerdict(
                candidate=frozenset(members),
                target_classes=classes,
                testable=False,
                partition=[],
                agrees=False,
                started_at=start_time,
                finished_at=now,
            )
        # Pairwise corroboration over velocity-compatible pairs.
        skip_connected = self._optimizer is not None
        union_find = UnionFind()
        for address in usable:
            union_find.add(address)

        for index, left in enumerate(usable):
            for right in usable[index + 1 :]:
                if skip_connected and union_find.find(left) == union_find.find(right):
                    continue
                if not self._velocity_compatible(velocities.get(left, 0.1), velocities.get(right, 0.1)):
                    continue
                shares, now = self._pair_shares_counter(left, right, now)
                if shares:
                    union_find.union(left, right)
        partition = [frozenset(group) for group in union_find.groups()]
        agrees = len(partition) == 1
        return MidarSetVerdict(
            candidate=frozenset(members),
            target_classes=classes,
            testable=True,
            partition=partition,
            agrees=agrees,
            started_at=start_time,
            finished_at=now,
        )

    def verify_sets(
        self, candidates: Iterable[Iterable[str]], start_time: float = 0.0
    ) -> list[MidarSetVerdict]:
        """Verify many candidate sets sequentially (a MIDAR "run").

        The sets are probed one after another, so a long run exposes later
        sets to more churn — the effect the paper blames for part of its
        SSH/MIDAR disagreement.
        """
        verdicts: list[MidarSetVerdict] = []
        now = start_time
        for candidate in candidates:
            verdict = self.verify_set(candidate, start_time=now)
            verdicts.append(verdict)
            now = verdict.finished_at
        return verdicts


@dataclasses.dataclass(frozen=True)
class AllyPairResult:
    """Outcome of one Ally pair test through the bank.

    ``left_responded`` / ``right_responded`` expose the per-side response
    status the set-level verdict needs; ``reused`` records whether the
    samples came from the bank (no probes issued, no time consumed).
    """

    left: str
    right: str
    left_responded: bool
    right_responded: bool
    aliases: bool
    reused: bool

    @property
    def responded(self) -> bool:
        """Whether both sides produced enough samples to test."""
        return self.left_responded and self.right_responded


@dataclasses.dataclass(frozen=True)
class AllySetResult:
    """Ally's set-level outcome: the pairwise tests folded into a partition.

    Attributes:
        members: the (sorted, possibly truncated) members actually tested.
        responded: members that answered with ≥2 samples in some pair test.
        partition: union-find groups restricted to the responded members.
        reused_pairs / tested_pairs: how many pair tests were answered from
            the bank vs probed fresh.
        started_at / finished_at: simulation time window of fresh probing.
    """

    members: tuple[str, ...]
    responded: frozenset[str]
    partition: tuple[frozenset[str], ...]
    reused_pairs: int
    tested_pairs: int
    started_at: float
    finished_at: float

    @property
    def testable(self) -> bool:
        """Whether at least two members responded to pair probing."""
        return len(self.responded) >= 2

    @property
    def agrees(self) -> bool:
        """Whether all responded members fold into one group."""
        return self.testable and len(self.partition) == 1


class AllyPipeline:
    """Pairwise Ally tests over a bank, with optional banked-series reuse.

    With ``reuse=False`` every pair is probed fresh, which on a cold bank
    reproduces the classic Ally prober byte for byte.  With ``reuse=True``
    a pair that some earlier validator already probed together (any
    interleaved schedule) is decided from the banked series without
    touching the network — the composed-validation saving the benchmark
    measures.  An attached optimizer bounds that reuse by its staleness
    bound and routes fresh pair tests through the global budget.
    """

    def __init__(
        self,
        bank: IpidSampleBank,
        rounds: int = 3,
        interval: float = 0.5,
        max_velocity: float = 2_000.0,
        reuse: bool = False,
        optimizer: ProbeBudgetOptimizer | None = None,
    ) -> None:
        self._bank = bank
        self._rounds = rounds
        self._interval = interval
        self._max_velocity = max_velocity
        self._reuse = reuse
        self._optimizer = optimizer

    @property
    def bank(self) -> IpidSampleBank:
        """The sample bank the pipeline collects through."""
        return self._bank

    @property
    def pair_duration(self) -> float:
        """Simulated seconds one freshly probed pair test occupies."""
        return 2 * self._rounds * self._interval

    def _decide(
        self, series: dict[str, IpidTimeSeries], left: str, right: str, reused: bool
    ) -> AllyPairResult:
        left_samples = series[left].samples
        right_samples = series[right].samples
        left_ok = len(left_samples) >= 2
        right_ok = len(right_samples) >= 2
        aliases = False
        if left_ok and right_ok:
            aliases = shared_counter_test(
                left_samples + right_samples, max_velocity=self._max_velocity
            )
        return AllyPairResult(
            left=left,
            right=right,
            left_responded=left_ok,
            right_responded=right_ok,
            aliases=aliases,
            reused=reused,
        )

    def test_pair(self, left: str, right: str, start_time: float = 0.0) -> AllyPairResult:
        """Test one pair, reusing banked series when allowed and available."""
        requested = 2 * self._rounds
        optimizer = self._optimizer
        if self._reuse:
            cached = self._bank.cached_interleaved(
                left,
                right,
                requested_probes=requested,
                now=start_time,
                max_age=None if optimizer is None else optimizer.ttl,
            )
            if cached is not None:
                return self._decide(cached, left, right, reused=True)
        if optimizer is not None:
            optimizer.require(requested, f"Ally pair {left}/{right}")
        issued_before = self._bank.probes_issued
        series = self._bank.interleaved(
            (left, right), rounds=self._rounds, interval=self._interval, start_time=start_time
        )
        if optimizer is not None:
            optimizer.charge(self._bank.probes_issued - issued_before)
        return self._decide(series, left, right, reused=False)

    def verify_set(
        self,
        candidate: Iterable[str],
        start_time: float = 0.0,
        max_set_size: int = 10,
    ) -> AllySetResult:
        """Run the pairwise loop over one candidate set.

        Members are taken in sorted order, already-connected pairs are
        skipped, and every freshly probed pair advances the clock by one
        pair duration (reused pairs are free).  Quadratic in the set size —
        Ally's historical limitation.
        """
        members = tuple(sorted(candidate)[:max_set_size])
        union_find = UnionFind()
        responded: set[str] = set()
        for address in members:
            union_find.add(address)
        now = start_time
        reused_pairs = 0
        tested_pairs = 0
        for index, left in enumerate(members):
            for right in members[index + 1 :]:
                if union_find.find(left) == union_find.find(right):
                    continue
                verdict = self.test_pair(left, right, start_time=now)
                tested_pairs += 1
                if verdict.reused:
                    reused_pairs += 1
                else:
                    now += self.pair_duration
                if verdict.left_responded:
                    responded.add(left)
                if verdict.right_responded:
                    responded.add(right)
                if verdict.aliases:
                    union_find.union(left, right)
        partition = tuple(
            frozenset(group & responded)
            for group in union_find.groups()
            if group & responded
        )
        return AllySetResult(
            members=members,
            responded=frozenset(responded),
            partition=partition,
            reused_pairs=reused_pairs,
            tested_pairs=tested_pairs,
            started_at=start_time,
            finished_at=now,
        )
