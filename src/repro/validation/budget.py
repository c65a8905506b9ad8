"""The probe-budget optimizer's state: budget, velocity cache, outcomes.

The paper's central cost at Internet scale is probes, not CPU: MIDAR-style
IPID estimation dominates the probe count, and reaching the "millions of
candidate sets" regime means making validation probe cost the optimized
quantity.  The shared :class:`~repro.validation.bank.IpidSampleBank`
(exact-schedule memoisation) reuses only a few percent of probes on a
composed validation.  An optimizer attached to a run layers four
cooperating optimisations on top of it.  This module holds their shared
state; the levers themselves run inside the technique pipelines
(:mod:`repro.validation.techniques`) and the priority scheduler inside
the runner's per-set loop (:mod:`repro.validation.runner`):

* **Shared estimation** — :meth:`IpidSampleBank.estimation_series` keeps
  one canonical estimation collection per (address, schedule shape) and
  vantage; MIDAR, Ally-style and Speedtrap estimation reads are satisfied
  from it whenever their windows align, instead of collecting
  per-validator series.  Fresh collections stop as soon as the address's
  target class is already decided: a monotonic-bounds violation between
  consecutive responses can never be repaired by later samples, so a
  random-IPID target is classified ``NON_MONOTONIC`` after a handful of
  probes instead of the full estimation schedule.
* **Velocity cache** — :class:`VelocityCache` memoises each address's
  estimation verdict (target class + counter velocity) with a
  simulated-time staleness bound: a candidate set whose member velocities
  are fresh is re-scored without re-probing, while a staleness-expired
  entry always falls back to live probing (it is never silently reused —
  the guard that keeps longitudinal validation honest across churn).
* **Probe budget** — :class:`ProbeBudget` is a global fresh-probe
  allowance spent across candidate sets in priority order (largest /
  most-uncertain first).  Once a request is denied the budget *closes*:
  no further fresh probes are issued at all, so a capped run's fresh-probe
  sequence is an exact prefix of the uncapped run's.  Sets the budget
  cannot afford are reported ``unresolved`` — never mis-verdicted — and
  sets answerable entirely from the bank still resolve for free.
* **Redundancy elimination** — :class:`~repro.validation.techniques.
  MidarPipeline` skips corroboration pairs already connected by earlier
  passing tests (partition-invariant: a passing test between connected
  members unions nothing, and a failing one never splits) and answers
  repeat corroboration passes from the banked first pass while the
  pair's velocities are fresh.

Verdict parity is the design constraint throughout: under an unlimited
budget every *decision* (testable, agrees, partition) matches the
non-optimized pipelines — ``benchmarks/bench_budget.py`` gates the probe
reduction on that parity.

Entry points: :func:`run_budgeted` (also behind
``ReproSession.validate_budgeted`` and ``repro validate --budget N``) and
:func:`consensus_report`, the fold behind the ``consensus()`` validator
kind (N techniques, one bank, per-set majority/conflict report).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable, Sequence

from repro import obs
from repro.baselines.ipid import IpidTimeSeries, TargetClass, classify_series
from repro.errors import ValidationError
from repro.validation.report import (
    CandidateSets,
    SetVerdict,
    ValidationReport,
)
from repro.validation.spec import VALIDATORS, ValidatorSpec, display_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.validation.runner import ValidationRun
    from repro.validation.techniques import MidarConfig

#: Default staleness bound of the velocity cache, in simulated seconds.
#: One day: far longer than any single validation run, far shorter than
#: the week-scale longitudinal intervals, so within-run re-scoring is free
#: while cross-snapshot reuse always re-probes.
DEFAULT_VELOCITY_TTL = 86_400.0

#: Per-address class label marking a candidate set the budget left unprobed.
UNRESOLVED_LABEL = "unresolved"

#: Per-technique outcome labels a consensus verdict's ``classes`` carry.
CONSENSUS_OUTCOMES = frozenset({"agree", "disagree", "untestable", UNRESOLVED_LABEL})


class ProbeBudgetExhausted(ValidationError):
    """Raised inside a pipeline when a fresh-probe request is denied.

    Internal control flow: the runner's per-set loop catches it and
    records the set as unresolved.  It only escapes when a pipeline with
    an optimizer is driven directly outside a runner.
    """


@dataclasses.dataclass
class ProbeBudget:
    """A global fresh-probe allowance shared across candidate sets.

    ``limit=None`` is unlimited (every request granted, spend still
    tracked).  The first denied request *closes* the budget: every later
    request is denied too, whatever its size.  Closing is what guarantees
    graceful degradation — the fresh probes of a capped run form an exact
    prefix of the uncapped run's sequence, so every verdict the capped run
    still resolves is identical to the uncapped one by construction.
    """

    limit: int | None = None
    spent: int = 0
    closed: bool = False

    def __post_init__(self) -> None:
        if self.limit is not None and self.limit < 0:
            raise ValidationError(f"probe budget cannot be negative (got {self.limit})")

    def request(self, probes: int) -> bool:
        """Ask to issue ``probes`` fresh probes; denial closes the budget."""
        if self.closed:
            return False
        if self.limit is not None and self.spent + probes > self.limit:
            self.closed = True
            return False
        return True

    def charge(self, probes: int) -> None:
        """Record ``probes`` fresh probes actually issued."""
        self.spent += probes

    @property
    def remaining(self) -> int | None:
        """Probes left before the limit (``None`` when unlimited)."""
        if self.limit is None:
            return None
        return max(0, self.limit - self.spent)


@dataclasses.dataclass(frozen=True)
class VelocityEntry:
    """One address's cached estimation verdict.

    ``observed_at`` is the simulated time the underlying canonical series
    was collected — the quantity the staleness bound compares against.
    """

    address: str
    target_class: TargetClass
    velocity: float | None
    observed_at: float


class VelocityCache:
    """Per-address estimation verdicts with a simulated-time staleness bound.

    Entries key on the estimation schedule shape *and* the classification
    parameters, so validators with different configurations never share a
    verdict their own parameters would not have produced.  An entry is
    served only while fresh (``|now - observed_at| <= ttl``); expired
    entries are replaced by live re-estimation, never silently reused.
    """

    def __init__(self, ttl: float = DEFAULT_VELOCITY_TTL) -> None:
        if ttl <= 0:
            raise ValidationError(f"velocity-cache ttl must be positive (got {ttl})")
        self.ttl = ttl
        self._entries: dict[tuple[str, int, float, int, float], VelocityEntry] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(address: str, config: MidarConfig) -> tuple[str, int, float, int, float]:
        return (
            address,
            config.estimation_samples,
            config.estimation_interval,
            config.min_responses,
            config.max_velocity,
        )

    def entry(self, address: str, config: MidarConfig) -> VelocityEntry | None:
        """The stored entry for one address/configuration, fresh or not."""
        return self._entries.get(self._key(address, config))

    def is_fresh(self, entry: VelocityEntry, now: float) -> bool:
        """Whether ``entry`` is within the staleness bound at ``now``."""
        return abs(now - entry.observed_at) <= self.ttl

    def fresh(self, address: str, config: MidarConfig, now: float) -> VelocityEntry | None:
        """The stored entry if it is fresh at ``now``, else ``None``."""
        entry = self.entry(address, config)
        if entry is not None and self.is_fresh(entry, now):
            return entry
        return None

    def classify(
        self,
        address: str,
        series: IpidTimeSeries,
        observed_at: float,
        config: MidarConfig,
    ) -> VelocityEntry:
        """Memoised classification of one (possibly banked) estimation series.

        A stored entry derived from the same collection (equal
        ``observed_at``) is returned as-is; anything else — including an
        entry of a replaced, staleness-expired collection — is recomputed
        from the series and stored.
        """
        key = self._key(address, config)
        entry = self._entries.get(key)
        if entry is not None and entry.observed_at == observed_at:
            self.hits += 1
            return entry
        self.misses += 1
        entry = VelocityEntry(
            address=address,
            target_class=classify_series(
                series,
                min_responses=config.min_responses,
                max_velocity=config.max_velocity,
            ),
            velocity=series.velocity(),
            observed_at=observed_at,
        )
        self._entries[key] = entry
        return entry


@dataclasses.dataclass(frozen=True)
class SetOutcome:
    """Per-set spend accounting of one budgeted run, in spend order."""

    validator: str
    candidate: frozenset[str]
    outcome: str  # "probed" | "cached" | "unresolved"
    probes_issued: int
    probes_reused: int


class ProbeBudgetOptimizer:
    """Shared optimisation state a budgeted validation run probes through.

    Attach one to a :class:`~repro.validation.runner.ValidationRun`
    (``run.optimizer = ...`` — :func:`run_budgeted` does this for you) and
    the bank-based technique pipelines apply their optimizer levers:
    shared estimation, the velocity cache, redundancy elimination, and the
    global :class:`ProbeBudget`.  ``budget=None`` optimizes without a cap.
    """

    def __init__(
        self,
        budget: int | ProbeBudget | None = None,
        velocity_ttl: float = DEFAULT_VELOCITY_TTL,
    ) -> None:
        self.budget = budget if isinstance(budget, ProbeBudget) else ProbeBudget(limit=budget)
        self.velocity_cache = VelocityCache(ttl=velocity_ttl)
        self.outcomes: list[SetOutcome] = []

    @property
    def ttl(self) -> float:
        """The staleness bound shared by every reuse decision of the run."""
        return self.velocity_cache.ttl

    def request(self, probes: int) -> bool:
        """Delegate a fresh-probe request to the global budget."""
        return self.budget.request(probes)

    def require(self, probes: int, what: str) -> None:
        """Request fresh probes for ``what``; a denial raises.

        Raises:
            ProbeBudgetExhausted: when the global budget denies the request.
        """
        if not self.request(probes):
            raise ProbeBudgetExhausted(
                f"{what} needs {probes} fresh probes; the probe budget is exhausted"
            )

    def charge(self, probes: int) -> None:
        """Charge fresh probes actually issued against the global budget."""
        self.budget.charge(probes)

    def record(
        self,
        validator: str,
        candidate: frozenset[str],
        outcome: str,
        probes_issued: int,
        probes_reused: int,
    ) -> None:
        """Record one candidate set's outcome and surface it via obs.

        The ``validation.budget`` counter counts *sets* per outcome
        (``probed`` — fresh probes spent, ``cached`` — answered entirely
        from the bank, ``unresolved`` — skipped by the budget); the probe
        totals themselves ride the existing ``validation.probes`` counter.
        """
        self.outcomes.append(
            SetOutcome(
                validator=validator,
                candidate=candidate,
                outcome=outcome,
                probes_issued=probes_issued,
                probes_reused=probes_reused,
            )
        )
        if obs.is_enabled():
            obs.add("validation.budget", 1, outcome=outcome, validator=validator)


# --------------------------------------------------------------------------- #
# Unresolved verdicts
# --------------------------------------------------------------------------- #
def unresolved_verdict(candidate: Iterable[str], at: float) -> SetVerdict:
    """The verdict of a candidate set the budget left unprobed.

    Unresolved is a first-class outcome, distinct from "tested but
    untestable": ``testable`` is ``False`` (the set never counts toward
    agreement either way) and every member carries the
    :data:`UNRESOLVED_LABEL` class, which :func:`is_unresolved` detects.
    """
    members = tuple(sorted(candidate))
    return SetVerdict(
        candidate=frozenset(members),
        testable=False,
        agrees=False,
        partition=(),
        classes=tuple((address, UNRESOLVED_LABEL) for address in members),
        started_at=at,
        finished_at=at,
    )


def is_unresolved(verdict: SetVerdict) -> bool:
    """Whether a verdict marks a budget-skipped (unprobed) candidate set."""
    return (
        not verdict.testable
        and bool(verdict.classes)
        and all(label == UNRESOLVED_LABEL for _, label in verdict.classes)
    )


# --------------------------------------------------------------------------- #
# Consensus: N techniques, one bank, per-set majority/conflict report
# --------------------------------------------------------------------------- #
def consensus_report(
    spec: ValidatorSpec,
    reports: Sequence[ValidationReport],
    candidates: CandidateSets,
    start: float,
) -> ValidationReport:
    """Fold N per-technique reports over one candidate list into one verdict.

    Per candidate set, every technique casts a vote (``agree`` /
    ``disagree``) or abstains (``untestable`` / ``unresolved``); the
    consensus agrees when a strict majority of cast votes agree.  The
    per-technique outcomes ride each verdict's ``classes`` as
    ``("<position>:<validator>", outcome)`` pairs — the paper's
    "techniques disagree" discussion as a first-class output, parsed back
    by :func:`consensus_breakdown`.
    """
    for report in reports:
        if len(report.verdicts) != len(candidates):
            raise ValidationError(
                f"consensus input {report.validator!r} produced "
                f"{len(report.verdicts)} verdicts for {len(candidates)} candidates"
            )
    names = [f"{position}:{report.validator}" for position, report in enumerate(reports)]
    verdicts: list[SetVerdict] = []
    for index, candidate in enumerate(candidates):
        outcomes: list[tuple[str, str]] = []
        agree_votes = 0
        disagree_votes = 0
        agree_partition: tuple[frozenset[str], ...] | None = None
        disagree_partition: tuple[frozenset[str], ...] | None = None
        for name, report in zip(names, reports):
            verdict = report.verdicts[index]
            if is_unresolved(verdict):
                outcomes.append((name, UNRESOLVED_LABEL))
            elif not verdict.testable:
                outcomes.append((name, "untestable"))
            elif verdict.agrees:
                agree_votes += 1
                if agree_partition is None:
                    agree_partition = verdict.partition
                outcomes.append((name, "agree"))
            else:
                disagree_votes += 1
                if disagree_partition is None:
                    disagree_partition = verdict.partition
                outcomes.append((name, "disagree"))
        testable = (agree_votes + disagree_votes) > 0
        agrees = testable and agree_votes > disagree_votes
        if agrees and agree_partition is not None:
            partition = agree_partition
        elif disagree_partition is not None:
            partition = disagree_partition
        elif agree_partition is not None:
            partition = agree_partition
        else:
            partition = ()
        verdicts.append(
            SetVerdict(
                candidate=frozenset(candidate),
                testable=testable,
                agrees=agrees,
                partition=partition,
                classes=tuple(outcomes),
                started_at=min(report.verdicts[index].started_at for report in reports),
                finished_at=max(report.verdicts[index].finished_at for report in reports),
            )
        )
    return ValidationReport(
        validator=display_name(spec),
        spec=spec,
        candidates=len(candidates),
        verdicts=tuple(verdicts),
        probes_issued=sum(report.probes_issued for report in reports),
        probes_reused=sum(report.probes_reused for report in reports),
        started_at=start,
        finished_at=max((report.finished_at for report in reports), default=start),
    )


@dataclasses.dataclass(frozen=True)
class ConsensusSetBreakdown:
    """One candidate set's per-technique consensus outcomes."""

    candidate: frozenset[str]
    outcomes: tuple[tuple[str, str], ...]
    agree_votes: int
    disagree_votes: int

    @property
    def conflict(self) -> bool:
        """Whether the techniques cast opposing votes on this set."""
        return self.agree_votes > 0 and self.disagree_votes > 0


def consensus_breakdown(report: ValidationReport) -> tuple[ConsensusSetBreakdown, ...]:
    """Parse a consensus report's per-technique outcomes back out.

    Raises:
        ValidationError: when the report's verdicts do not carry consensus
            outcome labels (i.e. it is not a consensus report).
    """
    rows: list[ConsensusSetBreakdown] = []
    for verdict in report.verdicts:
        if not verdict.classes or not all(
            label in CONSENSUS_OUTCOMES for _, label in verdict.classes
        ):
            raise ValidationError(
                f"report {report.validator!r} does not carry consensus outcomes"
            )
        rows.append(
            ConsensusSetBreakdown(
                candidate=verdict.candidate,
                outcomes=verdict.classes,
                agree_votes=sum(1 for _, label in verdict.classes if label == "agree"),
                disagree_votes=sum(
                    1 for _, label in verdict.classes if label == "disagree"
                ),
            )
        )
    return tuple(rows)


# --------------------------------------------------------------------------- #
# The budgeted run entry point
# --------------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class BudgetedValidation:
    """One validator's report inside a budgeted run."""

    name: str
    report: ValidationReport

    @property
    def unresolved(self) -> tuple[frozenset[str], ...]:
        """Candidate sets the budget left unprobed, in candidate order."""
        return tuple(
            verdict.candidate for verdict in self.report.verdicts if is_unresolved(verdict)
        )


@dataclasses.dataclass(frozen=True)
class BudgetRunResult:
    """Everything one :func:`run_budgeted` call produced.

    ``outcomes`` is the per-set spend accounting in actual spend order —
    the scheduler's priority order across validators — which is what the
    scheduler-determinism property test compares between runs.
    """

    validations: tuple[BudgetedValidation, ...]
    limit: int | None
    spent: int
    closed: bool
    outcomes: tuple[SetOutcome, ...]

    @property
    def reports(self) -> tuple[ValidationReport, ...]:
        """The per-validator reports, in request order."""
        return tuple(validation.report for validation in self.validations)

    @property
    def unresolved_count(self) -> int:
        """Candidate sets left unresolved across every validator."""
        return sum(len(validation.unresolved) for validation in self.validations)


def run_budgeted(
    run: "ValidationRun",
    validators: Sequence[str | ValidatorSpec],
    budget: int | None = None,
    velocity_ttl: float = DEFAULT_VELOCITY_TTL,
    optimizer: ProbeBudgetOptimizer | None = None,
) -> BudgetRunResult:
    """Run validators under one shared optimizer and global probe budget.

    The optimizer attaches to ``run`` for the duration: the bank-based
    validators' pipelines (midar, speedtrap, ally) apply its levers,
    iffinder charges its per-member probes against the same
    budget, and PTR — DNS lookups, not network probes — runs unbudgeted.
    ``budget=None`` optimizes without a cap (the configuration whose
    verdicts ``bench_budget.py`` holds to parity with the optimizer-free
    runs); a capped run reports unaffordable sets as unresolved and
    never flips a resolved verdict relative to the uncapped run.
    """
    from repro.validation.runner import run_validator

    if optimizer is None:
        optimizer = ProbeBudgetOptimizer(budget=budget, velocity_ttl=velocity_ttl)
    previous = run.optimizer
    run.optimizer = optimizer
    validations: list[BudgetedValidation] = []
    try:
        for validator in validators:
            spec = (
                validator
                if isinstance(validator, ValidatorSpec)
                else VALIDATORS.get(validator)
            )
            name = validator if isinstance(validator, str) else display_name(spec)
            report = run_validator(run, spec)
            validations.append(BudgetedValidation(name=name, report=report))
    finally:
        run.optimizer = previous
    return BudgetRunResult(
        validations=tuple(validations),
        limit=optimizer.budget.limit,
        spent=optimizer.budget.spent,
        closed=optimizer.budget.closed,
        outcomes=tuple(optimizer.outcomes),
    )
