"""Validator builders and the run harness.

:func:`run_validator` resolves a :class:`~repro.validation.spec.
ValidatorSpec` tree against a :class:`ValidationRun` — the shared state a
validation probes through: a network, per-vantage
:class:`~repro.validation.bank.IpidSampleBank` instances (one bank per
vantage, shared across every validator of the run, which is what makes
composed validations cheap), and optionally a session for candidate
derivation.

Candidate alias sets flow *down* the spec tree: combinators (sample,
filter-family) transform them and delegate to their input; technique
leaves derive them from the session's resolved report when no enclosing
combinator supplied any.  The start time flows the same way, so the
longitudinal path can re-run one spec per snapshot at per-snapshot times.
"""

from __future__ import annotations

import dataclasses
import random
from typing import TYPE_CHECKING, Callable, Sequence

from repro import obs
from repro.baselines.iffinder import IffinderProber
from repro.baselines.ptr import PtrResolver
from repro.core.engine import AliasReport
from repro.errors import ValidationError
from repro.net.addresses import AddressFamily, family_of, is_ipv6
from repro.simnet.device import ServiceType
from repro.simnet.network import SimulatedInternet, VantagePoint
from repro.validation.bank import IpidSampleBank
from repro.validation.budget import (
    ProbeBudgetExhausted,
    ProbeBudgetOptimizer,
    consensus_report,
    unresolved_verdict,
)
from repro.validation.report import (
    CandidateSets,
    SetVerdict,
    ValidationReport,
    canonical_partition,
)
from repro.validation.spec import (
    VALIDATOR_KINDS,
    ValidatorSpec,
    ally,
    consensus,
    display_name,
    iffinder,
    midar,
    ptr,
    register_validator,
    sample,
    speedtrap,
    validator_kind,
)
from repro.validation.techniques import AllyPipeline, MidarConfig, MidarPipeline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.api.session import ReproSession

#: The vantage point bank-based validators probe from unless a spec
#: overrides it.  One shared vantage is what lets validators share one
#: bank; it matches the vantage the paper's Table 2 MIDAR run used.
DEFAULT_VALIDATION_VANTAGE = VantagePoint(name="midar-vp", address="192.0.2.251")


class ValidationRun:
    """Shared probing state for one or more validator executions.

    A session owns one run (``session.validation_run``) so successive
    ``session.validate(...)`` calls share banks; the longitudinal path
    builds one per campaign.  ``session`` may be ``None`` — then every
    spec must be given explicit candidates and start times.
    """

    def __init__(self, network: SimulatedInternet, session: "ReproSession | None" = None) -> None:
        self.network = network
        self.session = session
        self._banks: dict[tuple[str, str, bool], IpidSampleBank] = {}
        #: When set (see :func:`repro.validation.budget.run_budgeted`), the
        #: bank-based pipelines apply the optimizer's levers.
        self.optimizer: ProbeBudgetOptimizer | None = None
        self._start_cache: dict[tuple[str, float], float] = {}

    def bank(self, vantage: VantagePoint) -> IpidSampleBank:
        """The shared sample bank of one vantage point (built once)."""
        key = (vantage.name, vantage.address, vantage.distributed)
        bank = self._banks.get(key)
        if bank is None:
            bank = self._banks[key] = IpidSampleBank(self.network, vantage)
        return bank

    def banks(self) -> dict[tuple[str, str, bool], IpidSampleBank]:
        """Every bank built so far, keyed by vantage identity (read-only).

        The probe-accounting surface: summing ``probes_issued`` /
        ``probes_reused`` over the values gives the run's total spend, the
        same totals the obs layer's ``validation.probes`` counters carry.
        """
        return self._banks

    def restore_bank(self, state: dict) -> IpidSampleBank:
        """Install a persisted bank state (replacing any bank of its vantage).

        The restored bank carries every banked series, pair and canonical
        estimation entry of the saved run, so a reloaded session re-scores
        matching validation specs fully offline — zero network probes.
        """
        bank = IpidSampleBank.from_state(self.network, state)
        key = (bank.vantage.name, bank.vantage.address, bank.vantage.distributed)
        self._banks[key] = bank
        return bank

    def derived_start(self, after: str, lag: float) -> float:
        """Dataset-relative start times, memoised per (dataset, lag).

        Validators that compute equal ``start_after``/``start_lag``
        schedules must land on float-identical start times so their
        estimation and corroboration collections hit one bank key instead
        of near-miss duplicates — a measured contributor to the old ~7%
        reuse rate.
        """
        key = (after, lag)
        start = self._start_cache.get(key)
        if start is None:
            if self.session is None:
                raise ValidationError(
                    f"deriving a start time from dataset {after!r} needs a session"
                )
            timestamps = [
                observation.timestamp for observation in self.session.dataset(after)
            ]
            start = self._start_cache[key] = max(timestamps) + lag if timestamps else 0.0
        return start


def run_validator(
    run: ValidationRun,
    spec: ValidatorSpec,
    candidates: CandidateSets | None = None,
    start_time: float | None = None,
) -> ValidationReport:
    """Execute one validator spec tree and return its report."""
    builder = VALIDATOR_KINDS.get(spec.kind)
    with obs.span("validator.run", kind=spec.kind):
        return builder(run, spec, candidates, start_time)


# --------------------------------------------------------------------------- #
# Candidate and schedule derivation
# --------------------------------------------------------------------------- #
def candidate_sets(report: AliasReport, spec: ValidatorSpec) -> CandidateSets:
    """The index-derived candidate sets a (leaf) spec asks for.

    Reads ``protocol`` (ssh/bgp/snmpv3/union, default ssh) and ``family``
    (ipv4/ipv6, default ipv4) from the spec and returns the non-singleton
    sets of the matching collection, in collection order.
    """
    family = str(spec.param("family", "ipv4"))
    protocol = str(spec.param("protocol", "ssh"))
    if family == "ipv4":
        collections, union = report.ipv4, report.ipv4_union
    elif family == "ipv6":
        collections, union = report.ipv6, report.ipv6_union
    else:
        raise ValidationError(f"unknown address family {family!r} (use ipv4 or ipv6)")
    if protocol == "union":
        collection = union
    else:
        try:
            collection = collections[ServiceType(protocol)]
        except ValueError:
            raise ValidationError(
                f"unknown protocol {protocol!r} (use ssh, bgp, snmpv3 or union)"
            ) from None
    return tuple(alias_set.addresses for alias_set in collection.non_singleton())


def _derive_candidates(run: ValidationRun, spec: ValidatorSpec) -> CandidateSets:
    """Candidates of a leaf spec, resolved through the run's session."""
    leaf = spec.leaf()
    if run.session is None:
        raise ValidationError(
            f"validator {spec.describe()} needs a session to derive candidate "
            "sets; pass candidates explicitly"
        )
    source = str(leaf.param("source", "active"))
    return candidate_sets(run.session.report(source), leaf)


def _derive_start(run: ValidationRun, spec: ValidatorSpec) -> float:
    """When probing starts: explicit param, dataset-relative, or zero.

    ``start_time`` wins; otherwise ``start_after`` names a dataset and the
    run starts ``start_lag`` (default one hour) after its last observation
    — how Table 2 schedules the MIDAR run right after the active campaign.
    """
    explicit = spec.param("start_time")
    if explicit is not None:
        return float(explicit)
    after = spec.param("start_after")
    if after is None:
        return 0.0
    if run.session is None:
        raise ValidationError(
            f"validator {spec.describe()} derives its start time from dataset "
            f"{after!r}, which needs a session; pass start_time explicitly"
        )
    return run.derived_start(str(after), float(spec.param("start_lag", 3600.0)))


def _vantage_from(spec: ValidatorSpec) -> VantagePoint:
    """The vantage a spec probes from (the shared default unless overridden)."""
    default = DEFAULT_VALIDATION_VANTAGE
    return VantagePoint(
        name=str(spec.param("vantage_name", default.name)),
        address=str(spec.param("vantage_address", default.address)),
        distributed=bool(spec.param("distributed", default.distributed)),
    )


# --------------------------------------------------------------------------- #
# IPID technique kinds (MIDAR / Speedtrap / Ally)
# --------------------------------------------------------------------------- #
def _midar_config_from(spec: ValidatorSpec, default: MidarConfig) -> MidarConfig:
    return MidarConfig(
        estimation_samples=int(spec.param("estimation_samples", default.estimation_samples)),
        estimation_interval=float(spec.param("estimation_interval", default.estimation_interval)),
        corroboration_rounds=int(spec.param("corroboration_rounds", default.corroboration_rounds)),
        corroboration_interval=float(
            spec.param("corroboration_interval", default.corroboration_interval)
        ),
        corroboration_passes=int(spec.param("corroboration_passes", default.corroboration_passes)),
        min_responses=int(spec.param("min_responses", default.min_responses)),
        max_velocity=float(spec.param("max_velocity", default.max_velocity)),
        velocity_ratio_bound=float(
            spec.param("velocity_ratio_bound", default.velocity_ratio_bound)
        ),
        max_set_size=int(spec.param("max_set_size", default.max_set_size)),
    )


def _priority_order(
    members_per_set: Sequence[tuple[str, ...]],
    uncertainty: Sequence[int] | None = None,
) -> list[int]:
    """Candidate-set processing order under an optimizer: largest /
    most-uncertain first.

    The budget drains over this order like a sliding window — big,
    unknown sets (the most information per probe) spend first, and the
    sorted-members tiebreak keeps the order fully deterministic, which the
    scheduler-determinism property test pins.
    """

    def key(position: int) -> tuple[int, int, tuple[str, ...]]:
        members = members_per_set[position]
        unknown = uncertainty[position] if uncertainty is not None else 0
        return (-len(members), -unknown, members)

    return sorted(range(len(members_per_set)), key=key)


def _run_sets(
    run: ValidationRun,
    spec: ValidatorSpec,
    bank: IpidSampleBank,
    start: float,
    members_per_set: Sequence[tuple[str, ...]],
    verify: Callable[[tuple[str, ...], float], SetVerdict],
    uncertainty: Callable[[tuple[str, ...]], int] | None = None,
) -> ValidationReport:
    """The per-set loop of every bank-based technique (midar, speedtrap, ally).

    Each set is verified starting where the previous one finished.
    Without an optimizer the sets go in candidate order.  With one they go
    in :func:`_priority_order` (``uncertainty`` scores each set), a set
    the budget cannot finish is reported unresolved — its partial probing
    stays banked for later validators — and every set's spend is recorded
    on the optimizer.  Either way verdicts are reported in candidate
    order, with the bank's issued/reused probes over the whole run.
    """
    optimizer = run.optimizer
    validator = display_name(spec)
    if optimizer is None:
        order: Sequence[int] = range(len(members_per_set))
    else:
        scores = None if uncertainty is None else [uncertainty(m) for m in members_per_set]
        order = _priority_order(members_per_set, scores)
    verdicts: dict[int, SetVerdict] = {}
    issued_total, reused_total = bank.probes_issued, bank.probes_reused
    now = start
    for position in order:
        members = members_per_set[position]
        issued_before, reused_before = bank.probes_issued, bank.probes_reused
        try:
            verdict = verify(members, now)
        except ProbeBudgetExhausted:
            verdict = unresolved_verdict(members, now)
            outcome = "unresolved"
        else:
            now = verdict.finished_at
            outcome = "probed" if bank.probes_issued > issued_before else "cached"
        verdicts[position] = verdict
        if optimizer is not None:
            optimizer.record(
                validator,
                frozenset(members),
                outcome,
                bank.probes_issued - issued_before,
                bank.probes_reused - reused_before,
            )
    return ValidationReport(
        validator=validator,
        spec=spec,
        candidates=len(members_per_set),
        verdicts=tuple(verdicts[position] for position in range(len(members_per_set))),
        probes_issued=bank.probes_issued - issued_total,
        probes_reused=bank.probes_reused - reused_total,
        started_at=start,
        finished_at=now,
    )


def _run_midar_like(
    run: ValidationRun,
    spec: ValidatorSpec,
    candidates: CandidateSets | None,
    start_time: float | None,
    default_config: MidarConfig,
    ipv6_only: bool,
) -> ValidationReport:
    if candidates is None:
        candidates = _derive_candidates(run, spec)
    start = start_time if start_time is not None else _derive_start(run, spec)
    bank = run.bank(_vantage_from(spec))
    config = _midar_config_from(spec, default_config)
    pipeline = MidarPipeline(bank, config, run.optimizer)
    members_per_set = [
        tuple(
            sorted(address for address in candidate if not ipv6_only or is_ipv6(address))[
                : config.max_set_size
            ]
        )
        for candidate in candidates
    ]

    def verify(members: tuple[str, ...], now: float) -> SetVerdict:
        verdict = pipeline.verify_set(members, start_time=now)
        return SetVerdict(
            candidate=verdict.candidate,
            testable=verdict.testable,
            agrees=verdict.agrees,
            partition=canonical_partition(verdict.partition),
            classes=tuple(
                sorted(
                    (address, target.value)
                    for address, target in verdict.target_classes.items()
                )
            ),
            started_at=verdict.started_at,
            finished_at=verdict.finished_at,
        )

    def uncertainty(members: tuple[str, ...]) -> int:
        # Members with no fresh cached velocity still need estimation probes.
        cache = run.optimizer.velocity_cache
        return sum(1 for address in members if cache.fresh(address, config, start) is None)

    return _run_sets(run, spec, bank, start, members_per_set, verify, uncertainty)


@validator_kind("midar", "MIDAR estimation → elimination → corroboration per candidate set")
def _build_midar(run, spec, candidates, start_time):
    return _run_midar_like(
        run, spec, candidates, start_time, default_config=MidarConfig(), ipv6_only=False
    )


@validator_kind("speedtrap", "Speedtrap-style IPv6 fragment-ID verification (IPv6 members only)")
def _build_speedtrap(run, spec, candidates, start_time):
    return _run_midar_like(
        run,
        spec,
        candidates,
        start_time,
        default_config=MidarConfig(estimation_samples=6, corroboration_rounds=5),
        ipv6_only=True,
    )


@validator_kind("ally", "pairwise Ally tests per candidate set (reuses banked IPID series)")
def _build_ally(run, spec, candidates, start_time):
    if candidates is None:
        candidates = _derive_candidates(run, spec)
    start = start_time if start_time is not None else _derive_start(run, spec)
    bank = run.bank(_vantage_from(spec))
    max_set_size = int(spec.param("max_set_size", 10))
    pipeline = AllyPipeline(
        bank,
        rounds=int(spec.param("rounds", 3)),
        interval=float(spec.param("interval", 0.5)),
        max_velocity=float(spec.param("max_velocity", 2_000.0)),
        reuse=bool(spec.param("reuse", True)),
        optimizer=run.optimizer,
    )
    members_per_set = [tuple(sorted(candidate)[:max_set_size]) for candidate in candidates]

    def verify(members: tuple[str, ...], now: float) -> SetVerdict:
        result = pipeline.verify_set(members, start_time=now, max_set_size=max_set_size)
        return SetVerdict(
            candidate=frozenset(result.members),
            testable=result.testable,
            agrees=result.agrees,
            partition=canonical_partition(result.partition),
            started_at=result.started_at,
            finished_at=result.finished_at,
        )

    return _run_sets(run, spec, bank, start, members_per_set, verify)


# --------------------------------------------------------------------------- #
# Non-IPID technique kinds (iffinder / PTR)
# --------------------------------------------------------------------------- #
@validator_kind("iffinder", "common-source-address probing per candidate set")
def _build_iffinder(run, spec, candidates, start_time):
    from repro.core.alias_resolution import UnionFind

    if candidates is None:
        candidates = _derive_candidates(run, spec)
    start = start_time if start_time is not None else _derive_start(run, spec)
    rate = float(spec.param("probes_per_second", 1_000.0))
    prober = IffinderProber(run.network, _vantage_from(spec), probes_per_second=rate)
    optimizer = run.optimizer
    verdicts: list[SetVerdict] = []
    now = start
    probes = 0
    for candidate in candidates:
        members = sorted(candidate)
        member_set = frozenset(members)
        if optimizer is not None and not optimizer.request(len(members)):
            verdicts.append(unresolved_verdict(members, now))
            optimizer.record(display_name(spec), member_set, "unresolved", 0, 0)
            continue
        union_find = UnionFind()
        set_start = now
        revealed = 0
        for address in members:
            observation = prober.probe(address, now=now)
            now += 1.0 / rate
            probes += 1
            union_find.add(address)
            if observation.reveals_alias and observation.icmp_source in member_set:
                union_find.union(address, observation.icmp_source)
                revealed += 1
        partition = canonical_partition(union_find.groups())
        testable = revealed > 0
        if optimizer is not None:
            optimizer.charge(len(members))
            optimizer.record(display_name(spec), member_set, "probed", len(members), 0)
        verdicts.append(
            SetVerdict(
                candidate=member_set,
                testable=testable,
                agrees=testable and len(partition) == 1,
                partition=partition,
                started_at=set_start,
                finished_at=now,
            )
        )
    return ValidationReport(
        validator=display_name(spec),
        spec=spec,
        candidates=len(candidates),
        verdicts=tuple(verdicts),
        probes_issued=probes,
        probes_reused=0,
        started_at=start,
        finished_at=now,
    )


@validator_kind("ptr", "reverse-DNS name matching per candidate set")
def _build_ptr(run, spec, candidates, start_time):
    if candidates is None:
        candidates = _derive_candidates(run, spec)
    start = start_time if start_time is not None else _derive_start(run, spec)
    default_seed = run.session.config.seed if run.session is not None else 0
    resolver = PtrResolver(
        run.network,
        coverage=float(spec.param("coverage", 0.6)),
        seed=int(spec.param("seed", default_seed)),
    )
    verdicts: list[SetVerdict] = []
    queries = 0
    for candidate in candidates:
        members = sorted(candidate)
        names: dict[str, list[str]] = {}
        for address in members:
            queries += 1
            name = resolver.resolve(address)
            if name is not None:
                names.setdefault(name, []).append(address)
        resolved = sum(len(addresses) for addresses in names.values())
        partition = canonical_partition(names.values())
        testable = resolved >= 2
        verdicts.append(
            SetVerdict(
                candidate=frozenset(members),
                testable=testable,
                agrees=testable and len(partition) == 1,
                partition=partition,
                started_at=start,
                finished_at=start,
            )
        )
    return ValidationReport(
        validator=display_name(spec),
        spec=spec,
        candidates=len(candidates),
        verdicts=tuple(verdicts),
        probes_issued=queries,
        probes_reused=0,
        started_at=start,
        finished_at=start,
    )


# --------------------------------------------------------------------------- #
# Combinator kinds
# --------------------------------------------------------------------------- #
@validator_kind(
    "consensus", "run N techniques over one candidate list; per-set majority vote"
)
def _build_consensus(run, spec, candidates, start_time):
    if len(spec.inputs) < 2:
        raise ValidationError(
            f"validator combinator 'consensus' takes at least two inputs "
            f"(got {len(spec.inputs)})"
        )
    if candidates is None:
        candidates = _derive_candidates(run, spec)
    start = start_time
    if start is None and (
        spec.param("start_time") is not None or spec.param("start_after") is not None
    ):
        start = _derive_start(run, spec)
    reports = [
        run_validator(run, inner, candidates=candidates, start_time=start)
        for inner in spec.inputs
    ]
    overall_start = (
        start if start is not None else min(report.started_at for report in reports)
    )
    return consensus_report(spec, reports, candidates, overall_start)


def _single_input(spec: ValidatorSpec) -> ValidatorSpec:
    if len(spec.inputs) != 1:
        raise ValidationError(
            f"validator combinator {spec.kind!r} takes exactly one input "
            f"(got {len(spec.inputs)})"
        )
    return spec.inputs[0]


@validator_kind("sample", "validate a seeded random sample of the candidate sets")
def _build_sample(run, spec, candidates, start_time):
    inner = _single_input(spec)
    base = candidates if candidates is not None else _derive_candidates(run, spec)
    max_size = spec.param("max_size")
    filtered = [
        candidate
        for candidate in base
        if max_size is None or len(candidate) <= int(max_size)
    ]
    size = int(spec.param("size", 150))
    rng = random.Random(int(spec.param("seed", 7)))
    chosen = rng.sample(filtered, min(size, len(filtered)))
    report = run_validator(run, inner, candidates=tuple(chosen), start_time=start_time)
    return dataclasses.replace(report, spec=spec, validator=display_name(spec))


@validator_kind("filter-family", "restrict candidate members to one address family")
def _build_filter_family(run, spec, candidates, start_time):
    inner = _single_input(spec)
    family = str(spec.param("family", "ipv6"))
    if family not in ("ipv4", "ipv6"):
        raise ValidationError(f"unknown address family {family!r} (use ipv4 or ipv6)")
    target = AddressFamily.IPV6 if family == "ipv6" else AddressFamily.IPV4
    base = candidates if candidates is not None else _derive_candidates(run, spec)
    projected = tuple(
        frozenset(address for address in candidate if family_of(address) is target)
        for candidate in base
    )
    report = run_validator(run, inner, candidates=projected, start_time=start_time)
    return dataclasses.replace(report, spec=spec, validator=display_name(spec))


# --------------------------------------------------------------------------- #
# Named validators: the paper's validation compositions
# --------------------------------------------------------------------------- #
def table2_midar_spec(size: int = 150, seed: int = 7) -> ValidatorSpec:
    """The Table 2 MIDAR composition: sampled SSH IPv4 sets, probed after
    the active campaign."""
    return sample(
        midar(source="active", protocol="ssh", family="ipv4", start_after="active-ipv6"),
        size=size,
        seed=seed,
        max_size=10,
    )


#: MIDAR over sampled SSH sets — exactly what the Table 2 experiment runs.
MIDAR_SSH_SAMPLE = table2_midar_spec()
#: Ally over the same sample; with the bank warm from a MIDAR run it
#: decides most pairs from banked series instead of probing.
ALLY_SSH_SAMPLE = sample(
    ally(source="active", protocol="ssh", family="ipv4", start_after="active-ipv6"),
    size=150,
    seed=7,
    max_size=10,
)
#: Speedtrap over sampled IPv6 union sets (the leaf drops IPv4 members).
SPEEDTRAP_UNION_SAMPLE = sample(
    speedtrap(source="active", protocol="union", family="ipv6", start_after="active-ipv6"),
    size=150,
    seed=7,
    max_size=10,
)
#: iffinder over the same SSH sample (no IPID dependence at all).
IFFINDER_SSH_SAMPLE = sample(
    iffinder(source="active", protocol="ssh", family="ipv4"),
    size=150,
    seed=7,
    max_size=10,
)
#: PTR name matching over the same SSH sample.
PTR_SSH_SAMPLE = sample(
    ptr(source="active", protocol="ssh", family="ipv4"),
    size=150,
    seed=7,
    max_size=10,
)
#: MIDAR, Ally and iffinder voting over the same SSH sample through one
#: shared bank — the "techniques disagree" discussion as a report.
CONSENSUS_SSH_SAMPLE = sample(
    consensus(
        midar(source="active", protocol="ssh", family="ipv4", start_after="active-ipv6"),
        ally(source="active", protocol="ssh", family="ipv4", start_after="active-ipv6"),
        iffinder(source="active", protocol="ssh", family="ipv4"),
    ),
    size=150,
    seed=7,
    max_size=10,
)

register_validator(
    "midar", MIDAR_SSH_SAMPLE, "MIDAR over sampled SSH IPv4 sets (the Table 2 validation)"
)
register_validator(
    "ally", ALLY_SSH_SAMPLE, "Ally over the same SSH sample, reusing the shared IPID bank"
)
register_validator(
    "speedtrap", SPEEDTRAP_UNION_SAMPLE, "Speedtrap over sampled IPv6 union sets"
)
register_validator(
    "iffinder", IFFINDER_SSH_SAMPLE, "common source address probing over the SSH sample"
)
register_validator(
    "ptr", PTR_SSH_SAMPLE, "reverse-DNS name matching over the SSH sample"
)
register_validator(
    "consensus",
    CONSENSUS_SSH_SAMPLE,
    "MIDAR + Ally + iffinder majority vote over the SSH sample",
)
