"""The :class:`ReproSession` facade — one object to assemble a reproduction.

A session owns the shared state a reproduction is built from (the simulated
Internet, the IPv6 hitlist) and the caches that make composition cheap
(datasets per :class:`~repro.api.sources.SourceSpec`, alias reports per
composition).  Everything else goes through the registries:

* ``session.dataset("censys")`` / ``session.dataset(spec)`` — collect (or
  fetch from cache) one observation dataset,
* ``session.report("union")`` — resolve a source composition into an
  :class:`~repro.core.engine.AliasReport`,
* ``session.run_plan(ScanPlan.spread(3))`` — run a multi-vantage scan plan
  into one shared index,
* ``session.run_experiment("table3")`` — build and render a registered
  experiment,
* ``session.longitudinal(...)`` — a churn campaign over a fresh network of
  the same configuration.

The old ``PaperScenario`` god-object survives as a thin attribute shim over
this class (see :mod:`repro.experiments.scenario`).
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Iterable, Iterator

from repro import obs
from repro.api.config import ScenarioConfig
from repro.api.plan import PlanResult, ScanPlan, run_scan_plan
from repro.api.sources import (
    DEFAULT_VANTAGE_ADDRESS,
    DEFAULT_VANTAGE_NAME,
    REPORT_SPECS,
    SOURCES,
    SourceSpec,
    build_source,
)
from repro.core.engine import AliasReport
from repro.core.identifiers import DEFAULT_OPTIONS, IdentifierOptions
from repro.core.pipeline import run_alias_resolution
from repro.longitudinal.campaign import LongitudinalCampaign, LongitudinalConfig
from repro.simnet.network import SimulatedInternet, VantagePoint
from repro.simnet.topology import TopologyConfig, generate_topology
from repro.sources.hitlist import HitlistConfig, build_ipv6_hitlist
from repro.sources.records import Observation, ObservationDataset, iter_observations

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.validation.report import ValidationReport
    from repro.validation.runner import ValidationRun
    from repro.validation.spec import ValidatorSpec


class ReproSession:
    """Shared state, caches, and registry-driven composition."""

    def __init__(
        self,
        config: ScenarioConfig | None = None,
        options: IdentifierOptions = DEFAULT_OPTIONS,
    ) -> None:
        self.config = config or ScenarioConfig()
        self.options = options
        self._network: SimulatedInternet | None = None
        self._hitlist: list[str] | None = None
        self._datasets: dict[SourceSpec, ObservationDataset] = {}
        self._reports: dict[tuple[SourceSpec, str], AliasReport] = {}
        self._validations: dict[tuple["ValidatorSpec", str], "ValidationReport"] = {}
        self._validation_run: "ValidationRun | None" = None
        self._pending_bank_states: list[dict] = []

    # ------------------------------------------------------------------ #
    # Shared measurement state
    # ------------------------------------------------------------------ #
    @property
    def network(self) -> SimulatedInternet:
        """The simulated Internet under measurement (built once)."""
        if self._network is None:
            self._network = generate_topology(self.topology_config())
        return self._network

    def topology_config(self) -> TopologyConfig:
        """The topology configuration implied by the session config."""
        return self.config.topology_config()

    @property
    def hitlist(self) -> list[str]:
        """The IPv6 hitlist used by active IPv6 scans (built once)."""
        if self._hitlist is None:
            self._hitlist = build_ipv6_hitlist(self.network, self.hitlist_config())
        return self._hitlist

    def hitlist_config(self) -> HitlistConfig:
        """The hitlist configuration implied by the session config."""
        return HitlistConfig(
            server_coverage=self.config.hitlist_server_coverage,
            router_coverage=self.config.hitlist_router_coverage,
            seed=self.config.seed,
        )

    @property
    def active_vantage(self) -> VantagePoint:
        """The default vantage point of single-vantage active sources."""
        return VantagePoint(name=DEFAULT_VANTAGE_NAME, address=DEFAULT_VANTAGE_ADDRESS)

    # ------------------------------------------------------------------ #
    # Sources and datasets
    # ------------------------------------------------------------------ #
    def spec(self, source: str | SourceSpec) -> SourceSpec:
        """Resolve a source name (or pass a spec through) to a spec."""
        if isinstance(source, SourceSpec):
            return source
        return SOURCES.get(source)

    def dataset(self, source: str | SourceSpec) -> ObservationDataset:
        """The dataset of one source, built at most once per session."""
        spec = self.spec(source)
        dataset = self._datasets.get(spec)
        if dataset is None:
            if obs.is_enabled():
                obs.add("session.cache", 1, kind="dataset", outcome="miss")
            with obs.span("session.dataset", kind=spec.kind):
                dataset = self._datasets[spec] = build_source(self, spec)
        else:
            if obs.is_enabled():
                obs.add("session.cache", 1, kind="dataset", outcome="hit")
        return dataset

    def observations(self, source: str | SourceSpec) -> Iterator[Observation]:
        """Stream one source composition's observations.

        String names use the *report* composition where one exists
        (``"censys"`` streams the default-port view, as the paper's
        analysis does), falling back to the named source's dataset.
        """
        return self._stream(self._report_spec(source))

    def _stream(self, spec: SourceSpec) -> Iterator[Observation]:
        """Stream a spec, chaining concat inputs instead of materialising.

        A concat is pure sequencing — caching its list under the spec would
        hold a second copy of every already-cached input dataset, which is
        exactly the copy the single-pass engine's streaming design avoids.
        Explicit ``dataset(concat_spec)`` calls (e.g. ``repro scan``, which
        needs a length and a name to write a file) still materialise.
        """
        if spec.kind == "concat":
            return iter_observations(*(self._stream(input_spec) for input_spec in spec.inputs))
        return iter(self.dataset(spec))

    def _report_spec(self, source: str | SourceSpec) -> SourceSpec:
        if isinstance(source, SourceSpec):
            return source
        report_spec = REPORT_SPECS.get(source)
        if report_spec is not None:
            return report_spec
        return SOURCES.get(source)

    @staticmethod
    def _default_name(spec: SourceSpec) -> str:
        """The display name a bare spec resolves under.

        Prefers the name the spec is registered under, so ``report(spec)``
        and ``report(name)`` of the same composition share one cache entry
        instead of re-resolving under a second cosmetic name.
        """
        for name, report_spec in REPORT_SPECS.items():
            if report_spec == spec:
                return name
        for entry in SOURCES:
            if entry.value == spec:
                return entry.name
        return spec.label or spec.kind

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def report(
        self,
        source: str | SourceSpec,
        name: str | None = None,
    ) -> AliasReport:
        """Alias-resolution report over one source composition (cached)."""
        spec = self._report_spec(source)
        if name is None:
            name = source if isinstance(source, str) else self._default_name(spec)
        key = (spec, name)
        if key not in self._reports:
            if obs.is_enabled():
                obs.add("session.cache", 1, kind="report", outcome="miss")
            with obs.span("session.report", name=name):
                self._reports[key] = run_alias_resolution(
                    self._stream(spec), name=name, options=self.options
                )
        else:
            if obs.is_enabled():
                obs.add("session.cache", 1, kind="report", outcome="hit")
        return self._reports[key]

    def run_plan(self, plan: ScanPlan | None = None) -> PlanResult:
        """Run a multi-vantage scan plan into one shared observation index."""
        return run_scan_plan(self, plan or ScanPlan.default())

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    @property
    def validation_run(self) -> "ValidationRun":
        """The shared validation state: one sample bank per vantage.

        Built once per session, so successive :meth:`validate` calls share
        collected IPID series — a composed ``validate("midar")`` +
        ``validate("ally")`` issues roughly half the probes of two
        independent prober runs.
        """
        if self._validation_run is None:
            from repro.validation.runner import ValidationRun

            self._validation_run = ValidationRun(self.network, session=self)
            for state in self._pending_bank_states:
                self._validation_run.restore_bank(state)
        return self._validation_run

    def validate_budgeted(
        self,
        validators: "Iterable[str | ValidatorSpec]",
        budget: int | None = None,
        velocity_ttl: float | None = None,
    ):
        """Run several validators under one probe-budget optimizer.

        The optimizer routes the bank-based validators through the shared
        estimation stage and velocity cache, processes candidate sets in
        priority order, and spends fresh probes from one global budget
        (``budget=None`` optimizes without a cap).  Sets the budget cannot
        afford are reported ``unresolved``; a session restored from
        :meth:`save` answers matching schedules from its persisted banks —
        zero network probes.  Returns a :class:`~repro.validation.budget.
        BudgetRunResult`; reports are *not* entered into the
        :meth:`validate` cache (budgeted runs are explicit experiments,
        not the canonical per-spec verdicts).
        """
        from repro.validation.budget import DEFAULT_VELOCITY_TTL, run_budgeted

        ttl = velocity_ttl if velocity_ttl is not None else DEFAULT_VELOCITY_TTL
        with obs.span("session.validate_budgeted", budget=budget):
            return run_budgeted(
                self.validation_run, list(validators), budget=budget, velocity_ttl=ttl
            )

    def validate(
        self, validator: "str | ValidatorSpec", name: str | None = None
    ) -> "ValidationReport":
        """Run one validator composition (cached per spec).

        ``validator`` is a registered name (``"midar"``, ``"ally"``, …) or
        an explicit :class:`~repro.validation.spec.ValidatorSpec`.  Like
        datasets and reports, results cache under the spec: the Table 2
        experiment and a later ``validate("midar")`` share one run.
        Validations probe the live network sequentially (IPID counters are
        stateful), so a cached report reflects the session state at the
        time it first ran — exactly like a real measurement campaign.
        """
        from repro.validation.runner import run_validator
        from repro.validation.spec import VALIDATORS, ValidatorSpec, display_name

        spec = validator if isinstance(validator, ValidatorSpec) else VALIDATORS.get(validator)
        if name is None:
            name = validator if isinstance(validator, str) else display_name(spec)
        key = (spec, name)
        if key not in self._validations:
            if obs.is_enabled():
                obs.add("session.cache", 1, kind="validation", outcome="miss")
            with obs.span("session.validate", name=name):
                self._validations[key] = run_validator(self.validation_run, spec)
        else:
            if obs.is_enabled():
                obs.add("session.cache", 1, kind="validation", outcome="hit")
        return self._validations[key]

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def cached_datasets(self) -> dict[SourceSpec, ObservationDataset]:
        """The dataset cache, keyed by spec (shared reference, read-only)."""
        return self._datasets

    def cached_reports(self) -> dict[tuple[SourceSpec, str], AliasReport]:
        """The report cache, keyed by (spec, name) (shared reference, read-only)."""
        return self._reports

    def cached_validations(self) -> dict[tuple["ValidatorSpec", str], "ValidationReport"]:
        """The validation cache, keyed by (spec, name) (shared reference, read-only)."""
        return self._validations

    def prime_dataset(self, spec: SourceSpec, dataset: ObservationDataset) -> None:
        """Seed the dataset cache (used by :mod:`repro.persist` on load)."""
        self._datasets[spec] = dataset

    def prime_report(self, spec: SourceSpec, name: str, report: AliasReport) -> None:
        """Seed the report cache (used by :mod:`repro.persist` on load)."""
        self._reports[(spec, name)] = report

    def prime_validation(
        self, spec: "ValidatorSpec", name: str, report: "ValidationReport"
    ) -> None:
        """Seed the validation cache (used by :mod:`repro.persist` on load)."""
        self._validations[(spec, name)] = report

    def prime_bank_state(self, state: dict) -> None:
        """Queue a persisted sample-bank state (used by persist on load).

        The state is installed lazily when :attr:`validation_run` is first
        built, so loading a session stays cheap when it never validates.
        """
        self._pending_bank_states.append(state)

    def validation_bank_states(self) -> list[dict]:
        """Exported states of every sample bank this session holds.

        Live banks win over still-pending loaded states: once a run
        exists, its banks already include everything restored plus any
        probing since.
        """
        if self._validation_run is not None:
            return [bank.export_state() for bank in self._validation_run.banks().values()]
        return list(self._pending_bank_states)

    def save(self, directory) -> "ReproSession":
        """Persist this session's configuration and caches to ``directory``.

        The saved directory can be re-loaded in another process with
        :meth:`load`; cached datasets and reports round-trip byte-faithfully
        (see :mod:`repro.persist`).  Returns ``self`` for chaining.
        """
        from repro.persist.session import save_session

        save_session(self, directory)
        return self

    @classmethod
    def load(cls, directory) -> "ReproSession":
        """Rebuild a saved session with its dataset and report caches primed.

        Instantiates ``cls``, so subclasses (e.g. ``PaperScenario``) load
        back as themselves.
        """
        from repro.persist.session import load_session

        return load_session(directory, session_class=cls)

    # ------------------------------------------------------------------ #
    # Experiments
    # ------------------------------------------------------------------ #
    def run_experiment(self, name: str) -> str:
        """Build and render one registered experiment."""
        from repro.api.experiments import get_experiment

        return get_experiment(name).run(self)

    def run_experiments(self, names: Iterable[str] | None = None) -> dict[str, str]:
        """Render several experiments (all registered ones by default)."""
        from repro.api.experiments import experiment_names, get_experiment

        selected = list(names) if names is not None else experiment_names()
        return {name: get_experiment(name).run(self) for name in selected}

    def claims(self):
        """Evaluate the paper's headline claims on this session."""
        from repro.experiments.runner import headline_claims

        return headline_claims(self)

    # ------------------------------------------------------------------ #
    # Longitudinal campaigns
    # ------------------------------------------------------------------ #
    def longitudinal(
        self,
        snapshots: int = 4,
        churn_fraction: float = 0.02,
        interval: float = 7 * 86400.0,
        include_ipv6: bool = True,
    ) -> LongitudinalCampaign:
        """A longitudinal campaign over this session's configuration.

        The campaign runs on a *fresh* network generated from the same
        topology configuration: campaigns inject churn as they go, and
        sharing the session's network instance would let that churn leak
        into the cached single-snapshot datasets.
        """
        network = generate_topology(self.topology_config())
        hitlist = (
            build_ipv6_hitlist(network, self.hitlist_config()) if include_ipv6 else None
        )
        return LongitudinalCampaign(
            network,
            vantage=self.active_vantage,
            hitlist=hitlist,
            config=LongitudinalConfig(
                snapshots=snapshots,
                interval=interval,
                churn_fraction=churn_fraction,
                seed=self.config.seed,
            ),
        )


@functools.lru_cache(maxsize=4)
def repro_session(scale: float = 1.0, seed: int = 42) -> ReproSession:
    """A cached session — the shared input of benchmarks and examples."""
    return ReproSession(ScenarioConfig(scale=scale, seed=seed))
