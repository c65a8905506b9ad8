"""The registry-driven validation subsystem.

The paper's headline claim rests on validation: SSH/SNMP-derived alias
sets checked against MIDAR-style IPID corroboration (Table 2) and the
longitudinal MIDAR-disagreement mechanism.  This package gives the
validation layer the same declarative treatment sources and experiments
already have:

* :mod:`repro.validation.spec` — frozen/hashable :class:`ValidatorSpec`
  trees, the ``validator_kind``/``register_validator`` registries, and the
  ``sample``/``family_subset`` combinators.
* :mod:`repro.validation.bank` — the shared :class:`IpidSampleBank`:
  IPID time series collected once per (addresses, schedule) and shared
  across validators, so composed validations cut probe counts.
* :mod:`repro.validation.techniques` — the MIDAR and Ally pipelines over
  a bank, each with the optimizer's levers applied when the run carries
  a :class:`ProbeBudgetOptimizer` (one class per technique; Speedtrap is
  MIDAR over IPv6 members).
* :mod:`repro.validation.runner` — builders for the built-in kinds
  (midar, ally, speedtrap, iffinder, ptr) over one per-set loop, the
  :class:`ValidationRun` harness, and the registered named compositions.
* :mod:`repro.validation.report` — per-set verdicts and the
  :class:`ValidationReport` aggregates (testable coverage, agreement).
* :mod:`repro.validation.longitudinal` — per-snapshot validation of a
  churning campaign (the paper's MIDAR-disagreement series).
* :mod:`repro.validation.budget` — the probe-budget optimizer's state
  (the global :class:`ProbeBudget`, the velocity cache, per-set
  outcomes), :func:`run_budgeted`, and the ``consensus()`` majority-vote
  combinator.

Entry points: ``ReproSession.validate(spec_or_name)`` (cached, persisted
by :mod:`repro.persist`), ``ReproSession.validate_budgeted(...)`` and the
``repro validate`` CLI subcommand (``--budget N``).
"""

from repro.validation.bank import IpidSampleBank
from repro.validation.budget import (
    DEFAULT_VELOCITY_TTL,
    BudgetedValidation,
    BudgetRunResult,
    ConsensusSetBreakdown,
    ProbeBudget,
    ProbeBudgetExhausted,
    ProbeBudgetOptimizer,
    SetOutcome,
    VelocityCache,
    VelocityEntry,
    consensus_breakdown,
    consensus_report,
    is_unresolved,
    run_budgeted,
    unresolved_verdict,
)
from repro.validation.longitudinal import SnapshotValidation, validate_snapshots
from repro.validation.report import CandidateSets, SetVerdict, ValidationReport
from repro.validation.runner import (
    DEFAULT_VALIDATION_VANTAGE,
    ValidationRun,
    candidate_sets,
    run_validator,
    table2_midar_spec,
)
from repro.validation.spec import (
    VALIDATOR_KINDS,
    VALIDATORS,
    ValidatorSpec,
    ally,
    consensus,
    display_name,
    family_subset,
    iffinder,
    midar,
    named_validator,
    ptr,
    register_validator,
    sample,
    speedtrap,
    validator_kind,
)
from repro.validation.techniques import (
    AllyPipeline,
    AllySetResult,
    MidarConfig,
    MidarPipeline,
    MidarSetVerdict,
)

__all__ = [
    "AllyPipeline",
    "AllySetResult",
    "BudgetRunResult",
    "BudgetedValidation",
    "CandidateSets",
    "ConsensusSetBreakdown",
    "DEFAULT_VALIDATION_VANTAGE",
    "DEFAULT_VELOCITY_TTL",
    "IpidSampleBank",
    "MidarConfig",
    "MidarPipeline",
    "MidarSetVerdict",
    "ProbeBudget",
    "ProbeBudgetExhausted",
    "ProbeBudgetOptimizer",
    "SetOutcome",
    "SetVerdict",
    "SnapshotValidation",
    "ValidationReport",
    "ValidationRun",
    "ValidatorSpec",
    "VALIDATOR_KINDS",
    "VALIDATORS",
    "VelocityCache",
    "VelocityEntry",
    "ally",
    "candidate_sets",
    "consensus",
    "consensus_breakdown",
    "consensus_report",
    "display_name",
    "family_subset",
    "iffinder",
    "is_unresolved",
    "midar",
    "named_validator",
    "ptr",
    "register_validator",
    "run_budgeted",
    "run_validator",
    "sample",
    "speedtrap",
    "table2_midar_spec",
    "unresolved_verdict",
    "validate_snapshots",
    "validator_kind",
]
