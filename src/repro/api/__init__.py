"""The composable session API.

The canonical way to assemble and run a reproduction:

>>> from repro.api import ReproSession, ScanPlan, ScenarioConfig
>>> session = ReproSession(ScenarioConfig(scale=0.1, seed=7))
>>> report = session.report("union")              # paper composition
>>> result = session.run_plan(ScanPlan.spread(3))  # multi-vantage
>>> text = session.run_experiment("table3")        # registered experiment

Submodules:

* :mod:`repro.api.registry` — the generic name → value registry primitive.
* :mod:`repro.api.sources` — declarative :class:`SourceSpec` observation
  sources, combinators, and the pluggable source registries.
* :mod:`repro.api.plan` — multi-vantage :class:`ScanPlan` execution over one
  shared observation index.
* :mod:`repro.api.experiments` — the ``@experiment`` registry behind the
  runner and the CLI.
* :mod:`repro.api.session` — the :class:`ReproSession` facade tying it all
  together.

The validation subsystem (:mod:`repro.validation`) mirrors the source
registry — declarative :class:`ValidatorSpec` trees resolved through
``validator_kind``/``register_validator`` — and its main entry points are
re-exported here next to their source-side counterparts.
"""

from repro.api.config import ScenarioConfig
from repro.api.experiments import (
    Experiment,
    experiment,
    experiment_names,
    get_experiment,
    register_experiment,
)
from repro.api.plan import Coverage, PlanResult, ScanPlan, VantageSpec
from repro.api.registry import Registry, RegistryEntry
from repro.api.session import ReproSession, repro_session
from repro.api.sources import (
    SOURCE_KINDS,
    SOURCES,
    SourceSpec,
    concat,
    file_source,
    named_source,
    register_source,
    source_kind,
    standard_ports,
    union_of,
)
#: Validation-subsystem names re-exported lazily (PEP 562):
#: :mod:`repro.validation` itself imports :mod:`repro.api.registry`, so an
#: eager import here would close an import cycle.
_VALIDATION_EXPORTS = frozenset(
    {
        "IpidSampleBank",
        "ValidationReport",
        "ValidatorSpec",
        "VALIDATOR_KINDS",
        "VALIDATORS",
        "named_validator",
        "register_validator",
        "validator_kind",
    }
)


def __getattr__(name: str):
    if name in _VALIDATION_EXPORTS:
        import repro.validation

        return getattr(repro.validation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Coverage",
    "Experiment",
    "IpidSampleBank",
    "PlanResult",
    "Registry",
    "RegistryEntry",
    "ReproSession",
    "ScanPlan",
    "ScenarioConfig",
    "SourceSpec",
    "SOURCE_KINDS",
    "SOURCES",
    "VALIDATOR_KINDS",
    "VALIDATORS",
    "ValidationReport",
    "ValidatorSpec",
    "VantageSpec",
    "concat",
    "experiment",
    "file_source",
    "experiment_names",
    "get_experiment",
    "named_source",
    "named_validator",
    "register_experiment",
    "register_source",
    "register_validator",
    "repro_session",
    "source_kind",
    "standard_ports",
    "union_of",
    "validator_kind",
]
