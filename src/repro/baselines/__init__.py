"""Alias-resolution baselines the paper compares against or validates with.

* :mod:`repro.baselines.ipid` — IPID time-series collection and the
  monotonic bounds test shared by the IPID-based techniques (MIDAR, Ally
  and Speedtrap, whose pipelines live in :mod:`repro.validation.techniques`
  and run through ``session.validate(...)`` or
  :func:`repro.validation.run_validator`).
* :mod:`repro.baselines.iffinder` — the common source address technique.
* :mod:`repro.baselines.ptr` — DNS PTR-based dual-stack identification.
"""

from repro.baselines.iffinder import IffinderProber
from repro.baselines.ipid import (
    IpidTimeSeries,
    TargetClass,
    classify_series,
    shared_counter_test,
)
from repro.baselines.ptr import PtrResolver, ptr_dual_stack_sets

__all__ = [
    "IffinderProber",
    "IpidTimeSeries",
    "TargetClass",
    "classify_series",
    "shared_counter_test",
    "PtrResolver",
    "ptr_dual_stack_sets",
]
