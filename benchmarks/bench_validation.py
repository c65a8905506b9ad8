"""Benchmark of the registry-driven validation subsystem.

Two claims are measured and asserted (always, at whatever
``REPRO_BENCH_SCALE`` is in effect):

* **Table 2 golden parity** — Table 2 rendered through the validator
  registry (``session.validate`` over ``sample(midar(...))``) is
  byte-identical to the pre-registry build, replicated here inline with a
  direct ``MidarPipeline`` run over a private bank: same sampling, same
  schedule, same probing order.  At scale 1.0 seed 42 this is the paper configuration.
* **Shared-bank probe reduction with verdict parity** — a composed
  midar+ally validation over one sample, sharing one
  :class:`~repro.validation.bank.IpidSampleBank`, issues strictly fewer
  network probes than the two probers run independently (each on its own
  freshly simulated Internet), with identical per-set verdicts for both
  techniques.  The Ally pass itself is answered roughly half from the
  bank.  The comparison scenario probes from a distributed vantage with
  ``loss_rate=0`` so the saving is isolated from per-vantage IDS budgets
  and stochastic per-probe loss, which would otherwise make the
  *independent* runs degrade each other (rate limiting) or flip borderline
  responses at probe times only one schedule visits.

Run with the usual harness, e.g.::

    REPRO_BENCH_SCALE=1.0 PYTHONPATH=src python -m pytest \
        benchmarks/bench_validation.py \
        -o python_files='bench_*.py' -o python_functions='bench_*' -q
"""

import os
import random
import time

import pytest

from repro.api.config import ScenarioConfig
from repro.api.experiments import get_experiment
from repro.api.session import ReproSession
from repro.core.validation import cross_validate
from repro.experiments.table2 import Table2Result, ValidationRow, render
from repro.simnet.device import ServiceType
from repro.simnet.network import VantagePoint
from repro.validation.bank import IpidSampleBank
from repro.validation.spec import ally, midar, sample
from repro.validation.techniques import AllyPipeline, MidarPipeline

#: The vantage of the sharing comparison: distributed, so per-(vantage, AS,
#: window) IDS budgets do not punish whichever run probes more.
_VP = VantagePoint(name="midar-vp", address="192.0.2.251", distributed=True)

#: Sample size / seed of the comparison (the Table 2 defaults).
_SIZE, _SEED = 150, 7


def _bench_config(**overrides):
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    seed = int(os.environ.get("REPRO_BENCH_SEED", "42"))
    return ScenarioConfig(scale=scale, seed=seed, **overrides)


def _count_probes(network):
    """Count ``sample_ipid`` calls at the network boundary."""
    counter = {"probes": 0}
    original = network.sample_ipid

    def counting(address, vantage, now=0.0):
        counter["probes"] += 1
        return original(address, vantage, now=now)

    network.sample_ipid = counting
    return counter


def _legacy_table2(session, midar_sample_size=150, midar_seed=7):
    """The pre-registry Table 2 build: hand-wired sampling and probing."""
    report = session.report("active")
    ssh = report.ipv4[ServiceType.SSH]
    bgp = report.ipv4[ServiceType.BGP]
    snmp = report.ipv4[ServiceType.SNMPV3]
    rows = []
    for pair, left, right in (
        ("SSH-BGP", ssh, bgp),
        ("SSH-SNMPv3", ssh, snmp),
        ("BGP-SNMPv3", bgp, snmp),
    ):
        result = cross_validate(left, right)
        rows.append(
            ValidationRow(pair=pair, sample_size=result.sample_size, agree=result.agree, disagree=result.disagree)
        )
    rng = random.Random(midar_seed)
    candidates = [
        alias_set.addresses
        for alias_set in ssh.non_singleton()
        if len(alias_set.addresses) <= 10
    ]
    chosen = rng.sample(candidates, min(midar_sample_size, len(candidates)))
    prober = MidarPipeline(
        IpidSampleBank(session.network, VantagePoint(name="midar-vp", address="192.0.2.251"))
    )
    ipv6_times = [observation.timestamp for observation in session.dataset("active-ipv6")]
    midar_start = max(ipv6_times) + 3600.0 if ipv6_times else 0.0
    verdicts = prober.verify_sets(chosen, start_time=midar_start)
    testable = [verdict for verdict in verdicts if verdict.testable]
    agree = sum(1 for verdict in testable if verdict.agrees)
    rows.append(
        ValidationRow(
            pair="SSH-MIDAR",
            sample_size=len(testable),
            agree=agree,
            disagree=len(testable) - agree,
        )
    )
    return Table2Result(rows=rows, midar_sampled_sets=len(chosen), midar_testable_sets=len(testable))


def bench_table2_registry_parity(benchmark, bench_json):
    """Table 2 via the validator registry == the hand-wired legacy build."""
    config = _bench_config()
    legacy = render(_legacy_table2(ReproSession(config)))

    def registry_build():
        return get_experiment("table2").run(ReproSession(config))

    start = time.perf_counter()
    rendered = registry_build()
    elapsed = time.perf_counter() - start
    assert rendered == legacy, "registry-driven Table 2 diverged from the legacy build"
    print()
    print(
        f"table2 via validator registry byte-identical to legacy build "
        f"(scale {config.scale}, seed {config.seed}, {1000 * elapsed:.0f} ms)"
    )
    bench_json.record(
        "validation",
        "table2_registry_parity",
        seconds=elapsed,
    )
    benchmark.pedantic(registry_build, rounds=1, iterations=1)


def _comparison_specs():
    leaf_params = dict(
        source="active",
        protocol="ssh",
        family="ipv4",
        start_after="active-ipv6",
        distributed=True,
    )
    return (
        sample(midar(**leaf_params), size=_SIZE, seed=_SEED, max_size=10),
        sample(ally(**leaf_params), size=_SIZE, seed=_SEED, max_size=10),
    )


def _sample_and_start(session):
    """The shared candidate sample and probing start of the comparison."""
    report = session.report("active")
    candidates = [
        alias_set.addresses
        for alias_set in report.ipv4[ServiceType.SSH].non_singleton()
        if len(alias_set.addresses) <= 10
    ]
    chosen = random.Random(_SEED).sample(candidates, min(_SIZE, len(candidates)))
    start = max(o.timestamp for o in session.dataset("active-ipv6")) + 3600.0
    return chosen, start


def bench_shared_bank_probe_reduction(benchmark, bench_json):
    """Composed midar+ally probes strictly less than independent probers,
    with identical verdicts."""
    config = _bench_config(loss_rate=0.0)
    midar_spec, ally_spec = _comparison_specs()

    # Independent MIDAR: its own freshly simulated Internet.
    midar_session = ReproSession(config)
    chosen, start = _sample_and_start(midar_session)
    midar_counter = _count_probes(midar_session.network)
    midar_verdicts = MidarPipeline(IpidSampleBank(midar_session.network, _VP)).verify_sets(
        chosen, start_time=start
    )

    # Independent Ally: another fresh Internet, same sample and schedule.
    ally_session = ReproSession(config)
    _sample_and_start(ally_session)  # warm the same datasets
    ally_counter = _count_probes(ally_session.network)
    ally_pipeline = AllyPipeline(IpidSampleBank(ally_session.network, _VP), reuse=False)
    now = start
    ally_results = []
    for candidate in chosen:
        result = ally_pipeline.verify_set(candidate, start_time=now, max_set_size=10)
        now = result.finished_at
        ally_results.append(result)
    independent = midar_counter["probes"] + ally_counter["probes"]

    # Composed: one session, one shared bank, midar then ally.
    def composed_run():
        session = ReproSession(config)
        session.report("active")
        session.dataset("active-ipv6")
        counter = _count_probes(session.network)
        midar_report = session.validate(midar_spec)
        ally_report = session.validate(ally_spec)
        return counter["probes"], midar_report, ally_report

    start_time = time.perf_counter()
    composed, midar_report, ally_report = composed_run()
    elapsed = time.perf_counter() - start_time

    # Verdict parity, both techniques, set for set.
    assert [
        (v.candidate, v.testable, v.agrees, sorted(map(sorted, v.partition)))
        for v in midar_verdicts
    ] == [
        (v.candidate, v.testable, v.agrees, sorted(map(sorted, v.partition)))
        for v in midar_report.verdicts
    ], "composed MIDAR verdicts diverged from the independent prober"
    assert [
        (frozenset(r.members), r.testable, r.agrees, tuple(sorted((frozenset(g) for g in r.partition), key=sorted)))
        for r in ally_results
    ] == [
        (v.candidate, v.testable, v.agrees, v.partition) for v in ally_report.verdicts
    ], "composed Ally verdicts diverged from the independent prober"

    # Strict probe reduction through the shared bank.
    assert composed < independent, (
        f"composed validation issued {composed} probes, independent probers "
        f"{independent} — the shared bank saved nothing"
    )
    assert ally_report.probes_reused > 0
    assert ally_report.probes_issued < ally_counter["probes"], (
        "the composed Ally pass issued no fewer probes than the independent one"
    )

    ally_saved = 1 - ally_report.probes_issued / ally_counter["probes"]
    print()
    print(
        f"independent probers: {independent} probes "
        f"(midar {midar_counter['probes']} + ally {ally_counter['probes']}); "
        f"composed midar+ally: {composed} probes "
        f"({1 - composed / independent:.1%} fewer, "
        f"ally pass {ally_saved:.1%} answered from the bank; "
        f"verdict parity held over {len(chosen)} sets, {1000 * elapsed:.0f} ms)"
    )
    bench_json.record(
        "validation",
        "shared_bank_probe_reduction",
        seconds=elapsed,
        independent_probes=independent,
        composed_probes=composed,
        probes_reused=ally_report.probes_reused,
        sets=len(chosen),
    )
    benchmark.pedantic(lambda: composed, rounds=1, iterations=1)


if __name__ == "__main__":  # pragma: no cover - ad-hoc runs
    pytest.main([__file__, "-o", "python_files=bench_*.py",
                 "-o", "python_functions=bench_*", "--benchmark-disable", "-q", "-s"])
