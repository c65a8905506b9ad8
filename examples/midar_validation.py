#!/usr/bin/env python3
"""Validate SSH-derived alias sets with the IPID-based baselines.

Mirrors the paper's Table 2 validation: sample SSH alias sets (at most ten
IPv4 addresses each), run the MIDAR-style estimation/elimination/
corroboration pipeline against them, and report how many sets MIDAR can test
at all and how often the two techniques agree.  Ally is run on a handful of
pairs for comparison, and the simulation's ground truth is used to show
*why* MIDAR disagrees when it does.

Run with::

    python examples/midar_validation.py
"""

import random

from repro.analysis.tables import render_table
from repro.core.pipeline import run_alias_resolution
from repro.experiments.scenario import PaperScenario, ScenarioConfig
from repro.simnet.device import ServiceType
from repro.simnet.network import VantagePoint
from repro.validation import AllyPipeline, IpidSampleBank, MidarPipeline


def main() -> None:
    scenario = PaperScenario(ScenarioConfig(scale=0.4, seed=5))
    report = run_alias_resolution(scenario.active_ipv4, name="active")
    ssh_sets = [
        alias_set.addresses
        for alias_set in report.ipv4[ServiceType.SSH].non_singleton()
        if len(alias_set.addresses) <= 10
    ]
    rng = random.Random(13)
    sample = rng.sample(ssh_sets, min(60, len(ssh_sets)))
    print(f"Sampled {len(sample)} SSH alias sets (of {len(ssh_sets)} candidates) for MIDAR validation")

    midar = MidarPipeline(
        IpidSampleBank(scenario.network, VantagePoint(name="midar-vp", address="192.0.2.251"))
    )
    verdicts = midar.verify_sets(sample, start_time=3_000_000.0)
    testable = [verdict for verdict in verdicts if verdict.testable]
    agree = [verdict for verdict in testable if verdict.agrees]
    print()
    print(render_table(
        ["Metric", "Value"],
        [
            ["Sampled sets", len(sample)],
            ["Testable by MIDAR", f"{len(testable)} ({100 * len(testable) / len(sample):.0f}%)"],
            ["Agree with SSH", len(agree)],
            ["Disagree with SSH", len(testable) - len(agree)],
        ],
        title="SSH vs MIDAR validation",
    ))

    # Explain the disagreements with the simulation's ground truth.
    truth_owner = {}
    for device in scenario.network.devices():
        for address in device.addresses():
            truth_owner[address] = device.device_id
    for verdict in testable:
        if verdict.agrees:
            continue
        owners = {truth_owner.get(address) for address in verdict.candidate}
        reason = "SSH over-merged distinct devices (shared host key)" if len(owners) > 1 else \
            "MIDAR split a true alias set (independent or unusable IPID counters)"
        print(f"  disagreement on {sorted(verdict.candidate)}: {reason}")

    # Ally spot check on a few confirmed pairs.
    ally = AllyPipeline(
        IpidSampleBank(scenario.network, VantagePoint(name="ally-vp", address="192.0.2.252"))
    )
    pairs = [sorted(verdict.candidate)[:2] for verdict in agree[:5]]
    confirmed = sum(1 for left, right in pairs if ally.test_pair(left, right).aliases)
    if pairs:
        print(f"\nAlly confirms {confirmed}/{len(pairs)} of the MIDAR-agreed pairs.")


if __name__ == "__main__":
    main()
