"""Seam-level checks: the instrumented layers record what they claim to."""

import pytest

from repro import obs
from repro.api.config import ScenarioConfig
from repro.api.session import ReproSession
from repro.core.engine import ObservationIndex


@pytest.fixture(scope="module")
def observations():
    session = ReproSession(ScenarioConfig(scale=0.05, seed=3))
    return list(session.observations("union"))


class TestIndexSeams:
    def test_extend_counts_batches(self, observations):
        with obs.observed() as registry:
            index = ObservationIndex.build(observations)
        assert registry.counter_total("index.observations.observed") == len(observations)
        assert registry.counter_total("index.observations.indexed") == index.indexed
        assert registry.gauge_value(
            "index.symbols.interned", kind="address"
        ) == index.address_symbols
        assert registry.gauge_value(
            "index.symbols.interned", kind="identifier"
        ) == index.identifier_symbols

    def test_apply_delta_counts_both_directions(self, observations):
        head, tail = observations[:50], observations[50:80]
        index = ObservationIndex.build(head + tail)
        with obs.observed() as registry:
            index.apply_delta(removed=tail, added=[])
        assert registry.counter_total("index.delta.removed") == len(tail)
        assert registry.counter_total("index.delta.added") == 0
        # net counters are never decremented by removals
        assert registry.counter_total("index.observations.observed") == 0


class TestSessionSeams:
    def test_cache_hit_miss_counters(self):
        with obs.observed() as registry:
            session = ReproSession(ScenarioConfig(scale=0.05, seed=3))
            session.report("active")
            session.report("active")
        assert registry.counter_value(
            "session.cache", kind="report", outcome="miss"
        ) == 1
        assert registry.counter_value(
            "session.cache", kind="report", outcome="hit"
        ) == 1


class TestBankSeams:
    def test_probe_counters_mirror_bank_accounting(self):
        with obs.observed() as registry:
            session = ReproSession(ScenarioConfig(scale=0.05, seed=3))
            midar = session.validate("midar")
            ally = session.validate("ally")
        banks = session.validation_run
        issued = sum(
            bank.probes_issued for bank in banks.banks().values()
        )
        reused = sum(
            bank.probes_reused for bank in banks.banks().values()
        )
        assert registry.counter_total("validation.probes") == issued + reused
        issued_counter = sum(
            value
            for (name, labels), value in registry.counter_totals().items()
            if name == "validation.probes" and ("outcome", "issued") in labels
        )
        assert issued_counter == issued
        assert midar.probes_issued + ally.probes_issued <= issued + reused
