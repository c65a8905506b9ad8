"""Tests for ``ReproSession.validate`` and the Table 2 registry rebuild."""

import random

import pytest

from repro.api.config import ScenarioConfig
from repro.api.experiments import get_experiment
from repro.api.session import ReproSession
from repro.errors import RegistryError
from repro.simnet.device import ServiceType
from repro.simnet.network import VantagePoint
from repro.validation.bank import IpidSampleBank
from repro.validation.runner import table2_midar_spec
from repro.validation.spec import named_validator
from repro.validation.techniques import MidarPipeline


@pytest.fixture(scope="module")
def session():
    return ReproSession(ScenarioConfig(scale=0.1, seed=5))


class TestValidateCaching:
    def test_validate_by_name_cached(self, session):
        first = session.validate("midar")
        assert session.validate("midar") is first
        assert ("midar" in {name for _, name in session.cached_validations()})

    def test_validate_by_equal_spec_shares_cache(self, session):
        by_name = session.validate("midar")
        by_spec = session.validate(named_validator("midar"))
        assert by_spec is by_name

    def test_unknown_validator_lists_alternatives(self, session):
        with pytest.raises(RegistryError, match="unknown validator 'bogus'"):
            session.validate("bogus")

    def test_shared_bank_across_validators(self, session):
        session.validate("midar")
        ally_report = session.validate("ally")
        assert ally_report.probes_reused > 0


class TestTable2RegistryParity:
    def test_table2_matches_legacy_hand_wired_build(self):
        """The registry-driven Table 2 is byte-identical to the old path.

        The legacy path is replicated inline: sample SSH sets by hand, run
        a ``MidarPipeline`` over a private bank directly, and count
        testable/agreeing verdicts.
        (``bench_validation.py`` asserts the same at scale 1.0 seed 42.)
        """
        config = ScenarioConfig(scale=0.2, seed=42)
        legacy_session = ReproSession(config)
        report = legacy_session.report("active")
        ssh = report.ipv4[ServiceType.SSH]
        candidates = [
            alias_set.addresses
            for alias_set in ssh.non_singleton()
            if len(alias_set.addresses) <= 10
        ]
        chosen = random.Random(7).sample(candidates, min(150, len(candidates)))
        prober = MidarPipeline(
            IpidSampleBank(
                legacy_session.network, VantagePoint(name="midar-vp", address="192.0.2.251")
            )
        )
        start = max(o.timestamp for o in legacy_session.dataset("active-ipv6")) + 3600.0
        verdicts = prober.verify_sets(chosen, start_time=start)
        testable = [v for v in verdicts if v.testable]
        agree = sum(1 for v in testable if v.agrees)

        registry_session = ReproSession(config)
        result = get_experiment("table2").build(registry_session)
        midar_row = result.row("SSH-MIDAR")
        assert result.midar_sampled_sets == len(chosen)
        assert result.midar_testable_sets == len(testable)
        assert midar_row.sample_size == len(testable)
        assert midar_row.agree == agree
        assert midar_row.disagree == len(testable) - agree
        # The experiment's validation run landed in the session cache under
        # the same spec the registry registers for "midar".
        cached_specs = [spec for spec, _ in registry_session.cached_validations()]
        assert table2_midar_spec() in cached_specs

    def test_table2_kwargs_still_accepted(self, session):
        result = get_experiment("table2").build(session, midar_sample_size=10, midar_seed=3)
        assert result.midar_sampled_sets <= 10
        assert {row.pair for row in result.rows} == {
            "SSH-BGP",
            "SSH-SNMPv3",
            "BGP-SNMPv3",
            "SSH-MIDAR",
        }
