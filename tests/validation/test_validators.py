"""Tests for the built-in validator kinds on a controlled network."""

import random

import pytest

from repro.errors import ValidationError
from repro.validation.bank import IpidSampleBank
from repro.validation.runner import ValidationRun, run_validator
from repro.validation.spec import (
    ally,
    family_subset,
    iffinder,
    midar,
    ptr,
    sample,
    speedtrap,
)
from repro.validation.techniques import MidarPipeline

TRUE_SET = frozenset({"10.0.1.1", "10.0.1.2", "10.0.1.3"})
FALSE_SET = frozenset({"10.0.1.1", "10.0.2.1"})
RANDOM_SET = frozenset({"10.0.4.1", "10.0.4.2"})
V6_MIXED_SET = frozenset({"10.0.1.1", "2001:db80::11", "2001:db80::12"})


def _spec_vantage(spec_fn, **params):
    """A technique spec probing from the test vantage."""
    return spec_fn(vantage_name="validation-test", vantage_address="192.0.2.9", **params)


class TestMidarValidator:
    def test_matches_direct_prober(self, network, make_network, vantage):
        run = ValidationRun(network)
        report = run_validator(
            run, _spec_vantage(midar), candidates=(TRUE_SET, FALSE_SET), start_time=0.0
        )
        direct = MidarPipeline(IpidSampleBank(make_network(), vantage)).verify_sets(
            [TRUE_SET, FALSE_SET]
        )
        assert [(v.candidate, v.testable, v.agrees) for v in report.verdicts] == [
            (v.candidate, v.testable, v.agrees) for v in direct
        ]
        assert report.candidates == 2
        assert report.testable_count == 2
        assert report.agree_count == 1
        assert report.disagree_count == 1

    def test_untestable_set_counted_in_coverage(self, network):
        report = run_validator(
            ValidationRun(network),
            _spec_vantage(midar),
            candidates=(TRUE_SET, RANDOM_SET),
            start_time=0.0,
        )
        assert report.testable_count == 1
        assert report.testable_coverage == pytest.approx(0.5)
        assert report.verdicts[1].classes  # diagnostic target classes recorded

    def test_probe_accounting(self, network, count_probes):
        counter = count_probes(network)
        report = run_validator(
            ValidationRun(network), _spec_vantage(midar), candidates=(TRUE_SET,), start_time=0.0
        )
        assert report.probes_issued == counter["probes"]
        assert report.probes_reused == 0


class TestAllyValidator:
    def test_reuses_midar_series_with_zero_fresh_probes(self, network, count_probes):
        run = ValidationRun(network)
        run_validator(run, _spec_vantage(midar), candidates=(TRUE_SET,), start_time=0.0)
        counter = count_probes(network)
        report = run_validator(run, _spec_vantage(ally), candidates=(TRUE_SET,), start_time=0.0)
        assert counter["probes"] == 0  # every pair answered from the bank
        assert report.probes_issued == 0
        assert report.probes_reused > 0
        (verdict,) = report.verdicts
        assert verdict.testable
        assert verdict.agrees
        assert verdict.partition == (TRUE_SET,)

    def test_without_reuse_probes_fresh(self, network, count_probes):
        run = ValidationRun(network)
        run_validator(run, _spec_vantage(midar), candidates=(TRUE_SET,), start_time=0.0)
        counter = count_probes(network)
        report = run_validator(
            run, _spec_vantage(ally, reuse=False), candidates=(TRUE_SET,), start_time=1e6
        )
        assert counter["probes"] > 0
        assert report.probes_issued == counter["probes"]

    def test_splits_false_set(self, network):
        report = run_validator(
            ValidationRun(network), _spec_vantage(ally), candidates=(FALSE_SET,), start_time=0.0
        )
        (verdict,) = report.verdicts
        assert verdict.testable
        assert not verdict.agrees
        assert len(verdict.partition) == 2


class TestSpeedtrapValidator:
    def test_drops_ipv4_members(self, network):
        report = run_validator(
            ValidationRun(network),
            _spec_vantage(speedtrap),
            candidates=(V6_MIXED_SET,),
            start_time=0.0,
        )
        (verdict,) = report.verdicts
        assert verdict.candidate == frozenset({"2001:db80::11", "2001:db80::12"})
        assert verdict.testable
        assert verdict.agrees


class TestSampleCombinator:
    def test_matches_seeded_random_sample(self, network):
        base = tuple(frozenset({f"10.9.{i}.1", f"10.9.{i}.2"}) for i in range(20))
        spec = sample(_spec_vantage(midar), size=5, seed=13)
        report = run_validator(ValidationRun(network), spec, candidates=base, start_time=0.0)
        expected = random.Random(13).sample(list(base), 5)
        assert [v.candidate for v in report.verdicts] == [frozenset(c) for c in expected]
        assert report.candidates == 5
        assert report.validator == "sample"
        assert report.spec == spec

    def test_max_size_filters_before_sampling(self, network):
        big = frozenset({f"10.8.0.{i}" for i in range(1, 15)})
        base = (TRUE_SET, big)
        report = run_validator(
            ValidationRun(network),
            sample(_spec_vantage(midar), size=10, seed=1, max_size=10),
            candidates=base,
            start_time=0.0,
        )
        assert report.candidates == 1
        assert report.verdicts[0].candidate == TRUE_SET


class TestFamilyCombinator:
    def test_projects_members_to_family(self, network):
        spec = family_subset(_spec_vantage(midar), "ipv6")
        report = run_validator(
            ValidationRun(network), spec, candidates=(V6_MIXED_SET,), start_time=0.0
        )
        (verdict,) = report.verdicts
        assert verdict.candidate == frozenset({"2001:db80::11", "2001:db80::12"})

    def test_rejects_unknown_family(self, network):
        with pytest.raises(ValidationError, match="unknown address family"):
            run_validator(
                ValidationRun(network),
                family_subset(_spec_vantage(midar), "ipv9"),
                candidates=(TRUE_SET,),
                start_time=0.0,
            )


class TestIffinderAndPtrValidators:
    def test_iffinder_counts_probes(self, network):
        report = run_validator(
            ValidationRun(network), _spec_vantage(iffinder), candidates=(TRUE_SET,), start_time=0.0
        )
        assert report.candidates == 1
        assert report.probes_issued == len(TRUE_SET)

    def test_ptr_unresolvable_members_untestable(self, network):
        # The controlled devices carry no hostnames, so PTR cannot test them.
        report = run_validator(
            ValidationRun(network), _spec_vantage(ptr, coverage=1.0), candidates=(TRUE_SET,), start_time=0.0
        )
        (verdict,) = report.verdicts
        assert not verdict.testable
        assert not verdict.agrees


class TestSessionlessDerivation:
    def test_missing_session_raises(self, network):
        with pytest.raises(ValidationError, match="needs a session"):
            run_validator(ValidationRun(network), _spec_vantage(midar))

    def test_missing_session_start_after_raises(self, network):
        with pytest.raises(ValidationError, match="start_time"):
            run_validator(
                ValidationRun(network),
                _spec_vantage(midar, start_after="active-ipv6"),
                candidates=(TRUE_SET,),
            )
