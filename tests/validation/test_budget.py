"""Tests for the probe-budget optimizer.

Parity on the controlled network is the core contract: attaching a
:class:`~repro.validation.budget.ProbeBudgetOptimizer` with no cap must
reproduce every decision (testable, agrees, partition) of the plain
pipelines while issuing strictly fewer probes, and a capped run must mark
unaffordable sets unresolved without flipping any resolved verdict.
"""

import pytest

from repro import obs
from repro.errors import ValidationError
from repro.validation.budget import (
    DEFAULT_VELOCITY_TTL,
    ProbeBudget,
    ProbeBudgetExhausted,
    ProbeBudgetOptimizer,
    VelocityCache,
    consensus_breakdown,
    consensus_report,
    is_unresolved,
    run_budgeted,
    unresolved_verdict,
)
from repro.validation.runner import ValidationRun, run_validator
from repro.validation.spec import ally, consensus, iffinder, midar, speedtrap
from repro.validation.techniques import MidarConfig, MidarPipeline

TRUE_SET = frozenset({"10.0.1.1", "10.0.1.2", "10.0.1.3"})
FALSE_SET = frozenset({"10.0.1.1", "10.0.2.1"})
RANDOM_SET = frozenset({"10.0.4.1", "10.0.4.2"})
V6_TRUE_SET = frozenset({"2001:db80::11", "2001:db80::12"})
CANDIDATES = (TRUE_SET, FALSE_SET, RANDOM_SET)


def _spec_vantage(spec_fn, **params):
    return spec_fn(vantage_name="validation-test", vantage_address="192.0.2.9", **params)


def _decisions(report):
    return [
        (v.candidate, v.testable, v.agrees, v.partition) for v in report.verdicts
    ]


class TestProbeBudget:
    def test_unlimited_grants_and_tracks_spend(self):
        budget = ProbeBudget()
        assert budget.request(10_000)
        budget.charge(10_000)
        assert budget.spent == 10_000
        assert budget.remaining is None
        assert not budget.closed

    def test_denial_closes_the_budget(self):
        budget = ProbeBudget(limit=10)
        assert budget.request(8)
        budget.charge(8)
        assert not budget.request(3)  # would overrun
        assert budget.closed
        assert not budget.request(1)  # affordable, but the budget is closed
        assert budget.remaining == 2

    def test_negative_limit_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            ProbeBudget(limit=-1)

    def test_zero_limit_denies_everything(self):
        budget = ProbeBudget(limit=0)
        assert not budget.request(1)
        assert budget.closed


class TestVelocityCache:
    CONFIG = MidarConfig()

    def test_rejects_nonpositive_ttl(self):
        with pytest.raises(ValidationError, match="ttl"):
            VelocityCache(ttl=0.0)

    def _classify(self, cache, network, vantage, observed_at=0.0):
        from repro.validation.bank import IpidSampleBank

        bank = IpidSampleBank(network, vantage)
        series, collected_at, _ = bank.estimation_series(
            "10.0.1.1",
            self.CONFIG.estimation_samples,
            self.CONFIG.estimation_interval,
            observed_at,
        )
        return cache.classify("10.0.1.1", series, collected_at, self.CONFIG)

    def test_classify_memoised_on_same_collection(self, network, vantage):
        cache = VelocityCache(ttl=100.0)
        first = self._classify(cache, network, vantage)
        second = self._classify(cache, network, vantage)
        assert second is first
        assert cache.misses == 1
        assert cache.hits == 1

    def test_fresh_within_ttl_expired_beyond(self, network, vantage):
        cache = VelocityCache(ttl=100.0)
        entry = self._classify(cache, network, vantage)
        assert cache.fresh("10.0.1.1", self.CONFIG, entry.observed_at + 100.0) is entry
        assert cache.fresh("10.0.1.1", self.CONFIG, entry.observed_at + 100.1) is None

    def test_different_parameters_never_share_a_verdict(self, network, vantage):
        cache = VelocityCache(ttl=100.0)
        self._classify(cache, network, vantage)
        other = MidarConfig(max_velocity=1.0)
        assert cache.entry("10.0.1.1", other) is None


class TestUnresolvedVerdict:
    def test_shape_and_detection(self):
        verdict = unresolved_verdict(TRUE_SET, at=5.0)
        assert not verdict.testable
        assert not verdict.agrees
        assert verdict.partition == ()
        assert verdict.classes == tuple(
            (address, "unresolved") for address in sorted(TRUE_SET)
        )
        assert is_unresolved(verdict)

    def test_normal_verdicts_not_flagged(self, network):
        report = run_validator(
            ValidationRun(network), _spec_vantage(midar), candidates=CANDIDATES, start_time=0.0
        )
        assert not any(is_unresolved(v) for v in report.verdicts)


class TestUncappedParity:
    """No cap: every decision matches the plain pipelines, for fewer probes."""

    @pytest.mark.parametrize(
        "spec_fn,candidates,saves",
        [
            # Ally alone has no estimation stage or repeat passes to save
            # on — its wins come from composition (test below).
            (midar, CANDIDATES, True),
            (ally, CANDIDATES, False),
            (speedtrap, (V6_TRUE_SET,), True),
        ],
        ids=["midar", "ally", "speedtrap"],
    )
    def test_decision_parity_with_fewer_probes(
        self, make_network, count_probes, spec_fn, candidates, saves
    ):
        spec = _spec_vantage(spec_fn)
        plain_network = make_network()
        plain_counter = count_probes(plain_network)
        plain = run_validator(
            ValidationRun(plain_network), spec, candidates=candidates, start_time=0.0
        )

        budgeted_network = make_network()
        budgeted_counter = count_probes(budgeted_network)
        run = ValidationRun(budgeted_network)
        run.optimizer = ProbeBudgetOptimizer()
        optimized = run_validator(run, spec, candidates=candidates, start_time=0.0)

        assert _decisions(optimized) == _decisions(plain)
        if saves:
            assert budgeted_counter["probes"] < plain_counter["probes"]
        else:
            assert budgeted_counter["probes"] <= plain_counter["probes"]
        assert run.optimizer.budget.spent == budgeted_counter["probes"]

    def test_composed_midar_ally_shares_estimation(self, make_network, count_probes):
        network = make_network()
        counter = count_probes(network)
        run = ValidationRun(network)
        run.optimizer = ProbeBudgetOptimizer()
        run_validator(run, _spec_vantage(midar), candidates=CANDIDATES, start_time=0.0)
        after_midar = counter["probes"]
        independent_network = make_network()
        independent_counter = count_probes(independent_network)
        run_validator(
            ValidationRun(independent_network),
            _spec_vantage(ally),
            candidates=CANDIDATES,
            start_time=0.0,
        )
        ally_report = run_validator(
            run, _spec_vantage(ally), candidates=CANDIDATES, start_time=0.0
        )
        # Most Ally pairs are answered from banked MIDAR corroboration;
        # only pairs the transitive skip left unprobed go to the network.
        assert counter["probes"] - after_midar < independent_counter["probes"]
        assert ally_report.probes_reused > 0


class TestAllyReuseParam:
    """``ally(reuse=False)`` probes fresh with or without an optimizer."""

    @pytest.mark.parametrize("optimized", [False, True], ids=["plain", "optimized"])
    def test_reuse_false_is_honoured(self, make_network, count_probes, optimized):
        network = make_network()
        run = ValidationRun(network)
        if optimized:
            run.optimizer = ProbeBudgetOptimizer()
        run_validator(run, _spec_vantage(midar), candidates=(TRUE_SET,), start_time=0.0)
        counter = count_probes(network)
        report = run_validator(
            run, _spec_vantage(ally, reuse=False), candidates=(TRUE_SET,), start_time=0.0
        )
        assert (report.probes_issued, report.probes_reused) == (12, 0)
        assert counter["probes"] == 12
        (verdict,) = report.verdicts
        assert verdict.testable and verdict.agrees


class TestCappedDegradation:
    def test_skipped_sets_unresolved_resolved_verdicts_identical(self, make_network):
        spec = _spec_vantage(midar)
        uncapped_run = ValidationRun(make_network())
        uncapped_run.optimizer = ProbeBudgetOptimizer()
        uncapped = run_validator(
            uncapped_run, spec, candidates=CANDIDATES, start_time=0.0
        )
        spent = uncapped_run.optimizer.budget.spent

        # One probe short of the full spend: the last fresh-probe request
        # is denied, so the final scheduled set goes unresolved while every
        # earlier set resolved exactly as the uncapped run did.
        capped_run = ValidationRun(make_network())
        capped_run.optimizer = ProbeBudgetOptimizer(budget=spent - 1)
        capped = run_validator(capped_run, spec, candidates=CANDIDATES, start_time=0.0)

        assert capped_run.optimizer.budget.closed
        unresolved = [v for v in capped.verdicts if is_unresolved(v)]
        assert unresolved
        resolved_parity = [
            (c, u)
            for c, u in zip(capped.verdicts, uncapped.verdicts)
            if not is_unresolved(c)
        ]
        assert resolved_parity, "the capped run resolved nothing"
        for capped_verdict, uncapped_verdict in resolved_parity:
            assert capped_verdict.testable == uncapped_verdict.testable
            assert capped_verdict.agrees == uncapped_verdict.agrees
            assert capped_verdict.partition == uncapped_verdict.partition

    def test_zero_budget_leaves_every_set_unresolved(self, network, count_probes):
        counter = count_probes(network)
        run = ValidationRun(network)
        run.optimizer = ProbeBudgetOptimizer(budget=0)
        report = run_validator(
            run, _spec_vantage(midar), candidates=CANDIDATES, start_time=0.0
        )
        assert counter["probes"] == 0
        assert all(is_unresolved(v) for v in report.verdicts)
        outcomes = [outcome.outcome for outcome in run.optimizer.outcomes]
        assert outcomes == ["unresolved"] * len(CANDIDATES)

    def test_zero_budget_still_answers_from_the_bank(self, network, count_probes):
        warm = ValidationRun(network)
        warm.optimizer = ProbeBudgetOptimizer()
        run_validator(warm, _spec_vantage(midar), candidates=CANDIDATES, start_time=0.0)
        counter = count_probes(network)
        warm.optimizer = ProbeBudgetOptimizer(budget=0)
        report = run_validator(
            warm, _spec_vantage(midar), candidates=CANDIDATES, start_time=0.0
        )
        assert counter["probes"] == 0
        assert not any(is_unresolved(v) for v in report.verdicts)
        assert {o.outcome for o in warm.optimizer.outcomes} == {"cached"}
        assert report.probes_issued == 0

    def test_iffinder_gated_by_budget(self, network):
        run = ValidationRun(network)
        run.optimizer = ProbeBudgetOptimizer(budget=0)
        report = run_validator(
            run, _spec_vantage(iffinder), candidates=(TRUE_SET,), start_time=0.0
        )
        (verdict,) = report.verdicts
        assert is_unresolved(verdict)

    def test_exhaustion_escapes_outside_a_runner(self, network, vantage):
        from repro.validation.bank import IpidSampleBank

        pipeline = MidarPipeline(
            IpidSampleBank(network, vantage), optimizer=ProbeBudgetOptimizer(budget=0)
        )
        with pytest.raises(ProbeBudgetExhausted):
            pipeline.estimate(sorted(TRUE_SET), start_time=0.0)


class TestVelocityTtl:
    def test_expired_velocity_always_reprobes(self, network, count_probes):
        run = ValidationRun(network)
        run.optimizer = ProbeBudgetOptimizer(velocity_ttl=10.0)
        run_validator(run, _spec_vantage(midar), candidates=(TRUE_SET,), start_time=0.0)
        counter = count_probes(network)
        # Well beyond the ttl: the cached velocities must not be reused.
        run_validator(
            run, _spec_vantage(midar), candidates=(TRUE_SET,), start_time=1e6
        )
        assert counter["probes"] > 0

    def test_fresh_velocity_rescores_free(self, network, count_probes):
        run = ValidationRun(network)
        run.optimizer = ProbeBudgetOptimizer(velocity_ttl=DEFAULT_VELOCITY_TTL)
        run_validator(run, _spec_vantage(midar), candidates=(TRUE_SET,), start_time=0.0)
        counter = count_probes(network)
        run_validator(run, _spec_vantage(midar), candidates=(TRUE_SET,), start_time=0.0)
        assert counter["probes"] == 0


class TestObsAccounting:
    def test_budget_counter_counts_sets_per_outcome(self, network):
        registry = obs.enable()
        try:
            run = ValidationRun(network)
            run.optimizer = ProbeBudgetOptimizer()
            run_validator(
                run, _spec_vantage(midar), candidates=CANDIDATES, start_time=0.0
            )
            probed = registry.counter_value(
                "validation.budget", outcome="probed", validator="midar"
            )
            assert probed == len(CANDIDATES)
        finally:
            obs.disable()


class TestRunBudgeted:
    def test_restores_previous_optimizer(self, network):
        run = ValidationRun(network)
        sentinel = ProbeBudgetOptimizer()
        run.optimizer = sentinel
        spec = _spec_vantage(midar, start_time=0.0)
        with pytest.raises(ValidationError):
            run_budgeted(run, [spec])  # no session: candidate derivation fails
        assert run.optimizer is sentinel

    def test_unknown_validator_name_raises(self, network):
        from repro.errors import RegistryError

        with pytest.raises(RegistryError, match="unknown validator"):
            run_budgeted(ValidationRun(network), ["no-such-validator"])


class TestConsensus:
    def _reports(self, network):
        run = ValidationRun(network)
        specs = (_spec_vantage(midar), _spec_vantage(ally))
        reports = [
            run_validator(run, spec, candidates=CANDIDATES, start_time=0.0)
            for spec in specs
        ]
        return consensus(*specs), reports

    def test_majority_fold(self, network):
        spec, reports = self._reports(network)
        folded = consensus_report(spec, reports, CANDIDATES, 0.0)
        assert folded.candidates == len(CANDIDATES)
        true_verdict, false_verdict, random_verdict = folded.verdicts
        assert true_verdict.testable and true_verdict.agrees
        assert false_verdict.testable and not false_verdict.agrees
        # MIDAR abstains on the random-IPID device; Ally still casts a
        # disagree vote, which alone decides the set.
        assert random_verdict.testable and not random_verdict.agrees
        assert ("0:midar", "untestable") in random_verdict.classes
        assert folded.probes_issued == sum(r.probes_issued for r in reports)

    def test_breakdown_round_trip(self, network):
        spec, reports = self._reports(network)
        folded = consensus_report(spec, reports, CANDIDATES, 0.0)
        rows = consensus_breakdown(folded)
        assert [row.candidate for row in rows] == [frozenset(c) for c in CANDIDATES]
        names = [name for name, _ in rows[0].outcomes]
        assert names == ["0:midar", "1:ally"]
        assert rows[0].agree_votes == 2 and not rows[0].conflict
        assert rows[1].disagree_votes == 2

    def test_unresolved_votes_abstain(self, network):
        import dataclasses

        spec, reports = self._reports(network)
        unresolved = tuple(
            unresolved_verdict(candidate, 0.0) for candidate in CANDIDATES
        )
        starved = [reports[0], dataclasses.replace(reports[1], verdicts=unresolved)]
        folded = consensus_report(spec, starved, CANDIDATES, 0.0)
        # With one technique starved out the other decides alone.
        assert folded.verdicts[0].agrees
        assert ("1:ally", "unresolved") in folded.verdicts[0].classes

    def test_verdict_count_mismatch_raises(self, network):
        spec, reports = self._reports(network)
        with pytest.raises(ValidationError, match="verdicts"):
            consensus_report(spec, reports, CANDIDATES[:1], 0.0)

    def test_breakdown_rejects_non_consensus_report(self, network):
        _, reports = self._reports(network)
        with pytest.raises(ValidationError, match="consensus"):
            consensus_breakdown(reports[0])

    def test_consensus_spec_requires_two_inputs(self, network):
        with pytest.raises(ValidationError, match="two"):
            run_validator(
                ValidationRun(network),
                consensus(_spec_vantage(midar)),
                candidates=CANDIDATES,
                start_time=0.0,
            )

    def test_consensus_runs_through_the_runner(self, network):
        spec = consensus(_spec_vantage(midar), _spec_vantage(ally))
        report = run_validator(
            ValidationRun(network), spec, candidates=CANDIDATES, start_time=0.0
        )
        assert report.validator == "consensus"
        assert report.verdicts[0].agrees
        assert not report.verdicts[1].agrees


class TestDerivedStartMemoisation:
    def test_equal_schedules_share_one_start(self, network):
        class FakeObservation:
            def __init__(self, timestamp):
                self.timestamp = timestamp

        class FakeSession:
            def __init__(self):
                self.calls = 0

            def dataset(self, name):
                self.calls += 1
                return [FakeObservation(10.0), FakeObservation(50.0)]

        session = FakeSession()
        run = ValidationRun(network, session=session)
        first = run.derived_start("active-ipv6", 3600.0)
        second = run.derived_start("active-ipv6", 3600.0)
        assert first == second == 50.0 + 3600.0
        assert session.calls == 1  # memoised: one derivation, one bank key
        assert run.derived_start("active-ipv6", 7200.0) == 50.0 + 7200.0
        assert session.calls == 2

    def test_without_session_raises(self, network):
        with pytest.raises(ValidationError, match="session"):
            ValidationRun(network).derived_start("active-ipv6", 3600.0)
