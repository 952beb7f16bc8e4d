import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import clustercert as cc
from clustercert import bounds, clustering, verify
from clustercert.clustering import SearchLimitError

import oracles


def _four_point_bounded_space():
    # diameter 2.5 <= 3r at r=1; the largest 2r-cluster is {a,b,c}
    return cc.build_space(
        ["a", "b", "c", "d"],
        [
            ["0", "0.5", "2", "2"],
            ["0.5", "0", "2", "2"],
            ["2", "2", "0", "2.5"],
            ["2", "2", "2.5", "0"],
        ],
    )


class TestCheckProposition:
    def test_p1_on_tight_witness(self, tight9, tight9_params):
        spec = cc.TightInstanceSpec(k=2, m=3, m0=3, r=Fraction(1))
        result = verify.check_proposition(tight9, tight9_params, "P1", tight=spec)
        assert result.applicable and result.passed
        assert result.lhs == 3  # optimal-measure gap
        assert result.rhs == 3

    def test_p1_needs_construction_data(self, tight9, tight9_params):
        result = verify.check_proposition(tight9, tight9_params, "P1")
        assert not result.applicable
        assert result.passed is None

    def test_p1_rejects_mismatched_scale(self, tight9):
        spec = cc.TightInstanceSpec(k=2, m=3, m0=3, r=Fraction(1))
        result = verify.check_proposition(
            tight9, cc.ScaleParams(r=Fraction(2), k=2), "P1", tight=spec
        )
        assert not result.applicable

    def test_p2_reference_example(self):
        space = _four_point_bounded_space()
        result = verify.check_proposition(space, cc.ScaleParams(r=1, k=1), "P2")
        assert result.applicable
        assert result.lhs == 5  # medium edges
        assert result.rhs == 3  # max(4, 6)/2 * 1
        assert result.passed

    def test_p2_not_applicable_beyond_3r(self, s3, s3_params):
        result = verify.check_proposition(s3, s3_params, "P2")
        assert not result.applicable  # diameter 4 > 3

    @given(space=oracles.semimetric_spaces(), r=st.sampled_from(oracles.PALETTE[1:]))
    def test_p2_applies_exactly_up_to_diameter_3r(self, space, r):
        result = verify.check_proposition(space, cc.ScaleParams(r=r, k=1), "P2")
        assert result.applicable == (cc.subset_diameter(space, space.points()) <= 3 * r)

    def test_p2_fails_without_triangle_inequality(self):
        # two short edges plus one maximal medium edge defeat the bound;
        # exactly why the suite only generates triangle-satisfying instances
        bad = cc.build_space(
            ["a", "b", "c"],
            [["0", "0.5", "0.5"], ["0.5", "0", "3"], ["0.5", "3", "0"]],
        )
        result = verify.check_proposition(bad, cc.ScaleParams(r=1, k=1), "P2")
        assert result.applicable
        assert not result.passed
        assert (result.lhs, result.rhs) == (1, 2)

    def test_p3_trivial_on_three_points(self, s3, s3_params):
        result = verify.check_proposition(s3, s3_params, "P3")
        assert result.applicable
        assert result.lhs == 0 and result.rhs == 0
        assert result.passed

    def test_p4_on_tight_witness(self, tight9, tight9_params):
        result = verify.check_proposition(tight9, tight9_params, "P4")
        assert result.applicable and result.passed
        assert result.lhs == 27
        assert result.rhs == Fraction(27, 6)  # e_3(3,3,3)/3!

    def test_p5_p6_t1_gated_by_precondition(self, tight9, tight9_params):
        for prop in ("P5", "P6", "T1"):
            result = verify.check_proposition(tight9, tight9_params, prop)
            assert not result.applicable
            assert "precondition" in result.note

    def test_t1_on_singleton(self):
        space = cc.build_space(["a"], [["0"]])
        result = verify.check_proposition(space, cc.ScaleParams(r=1, k=1), "T1")
        assert result.applicable and result.passed

    def test_unknown_id_rejected(self, s3, s3_params):
        with pytest.raises(ValueError, match="unknown check id"):
            verify.check_proposition(s3, s3_params, "P9")

    def test_p4_with_neighbors_at_exactly_r(self):
        # Kernel {p0, p1} at distance 2r; p2 and p3 are at exactly r from it,
        # so they join its part. Were they left out, neither would be far from
        # the kernel, and P4 would read 0 >= e_3(2, 1, 1)/3! = 1/3.
        space = oracles.line_space([0, 2, 3, -1])
        params = cc.ScaleParams(r=Fraction(1), k=2)
        assert [sorted(p.z) for p in cc.greedy_decomposition(space, params).parts] == [[0, 1, 2, 3]]
        assert verify.check_proposition(space, params, "P4").passed

    def test_p5_needs_its_slack_at_k2(self):
        # Two blocks on a line at r = 1. The greedy parts have sizes W = (4, 3),
        # and inside the part of size 4 the pair 19/4, 6 is farther than r. So
        # T_2 = 12 + 1 exceeds e_2(W) = 12, and P5 holds only through its slack
        # (k/2) lambda n^k / (k-2)! = lambda n^2.
        space = oracles.line_space(["1/4", "3/4", 1, "19/4", "21/4", "23/4", 6])
        params = cc.ScaleParams(r=Fraction(1), k=2)
        cert = cc.build_certificate(space, params)
        assert cert.bounds.precondition_ok
        assert cert.decomposition.w == (4, 3)
        result = verify.check_proposition(space, params, "P5")
        assert result.applicable and result.passed
        assert result.lhs > cc.elementary_symmetric(cert.decomposition.w, 2) == 12
        assert (result.lhs, result.rhs) == (13, 12 + cert.bounds.lam * 7**2) == (13, Fraction(5799, 338))

    @settings(max_examples=2000)
    @given(
        space=st.one_of(oracles.line_metric_spaces(max_n=9), oracles.metric_spaces(max_n=9)),
        k=st.integers(1, 3),
    )
    def test_part_checks_hold_with_distances_at_exactly_r(self, space, k):
        # P3-P6 read the greedy parts, whose neighborhoods are decided at r.
        params = cc.ScaleParams(r=Fraction(1), k=k)
        for prop in ("P3", "P4", "P5", "P6"):
            result = verify.check_proposition(space, params, prop)
            assert result.passed is not False, (prop, result)

    @pytest.mark.parametrize("seed", range(10))
    def test_all_checks_pass_on_metric_instances(self, seed):
        rng = random.Random(seed)
        space = cc.random_metric_instance(rng.randint(1, 8), Fraction(1), seed)
        params = cc.ScaleParams(r=Fraction(1), k=rng.choice((1, 2, 3)))
        for prop in ("P2", "P3", "P4", "P5", "P6", "T1"):
            result = verify.check_proposition(space, params, prop)
            assert result.passed is None or result.passed, (prop, result)


class TestRunSuite:
    def test_small_suite_is_clean(self):
        config = verify.SuiteConfig(seed=7, trials=36, max_n=8)
        report = verify.run_suite(config)
        assert report.failure_count == 0
        assert all(t.failed == 0 for t in report.tallies)
        assert sum(t.applicable for t in report.tallies) > 0

    def test_deterministic_reports(self):
        config = verify.SuiteConfig(seed=3, trials=18, max_n=7)
        first = verify.run_suite(config)
        second = verify.run_suite(config)
        assert first == second
        assert cc.write_report(first) == cc.write_report(second)

    def test_zero_trials_is_empty(self):
        report = verify.run_suite(verify.SuiteConfig(seed=1, trials=0))
        assert report.failure_count == 0
        assert all(t.applicable == 0 for t in report.tallies)

    def test_max_n_capped_by_exact_limit(self):
        with pytest.raises(ValueError):
            verify.SuiteConfig(seed=1, trials=1, max_n=20, exact_limit=14)

    @pytest.mark.parametrize("k_values", [(True,), (1, 2.0)])
    def test_k_values_must_be_true_integers(self, k_values):
        with pytest.raises(ValueError):
            verify.SuiteConfig(seed=1, trials=1, k_values=k_values)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", 1.5),
            ("seed", True),
            ("trials", True),
            ("trials", 2.5),
            ("max_n", 6.0),
            ("exact_limit", 14.5),
            ("node_budget", False),
            ("node_budget", 10.0),
        ],
    )
    def test_counts_must_be_true_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            verify.SuiteConfig(**{"seed": 1, "trials": 1, field: value})

    def test_node_budget_turns_exact_checks_into_notes(self):
        budget = verify.run_suite(verify.SuiteConfig(seed=3, trials=30, max_n=8, node_budget=1))
        full = verify.run_suite(verify.SuiteConfig(seed=3, trials=30, max_n=8))
        exact_checks = {"P1", "T1"}
        for limited, unlimited in zip(budget.tallies, full.tallies):
            if limited.prop_id in exact_checks:
                assert limited.applicable == 0 and unlimited.applicable > 0
            else:
                assert limited == unlimited
        assert len(budget.notes) == 20 and not full.notes
        assert all("node budget exhausted" in note for note in budget.notes)
        assert budget.failure_count == 0

    def test_report_serializes(self):
        report = verify.run_suite(verify.SuiteConfig(seed=5, trials=9, max_n=6))
        obj = report.to_obj()
        assert obj["failureCount"] == 0
        assert set(obj["tallies"]) == set(verify.PROP_IDS)


class TestExactSearchRefusal:
    def _planted10(self):
        # beta = delta = 0 and alpha > 0, so T1's bound gates all pass.
        return cc.planted_instance(2, [5, 5], 0, 1, seed=3), cc.ScaleParams(r=Fraction(1), k=2)

    def test_notes_match_the_search_limit_error(self, tight9, tight9_params):
        spec = cc.TightInstanceSpec(k=2, m=3, m0=3, r=Fraction(1))
        with pytest.raises(SearchLimitError) as refused:
            cc.exact_structure(tight9, tight9_params, max_points=8)
        p1 = verify.check_proposition(tight9, tight9_params, "P1", tight=spec, exact_limit=8)
        assert not p1.applicable and p1.note == str(refused.value)
        space, params = self._planted10()
        with pytest.raises(SearchLimitError) as refused:
            cc.exact_structure(space, params, max_points=8)
        t1 = verify.check_proposition(space, params, "T1", exact_limit=8)
        assert not t1.applicable and t1.note == str(refused.value)
        cert = cc.build_certificate(space, params, exact_limit=8)
        assert cert.exact_note == str(refused.value)

    def test_refused_instances_never_enter_the_search(self, monkeypatch, tight9, tight9_params):
        def refuse(*args, **kwargs):
            raise AssertionError("exact_structure called on a refused instance")

        monkeypatch.setattr(clustering, "exact_structure", refuse)
        spec = cc.TightInstanceSpec(k=2, m=3, m0=3, r=Fraction(1))
        assert not verify.check_proposition(
            tight9, tight9_params, "P1", tight=spec, exact_limit=8
        ).applicable
        space, params = self._planted10()
        assert not verify.check_proposition(space, params, "T1", exact_limit=8).applicable
        assert bounds.build_certificate(space, params, exact_limit=8).exact is None

    def test_failed_gates_never_enter_the_search(self, monkeypatch, s3, s3_params):
        # The record computes a part only when a check reads it: on a space
        # without construction data whose bound gates fail, no check reads
        # the exact result, so the search never runs.
        def refuse(*args, **kwargs):
            raise AssertionError("exact_structure called although no check reads it")

        monkeypatch.setattr(clustering, "exact_structure", refuse)
        results = {pid: verify.check_proposition(s3, s3_params, pid) for pid in verify.PROP_IDS}
        assert results["T1"].note == "precondition inequality fails"
        assert not results["P1"].applicable and not results["T1"].applicable
        assert results["P4"].applicable  # it reads the greedy decomposition


class TestGenerateInstance:
    # Each test replays the generator's draws from the same seed, so it pins
    # which flavour produced the instance, not only its shape.
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tight_at_max_n_k_plus_one(self, k):
        space, spec, r = verify._generate_instance("tight", random.Random(k), k, k + 1)
        assert spec == cc.TightInstanceSpec(k=k, m=1, m0=1, r=r)
        assert space == cc.tight_instance(spec)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_planted_at_max_n_k(self, k):
        space, spec, r = verify._generate_instance("planted", random.Random(k), k, k)
        rng = random.Random(k)
        assert rng.choice(verify._R_PALETTE) == r and rng.randint(k, k) == k
        assert verify._random_composition(rng, k, k) == [1] * k
        assert spec is None
        assert space == cc.planted_instance(k, [1] * k, 0, r, rng.randrange(2**32))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tight_falls_back_to_metric_at_max_n_k(self, k):
        space, spec, r = verify._generate_instance("tight", random.Random(k), k, k)
        rng = random.Random(k)
        assert rng.choice(verify._R_PALETTE) == r
        n = rng.randint(1, k)
        assert spec is None
        assert space == cc.random_metric_instance(n, r, rng.randrange(2**32))

    def test_single_point_suites_are_accepted(self):
        report = verify.run_suite(verify.SuiteConfig(seed=2, trials=9, max_n=1))
        assert report.to_obj()["maxN"] == 1
        assert report.failure_count == 0
        assert sum(t.applicable for t in report.tallies) > 0
        with pytest.raises(ValueError, match="max_n"):
            verify.SuiteConfig(max_n=0)


class TestFailureRoundTrip:
    def test_manufactured_failure_replays(self):
        # A triangle-violating instance fails P2; rebuilding the record from
        # its serialized space must reproduce the identical verdict.
        bad = cc.build_space(
            ["a", "b", "c"],
            [["0", "0.5", "0.5"], ["0.5", "0", "3"], ["0.5", "3", "0"]],
        )
        params = cc.ScaleParams(r=Fraction(1), k=1)
        original = verify.check_proposition(bad, params, "P2")
        record = verify.FailureRecord(
            trial=0,
            prop_id="P2",
            k=params.k,
            r=str(params.r),
            lhs=str(original.lhs),
            rhs=str(original.rhs),
            space_text=cc.dump_space(bad),
        )
        replayed = verify.replay_failure(record)
        assert replayed.applicable
        assert replayed.passed is False
        assert str(replayed.lhs) == record.lhs
        assert str(replayed.rhs) == record.rhs

    def test_p1_failure_replays_with_its_construction(self):
        spec = cc.TightInstanceSpec(k=1, m=2, m0=2, r=Fraction(1))
        witness = cc.tight_instance(spec)
        # One cross-block pair moved to the medium range: P1 fails on M = 1.
        matrix = [list(row) for row in witness.dist]
        matrix[0][2] = matrix[2][0] = Fraction(2)
        broken = cc.build_space(list(witness.labels), matrix)
        params = cc.ScaleParams(r=spec.r, k=spec.k)
        original = verify.check_proposition(broken, params, "P1", tight=spec)
        assert original.applicable and original.passed is False
        fields = dict(
            trial=0,
            prop_id="P1",
            k=params.k,
            r=str(params.r),
            lhs=str(original.lhs),
            rhs=str(original.rhs),
            space_text=cc.dump_space(broken),
        )
        record = verify.FailureRecord(**fields, tight=spec)
        assert verify.replay_failure(record) == original
        assert record.to_obj()["tight"] == {"k": 1, "m": 2, "m0": 2, "r": "1"}
        assert "tight" not in verify.FailureRecord(**fields).to_obj()

    def test_failing_p1_and_its_record_hash(self):
        # A witness is held as (name, value) pairs, so records that carry one
        # hash like any other; the report still writes it as an object.
        spec = cc.TightInstanceSpec(k=1, m=2, m0=2, r=Fraction(1))
        witness = cc.tight_instance(spec)
        matrix = [list(row) for row in witness.dist]
        matrix[0][2] = matrix[2][0] = Fraction(2)
        broken = cc.build_space(list(witness.labels), matrix)
        result = verify.check_proposition(broken, cc.ScaleParams(r=spec.r, k=spec.k), "P1", tight=spec)
        expected = {"mediumEdges": 1, "anticliquesTop": 4, "anticliquesTopExpected": 4, "gap": 2, "gapExpected": 2}
        assert result.passed is False and dict(result.witness) == expected
        fields = dict(
            trial=0, prop_id="P1", k=1, r="1", lhs=str(result.lhs), rhs=str(result.rhs),
            space_text=cc.dump_space(broken), tight=spec, witness=result.witness,
        )
        record = verify.FailureRecord(**fields)
        replayed = verify.replay_failure(record)
        assert replayed == result and hash(replayed) == hash(result)
        assert hash(record) == hash(verify.FailureRecord(**fields))
        assert record.to_obj()["witness"] == expected

    @staticmethod
    def _invert(monkeypatch, prop_id):
        # The check with its verdict inverted fails wherever it passes,
        # keeping its lhs and rhs.
        check = verify._CHECKS[prop_id]

        def inverted(cert, tight):
            result = check(cert, tight)
            return verify.CheckResult(
                result.prop_id, result.applicable, not result.passed, result.lhs, result.rhs,
                note="inverted", witness=result.witness,
            )

        monkeypatch.setitem(verify._CHECKS, prop_id, inverted)

    def test_suite_failure_reaches_the_report_and_replays(self, monkeypatch):
        # The suite counts the inverted P4's failures on generated spaces and
        # the replay on the space parsed back from the report.
        self._invert(monkeypatch, "P4")
        report = verify.run_suite(verify.SuiteConfig(seed=3, trials=6, max_n=6))
        obj = json.loads(cc.write_report(report))
        assert obj["failureCount"] == len(obj["failures"]) == obj["tallies"]["P4"]["failed"] == 6
        for record, entry in zip(report.failures, obj["failures"]):
            assert entry == record.to_obj()
            assert (entry["prop"], entry["note"]) == ("P4", "inverted")
            replayed = verify.replay_failure(record)
            assert replayed.passed is False
            assert (str(replayed.lhs), str(replayed.rhs)) == (entry["lhs"], entry["rhs"])

    def test_suite_failure_keeps_its_witness(self, monkeypatch):
        # What a failing check found reaches its failure record and the
        # serialized report; a record without a witness writes no key.
        check = verify._CHECKS["P4"]

        def failing(cert, tight):
            result = check(cert, tight)
            witness = (("parts", list(cert.decomposition.w)),)
            return verify.CheckResult("P4", True, False, result.lhs, result.rhs, witness=witness)

        monkeypatch.setitem(verify._CHECKS, "P4", failing)
        report = verify.run_suite(verify.SuiteConfig(seed=3, trials=3, max_n=6))
        obj = json.loads(cc.write_report(report))
        assert len(report.failures) == len(obj["failures"]) == 3
        for record, entry in zip(report.failures, obj["failures"]):
            space = cc.load_space(record.space_text)
            params = cc.ScaleParams(r=Fraction(record.r), k=record.k)
            parts = list(cc.greedy_decomposition(space, params).w)
            assert dict(record.witness) == entry["witness"] == {"parts": parts}
        bare = verify.FailureRecord(0, "P4", 1, "1", "0", "0", report.failures[0].space_text)
        assert "witness" not in bare.to_obj()

    def test_failure_above_the_default_limit_replays(self, monkeypatch):
        # With exact_limit 16 the inverted T1 fails on spaces the default
        # limit of 14 would refuse; without a limit the replay admits them,
        # and an explicit limit still wins.
        self._invert(monkeypatch, "T1")
        report = verify.run_suite(verify.SuiteConfig(seed=5, trials=40, max_n=16, exact_limit=16))
        sizes = [cc.load_space(record.space_text).n for record in report.failures]
        assert max(sizes) > clustering.DEFAULT_EXACT_LIMIT
        for record, n in zip(report.failures, sizes):
            replayed = verify.replay_failure(record)
            assert replayed.passed is False
            assert (str(replayed.lhs), str(replayed.rhs)) == (record.lhs, record.rhs)
            if n > clustering.DEFAULT_EXACT_LIMIT:
                assert not verify.replay_failure(record, exact_limit=clustering.DEFAULT_EXACT_LIMIT).applicable

    def test_report_keeps_the_generator_mix(self):
        report = verify.run_suite(verify.SuiteConfig(seed=1, trials=3, max_n=5))
        assert report.to_obj()["generatorMix"] == ["tight", "planted", "metric"]

    @pytest.mark.parametrize("seed", range(6))
    def test_serialized_instances_reproduce_all_verdicts(self, seed):
        rng = random.Random(seed)
        space = cc.random_metric_instance(rng.randint(1, 7), Fraction(1, 2), seed)
        params = cc.ScaleParams(r=Fraction(1, 2), k=rng.choice((1, 2)))
        reloaded = cc.load_space(cc.dump_space(space))
        for prop in ("P2", "P3", "P4", "P5", "P6", "T1"):
            first = verify.check_proposition(space, params, prop)
            again = verify.check_proposition(reloaded, params, prop)
            assert (first.applicable, first.passed, first.lhs, first.rhs) == (
                again.applicable,
                again.passed,
                again.lhs,
                again.rhs,
            )
