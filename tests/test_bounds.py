import decimal
import sys
import threading
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

import clustercert as cc

import oracles

TENTH4 = Fraction(1, 10**4)


class TestLambdaParam:
    def test_exact_value(self):
        inputs = cc.BoundInputs(alpha=Fraction(1, 2), beta=TENTH4, delta=TENTH4, k=2)
        # 3/20000 + 9e-8 / (1/2) = 0.00015018 exactly
        assert cc.lambda_param(inputs) == Fraction(15018, 10**8)

    def test_zero_penalties(self):
        inputs = cc.BoundInputs(alpha=Fraction(1), beta=Fraction(0), delta=Fraction(0), k=3)
        assert cc.lambda_param(inputs) == 0

    def test_alpha_zero_rejected(self):
        inputs = cc.BoundInputs(alpha=Fraction(0), beta=TENTH4, delta=Fraction(0), k=2)
        assert cc.lambda_param(inputs) is None
        assert cc.alpha_prime(inputs) is None

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            cc.BoundInputs(alpha=Fraction(1), beta=Fraction(-1), delta=Fraction(0), k=1)


class TestPrecondition:
    def test_small_parameters_pass(self):
        inputs = cc.BoundInputs(alpha=Fraction(1, 2), beta=TENTH4, delta=TENTH4, k=2)
        assert cc.precondition_check(inputs)

    def test_boundary_equality_passes(self):
        inputs = cc.BoundInputs(alpha=Fraction(1), beta=Fraction(0), delta=Fraction(2, 27), k=2)
        assert cc.precondition_check(inputs)
        just_over = cc.BoundInputs(
            alpha=Fraction(1), beta=Fraction(0), delta=Fraction(2, 27) + Fraction(1, 10**9), k=2
        )
        assert not cc.precondition_check(just_over)

    def test_tight_instance_observed_values_fail(self):
        inputs = cc.BoundInputs(alpha=Fraction(2, 3), beta=Fraction(2, 9), delta=Fraction(0), k=2)
        assert not cc.precondition_check(inputs)

    def test_alpha_zero_is_false(self):
        inputs = cc.BoundInputs(alpha=Fraction(0), beta=Fraction(0), delta=Fraction(0), k=1)
        assert not cc.precondition_check(inputs)


class TestEvaluateBounds:
    @pytest.mark.parametrize(
        "alpha, beta, delta, k, precondition_ok, reason",
        [
            (Fraction(0), TENTH4, Fraction(0), 2, False, "alpha is not separated from zero"),
            (Fraction(2, 3), Fraction(2, 9), Fraction(0), 2, False, "precondition inequality fails"),
            (Fraction(1, 100), Fraction(0), Fraction(1, 200), 2, True, "is not positive"),
            (Fraction(1, 2), TENTH4, TENTH4, 2, True, None),
            # alpha' = 1/8 - 1/2 * 1/4 = 0 exactly: the gate, not a division by zero.
            (Fraction(1, 8), Fraction(0), Fraction(1, 4), 1, True, "is not positive"),
        ],
    )
    def test_first_failing_gate(self, alpha, beta, delta, k, precondition_ok, reason):
        inputs = cc.BoundInputs(alpha=alpha, beta=beta, delta=delta, k=k)
        ev = cc.psi_bound(inputs)
        assert ev.precondition_ok == precondition_ok == cc.precondition_check(inputs)
        assert (ev.reason is None) == (reason is None)
        assert reason is None or reason in ev.reason
        if alpha == 0:
            assert ev.lam is None and ev.alpha_prime is None
        else:
            assert ev.lam == cc.lambda_param(inputs)
            assert ev.alpha_prime == cc.alpha_prime(inputs)
        assert (ev.value is None) == (ev.reason is not None)
        for n in (0, 1, 7, 20):
            for m in range(n + 1):
                assert cc.measure_meets_psi(m, n, inputs) == ev.meets(m, n)


_UNIT_RATIONALS = st.fractions(min_value=0, max_value=1, max_denominator=1000)


class TestPreconditionOracle:
    @given(
        alpha=_UNIT_RATIONALS,
        beta=_UNIT_RATIONALS,
        delta=_UNIT_RATIONALS,
        k=st.integers(1, 4),
        on_boundary=st.booleans(),
    )
    def test_agrees_with_the_original_inequality(self, alpha, beta, delta, k, on_boundary):
        # The oracle is the precondition as the bound states it:
        # delta + (k+1) beta^2/alpha^2 <= 2/(k+1)^3.
        if on_boundary and alpha > 0:
            delta = max(Fraction(0), Fraction(2, (k + 1) ** 3) - (k + 1) * beta**2 / alpha**2)
        inputs = cc.BoundInputs(alpha=alpha, beta=beta, delta=delta, k=k)
        expected = alpha > 0 and delta + (k + 1) * beta**2 / alpha**2 <= Fraction(2, (k + 1) ** 3)
        assert cc.precondition_check(inputs) == expected
        ev = cc.psi_bound(inputs)
        assert (ev.penalty is None) == (ev.reason is not None)
        if ev.penalty is not None:
            assert ev.penalty == factorial(k) * (k + 2) * beta / ev.alpha_prime


class TestPsiBound:
    def test_reference_value_k2(self):
        inputs = cc.BoundInputs(alpha=Fraction(1, 2), beta=TENTH4, delta=TENTH4, k=2)
        result = cc.psi_bound(inputs)
        assert result.applicable and not result.vacuous
        assert result.value == pytest.approx(0.94840, abs=1e-4)
        assert result.alpha_prime == Fraction(1, 2) - 4 * Fraction(15018, 10**8)

    def test_reference_value_k1(self):
        inputs = cc.BoundInputs(alpha=Fraction(1, 2), beta=Fraction(1, 100), delta=Fraction(0), k=1)
        assert cc.lambda_param(inputs) == Fraction(8, 10**4)
        result = cc.psi_bound(inputs)
        assert result.value == pytest.approx(0.93995, abs=1e-4)

    def test_no_penalties_gives_one(self):
        inputs = cc.BoundInputs(alpha=Fraction(3, 4), beta=Fraction(0), delta=Fraction(0), k=2)
        result = cc.psi_bound(inputs)
        assert result.value == 1.0

    def test_not_applicable_when_precondition_fails(self):
        inputs = cc.BoundInputs(alpha=Fraction(2, 3), beta=Fraction(2, 9), delta=Fraction(0), k=2)
        result = cc.psi_bound(inputs)
        assert not result.applicable
        assert result.value is None
        assert "precondition" in result.reason

    def test_not_applicable_when_denominator_vanishes(self):
        # k=2, alpha small: alpha' = alpha - 4*lambda can drop below zero
        # while the precondition still holds.
        inputs = cc.BoundInputs(alpha=Fraction(1, 100), beta=Fraction(0), delta=Fraction(1, 200), k=2)
        assert cc.precondition_check(inputs)
        result = cc.psi_bound(inputs)
        assert not result.applicable
        assert "not positive" in result.reason

    def test_vacuous_bound_still_reported(self):
        # k=3, delta=0.03: sqrt(delta)*(2k+1) > 1 while the precondition and
        # the denominator both stay fine, so psi is defined but non-positive.
        inputs = cc.BoundInputs(alpha=Fraction(9, 10), beta=Fraction(0), delta=Fraction(3, 100), k=3)
        assert cc.precondition_check(inputs)
        result = cc.psi_bound(inputs)
        assert result.applicable
        assert result.value < 0
        assert result.vacuous

    def test_monotone_in_each_parameter(self):
        base = dict(alpha=Fraction(1, 2), beta=Fraction(1, 10**4), delta=Fraction(1, 10**4))
        for k in (1, 2, 3, 4):
            smaller_beta = cc.psi_bound(cc.BoundInputs(**{**base, "beta": Fraction(1, 10**5)}, k=k))
            at_base = cc.psi_bound(cc.BoundInputs(**base, k=k))
            smaller_delta = cc.psi_bound(cc.BoundInputs(**{**base, "delta": Fraction(1, 10**5)}, k=k))
            bigger_alpha = cc.psi_bound(cc.BoundInputs(**{**base, "alpha": Fraction(9, 10)}, k=k))
            assert smaller_beta.value >= at_base.value
            assert smaller_delta.value >= at_base.value
            assert bigger_alpha.value >= at_base.value


class TestLegacyBound:
    def test_reference_value_k2(self):
        assert cc.legacy_bound(TENTH4, TENTH4, 2) == pytest.approx(0.55841, abs=1e-3)

    def test_reference_value_k1(self):
        assert cc.legacy_bound(Fraction(1, 100), Fraction(0), 1) == pytest.approx(0.52817, abs=1e-3)

    def test_no_penalties_gives_one(self):
        assert cc.legacy_bound(0, 0, 3) == 1.0

    def test_improved_bound_dominates_on_grid(self):
        # Wherever the improved bound applies on this grid, it is at least
        # the older beta^(1/(k+1)) bound (usually far above it).
        grid_bd = [Fraction(0), Fraction(1, 10**6), Fraction(1, 10**4), Fraction(1, 10**3)]
        grid_alpha = [Fraction(3, 10), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
        compared = 0
        for k in (1, 2, 3, 4):
            for beta in grid_bd:
                for delta in grid_bd:
                    for alpha in grid_alpha:
                        inputs = cc.BoundInputs(alpha=alpha, beta=beta, delta=delta, k=k)
                        result = cc.psi_bound(inputs)
                        if not result.applicable:
                            continue
                        compared += 1
                        assert result.value >= cc.legacy_bound(beta, delta, k) - 1e-12
        assert compared > 100


class TestDecimalContext:
    def test_caller_precision_does_not_reach_the_bounds(self):
        inputs = cc.BoundInputs(alpha=Fraction(1, 2), beta=TENTH4, delta=TENTH4, k=2)
        with decimal.localcontext() as ctx:
            ctx.prec = 3
            psi = cc.psi_bound(inputs).value
            legacy = cc.legacy_bound(TENTH4, TENTH4, 2)
        assert psi == 0.948398075383689
        assert legacy == 0.558409403359856


class TestMeasureMeetsPsi:
    def test_exact_boundary(self):
        inputs = cc.BoundInputs(alpha=Fraction(1), beta=Fraction(0), delta=Fraction(0), k=1)
        assert cc.measure_meets_psi(1, 1, inputs) is True  # psi = 1, measure/n = 1
        assert cc.measure_meets_psi(0, 1, inputs) is False

    def test_square_root_tie(self):
        # psi = 1 - 3 * sqrt(1/36) = 1/2: (2k+1)^2 delta = q^2 = 1/4 at measure/n = 1/2.
        ev = cc.psi_bound(cc.BoundInputs(alpha=Fraction(1), beta=Fraction(0), delta=Fraction(1, 36), k=1))
        assert ev.meets(1, 2) is True
        assert ev.meets(2, 4) is True
        assert ev.meets(4, 9) is False

    def test_none_when_undefined(self):
        bad = cc.BoundInputs(alpha=Fraction(2, 3), beta=Fraction(2, 9), delta=Fraction(0), k=2)
        assert cc.measure_meets_psi(1, 1, bad) is None

    @given(
        measure=st.integers(0, 12),
        n=st.integers(1, 12),
        beta_num=st.integers(0, 5),
        delta_num=st.integers(0, 5),
        alpha_num=st.integers(3, 10),
        k=st.integers(1, 3),
    )
    def test_agrees_with_float_evaluation_away_from_ties(
        self, measure, n, beta_num, delta_num, alpha_num, k
    ):
        if measure > n:
            measure = n
        inputs = cc.BoundInputs(
            alpha=Fraction(alpha_num, 10),
            beta=Fraction(beta_num, 10**4),
            delta=Fraction(delta_num, 10**4),
            k=k,
        )
        exact = cc.measure_meets_psi(measure, n, inputs)
        psi = cc.psi_bound(inputs)
        if exact is None:
            assert not psi.applicable
            return
        approx = measure - psi.value * n
        if abs(approx) > 1e-6:  # away from the boundary both answers agree
            assert exact == (approx > 0)


class TestSingleEvaluation:
    def test_one_bound_evaluation_per_certificate_and_per_t1_check(self, monkeypatch):
        # The certificate and all seven checks read one memoized record, so
        # the gates are evaluated once per (space, params), however each
        # caller spells its arguments.
        calls = []
        evaluate = cc.bounds.psi_bound

        def counted(inputs):
            calls.append(inputs)
            return evaluate(inputs)

        monkeypatch.setattr(cc.bounds, "psi_bound", counted)
        space = cc.planted_instance(2, [5, 5], 0, 1, seed=3)
        params = cc.ScaleParams(r=1, k=2)
        cert = cc.build_certificate(space, params)
        names = {v.name for v in cert.verdicts}
        assert {"greedy_measure_ge_psi_times_n", "exact_measure_ge_psi_times_n"} <= names
        results = {pid: cc.check_proposition(space, params, pid) for pid in cc.verify.PROP_IDS}
        assert results["T1"].applicable
        assert len(calls) == 1

    def test_psi_is_evaluated_only_where_it_is_read(self, monkeypatch):
        calls = []
        sqrt = cc.bounds._sqrt

        def counted(q, ctx):
            calls.append(q)
            return sqrt(q, ctx)

        monkeypatch.setattr(cc.bounds, "_sqrt", counted)
        space = cc.planted_instance(2, [5, 5], 0, 1, seed=3)
        params = cc.ScaleParams(r=1, k=2)
        for prop_id, expected in (("P3", 0), ("P5", 0), ("P6", 0), ("T1", 1)):
            calls.clear()
            assert cc.check_proposition(space, params, prop_id).applicable
            assert len(calls) == expected, prop_id


class TestOneViewPerScale:
    """The threshold rows of a scale are built once, for its view ``space._scale(r)``,
    and every reader of that scale, ``max_cluster`` at each greedy step included, reuses them."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        rows = cc.FiniteSemimetricSpace._threshold_rows

        def counted(space, thresholds):
            calls.append([d for d, _ in thresholds])
            return rows(space, thresholds)

        monkeypatch.setattr(cc.FiniteSemimetricSpace, "_threshold_rows", counted)
        return calls

    def test_one_build_per_scale_for_a_whole_certificate(self, builds):
        space = cc.planted_instance(2, [6, 6], Fraction(1, 10), 1, seed=3)
        for r in (1, "1/2", Fraction(1, 2), "1.0"):
            cert = cc.build_certificate(space, cc.ScaleParams(r=r, k=2))
            assert len(cert.decomposition.parts) > 1 and cert.exact is not None
            cert.to_obj()
            for pid in cc.verify.PROP_IDS:
                cc.check_proposition(space, cert.params, pid)
        half = Fraction(1, 2)
        assert builds == [[1, 1, 2, 3], [half, half, 1, 3 * half]]

    def test_one_build_for_a_greedy_decomposition(self, builds):
        space = cc.planted_instance(3, [20, 20, 20], Fraction(1, 10), 1, seed=0)
        decomp = cc.greedy_decomposition(space, cc.ScaleParams(r=1, k=3))
        assert len(decomp.parts) == 3  # three greedy steps, each a max_cluster call
        assert builds == [[1, 1, 2, 3]]


class TestBuildCertificate:
    def test_shared_record_reads_alike_across_threads(self, clear_memos):
        # Threads that read one memoized record at once may compute a part
        # twice, but every reader sees the same certificate.
        space = cc.planted_instance(2, [5, 4], 0, 1, seed=5)
        params = cc.ScaleParams(r=1, k=2)
        limit = cc.clustering.DEFAULT_EXACT_LIMIT
        expected = cc.write_report(cc.bounds.BoundCertificate(space, params, limit, None))
        clear_memos()
        reports = []
        readers = [
            threading.Thread(
                target=lambda: reports.append(cc.write_report(cc.build_certificate(space, params)))
            )
            for _ in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert reports == [expected] * len(readers)

    def test_three_point_certificate(self, s3, s3_params):
        cert = cc.build_certificate(s3, s3_params)
        assert cert.space.n == 3
        assert cert.observed.beta_hat == 0
        assert not cert.bounds.precondition_ok  # delta_hat = 2/9 > 2/27
        assert cert.bounds.value is None
        assert cert.greedy.measure == 3
        assert cert.exact.measure == 3
        assert cert.greedy_validation.ok and cert.exact_validation.ok

    def test_tight_certificate(self, tight9, tight9_params):
        cert = cc.build_certificate(tight9, tight9_params)
        assert not cert.bounds.precondition_ok
        assert cert.greedy.measure == 6
        assert cert.exact.measure == 6
        assert cert.space.n == 9
        assert cert.legacy is not None
        names = [v.name for v in cert.verdicts]
        assert "greedy_measure_le_exact_measure" in names
        assert all(v.holds for v in cert.verdicts)

    def test_empty_space_certificate(self):
        cert = cc.build_certificate(cc.build_space([], []), cc.ScaleParams(r=1, k=2))
        assert cert.space.n == 0
        assert cert.observed.medium_edges == 0
        assert not cert.bounds.precondition_ok
        assert cert.bounds.reason == "alpha is not separated from zero"
        assert cert.greedy.measure == 0
        assert cert.exact.measure == 0

    def test_singleton_meets_unit_bound(self):
        space = cc.build_space(["a"], [["0"]])
        cert = cc.build_certificate(space, cc.ScaleParams(r=1, k=1))
        assert cert.bounds.precondition_ok
        assert cert.bounds.value == 1.0
        verdicts = {v.name: v.holds for v in cert.verdicts}
        assert verdicts["greedy_measure_ge_psi_times_n"]
        assert verdicts["exact_measure_ge_psi_times_n"]

    def test_exact_search_can_be_skipped(self, tight9, tight9_params):
        over_limit = cc.build_certificate(tight9, tight9_params, exact_limit=4)
        assert over_limit.exact is None
        assert "exceeds" in over_limit.exact_note

    def test_node_budget_keeps_partial_result(self, tight9, tight9_params):
        # A search cut by its budget proves nothing: no verdict compares its
        # measure, so none reads false, as P1 and T1 read "not applicable".
        for space in (tight9, cc.planted_instance(2, [7, 7], 0, 1, 0)):
            cert = cc.build_certificate(space, tight9_params, node_budget=3)
            assert cert.exact.optimal is False
            assert cert.exact_note is not None
            assert all(v.holds for v in cert.verdicts)
            names = {v.name for v in cert.verdicts}
            assert not names & {"greedy_measure_le_exact_measure", "exact_measure_ge_psi_times_n"}

    def test_serialization_is_byte_stable(self, tight9, tight9_params, clear_memos):
        first = cc.write_report(cc.build_certificate(tight9, tight9_params))
        clear_memos()  # rebuild the record instead of reading the memoized one
        second = cc.write_report(cc.build_certificate(tight9, tight9_params))
        assert first == second
        obj_keys = set(cc.build_certificate(tight9, tight9_params).to_obj())
        assert {"n", "r", "k", "counts", "observed", "precondition", "psi", "legacy", "greedy", "exact"} <= obj_keys

    @given(space=oracles.metric_spaces(min_n=1, max_n=7), k=st.integers(1, 2))
    def test_verdicts_hold_on_metric_instances(self, space, k):
        cert = cc.build_certificate(space, cc.ScaleParams(r=Fraction(1), k=k))
        assert all(v.holds for v in cert.verdicts)


def _line_blocks(k: int, m: int) -> tuple[list[int], int]:
    """Claim B's spaces on a line, as integer positions and the scale r: k blocks
    of m points spread over r/2 = m - 1 and started 10r apart, then two outliers,
    the first 4r beyond the last block and the second 3r/2 beyond it. They give
    T_{k+1} > 0 and M = 1, so beta > 0 and delta > 0, and no pair is at exactly r,
    so ``oracles.line_opt`` gives OPT."""
    r = 2 * (m - 1)
    positions = [10 * r * b + i for b in range(k) for i in range(m)]
    positions += [positions[-1] + 4 * r, positions[-1] + 4 * r + 3 * r // 2]
    return positions, r


class TestT1AboveTheExactLimit:
    @pytest.mark.parametrize("k, m", [(1, 59), (2, 40), (3, 120)])
    def test_psi_binds_on_line_blocks(self, k, m):
        # At n = 61, 82 and 362 the exact search is refused; the line DP gives OPT.
        positions, r = _line_blocks(k, m)
        n = len(positions)
        cert = cc.build_certificate(oracles.grid_line_space(positions), cc.ScaleParams(r=Fraction(r), k=k))
        ev = cert.bounds
        opt = oracles.line_opt(positions, r, k)
        assert "exact-search limit" in cert.exact_note
        assert ev.applicable
        assert ev.inputs.beta > 0 and ev.inputs.delta > 0 and ev.value > 0
        assert ev.meets(opt, n) and ev.meets(cert.greedy.measure, n)
        assert cert.greedy.measure <= opt

    def test_p5_p6_and_t1_on_a_grid_of_line_blocks(self):
        # k = 1..3 and m = 2..29: 84 spaces, n = 4..89. Each check holds wherever
        # its gates let it apply, and each applies in at least 30 of them, T1
        # with psi > 0 in at least 10. T1 is decided by the exact search up to
        # its limit of 14 points, and above it by the line DP's OPT.
        applied = {"P5": 0, "P6": 0, "T1": 0}
        psi_positive = 0
        for k in (1, 2, 3):
            for m in range(2, 30):
                positions, r = _line_blocks(k, m)
                n = len(positions)
                space = oracles.grid_line_space(positions)
                params = cc.ScaleParams(r=Fraction(r), k=k)
                cert = cc.build_certificate(space, params)
                ev = cert.bounds
                assert ev.inputs.beta > 0 and ev.inputs.delta > 0
                searched = n <= cc.clustering.DEFAULT_EXACT_LIMIT
                for prop in ("P5", "P6", "T1") if searched else ("P5", "P6"):
                    result = cc.check_proposition(space, params, prop)
                    assert result.passed is not False, (k, m, prop)
                    applied[prop] += result.applicable
                if not searched and ev.reason is None:
                    opt = oracles.line_opt(positions, r, k)
                    assert cert.greedy.measure <= opt
                    assert ev.meets(opt, n) and ev.meets(cert.greedy.measure, n), (k, m)
                    applied["T1"] += 1
                psi_positive += ev.reason is None and ev.value > 0
        assert min(applied.values()) >= 30 and psi_positive >= 10, (applied, psi_positive)
