"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single "PASS criterion-N ..." line on success (visible
with pytest -s; the -v test listing mirrors the same per-criterion verdicts).
Expected values are pinned from brute-force oracles, never from the code
under test.
"""
import random
import time
from fractions import Fraction

import pytest

import clustercert as cc
from clustercert import verify

import oracles


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_block_witness_arithmetic():
    """Reference witness identities, exactly, in under a second; then the
    whole (k, m, m0) family by brute force."""
    started = time.perf_counter()
    spec = cc.TightInstanceSpec(k=2, m=3, m0=3, r=Fraction(1))
    space = cc.tight_instance(spec)
    params = cc.ScaleParams(r=Fraction(1), k=2)
    assert cc.medium_edge_count(space, 1) == 0
    assert cc.anticlique_count(space, 1, 3) == 27
    lam = Fraction(spec.m, space.n)
    assert 27 == space.n**3 * (1 - 2 * lam) * lam**2
    result = cc.exact_structure(space, params)
    assert result.measure == 6
    assert space.n - result.measure == 3 == lam * space.n
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"witness checks took {elapsed:.3f}s"

    checked = 0
    for k in (1, 2, 3):
        for m in (1, 2, 3, 4):
            for m0 in range(m, 6):
                fam_spec = cc.TightInstanceSpec(k=k, m=m, m0=m0, r=Fraction(1))
                fam = cc.tight_instance(fam_spec)
                n = fam.n
                assert oracles.medium_edges(fam, 1) == 0
                assert oracles.anticliques(fam, 1, k + 1) == m0 * m**k
                lam = Fraction(m, n)
                assert m0 * m**k == n ** (k + 1) * (1 - k * lam) * lam**k
                fam_result = cc.exact_structure(fam, cc.ScaleParams(r=Fraction(1), k=k), max_points=20)
                assert fam_result.optimal
                assert n - fam_result.measure == m == lam * n
                checked += 1
    _report("criterion-1 block-witness arithmetic", True, f"{checked} family instances, {elapsed:.3f}s witness")


def test_criterion_2_verification_suite_200_trials():
    """200 seeded instances, n <= 10, k in {1,2,3}: zero failures among the
    applicable checks, in under five minutes single-threaded."""
    started = time.perf_counter()
    config = verify.SuiteConfig(seed=42, trials=200, max_n=10, k_values=(1, 2, 3))
    report = verify.run_suite(config)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"suite took {elapsed:.1f}s"
    per_prop = {t.prop_id: t for t in report.tallies}
    for prop in ("P2", "P3", "P4", "P5", "P6", "T1"):
        assert per_prop[prop].failed == 0, report.failures
        assert per_prop[prop].applicable > 0
    _report(
        "criterion-2 verification suite",
        report.failure_count == 0,
        f"{sum(t.applicable for t in report.tallies)} applicable checks, {elapsed:.1f}s",
    )


def test_criterion_3_exact_search_oracle_equivalence():
    """100 seeded instances with n <= 8: branch-and-bound measure equals the
    exhaustive assignment enumeration, exactly."""
    for case in range(100):
        rng = random.Random(1000 + case)
        n = rng.randint(1, 8)
        k = rng.randint(1, 3)
        if case % 2:
            space = oracles.random_semimetric(rng, n)
        else:
            space = cc.random_metric_instance(n, Fraction(1), rng.randrange(2**32))
        params = cc.ScaleParams(r=Fraction(1), k=k)
        result = cc.exact_structure(space, params)
        assert result.optimal
        expected = oracles.structure_measure(space, k, params.r)
        assert result.measure == expected, (case, n, k)
    _report("criterion-3 exact-search oracle equivalence", True, "100 cases")


def test_criterion_4_greedy_dominance():
    """Greedy structures never beat the exact optimum, and both validate."""
    for case in range(60):
        rng = random.Random(2000 + case)
        n = rng.randint(1, 9)
        k = rng.randint(1, 3)
        flavor = case % 3
        if flavor == 0:
            space = cc.random_metric_instance(n, Fraction(1), rng.randrange(2**32))
        elif flavor == 1:
            space = oracles.random_semimetric(rng, n)
        else:
            sizes = verify._random_composition(rng, max(n, k), k)
            space = cc.planted_instance(k, sizes, 0, Fraction(1), rng.randrange(2**32))
        params = cc.ScaleParams(r=Fraction(1), k=k)
        decomp = cc.greedy_decomposition(space, params)
        greedy = cc.greedy_structure(decomp, k)
        exact = cc.exact_structure(space, params)
        assert exact.optimal
        assert greedy.measure <= exact.measure
        assert cc.validate_structure(space, greedy, params).ok
        assert cc.validate_structure(space, exact.structure, params).ok
    _report("criterion-4 greedy dominance", True, "60 cases")


def test_criterion_5_bound_improvement_reproduction():
    """Reference bound values at their stated tolerances, and dominance of
    the improved bound over the legacy bound across the parameter grid."""
    inputs = cc.BoundInputs(
        alpha=Fraction(1, 2), beta=Fraction(1, 10**4), delta=Fraction(1, 10**4), k=2
    )
    psi = cc.psi_bound(inputs)
    legacy = cc.legacy_bound(inputs.beta, inputs.delta, 2)
    assert psi.value == pytest.approx(0.94840, abs=1e-4)
    assert legacy == pytest.approx(0.55841, abs=1e-3)
    assert psi.value > legacy

    grid_values = [Fraction(0), Fraction(1, 10**6), Fraction(1, 10**5), Fraction(1, 10**4), Fraction(1, 10**3)]
    grid_alpha = [Fraction(3, 10), Fraction(2, 5), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    compared = 0
    for k in (1, 2, 3, 4):
        for beta in grid_values:
            for delta in grid_values:
                for alpha in grid_alpha:
                    grid_inputs = cc.BoundInputs(alpha=alpha, beta=beta, delta=delta, k=k)
                    if not cc.precondition_check(grid_inputs):
                        continue
                    result = cc.psi_bound(grid_inputs)
                    if not result.applicable:
                        continue
                    compared += 1
                    assert result.value >= cc.legacy_bound(beta, delta, k) - 1e-12, (
                        k, beta, delta, alpha,
                    )
    assert compared >= 400
    _report(
        "criterion-5 bound improvement",
        True,
        f"psi={psi.value:.5f} legacy={legacy:.5f}, {compared} grid points",
    )


def test_criterion_6_discretization_sandwich():
    """50 random weighted metric spaces: exact multiplicity sandwich and
    covering parts of diameter at most eps."""
    for case in range(50):
        rng = random.Random(3000 + case)
        n = rng.randint(1, 8)
        coords = [(rng.randint(0, 40), rng.randint(0, 40)) for _ in range(n)]
        # tenth-grid weights keep the common truncation denominator small, so
        # the multiplicity space stays a few thousand points at worst
        weights = [Fraction(rng.randint(1, 20), 10) for _ in range(n)]
        w = cc.WeightedFiniteSpace(base=cc.space_from_points(coords), weights=tuple(weights))
        eps_part = Fraction(rng.randint(1, 60), 2)
        eps = Fraction(rng.choice((4, 10, 25)), 100)
        partition = cc.epsilon_partition(w, eps_part)
        flat = sorted(p for part in partition for p in part)
        assert flat == list(range(n))
        for part in partition:
            assert cc.subset_diameter(w.base, part) <= eps_part
        uniform = cc.uniformize(w, partition, eps)
        counts: dict[str, int] = {}
        for label in uniform.labels:
            counts[label.split("_")[0]] = counts.get(label.split("_")[0], 0) + 1
        sizes = [counts[f"a{i}"] for i in range(len(partition))]
        total = sum(sizes)
        for part, size in zip(partition, sizes):
            mu_part = sum((w.weights[p] for p in part), Fraction(0))
            assert (1 - eps) * mu_part * total / w.total_weight <= size
            assert size <= mu_part * total / ((1 - eps) * w.total_weight)
    _report("criterion-6 discretization sandwich", True, "50 weighted spaces")


def test_criterion_7_determinism(clear_memos):
    """Identical seeds and configs produce byte-identical artifacts."""
    space = cc.tight_instance(cc.TightInstanceSpec(k=2, m=2, m0=3, r=Fraction(1)))
    params = cc.ScaleParams(r=Fraction(1), k=2)

    def fresh(build):
        # Each build starts from empty memos, so the two artifacts compared
        # are computed twice, not one memoized object read twice.
        clear_memos()
        return cc.write_report(build()).encode()

    cert_bytes = [fresh(lambda: cc.build_certificate(space, params)) for _ in range(2)]
    assert cert_bytes[0] == cert_bytes[1]

    config = verify.SuiteConfig(seed=42, trials=25, max_n=8)
    report_bytes = [fresh(lambda: verify.run_suite(config)) for _ in range(2)]
    assert report_bytes[0] == report_bytes[1]

    planted = [
        cc.dump_space(cc.planted_instance(2, (4, 3), Fraction(1, 10), Fraction(1), seed=77))
        for _ in range(2)
    ]
    assert planted[0] == planted[1]
    _report("criterion-7 determinism", True)
