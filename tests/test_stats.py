import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, strategies as st

import clustercert as cc

import oracles


class TestMediumEdgeCount:
    def test_three_point_example(self, s3):
        assert cc.medium_edge_count(s3, 1) == 1

    def test_tight_instance_has_none(self, tight9):
        assert cc.medium_edge_count(tight9, 1) == 0

    def test_singleton(self):
        space = cc.build_space(["a"], [["0"]])
        assert cc.medium_edge_count(space, 1) == 0

    def test_inclusive_boundaries(self):
        # rho = r stays short, rho = 3r stays medium.
        space = cc.build_space(["a", "b", "c"], [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]])
        assert space.within(1)[0] == 0b011 and space.within(3)[0] == 0b111
        assert cc.medium_edge_count(space, 1, points=[0, 1]) == 0
        assert cc.medium_edge_count(space, 1, points=[0, 2]) == 1
        assert cc.long_edge_count(space, 1) == 0

    def test_subset_restriction(self, s3):
        assert cc.medium_edge_count(s3, 1, points=[0, 1]) == 0
        assert cc.medium_edge_count(s3, 1, points=[0, 2]) == 1

    @given(space=oracles.semimetric_spaces(), r=st.sampled_from(oracles.PALETTE[1:]))
    def test_matches_enumeration(self, space, r):
        assert cc.medium_edge_count(space, r) == oracles.medium_edges(space, r)
        assert cc.long_edge_count(space, r) == oracles.long_edges(space, r)

    @given(
        space=oracles.semimetric_spaces(),
        r=st.sampled_from([Fraction(-1, 2), *oracles.PALETTE]),
        data=st.data(),
    )
    def test_subset_matches_enumeration(self, space, r, data):
        # Unsorted, with repeats, and passed as a one-shot generator.
        points = data.draw(st.lists(st.integers(0, space.n - 1), max_size=2 * space.n) if space.n else st.just([]))
        assert cc.medium_edge_count(space, r, points=iter(points)) == oracles.medium_edges(space, r, points)
        assert cc.long_edge_count(space, r, points=iter(points)) == oracles.long_edges(space, r, points)
        assert cc.medium_edge_count(space, r, points=()) == cc.long_edge_count(space, r, points=()) == 0

    @pytest.mark.parametrize("r", [Fraction(-1), Fraction(0)])
    def test_non_positive_scale_matches_enumeration(self, s3, r):
        # Every pair is long here, and no point pairs with itself.
        assert cc.long_edge_count(s3, r) == oracles.long_edges(s3, r) == 3
        assert cc.medium_edge_count(s3, r) == oracles.medium_edges(s3, r) == 0


class TestAnticliqueCount:
    def test_three_point_example(self, s3):
        assert cc.anticlique_count(s3, 1, 2) == 2
        assert cc.anticlique_count(s3, 1, 3) == 0

    def test_tight_instance_top_order(self, tight9):
        assert cc.anticlique_count(tight9, 1, 3) == 27

    def test_order_one_counts_points(self, s3, tight9):
        assert cc.anticlique_count(s3, 1, 1) == 3
        assert cc.anticlique_count(tight9, 1, 1) == 9

    def test_order_zero_is_one(self, s3):
        assert cc.anticlique_count(s3, 1, 0) == 1

    def test_boolean_order_rejected(self, s3):
        with pytest.raises(ValueError):
            cc.anticlique_count(s3, 1, True)

    def test_negative_order_rejected(self, s3):
        with pytest.raises(ValueError):
            cc.anticlique_count(s3, 1, -1)

    @given(space=oracles.semimetric_spaces(), r=st.sampled_from(oracles.PALETTE[1:]))
    def test_matches_enumeration(self, space, r):
        for s in range(space.n + 2):
            assert cc.anticlique_count(space, r, s) == oracles.anticliques(space, r, s)

    @staticmethod
    def _assert_matches_backtrack(space, r):
        for s in range(space.n + 2):
            assert cc.anticlique_count(space, r, s) == oracles.anticlique_backtrack(space, r, s)

    @given(
        space=oracles.line_metric_spaces(max_n=12, span=40),
        r=st.sampled_from(oracles.PALETTE[1:]),
    )
    def test_matches_backtrack_on_spread_lines(self, space, r):
        # A wide span leaves many near components and pairs at exactly r.
        self._assert_matches_backtrack(space, r)

    @given(space=oracles.block_spaces(), r=st.sampled_from(oracles.PALETTE[1:]))
    def test_matches_backtrack_on_block_spaces(self, space, r):
        self._assert_matches_backtrack(space, r)

    def test_matches_backtrack_on_planted_three_by_fifty(self):
        space = cc.planted_instance(3, [50, 50, 50], Fraction(1, 20), 1, 0)
        for s in (3, 4):
            assert cc.anticlique_count(space, 1, s) == oracles.anticlique_backtrack(space, 1, s)

    @given(data=st.data())
    def test_near_clique_components_give_elementary_symmetric(self, data):
        # Each near component is a near-clique of m points, with the factor
        # 1 + m*x: T_s is e_s of the component sizes, P4's e_{k+1}(W).
        k = data.draw(st.integers(1, 3))
        if data.draw(st.booleans()):
            m = data.draw(st.integers(1, 6))
            m0 = data.draw(st.integers(m, 12))
            space = cc.tight_instance(cc.TightInstanceSpec(k=k, m=m, m0=m0, r=Fraction(1)))
            sizes = [m0] + [m] * k
        else:
            sizes = data.draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))
            space = cc.planted_instance(k, sizes, 0, 1, data.draw(st.integers(0, 2**31)))
        for s in range(1, k + 2):
            assert cc.anticlique_count(space, 1, s) == cc.elementary_symmetric(sizes, s)

    @given(space=oracles.semimetric_spaces(), r=st.sampled_from([Fraction(-1, 2), Fraction(1, 3), *oracles.PALETTE]))
    def test_components_of_the_near_graph(self, space, r):
        # The near components partition the points; each is closed under near and connected.
        near = oracles.within(space, r)
        components = cc.stats._components(near)
        parts = [[p for p in range(space.n) if comp >> p & 1] for comp in components]
        assert sorted(p for members in parts for p in members) == list(range(space.n))
        assert sum(components) == (1 << space.n) - 1  # no bit above the points
        for comp, members in zip(components, parts):
            assert all(near[p] & ~comp == 0 for p in members)
            reached = {members[0]}
            for _ in members:
                reached |= {q for p in reached for q in members if space.rho(p, q) <= r}
            assert reached == set(members)

    @given(space=oracles.semimetric_spaces(min_n=1), s=st.integers(1, 4))
    def test_antitone_in_scale(self, space, s):
        counts = [cc.anticlique_count(space, r, s) for r in oracles.PALETTE[1:]]
        assert counts == sorted(counts, reverse=True)

    @given(space=oracles.semimetric_spaces(min_n=1), r=st.sampled_from(oracles.PALETTE[1:]))
    def test_binomial_cap_and_density_antitone_in_order(self, space, r):
        # The raw count can grow with s (all-far spaces peak at s = n/2);
        # the s!/n^s-normalized density never does.
        n = space.n
        previous_density = None
        for s in range(1, n + 1):
            count = cc.anticlique_count(space, r, s)
            assert count <= comb(n, s)
            density = Fraction(factorial(s) * count, n**s)
            if previous_density is not None:
                assert density <= previous_density
            previous_density = density


class TestLineCounts:
    """T_s and M of integer points on a line, far above the sizes enumeration
    reaches, against the oracles over sorted coordinates."""

    @given(
        n=st.integers(0, 400),
        span=st.integers(0, 1200),
        seed=st.integers(0, 2**31),
        r=st.builds(Fraction, st.integers(1, 24), st.sampled_from([1, 2, 3])),
    )
    @example(n=400, span=1200, seed=0, r=Fraction(24))
    def test_matches_the_sorted_oracles(self, n, span, seed, r):
        rng = random.Random(seed)
        positions = [rng.randint(0, span) for _ in range(n)]
        space = oracles.grid_line_space(positions)
        assert cc.medium_edge_count(space, r) == oracles.line_medium_pairs(positions, r)
        for s in range(4):
            assert cc.anticlique_count(space, r, s) == oracles.line_anticliques(positions, r, s)

    @pytest.mark.parametrize("N, R", [(0, 1), (5, 2), (12, 1), (30, 4), (100, 3), (400, 20)])
    def test_grid_closed_forms(self, N, R):
        # On {0..N} at r = R: C(N - (s-1)R + 1, s) s-subsets with every gap above R,
        # and N + 1 - d pairs at each distance d in (R, 3R].
        positions = list(range(N + 1))
        space = oracles.grid_line_space(positions)
        for s in range(1, 6):
            expected = comb(max(N - (s - 1) * R + 1, 0), s)
            assert oracles.line_anticliques(positions, R, s) == expected
            if s <= 3:
                assert cc.anticlique_count(space, R, s) == expected
        expected = sum(N + 1 - d for d in range(R + 1, min(3 * R, N) + 1))
        assert cc.medium_edge_count(space, R) == oracles.line_medium_pairs(positions, R) == expected


class TestElementarySymmetric:
    def test_examples(self):
        assert cc.elementary_symmetric((3, 2, 1), 2) == 11
        assert cc.elementary_symmetric((3, 2, 1), 0) == 1
        assert cc.elementary_symmetric((3, 2, 1), 4) == 0

    def test_booleans_rejected(self):
        with pytest.raises(ValueError):
            cc.elementary_symmetric([2, 3], True)
        with pytest.raises(ValueError):
            cc.elementary_symmetric([True, 3], 1)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            cc.elementary_symmetric((3, -1), 1)
        with pytest.raises(ValueError):
            cc.elementary_symmetric((3, 2), -1)

    def test_degree_above_the_values_is_zero_without_a_product(self, monkeypatch):
        # The product would take O(s) steps per value; a degree above the
        # value count is 0 at once, after the argument checks.
        def product(factors, s):
            raise AssertionError("the product was expanded")

        monkeypatch.setattr(cc.stats, "_truncated_product", product)
        assert cc.elementary_symmetric((3, 2, 1), 4) == 0
        assert cc.elementary_symmetric((), 1) == 0
        assert cc.elementary_symmetric((3, 2, 1), 10**18) == 0
        with pytest.raises(ValueError):
            cc.elementary_symmetric((3, -1), 5)

    @given(
        values=st.lists(st.integers(0, 9), max_size=12),
        s=st.integers(0, 6),
    )
    def test_matches_subset_enumeration(self, values, s):
        assert cc.elementary_symmetric(values, s) == oracles.elementary_symmetric(values, s)

    @given(
        values=st.lists(st.integers(0, 9), max_size=10),
        extra=st.integers(0, 9),
        s=st.integers(1, 5),
    )
    def test_append_recurrence(self, values, extra, s):
        lhs = cc.elementary_symmetric(values + [extra], s)
        rhs = cc.elementary_symmetric(values, s) + extra * cc.elementary_symmetric(values, s - 1)
        assert lhs == rhs


class TestObservedParameters:
    def test_tight_instance(self, tight9, tight9_params):
        obs = cc.observed_parameters(tight9, tight9_params)
        assert obs.medium_edges == 0
        assert obs.anticliques_k == 27
        assert obs.anticliques_k_plus_1 == 27
        assert obs.delta_hat == 0
        assert obs.alpha_hat == Fraction(2, 3)
        assert obs.beta_hat == Fraction(2, 9)

    def test_three_point_example(self, s3, s3_params):
        obs = cc.observed_parameters(s3, s3_params)
        assert (obs.medium_edges, obs.anticliques_k, obs.anticliques_k_plus_1) == (1, 2, 0)
        assert obs.delta_hat == Fraction(2, 9)
        assert obs.alpha_hat == Fraction(4, 9)
        assert obs.beta_hat == 0

    def test_singleton_order_one(self):
        space = cc.build_space(["a"], [["0"]])
        obs = cc.observed_parameters(space, cc.ScaleParams(r=1, k=1))
        assert obs.delta_hat == 0
        assert obs.alpha_hat == 1
        assert obs.beta_hat == 0

    @pytest.mark.parametrize("ratio", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_block_witness_beta_identity(self, k, ratio):
        # The counts half of the abstract's claim A: with gap = m,
        # (gap/n)^(k+1) * (k+1)! * (m0/m) is exactly beta, as T_{k+1} = m0*m^k.
        for m in range(1, 16):
            m0 = ratio * m
            space = cc.tight_instance(cc.TightInstanceSpec(k=k, m=m, m0=m0, r=Fraction(1)))
            obs = cc.observed_parameters(space, cc.ScaleParams(r=Fraction(1), k=k))
            n = m0 + k * m
            assert obs.beta_hat == Fraction(m, n) ** (k + 1) * factorial(k + 1) * Fraction(m0, m)

    def test_zero_counts_take_no_factorial(self, monkeypatch, s3):
        # At k = 10**6 both anticlique orders pass n = 3, so T_k = T_{k+1} = 0,
        # and so is e_{k+1}(W): no (k+1)! or n^(k+1) is built for them.
        def factorial_refused(x):
            raise AssertionError(f"factorial({x}) was computed")

        monkeypatch.setattr(cc.stats, "factorial", factorial_refused)
        monkeypatch.setattr(cc.verify, "factorial", factorial_refused)
        params = cc.ScaleParams(r=1, k=10**6)
        obs = cc.observed_parameters(s3, params)
        assert obs == cc.ObservedParams(Fraction(2, 9), Fraction(0), Fraction(0), 1, 0, 0)
        result = cc.verify.check_proposition(s3, params, "P4")
        assert (result.applicable, result.passed, result.lhs, result.rhs) == (True, True, 0, 0)

    def test_empty_space_all_zero(self):
        obs = cc.observed_parameters(cc.build_space([], []), cc.ScaleParams(r=1, k=2))
        assert obs == cc.ObservedParams(Fraction(0), Fraction(0), Fraction(0), 0, 0, 0)

    @given(
        space=st.one_of(oracles.semimetric_spaces(), oracles.line_metric_spaces(), oracles.block_spaces()),
        r=st.sampled_from(oracles.PALETTE[1:]),
    )
    @example(space=cc.build_space([], []), r=Fraction(1))
    def test_counts_match_anticlique_count_at_the_order_boundary(self, space, r):
        # k runs through n - 1, n and n + 1, where T_{k+1} or both orders
        # pass n. Subset enumeration reaches n <= 8; the larger block spaces
        # take the whole-space backtrack.
        reference = oracles.anticliques if space.n <= 8 else oracles.anticlique_backtrack
        for k in range(1, space.n + 3):
            obs = cc.observed_parameters(space, cc.ScaleParams(r=r, k=k))
            for s, count in ((k, obs.anticliques_k), (k + 1, obs.anticliques_k_plus_1)):
                assert count == cc.anticlique_count(space, r, s) == reference(space, r, s)

    @given(
        space=oracles.semimetric_spaces(min_n=1),
        r=st.sampled_from(oracles.PALETTE[1:]),
        k=st.integers(1, 3),
    )
    def test_densities_are_tight_by_construction(self, space, r, k):
        obs = cc.observed_parameters(space, cc.ScaleParams(r=r, k=k))
        n = space.n
        assert obs.delta_hat * n * n == 2 * obs.medium_edges
        assert obs.beta_hat * n ** (k + 1) == factorial(k + 1) * obs.anticliques_k_plus_1
        assert obs.alpha_hat * n**k == factorial(k) * obs.anticliques_k
