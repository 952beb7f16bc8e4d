import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import clustercert as cc
from clustercert import clustering
from clustercert.clustering import SearchLimitError

import oracles
from test_golden import INPUTS as GOLDEN_INPUTS, SPACES as GOLDEN_SPACES, TOO_LARGE


def _assert_matches_reference(space, params):
    """Same witness, measure and optimality as the reference search, in at
    most its nodes: the stronger bound only drops subtrees it also visits."""
    result = cc.exact_structure(space, params)
    reference = oracles.exact_structure(space, params)
    assert (result.structure, result.optimal) == (reference.structure, reference.optimal)
    assert result.optimal
    assert result.nodes_explored <= reference.nodes_explored


class TestMaxCluster:
    def test_three_point_tie_break(self, s3):
        # {p0,p2} also has size 2; the lexicographically smaller set wins.
        assert cc.max_cluster(s3, range(3), 2) == {0, 1}

    def test_singleton(self):
        space = cc.build_space(["a"], [["0"]])
        assert cc.max_cluster(space, [0], 5) == {0}

    def test_empty_subset(self, s3):
        assert cc.max_cluster(s3, [], 2) == frozenset()

    def test_tight_instance_picks_first_block(self, tight9):
        assert cc.max_cluster(tight9, range(9), 2) == {0, 1, 2}

    def test_negative_diameter_keeps_the_lowest_point(self, s3):
        # Rows of within(d) have no diagonal bit at d < 0. No pair fits, and a
        # single point has no pair, so every subset yields its lowest point.
        for subset in ([0, 1, 2], [1, 2], [2]):
            assert cc.max_cluster(s3, subset, -1) == {min(subset)} == oracles.max_cluster(s3, subset, -1)

    @given(
        space=oracles.semimetric_spaces(min_n=1, max_n=7),
        d=st.sampled_from(oracles.PALETTE),
        data=st.data(),
    )
    def test_matches_brute_force_with_ties(self, space, d, data):
        subset = data.draw(st.sets(st.integers(0, space.n - 1)))
        assert cc.max_cluster(space, subset, d) == oracles.max_cluster(space, subset, d)


def _diameters(space):
    """Below 0, each distance, each midpoint of neighbouring distances and above the largest."""
    values = space.values
    return [Fraction(-1), *values, *((a + b) / 2 for a, b in zip(values, values[1:])), values[-1] + 1]


# The analyze-large benchmark rungs (points, k, noise), planted at r = 1.
ANALYZE_RUNGS = [
    (100, 2, "1/100"), (120, 3, "1/20"), (140, 3, "1/100"), (100, 3, "1/10"),
    (160, 3, "1/100"), (120, 2, "1/100"), (140, 3, "1/20"), (120, 3, "1/10"),
]


class TestMaxClusterEquivalence:
    """``max_cluster`` returns the clique its verbatim predecessor returns."""

    @given(
        space=st.one_of(
            oracles.semimetric_spaces(min_n=1, max_n=12),
            oracles.line_metric_spaces(min_n=1, max_n=16, span=12),
            oracles.block_spaces(),
            oracles.multiplicity_spaces(),
        ),
        data=st.data(),
    )
    def test_same_clique(self, space, data):
        subset = data.draw(st.sets(st.integers(0, space.n - 1)))
        d = data.draw(st.sampled_from(_diameters(space)))
        assert cc.max_cluster(space, subset, d) == oracles.reference_max_cluster(space, subset, d)

    @pytest.mark.parametrize("n, k, noise", ANALYZE_RUNGS)
    def test_same_kernels_on_planted_spaces(self, monkeypatch, n, k, noise):
        # Every greedy step of the predecessor, on every residual set.
        sizes = [n // k + (i < n % k) for i in range(k)]
        space = cc.planted_instance(k, sizes, Fraction(noise), 1, n + k)
        params = cc.ScaleParams(r=Fraction(1), k=k)
        kernels = [p.x for p in cc.greedy_decomposition(space, params).parts]
        monkeypatch.setattr(cc.clustering, "max_cluster", oracles.reference_max_cluster)
        assert kernels == [p.x for p in cc.greedy_decomposition(space, params).parts]


class TestGreedyDecomposition:
    def test_three_point_parts(self, s3, s3_params):
        decomp = cc.greedy_decomposition(s3, s3_params)
        assert [(sorted(p.z), sorted(p.x)) for p in decomp.parts] == [([0, 1], [0, 1]), ([2], [2])]
        assert all(not p.y and not p.u for p in decomp.parts)
        assert decomp.w == (2, 1)
        assert decomp.i0 == (0, 1)

    def test_tight_instance_parts_are_blocks(self, tight9, tight9_params):
        decomp = cc.greedy_decomposition(tight9, tight9_params)
        assert len(decomp.parts) == 3
        assert all(p.z == p.x for p in decomp.parts)
        assert decomp.w == (3, 3, 3)
        assert decomp.i1 == ()

    def test_empty_space(self):
        decomp = cc.greedy_decomposition(cc.build_space([], []), cc.ScaleParams(r=1, k=2))
        assert decomp.parts == ()
        assert decomp.w == ()
        assert decomp.i0 == ()

    def test_deterministic(self, tight9, tight9_params):
        assert cc.greedy_decomposition(tight9, tight9_params) == cc.greedy_decomposition(
            tight9, tight9_params
        )

    @given(
        space=oracles.metric_spaces(min_n=1, max_n=8),
        k=st.integers(1, 3),
    )
    def test_partition_and_construction_invariants(self, space, k):
        params = cc.ScaleParams(r=Fraction(1), k=k)
        decomp = cc.greedy_decomposition(space, params)
        r = params.r
        seen: set[int] = set()
        residual = set(space.points())
        kernel_sizes = []
        for part in decomp.parts:
            assert part.x <= part.z
            assert part.z == part.x | part.y | part.u
            assert not (part.x & part.y) and not (part.x & part.u) and not (part.y & part.u)
            assert not (part.z & seen)
            # the kernel is a 2r-cluster and z is exactly its closed
            # r-neighborhood within the residual set at this step
            assert cc.subset_diameter(space, part.x) <= 2 * r
            for p in residual:
                in_z = min(space.rho(p, q) for q in part.x) <= r
                assert in_z == (p in part.z)
            kernel_sizes.append(len(part.x))
            seen |= part.z
            residual -= part.z
        assert seen == set(space.points())
        assert kernel_sizes == sorted(kernel_sizes, reverse=True)
        # kernels of distinct parts are separated
        for a, b in combinations(range(len(decomp.parts)), 2):
            assert cc.set_distance(space, decomp.parts[a].x, decomp.parts[b].x) >= r
        assert decomp.w == tuple(sorted((len(p.z) for p in decomp.parts), reverse=True))

    @given(
        space=oracles.metric_spaces(min_n=1, max_n=8),
        k=st.integers(1, 3),
    )
    def test_matching_and_edge_bounds_on_metrics(self, space, k):
        # Requires the triangle inequality: long edges avoid the kernel, the
        # kernel plus unmatched residue stays within diameter 3r, and the
        # medium/long counts obey the per-part inequalities.
        params = cc.ScaleParams(r=Fraction(1), k=k)
        r = params.r
        decomp = cc.greedy_decomposition(space, params)
        for part in decomp.parts:
            assert cc.subset_diameter(space, part.x | part.y) <= 3 * r
            covered = {p for edge in part.matching for p in edge}
            assert covered == set(part.u)
            for u, v in part.matching:
                assert space.rho(u, v) > 3 * r
            # inclusion-wise maximality: no long edge between uncovered points
            outside = sorted(part.z - part.x - part.u)
            for a, b in combinations(outside, 2):
                assert space.rho(a, b) <= 3 * r
            x, y, u = len(part.x), len(part.y), len(part.u)
            assert part.medium_edges >= Fraction((x + y) * y, 2) + Fraction(u * x, 2)
            assert part.long_edges <= u * y + Fraction(u * u, 2)
        assert decomp.far_pair_count == sum(p.medium_edges + p.long_edges for p in decomp.parts)

    @given(space=oracles.metric_spaces(min_n=1, max_n=8), k=st.integers(1, 3))
    def test_index_sets(self, space, k):
        params = cc.ScaleParams(r=Fraction(1), k=k)
        decomp = cc.greedy_decomposition(space, params)
        sizes = [len(p.z) for p in decomp.parts]
        expected_i0 = sorted(sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))[:k])
        assert list(decomp.i0) == expected_i0
        for i, part in enumerate(decomp.parts):
            assert ((k + 1) * len(part.x) <= sizes[i]) == (i in decomp.i1)
            total_medium = cc.medium_edge_count(space, params.r)
            assert (sizes[i] ** 2 >= 2 * total_medium) == (i in decomp.i2)

    def test_thin_kernel_at_equality(self):
        # Line points 0, 2, -1/2, 5/2 at r = 1: kernel {0, 1}, part {0, 1, 2, 3},
        # so (k+1)|X| = |Z| = 4 at k = 1, and part 0 is in I1.
        space = oracles.line_space([0, 2, Fraction(-1, 2), Fraction(5, 2)])
        decomp = cc.greedy_decomposition(space, cc.ScaleParams(r=Fraction(1), k=1))
        assert [(len(p.x), len(p.z)) for p in decomp.parts] == [(2, 4)]
        assert decomp.i1 == (0,)

    def test_large_part_at_equality(self):
        # Line points 0, 1/2, 3 at r = 1: parts {0, 1} and {2}, and the two
        # medium pairs give |Z_0|^2 = 4 = 2M, so part 0 is in I2.
        space = oracles.line_space([0, Fraction(1, 2), 3])
        decomp = cc.greedy_decomposition(space, cc.ScaleParams(r=Fraction(1), k=2))
        assert [len(p.z) for p in decomp.parts] == [2, 1]
        assert cc.medium_edge_count(space, 1) == 2
        assert decomp.i2 == (0,)

    @given(
        space=oracles.semimetric_spaces(),
        r=st.sampled_from(oracles.PALETTE[1:]),
        k=st.integers(1, 3),
    )
    def test_first_kernel_is_a_maximum_cluster_of_the_space(self, space, r, k):
        # Verify's P2 reads B from greedy step 0 instead of searching again.
        parts = cc.greedy_decomposition(space, cc.ScaleParams(r=r, k=k)).parts
        first = parts[0].x if parts else frozenset()
        assert first == cc.max_cluster(space, space.points(), 2 * r)


class TestGreedyStructure:
    def test_three_point_structure(self, s3, s3_params):
        decomp = cc.greedy_decomposition(s3, s3_params)
        structure = cc.greedy_structure(decomp, 2)
        assert [sorted(c) for c in structure.clusters] == [[0, 1], [2]]
        assert structure.measure == 3

    def test_tight_structure_measure(self, tight9, tight9_params):
        decomp = cc.greedy_decomposition(tight9, tight9_params)
        structure = cc.greedy_structure(decomp, 2)
        assert structure.measure == 6

    def test_padding_to_order(self, s3, s3_params):
        decomp = cc.greedy_decomposition(s3, s3_params)
        structure = cc.greedy_structure(decomp, 5)
        assert structure.order == 5
        assert structure.measure == 3
        assert [len(c) for c in structure.clusters] == [2, 1, 0, 0, 0]

    @given(
        space=oracles.metric_spaces(min_n=1, max_n=8),
        k=st.integers(1, 3),
        order=st.integers(1, 4),
    )
    def test_largest_selection_at_any_order(self, space, k, order):
        # The order may differ from the k the decomposition was built for.
        decomp = cc.greedy_decomposition(space, cc.ScaleParams(r=Fraction(1), k=k))
        sizes = [len(p.z) for p in decomp.parts]
        chosen = sorted(sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))[:order])
        padding = (frozenset(),) * (order - len(chosen))
        structure = cc.greedy_structure(decomp, order)
        assert structure.clusters == tuple(decomp.parts[i].x for i in chosen) + padding
        if order == k:
            assert tuple(chosen) == decomp.i0

    @given(space=oracles.metric_spaces(min_n=1, max_n=8), k=st.integers(1, 3))
    def test_structures_always_validate(self, space, k):
        params = cc.ScaleParams(r=Fraction(1), k=k)
        decomp = cc.greedy_decomposition(space, params)
        structure = cc.greedy_structure(decomp, k)
        assert cc.validate_structure(space, structure, params).ok


class TestExactStructure:
    def test_three_point_optimum(self, s3, s3_params):
        result = cc.exact_structure(s3, s3_params)
        assert result.measure == 3
        assert result.optimal
        assert [sorted(c) for c in result.structure.clusters] == [[0, 1], [2]]

    def test_tight_instance_drops_one_block(self, tight9, tight9_params):
        result = cc.exact_structure(tight9, tight9_params)
        assert result.measure == 6
        assert tight9.n - result.measure == 3

    def test_singleton(self):
        space = cc.build_space(["a"], [["0"]])
        result = cc.exact_structure(space, cc.ScaleParams(r=1, k=1))
        assert result.measure == 1

    def test_point_limit_enforced(self, tight9, tight9_params):
        with pytest.raises(SearchLimitError):
            cc.exact_structure(tight9, tight9_params, max_points=5)

    def test_node_budget_flags_nonoptimal(self, tight9, tight9_params):
        result = cc.exact_structure(tight9, tight9_params, node_budget=3)
        assert not result.optimal
        assert result.measure <= 6

    def test_node_budget_boundary(self, tight9, tight9_params):
        full = cc.exact_structure(tight9, tight9_params)
        nodes = full.nodes_explored
        assert cc.exact_structure(tight9, tight9_params, node_budget=nodes) == full
        short = cc.exact_structure(tight9, tight9_params, node_budget=nodes - 1)
        assert not short.optimal
        assert short.nodes_explored == nodes

    @pytest.mark.parametrize("k, m", [(2, 20), (3, 15)])
    def test_block_witness_within_a_small_budget(self, k, m):
        # n = 60, beyond any search pruned by measure + unassigned points alone.
        space = cc.tight_instance(cc.TightInstanceSpec(k=k, m=m, m0=m, r=Fraction(1)))
        params = cc.ScaleParams(r=Fraction(1), k=k)
        result = cc.exact_structure(space, params, max_points=space.n, node_budget=10_000)
        assert result.optimal
        assert space.n - result.measure == m

    def test_colours_only_the_open_rooms_and_the_shared_one(self, monkeypatch):
        # Each node colours the room of every open cluster and, while some
        # cluster is unopened, the one room they all share: at most n + 1.
        calls = 0
        colour = clustering._color_count

        def counted(cand, adj):
            nonlocal calls
            calls += 1
            return colour(cand, adj)

        monkeypatch.setattr(clustering, "_color_count", counted)
        space = cc.load_space((GOLDEN_INPUTS / "metric_n10.space").read_text())
        result = cc.exact_structure(space, cc.ScaleParams(r=Fraction(1, 2), k=50))
        assert result.optimal and result.measure == 10
        assert calls <= (space.n + 1) * result.nodes_explored

    @given(
        space=st.one_of(oracles.semimetric_spaces(min_n=1, max_n=8), oracles.metric_spaces(min_n=1, max_n=8)),
        r=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]),
        extra=st.integers(0, 40),
    )
    def test_orders_above_n_pad_the_optimum_at_n(self, space, r, extra):
        # No structure has more than n non-empty clusters, so above k = n the
        # search finds the same clusters and pads them with empty ones. Its
        # bound reads k, so the node count may differ.
        at_n = cc.exact_structure(space, cc.ScaleParams(r=r, k=space.n))
        above = cc.exact_structure(space, cc.ScaleParams(r=r, k=space.n + extra))
        assert above.optimal and above.measure == at_n.measure
        assert above.structure.clusters == at_n.structure.clusters + (frozenset(),) * extra

    @settings(max_examples=1000)
    @given(
        space=st.one_of(oracles.semimetric_spaces(max_n=10), oracles.metric_spaces(max_n=10)),
        r=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]),
        k=st.integers(1, 3),
    )
    def test_matches_reference_search(self, space, r, k):
        _assert_matches_reference(space, cc.ScaleParams(r=r, k=k))

    @pytest.mark.parametrize("stem, r, k", [case for case in GOLDEN_SPACES if case[0] not in TOO_LARGE])
    def test_matches_reference_search_on_golden_spaces(self, stem, r, k):
        space = cc.load_space((GOLDEN_INPUTS / f"{stem}.space").read_text())
        _assert_matches_reference(space, cc.ScaleParams(r=Fraction(r), k=k))

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        k = rng.randint(1, 3)
        if seed % 2:
            space = oracles.random_semimetric(rng, n)
        else:
            space = cc.random_metric_instance(n, Fraction(1), rng.randrange(2**32))
        params = cc.ScaleParams(r=Fraction(1), k=k)
        result = cc.exact_structure(space, params)
        assert result.optimal
        assert result.measure == oracles.structure_measure(space, k, params.r)
        assert cc.validate_structure(space, result.structure, params).ok

    @given(
        space=oracles.line_metric_spaces(max_n=12),
        r=st.sampled_from([Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)]),
        k=st.integers(1, 3),
    )
    def test_matches_the_line_oracle(self, space, r, k):
        # Integer points and a half-integer r: no pair is at exactly r.
        positions = oracles.line_positions(space)
        result = cc.exact_structure(space, cc.ScaleParams(r=r, k=k))
        assert result.measure == oracles.line_opt(positions, r, k)
        with pytest.raises(ValueError, match="exactly r"):
            oracles.line_opt([*positions, 0, r], r, k)

    @given(space=oracles.metric_spaces(min_n=1, max_n=8), k=st.integers(1, 3))
    def test_dominates_greedy(self, space, k):
        params = cc.ScaleParams(r=Fraction(1), k=k)
        greedy = cc.greedy_structure(cc.greedy_decomposition(space, params), k)
        exact = cc.exact_structure(space, params)
        assert greedy.measure <= exact.measure <= space.n


class TestValidateStructure:
    def test_valid_greedy_structure(self, s3, s3_params):
        structure = cc.greedy_structure(cc.greedy_decomposition(s3, s3_params), 2)
        assert cc.validate_structure(s3, structure, s3_params).ok

    def test_separation_violation_reported(self, s3, s3_params):
        structure = cc.ClusterStructure(clusters=(frozenset({0}), frozenset({1})))
        report = cc.validate_structure(s3, structure, s3_params)
        assert not report.ok
        (violation,) = report.violations
        assert violation.kind == "separation"
        assert violation.points == (0, 1)
        assert violation.distance == Fraction(1, 2)

    def test_diameter_violation_reported(self, s3, s3_params):
        structure = cc.ClusterStructure(clusters=(frozenset({1, 2}),))
        report = cc.validate_structure(s3, structure, s3_params)
        assert [v.kind for v in report.violations] == ["diameter"]
        assert report.violations[0].distance == 4

    def test_overlap_reported(self, s3, s3_params):
        structure = cc.ClusterStructure(clusters=(frozenset({0, 1}), frozenset({1})))
        report = cc.validate_structure(s3, structure, s3_params)
        assert [v.kind for v in report.violations] == ["overlap"]

    def test_empty_padding_adds_no_violations(self, s3, s3_params):
        # One diameter, one separation and two overlap violations, then
        # 20,000 empty clusters that must add nothing (and cost little).
        clusters = (frozenset({1, 2}), frozenset({0}), frozenset({0, 1}))
        report = cc.validate_structure(s3, cc.ClusterStructure(clusters), s3_params)
        assert [v.kind for v in report.violations] == [
            "diameter",
            "separation",
            "overlap",
            "overlap",
        ]
        padded = cc.ClusterStructure(clusters + (frozenset(),) * 20_000)
        assert cc.validate_structure(s3, padded, s3_params) == report

    def test_all_empty_structure_is_valid(self, s3, s3_params):
        structure = cc.ClusterStructure(clusters=(frozenset(), frozenset(), frozenset()))
        assert cc.validate_structure(s3, structure, s3_params).ok
