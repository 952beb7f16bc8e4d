import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

import clustercert as cc
from clustercert import verify
from clustercert.generators import load_weighted_space, dump_weighted_space
from clustercert.space import SpaceFormatError

import oracles


class TestTightInstance:
    def test_reference_witness(self, tight9, tight9_params):
        assert tight9.n == 9
        assert cc.medium_edge_count(tight9, 1) == 0
        assert cc.anticlique_count(tight9, 1, 3) == 27
        result = cc.exact_structure(tight9, tight9_params)
        assert result.measure == 6
        assert tight9.n - result.measure == 3  # one block of size m

    def test_two_point_witness(self):
        space = cc.tight_instance(cc.TightInstanceSpec(k=1, m=1, m0=1, r=Fraction(1)))
        assert space.n == 2
        assert space.rho(0, 1) == 4
        assert cc.anticlique_count(space, 1, 2) == 1

    def test_block_fraction_constraint_enforced(self):
        with pytest.raises(ValueError):
            cc.TightInstanceSpec(k=2, m=3, m0=2, r=Fraction(1))

    @pytest.mark.parametrize(
        "k, m, m0", [(True, 1, 2), (1, True, 2), (1, 1, True), (1.0, 1, 2), (1, 2.0, 2), (1, 1, 2.5)]
    )
    def test_counts_must_be_true_integers(self, k, m, m0):
        with pytest.raises(ValueError):
            cc.TightInstanceSpec(k=k, m=m, m0=m0, r=Fraction(1))

    def test_witness_is_a_metric(self, tight9):
        assert oracles.is_metric(tight9)

    @pytest.mark.parametrize("k,m,m0", [(1, 1, 2), (2, 2, 3), (3, 1, 1)])
    def test_family_identities(self, k, m, m0):
        r = Fraction(1)
        space = cc.tight_instance(cc.TightInstanceSpec(k=k, m=m, m0=m0, r=r))
        n = m0 + k * m
        assert space.n == n
        assert cc.medium_edge_count(space, r) == 0
        assert cc.anticlique_count(space, r, k + 1) == m0 * m**k
        lam = Fraction(m, n)
        assert m0 * m**k == n ** (k + 1) * (1 - k * lam) * lam**k
        result = cc.exact_structure(space, cc.ScaleParams(r=r, k=k), max_points=20)
        assert n - result.measure == m


class TestPlantedInstance:
    def test_zero_noise_classes(self):
        space = cc.planted_instance(3, (4, 4, 4), 0, Fraction(1), seed=7)
        assert space.n == 12
        blocks = [label.split("_")[0] for label in space.labels]
        for i, j in combinations(range(12), 2):
            if blocks[i] == blocks[j]:
                assert space.dist[i][j] <= 1
            else:
                assert space.dist[i][j] > 3
        assert cc.medium_edge_count(space, 1) == 0

    def test_noise_pairs_become_medium(self):
        space = cc.planted_instance(2, (5, 5), Fraction(1, 10), Fraction(1), seed=1)
        # floor(0.1 * C(10,2)) = 4 pairs re-drawn into the medium band
        assert cc.medium_edge_count(space, 1) == 4

    def test_deterministic_per_seed(self):
        a = cc.planted_instance(2, (3, 4), Fraction(1, 5), Fraction(1, 2), seed=11)
        b = cc.planted_instance(2, (3, 4), Fraction(1, 5), Fraction(1, 2), seed=11)
        c = cc.planted_instance(2, (3, 4), Fraction(1, 5), Fraction(1, 2), seed=12)
        assert a == b
        assert a != c

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            cc.planted_instance(2, (3,), 0, 1, seed=0)  # k != len(sizes)
        with pytest.raises(ValueError):
            cc.planted_instance(1, (3,), 1, 1, seed=0)  # noise not < 1
        with pytest.raises(ValueError):
            cc.planted_instance(1, (0,), 0, 1, seed=0)

    @pytest.mark.parametrize("k, sizes", [(2, [2.9, 3]), (2, [True, 3]), (True, [3]), (2.0, [2, 3])])
    def test_counts_must_be_true_integers(self, k, sizes):
        with pytest.raises(ValueError):
            cc.planted_instance(k, sizes, 0, 1, 1)

    @pytest.mark.parametrize("seed", [1.5, True, "x", None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            cc.planted_instance(2, [3, 3], 0, 1, seed)


class TestRandomMetricInstance:
    def test_boolean_point_count_rejected(self):
        with pytest.raises(ValueError):
            cc.random_metric_instance(True, 1, 0)

    @pytest.mark.parametrize("seed", [1.5, True, "x", None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            cc.random_metric_instance(4, 1, seed)

    def test_negative_and_large_seeds_stay_valid(self):
        assert cc.random_metric_instance(4, 1, -3).n == 4
        assert cc.random_metric_instance(4, 1, 1945654213).n == 4

    @pytest.mark.parametrize("seed", range(8))
    def test_closure_yields_metric(self, seed):
        space = cc.random_metric_instance(7, Fraction(1), seed)
        assert oracles.is_metric(space)

    def test_deterministic(self):
        assert cc.random_metric_instance(6, 1, 3) == cc.random_metric_instance(6, 1, 3)

    def test_degenerate_sizes(self):
        assert cc.random_metric_instance(0, 1, 0).n == 0
        assert cc.random_metric_instance(1, 1, 0).n == 1

    @pytest.mark.parametrize("r", verify._R_PALETTE)
    def test_integer_closure_matches_fraction_closure(self, r):
        for n in range(21):
            for seed in (0, 1, 7, 2**31 + 5):
                space = cc.random_metric_instance(n, r, seed)
                assert space == oracles.fraction_metric_instance(n, r, seed), (n, seed)


R_VALUES = [*verify._R_PALETTE, Fraction(7, 3)]  # the verify scales and a non-dyadic one
NOISES = [Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(99, 100)]


def assert_same_space(new, old):
    """Equal fields, equal hashes and the same file bytes."""
    assert (new.labels, new.values, new.ranks) == (old.labels, old.values, old.ranks)
    assert all(type(q) is Fraction for q in new.values)
    assert hash(new) == hash(old)
    assert cc.dump_space(new) == cc.dump_space(old)


class TestGeneratorEquivalence:
    """The generators and ``uniformize`` build, from int grids, the space that
    their verbatim predecessors built by parsing tables of Fractions."""

    @given(k=st.integers(1, 4), m=st.integers(1, 4), extra=st.integers(0, 3), r=st.sampled_from(R_VALUES))
    @example(k=1, m=1, extra=0, r=Fraction(7, 3))  # m0 = m = 1: all blocks singletons, no distance equals r
    @example(k=4, m=1, extra=0, r=Fraction(1))
    def test_tight_instance(self, k, m, extra, r):
        spec = cc.TightInstanceSpec(k=k, m=m, m0=m + extra, r=r)
        assert_same_space(cc.tight_instance(spec), oracles.reference_tight_instance(spec))

    @given(
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        noise=st.sampled_from(NOISES),
        r=st.sampled_from(R_VALUES),
        seed=st.integers(-(2**40), 2**40),
    )
    @example(sizes=[1, 1, 1], noise=Fraction(0), r=Fraction(1), seed=0)  # all singletons: no short distance
    @example(sizes=[1], noise=Fraction(99, 100), r=Fraction(7, 3), seed=3)  # one point: no pair at all
    @example(sizes=[3, 3], noise=Fraction(99, 100), r=Fraction(3, 4), seed=5)
    def test_planted_instance(self, sizes, noise, r, seed):
        args = (len(sizes), sizes, noise, r, seed)
        assert_same_space(cc.planted_instance(*args), oracles.reference_planted_instance(*args))

    def test_planted_instance_at_n_160(self):
        args = (3, [53, 53, 54], Fraction(1, 10), Fraction(1), 7)
        assert_same_space(cc.planted_instance(*args), oracles.reference_planted_instance(*args))

    def test_planted_instance_hang_case(self):
        # 4,485 re-drawn pairs, many across block boundaries.
        args = (3, [100, 100, 100], Fraction(1, 10), 1, 0)
        assert_same_space(cc.planted_instance(*args), oracles.reference_planted_instance(*args))

    @given(n=st.integers(0, 16), r=st.sampled_from(R_VALUES), seed=st.integers(-(2**40), 2**40))
    @example(n=0, r=Fraction(1), seed=0)
    @example(n=1, r=Fraction(7, 3), seed=0)
    def test_random_metric_instance(self, n, r, seed):
        assert_same_space(cc.random_metric_instance(n, r, seed), oracles.reference_random_metric_instance(n, r, seed))

    @given(data=st.data())
    def test_uniformize(self, data):
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        r = data.draw(st.sampled_from(R_VALUES))
        base = cc.planted_instance(len(sizes), sizes, data.draw(st.sampled_from(NOISES)), r, data.draw(st.integers(0, 2**32)))
        weight = st.one_of(st.integers(1, 9), st.builds(Fraction, st.integers(1, 90), st.integers(1, 12)))
        w = cc.WeightedFiniteSpace(base, tuple(data.draw(st.lists(weight, min_size=base.n, max_size=base.n))))
        eps = data.draw(st.fractions(min_value=Fraction(1, 40), max_value=Fraction(39, 40), max_denominator=40))
        if data.draw(st.booleans()):
            partition = tuple((p,) for p in base.points())
        else:
            partition = cc.epsilon_partition(w, data.draw(st.sampled_from([Fraction(1, 10), r, 2 * r, 7 * r])))
        self.assert_same_uniformized(w, partition, eps)

    @pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 3)])
    def test_uniformize_over_an_empty_base(self, eps):
        self.assert_same_uniformized(cc.WeightedFiniteSpace(cc.build_space([], []), ()), (), eps)

    @staticmethod
    def assert_same_uniformized(w, partition, eps):
        try:  # a small cap keeps the reference's n^2 parsed cells cheap
            old = oracles.reference_uniformize(w, partition, eps, max_total_multiplicity=300)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                cc.uniformize(w, partition, eps, max_total_multiplicity=300)
            assert str(caught.value) == str(exc)
        else:
            assert_same_space(cc.uniformize(w, partition, eps, max_total_multiplicity=300), old)


class TestDraws:
    """The generators draw from ``getrandbits`` and sample pair indices, with the
    stream, the picks and the final state of ``randint`` and of sampling the pairs."""

    @given(hi=st.sampled_from([1, 2, 3, 10, 1000, 1023, 1024, 1025]), seed=st.integers(-(2**40), 2**40),
           count=st.integers(0, 300))
    @example(hi=1, seed=0, count=0)
    @example(hi=1000, seed=7, count=0)
    @example(hi=1025, seed=3, count=2000)
    def test_randints_match_randint(self, hi, seed, count):
        rng, twin = random.Random(seed), random.Random(seed)
        assert list(cc.generators._randints(rng, hi, count)) == [twin.randint(1, hi) for _ in range(count)]
        assert rng.getstate() == twin.getstate()

    @given(n=st.integers(0, 120), count=st.integers(0, 8000), seed=st.integers(0, 2**32))
    @example(n=6, count=5, seed=1)  # 15 pairs: sample copies the population into a pool
    @example(n=100, count=10, seed=2)  # 4,950 pairs: sample keeps a set of picked indices
    def test_index_sample_picks_the_pairs(self, n, count, seed):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        count = min(count, len(pairs))
        rng, twin = random.Random(seed), random.Random(seed)
        assert [pairs[at] for at in rng.sample(range(len(pairs)), count)] == twin.sample(pairs, count)
        assert rng.getstate() == twin.getstate()


class TestSpaceFromPoints:
    def test_taxicab_distances(self):
        space = cc.space_from_points([("0", "0"), ("1", "2"), ("0.5", "0")], metric="l1")
        assert space.rho(0, 1) == 3
        assert space.rho(0, 2) == Fraction(1, 2)
        assert oracles.is_metric(space)

    def test_chebyshev_distances(self):
        space = cc.space_from_points([(0, 0), (1, 2)], metric="linf")
        assert space.rho(0, 1) == 2

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cc.space_from_points([(0, 0), (1,)])


def _weighted(points, weights):
    return cc.WeightedFiniteSpace(base=cc.space_from_points(points), weights=tuple(weights))


class TestEpsilonPartition:
    def test_close_pair_grouped(self):
        base = cc.build_space(
            ["p0", "p1", "p2"],
            [["0", "0.005", "1"], ["0.005", "0", "1"], ["1", "1", "0"]],
        )
        w = cc.WeightedFiniteSpace(base=base, weights=(Fraction(1),) * 3)
        assert cc.epsilon_partition(w, Fraction(1, 100)) == ((0, 1), (2,))

    def test_singleton(self):
        w = _weighted([(0,)], [1])
        assert cc.epsilon_partition(w, 1) == ((0,),)

    def test_wide_eps_gives_one_part(self):
        w = _weighted([(0,), (1,), (2,)], [1, 1, 1])
        diameter = cc.subset_diameter(w.base, w.base.points())
        assert cc.epsilon_partition(w, 2 * diameter) == ((0, 1, 2),)

    def test_zero_eps_rejected(self):
        with pytest.raises(ValueError, match="eps must be positive"):
            cc.epsilon_partition(_weighted([(0,), (1,)], [1, 1]), 0)

    @given(data=st.data())
    def test_parts_have_small_diameter_on_metrics(self, data):
        n = data.draw(st.integers(1, 8))
        coords = data.draw(
            st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=n, max_size=n)
        )
        eps = Fraction(data.draw(st.integers(1, 30)), 2)
        w = _weighted(coords, [1] * n)
        parts = cc.epsilon_partition(w, eps)
        flat = sorted(p for part in parts for p in part)
        assert flat == list(range(n))
        for part in parts:
            assert cc.subset_diameter(w.base, part) <= eps


class TestUniformize:
    def test_truncation_example(self):
        w = _weighted([(0,), (10,), (20,)], ["0.5", "0.3", "0.2"])
        space = cc.uniformize(w, ((0,), (1,), (2,)), Fraction(1, 100))
        assert _block_sizes(space) == [5, 3, 2]
        assert space.rho(0, 1) == 0  # same multiplicity block
        assert space.rho(0, 5) == 10  # distance between source parts

    def test_equal_weights_collapse_to_units(self):
        w = _weighted([(0,), (10,), (20,)], [1, 1, 1])
        space = cc.uniformize(w, ((0,), (1,), (2,)), Fraction(1, 100))
        assert _block_sizes(space) == [1, 1, 1]

    def test_thirds_truncate_to_equal_units(self):
        w = _weighted([(0,), (10,), (20,)], [Fraction(1, 3)] * 3)
        space = cc.uniformize(w, ((0,), (1,), (2,)), Fraction(1, 100))
        assert _block_sizes(space) == [1, 1, 1]

    def test_distances_are_zero_inside_and_set_distance_across(self):
        base = cc.build_space(
            ["x0", "x1", "y0"],
            [["0", "0.1", "5"], ["0.1", "0", "4"], ["5", "4", "0"]],
        )
        w = cc.WeightedFiniteSpace(base=base, weights=(1, 1, 2))
        space = cc.uniformize(w, ((0, 1), (2,)), Fraction(1, 10))
        assert _block_sizes(space) == [1, 1]
        assert space.rho(0, 1) == 4  # min distance between the two parts

    def test_multiplicity_cap_is_inclusive(self):
        w = _weighted([(0,), (10,)], [1, 1])
        assert cc.uniformize(w, ((0,), (1,)), Fraction(1, 10), max_total_multiplicity=2).n == 2
        with pytest.raises(ValueError, match="needs 2 points, above the cap of 1"):
            cc.uniformize(w, ((0,), (1,)), Fraction(1, 10), max_total_multiplicity=1)

    def test_truncation_stops_where_q_equals_the_floor(self):
        # At one decimal 0.55 truncates to 0.5 = (1 - 1/11) * 0.55 exactly, which
        # is accepted; a strict floor would go on to 0.55 and 1.00, giving [11, 20].
        w = _weighted([(0,), (10,)], [Fraction(55, 100), 1])
        space = cc.uniformize(w, ((0,), (1,)), Fraction(1, 11))
        assert _block_sizes(space) == [1, 2]

    def test_multiplicity_cap(self):
        w = _weighted([(0,), (10,)], [Fraction(1, 3), 1])
        with pytest.raises(ValueError, match="cap"):
            cc.uniformize(w, ((0,), (1,)), Fraction(1, 1000), max_total_multiplicity=100)

    @pytest.mark.parametrize("eps", [0, 1])
    def test_eps_outside_open_unit_interval_rejected(self, eps):
        w = _weighted([(0,), (10,)], [1, 1])
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
            cc.uniformize(w, ((0,), (1,)), eps)

    def test_partition_must_cover(self):
        w = _weighted([(0,), (10,)], [1, 1])
        with pytest.raises(ValueError):
            cc.uniformize(w, ((0,),), Fraction(1, 10))

    @pytest.mark.parametrize("seed", range(12))
    def test_sandwich_inequality(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        coords = [(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(n)]
        weights = [Fraction(rng.randint(1, 20), 10) for _ in range(n)]
        eps = Fraction(rng.choice((4, 10, 20)), 100)
        w = _weighted(coords, weights)
        partition = cc.epsilon_partition(w, Fraction(rng.randint(1, 40), 2))
        space = cc.uniformize(w, partition, eps)
        sizes = _block_sizes(space)
        total = sum(sizes)
        mu_total = w.total_weight
        for part, size in zip(partition, sizes):
            mu_part = sum((w.weights[p] for p in part), Fraction(0))
            assert (1 - eps) * mu_part * total / mu_total <= size
            assert size <= mu_part * total / ((1 - eps) * mu_total)


class TestAnticliqueTransfer:
    @pytest.mark.parametrize("seed", range(10))
    def test_uniformized_anticliques_dominate_source_measure(self, seed):
        # Far-apart source tuples survive discretization: if the part pivots
        # are pairwise beyond r + 2*eps then the parts are pairwise beyond r
        # (parts have diameter <= eps), so every one-point-per-block choice is
        # an anticlique of the uniformized space. Both sides brute-forced and
        # compared exactly.
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        k = rng.randint(1, 3)
        r = Fraction(rng.randint(1, 6), 2)
        eps = Fraction(rng.choice((4, 10, 20)), 100)
        coords = [(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(n)]
        weights = [Fraction(rng.randint(1, 20), 10) for _ in range(n)]
        w = _weighted(coords, weights)
        partition = cc.epsilon_partition(w, eps)
        uniform = cc.uniformize(w, partition, eps)
        total = uniform.n

        lhs = cc.anticlique_count(uniform, r, k)
        pivots = [part[0] for part in partition]
        measures = [sum((w.weights[p] for p in part), Fraction(0)) for part in partition]
        source = Fraction(0)
        for subset in combinations(range(len(partition)), k):
            if all(
                w.base.rho(pivots[a], pivots[b]) > r + 2 * eps
                for a, b in combinations(subset, 2)
            ):
                product = Fraction(1)
                for i in subset:
                    product *= measures[i]
                source += product
        rhs = (1 - eps) ** k * Fraction(total, 1) ** k / w.total_weight**k * source
        assert lhs >= rhs


def _block_sizes(space):
    counts: dict[str, int] = {}
    for label in space.labels:
        block = label.split("_")[0]
        counts[block] = counts.get(block, 0) + 1
    return [counts[key] for key in sorted(counts, key=lambda b: int(b[1:]))]


class TestWeightedSerialization:
    def test_text_round_trip(self):
        w = _weighted([(0,), (3,)], [Fraction(1, 3), Fraction(2)])
        text = dump_weighted_space(w)
        again = load_weighted_space(text)
        assert again == w

    def test_missing_weights_default_to_one(self, s3):
        w = load_weighted_space(cc.dump_space(s3))
        assert w.weights == (Fraction(1),) * 3

    def test_obj_round_trip(self):
        w = _weighted([(0,), (3,)], ["0.25", "4"])
        obj = cc.weighted_space_to_obj(w)
        assert obj["weights"] == ["0.25", "4"]
        assert cc.weighted_space_from_obj(obj) == w

    def test_nonpositive_weight_rejected(self, s3):
        with pytest.raises(ValueError):
            cc.WeightedFiniteSpace(base=s3, weights=(Fraction(1), Fraction(0), Fraction(1)))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("1 1", "weights line: expected 3 weights, got 2"),
            ("1 1 1 1", "weights line: expected 3 weights, got 4"),
            ("1 x 1", "weights line: not a rational number: 'x'"),
            ("1 0 1", "weights line: weight 1 must be positive, got 0"),
            ("1 1 -1/2", "weights line: weight 2 must be positive, got -1/2"),
            ("1 1e4301 1", "weights line: exponent of '1e4301' exceeds 4300 in magnitude"),
            ("1 1\nextra", "unexpected trailing content: 'extra'"),
        ],
    )
    def test_weights_line_faults(self, s3, line, message):
        with pytest.raises(SpaceFormatError) as info:
            load_weighted_space(cc.dump_space(s3) + line + "\n")
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "weights, message",
        [
            (["1", "1"], "expected 3 weights, got 2"),
            ([1, 0, 1], "weight 1 must be positive, got 0"),
            ([1, "x", 1], "not a rational number: 'x'"),
            ([1, True, 1], "cannot interpret bool as an exact rational"),
            ([1, {}, 1], "cannot interpret dict as an exact rational"),
            ("111", "weights must be a list, got str"),
            ({}, "weights must be a list, got dict"),
        ],
    )
    def test_json_weights_faults(self, s3, weights, message):
        with pytest.raises(SpaceFormatError) as info:
            cc.weighted_space_from_obj({**cc.space_to_obj(s3), "weights": weights})
        assert str(info.value) == message

    @pytest.mark.parametrize("extra", [{}, {"weights": None}], ids=["absent", "null"])
    def test_json_weights_absent_or_null_are_ones(self, s3, extra):
        w = cc.weighted_space_from_obj({**cc.space_to_obj(s3), **extra})
        assert w.weights == (Fraction(1),) * 3
