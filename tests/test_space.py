import gc
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
import weakref
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import clustercert as cc
from clustercert.generators import load_weighted_space
from clustercert.space import SpaceFormatError, _grid_space

import oracles
from conftest import S3_LABELS, S3_MATRIX

SRC = Path(__file__).resolve().parents[1] / "src"


class TestBuildSpace:
    def test_three_point_construction(self, s3):
        assert s3.n == 3
        assert s3.labels == ("p0", "p1", "p2")
        assert s3.rho(0, 1) == Fraction(1, 2)
        assert s3.rho(2, 0) == 2

    def test_singleton(self):
        space = cc.build_space(["only"], [["0"]])
        assert space.n == 1
        assert space.rho(0, 0) == 0

    def test_empty_space(self):
        assert cc.build_space([], []).n == 0

    def test_asymmetric_rejected(self):
        with pytest.raises(SpaceFormatError, match=r"asymmetric at \(0,1\)"):
            cc.build_space(["a", "b"], [["0", "1"], ["2", "0"]])

    def test_negative_entry_rejected(self):
        with pytest.raises(SpaceFormatError, match=r"negative entry at \(0,1\)"):
            cc.build_space(["a", "b"], [["0", "-1"], ["-1", "0"]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(SpaceFormatError, match=r"nonzero diagonal at \(1,1\)"):
            cc.build_space(["a", "b"], [["0", "1"], ["1", "0.25"]])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(SpaceFormatError, match="row 1"):
            cc.build_space(["a", "b"], [["0", "1"], ["1"]])

    def test_bad_token_names_cell(self):
        with pytest.raises(SpaceFormatError, match=r"bad distance at \(0,1\)"):
            cc.build_space(["a", "b"], [["0", "x"], ["x", "0"]])

    def test_duplicate_label_rejected(self):
        with pytest.raises(SpaceFormatError, match="duplicate"):
            cc.build_space(["a", "a"], [["0", "1"], ["1", "0"]])

    def test_whitespace_label_rejected(self):
        with pytest.raises(SpaceFormatError, match="whitespace"):
            cc.build_space(["a b"], [["0"]])

    def test_floats_convert_bit_exactly(self):
        space = cc.build_space(["a", "b"], [[0, 0.5], [0.5, 0]])
        assert space.rho(0, 1) == Fraction(1, 2)


class TestScaleParams:
    def test_exact_rational_scale(self):
        params = cc.ScaleParams(r="0.25", k=3)
        assert params.r == Fraction(1, 4)

    @pytest.mark.parametrize(
        "r,k", [(0, 1), (-1, 1), (1, 0), (1, -2), (1, True), (1, 2.0), (1, 2.7)]
    )
    def test_invalid_params_rejected(self, r, k):
        with pytest.raises(ValueError):
            cc.ScaleParams(r=r, k=k)


class TestWithin:
    @given(
        space=oracles.semimetric_spaces(),
        d=st.sampled_from(oracles.PALETTE),
        strict=st.booleans(),
    )
    def test_rows_match_the_distance_table(self, space, d, strict):
        rows = space.within(d, strict=strict)
        for p in range(space.n):
            for q in range(space.n):
                rho = space.rho(p, q)
                assert bool(rows[p] >> q & 1) == (rho < d if strict else rho <= d)
            assert rows[p] >> space.n == 0

    def test_memoized_per_threshold(self, s3):
        assert s3.within("1/2") == s3.within(Fraction(1, 2))
        assert s3.within(Fraction(1, 2), strict=True) == (0b001, 0b010, 0b100)
        assert s3.within(Fraction(1, 2)) == (0b011, 0b011, 0b100)

    def test_memo_does_not_keep_the_space_alive(self):
        # Scale views and a certificate's record live in the space's memo and go with
        # it. The search is refused: a space whose exact search ran stays in that search's memo.
        space = cc.build_space(["a", "b"], [["0", "1"], ["1", "0"]])
        space._scale(1)
        hash(space)
        assert cc.build_certificate(space, cc.ScaleParams(r=1, k=1), exact_limit=0).to_obj()["exact"]["note"]
        ref = weakref.ref(space)
        del space
        gc.collect()
        assert ref() is None


def _thresholds(space):
    """Each distance, each midpoint of neighbours, below 0, 0 and above the maximum."""
    values = sorted({x for row in space.dist for x in row})
    between = [(a + b) / 2 for a, b in zip(values, values[1:])]
    return values + between + [Fraction(-1, 2), Fraction(0), max(values, default=0) + 1]


class TestRankLayer:
    @given(space=oracles.semimetric_spaces())
    def test_within_matches_the_fraction_reference(self, space):
        parsed = cc.load_space(cc.dump_space(space))
        # Fresh Fractions per cell: equal values in distinct objects.
        unshared = cc.build_space(
            space.labels, [[Fraction(str(x)) for x in row] for row in space.dist]
        )
        assert hash(parsed) == hash(space) == hash(unshared)
        for d in _thresholds(space):
            for strict in (False, True):
                expected = oracles.within(space, d, strict)
                for twin in (space, parsed, unshared):
                    assert twin.within(d, strict=strict) == expected

    @given(space=oracles.semimetric_spaces(), r=st.sampled_from([Fraction(-1, 2), Fraction(1, 3), *oracles.PALETTE]))
    def test_rows_shared_by_points_match_the_fraction_reference(self, space, r):
        # Each point doubled at distance 0; both copies hold one row object, read once.
        row_of = [tuple(x for x in row for _ in (0, 1)) for row in space.ranks]
        ranks = tuple(row for row in row_of for _ in (0, 1))
        doubled = cc.FiniteSemimetricSpace(tuple(map(str, range(len(ranks)))), space.values, ranks)
        view = doubled._scale(r)
        assert (view.close, view.near) == (oracles.within(doubled, r, strict=True), oracles.within(doubled, r))
        assert (view.share, view.reach) == (oracles.within(doubled, 2 * r), oracles.within(doubled, 3 * r))
        for d in _thresholds(space):
            for strict in (False, True):
                assert doubled.within(d, strict=strict) == oracles.within(doubled, d, strict)

    @given(space=oracles.semimetric_spaces(), r=st.sampled_from([Fraction(-1, 2), Fraction(1, 3), *oracles.PALETTE]))
    def test_scale_view_matches_the_fraction_reference(self, space, r):
        view = space._scale(r)
        assert view.close == oracles.within(space, r, strict=True)
        assert view.near == oracles.within(space, r)
        assert view.share == oracles.within(space, 2 * r)
        assert view.reach == oracles.within(space, 3 * r)
        assert space._scale(str(r)) is view

    @given(space=oracles.semimetric_spaces(), d=st.sampled_from(oracles.PALETTE))
    def test_pickle_keeps_hash_and_within(self, space, d):
        expected = space.within(d)
        clone = pickle.loads(pickle.dumps(space))
        assert clone == space and hash(clone) == hash(space)
        assert clone.within(d) == expected

    def test_equal_tokens_share_one_rank(self):
        space = cc.load_space("3\na b c\n0 0.5 1/2\n1/2 0 0.50\n0.5 0.50 0\n")
        assert space.dist[0][1] is space.dist[2][0]  # one Fraction per distinct token
        assert space.values == (0, Fraction(1, 2))
        assert {space.ranks[p][q] for p in range(3) for q in range(3) if p != q} == {1}
        assert space.within("1/2", strict=True) == (0b001, 0b010, 0b100)
        assert space.within("0.5") == (0b111, 0b111, 0b111)
        built = cc.build_space(space.labels, [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]])
        assert hash(space) == hash(built) and space == built

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "3\na b c\n0 x 1\nx 0 x\n1 x 0\n",
                "bad distance at (0,1): not a rational number: 'x'",
            ),
            ("3\na b c\n0 1 2\n1 0 -1/2\n2 -0.5 -1/2\n", "negative entry at (1,2): -0.5"),
            (
                "3\na b c\n0 1 2\n1 0 2\n2 2 1e\n",
                "bad distance at (2,2): not a rational number: '1e'",
            ),
        ],
        ids=["bad-token-repeated", "negative-token-repeated", "bad-token-last"],
    )
    def test_first_bad_cell_is_named(self, text, message):
        with pytest.raises(SpaceFormatError) as info:
            cc.load_space(text)
        assert str(info.value) == f"distance table: {message}"

    def test_first_bad_json_string_cell_is_named(self):
        dist = [["0", "-2", "1"], ["-2", "0", "-2"], ["1", "-2", "0"]]
        obj = {"labels": ["a", "b", "c"], "dist": dist}
        with pytest.raises(SpaceFormatError, match=r"^negative entry at \(0,1\): -2$"):
            cc.space_from_obj(obj)


class TestGridSpace:
    """``_grid_space`` builds generated spaces without the parser, but keeps
    the parser's checks as real raises, not asserts."""

    def test_ranks_follow_the_sorted_ints(self):
        space = _grid_space("abc", [[0, 8, 2], [8, 0, 5], [2, 5, 0]], Fraction(1, 4).__mul__)
        assert space == cc.build_space("abc", [[0, 2, "1/2"], [2, 0, "5/4"], ["1/2", "5/4", 0]])
        assert space.values == (0, Fraction(1, 2), Fraction(5, 4), 2)

    def test_a_repeated_row_object_shares_one_rank_tuple(self):
        row = [0, 0, 3]
        space = _grid_space("abc", [row, row, [3, 3, 0]], Fraction)
        assert space.ranks[0] is space.ranks[1]
        assert space.ranks == ((0, 0, 1), (0, 0, 1), (1, 1, 0))

    @pytest.mark.parametrize("n", [0, 1])
    def test_degenerate_sizes(self, n):
        assert _grid_space([f"p{i}" for i in range(n)], [[0] * n for _ in range(n)], Fraction).n == n

    @pytest.mark.parametrize(
        "labels, grid, message",
        [
            ("ab", [[0, 1], [2, 0]], r"asymmetric at \(0,1\)"),
            ("ab", [[0, 1], [1, 3]], r"nonzero diagonal at \(1,1\): 3"),
            ("ab", [[0, -1], [-1, 0]], r"negative entry at \(0,1\): -1"),
            ("ab", [[0, 1], [1]], "grid must be 2 by 2"),
            ("ab", [[0, 1, 2], [1, 0, 2]], "grid must be 2 by 2"),
            ("ab", [[0, 1]], "grid must be 2 by 2"),
            (["a", "a"], [[0, 1], [1, 0]], "duplicate label"),
            (["a b"], [[0]], "whitespace"),
        ],
    )
    def test_bad_grids_raise(self, labels, grid, message):
        with pytest.raises(SpaceFormatError, match=message):
            _grid_space(labels, grid, Fraction)

    def test_checks_survive_optimized_python(self):
        code = (
            "from fractions import Fraction\nfrom clustercert.space import _grid_space\n"
            "try:\n    _grid_space('ab', [[0, 1], [2, 0]], Fraction)\nexcept ValueError as exc:\n    print(exc)"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout == "asymmetric at (0,1)\n"


class TestHash:
    def test_equal_spaces_hash_equal(self, s3):
        twin = cc.build_space(S3_LABELS, S3_MATRIX)
        assert hash(s3) == hash(twin) and s3 == twin

    def test_pickle_carries_no_stale_hash(self):
        # Label hashes differ between processes. Pickle under one hash seed,
        # with the hash taken and a scale view memoized; load under another
        # and compare with a fresh build there.
        build = f"cc.build_space({S3_LABELS!r}, {S3_MATRIX!r})"
        dump = (
            "import pickle, sys, clustercert as cc\n"
            f"s = {build}\n"
            "s._scale(1), s.dist\n"
            "print(hash(s), file=sys.stderr)\n"
            "sys.stdout.buffer.write(pickle.dumps(s))\n"
        )
        load = (
            "import json, pickle, sys, clustercert as cc\n"
            "s = pickle.loads(sys.stdin.buffer.read())\n"
            f"fresh = {build}\n"
            "rows = [(t._scale(1).near, t._scale(1).close, t.within(2, strict=True)) for t in (s, fresh)]\n"
            "print(json.dumps([s == fresh, hash(s), hash(fresh), rows]))\n"
        )

        def run(script, seed, blob=b""):
            env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
            return subprocess.run(
                [sys.executable, "-c", script], input=blob, env=env, capture_output=True, check=True
            )

        dumped = run(dump, "1")
        equal, loaded_hash, fresh_hash, (loaded_rows, fresh_rows) = json.loads(
            run(load, "2", dumped.stdout).stdout
        )
        assert equal and loaded_hash == fresh_hash and loaded_rows == fresh_rows
        assert loaded_hash != int(dumped.stderr)  # the label hashes did change


class TestPrinters:
    @given(space=st.one_of(oracles.semimetric_spaces(), oracles.block_spaces()))
    def test_match_the_per_cell_reference(self, space):
        assert cc.dump_space(space) == oracles.dump_space(space)
        assert cc.space_to_obj(space) == oracles.space_to_obj(space)

    @given(space=oracles.semimetric_spaces(), data=st.data())
    def test_any_spelling_prints_the_shortest_form(self, space, data):
        def spellings(q):
            text = cc.format_rational(q)
            return [text, f"{q.numerator}/{q.denominator}", float(q)] + (
                [text + "0"] if "." in text else []
            )

        dist = [[data.draw(st.sampled_from(spellings(q))) for q in row] for row in space.dist]
        obj = json.loads(json.dumps({"labels": list(space.labels), "dist": dist}))
        respelled = cc.space_from_obj(obj)
        assert respelled == space
        assert cc.dump_space(respelled) == oracles.dump_space(respelled) == cc.dump_space(space)
        assert cc.space_to_obj(respelled) == oracles.space_to_obj(respelled)

    @pytest.mark.parametrize(
        "labels, dist",
        [
            ([], []),
            (["a"], [["0"]]),
            (["a"], [[0.0]]),
            (["a", "b", "c"], [["0", "0.5", 0.5], ["1/2", 0, "0.50"], [0.5, "0.50", "0"]]),
        ],
        ids=["n0", "n1", "n1-float", "one-value-four-spellings"],
    )
    def test_small_and_respelled_tables(self, labels, dist):
        space = cc.space_from_obj(json.loads(json.dumps({"labels": labels, "dist": dist})))
        assert cc.dump_space(space) == oracles.dump_space(space)
        assert cc.space_to_obj(space) == oracles.space_to_obj(space)

    def test_each_distinct_value_is_formatted_once(self, monkeypatch):
        base = cc.build_space(
            ["x", "y", "z"], [["0", "0.5", "1/3"], ["0.5", "0", "2"], ["1/3", "2", "0"]]
        )
        w = cc.WeightedFiniteSpace(base=base, weights=("0.5", "0.3", "0.2"))
        space = cc.uniformize(w, ((0,), (1,), (2,)), Fraction(1, 100))
        assert space.n == 10 and len(space.values) == 4
        calls = []
        counted = cc.space.format_rational
        monkeypatch.setattr(cc.space, "format_rational", lambda q: calls.append(q) or counted(q))
        for printer in (cc.dump_space, cc.space_to_obj):
            calls.clear()
            printer(space)
            assert len(calls) == len(space.values)


class TestSubsetDiameter:
    def test_examples(self, s3):
        assert cc.subset_diameter(s3, [0]) == 0
        assert cc.subset_diameter(s3, [0, 1, 2]) == 4
        assert cc.subset_diameter(s3, []) == 0

    @pytest.mark.parametrize("points, bad", [([-1], -1), ([3], 3), ([-1, 0], -1), ([0, 1, 3], 3), ([-2, 1, 3], -2)])
    def test_point_outside_the_space_rejected(self, s3, points, bad):
        with pytest.raises(ValueError, match=f"^point {bad} is outside the space of 3 points$"):
            cc.subset_diameter(s3, points)

    @given(space=oracles.semimetric_spaces(min_n=1), data=st.data())
    def test_monotone_under_inclusion(self, space, data):
        subset = data.draw(st.sets(st.integers(0, space.n - 1)))
        superset = subset | data.draw(st.sets(st.integers(0, space.n - 1)))
        assert cc.subset_diameter(space, subset) <= cc.subset_diameter(space, superset)


class TestSetDistance:
    def test_examples(self, s3):
        assert cc.set_distance(s3, [0, 1], [2]) == 2
        assert cc.set_distance(s3, [0], [0, 1]) == 0

    def test_empty_operand_rejected(self, s3):
        with pytest.raises(ValueError, match="empty"):
            cc.set_distance(s3, [], [0])

    @pytest.mark.parametrize(
        "a, b, bad",
        [([-3], [1], -3), ([3], [1], 3), ([0], [-1], -1), ([0], [3], 3), ([0, -1], [1, 2], -1), ([0], [1, 2, 3], 3)],
    )
    def test_point_outside_the_space_rejected(self, s3, a, b, bad):
        with pytest.raises(ValueError, match=f"^point {bad} is outside the space of 3 points$"):
            cc.set_distance(s3, a, b)

    @given(space=oracles.semimetric_spaces(min_n=1), data=st.data())
    def test_symmetric_and_dominated_by_pairs(self, space, data):
        a = data.draw(st.sets(st.integers(0, space.n - 1), min_size=1))
        b = data.draw(st.sets(st.integers(0, space.n - 1), min_size=1))
        d = cc.set_distance(space, a, b)
        assert d == cc.set_distance(space, b, a)
        assert all(d <= space.rho(u, v) for u in a for v in b)


class TestFileFormat:
    def test_text_round_trip(self, s3):
        text = cc.dump_space(s3)
        again = cc.load_space(text)
        assert again == s3
        assert cc.dump_space(again) == text

    def test_decimal_strings_parse_exactly(self):
        space = cc.load_space("2\na b\n0 0.50\n0.50 0\n")
        assert space.rho(0, 1) == Fraction(1, 2)

    def test_non_decimal_rationals_round_trip(self):
        space = cc.build_space(["a", "b"], [["0", "1/3"], ["1/3", "0"]])
        again = cc.load_space(cc.dump_space(space))
        assert again.rho(0, 1) == Fraction(1, 3)

    def test_obj_round_trip(self, s3):
        obj = cc.space_to_obj(s3)
        assert obj["n"] == 3
        assert obj["dist"][0][1] == "0.5"
        assert cc.space_from_obj(obj) == s3

    def test_bad_count_line(self):
        with pytest.raises(SpaceFormatError, match="line 1"):
            cc.load_space("many\na b\n0 1\n1 0\n")

    def test_wrong_label_count(self):
        with pytest.raises(SpaceFormatError, match="line 2"):
            cc.load_space("2\na\n0 1\n1 0\n")

    def test_short_row_names_line(self):
        with pytest.raises(SpaceFormatError, match="line 3"):
            cc.load_space("2\na b\n0\n1 0\n")

    def test_missing_rows_counted(self):
        with pytest.raises(SpaceFormatError) as info:
            cc.load_space("2\na b\n")
        assert str(info.value) == "expected 2 distance rows, file ends after 0"

    def test_trailing_content_rejected(self):
        with pytest.raises(SpaceFormatError, match="trailing"):
            cc.load_space("1\na\n0\nextra\n")

    @pytest.mark.parametrize("obj", [{"labels": ["a"]}, {"dist": [["0"]]}, []], ids=["no-dist", "no-labels", "list"])
    def test_obj_missing_field(self, obj):
        with pytest.raises(SpaceFormatError, match="space object is missing field"):
            cc.space_from_obj(obj)

    def test_obj_declared_n_mismatch(self, s3):
        obj = cc.space_to_obj(s3)
        obj["n"] = 5
        with pytest.raises(SpaceFormatError, match="declared n=5"):
            cc.space_from_obj(obj)

    @given(space=oracles.semimetric_spaces())
    def test_round_trip_any_space(self, space):
        assert cc.load_space(cc.dump_space(space)) == space

    @pytest.mark.parametrize("load", [
        lambda space: cc.load_space(cc.dump_space(space)),
        lambda space: cc.space_from_obj(json.loads(json.dumps(cc.space_to_obj(space)))),
    ], ids=["text", "json"])
    def test_loaded_multiplicity_blocks_share_rows(self, load):
        base = cc.planted_instance(2, [3, 2], Fraction(1, 10), 1, seed=4)
        w = cc.WeightedFiniteSpace(base, (3, 1, 2, 4, 2))
        space = cc.uniformize(w, tuple((p,) for p in base.points()), Fraction(1, 10))
        loaded = load(space)
        assert len({id(row) for row in space.ranks}) == len(set(space.ranks)) == base.n < space.n
        assert len({id(row) for row in loaded.ranks}) == base.n  # one row object per block
        assert (loaded.labels, loaded.values, loaded.ranks) == (space.labels, space.values, space.ranks)
        assert hash(loaded) == hash(space)
        for d in (*space.values, Fraction(1, 3), Fraction(7, 2)):
            for strict in (False, True):
                assert loaded.within(d, strict=strict) == space.within(d, strict=strict)



# ---------------------------------------------------------------------------
# The parsers against their verbatim predecessors in ``oracles``.
# ---------------------------------------------------------------------------

ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
TABLE_VALUES = [Fraction(x) for x in ("0", "1/2", "1", "3/2", "7/10", "1/3", "5/4", "12", "100", "1234567.0625")]
BAD_TOKENS = ["x", "1e", "1/0", "--1", "0x10", "nan", "inf", "½", "1..2", "1/2/3", "٣x"]
BAD_CELLS = [True, False, None, float("nan"), float("inf"), [], "x", " 1/0 "]


def spellings(q: Fraction) -> list[str]:
    """Texts that ``as_fraction`` reads as q >= 0, none with whitespace."""
    text = cc.format_rational(q)
    out = [text, f"{q.numerator}/{q.denominator}", f"{3 * q.numerator}/{3 * q.denominator}", "+" + text]
    out.append(text.translate(ARABIC_INDIC))
    if "/" in text:
        return out
    whole, _, frac = text.partition(".")
    out += ["0" + text, f"{whole}.{frac}0", f"{int(whole + frac)}e-{len(frac)}"]
    if whole == "0" and frac:
        out.append("." + frac)
    if not frac:
        out += [text + ".", "-" + text if q == 0 else text + "e0"]
        if len(text) > 1:
            out.append(text[0] + "_" + text[1:])
    return out


def text_cells(q: Fraction):
    return st.sampled_from(spellings(q))


@st.composite
def object_cells(draw, q: Fraction):
    """q as a JSON int, float or string, a Fraction, a Decimal or a padded string."""
    kinds = [Fraction(q), q, draw(text_cells(q)), f" {draw(text_cells(q))}\t"]
    if q.denominator == 1:
        kinds.append(int(q))
    if q.denominator & (q.denominator - 1) == 0:  # a power of two: an exact float
        kinds.append(float(q))
    if "/" not in cc.format_rational(q):
        kinds.append(Decimal(cc.format_rational(q)))
    return draw(st.sampled_from(kinds))


@st.composite
def corrupted_tables(draw, text: bool):
    """(labels, cells): a symmetric table of spelled values, then up to two
    faults: a bad or negative cell, a nonzero diagonal, an asymmetric pair,
    a ragged row, a missing or extra row, or a repeated label."""
    n = draw(st.integers(0, 5))
    cell = text_cells if text else object_cells
    values = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            values[i][j] = values[j][i] = draw(st.sampled_from(TABLE_VALUES[1:]))
    table = [[draw(cell(q)) for q in row] for row in values]
    labels = [f"p{i}" for i in range(n)]
    faults = ["bad", "negative", "diagonal", "asymmetric", "label", "ragged", "rows"]  # applied in this order
    for fault in sorted(draw(st.lists(st.sampled_from(faults), max_size=2)) if n else (), key=faults.index):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        positive = draw(st.sampled_from(TABLE_VALUES[1:]))
        if fault == "bad":
            table[i][j] = draw(st.sampled_from(BAD_TOKENS if text else BAD_TOKENS + BAD_CELLS))
        elif fault == "negative":
            table[i][j] = "-" + draw(text_cells(positive)) if text else -positive
            if draw(st.booleans()):
                table[j][i] = table[i][j]
        elif fault == "diagonal":
            table[i][i] = draw(cell(positive))
        elif fault == "asymmetric" and i != j:
            table[i][j] = draw(cell(values[i][j] + positive))
        elif fault == "ragged":
            # Never an empty text row: a blank line is skipped, and only the old parser misnumbers after it.
            shorter = draw(st.booleans()) and (len(table[i]) > 1 or not text)
            table[i] = table[i][:-1] if shorter else table[i] + [draw(cell(positive))]
        elif fault == "rows":
            table = table + [list(table[0])] if table and draw(st.booleans()) else table[:-1]
        elif fault == "label" and i != j:
            labels[i] = labels[j]
    return labels, table


def outcome(parse, *args):
    """The parsed space's fields, or the message of its SpaceFormatError."""
    try:
        space = parse(*args)
    except SpaceFormatError as exc:
        return str(exc)
    assert all(type(q) is Fraction for q in space.values)
    return space.labels, space.values, space.ranks


def outcome_of(parse, token):
    """The Fraction ``parse`` reads from the token, as an integer ratio, or its ValueError's message."""
    try:
        q = parse(token)
    except ValueError as exc:
        return str(exc)
    assert type(q) is Fraction
    return q.as_integer_ratio()


class TestParserEquivalence:
    """``load_space`` and ``build_space`` return the space their verbatim
    predecessors return, or fail with the identical message."""

    @given(table=corrupted_tables(text=True), gaps=st.lists(st.sampled_from([" ", "  ", "\t"]), min_size=1),
           trailing=st.sampled_from(["", "extra\n", "0 1\n"]))
    @example(table=(["p0", "p0"], [["0", "1"], ["1"]]), gaps=[" "], trailing="")  # a short row before the label
    def test_text_tables(self, table, gaps, trailing):
        labels, cells = table
        rows = [" ".join(labels)] + [gaps[i % len(gaps)].join(row) for i, row in enumerate(cells)]
        text = f"{len(labels)}\n" + "\n".join(rows) + "\n" + trailing
        assert outcome(cc.load_space, text) == outcome(oracles.reference_load_space, text)

    @given(table=corrupted_tables(text=False))
    @example(table=(["p0", "p1"], [["0", "x"], ["x"]]))  # a bad cell before a ragged row
    @example(table=(["p0", "p1"], [[0, -1], [-1, 0, 0]]))  # a negative cell before a ragged row
    def test_object_tables(self, table):
        labels, cells = table
        assert outcome(cc.build_space, labels, cells) == outcome(oracles.reference_build_space, labels, cells)

    @pytest.mark.parametrize("token", ["0.50", "1/2", "5e-1", "+0.5", ".5", "5.", "1_0", "٣", "٠.٥", "007", "-0"])
    def test_each_spelling(self, token):
        for text in (f"2\na b\n0 {token}\n{token} 0\n", f"2\na b\n0 {token}\n0.5 0\n"):
            assert outcome(cc.load_space, text) == outcome(oracles.reference_load_space, text)
        cells = [[0, f" {token} "], [Fraction(1, 2), 0]]
        assert outcome(cc.build_space, ["a", "b"], cells) == outcome(oracles.reference_build_space, ["a", "b"], cells)

    def test_true_never_merges_with_one(self):
        for cells in ([[0, 1], [True, 0]], [[0, True], [1, 0]], [[0, 1.0], [1, 0]]):
            assert outcome(cc.build_space, "ab", cells) == outcome(oracles.reference_build_space, "ab", cells)
        assert cc.build_space("ab", [[0, 1.0], [1, 0]]).values == (0, 1)

    def test_generated_rows_keep_their_cells(self):
        # Cells keyed by id() stay alive, so a fresh Fraction never takes the id of a freed one.
        labels = [f"p{i}" for i in range(6)]
        rows = [map(Fraction, [abs(i - j) for j in range(6)], [7] * 6) for i in range(6)]
        space = cc.build_space(labels, rows)
        assert space.dist == tuple(tuple(Fraction(abs(i - j), 7) for j in range(6)) for i in range(6))


class TestPlainDecimal:
    """Plain decimals and every other spelling are read by ``as_fraction`` alone,
    to the value their text denotes."""

    @given(token=st.from_regex(r"[0-9]{1,40}(\.[0-9]{1,40})?", fullmatch=True))
    def test_equals_the_fraction_parser(self, token):
        q = cc.as_fraction(token)
        assert type(q) is Fraction and q.as_integer_ratio() == Fraction(token).as_integer_ratio()

    @given(token=st.text(st.sampled_from("0123456789.٣３²+-_eE/ "), max_size=12))
    @example(token="1/2e9999")
    def test_any_token_reads_as_as_fraction_reads_it(self, token):
        assert outcome_of(cc.as_fraction, token) == outcome_of(oracles.reference_as_fraction, token)

    @pytest.mark.parametrize("token", ["0", "000", "0.0", "1.50", "9" * 300, "1." + "0" * 299 + "1", "9" * 300 + "." + "9" * 300])
    def test_accepted_extremes(self, token):
        q = cc.as_fraction(token)
        assert type(q) is Fraction and q == Fraction(token)

    OTHER_SPELLINGS = [
        ("٣", Fraction(3)), ("١.٥", Fraction(3, 2)), ("３", Fraction(3)), ("1.٥", Fraction(3, 2)), ("²", None),
        ("1_0", Fraction(10)), ("+1", Fraction(1)), ("1.", Fraction(1)), (".5", Fraction(1, 2)),
        ("5e-1", Fraction(1, 2)), ("1/2", Fraction(1, 2)), (" 1", Fraction(1)), ("1 ", Fraction(1)),
        ("9" * 301, Fraction(10**301 - 1)), ("1." + "0" * 301, Fraction(1)),
    ]

    @pytest.mark.parametrize("token, expected", OTHER_SPELLINGS, ids=[token for token, _ in OTHER_SPELLINGS])
    def test_other_spellings_go_to_as_fraction(self, token, expected):
        if expected is None:
            with pytest.raises(ValueError, match="^not a rational number: "):
                cc.as_fraction(token)
        else:
            assert cc.as_fraction(token) == expected

    def test_long_plain_tokens_keep_the_message(self):
        text = "1\na\n" + "1" * 5000 + "\n"  # beyond Python's default int-from-text limit
        assert outcome(cc.load_space, text) == outcome(oracles.reference_load_space, text)


class TestGrammar:
    """Each token that CPython 3.10 to 3.13 read differently with ``fractions.Fraction``
    has one outcome, whichever of them runs."""

    CASES = [
        ("1_0", Fraction(10)), ("5e+0_1", Fraction(50)), ("1e1_0", Fraction(10**10)), ("1_0/3", Fraction(10, 3)),
        ("1/3_0", Fraction(1, 30)), ("1.0_0", Fraction(1)), ("1 / 3", Fraction(1, 3)), ("1/ 3", Fraction(1, 3)),
        ("1 /3", Fraction(1, 3)),
        *[(token, None) for token in ["1__0", "_1", "1_", "1.5/2", "1/-3", "1/0", "1/2e99999", "1" * 5000]],
    ]

    @pytest.mark.parametrize("token, expected", CASES, ids=[t if len(t) < 20 else f"1*{len(t)}" for t, _ in CASES])
    def test_one_outcome_on_every_python(self, token, expected):
        if expected is None:
            with pytest.raises(ValueError) as info:
                cc.as_fraction(token)
            shown = repr(token) if len(token) <= 40 else f"{token[:40]!r}... ({len(token)} characters)"
            assert str(info.value) == f"not a rational number: {shown}"
        else:
            q = cc.as_fraction(token)
            assert type(q) is Fraction and q == expected
        for text in (token, f" {token}\t"):
            assert outcome_of(cc.as_fraction, text) == outcome_of(oracles.reference_as_fraction, text)


class TestDigitCap:
    """Each digit group of a token (whole, fraction, denominator) holds at most 4300
    digits, "_" not counted, whatever the process's own int-from-text limit."""

    ACCEPTED = ["1" * 4300, "1_" * 4299 + "1", "1/" + "7" * 4300, "0." + "3" * 4300, "٣" * 4300]
    REFUSED = ["1" * 4301, "1_" * 4300 + "1", "1/" + "7" * 4301, "0." + "3" * 4301, "٣" * 4301 + "e1"]

    @pytest.mark.parametrize("token", ACCEPTED, ids=range(len(ACCEPTED)))
    def test_accepted(self, token):
        q = cc.as_fraction(token)
        assert q == oracles.reference_as_fraction(token)

    @pytest.mark.parametrize("token", REFUSED, ids=range(len(REFUSED)))
    def test_refused(self, token):
        with pytest.raises(ValueError, match="^not a rational number: "):
            cc.as_fraction(token)

    def test_one_outcome_without_a_process_limit(self):
        script = (
            "import clustercert as cc\n"
            "try:\n"
            "    cc.load_space('1\\na\\n' + '0' * 5000 + '\\n')\n"
            "except cc.SpaceFormatError as exc:\n"
            "    print(exc)\n"
            "print(cc.as_fraction('1' * 4300) == 10**4300 // 9)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONINTMAXSTRDIGITS": "0"}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        with pytest.raises(SpaceFormatError) as info:
            cc.load_space("1\na\n" + "0" * 5000 + "\n")
        assert run.stdout.splitlines() == [str(info.value), "True"]

    @pytest.mark.parametrize("token", ["1" * 5000, "x" * 5000, "1e" + "9" * 4998, "1/" + "0" * 4998], ids=range(4))
    def test_messages_quote_a_bounded_prefix(self, token):
        with pytest.raises(ValueError) as info:
            cc.as_fraction(token)
        message = str(info.value)
        assert len(message) < 120 and token[:40] in message and "(5000 characters)" in message
        with pytest.raises(SpaceFormatError) as info:
            cc.load_space(f"2\na b\n0 {token}\n{token} 0\n")
        assert len(str(info.value)) < 160


class TestExponent:
    """An exponent beyond 4300 in magnitude is refused before 10**exponent is
    computed."""

    @pytest.mark.parametrize(
        "value, expected",
        [
            ("1e300", Fraction(10**300)),
            ("2.5e-3", Fraction(1, 400)),
            ("1E4300", Fraction(10**4300)),
            ("-1e-4300", Fraction(-1, 10**4300)),
            (" 5e+0_1 ", Fraction(50)),
            ("1e" + "0" * 4299 + "1", Fraction(10)),
            ("1e٣", Fraction(1000)),
            (Decimal("2.5e-3"), Fraction(1, 400)),
            (Decimal("1E+4300"), Fraction(10**4300)),
        ],
    )
    def test_accepted(self, value, expected):
        assert cc.as_fraction(value) == expected

    @pytest.mark.parametrize(
        "value",
        ["1e4301", "1e-4301", "1E+99999", " 1e-99999 ", "-.5E+99999", "1e٩٩٩٩٩", "1e1_0000",
         "1e" + "0" * 4300 + "1", "1e" + "9" * 5000, Decimal("1e4301"), Decimal("1e-99999")],
    )
    def test_refused(self, value):
        # Exponents cheap enough that a missing check fails here rather than hangs;
        # tests/test_cli.py runs the slow ones in processes with a timeout.
        with pytest.raises(ValueError, match="exceeds 4300 in magnitude"):
            cc.as_fraction(value)

    def test_table_cell_and_weight(self):
        with pytest.raises(SpaceFormatError, match=r"bad distance at \(0,1\): exponent"):
            cc.build_space("ab", [["0", "1e5000"], ["1e5000", "0"]])
        with pytest.raises(SpaceFormatError, match="weights line: exponent"):
            load_weighted_space("1\na\n0\n1e-5000\n")


class TestBlankLines:
    """Errors name the file's own line, blank lines included."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2\n\na b\n0 1\n1\n", "line 5: expected 2 distances, got 1"),
            ("2\na b\n\n\n0 1\n1 0 3\n", "line 6: expected 2 distances, got 3"),
            ("\n\nmany\n", "line 3: point count is not an integer: 'many'"),
            ("\n-1\n", "line 2: negative point count -1"),
            ("\n2\n", "line 3: missing label line"),
            ("2\n\n  \na\n", "line 4: expected 2 labels, got 1"),
            ("\n\n", "line 1: missing point count"),
        ],
    )
    def test_the_file_line_is_named(self, text, message):
        for load in (cc.load_space, load_weighted_space):
            with pytest.raises(SpaceFormatError) as info:
                load(text)
            assert str(info.value) == message

    def test_blank_lines_between_rows_parse(self):
        assert cc.load_space("\n2\n\na b\n0 1\n\n1 0\n\n") == cc.load_space("2\na b\n0 1\n1 0\n")


def test_load_space_peak_memory_is_at_most_60_percent_of_the_reference():
    """The text is mapped to ranks row by row: all n^2 tokens are never held."""
    space = cc.planted_instance(3, [54, 53, 53], Fraction(1, 100), 1, seed=160)
    text = cc.dump_space(space)
    peaks = {}
    for name, load in (("reference", oracles.reference_load_space), ("load_space", cc.load_space)):
        gc.collect()
        tracemalloc.start()
        try:
            assert load(text) == space
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["load_space"] <= 0.6 * peaks["reference"], peaks

@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(7), "7"),
        (Fraction(1, 2), "0.5"),
        (Fraction(1, 250), "0.004"),
        (Fraction(1, 3), "1/3"),
        (Fraction(-3, 4), "-0.75"),
        (Fraction(0), "0"),
    ],
)
def test_format_rational(value, expected):
    assert cc.format_rational(value) == expected
    assert cc.as_fraction(expected) == value


@pytest.mark.parametrize("value", [True, False])
def test_as_fraction_rejects_booleans(value):
    with pytest.raises(TypeError):
        cc.as_fraction(value)
    with pytest.raises(TypeError):  # it reads its argument through as_fraction
        cc.format_rational(value)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_as_fraction_rejects_non_finite_floats(value):
    with pytest.raises(ValueError, match="not a finite number"):
        cc.as_fraction(value)


def _formatted_rationals():
    """Fractions whose denominators are 2^a 5^b (a = b or not, up to 60) or
    anything else, of either sign, zero and integers among them."""
    numerators = st.integers(-(10**40), 10**40)
    exponents = st.integers(0, 60)
    return st.one_of(
        st.builds(lambda p, a, b: Fraction(p, 2**a * 5**b), numerators, exponents, exponents),
        st.builds(lambda p, a: Fraction(p, 10**a), numerators, exponents),
        st.builds(Fraction, numerators, st.integers(1, 10**30)),
        st.builds(Fraction, numerators),
    )


class TestFormatRational:
    @given(q=_formatted_rationals(), data=st.data())
    @example(q=Fraction(0), data=None)
    @example(q=Fraction(-1, 2**60), data=None)
    @example(q=Fraction(3, 2**7 * 5**60), data=None)
    @example(q=Fraction(-7, 3 * 2**5), data=None)
    def test_matches_the_reference(self, q, data):
        text = oracles.reference_format_rational(q)
        inputs = [q, f"{q.numerator}/{q.denominator}"]
        if q.denominator == 1:
            inputs.append(int(q))
        if "/" not in text:
            inputs += [text, Decimal(text)]
        for value in inputs if data is None else [data.draw(st.sampled_from(inputs))]:
            assert cc.format_rational(value) == oracles.reference_format_rational(value) == text
        assert cc.as_fraction(text) == q
