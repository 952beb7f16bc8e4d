"""Brute-force reference implementations used to pin expected test values.

Everything here favors obviousness over speed and shares no search logic with
the package: subsets are enumerated directly, assignments are tried
exhaustively, and feasibility is re-checked straight from the distance table.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from hypothesis import strategies as st

from clustercert.clustering import ClusterStructure, ExactSearchResult
from clustercert.generators import (
    TightInstanceSpec,
    WeightedFiniteSpace,
    _rng,
    planted_instance,
    random_metric_instance,
    tight_instance,
)
from clustercert.space import (
    FiniteSemimetricSpace,
    ScaleParams,
    SpaceFormatError,
    _grid_space,
    _is_int,
    _mask,
    _positive_order,
    _positive_scale,
    as_fraction,
    build_space,
    format_rational,
    set_distance,
)

PALETTE = [
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
    Fraction(3),
    Fraction(7, 2),
    Fraction(4),
    Fraction(5),
]


def medium_edges(space: FiniteSemimetricSpace, r) -> int:
    r = Fraction(r)
    return sum(
        1 for i, j in combinations(space.points(), 2) if r < space.dist[i][j] <= 3 * r
    )


def long_edges(space: FiniteSemimetricSpace, r) -> int:
    r = Fraction(r)
    return sum(1 for i, j in combinations(space.points(), 2) if space.dist[i][j] > 3 * r)


def anticliques(space: FiniteSemimetricSpace, r, s: int) -> int:
    r = Fraction(r)
    return sum(
        1
        for sub in combinations(space.points(), s)
        if all(space.dist[a][b] > r for a, b in combinations(sub, 2))
    )


def anticlique_backtrack(space: FiniteSemimetricSpace, r, s: int) -> int:
    """Reference for ``stats.anticlique_count``: one backtrack over the whole
    space, which walks every far tuple (across near components too), with no
    component factorization. Fast enough for the larger cases that subset
    enumeration cannot reach."""
    if not _is_int(s) or s < 0:
        raise ValueError(f"anticlique order must be a non-negative integer, got {s!r}")
    if s == 0:
        return 1
    n = space.n
    if s > n:
        return 0
    far = [~row for row in within(space, r)]

    def count(cand: int, need: int) -> int:
        if need == 1:
            return cand.bit_count()
        total = 0
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            # cand now holds only points above the one just chosen.
            rest = cand & far[low.bit_length() - 1]
            total += rest.bit_count() if need == 2 else count(rest, need - 1)
        return total

    return count((1 << n) - 1, s)


def within(space: FiniteSemimetricSpace, d, strict: bool = False) -> tuple[int, ...]:
    """Reference threshold rows: each cell compared as a Fraction with d."""
    d = Fraction(d)
    reached = d.__gt__ if strict else d.__ge__
    return tuple(sum(1 << q for q, x in enumerate(row) if reached(x)) for row in space.dist)


def dump_space(space: FiniteSemimetricSpace) -> str:
    """Reference for ``space.dump_space``: every cell of the Fraction table
    formatted on its own."""
    lines = [str(space.n), " ".join(space.labels)]
    for row in space.dist:
        lines.append(" ".join(format_rational(q) for q in row))
    return "\n".join(lines) + "\n"


def space_to_obj(space: FiniteSemimetricSpace) -> dict:
    """Reference for ``space.space_to_obj``, formatted cell by cell."""
    return {
        "n": space.n,
        "labels": list(space.labels),
        "dist": [[format_rational(q) for q in row] for row in space.dist],
    }


def elementary_symmetric(values, s: int) -> int:
    total = 0
    for sub in combinations(range(len(values)), s):
        prod = 1
        for i in sub:
            prod *= values[i]
        total += prod
    return total


def max_cluster(space: FiniteSemimetricSpace, points, d) -> frozenset:
    """Largest subset of diameter <= d; ties resolved to the subset whose
    sorted index tuple comes first lexicographically (combinations order)."""
    d = Fraction(d)
    pts = sorted(set(points))
    for size in range(len(pts), 0, -1):
        for sub in combinations(pts, size):
            if all(space.dist[a][b] <= d for a, b in combinations(sub, 2)):
                return frozenset(sub)
    return frozenset()


def structure_measure(space: FiniteSemimetricSpace, k: int, r) -> int:
    """Best total size over every assignment of points to k clusters or none.

    Pure exhaustive enumeration: a prefix is abandoned only when it already
    violates a constraint, with no bounds and no symmetry breaking, so this is
    independent of the branch-and-bound search it cross-checks.
    """
    r = Fraction(r)
    n = space.n
    best = 0
    assign = [0] * n  # 0 = discarded, 1..k = cluster label

    def rec(p: int, measure: int) -> None:
        nonlocal best
        if p == n:
            if measure > best:
                best = measure
            return
        for label in range(k + 1):
            if label:
                feasible = True
                for q in range(p):
                    if assign[q] == 0:
                        continue
                    d = space.dist[p][q]
                    if assign[q] == label and d > 2 * r:
                        feasible = False
                        break
                    if assign[q] != label and d < r:
                        feasible = False
                        break
                if not feasible:
                    continue
            assign[p] = label
            rec(p + 1, measure + (1 if label else 0))
        assign[p] = 0

    rec(0, 0)
    return best


def exact_structure(space: FiniteSemimetricSpace, params: ScaleParams) -> ExactSearchResult:
    """Reference for ``clustering.exact_structure``: the same assignment
    order, symmetry breaking and strict-improvement rule, pruned only by
    measure + unassigned points. So it finds the same witness, and it
    explores every node that a search with a stronger bound explores."""
    n = space.n
    k = params.k
    r = params.r
    share = [[space.dist[p][q] <= 2 * r for q in range(n)] for p in range(n)]
    close = [[space.dist[p][q] < r for q in range(n)] for p in range(n)]
    clusters: list[list[int]] = [[] for _ in range(k)]
    best_measure = -1
    best: tuple[frozenset, ...] = (frozenset(),) * k
    nodes = 0

    def rec(p: int, opened: int, measure: int) -> None:
        nonlocal best_measure, best, nodes
        nodes += 1
        if p == n:
            if measure > best_measure:
                best_measure = measure
                best = tuple(frozenset(c) for c in clusters)
            return
        if measure + (n - p) <= best_measure:
            return
        for c in range(min(opened + 1, k)):
            if not all(share[p][q] for q in clusters[c]):
                continue
            if any(close[p][q] for d in range(k) if d != c for q in clusters[d]):
                continue
            clusters[c].append(p)
            rec(p + 1, max(opened, c + 1), measure + 1)
            clusters[c].pop()
        rec(p + 1, opened, measure)

    rec(0, 0, 0)
    return ExactSearchResult(ClusterStructure(best), True, nodes)


def is_valid_structure(space: FiniteSemimetricSpace, clusters, r) -> bool:
    r = Fraction(r)
    flat = [p for c in clusters for p in c]
    if len(flat) != len(set(flat)):
        return False
    for cluster in clusters:
        for a, b in combinations(sorted(cluster), 2):
            if space.dist[a][b] > 2 * r:
                return False
    for ci, cj in combinations(range(len(clusters)), 2):
        for a in clusters[ci]:
            for b in clusters[cj]:
                if space.dist[a][b] < r:
                    return False
    return True


def is_metric(space: FiniteSemimetricSpace) -> bool:
    n = space.n
    for i in range(n):
        for j in range(n):
            for via in range(n):
                if space.dist[i][j] > space.dist[i][via] + space.dist[via][j]:
                    return False
    return True


def fraction_metric_instance(n: int, r, seed: int) -> FiniteSemimetricSpace:
    """Reference for ``random_metric_instance``: the same draws, closed under
    shortest paths directly in Fractions."""
    r = Fraction(r)
    rng = random.Random(seed)
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = r * Fraction(rng.randint(1, 10), 2)
            dist[i][j] = dist[j][i] = d
    for via in range(n):
        row_via = dist[via]
        for i in range(n):
            d_iv = dist[i][via]
            row_i = dist[i]
            for j in range(n):
                candidate = d_iv + row_via[j]
                if candidate < row_i[j]:
                    row_i[j] = candidate
                    dist[j][i] = candidate
    return build_space([f"p{i}" for i in range(n)], dist)


def random_semimetric(rng: random.Random, n: int) -> FiniteSemimetricSpace:
    """Raw symmetric table with palette entries; no triangle inequality."""
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = rng.choice(PALETTE)
            dist[i][j] = dist[j][i] = d
    return build_space([f"p{i}" for i in range(n)], dist)


def line_space(positions) -> FiniteSemimetricSpace:
    """Points on a line: rho(p, q) = |x_p - x_q|, a metric by construction."""
    xs = [Fraction(x) for x in positions]
    return build_space([f"p{i}" for i in range(len(xs))], [[abs(a - b) for b in xs] for a in xs])


def grid_line_space(positions) -> FiniteSemimetricSpace:
    """``line_space`` of integer positions, ranked through ``_grid_space`` from the
    int gaps: no cell is parsed, so n in the hundreds builds in milliseconds."""
    grid = [[abs(a - b) for b in positions] for a in positions]
    return _grid_space([f"p{i}" for i in range(len(positions))], grid, Fraction)


def line_anticliques(positions, r, s: int) -> int:
    """T_s of points on a line: the s-subsets whose consecutive gaps, in sorted
    order, all exceed r. A DP over the sorted points, O(n*s): ``ends[i]`` counts
    the subsets of the current order whose largest point is the i-th."""
    if s == 0:
        return 1
    xs = sorted(positions)
    ends = [1] * len(xs)
    for _ in range(s - 1):
        grown, total, lo = [], 0, 0
        for x in xs:
            while xs[lo] < x - r:  # every point below x - r may precede x
                total += ends[lo]
                lo += 1
            grown.append(total)
        ends = grown
    return sum(ends)


def line_medium_pairs(positions, r) -> int:
    """M of points on a line: the pairs at distance in (r, 3r], by two pointers
    over the sorted points. A point x pairs with the points in [x - 3r, x - r)."""
    xs = sorted(positions)
    count = lo = hi = 0
    for x in xs:
        while xs[lo] < x - 3 * r:
            lo += 1
        while xs[hi] < x - r:
            hi += 1
        count += hi - lo
    return count


def line_positions(space: FiniteSemimetricSpace) -> list[Fraction]:
    """The coordinates of a ``line_space`` up to a reflection, which keeps every
    distance: the distances from an end, that is from the point farthest from
    point 0."""
    if not space.n:
        return []
    end = max(space.points(), key=space.dist[0].__getitem__)
    return list(space.dist[end])


def line_opt(positions, r, k: int) -> int:
    """OPT of points on a line: the largest measure of an order-k structure at
    scale r, when no pair is at distance exactly r (else ValueError).

    A point inside the hull of a 2r-cluster is within r of one of the
    cluster's ends, strictly so without pairs at exactly r, so no other
    cluster reaches inside that hull; and every point inside it can join the
    cluster. So an optimal structure's clusters are runs of consecutive sorted
    points. ``best[c][t]`` is the most points in at most c clusters among the
    t lowest points: the last cluster is a run xs[i..t-1] of diameter <= 2r,
    and the clusters before it lie among the points more than r below xs[i],
    a prefix of the sorted order. O(n^2 k)."""
    r = Fraction(r)
    xs = sorted(Fraction(x) for x in positions)
    seen = set(xs)
    if any(x + r in seen for x in xs):
        raise ValueError(f"a pair is at distance exactly r = {r}: runs need not be optimal")
    below = [bisect_left(xs, x - r) for x in xs]  # the points more than r below x
    best = [[0] * (len(xs) + 1)]
    for _ in range(k):
        prev, row = best[-1], [0]
        for t in range(1, len(xs) + 1):
            top, i, most = xs[t - 1], t - 1, row[-1]
            while i >= 0 and top - xs[i] <= 2 * r:
                most = max(most, t - i + prev[below[i]])
                i -= 1
            row.append(most)
        best.append(row)
    return best[k][len(xs)]


@st.composite
def semimetric_spaces(draw, min_n: int = 0, max_n: int = 7):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**31))
    return random_semimetric(random.Random(seed), n)


@st.composite
def metric_spaces(draw, min_n: int = 0, max_n: int = 8, r=Fraction(1)):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**31))
    return random_metric_instance(n, r, seed)


@st.composite
def line_metric_spaces(draw, min_n: int = 0, max_n: int = 8, span: int = 8):
    """Integer points of a line: many pairs at exactly 1, 2 and 3, which are
    r, 2r and 3r at r = 1."""
    return line_space(draw(st.lists(st.integers(0, span), min_size=min_n, max_size=max_n)))


@st.composite
def block_spaces(draw):
    """A planted instance with noise (noise can split a near block apart) or
    a tight block witness, both built at r = 1."""
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        m = draw(st.integers(1, 5))
        m0 = draw(st.integers(m, 10))
        return tight_instance(TightInstanceSpec(k=k, m=m, m0=m0, r=Fraction(1)))
    sizes = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    noise = Fraction(draw(st.integers(0, 9)), 10)
    return planted_instance(k, sizes, noise, 1, draw(st.integers(0, 2**31)))


@st.composite
def multiplicity_spaces(draw, max_n: int = 7, max_copies: int = 3):
    """A semimetric space whose points come in 1 to ``max_copies`` copies at
    distance 0, as ``uniformize`` makes them: the copies of a point share one
    rank row, so equal degrees tie and the threshold rows take the shared-row path."""
    space = draw(semimetric_spaces(min_n=1, max_n=max_n))
    copies = draw(st.lists(st.integers(1, max_copies), min_size=space.n, max_size=space.n))
    of = [p for p, c in enumerate(copies) for _ in range(c)]
    rows = [[space.ranks[p][q] for q in of] for p in range(space.n)]
    return _grid_space([f"p{i}" for i in range(len(of))], [rows[p] for p in of], space.values.__getitem__)


# ---------------------------------------------------------------------------
# The text and table parsers before tables were parsed straight to ranks,
# kept verbatim as the reference for the current ones.
# ---------------------------------------------------------------------------

def reference_build_space(
    labels: Sequence[str],
    matrix: Sequence[Sequence],
    *,
    require_metric: bool = False,
) -> FiniteSemimetricSpace:
    """``space.build_space`` as it was before tables were parsed straight to
    ranks: every cell is parsed and sign-checked in row-major order.

    Validate a label list and distance table into a space.

    Rejections name the offending cell: asymmetry, negative entries, nonzero
    diagonal, and ragged rows are all errors. ``require_metric`` additionally
    checks the triangle inequality (off by default: semimetric inputs are
    legal and some natural instances are not metrics).
    """
    labels = tuple(str(x) for x in labels)
    n = len(labels)
    seen: set[str] = set()
    for idx, label in enumerate(labels):
        if not label or label.split() != [label]:
            raise SpaceFormatError(f"label {idx} is empty or contains whitespace: {label!r}")
        if label in seen:
            raise SpaceFormatError(f"duplicate label {label!r}")
        seen.add(label)
    if len(matrix) != n:
        raise SpaceFormatError(f"expected {n} matrix rows, got {len(matrix)}")
    tokens: dict[str, Fraction] = {}  # each distinct string cell is parsed and checked once
    rows: list[tuple[Fraction, ...]] = []
    for i, row in enumerate(matrix):
        entries = list(row)
        if len(entries) != n:
            raise SpaceFormatError(f"ragged matrix: row {i} has {len(entries)} entries, expected {n}")
        parsed = []
        for j, value in enumerate(entries):
            q = tokens.get(value) if isinstance(value, str) else None
            if q is None:
                try:
                    q = as_fraction(value)
                except (ValueError, TypeError) as exc:
                    raise SpaceFormatError(f"bad distance at ({i},{j}): {exc}") from exc
                if q < 0:
                    raise SpaceFormatError(f"negative entry at ({i},{j}): {format_rational(q)}")
                if isinstance(value, str):
                    tokens[value] = q
            parsed.append(q)
        rows.append(tuple(parsed))
    # Keyed by identity (parsed tokens share one Fraction each), then by
    # integer ratio, never by the slower Fraction hash. Sorted on
    # floor(q * 2^64) first, so most comparisons are int ones.
    cells = {id(q): q for row in rows for q in row}
    distinct = {q.as_integer_ratio(): q for q in cells.values()}.values()
    values = tuple(sorted(distinct, key=lambda q: ((q.numerator << 64) // q.denominator, q)))
    place = {q.as_integer_ratio(): i for i, q in enumerate(values)}
    rank = {key: place[q.as_integer_ratio()] for key, q in cells.items()}
    ranks = tuple(tuple(map(rank.__getitem__, map(id, row))) for row in rows)
    for i, row in enumerate(ranks):
        if values[row[i]] != 0:
            raise SpaceFormatError(f"nonzero diagonal at ({i},{i}): {format_rational(values[row[i]])}")
        for j in range(i + 1, n):
            if row[j] != ranks[j][i]:
                raise SpaceFormatError(f"asymmetric at ({i},{j})")
    if require_metric:
        for i in range(n):
            for j in range(i + 1, n):
                for via in range(n):
                    if rows[i][j] > rows[i][via] + rows[via][j]:
                        raise SpaceFormatError(
                            f"triangle violation at ({i},{j}) via {via}: "
                            f"{format_rational(rows[i][j])} > "
                            f"{format_rational(rows[i][via] + rows[via][j])}"
                        )
    return FiniteSemimetricSpace(labels, values, ranks)



def reference_parse_space_lines(lines: list[str]) -> tuple[FiniteSemimetricSpace, list[str]]:
    """Parse the leading space block; return it plus any remaining lines."""
    if not lines:
        raise SpaceFormatError("line 1: missing point count")
    try:
        n = int(lines[0].strip())
    except ValueError as exc:
        raise SpaceFormatError(f"line 1: point count is not an integer: {lines[0]!r}") from exc
    if n < 0:
        raise SpaceFormatError(f"line 1: negative point count {n}")
    if n == 0:
        return reference_build_space([], []), lines[1:]
    if len(lines) < 2:
        raise SpaceFormatError("line 2: missing label line")
    labels = lines[1].split()
    if len(labels) != n:
        raise SpaceFormatError(f"line 2: expected {n} labels, got {len(labels)}")
    if len(lines) < 2 + n:
        raise SpaceFormatError(f"expected {n} distance rows, file ends after {len(lines) - 2}")
    matrix = []
    for i in range(n):
        tokens = lines[2 + i].split()
        if len(tokens) != n:
            raise SpaceFormatError(f"line {3 + i}: expected {n} distances, got {len(tokens)}")
        matrix.append(tokens)
    try:
        space = reference_build_space(labels, matrix)
    except SpaceFormatError as exc:
        raise SpaceFormatError(f"distance table: {exc}") from exc
    return space, lines[2 + n :]



def reference_load_space(text: str) -> FiniteSemimetricSpace:
    """``space.load_space`` as it was before tables were parsed straight to
    ranks. It drops blank lines before numbering them.

    Parse the text space format, rejecting trailing junk."""
    lines = [line for line in text.splitlines() if line.strip()]
    space, rest = reference_parse_space_lines(lines)
    if rest:
        raise SpaceFormatError(f"unexpected trailing content: {rest[0]!r}")
    return space


# ---------------------------------------------------------------------------
# The printer before it skipped re-wrapping Fractions, kept verbatim (apart
# from its name) as the reference for the current one.
# ---------------------------------------------------------------------------

def reference_format_rational(q: Fraction) -> str:
    """Render a Fraction losslessly: finite decimal when possible, else "p/q".

    The output always parses back to the same Fraction via
    :func:`as_fraction`, which keeps space files exact for denominators that
    are not powers of ten (e.g. distances produced by discretization).
    """
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    den = q.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{q.numerator}/{q.denominator}"
    digits = max(twos, fives)
    scaled = abs(q.numerator) * 10**digits // q.denominator
    text = str(scaled).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:].rstrip("0")
    sign = "-" if q.numerator < 0 else ""
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


# ---------------------------------------------------------------------------
# The generators and uniformize before they built ranks from int grids,
# kept verbatim (apart from their names) as the reference for the current
# ones: each builds a table of Fractions and hands it to the parser.
# ---------------------------------------------------------------------------

_RESOLUTION = 1000


def _blocks(prefix: str, sizes: Sequence[int]) -> tuple[list[str], list[int]]:
    """Labels ``{prefix}{b}_{t}`` for point t of block b, block after block,
    and the block index of each point."""
    labels = []
    block_of = []
    for b, size in enumerate(sizes):
        for t in range(size):
            labels.append(f"{prefix}{b}_{t}")
            block_of.append(b)
    return labels, block_of


def reference_tight_instance(spec: TightInstanceSpec) -> FiniteSemimetricSpace:
    """Materialize the block witness described by ``spec``."""
    labels, block_of = _blocks("b", [spec.m0] + [spec.m] * spec.k)
    r = spec.r
    far = 4 * r
    matrix = [
        [Fraction(0) if i == j else r if a == b else far for j, b in enumerate(block_of)]
        for i, a in enumerate(block_of)
    ]
    return build_space(labels, matrix)


def reference_planted_instance(
    k: int,
    block_sizes: Sequence[int],
    noise_swap_fraction,
    r,
    seed: int,
) -> FiniteSemimetricSpace:
    """Random blocks with short intra-block and long inter-block distances.

    Intra-block distances are uniform over (0, r], inter-block over (3r, 5r],
    both on a grid of 1/1000-ths of r. Then floor(noise * total_pairs) pairs,
    sampled without replacement, are re-drawn from (r, 3r], so the medium-edge
    count equals the number of re-drawn pairs. Bit-exact for a fixed seed.
    """
    _positive_order(k)
    sizes = list(block_sizes)
    if not sizes or any(not _is_int(s) or s < 1 for s in sizes):
        raise ValueError(f"block sizes must be positive integers, got {block_sizes!r}")
    if len(sizes) != k:
        raise ValueError(f"expected {k} block sizes, got {len(sizes)}")
    noise = as_fraction(noise_swap_fraction)
    if not 0 <= noise < 1:
        raise ValueError(f"noise fraction must lie in [0, 1), got {noise}")
    r = _positive_scale(r)

    rng = _rng(seed)
    labels, block_of = _blocks("b", sizes)
    n = len(labels)

    def short() -> Fraction:
        return r * Fraction(rng.randint(1, _RESOLUTION), _RESOLUTION)

    def long() -> Fraction:
        return 3 * r + 2 * r * Fraction(rng.randint(1, _RESOLUTION), _RESOLUTION)

    def medium() -> Fraction:
        return r + 2 * r * Fraction(rng.randint(1, _RESOLUTION), _RESOLUTION)

    dist = [[Fraction(0)] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in pairs:
        d = short() if block_of[i] == block_of[j] else long()
        dist[i][j] = dist[j][i] = d
    redraw_count = int(noise * len(pairs))  # floor: noise is a non-negative Fraction
    for i, j in sorted(rng.sample(pairs, redraw_count)):
        d = medium()
        dist[i][j] = dist[j][i] = d
    return build_space(labels, dist)


def reference_random_metric_instance(n: int, r, seed: int) -> FiniteSemimetricSpace:
    """Uniform random symmetric distances, closed under shortest paths.

    Entries are drawn from multiples of r/2 in [r/2, 5r] and then replaced by
    the exact min-plus closure (all-pairs shortest paths), which enforces the
    triangle inequality while keeping plenty of short/medium/long variety.
    The closure runs on integer half-units: it commutes with scaling by
    r/2 > 0, so each cell is converted to r * h / 2 once, at the end.
    """
    if not _is_int(n) or n < 0:
        raise ValueError(f"point count must be a non-negative integer, got {n!r}")
    r = _positive_scale(r)
    rng = _rng(seed)
    half = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            half[i][j] = half[j][i] = rng.randint(1, 10)
    for via in range(n):
        row_via = half[via]
        for row in half:
            d = row[via]
            row[:] = [min(h, d + h_via) for h, h_via in zip(row, row_via)]
    dist = [[r * h / 2 for h in row] for row in half]
    return build_space([f"p{i}" for i in range(n)], dist)


def reference_uniformize(
    w: WeightedFiniteSpace,
    partition: Sequence[Sequence[int]],
    eps,
    *,
    max_total_multiplicity: int = 100_000,
) -> FiniteSemimetricSpace:
    """Collapse a weighted space onto a uniform-measure multiplicity space.

    Each part A_i gets a rational weight q_i with mu(A_i) >= q_i >=
    (1 - eps) * mu(A_i), obtained by decimal truncation at the smallest power
    of ten that satisfies the floor for every part. Parts become blocks of
    q_i-proportional multiplicity (common denominator, reduced by gcd) at
    mutual distance set_distance(A_i, A_j), with distance 0 inside a block.
    """
    eps = as_fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    space = w.base
    parts = [sorted(set(part)) for part in partition]
    flat = [p for part in parts for p in part]
    if sorted(flat) != list(space.points()) or any(not part for part in parts):
        raise ValueError("partition must consist of non-empty disjoint parts covering all points")
    measures = [sum((w.weights[p] for p in part), Fraction(0)) for part in parts]

    scale = 1
    power = 0
    while True:
        truncated = [Fraction(int(mu * scale), scale) for mu in measures]
        if all(q >= (1 - eps) * mu for q, mu in zip(truncated, measures)):
            break
        scale *= 10
        power += 1
        if power > 10_000:  # unreachable: truncation error shrinks as 10^-power
            raise RuntimeError("weight truncation failed to converge")
    numerators = [int(q * scale) for q in truncated]

    g = math.gcd(*numerators)
    multiplicities = [a // g for a in numerators]
    total = sum(multiplicities)
    if total > max_total_multiplicity:
        raise ValueError(
            f"uniformized space needs {total} points, above the cap of {max_total_multiplicity}"
        )

    cross = [[Fraction(0)] * len(parts) for _ in range(len(parts))]
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            d = set_distance(space, parts[i], parts[j])
            cross[i][j] = cross[j][i] = d

    # The diagonal of ``cross`` is 0, the distance inside a block.
    labels, block_of = _blocks("a", multiplicities)
    return build_space(labels, [[cross[a][b] for b in block_of] for a in block_of])


# ---------------------------------------------------------------------------
# The maximum-clique search before it ran in two passes, kept verbatim (apart
# from its names) as the reference for ``clustering.max_cluster``.
# ---------------------------------------------------------------------------

def reference_max_cluster(space: FiniteSemimetricSpace, points, d) -> frozenset[int]:
    """Maximum-cardinality subset of ``points`` with diameter at most d.

    Equivalent to a maximum clique in the threshold graph {(u, v): rho <= d}
    restricted to the subset. Branch and bound explores vertices in ascending
    index order with a greedy-coloring upper bound; pruning only discards
    subtrees that cannot strictly beat the incumbent, so the first optimum
    found -- and returned -- is the lexicographically smallest one.
    """
    full = _mask(points)
    if not full:
        return frozenset()
    # A vertex's own bit is never a candidate when its row is read.
    adj = within(space, d)
    best: list[int] = []

    def expand(current: list[int], cand: int) -> None:
        nonlocal best
        if len(current) > len(best):
            best = current.copy()
        if not cand:
            return
        if len(current) + cand.bit_count() <= len(best):
            return
        if len(current) + _reference_color_count(cand, adj) <= len(best):
            return
        while cand:
            if len(current) + cand.bit_count() <= len(best):
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            expand(current + [v], cand & adj[v])

    expand([], full)
    return frozenset(best)


def _reference_color_count(cand: int, adj) -> int:
    """Colours of a greedy proper colouring of ``cand`` in the graph ``adj``,
    an upper bound on its largest clique. Each class takes the lowest free
    vertex and drops its neighbours, which gives the classes of first-fit
    colouring in ascending order. A vertex's own bit is cleared explicitly:
    rows of ``within(d)`` have no diagonal bit when d < 0."""
    colors = 0
    while cand:
        colors += 1
        free = cand
        while free:
            low = free & -free
            cand ^= low
            free &= ~(adj[low.bit_length() - 1] | low)
    return colors
