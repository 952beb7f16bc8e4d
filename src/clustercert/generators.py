"""Instance generators: block witnesses, planted clusters, random metrics,
and the weighted-to-uniform discretization.

Every generator is deterministic for a fixed seed and emits exact rational
distances, so generated instances round-trip through the space file format
bit-for-bit. Each draws or computes its distances as ints on a grid (units
of r / 1000, half-units of r, or base ranks) and builds the space straight
from that grid, so no cell is parsed.
"""
from __future__ import annotations

import math
import random
from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import accumulate, islice

from .space import (
    FiniteSemimetricSpace,
    Record,
    SpaceFormatError,
    _bits,
    _grid_space,
    _is_int,
    _parse_space_lines,
    _positive_order,
    _positive_scale,
    as_fraction,
    build_space,
    dump_space,
    format_rational,
    space_from_obj,
    space_to_obj,
)

__all__ = [
    "TightInstanceSpec",
    "WeightedFiniteSpace",
    "tight_instance",
    "planted_instance",
    "random_metric_instance",
    "space_from_points",
    "epsilon_partition",
    "uniformize",
    "load_weighted_space",
    "dump_weighted_space",
    "weighted_space_from_obj",
    "weighted_space_to_obj",
]

_RESOLUTION = 1000  # granularity of randomly drawn distances, in units of r


class TightInstanceSpec(Record):
    """Block witness layout: one block of size m0 and k blocks of size m.

    Distances are r inside a block and 4r across blocks, so medium edges are
    absent and the only 2r-clusters are the blocks. Requiring m0 >= m keeps
    the optimal structure's gap equal to m (one smallest block is dropped).
    """

    k: int
    m: int
    m0: int
    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", _positive_scale(self.r))
        _positive_order(self.k)
        if not _is_int(self.m) or self.m < 1:
            raise ValueError(f"block size m must be a positive integer, got {self.m!r}")
        if not _is_int(self.m0) or self.m0 < self.m:
            raise ValueError(f"m0 must be an integer >= m (got m0={self.m0!r}, m={self.m!r})")

    @property
    def n(self) -> int:
        return self.m0 + self.k * self.m


def _blocks(prefix: str, sizes: Sequence[int]) -> tuple[list[str], list[int]]:
    """Labels ``{prefix}{b}_{t}`` for point t of block b, block after block,
    and the block index of each point."""
    labels = [f"{prefix}{b}_{t}" for b, size in enumerate(sizes) for t in range(size)]
    return labels, [b for b, size in enumerate(sizes) for _ in range(size)]


def tight_instance(spec: TightInstanceSpec) -> FiniteSemimetricSpace:
    """Materialize the block witness described by ``spec``."""
    labels, block_of = _blocks("b", [spec.m0] + [spec.m] * spec.k)
    grid = [[0 if i == j else 1 if a == b else 4 for j, b in enumerate(block_of)] for i, a in enumerate(block_of)]
    return _grid_space(labels, grid, spec.r.__mul__)


def _rng(seed) -> random.Random:
    """The random source of a generator; ValueError unless ``seed`` is an int."""
    if not _is_int(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return random.Random(seed)


def _randints(rng: random.Random, hi: int, count: int) -> Iterator[int]:
    """``count`` draws of ``rng.randint(1, hi)``, leaving ``rng`` in the same state: on
    CPython 3.10-3.13 each is 1 plus the first ``getrandbits(hi.bit_length())`` below hi."""
    bits, getrandbits = hi.bit_length(), rng.getrandbits
    for _ in range(count):
        x = getrandbits(bits)
        while x >= hi:
            x = getrandbits(bits)
        yield x + 1


def _symmetric(n: int, cells: list[int]) -> list[list[int]]:
    """The symmetric n by n grid, zero on the diagonal, whose cells above it are ``cells``, row-major."""
    upper, at = [], 0
    for i in range(n):
        upper.append([0] * (i + 1) + cells[at : at + n - i - 1])
        at += n - i - 1
    return [[*col[:i], *row[i:]] for i, (row, col) in enumerate(zip(upper, zip(*upper)))]


def planted_instance(
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
    n, ends = len(labels), list(accumulate(sizes))
    # Cells count units of r / _RESOLUTION. For x drawn from 1.._RESOLUTION, and r = _RESOLUTION units,
    # a short cell is x, a long one 3r + 2x and a re-drawn medium one r + 2x. ``cells`` holds the pairs
    # (i, j), i < j, in the order they are drawn: row i is short up to the end of i's block, then long.
    draws, cells = _randints(rng, _RESOLUTION, n * (n - 1) // 2), []
    for i, b in enumerate(block_of):
        cells += islice(draws, ends[b] - i - 1)
        cells += [3 * _RESOLUTION + 2 * x for x in islice(draws, n - ends[b])]
    # Sampled as indices, the pairs come out as ``rng.sample(pairs, ...)`` picks them; floor: noise >= 0.
    redraws = sorted(rng.sample(range(len(cells)), int(noise * len(cells))))
    for at, x in zip(redraws, _randints(rng, _RESOLUTION, len(redraws))):
        cells[at] = _RESOLUTION + 2 * x
    p, q = (r / _RESOLUTION).as_integer_ratio()
    return _grid_space(labels, _symmetric(n, cells), lambda x: Fraction(x * p, q))


def random_metric_instance(n: int, r, seed: int) -> FiniteSemimetricSpace:
    """Uniform random symmetric distances, closed under shortest paths.

    Entries are drawn from multiples of r/2 in [r/2, 5r] and then replaced by
    the exact min-plus closure (all-pairs shortest paths), which enforces the
    triangle inequality while keeping plenty of short/medium/long variety.
    The closure runs on integer half-units: it commutes with scaling by
    r/2 > 0, so the int grid becomes the space directly, and only its
    distinct half-unit counts h are turned into the distances r * h / 2.
    """
    if not _is_int(n) or n < 0:
        raise ValueError(f"point count must be a non-negative integer, got {n!r}")
    r = _positive_scale(r)
    rng = _rng(seed)
    half = _symmetric(n, list(_randints(rng, 10, n * (n - 1) // 2)))
    for via in range(n):
        row_via = half[via]
        for row in half:
            row[:] = map(min, row, map(row[via].__add__, row_via))
    return _grid_space([f"p{i}" for i in range(n)], half, (r / 2).__mul__)


def space_from_points(points: Sequence[Sequence], *, metric: str = "l1") -> FiniteSemimetricSpace:
    """Exact metric space from rational coordinates.

    ``metric="l1"`` uses taxicab distance, ``"linf"`` the coordinate maximum;
    both stay rational and satisfy the triangle inequality exactly.
    """
    coords = [tuple(as_fraction(c) for c in p) for p in points]
    if coords and any(len(p) != len(coords[0]) for p in coords):
        raise ValueError("all points must share one dimension")
    if metric not in ("l1", "linf"):
        raise ValueError(f"unknown metric {metric!r} (expected 'l1' or 'linf')")
    n = len(coords)
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            diffs = [abs(a - b) for a, b in zip(coords[i], coords[j])]
            d = sum(diffs, Fraction(0)) if metric == "l1" else max(diffs, default=Fraction(0))
            dist[i][j] = dist[j][i] = d
    return build_space([f"p{i}" for i in range(n)], dist)


class WeightedFiniteSpace(Record):
    """A space with a positive rational measure per point; the total weight
    plays the role of the measure of the whole space.

    The weights are checked here and nowhere else: first their count, then
    each one through :func:`as_fraction`, then its sign."""

    base: FiniteSemimetricSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        weights = tuple(self.weights)
        if len(weights) != self.base.n:
            raise ValueError(f"expected {self.base.n} weights, got {len(weights)}")
        object.__setattr__(self, "weights", tuple(map(as_fraction, weights)))
        for idx, w in enumerate(self.weights):
            if w <= 0:
                raise ValueError(f"weight {idx} must be positive, got {w}")

    @property
    def total_weight(self) -> Fraction:
        return sum(self.weights, Fraction(0))


def epsilon_partition(w: WeightedFiniteSpace, eps) -> tuple[tuple[int, ...], ...]:
    """Greedy covering partition with pivot radius eps/2.

    Repeatedly take the lowest-index uncovered point and group every
    uncovered point within distance eps/2 of it. For metric inputs each part
    then has diameter at most eps.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    near = w.base.within(eps / 2)
    uncovered = (1 << w.base.n) - 1
    parts: list[tuple[int, ...]] = []
    while uncovered:
        pivot = (uncovered & -uncovered).bit_length() - 1
        part = uncovered & near[pivot]
        uncovered ^= part
        parts.append(tuple(_bits(part)))
    return tuple(parts)


def uniformize(
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

    scale = 1  # q_i = floor(mu_i * scale) / scale; the error is below 1 / scale, so the loop ends
    while not all(int(mu * scale) >= (1 - eps) * mu * scale for mu in measures):
        scale *= 10
    numerators = [int(mu * scale) for mu in measures]

    g = math.gcd(*numerators)
    multiplicities = [a // g for a in numerators]
    total = sum(multiplicities)
    if total > max_total_multiplicity:
        # Python refuses str() of an int beyond its digit limit (at least 640 digits).
        needs = total if total.bit_length() <= 2000 else f"more than 10^{(total.bit_length() - 1) * 3 // 10}"
        raise ValueError(f"uniformized space needs {needs} points, above the cap of {max_total_multiplicity}")

    # Base ranks: the least across two parts, and rank 0 (distance 0) inside one.
    cross = [[0] * len(parts) for _ in parts]
    for i, a in enumerate(parts):
        for j in range(i + 1, len(parts)):
            cross[i][j] = cross[j][i] = min(space.ranks[u][v] for u in a for v in parts[j])

    labels, block_of = _blocks("a", multiplicities)
    rows = [list(map(row.__getitem__, block_of)) for row in cross]  # one row per block, shared by its points
    return _grid_space(labels, [rows[a] for a in block_of], space.values.__getitem__)


# ---------------------------------------------------------------------------
# Weighted space serialization: the plain space format plus one weights line,
# or the structured-object format with an optional "weights" field.
# ---------------------------------------------------------------------------

def dump_weighted_space(w: WeightedFiniteSpace) -> str:
    return dump_space(w.base) + " ".join(format_rational(x) for x in w.weights) + "\n"


def _weighted(space: FiniteSemimetricSpace, weights, prefix: str = "") -> WeightedFiniteSpace:
    """The weighted space, with any fault of the weights as a SpaceFormatError."""
    try:
        return WeightedFiniteSpace(base=space, weights=weights)
    except (ValueError, TypeError) as exc:
        raise SpaceFormatError(f"{prefix}{exc}") from exc


def load_weighted_space(text: str) -> WeightedFiniteSpace:
    """Parse the text space format plus an optional line of n weights; a file
    without that line weighs each point 1. Every fault of the weights line is a
    SpaceFormatError that begins "weights line:"."""
    space, rest = _parse_space_lines(text)
    if len(rest) > 1:
        raise SpaceFormatError(f"unexpected trailing content: {rest[1][1]!r}")
    return _weighted(space, rest[0][1].split() if rest else [1] * space.n, "weights line: ")


def weighted_space_to_obj(w: WeightedFiniteSpace) -> dict:
    obj = space_to_obj(w.base)
    obj["weights"] = [format_rational(x) for x in w.weights]
    return obj


def weighted_space_from_obj(obj: dict) -> WeightedFiniteSpace:
    """Parse the structured-object form plus an optional ``weights`` list; an
    absent or null list weighs each point 1. Every fault of the weights,
    a boolean or other non-number among them, is a SpaceFormatError."""
    space = space_from_obj(obj)
    weights = obj.get("weights")
    if weights is not None and not isinstance(weights, list):
        raise SpaceFormatError(f"weights must be a list, got {type(weights).__name__}")
    return _weighted(space, [1] * space.n if weights is None else weights)
