"""Greedy cluster decomposition and exact cluster-structure search.

The greedy decomposition repeatedly extracts a maximum-cardinality subset of
diameter at most 2r (a maximum clique in the threshold graph) together with
its closed r-neighborhood, until the point set is exhausted. The exact search
finds a maximum-measure family of k pairwise-separated 2r-clusters by branch
and bound over point assignments. Both bound a clique by the colours of a
greedy colouring: the maximum clique search for each of its candidates, the
exact search for the points each cluster can still take.

All tie-breaking is lexicographic by point index, so both procedures are
deterministic and reproducible.
"""
from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, compress

from . import stats
from .space import DEFAULT_EXACT_LIMIT, FiniteSemimetricSpace, Record, ScaleParams, _bits, _mask, _positive_order, as_fraction

__all__ = [
    "SearchLimitError",
    "DecompositionPart",
    "GreedyDecomposition",
    "ClusterStructure",
    "ExactSearchResult",
    "StructureViolation",
    "StructureValidation",
    "max_cluster",
    "greedy_decomposition",
    "greedy_structure",
    "exact_structure",
    "validate_structure",
]


class SearchLimitError(ValueError):
    """Exact search refused up front, a ValueError: the instance exceeds the point limit."""


def _refusal(n: int, max_points: int) -> str | None:
    """Why the exact search refuses n points, or None. Callers that record a
    refusal ask here, and never enter ``exact_structure`` on a refused instance."""
    if n > max_points:
        return f"{n} points exceeds the exact-search limit of {max_points}"
    return None


class DecompositionPart(Record):
    """One step of the greedy decomposition.

    ``z`` is the extracted neighborhood, ``x`` its kernel (the maximum
    2r-cluster of the residual set), ``u`` the points covered by a greedy
    maximal matching of long edges inside z - x, and ``y`` the rest.
    ``medium_edges``/``long_edges`` count pairs inside z in (r, 3r] and
    above 3r respectively.
    """

    index: int
    z: frozenset[int]
    x: frozenset[int]
    y: frozenset[int]
    u: frozenset[int]
    matching: tuple[tuple[int, int], ...]
    medium_edges: int
    long_edges: int


class GreedyDecomposition(Record):
    """Ordered parts plus the derived index sets used by the bound checks.

    ``w`` lists part sizes |Z_i| in descending order. ``i0`` holds the part
    indices of the k largest |Z_i| (ties to earlier parts), ``i1`` the parts
    with (k+1)|X_i| <= |Z_i|, and ``i2`` the parts whose size is at least
    sqrt(delta_hat) * n, decided exactly by squaring. ``far_pair_count``
    totals medium and long pairs inside parts.
    """

    parts: tuple[DecompositionPart, ...]
    w: tuple[int, ...]
    i0: tuple[int, ...]
    i1: tuple[int, ...]
    i2: tuple[int, ...]
    far_pair_count: int


class ClusterStructure(Record):
    """k disjoint clusters of diameter <= 2r, pairwise at distance >= r.

    Clusters may be empty (padding keeps order-k structures total even when
    fewer parts exist); the measure is the total point count, summed once.
    """

    clusters: tuple[frozenset[int], ...]

    @property
    def order(self) -> int:
        return len(self.clusters)

    @cached_property
    def measure(self) -> int:
        return sum(map(len, self.clusters))


class ExactSearchResult(Record):
    structure: ClusterStructure
    optimal: bool
    nodes_explored: int

    @property
    def measure(self) -> int:
        return self.structure.measure


def max_cluster(space: FiniteSemimetricSpace, points: Iterable[int], d) -> frozenset[int]:
    """Maximum-cardinality subset of ``points`` with diameter at most d.

    Equivalent to a maximum clique in the threshold graph {(u, v): rho <= d}
    restricted to the subset, found in two passes. The first finds its size
    omega and one such clique. The second builds the lexicographically first
    omega-clique: it takes each candidate, in ascending order, whose adjacent
    candidates above it still hold the points missing, as the clique in hand
    shows for its own points and the first pass's search decides for others.
    """
    full = _mask(points)
    # The within(d) rows: the view at d/2, which every greedy step at scale d/2 reuses.
    # A vertex's own bit is never a candidate when its row is read.
    adj = space._scale(as_fraction(d) / 2).share
    omega, witness = _clique(full, adj, 0, full.bit_count())
    clique, cand = [], full
    while len(clique) < omega:
        low = cand & -cand
        cand ^= low
        grown = cand & adj[low.bit_length() - 1]
        if not witness & low:
            rest = omega - len(clique) - 1  # points still to add after this one
            size, found = _clique(grown, adj, rest - 1, rest)
            if size < rest:
                continue
            witness = found | low
        clique.append(low.bit_length() - 1)
        cand, witness = grown, witness ^ low
    return frozenset(clique)


def _clique(cand: int, adj, floor: int, enough: int) -> tuple[int, int]:
    """Size and mask of the largest clique of ``cand`` in the graph ``adj`` if
    above ``floor``, else ``floor`` and 0; it stops at ``enough`` points.
    Tomita and Seki's MCQ: a node colours its candidates first fit, from the
    highest point down so that low points are tried first, and branches on
    them from the last colour down until the size plus the colour cannot win."""
    best, found = floor, 0

    def expand(cand: int, size: int, members: int) -> None:
        nonlocal best, found
        if size > best:
            best, found = size, members
        order, colour, uncoloured = [], 0, cand  # order: (colour, vertex bit), the colours ascending
        while uncoloured:
            colour += 1
            free = uncoloured
            while free:
                bit = 1 << free.bit_length() - 1
                uncoloured ^= bit
                free &= ~(adj[bit.bit_length() - 1] | bit)
                if size + colour > best:
                    order.append((colour, bit))
        for colour, bit in reversed(order):
            if size + colour <= best or best >= enough:
                return
            cand ^= bit
            expand(cand & adj[bit.bit_length() - 1], size + 1, members | bit)

    expand(cand, 0, 0)
    return best, found


def _color_count(cand: int, adj) -> int:
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


def _greedy_long_matching(not_long, points: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Inclusion-wise maximal matching of long edges (rho > 3r, outside the
    rows ``not_long`` of ``within(3r)``), taken greedily in lexicographic edge order."""
    free = _mask(points)
    matching: list[tuple[int, int]] = []
    while free:
        a = (free & -free).bit_length() - 1
        free ^= 1 << a
        partners = free & ~not_long[a]
        if partners:
            b = (partners & -partners).bit_length() - 1
            free ^= 1 << b
            matching.append((a, b))
    return tuple(matching)


def _largest(parts: tuple[DecompositionPart, ...], k: int) -> tuple[int, ...]:
    """Ascending indices of the k parts with the largest |Z_i|, ties to earlier parts."""
    ranked = sorted(range(len(parts)), key=lambda i: (-len(parts[i].z), i))
    return tuple(sorted(ranked[:k]))


def greedy_decomposition(space: FiniteSemimetricSpace, params: ScaleParams) -> GreedyDecomposition:
    """Run the greedy extraction until the space is exhausted.

    Each step takes the maximum 2r-cluster ``x`` of the residual set and its
    closed r-neighborhood ``z = {p in residual: rho(p, x) <= r}`` (which always
    contains ``x``). The parts partition the space and the kernel sizes are
    non-increasing. The result is frozen and safe to share.
    """
    r, k = params.r, params.k
    two_r = 2 * r
    view = space._scale(r)
    residual = set(space.points())
    parts: list[DecompositionPart] = []
    while residual:
        x = max_cluster(space, residual, two_r)
        reach = 0
        for q in x:
            reach |= view.near[q]
        z = frozenset(p for p in residual if reach >> p & 1)
        residual -= z
        matching = _greedy_long_matching(view.reach, z - x)
        u = frozenset(p for edge in matching for p in edge)
        parts.append(
            DecompositionPart(
                index=len(parts),
                z=z,
                x=x,
                y=z - x - u,
                u=u,
                matching=matching,
                medium_edges=stats.medium_edge_count(space, r, points=z),
                long_edges=stats.long_edge_count(space, r, points=z),
            )
        )
    sizes = [len(p.z) for p in parts]
    total_medium = stats.medium_edge_count(space, r)
    # |Z_i| >= sqrt(delta_hat) * n  <=>  |Z_i|^2 >= delta_hat * n^2 = 2 * M.
    return GreedyDecomposition(
        parts=tuple(parts),
        w=tuple(sorted(sizes, reverse=True)),
        i0=_largest(parts, k),
        i1=tuple(i for i in range(len(parts)) if (k + 1) * len(parts[i].x) <= sizes[i]),
        i2=tuple(i for i in range(len(parts)) if sizes[i] ** 2 >= 2 * total_medium),
        far_pair_count=sum(p.medium_edges + p.long_edges for p in parts),
    )


def greedy_structure(decomp: GreedyDecomposition, k: int) -> ClusterStructure:
    """Cluster structure from the kernels of the k parts with the largest
    |Z_i| (ties to earlier parts). Missing clusters are padded with one shared
    empty set so the result always has order k.
    """
    _positive_order(k)
    opened = tuple(decomp.parts[i].x for i in _largest(decomp.parts, k))
    return ClusterStructure(clusters=opened + (frozenset(),) * (k - len(opened)))


class _NodeBudget(Exception):
    pass


@lru_cache(maxsize=256)
def exact_structure(
    space: FiniteSemimetricSpace,
    params: ScaleParams,
    *,
    max_points: int = DEFAULT_EXACT_LIMIT,
    node_budget: int | None = None,
) -> ExactSearchResult:
    """Maximum-measure order-k structure by branch and bound.

    Points are assigned in ascending index order to a cluster or discarded;
    a point joins an open cluster or opens the next one, so clusters are
    ordered by smallest member. An open cluster's room is the unassigned
    points within 2r of its members and at least r from all other members,
    the points that may join it; the unopened clusters share one room, the
    points at least r from every member. What a cluster gains from a node on
    is a clique of the 2r graph inside its room, so at most the colours of a
    greedy colouring of it, the shared room's counted once per unopened
    cluster, and all clusters together gain at most the union of the rooms.
    A node is pruned when the measure plus the smaller of those two gains
    cannot beat the incumbent. Only strictly better assignments replace it,
    so the witness is the first optimum in lexicographic assignment order
    whatever the bound. ``nodes_explored`` counts the assignment prefixes
    visited, pruned ones included.

    An exhausted ``node_budget`` returns the best structure found so far,
    flagged non-optimal. Instances larger than ``max_points`` are refused.
    """
    n = space.n
    k = params.k
    r = params.r
    refusal = _refusal(n, max_points)
    if refusal is not None:
        raise SearchLimitError(refusal)
    view = space._scale(r)
    share, close = view.share, view.close

    best_measure, best_masks, nodes = -1, (), 0

    def rec(p: int, measure: int, room: list[int], masks: tuple[int, ...], shared: int) -> None:
        # room[c], masks[c]: the points >= p that open cluster c can still take, and its members;
        # shared: the room of every unopened cluster, 0 once all k are open.
        nonlocal best_measure, best_masks, nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise _NodeBudget
        if p == n:
            if measure > best_measure:
                best_measure, best_masks = measure, masks
            return
        slack = best_measure - measure
        reach, unopened = shared, k - len(room)
        for free in room:
            reach |= free
        if reach.bit_count() <= slack or unopened * _color_count(shared, share) + sum(
            [_color_count(free, share) for free in room]
        ) <= slack:
            return
        bit = 1 << p
        apart = ~(close[p] | bit)  # what a member p leaves to the other clusters
        for c in range(len(room)):
            if room[c] & bit:
                rec(p + 1, measure + 1, [
                    free & (share[p] & ~bit if d == c else apart) for d, free in enumerate(room)
                ], masks[:c] + (masks[c] | bit,) + masks[c + 1:], shared & apart)
        if shared & bit:  # p opens the next cluster
            rec(p + 1, measure + 1, [free & apart for free in room] + [shared & share[p] & ~bit],
                masks + (bit,), shared & apart if unopened > 1 else 0)
        rec(p + 1, measure, [free & ~bit for free in room], masks, shared & ~bit)

    optimal = True
    try:
        rec(0, 0, [], (), (1 << n) - 1)
    except _NodeBudget:
        optimal = False
    opened = tuple(frozenset(_bits(m)) for m in best_masks)  # the clusters never opened are empty
    return ExactSearchResult(
        structure=ClusterStructure(clusters=opened + (frozenset(),) * (k - len(opened))),
        optimal=optimal,
        nodes_explored=nodes,
    )


class StructureViolation(Record):
    """One failed structure constraint with its witnessing points."""

    kind: str  # "diameter", "separation", or "overlap"
    clusters: tuple[int, ...]
    points: tuple[int, ...]
    distance: Fraction | None


class StructureValidation(Record):
    violations: tuple[StructureViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_structure(
    space: FiniteSemimetricSpace, structure: ClusterStructure, params: ScaleParams
) -> StructureValidation:
    """Check diameter, pairwise separation, and disjointness, reporting every
    violation with a witness pair. Violations are data, not errors."""
    view = space._scale(params.r)
    share, close = view.share, view.close
    violations: list[StructureViolation] = []
    clusters = structure.clusters
    # An empty cluster has no pair inside it, shares no point and is near no cluster.
    occupied = list(compress(range(len(clusters)), clusters))
    for i in occupied:
        members = _mask(clusters[i])
        for a in _bits(members):
            for b in _bits(members & ~share[a] & ~((2 << a) - 1)):
                violations.append(
                    StructureViolation(
                        kind="diameter",
                        clusters=(i,),
                        points=(a, b),
                        distance=space.rho(a, b),
                    )
                )
    for i, j in combinations(occupied, 2):
        shared = clusters[i] & clusters[j]
        if shared:
            violations.append(
                StructureViolation(
                    kind="overlap",
                    clusters=(i, j),
                    points=tuple(sorted(shared)),
                    distance=None,
                )
            )
            continue
        others = _mask(clusters[j])
        near = [(space.rho(u, v), u, v) for u in clusters[i] for v in _bits(close[u] & others)]
        if near:
            d, u, v = min(near)  # the closest pair, ties to the smallest indices
            violations.append(
                StructureViolation(kind="separation", clusters=(i, j), points=(u, v), distance=d)
            )
    return StructureValidation(violations=tuple(violations))
