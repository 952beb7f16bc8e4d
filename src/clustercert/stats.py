"""Distance-distribution statistics: medium-edge and anticlique counts,
elementary symmetric polynomials, and the observed density parameters.

All counting is exact big-integer arithmetic; densities are exact rationals
so that downstream inequality checks are decidable at boundary cases.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import factorial

from .space import FiniteSemimetricSpace, Record, ScaleParams, _bits, _is_int, _mask

__all__ = [
    "ObservedParams",
    "medium_edge_count",
    "long_edge_count",
    "anticlique_count",
    "elementary_symmetric",
    "observed_parameters",
]


class ObservedParams(Record):
    """Tight observed densities of a space at scale (r, k).

    ``delta_hat`` is the medium-edge density 2*M/n^2, ``beta_hat`` the
    (k+1)-anticlique density (k+1)!*T_{k+1}/n^(k+1), and ``alpha_hat`` the
    k-anticlique density k!*T_k/n^k. With these values the defining density
    inequalities hold with equality, which makes them the strongest
    admissible parameters for bound evaluation.
    """

    delta_hat: Fraction
    beta_hat: Fraction
    alpha_hat: Fraction
    medium_edges: int
    anticliques_k: int
    anticliques_k_plus_1: int


def _subset(space: FiniteSemimetricSpace, points) -> tuple[Iterable[int], int]:
    """The points of the subset (default: all points) and their mask. A pair
    p < q of it is counted from row p of symmetric rows as bit q of
    ``(row & mask) >> (p + 1)``."""
    if points is None:
        return space.points(), (1 << space.n) - 1
    pts = set(points)
    return pts, _mask(pts)


def medium_edge_count(space: FiniteSemimetricSpace, r, points: Iterable[int] | None = None) -> int:
    """Number of unordered pairs at distance in (r, 3r], optionally restricted
    to a point subset. Equals half the ordered-pair measure under the uniform
    counting measure."""
    view = space._scale(r)
    reach, near = view.reach, view.near
    pts, mask = _subset(space, points)
    return sum([((reach[p] & ~near[p] & mask) >> (p + 1)).bit_count() for p in pts])


def long_edge_count(space: FiniteSemimetricSpace, r, points: Iterable[int] | None = None) -> int:
    """Number of unordered pairs at distance above 3r, optionally restricted
    to a point subset."""
    reach = space._scale(r).reach
    pts, mask = _subset(space, points)
    return sum([((mask & ~reach[p]) >> (p + 1)).bit_count() for p in pts])


def anticlique_count(space: FiniteSemimetricSpace, r, s: int) -> int:
    """Number of s-point subsets that are pairwise at distance strictly above r.

    This is the subset count; the ordered-tuple measure is s! times larger
    (tuples with repeats are impossible since self-distance 0 <= r). Far is
    the complement of near (``within(r)``), so these are the independent
    sets of the near graph. Such a set is one (maybe empty) set per near
    component, so T_s = [x^s] of the product of the components' independence
    polynomials; a near-clique of m points gives the factor 1 + m*x.
    The components are found on each call; one walk per component, in
    ascending index order, tallies its sets of every order up to s.
    """
    if not _is_int(s) or s < 0:
        raise ValueError(f"anticlique order must be a non-negative integer, got {s!r}")
    if s == 0:
        return 1
    n = space.n
    if s > n:
        return 0
    near = space._scale(r).near

    def walk(cand: int, size: int, tally: list[int]) -> None:
        # Each point of cand extends the current size-point set by one.
        tally[size] += cand.bit_count()
        if size + 1 < s:
            while cand:
                low = cand & -cand
                cand ^= low
                # cand now holds only points above the one just chosen.
                rest = cand & ~near[low.bit_length() - 1]
                if rest:
                    walk(rest, size + 1, tally)

    factors = []
    for comp in _components(near):
        tally = [0] * s
        walk(comp, 0, tally)
        factors.append(tally)
    return _truncated_product(factors, s)


def _components(near: Sequence[int]) -> list[int]:
    """The connected components of the graph of symmetric rows ``near``, as masks by lowest point."""
    components = []
    left = (1 << len(near)) - 1
    while left:
        # Grow the component of the lowest unvisited point, one layer a pass.
        comp = frontier = left & -left
        while frontier:
            reach = 0
            for p in _bits(frontier):
                reach |= near[p]
            frontier = reach & ~comp
            comp |= frontier
        left &= ~comp
        components.append(comp)
    return components


def _truncated_product(factors: Iterable[Sequence[int]], s: int) -> int:
    """[x^s] of the product of the polynomials 1 + f[0] x + f[1] x^2 + ...
    over ``factors``, truncated at degree s."""
    poly = [1] + [0] * s
    for factor in factors:
        # Descending j reads the old coefficients.
        for j in range(s, 0, -1):
            for i, f in enumerate(factor[:j], 1):
                poly[j] += poly[j - i] * f
    return poly[s]


def elementary_symmetric(values: Sequence[int], s: int) -> int:
    """e_s(values): the sum over s-subsets of products, the coefficient of
    x^s in the product of the factors 1 + v*x. Exact integer arithmetic."""
    if not _is_int(s) or s < 0:
        raise ValueError(f"degree must be a non-negative integer, got {s!r}")
    vals = list(values)
    for idx, v in enumerate(vals):
        if not _is_int(v) or v < 0:
            raise ValueError(f"value {idx} must be a non-negative integer, got {v!r}")
    if s > len(vals):
        return 0
    return _truncated_product([(v,) for v in vals], s)


def observed_parameters(space: FiniteSemimetricSpace, params: ScaleParams) -> ObservedParams:
    """Exact counts M, T_k, T_{k+1} and the densities that make the defining inequalities
    tight. A zero count is a zero density: all densities at n = 0, any order above n."""
    n = space.n
    k = params.k
    m = medium_edge_count(space, params.r)
    t_k = anticlique_count(space, params.r, k)
    t_k1 = anticlique_count(space, params.r, k + 1)
    return ObservedParams(
        delta_hat=Fraction(2 * m, n * n) if m else Fraction(0),
        beta_hat=Fraction(factorial(k + 1) * t_k1, n ** (k + 1)) if t_k1 else Fraction(0),
        alpha_hat=Fraction(factorial(k) * t_k, n**k) if t_k else Fraction(0),
        medium_edges=m,
        anticliques_k=t_k,
        anticliques_k_plus_1=t_k1,
    )
