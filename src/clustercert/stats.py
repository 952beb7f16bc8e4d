"""Distance-distribution statistics: medium-edge and anticlique counts,
elementary symmetric polynomials, and the observed density parameters.

All counting is exact big-integer arithmetic; densities are exact rationals
so that downstream inequality checks are decidable at boundary cases.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Sequence

from .space import FiniteSemimetricSpace, Record, ScaleParams, _is_int, _mask, as_fraction

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


def _pair_count(space: FiniteSemimetricSpace, rows: Sequence[int], points) -> int:
    """Pairs p < q of the subset (default: all points) with bit q of
    ``rows[p]`` set, for symmetric ``rows``."""
    pts = space.points() if points is None else set(points)
    mask = _mask(pts)
    return sum(((rows[p] & mask) >> (p + 1)).bit_count() for p in pts)


def medium_edge_count(space: FiniteSemimetricSpace, r, points: Iterable[int] | None = None) -> int:
    """Number of unordered pairs at distance in (r, 3r], optionally restricted
    to a point subset. Equals half the ordered-pair measure under the uniform
    counting measure."""
    r = as_fraction(r)
    medium = [reach & ~near for reach, near in zip(space.within(3 * r), space.within(r))]
    return _pair_count(space, medium, points)


def long_edge_count(space: FiniteSemimetricSpace, r, points: Iterable[int] | None = None) -> int:
    """Number of unordered pairs at distance above 3r, optionally restricted
    to a point subset."""
    r = as_fraction(r)
    return _pair_count(space, [~row for row in space.within(3 * r)], points)


def anticlique_count(space: FiniteSemimetricSpace, r, s: int) -> int:
    """Number of s-point subsets that are pairwise at distance strictly above r.

    This is the subset count; the ordered-tuple measure is s! times larger
    (tuples with repeats are impossible since self-distance 0 <= r). Far is
    the complement of near (``within(r)``), so these are the independent
    sets of the near graph. Such a set is one (maybe empty) set per near
    component, so T_s = [x^s] of the product of the components' independence
    polynomials; a near-clique of m points gives the factor 1 + m*x.
    Components come from a bitset search; each one's sets of every order up
    to s are counted by a backtrack in ascending index order that prunes a
    partial subset as soon as too few candidates remain. That backtrack
    alone counts a one-component space.
    """
    if not _is_int(s) or s < 0:
        raise ValueError(f"anticlique order must be a non-negative integer, got {s!r}")
    if s == 0:
        return 1
    n = space.n
    if s > n:
        return 0
    near = space.within(r)
    far = [~row for row in near]

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

    every = left = (1 << n) - 1
    poly = [1] + [0] * s
    while left:
        # Grow the component of the lowest unvisited point, one layer a pass.
        comp = frontier = left & -left
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= near[low.bit_length() - 1]
            frontier = reach & ~comp
            comp |= frontier
        if comp == every:
            return count(comp, s)
        left &= ~comp
        factor = [count(comp, i) for i in range(1, min(s, comp.bit_count()) + 1)]
        # poly *= 1 + sum factor[i-1] x^i; descending j reads old coefficients.
        for j in range(s, 0, -1):
            for i, f in enumerate(factor[:j], 1):
                poly[j] += poly[j - i] * f
    return poly[s]


def elementary_symmetric(values: Sequence[int], s: int) -> int:
    """e_s(values): the sum over s-subsets of products, via the
    degree-truncated product recurrence. Exact integer arithmetic."""
    if not _is_int(s) or s < 0:
        raise ValueError(f"degree must be a non-negative integer, got {s!r}")
    vals = list(values)
    for idx, v in enumerate(vals):
        if not _is_int(v) or v < 0:
            raise ValueError(f"value {idx} must be a non-negative integer, got {v!r}")
    coeffs = [0] * (s + 1)
    coeffs[0] = 1
    for v in vals:
        for j in range(min(s, len(coeffs) - 1), 0, -1):
            coeffs[j] += v * coeffs[j - 1]
    return coeffs[s]


def observed_parameters(space: FiniteSemimetricSpace, params: ScaleParams) -> ObservedParams:
    """Exact counts M, T_k, T_{k+1} and the densities that make the defining
    inequalities tight. The empty space yields all-zero parameters."""
    n = space.n
    k = params.k
    m = medium_edge_count(space, params.r)
    t_k = anticlique_count(space, params.r, k)
    t_k1 = anticlique_count(space, params.r, k + 1)
    if n == 0:
        zero = Fraction(0)
        return ObservedParams(zero, zero, zero, 0, 0, 0)
    return ObservedParams(
        delta_hat=Fraction(2 * m, n * n),
        beta_hat=Fraction(factorial(k + 1) * t_k1, n ** (k + 1)),
        alpha_hat=Fraction(factorial(k) * t_k, n**k),
        medium_edges=m,
        anticliques_k=t_k,
        anticliques_k_plus_1=t_k1,
    )
