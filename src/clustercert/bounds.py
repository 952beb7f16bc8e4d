"""Measure lower bounds for cluster structures and certificate assembly.

Everything decidable stays in exact rationals: the auxiliary parameter
``lambda_param``, the precondition inequality, and the bound-vs-measure
verdicts (square roots are eliminated by squaring). Only the reported bound
values themselves force irrational evaluation (sqrt, (k+1)-th roots, the
constant e); those are computed in a private 40-digit Decimal context and
returned as floats.
"""
from __future__ import annotations

import decimal
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from math import factorial

from . import clustering, stats
from .space import FiniteSemimetricSpace, Record, ScaleParams, _labels, _positive_order, as_fraction

__all__ = [
    "BoundInputs",
    "BoundEvaluation",
    "Verdict",
    "BoundCertificate",
    "lambda_param",
    "alpha_prime",
    "precondition_check",
    "psi_bound",
    "legacy_bound",
    "measure_meets_psi",
    "build_certificate",
]

_CONTEXT = decimal.Context(prec=40)  # copied by each localcontext, so never changed
_BUDGET_NOTE = "node budget exhausted; best structure found so far"


class BoundInputs(Record):
    """Free density parameters (alpha, beta, delta) at order k.

    alpha must be strictly positive for the improved bound to be defined;
    alpha = 0 is representable so that observed parameters can flow in
    unconditionally, and then lambda, alpha' and psi are None.
    """

    alpha: Fraction
    beta: Fraction
    delta: Fraction
    k: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        object.__setattr__(self, "beta", as_fraction(self.beta))
        object.__setattr__(self, "delta", as_fraction(self.delta))
        if self.alpha < 0 or self.beta < 0 or self.delta < 0:
            raise ValueError("alpha, beta, delta must be non-negative")
        _positive_order(self.k)


def lambda_param(inputs: BoundInputs) -> Fraction | None:
    """lam = (k+1)/2 * delta + (k+1)^2/2 * beta^2/alpha^2, exact; None at alpha = 0."""
    return psi_bound(inputs).lam


def alpha_prime(inputs: BoundInputs) -> Fraction | None:
    """alpha' = alpha - k^3/2 * lam, the effective denominator of the bound;
    None at alpha = 0."""
    return psi_bound(inputs).alpha_prime


def precondition_check(inputs: BoundInputs) -> bool:
    """Exact, non-strict test of delta + (k+1) beta^2/alpha^2 <= 2/(k+1)^3.

    Returns False when alpha = 0 (the left side is undefined, so the bound
    machinery is inapplicable rather than erroneous).
    """
    return psi_bound(inputs).precondition_ok


class BoundEvaluation(Record):
    """The improved bound psi for one input: every gate, decided once, and
    the coefficient itself.

    ``lam`` and ``alpha_prime`` are None exactly when alpha = 0, and
    ``precondition_ok`` is False then. ``reason`` names the first failing
    gate, in the order alpha = 0, precondition, alpha' <= 0; it is None
    exactly when the bound is defined, that is, exactly when ``penalty`` =
    k!(k+2) beta/alpha' is set and ``value`` = psi is not None.
    """

    inputs: BoundInputs
    lam: Fraction | None
    alpha_prime: Fraction | None
    precondition_ok: bool
    reason: str | None
    penalty: Fraction | None = None

    @property
    def applicable(self) -> bool:
        return self.reason is None

    @cached_property
    def value(self) -> float | None:
        """psi = 1 - sqrt(delta)*(2k+1) - penalty, evaluated on first read:
        the gates and the verdicts never need it."""
        if self.penalty is None:
            return None
        k = self.inputs.k
        with decimal.localcontext(_CONTEXT) as ctx:
            root = (2 * k + 1) * _sqrt(self.inputs.delta, ctx)
            return float(Decimal(1) - root - _dec(self.penalty, ctx))

    @property
    def vacuous(self) -> bool:
        """psi is defined but not positive (reported anyway, so certificates
        show why a bound fails to bind)."""
        return self.value is not None and self.value <= 0

    def meets(self, measure: int, n: int) -> bool | None:
        """Exact decision of measure >= psi * n, with the square root eliminated.

        measure/n >= 1 - sqrt(delta)(2k+1) - k!(k+2)beta/alpha' is equivalent
        to (2k+1) sqrt(delta) >= q for q = 1 - k!(k+2)beta/alpha' - measure/n,
        which holds iff q <= 0 or (2k+1)^2 delta >= q^2. Returns None when the
        bound is undefined or n = 0.
        """
        if n == 0 or self.reason is not None:
            return None
        q = 1 - self.penalty - Fraction(measure, n)
        if q <= 0:
            return True
        return (2 * self.inputs.k + 1) ** 2 * self.inputs.delta >= q * q


def psi_bound(inputs: BoundInputs) -> BoundEvaluation:
    """The bound record: decide alpha > 0, the precondition and alpha' > 0
    for ``inputs``, and set the penalty k!(k+2)*beta/alpha' of psi when all
    pass; ``value`` is then psi."""
    if inputs.alpha == 0:
        return BoundEvaluation(inputs, None, None, False, "alpha is not separated from zero")
    k = inputs.k
    lam = (
        Fraction(k + 1, 2) * inputs.delta
        + Fraction((k + 1) ** 2, 2) * inputs.beta**2 / inputs.alpha**2
    )
    a_prime = inputs.alpha - Fraction(k**3, 2) * lam
    # The precondition's left side is 2 lam/(k+1), so it reads lam <= 1/(k+1)^2.
    ok = lam <= Fraction(1, (k + 1) ** 2)
    reason = None if ok else "precondition inequality fails"
    if ok and a_prime <= 0:
        reason = "alpha - k^3/2 * lambda is not positive"
    if reason:
        return BoundEvaluation(inputs, lam, a_prime, ok, reason)
    penalty = factorial(k) * (k + 2) * inputs.beta / a_prime
    return BoundEvaluation(inputs, lam, a_prime, ok, None, penalty)


def _dec(q: Fraction, ctx: decimal.Context) -> Decimal:
    return ctx.divide(Decimal(q.numerator), Decimal(q.denominator))


def _sqrt(q: Fraction, ctx: decimal.Context) -> Decimal:
    return _dec(q, ctx).sqrt(context=ctx)


def _nth_root(q: Fraction, m: int, ctx: decimal.Context) -> Decimal:
    if q == 0:
        return Decimal(0)
    d = _dec(q, ctx)
    return ctx.exp(ctx.divide(ctx.ln(d), Decimal(m)))


def legacy_bound(beta, delta, k: int) -> float:
    """1 - sqrt(delta)*(2k+1) - (k(e+1)+1) * beta^(1/(k+1))."""
    beta = as_fraction(beta)
    delta = as_fraction(delta)
    if beta < 0 or delta < 0:
        raise ValueError("beta and delta must be non-negative")
    _positive_order(k)
    with decimal.localcontext(_CONTEXT) as ctx:
        coeff = k * (ctx.exp(Decimal(1)) + 1) + 1
        value = Decimal(1) - (2 * k + 1) * _sqrt(delta, ctx) - coeff * _nth_root(beta, k + 1, ctx)
        return float(value)


def measure_meets_psi(measure: int, n: int, inputs: BoundInputs) -> bool | None:
    """Exact decision of measure >= psi * n; see :meth:`BoundEvaluation.meets`."""
    return psi_bound(inputs).meets(measure, n)


class Verdict(Record):
    """Named inequality outcome recorded in a certificate."""

    name: str
    holds: bool
    detail: str = ""


class BoundCertificate(Record):
    """Full analysis record for one space at one scale.

    Every part is derived from (space, params) and computed on first read,
    then kept: the observed parameters, the improved-bound record ``bounds``,
    the legacy bound, the greedy decomposition and structure, the exact
    search result, both validations and a ledger of named inequality
    outcomes. A reader pays only for the parts it reads. ``exact`` is None
    when ``exact_limit`` refuses the search; the refusal, or an exhausted
    node budget, is recorded in ``exact_note`` rather than aborting the
    certificate.
    """

    space: FiniteSemimetricSpace
    params: ScaleParams
    exact_limit: int
    node_budget: int | None

    @cached_property
    def observed(self) -> stats.ObservedParams:
        return stats.observed_parameters(self.space, self.params)

    @cached_property
    def bounds(self) -> BoundEvaluation:
        """The bound gates at the observed densities."""
        obs = self.observed
        inputs = BoundInputs(obs.alpha_hat, obs.beta_hat, obs.delta_hat, self.params.k)
        return psi_bound(inputs)

    @cached_property
    def legacy(self) -> float:
        return legacy_bound(self.observed.beta_hat, self.observed.delta_hat, self.params.k)

    @cached_property
    def decomposition(self) -> clustering.GreedyDecomposition:
        return clustering.greedy_decomposition(self.space, self.params)

    @cached_property
    def greedy(self) -> clustering.ClusterStructure:
        return clustering.greedy_structure(self.decomposition, self.params.k)

    @cached_property
    def greedy_validation(self) -> clustering.StructureValidation:
        return clustering.validate_structure(self.space, self.greedy, self.params)

    @cached_property
    def exact(self) -> clustering.ExactSearchResult | None:
        if clustering._refusal(self.space.n, self.exact_limit) is not None:
            return None
        return clustering.exact_structure(
            self.space, self.params, max_points=self.exact_limit, node_budget=self.node_budget
        )

    @cached_property
    def exact_validation(self) -> clustering.StructureValidation | None:
        if self.exact is None:
            return None
        return clustering.validate_structure(self.space, self.exact.structure, self.params)

    @cached_property
    def exact_note(self) -> str | None:
        """Why ``exact`` is missing or not optimal, or None. The verdicts and the
        checks P1 and T1 read the exact measure only when this is None."""
        if self.exact is None:
            return clustering._refusal(self.space.n, self.exact_limit)
        return None if self.exact.optimal else _BUDGET_NOTE

    @cached_property
    def verdicts(self) -> tuple[Verdict, ...]:
        n = self.space.n
        greedy, exact, ev = self.greedy, self.exact, self.bounds
        verdicts = [
            Verdict(
                name="greedy_structure_valid",
                holds=self.greedy_validation.ok,
                detail=f"{len(self.greedy_validation.violations)} violation(s)",
            )
        ]
        measures = {"greedy": greedy.measure}
        if self.exact_note is None:  # only a proven optimum is compared
            measures["exact"] = exact.measure
            verdicts.append(
                Verdict(
                    name="greedy_measure_le_exact_measure",
                    holds=greedy.measure <= exact.measure,
                    detail=f"{greedy.measure} <= {exact.measure}",
                )
            )
        if ev.applicable:  # never at n = 0, where alpha = 0
            for name, measure in measures.items():
                verdicts.append(
                    Verdict(
                        name=f"{name}_measure_ge_psi_times_n",
                        holds=ev.meets(measure, n),
                        detail=f"measure {measure}, psi*n ~ {ev.value * n:.6g}",
                    )
                )
        return tuple(verdicts)

    def _structure_obj(self, structure, validation) -> dict:
        return {
            "clusters": [_labels(self.space, c) for c in structure.clusters],
            "measure": structure.measure,
            "valid": validation.ok,
        }

    def to_obj(self) -> dict:
        """JSON-ready form: exact rationals as p/q strings, sorted content."""
        obs = self.observed
        ev = self.bounds
        exact = {"measure": None, "optimal": None, "clusters": None, "valid": None}
        if self.exact is not None:
            exact = self._structure_obj(self.exact.structure, self.exact_validation)
            exact["optimal"] = self.exact.optimal
        exact["note"] = self.exact_note
        return {
            "n": self.space.n,
            "r": str(self.params.r),
            "k": self.params.k,
            "counts": {
                "M": obs.medium_edges,
                "Tk": obs.anticliques_k,
                "Tk1": obs.anticliques_k_plus_1,
            },
            "observed": {
                "delta": str(obs.delta_hat),
                "beta": str(obs.beta_hat),
                "alpha": str(obs.alpha_hat),
            },
            "lambda": None if ev.lam is None else str(ev.lam),
            "alphaPrime": None if ev.alpha_prime is None else str(ev.alpha_prime),
            "precondition": ev.precondition_ok,
            "preconditionReason": None if ev.precondition_ok else ev.reason,
            "psi": ev.value,
            "psiVacuous": ev.vacuous,
            "psiReason": ev.reason,
            "legacy": self.legacy,
            "greedy": self._structure_obj(self.greedy, self.greedy_validation),
            "exact": exact,
            "verdicts": [
                {"name": v.name, "holds": v.holds, "detail": v.detail} for v in self.verdicts
            ],
        }


def build_certificate(
    space: FiniteSemimetricSpace,
    params: ScaleParams,
    *,
    exact_limit: int = clustering.DEFAULT_EXACT_LIMIT,
    node_budget: int | None = None,
) -> BoundCertificate:
    """The analysis record of ``space`` at scale ``params``: observed
    parameters, greedy decomposition, exact search (unless ``exact_limit``
    refuses it) and both bounds, each computed on first read.

    Kept in the space's own memo, keyed by (params, exact_limit, node_budget), so
    the certificate and every verify check on one space object share one record
    and compute each part once, and the record goes when the space goes.
    """
    memo, key = space._memo, (params, exact_limit, node_budget)
    # setdefault keeps the first record stored, so threads that race to build one share it.
    return memo.get(key) or memo.setdefault(key, BoundCertificate(space, *key))
