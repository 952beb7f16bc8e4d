"""Property-check harness: each catalogued inequality is evaluated exactly
against brute-force counts on generated instances.

The check catalogue (P1..P6, T1) covers the block-witness arithmetic, the
medium-edge lower bound for bounded-diameter spaces, the thin-kernel part
bound, the two symmetric-polynomial anticlique bounds, the head-sum bound on
sorted part sizes, and the measure lower bound for both the exact and the
greedy structure. Applicability preconditions are decided exactly from the
observed parameters; an inapplicable check is a result, not an error.

The checked inequalities are theorems for distance functions satisfying the
triangle inequality. Unrestricted semimetrics admit genuine counterexamples
(three points at distances 0.5r, 0.5r, 3r already defeat the P2 bound), so
the suite generators only emit triangle-satisfying instances: block
witnesses, noise-free planted blocks, and random matrices closed under
shortest paths.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from . import bounds, stats
from .clustering import DEFAULT_EXACT_LIMIT
from .generators import TightInstanceSpec, planted_instance, random_metric_instance, tight_instance
from .space import (
    FiniteSemimetricSpace, Record, ScaleParams, _is_int, dump_space, load_space
)

__all__ = [
    "PROP_IDS",
    "CheckResult",
    "SuiteConfig",
    "PropTally",
    "FailureRecord",
    "VerificationReport",
    "check_proposition",
    "run_suite",
    "replay_failure",
]

_R_PALETTE = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 4))


class CheckResult(Record):
    """Outcome of one check: exact lhs/rhs and the verdict, or, with
    ``passed`` None, the reason the check does not apply.
    ``witness`` holds what a failing check found, as (name, value) pairs."""

    prop_id: str
    passed: bool | None
    lhs: Fraction | int | None
    rhs: Fraction | int | None
    note: str = ""
    witness: tuple[tuple[str, int], ...] | None = None

    @property
    def applicable(self) -> bool:
        return self.passed is not None


def _not_applicable(prop_id: str, note: str) -> CheckResult:
    return CheckResult(prop_id, None, None, None, note)


def _check_p1(cert, tight):
    # Block-witness arithmetic: no medium edges, the exact product count of
    # top-order anticliques, and an optimal-measure gap of exactly one small
    # block. Only decidable when the construction data is known.
    params = cert.params
    if tight is None:
        return _not_applicable("P1", "requires the block-witness construction data")
    if tight.r != params.r or tight.k != params.k:
        return _not_applicable("P1", "scale parameters do not match the construction")
    n = cert.space.n
    if n != tight.n:
        return _not_applicable("P1", "space size does not match the construction")
    if cert.exact_note is not None:
        return _not_applicable("P1", cert.exact_note)
    obs = cert.observed
    m_count, t_top = obs.medium_edges, obs.anticliques_k_plus_1
    t_expected = tight.m0 * tight.m**params.k
    gap = n - cert.exact.measure
    passed = m_count == 0 and t_top == t_expected and gap == tight.m
    witness = None if passed else (
        ("mediumEdges", m_count),
        ("anticliquesTop", t_top),
        ("anticliquesTopExpected", t_expected),
        ("gap", gap),
        ("gapExpected", tight.m),
    )
    return CheckResult("P1", passed, gap, tight.m, witness=witness)


def _check_p2(cert, tight):
    # With diameter at most 3r, the medium-edge count is at least
    # max(n, 2|B|) * |A \ B| / 2 for B a maximum 2r-cluster.
    n = cert.space.n
    if stats.long_edge_count(cert.space, cert.params.r):
        return _not_applicable("P2", "space diameter exceeds 3r")
    # Greedy step 0 is a maximum 2r-cluster of the whole space.
    parts = cert.decomposition.parts
    b = parts[0].x if parts else frozenset()
    lhs = cert.observed.medium_edges
    rhs = Fraction(max(n, 2 * len(b)) * (n - len(b)), 2)
    return CheckResult("P2", lhs >= rhs, lhs, rhs)


def _check_p3(cert, tight):
    # Parts with thin kernels, (k+1)|X_i| <= |Z_i|, have total size at most
    # (k+1) * beta_hat / alpha_hat * n. Only alpha_hat > 0 is required.
    ev = cert.bounds
    if ev.lam is None:
        return _not_applicable("P3", ev.reason)
    decomp = cert.decomposition
    lhs = sum(len(decomp.parts[i].z) for i in decomp.i1)
    rhs = (cert.params.k + 1) * ev.inputs.beta / ev.inputs.alpha * cert.space.n
    return CheckResult("P3", lhs <= rhs, lhs, rhs)


def _check_p4(cert, tight):
    # The top-order anticlique count dominates the elementary symmetric
    # polynomial of the sorted part sizes, scaled by 1/(k+1)!.
    k = cert.params.k
    lhs = cert.observed.anticliques_k_plus_1
    e_top = stats.elementary_symmetric(cert.decomposition.w, k + 1)
    rhs = Fraction(e_top, factorial(k + 1)) if e_top else Fraction(0)
    return CheckResult("P4", lhs >= rhs, lhs, rhs)


def _check_p5(cert, tight):
    # Under the precondition, the order-k anticlique count exceeds e_k(W) by
    # at most k*lambda_hat*n^k / (2(k-2)!). For k = 1 no pair contraction is
    # possible, so the slack term is zero.
    k = cert.params.k
    ev = cert.bounds
    if not ev.precondition_ok:
        return _not_applicable("P5", ev.reason)
    slack = Fraction(0)
    if k >= 2:
        slack = Fraction(k, 2) * ev.lam * cert.space.n**k / factorial(k - 2)
    lhs = cert.observed.anticliques_k
    rhs = stats.elementary_symmetric(cert.decomposition.w, k) + slack
    return CheckResult("P5", lhs <= rhs, lhs, rhs)


def _check_p6(cert, tight):
    # The k largest part sizes sum to at least (1 - (k+1)! beta/alpha') * n.
    k = cert.params.k
    ev = cert.bounds
    if ev.reason is not None:
        return _not_applicable("P6", ev.reason)
    lhs = sum(cert.decomposition.w[:k])
    rhs = (1 - Fraction(factorial(k + 1)) * ev.inputs.beta / ev.alpha_prime) * cert.space.n
    return CheckResult("P6", lhs >= rhs, lhs, rhs)


def _check_t1(cert, tight):
    # Both the exact optimum and the greedy structure built from the k
    # largest parts have measure at least psi * n. Decided exactly: the
    # square root is eliminated by squaring inside BoundEvaluation.meets.
    n = cert.space.n
    ev = cert.bounds
    if ev.reason is not None:  # always so at n = 0, where alpha = 0
        return _not_applicable("T1", ev.reason)
    if cert.exact_note is not None:
        return _not_applicable("T1", cert.exact_note)
    exact = cert.exact
    greedy = cert.greedy
    passed = ev.meets(greedy.measure, n) and ev.meets(exact.measure, n)
    witness = None if passed else (("greedyMeasure", greedy.measure), ("exactMeasure", exact.measure))
    return CheckResult(
        "T1",
        passed,
        min(greedy.measure, exact.measure),
        Fraction(ev.value) * n,
        note="rhs is a high-precision evaluation of psi*n; the verdict is decided exactly",
        witness=witness,
    )


# The catalogue, in suite order. Every check reads the analysis record of its
# instance and, for P1 only, the block-witness construction data.
_CHECKS = {
    "P1": _check_p1,
    "P2": _check_p2,
    "P3": _check_p3,
    "P4": _check_p4,
    "P5": _check_p5,
    "P6": _check_p6,
    "T1": _check_t1,
}
PROP_IDS = tuple(_CHECKS)


def check_proposition(
    space: FiniteSemimetricSpace,
    params: ScaleParams,
    prop_id: str,
    *,
    tight: TightInstanceSpec | None = None,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    node_budget: int | None = None,
) -> CheckResult:
    """Evaluate one catalogued check on a space, exactly, reading the
    instance's memoized analysis record."""
    check = _CHECKS.get(prop_id)
    if check is None:
        raise ValueError(f"unknown check id {prop_id!r} (expected one of {PROP_IDS})")
    cert = bounds.build_certificate(space, params, exact_limit=exact_limit, node_budget=node_budget)
    return check(cert, tight)


# ---------------------------------------------------------------------------
# Randomized suite
# ---------------------------------------------------------------------------

_FLAVORS = ("tight", "planted", "metric")


class SuiteConfig(Record):
    seed: int = 0
    trials: int = 200
    max_n: int = 10
    k_values: tuple[int, ...] = (1, 2, 3)
    exact_limit: int = DEFAULT_EXACT_LIMIT
    node_budget: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "k_values", tuple(self.k_values))
        for name in ("seed", "trials", "max_n", "exact_limit", "node_budget"):
            value = getattr(self, name)
            if not _is_int(value) and (name != "node_budget" or value is not None):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.trials < 0:
            raise ValueError("trials must be non-negative")
        if self.max_n < 1:
            raise ValueError("max_n must be at least 1")
        if self.max_n > self.exact_limit:
            raise ValueError(
                f"max_n={self.max_n} exceeds the exact-search limit {self.exact_limit}"
            )
        if not self.k_values or any(not _is_int(k) or k < 1 for k in self.k_values):
            raise ValueError("k_values must be positive integers")


class PropTally(Record):
    prop_id: str
    passed: int
    failed: int

    @property
    def applicable(self) -> int:
        return self.passed + self.failed


class FailureRecord(Record):
    """A failed check and everything needed to reproduce it: the scale
    parameters, the space in file format and, for P1, the block-witness
    construction data. Replaying it gives a result equal to ``result``."""

    trial: int
    params: ScaleParams
    result: CheckResult
    space_text: str
    tight: TightInstanceSpec | None = None

    def to_obj(self) -> dict:
        result = self.result
        obj = {
            "trial": self.trial,
            "prop": result.prop_id,
            "k": self.params.k,
            "r": str(self.params.r),
            "lhs": str(result.lhs),
            "rhs": str(result.rhs),
            "space": self.space_text,
            "note": result.note,
        }
        if self.tight is not None:
            t = self.tight
            obj["tight"] = {"k": t.k, "m": t.m, "m0": t.m0, "r": str(t.r)}
        if result.witness is not None:
            obj["witness"] = dict(result.witness)
        return obj


class VerificationReport(Record):
    config: SuiteConfig
    tallies: tuple[PropTally, ...]
    failures: tuple[FailureRecord, ...]
    notes: tuple[str, ...]

    @property
    def failure_count(self) -> int:
        return len(self.failures)

    def to_obj(self) -> dict:
        config = self.config
        return {
            "seed": config.seed,
            "trials": config.trials,
            "maxN": config.max_n,
            "kValues": list(config.k_values),
            "generatorMix": list(_FLAVORS),
            "exactLimit": config.exact_limit,
            "tallies": {
                t.prop_id: {
                    "applicable": t.applicable,
                    "passed": t.passed,
                    "failed": t.failed,
                }
                for t in self.tallies
            },
            "failures": [f.to_obj() for f in self.failures],
            "failureCount": self.failure_count,
            "notes": list(self.notes),
        }


def _random_composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` positive integers, uniformly over cut
    positions."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    edges = [0] + cuts + [total]
    return [edges[i + 1] - edges[i] for i in range(parts)]


def _generate_instance(flavor: str, rng: random.Random, k: int, max_n: int):
    """One deterministic instance in the triangle-inequality domain."""
    r = rng.choice(_R_PALETTE)
    if flavor == "tight" and max_n >= k + 1:
        m = rng.randint(1, max_n // (k + 1))
        m0 = rng.randint(m, max_n - k * m)
        spec = TightInstanceSpec(k=k, m=m, m0=m0, r=r)
        return tight_instance(spec), spec, r
    if flavor == "planted" and max_n >= k:
        total = rng.randint(k, max_n)
        sizes = _random_composition(rng, total, k)
        return planted_instance(k, sizes, 0, r, rng.randrange(2**32)), None, r
    n = rng.randint(1, max_n)
    return random_metric_instance(n, r, rng.randrange(2**32)), None, r


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Run the full check catalogue over seeded instances.

    Deterministic per config: the same seed yields the identical report.
    Exact-search budget exhaustion inside a trial is reported in ``notes``
    and the affected check counts as not applicable, never as a failure.
    """
    counts = {pid: [0, 0] for pid in PROP_IDS}
    failures: list[FailureRecord] = []
    notes: list[str] = []
    for trial in range(config.trials):
        rng = random.Random(config.seed * 1_000_003 + trial)
        flavor = _FLAVORS[trial % len(_FLAVORS)]
        k = rng.choice(config.k_values)
        space, tight_spec, r = _generate_instance(flavor, rng, k, config.max_n)
        params = ScaleParams(r=r, k=k)
        for prop_id in PROP_IDS:
            if prop_id == "P1" and tight_spec is None:
                continue
            result = check_proposition(
                space,
                params,
                prop_id,
                tight=tight_spec,
                exact_limit=config.exact_limit,
                node_budget=config.node_budget,
            )
            if not result.applicable:
                if result.note == bounds._BUDGET_NOTE:
                    notes.append(f"trial {trial}: {prop_id}: {result.note}")
                continue
            if result.passed:
                counts[prop_id][0] += 1
            else:
                counts[prop_id][1] += 1
                tight = tight_spec if prop_id == "P1" else None
                failures.append(FailureRecord(trial, params, result, dump_space(space), tight))
    tallies = tuple(PropTally(pid, *counts[pid]) for pid in PROP_IDS)
    return VerificationReport(
        config=config,
        tallies=tallies,
        failures=tuple(failures),
        notes=tuple(notes),
    )


def replay_failure(record: FailureRecord, *, exact_limit: int | None = None) -> CheckResult:
    """Re-load a failure's embedded instance and re-run its check. Without an
    ``exact_limit``, the search admits the recorded space, which the recording
    run searched."""
    space = load_space(record.space_text)
    if exact_limit is None:
        exact_limit = max(DEFAULT_EXACT_LIMIT, space.n)
    return check_proposition(
        space, record.params, record.result.prop_id, tight=record.tight, exact_limit=exact_limit
    )
