"""The benchmark's workloads: seeded inputs, ops and independent output checks.

Inputs come from the library's own generators (``planted_instance``) plus the
benchmark's seeded choices, and are written as files during set-up. The checks
recompute what they need from the input matrix alone: cluster diameters and
separations, measures, the medium-pair count M, and the block layout of a
discretized space. They never call the library's analysis code.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

import clustercert as cc

from harness import digest


@dataclass
class Op:
    label: str
    commands: list  # argument lists for the clustercert CLI, run in order
    check: Callable  # (outputs: list[bytes]) -> error message or None
    output_files: list = field(default_factory=list)  # read after the commands, in order


@dataclass
class InputSet:
    ops: list
    digest: str
    size: str  # the stated input size, for ops_per_s


def _near_equal(n: int, k: int) -> list[int]:
    return [n // k + (1 if i < n % k else 0) for i in range(k)]


# ---------------------------------------------------------------------------
# Independent checks
# ---------------------------------------------------------------------------

@dataclass
class SpaceFacts:
    """What a certificate is checked against, taken from the input matrix."""

    labels: list
    dist: Callable  # (i, j) -> Fraction
    r: Fraction
    k: int
    medium_pairs: int

    @classmethod
    def from_matrix(cls, labels, matrix, r, k) -> "SpaceFacts":
        n = len(labels)
        medium = sum(
            1 for i in range(n) for j in range(i + 1, n) if r < matrix[i][j] <= 3 * r
        )
        return cls(list(labels), lambda i, j: matrix[i][j], r, k, medium)


def _cluster_error(facts: SpaceFacts, name: str, section: dict) -> str | None:
    clusters = section["clusters"]
    if clusters is None:
        return None if section["measure"] is None else f"{name}: measure without clusters"
    index = {label: i for i, label in enumerate(facts.labels)}
    try:
        groups = [[index[label] for label in cluster] for cluster in clusters]
    except KeyError as exc:
        return f"{name}: unknown label {exc}"
    if len(groups) != facts.k:
        return f"{name}: {len(groups)} clusters, expected {facts.k}"
    if sum(len(g) for g in groups) != section["measure"]:
        return f"{name}: measure {section['measure']} is not the sum of cluster sizes"
    seen: set = set()
    for g in groups:
        if seen & set(g) or len(set(g)) != len(g):
            return f"{name}: clusters overlap"
        seen |= set(g)
    two_r = 2 * facts.r
    for c, g in enumerate(groups):
        for a in range(len(g)):
            for b in range(a + 1, len(g)):
                if facts.dist(g[a], g[b]) > two_r:
                    return f"{name}: cluster {c} has diameter above 2r"
    for c in range(len(groups)):
        for e in range(c + 1, len(groups)):
            for u in groups[c]:
                for v in groups[e]:
                    if facts.dist(u, v) < facts.r:
                        return f"{name}: clusters {c} and {e} are closer than r"
    return None


def check_certificate(facts: SpaceFacts, text: bytes) -> str | None:
    """Diameter <= 2r, separation >= r, measures = cluster sizes, M recounted."""
    try:
        cert = json.loads(text)
        if cert["n"] != len(facts.labels) or cert["k"] != facts.k or Fraction(cert["r"]) != facts.r:
            return "certificate is for another space or scale"
        if cert["counts"]["M"] != facts.medium_pairs:
            return f"counts.M is {cert['counts']['M']}, recount gives {facts.medium_pairs}"
        for name in ("greedy", "exact"):
            error = _cluster_error(facts, name, cert[name])
            if error:
                return error
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed certificate: {exc!r}"
    return None


def check_verify_report(text: bytes, seed: int, trials: int) -> str | None:
    try:
        report = json.loads(text)
        if report["seed"] != seed or report["trials"] != trials:
            return "report is for another seed or trial count"
        if report["failureCount"] != 0 or report["failures"]:
            named = ", ".join(f"{f['prop']} at trial {f['trial']} (lhs {f['lhs']}, rhs {f['rhs']})"
                              for f in report["failures"])
            return f"verify found {report['failureCount']} failing check(s): {named}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"
    return None


@dataclass
class Discretized:
    """Expected result of ``discretize`` on an integer-weighted space."""

    multiplicities: list
    cross: list  # part-to-part set distances, 0 on the diagonal

    @classmethod
    def expect(cls, matrix, weights, eps: Fraction) -> "Discretized":
        # Pivot partition with radius eps/2, lowest uncovered index first.
        uncovered = list(range(len(weights)))
        parts = []
        while uncovered:
            pivot = uncovered[0]
            part = [p for p in uncovered if matrix[pivot][p] <= eps / 2]
            parts.append(part)
            uncovered = [p for p in uncovered if p not in part]
        # Integer part measures truncate to themselves; reduce by their gcd.
        measures = [sum(weights[p] for p in part) for part in parts]
        g = 0
        for m in measures:
            g = gcd(g, m)
        cross = [
            [Fraction(0) if a == b else min(matrix[u][v] for u in pa for v in pb)
             for b, pb in enumerate(parts)]
            for a, pa in enumerate(parts)
        ]
        return cls([m // g for m in measures], cross)

    def check_space(self, text: bytes):
        """Return (error, labels, block_of) for a discretized space file."""
        lines = [line for line in text.decode().splitlines() if line.strip()]
        n = sum(self.multiplicities)
        if int(lines[0]) != n or len(lines) != n + 2:
            return f"discretized space has {lines[0]} points, expected {n}", None, None
        labels = lines[1].split()
        rows = [[Fraction(tok) for tok in line.split()] for line in lines[2:]]
        if len(labels) != n or any(len(row) != n for row in rows):
            return "discretized space has a ragged label line or row", None, None
        block_of = []
        for i, row in enumerate(rows):
            first = next(j for j in range(i + 1) if row[j] == 0)
            block_of.append(block_of[first] if first < i else len(set(block_of)))
        sizes = [block_of.count(b) for b in range(len(set(block_of)))]
        if sizes != self.multiplicities:
            return f"block sizes {sizes} differ from reduced weights {self.multiplicities}", None, None
        for i, row in enumerate(rows):
            for j, d in enumerate(row):
                if d != self.cross[block_of[i]][block_of[j]]:
                    return f"distance ({i},{j}) is not the part set-distance", None, None
        return None, labels, block_of

    def facts(self, labels, block_of, r: Fraction, k: int) -> SpaceFacts:
        m = self.multiplicities
        medium = sum(
            m[a] * m[b]
            for a in range(len(m))
            for b in range(a + 1, len(m))
            if r < self.cross[a][b] <= 3 * r
        )
        return SpaceFacts(labels, lambda i, j: self.cross[block_of[i]][block_of[j]], r, k, medium)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

R = Fraction(1)


class AnalyzeLarge:
    """``analyze`` certificates of planted spaces at user scale.

    Each rung is (points, k, noise). The exact search is refused at these
    sizes, so parsing, space hashing, the counts and the greedy max-clique
    carry the time. The sizes keep an op near half a second on two vCPUs, so
    a 25 s run holds about forty ops, enough for a tail percentile; k=2 at
    noise 1/20 is left out because its greedy step alone takes tens of seconds
    from n=150.
    """

    name = "analyze-large"
    why = "analyze on planted spaces, n 100-160: parsing, counts and greedy max-clique; exact search refused"
    timeout_s = 30.0
    rungs = (
        (100, 2, "1/100"), (120, 3, "1/20"), (140, 3, "1/100"), (100, 3, "1/10"),
        (160, 3, "1/100"), (120, 2, "1/100"), (140, 3, "1/20"), (120, 3, "1/10"),
    )

    def build(self, rng: random.Random, run_dir: Path) -> InputSet:
        ops, texts = [], []
        for i, (n, k, noise) in enumerate(self.rungs):
            space = cc.planted_instance(k, _near_equal(n, k), Fraction(noise), R, rng.randrange(2**32))
            text = cc.dump_space(space)
            path = run_dir / f"planted{i}.space"
            path.write_text(text, encoding="utf-8")
            texts.append(text.encode())
            facts = SpaceFacts.from_matrix(space.labels, space.dist, R, k)
            ops.append(Op(
                label=f"analyze n={n} k={k} noise={noise}",
                commands=[["analyze", "--input", str(path), "--r", str(R), "--k", str(k)]],
                check=lambda outs, facts=facts: check_certificate(facts, outs[0]),
            ))
        size = f"planted n {min(r[0] for r in self.rungs)}-{max(r[0] for r in self.rungs)}"
        return InputSet(ops, digest(*texts), size)


class VerifySuite:
    """``verify`` runs, one seed per op: thousands of tiny spaces.

    Thirty-two seeds per cycle, so a run's median does not hang on a few
    seeds whose exact searches happen to be long.
    """

    name = "verify-suite"
    why = "verify on many tiny spaces: exact search, generators and memo hashing; the large-n kernels idle"
    timeout_s = 30.0
    seeds_per_run = 32
    trials = 60
    max_n = 14

    def build(self, rng: random.Random, run_dir: Path) -> InputSet:
        ops, args = [], []
        for _ in range(self.seeds_per_run):
            seed = rng.randrange(2**31)
            argv = ["verify", "--seed", str(seed), "--trials", str(self.trials),
                    "--max-n", str(self.max_n), "--exact-limit", str(self.max_n)]
            args.append(" ".join(argv).encode())
            ops.append(Op(
                label=f"verify seed={seed}",
                commands=[argv],
                check=lambda outs, seed=seed: check_verify_report(outs[0], seed, self.trials),
            ))
        size = f"{self.trials} trials, n <= {self.max_n}"
        return InputSet(ops, digest(*args), size)


class DiscretizeWeighted:
    """``discretize --eps 1/10`` of a weighted planted space, then ``analyze``
    of the written multiplicity space."""

    name = "discretize-weighted"
    why = "discretize then analyze: epsilon_partition, uniformize and the dump/load round trip on multiplicity blocks"
    timeout_s = 30.0
    eps = Fraction(1, 10)
    max_weight = 14
    # (parts, k, noise, total weight); the total fixes the materialized size
    rungs = ((16, 2, "1/20", 90), (18, 3, "1/20", 100), (20, 2, "1/100", 90), (22, 3, "1/20", 120),
             (16, 3, "1/10", 80), (20, 3, "1/100", 110), (18, 2, "1/100", 100), (22, 3, "1/100", 110))

    def weights(self, rng: random.Random, parts: int, total: int) -> list[int]:
        """Integer weights 1..max_weight summing to ``total``."""
        weights = [1] * parts
        for _ in range(total - parts):
            weights[rng.choice([p for p in range(parts) if weights[p] < self.max_weight])] += 1
        return weights

    def build(self, rng: random.Random, run_dir: Path) -> InputSet:
        ops, texts = [], []
        for i, (parts, k, noise, total) in enumerate(self.rungs):
            base = cc.planted_instance(k, _near_equal(parts, k), Fraction(noise), R, rng.randrange(2**32))
            weights = self.weights(rng, parts, total)
            text = cc.dump_weighted_space(cc.WeightedFiniteSpace(base, tuple(weights)))
            path = run_dir / f"weighted{i}.space"
            path.write_text(text, encoding="utf-8")
            texts.append(text.encode())
            uniform = run_dir / f"uniform{i}.space"
            expected = Discretized.expect(base.dist, weights, self.eps)
            ops.append(Op(
                label=f"discretize parts={parts} k={k} noise={noise}",
                commands=[
                    ["discretize", "--input", str(path), "--eps", str(self.eps), "--output", str(uniform)],
                    ["analyze", "--input", str(uniform), "--r", str(R), "--k", str(k)],
                ],
                check=lambda outs, e=expected, k=k: _check_discretized(e, outs, k),
                output_files=[uniform],
            ))
        size = (f"{min(r[0] for r in self.rungs)}-{max(r[0] for r in self.rungs)} weighted parts, "
                f"{min(r[3] for r in self.rungs)}-{max(r[3] for r in self.rungs)} points")
        return InputSet(ops, digest(*texts), size)


def _check_discretized(expected: Discretized, outs, k: int) -> str | None:
    # outs: discretize stdout, analyze stdout, the written uniform space
    try:
        error, labels, block_of = expected.check_space(outs[2])
    except (ValueError, IndexError, StopIteration) as exc:
        return f"malformed discretized space: {exc!r}"
    if error:
        return error
    return check_certificate(expected.facts(labels, block_of, R, k), outs[1])


WORKLOADS = {w.name: w for w in (AnalyzeLarge(), VerifySuite(), DiscretizeWeighted())}

# The ROADMAP's hang case: planted n=300, k=3, noise 1/10. The traced run
# probes it with a short timeout on every workload.
HANG_CASE = (300, 3, "1/10")
HANG_PROBE_TIMEOUT_S = 3.0


def hang_case_op(run_dir: Path) -> Op:
    n, k, noise = HANG_CASE
    space = cc.planted_instance(k, _near_equal(n, k), Fraction(noise), R, 0)
    path = run_dir / "hang.space"
    path.write_text(cc.dump_space(space), encoding="utf-8")
    facts = SpaceFacts.from_matrix(space.labels, space.dist, R, k)
    return Op(
        label=f"analyze n={n} k={k} noise={noise} (hang case)",
        commands=[["analyze", "--input", str(path), "--r", str(R), "--k", str(k)]],
        check=lambda outs: check_certificate(facts, outs[0]),
    )
