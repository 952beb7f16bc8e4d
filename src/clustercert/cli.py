"""Command-line front end.

Subcommands: analyze (full certificate), greedy (decomposition dump), exact
(optimal structure), generate (block witness / planted instance), discretize
(weighted-to-uniform collapse), and verify (randomized check suite).

Exit status: 0 on success, 1 on input and usage errors, 2 when verify finds
check failures -- so CI can distinguish "checks failed" from "could not run".
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bounds, clustering, generators, verify
from .serialize import write_report
from .space import (
    ScaleParams,
    SpaceFormatError,
    _is_int,
    _labels,
    as_fraction,
    dump_space,
    load_space,
    space_from_obj,
)

__all__ = ["main", "build_parser"]


def _fraction(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _printable_fraction(text: str) -> Fraction:
    """``_fraction``, refused if the output could not print it (Python's int digit limit)."""
    q = _fraction(text)
    try:
        str(q)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} has too many digits to print") from None
    return q


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _read_input(path: str, from_obj, from_text=None):
    """Parse a UTF-8 file: as JSON with ``from_obj`` when there is no text parser
    or the file starts with "{", else with ``from_text``. Any fault, from an
    unreadable file to JSON nested too deep, is one SpaceFormatError naming the file."""
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
        if from_text is None or text.lstrip().startswith("{"):
            return from_obj(json.loads(text))
        return from_text(text)
    except (OSError, ValueError, TypeError, RecursionError) as exc:
        # An OSError's own text names the file again.
        raise SpaceFormatError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as file:
            file.write(text)
    else:
        sys.stdout.write(text)


def _config_args(spec) -> argparse.Namespace:
    """The generator flags set by a ``generate --config`` JSON object."""
    if not isinstance(spec, dict) or not isinstance(spec.get("blockSizes", []), list):
        raise TypeError("generator config must be a JSON object with a blockSizes list")
    flags = argparse.Namespace(
        kind=spec.get("kind"), r=as_fraction(spec.get("r", "1")), k=spec.get("k", 1),
        m=spec.get("m"), m0=spec.get("m0"), block_sizes=spec.get("blockSizes", []),
        noise=as_fraction(spec.get("noise", 0)), seed=spec.get("seed", 0),
    )
    counts = {"k": flags.k, "m": flags.m, "m0": flags.m0, "seed": flags.seed}
    counts.update((f"blockSizes[{i}]", b) for i, b in enumerate(flags.block_sizes))
    for name, value in counts.items():
        if value is not None and not _is_int(value):
            raise TypeError(f"{name} must be a JSON integer, got {json.dumps(value)}")
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustercert",
        description="Cluster-structure statistics, decompositions, and bound certificates "
        "for finite semimetric spaces with exact rational distances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", required=True, help="space file (text or JSON object)")
        p.add_argument("--r", type=_printable_fraction, required=True, help="scale r (exact, e.g. 0.5 or 1/3)")
        p.add_argument("--k", type=int, required=True, help="structure order k")
        p.add_argument("--output", help="write result here instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p_analyze = sub.add_parser("analyze", help="full bound certificate")
    add_common(p_analyze)
    p_analyze.add_argument("--exact-limit", type=int, default=clustering.DEFAULT_EXACT_LIMIT)

    p_greedy = sub.add_parser("greedy", help="greedy decomposition dump")
    add_common(p_greedy)

    p_exact = sub.add_parser("exact", help="maximum-measure structure")
    add_common(p_exact)
    p_exact.add_argument("--exact-limit", type=int, default=clustering.DEFAULT_EXACT_LIMIT)

    p_gen = sub.add_parser("generate", help="emit a generated space file")
    p_gen.add_argument("--kind", choices=("tight", "planted"))
    p_gen.add_argument("--r", type=_fraction)
    p_gen.add_argument("--k", type=int)
    p_gen.add_argument("--m", type=int, help="tight: size of each of the k far blocks")
    p_gen.add_argument("--m0", type=int, help="tight: size of the remainder block")
    p_gen.add_argument("--block-sizes", type=_int_list, help="planted: comma-separated sizes")
    p_gen.add_argument("--noise", type=_fraction, default=Fraction(0))
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--config", help="JSON file with the generator spec (overrides flags)")
    p_gen.add_argument("--output", help="write result here instead of stdout")

    p_disc = sub.add_parser("discretize", help="weighted space -> uniform multiplicity space")
    p_disc.add_argument("--input", required=True, help="weighted space file")
    p_disc.add_argument("--eps", type=_fraction, required=True)
    p_disc.add_argument("--max-multiplicity", type=int, default=100_000)
    p_disc.add_argument("--output", help="write result here instead of stdout")

    p_verify = sub.add_parser("verify", help="run the randomized check suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--max-n", type=int, default=10)
    p_verify.add_argument("--k-range", type=_int_list, default=(1, 2, 3))
    p_verify.add_argument("--exact-limit", type=int, default=clustering.DEFAULT_EXACT_LIMIT)
    p_verify.add_argument("--output", help="write the report here instead of stdout")
    p_verify.add_argument("--format", choices=("json", "text"), default="json")

    return parser


def _cmd_analyze(args) -> int:
    space = _read_input(args.input, space_from_obj, load_space)
    params = ScaleParams(r=args.r, k=args.k)
    cert = bounds.build_certificate(space, params, exact_limit=args.exact_limit)
    _emit(write_report(cert, fmt=args.format), args.output)
    return 0


def _cmd_greedy(args) -> int:
    space = _read_input(args.input, space_from_obj, load_space)
    params = ScaleParams(r=args.r, k=args.k)
    decomp = clustering.greedy_decomposition(space, params)
    obj = {
        "n": space.n,
        "r": str(params.r),
        "k": params.k,
        "parts": [
            {
                "index": p.index,
                "Z": list(_labels(space, p.z)),
                "X": list(_labels(space, p.x)),
                "Y": list(_labels(space, p.y)),
                "U": list(_labels(space, p.u)),
                "matching": [[space.labels[a], space.labels[b]] for a, b in p.matching],
                "mediumEdges": p.medium_edges,
                "longEdges": p.long_edges,
            }
            for p in decomp.parts
        ],
        "W": list(decomp.w),
        "I0": list(decomp.i0),
        "I1": list(decomp.i1),
        "I2": list(decomp.i2),
        "farPairs": decomp.far_pair_count,
    }
    _emit(write_report(obj, fmt=args.format), args.output)
    return 0


def _cmd_exact(args) -> int:
    space = _read_input(args.input, space_from_obj, load_space)
    params = ScaleParams(r=args.r, k=args.k)
    result = clustering.exact_structure(space, params, max_points=args.exact_limit)
    obj = {
        "n": space.n,
        "r": str(params.r),
        "k": params.k,
        "measure": result.measure,
        "optimal": result.optimal,
        "clusters": [list(_labels(space, c)) for c in result.structure.clusters],
        "nodesExplored": result.nodes_explored,
    }
    _emit(write_report(obj, fmt=args.format), args.output)
    return 0


def _cmd_generate(args) -> int:
    spec = _read_input(args.config, _config_args) if args.config else args
    if spec.kind not in ("tight", "planted"):
        raise SpaceFormatError(f"generator kind must be 'tight' or 'planted', got {spec.kind!r}")
    if spec.r is None or spec.k is None:
        raise SpaceFormatError("generator requires --r and --k")
    if spec.kind == "tight":
        if spec.m is None or spec.m0 is None:
            raise SpaceFormatError("tight generator requires --m and --m0")
        space = generators.tight_instance(generators.TightInstanceSpec(k=spec.k, m=spec.m, m0=spec.m0, r=spec.r))
    else:
        if not spec.block_sizes:
            raise SpaceFormatError("planted generator requires --block-sizes")
        space = generators.planted_instance(spec.k, list(spec.block_sizes), spec.noise, spec.r, spec.seed)
    _emit(dump_space(space), args.output)
    return 0


def _cmd_discretize(args) -> int:
    weighted = _read_input(
        args.input, generators.weighted_space_from_obj, generators.load_weighted_space
    )
    partition = generators.epsilon_partition(weighted, args.eps)
    space = generators.uniformize(
        weighted, partition, args.eps, max_total_multiplicity=args.max_multiplicity
    )
    _emit(dump_space(space), args.output)
    return 0


def _cmd_verify(args) -> int:
    config = verify.SuiteConfig(
        seed=args.seed,
        trials=args.trials,
        max_n=args.max_n,
        k_values=tuple(args.k_range),
        exact_limit=args.exact_limit,
    )
    report = verify.run_suite(config)
    _emit(write_report(report, fmt=args.format), args.output)
    return 2 if report.failure_count else 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "greedy": _cmd_greedy,
    "exact": _cmd_exact,
    "generate": _cmd_generate,
    "discretize": _cmd_discretize,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # After a usage error argparse exits 2, which here means failed checks.
        if exc.code != 2:
            raise
        return 1
    try:
        if getattr(args, "exact_limit", 0) < 0:
            raise ValueError(f"--exact-limit must be non-negative, got {args.exact_limit}")
        return _COMMANDS[args.command](args)
    except (ValueError, clustering.SearchLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
