"""Command-line front end.

Subcommands: analyze (full certificate), greedy (decomposition dump), exact
(optimal structure), generate (block witness / planted instance), discretize
(weighted-to-uniform collapse), and verify (randomized check suite).

Each command returns its result, and ``main`` writes it and decides the exit
status: 0 on success, 1 on input and usage errors, 2 when verify finds check
failures -- so CI can distinguish "checks failed" from "could not run".
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bounds, clustering, generators, verify
from .serialize import write_report
from .space import (
    DEFAULT_EXACT_LIMIT,
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

# Checked before printing: an order-k structure prints k clusters. A written space is capped by generators.
_MAX_ORDER = 10**6


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

    scale, output, fmt, limit = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    scale.add_argument("--input", required=True, help="space file (text or JSON object)")
    scale.add_argument("--r", type=_printable_fraction, required=True, help="scale r (exact, e.g. 0.5 or 1/3)")
    scale.add_argument("--k", type=int, required=True, help="structure order k")
    output.add_argument("--output", help="write result here instead of stdout")
    fmt.add_argument("--format", choices=("json", "text"), default="json")
    limit.add_argument("--exact-limit", type=int, default=DEFAULT_EXACT_LIMIT)

    sub.add_parser("analyze", parents=[scale, output, fmt, limit], help="full bound certificate")
    sub.add_parser("greedy", parents=[scale, output, fmt], help="greedy decomposition dump")
    sub.add_parser("exact", parents=[scale, output, fmt, limit], help="maximum-measure structure")

    p_gen = sub.add_parser("generate", parents=[output], help="emit a generated space file")
    p_gen.add_argument("--kind", choices=("tight", "planted"))
    p_gen.add_argument("--r", type=_fraction)
    p_gen.add_argument("--k", type=int)
    p_gen.add_argument("--m", type=int, help="tight: size of each of the k far blocks")
    p_gen.add_argument("--m0", type=int, help="tight: size of the remainder block")
    p_gen.add_argument("--block-sizes", type=_int_list, help="planted: comma-separated sizes")
    p_gen.add_argument("--noise", type=_fraction, default=Fraction(0))
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--config", help="JSON file with the generator spec (overrides flags)")

    p_disc = sub.add_parser("discretize", parents=[output], help="weighted space -> uniform multiplicity space")
    p_disc.add_argument("--input", required=True, help="weighted space file")
    p_disc.add_argument("--eps", type=_fraction, required=True)

    p_verify = sub.add_parser("verify", parents=[output, fmt, limit], help="run the randomized check suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--max-n", type=int, default=10)
    p_verify.add_argument("--k-range", type=_int_list, default=(1, 2, 3))

    return parser


def _cmd_analyze(args, space, params):
    return bounds.build_certificate(space, params, exact_limit=args.exact_limit)


def _cmd_greedy(args, space, params):
    decomp = clustering.greedy_decomposition(space, params)
    return {
        "n": space.n,
        "r": str(params.r),
        "k": params.k,
        "parts": [
            {
                "index": p.index,
                "Z": _labels(space, p.z),
                "X": _labels(space, p.x),
                "Y": _labels(space, p.y),
                "U": _labels(space, p.u),
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


def _cmd_exact(args, space, params):
    result = clustering.exact_structure(space, params, max_points=args.exact_limit)
    return {
        "n": space.n,
        "r": str(params.r),
        "k": params.k,
        "measure": result.measure,
        "optimal": result.optimal,
        "clusters": [_labels(space, c) for c in result.structure.clusters],
        "nodesExplored": result.nodes_explored,
    }


def _cmd_generate(args):
    spec = _read_input(args.config, _config_args) if args.config else args
    if spec.kind not in ("tight", "planted"):
        raise SpaceFormatError(f"generator kind must be 'tight' or 'planted', got {spec.kind!r}")
    if spec.r is None or spec.k is None:
        raise SpaceFormatError("generator requires --r and --k")
    if spec.kind == "tight":
        if spec.m is None or spec.m0 is None:
            raise SpaceFormatError("tight generator requires --m and --m0")
        tight = generators.TightInstanceSpec(k=spec.k, m=spec.m, m0=spec.m0, r=spec.r)
        n, draw = tight.n, lambda: generators.tight_instance(tight)
    else:
        if not spec.block_sizes:
            raise SpaceFormatError("planted generator requires --block-sizes")
        sizes = list(spec.block_sizes)
        n, draw = sum(sizes), lambda: generators.planted_instance(spec.k, sizes, spec.noise, spec.r, spec.seed)
    if n > generators._MAX_POINTS:
        raise ValueError(f"generated space exceeds the cap of {generators._MAX_POINTS} points")
    return dump_space(draw())


def _cmd_discretize(args):
    weighted = _read_input(
        args.input, generators.weighted_space_from_obj, generators.load_weighted_space
    )
    partition = generators.epsilon_partition(weighted, args.eps)
    return dump_space(generators.uniformize(weighted, partition, args.eps))


def _cmd_verify(args):
    # Checked here as well as by SuiteConfig, whose messages name its fields, not the flags.
    checks = (("--trials", args.trials, 0), ("--max-n", args.max_n, 1), ("--k-range", min(args.k_range), 1))
    for flag, value, least in checks:
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    if args.max_n > args.exact_limit:
        raise ValueError(f"--max-n {args.max_n} exceeds --exact-limit {args.exact_limit}")
    config = verify.SuiteConfig(
        seed=args.seed,
        trials=args.trials,
        max_n=args.max_n,
        k_values=tuple(args.k_range),
        exact_limit=args.exact_limit,
    )
    return verify.run_suite(config)


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
    command = _COMMANDS[args.command]
    try:
        if getattr(args, "exact_limit", 0) < 0:
            raise ValueError(f"--exact-limit must be non-negative, got {args.exact_limit}")
        if args.command in ("analyze", "exact") and args.k > _MAX_ORDER:
            raise ValueError(f"--k exceeds the cap of {_MAX_ORDER}")
        if args.command in ("analyze", "greedy", "exact"):
            space = _read_input(args.input, space_from_obj, load_space)
            result = command(args, space, ScaleParams(r=args.r, k=args.k))
        else:
            result = command(args)
        _emit(result if isinstance(result, str) else write_report(result, fmt=args.format), args.output)
    except (ValueError, OSError) as exc:  # SearchLimitError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2 if args.command == "verify" and result.failure_count else 0


if __name__ == "__main__":
    sys.exit(main())
