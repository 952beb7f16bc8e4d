"""Traced runs: span recording in the child and per-layer metrics in the parent.

Run as a script, this file stands in for ``python -m clustercert.cli``::

    python3 perfbench/tracer.py SPANS_OUT SPAWN_MONOTONIC <clustercert args...>

It imports the CLI, replaces each layer's public functions with wrappers that
record a span (name, start, end, parent, attributes), runs ``cli.main`` and
writes the spans to SPANS_OUT as JSON when the command ends. The program's
own files are not touched: the wrappers are installed as module attributes,
including the names other modules imported directly (``verify`` takes the
generators by name, ``cli`` takes ``load_space`` and ``write_report``).

Per-element helpers (``as_fraction``, ``format_rational``, ``classify_edge``)
are called once per matrix cell and are left unwrapped: a span per call
would swamp the layers around them.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Public functions wrapped, by layer (module of clustercert).
WRAPPED = {
    "space": ["load_space", "dump_space", "build_space", "space_from_obj", "space_to_obj",
              "subset_diameter", "set_distance"],
    "stats": ["medium_edge_count", "long_edge_count", "anticlique_count",
              "elementary_symmetric", "observed_parameters"],
    "clustering": ["max_cluster", "greedy_decomposition", "greedy_structure",
                   "exact_structure", "validate_structure"],
    "bounds": ["build_certificate", "psi_bound", "legacy_bound", "measure_meets_psi",
               "precondition_check", "lambda_param", "alpha_prime"],
    "generators": ["tight_instance", "planted_instance", "random_metric_instance",
                   "space_from_points", "epsilon_partition", "uniformize",
                   "load_weighted_space", "dump_weighted_space",
                   "weighted_space_from_obj", "weighted_space_to_obj"],
    "serialize": ["canonical_json", "render_text", "write_report"],
    "verify": ["check_proposition", "run_suite", "replay_failure"],
    "cli": ["main"],
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _size(points) -> int:
    return len(points) if hasattr(points, "__len__") else 0


# Attributes recorded from arguments and return values, by span name.
ATTRS = {
    "space.load_space": lambda a, kw, res: {"bytes": len(_arg(a, kw, 0, "text").encode())},
    "generators.load_weighted_space": lambda a, kw, res: {"bytes": len(_arg(a, kw, 0, "text").encode())},
    "stats.anticlique_count": lambda a, kw, res: {"s": _arg(a, kw, 2, "s"), "count": res},
    "stats.observed_parameters": lambda a, kw, res: {"k": _arg(a, kw, 1, "params").k},
    "clustering.max_cluster": lambda a, kw, res: {"points": _size(_arg(a, kw, 1, "points"))},
    "clustering.exact_structure": lambda a, kw, res: {
        "nodes": res.nodes_explored, "optimal": res.optimal},
    "generators.uniformize": lambda a, kw, res: {"points": res.n},
    "serialize.write_report": lambda a, kw, res: {"bytes": len(res.encode())},
    "verify.check_proposition": lambda a, kw, res: {
        "prop": _arg(a, kw, 2, "prop_id"), "k": _arg(a, kw, 1, "params").k,
        "applicable": res.applicable},
}


class Tracer:
    """Span sink for one process. Spans are [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)
        cache_info = getattr(fn, "cache_info", None)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            spans.append(record)
            stack.append(len(spans) - 1)
            misses = cache_info().misses if cache_info else 0
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            attrs = attrs_of(args, kwargs, result) if attrs_of else {}
            if cache_info:
                attrs["miss"] = cache_info().misses > misses
            record[4] = attrs or None
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever a clustercert module holds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "clustercert" or key.startswith("clustercert.")]
        for layer, names in WRAPPED.items():
            home = sys.modules[f"clustercert.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        space_cls = sys.modules["clustercert.space"].FiniteSemimetricSpace
        space_cls.__hash__ = self.wrap("space.hash", space_cls.__hash__)


def child_main(argv) -> int:
    out_path, spawn_t, *cli_args = argv
    import clustercert.cli as cli

    import_s = time.monotonic() - float(spawn_t)
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as out:
            json.dump({"import_s": import_s, "spans": tracer.spans}, out)


# ---------------------------------------------------------------------------
# Parent side: per-layer metrics from the spans of the traced ops.
# ---------------------------------------------------------------------------

PROPS = ("P1", "P2", "P3", "P4", "P5", "P6", "T1")

# (metric, unit, better); every one is reported for every workload.
LAYER_METRICS = [
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("space.load_space.s", "s", "lower"),
    ("space.input_bytes", "bytes", "lower"),
    ("space.hash.s", "s", "lower"),
    ("space.hash.calls", "count", "lower"),
    ("space.dump_space.s", "s", "lower"),
    ("stats.anticlique_count.k.s", "s", "lower"),
    ("stats.anticlique_count.k1.s", "s", "lower"),
    ("stats.anticliques.count", "count", "lower"),
    ("stats.medium_edge_count.s", "s", "lower"),
    ("stats.long_edge_count.s", "s", "lower"),
    ("stats.observed_parameters.hit_ratio", "ratio", "higher"),
    ("clustering.max_cluster.s", "s", "lower"),
    ("clustering.max_cluster.calls", "count", "lower"),
    ("clustering.max_cluster.points", "count", "lower"),
    ("clustering.greedy_decomposition.self_s", "s", "lower"),
    ("clustering.greedy_decomposition.hit_ratio", "ratio", "higher"),
    ("clustering.exact_structure.s", "s", "lower"),
    ("clustering.exact_structure.nodes", "count", "lower"),
    ("clustering.exact_structure.nonoptimal", "count", "lower"),
    ("clustering.exact_structure.hit_ratio", "ratio", "higher"),
    ("clustering.validate_structure.s", "s", "lower"),
    ("clustering.hang_case.completed", "count", "higher"),
    ("clustering.hang_case.s", "s", "lower"),
    ("generators.random_metric_instance.s", "s", "lower"),
    ("generators.planted_instance.s", "s", "lower"),
    ("generators.tight_instance.s", "s", "lower"),
    ("generators.epsilon_partition.s", "s", "lower"),
    ("generators.uniformize.s", "s", "lower"),
    ("generators.uniformize.points", "count", "lower"),
    ("generators.load_weighted_space.s", "s", "lower"),
    ("bounds.build_certificate.self_s", "s", "lower"),
    ("bounds.psi_bound.s", "s", "lower"),
    ("bounds.legacy_bound.s", "s", "lower"),
    ("serialize.write_report.s", "s", "lower"),
    ("serialize.output_bytes", "bytes", "lower"),
    *[(f"verify.check_proposition.{p}.self_s", "s", "lower") for p in PROPS],
    ("verify.check_proposition.applicable_ratio", "ratio", "higher"),
    ("trace.op_p50_s", "s", "lower"),
    ("trace.untraced_op_p50_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _coverage(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def op_totals(traces) -> dict:
    """Fold the spans of one op's commands into per-layer sums.

    Inclusive time counts a name only where no ancestor has the same name;
    self time is a span's duration minus the part its children cover.
    """
    tot: dict = defaultdict(float)
    for trace in traces:
        tot["cli.import_s"] += trace["import_s"]
        spans = trace["spans"]
        children = defaultdict(list)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                children[parent].append((start, end))
        for sid, (name, start, end, parent, attrs) in enumerate(spans):
            attrs = attrs or {}
            ancestor, nested, k = parent, False, None
            while ancestor is not None:
                a_name, _, _, a_parent, a_attrs = spans[ancestor]
                nested = nested or a_name == name
                if k is None and a_attrs and "k" in a_attrs:
                    k = a_attrs["k"]
                ancestor = a_parent
            if not nested:
                tot[f"{name}.s"] += end - start
            tot[f"{name}.self_s"] += (end - start) - _coverage(children[sid])
            tot[f"{name}.calls"] += 1
            if attrs.get("miss"):
                tot[f"{name}.misses"] += 1
            if name == "stats.anticlique_count":
                tot["stats.anticliques.count"] += attrs["count"]
                if attrs["s"] == k:
                    tot["stats.anticlique_count.k.s"] += end - start
                elif k is not None and attrs["s"] == k + 1:
                    tot["stats.anticlique_count.k1.s"] += end - start
            elif name in ("space.load_space", "generators.load_weighted_space"):
                tot["space.input_bytes"] += attrs["bytes"]
            elif name == "clustering.max_cluster":
                tot["clustering.max_cluster.points"] += attrs["points"]
            elif name == "clustering.exact_structure" and attrs["miss"]:
                tot["clustering.exact_structure.nodes"] += attrs["nodes"]
                tot["clustering.exact_structure.nonoptimal"] += not attrs["optimal"]
            elif name == "generators.uniformize":
                tot["generators.uniformize.points"] += attrs["points"]
            elif name == "serialize.write_report":
                tot["serialize.output_bytes"] += attrs["bytes"]
            elif name == "verify.check_proposition":
                tot[f"verify.check_proposition.{attrs['prop']}.self_s"] += (
                    (end - start) - _coverage(children[sid]))
                tot["verify.check_proposition.applicable"] += attrs["applicable"]
    return tot


def scaled(totals: dict, scale: float) -> dict:
    """Times (keys ending in ``.s`` or ``_s``) multiplied by ``scale``."""
    return {k: v * scale if k.endswith((".s", "_s")) else v for k, v in totals.items()}


def layer_metrics(per_op: list) -> dict:
    """Per-op means of the layer sums, and hit ratios pooled over all ops.

    ``per_op`` holds one ``op_totals`` result per traced op. A ratio with no
    calls behind it reads 0.
    """
    n = max(len(per_op), 1)
    pooled: dict = defaultdict(float)
    for tot in per_op:
        for key, value in tot.items():
            pooled[key] += value

    def ratio(num, den):
        return pooled[num] / pooled[den] if pooled[den] else 0.0

    out = {}
    for metric, _, _ in LAYER_METRICS:
        if metric.endswith(".hit_ratio"):
            base = metric[: -len(".hit_ratio")]
            out[metric] = 1.0 - ratio(f"{base}.misses", f"{base}.calls") if pooled[f"{base}.calls"] else 0.0
        elif metric == "verify.check_proposition.applicable_ratio":
            out[metric] = ratio("verify.check_proposition.applicable", "verify.check_proposition.calls")
        elif metric.startswith(("trace.", "clustering.hang_case.")):
            continue  # filled in by the caller
        else:
            out[metric] = pooled[metric] / n
    return out


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
