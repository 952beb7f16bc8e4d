"""Golden corpus: CLI outputs that must stay byte-identical.

Each case runs ``cli.main`` on a committed input under ``tests/golden/inputs``
and compares the written output with ``tests/golden/<case>`` byte for byte.
The corpus covers block witnesses, noisy planted spaces, shortest-path random
metrics, a 30-point space where the exact search is refused, and hand-made
spaces with distances exactly r, 2r and 3r, where the strict and closed
threshold conventions differ. One of them breaks the triangle inequality so
that the greedy long-edge matching is not empty. Two ``exact`` cases run the
search above k = 3 on the 10-point random metric at r = 1/2: at k = 4, and at
k = 12, above n. The ``generate`` cases pin the block witness and the noisy
planted generator. Four cases have the shapes the benchmark runs: analyze
and greedy on a 100-point planted space (two blocks of 50, noise 1/100, four
pairs at exactly r), ``verify`` with 60 trials up to n = 14, and analyze of
the 60-point discretized space, whose multiplicity blocks sit at mutual
distance 0.

To re-record after an intended output change, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py --record

Any other arguments, or none, print this usage and write nothing.
"""
import sys
from pathlib import Path

import pytest

from clustercert.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# (input stem, r, k) for analyze, greedy and exact.
SPACES = [
    ("tight_k2", "1", 2),
    ("tight_k3", "1/2", 3),
    ("planted_k2", "1", 2),
    ("planted_k3", "1", 3),
    ("planted_r34", "3/4", 2),
    ("planted_n30", "1", 3),
    ("metric_n10", "1", 2),
    ("metric_n12", "1/2", 1),
    ("p4_boundary", "1", 2),
    ("line_thresholds", "1", 2),
    ("star_semimetric", "1", 2),
    # generate --kind planted --r 1 --k 2 --block-sizes 50,50 --noise 1/100 --seed 1
    ("planted_n100", "1", 2),
]

# Above the exact-search limit; analyze records the refusal.
TOO_LARGE = ("planted_n30", "planted_n100")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for stem, r, k in SPACES:
        for cmd in ("analyze", "greedy", "exact"):
            if cmd == "exact" and stem in TOO_LARGE:
                continue
            argv = [cmd, "--input", str(INPUTS / f"{stem}.space"), "--r", r, "--k", str(k)]
            cases[f"{stem}.{cmd}.json"] = argv
    cases["tight_k2.analyze.txt"] = cases["tight_k2.analyze.json"] + ["--format", "text"]
    # k above n: the structure is padded with empty clusters.
    cases["tight_k2.analyze_k12.json"] = [
        "analyze", "--input", str(INPUTS / "tight_k2.space"), "--r", "1", "--k", "12"
    ]
    # The exact search above k = 3: four clusters, and twelve on ten points.
    for k in (4, 12):
        cases[f"metric_n10.exact_k{k}.json"] = [
            "exact", "--input", str(INPUTS / "metric_n10.space"), "--r", "1/2", "--k", str(k)
        ]
    cases["tight.generate.space"] = [
        "generate", "--kind", "tight", "--r", "1", "--k", "2", "--m", "3", "--m0", "4"
    ]
    cases["planted.generate.space"] = [
        "generate", "--kind", "planted", "--r", "1/2", "--k", "3",
        "--block-sizes", "4,3,3", "--noise", "1/10", "--seed", "17",
    ]
    cases["weighted.discretize.space"] = [
        "discretize", "--input", str(INPUTS / "weighted.space"), "--eps", "0.2"
    ]
    cases["weighted_json.discretize.space"] = [
        "discretize", "--input", str(INPUTS / "weighted.json"), "--eps", "1/2"
    ]
    cases["weighted_discretized.analyze.json"] = [
        "analyze", "--input", str(GOLDEN / "weighted.discretize.space"), "--r", "1", "--k", "2"
    ]
    cases["verify_seed42.json"] = ["verify", "--seed", "42", "--trials", "200"]
    cases["verify_seed7_n14.json"] = [
        "verify", "--seed", "7", "--trials", "60", "--max-n", "14", "--exact-limit", "14"
    ]
    return cases


CASES = _cases()


def _run(argv: list[str], out: Path) -> bytes:
    assert main(argv + ["--output", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, tmp_path):
    assert _run(CASES[name], tmp_path / name) == (GOLDEN / name).read_bytes()


USAGE = "usage: PYTHONPATH=src python tests/test_golden.py --record"


def record(argv: list[str]) -> int:
    """Re-record every golden file when ``argv`` is exactly ``--record``."""
    if argv != ["--record"]:
        print(USAGE, file=sys.stderr)
        return 2
    for name, case in sorted(CASES.items()):
        _run(case, GOLDEN / name)
        print(f"recorded {name}")
    return 0


def test_record_writes_nothing_without_the_flag(capsys, monkeypatch):
    def refuse(argv, out):
        raise AssertionError(f"wrote {out}")

    before = {p: p.stat().st_mtime_ns for p in GOLDEN.rglob("*")}
    monkeypatch.setitem(globals(), "_run", refuse)
    for argv in (["--help"], [], ["--recrod"], ["--record", "extra"]):
        assert record(argv) != 0
        assert capsys.readouterr().err == USAGE + "\n"
    assert {p: p.stat().st_mtime_ns for p in GOLDEN.rglob("*")} == before


if __name__ == "__main__":
    sys.exit(record(sys.argv[1:]))
