import json
import os
import subprocess
import sys
from inspect import ismodule
from pathlib import Path

import pytest

import clustercert as cc
from clustercert.cli import main


SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_dataclasses_or_inspect():
    # Every command is a fresh process, so the import is paid per command.
    # -S: a site hook may preload modules that the package itself never needs.
    modules = "{'dataclasses', 'inspect', 'pathlib', 'typing'}"
    script = f"import sys, clustercert.cli; print(sorted({modules} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_package_exports_the_union_of_the_module_lists():
    modules = ("bounds", "clustering", "generators", "serialize", "space", "stats", "verify")
    names = set().union(*(getattr(cc, m).__all__ for m in modules))
    public = {n for n, v in vars(cc).items() if not n.startswith("_") and not ismodule(v)}
    assert public == names
    assert all(getattr(cc, n) is getattr(getattr(cc, m), n)
               for m in modules for n in getattr(cc, m).__all__)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def tight_file(tmp_path):
    path = tmp_path / "tight.space"
    code = main(
        [
            "generate",
            "--kind",
            "tight",
            "--k",
            "2",
            "--m",
            "3",
            "--m0",
            "3",
            "--r",
            "1",
            "--output",
            str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture
def s3_file(tmp_path, s3):
    path = tmp_path / "s3.space"
    path.write_text(cc.dump_space(s3), encoding="utf-8")
    return path


class TestAnalyze:
    def test_tight_certificate_json(self, capsys, tight_file):
        code, out, err = _run(
            capsys, "analyze", "--input", str(tight_file), "--r", "1", "--k", "2"
        )
        assert code == 0 and not err
        cert = json.loads(out)
        assert cert["n"] == 9
        assert cert["counts"] == {"M": 0, "Tk": 27, "Tk1": 27}
        assert cert["observed"]["alpha"] == "2/3"
        assert cert["precondition"] is False
        assert cert["greedy"]["measure"] == 6
        assert cert["exact"]["measure"] == 6

    def test_text_format(self, capsys, tight_file):
        code, out, _ = _run(
            capsys, "analyze", "--input", str(tight_file), "--r", "1", "--k", "2",
            "--format", "text",
        )
        assert code == 0
        assert "greedy.measure = 6" in out

    def test_asymmetric_input_is_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.space"
        bad.write_text("2\na b\n0 1\n2 0\n", encoding="utf-8")
        code, out, err = _run(capsys, "analyze", "--input", str(bad), "--r", "1", "--k", "1")
        assert code == 1
        assert "asymmetric at (0,1)" in err

    def test_missing_file_is_exit_1(self, capsys, tmp_path):
        code, _, err = _run(
            capsys, "analyze", "--input", str(tmp_path / "nope"), "--r", "1", "--k", "1"
        )
        assert code == 1
        assert err == f"error: {tmp_path / 'nope'}: No such file or directory\n"

    def test_multiplicity_total_beyond_the_digit_limit(self, capsys, tmp_path):
        # 10^4300 points: the message gives the size without writing the total out.
        path = tmp_path / "w.space"
        path.write_text("2\na b\n0 1\n1 0\n1e-4300 1\n", encoding="utf-8")
        code, out, err = _run(capsys, "discretize", "--input", str(path), "--eps", "0.5")
        assert code == 1 and not out
        assert err == "error: uniformized space needs more than 10^4285 points, above the cap of 100000\n"

    def test_json_object_input(self, capsys, tmp_path, s3):
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(cc.space_to_obj(s3)), encoding="utf-8")
        code, out, _ = _run(capsys, "analyze", "--input", str(path), "--r", "1", "--k", "2")
        assert code == 0
        assert json.loads(out)["greedy"]["measure"] == 3

    def test_order_far_above_n(self, capsys, tight_file):
        # Validation visits only the non-empty clusters, so k = 20,000 stays fast.
        code, out, _ = _run(
            capsys, "analyze", "--input", str(tight_file), "--r", "1", "--k", "20000"
        )
        assert code == 0
        greedy = json.loads(out)["greedy"]
        assert len(greedy["clusters"]) == 20_000
        assert greedy["measure"] == 9 and greedy["valid"]


class TestGreedyAndExact:
    def test_greedy_dump(self, capsys, s3_file):
        code, out, _ = _run(capsys, "greedy", "--input", str(s3_file), "--r", "1", "--k", "2")
        assert code == 0
        dump = json.loads(out)
        assert dump["W"] == [2, 1]
        assert dump["parts"][0]["X"] == ["p0", "p1"]
        assert dump["parts"][1]["Z"] == ["p2"]

    def test_exact_structure(self, capsys, s3_file):
        code, out, _ = _run(capsys, "exact", "--input", str(s3_file), "--r", "1", "--k", "2")
        assert code == 0
        result = json.loads(out)
        assert result["measure"] == 3
        assert result["optimal"] is True
        assert result["clusters"] == [["p0", "p1"], ["p2"]]

    def test_exact_limit_enforced(self, capsys, tight_file):
        code, _, err = _run(
            capsys, "exact", "--input", str(tight_file), "--r", "1", "--k", "2",
            "--exact-limit", "4",
        )
        assert code == 1
        assert "exceeds" in err


class TestGenerate:
    def test_round_trip_through_loader(self, capsys):
        code, out, _ = _run(
            capsys, "generate", "--kind", "tight", "--k", "1", "--m", "1", "--m0", "2", "--r", "0.5"
        )
        assert code == 0
        space = cc.load_space(out)
        assert space.n == 3
        assert cc.dump_space(space) == out

    def test_planted_via_flags(self, capsys):
        code, out, _ = _run(
            capsys, "generate", "--kind", "planted", "--k", "2", "--block-sizes", "3,3",
            "--noise", "0", "--r", "1", "--seed", "5",
        )
        assert code == 0
        assert cc.load_space(out).n == 6

    def test_planted_via_config(self, capsys, tmp_path):
        config = tmp_path / "gen.json"
        config.write_text(
            json.dumps({"kind": "planted", "k": 2, "blockSizes": [2, 2], "r": "1", "seed": 3}),
            encoding="utf-8",
        )
        code, out, _ = _run(capsys, "generate", "--config", str(config))
        assert code == 0
        assert cc.load_space(out).n == 4

    def test_generation_is_byte_stable(self, capsys):
        argv = ["generate", "--kind", "planted", "--k", "2", "--block-sizes", "4,3",
                "--noise", "0.1", "--r", "1", "--seed", "9"]
        code1, out1, _ = _run(capsys, *argv)
        code2, out2, _ = _run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_missing_kind_is_exit_1(self, capsys):
        code, _, err = _run(capsys, "generate", "--r", "1", "--k", "1")
        assert code == 1
        assert "kind" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--kind", "tight", "--m", "1", "--m0", "1"], "generator requires --r and --k"),
            (["--kind", "planted", "--r", "1", "--block-sizes", "2"], "generator requires --r and --k"),
            (["--kind", "tight", "--r", "1", "--k", "1", "--m0", "1"], "tight generator requires --m and --m0"),
            (["--kind", "planted", "--r", "1", "--k", "1"], "planted generator requires --block-sizes"),
        ],
        ids=["no-r", "no-k", "no-m", "no-block-sizes"],
    )
    def test_missing_flag_is_one_error_line(self, capsys, argv, message):
        code, out, err = _run(capsys, "generate", *argv)
        assert code == 1 and not out
        assert err == f"error: {message}\n"

    def test_empty_block_sizes_is_a_usage_error(self, capsys):
        code, out, err = _run(capsys, "generate", "--kind", "planted", "--r", "1", "--k", "1", "--block-sizes", ",")
        assert code == 1 and not out
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == ["clustercert generate: error: argument --block-sizes: expected at least one integer"]


class TestDiscretize:
    def test_weighted_text_input(self, capsys, tmp_path):
        path = tmp_path / "weighted.space"
        path.write_text(
            "3\nx0 x1 y0\n0 0.004 1\n0.004 0 1\n1 1 0\n0.5 0.3 0.2\n", encoding="utf-8"
        )
        code, out, _ = _run(capsys, "discretize", "--input", str(path), "--eps", "0.01")
        assert code == 0
        space = cc.load_space(out)
        # parts {x0,x1} (mu=0.8) and {y0} (mu=0.2) -> multiplicities 4 and 1
        assert space.n == 5
        assert space.labels[:4] == ("a0_0", "a0_1", "a0_2", "a0_3")
        assert space.rho(0, 4) == 1

    def test_weighted_json_input(self, capsys, tmp_path, s3):
        obj = cc.space_to_obj(s3)
        obj["weights"] = ["1", "1", "1"]
        path = tmp_path / "weighted.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, out, _ = _run(capsys, "discretize", "--input", str(path), "--eps", "0.5")
        assert code == 0
        assert cc.load_space(out).n == 3

    def test_null_weights_are_ones(self, capsys, tmp_path, s3):
        outs = []
        for weights in (None, ["1", "1", "1"]):
            path = tmp_path / "weighted.json"
            path.write_text(json.dumps({**cc.space_to_obj(s3), "weights": weights}), encoding="utf-8")
            code, out, _ = _run(capsys, "discretize", "--input", str(path), "--eps", "0.5")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestVerify:
    def test_clean_suite_exits_zero(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = _run(
            capsys, "verify", "--seed", "4", "--trials", "12", "--max-n", "6",
            "--output", str(out_path),
        )
        assert code == 0
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert report["failureCount"] == 0
        assert report["trials"] == 12

    @pytest.mark.parametrize("seed", [229454846, 1696698721, 55323911])
    def test_seeds_with_pairs_at_exactly_r_pass(self, capsys, seed):
        # Each failed P4 while the greedy neighborhood was strict (< r).
        code, out, _ = _run(
            capsys, "verify", "--seed", str(seed), "--trials", "60", "--max-n", "14",
            "--exact-limit", "14",
        )
        assert code == 0
        assert json.loads(out)["failureCount"] == 0

    def test_reports_are_byte_identical(self, capsys):
        argv = ["verify", "--seed", "11", "--trials", "9", "--max-n", "6"]
        _, out1, _ = _run(capsys, *argv)
        _, out2, _ = _run(capsys, *argv)
        assert out1 == out2

    def test_k_range_flag(self, capsys):
        code, out, _ = _run(
            capsys, "verify", "--seed", "2", "--trials", "6", "--max-n", "5", "--k-range", "1,2"
        )
        assert code == 0
        assert json.loads(out)["kValues"] == [1, 2]


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv, content",
        [
            (["generate", "--config"], "[]"),
            (["generate", "--config"], '{"kind": "planted", "k": 1, "blockSizes": 3, "r": "1"}'),
            (
                ["discretize", "--eps", "0.1", "--input"],
                '{"labels": ["a", "b"], "dist": [["0", "1"], ["1", "0"]], "weights": 5}',
            ),
            (["analyze", "--r", "1", "--k", "1", "--input"], '{"labels": 5, "dist": 5}'),
            (
                ["analyze", "--r", "1", "--k", "1", "--input"],
                '{"labels": "ab", "dist": [["0", "1"], ["1", "0"]]}',
            ),
            (
                ["analyze", "--r", "1", "--k", "1", "--input"],
                '{"labels": ["a", "b"], "dist": ["01", "10"]}',
            ),
            (
                ["analyze", "--r", "1", "--k", "1", "--input"],
                '{"n": "2", "labels": ["a", "b"], "dist": [["0", "1"], ["1", "0"]]}',
            ),
            (
                ["analyze", "--r", "1", "--k", "1", "--input"],
                '{"labels": ["a", "b"], "dist": [[false, true], [true, false]]}',
            ),
            (
                ["discretize", "--eps", "0.1", "--input"],
                '{"labels": ["a", "b"], "dist": [["0", "1"], ["1", "0"]], "weights": [true, "1"]}',
            ),
            (["generate", "--config"], '{"kind": "planted", "k": 1, "blockSizes": [3], "r": true}'),
            (
                ["generate", "--config"],
                '{"kind": "planted", "k": 1, "blockSizes": [3], "r": "1", "noise": false}',
            ),
            (["generate", "--config"], '{"kind": "tight", "k": true, "m": true, "m0": 2, "r": "1"}'),
            (["generate", "--config"], '{"kind": "tight", "k": 1, "m": 1, "m0": 2.5, "r": "1"}'),
            (["generate", "--config"], '{"kind": "planted", "k": 2.7, "blockSizes": [2, 3], "r": "1"}'),
            (["generate", "--config"], '{"kind": "planted", "k": 2, "blockSizes": [2.9, 3], "r": "1"}'),
            (
                ["generate", "--config"],
                '{"kind": "planted", "k": 1, "blockSizes": [3], "r": "1", "seed": 1.5}',
            ),
            (
                ["generate", "--config"],
                '{"kind": "planted", "k": 1, "blockSizes": [3], "r": "1", "seed": null}',
            ),
            (
                ["analyze", "--r", "1", "--k", "1", "--input"],
                '{"labels": [true, false], "dist": [["0", "1"], ["1", "0"]]}',
            ),
            (
                ["analyze", "--r", "1", "--k", "1", "--input"],
                '{"labels": [["a"], {}], "dist": [["0", "1"], ["1", "0"]]}',
            ),
            (
                ["analyze", "--r", "1", "--k", "1", "--input"],
                '{"labels": [1, 2], "dist": [["0", "1"], ["1", "0"]]}',
            ),
            (
                ["analyze", "--r", "1", "--k", "1", "--input"],
                '{"labels": [null, "b"], "dist": [["0", "1"], ["1", "0"]]}',
            ),
        ],
        ids=[
            "config-not-object",
            "block-sizes-not-list",
            "weights-not-list",
            "labels-not-list",
            "labels-string",
            "dist-rows-strings",
            "n-string",
            "dist-booleans",
            "weight-boolean",
            "config-r-boolean",
            "config-noise-boolean",
            "config-k-m-booleans",
            "config-m0-float",
            "config-k-float",
            "config-block-size-float",
            "config-seed-float",
            "config-seed-null",
            "labels-booleans",
            "labels-list-and-object",
            "labels-integers",
            "labels-null",
        ],
    )
    def test_exit_1_with_one_error_line(self, capsys, tmp_path, argv, content):
        path = tmp_path / "input.json"
        path.write_text(content, encoding="utf-8")
        code, out, err = _run(capsys, *argv, str(path))
        assert code == 1 and not out
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, content, message",
        [
            (["discretize", "--eps", "0.5", "--input"], b"2\na b\n0 1\n1 0\n1\n",
             "weights line: expected 2 weights, got 1"),
            (["discretize", "--eps", "0.5", "--input"], b"2\na b\n0 1\n1 0\n1 x\n",
             "weights line: not a rational number: 'x'"),
            (["discretize", "--eps", "0.5", "--input"], b"2\na b\n0 1\n1 0\n1 0\n",
             "weights line: weight 1 must be positive, got 0"),
            (["discretize", "--eps", "0.5", "--input"], b"2\na b\n0 1\n1 0\n1 1\n1 1\n",
             "unexpected trailing content: '1 1'"),
            (["discretize", "--eps", "0.5", "--input"],
             b'{"labels": ["a", "b"], "dist": [["0", "1"], ["1", "0"]], "weights": [1, 1, 1]}',
             "expected 2 weights, got 3"),
            (["discretize", "--eps", "0.5", "--input"],
             b'{"labels": ["a", "b"], "dist": [["0", "1"], ["1", "0"]], "weights": [1, 0]}',
             "weight 1 must be positive, got 0"),
            (["discretize", "--eps", "0.5", "--input"],
             b'{"labels": ["a", "b"], "dist": [["0", "1"], ["1", "0"]], "weights": "11"}',
             "weights must be a list, got str"),
            (["analyze", "--r", "1", "--k", "1", "--input"], b'{"labels": ["a"]}',
             "space object is missing field: 'dist'"),
            (["analyze", "--r", "1", "--k", "1", "--input"], b"\xff\xfe2\na b\n",
             "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            (["analyze", "--r", "1", "--k", "1", "--input"],
             b'{"labels": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
             "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
            (["generate", "--config"], b'{"kind": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
             "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
            (["generate", "--config"], b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ],
        ids=[
            "weights-too-few",
            "weights-bad-token",
            "weights-zero",
            "weights-second-line",
            "json-weights-length",
            "json-weights-zero",
            "json-weights-string",
            "json-no-dist",
            "not-utf8",
            "deep-json",
            "deep-config",
            "config-not-utf8",
        ],
    )
    def test_one_error_line_names_the_file(self, capsys, tmp_path, argv, content, message):
        path = tmp_path / "input"
        path.write_bytes(content)
        code, out, err = _run(capsys, *argv, str(path))
        assert code == 1 and not out
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "argv, content, message",
        [
            (["analyze", "--r", "1", "--k", "1", "--input", "{}"], "2\na b\n0 1e999999999\n1e999999999 0\n",
             "{}: distance table: bad distance at (0,1): exponent of '1e999999999' exceeds 4300 in magnitude"),
            (["analyze", "--r", "1", "--k", "1", "--input", "{}"],
             '{"labels": ["a", "b"], "dist": [["0", "1e999999999"], ["1e999999999", "0"]]}',
             "{}: bad distance at (0,1): exponent of '1e999999999' exceeds 4300 in magnitude"),
            (["discretize", "--eps", "0.5", "--input", "{}"], "2\na b\n0 1\n1 0\n1 1e999999999\n",
             "{}: weights line: exponent of '1e999999999' exceeds 4300 in magnitude"),
            (["analyze", "--r", "1e999999999", "--k", "1", "--input", "{}"], "1\na\n0\n",
             "argument --r: exponent of '1e999999999' exceeds 4300 in magnitude"),
            (["generate", "--kind", "tight", "--k", "1", "--m", "1", "--m0", "1", "--r", "1e-999999999"], "",
             "argument --r: exponent of '1e-999999999' exceeds 4300 in magnitude"),
            (["discretize", "--eps", "1e-999999999", "--input", "{}"], "1\na\n0\n",
             "argument --eps: exponent of '1e-999999999' exceeds 4300 in magnitude"),
            (["generate", "--kind", "planted", "--k", "1", "--block-sizes", "2", "--r", "1", "--noise", "1e999999999"],
             "", "argument --noise: exponent of '1e999999999' exceeds 4300 in magnitude"),
        ],
        ids=["text-cell", "json-cell", "weight", "r", "generate-r", "eps", "noise"],
    )
    def test_huge_exponent_is_refused_at_once(self, tmp_path, argv, content, message):
        # A process of its own with a timeout: a regression fails here instead of hanging.
        path = tmp_path / "input"
        path.write_text(content, encoding="utf-8")
        argv = [arg.format(path) for arg in argv]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        run = subprocess.run(
            [sys.executable, "-m", "clustercert.cli", *argv], env=env, capture_output=True, text=True, timeout=30
        )
        assert run.returncode == 1 and not run.stdout
        errors = [line for line in run.stderr.splitlines() if "error: " in line]
        assert len(errors) == 1 and errors[0].endswith(f"error: {message.format(path)}")

    @pytest.mark.parametrize("command", ["analyze", "greedy", "exact"])
    def test_scale_too_long_to_print_is_refused_before_reading(self, capsys, tmp_path, s3_file, command):
        # The output prints r. 10^4300 has 4301 digits, one more than Python
        # converts an int to text by default; 10^4299 still prints.
        code, out, _ = _run(capsys, command, "--input", str(s3_file), "--r", "1e-4299", "--k", "1")
        assert code == 0 and out
        for r in ("1e-4300", "1e4300"):
            code, out, err = _run(capsys, command, "--input", str(tmp_path / "unread"), "--r", r, "--k", "1")
            assert code == 1 and not out
            assert f"argument --r: '{r}' has too many digits to print" in err and "unread" not in err

    @pytest.mark.parametrize("command", ["analyze", "exact", "verify"])
    def test_negative_exact_limit_is_an_input_error(self, capsys, s3_file, command):
        argv = ["--r", "1", "--k", "1", "--input", str(s3_file)] if command != "verify" else []
        code, out, err = _run(capsys, command, *argv, "--exact-limit", "-1")
        assert code == 1 and not out
        assert err == "error: --exact-limit must be non-negative, got -1\n"

    def test_zero_exact_limit_stays_valid(self, capsys, s3_file):
        argv = ["analyze", "--r", "1", "--k", "1", "--input", str(s3_file), "--exact-limit", "0"]
        code, out, _ = _run(capsys, *argv)
        assert code == 0 and json.loads(out)["exact"]["measure"] is None

    def test_two_line_file_names_the_missing_rows(self, capsys, tmp_path):
        path = tmp_path / "two.space"
        path.write_text("2\na b\n", encoding="utf-8")
        code, out, err = _run(capsys, "analyze", "--r", "1", "--k", "1", "--input", str(path))
        assert code == 1 and not out
        assert err == f"error: {path}: expected 2 distance rows, file ends after 0\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "eps, message",
        [("0", "eps must be positive, got 0"), ("1", "eps must lie in (0, 1), got 1")],
    )
    def test_discretize_eps_at_the_ends_is_an_input_error(self, capsys, tmp_path, eps, message):
        path = tmp_path / "weighted.space"
        path.write_text("2\nx y\n0 1\n1 0\n0.5 0.5\n", encoding="utf-8")
        code, out, err = _run(capsys, "discretize", "--input", str(path), "--eps", eps)
        assert code == 1 and not out
        assert err == f"error: {message}\n"
        assert "Traceback" not in err

    def test_string_n_is_named_as_the_fault(self, capsys, tmp_path):
        path = tmp_path / "input.json"
        content = '{"n": "2", "labels": ["a", "b"], "dist": [["0", "1"], ["1", "0"]]}'
        path.write_text(content, encoding="utf-8")
        code, out, err = _run(capsys, "analyze", "--r", "1", "--k", "1", "--input", str(path))
        assert code == 1 and "n must be an integer" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "--input", "x.space", "--r", "abc", "--k", "1"], "argument --r"),
            (["analyze", "--r", "1", "--k", "1"], "the following arguments are required: --input"),
            (["verify", "--trials", "x"], "argument --trials: invalid int value: 'x'"),
        ],
        ids=["bad-r", "missing-input", "bad-trials"],
    )
    def test_usage_error_is_exit_1(self, capsys, argv, message):
        code, out, err = _run(capsys, *argv)
        assert code == 1 and not out
        assert err.startswith(f"usage: clustercert {argv[0]} ")
        assert f"clustercert {argv[0]}: error: {message}" in err

    def test_usage_error_exit_status_of_the_process(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        run = subprocess.run(
            [sys.executable, "-m", "clustercert.cli", "verify", "--trials", "x"],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 1 and not run.stdout
        assert "error: argument --trials" in run.stderr

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: clustercert analyze ")
