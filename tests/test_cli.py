"""Command-line behaviour, exercised through main() with captured output."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moddeg
from moddeg import generators
from moddeg.cli import main
from moddeg.graph import parse_graph


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.txt"
    code = main(["gen", "--kind", "star", "--param", "leaves=6",
                 "--param", "center_side=2", "--out", str(path)])
    assert code == 0
    return path


class TestGen:
    def test_writes_parsable_instance(self, star_file, capsys):
        text = star_file.read_text()
        assert text.startswith("# star(center_side=2,leaves=6)\n")
        g = parse_graph(text)
        assert (g.n1, g.n2) == (6, 1)

    def test_stdout_default(self, capsys):
        code, out, _ = run(["gen", "--kind", "matching", "--param", "pairs=2"], capsys)
        assert code == 0
        assert out == "# matching(pairs=2)\n2 2\n0 2\n1 3\n"

    def test_seeded_generation_is_stable(self, capsys):
        args = ["gen", "--kind", "random", "--seed", "5",
                "--param", "n1=4", "--param", "n2=4", "--param", "p=0.4"]
        _, out1, _ = run(args, capsys)
        _, out2, _ = run(args, capsys)
        assert out1 == out2
        assert "seed=5" in out1

    def test_bad_param_syntax(self, capsys):
        with pytest.raises(SystemExit):
            main(["gen", "--kind", "star", "--param", "leaves"])

    def test_unknown_generator_param(self, capsys):
        code, _, err = run(["gen", "--kind", "star", "--param", "rays=3"], capsys)
        assert code == 2
        assert "error" in err


class TestFind:
    def test_roundtrip_from_file(self, star_file, capsys):
        code, out, _ = run(
            ["find", "--input", str(star_file), "--k", "2"], capsys
        )
        assert code == 0
        assert "order 6 of 7 vertices" in out
        assert "route 3" in out
        assert "verification (degrees = 1 mod 2): ok" in out

    def test_json_payload(self, star_file, capsys):
        code, out, _ = run(
            ["find", "--input", str(star_file), "--k", "2", "--json", "--verbose"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["vertices"] == [1, 2, 3, 4, 5, 6]
        assert payload["sets"]["chosen"] == [6]
        assert payload["sizes"]["subgraph"] == 6

    # The whole `find --json --verbose` line, pinned byte for byte: K33 at
    # k=3 is won by route 1 (route 3 ties it), star(6) at k=2 by route 3.
    K33 = "3 3\n" + "".join(f"{u} {w}\n" for u in range(3) for w in range(3, 6))
    K33_PAYLOAD = (
        '{"achieved_scores": {"3": 1}, "analysis_case": 1, "bucket_exponent": 0, '
        '"candidate_sizes": {"1": 2, "2": null, "3": 2}, "case": 1, '
        '"expected_scores": {"3": 1.0}, "k": 3, "mode": "MODE", "retries": 16, '
        '"schema_version": 1, "seed": SEED, "sets": {"bucket": [2], '
        '"chosen": null, "heavy": [], "patch": null, "subgraph": [0, 5], '
        '"unit_targets": null}, "sizes": {"bucket": 1, "chosen": null, '
        '"dominators": [1, 1], "heavy": 0, "patch": null, "remainder": 1, '
        '"subgraph": 2, "unit_targets": null}, "verified": true, '
        '"vertices": [0, 5]}\n'
    )
    STAR_PAYLOAD = (
        '{"achieved_scores": {"3": 5}, "analysis_case": 1, "bucket_exponent": 0, '
        '"candidate_sizes": {"1": 2, "2": null, "3": 6}, "case": 3, '
        '"expected_scores": {"3": 5.0}, "k": 2, "mode": "MODE", "retries": 16, '
        '"schema_version": 1, "seed": SEED, "sets": {"bucket": [1, 2, 3, 4, 5], '
        '"chosen": [6], "heavy": [], "patch": [], "subgraph": [1, 2, 3, 4, 5, 6], '
        '"unit_targets": [1, 2, 3, 4, 5]}, "sizes": {"bucket": 5, "chosen": 1, '
        '"dominators": [1], "heavy": 0, "patch": 0, "remainder": 5, '
        '"subgraph": 6, "unit_targets": 5}, "verified": true, '
        '"vertices": [1, 2, 3, 4, 5, 6]}\n'
    )

    @pytest.mark.parametrize("mode, seed", [("sampled", "0"), ("derandomized", "null")])
    @pytest.mark.parametrize("graph", ["k33", "star"])
    def test_full_verbose_payload(self, graph, mode, seed, star_file, tmp_path, capsys):
        if graph == "k33":
            path, k, want = tmp_path / "k33.txt", "3", self.K33_PAYLOAD
            path.write_text(self.K33)
        else:
            path, k, want = star_file, "2", self.STAR_PAYLOAD
        code, out, _ = run(
            ["find", "--input", str(path), "--k", k, "--mode", mode, "--seed", "0",
             "--json", "--verbose"],
            capsys,
        )
        assert code == 0
        assert out == want.replace("MODE", mode).replace("SEED", seed)

    def test_trace_file(self, star_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code, out, _ = run(
            ["find", "--input", str(star_file), "--k", "2", "--trace", str(trace)],
            capsys,
        )
        assert code == 0
        payload = json.loads(trace.read_text())
        assert payload["case"] == 3
        assert payload["verified"] is True

    def test_stdin_permissive(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 9\n9 4\n4 7\n"))
        code, out, _ = run(["find", "--permissive", "--k", "2"], capsys)
        assert code == 0
        assert "ok" in out

    def test_derandomized_mode(self, star_file, capsys):
        code, out, _ = run(
            ["find", "--input", str(star_file), "--k", "2",
             "--mode", "derandomized"],
            capsys,
        )
        assert code == 0

    def test_missing_file(self, capsys):
        code, _, err = run(["find", "--input", "/nonexistent", "--k", "2"], capsys)
        assert code == 2
        assert "error" in err

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a graph\n")
        code, _, err = run(["find", "--input", str(bad), "--k", "2"], capsys)
        assert code == 2

    def test_header_larger_than_edge_list(self, tmp_path, capsys):
        path = tmp_path / "huge_header.txt"
        path.write_text("1000000 1\n0 1000000\n")
        code, out, err = run(["find", "--input", str(path), "--k", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 1: ") and err.count("\n") == 1

    def test_threshold_exponent_below_one(self, star_file, capsys):
        code, out, err = run(
            ["find", "--input", str(star_file), "--k", "2",
             "--threshold-exponent", "0"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestOracle:
    def test_exact_with_cross_check(self, star_file, capsys):
        code, out, _ = run(
            ["oracle", "--input", str(star_file), "-q", "2", "--naive"], capsys
        )
        assert code == 0
        assert "exact order: 6" in out
        assert "agree" in out

    def test_flag_aliases(self, star_file, capsys):
        for flags in (["--modulus", "3", "--residue", "1"],
                      ["--q", "3", "--r", "1"],
                      ["-q", "3", "-r", "1"]):
            code, out, _ = run(["oracle", "--input", str(star_file), *flags], capsys)
            assert code == 0

    def test_json_output(self, star_file, capsys):
        code, out, _ = run(
            ["oracle", "--input", str(star_file), "-q", "2", "--json", "--naive"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == 6
        assert payload["agree"] is True
        assert payload["timed_out"] is False
        assert len(payload["witness"]) == 6

    def test_budget_exhaustion_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "k66.txt"
        main(["gen", "--kind", "complete", "--param", "a=6", "--param", "b=6",
              "--out", str(path)])
        code, out, _ = run(
            ["oracle", "--input", str(path), "-q", "2", "--budget", "10"], capsys
        )
        assert code == 1
        assert "lower bound" in out

    def test_bad_residue_spec(self, star_file, capsys):
        code, _, err = run(
            ["oracle", "--input", str(star_file), "-q", "2", "-r", "5"], capsys
        )
        assert code == 2


class TestBench:
    INLINE = ["bench", "--kind", "random", "--param", "n1=6", "--param", "n2=5",
              "--param", "p=0.4", "--count", "5", "--k", "2", "--seed", "21"]

    def test_inline_batch_reproducible(self, capsys):
        code1, out1, _ = run(self.INLINE, capsys)
        code2, out2, _ = run(self.INLINE, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.startswith("# schema_version=1 k=2 mode=sampled seed=21")

    def test_json_format(self, capsys):
        code, out, _ = run(self.INLINE + ["--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["count"] == 5
        assert payload["summary"]["all_verified"] is True

    def test_spec_file(self, tmp_path, capsys):
        spec = {
            "k": 3,
            "mode": "derandomized",
            "seed": 4,
            "instances": [
                {"kind": "matching", "count": 2, "params": {"pairs": 4}},
                {"kind": "complete", "params": {"a": 3, "b": 3}},
            ],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(["bench", "--spec", str(path)], capsys)
        assert code == 0
        assert "# schema_version=1 k=3 mode=derandomized seed=4" in out
        assert out.count("matching") == 2
        assert out.count("complete") == 1

    def test_cli_flags_override_spec_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "k": 3,
            "instances": [{"kind": "matching", "params": {"pairs": 2}}],
        }))
        code, out, _ = run(["bench", "--spec", str(path), "--k", "5"], capsys)
        assert code == 0
        assert " k=5 " in out.splitlines()[0]

    def test_oracle_column(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code = main(self.INLINE + ["--oracle-max-n", "14", "--out", str(out_path)])
        assert code == 0
        body = out_path.read_text().splitlines()
        optimum_col = body[1].split(",").index("optimum")
        assert all(row.split(",")[optimum_col] != "" for row in body[2:])

    def test_missing_modulus(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "instances": [{"kind": "matching", "params": {"pairs": 2}}],
        }))
        code, _, err = run(["bench", "--spec", str(path)], capsys)
        assert code == 2
        assert err == "error: no modulus; pass --k or put k in the spec file\n"

    def test_missing_instances(self, capsys):
        code, _, err = run(["bench", "--k", "2"], capsys)
        assert code == 2
        assert err == "error: no instances; pass --spec or --kind\n"

    @pytest.mark.parametrize("spec, flags", [
        ({"k": 2, "instances": [{"count": 2, "params": {"pairs": 2}}]}, []),
        ({"k": 2, "mode": "greedy",
          "instances": [{"kind": "matching", "params": {"pairs": 2}}]}, []),
        ({"k": 2, "instances": [{"kind": "matching", "params": {"pairs": 2}}]},
         ["--retries", "0"]),
        ([{"kind": "matching"}], []),
        ({"k": 2, "instances": [{"kind": "nope", "count": 2}]}, []),
        ({"k": 2, "instances": [{"kind": "matching", "count": "3"}]}, []),
        ({"k": 2, "instances": [{"kind": "matching", "count": 0}]}, []),
        ({"k": 2, "instances": [{"kind": "matching", "params": [1]}]}, []),
        ({"k": 2, "instances": {"kind": "matching"}}, []),
        ({"k": [2], "instances": [{"kind": "matching", "params": {"pairs": 2}}]},
         []),
        ({"k": 2}, ["--kind", "matching", "--count", "0"]),
        ({"k": 2, "instances": [{"kind": "star", "params": {"rays": 3}}]}, []),
        ({"k": 2}, ["--kind", "star", "--param", "rays=3"]),
    ], ids=["instance-without-kind", "bad-mode-in-spec", "retries-zero",
            "spec-not-an-object", "unknown-kind", "count-not-an-integer",
            "count-zero", "params-not-an-object", "instances-not-a-list",
            "k-not-an-integer", "inline-count-zero", "unknown-generator-param",
            "inline-unknown-generator-param"])
    def test_bad_run_parameters_are_usage_errors(self, spec, flags, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(["bench", "--spec", str(path), *flags], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_timing_breaks_no_canonical_fields(self, capsys):
        code, out, _ = run(self.INLINE + ["--timing"], capsys)
        assert code == 0
        assert out.splitlines()[1].endswith("elapsed_s")


class TestMixing:
    def test_text_table(self, capsys):
        code, out, _ = run(["mixing", "--k-max", "5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split()[0] == "k"
        assert len(lines) == 5  # header + k in 2..5

    def test_csv_table(self, capsys):
        code, out, _ = run(["mixing", "--k-max", "4", "--format", "csv"], capsys)
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0].startswith("k,")
        assert len(rows) == 4

    def test_failing_rows_still_printed(self, capsys):
        code, out, err = run(
            ["mixing", "--threshold-exponent", "1", "--k-max", "6"], capsys
        )
        assert code == 1
        rows = out.strip().splitlines()
        assert [row.split()[0] for row in rows] == ["k", "2", "3", "4", "5", "6"]
        assert "Traceback" not in err
        assert "k = " in err and "5" in err.split("k = ")[1].split(", ")


    def test_threshold_exponent_up_to_the_largest_double(self, capsys):
        code, out, err = run(
            ["mixing", "--threshold-exponent", "646", "--k-max", "3"], capsys
        )
        assert code == 0
        assert [row.split()[0] for row in out.strip().splitlines()] == ["k", "2", "3"]
        assert err == ""

    def test_threshold_exponent_beyond_a_double_is_a_usage_error(self, capsys):
        code, out, err = run(
            ["mixing", "--threshold-exponent", "647", "--k-max", "3"], capsys
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestModuleEntryPoints:
    def test_python_dash_m(self):
        src = str(Path(moddeg.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for module in ("moddeg", "moddeg.cli"):
            proc = subprocess.run(
                [sys.executable, "-m", module, "mixing", "--k-max", "3"],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": path},
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[0].split()[0] == "k"


class TestSeedEnvironment:
    def test_env_seed_used_as_default(self, capsys, monkeypatch, tmp_path):
        args = ["gen", "--kind", "random",
                "--param", "n1=4", "--param", "n2=4", "--param", "p=0.5"]
        monkeypatch.setenv("MODDEG_SEED", "7")
        _, out_env, _ = run(args, capsys)
        monkeypatch.delenv("MODDEG_SEED")
        _, out_explicit, _ = run(args + ["--seed", "7"], capsys)
        assert out_env == out_explicit

    def test_invalid_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("MODDEG_SEED", "lots")
        code, out, err = run(["gen", "--kind", "random", "--param", "n1=2",
                              "--param", "n2=2", "--param", "p=0.5"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: MODDEG_SEED must be an integer, got 'lots'\n"


# Inputs for the boundary fuzz test: integers stay small so every run is quick.
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 50) | st.floats(0, 1)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_blocks = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(sorted(generators.GENERATORS)) | _json,
    "count": st.integers(-1, 3) | _json,
    "params": st.dictionaries(
        st.sampled_from(["n1", "n2", "p", "degree", "a", "b", "pairs", "leaves",
                         "center_side"]),
        st.integers(0, 50) | st.floats(0, 1),
        max_size=3,
    ) | _json,
})
_specs = _json | st.fixed_dictionaries({}, optional={
    "k": st.integers(-1, 50) | _json,
    "mode": st.sampled_from(["sampled", "derandomized"]) | _json,
    "retries": st.integers(-1, 50) | _json,
    "seed": st.integers(-50, 50) | _json,
    "instances": st.lists(_blocks, max_size=3) | _json,
})
_edge_lists = st.lists(
    st.lists(
        st.integers(-3, 50).map(str) | st.sampled_from(["#", "x", "1.5", "-", ""]),
        max_size=3,
    ).map(" ".join),
    max_size=10,
).map("\n".join) | st.text(max_size=30)


class TestBoundaryFuzz:
    @settings(max_examples=100, deadline=None)
    @given(request=st.one_of(
        st.tuples(st.just("find"), _edge_lists, st.booleans()),
        st.tuples(st.just("bench"), _specs.map(json.dumps), st.just(False)),
    ))
    def test_malformed_input_exits_cleanly(self, request, tmp_path_factory):
        command, text, permissive = request
        path = tmp_path_factory.getbasetemp() / "fuzz_input"
        path.write_text(text, encoding="utf-8")
        if command == "find":
            argv = ["find", "--input", str(path), "--k", "3", "--json"]
            argv += ["--permissive"] if permissive else []
        else:
            argv = ["bench", "--spec", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
