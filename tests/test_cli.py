"""Command-line behaviour, exercised through main() with captured output."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
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


def write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


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

    @pytest.mark.parametrize("param", ["seed=5", "kind=x"])
    def test_param_naming_a_gen_option_is_a_usage_error(self, param, capsys):
        code, out, err = run(
            ["gen", "--kind", "star", "--param", "leaves=3", "--param", param], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --param: ") and err.count("\n") == 1
        assert f"argument '{param.split('=')[0]}'" in err

    @pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB", ""])
    def test_out_of_memory_is_one_error_line(self, message, capsys, monkeypatch):
        def too_large(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(generators, "generate", too_large)
        code, out, err = run(["gen", "--kind", "matching", "--param", "pairs=3"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert message in err

    def test_omitted_seed_is_zero(self, capsys):
        args = ["gen", "--kind", "random",
                "--param", "n1=4", "--param", "n2=4", "--param", "p=0.5"]
        _, out_default, _ = run(args, capsys)
        _, out_zero, _ = run(args + ["--seed", "0"], capsys)
        assert out_default == out_zero

    @pytest.mark.parametrize("kind, params, message", [
        ("random", ["n1=0", "n2=3", "p=0.5"], "got n1=0, n2=3"),
        ("random", ["n1=3", "n2=-1", "p=0.5"], "got n1=3, n2=-1"),
        ("regularish", ["n1=0", "n2=3", "degree=2"], "got n1=0, n2=3"),
        ("regularish", ["n1=4", "n2=0", "degree=2"], "got n1=4, n2=0"),
        ("matching", ["pairs=-1"], "got pairs=-1"),
        ("complete", ["a=0", "b=2"], "got a=0, b=2"),
    ])
    def test_empty_side_is_a_usage_error(self, kind, params, message, capsys):
        args = ["gen", "--kind", kind]
        for param in params:
            args += ["--param", param]
        code, out, err = run(args, capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: both sides must be non-empty, {message}\n"

    @pytest.mark.parametrize("kind, param, message", [
        ("star", "leaves=2.5", "'leaves' must be an integer, got 2.5"),
        ("star", "leaves=x", "'leaves' must be an integer, got 'x'"),
        ("random", "p=x", "'p' must be a number, got 'x'"),
    ])
    def test_param_of_the_wrong_type_is_a_usage_error(self, kind, param, message,
                                                      capsys):
        args = {"star": [], "random": ["--param", "n1=3", "--param", "n2=3"]}[kind]
        code, out, err = run(["gen", "--kind", kind, *args, "--param", param], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --param: bad parameters for {kind!r}: {message}\n"


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

    def test_modulus_far_beyond_the_chain_costs_nothing(self, tmp_path, capsys):
        # side 1 runs out of targets long before k - 1 levels, and no
        # level is built, kept or reported past that point
        path = tmp_path / "regularish.txt"
        assert main(["gen", "--kind", "regularish", "--seed", "1", "--param", "n1=40",
                     "--param", "n2=20", "--param", "degree=3", "--out", str(path)]) == 0
        payloads = {}
        for k in (10**6, 10**12):
            start = time.perf_counter()
            code, out, _ = run(
                ["find", "--input", str(path), "--k", str(k), "--json"], capsys
            )
            elapsed = time.perf_counter() - start
            assert code == 0
            assert elapsed < 1.0
            payloads[k] = json.loads(out)
        assert payloads[10**12].pop("k") == 10**12
        assert payloads[10**6].pop("k") == 10**6
        assert payloads[10**12] == payloads[10**6]

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

    @pytest.mark.parametrize("command", [["find", "--k", "2"], ["oracle", "-q", "2"]],
                             ids=["find", "oracle"])
    def test_undecodable_input_names_the_file(self, command, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_bytes(b"\xff 1\n0 1\n")
        code, out, err = run(command + ["--input", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    def test_isolated_vertex_named_as_in_the_file(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2 3\n0 2\n1 3\n0 3\n"))
        code, out, err = run(["find", "--k", "2"], capsys)
        assert (code, out, err) == (2, "", "error: vertex 4 has no incident edge\n")

    def test_header_larger_than_edge_list(self, tmp_path, capsys):
        path = tmp_path / "huge_header.txt"
        path.write_text("1000000 1\n0 1000000\n")
        code, out, err = run(["find", "--input", str(path), "--k", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 1: ") and err.count("\n") == 1


def recount(document: str, ids: list[int], modulus: int) -> bool:
    """Whether ``ids`` is a non-empty set inducing degrees of 1 mod
    ``modulus``, recounted from the document's own header and edge lines."""
    rows = np.loadtxt(io.StringIO(document), dtype=np.int64, comments="#", ndmin=2)
    (n1, n2), edges = rows[0], rows[1:]
    member = np.zeros(n1 + n2, dtype=bool)
    member[ids] = True
    inside = edges[member[edges].all(axis=1)]
    degrees = np.bincount(inside.ravel(), minlength=n1 + n2)
    return bool(ids) and bool((degrees[ids] % modulus == 1).all())


class TestDocumentIds:
    """A labeled document with more side-2 than side-1 vertices keeps its
    sides, so the printed ids are the document's."""

    @pytest.mark.parametrize("n1, n2, seed", [(2, 6, 0), (3, 7, 1), (4, 9, 2),
                                              (5, 8, 3), (3, 9, 4), (5, 6, 5)])
    def test_printed_ids_verify_on_the_document(self, n1, n2, seed, tmp_path, capsys):
        path = tmp_path / "doc.txt"
        assert main(["gen", "--kind", "random", "--seed", str(seed),
                     "--param", f"n1={n1}", "--param", f"n2={n2}",
                     "--param", "p=0.3", "--out", str(path)]) == 0
        document = path.read_text()
        for k in (2, 3, 4):
            for mode in ("sampled", "derandomized"):
                code, out, _ = run(["find", "--input", str(path), "--k", str(k),
                                    "--mode", mode, "--json"], capsys)
                assert code == 0
                assert recount(document, json.loads(out)["vertices"], k)
            code, out, _ = run(
                ["oracle", "--input", str(path), "-q", str(k), "--json"], capsys
            )
            assert code == 0
            assert recount(document, json.loads(out)["witness"], k)


class TestByteIdentity:
    """sha256 of whole outputs at fixed seeds: a change to any id, count or
    printed float digit shows here."""

    FIND = {
        ("2000,1000,3", 2, "sampled"):
            "48eaa17de44f5b21b77b4c88ba067f83e3ca83670b73bba304fa3d41890fa835",
        ("2000,1000,3", 2, "derandomized"):
            "5426bd472d642d963fe765192fbe91a8a77d9e5b879522cabde67be7a9ca2583",
        ("2000,1000,3", 3, "sampled"):
            "f43991d75484a8614772d7804ea928429d44906b305bf9093faddbfa2469d220",
        ("2000,1000,3", 3, "derandomized"):
            "d1a7bbc517910a8925c56399309e812b271e038c86e4caf9137fbf87345fa90a",
        ("2000,1000,3", 5, "sampled"):
            "d2ece6c7e1f36250411fbaf99de2ee66927635ec317750cca088e23fafa72ad0",
        ("2000,1000,3", 5, "derandomized"):
            "a94e16cf422532acf2a1cd4f042b1f7c8fdc2444aa4c29c94fb2a87c0adfefb2",
        ("800,80,40", 2, "sampled"):
            "30fefa8274c73819a0962cf7959bce4ddbf5a81d52cb08fd63928d08109d77ff",
        ("800,80,40", 2, "derandomized"):
            "4b89e854b8cbbee0357cdd1c1543d441db74519eebcd702c2d15fc1ec6724ae9",
        ("800,80,40", 3, "sampled"):
            "a60f9fd0828c3cf6e9e0edd31027a24ca668c2aeb077322e2501c2d4433aa6d9",
        ("800,80,40", 3, "derandomized"):
            "eac4fe1b4242213f7605923f2ce0e9ed74fb96e03386e83686bf0ea6d2cd5000",
        ("800,80,40", 5, "sampled"):
            "ed566cb2a359647d1f3f32d79d30e335e9f6d35b8489abe65077eae65669987e",
        ("800,80,40", 5, "derandomized"):
            "c8d36f709079452bed7f89e9cba84b1b47dd95e9929f7a5cce4d14d09b26e335",
        # the benchmark's sparse-find document, at the scale it runs
        ("20000,10000,3", 3, "sampled"):
            "44eaff2b1ad5f97e123ae91d7346b086c62c57dd212f3ef13922ec6a4ec060c5",
        ("20000,10000,3", 3, "derandomized"):
            "a9dd08eb8198e5a7d98c98dea65b879a76ada645d254bbee43bd6df5b7cacdea",
        ("20000,10000,3", 5, "sampled"):
            "357c2793de1abe6b4dc574d2e1c52cb60afce6527179bf38234e1937c1003800",
        ("20000,10000,3", 5, "derandomized"):
            "1ca69d0c38bb8e7876cb5a0b41927c3ce57fbaf4c226ab151201acb115571b5c",
    }
    BENCH = "66263ba7b5ce40b976277935b7f598a854c69d227b02301a0a3c24d7e7697545"
    GEN = {
        "2000,1000,3":
            "0830cdbf01fcb6beac992e57faef8c78736c47a3e94d3b0eabfcf4f69fc285c7",
        "800,80,40":
            "f1d625bae7cc132dc7875cde9273993e0b19eed59ec429c26d983c766a42d3c2",
        # the documents of the benchmark's sparse-find and dense-find
        "20000,10000,3":
            "a80586e043ea1f6fff3db1e338d5f6d7efb6b2aa614de3e6ca7bf21feb6ffd95",
        "8000,800,40":
            "e4df3edeb803285ef62a752cf2f920c157e2d36a2a2eb20d175da4bdeb9e95d4",
    }
    GEN_RANDOM = "7a1a795ed864774690d03163d6d258a7a6436a72b7492a464589367e790b7658"

    @staticmethod
    def sha256(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @pytest.fixture(scope="class")
    def regularish(self, tmp_path_factory):
        paths = {}
        for sizes in {key[0] for key in self.FIND} | set(self.GEN):
            n1, n2, degree = sizes.split(",")
            paths[sizes] = tmp_path_factory.mktemp("regularish") / "graph.txt"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["gen", "--kind", "regularish", "--seed", "1",
                             "--param", f"n1={n1}", "--param", f"n2={n2}",
                             "--param", f"degree={degree}",
                             "--out", str(paths[sizes])]) == 0
        return paths

    @pytest.mark.parametrize("sizes, k, mode", sorted(FIND))
    def test_find_json_verbose(self, sizes, k, mode, regularish, capsys):
        code, out, _ = run(
            ["find", "--input", str(regularish[sizes]), "--k", str(k), "--mode", mode,
             "--seed", "1", "--json", "--verbose"],
            capsys,
        )
        assert code == 0
        assert self.sha256(out) == self.FIND[sizes, k, mode]

    @pytest.mark.parametrize("sizes", sorted(GEN))
    def test_gen_regularish(self, sizes, regularish):
        text = regularish[sizes].read_text(encoding="utf-8")
        assert self.sha256(text) == self.GEN[sizes]

    def test_gen_random(self, capsys):
        code, out, _ = run(
            ["gen", "--kind", "random", "--seed", "1", "--param", "n1=300",
             "--param", "n2=200", "--param", "p=0.05"],
            capsys,
        )
        assert code == 0
        assert self.sha256(out) == self.GEN_RANDOM

    def test_bench_json_with_oracle(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"k": 3, "instances": [
            {"kind": "random", "count": 20, "params": {"n1": 16, "n2": 10, "p": 0.25}},
        ]})
        code, out, _ = run(
            ["bench", "--spec", str(spec), "--oracle-max-n", "30", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert self.sha256(out) == self.BENCH


class TestOracle:
    def test_exact_with_cross_check(self, star_file, capsys):
        code, out, _ = run(
            ["oracle", "--input", str(star_file), "-q", "2", "--naive"], capsys
        )
        assert code == 0
        assert "exact order: 6" in out
        assert "agree" in out
        assert "incumbent improvements" in out

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
        for key in ("bound_prunes", "infeasible_prunes", "improvements"):
            assert isinstance(payload[key], int)
        assert payload["improvements"] >= 1

    def test_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        path = tmp_path / "matching700.txt"
        main(["gen", "--kind", "matching", "--param", "pairs=700",
              "--out", str(path)])
        code, out, _ = run(["oracle", "--input", str(path), "-q", "3"], capsys)
        assert code == 0
        assert "exact order: 1400" in out

    def test_naive_size_checked_before_the_search(self, tmp_path, capsys,
                                                  monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(moddeg.oracle, "exact_max_order", no_search)
        path = tmp_path / "matching11.txt"
        main(["gen", "--kind", "matching", "--param", "pairs=11",
              "--out", str(path)])
        code, out, err = run(
            ["oracle", "--input", str(path), "-q", "2", "--naive"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_budget_exhaustion_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "k66.txt"
        main(["gen", "--kind", "complete", "--param", "a=6", "--param", "b=6",
              "--out", str(path)])
        code, out, _ = run(
            ["oracle", "--input", str(path), "-q", "2", "--budget", "4"], capsys
        )
        assert code == 1
        assert "lower bound" in out

    def test_bad_residue_spec(self, star_file, capsys):
        code, _, err = run(
            ["oracle", "--input", str(star_file), "-q", "2", "-r", "5"], capsys
        )
        assert code == 2


class TestBench:
    BATCH = {"k": 2, "seed": 21, "instances": [
        {"kind": "random", "count": 5, "params": {"n1": 6, "n2": 5, "p": 0.4}},
    ]}

    @pytest.fixture
    def batch(self, tmp_path):
        return ["bench", "--spec", str(write_spec(tmp_path, self.BATCH))]

    def test_inline_batch_reproducible(self, batch, capsys):
        code1, out1, _ = run(batch, capsys)
        code2, out2, _ = run(batch, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.startswith("# schema_version=1 k=2 mode=sampled seed=21")

    def test_json_format(self, batch, capsys):
        code, out, _ = run(batch + ["--format", "json"], capsys)
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

    def test_modulus_far_beyond_every_chain(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"k": 10**12, "instances": [
            {"kind": "star", "params": {"leaves": 6, "center_side": 2}},
            {"kind": "random", "count": 4, "params": {"n1": 8, "n2": 6, "p": 0.3}},
        ]})
        code, out, _ = run(
            ["bench", "--spec", str(path), "--oracle-max-n", "20", "--format", "json"],
            capsys,
        )
        assert code == 0
        records = json.loads(out)["records"]
        assert len(records) == 5
        for record in records:
            assert record["error"] is None
            assert record["verified"] is True
            assert record["optimum_exact"] is True

    def test_oracle_column(self, batch, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code = main(batch + ["--oracle-max-n", "14", "--out", str(out_path)])
        assert code == 0
        body = out_path.read_text().splitlines()
        optimum_col = body[1].split(",").index("optimum")
        assert all(row.split(",")[optimum_col] != "" for row in body[2:])

    def test_missing_modulus(self, tmp_path, capsys):
        path = write_spec(tmp_path, {
            "instances": [{"kind": "matching", "params": {"pairs": 2}}],
        })
        code, _, err = run(["bench", "--spec", str(path)], capsys)
        assert code == 2
        assert err == f'error: {path}: "k" is required\n'

    @pytest.mark.parametrize("body", [b"{}}", b'{"k": 2, "instances": \xff}'],
                             ids=["not-json", "not-utf-8"])
    def test_unreadable_spec_names_the_file(self, body, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_bytes(body)
        code, out, err = run(["bench", "--spec", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_missing_instances(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"k": 2})
        code, _, err = run(["bench", "--spec", str(path)], capsys)
        assert code == 2
        assert err == f'error: {path}: "instances" is required\n'

    @pytest.mark.parametrize("spec", [
        {"k": 2, "instances": [{"count": 2, "params": {"pairs": 2}}]},
        {"k": 2, "mode": "greedy",
         "instances": [{"kind": "matching", "params": {"pairs": 2}}]},
        {"k": 2, "retries": 0,
         "instances": [{"kind": "matching", "params": {"pairs": 2}}]},
        [{"kind": "matching"}],
        {"k": 2, "instances": [{"kind": "nope", "count": 2}]},
        {"k": 2, "instances": [{"kind": "matching", "count": "3"}]},
        {"k": 2, "instances": [{"kind": "matching", "count": 0}]},
        {"k": 2, "instances": [{"kind": "matching", "params": [1]}]},
        {"k": 2, "instances": {"kind": "matching"}},
        {"k": [2], "instances": [{"kind": "matching", "params": {"pairs": 2}}]},
        {"k": 2, "instances": [{"kind": "star", "params": {"rays": 3}}]},
        {"k": 2, "retires": 4,
         "instances": [{"kind": "matching", "params": {"pairs": 2}}]},
        {"k": 2, "instances": [{"kind": "matching", "cout": 2,
                                "params": {"pairs": 2}}]},
        {"k": 2, "instances": []},
        {"k": 2, "instances": [{"kind": ["star"]}]},
        {"k": 1, "instances": [{"kind": "matching", "params": {"pairs": 2}}]},
        {"k": 2, "mode": 3,
         "instances": [{"kind": "matching", "params": {"pairs": 2}}]},
    ], ids=["instance-without-kind", "bad-mode-in-spec", "retries-zero",
            "spec-not-an-object", "unknown-kind", "count-not-an-integer",
            "count-zero", "params-not-an-object", "instances-not-a-list",
            "k-not-an-integer", "unknown-generator-param", "unknown-spec-key",
            "unknown-block-key", "instances-empty", "kind-not-a-string",
            "k-one", "mode-not-a-string"])
    def test_bad_run_parameters_are_usage_errors(self, spec, tmp_path, capsys):
        path = write_spec(tmp_path, spec)
        code, out, err = run(["bench", "--spec", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_empty_side_in_a_spec_is_a_usage_error(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"k": 2, "instances": [
            {"kind": "matching", "params": {"pairs": 2}},
            {"kind": "regularish", "params": {"n1": 0, "n2": 3, "degree": 1}},
        ]})
        code, out, err = run(["bench", "--spec", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: instance block 1: "
            "both sides must be non-empty, got n1=0, n2=3\n"
        )

    @pytest.mark.parametrize("kind, params, message", [
        ("random", {"n1": 3, "n2": 3, "p": 2}, "'p' must be in [0, 1], got 2"),
        ("random", {"n1": 3, "n2": 3, "p": -0.5}, "'p' must be in [0, 1], got -0.5"),
        ("star", {"leaves": 3, "center_side": 3}, "'center_side' must be 1 or 2, got 3"),
        ("star", {"leaves": 0}, "'leaves' must be >= 1, got 0"),
        ("regularish", {"n1": 4, "n2": 3, "degree": 4},
         "'degree' must be between 1 and n2=3, got 4"),
        ("regularish", {"n1": 4, "n2": 3, "degree": 0},
         "'degree' must be between 1 and n2=3, got 0"),
        ("complete", {"a": 2, "b": 0}, "both sides must be non-empty, got a=2, b=0"),
    ])
    def test_value_out_of_range_is_a_usage_error(self, kind, params, message,
                                                 tmp_path, capsys):
        path = write_spec(tmp_path, {"k": 2, "instances": [
            {"kind": "matching", "params": {"pairs": 2}},
            {"kind": kind, "params": params},
        ]})
        code, out, err = run(["bench", "--spec", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: instance block 1: {message}\n"

    @pytest.mark.parametrize("params, message", [
        ({"leaves": "x"}, "'leaves' must be an integer, got 'x'"),
        ({"leaves": 2.5}, "'leaves' must be an integer, got 2.5"),
        ({"leaves": 3, "center_side": True}, "'center_side' must be an integer, got True"),
    ])
    def test_param_of_the_wrong_type_is_a_usage_error(self, params, message,
                                                      tmp_path, capsys):
        path = write_spec(tmp_path, {"k": 2, "instances": [
            {"kind": "star", "params": params},
        ]})
        code, out, err = run(["bench", "--spec", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: instance block 0: bad parameters for 'star': {message}\n"
        )

    def test_timing_breaks_no_canonical_fields(self, batch, capsys):
        code, out, _ = run(batch + ["--timing"], capsys)
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

    def test_failing_rows_still_printed(self, capsys, skewed_at_five):
        code, out, err = run(["mixing", "--k-max", "6"], capsys)
        assert code == 1
        rows = out.strip().splitlines()
        assert [row.split()[0] for row in rows] == ["k", "2", "3", "4", "5", "6"]
        assert "Traceback" not in err
        assert "k = " in err and "5" in err.strip().split("k = ")[1].split(", ")


    @pytest.mark.parametrize("k_max", ["1", "0", "-3"])
    def test_k_max_below_two_is_a_usage_error(self, k_max, capsys):
        code, out, err = run(["mixing", "--k-max", k_max], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: k-max must be >= 2, got {k_max}\n"


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
