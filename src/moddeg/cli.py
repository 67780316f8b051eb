"""Command-line front end.

Subcommands:

* ``find``    read a bipartite graph, output a verified induced subgraph
              with every degree congruent to 1 mod k
* ``oracle``  exact maximum order for any residue/modulus pair, optionally
              cross-checked against full enumeration
* ``gen``     emit a generated instance in the labeled edge-list format
* ``bench``   run a reproducible batch and print a canonical report
* ``mixing``  near-uniformity table for the dyadic residue distribution

``bench`` takes its whole batch from one JSON spec file: the modulus, mode,
seed, retries and instance list.

Exit status: 0 on success with all verifications passing, 1 when a
verification or cross-check fails, 2 for bad input or bad usage.  An
omitted ``--seed`` or spec ``"seed"`` means 0.  The high-degree cut of
``find`` and the term count of ``mixing`` are both k^3
(:func:`moddeg.mixing.high_degree_cut`).

:func:`main` builds its parser once per process and reuses it on every
call.  That is safe because ``parse_args`` never mutates the parser: each
call fills a new namespace, and the ``append`` action behind ``gen
--param`` copies its default list before it appends, so no value carries
over from one call to the next.  :func:`build_parser` still returns a new
parser on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import generators, harness, mixing, oracle
from .construction import find_mod_one_subgraph
from .graph import (
    GraphError,
    ResidueSpec,
    parse_graph,
    serialize_graph,
    verify_residue,
)

SPEC_KEYS = ("k", "mode", "seed", "retries", "instances")
BLOCK_KEYS = ("kind", "count", "params")


def _read_graph(path: str, permissive: bool):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: {exc}") from None
    return parse_graph(text, permissive=permissive)


def _parse_param(item: str) -> tuple[str, object]:
    key, sep, raw = item.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected key=value, got {item!r}")
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            continue
    return key, raw


def _add_graph_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--input",
        default="-",
        metavar="PATH",
        help="edge-list file, or - for stdin (default)",
    )
    parser.add_argument(
        "--permissive",
        action="store_true",
        help="accept non-negative integer ids of any size and infer the bipartition",
    )


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moddeg",
        description="Induced subgraphs of bipartite graphs with degrees 1 mod k.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    find = sub.add_parser("find", help="find a verified degrees-1-mod-k subgraph")
    _add_graph_input(find)
    find.add_argument("--k", type=int, required=True, help="modulus, at least 2")
    find.add_argument(
        "--mode",
        choices=("sampled", "derandomized"),
        default="sampled",
        help="subset selection strategy (default: sampled)",
    )
    find.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    find.add_argument(
        "--retries", type=int, default=16, help="sampling draws per route"
    )
    find.add_argument("--json", action="store_true", help="emit the full trace as JSON")
    find.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="also write the trace as JSON to this file",
    )
    find.add_argument(
        "--verbose", action="store_true", help="include per-route vertex sets"
    )

    orc = sub.add_parser("oracle", help="exact maximum order for a residue target")
    _add_graph_input(orc)
    orc.add_argument(
        "--modulus", "--q", "-q", type=int, required=True, help="modulus, at least 2"
    )
    orc.add_argument(
        "--residue", "--r", "-r", type=int, default=1, help="target residue (default 1)"
    )
    orc.add_argument(
        "--budget",
        type=int,
        default=100_000_000,
        help="node budget for the branch-and-bound search",
    )
    orc.add_argument(
        "--naive",
        action="store_true",
        help="cross-check against full subset enumeration (small graphs only)",
    )
    orc.add_argument("--json", action="store_true", help="emit the result as JSON")

    gen = sub.add_parser("gen", help="generate an instance")
    gen.add_argument(
        "--kind",
        required=True,
        choices=sorted(generators.GENERATORS),
        help="instance family",
    )
    gen.add_argument(
        "--param",
        action="append",
        default=[],
        type=_parse_param,
        metavar="KEY=VALUE",
        help="generator parameter, repeatable",
    )
    gen.add_argument("--seed", type=int, default=0, help="generation seed (default 0)")
    gen.add_argument("--out", default="-", metavar="PATH", help="output file")

    bench = sub.add_parser("bench", help="run a reproducible batch")
    bench.add_argument(
        "--spec",
        required=True,
        metavar="PATH",
        help="JSON batch spec file with keys k, mode, seed, retries and instances "
        "(a non-empty list of {kind, count, params}); k and instances are required",
    )
    bench.add_argument(
        "--oracle-max-n",
        type=int,
        default=None,
        metavar="N",
        help="also compute the exact optimum for instances with up to N vertices",
    )
    bench.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="report format"
    )
    bench.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock timings (breaks byte-for-byte reproducibility)",
    )
    bench.add_argument("--out", default="-", metavar="PATH", help="output file")

    mix = sub.add_parser("mixing", help="near-uniformity table of dyadic residues")
    mix.add_argument("--k-max", type=int, default=25, help="largest modulus to check")
    mix.add_argument(
        "--format", choices=("text", "csv"), default="text", help="table format"
    )

    return parser


def _cmd_find(args) -> int:
    graph = _read_graph(args.input, args.permissive)
    subgraph, trace = find_mod_one_subgraph(
        graph, args.k, mode=args.mode, seed=args.seed, retries=args.retries
    )
    check = verify_residue(graph, subgraph, ResidueSpec(1, args.k))
    payload = trace.to_dict(verbose=args.verbose)
    payload["vertices"] = subgraph.ids()
    payload["verified"] = bool(check)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(
            f"order {len(subgraph)} of {graph.n} vertices "
            f"(ratio {len(subgraph) / graph.n:.4f})"
        )
        print(f"route {trace.case} (analysis route {trace.analysis_case})")
        print("vertices:", " ".join(map(str, subgraph.ids())))
        status = "ok" if check else f"FAILED at vertex {check.witness}"
        print(f"verification (degrees = 1 mod {args.k}): {status}")
    return 0 if check and len(subgraph) > 0 else 1


def _cmd_oracle(args) -> int:
    graph = _read_graph(args.input, args.permissive)
    spec = ResidueSpec(residue=args.residue, modulus=args.modulus)
    naive_order = agree = None
    if args.naive:
        # enumerate first: it rejects a graph above ENUMERATION_LIMIT at
        # once, before the search spends its budget
        naive_order = oracle.enumerate_max_order(graph, spec).order
    result = oracle.exact_max_order(graph, spec, budget=args.budget)
    if args.naive:
        agree = naive_order == result.order and not result.timed_out
    if args.json:
        payload = {
            "order": result.order,
            "witness": result.witness.ids(),
            "explored": result.explored,
            "budget": result.budget,
            "timed_out": result.timed_out,
            "bound_prunes": result.bound_prunes,
            "infeasible_prunes": result.infeasible_prunes,
            "improvements": result.improvements,
            "residue": spec.residue,
            "modulus": spec.modulus,
        }
        if args.naive:
            payload["naive_order"] = naive_order
            payload["agree"] = agree
        print(json.dumps(payload, sort_keys=True))
    else:
        exactness = "lower bound (budget exhausted)" if result.timed_out else "exact"
        print(
            f"{exactness} order: {result.order} "
            f"(explored {result.explored} nodes, budget {result.budget})"
        )
        print(
            f"prunes: {result.bound_prunes} by bound, {result.infeasible_prunes} "
            f"infeasible; {result.improvements} incumbent improvements"
        )
        print("witness:", " ".join(map(str, result.witness.ids())) or "(empty)")
        if args.naive:
            verdict = "agree" if agree else "DISAGREE"
            print(f"cross-check (full enumeration): order {naive_order} -- {verdict}")
    if result.timed_out:
        return 1
    if args.naive and not agree:
        return 1
    return 0


def _cmd_gen(args) -> int:
    params = dict(args.param)
    try:
        generators.check_params(args.kind, params)
    except GraphError:
        raise  # an empty side reads as from_edges words it, with no prefix
    except ValueError as exc:
        raise ValueError(f"--param: {exc}") from None
    graph, descriptor = generators.generate(args.kind, seed=args.seed, **params)
    _write_out(f"# {descriptor}\n" + serialize_graph(graph), args.out)
    return 0


def _load_spec(path: str) -> tuple[dict, list[tuple[str, dict]]]:
    """Read a batch spec file and return the run keys it names, as keyword
    arguments of :func:`harness.run_batch`, with its instance list.

    The schema is checked before any instance runs, so a malformed file is
    one usage error rather than a batch of failure records.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            file_spec = json.load(handle)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(file_spec, dict):
        raise ValueError(f"{path}: a batch spec must be a JSON object")
    _reject_unknown_keys(file_spec, SPEC_KEYS, path)
    for key in ("k", "instances"):
        if key not in file_spec:
            raise ValueError(f'{path}: "{key}" is required')
    for key in ("k", "retries", "seed"):
        value = file_spec.get(key, 0)
        if type(value) is not int:  # bool is an int subclass; reject it too
            raise ValueError(f'{path}: "{key}" must be an integer, got {value!r}')
    blocks = file_spec["instances"]
    if not isinstance(blocks, list) or not blocks:
        raise ValueError(f'{path}: "instances" must be a non-empty list, got {blocks!r}')
    specs: list[tuple[str, dict]] = []
    for index, block in enumerate(blocks):
        where = f"{path}: instance block {index}"
        if not isinstance(block, dict) or "kind" not in block:
            raise ValueError(f'{where} has no "kind"')
        _reject_unknown_keys(block, BLOCK_KEYS, where)
        kind, count = block["kind"], block.get("count", 1)
        params = block.get("params", {})
        if type(count) is not int or count < 1:
            raise ValueError(f'{where}: "count" must be an integer >= 1, got {count!r}')
        if not isinstance(params, dict):
            raise ValueError(f'{where}: "params" must be an object, got {params!r}')
        try:
            generators.check_params(kind, params)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        specs.extend([(kind, params)] * count)
    return {key: value for key, value in file_spec.items() if key != "instances"}, specs


def _reject_unknown_keys(mapping: dict, known: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        raise ValueError(
            f"{where}: unknown key {unknown[0]!r}; known keys: {', '.join(known)}"
        )


def _cmd_bench(args) -> int:
    run, specs = _load_spec(args.spec)
    try:  # run_batch checks the run keys before any instance runs
        report = harness.run_batch(specs, **run, oracle_max_n=args.oracle_max_n)
    except ValueError as exc:
        raise ValueError(f"{args.spec}: {exc}") from None
    if args.format == "json":
        text = report.to_json(include_timing=args.timing)
    else:
        text = report.to_csv(include_timing=args.timing)
    _write_out(text, args.out)
    return 0 if report.summary()["all_verified"] else 1


def _cmd_mixing(args) -> int:
    checks = mixing.uniformity_table(args.k_max)
    sys.stdout.write(mixing.format_uniformity_table(checks, args.format))
    failed = [str(c.k) for c in checks if not c.passed]
    if failed:
        print(f"uniformity check failed (ratio < 0.95) at k = {', '.join(failed)}",
              file=sys.stderr)
    return 1 if failed else 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "find": _cmd_find,
        "oracle": _cmd_oracle,
        "gen": _cmd_gen,
        "bench": _cmd_bench,
        "mixing": _cmd_mixing,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:  # GraphError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an instance too large to allocate, say
        print(f"error: out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
