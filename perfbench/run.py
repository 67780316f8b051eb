"""The moddeg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One workload per process.  Set-up makes the
workload's inputs from the seed, several times, each in a fresh interpreter
(``make_inputs.py``).  Then this process sends the workload's requests to
the public entry point ``moddeg.cli.main`` (stdout captured), over and over,
for about S seconds.  Every response is checked.

The host's speed drifts by up to 1.6x within minutes, so every request is
bracketed by a fixed pure-Python reference task, and ``wall_s`` counts each
request at reference speed: its measured seconds times REFERENCE_S over the
mean of the two reference times around it.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  A traced run writes its spans to ``.perfbench-run/`` once, at
the end.  ``README.md`` next to this file describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MODDEG_SEED", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"
SETUP_REPS = 3
# Nominal time of reference_seconds()'s task; it measured 0.09-0.20 s on the
# 2-vCPU host the bounds were set on, depending on the host's load.
REFERENCE_S = 0.1

from spans import LAYERS, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, CheckError  # noqa: E402


def reference_seconds() -> float:
    """Time one run of a fixed pure-Python task: big-int masks, text
    parsing and dict updates, the operations moddeg spends its time on."""
    t0 = time.perf_counter()
    rng = random.Random(12345)
    masks = [rng.getrandbits(30000) for _ in range(64)]
    acc = 0
    for i in range(12000):
        m = masks[i & 63] & masks[(i * 7 + 3) & 63]
        acc += m.bit_count() + (m & -m).bit_length()
    counts: dict[int, int] = {}
    for line in [f"{i} {i * 7919 % 10007}" for i in range(40000)]:
        a, b = line.split()
        counts[int(b) & 1023] = counts.get(int(b) & 1023, 0) + int(a)
    acc += sum(sorted(counts.values())[:10])
    return time.perf_counter() - t0


def at_reference_speed(seconds: list[float], refs: list[float]) -> list[float]:
    """Rescale each timed unit by the reference times measured just before
    and just after it (``refs`` is one longer than ``seconds``)."""
    return [s * 2 * REFERENCE_S / (before + after)
            for s, before, after in zip(seconds, refs, refs[1:])]


@dataclass
class Pass:
    traced: bool
    seconds: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    exits: list[tuple] = field(default_factory=list)
    layers: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.seconds)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _digest(workdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_setup(name: str, seed: int, workdir: Path, trace: bool):
    """Set up SETUP_REPS times, each in a fresh interpreter.

    Returns the wall times and (traced) the seconds each set-up spent in
    ``generators.generate``.
    """
    command = [sys.executable, str(HERE / "make_inputs.py"), name, str(seed), str(workdir)]
    if trace:
        command.append("--trace")
    times, generated, digests = [], [], set()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
        if trace:
            generated.append(json.loads(done.stdout.splitlines()[-1]))
        digests.add(_digest(workdir))
    if len(digests) != 1:
        raise RuntimeError("the same seed produced different inputs")
    return times, generated


def run_request(cli, argv: list[str]):
    """One request through ``moddeg.cli.main``: (exit, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = "exception"
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), seconds


def run_passes(cli, requests, tracer: Tracer, seconds: float, trace: bool) -> list[Pass]:
    """Closed loop, one client, the request list sent in order, over and over.

    Untraced, it stops before a request that would end after ``seconds``
    (judged by that request's longest time so far), so the last pass may be
    partial; the first pass always completes.  Traced, whole passes alternate
    untraced and traced, at least one of each, so the tracing overhead is
    measured in the same process.  Every request is preceded by the
    reference task, and one more follows the last request.
    """
    passes: list[Pass] = []
    started = time.perf_counter()
    longest = [0.0] * len(requests)
    request_id = 0
    while True:
        current = Pass(traced=trace and len(passes) % 2 == 1)
        stop = False
        if current.traced:
            tracer.take_counts()
            lo = len(tracer.spans)
            tracer.install()
        try:
            for index, request in enumerate(requests):
                elapsed = time.perf_counter() - started
                if not trace and passes and elapsed + longest[index] > seconds:
                    stop = True
                    break
                current.refs.append(reference_seconds())
                tracer.request = request_id
                request_id += 1
                code, out, err, secs = run_request(cli, request.argv)
                longest[index] = max(longest[index], secs + current.refs[-1])
                current.seconds.append(secs)
                current.outputs.append(out)
                current.exits.append((code, err))
        finally:
            tracer.uninstall()
        if current.traced:
            current.layers = summarize(tracer.spans, lo, len(tracer.spans))
            current.layers.update(tracer.take_counts())
        if current.seconds:
            passes.append(current)
        if trace and len(passes) % 2 == 0:
            elapsed = time.perf_counter() - started
            stop = elapsed + passes[-1].wall + passes[-2].wall > seconds
        if stop:
            break
    refs = [r for p in passes for r in p.refs] + [reference_seconds()]
    offset = 0
    for p in passes:
        p.scaled = at_reference_speed(p.seconds, refs[offset:offset + len(p.seconds) + 1])
        offset += len(p.seconds)
    return passes


def request_medians(passes: list[Pass], traced: bool, times: str) -> list[float]:
    """Median of each request's ``times`` ("seconds" or "scaled") over the
    passes that sent it."""
    return [statistics.median(getattr(p, times)[i] for p in passes
                              if p.traced == traced and len(p.seconds) > i)
            for i in range(len(passes[0].seconds))]


def check_passes(requests, passes: list[Pass]):
    """Check every response; a failure is reported on stderr and counted.

    A response fails on a nonzero exit, a failed check, or output that
    differs from the same request's output in the first pass (the program
    is deterministic for a fixed seed, traced or not).  The answers
    returned are the first pass's, one per request of the list.
    """
    attempted = failed = 0
    answers = []
    for number, current in enumerate(passes):
        for index, request in enumerate(requests[:len(current.seconds)]):
            attempted += 1
            (code, err), out = current.exits[index], current.outputs[index]
            try:
                if code != 0:
                    raise CheckError(f"exit {code}: {err.strip()[-2000:]}")
                answer = request.check(out)
                if out != passes[0].outputs[index]:
                    raise CheckError("output differs from the first pass")
            except (CheckError, ValueError, KeyError, TypeError) as exc:
                failed += 1
                print(f"FAILED pass {number} {request.label}: "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            if number == 0:
                answers.append(answer)
    return attempted, failed, answers


def layer_metrics(passes, generated, order_share, optimum_share) -> dict:
    """Per-layer metrics: medians over the traced passes, plus set-up."""
    traced = [p.layers for p in passes if p.traced]
    out = {}
    for name in traced[0]:
        value = statistics.median(layer[name] for layer in traced)
        if name.endswith("_s"):
            unit = "s"
        else:
            unit = "bytes" if name == "graph.adj_bytes" else "count"
            value = int(value) if float(value).is_integer() else value
        out[name] = [value, unit]
    # Generation runs in set-up on the find workloads, inside requests on
    # oracle-batch; the metric covers one set-up plus one pass.
    for key in ("generators.generate_s", "generators.generate.calls"):
        out[key][0] += statistics.median(g[key] for g in generated)
    out["oracle.nodes_per_s"] = [statistics.median(
        layer["oracle.explored"] / layer["oracle.exact_max_order_s"]
        if layer["oracle.exact_max_order_s"] else 0.0 for layer in traced), "1/s"]
    out["construction.order_share"] = [order_share, "ratio"]
    out["oracle.optimum_share"] = [optimum_share, "ratio"]
    out["trace.overhead_s"] = [
        sum(request_medians(passes, traced=True, times="scaled"))
        - sum(request_medians(passes, traced=False, times="scaled")), "s"]
    return {name: tuple(pair) for name, pair in out.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "moddeg" / "__init__.py").is_file():
        print(f"error: no moddeg sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        setup_times, generated = run_setup(
            args.workload, args.seed, workdir, trace)
        sys.path.insert(0, str(SRC))
        import moddeg
        from moddeg import cli

        if Path(moddeg.__file__).resolve().parent != SRC / "moddeg":
            raise RuntimeError(f"imported moddeg from {moddeg.__file__}, not {SRC}")
        requests = workload.load(workdir, args.seed)
        tracer = Tracer()
        passes = run_passes(cli, requests, tracer, args.seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, answers = check_passes(requests, passes)
    n = sum(a.n for a in answers)
    order_share = sum(a.order for a in answers) / n if n else 0.0
    optimum_share = sum(a.optimum for a in answers) / n if n else 0.0
    raw = request_medians(passes, traced=False, times="seconds")
    scaled = request_medians(passes, traced=False, times="scaled")
    refs = [r for p in passes for r in p.refs]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"requests/pass {len(requests)}  set-ups {len(setup_times)}")
    print("  pass walls (s): " + " ".join(
        f"{p.wall:.4f}{'t' if p.traced else ''}" for p in passes))
    print(f"  reference task: median {statistics.median(refs):.4f} s over "
          f"{len(refs)} runs (nominal {REFERENCE_S} s)")
    for request, median, at_ref in zip(requests, raw, scaled):
        print(f"  {request.label:<24} median {median:.4f} s, "
              f"{at_ref:.4f} s at reference speed")

    if not trace:
        section = "end_to_end"
        metrics = {
            "wall_s": (sum(scaled), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        shown = dict(metrics)
        shown["raw_wall_s"] = (sum(raw), "s")
        if n:
            shown["order_share"] = (order_share, "ratio")
        if workload.has_oracle:
            shown["optimum_share"] = (optimum_share, "ratio")
        shown["failed_share"] = (failed / attempted, "ratio")
        for name, (value, unit) in shown.items():
            print(f"  {name:<14} {value:.6g} {unit}")
        print(f"  ({failed} of {attempted} requests failed)")
    else:
        section = "per_layer"
        metrics = layer_metrics(passes, generated, order_share, optimum_share)
        missing = [s for s in workload.expected_spans if not metrics[f"{s}.calls"][0]]
        if missing:
            raise RuntimeError(f"expected spans never recorded: {missing}")
        tracer.write(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        for name, (value, unit) in metrics.items():
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"  {name:<48} {shown} {unit}")
        for number, current in enumerate(passes):
            if current.traced:
                layered = sum(current.layers[f"{layer}.self_s"] for layer in LAYERS)
                print(f"  traced pass {number}: layer self times add up to "
                      f"{layered:.6f} s, traced requests took "
                      f"{current.layers['cli.main_s']:.6f} s")

    expected = {m["name"]: m["unit"] for m in declared[section]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != expected:
        raise RuntimeError(f"metrics differ from BENCHMARK.json {section}: "
                           f"{sorted(set(got) ^ set(expected))}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
