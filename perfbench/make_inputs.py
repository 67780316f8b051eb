"""One benchmark set-up, run in a fresh interpreter.

    python3 perfbench/make_inputs.py WORKLOAD SEED WORKDIR [--trace]

Imports ``moddeg`` from the checkout's ``src/`` and writes the workload's
input files into WORKDIR.  With ``--trace`` it prints, as its last line, a
JSON object with the seconds spent in ``generators.generate``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from moddeg import cli

    from spans import Tracer, summarize
    from workloads import WORKLOADS

    tracer = Tracer()
    if args.trace:
        tracer.install()
    WORKLOADS[args.workload].make_inputs(cli.main, args.workdir, args.seed)
    if args.trace:
        tracer.uninstall()
        busy = summarize(tracer.spans, 0, len(tracer.spans))
        print(json.dumps({key: busy[key] for key in
                          ("generators.generate_s", "generators.generate.calls")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
