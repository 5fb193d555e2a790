"""One round of one workload, in the fresh process `run.py` starts for it.

    python3 bench/round.py --workload NAME --seed N --started T [--trace FILE]

`--started` is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so `setup_s` covers the interpreter start, the
import of `kleeneset` and the workload's set-up.  The round prints one
JSON object: the end-to-end metrics, the operations attempted and failed
(and of the failed, those of a known fault of the program), and with `--trace` the per-layer metrics (the tracer also writes its
per-function aggregate to FILE).  Set-up, the tracer and the checks run
outside the timed phase.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--started", type=float, required=True)
    ap.add_argument("--trace", type=Path)
    args = ap.parse_args(argv)

    import kleeneset
    if Path(kleeneset.__file__).resolve().parent.parent != SRC:
        print(f"imported kleeneset from {kleeneset.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(extra_modules=[workloads])

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed, "full")
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.started
    w0, c0 = time.perf_counter(), time.process_time()
    answers = wl.run(inputs)
    wall_s, cpu_s = time.perf_counter() - w0, time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        layers = tracer.metrics()
        tracer.write(args.trace)

    report = workloads.Report()
    wl.verify(inputs, answers, report)
    record = {
        "metrics": {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
                    "peak_rss_mb": peak_rss_mb},
        "attempted": report.attempted, "failed": report.failed,
        "faults": report.faults, "wrong": report.wrong, "problems": report.problems,
    }
    if tracer:
        record["layers"] = layers
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
