"""The steadiness command: repeated sets of benchmark runs, and their spread.

    python3 bench/steady.py [--sets 2] [--runs 10] [--first-seed 1]

Each set runs `bench/run.py` once per workload of `BENCHMARK.json`, for
its `run_seconds`, for each of `--runs` seeds (a new seed for every run,
the workloads interleaved so that drift in the machine's speed reaches all
of them alike).  For every workload and end-to-end metric it prints each
set's median and quartiles, the spread (distance between the quartiles as a
share of the median) and the shift of each set's median against the first
set's, next to the metric's bound in `BENCHMARK.json`.  A spread over its
bound, a median that worsens by more than its bound, or a failed share that
differs between runs is flagged.  All figures also go to
`bench/out/steady.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="Measure the benchmark's spread.")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    for s in range(args.sets):
        for w in workloads:
            results[w].append([])
        for r in range(args.runs):
            seed = args.first_seed + s * args.runs + r
            for w in workloads:
                res = one_run(w, seed, spec["run_seconds"])
                results[w][s].append({"seed": seed, **res})
                shown = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                print(f"set {s + 1} seed {seed} {w}: {shown} "
                      f"failed {res['failed']}/{res['attempted']}", file=sys.stderr, flush=True)

    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps(results, indent=1) + "\n")

    flagged = 0
    for w in workloads:
        shares = {Fraction(r["failed"], r["attempted"]) for runs in results[w] for r in runs}
        note = "" if len(shares) == 1 else "  <-- differs between runs"
        flagged += bool(note)
        print(f"{w}: failed share {sorted(map(str, shares))}{note}")
        for name, m in bounds.items():
            cells = []
            first_median = None
            for runs in results[w]:
                q1, med, q3 = statistics.quantiles(
                    [r["metrics"][name]["value"] for r in runs], n=4)
                spread = (q3 - q1) / med
                first_median = med if first_median is None else first_median
                shift = (med - first_median) / first_median
                worse = shift if m["better"] == "lower" else -shift
                bad = spread > m["bound"] or worse > m["bound"]
                flagged += bad
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] spread {spread:.1%} "
                             f"shift {shift:+.1%}{' <--' if bad else ''}")
            print(f"  {name} ({m['unit']}, bound {m['bound']:.0%}): " + " | ".join(cells))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
