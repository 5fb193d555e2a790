"""The benchmark command.

    python3 bench/run.py --workload diagonal --seed 1 --seconds 30 --trace 0

Runs rounds of one workload until --seconds have passed.  Each round is a
fresh single-threaded process (`bench/round.py`) that starts from the same
cold state as a command-line invocation: the memo and intern tables of
`kleeneset` are global to a process.  Every answer of every round is
checked.

With `--trace 0` the rounds are timed and the result holds the medians over
the rounds of the end-to-end metrics; with `--trace 1` the rounds run under
the tracer (`bench/tracer.py`) and the result holds the medians of the
per-layer metrics.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.  The exit
code is 0 when every answer was right, 1 when one was wrong or a round
broke, and 2 when there is no program to run.

The program is taken from `src/` next to this directory and byte-compiled
there before the first round.  Rounds, and this command's outputs, go to
`bench/out/`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("diagonal", "checker", "lworld")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# a run must end within 180 s, whatever a round does
RUN_LIMIT_S = 170
# workload processes get a fixed hash seed, so that every round of a seed
# makes the same calls in the same order
HASH_SEED = "0"


class RoundError(Exception):
    pass


def build() -> None:
    """Byte-compile the program and the benchmark, so no round pays for it."""
    if not (SRC / "kleeneset" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source at {SRC / 'kleeneset'}")
    for d in (SRC, HERE):
        if not compileall.compile_dir(str(d), quiet=1):
            raise RoundError(f"byte-compiling {d} failed")


def round_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED=HASH_SEED)
    return env


def run_round(workload: str, seed: int, trace: Path | None, timeout: float) -> dict:
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--seed", str(seed), "--started", repr(started)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=round_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RoundError(f"{workload} round did not end within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"{workload} round exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(lines[-1])


def summarize(rounds: list[dict], traced: bool) -> dict:
    """The benchmark's result: medians over the rounds, operations summed."""
    if traced:
        units = {name: unit for name, unit, _ in PER_LAYER}
        key = "layers"
    else:
        units, key = END_TO_END, "metrics"
    return {
        "correct": all(r["wrong"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": statistics.median(r[key][name] for r in rounds),
                           "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    try:
        build()
    except (FileNotFoundError, RoundError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    t_measure = time.monotonic()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rounds: list[dict] = []
    try:
        while not rounds or time.monotonic() - t_measure < args.seconds:
            trace = OUT / f"trace-{tag}-round{len(rounds)}.json" if args.trace else None
            r = run_round(args.workload, args.seed, trace,
                          RUN_LIMIT_S - (time.monotonic() - t0))
            rounds.append(r)
            shown = r["layers"] if args.trace else r["metrics"]
            print(f"round {len(rounds)}: " + " ".join(
                f"{k}={v:.4g}" for k, v in shown.items() if not k.endswith("_calls")),
                f"attempted={r['attempted']} failed={r['failed']}", flush=True)
            for problem in r["problems"]:
                print(f"  {problem}", file=sys.stderr)
    except RoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    faults = sum(r["faults"] for r in rounds)
    if faults:
        print(f"known faults: {faults} of the {sum(r['failed'] for r in rounds)} failed "
              f"operations (the requirement_satisfied FOUND line in CHANGES.md)")
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{tag}.json").write_text(json.dumps(rounds, indent=1) + "\n")
    result = summarize(rounds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
