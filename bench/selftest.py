"""Fast self-test of the benchmark, at the workloads' small sizes.

    python3 bench/selftest.py

In one process, for every workload: the small round passes its checks;
a wrong expected answer planted in the checks (a flipped truth value, a
missing subset, a misplaced pairing) is counted as a failed operation and
makes the result report failure; on `diagonal`, a known-fault failure past
the known count is a wrong answer; and a traced small round reports every
per-layer metric.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

SEED = 7


def plant_flipped_truth():
    orig = W.hf_truth
    W.hf_truth = lambda *a: not orig(*a)
    return lambda: setattr(W, "hf_truth", orig)


def plant_missing_subset():
    orig = W.all_subsets
    W.all_subsets = lambda dom: set(sorted(orig(dom), key=len)[1:])
    return lambda: setattr(W, "all_subsets", orig)


def plant_swapped_pairing():
    orig = W.pair_closed_form
    W.pair_closed_form = lambda a, b: orig(b, a)
    return lambda: setattr(W, "pair_closed_form", orig)


PLANTS = {"diagonal": plant_swapped_pairing, "checker": plant_flipped_truth,
          "lworld": plant_missing_subset}


def plant_fewer_known_faults():
    small = W.SIZES["diagonal"]["small"]
    small["known_faults"] -= 1
    return lambda: small.__setitem__("known_faults", small["known_faults"] + 1)


def verify(wl, inputs, answers) -> dict:
    report = W.Report()
    wl.verify(inputs, answers, report)
    return {"metrics": dict.fromkeys(run.END_TO_END, 1.0), "attempted": report.attempted,
            "failed": report.failed, "wrong": report.wrong, "problems": report.problems}


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    report = W.Report()
    report.answer(ValueError("planted"), "an operation that raises", lambda g: True)
    expect(report.failed == 1 and report.wrong == 0,
           "an operation that raises is a failed operation")

    rounds = {}
    for name, wl in W.WORKLOADS.items():
        inputs = wl.setup(SEED, "small")
        answers = wl.run(inputs)
        rounds[name] = (inputs, answers)
        good = verify(wl, inputs, answers)
        expect(good["attempted"] > 0 and good["wrong"] == 0
               and run.summarize([good], False)["correct"],
               f"{name}: {good['attempted']} answers checked, none wrong")
        undo = PLANTS[name]()
        try:
            bad = verify(wl, inputs, answers)
        finally:
            undo()
        result = run.summarize([bad], False)
        expect(bad["failed"] > good["failed"] and not result["correct"],
               f"{name}: a planted wrong expectation fails {bad['failed'] - good['failed']} "
               f"operations and the result reports failure")
        if name == "diagonal":
            undo = plant_fewer_known_faults()
            try:
                more = verify(wl, inputs, answers)
            finally:
                undo()
            expect(more["failed"] == good["failed"] and more["wrong"] == 1,
                   "diagonal: one known-fault failure more than the known count "
                   "is a wrong answer")

    tracer = Tracer()
    tracer.install(extra_modules=[W])
    grows = {"diagonal": "diagonal.requirement_checks",
             "checker": "realizability.check_calls", "lworld": "lworld.hfset_calls"}
    for name, wl in W.WORKLOADS.items():
        before = tracer.metrics()
        wl.run(wl.setup(SEED + 1, "small"))
        after = tracer.metrics()
        expect(list(after) == [n for n, _, _ in PER_LAYER]
               and after[grows[name]] > before[grows[name]],
               f"{name}: a traced round reports all {len(PER_LAYER)} per-layer "
               f"metrics and counts {grows[name]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
