"""The fuel the machine charges is pinned call by call.

tests/data/step_trace.json holds a fixed corpus of calls with the outcome
and the exact steps charged of each, run cold and run warm (the corpus in
order from one clearing of the memos); tests/data/step_trace.py made the
file and says what is in it.  Declared step bounds decide catalogue
verdicts and out-of-fuel is an answer, so a machine that runs faster must
still charge exactly these steps.  They are the steps of a reducer with
no memo, cold and warm alike.
"""

import importlib.util
import json
import pathlib

import pytest

from kleeneset.terms import clear_caches

_DATA = pathlib.Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("step_trace", _DATA / "step_trace.py")
step_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_trace)

CALLS = json.loads((_DATA / "step_trace.json").read_text())["calls"]
GROUPS = list(dict.fromkeys(call["group"] for call in CALLS))

# The reducer with no memo replays the calls of at most this many steps;
# together they take it under a second.
_REFERENCE_LIMIT = 5_000

# Asserting out-of-fuel at one step less means running the call again from
# cold; above this many steps (the six longest catalogue calls, on the
# 1,000-component prefix) that rerun would double the test's time.
_RERUN_LIMIT = 500_000


def _run(call, fuel=None):
    f = step_trace.code_from_json(call["f"])
    args = [step_trace.code_from_json(a) for a in call["args"]]
    return step_trace.run(f, args, call["fuel"] if fuel is None else fuel)


def test_the_trace_reaches_every_outcome():
    kinds = {"out_of_fuel", "diverged"}
    outcomes = {c["cold"]["outcome"] for c in CALLS}
    assert kinds <= outcomes and outcomes - kinds
    assert {c["warm"]["outcome"] for c in CALLS} >= kinds


@pytest.mark.parametrize("group", GROUPS)
def test_cold_steps_are_pinned(group):
    wrong = []
    for call in CALLS:
        if call["group"] != group:
            continue
        clear_caches()
        got = _run(call)
        if got != call["cold"]:
            wrong.append((call["name"], "cold", got, call["cold"]))
            continue
        steps = got["steps"]
        if got["outcome"] != "out_of_fuel" and 1 < steps <= _RERUN_LIMIT:
            clear_caches()
            less = _run(call, steps - 1)
            if less["outcome"] != "out_of_fuel":
                wrong.append((call["name"], "fuel minus one", less))
    assert not wrong, wrong[:5]


def test_warm_steps_are_pinned():
    clear_caches()
    wrong = []
    for call in CALLS:
        got = _run(call)
        if got != call["warm"]:
            wrong.append((call["name"], got, call["warm"]))
    assert not wrong, wrong[:5]


def test_the_reducer_with_no_memo_charges_the_pinned_steps():
    wrong = []
    for call in CALLS:
        if call["cold"]["steps"] > _REFERENCE_LIMIT:
            continue
        got = step_trace.reference_run(step_trace.code_from_json(call["f"]),
                                       [step_trace.code_from_json(a) for a in call["args"]],
                                       call["fuel"])
        if got != call["cold"]:
            wrong.append((call["name"], got, call["cold"]))
    assert not wrong, (len(wrong), wrong[:5])
