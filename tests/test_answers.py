"""What the deciders answer is pinned query by query.

tests/data/answers.json holds a fixed corpus of check, find_realiser,
formula_status, din, check_in_U, check_in_V and provably_empty queries
with the answer of each asked cold: status and note, witness digest and
decisive flag, or the exception raised.  tests/data/answers.py made the
file and says what is in it.  A change to a decider that keeps every
verdict but drops a note, or turns a refuted into an unknown, fails here.
The same queries asked warm, in order and reversed, from one clearing,
must give the cold answers: an answer does not depend on what ran before.
"""

import collections
import importlib.util
import json
import pathlib

import pytest

_DATA = pathlib.Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("answers", _DATA / "answers.py")
answers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(answers)

PINNED = json.loads((_DATA / "answers.json").read_text())
GROUPS = {"formulas": [q for q in PINNED["queries"] if "phi" in q],
          "deciders": [q for q in PINNED["queries"] if "phi" not in q]}


def test_the_file_holds_the_corpus_the_script_draws():
    assert answers._formulas() == PINNED["formulas"]
    assert answers.corpus() == [{f: v for f, v in q.items() if f != "answer"}
                                for q in PINNED["queries"]]


def test_the_corpus_reaches_every_kind_of_answer():
    kinds = collections.Counter()
    for q in PINNED["queries"]:
        a = q["answer"]
        if isinstance(a, str):
            kinds["raises"] += 1
        elif q["ask"] == "find_realiser":
            kinds["found" if a[0] is not None else "decisive none" if a[1] else "undecided"] += 1
        elif isinstance(a, bool):
            kinds[f"empty {a}"] += 1
        else:
            kinds[f"{a[0]} {'noted' if a[1] else 'unnoted'}"] += 1
    assert set(kinds) == {"raises", "found", "decisive none", "undecided", "empty True",
                          "empty False", "realized noted", "realized unnoted",
                          "refuted unnoted", "unknown noted"}, kinds
    assert set(q["ask"] for q in PINNED["queries"]) == {
        "check", "find_realiser", "formula_status", "din", "check_in_U", "check_in_V",
        "provably_empty"}


@pytest.mark.parametrize("group", GROUPS)
def test_cold_answers_are_pinned(group):
    asker = answers.Asker(PINNED["formulas"])
    queries = GROUPS[group]
    got = asker.replay(queries, warm=False)
    wrong = [(q, a) for q, a in zip(queries, got) if a != q["answer"]]
    assert not wrong, (len(wrong), wrong[:3])


@pytest.mark.parametrize("order", ["in order", "reversed"])
def test_warm_answers_are_the_cold_ones(order):
    differ = answers.warm_differences(PINNED, reverse=order == "reversed")
    assert not differ, (len(differ), [PINNED["queries"][k] for k in differ[:3]])
