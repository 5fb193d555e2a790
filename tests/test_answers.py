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
import itertools
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


def test_each_equality_answers_the_same_with_its_sides_swapped():
    # equality is mutual inclusion, so which side comes first cannot
    # matter; the sets whose element map converges nowhere are left out
    pool = {k: v for k, v in answers._pool().items() if k not in ("loopset", "divset")}
    differ = []
    for fuel in (40, 300, 10 ** 6):
        for nat in (1, 3):
            budget = answers.rz.CheckBudget(answers.U.Truncation(nat_bound=nat, fuel=fuel))
            for x, y in itertools.combinations(pool, 2):
                a, b = answers.rz.Val(pool[x]), answers.rz.Val(pool[y])
                there = answers.rz.formula_status(answers.rz.Eq(a, b), {}, budget).status
                back = answers.rz.formula_status(answers.rz.Eq(b, a), {}, budget).status
                if there != back:
                    differ.append((x, y, fuel, nat, there, back))
    assert not differ, (len(differ), differ[:3])


@pytest.mark.parametrize("order", ["in order", "reversed"])
def test_warm_answers_are_the_cold_ones(order):
    differ = answers.warm_differences(PINNED, reverse=order == "reversed")
    assert not differ, (len(differ), [PINNED["queries"][k] for k in differ[:3]])
