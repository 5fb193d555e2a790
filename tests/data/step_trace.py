"""Write or check step_trace.json: the fuel the machine charges on a fixed corpus.

    PYTHONPATH=src python tests/data/step_trace.py           # rewrite the file
    PYTHONPATH=src python tests/data/step_trace.py --check   # compare, exit 1 on a difference

Each call of the corpus is a program, its arguments and a fuel.  It is run
cold (every memo cleared first) and its outcome -- a digest of the value
code, "out_of_fuel" or "diverged" -- and the steps charged are recorded;
the same corpus is then run warm, in order, from one clearing, and the
warm outcomes and steps are recorded too.  A memo hit charges what the
application it stands for cost, so the warm answers must be the cold
ones: the script writes nothing, and --check fails, where one differs.
reference_run answers a call with the reducer with no memo in
tests/reference_machine.py.  The corpus:

  cold_minimum  the seven library calls whose cold minimum fuel
                tests/test_machine.py pins, then each again at fuel 50
  catalogue     every default-catalogue machine, at its declared step
                bound, on zero prefixes of 10 and 1,000 components and
                mixed prefixes of 10 and 100 (with components up to
                2**40, so the 100-component code is a symbolic pair)
  acceptance    every fourth of the distinct machine calls made, cold,
                while deciding the atomic formulas of acceptance
                criterion 6 (Eq and In over its nine-value pool), in the
                order first made
  generated     closed terms over k s sN pN d p p0 p1 fix and small
                literals, from a fixed seed, at fuels small enough that
                some run out and some reach a stuck head

tests/test_step_trace.py replays the file and never rewrites it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import json
import random
import sys
from pathlib import Path

from kleeneset import diagonal, machine, realizability, romlib as rom, universe, vcodes
from kleeneset.machine import DivergedError, OutOfFuelError
from kleeneset.pairing import Big, pair
from kleeneset.terms import PRIM_ORDER, clear_caches, mkapp, prim_code
from kleeneset.universe import Truncation

TRACE = Path(__file__).with_name("step_trace.json")


# ---------------------------------------------------------------------------
# codes in JSON: an int, {"pair": [a, b]} for a symbolic pair, or
# {"seq": [...]} for the code of a sequence of naturals


def code_to_json(c):
    return {"pair": [code_to_json(c.a), code_to_json(c.b)]} if isinstance(c, Big) else c


def code_from_json(j):
    if isinstance(j, int):
        return j
    if "seq" in j:
        return vcodes.seq_encode(j["seq"])
    return pair(code_from_json(j["pair"][0]), code_from_json(j["pair"][1]))


def digest(c) -> int | str:
    """A value code as itself when it fits 64 bits, else a structural hash."""
    if isinstance(c, int) and c.bit_length() <= 64:
        return c
    memo: dict = {}

    def h(x) -> str:
        if isinstance(x, int):
            return str(x)
        got = memo.get(x)
        if got is None:
            got = memo[x] = hashlib.sha256(f"({h(x.a)},{h(x.b)})".encode()).hexdigest()
        return got

    return "sha256:" + hashlib.sha256(h(c).encode()).hexdigest()[:32]


# ---------------------------------------------------------------------------
# one call


def run(f, args, fuel: int) -> dict:
    """Outcome and steps charged of apply_chain(f, *args, fuel=fuel)."""
    budget = machine._Budget(fuel)
    try:
        outcome = digest(machine._code_of(machine._machine(f, tuple(args), budget)))
    except OutOfFuelError:
        outcome = "out_of_fuel"
    except DivergedError:
        outcome = "diverged"
    return {"outcome": outcome, "steps": fuel - budget.left}


_spec = importlib.util.spec_from_file_location(
    "reference_machine", Path(__file__).parents[1] / "reference_machine.py")
reference_machine = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference_machine)


def reference_run(f, args, fuel: int) -> dict:
    """run's answer, from tests/reference_machine.py: a reducer with no memo."""
    outcome, steps = reference_machine.run(f, args, fuel)
    return {"outcome": outcome if isinstance(outcome, str) else digest(outcome), "steps": steps}


# ---------------------------------------------------------------------------
# the corpus: (group, name, program, arguments as JSON, fuel)


def _cold_minimum():
    seq = vcodes.seq_encode([1, 2, 3, 4, 5, 6])
    three = vcodes.v_numeral(3).code
    calls = [("HALF", (200,)), ("PLUS", (3, 4)), ("MONUS", (9, 4)),
             ("ELEMOF", (seq, 4)), ("EQ", (three, three)), ("SNOC", (seq, 7)),
             ("TS", (seq, 3))]
    for name, args in calls:
        yield name, getattr(rom, name), [code_to_json(a) for a in args], machine.DEFAULT_FUEL
    for name, args in calls:  # out of fuel, whatever the memo holds
        yield f"{name} at fuel 50", getattr(rom, name), [code_to_json(a) for a in args], 50


def _catalogue():
    rng = random.Random(6)
    prefixes = [(f"{n} zeros", [0] * n) for n in (10, 1000)]
    prefixes += [(f"{n} mixed", [rng.choice((0, 1, 2, rng.randrange(2 ** 40))) for _ in range(n)])
                 for n in (10, 100)]
    for label, comps in prefixes:
        for m in diagonal.default_catalogue():
            yield f"{m.name} on {label}", m.code, [{"seq": comps}], m.step_bound


def _acceptance():
    """The machine calls apply_raw and apply_chain see, cold, while
    formula_status decides criterion 6's atoms."""
    from kleeneset.realizability import CheckBudget, Eq, In, Val, formula_status
    v = vcodes
    n0, n1, n2, n3 = (v.v_numeral(k) for k in range(4))
    pool = [n0, n1, n2, n3, v.v_upair(n0, n1), v.v_upair(n1, n0),
            v.v_opair(n0, n1), v.v_finite([n2]), v.v_finite([n0, n2])]
    budget = CheckBudget(truncation=Truncation(segment_bound=4, nat_bound=4))
    seen: dict = {}

    def recording_raw(f, a, fuel=machine.DEFAULT_FUEL):
        seen.setdefault((f, (a,), fuel), None)
        return machine.apply_raw(f, a, fuel)

    def recording_chain(f, *args, fuel=machine.DEFAULT_FUEL):
        seen.setdefault((f, args, fuel), None)
        return machine.apply_chain(f, *args, fuel=fuel)

    patched = [(mod, name, getattr(mod, name))
               for mod in (realizability, universe, vcodes)
               for name in ("apply_raw", "apply_chain") if hasattr(mod, name)]
    for mod, name, _ in patched:
        setattr(mod, name, recording_raw if name == "apply_raw" else recording_chain)
    try:
        clear_caches()
        for x, y in itertools.product(pool, repeat=2):
            for atom in (Eq(Val(x), Val(y)), In(Val(x), Val(y))):
                formula_status(atom, {}, budget)
    finally:
        for mod, name, real in patched:
            setattr(mod, name, real)
    for k, (f, args, fuel) in enumerate(seen):
        if k % 4 == 0:  # every fourth call keeps the file small
            yield f"call {k}", f, [code_to_json(a) for a in args], fuel


def _random_term(rng: random.Random, alphabet: tuple, depth: int):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.9:
            return prim_code(rng.choice(alphabet))
        return rng.choice((0, 1, 2, 3, 7, 9, 15, 20))
    return mkapp(_random_term(rng, alphabet, depth - 1),
                 _random_term(rng, alphabet, depth - 1))


def _generated():
    """Half the terms draw on every primitive; the other half on s, k and
    fix alone, which loop often enough to run out of fuel."""
    rng = random.Random(2026)
    for k in range(160):
        alphabet = PRIM_ORDER if k % 2 == 0 else ("s", "s", "k", "fix")
        f = _random_term(rng, alphabet, rng.randrange(2, 7))
        args = [_random_term(rng, alphabet, rng.randrange(0, 3))
                if rng.random() < 0.85 else rng.randrange(25)
                for _ in range(rng.randrange(1, 4))]
        yield f"term {k}", f, args, rng.choice((30, 300, 3000))


_GROUPS = {"cold_minimum": _cold_minimum, "catalogue": _catalogue,
           "acceptance": _acceptance, "generated": _generated}


def corpus() -> list[dict]:
    return [{"group": group, "name": name, "f": code_to_json(f), "args": args, "fuel": fuel}
            for group, make in _GROUPS.items() for name, f, args, fuel in make()]


def replay(calls: list[dict], warm: bool) -> list[dict]:
    """Run each call cold (memos cleared before it) or, warm, in order
    from a single clearing."""
    clear_caches()
    out = []
    for call in calls:
        if not warm:
            clear_caches()
        out.append(run(code_from_json(call["f"]),
                       [code_from_json(a) for a in call["args"]], call["fuel"]))
    return out


def build() -> dict:
    calls = corpus()
    for call, cold, warm in zip(calls, replay(calls, False), replay(calls, True)):
        call["cold"] = cold
        call["warm"] = warm
    return {"calls": calls}


def main(argv: list[str]) -> int:
    trace = build()
    history = [c["name"] for c in trace["calls"] if c["warm"] != c["cold"]]
    if history:  # the fuel a call costs may not depend on what ran before it
        print(f"{len(history)} calls answer warm differently from cold, "
              f"first: {history[:5]}; nothing written")
        return 1
    if "--check" in argv:
        old = json.loads(TRACE.read_text())
        if old == trace:
            print(f"{TRACE.name}: {len(trace['calls'])} calls agree")
            return 0
        bad = [c["name"] for c, d in zip(trace["calls"], old["calls"]) if c != d]
        print(f"{TRACE.name} differs: {len(old['calls'])} calls committed, "
              f"{len(trace['calls'])} made; first differing: {bad[:5]}")
        return 1
    TRACE.write_text('{"calls": [\n' + ",\n".join(json.dumps(c) for c in trace["calls"]) + "\n]}\n")
    print(f"wrote {len(trace['calls'])} calls to {TRACE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
