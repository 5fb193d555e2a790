"""Write or check answers.json: what the deciders answer on a fixed corpus.

    PYTHONPATH=src python tests/data/answers.py           # rewrite the file
    PYTHONPATH=src python tests/data/answers.py --check   # compare, exit 1 on a difference

Each query is asked cold (every memo cleared first), and its answer is
recorded: a verdict as its status and note, a search as its witness (a
digest) and its decisive flag, provably_empty as a bool, and a query that
raises as the class name of its exception.  The corpus, from fixed seeds:

  formulas  check, find_realiser and formula_status on formulas of up to
            three connectives over a pool of set codes: numerals, omega,
            an unordered pair, a set indexed by a sum over fin 2, two
            finite sets that hold it, and two sets whose element map
            converges nowhere (one runs out of fuel, one provably
            diverges), drawn from a fixed seed, then three hand-made
            probes.  Each is asked at fuels 5, 40, 300 and 10**6 and
            nat_bound 1 and 3, with a witness family, so that the
            unbounded quantifiers are reached.  A loop runs
            out of fuel only when the fuel does, some 1.5 s at 10**6, so
            queries that name the out-of-fuel set or program are asked at
            the three smaller fuels only.
  deciders  din, check_in_U, check_in_V and provably_empty on types,
            members and sets at most two formers deep, each asked up one
            budget ladder: nat_bound 0-3, segment_bound 0-4 over the
            30-stage path of the default catalogue, or fuel 1 to 10**6.

The same queries are then asked warm, from one clearing, in order and in
reverse order.  An answer may not depend on what was asked before it, so
the script writes nothing, and --check fails, if a warm answer differs
from its cold one.  tests/test_answers.py replays the file cold and warm
both ways, and never rewrites it.
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from pathlib import Path

from kleeneset import diagonal, realizability as rz, romlib as rom, universe as U
from kleeneset.machine import fixpoint
from kleeneset.pairing import pair
from kleeneset.terms import clear_caches, mkapp, mkapps, prim_code
from kleeneset.vcodes import VCode, v_finite, v_numeral, v_omega, v_upair

ANSWERS = Path(__file__).with_name("answers.json")

# codes in JSON and digests as step_trace.py beside this file writes them
_spec = importlib.util.spec_from_file_location("step_trace", ANSWERS.with_name("step_trace.py"))
step_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_trace)
code_from_json, code_to_json, digest = (
    step_trace.code_from_json, step_trace.code_to_json, step_trace.digest)

# fix I: I x = x, so e k = e k runs out of fuel at every fuel; written with
# primitives, its code does not depend on what was compiled before it
LOOP = fixpoint(mkapps(prim_code("s"), rom.K, rom.K))
DIVERGES = 15  # provably diverges on every argument


# ---------------------------------------------------------------------------
# the pools: every code a query names, by name


def _pool() -> dict:
    n = [v_numeral(k) for k in range(3)]
    # the index type lists pair(0, 0) and pair(1, 0), and both elements are 0
    sigma = VCode(pair(U.sigma_code(U.fin(2), mkapp(rom.K, U.fin(1))), mkapp(rom.K, n[0].code)))
    return {
        "n0": n[0], "n1": n[1], "n2": n[2], "omega": v_omega(), "upair": v_upair(n[0], n[1]),
        "sigma": sigma,
        "loopset": VCode(pair(U.fin(2), LOOP)), "divset": VCode(pair(U.fin(2), DIVERGES)),
        "{sigma,0}": v_finite([sigma, n[0]]),
        "{0,{sigma},{2}}": v_finite([n[0], v_finite([sigma]), v_finite([n[2]])]),
    }


def _evidence() -> dict:
    at0 = pair(0, rom.IOTA)
    return {"0": 0, "iota": rom.IOTA, "at0": at0, "at1": pair(1, rom.IOTA),
            "at0at0": pair(0, at0), "Kat0": mkapp(rom.K, at0), "K0": mkapp(rom.K, 0),
            "KKat0": mkapp(rom.K, mkapp(rom.K, at0)), "Kiota": mkapp(rom.K, rom.IOTA),
            "diverges": DIVERGES, "loop": LOOP}


WITNESS_FAMILY = ("n0", "n2", "upair")
_SLOW = {"loopset", "loop"}  # asked at fuels below 10**6 only


# ---------------------------------------------------------------------------
# formulas in JSON: [class name, fields...]; a term is a pool name or a
# bound variable, a binder is a name

_FORMULAS = {c.__name__: c for c in (rz.Eq, rz.In, rz.Not, rz.And, rz.Or, rz.Implies,
                                     rz.BAll, rz.BEx, rz.All, rz.Ex)}


def formula(j, pool: dict):
    if isinstance(j, str):
        return rz.Val(pool[j]) if j in pool else rz.Var(j)
    cls = _FORMULAS[j[0]]
    return cls(*(a if f == "var" else formula(a, pool) for f, a in zip(cls._fields, j[1:])))


def _names(j) -> set:
    return {j} if isinstance(j, str) else set().union(*map(_names, j[1:]))


def _draw_formula(rng: random.Random, names: list, depth: int, bound: tuple = ()):
    if depth == 0 or rng.random() < 0.25:
        terms = names + 3 * list(bound)  # a bound variable is met more often
        return [rng.choice(("Eq", "In")), rng.choice(terms), rng.choice(terms)]
    kind = rng.choice(("Not", "And", "Or", "Implies", "BAll", "BAll", "BEx", "BEx", "All", "Ex"))
    if kind == "Not":
        return [kind, _draw_formula(rng, names, depth - 1, bound)]
    if kind in ("And", "Or", "Implies"):
        return [kind, _draw_formula(rng, names, depth - 1, bound),
                _draw_formula(rng, names, depth - 1, bound)]
    var = "xyz"[len(bound)]
    body = _draw_formula(rng, names, depth - 1, bound + (var,))
    if kind in ("All", "Ex"):
        return [kind, var, body]
    return [kind, var, rng.choice(names + list(bound)), body]


_N_FORMULAS = 60
# formulas the draws may miss, each with its evidence: a bounded universal
# realized relative to the listing of omega, and equality between two sets
# whose search reads undecided one way round and refuted the other
_PROBES = [(["BAll", "x", "omega", ["Eq", "x", "x"]], ["Kiota", "K0"]),
           (["Eq", "{sigma,0}", "{0,{sigma},{2}}"], ["iota", "0"]),
           (["Eq", "{0,{sigma},{2}}", "{sigma,0}"], ["iota", "0"])]
_FUELS = (5, 40, 300, 10 ** 6)
_NAT_BOUNDS = (1, 3)


def _formulas() -> list:
    rng = random.Random(11)
    names = list(_pool()) + ["n0", "n1", "n2"]  # the numerals twice as often
    return [_draw_formula(rng, names, 3) for _ in range(_N_FORMULAS)] + [p for p, _ in _PROBES]


def _formula_queries():
    """Queries of the k-th formula name it by k."""
    rng = random.Random(13)
    evidence = list(_evidence())
    picks = [rng.sample(evidence, 2) for _ in range(_N_FORMULAS)] + [es for _, es in _PROBES]
    for k, (phi, es) in enumerate(zip(_formulas(), picks)):
        for fuel in _FUELS:
            for nat in _NAT_BOUNDS:
                budget = [fuel, nat]
                if fuel >= 10 ** 6 and _names(phi) & _SLOW:
                    continue
                yield {"ask": "find_realiser", "phi": k, "budget": budget}
                yield {"ask": "formula_status", "phi": k, "budget": budget}
                for e in es:
                    if not (fuel >= 10 ** 6 and e in _SLOW):
                        yield {"ask": "check", "e": e, "phi": k, "budget": budget}


# ---------------------------------------------------------------------------
# the deciders, drawn as the budget-ladder property of tests/test_universe.py
# draws them

_LEAVES = [U.fin(0), U.fin(1), U.fin(2), U.NAT, U.DIST]
_LIBRARY_FAMILIES = [rom.LSFAM, rom.NUMMAP, 0, 1, 2, 5]


def _formed(rng, index, values):
    former = rng.choice((U.sigma_code, U.pi_code))
    family = (rng.choice(_LIBRARY_FAMILIES) if rng.random() < 0.5
              else mkapp(rom.K, values(rng)))
    return former(index(rng), family)


def _one_former(rng):
    if rng.random() < 0.5:
        return rng.choice(_LEAVES)
    return _formed(rng, lambda r: r.choice(_LEAVES), lambda r: r.choice(_LEAVES))


def _two_formers(rng):
    if rng.random() < 0.5:
        return _one_former(rng)
    return _formed(rng, _one_former, _one_former)


def _member(rng):
    pick = rng.randrange(3)
    if pick == 0:
        return rng.choice([0, 1, 2, pair(0, 1), pair(1, 0), pair(2, 1)])
    if pick == 1:
        return rng.choice(_LIBRARY_FAMILIES)
    return mkapp(rom.K, rng.choice(_LEAVES))


# each rung: [segment_bound, nat_bound, fuel, over the path]
_LADDERS = ([[16, n, 10 ** 4, False] for n in (0, 1, 2, 3)],
            [[s, 2, 10 ** 4, True] for s in (0, 1, 2, 3, 4)],
            [[16, 2, f, False] for f in (1, 10, 100, 1000, 10 ** 4, 10 ** 6)])


def _decider_queries():
    rng = random.Random(12)
    for _ in range(120):
        k, t, index = _member(rng), _two_formers(rng), _two_formers(rng)
        e = (rng.choice(_LIBRARY_FAMILIES) if rng.random() < 0.5
             else mkapp(rom.K, _one_former(rng)))
        asks = [("din", [k, t]), ("check_in_U", [t]), ("check_in_V", [pair(index, e)]),
                ("provably_empty", [t])]
        ask, args = rng.choice(asks)
        for rung in rng.choice(_LADDERS):
            yield {"ask": ask, "args": [code_to_json(a) for a in args], "tr": rung}


def corpus() -> list[dict]:
    """The formula queries, which name a formula by "phi", then the
    decider queries."""
    return [*_formula_queries(), *_decider_queries()]


# ---------------------------------------------------------------------------
# asking


def _path():
    seq, _ = diagonal.build_h(diagonal.default_catalogue(), 30)
    return diagonal.SeqCode(seq.components)


def _verdict(v) -> list:
    return [v.status, v.note]


class Asker:
    """Answers the queries of the corpus, each as one call of the program."""

    def __init__(self, formulas: list):
        self.pool = _pool()
        self.formulas = formulas
        self.evidence = _evidence()
        self.family = tuple(self.pool[n] for n in WITNESS_FAMILY)
        self.path = _path()

    def _ask(self, q: dict):
        if "phi" in q:
            fuel, nat = q["budget"]
            budget = rz.CheckBudget(U.Truncation(nat_bound=nat, fuel=fuel),
                                    witness_family=self.family)
            phi = formula(self.formulas[q["phi"]], self.pool)
            if q["ask"] == "check":
                return _verdict(rz.check(self.evidence[q["e"]], phi, {}, budget))
            if q["ask"] == "formula_status":
                return _verdict(rz.formula_status(phi, {}, budget))
            w, decisive = rz.find_realiser(phi, {}, budget)
            return [None if w is None else digest(w), decisive]
        segment, nat, fuel, on_path = q["tr"]
        tr = U.Truncation(segment_bound=segment, nat_bound=nat, fuel=fuel,
                          distinguished=self.path if on_path else None)
        args = [code_from_json(a) for a in q["args"]]
        got = getattr(U, q["ask"])(*args, tr)
        return got if isinstance(got, bool) else _verdict(got)

    def answer(self, q: dict):
        try:
            return self._ask(q)
        except Exception as exc:  # an exception is an answer too
            return type(exc).__name__

    def replay(self, queries: list[dict], warm: bool) -> list:
        """Ask each query cold (memos cleared before it) or, warm, in
        the order given from a single clearing."""
        clear_caches()
        out = []
        for q in queries:
            if not warm:
                clear_caches()
            out.append(self.answer(q))
        return out


def build() -> dict:
    formulas, queries = _formulas(), corpus()
    for q, a in zip(queries, Asker(formulas).replay(queries, warm=False)):
        q["answer"] = a
    return {"formulas": formulas, "queries": queries}


def warm_differences(pinned: dict, reverse: bool) -> list[int]:
    """The indexes of the queries whose answer, asked warm from one
    clearing in order (or reversed), differs from the cold one."""
    queries = pinned["queries"]
    indexes = range(len(queries) - 1, -1, -1) if reverse else range(len(queries))
    got = Asker(pinned["formulas"]).replay([queries[k] for k in indexes], warm=True)
    return [k for k, a in zip(indexes, got) if a != queries[k]["answer"]]


def main(argv: list[str]) -> int:
    new = build()
    warm = {order: warm_differences(new, order == "reversed") for order in ("in order", "reversed")}
    if any(warm.values()):
        for order, ks in warm.items():
            print(f"asked warm {order}, {len(ks)} answers differ from cold; first: {ks[:5]}")
        return 1
    if "--check" in argv:
        old = json.loads(ANSWERS.read_text())
        if old == new:
            print(f"{ANSWERS.name}: {len(new['queries'])} answers agree, cold and warm")
            return 0
        print(f"{ANSWERS.name} differs: {len(old['queries'])} queries committed, "
              f"{len(new['queries'])} asked")
        if old["formulas"] != new["formulas"]:
            print("the formulas differ")
        for k, (was, now) in enumerate(zip(old["queries"], new["queries"])):
            if was != now:
                print(f"first differing, query {k}: "
                      f"{json.dumps({f: v for f, v in was.items() if f != 'answer'})}")
                print(f"  committed {json.dumps(was['answer'])}, now {json.dumps(now['answer'])}")
                break
        return 1
    lines = {part: ",\n".join(json.dumps(x, separators=(",", ":")) for x in new[part])
             for part in ("formulas", "queries")}
    ANSWERS.write_text('{"formulas": [\n' + lines["formulas"]
                       + '\n],\n"queries": [\n' + lines["queries"] + "\n]}\n")
    print(f"wrote {len(new['formulas'])} formulas and {len(new['queries'])} queries to {ANSWERS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
