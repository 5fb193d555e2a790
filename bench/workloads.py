"""The three benchmark workloads: inputs from a seed, the timed calls, the checks.

Each workload is a `Workload` with three steps:

* `setup(seed, size)` generates the inputs from the seed (and, for
  `checker`, builds the short path prefix its queries are relative to);
* `run(inputs)` makes every timed call into the program and returns the
  raw answers, or the exception an operation raised;
* `verify(inputs, answers, report)` checks every answer.

The checks never compare against a stored copy of an earlier output.
Expected values come from computations made here, apart from the program
(hereditarily finite truth over frozensets, the closed form of the
pairing function, brute-force table membership, the powerset), or from
properties the method must have (each stage extends the last, every
extracted predictor is defeated, round trips return the same set).

The program is reached through module attributes (`D.build_h`, not a
name imported from `kleeneset.diagonal`), so the tracer's wrappers see
every call the benchmark makes.

`size` is "full" for the benchmark and "small" for the self-test.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from kleeneset import diagonal as D
from kleeneset import lworld as LW
from kleeneset import realizability as R
from kleeneset import romlib as rom
from kleeneset import terms as T
from kleeneset import universe as U
from kleeneset import vcodes as VC

# Sizes of each workload.  The full sizes make one round take a few
# seconds, so that a run of the benchmark holds several rounds; the
# README explains each choice.
SIZES = {
    "diagonal": {
        # 160 requirements keep the prefix at its second extension (123
        # components); the third extension comes at stage 786, 15,634
        # components, one operation of about 15 s.  `known_faults` is the
        # number of witnesses with pair(i, n) > pair(j, n) a round finds
        # (see `_check_witness`); the inputs it comes from take no seed.
        "full": dict(stages=160, index_bound=5, impostor_fuel=400_000,
                     queries_per_kind=20, known_faults=335),
        "small": dict(stages=20, index_bound=2, impostor_fuel=400_000,
                      queries_per_kind=3, known_faults=49),
    },
    "checker": {
        "full": dict(path_stages=30, pool_extra=8, formulas=240,
                     family_extra=40, subcountable=24, tables=48,
                     f0_members=(0, 1, 2)),
        "small": dict(path_stages=6, pool_extra=3, formulas=12,
                      family_extra=4, subcountable=3, tables=6,
                      f0_members=(0,)),
    },
    "lworld": {
        # a six-element domain takes about a minute by the formula route,
        # so domains have five elements
        "full": dict(top_stage=5, domains=4, domain_size=5,
                     sigma_sets=600, sigma_rank=5, naturals=40),
        "small": dict(top_stage=4, domains=1, domain_size=3,
                      sigma_sets=20, sigma_rank=3, naturals=6),
    },
}


class Report:
    """Counts checked operations; a wrong answer or a raised exception fails one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.faults = 0
        self.known_faults = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += 1
            self._note(what)

    def fault(self, ok: bool, what: str) -> None:
        """A check that fails because of a fault of the program named by a
        FOUND line in CHANGES.md.  Up to `known_faults` such failures are
        failed operations that leave `correct` true; each one past that
        count is a wrong answer, so a rise in them cannot pass unnoticed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.faults += 1
            if self.faults > self.known_faults:
                self.wrong += 1
                self._note(f"{what} (past the {self.known_faults} known faults)")
            elif self.faults == 1:
                self._note(f"{what} (known fault; further ones not shown)")

    def answer(self, got, what: str, ok: Callable[[object], bool]) -> None:
        """Check one answer from `run`, which may be the exception it raised."""
        if isinstance(got, Exception):
            self.attempted += 1
            self.failed += 1
            self._note(f"{what}: raised {type(got).__name__}: {got}")
        else:
            good = ok(got)
            self.check(good, "" if good else f"{what}: got {got!r}"[:500])

    def _note(self, what: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(what)


def attempt(fn, *args, **kwargs):
    """One operation: its answer, or the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # counted as a failed operation by verify
        return exc


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    verify: Callable


# ---------------------------------------------------------------------------
# Computations made apart from the program


def pair_closed_form(a: int, b: int) -> int:
    """The pairing function from its defining formula."""
    m = max(a, b)
    return m * (m + 1) - a + b if m % 2 == 0 else m * (m + 1) + a - b


def hf_nat(n: int) -> frozenset:
    """The von Neumann natural n as nested frozensets."""
    out = frozenset()
    for _ in range(n):
        out = out | {out}
    return out


def hf_opair(a: frozenset, b: frozenset) -> frozenset:
    return frozenset({frozenset({a}), frozenset({a, b})})


def hf_truth(phi, env: dict, hf_of: dict) -> bool:
    """Plain truth of a bounded formula over the frozensets its codes stand for."""
    def term(t):
        if isinstance(t, R.Var):
            return env[t.name]
        if isinstance(t, R.Val):
            return hf_of[t.value.code]
        raise TypeError(t)

    if isinstance(phi, R.Eq):
        return term(phi.x) == term(phi.y)
    if isinstance(phi, R.In):
        return term(phi.x) in term(phi.y)
    if isinstance(phi, R.Not):
        return not hf_truth(phi.body, env, hf_of)
    if isinstance(phi, R.And):
        return hf_truth(phi.lhs, env, hf_of) and hf_truth(phi.rhs, env, hf_of)
    if isinstance(phi, R.Or):
        return hf_truth(phi.lhs, env, hf_of) or hf_truth(phi.rhs, env, hf_of)
    if isinstance(phi, R.Implies):
        return (not hf_truth(phi.lhs, env, hf_of)) or hf_truth(phi.rhs, env, hf_of)
    if isinstance(phi, (R.BAll, R.BEx)):
        quant = all if isinstance(phi, R.BAll) else any
        return quant(hf_truth(phi.body, {**env, phi.var: x}, hf_of)
                     for x in term(phi.bound))
    raise TypeError(phi)


def table_member(values: list[int], sizes: list[int]) -> bool:
    """Brute-force membership of a table in the product of fin(sizes[k])."""
    return all(values[k] < sizes[k] for k in range(len(sizes)))


def all_subsets(dom: list) -> set:
    """The powerset of a domain, as interned sets of the program's type."""
    return {LW.HFSet(c) for k in range(len(dom) + 1)
            for c in itertools.combinations(dom, k)}


# ---------------------------------------------------------------------------
# diagonal: the recursion-theoretic half


def diagonal_setup(seed: int, size: str) -> dict:
    p = SIZES["diagonal"][size]
    rng = random.Random(seed)
    q = p["queries_per_kind"]
    # x_membership queries, as fractions of the prefix built in `run`:
    # prefixes, prefixes with one component changed, longer sequences
    return dict(
        p=p,
        catalogue=D.default_catalogue(),
        prefix_at=[rng.random() for _ in range(q)],
        altered_at=[(rng.random(), rng.random(), rng.randrange(1, 5))
                    for _ in range(q)],
        longer_by=[[rng.randrange(4) for _ in range(rng.randrange(1, 4))]
                   for _ in range(q)],
    )


def diagonal_run(inp: dict) -> dict:
    p, cat = inp["p"], inp["catalogue"]
    h, log = D.build_h(cat, p["stages"])
    comps = h.components
    n = len(comps)
    reverify = [attempt(D.requirement_satisfied, h, s.requirement) for s in log]
    impostors = attempt(D.impostor_report, cat, h, p["index_bound"],
                        fuel=p["impostor_fuel"])
    queries = []
    for f in inp["prefix_at"]:
        queries.append(("member", comps[:int(f * (n + 1))]))
    for f, g, bump in inp["altered_at"]:
        length = 1 + int(f * n)
        k = int(g * length)
        seq = list(comps[:length])
        seq[k] += bump
        queries.append(("nonmember", tuple(seq)))
    for tail in inp["longer_by"]:
        queries.append(("beyond_truncation", comps + tuple(tail)))
    answers = [(want, seq, attempt(D.x_membership, D.SeqCode(seq), h))
               for want, seq in queries]
    return dict(h=h, log=log, reverify=reverify, impostors=impostors,
                memberships=answers)


def _check_witness(report: Report, i: int, j: int, n, length: int, what: str) -> None:
    """A reported witness n must be a usable stage of the prefix, and one at
    which pair(i, n) < pair(j, n), so that the machine was asked to predict
    a longer segment from a shorter one.  `requirement_satisfied` accepts
    the least usable n whatever the order of the two (see CHANGES.md)."""
    usable = (isinstance(n, int) and i < n and j < n
              and max(pair_closed_form(i, n), pair_closed_form(j, n)) <= length)
    report.check(usable, f"{what}: witness {n} is not a usable stage")
    report.fault(usable and pair_closed_form(i, n) < pair_closed_form(j, n),
                 f"{what}: witness {n} has pair(i, n) > pair(j, n)")


def diagonal_verify(inp: dict, out: dict, report: Report) -> None:
    p, cat = inp["p"], inp["catalogue"]
    h, log = out["h"], out["log"]
    report.known_faults = p["known_faults"]
    report.check(len(log) == p["stages"], f"build_h logged {len(log)} stages")
    prev: tuple = ()
    for k, st in enumerate(log):
        r = st.requirement
        seq = st.seq.components
        report.check(seq[:len(prev)] == prev and st.resolved,
                     f"stage {k}: extends {len(prev)} -> {len(seq)}, "
                     f"resolved {st.resolved}")
        _check_witness(report, r.i, r.j, st.witness, len(seq), f"stage {k}")
        prev = seq
    report.check(prev == h.components, "final prefix differs from the last stage")
    for st, got in zip(log, out["reverify"]):
        r = st.requirement
        what = f"requirement ({r.i},{r.j},{r.machine.name})"
        report.answer(got, what, lambda s: s.outcome == "yes")
        if not isinstance(got, Exception):
            _check_witness(report, r.i, r.j, got.witness, len(h), what)
    rows = out["impostors"]
    want_rows = len(cat) * (p["index_bound"] + 1) * p["index_bound"]
    report.answer(rows, "impostor report size",
                  lambda rs: len(rs) == want_rows)
    if not isinstance(rows, Exception):
        for row in rows:
            what = f"impostor ({row['machine']},{row['i']},{row['j']})"
            report.check(row["defeated"], f"{what} survived")
            _check_witness(report, row["i"], row["j"], row["witness"], len(h), what)
    for want, seq, got in out["memberships"]:
        report.answer(got, f"x_membership of a {len(seq)}-sequence",
                      lambda g: g == want)


# ---------------------------------------------------------------------------
# checker: the realisability half


def _numerals(count: int):
    return [(VC.v_numeral(k), hf_nat(k)) for k in range(count)]


def _random_code(rng, pool, depth):
    """A seeded set code over the pool, paired with the set it stands for."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(pool)
    elems = [_random_code(rng, pool, depth - 1) for _ in range(rng.randrange(3))]
    return VC.v_finite([c for c, _ in elems]), frozenset(s for _, s in elems)


def checker_setup(seed: int, size: str) -> dict:
    p = SIZES["checker"][size]
    rng = random.Random(seed)
    h, _ = D.build_h(D.default_catalogue(), p["path_stages"])
    view = D.PathView(h.components)
    nums = _numerals(4)
    # the Δ0 pool: numerals and seeded pairs and finite sets of numerals
    pool = list(nums)
    for _ in range(p["pool_extra"]):
        (a, sa), (b, sb) = rng.choice(nums), rng.choice(nums)
        kind = rng.randrange(3)
        if kind == 0:
            pool.append((VC.v_upair(a, b), frozenset({sa, sb})))
        elif kind == 1:
            pool.append((VC.v_opair(a, b), hf_opair(sa, sb)))
        else:
            pool.append((VC.v_finite([a, b]), frozenset({sa, sb})))
    hf_of = {code.code: s for code, s in pool}
    vals = [R.Val(code) for code, _ in pool]

    def atom(x, y):
        return (R.Eq if rng.random() < 0.5 else R.In)(x, y)

    def formula(depth):
        if depth == 0:
            return atom(rng.choice(vals), rng.choice(vals))
        kind = rng.randrange(6)
        if kind == 0:
            return R.Not(formula(depth - 1))
        if kind in (1, 2, 3):
            op = (R.And, R.Or, R.Implies)[kind - 1]
            return op(formula(depth - 1), formula(depth - 1))
        quant = R.BAll if kind == 4 else R.BEx
        return quant("x", rng.choice(vals),
                     atom(R.Var("x"), rng.choice(vals)))

    formulas = [(formula(k % 3), rng.randrange(64)) for k in range(p["formulas"])]
    family = nums + [_random_code(rng, pool, 2) for _ in range(p["family_extra"])]
    subcountable = [_random_code(rng, nums, 2)[0] for _ in range(p["subcountable"])]
    tables = []
    for _ in range(p["tables"]):
        n = rng.randrange(1, 4)
        tables.append(([rng.randrange(4) for _ in range(n)],
                       [rng.randrange(3) for _ in range(n)]))
    return dict(p=p, view=view, hf_of=hf_of, formulas=formulas,
                family=[c for c, _ in family], subcountable=subcountable,
                tables=tables)


def _table(codes):
    return T.mkapp(rom.ELEMOF, VC.seq_encode(list(codes))) if codes else 0


def checker_run(inp: dict) -> dict:
    p, view = inp["p"], inp["view"]
    budget = R.CheckBudget(truncation=U.Truncation(segment_bound=4, nat_bound=4))

    def witness_checked(phi):
        w, _ = R.find_realiser(phi, {}, budget)
        return None if w is None else R.check(w, phi, {}, budget)

    delta0 = [(phi, attempt(R.formula_status, phi, {}, budget),
               attempt(witness_checked, phi),
               attempt(R.check, arbitrary, phi, {}, budget))
              for phi, arbitrary in inp["formulas"]]
    tr = budget.truncation
    self_eq = [attempt(U.din, rom.IOTA, VC.eq_code(a.code, a.code), tr)
               for a in inp["family"]]
    sub_budget = R.CheckBudget(truncation=U.Truncation(segment_bound=4, nat_bound=6))
    subcountable = []
    for alpha in inp["subcountable"]:
        u, f, e = R.subcountability_witness(alpha)
        subcountable.append(attempt(
            R.check, e, R.subcountability_formula(alpha, u, f), {}, sub_budget))
    table_tr = U.Truncation(segment_bound=6, nat_bound=6)
    tables = [attempt(U.din, _table(values),
                      U.pi_code(U.fin(len(sizes)), _table([U.fin(s) for s in sizes])),
                      table_tr)
              for sizes, values in inp["tables"]]
    in_v_tr = U.Truncation(segment_bound=5, nat_bound=2, distinguished=view)
    in_v = [("pair graph", attempt(U.check_in_V, VC.internal_pair_fn().code, in_v_tr)),
            ("alpha0", attempt(U.check_in_V, VC.alpha0(in_v_tr).code, in_v_tr))]
    in_v += [(f"f0({i})", attempt(U.check_in_V, VC.f0_vcode(i).code, in_v_tr))
             for i in p["f0_members"]]
    named_tr = U.Truncation(segment_bound=6, nat_bound=6, distinguished=view)
    named_budget = R.CheckBudget(truncation=named_tr)
    a0 = R.Val(VC.alpha0(named_tr))
    omega = R.Val(VC.v_omega())
    named = [
        ("alpha0 in omega", attempt(
            R.check, rom.ALPHA0_IN_OMEGA,
            R.BAll("a", a0, R.In(R.Var("a"), omega)), {}, named_budget)),
        ("alpha0 transitive", attempt(
            R.check, rom.TRANSIT,
            R.BAll("a", a0, R.BAll("b", R.Var("a"), R.In(R.Var("b"), a0))),
            {}, named_budget)),
    ]
    incomp_budget = R.CheckBudget(truncation=U.Truncation(
        segment_bound=4, nat_bound=2, distinguished=view))
    incomparability = attempt(R.check, R.incomparability_statement_realiser(),
                              R.incomparability_formula(), {}, incomp_budget)
    return dict(delta0=delta0, self_eq=self_eq, subcountable=subcountable,
                tables=tables, in_v=in_v, named=named,
                incomparability=incomparability)


def checker_verify(inp: dict, out: dict, report: Report) -> None:
    hf_of = inp["hf_of"]
    # over the finite pool with these bounds every verdict is decided
    for phi, status, witnessed, arbitrary in out["delta0"]:
        truth = hf_truth(phi, {}, hf_of)
        report.answer(status, f"formula_status {phi}",
                      lambda v: not v.unknown and v.realized == truth)
        report.answer(witnessed, f"check of the synthesized witness for {phi}",
                      lambda v: (v is not None and v.realized) if truth else v is None)
        report.answer(arbitrary, f"check of an arbitrary code against {phi}",
                      lambda v: not v.unknown and not (v.realized and not truth))
    for v in out["self_eq"]:
        report.answer(v, "self-equality evidence", lambda v: v.realized)
    for v in out["subcountable"]:
        report.answer(v, "subcountability witness", lambda v: v.realized)
    for (sizes, values), v in zip(inp["tables"], out["tables"]):
        want = table_member(values, sizes)
        report.answer(v, f"table {values} in fin{sizes}",
                      lambda v: not v.unknown and v.realized == want)
    for name, v in out["in_v"] + out["named"]:
        report.answer(v, name, lambda v: v.realized)
    report.answer(out["incomparability"], "incomparability formula",
                  lambda v: not v.refuted)


# ---------------------------------------------------------------------------
# lworld: the classical finite side


def _random_hf(rng, rank):
    if rank == 0 or rng.random() < 0.2:
        return LW.EMPTY
    return LW.HFSet(_random_hf(rng, rank - 1) for _ in range(rng.randrange(1, 4)))


def _naturals(count: int) -> list:
    """The von Neumann naturals below `count`, built with the set constructor."""
    out = [LW.HFSet()]
    for _ in range(count - 1):
        out.append(LW.HFSet(out[-1].elems | {out[-1]}))
    return out


def lworld_setup(seed: int, size: str) -> dict:
    p = SIZES["lworld"][size]
    rng = random.Random(seed)
    naturals = _naturals(max(p["naturals"], p["top_stage"]))
    # the 16 members of L_4, the powerset of L_3 = {0, 1, {1}, 2}, written
    # out with the set constructor so that no program routine builds them
    zero, one = naturals[0], naturals[1]
    l3 = [zero, one, LW.HFSet([one]), LW.HFSet([zero, one])]
    l4 = [LW.HFSet(x for b, x in enumerate(l3) if k >> b & 1) for k in range(16)]
    domains = [rng.sample(l4, p["domain_size"]) for _ in range(p["domains"])]
    sigma_sets = [_random_hf(rng, p["sigma_rank"]) for _ in range(p["sigma_sets"])]
    return dict(p=p, domains=domains, sigma_sets=sigma_sets, naturals=naturals)


def lworld_run(inp: dict) -> dict:
    p = inp["p"]
    stages = [attempt(LW.l_stage, n) for n in range(1, p["top_stage"] + 1)]
    ordinals = [s if isinstance(s, Exception) else attempt(LW.ordinals_of, s)
                for s in stages]
    definable = [attempt(LW.def_subsets, dom, route="formulas")
                 for dom in inp["domains"]]
    round_trips = [attempt(lambda x: LW.decode_sigma(LW.encode_sigma(x)), x)
                   for x in inp["sigma_sets"]]
    unions = [attempt(lambda n: LW.hf_union(LW.alpha_star(n)), n)
              for n in inp["naturals"][:p["naturals"]]]
    return dict(stages=stages, ordinals=ordinals, definable=definable,
                round_trips=round_trips, unions=unions)


def lworld_verify(inp: dict, out: dict, report: Report) -> None:
    naturals = inp["naturals"]
    prev: set = set()
    for n, (stage, ords) in enumerate(zip(out["stages"], out["ordinals"]), 1):
        # |L_n| is 1, 2, 4, 16, 65536: each stage is the powerset of the last
        report.answer(stage, f"|L_{n}|", lambda s: len(s) == 2 ** len(prev)
                      and all(x.elems <= prev for x in s))
        report.answer(ords, f"ordinals of L_{n}",
                      lambda o: o == set(naturals[:n]))
        prev = set() if isinstance(stage, Exception) else stage
    for dom, got in zip(inp["domains"], out["definable"]):
        want = all_subsets(dom)
        report.answer(got, f"definable subsets of a {len(dom)}-element domain",
                      lambda g: g == want)
    for x, got in zip(inp["sigma_sets"], out["round_trips"]):
        report.answer(got, "decode_sigma(encode_sigma(x))", lambda g: g is x)
    for n, got in zip(naturals, out["unions"]):
        report.answer(got, "hf_union(alpha_star(n))", lambda g: g is n)


WORKLOADS = {
    "diagonal": Workload(diagonal_setup, diagonal_run, diagonal_verify),
    "checker": Workload(checker_setup, checker_run, checker_verify),
    "lworld": Workload(lworld_setup, lworld_run, lworld_verify),
}
