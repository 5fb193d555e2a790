import gc
import io
import itertools
import json
import random
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from kleeneset import lworld
from kleeneset.cli import main
from kleeneset.lworld import (
    EMPTY, HFSet, IllFoundedCodeError, SigmaCode, alpha_star, decode_sigma,
    def_subsets, encode_sigma, hf_nat, hf_union, is_ordinal, is_transitive,
    MAX_TEXT, l_stage, ordinals_of, parse_hf, print_hf, print_hfs, transitive_closure,
)
from kleeneset.pairing import pair


def all_hf_up_to_rank(rank):
    if rank == 0:
        return [EMPTY]
    prev = all_hf_up_to_rank(rank - 1)
    out = []
    for k in range(len(prev) + 1):
        for combo in itertools.combinations(prev, k):
            out.append(HFSet(combo))
    return out


def random_hf(rng, rank):
    if rank == 0 or rng.random() < 0.2:
        return EMPTY
    width = rng.randrange(1, 4)
    return HFSet(random_hf(rng, rank - 1) for _ in range(width))


def test_interning_gives_extensional_identity():
    a = HFSet([EMPTY, hf_nat(1)])
    b = HFSet([hf_nat(1), EMPTY])
    assert a is b
    assert a is hf_nat(2)


def test_parse_and_print():
    assert print_hf(EMPTY) == "{}"
    assert print_hf(hf_nat(2)) == "{{},{{}}}"
    assert parse_hf("{{},{{}}}") is hf_nat(2)
    assert parse_hf(" { {} , {{}} } ") is hf_nat(2)
    with pytest.raises(ValueError):
        parse_hf("{")
    with pytest.raises(ValueError):
        parse_hf("{}}")


def test_transitivity_and_ordinals():
    assert is_transitive(hf_nat(4))
    assert is_ordinal(hf_nat(4))
    assert not is_transitive(HFSet([hf_nat(1)]))
    assert ordinals_of([EMPTY, hf_nat(1), HFSet([hf_nat(1)])]) == {EMPTY, hf_nat(1)}
    assert ordinals_of([]) == set()


# ---------------------------------------------------------------------------
# The syntactic oracle: first-order formulas over the membership signature,
# built as trees and evaluated one at a time


@dataclass(frozen=True, slots=True)
class FOVar:
    name: str


@dataclass(frozen=True, slots=True)
class FOParam:
    value: HFSet


FOTerm = FOVar | FOParam


@dataclass(frozen=True, slots=True)
class FOFormula:
    kind: str  # "in" | "eq" | "not" | "and" | "or" | "all" | "ex"
    parts: tuple = ()


def eval_fo(phi: FOFormula, domain: Sequence[HFSet], env: dict[str, HFSet]) -> bool:
    """Truth in the structure (domain; membership), quantifiers bounded."""
    k = phi.kind
    if k in ("in", "eq"):
        a, b = phi.parts
        va = env[a.name] if isinstance(a, FOVar) else a.value
        vb = env[b.name] if isinstance(b, FOVar) else b.value
        return (va in vb.elems) if k == "in" else (va is vb)
    if k == "not":
        return not eval_fo(phi.parts[0], domain, env)
    if k == "and":
        return eval_fo(phi.parts[0], domain, env) and eval_fo(phi.parts[1], domain, env)
    if k == "or":
        return eval_fo(phi.parts[0], domain, env) or eval_fo(phi.parts[1], domain, env)
    if k == "all":
        v, body = phi.parts
        return all(eval_fo(body, domain, {**env, v: d}) for d in domain)
    if k == "ex":
        v, body = phi.parts
        return any(eval_fo(body, domain, {**env, v: d}) for d in domain)
    raise ValueError(k)


def enumerate_formulas(domain: Sequence[HFSet], max_size: int):
    """All membership-signature formulas in the free variable x up to a size.

    Terms are x, one quantified variable y, and parameters from the domain.
    Size counts connective and atom nodes; every size holds the atoms.
    """
    terms_outer: list[FOTerm] = [FOVar("x")] + [FOParam(d) for d in domain]
    terms_inner = terms_outer + [FOVar("y")]

    def atoms(terms):
        for a in terms:
            for b in terms:
                yield FOFormula("in", (a, b))
                yield FOFormula("eq", (a, b))

    by_size: dict[tuple[int, bool], list[FOFormula]] = {}

    def formulas(size: int, inner: bool) -> list[FOFormula]:
        key = (size, inner)
        got = by_size.get(key)
        if got is not None:
            return got
        out: list[FOFormula] = []
        if size >= 1:
            out.extend(atoms(terms_inner if inner else terms_outer))
        if size >= 2:
            for p in formulas(size - 1, inner):
                out.append(FOFormula("not", (p,)))
            if not inner:
                for p in formulas(size - 1, True):
                    out.append(FOFormula("all", ("y", p)))
                    out.append(FOFormula("ex", ("y", p)))
        if size >= 3:
            for s1 in range(1, size - 1):
                for p in formulas(s1, inner):
                    for q in formulas(size - 1 - s1, inner):
                        out.append(FOFormula("and", (p, q)))
                        out.append(FOFormula("or", (p, q)))
        by_size[key] = out
        return out

    for size in range(1, max_size + 1):
        yield from formulas(size, False)


def oracle_def_subsets(domain, max_size):
    """The subsets the formulas up to max_size carve out, one formula at a time."""
    dom = sorted(set(domain))
    found = set()
    for phi in enumerate_formulas(dom, max_size):
        found.add(HFSet(a for a in dom if eval_fo(phi, dom, {"x": a})))
        if len(found) == 2 ** len(dom):
            break
    return found


def formula_subsets(domain, max_size):
    """def_subsets by the formula route, its formulas cut at max_size nodes."""
    saved, lworld._FORMULA_SIZE = lworld._FORMULA_SIZE, max_size
    try:
        return def_subsets(domain, route="formulas")
    finally:
        lworld._FORMULA_SIZE = saved


L4 = sorted(l_stage(4))  # the sixteen sets of rank below four


@given(st.lists(st.sampled_from(L4), max_size=3, unique=True),
       st.integers(min_value=0, max_value=4))
@settings(max_examples=150, deadline=None)
def test_def_subsets_is_the_union_over_formulas(domain, max_size):
    assert formula_subsets(domain, max_size) == oracle_def_subsets(domain, max_size)


@pytest.mark.parametrize("domain, max_size, count", [
    ([], 0, 0),
    ([], 1, 1),
    ([hf_nat(0), hf_nat(1), hf_nat(2)], 0, 0),
    ([hf_nat(0), hf_nat(1), hf_nat(2), hf_nat(3)], 2, 12),
    # within two nodes, only ex y (x in y) and ex y (y in x) carve out
    # {0, 1} and {1, {1}}
    ([hf_nat(0), hf_nat(1), HFSet([hf_nat(1)]), HFSet([hf_nat(2)])], 2, 12),
])
def test_def_subsets_short_of_the_powerset(domain, max_size, count):
    got = formula_subsets(domain, max_size)
    assert got == oracle_def_subsets(domain, max_size)
    assert len(got) == count


def test_def_subsets_of_the_first_three_naturals_by_atoms():
    # no atom carves out {0, 2}: x = p gives the singletons, x in p gives
    # {0} and {0, 1}, p in x gives {1, 2} and {2}, the rest all or nothing
    nat = [hf_nat(k) for k in range(3)]
    powerset = def_subsets(nat, route="powerset")
    assert formula_subsets(nat, 1) == powerset - {HFSet([nat[0], nat[2]])}


def test_def_subsets_examples():
    assert def_subsets([]) == {EMPTY}
    assert def_subsets([EMPTY]) == {EMPTY, hf_nat(1)}


@pytest.mark.parametrize("size", range(7))
def test_def_subsets_routes_agree(size):
    domain = [hf_nat(k) for k in range(size)]
    formulas = def_subsets(domain, route="formulas")
    powerset = def_subsets(domain, route="powerset")
    assert formulas == powerset
    assert len(powerset) == 2 ** size


def test_six_elements_are_defined_in_time(time_limit):
    # formula by formula, six elements took about a minute
    domain = [hf_nat(k) for k in range(6)]
    with time_limit(2, "def_subsets"):
        assert len(def_subsets(domain, route="formulas")) == 64
    with time_limit(2, "lworld defsub"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["lworld", "defsub", "--route", "formulas", "--json",
                       *(print_hf(x) for x in domain)])
    assert rc == 0
    assert json.loads(buf.getvalue())["size"] == 64


def test_def_subsets_bound():
    with pytest.raises(ValueError):
        def_subsets([hf_nat(k) for k in range(7)], route="formulas")


def test_l_stage_examples():
    assert l_stage(0) == set()
    assert l_stage(1) == {EMPTY}
    assert l_stage(2) == {EMPTY, hf_nat(1)}


def test_l_stage_monotone():
    stages = [l_stage(n) for n in range(6)]
    for a, b in zip(stages, stages[1:]):
        assert a <= b


def test_stage_ordinal_identity():
    for n in range(6):
        assert ordinals_of(l_stage(n)) == {hf_nat(k) for k in range(n)}


def test_alpha_star():
    assert alpha_star(hf_nat(0)) is EMPTY
    assert alpha_star(hf_nat(3)) is hf_nat(4)
    for n in range(31):
        assert hf_union(alpha_star(hf_nat(n))) is hf_nat(n)
    with pytest.raises(ValueError):
        alpha_star(HFSet([hf_nat(0), hf_nat(2)]))


def test_transitive_closure():
    s = HFSet([EMPTY, hf_nat(1)])
    assert transitive_closure(s) == {s, EMPTY, hf_nat(1)}


def test_encode_sigma_examples():
    sc = encode_sigma(EMPTY)
    assert sc.u == {0} and sc.sigma == frozenset()
    s = HFSet([EMPTY, hf_nat(1)])
    sc = encode_sigma(s)
    assert sorted(sc.u) == [0, 1, 2]
    assert sorted(sc.sigma) == [3, 4, 7]


hf_sets = st.recursive(st.just(EMPTY),
                       lambda kids: st.frozensets(kids, max_size=3).map(HFSet),
                       max_leaves=12)


@pytest.mark.parametrize("repeats", [0, 3])
@given(s=hf_sets, data=st.data())
@settings(max_examples=60, deadline=None)
def test_encode_sigma_is_the_quadratic_definition(repeats, s, data):
    # an enumeration need only be onto the closure, so a set may have
    # several indices, and each one carries the set's edges
    closure = sorted(transitive_closure(s))
    extra = data.draw(st.lists(st.sampled_from(closure), min_size=repeats,
                               max_size=repeats))
    order = [s] + data.draw(st.permutations([x for x in closure if x is not s] + extra))
    sigma = {pair(i, j) for i, x in enumerate(order)
             for j, y in enumerate(order) if x in y.elems}
    assert encode_sigma(s, order) == SigmaCode(frozenset(range(len(order))),
                                                frozenset(sigma))


def test_sigma_edge_count_matches_the_graph():
    rng = random.Random(2)
    for _ in range(40):
        s = random_hf(rng, 3)
        closure = transitive_closure(s)
        edges = sum(1 for x in closure for y in closure if x in y.elems)
        assert len(encode_sigma(s).sigma) == edges


def test_decode_worked_example():
    sc = SigmaCode(frozenset({0, 1, 2}), frozenset({3, 4, 7}))
    assert decode_sigma(sc) is hf_nat(2)


def test_decode_rejects_cycles():
    assert pair(0, 0) == 0
    with pytest.raises(IllFoundedCodeError):
        decode_sigma(SigmaCode(frozenset({0}), frozenset({0})))


def _print_recursively(x):
    return "{" + ",".join(_print_recursively(e) for e in x) + "}"


def test_print_hf_keeps_the_canonical_child_order():
    rng = random.Random(5)
    sets = all_hf_up_to_rank(3) + [random_hf(rng, 6) for _ in range(30)]
    for x in sets:
        assert print_hf(x) == _print_recursively(x)


@given(st.lists(hf_sets, max_size=8).flatmap(
    lambda xs: st.lists(st.sampled_from(xs + [HFSet(xs)] + [x for y in xs for x in y]),
                        max_size=12)))
@settings(max_examples=80, deadline=None)
def test_print_hfs_prints_each_member_as_print_hf_does(xs):
    # the list draws its members from a few sets, their members and their
    # set, so they share subsets and repeat
    assert print_hfs(xs) == [print_hf(x) for x in xs]


def test_deep_sets_code_decode_and_print():
    chain = EMPTY
    for _ in range(1500):
        chain = HFSet([chain])
    assert decode_sigma(encode_sigma(chain)) is chain
    assert print_hf(chain) == "{" * 1501 + "}" * 1501
    # two chains of equal rank and size: comparing them walks 1500 levels
    other = HFSet([EMPTY, hf_nat(1)])
    for _ in range(1498):
        other = HFSet([other])
    both = HFSet([chain, other])
    assert decode_sigma(encode_sigma(both)) is both


def test_encode_rejects_bad_enumerations():
    s = HFSet([EMPTY, hf_nat(1)])
    with pytest.raises(ValueError):
        encode_sigma(s, [EMPTY, hf_nat(1), s])  # 0 must name s
    with pytest.raises(ValueError):
        encode_sigma(s, [s, EMPTY])  # not onto the closure


def test_roundtrip_exhaustive_rank3():
    for x in all_hf_up_to_rank(3):
        assert decode_sigma(encode_sigma(x)) is x


def test_roundtrip_random_rank4():
    rng = random.Random(9)
    for _ in range(300):
        x = random_hf(rng, 4)
        assert decode_sigma(encode_sigma(x)) is x


def test_enumeration_independence():
    rng = random.Random(10)
    for _ in range(60):
        x = random_hf(rng, 3)
        order = sorted(transitive_closure(x))
        rng.shuffle(order)
        order.remove(x)
        order.insert(0, x)
        assert decode_sigma(encode_sigma(x, order)) is x


@given(st.integers(min_value=0, max_value=12))
@settings(max_examples=30, deadline=None)
def test_hf_nat_is_ordinal(n):
    assert is_ordinal(hf_nat(n))
    assert len(hf_nat(n)) == n


def test_l_stage_bound():
    with pytest.raises(ValueError):
        l_stage(6)


@pytest.mark.parametrize("n", range(6))
def test_l_stage_is_the_union_of_the_powersets_of_the_earlier_stages(n):
    # the defining union, kept here as the oracle for the stage builder
    want = set().union(*(def_subsets(l_stage(m), route="powerset") for m in range(n)))
    assert _same_objects(l_stage(n), want)


# ---------------------------------------------------------------------------
# Contracts of the interned stages: what the powerset route builds, the
# rank each set carries and the ordinal test, against definitions kept here


_RANKS: dict = {}  # interned sets live as long as the process, so may these
_ORDINALS: dict = {}


def rank_by_definition(x):
    """0 for the empty set, else one more than the largest member rank."""
    memo = _RANKS
    todo = [x]
    while todo:
        y = todo[-1]
        pending = [e for e in y.elems if e not in memo]
        if pending:
            todo += pending
        else:
            memo[todo.pop()] = 1 + max((memo[e] for e in y.elems), default=-1)
    return memo[x]


def ordinal_by_definition(x):
    """Hereditarily transitive, walked member by member with no rank shortcut."""
    if x not in _ORDINALS:
        _ORDINALS[x] = (all(e.elems <= x.elems for e in x.elems)
                        and all(ordinal_by_definition(e) for e in x.elems))
    return _ORDINALS[x]


def powerset_by_combinations(domain):
    dom = list(set(domain))
    return {HFSet(c) for k in range(len(dom) + 1) for c in itertools.combinations(dom, k)}


def _same_objects(got, want):
    return {id(x) for x in got} == {id(x) for x in want}


@pytest.mark.parametrize("domain", [
    [],
    [hf_nat(2), HFSet([hf_nat(1)]), hf_nat(2)],  # equal ranks, a repeat
    [hf_nat(3), EMPTY, HFSet([hf_nat(2)]), hf_nat(1), EMPTY, hf_nat(3)],  # mixed
    L4[:2:-1] + L4[3:6],  # thirteen members of L_4, reversed, three repeated
])
def test_powerset_route_returns_the_interned_combinations(domain):
    got = def_subsets(domain, route="powerset")
    assert _same_objects(got, powerset_by_combinations(domain))
    assert all(x.rank == rank_by_definition(x) for x in got)


@given(st.lists(hf_sets, max_size=6))
@settings(max_examples=60, deadline=None)
def test_powerset_route_on_drawn_domains(domain):
    # the route may be the first to build these subsets, so their ranks are
    # checked before the test builds the same subsets itself
    got = def_subsets(domain, route="powerset")
    assert all(x.rank == rank_by_definition(x) for x in got)
    assert _same_objects(got, powerset_by_combinations(domain))


class _Partway(Exception):
    pass


def test_the_powerset_route_leaves_the_collector_as_it_found_it(monkeypatch):
    real = lworld._interned
    seen_on = []
    stop = _Partway("the fifth subset")

    def fails_at_the_fifth(fs, rank):
        seen_on.append(gc.isenabled())
        if len(seen_on) == 5:
            raise stop
        return real(fs, rank)

    was_on = gc.isenabled()
    frozen = gc.get_freeze_count()
    try:
        gc.enable()
        def_subsets(L4, route="powerset")
        assert gc.isenabled() and gc.get_freeze_count() == frozen
        gc.disable()
        def_subsets(L4, route="powerset")
        assert not gc.isenabled() and gc.get_freeze_count() == frozen
        gc.enable()
        monkeypatch.setattr(lworld, "_interned", fails_at_the_fifth)
        with pytest.raises(_Partway) as raised:
            def_subsets(L4, route="powerset")
        assert raised.value is stop
        assert seen_on == [False] * 5  # paused through the loop
        assert gc.isenabled() and gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_on else gc.disable)()


# The probe stays on until the oldest generation has been listed, so a
# collection the pause left due shows up here.
_L5_IN_THE_OLDEST_GENERATION = """
import gc
from kleeneset.lworld import l_stage
gc.collect()
if gc.get_freeze_count():
    print("frozen", gc.get_freeze_count())
    raise SystemExit
starts = []
def probe(phase, info):
    if phase == "start":
        starts.append(info["generation"])
gc.callbacks.append(probe)
stage = l_stage(5)
oldest = {id(x) for x in gc.get_objects(generation=2)}
gc.callbacks.remove(probe)
print(len(stage), sum(id(x) in oldest for x in stage), starts, gc.get_freeze_count())
"""


def test_l5_is_built_without_a_collection_and_left_in_the_oldest_generation(child_env):
    """L_5 is built once per process, so a fresh interpreter builds it: the
    end of the powerset pause moves the interned sets to the oldest
    generation, so no collection walks the 65,536 sets it made."""
    out = subprocess.run([sys.executable, "-c", _L5_IN_THE_OLDEST_GENERATION], env=child_env,
                         capture_output=True, text=True, check=True).stdout
    if out.startswith("frozen"):  # 3.12.1 keeps 375 objects frozen, even after gc.unfreeze()
        pytest.skip(f"this interpreter keeps objects frozen ({out.split()[1]}), "
                    "so the route keeps the collector's walk")
    assert out.split() == ["65536", "65536", "[]", "0"]


_A_CALLER_FROZE_OBJECTS = """
import gc
from kleeneset.lworld import def_subsets, hf_nat
kept = [[k] for k in range(1000)]
gc.freeze()
frozen = gc.get_freeze_count()
got = def_subsets([hf_nat(k) for k in range(8)], route="powerset")
print(len(got), frozen >= 1000, gc.get_freeze_count() == frozen, gc.isenabled())
"""


def test_the_powerset_route_leaves_a_callers_frozen_objects_frozen(child_env):
    """A caller that froze objects keeps them frozen: the subsets of the
    first eight naturals are new in a fresh interpreter, so the route
    makes sets there, and the freeze count is the same after it."""
    out = subprocess.run([sys.executable, "-c", _A_CALLER_FROZE_OBJECTS], env=child_env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["256", "True", "True", "True"]


def test_every_member_of_l5_has_its_rank():
    for x in l_stage(5):
        assert x.rank == rank_by_definition(x)


def test_is_ordinal_agrees_with_the_definition_on_l5():
    stage = l_stage(5)
    assert len(stage) == 2 ** 16
    for x in stage:
        assert is_ordinal(x) == ordinal_by_definition(x)


@st.composite
def near_ordinals(draw):
    """An ordinal with one member swapped for a drawn set: often as many
    members as its rank, and an ordinal only by accident."""
    n = draw(st.integers(min_value=1, max_value=8))
    dropped = hf_nat(draw(st.integers(min_value=0, max_value=n - 1)))
    return HFSet((hf_nat(n).elems - {dropped}) | {draw(hf_sets)})


@given(st.one_of(hf_sets, near_ordinals(), st.integers(0, 10).map(hf_nat)))
@settings(max_examples=120, deadline=None)
def test_is_ordinal_agrees_with_the_definition(x):
    assert is_ordinal(x) == ordinal_by_definition(x)


def _closure_depth_first(s):
    below = {s}
    for x in s.elems:
        below |= _closure_depth_first(x)
    return below


@given(hf_sets)
@settings(max_examples=80, deadline=None)
def test_transitive_closure_is_everything_below(s):
    assert transitive_closure(s) == _closure_depth_first(s)


def test_literals_past_the_text_bound_are_not_printed():
    # hf_nat(n) shares its subsets and prints in about 2.5 * 2**n characters
    assert len(print_hf(hf_nat(20))) < MAX_TEXT
    with pytest.raises(ValueError, match="not printed"):
        print_hf(hf_nat(23))
    with pytest.raises(ValueError, match="not printed"):
        print_hfs([EMPTY, hf_nat(40)])
