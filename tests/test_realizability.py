import itertools
import random

import pytest

from kleeneset import romlib as rom
from kleeneset.lworld import EMPTY, HFSet, hf_nat
from kleeneset.machine import apply_chain
from kleeneset.pairing import pair
from kleeneset.realizability import (
    All, And, BAll, BEx, CheckBudget, Eq, Ex, Implies, In, Not, Or, Val, Var, check, denote, find_realiser, formula_status,
    incomparability_formula, incomparability_statement_realiser, native_truth,
    subcountability_formula, subcountability_witness)
from kleeneset.terms import L, V, compile_lambda
from kleeneset.universe import Truncation
from kleeneset.vcodes import (
    VCode, alpha0, v_finite, v_numeral, v_omega, v_opair, v_upair,
)

TR = Truncation(segment_bound=6, nat_bound=6)
B = CheckBudget(truncation=TR)

N0, N1, N2, N3 = (v_numeral(k) for k in range(4))
TRUE_ATOM = In(Val(N0), Val(N1))
FALSE_ATOM = In(Val(N0), Val(N0))


def witness(phi):
    w, decisive = find_realiser(phi, {}, B)
    assert w is not None
    return w


def test_membership_witness_example():
    v = check(pair(0, rom.IOTA), TRUE_ATOM, {}, B)
    assert v.realized


def test_membership_over_empty_bound_refuted():
    for e in (0, 3, pair(0, rom.IOTA)):
        assert check(e, FALSE_ATOM, {}, B).refuted


def test_and_clause_splits_the_code():
    phi = And(TRUE_ATOM, In(Val(N2), Val(N3)))
    w = witness(phi)
    assert check(w, phi, {}, B).realized
    # the second half must point at the right member
    assert check(pair(w, 0), phi, {}, B).refuted


def test_or_clause_requires_exact_tag():
    phi = Or(TRUE_ATOM, FALSE_ATOM)
    w = witness(TRUE_ATOM)
    assert check(pair(0, w), phi, {}, B).realized
    assert check(pair(1, w), phi, {}, B).refuted
    assert check(pair(2, w), phi, {}, B).refuted  # tag must be 0 or 1


def test_implies_identity_example():
    ident = compile_lambda(L("x", V("x")))
    v = check(ident, Implies(TRUE_ATOM, TRUE_ATOM), {}, B)
    assert v.realized
    assert v.note  # relative to the searched realiser set


def test_implies_vacuous_and_refuted():
    v = check(0, Implies(FALSE_ATOM, FALSE_ATOM), {}, B)
    assert v.realized and "vacuous" in v.note
    const_junk = compile_lambda(L("x", V("x")))
    v = check(const_junk, Implies(TRUE_ATOM, FALSE_ATOM), {}, B)
    assert v.refuted


def test_not_clause():
    assert check(0, Not(FALSE_ATOM), {}, B).realized
    assert check(0, Not(TRUE_ATOM), {}, B).refuted


def test_bounded_forall_over_fin():
    phi = BAll("x", Val(N3), In(Var("x"), Val(v_numeral(5))))
    w = witness(phi)
    v = check(w, phi, {}, B)
    assert v.realized and v.note is None
    bad = BAll("x", Val(N3), In(Var("x"), Val(N1)))
    assert check(w, bad, {}, B).refuted


def test_bounded_forall_over_omega_is_relative():
    e = compile_lambda(L("i", V("i")))  # wrong shape, but convergent
    sub = rom.SUB_OMEGA_REALISER
    phi = BAll("y", Val(v_omega()), In(Var("y"), Val(v_omega())))
    v = check(sub, phi, {}, B)
    assert v.realized
    assert v.note  # enumeration is bounded


def test_bounded_exists():
    phi = BEx("x", Val(N3), Eq(Var("x"), Val(N2)))
    w = witness(phi)
    assert w == pair(2, rom.IOTA)
    assert check(w, phi, {}, B).realized
    assert check(pair(1, rom.IOTA), phi, {}, B).refuted


def test_unbounded_forall_never_realized():
    fam = (N0, N1, N2)
    budget = CheckBudget(truncation=TR, witness_family=fam)
    e = compile_lambda(L("a", V("a")))
    phi = All("x", Implies(In(Val(N0), Var("x")), In(Val(N0), Var("x"))))
    v = check(e, phi, {}, budget)
    assert not v.realized


def test_unbounded_exists_with_family():
    fam = (N0, N2)
    budget = CheckBudget(truncation=TR, witness_family=fam)
    phi = Ex("x", In(Val(N1), Var("x")))
    w, decisive = find_realiser(phi, {}, budget)
    assert w is not None
    assert check(w, phi, {}, budget).realized


def test_ill_scoped_formula():
    from kleeneset.realizability import IllScopedFormulaError
    with pytest.raises(IllScopedFormulaError):
        check(0, In(Var("nope"), Val(N1)), {}, B)


# ---------------------------------------------------------------------------
# soundness against the hereditarily finite reading


def _formula_pool():
    vals = [Val(N0), Val(N1), Val(N2),
            Val(v_upair(N0, N1)), Val(v_finite([N1]))]
    atoms = []
    for x, y in itertools.product(vals, repeat=2):
        atoms.append(Eq(x, y))
        atoms.append(In(x, y))
    pool = list(atoms)
    rng = random.Random(0)
    picks = rng.sample(atoms, 12)
    for p, q in zip(picks, picks[1:]):
        pool.extend([And(p, q), Or(p, q), Implies(p, q), Not(p)])
    for v in vals[:3]:
        pool.append(BAll("x", v, In(Var("x"), Val(N2))))
        pool.append(BEx("x", v, Eq(Var("x"), Val(N0))))
    return pool


def test_status_sound_against_native_truth():
    for phi in _formula_pool():
        st = formula_status(phi, {}, B)
        truth = native_truth(phi, {}, TR)
        assert truth is not None
        if st.realized:
            assert truth is True, phi
        if st.refuted:
            assert truth is False, phi


def test_denotations():
    assert denote(N3) is hf_nat(3)
    assert denote(v_upair(N0, N1)) is hf_nat(2)
    assert denote(v_opair(N0, N0)) is HFSet([HFSet([EMPTY])])
    assert denote(v_omega()) is None  # no finite reading


# ---------------------------------------------------------------------------
# named constructions


def test_subcountability_trivial_and_small():
    for alpha in (N0, N2, v_finite([v_numeral(3), v_numeral(5)])):
        u, f, e = subcountability_witness(alpha)
        assert u.index_type == VCode(alpha.code).index_type
        phi = subcountability_formula(alpha, u, f)
        assert check(e, phi, {}, B).realized


def test_subcountability_graph_shape():
    alpha = v_finite([v_numeral(3), v_numeral(5)])
    u, f, _ = subcountability_witness(alpha)
    from kleeneset.universe import type_view
    assert type_view(u.index_type).size == 2
    from kleeneset.vcodes import elem_of
    assert elem_of(f, 0) == v_opair(N0, v_numeral(3)).code
    assert elem_of(u, 0) == N0.code


def test_incomparability_realiser_is_constant_iota():
    e = incomparability_statement_realiser()
    assert apply_chain(e, 4, 9, 23) == rom.IOTA
    assert apply_chain(e, 0, 0, 0) == rom.IOTA


def test_incomparability_formula_relative_verdict(path_view):
    tr = Truncation(segment_bound=4, nat_bound=2, distinguished=path_view)
    budget = CheckBudget(truncation=tr)
    v = check(incomparability_statement_realiser(), incomparability_formula(),
              {}, budget)
    assert not v.refuted  # relative: the antecedent search is not decisive


def test_alpha0_named_realisers(path_view):
    tr = Truncation(segment_bound=6, nat_bound=6, distinguished=path_view)
    budget = CheckBudget(truncation=tr)
    a0 = alpha0(tr)
    sub_omega = BAll("a", Val(a0), In(Var("a"), Val(v_omega())))
    v = check(rom.ALPHA0_IN_OMEGA, sub_omega, {}, budget)
    assert v.realized
    transitive = BAll("a", Val(a0),
                      BAll("b", Var("a"), In(Var("b"), Val(a0))))
    v = check(rom.TRANSIT, transitive, {}, budget)
    assert v.realized


def test_verdicts_monotone_under_budget_growth():
    budgets = [CheckBudget(truncation=Truncation(segment_bound=2, nat_bound=2),
                           implication_bound=2),
               CheckBudget(truncation=Truncation(segment_bound=5, nat_bound=5),
                           implication_bound=6),
               CheckBudget(truncation=Truncation(segment_bound=8, nat_bound=9),
                           implication_bound=10)]
    formulas = [
        TRUE_ATOM, FALSE_ATOM,
        And(TRUE_ATOM, In(Val(N2), Val(N3))),
        Or(FALSE_ATOM, TRUE_ATOM),
        Not(FALSE_ATOM),
        BAll("x", Val(N3), In(Var("x"), Val(v_numeral(5)))),
        BAll("y", Val(v_omega()), In(Var("y"), Val(v_omega()))),
    ]
    for phi in formulas:
        w, _ = find_realiser(phi, {}, budgets[-1])
        e = w if w is not None else 0
        settled = None
        for budget in budgets:
            v = check(e, phi, {}, budget)
            if settled is None:
                if not v.unknown:
                    settled = v.status
            else:
                assert v.status == settled, (phi, v)


def test_equality_decisive_across_representations():
    """Structurally different codes for the same set must be provably
    equal, and different sets provably unequal, over mixed builders."""
    n = [v_numeral(k) for k in range(4)]
    reps2 = [v_numeral(2), v_upair(n[1], n[0]), v_finite([n[0], n[1]]),
             v_finite([n[1], n[0], n[1]])]
    reps1 = [v_numeral(1), v_finite([n[0], n[0]]), v_upair(n[0], n[0])]
    for x in reps2 + reps1:
        for y in reps2 + reps1:
            st = formula_status(Eq(Val(x), Val(y)), {}, B)
            want = denote(x) is denote(y)
            assert not st.unknown
            assert st.realized == want, (x, y, st)
    outer_a = v_finite([reps2[0]])
    outer_b = v_finite([reps2[1]])
    assert formula_status(Eq(Val(outer_a), Val(outer_b)), {}, B).realized
    assert formula_status(Eq(Val(outer_a), Val(v_finite([reps1[0]]))), {}, B).refuted


def test_synthesized_subset_witnesses_check_against_the_types():
    from kleeneset.realizability import _synth_subeq
    from kleeneset.universe import din
    from kleeneset.vcodes import subeq_code
    from kleeneset import romlib as rom
    n = [v_numeral(k) for k in range(4)]
    cases = [
        (v_numeral(2), v_upair(n[1], n[0]), True),
        (v_upair(n[1], n[0]), v_numeral(3), True),   # {1,0} within {0,1,2}
        (v_numeral(3), v_numeral(2), False),
        (v_finite([n[2], n[0]]), v_numeral(3), True),
        (v_numeral(1), v_finite([n[1]]), False),     # 0 is not a member of {1}
    ]
    for a, b, expect in cases:
        w, decisive = _synth_subeq(a.code, b.code, TR, 0)
        assert decisive
        assert (w is not None) == expect, (a, b)
        if w is not None:
            assert din(w, subeq_code(a.code, b.code), TR).realized


def test_synthesis_after_a_deep_call_matches_a_cold_call():
    # under the depth guard the element comparisons of {0, 1} = {1, 0}
    # come back undecided; no answer computed there may be cached
    from kleeneset.machine import clear_caches
    from kleeneset.realizability import _synth_eq
    a, b = v_upair(N0, N1).code, v_upair(N1, N0).code
    clear_caches()
    cold = _synth_eq(a, b, TR, 0)[:2]
    assert cold[0] is not None and cold[1]
    clear_caches()
    assert _synth_eq(a, b, TR, 60)[:2] == (None, False)
    assert _synth_eq(a, b, TR, 0)[:2] == cold


def test_sets_indexed_past_the_cap_are_out_of_reach():
    # 2**70 copies of 0: not walked member by member, so no answer is found
    from kleeneset.terms import mkapp
    from kleeneset.universe import fin
    a = VCode(pair(fin(2 ** 70), mkapp(rom.K, N0.code)))
    assert denote(a) is None
    assert find_realiser(Eq(Val(a), Val(N1)), {}, B) == (None, False)
    assert formula_status(Eq(Val(a), Val(N1)), {}, B).unknown
