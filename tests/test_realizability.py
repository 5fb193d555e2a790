import itertools
import random

import pytest

from kleeneset import romlib as rom
from kleeneset.lworld import EMPTY, HFSet, hf_nat
from kleeneset.machine import apply_chain, fixpoint
from kleeneset.pairing import pair
from kleeneset.realizability import (
    All, And, BAll, BEx, CheckBudget, Eq, Ex, Implies, In, Not, Or, Val, Var, check, denote, find_realiser, formula_status,
    incomparability_formula, incomparability_statement_realiser, native_truth,
    subcountability_formula, subcountability_witness)
from kleeneset.terms import A, L, V, clear_caches, compile_lambda, mkapp, mkapps
from kleeneset.universe import Truncation, fin, sigma_code
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
    assert u.index_type == fin(2)
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
    # come back undecided; each depth answers as it does cold, whichever
    # is asked first
    from kleeneset.realizability import _synth_eq
    a, b = v_upair(N0, N1).code, v_upair(N1, N0).code
    cold = {}
    for depth in (0, 60):
        clear_caches()
        cold[depth] = _synth_eq(a, b, TR, depth)
    assert cold[0][0] is not None and cold[0][1]
    assert cold[60] == (None, False)
    for order in ((0, 60), (60, 0)):
        clear_caches()
        assert [_synth_eq(a, b, TR, depth) for depth in order] == [cold[d] for d in order]


def test_equality_of_deep_singleton_chains_is_decided_in_time(time_limit):
    # two 17-deep singleton chains over two codes of the empty set;
    # provably_empty's depth guard fires in the comparisons, and while no
    # answer computed above a fired guard was memoized, each level
    # recomputed its whole subtree and the query took 15 s; a two-second
    # limit stops the test if it ever does again
    a, b = 0, pair(fin(0), 7)
    for _ in range(17):
        a, b = v_finite([a]).code, v_finite([b]).code
    phi = Eq(Val(VCode(a)), Val(VCode(b)))
    clear_caches()
    with time_limit(2, "formula_status"):
        status = formula_status(phi, {}, B)
    assert status.realized
    assert native_truth(phi, {}, TR) is True


def test_sets_indexed_past_the_cap_are_out_of_reach():
    # 2**70 copies of 0: not walked member by member, so no answer is found
    from kleeneset.terms import mkapp
    a = VCode(pair(fin(2 ** 70), mkapp(rom.K, N0.code)))
    assert denote(a) is None
    assert find_realiser(Eq(Val(a), Val(N1)), {}, B) == (None, False)
    assert formula_status(Eq(Val(a), Val(N1)), {}, B).unknown


# ---------------------------------------------------------------------------
# Sets whose element map does not converge on an index: the clauses answer
# unknown, the synthesizer is not decisive and the finite reading is None


LOW = CheckBudget(truncation=Truncation(segment_bound=6, nat_bound=6, fuel=2000))


def _no_element_sets():
    # e k = s k k e k = e k never converges and the machine cannot prove
    # it, so every application runs out of fuel; the code 15 provably diverges
    loop = fixpoint(mkapps(rom.S, rom.K, rom.K))
    return [VCode(pair(fin(2), loop)), VCode(pair(fin(2), 15))]


@pytest.mark.parametrize("s", _no_element_sets())
def test_clauses_answer_unknown_on_an_element_map_that_does_not_converge(s):
    v = check(pair(0, rom.IOTA), In(Val(N0), Val(s)), {}, LOW)
    assert (v.status, v.note) == ("unknown", "element map did not converge on the index")
    v = check(pair(1, 0), BEx("x", Val(s), TRUE_ATOM), {}, LOW)
    assert (v.status, v.note) == (
        "unknown", "element map did not converge on the witness index")
    v = check(mkapp(rom.K, 0), BAll("x", Val(s), TRUE_ATOM), {}, LOW)
    assert (v.status, v.note) == ("unknown", "some instances undecided")
    # an index outside the bound is refuted before the map is run
    assert check(pair(2, rom.IOTA), In(Val(N0), Val(s)), {}, LOW).refuted


@pytest.mark.parametrize("s", _no_element_sets())
def test_no_decisive_search_over_an_element_map_that_does_not_converge(s):
    for phi in (In(Val(N0), Val(s)), BEx("x", Val(s), TRUE_ATOM),
                BAll("x", Val(s), TRUE_ATOM)):
        assert find_realiser(phi, {}, LOW) == (None, False), phi
    assert formula_status(BAll("x", Val(s), TRUE_ATOM), {}, LOW).unknown


def test_no_decisive_equality_with_an_element_map_out_of_fuel():
    s = _no_element_sets()[0]  # the diverging map makes the equality type malformed
    assert find_realiser(Eq(Val(s), Val(N2)), {}, LOW) == (None, False)
    assert find_realiser(Eq(Val(N2), Val(s)), {}, LOW) == (None, False)


@pytest.mark.parametrize("s", _no_element_sets())
def test_no_finite_reading_of_an_element_map_that_does_not_converge(s):
    tr = LOW.truncation
    assert denote(s, tr) is None
    assert denote(v_finite([N1, s]), tr) is None
    for phi in (In(Val(N0), Val(s)), BAll("x", Val(s), TRUE_ATOM),
                BEx("x", Val(s), TRUE_ATOM)):
        assert native_truth(phi, {}, tr) is None, phi


# ---------------------------------------------------------------------------
# Pinned answers on clauses the tests above do not reach

FAMILY = CheckBudget(truncation=LOW.truncation, witness_family=(N0, N1))
UNDECIDED = In(Val(N0), Val(_no_element_sets()[0]))  # its element map runs out of fuel


def test_unbounded_universal_over_a_family_it_cannot_run_on():
    loop = _no_element_sets()[0].elem_map  # runs out of fuel on every argument
    v = check(loop, All("x", TRUE_ATOM), {}, FAMILY)
    assert (v.status, v.note) == (
        "unknown", "unbounded universal: checked relative to the witness family only")
    assert check(15, All("x", TRUE_ATOM), {}, FAMILY).refuted  # 15 provably diverges
    assert find_realiser(All("x", TRUE_ATOM), {}, FAMILY) == (None, False)


def test_unbounded_existential_over_a_code_that_is_not_a_set():
    assert check(pair(2, 0), Ex("x", TRUE_ATOM), {}, FAMILY).refuted  # 2 is no set code
    budget = CheckBudget(truncation=TR, witness_family=(N0,))
    assert find_realiser(Ex("x", In(Val(N1), Var("x"))), {}, budget) == (None, False)
    assert find_realiser(Ex("x", TRUE_ATOM), {}, CheckBudget(truncation=TR)) == (None, False)


def test_implication_with_an_undecided_consequent():
    phi = Implies(TRUE_ATOM, BAll("x", Val(_no_element_sets()[0]), TRUE_ATOM))
    loop = _no_element_sets()[0].elem_map
    for e in (mkapp(rom.K, mkapp(rom.K, 0)), loop):  # undecided, and out of fuel
        v = check(e, phi, {}, LOW)
        assert (v.status, v.note) == (
            "unknown", "consequent checks undecided on some antecedent realisers")


def test_search_past_its_depth_guard_and_undecided_implications():
    answers = []
    for k in range(38, 44):
        phi = TRUE_ATOM
        for _ in range(k):
            phi = Not(phi)
        answers.append(find_realiser(phi, {}, LOW))
    # the guard stops the search 41 negations down
    assert answers == [(0, True), (None, True), (0, True),
                       (None, False), (None, False), (None, False)]
    assert find_realiser(Implies(UNDECIDED, UNDECIDED), {}, LOW) == (None, False)
    assert find_realiser(Implies(TRUE_ATOM, UNDECIDED), {}, LOW) == (None, False)


@pytest.mark.parametrize("phi, truth", [
    (And(TRUE_ATOM, UNDECIDED), None), (And(UNDECIDED, FALSE_ATOM), False),
    (Or(UNDECIDED, TRUE_ATOM), True), (Or(FALSE_ATOM, UNDECIDED), None),
    (Implies(UNDECIDED, TRUE_ATOM), True), (Implies(FALSE_ATOM, UNDECIDED), True),
    (Implies(TRUE_ATOM, UNDECIDED), None), (Implies(UNDECIDED, FALSE_ATOM), None),
    (BAll("x", Val(v_omega()), TRUE_ATOM), None), (BEx("x", Val(v_omega()), TRUE_ATOM), None),
])
def test_truth_with_an_undecided_part(phi, truth):
    assert native_truth(phi, {}, LOW.truncation) is truth


def test_equality_search_stops_at_a_set_indexed_by_a_sum():
    # a = {0}, listed twice over the sum of fin 1 over fin 2: the subset
    # table walks finite index types only, so a = 1 is left undecided,
    # although each inclusion has a realiser
    a = VCode(pair(sigma_code(fin(2), mkapp(rom.K, fin(1))), mkapp(rom.K, N0.code)))
    phi = Eq(Val(a), Val(N1))
    assert find_realiser(phi, {}, B) == (None, False)
    v = formula_status(phi, {}, B)
    assert (v.status, v.note) == ("unknown", "witness search not decisive")
    both = And(BAll("x", Val(a), In(Var("x"), Val(N1))), BAll("x", Val(N1), In(Var("x"), Val(a))))
    v = formula_status(both, {}, B)
    assert (v.status, v.note) == ("realized", None)


@pytest.mark.parametrize("s", _no_element_sets())
def test_a_bounded_universal_runs_its_evidence_before_the_element_map(s):
    # 15 provably diverges on every index; the evidence runs before the
    # element is formed, so that refutes the clause although the element
    # map converges nowhere
    assert check(15, BAll("x", Val(s), TRUE_ATOM), {}, LOW).refuted


def test_a_witness_family_holds_set_codes_only():
    # a bare code in the family once gave an answer that hung on e and on
    # the order: with (N0, 5), check(15, ...) below was refuted and
    # check(3, ...) raised AttributeError; with (5,) both raised
    for family in ((N0, 5), (5,), (N0.code,)):
        with pytest.raises(ValueError):
            CheckBudget(truncation=TR, witness_family=family)
    budget = CheckBudget(truncation=TR, witness_family=(N0, N1))
    assert check(15, All("x", TRUE_ATOM), {}, budget).refuted
    v = check(3, All("x", TRUE_ATOM), {}, budget)
    assert (v.status, v.note) == (
        "unknown", "unbounded universal: checked relative to the witness family only")
