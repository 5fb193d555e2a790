import sys

import pytest
from hypothesis import given, settings, strategies as st

from kleeneset import romlib as rom
from kleeneset.machine import fixpoint
from kleeneset.pairing import is_big, pair
from kleeneset.terms import (
    A, L, N, Prim, V, clear_caches, compile_lambda, mkapp, mkapps,
)
from kleeneset.universe import (
    DIST, MAX_FIN_INDEX, NAT, MalformedTypeError, Truncation, check_in_U,
    check_in_V, din, enumerate_index, fin, pi_code, provably_empty, sigma_code,
    type_view,
)
from kleeneset.vcodes import (
    seq_encode, v_finite, v_numeral, v_omega, v_opair, v_upair,
)


def table_family(codes):
    """A family program backed by a lookup table."""
    return mkapp(rom.ELEMOF, seq_encode(list(codes))) if codes else 0


TR = Truncation(segment_bound=6, nat_bound=6)

_BIG = pair(2 ** 1100, 0)  # a symbolic code: no finite type has this many members
_INVALID = ("invalid", 0, 0, 0)


@pytest.mark.parametrize("code, view", [
    (fin(0), ("fin", 0, 0, 0)),
    (fin(5), ("fin", 5, 0, 0)),
    (NAT, ("nat", 0, 0, 0)),
    (DIST, ("dist", 0, 0, 0)),
    (sigma_code(fin(2), 7), ("sigma", 0, fin(2), 7)),
    (pi_code(NAT, 9), ("pi", 0, NAT, 9)),
    (pi_code(_BIG, _BIG), ("pi", 0, _BIG, _BIG)),
    (pair(0, _BIG), _INVALID),
    (pair(1, 2), _INVALID),
    (pair(4, 0), _INVALID),
], ids=["fin 0", "fin 5", "nat", "dist", "sigma", "pi", "pi of big codes",
        "tag 0 with a big payload", "tag 1 with payload 2", "tag 4"])
def test_type_view_reads_every_code_shape(code, view):
    assert is_big(_BIG)
    got = type_view(code)
    assert type(got) is tuple and got == view


def test_fin_membership_decided_exactly():
    for n in range(0, 101, 4):
        for k in range(0, 101, 4):
            v = din(k, fin(n), TR)
            assert not v.unknown
            assert v.realized == (k < n)


def test_fin_examples():
    assert din(3, fin(5), TR).realized
    assert din(5, fin(5), TR).refuted


def test_nat_membership():
    for k in (0, 7, 10 ** 9):
        assert din(k, NAT, TR).realized


def test_dist_membership(path_view):
    tr = Truncation(segment_bound=6, nat_bound=6, distinguished=path_view)
    empty_seg = path_view.segment_code(0)
    assert din(empty_seg, DIST, tr).realized
    comps = list(path_view.components[:3])
    comps[-1] += 1
    assert din(seq_encode(comps), DIST, tr).refuted
    longer = list(path_view.components) + [0]
    assert din(seq_encode(longer), DIST, tr).unknown


def test_dist_unknown_without_a_configured_set():
    assert din(0, DIST, TR).unknown


def test_sigma_rule_cases():
    # family over fin(3): k maps to fin(k + 1)
    fam = table_family([fin(1), fin(2), fin(3)])
    t = sigma_code(fin(3), fam)
    assert din(pair(2, 1), t, TR).realized      # 2 in fin(3), 1 in fin(3)
    assert din(pair(2, 5), t, TR).refuted       # 5 not in fin(3)
    assert din(pair(7, 0), t, TR).refuted       # first component out of range
    # hand unfolding of the positive rule on a dependent instance
    assert din(pair(1, 1), t, TR).realized
    assert din(pair(1, 2), t, TR).refuted       # 2 not in fin(2)


def test_pi_over_fin_matches_pointwise_membership():
    fams = [
        [1],
        [2, 1],
        [1, 3, 2],
        [2, 1, 2, 1],
        [1, 2, 1, 3, 2],
    ]
    for sizes in fams:
        n = len(sizes)
        t = pi_code(fin(n), table_family([fin(m) for m in sizes]))
        # candidate functions: total tables over fin(n)
        import itertools
        for values in itertools.product(*(range(3) for _ in range(n))):
            d = table_family(list(values))
            want = all(values[k] < sizes[k] for k in range(n))
            got = din(d, t, TR)
            assert not got.unknown
            assert got.realized == want, (sizes, values)


def test_pi_over_empty_index_is_vacuous():
    t = pi_code(fin(0), 0)
    assert din(123, t, TR).realized


def test_pi_over_nat_is_never_realized():
    t = pi_code(NAT, mkapp(rom.K, fin(1)))  # everything maps into fin(1)
    v = din(mkapp(rom.K, 0), t, TR)
    assert v.unknown
    # but a refutation is still available when the target is empty
    t_bad = pi_code(NAT, mkapp(rom.K, fin(0)))
    assert din(mkapp(rom.K, 0), t_bad, TR).refuted


def test_pi_refuted_by_provably_diverging_component():
    # applying the candidate to 0 diverges provably (junk program 15)
    t = pi_code(fin(1), mkapp(rom.K, fin(2)))
    assert din(15, t, TR).refuted


def test_pi_undecided_when_a_component_runs_out_of_fuel():
    # loop = fix I: applied to the index 0 it runs until the fuel is gone;
    # built from primitives only, so it registers nothing
    loop = fixpoint(mkapps(rom.S, rom.K, rom.K))
    v = din(loop, pi_code(fin(1), mkapp(rom.K, fin(1))), Truncation(fuel=1000))
    assert (v.status, v.note) == ("unknown", "some component checks undecided")


def test_malformed_family_raises():
    diverging_family = 15  # junk code: no program reading
    t = pi_code(fin(2), diverging_family)
    with pytest.raises(MalformedTypeError):
        din(mkapp(rom.K, 0), t, TR)


def test_provably_empty():
    assert provably_empty(fin(0), TR)
    assert not provably_empty(fin(1), TR)
    assert not provably_empty(NAT, TR)
    assert provably_empty(sigma_code(fin(0), 0), TR)
    assert provably_empty(pi_code(fin(1), mkapp(rom.K, fin(0))), TR)
    assert not provably_empty(pi_code(fin(0), 0), TR)
    # the chain of 50 runs into the depth guard at 40, the chain of 30 does
    # not; each answers as it does cold, whichever is asked first
    chains = {n: type_chain(fin(0), n) for n in (30, 50)}
    for order in ((30, 50), (50, 30)):
        clear_caches()
        assert [provably_empty(chains[n], TR) for n in order] == [n == 30 for n in order]


def test_truncation_monotonicity():
    ladder = [Truncation(segment_bound=2, nat_bound=2),
              Truncation(segment_bound=4, nat_bound=6),
              Truncation(segment_bound=8, nat_bound=10)]
    fam = table_family([fin(1), fin(2), fin(3)])
    queries = [
        (3, fin(5)), (7, fin(5)), (4, NAT),
        (pair(1, 0), sigma_code(fin(3), fam)),
        (table_family([0, 0, 0]), pi_code(fin(3), fam)),
    ]
    for k, t in queries:
        settled = None
        for tr in ladder:
            v = din(k, t, tr)
            if settled is None and not v.unknown:
                settled = v.status
            elif settled is not None:
                assert v.status == settled


def test_disjointness_sample():
    fam = table_family([fin(2), fin(2)])
    types = [fin(3), NAT, sigma_code(fin(2), fam), pi_code(fin(2), fam)]
    for t in types:
        for k in range(6):
            v = din(k, t, TR)
            assert v.status in ("realized", "refuted", "unknown")


# ---------------------------------------------------------------------------
# membership in the universes


def test_check_in_U_examples():
    assert check_in_U(pair(0, 7), TR).realized
    assert check_in_U(pair(1, 1), TR).realized
    assert check_in_U(pair(1, 0), TR).realized
    assert check_in_U(pair(9, 9), TR).refuted


def test_check_in_U_formation():
    good = sigma_code(fin(2), table_family([fin(1), fin(4)]))
    assert check_in_U(good, TR).realized
    bad = sigma_code(fin(2), table_family([fin(1), pair(9, 9)]))
    assert check_in_U(bad, TR).refuted
    diverging = pi_code(fin(1), 15)
    assert check_in_U(diverging, TR).refuted


def test_check_in_V_cases():
    assert check_in_V(v_numeral(0).code, TR).realized
    assert check_in_V(v_numeral(0).code, TR).note is None
    for tr in (Truncation(nat_bound=2), TR, Truncation(nat_bound=10)):
        omega_v = check_in_V(v_omega().code, tr)
        assert omega_v.realized
        assert omega_v.note is not None  # relative to the enumeration bound
    assert check_in_V(pair(pair(9, 9), 0), TR).refuted


def test_check_in_V_finite_sets():
    v = v_finite([v_numeral(1), v_numeral(3)])
    assert check_in_V(v.code, TR).realized


def test_enumerate_index_completeness_flags():
    members, complete = enumerate_index(fin(4), TR)
    assert members == [0, 1, 2, 3] and complete
    members, complete = enumerate_index(NAT, TR)
    assert not complete and len(members) == TR.nat_bound + 1
    fam = table_family([fin(2), fin(1)])
    members, complete = enumerate_index(sigma_code(fin(2), fam), TR)
    assert complete
    assert sorted(members) == sorted([pair(0, 0), pair(0, 1), pair(1, 0)])


# ---------------------------------------------------------------------------
# pinned (status, note) answers of the formation rules of U and V


def const(c):
    return mkapp(rom.K, c)


def fixed_family(body):
    """fixpoint(lam e k. body): a family whose own code is bound to e."""
    return fixpoint(compile_lambda(L("e", "k", body)))


# e k = e k: never converges, and the machine cannot prove it, so every
# application runs out of fuel however warm the memo tables are
def loop_family():
    return fixed_family(A(V("e"), V("k")))


LOW = Truncation(segment_bound=6, nat_bound=6, fuel=2000)
_p = Prim("p")

FORMATION_CASES = [
    ("U fin", check_in_U, lambda: fin(3), TR, "realized", None),
    ("U nat", check_in_U, lambda: NAT, TR, "realized", None),
    ("U dist", check_in_U, lambda: DIST, TR, "realized", None),
    ("U bad tag", check_in_U, lambda: pair(5, 0), TR, "refuted", None),
    ("U bad tag-1 payload", check_in_U, lambda: pair(1, 7), TR, "refuted", None),
    ("U sigma over fin", check_in_U,
     lambda: sigma_code(fin(3), table_family([fin(1), fin(2), fin(3)])), TR, "realized", None),
    ("U pi over fin", check_in_U,
     lambda: pi_code(fin(2), table_family([NAT, fin(2)])), TR, "realized", None),
    ("U sigma over nat", check_in_U, lambda: sigma_code(NAT, const(fin(2))), TR,
     "realized", "family checked up to the truncation"),
    ("U pi over nat", check_in_U, lambda: pi_code(NAT, const(NAT)), TR,
     "realized", "family checked up to the truncation"),
    ("U pi over dist", check_in_U, lambda: pi_code(DIST, const(fin(1))), TR,
     "realized", "family checked up to the truncation"),
    ("U sigma over a pi over nat", check_in_U,
     lambda: sigma_code(pi_code(NAT, const(fin(2))), const(fin(1))), TR,
     "realized", "family checked up to the truncation"),
    ("U sigma over fin 0", check_in_U, lambda: sigma_code(fin(0), 15), TR, "realized", None),
    ("U bad index", check_in_U, lambda: sigma_code(pair(6, 1), const(fin(1))), TR,
     "refuted", None),
    ("U bad member", check_in_U,
     lambda: pi_code(fin(2), table_family([fin(1), pair(4, 4)])), TR, "refuted", None),
    ("U diverging family", check_in_U, lambda: sigma_code(fin(2), 15), TR, "refuted", None),
    ("U family out of fuel", check_in_U, lambda: sigma_code(fin(2), loop_family()), LOW,
     "unknown", "index or family membership undecided"),
    ("U undecided component", check_in_U,
     lambda: sigma_code(fin(1), const(sigma_code(fin(2), loop_family()))), LOW,
     "unknown", "index or family membership undecided"),
    ("U undecided index", check_in_U,
     lambda: pi_code(sigma_code(fin(2), loop_family()), const(fin(1))), LOW,
     "unknown", "index or family membership undecided"),
    # e k = pair(2, pair(fin 1, e)): the one component is the type itself,
    # so the walk descends until the depth guard answers
    ("U self-referential", check_in_U,
     lambda: sigma_code(fin(1), fixed_family(A(_p, N(2), A(_p, N(fin(1)), V("e"))))), TR,
     "unknown", "index or family membership undecided"),
    ("V empty", check_in_V, lambda: 0, TR, "realized", None),
    ("V numeral", check_in_V, lambda: v_numeral(3).code, TR, "realized", None),
    ("V omega", check_in_V, lambda: v_omega().code, TR,
     "realized", "element map checked up to the truncation"),
    ("V upair", check_in_V, lambda: v_upair(v_numeral(1), v_numeral(2)).code, TR,
     "realized", None),
    # one element holds omega, whose note the answer carries
    ("V opair", check_in_V, lambda: v_opair(v_numeral(0), v_omega()).code, TR,
     "realized", "element map checked up to the truncation"),
    ("V finite", check_in_V,
     lambda: v_finite([v_numeral(2), v_upair(v_numeral(0), v_numeral(1))]).code, TR,
     "realized", None),
    ("V over dist", check_in_V, lambda: pair(DIST, const(0)), TR,
     "realized", "element map checked up to the truncation"),
    ("V bad index", check_in_V, lambda: pair(pair(5, 0), 0), TR, "refuted", None),
    ("V bad element", check_in_V, lambda: pair(fin(1), const(pair(pair(5, 0), 0))), TR,
     "refuted", None),
    ("V diverging element map", check_in_V, lambda: pair(fin(2), 15), TR, "refuted", None),
    ("V element map out of fuel", check_in_V, lambda: pair(fin(2), loop_family()), LOW,
     "unknown", "index or element map undecided"),
    ("V undecided index", check_in_V,
     lambda: pair(sigma_code(fin(2), loop_family()), const(0)), LOW,
     "unknown", "index or element map undecided"),
    ("V undecided element", check_in_V,
     lambda: pair(fin(1), const(pair(fin(2), loop_family()))), LOW,
     "unknown", "index or element map undecided"),
    # e k = pair(fin 1, e): a set whose one element is itself
    ("V self-member", check_in_V,
     lambda: pair(fin(1), fixed_family(A(_p, N(fin(1)), V("e")))), TR,
     "unknown", "index or element map undecided"),
]


@pytest.mark.parametrize("name, check, build, tr, status, note", FORMATION_CASES,
                         ids=[case[0] for case in FORMATION_CASES])
def test_formation_rule_answers_are_pinned(name, check, build, tr, status, note):
    v = check(build(), tr)
    assert (v.status, v.note) == (status, note)


def _frame_depth():
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


@pytest.mark.parametrize("name", ["U self-referential", "V self-member"])
def test_the_depth_guard_fires_within_a_frame_budget(name):
    # each U or V level takes two frames (the memo wrapper and the
    # decider), so the guard at depth 200 fires some 400 frames down
    _, check, build, tr, status, note = next(c for c in FORMATION_CASES if c[0] == name)
    code = build()
    clear_caches()
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 500)
    try:
        v = check(code, tr)
    finally:
        sys.setrecursionlimit(old)
    assert (v.status, v.note) == (status, note)


def test_formation_rule_answers_hold_warm():
    # all cases in one process, forwards and then backwards, so that each
    # is asked after every other one has filled the memo tables
    cases = [(name, check, build(), tr, (status, note))
             for name, check, build, tr, status, note in FORMATION_CASES]
    for name, check, code, tr, pinned in cases + cases[::-1]:
        v = check(code, tr)
        assert (name, (v.status, v.note)) == (name, pinned)


def test_finite_index_types_past_the_cap_are_not_enumerated():
    big = fin(MAX_FIN_INDEX + 1)
    assert enumerate_index(big, TR) == ([], None)  # not listed at all
    assert enumerate_index(fin(2 ** 70), TR) == ([], None)
    to_nat = mkapp(rom.K, NAT)
    for v in (check_in_U(sigma_code(fin(2 ** 70), 0), TR),
              check_in_U(pi_code(big, to_nat), TR),
              check_in_V(pair(big, 0), TR),
              din(0, pi_code(big, to_nat), TR)):
        assert v.unknown and "not enumerated" in v.note
    assert not provably_empty(sigma_code(big, to_nat), TR)
    # at the cap and below, the members are walked as before
    assert enumerate_index(fin(MAX_FIN_INDEX), TR) == (list(range(MAX_FIN_INDEX)), True)
    assert check_in_U(sigma_code(fin(3), to_nat), TR).realized
    assert din(0, pi_code(fin(2), to_nat), TR).refuted
    assert check_in_V(pair(fin(2), v_numeral(0).elem_map), TR).realized


def test_a_type_whose_family_returns_itself_gets_answers():
    # e 0 = sigma(fin 1, e) for e = fix (S (K K) (sigma (fin 1)))
    t = sigma_code(fin(1), fixpoint(
        mkapps(rom.S, mkapp(rom.K, rom.K), mkapp(rom.SIGMA_PROG, fin(1)))))
    assert enumerate_index(t, TR) == ([], False)
    assert din(0, pi_code(t, 0), TR).unknown
    assert check_in_U(t, TR).unknown
    assert check_in_V(pair(t, 0), TR).unknown


# ---------------------------------------------------------------------------
# the memoized deciders answer the same cold, warm and after a deeper call


def type_chain(t, n):
    """sigma(fin 1, K .) applied n times: t sits n levels down."""
    for _ in range(n):
        t = sigma_code(fin(1), const(t))
    return t


def set_chain(a, n):
    """{.} applied n times: a sits n levels down."""
    for _ in range(n):
        a = pair(fin(1), const(a))
    return a


def member_chain(kt, n):
    """<0, .> and sigma(fin 1, K .) applied n times to the member and the
    type of kt: the membership of the one in the other sits n levels down."""
    k, t = kt
    for _ in range(n):
        k = pair(0, k)
    return k, type_chain(t, n)


def din_of(kt, tr):
    return din(*kt, tr)


@pytest.mark.parametrize("order", [(150, 250), (250, 150)], ids=["150-first", "250-first"])
@pytest.mark.parametrize("check, chain, bottom", [(check_in_U, type_chain, fin(1)),
                                                  (check_in_V, set_chain, 0),
                                                  (din_of, member_chain, (0, fin(1)))],
                         ids=["U", "V", "din"])
def test_formation_answers_on_deep_chains_do_not_depend_on_order(check, chain, bottom, order):
    # the chain of 250 runs into the depth guard, the chain of 150 does not
    codes = {n: chain(bottom, n) for n in (150, 250)}
    cold = {}
    for n, code in codes.items():
        clear_caches()
        cold[n] = check(code, TR)
    assert cold[150].realized and cold[250].unknown
    clear_caches()
    for n in order:
        assert check(codes[n], TR) == cold[n]


def test_a_set_of_numerals_past_the_depth_guard_answers_in_polynomial_time(time_limit):
    # the numerals 0..202 as elements: numeral k is met at every depth inside
    # the numerals above it, so a memo with one depth window per key keeps
    # recomputing it; this ran for more than 90 s
    clear_caches()
    with time_limit(5, "check_in_V"):
        v = check_in_V(pair(fin(203), rom.NUMMAP))
    assert (v.status, v.note) == ("unknown", "index or element map undecided")


def test_numerals_past_the_depth_guard_are_computed_a_few_times_and_answer_as_cold(time_limit):
    # an unknown formation answer holds down to the guard, so numeral k is
    # computed about twice, not once per depth at which it is met: the
    # numerals 0..249 took some 5 s
    sets = {n: pair(fin(n), rom.NUMMAP) for n in (0, 200, 201, 250)}
    with time_limit(5, "check_in_V"):
        cold = {}
        for n, a in sets.items():
            clear_caches()
            cold[n] = check_in_V(a, TR)
        clear_caches()
        warm = {n: check_in_V(sets[n], TR) for n in sorted(sets, reverse=True)}
    assert [n for n, v in cold.items() if v.realized] == [0, 200]
    assert {(v.status, v.note) for n, v in cold.items() if n > 200} == {
        ("unknown", "index or element map undecided")}
    assert warm == cold


def _families(members):
    # constant families, one that never converges (every application runs
    # out of fuel) and one that provably diverges
    return members.map(const) | st.builds(loop_family) | st.just(15)


_TYPE_CODES = st.recursive(
    st.sampled_from([fin(0), fin(1), fin(2), NAT, DIST]),
    lambda inner: st.builds(lambda former, n, e: former(n, e),
                            st.sampled_from([sigma_code, pi_code]), inner, _families(inner)),
    max_leaves=5)
_SET_CODES = st.recursive(
    st.just(0),  # the empty set
    lambda inner: st.builds(pair, _TYPE_CODES, _families(inner)),
    max_leaves=4)


def _answer(check, code):
    """The answer of a check; a malformed type is an answer too."""
    try:
        return check(code, LOW)
    except MalformedTypeError:
        return MalformedTypeError


# each case: a decider, a code, a chain that puts the code n levels down,
# and a depth at which the deeper call meets the code near its own guard
_NEAR_200 = st.integers(min_value=185, max_value=205)
_NEAR_40 = st.integers(min_value=35, max_value=45)


@given(st.tuples(st.just(check_in_U), _TYPE_CODES, st.just(type_chain), _NEAR_200)
       | st.tuples(st.just(check_in_V), _SET_CODES, st.just(set_chain), _NEAR_200)
       | st.tuples(st.just(din_of), st.tuples(st.sampled_from([0, 1, pair(0, 1), pair(1, 0)]),
                                              _TYPE_CODES),
                   st.just(member_chain), _NEAR_200)
       | st.tuples(st.just(provably_empty), _TYPE_CODES, st.just(type_chain), _NEAR_40))
@settings(max_examples=150, deadline=None)
def test_formation_answers_are_the_same_cold_warm_and_after_a_deeper_call(case):
    check, code, chain, depth = case
    deeper = chain(code, depth)
    clear_caches()
    cold = _answer(check, code)
    clear_caches()
    cold_deeper = _answer(check, deeper)
    clear_caches()
    assert _answer(check, code) == cold
    assert _answer(check, code) == cold  # warm
    assert _answer(check, deeper) == cold_deeper
    assert _answer(check, code) == cold
    clear_caches()
    _answer(check, deeper)
    assert _answer(check, code) == cold
    if check is din_of:  # no din clause puts a note on a realized verdict
        for v in (cold, cold_deeper):
            assert v is MalformedTypeError or not v.realized or v.note is None


KEYWORD_CASES = [fin(3), NAT, DIST, 2, sigma_code(fin(0), 0),
                 sigma_code(fin(2), mkapp(rom.K, fin(1))), pi_code(NAT, mkapp(rom.K, fin(0)))]


@pytest.mark.parametrize("t", KEYWORD_CASES)
def test_keyword_calls_answer_as_positional_calls(t):
    # keyword and short calls answer as the positional call does
    def answers(calls):
        clear_caches()
        return [(v.status, v.note) if hasattr(v, "status") else v for v in
                (call() for call in calls)]

    positional = answers([lambda: check_in_U(t, TR), lambda: check_in_V(pair(t, 0), TR),
                          lambda: provably_empty(t, TR)])
    keyword = answers([lambda: check_in_U(t, tr=TR), lambda: check_in_V(pair(t, 0), tr=TR),
                       lambda: provably_empty(t, tr=TR)])
    mixed = answers([lambda: check_in_U(t=t, tr=TR), lambda: check_in_V(a=pair(t, 0), tr=TR),
                     lambda: provably_empty(t=t, tr=TR)])
    assert keyword == positional == mixed
    assert answers([lambda: check_in_U(t), lambda: check_in_V(pair(t, 0))]) == answers(
        [lambda: check_in_U(t, Truncation()), lambda: check_in_V(pair(t, 0), Truncation())])
    # a bad call fails as it would on the undecorated decider
    with pytest.raises(TypeError):
        provably_empty(t)
    with pytest.raises(TypeError):
        check_in_U(t, fuel=5)


def test_a_call_with_too_many_arguments_fails_as_on_the_decider():
    # the entries take a code and a truncation, and no depth; a memo
    # wrapper once read the argument before the last as the truncation:
    # check_in_U(5, Truncation(), 0, 1) raised AttributeError
    for call in (lambda: check_in_U(5, Truncation(), 0),
                 lambda: check_in_V(0, Truncation(), 0),
                 lambda: provably_empty(5, Truncation(), 0),
                 lambda: check_in_U(5, Truncation(), 0, 1),
                 lambda: check_in_V(0, Truncation(), 0, 1),
                 lambda: provably_empty(5, Truncation(), 0, 1)):
        with pytest.raises(TypeError):
            call()


def test_a_noted_realized_answer_is_relative_to_its_budget():
    # the family's value is a type code at indices 0 and 1 and not at 2,
    # so the walk up to nat_bound=1 finds no bad index and the walk up to 2
    # finds one: only an unnoted answer is stable as the budget grows
    t = sigma_code(NAT, rom.LSFAM)
    assert t == 31475006110386586987366
    at_one = check_in_U(t, Truncation(nat_bound=1))
    assert (at_one.status, at_one.note) == ("realized", "family checked up to the truncation")
    at_two = check_in_U(t, Truncation(nat_bound=2))
    assert (at_two.status, at_two.note) == ("refuted", None)



# ---------------------------------------------------------------------------
# an unnoted answer stays as it is up every budget ladder


def test_a_noted_member_puts_its_note_on_the_answer():
    # the one value of the family is a sum over the naturals, realized with
    # a note at nat_bound=0 and refuted at 1; the note once fell off at the
    # product, whose index is listed in full, and the unnoted answer flipped
    t = pi_code(sigma_code(fin(1), const(fin(2))), const(sigma_code(NAT, rom.NUMMAP)))
    answers = [check_in_U(t, Truncation(nat_bound=n)) for n in (0, 1)]
    assert [(v.status, v.note) for v in answers] == [
        ("realized", "family checked up to the truncation"), ("refuted", None)]


def test_a_code_that_is_not_a_type_can_answer_refuted_before_it_raises():
    # stability holds for codes in U only: the index type of t maps to set
    # codes, and a larger fuel reaches one where a type must be
    t = sigma_code(pi_code(NAT, rom.NUMMAP), const(sigma_code(fin(1), const(fin(1)))))
    assert check_in_U(t, Truncation(nat_bound=2)).refuted
    clear_caches()
    v = din(5, t, Truncation(nat_bound=2, fuel=9))
    assert (v.status, v.note) == ("refuted", None)
    clear_caches()
    with pytest.raises(MalformedTypeError):
        din(5, t, Truncation(nat_bound=2, fuel=10))


def test_an_answer_at_tight_fuel_does_not_depend_on_the_rungs_asked_before_it():
    # the memo holds what the lower fuels reached, and a hit charges what
    # it cost, so fuel 7 still answers refuted, as it does cold
    t = sigma_code(pi_code(NAT, rom.NUMMAP), const(sigma_code(fin(1), const(fin(1)))))
    clear_caches()
    for fuel in range(1, 7):
        din(5, t, Truncation(nat_bound=2, fuel=fuel))
    v = din(5, t, Truncation(nat_bound=2, fuel=7))
    assert (v.status, v.note) == ("refuted", None)


_LEAVES = st.sampled_from([fin(0), fin(1), fin(2), NAT, DIST])
_LIBRARY_FAMILIES = st.sampled_from([rom.LSFAM, rom.NUMMAP, 0, 1, 2, 5])


def _formed(index, values):
    """Sums and products over index, whose family is a library program, a
    small natural or a constant family of values."""
    return st.builds(lambda former, n, e: former(n, e), st.sampled_from([sigma_code, pi_code]),
                     index, _LIBRARY_FAMILIES | values.map(const))


# Types, and the index types of sets, at most two formers deep.  With
# NUMMAP as the element map, an index can list a code past 200, whose
# numeral nests past the depth guard.  100 drawn cases usually take about
# 0.5 s; an index listing a million members, such as sigma(sigma(DIST,
# DIST), DIST) at segment_bound 3, takes some 20 s when drawn.
_ONE_FORMER = _LEAVES | _formed(_LEAVES, _LEAVES)
_TWO_FORMERS = _ONE_FORMER | _formed(_ONE_FORMER, _ONE_FORMER)
_LADDER_MEMBERS = (st.sampled_from([0, 1, 2, pair(0, 1), pair(1, 0), pair(2, 1)])
                   | _LIBRARY_FAMILIES | _LEAVES.map(const))

# each budget axis walked on its own, the others held
_NAT_RUNGS = [0, 1, 2, 3]
_SEGMENT_RUNGS = [0, 1, 2, 3, 4]
_FUEL_RUNGS = [1, 10, 100, 1000, 10 ** 4, 10 ** 6]


def _ladder(decide, rungs, warm):
    """The answers of decide up the rungs, each asked cold or, warm, all
    from one clearing; a malformed type ends the ladder."""
    clear_caches()
    out = []
    for tr in rungs:
        if not warm:
            clear_caches()
        try:
            v = decide(tr)
        except MalformedTypeError:
            break
        out.append((v.status, v.note))
    return out


def _climb(decide, rungs):
    """Ask decide at each truncation, cold; once an unnoted realized or
    refuted answer appears, every higher rung must give it again.  Walked
    warm, the ladder gives the cold answers."""
    cold = _ladder(decide, rungs, warm=False)
    settled = None
    for tr, (status, note) in zip(rungs, cold):
        if settled is not None:
            assert (status, note) == (settled, None), tr
        elif status != "unknown" and note is None:
            settled = status
    assert _ladder(decide, rungs, warm=True) == cold


@given(case=st.tuples(_LADDER_MEMBERS, _TWO_FORMERS, _TWO_FORMERS,
                      _LIBRARY_FAMILIES | _ONE_FORMER.map(const)))
@settings(max_examples=100, deadline=None)
def test_unnoted_answers_hold_up_every_budget_ladder(case, path_view):
    k, t, index, e = case
    ladders = [[Truncation(nat_bound=n, fuel=10 ** 4) for n in _NAT_RUNGS],
               [Truncation(segment_bound=s, nat_bound=2, fuel=10 ** 4, distinguished=path_view)
                for s in _SEGMENT_RUNGS],
               [Truncation(nat_bound=2, fuel=f) for f in _FUEL_RUNGS]]
    for rungs in ladders:
        _climb(lambda tr: din(k, t, tr), rungs)
        _climb(lambda tr: check_in_U(t, tr), rungs)
        _climb(lambda tr: check_in_V(pair(index, e), tr), rungs)
