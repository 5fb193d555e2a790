import pytest
from hypothesis import given, settings, strategies as st

from kleeneset import romlib as rom
from kleeneset.machine import fixpoint
from kleeneset.pairing import pair
from kleeneset.terms import (
    A, L, N, Prim, V, clear_caches, compile_lambda, mkapp, mkapps,
)
from kleeneset.universe import (
    DIST, MAX_FIN_INDEX, NAT, MalformedTypeError, Truncation, check_in_U,
    check_in_V, din, enumerate_index, fin, pi_code, provably_empty, sigma_code,
)
from kleeneset.vcodes import (
    seq_encode, v_finite, v_numeral, v_omega, v_opair, v_upair,
)


def table_family(codes):
    """A family program backed by a lookup table."""
    return mkapp(rom.ELEMOF, seq_encode(list(codes))) if codes else 0


TR = Truncation(segment_bound=6, nat_bound=6)


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
        [fin(1)],
        [fin(2), fin(1)],
        [fin(1), fin(3), fin(2)],
        [fin(2), fin(1), fin(2), fin(1)],
        [fin(1), fin(2), fin(1), fin(3), fin(2)],
    ]
    for codes in fams:
        n = len(codes)
        t = pi_code(fin(n), table_family(codes))
        # candidate functions: total tables over fin(n)
        import itertools
        sizes = []
        for c in codes:
            from kleeneset.universe import type_view
            sizes.append(type_view(c).size)
        for values in itertools.product(*(range(3) for _ in range(n))):
            d = table_family(list(values))
            want = all(values[k] < sizes[k] for k in range(n))
            got = din(d, t, TR)
            assert not got.unknown
            assert got.realized == want, (codes, values)


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
    ("V opair", check_in_V, lambda: v_opair(v_numeral(0), v_omega()).code, TR,
     "realized", None),
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


def test_din_answers_the_same_cold_and_after_a_deeper_call():
    # T[n] = sigma(fin 1, K T[n-1]) holds k[n] = <0, k[n-1]>; the chain of
    # 250 runs into the depth guard, the chain of 150 does not
    types, members = [fin(1)], [0]
    for _ in range(250):
        types.append(sigma_code(fin(1), mkapp(rom.K, types[-1])))
        members.append(pair(0, members[-1]))
    clear_caches()
    cold = din(members[150], types[150], TR)
    assert cold.realized
    clear_caches()
    din(members[250], types[250], TR)
    assert din(members[150], types[150], TR) == cold


def test_a_type_whose_family_returns_itself_gets_answers():
    # e 0 = sigma(fin 1, e) for e = fix (S (K K) (sigma (fin 1)))
    t = sigma_code(fin(1), fixpoint(
        mkapps(rom.S, mkapp(rom.K, rom.K), mkapp(rom.SIGMA_PROG, fin(1)))))
    assert enumerate_index(t, TR) == ([], False)
    assert din(0, pi_code(t, 0), TR).unknown
    assert check_in_U(t, TR).unknown
    assert check_in_V(pair(t, 0), TR).unknown


# ---------------------------------------------------------------------------
# check_in_U and check_in_V answer the same cold, warm and after a deeper call


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


@pytest.mark.parametrize("order", [(150, 250), (250, 150)], ids=["150-first", "250-first"])
@pytest.mark.parametrize("check, chain, bottom", [(check_in_U, type_chain, fin(1)),
                                                  (check_in_V, set_chain, 0)],
                         ids=["U", "V"])
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


@given(st.tuples(st.just(check_in_U), _TYPE_CODES, st.just(type_chain))
       | st.tuples(st.just(check_in_V), _SET_CODES, st.just(set_chain)),
       st.integers(min_value=185, max_value=205))
@settings(max_examples=60, deadline=None)
def test_formation_answers_are_the_same_cold_warm_and_after_a_deeper_call(case, depth):
    check, code, chain = case
    # the deeper call meets the code near the depth guard
    deeper = chain(code, depth)
    clear_caches()
    cold = check(code, LOW)
    clear_caches()
    cold_deeper = check(deeper, LOW)
    clear_caches()
    assert check(code, LOW) == cold
    assert check(code, LOW) == cold  # warm
    assert check(deeper, LOW) == cold_deeper
    assert check(code, LOW) == cold
    clear_caches()
    check(deeper, LOW)
    assert check(code, LOW) == cold
