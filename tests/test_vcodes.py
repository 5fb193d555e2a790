import random

import pytest
from hypothesis import given, settings, strategies as st

from kleeneset import romlib as rom
from kleeneset.machine import apply_chain, apply_raw
from kleeneset.pairing import is_big, pair, unpair0, unpair1
from kleeneset.universe import Truncation, din, fin, type_view
from kleeneset.vcodes import (
    alpha0, elem_of, eq_code, eq_code_via_machine, eq_type,
    f0_membership_realiser, f0_membership_type, internal_pair_fn, pair_graph_elem, pow2ceil,
    seq_decode, seq_encode, subeq_code, subeq_code_via_machine, v_finite, v_numeral, v_omega,
    v_opair, v_upair)

TR = Truncation(segment_bound=6, nat_bound=6)


def test_numeral_shape():
    three = v_numeral(3)
    assert three.index_type == pair(0, 3)
    assert three.elem_map == rom.NUMMAP
    assert v_numeral(0).index_type == fin(0)
    for k in range(3):
        assert elem_of(three, k) == v_numeral(k).code


def test_omega_shape():
    om = v_omega()
    assert om.index_type == pair(1, 0)
    assert elem_of(om, 2) == v_numeral(2).code


def test_upair_selects_components():
    a, b = v_numeral(1), v_numeral(3)
    u = v_upair(a, b)
    assert u.index_type == fin(2)
    assert elem_of(u, 0) == a.code
    assert elem_of(u, 1) == b.code
    assert elem_of(u, 9) == b.code  # everything nonzero lands on b


def test_upair_membership_witness():
    from kleeneset.realizability import CheckBudget, In, Val, check
    a, b = v_numeral(2), v_numeral(3)
    u = v_upair(a, b)
    budget = CheckBudget(truncation=TR)
    assert check(pair(0, rom.IOTA), In(Val(a), Val(u)), budget=budget).realized
    assert check(pair(1, rom.IOTA), In(Val(b), Val(u)), budget=budget).realized
    assert check(pair(0, rom.IOTA), In(Val(b), Val(u)), budget=budget).refuted


def test_upair_degenerate():
    a = v_numeral(2)
    u = v_upair(a, a)
    assert elem_of(u, 0) == elem_of(u, 1) == a.code


def test_opair_is_the_nested_unordered_pair():
    a, b = v_numeral(0), v_numeral(2)
    assert v_opair(a, b).code == v_upair(v_upair(a, a), v_upair(a, b)).code


def test_machine_pair_builders_agree_with_native():
    a, b = v_numeral(1), v_numeral(2)
    assert apply_chain(rom.UPAIR_PROG, a.code, b.code) == v_upair(a, b).code
    assert apply_chain(rom.OPAIR_PROG, a.code, b.code) == v_opair(a, b).code


def test_v_finite_lookup():
    elems = [v_numeral(2), v_numeral(0), v_upair(v_numeral(1), v_numeral(1))]
    v = v_finite(elems)
    assert v.index_type == fin(3)
    for k, e in enumerate(elems):
        assert elem_of(v, k) == e.code


# ---------------------------------------------------------------------------
# the equality machinery


def _random_finite_codes(rng, depth):
    if depth == 0:
        return v_numeral(rng.randrange(4))
    kind = rng.randrange(3)
    if kind == 0:
        return v_numeral(rng.randrange(4))
    if kind == 1:
        return v_upair(_random_finite_codes(rng, depth - 1),
                       _random_finite_codes(rng, depth - 1))
    return v_finite([_random_finite_codes(rng, depth - 1)
                     for _ in range(rng.randrange(3))])


def test_mirror_agreement_on_200_random_pairs():
    rng = random.Random(42)
    for _ in range(200):
        a = _random_finite_codes(rng, rng.randrange(3))
        b = _random_finite_codes(rng, rng.randrange(3))
        assert subeq_code(a.code, b.code) == subeq_code_via_machine(a.code, b.code)
        assert eq_code(a.code, b.code) == eq_code_via_machine(a.code, b.code)


def test_eq_type_zero_zero_has_vacuous_components():
    t = eq_type(v_numeral(0), v_numeral(0))
    sub = unpair0(unpair1(t.code))
    assert type_view(sub)[:3] == ("pi", 0, fin(0))
    assert din(rom.IOTA, t.code, TR).realized
    assert din(0, t.code, TR).realized  # everything is a vacuous witness here


def test_iota_realizes_self_equality():
    rng = random.Random(7)
    samples = [v_numeral(k) for k in range(5)]
    samples += [_random_finite_codes(rng, 2) for _ in range(20)]
    samples += [v_opair(v_numeral(1), v_numeral(2))]
    for a in samples:
        assert din(rom.IOTA, eq_code(a.code, a.code), TR).realized


def test_eq_of_distinct_numerals_refuted_for_everything():
    t = eq_code(v_numeral(0).code, v_numeral(1).code)
    for e in (0, 5, rom.IOTA, pair(2, 2)):
        assert din(e, t, TR).refuted


def test_symmetry_realiser():
    rng = random.Random(8)
    for _ in range(30):
        a = _random_finite_codes(rng, 1)
        b = _random_finite_codes(rng, 1)
        from kleeneset.realizability import find_realiser, Eq, Val
        w, decisive = find_realiser(Eq(Val(a), Val(b)))
        if w is None:
            continue
        flipped = apply_raw(rom.SYMM, w)
        assert din(flipped, eq_code(b.code, a.code), TR).realized


def test_numeral_coherence():
    from kleeneset.realizability import formula_status, In, Val
    for k in range(9):
        for n in range(9):
            st_ = formula_status(In(Val(v_numeral(k)), Val(v_numeral(n))))
            assert st_.realized == (k < n)
            assert st_.refuted == (k >= n)


# ---------------------------------------------------------------------------
# the pair graph, the path ordinal, the derived family


def test_pair_graph_elements():
    pbar = internal_pair_fn()
    assert pbar.index_type == pair(1, 0)
    e5 = pair_graph_elem(5)
    want = v_opair(v_opair(v_numeral(2), v_numeral(1)), v_numeral(5))
    assert e5.code == want.code
    e0 = pair_graph_elem(0)
    assert e0.code == v_opair(v_opair(v_numeral(0), v_numeral(0)), v_numeral(0)).code
    assert elem_of(pbar, 5) == e5.code


def test_alpha0_shape(path_view):
    tr = Truncation(segment_bound=6, distinguished=path_view)
    a0 = alpha0(tr)
    assert a0.index_type == pair(1, 1)
    assert elem_of(a0, path_view.segment_code(0)) == v_numeral(0).code
    assert elem_of(a0, path_view.segment_code(3)) == v_numeral(3).code


def test_alpha0_requires_a_built_path():
    with pytest.raises(ValueError):
        alpha0(Truncation())


def test_alpha0_membership_witness(path_view):
    tr = Truncation(segment_bound=6, nat_bound=6, distinguished=path_view)
    a0 = alpha0(tr)
    for length in (0, 2, 4):
        t = path_view.segment_code(length)
        witness = pair(t, rom.IOTA)
        from kleeneset.realizability import check, In, Val, CheckBudget
        v = check(witness, In(Val(v_numeral(length)), Val(a0)),
                  budget=CheckBudget(truncation=tr))
        assert v.realized


def test_f0_membership_realiser_values(path_view):
    tr = Truncation(segment_bound=8, distinguished=path_view)
    e = f0_membership_realiser(0, 0, tr)
    assert unpair0(e) == 0
    assert e == pair(0, pair(path_view.segment_code(0), rom.IOTA))
    e = f0_membership_realiser(1, 1, tr)
    assert unpair0(e) == 2
    with pytest.raises(ValueError):
        f0_membership_realiser(0, 0, Truncation())


def test_f0_membership_checker_accepts(path_view):
    from kleeneset.realizability import (
        BEx, CheckBudget, Eq, OPairT, Val, Var, check,
    )
    tr = Truncation(segment_bound=8, nat_bound=8, distinguished=path_view)
    budget = CheckBudget(truncation=tr)
    a0 = alpha0(tr)
    pbar = internal_pair_fn()
    for i, k in ((0, 0), (1, 1)):
        e = f0_membership_realiser(i, k, tr)
        phi = BEx("x", Val(pbar),
                  BEx("n", Val(a0),
                      Eq(Var("x"),
                         OPairT(Val(v_opair(v_numeral(i), v_numeral(k))),
                                Var("n")))))
        assert check(e, phi, budget=budget).realized


def test_f0_membership_type_holds_its_realiser(path_view):
    # path_view is a 30-stage path prefix
    tr = Truncation(segment_bound=6, nat_bound=6, distinguished=path_view)
    for i, k in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 1)):
        t = f0_membership_type(i, k)
        assert din(f0_membership_realiser(i, k, tr), t, tr).realized
        assert din(5, t, tr).refuted


# ---------------------------------------------------------------------------
# sequence codes


def test_seq_roundtrip_examples():
    assert seq_encode([]) == 0
    assert seq_decode(0) == []
    for xs in ([0], [1, 2], [3, 0, 1], [1] * 9):
        assert seq_decode(seq_encode(xs)) == xs


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=24))
@settings(max_examples=120, deadline=None)
def test_seq_roundtrip_random(xs):
    assert seq_decode(seq_encode(xs)) == xs


def _reference_encode(xs):
    """The recursive encoder: halve the zero-padded list, pair the halves."""
    def tree(xs):
        if len(xs) == 1:
            return xs[0]
        h = len(xs) // 2
        return pair(tree(xs[:h]), tree(xs[h:]))

    xs = list(xs)
    if not xs:
        return 0
    return pair(len(xs), tree(xs + [0] * (pow2ceil(len(xs)) - len(xs))))


# small ints, raw ints past the 2**2048 of an int code, and Big codes
_SEQ_COMPONENTS = (st.integers(min_value=0, max_value=9)
                   | st.integers(min_value=2 ** 2048, max_value=2 ** 2100)
                   | st.builds(pair, st.integers(min_value=2 ** 1100, max_value=2 ** 1200),
                               st.integers(min_value=0, max_value=3)))


@given(st.lists(_SEQ_COMPONENTS, max_size=40))
@settings(max_examples=120, deadline=None)
def test_seq_encode_equals_the_recursive_encoder(xs):
    c = seq_encode(iter(xs))
    assert c == _reference_encode(xs)
    if any(is_big(x) or x.bit_length() > 2048 for x in xs):
        assert is_big(c)


def test_seq_decode_rejects_noncanonical():
    # nonzero padding is not the code of any sequence
    c = pair(3, pair(pair(1, 1), pair(1, 7)))
    assert seq_decode(c) is None


def test_machine_seq_ops_match_host():
    rng = random.Random(5)
    for _ in range(20):
        xs = [rng.randrange(4) for _ in range(rng.randrange(12))]
        c = seq_encode(xs)
        assert apply_raw(rom.LS, c) == len(xs)
        n = rng.randrange(len(xs) + 1)
        assert apply_chain(rom.TS, c, n) == seq_encode(xs[:n])
        assert apply_chain(rom.SNOC, c, 2) == seq_encode(xs + [2])


def test_named_constructions_live_in_the_universes(path_view):
    from kleeneset.universe import check_in_U, check_in_V
    tr = Truncation(segment_bound=5, nat_bound=3, distinguished=path_view)
    assert check_in_V(internal_pair_fn().code, tr).realized
    assert check_in_V(alpha0(tr).code, tr).realized
    assert check_in_U(eq_code(v_numeral(2).code, v_numeral(3).code), tr).realized
    from kleeneset.vcodes import f0_vcode
    assert check_in_V(f0_vcode(1).code, tr).realized
