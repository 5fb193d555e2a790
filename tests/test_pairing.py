import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from kleeneset.pairing import (
    Big, canon, code_bits, code_value, incomparable_witness, is_big, pair,
    unpair, unpair0, unpair1,
)


def brute_force_table(n):
    """Independent oracle: enumerate the square and invert it."""
    table = {}
    for a in range(n):
        for b in range(n):
            c = pair(a, b)
            assert c not in table, "pair is not injective"
            table[c] = (a, b)
    return table


def test_bijection_small_squares():
    for n in (1, 2, 3, 4, 7, 16):
        table = brute_force_table(n)
        assert set(table) == set(range(n * n))


def test_frozen_examples_against_brute_force():
    table = brute_force_table(3)
    inverse = {v: k for k, v in table.items()}
    assert inverse[(0, 0)] == 0
    assert inverse[(2, 1)] == 5
    assert inverse[(1, 0)] == 3
    assert inverse[(0, 2)] == 8


def test_unpair_examples():
    assert unpair(5) == (2, 1)
    assert unpair0(5) == 2
    assert unpair1(5) == 1
    assert unpair(0) == (0, 0)
    assert unpair0(0) == 0


def test_inverses_and_range_bracketing():
    for a in range(0, 201, 3):
        for b in range(0, 201, 3):
            c = pair(a, b)
            assert unpair(c) == (a, b)
            m = max(a, b)
            assert m * m <= c < (m + 1) * (m + 1)


def test_second_projection_identity():
    for i in range(0, 101, 5):
        for n in range(101):
            assert unpair1(pair(i, n)) == n


def test_monotonicity_in_second_argument():
    for n in range(0, 101, 7):
        for i in range(n):
            for k in range(n + 1):
                assert pair(i, k) <= pair(i, n)


def test_incomparable_witness_frozen():
    assert incomparable_witness(0, 1, 1) == 3
    assert pair(0, 3) == 9 and pair(1, 3) == 10
    assert incomparable_witness(1, 0, 1) == 2
    assert pair(1, 2) == 7 and pair(0, 2) == 8


def test_incomparable_witness_rejects_equal_indices():
    with pytest.raises(ValueError):
        incomparable_witness(2, 2, 0)


def test_incomparability_density():
    for i in range(31):
        for j in range(31):
            if i == j:
                continue
            for lower in range(101):
                n = incomparable_witness(i, j, lower)
                assert n > max(lower, i, j)
                assert pair(i, n) < pair(j, n)


def test_witness_parity_matches_the_arithmetic():
    # The closed form favours odd stages when i < j and even ones when
    # i > j; recorded because prose claims elsewhere have it backwards.
    for i, j in ((0, 1), (1, 3), (2, 5)):
        for n in range(max(i, j) + 1, max(i, j) + 11):
            assert (pair(i, n) < pair(j, n)) == (n % 2 == 1)
    for i, j in ((1, 0), (3, 1), (5, 2)):
        for n in range(max(i, j) + 1, max(i, j) + 11):
            assert (pair(i, n) < pair(j, n)) == (n % 2 == 0)


@given(st.integers(min_value=0, max_value=10**9),
       st.integers(min_value=0, max_value=10**9))
def test_pair_roundtrip(a, b):
    assert unpair(pair(a, b)) == (a, b)


@given(st.integers(min_value=0, max_value=10**6))
def test_unpair_then_pair(c):
    a, b = unpair(c)
    assert pair(a, b) == c


def test_big_codes_stay_symbolic_and_roundtrip():
    c = 2
    for _ in range(40):
        c = pair(c, c)
    assert is_big(c)
    a, b = unpair(c)
    assert a is b
    assert pair(a, b) is c  # interned
    assert code_bits(c) > 2048


def test_big_codes_compare_by_structure():
    x = pair(2 ** 3000, 5)
    y = pair(2 ** 3000, 5)
    z = pair(2 ** 3000, 6)
    assert isinstance(x, Big)
    assert x == y and x is y
    assert x != z
    assert x != 5


def test_every_number_has_one_representation():
    big = pair(2 ** 3000, 5)
    assert is_big(big)
    # flattening and re-canonizing lands on the same interned node
    assert canon(code_value(big)) is big
    # building with already-canonical components is the same node too
    assert pair(canon(2 ** 3000), 5) is big
    # components entering as raw over-threshold ints are canonized
    a, _ = unpair(big)
    assert is_big(a) and code_value(a) == 2 ** 3000


# the digest of {2**3000 as a numeral, 0}, built from the raw int and from
# its canonical form, in the order given
_BUILDS = """
from kleeneset.pairing import canon, code_bits
from kleeneset.vcodes import v_numeral, v_upair
H = 2 ** 3000
builds = {"raw": lambda: v_numeral(H), "canonical": lambda: v_numeral(canon(H))}
print(*(code_bits(v_upair(builds[way](), v_numeral(0)).code) for way in %r))
"""


@pytest.mark.parametrize("order", [("raw", "canonical"), ("canonical", "raw")],
                         ids=["raw-first", "canonical-first"])
def test_a_numbers_digest_does_not_depend_on_how_it_was_built(order, child_env):
    # the first build of a node fixes its digest, so each order runs in a
    # fresh process
    proc = subprocess.run([sys.executable, "-c", _BUILDS % (order,)], env=child_env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["384766", "384766"]


_NEAR_THRESHOLD = st.integers(min_value=2 ** 1020, max_value=2 ** 1026)


@given(_NEAR_THRESHOLD | st.sampled_from([2 ** 1023, 2 ** 1024 - 1, 2 ** 1024]),
       _NEAR_THRESHOLD | st.integers(min_value=0, max_value=10))
def test_pair_and_canon_agree_at_the_threshold(a, b):
    # the larger component having exactly 1024 bits is the boundary case
    for x, y in ((a, b), (b, a)):
        c = pair(x, y)
        assert canon(code_value(c)) == c
        assert hash(canon(code_value(c))) == hash(c)
        assert unpair(c) == (x, y)


# naturals of every size up to 3,000 bits, so that each side of the
# 1,024-bit and 2,048-bit thresholds is drawn
_NATURALS = st.integers(min_value=0, max_value=3000).flatmap(
    lambda bits: st.integers(min_value=0, max_value=2 ** bits))


@given(_NATURALS, _NATURALS)
def test_a_big_hashes_as_the_pair_of_its_childrens_hashes(a, b):
    # the order of a set or dict of codes follows these hashes, so it must
    # not depend on whether a child is an int or a Big
    a, b = canon(a), canon(b)
    c = pair(a, b)
    if is_big(c):
        assert hash(c) == hash((hash(a), hash(b)))


@given(_NATURALS, _NATURALS)
def test_pair_denotes_the_closed_form(a, b):
    m = max(a, b)
    closed = m * (m + 1) - a + b if m % 2 == 0 else m * (m + 1) + a - b
    assert code_value(pair(a, b)) == closed
    assert pair(a, b) == canon(closed)


@given(_NATURALS.map(lambda n: -n - 1), _NATURALS, st.booleans())
def test_pair_rejects_a_negative_component_of_any_size(negative, other, canonical):
    # the other side as given, or in canonical form (a Big past 2,048 bits)
    other = canon(other) if canonical else other
    for a, b in ((negative, other), (other, negative)):
        with pytest.raises(ValueError):
            pair(a, b)
