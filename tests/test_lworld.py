import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from kleeneset.lworld import (
    EMPTY, HFSet, IllFoundedCodeError, SigmaCode, alpha_star, decode_sigma,
    def_subsets, encode_sigma, hf_nat, hf_union, is_ordinal, is_transitive,
    l_stage, ordinals_of, parse_hf, print_hf, transitive_closure,
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


def test_def_subsets_examples():
    assert def_subsets([]) == {EMPTY}
    assert def_subsets([EMPTY]) == {EMPTY, hf_nat(1)}


@pytest.mark.parametrize("size", [0, 1, 2, 3])
def test_def_subsets_routes_agree(size):
    domain = [EMPTY, hf_nat(1), hf_nat(2)][:size]
    formulas = def_subsets(domain, route="formulas")
    powerset = def_subsets(domain, route="powerset")
    assert formulas == powerset
    assert len(powerset) == 2 ** size


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
