"""Bracket abstraction against the reference in tests/reference_bracket.py.

The library compiler abstracts a variable in one pass that also reports
whether the variable occurs; the reference asks that separately at each
level.  Both must build the same term.  tests/data/golden_constants.json
checks the same over the whole library, through the codes it compiles to.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from kleeneset import romlib as rom, terms as T
from kleeneset.machine import OutOfFuelError, apply_chain
from reference_bracket import bracket

_POOL = ("x", "y", "z")

_LEAVES = st.one_of(
    st.sampled_from(_POOL).map(T.Var),
    st.sampled_from(T.PRIM_ORDER).map(T.Prim),
    st.integers(min_value=0, max_value=40).map(T.Lit),
    st.integers(min_value=0, max_value=5).map(T.RomRef),
)
_TERMS = st.recursive(_LEAVES, lambda sub: st.builds(T.App, sub, sub), max_leaves=40)


@given(_TERMS)
@example(T.Var("x"))
@example(T.App(T.Prim("k"), T.Var("x")))  # eta: k x abstracts to k
@example(T.App(T.Var("x"), T.Var("x")))  # no eta: x occurs in the operator
@example(T.App(T.App(T.Var("y"), T.Lit(3)), T.App(T.Prim("s"), T.Var("y"))))
@settings(max_examples=300, deadline=None)
def test_one_pass_bracket_builds_the_reference_term(t):
    for v in _POOL:
        assert T._bracket(v, t) == bracket(v, t)


def test_a_term_without_the_variable_is_a_constant():
    t = T.A(T.Prim("s"), T.Var("y"), T.Lit(5))
    assert T._bracket("x", t) == T.App(T.Prim("k"), t) == bracket("x", t)


# ---------------------------------------------------------------------------
# rewind: the table, its index keys and the memos as they were at a mark

_BODIES = st.recursive(_LEAVES, lambda sub: st.one_of(
    st.builds(T.App, sub, sub), st.builds(T.Lam, st.sampled_from(_POOL), sub)), max_leaves=12)
_CLOSED = _BODIES.map(lambda body: T.L(*_POOL, body))


def _table():
    return list(T._rom), dict(T.HEADS), dict(T._node_index), dict(T._sc_index)


@given(st.lists(_CLOSED, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_rewind_leaves_the_table_as_it_was_at_the_mark(lambdas):
    size, at_mark = T.rom_size(), _table()
    for t in lambdas:
        T.compile_lambda(t)
    apply_chain(rom.PLUS, 3, 4)  # fills memos that a rewind must empty
    grew = T.rom_size() > size
    T.rewind(size)
    assert _table() == at_mark
    if grew:
        assert not any(T._table_memos)
    # as cold: 7 at exactly its cost, and one step short is out of fuel
    assert apply_chain(rom.PLUS, 3, 4, fuel=278) == 7
    with pytest.raises(OutOfFuelError):
        apply_chain(rom.PLUS, 3, 4, fuel=277)


def test_rewind_keeps_the_memos_when_the_table_has_not_grown():
    apply_chain(rom.PLUS, 3, 4)
    memos = [dict(memo) for memo in T._table_memos]
    T.rewind(T.rom_size())
    assert [dict(memo) for memo in T._table_memos] == memos and any(memos)


def test_rewind_never_drops_the_library():
    size = T.rom_size()
    with pytest.raises(ValueError, match="library"):
        T.rewind(T._library_size - 1)
    assert T.rom_size() == size
