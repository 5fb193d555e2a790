"""Bracket abstraction against the reference in tests/reference_bracket.py.

The library compiler abstracts a variable in one pass that also reports
whether the variable occurs; the reference asks that separately at each
level.  Both must build the same term.  tests/data/golden_constants.json
checks the same over the whole library, through the codes it compiles to.
"""

from hypothesis import example, given, settings, strategies as st

from kleeneset import terms as T
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
