"""A reference bracket abstraction: the s/k rules with a separate
occurrence check at every level.

    bracket(v, t) -> T_v[t]

is the rule kleeneset.terms compiles lambdas with, written the plain way:
each level asks afresh whether v occurs below it, so the cost is
quadratic in the depth of the term.  The library compiler must give the
same term for every variable and every Lam-free term.
"""

from __future__ import annotations

from kleeneset.terms import A, App, Prim, Term, Var

_I = A(Prim("s"), Prim("k"), Prim("k"))


def occurs(v: str, t: Term) -> bool:
    if isinstance(t, Var):
        return t.name == v
    if isinstance(t, App):
        return occurs(v, t.fn) or occurs(v, t.arg)
    return False


def bracket(v: str, t: Term) -> Term:
    """T_v[t]: remove v from a Lam-free term with the s/k basis."""
    if isinstance(t, Var) and t.name == v:
        return _I
    if not occurs(v, t):
        return App(Prim("k"), t)
    assert isinstance(t, App)
    if isinstance(t.arg, Var) and t.arg.name == v and not occurs(v, t.fn):
        return t.fn  # eta
    return A(Prim("s"), bracket(v, t.fn), bracket(v, t.arg))
