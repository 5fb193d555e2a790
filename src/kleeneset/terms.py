"""Combinatory terms and their numeric coding.

Every natural number is a program.  A code c is read through the pairing
function as a tag/payload pair (tag = unpair0(c), payload = unpair1(c)):

  tag 0   application: payload = pair(f, a), the codes of operator/operand
  tag 1   primitive combinator: payload indexes PRIM_ORDER (k s sN pN d p
          p0 p1 fix); payloads past the table are stuck
  tag 2   library entry: payload indexes the intern table built at import
          time (plus the lambdas compiled since the last rewind); entries are
          either plain application nodes or derived combinators with a
          declared arity.  A payload past the table is stuck until an
          entry is registered at that index.
  tag 3+  stuck: decodes to a designated diverging term

What a head code does is read from one table, HEADS: code -> (kind,
body, arity, name) for every primitive and derived combinator; every
code not in it is data.  Because appending an entry gives a stuck code
a meaning, every memo whose answers depend on the table is made by
table_memo() and cleared whenever the table grows.

This module owns all the process remembers of what codes mean: the
table, its index dicts, HEADS and the table memos.  rom_size() is a
mark; rewind(size) drops the entries from index size on, with their
keys, and empties the memos.  romlib records the table size at the end
of its import and rewind refuses to go below it, so the library sits
below every mark.  cli.main rewinds after each command, the test suite
after each test.  pairing and lworld intern numbers and sets, not
meanings, so their tables stay.

Literals need no tag: the number n used as data *is* n; used as a program
it is whatever its tag says.  That dual reading is the whole point of a
pca over the naturals.

Derived combinators ("supercombinators") exist because raw structural
application codes double in bit-length per nesting level -- a bracket-
abstracted display would be astronomically large as a tag-0 tree.  A
derived combinator behaves like a primitive: under-applied occurrences
are inert values, and at full arity it fires by evaluating its bracket-
compiled body.  Nested lambdas are lambda-lifted so that every closure
is a plain application spine over small codes.

Bracket abstraction uses the s/k basis with the eta rule (Turner, "A new
implementation technique for applicative languages", 1979).  One walk of
the body both abstracts the variable and reports whether it occurs, so
no subterm is searched twice; s and k are shared constants.

Terms are immutable records on the package's value-class base (_value):
equal when of one class with equal fields, hashed as their field tuple.
"""

from __future__ import annotations

from ._value import Value
from .pairing import Code, pair, unpair

__all__ = [
    "Term", "Prim", "Lit", "Var", "App", "Lam", "RomRef", "Junk",
    "PRIM_ORDER", "PRIM_ARITY", "prim_code", "HEADS",
    "TAG_APP", "TAG_PRIM", "TAG_ROM", "table_memo", "clear_caches", "rewind",
    "mkapp", "mkapps", "app_view",
    "encode", "decode", "free_vars", "UnboundVariableError",
    "bracket_abstract", "lambda_lift", "compile_lambda", "register_combinator",
    "rom_size", "A", "L", "V", "N",
]


# ---------------------------------------------------------------------------
# Term syntax


class Term(Value):
    """A term of the surface syntax: an immutable record (see _value)."""
    __slots__ = ()


class Prim(Term):
    __slots__ = _fields = ("name",)


class Lit(Term):
    """A literal code: an int or a symbolic pair."""
    __slots__ = _fields = ("value",)


class Var(Term):
    __slots__ = _fields = ("name",)


class App(Term):
    __slots__ = _fields = ("fn", "arg")


class Lam(Term):
    __slots__ = _fields = ("var", "body")


class RomRef(Term):
    """A leaf naming an intern-table entry by index."""
    __slots__ = _fields = ("index",)


class Junk(Term):
    """The designated diverging term behind a non-canonical code."""
    __slots__ = _fields = ("code",)


def A(fn: Term, *args: Term) -> Term:
    """Left-fold application: A(f, a, b) = App(App(f, a), b)."""
    t = fn
    for a in args:
        t = App(t, a)
    return t


def L(*spec) -> Term:
    """L('x', 'y', body) = Lam('x', Lam('y', body))."""
    *names, body = spec
    for name in reversed(names):
        body = Lam(name, body)
    return body


V = Var
N = Lit


# ---------------------------------------------------------------------------
# Primitive table

PRIM_ORDER = ("k", "s", "sN", "pN", "d", "p", "p0", "p1", "fix")
PRIM_ARITY = {"k": 2, "s": 3, "sN": 1, "pN": 1, "d": 4, "p": 2, "p0": 1, "p1": 1, "fix": 2}

TAG_APP = 0
TAG_PRIM = 1
TAG_ROM = 2

_PRIM_CODE = {name: pair(TAG_PRIM, i) for i, name in enumerate(PRIM_ORDER)}

# head code -> (kind, body, arity, name), kind "prim" or "sc"
HEADS: dict[Code, tuple] = {
    c: ("prim", None, PRIM_ARITY[name], name) for name, c in _PRIM_CODE.items()}


def prim_code(name: str) -> int:
    return _PRIM_CODE[name]


# ---------------------------------------------------------------------------
# Intern table ("rom"): application nodes and derived combinators
#
# Entries:  ("node", f_code, a_code)        plain application node
#           ("sc",  body_code, arity, name) derived combinator, also in HEADS
#
# Allocation order is deterministic: the library's own entries are created
# in a fixed sequence at import time (see romlib), user compilations append
# after that.  A code inside the table keeps its meaning until a rewind
# drops it; the code just past it gains one when the next entry is appended.

_rom: list[tuple] = []
_node_index: dict[tuple, int] = {}
_sc_index: dict[tuple, int] = {}
_table_memos: list[dict] = []
_library_size = 0  # the library's entries, set by romlib at the end of its import


def table_memo() -> dict:
    """A new memo table that is cleared whenever the intern table grows."""
    memo: dict = {}
    _table_memos.append(memo)
    return memo


def clear_caches() -> None:
    """Empty every memo made by table_memo (the intern tables stay)."""
    for memo in _table_memos:
        memo.clear()


def rom_size() -> int:
    return len(_rom)


def rewind(size: int) -> None:
    """Drop the table entries at index size and above, with their HEADS
    and index keys, and empty every memo.  Nothing happens when the table
    has not grown past size, so the memos stay warm."""
    if size < _library_size:
        raise ValueError(f"cannot rewind into the library's {_library_size} entries")
    if size >= len(_rom):
        return
    for i in range(size, len(_rom)):
        entry = _rom[i]
        if entry[0] == "node":
            del _node_index[entry[1:]]
        else:
            del _sc_index[entry[1:3]], HEADS[_rom_code(i)]
    del _rom[size:]
    clear_caches()


def _rom_code(i: int) -> int:
    return pair(TAG_ROM, i)


def _intern_node(f: Code, a: Code) -> int:
    key = (f, a)
    got = _node_index.get(key)
    if got is not None:
        return got
    code = _node_index[key] = _rom_code(len(_rom))
    _rom.append(("node", f, a))
    return code


def _intern_term(t: Term) -> int:
    """Encode a closed Lam-free term, interning every application node."""
    if isinstance(t, App):
        return _intern_node(_intern_term(t.fn), _intern_term(t.arg))
    return encode(t)


def register_combinator(term: Term, name: str = "") -> int:
    """Make a closed lambda term available as a derived combinator.

    Returns its code.  The body is bracket-abstracted; the combinator
    fires only when it has collected one argument per lambda binder.
    The machine tells the primitives apart by name, so a combinator may
    not take the name of one.
    """
    if name in PRIM_ORDER:
        raise ValueError(f"a combinator may not be named like the primitive {name!r}")
    params: list[str] = []
    body = term
    while isinstance(body, Lam):
        params.append(body.var)
        body = body.body
    if not params:
        raise ValueError("register_combinator expects at least one lambda")
    body = lambda_lift(body)
    extra = [v for v in free_vars(body) if v not in params]
    if extra:
        raise UnboundVariableError(sorted(extra))
    for v in reversed(params):
        body = _bracket(v, body)
    size = len(_rom)
    try:
        body_code = _intern_term(body)
        key = (body_code, len(params))
        code = _sc_index.get(key)
        if code is None:
            code = _sc_index[key] = _rom_code(len(_rom))
            entry = HEADS[code] = ("sc", body_code, len(params), name)
            _rom.append(entry)
    finally:  # once per growth of the table, however the call ends
        if len(_rom) > size:
            clear_caches()
    return code


# ---------------------------------------------------------------------------
# Code views used by the machine


def mkapp(f: Code, a: Code) -> Code:
    """The arithmetic application code pair(0, pair(f, a)).

    This is what a machine program computes when it builds a closure with
    the pairing primitive, so it is also what the native constructions use.
    """
    return pair(TAG_APP, pair(f, a))


def mkapps(f: Code, *args: Code) -> Code:
    for a in args:
        f = mkapp(f, a)
    return f


def app_view(code: Code) -> tuple[Code, Code] | None:
    """(operator, operand) when the code is an application node."""
    tag, payload = unpair(code)
    if tag == TAG_APP:
        return unpair(payload)
    if tag == TAG_ROM and isinstance(payload, int) and payload < len(_rom):
        e = _rom[payload]
        if e[0] == "node":
            return (e[1], e[2])
    return None


# ---------------------------------------------------------------------------
# encode / decode


class UnboundVariableError(ValueError):
    pass


def encode(t: Term) -> Code:
    """Canonical code of a Lam-free, variable-free term."""
    if isinstance(t, Lit):
        if isinstance(t.value, int) and t.value < 0:
            raise ValueError("literals are naturals")
        return t.value
    if isinstance(t, Prim):
        return _PRIM_CODE[t.name]
    if isinstance(t, App):
        return mkapp(encode(t.fn), encode(t.arg))
    if isinstance(t, RomRef):
        return _rom_code(t.index)
    if isinstance(t, Junk):
        return t.code
    if isinstance(t, Var):
        raise UnboundVariableError([t.name])
    if isinstance(t, Lam):
        raise ValueError("encode a lambda via compile_lambda / bracket_abstract")
    raise TypeError(t)


def decode(code: Code) -> Term:
    """Total decoding.  Canonical codes round-trip through encode."""
    if isinstance(code, int) and code < 0:
        raise ValueError("codes are naturals")
    tag, payload = unpair(code)
    if tag == TAG_APP:
        f, a = unpair(payload)
        if f == code or a == code:  # the self-referential spines of 0 and 1
            return Junk(code)
        return App(decode(f), decode(a))
    if tag == TAG_PRIM and isinstance(payload, int) and payload < len(PRIM_ORDER):
        return Prim(PRIM_ORDER[payload])
    if tag == TAG_ROM and isinstance(payload, int) and payload < len(_rom):
        return RomRef(payload)
    return Junk(code)


def free_vars(t: Term) -> list[str]:
    """The free variables of t, each once, in order of first occurrence."""
    out: list[str] = []

    def walk(t: Term, bound: frozenset[str]) -> None:
        if isinstance(t, Var):
            if t.name not in bound and t.name not in out:
                out.append(t.name)
        elif isinstance(t, App):
            walk(t.fn, bound)
            walk(t.arg, bound)
        elif isinstance(t, Lam):
            walk(t.body, bound | {t.var})

    walk(t, frozenset())
    return out


# ---------------------------------------------------------------------------
# Bracket abstraction and lambda lifting

_S, _K = Prim("s"), Prim("k")
_I = A(_S, _K, _K)


def _bracket(v: str, t: Term) -> Term:
    """T_v[t]: remove v from a Lam-free term with the s/k basis."""
    got = _abstract(v, t)
    return App(_K, t) if got is None else got


def _abstract(v: str, t: Term) -> Term | None:
    """T_v[t] when v occurs in t, else None: the occurrence check and the
    abstraction in one walk, so each node is visited once."""
    if isinstance(t, Var):
        return _I if t.name == v else None
    if not isinstance(t, App):
        return None
    fn, arg = _abstract(v, t.fn), _abstract(v, t.arg)
    if fn is None:
        if arg is None:
            return None
        if isinstance(t.arg, Var):
            return t.fn  # eta: t is (f v) with v not in f
        fn = App(_K, t.fn)
    elif arg is None:
        arg = App(_K, t.arg)
    return App(App(_S, fn), arg)


def lambda_lift(t: Term) -> Term:
    """Replace every lambda by a derived-combinator closure spine.

    A lambda with free variables f1..fk becomes the partial application
    of a fresh combinator (arity k + binders) to Var(f1)..Var(fk); under
    evaluation those applications stay un-fired, so the closure is the
    literal spine code -- small and canonical.
    """
    if isinstance(t, App):
        fn, arg = lambda_lift(t.fn), lambda_lift(t.arg)
        return t if fn is t.fn and arg is t.arg else App(fn, arg)
    if not isinstance(t, Lam):
        return t
    fvs = free_vars(t)
    inner = t
    names: list[str] = []
    while isinstance(inner, Lam):
        names.append(inner.var)
        inner = inner.body
    closed = L(*fvs, *names, lambda_lift(inner)) if fvs or names else lambda_lift(inner)
    code = register_combinator(closed)
    return A(Lit(code), *[Var(f) for f in fvs])


def bracket_abstract(body: Term, var: str) -> Term:
    """Abstract one variable out of a term.

    Inner lambdas are lifted first, so the result is a plain s/k-basis
    term in which var no longer occurs.
    """
    lifted = lambda_lift(body)
    extra = [v for v in free_vars(lifted) if v != var]
    if extra:
        raise UnboundVariableError(sorted(extra))
    return _bracket(var, lifted)


def compile_lambda(t: Term, name: str = "") -> Code:
    """Code of a closed surface term (lambdas allowed anywhere)."""
    if isinstance(t, Lam):
        fv = free_vars(t)
        if fv:
            raise UnboundVariableError(sorted(fv))
        return register_combinator(t, name)
    lifted = lambda_lift(t)
    fv = free_vars(lifted)
    if fv:
        raise UnboundVariableError(sorted(fv))
    return encode(lifted)
