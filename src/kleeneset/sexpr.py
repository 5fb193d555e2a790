"""Surface syntax: s-expressions for programs and formulas.

Programs:   (app f a)   (lam x body)   k s sN pN d p p0 p1 fix
            numeric literals, named library constants (iota, delta, ...)
Formulas:   (= t u)  (in t u)  (not p)  (and p q)  (or p q)  (-> p q)
            (all x bound p)  (ex x bound p)  (ALL x p)  (EX x p)
Terms in formulas: variable names, (numeral N), omega, (opair t u),
            (f0 t), or a raw code literal.

parse(print(x)) is the identity on well-formed input; syntax errors
carry the offending position.  Input nested deeper than _MAX_NESTING
parentheses is a syntax error, so that no later recursion over the
parsed tree can exhaust the host stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import realizability as rz
from . import romlib as rom
from .terms import (
    App, Junk, Lam, Lit, Prim, PRIM_ORDER, RomRef, Term, Var,
)
from .vcodes import VCode, v_numeral, v_omega

__all__ = [
    "ParseError", "parse_term", "print_term", "parse_formula", "print_formula",
    "NAMED_CODES",
]

_MAX_NESTING = 100

NAMED_CODES = {
    "iota": rom.IOTA,
    "delta": rom.DELTA,
    "eq": rom.EQ,
    "nummap": rom.NUMMAP,
    "ls": rom.LS,
    "ts": rom.TS,
    "snoc": rom.SNOC,
    "sigma": rom.SIGMA_PROG,
    "pi": rom.PI_PROG,
    "mkapp": rom.MKAPP_PROG,
}

_PRIMS = set(PRIM_ORDER)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True, slots=True)
class _Tok:
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    out: list[_Tok] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()":
            out.append(_Tok(c, i))
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in "()":
            j += 1
        out.append(_Tok(text[i:j], i))
        i = j
    return out


class _Reader:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.length = len(text)
        self.depth = 0

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> _Tok:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", self.length)
        self.i += 1
        if t.text == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ParseError(f"nested deeper than {_MAX_NESTING}", t.pos)
        elif t.text == ")":
            self.depth -= 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.pos)
        return t

    def done(self) -> None:
        t = self.peek()
        if t is not None:
            raise ParseError(f"trailing input {t.text!r}", t.pos)


# ---------------------------------------------------------------------------
# Programs


def parse_term(text: str) -> Term:
    r = _Reader(text)
    t = _parse_term(r)
    r.done()
    return t


def _parse_term(r: _Reader) -> Term:
    tok = r.next()
    if tok.text == "(":
        head = r.next()
        if head.text == "app":
            f = _parse_term(r)
            a = _parse_term(r)
            r.expect(")")
            return App(f, a)
        if head.text == "lam":
            var = r.next()
            if not var.text.isidentifier():
                raise ParseError(f"bad binder {var.text!r}", var.pos)
            body = _parse_term(r)
            r.expect(")")
            return Lam(var.text, body)
        if head.text == "const":
            idx = r.next()
            if not idx.text.isdigit():
                raise ParseError("const needs a table index", idx.pos)
            r.expect(")")
            return RomRef(int(idx.text))
        raise ParseError(f"unknown program form {head.text!r}", head.pos)
    if tok.text == ")":
        raise ParseError("unexpected ')'", tok.pos)
    if tok.text.isdigit():
        return Lit(int(tok.text))
    if tok.text in _PRIMS:
        return Prim(tok.text)
    if tok.text in NAMED_CODES:
        return Lit(NAMED_CODES[tok.text])
    if tok.text.isidentifier():
        return Var(tok.text)
    raise ParseError(f"unrecognized token {tok.text!r}", tok.pos)


_NAME_OF_CODE = {code: name for name, code in NAMED_CODES.items()}


def print_term(t: Term) -> str:
    if isinstance(t, Prim):
        return t.name
    if isinstance(t, Lit):
        name = _NAME_OF_CODE.get(t.value)
        if name is not None:
            return name
        return str(t.value)
    if isinstance(t, Var):
        return t.name
    if isinstance(t, App):
        return f"(app {print_term(t.fn)} {print_term(t.arg)})"
    if isinstance(t, Lam):
        return f"(lam {t.var} {print_term(t.body)})"
    if isinstance(t, RomRef):
        return f"(const {t.index})"
    if isinstance(t, Junk):
        return str(t.code)
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Formulas


def parse_formula(text: str):
    r = _Reader(text)
    phi = _parse_formula(r)
    r.done()
    return phi


_BINARY = {"=": rz.Eq, "in": rz.In, "and": rz.And, "or": rz.Or, "->": rz.Implies}


def _parse_formula(r: _Reader):
    tok = r.next()
    if tok.text != "(":
        raise ParseError(f"expected '(', found {tok.text!r}", tok.pos)
    head = r.next()
    if head.text in ("=", "in"):
        x = _parse_fterm(r)
        y = _parse_fterm(r)
        r.expect(")")
        return _BINARY[head.text](x, y)
    if head.text == "not":
        body = _parse_formula(r)
        r.expect(")")
        return rz.Not(body)
    if head.text in ("and", "or", "->"):
        p = _parse_formula(r)
        q = _parse_formula(r)
        r.expect(")")
        return _BINARY[head.text](p, q)
    if head.text in ("all", "ex"):
        var = r.next()
        bound = _parse_fterm(r)
        body = _parse_formula(r)
        r.expect(")")
        ctor = rz.BAll if head.text == "all" else rz.BEx
        return ctor(var.text, bound, body)
    if head.text in ("ALL", "EX"):
        var = r.next()
        body = _parse_formula(r)
        r.expect(")")
        ctor = rz.All if head.text == "ALL" else rz.Ex
        return ctor(var.text, body)
    raise ParseError(f"unknown formula form {head.text!r}", head.pos)


def _parse_fterm(r: _Reader):
    tok = r.next()
    if tok.text == "(":
        head = r.next()
        if head.text == "numeral":
            n = r.next()
            if not n.text.isdigit():
                raise ParseError("numeral needs a natural", n.pos)
            r.expect(")")
            return rz.Val(v_numeral(int(n.text)))
        if head.text == "opair":
            a = _parse_fterm(r)
            b = _parse_fterm(r)
            r.expect(")")
            return rz.OPairT(a, b)
        if head.text == "f0":
            a = _parse_fterm(r)
            r.expect(")")
            return rz.F0T(a)
        raise ParseError(f"unknown term form {head.text!r}", head.pos)
    if tok.text == "omega":
        return rz.Val(v_omega())
    if tok.text.isdigit():
        return rz.Val(VCode(int(tok.text)))
    if tok.text.isidentifier():
        return rz.Var(tok.text)
    raise ParseError(f"unrecognized term {tok.text!r}", tok.pos)


def print_fterm(t) -> str:
    if isinstance(t, rz.Var):
        return t.name
    if isinstance(t, rz.Val):
        code = t.value.code
        if code == v_omega().code:
            return "omega"
        from .universe import type_view
        view = type_view(t.value.index_type)
        if view.kind == "fin" and t.value.elem_map == rom.NUMMAP:
            return f"(numeral {view.size})"
        return str(code)
    if isinstance(t, rz.OPairT):
        return f"(opair {print_fterm(t.fst)} {print_fterm(t.snd)})"
    if isinstance(t, rz.F0T):
        return f"(f0 {print_fterm(t.index)})"
    raise TypeError(t)


def print_formula(phi) -> str:
    if isinstance(phi, rz.Eq):
        return f"(= {print_fterm(phi.x)} {print_fterm(phi.y)})"
    if isinstance(phi, rz.In):
        return f"(in {print_fterm(phi.x)} {print_fterm(phi.y)})"
    if isinstance(phi, rz.Not):
        return f"(not {print_formula(phi.body)})"
    if isinstance(phi, rz.And):
        return f"(and {print_formula(phi.lhs)} {print_formula(phi.rhs)})"
    if isinstance(phi, rz.Or):
        return f"(or {print_formula(phi.lhs)} {print_formula(phi.rhs)})"
    if isinstance(phi, rz.Implies):
        return f"(-> {print_formula(phi.lhs)} {print_formula(phi.rhs)})"
    if isinstance(phi, rz.BAll):
        return f"(all {phi.var} {print_fterm(phi.bound)} {print_formula(phi.body)})"
    if isinstance(phi, rz.BEx):
        return f"(ex {phi.var} {print_fterm(phi.bound)} {print_formula(phi.body)})"
    if isinstance(phi, rz.All):
        return f"(ALL {phi.var} {print_formula(phi.body)})"
    if isinstance(phi, rz.Ex):
        return f"(EX {phi.var} {print_formula(phi.body)})"
    raise TypeError(phi)
