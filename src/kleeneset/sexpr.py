"""Surface syntax: s-expressions for programs and formulas.

Programs:   (app f a)   (lam x body)   (const N)   k s sN pN d p p0 p1 fix
            numeric literals, named library constants (iota, delta, ...)
Formulas:   (= t u)  (in t u)  (not p)  (and p q)  (or p q)  (-> p q)
            (all x bound p)  (ex x bound p)  (ALL x p)  (EX x p)
Terms in formulas: variable names, (numeral N), omega, (opair t u),
            (f0 t), or a raw code literal.

Each compound form is one entry of a table, one table per category
(programs, formulas, formula terms): the head word maps to the
constructor and the kinds of its arguments in the order of its fields.
One reader parses `(head args...)` from the table and one printer writes
it back from the same entry; only the atoms have code of their own.
Every binder, of lam, all, ex, ALL and EX alike, must be an identifier.

Numerals are ASCII digits, and a numeric atom is read as the canonical
code of its natural (pairing.canon), as every computed code is.
parse(print(x)) is the identity on well-formed input; syntax errors
carry the offending position.  Input nested deeper than _MAX_NESTING
parentheses is a syntax error, so that no later recursion over the
parsed tree can exhaust the host stack.
"""

from __future__ import annotations

from . import realizability as rz
from . import romlib as rom
from ._value import Value
from .pairing import canon
from .terms import (
    App, Junk, Lam, Lit, Prim, PRIM_ORDER, RomRef, Term, Var,
)
from .universe import type_view
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


class _Tok(Value):
    __slots__ = _fields = ("text", "pos")


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
# The forms


def _numeral(n: int) -> rz.Val:
    return rz.Val(v_numeral(n))


# head word -> (constructor, argument kinds in the order of its fields):
# p a program, f a formula, t a formula term, v a binder, n a natural
_PROGRAM_FORMS = {"app": (App, "pp"), "lam": (Lam, "vp"), "const": (RomRef, "n")}
_FORMULA_FORMS = {
    "=": (rz.Eq, "tt"), "in": (rz.In, "tt"), "not": (rz.Not, "f"),
    "and": (rz.And, "ff"), "or": (rz.Or, "ff"), "->": (rz.Implies, "ff"),
    "all": (rz.BAll, "vtf"), "ex": (rz.BEx, "vtf"), "ALL": (rz.All, "vf"), "EX": (rz.Ex, "vf"),
}
_TERM_FORMS = {"numeral": (_numeral, "n"), "opair": (rz.OPairT, "tt"), "f0": (rz.F0T, "t")}
# what the natural of each form with one stands for, for its error message
_NATURAL_IS = {"const": "a table index", "numeral": "a natural"}


# ---------------------------------------------------------------------------
# Parsing


def parse_term(text: str) -> Term:
    r = _Reader(text)
    t = _parse_term(r)
    r.done()
    return t


def parse_formula(text: str):
    r = _Reader(text)
    phi = _parse_formula(r)
    r.done()
    return phi


def _parse_form(r: _Reader, forms: dict, category: str):
    """The rest of (head args...) after its '(', read by head's entry in forms."""
    head = r.next()
    if head.text not in forms:
        raise ParseError(f"unknown {category} form {head.text!r}", head.pos)
    ctor, kinds = forms[head.text]
    args = [_natural(r, head.text) if kind == "n" else _READ[kind](r) for kind in kinds]
    r.expect(")")
    return ctor(*args)


def _binder(r: _Reader) -> str:
    tok = r.next()
    if not tok.text.isidentifier():
        raise ParseError(f"bad binder {tok.text!r}", tok.pos)
    return tok.text


def _is_natural(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _natural(r: _Reader, head: str) -> int:
    tok = r.next()
    if not _is_natural(tok.text):
        raise ParseError(f"{head} needs {_NATURAL_IS[head]}", tok.pos)
    return int(tok.text)


def _parse_term(r: _Reader) -> Term:
    tok = r.next()
    if tok.text == "(":
        return _parse_form(r, _PROGRAM_FORMS, "program")
    if tok.text == ")":
        raise ParseError("unexpected ')'", tok.pos)
    if _is_natural(tok.text):
        return Lit(canon(int(tok.text)))
    if tok.text in _PRIMS:
        return Prim(tok.text)
    if tok.text in NAMED_CODES:
        return Lit(NAMED_CODES[tok.text])
    if tok.text.isidentifier():
        return Var(tok.text)
    raise ParseError(f"unrecognized token {tok.text!r}", tok.pos)


def _parse_formula(r: _Reader):
    tok = r.next()
    if tok.text != "(":
        raise ParseError(f"expected '(', found {tok.text!r}", tok.pos)
    return _parse_form(r, _FORMULA_FORMS, "formula")


def _parse_fterm(r: _Reader):
    tok = r.next()
    if tok.text == "(":
        return _parse_form(r, _TERM_FORMS, "term")
    if tok.text == "omega":
        return rz.Val(v_omega())
    if _is_natural(tok.text):
        return rz.Val(VCode(canon(int(tok.text))))
    if tok.text.isidentifier():
        return rz.Var(tok.text)
    raise ParseError(f"unrecognized term {tok.text!r}", tok.pos)


_READ = {"p": _parse_term, "f": _parse_formula, "t": _parse_fterm, "v": _binder}


# ---------------------------------------------------------------------------
# Printing

# a numeral reads to a Val, which prints as an atom
_FORM_OF = {ctor: (head, kinds)
            for forms in (_PROGRAM_FORMS, _FORMULA_FORMS, _TERM_FORMS)
            for head, (ctor, kinds) in forms.items()}
_NAME_OF_CODE = {code: name for name, code in NAMED_CODES.items()}


def _print(x) -> str:
    """One printer for programs, formulas and formula terms."""
    form = _FORM_OF.get(type(x))
    if form is None:
        return _print_atom(x)
    head, kinds = form
    parts = [head]
    for name, kind in zip(x._fields, kinds):
        arg = getattr(x, name)
        parts.append(str(arg) if kind in "vn" else _print(arg))
    return f"({' '.join(parts)})"


print_term = print_formula = _print


def _print_atom(x) -> str:
    if isinstance(x, (Prim, Var, rz.Var)):
        return x.name
    if isinstance(x, Lit):
        return _NAME_OF_CODE.get(x.value, str(x.value))
    if isinstance(x, Junk):
        return str(x.code)
    if isinstance(x, rz.Val):
        if x.value.code == v_omega().code:
            return "omega"
        kind, size, _, _ = type_view(x.value.index_type)
        if kind == "fin" and x.value.elem_map == rom.NUMMAP:
            return f"(numeral {size})"
        return str(x.value.code)
    raise TypeError(x)
