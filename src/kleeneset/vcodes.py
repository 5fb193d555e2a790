"""Canonical set codes: numerals, omega, pairs, equality types.

A set code is a pair of an index type and an element map.  The numeral
map sends every natural to its set (so the numeral n is the pair of the
finite type n with that map), omega is the same map over the type of
naturals, and the canonical unordered pair selects between its two
components with the d combinator.

The equality and subset types are produced twice: by running the
fixpoint-built program in the machine, and by native arithmetic that
mirrors the program's body.  The two routes must agree bit for bit;
the test suite holds them together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import romlib as rom
from .machine import DEFAULT_FUEL, apply_chain, apply_raw
from .pairing import Code, pair, unpair, unpair0, unpair1
from .terms import mkapp, mkapps
from .universe import NAT, DIST, Truncation, fin, pi_code, sigma_code

__all__ = [
    "VCode", "EqType", "as_code",
    "v_numeral", "v_omega", "v_upair", "v_opair", "v_finite",
    "elem_of", "index_type_of",
    "subeq_code", "eq_code", "eq_type",
    "subeq_code_via_machine", "eq_code_via_machine",
    "internal_pair_fn", "pair_graph_elem", "alpha0",
    "f0_vcode", "f0_membership_type", "f0_membership_realiser",
    "seq_encode", "seq_decode", "pow2ceil",
]


@dataclass(frozen=True, slots=True)
class VCode:
    """A set code: unpair0 is the index type, unpair1 the element map."""

    code: Code

    @property
    def index_type(self) -> Code:
        return unpair0(self.code)

    @property
    def elem_map(self) -> Code:
        return unpair1(self.code)


def as_code(v) -> Code:
    return v.code if isinstance(v, VCode) else v


def index_type_of(v) -> Code:
    return unpair0(as_code(v))


def elem_of(v, k: Code, fuel: int = DEFAULT_FUEL) -> Code:
    return apply_raw(unpair1(as_code(v)), k, fuel)


# ---------------------------------------------------------------------------
# Numerals, omega, canonical pairs


def v_numeral(n: int) -> VCode:
    """The set {0, .., n-1}: finite index type, numeral element map."""
    return VCode(pair(fin(n), rom.NUMMAP))


def v_omega() -> VCode:
    return VCode(pair(NAT, rom.NUMMAP))


def v_upair(a, b) -> VCode:
    """Two-element index; the map sends 0 to a and everything else to b."""
    fam = mkapps(rom.UPAIRFAM, as_code(a), as_code(b))
    return VCode(pair(fin(2), fam))


def v_opair(a, b) -> VCode:
    return v_upair(v_upair(a, a), v_upair(a, b))


def v_finite(elems: Sequence) -> VCode:
    """An arbitrary finite set given by a tuple of element codes.

    The element map is a table lookup over the packed element sequence,
    so equal element tuples give identical codes.
    """
    codes = [as_code(e) for e in elems]
    if not codes:
        return VCode(pair(fin(0), 0))
    fam = mkapp(rom.ELEMOF, seq_encode(codes))
    return VCode(pair(fin(len(codes)), fam))


# ---------------------------------------------------------------------------
# Sequence codes (shared with the diagonal module): pair(length, balanced
# tree over a power-of-two leaf count, zero padded).  pair(0,0) = 0 is the
# empty sequence and the all-zero tree collapses to the number 0.


def pow2ceil(n: int) -> int:
    s = 1
    while s < n:
        s *= 2
    return s


def _tree(xs: list) -> Code:
    if len(xs) == 1:
        return xs[0]
    h = len(xs) // 2
    return pair(_tree(xs[:h]), _tree(xs[h:]))


def seq_encode(xs: Iterable) -> Code:
    xs = list(xs)
    if not xs:
        return 0
    padded = xs + [0] * (pow2ceil(len(xs)) - len(xs))
    return pair(len(xs), _tree(padded))


_MAX_SEQ_LENGTH = 1_000_000


def seq_decode(c: Code) -> list[Code] | None:
    """Components of a canonical sequence code, or None if not canonical.

    Codes claiming an absurd length are rejected rather than walked;
    every sequence this library builds is far below the cap.
    """
    length, payload = unpair(c)
    if not isinstance(length, int) or length > _MAX_SEQ_LENGTH:
        return None
    if length == 0:
        return [] if payload == 0 else None
    leaves: list[Code] = []

    def walk(t: Code, size: int) -> None:
        if size == 1:
            leaves.append(t)
            return
        l, r = unpair(t)
        walk(l, size // 2)
        walk(r, size // 2)

    walk(payload, pow2ceil(length))
    if any(x != 0 for x in leaves[length:]):
        return None
    out = leaves[:length]
    if seq_encode(out) != c:
        return None
    return out


# ---------------------------------------------------------------------------
# Equality and subset types: native mirror of the machine programs


@dataclass(frozen=True, slots=True)
class EqType:
    lhs: VCode
    rhs: VCode
    code: Code


def subeq_code(a: Code, b: Code) -> Code:
    """Type of programs mapping members of a to equal members of b."""
    fam = mkapps(rom.SUBFAM, rom.EQ, a, b)
    return pi_code(unpair0(a), fam)


def eq_code(a: Code, b: Code) -> Code:
    """The equality type: a pair of both subset directions."""
    return sigma_code(subeq_code(a, b), mkapp(rom.K, subeq_code(b, a)))


def subeq_code_via_machine(a: Code, b: Code, fuel: int = DEFAULT_FUEL) -> Code:
    return apply_chain(rom.SUBEQ, rom.EQ, a, b, fuel=fuel)


def eq_code_via_machine(a: Code, b: Code, fuel: int = DEFAULT_FUEL) -> Code:
    return apply_chain(rom.EQ, a, b, fuel=fuel)


def eq_type(a, b) -> EqType:
    av, bv = VCode(as_code(a)), VCode(as_code(b))
    return EqType(av, bv, eq_code(av.code, bv.code))


# ---------------------------------------------------------------------------
# The graph of the pairing function as a set, the path ordinal, and the
# derived family


def internal_pair_fn() -> VCode:
    """The set of all triples <<i,k>, pair(i,k)> indexed by the naturals."""
    return VCode(pair(NAT, rom.PBARFAM))


def pair_graph_elem(m: int) -> VCode:
    """Element of the pair graph at index m: <<unpair0 m, unpair1 m>, m>."""
    return VCode(apply_raw(rom.PBARFAM, m))


def alpha0(tr: Truncation) -> VCode:
    """The path ordinal: distinguished index type, length-numeral map."""
    if tr.distinguished is None:
        raise ValueError("alpha0 needs a truncation with a built path "
                         "(set Truncation.distinguished)")
    return VCode(pair(DIST, rom.LSFAM))


def f0_vcode(i: int) -> VCode:
    """The i-th member of the derived family.

    Members are naturals n such that every k below n pairs with i into
    the path ordinal; the index type packages n with that evidence.
    """
    return VCode(pair(sigma_code(NAT, mkapp(rom.F0MEM, i)), rom.F0ELEM))


def f0_membership_type(i: int, k: int) -> Code:
    """The evidence type behind "the (i,k) pair lands in the path ordinal".

    Unfolds the shorthand as: an index into the pair graph, an index into
    the path ordinal, and an equality between the graph element and the
    rebuilt triple.
    """
    return apply_chain(rom.ANTT, i, k)


def f0_membership_realiser(i: int, k: int, tr: Truncation) -> Code:
    """Evidence that the (i,k) pair lands in the path ordinal.

    The first component is pair(i, k); the second carries the unique
    path segment of that length together with the equality realiser.
    In this coding both sides of the final equality are the same code,
    so the self-equality program is the equality evidence.
    """
    xs = tr.distinguished
    if xs is None:
        raise ValueError("f0_membership_realiser needs a built path")
    m = pair(i, k)
    if not isinstance(m, int):
        raise ValueError("pair(i, k) out of range")
    seg = xs.segment_code(m)
    if seg is None:
        raise ValueError(
            f"path prefix too short: need a segment of length {m}, "
            f"have {len(xs)} components")
    return pair(m, pair(seg, rom.IOTA))
