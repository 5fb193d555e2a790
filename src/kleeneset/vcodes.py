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

from collections.abc import Iterable, Sequence

from . import romlib as rom
from ._value import Value
from .machine import DEFAULT_FUEL, apply_chain, apply_raw
from .pairing import _THRESHOLD_BITS, Code, pair, unpair, unpair0, unpair1
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
    "seq_encode", "seq_decode", "seq_grow", "seq_prefix_code", "seq_extends", "pow2ceil",
]


class VCode(Value):
    """A set code: unpair0 is the index type, unpair1 the element map."""

    __slots__ = _fields = ("code",)

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
#
# The tree is built bottom up in rows.  Row 0 is the components, and entry
# i of row k is the code of the aligned block of 2**k components from
# i * 2**k: the pair of entries 2i and 2i+1 of row k-1.  The rows hold only
# the blocks that lie wholly inside the components they were grown over.
# The code of the first L components reads those blocks from the rows,
# takes 0 for a block past L (all padding, and pair(0, 0) = 0), and pairs
# only the blocks that straddle L, at most one per level; since pair is a
# bijection with one representation per natural, equal blocks have equal
# codes, so every prefix shares the rows.


def pow2ceil(n: int) -> int:
    s = 1
    while s < n:
        s *= 2
    return s


def seq_grow(rows: list, length: int) -> None:
    """Grow each row above rows[0] to the blocks wholly inside the first
    length components."""
    k = 1
    while length >> k:
        if k == len(rows):
            rows.append([])
        below, row = rows[k - 1], rows[k]
        for i in range(len(row), length >> k):
            row.append(pair(below[2 * i], below[2 * i + 1]))
        k += 1


def seq_prefix_code(rows: list, length: int) -> Code:
    """The code of the first length components, from rows grown that far."""
    if length == 0:
        return 0
    top = (length - 1).bit_length()  # the tree has 2**top leaves
    if length == 1 << top:
        return pair(length, rows[top][0])
    tree = 0  # the block of level k that straddles length, padded with 0
    for k in range(top):
        if length >> k & 1:
            tree = pair(rows[k][(length >> k) - 1], tree)
        elif tree != 0:
            tree = pair(tree, 0)
    return pair(length, tree)


def seq_encode(xs: Iterable) -> Code:
    rows = [list(xs)]
    seq_grow(rows, len(rows[0]))
    return seq_prefix_code(rows, len(rows[0]))


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
    _seq_leaves(payload, pow2ceil(length), leaves)
    if any(x != 0 for x in leaves[length:]):
        return None
    out = leaves[:length]
    if seq_encode(out) != c:
        return None
    return out


def _seq_leaves(t: Code, size: int, leaves: list) -> None:
    """Append the size leaves of the tree t to leaves, left to right."""
    if size == 1:
        leaves.append(t)
        return
    l, r = unpair(t)
    _seq_leaves(l, size // 2, leaves)
    _seq_leaves(r, size // 2, leaves)


def seq_extends(rows: list, c: Code) -> bool:
    """Whether c is the code of a sequence longer than rows[0], starting
    with it and with int components only, as seq_decode would read c.

    c is walked block by block against the rows, never decoded: a block
    wholly inside rows[0] must equal its row entry, a block past c's length
    must be 0, and a component in between must be an int.  A component of
    rows[0] past 2**2048 decodes as a Big, so no such c starts with it.
    """
    length, tree = unpair(c)
    known = len(rows[0])
    if (not isinstance(length, int) or not known < length <= _MAX_SEQ_LENGTH
            or max(rows[0], default=0).bit_length() > _THRESHOLD_BITS):
        return False
    seq_grow(rows, known)
    return _block_agrees(tree, (length - 1).bit_length(), 0, rows, known, length)


def _block_agrees(t: Code, k: int, i: int, rows: list, known: int, length: int) -> bool:
    """Whether t, block i of level k of a code of the given length, agrees
    with the rows by seq_extends's rule; known is len(rows[0])."""
    start, end = i << k, (i + 1) << k
    if end <= known:
        return t == rows[k][i]
    if start >= length:
        return t == 0
    if isinstance(t, int) and (k == 0 or start >= known and end <= length):
        return True  # every component of an int block is an int
    if k == 0:
        return False
    left, right = unpair(t)
    return (_block_agrees(left, k - 1, 2 * i, rows, known, length)
            and _block_agrees(right, k - 1, 2 * i + 1, rows, known, length))


# ---------------------------------------------------------------------------
# Equality and subset types: native mirror of the machine programs


class EqType(Value):
    __slots__ = _fields = ("lhs", "rhs", "code")


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
