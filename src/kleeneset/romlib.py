"""Library programs, compiled once at import in a fixed order.

Everything here is an ordinary code (a natural number); the module just
gives the interesting ones names.  The numeric values are frozen in the
test suite's golden file, so any change to compilation or to this
module's registration order is loud.

This compile is most of what importing the package costs: 56 lambdas
become 948 table entries.  terms abstracts each binder in one walk of
the body that also finds whether the binder occurs (Turner 1979): each
node is visited once, where an occurrence test at every level of the
walk made the cost grow with the square of the depth.

Branching in recursive programs uses the d-combinator on thunks:
d (\\_.A) (\\_.B) x y picks a thunk by comparing x and y and the trailing
dummy argument fires it; call-by-value never touches the branch not
taken.  Numbers are compared and rebuilt with d, p, p0, p1, sN, pN only.
"""

from __future__ import annotations

from . import terms
from .machine import fixpoint, set_native_monus
from .pairing import pair
from .terms import A, L, Lam, N, Prim, V, compile_lambda, prim_code
from .universe import DIST, NAT, fin

__all__ = [
    "K", "S", "SN", "PN", "D", "P", "P0", "P1", "FIX",
    "MONUS", "PLUS", "HALF", "POW2GE",
    "LS", "TS", "SNOC", "ELEMOF",
    "NUMMAP", "LSFAM", "UPAIRFAM", "MKAPP_PROG", "UPAIR_PROG", "OPAIR_PROG",
    "PBARFAM", "SIGMA_PROG", "PI_PROG",
    "INNER", "SUBFAM", "SUBEQ", "EQSTEP", "EQ",
    "DSTEP", "DELTA", "IOTA",
    "SYMM", "TRANSIT", "ALPHA0_IN_OMEGA",
    "SUBC_U_PROG", "SUBC_F_PROG", "SURJFAM", "SUB_OMEGA_REALISER", "SURJ_REALISER",
    "INCOMP", "QFUN", "ANTF", "FF", "GG",
    "INF", "EX2F", "EX1F", "ANTT", "F0MEM", "F0ELEM",
    "M_COPY", "M_EMPTY", "M_TRUNC1", "M_TRUNC2", "M_HEAD1",
    "M_SNOC0", "M_SNOC1", "M_SNOC00", "M_ZEROS_SAME", "M_ZEROS_PLUS1",
    "M_CONST101",
]

_k, _s, _sN, _pN, _d, _p, _p0, _p1, _fix = (Prim(n) for n in
    ("k", "s", "sN", "pN", "d", "p", "p0", "p1", "fix"))

K = prim_code("k")
S = prim_code("s")
SN = prim_code("sN")
PN = prim_code("pN")
D = prim_code("d")
P = prim_code("p")
P0 = prim_code("p0")
P1 = prim_code("p1")
FIX = prim_code("fix")

def _ifz(n, zero, other):
    return A(_d, Lam("_", zero), Lam("_", other), n, N(0), N(0))


def _ifeq(a, b, then, other):
    return A(_d, Lam("_", then), Lam("_", other), a, b, N(0))


def _c(term, name: str) -> int:
    return compile_lambda(term, name)


# ---------------------------------------------------------------------------
# Small-number arithmetic (unary loops; operands stay desk-sized).  MONUS
# runs natively on naturals, charged the steps of its plan (see machine);
# PLUS and HALF run from their plans.

MONUS = fixpoint(_c(L("f", "a", "b",
    _ifz(V("b"), V("a"),
         _ifz(V("a"), N(0),
              A(V("f"), A(_pN, V("a")), A(_pN, V("b")))))), "monus"))
set_native_monus(MONUS)

PLUS = fixpoint(_c(L("f", "a", "b",
    _ifz(V("a"), V("b"),
         A(V("f"), A(_pN, V("a")), A(_sN, V("b"))))), "plus"))

HALF = fixpoint(_c(L("f", "n",
    _ifz(V("n"), N(0),
         _ifz(A(_pN, V("n")), N(0),
              A(_sN, A(V("f"), A(_pN, A(_pN, V("n")))))))), "half"))

POW2GE = fixpoint(_c(L("f", "s", "m",
    _ifz(A(N(MONUS), V("m"), V("s")), V("s"),
         A(V("f"), A(N(PLUS), V("s"), V("s")), V("m")))), "pow2ge"))


def _ifleq(a, b, then, other):
    return _ifz(A(N(MONUS), a, b), then, other)


# ---------------------------------------------------------------------------
# Sequence codes: pair(length, balanced tree).  A perfect binary tree over
# pow2ge(1, length) leaves, zero-padded; the all-zero tree is the number 0
# because pair(0, 0) = 0.  The length operator is just p0.

LS = P0

_TRZ = fixpoint(_c(L("f", "t", "sz", "m",
    _ifeq(V("m"), V("sz"), V("t"),
        _ifz(V("m"), N(0),
            _ifleq(V("m"), A(N(HALF), V("sz")),
                A(_p, A(V("f"), A(_p0, V("t")), A(N(HALF), V("sz")), V("m")), N(0)),
                A(_p, A(_p0, V("t")),
                  A(V("f"), A(_p1, V("t")), A(N(HALF), V("sz")),
                    A(N(MONUS), V("m"), A(N(HALF), V("sz"))))))))), "seq_trunc_pad"))

_TRUNC = fixpoint(_c(L("f", "t", "sz", "n",
    _ifeq(V("n"), V("sz"), V("t"),
        _ifleq(V("n"), A(N(HALF), V("sz")),
            A(V("f"), A(_p0, V("t")), A(N(HALF), V("sz")), V("n")),
            A(_p, A(_p0, V("t")),
              A(N(_TRZ), A(_p1, V("t")), A(N(HALF), V("sz")),
                A(N(MONUS), V("n"), A(N(HALF), V("sz")))))))), "seq_trunc"))

TS = _c(L("t", "n",
    _ifz(V("n"), N(0),
         A(_p, V("n"),
           A(N(_TRUNC), A(_p1, V("t")),
             A(N(POW2GE), N(1), A(_p0, V("t"))), V("n"))))), "seq_take")

_BUILD1 = fixpoint(_c(L("f", "x", "sz",
    _ifeq(V("sz"), N(1), V("x"),
          A(_p, A(V("f"), V("x"), A(N(HALF), V("sz"))), N(0)))), "seq_leftmost"))

_INS = fixpoint(_c(L("f", "t", "sz", "i", "x",
    _ifeq(V("sz"), N(1), V("x"),
        _ifleq(A(_sN, V("i")), A(N(HALF), V("sz")),
            A(_p, A(V("f"), A(_p0, V("t")), A(N(HALF), V("sz")), V("i"), V("x")),
              A(_p1, V("t"))),
            A(_p, A(_p0, V("t")),
              A(V("f"), A(_p1, V("t")), A(N(HALF), V("sz")),
                A(N(MONUS), V("i"), A(N(HALF), V("sz"))), V("x")))))), "seq_set"))

SNOC = _c(L("t", "x",
    _ifz(A(_p0, V("t")), A(_p, N(1), V("x")),
        _ifeq(A(_p0, V("t")), A(N(POW2GE), N(1), A(_p0, V("t"))),
            A(_p, A(_sN, A(_p0, V("t"))),
              A(_p, A(_p1, V("t")),
                A(N(_BUILD1), V("x"), A(N(POW2GE), N(1), A(_p0, V("t")))))),
            A(_p, A(_sN, A(_p0, V("t"))),
              A(N(_INS), A(_p1, V("t")), A(N(POW2GE), N(1), A(_p0, V("t"))),
                A(_p0, V("t")), V("x")))))), "seq_snoc")

_GET = fixpoint(_c(L("f", "t", "sz", "i",
    _ifeq(V("sz"), N(1), V("t"),
        _ifleq(A(_sN, V("i")), A(N(HALF), V("sz")),
            A(V("f"), A(_p0, V("t")), A(N(HALF), V("sz")), V("i")),
            A(V("f"), A(_p1, V("t")), A(N(HALF), V("sz")),
              A(N(MONUS), V("i"), A(N(HALF), V("sz"))))))), "seq_get"))

ELEMOF = _c(L("t", "i",
    A(N(_GET), A(_p1, V("t")), A(N(POW2GE), N(1), A(_p0, V("t"))), V("i"))), "table_lookup")


# ---------------------------------------------------------------------------
# Numerals and canonical pairs.  nummap k = pair(fin(k), nummap), the map
# x -> x-as-a-set; closures are built arithmetically as application spines
# so the stored family codes are small and reproducible.

MKAPP_PROG = _c(L("f", "a", A(_p, N(0), A(_p, V("f"), V("a")))), "mkapp")

NUMMAP = fixpoint(_c(L("m", "x", A(_p, A(_p, N(0), V("x")), V("m"))), "nummap_step"))

LSFAM = _c(L("t", A(N(NUMMAP), A(_p0, V("t")))), "length_as_numeral")

UPAIRFAM = _c(L("a", "b", "x", A(_d, V("a"), V("b"), V("x"), N(0))), "upair_select")

UPAIR_PROG = _c(L("a", "b",
    A(_p, N(fin(2)),
      A(_p, N(0), A(_p, A(_p, N(0), A(_p, N(UPAIRFAM), V("a"))), V("b"))))), "upair")

OPAIR_PROG = _c(L("a", "b",
    A(N(UPAIR_PROG), A(N(UPAIR_PROG), V("a"), V("a")),
      A(N(UPAIR_PROG), V("a"), V("b")))), "opair")

PBARFAM = _c(L("x",
    A(N(OPAIR_PROG),
      A(N(OPAIR_PROG), A(N(NUMMAP), A(_p0, V("x"))), A(N(NUMMAP), A(_p1, V("x")))),
      A(N(NUMMAP), V("x")))), "pairgraph_elem")

SIGMA_PROG = _c(L("n", "m", A(_p, N(2), A(_p, V("n"), V("m")))), "sigma")
PI_PROG = _c(L("n", "m", A(_p, N(3), A(_p, V("n"), V("m")))), "pi")


# ---------------------------------------------------------------------------
# The equality and subset type builders, tied by one fixpoint.  inner and
# subfam take the equality program itself as their first argument, so the
# codes they stash in families mention the final fixpoint code exactly.

INNER = _c(L("e", "a", "b", "x", "y",
    A(V("e"), A(A(_p1, V("a")), V("x")), A(A(_p1, V("b")), V("y")))), "eq_inner")

SUBFAM = _c(L("e", "a", "b", "x",
    A(_p, N(2),
      A(_p, A(_p0, V("b")),
        A(_p, N(0),
          A(_p, A(_p, N(0),
                  A(_p, A(_p, N(0),
                          A(_p, A(_p, N(0), A(_p, N(INNER), V("e"))), V("a"))),
                    V("b"))),
            V("x")))))), "subset_fam")

SUBEQ = _c(L("e", "a", "b",
    A(_p, N(3),
      A(_p, A(_p0, V("a")),
        A(_p, N(0),
          A(_p, A(_p, N(0),
                  A(_p, A(_p, N(0), A(_p, N(SUBFAM), V("e"))), V("a"))),
            V("b")))))), "subset_type")

EQSTEP = _c(L("e", "a", "b",
    A(_p, N(2),
      A(_p, A(N(SUBEQ), V("e"), V("a"), V("b")),
        A(_p, N(0), A(_p, N(K), A(N(SUBEQ), V("e"), V("b"), V("a"))))))), "eq_step")

EQ = fixpoint(EQSTEP)


# ---------------------------------------------------------------------------
# The self-equality realiser: delta n = pair(n, iota), iota = pair(delta, delta).

DSTEP = _c(L("e", "n", A(_p, V("n"), A(_p, V("e"), V("e")))), "delta_step")
DELTA = fixpoint(DSTEP)
IOTA = pair(DELTA, DELTA)


# ---------------------------------------------------------------------------
# Named realisers

SYMM = _c(L("e", A(_p, A(_p1, V("e")), A(_p0, V("e")))), "eq_symm")

ALPHA0_IN_OMEGA = _c(L("t", A(_p, A(_p0, V("t")), N(IOTA))), "alpha0_in_omega")

TRANSIT = _c(L("t", "x", A(_p, A(N(TS), V("t"), V("x")), N(IOTA))), "alpha0_transitive")

SUBC_U_PROG = _c(L("a", A(_p, A(_p0, V("a")), N(NUMMAP))), "subcount_u")

SURJFAM = _c(L("a", "x",
    A(N(OPAIR_PROG), A(N(NUMMAP), V("x")), A(A(_p1, V("a")), V("x")))), "surj_graph_elem")

SUBC_F_PROG = _c(L("a",
    A(_p, A(_p0, V("a")), A(_p, N(0), A(_p, N(SURJFAM), V("a"))))), "subcount_f")

SUB_OMEGA_REALISER = _c(L("i", A(_p, V("i"), N(IOTA))), "subset_omega_pointwise")

SURJ_REALISER = _c(L("j", A(_p, V("j"), A(_p, V("j"), N(IOTA)))), "surjectivity_pointwise")

INCOMP = _c(L("i", "j", "x", N(IOTA)), "incomparability_statement")

QFUN = _c(L("i", "k", N(IOTA)), "opair_eq_realiser")

ANTF = _c(L("i", "t", "k",
    A(_p, A(_p, V("i"), V("k")),
      A(_p, A(N(TS), V("t"), A(_p, V("i"), V("k"))),
        A(N(QFUN), V("i"), V("k"))))), "antecedent_fam")

FF = _c(L("d", "i", "n", "t",
    A(V("d"), A(_sN, V("n")),
      A(_p, N(0), A(_p, A(_p, N(0), A(_p, N(ANTF), V("i"))), V("t"))),
      V("n"))), "consequent_pipeline")

GG = _c(L("f", "s",
    A(_p0, A(_p1, A(V("f"), A(_p1, A(_p0, V("s"))), V("s"))))), "segment_predictor")


# ---------------------------------------------------------------------------
# Formula types as codes: membership, the distinguished-family antecedent

INF = _c(L("a", "b", "m",
    A(N(EQ), V("a"), A(A(_p1, V("b")), V("m")))), "in_type_fam")

EX2F = _c(L("i", "k", "r", "t",
    A(N(EQ), A(N(PBARFAM), V("r")),
      A(N(OPAIR_PROG),
        A(N(OPAIR_PROG), A(N(NUMMAP), V("i")), A(N(NUMMAP), V("k"))),
        A(N(LSFAM), V("t"))))), "pair_membership_eq_fam")

EX1F = _c(L("i", "k", "r",
    A(_p, N(2),
      A(_p, N(DIST),
        A(_p, N(0),
          A(_p, A(_p, N(0),
                  A(_p, A(_p, N(0), A(_p, N(EX2F), V("i"))), V("k"))),
            V("r")))))), "pair_membership_ex_fam")

ANTT = _c(L("i", "k",
    A(_p, N(2),
      A(_p, N(NAT),
        A(_p, N(0),
          A(_p, A(_p, N(0), A(_p, N(EX1F), V("i"))), V("k")))))), "pair_membership_type")

F0MEM = _c(L("i", "n",
    A(_p, N(3),
      A(_p, A(_p, N(0), V("n")),
        A(_p, N(0), A(_p, N(ANTT), V("i")))))), "f0_membership_type")

F0ELEM = _c(L("r", A(N(NUMMAP), A(_p0, V("r")))), "f0_elem")


# ---------------------------------------------------------------------------
# Catalogue machines (total sequence predictors used by the diagonal build)

M_COPY = _c(L("t", V("t")), "m_copy")
M_EMPTY = _c(L("t", N(0)), "m_empty")
M_TRUNC1 = _c(L("t", A(N(TS), V("t"), A(_pN, A(_p0, V("t"))))), "m_trunc1")
M_TRUNC2 = _c(L("t", A(N(TS), V("t"), A(_pN, A(_pN, A(_p0, V("t")))))), "m_trunc2")
M_HEAD1 = _c(L("t", A(N(TS), V("t"), A(_d, N(0), N(1), A(_p0, V("t")), N(0)))), "m_head1")
M_SNOC0 = _c(L("t", A(N(SNOC), V("t"), N(0))), "m_snoc0")
M_SNOC1 = _c(L("t", A(N(SNOC), V("t"), N(1))), "m_snoc1")
M_SNOC00 = _c(L("t", A(N(SNOC), A(N(SNOC), V("t"), N(0)), N(0))), "m_snoc00")
M_ZEROS_SAME = _c(L("t", A(_p, A(_p0, V("t")), N(0))), "m_zeros_same")
M_ZEROS_PLUS1 = _c(L("t", A(_p, A(_sN, A(_p0, V("t"))), N(0))), "m_zeros_plus1")

# the sequence 1,0,1 as a code: three components over a four-leaf tree
_PATTERN101 = pair(3, pair(pair(1, 0), pair(1, 0)))
M_CONST101 = _c(L("t", N(_PATTERN101)), "m_const101")

terms._library_size = terms.rom_size()  # terms.rewind never drops below it
