"""Formulas over set codes and the clause-by-clause evidence checker.

check(e, phi) decides, relative to a budget, whether the code e is
evidence for phi under the standard clauses: equality defers to
membership in the equality type, membership splits e into an index and
an equality witness, conjunction splits e into two halves, disjunction
reads a 0/1 tag off the first half, implication maps every known
antecedent witness through e, and bounded quantifiers walk the bound's
index type.

Verdicts are three-valued and sound by construction: Realized can carry
a note marking it relative to the budget (infinite index types are only
enumerated up to the truncation; implications are tested against the
witnesses the searcher can produce).  An unbounded universal is never
Realized, only refuted by a counterexample from the budget's witness
family.

find_realiser is the witness synthesizer the negative clauses lean on:
on hereditarily finite-indexed codes it decides realizability outright
(decisive), which the acceptance suite cross-checks against plain truth
over hereditarily finite sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Mapping

from . import romlib as rom
from .lworld import HFSet
from .machine import (
    DivergedError, OutOfFuelError, apply_raw)
from .pairing import Code, pair, unpair, unpair1
from .terms import mkapp
from .universe import (
    MAX_FIN_INDEX, REALIZED, REFUTED, Truncation, Verdict, _depth_memo,
    _family_at, check_in_V, din, enumerate_index, provably_empty, type_view,
    unknown,
)
from .vcodes import (
    VCode, as_code, eq_code, f0_vcode, index_type_of, seq_encode, v_omega,
    v_opair)

__all__ = [
    "Var", "Val", "OPairT", "F0T", "FTerm",
    "Eq", "In", "Not", "And", "Or", "Implies", "BAll", "BEx", "All", "Ex",
    "Formula", "CheckBudget", "resolve_term",
    "check", "find_realiser", "formula_status",
    "denote", "native_truth",
    "subcountability_witness", "subcountability_formula",
    "incomparability_statement_realiser", "incomparability_formula",
]


# ---------------------------------------------------------------------------
# Terms and formulas


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Val:
    value: VCode


@dataclass(frozen=True, slots=True)
class OPairT:
    """Ordered-pair constructor term."""
    fst: "FTerm"
    snd: "FTerm"


@dataclass(frozen=True, slots=True)
class F0T:
    """The derived-family member named by a numeral term."""
    index: "FTerm"


FTerm = Var | Val | OPairT | F0T


@dataclass(frozen=True, slots=True)
class Eq:
    x: FTerm
    y: FTerm


@dataclass(frozen=True, slots=True)
class In:
    x: FTerm
    y: FTerm


@dataclass(frozen=True, slots=True)
class Not:
    body: "Formula"


@dataclass(frozen=True, slots=True)
class And:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True, slots=True)
class Or:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True, slots=True)
class Implies:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True, slots=True)
class BAll:
    var: str
    bound: FTerm
    body: "Formula"


@dataclass(frozen=True, slots=True)
class BEx:
    var: str
    bound: FTerm
    body: "Formula"


@dataclass(frozen=True, slots=True)
class All:
    var: str
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Ex:
    var: str
    body: "Formula"


Formula = Eq | In | Not | And | Or | Implies | BAll | BEx | All | Ex


class IllScopedFormulaError(ValueError):
    pass


def resolve_term(t: FTerm, env: Mapping[str, VCode]) -> VCode:
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise IllScopedFormulaError(f"unbound variable {t.name!r}") from None
    if isinstance(t, Val):
        return t.value
    if isinstance(t, OPairT):
        return v_opair(resolve_term(t.fst, env), resolve_term(t.snd, env))
    if isinstance(t, F0T):
        v = resolve_term(t.index, env)
        view = type_view(v.index_type)
        if view.kind != "fin":
            raise IllScopedFormulaError(
                "the derived-family index must be a numeral")
        return f0_vcode(view.size)
    raise TypeError(t)


@dataclass(frozen=True)
class CheckBudget:
    truncation: Truncation = Truncation()
    implication_bound: int = 8
    witness_family: tuple[VCode, ...] = ()

    def __post_init__(self):
        if self.implication_bound < 0:
            raise ValueError(
                f"implication_bound must not be negative, got {self.implication_bound}")


def _join(*vs: Verdict) -> Verdict:
    note = None
    for v in vs:
        if v.refuted:
            return REFUTED
        if v.note and note is None:
            note = v.note
    for v in vs:
        if v.unknown:
            return v
    return Verdict("realized", note) if note else REALIZED


# ---------------------------------------------------------------------------
# The checker


def check(e: Code, phi: Formula, env: Mapping[str, VCode] | None = None,
          budget: CheckBudget | None = None) -> Verdict:
    env = env or {}
    budget = budget or CheckBudget()
    return _check(e, phi, dict(env), budget)


def _check(e: Code, phi: Formula, env: dict, budget: CheckBudget) -> Verdict:
    tr = budget.truncation

    if isinstance(phi, Eq):
        a = resolve_term(phi.x, env)
        b = resolve_term(phi.y, env)
        return din(e, eq_code(a.code, b.code), tr)

    if isinstance(phi, In):
        a = resolve_term(phi.x, env)
        b = resolve_term(phi.y, env)
        k0, u = unpair(e)
        v_idx = din(k0, b.index_type, tr)
        if v_idx.refuted:
            return REFUTED
        elem = _family_at(b.elem_map, k0, tr, False)
        if elem is None:
            return unknown("element map did not converge on the index")
        v_eq = din(u, eq_code(a.code, elem), tr)
        return _join(v_idx, v_eq)

    if isinstance(phi, Not):
        w, decisive = find_realiser(phi.body, env, budget)
        if w is not None:
            return REFUTED  # some witness realizes the body, so nothing realizes its negation
        if decisive:
            return REALIZED  # no number can realize the body; anything realizes the negation
        return unknown("negation undecided: witness search was not decisive")

    if isinstance(phi, And):
        e0, e1 = unpair(e)
        return _join(_check(e0, phi.lhs, env, budget),
                     _check(e1, phi.rhs, env, budget))

    if isinstance(phi, Or):
        e0, e1 = unpair(e)
        if e0 == 0:
            return _check(e1, phi.lhs, env, budget)
        if e0 == 1:
            return _check(e1, phi.rhs, env, budget)
        return REFUTED  # the disjunction tag must be exactly 0 or 1

    if isinstance(phi, Implies):
        return _check_implies(e, phi, env, budget)

    if isinstance(phi, BAll):
        bound = resolve_term(phi.bound, env)
        members, complete = enumerate_index(bound.index_type, tr)
        saw_unknown = False
        for i in members:
            try:
                ei = apply_raw(e, i, tr.fuel)
            except OutOfFuelError:
                saw_unknown = True
                continue
            except DivergedError:
                return REFUTED  # the clause demands convergence on every index
            elem = _family_at(bound.elem_map, i, tr, False)
            if elem is None:
                saw_unknown = True
                continue
            v = _check(ei, phi.body, {**env, phi.var: VCode(elem)}, budget)
            if v.refuted:
                return REFUTED
            if not v.realized:
                saw_unknown = True
        if saw_unknown:
            return unknown("some instances undecided")
        if not complete:
            return Verdict("realized", "relative to the index enumeration bound")
        return REALIZED

    if isinstance(phi, BEx):
        bound = resolve_term(phi.bound, env)
        k0, u = unpair(e)
        v_idx = din(k0, bound.index_type, tr)
        if v_idx.refuted:
            return REFUTED
        elem = _family_at(bound.elem_map, k0, tr, False)
        if elem is None:
            return unknown("element map did not converge on the witness index")
        v = _check(u, phi.body, {**env, phi.var: VCode(elem)}, budget)
        return _join(v_idx, v)

    if isinstance(phi, All):
        for alpha in budget.witness_family:
            try:
                ea = apply_raw(e, alpha.code, tr.fuel)
            except OutOfFuelError:
                continue
            except DivergedError:
                return REFUTED
            v = _check(ea, phi.body, {**env, phi.var: alpha}, budget)
            if v.refuted:
                return REFUTED
        return unknown("unbounded universal: checked relative to the witness family only")

    if isinstance(phi, Ex):
        w0, w1 = unpair(e)
        v_in = check_in_V(w0, tr)
        if v_in.refuted:
            return REFUTED
        v = _check(w1, phi.body, {**env, phi.var: VCode(w0)}, budget)
        return _join(v_in, v)

    raise TypeError(phi)


def _check_implies(e: Code, phi: Implies, env: dict, budget: CheckBudget) -> Verdict:
    tr = budget.truncation
    w, decisive = find_realiser(phi.lhs, env, budget)
    candidates: list[Code] = [] if w is None else [w]
    for d in range(budget.implication_bound):
        if d in candidates:
            continue
        v = _check(d, phi.lhs, env, budget)
        if v.realized and v.note is None:
            candidates.append(d)
    if not candidates:
        if decisive:
            return Verdict("realized", "vacuous: the antecedent has no realiser")
        return unknown("no antecedent realisers found within the budget")
    saw_unknown = False
    for d in candidates:
        try:
            ed = apply_raw(e, d, tr.fuel)
        except OutOfFuelError:
            saw_unknown = True
            continue
        except DivergedError:
            return REFUTED  # e provably fails to converge on a realiser
        v = _check(ed, phi.rhs, env, budget)
        if v.refuted:
            return REFUTED
        if not v.realized:
            saw_unknown = True
    if saw_unknown:
        return unknown("consequent checks undecided on some antecedent realisers")
    return Verdict("realized", "relative to the searched antecedent realisers")


# ---------------------------------------------------------------------------
# Witness synthesis


@_depth_memo(60, (None, False))
def _synth_eq(a: Code, b: Code, tr: Truncation,
              depth: int) -> tuple[Code | None, bool]:
    """(witness, decisive) for a = b."""
    if din(rom.IOTA, eq_code(a, b), tr).realized:
        return (rom.IOTA, True)
    if provably_empty(eq_code(a, b), tr):
        return (None, True)
    w1, d1 = _synth_subeq(a, b, tr, depth + 1)
    w2, d2 = _synth_subeq(b, a, tr, depth + 1)
    if w1 is not None and w2 is not None:
        return (pair(w1, w2), True)
    if (w1 is None and d1) or (w2 is None and d2):
        return (None, True)
    return (None, False)


@_depth_memo(inf, None)  # no guard of its own: _synth_eq's bounds it
def _synth_subeq(a: Code, b: Code, tr: Truncation,
                 depth: int) -> tuple[Code | None, bool]:
    """A program sending members of a to equal members of b, as a table;
    (witness, decisive) as for _synth_eq."""
    view_a = type_view(index_type_of(a))
    view_b = type_view(index_type_of(b))
    if (view_a.kind != "fin" or view_b.kind != "fin"
            or max(view_a.size, view_b.size) > MAX_FIN_INDEX):
        return (None, False)
    table: list[Code] = []
    decisive = True
    for k in range(view_a.size):
        ak = _family_at(unpair1(a), k, tr, False)
        if ak is None:
            return (None, False)
        found = None
        for y in range(view_b.size):
            by = _family_at(unpair1(b), y, tr, False)
            if by is None:
                decisive = False
                continue
            w, d = _synth_eq(ak, by, tr, depth + 1)
            if w is not None:
                found = pair(y, w)
                break
            decisive = decisive and d
        if found is None:
            return (None, decisive)
        table.append(found)
    return (mkapp(rom.ELEMOF, seq_encode(table)) if table else 0, True)


def find_realiser(phi: Formula, env: Mapping[str, VCode] | None = None,
                  budget: CheckBudget | None = None) -> tuple[Code | None, bool]:
    """Search for evidence; the flag marks a decisive no-witness answer.

    Returns (witness, True) when one is found, (None, True) when no
    number can realize the formula, and (None, False) when the search
    ran out of structure to exploit.
    """
    env = dict(env or {})
    budget = budget or CheckBudget()
    return _find(phi, env, budget, 0)


def _find(phi: Formula, env: dict, budget: CheckBudget, depth: int) -> tuple[Code | None, bool]:
    tr = budget.truncation
    if depth > 40:
        return (None, False)

    if isinstance(phi, Eq):
        a = resolve_term(phi.x, env)
        b = resolve_term(phi.y, env)
        return _synth_eq(a.code, b.code, tr, depth)

    if isinstance(phi, In):
        a = resolve_term(phi.x, env)
        b = resolve_term(phi.y, env)
        members, complete = enumerate_index(b.index_type, tr)
        decisive = bool(complete)
        for k in members:
            elem = _family_at(b.elem_map, k, tr, False)
            if elem is None:
                decisive = False
                continue
            w, d = _synth_eq(a.code, elem, tr, depth + 1)
            if w is not None:
                return (pair(k, w), True)
            decisive = decisive and d
        return (None, decisive)

    if isinstance(phi, Not):
        w, decisive = _find(phi.body, env, budget, depth + 1)
        if w is not None:
            return (None, True)
        if decisive:
            return (0, True)  # anything realizes the negation of an unrealizable body
        return (None, False)

    if isinstance(phi, And):
        w1, d1 = _find(phi.lhs, env, budget, depth + 1)
        if w1 is None:
            return (None, d1)
        w2, d2 = _find(phi.rhs, env, budget, depth + 1)
        if w2 is None:
            return (None, d2)
        return (pair(w1, w2), True)

    if isinstance(phi, Or):
        w1, d1 = _find(phi.lhs, env, budget, depth + 1)
        if w1 is not None:
            return (pair(0, w1), True)
        w2, d2 = _find(phi.rhs, env, budget, depth + 1)
        if w2 is not None:
            return (pair(1, w2), True)
        return (None, d1 and d2)

    if isinstance(phi, Implies):
        wa, da = _find(phi.lhs, env, budget, depth + 1)
        if wa is None and da:
            return (mkapp(rom.K, 0), True)  # vacuous: constant total program
        wc, dc = _find(phi.rhs, env, budget, depth + 1)
        if wc is not None:
            return (mkapp(rom.K, wc), True)
        if wa is not None and dc:
            return (None, True)
        return (None, False)

    if isinstance(phi, BAll):
        bound = resolve_term(phi.bound, env)
        members, complete = enumerate_index(bound.index_type, tr)
        if not complete:
            return (None, False)
        table: list[Code] = []
        for i in members:
            elem = _family_at(bound.elem_map, i, tr, False)
            if elem is None:
                return (None, False)
            w, d = _find(phi.body, {**env, phi.var: VCode(elem)}, budget, depth + 1)
            if w is None:
                return (None, d)
            table.append(w)
        return (mkapp(rom.ELEMOF, seq_encode(table)) if table else 0, True)

    if isinstance(phi, BEx):
        bound = resolve_term(phi.bound, env)
        members, complete = enumerate_index(bound.index_type, tr)
        decisive = bool(complete)
        for i in members:
            elem = _family_at(bound.elem_map, i, tr, False)
            if elem is None:
                decisive = False
                continue
            w, d = _find(phi.body, {**env, phi.var: VCode(elem)}, budget, depth + 1)
            if w is not None:
                return (pair(i, w), True)
            decisive = decisive and d
        return (None, decisive)

    if isinstance(phi, Ex):
        for alpha in budget.witness_family:
            w, _ = _find(phi.body, {**env, phi.var: alpha}, budget, depth + 1)
            if w is not None:
                return (pair(alpha.code, w), True)
        return (None, False)

    if isinstance(phi, All):
        return (None, False)

    raise TypeError(phi)


def formula_status(phi: Formula, env: Mapping[str, VCode] | None = None,
                   budget: CheckBudget | None = None) -> Verdict:
    """Realizability of a formula: find a witness and check it, or
    certify that none exists."""
    env = dict(env or {})
    budget = budget or CheckBudget()
    w, decisive = find_realiser(phi, env, budget)
    if w is not None:
        v = _check(w, phi, env, budget)
        if v.realized:
            return v
        return unknown("synthesized witness did not check out")
    if decisive:
        return REFUTED
    return unknown("witness search not decisive")


# ---------------------------------------------------------------------------
# Denotation into hereditarily finite sets (the soundness oracle)


def denote(v, tr: Truncation | None = None, _depth: int = 0) -> HFSet | None:
    """The hereditarily finite set a finite-indexed code stands for."""
    tr = tr or Truncation()
    if _depth > 40:
        return None
    code = as_code(v)
    view = type_view(index_type_of(code))
    if view.kind != "fin" or view.size > MAX_FIN_INDEX:
        return None
    out = []
    for k in range(view.size):
        ek = _family_at(unpair1(code), k, tr, False)
        if ek is None:
            return None
        d = denote(ek, tr, _depth + 1)
        if d is None:
            return None
        out.append(d)
    return HFSet(out)


def native_truth(phi: Formula, env: Mapping[str, VCode] | None = None,
                 tr: Truncation | None = None) -> bool | None:
    """Plain truth over the denoted hereditarily finite sets; None when
    a denotation or an enumeration is out of reach."""
    env = dict(env or {})
    tr = tr or Truncation()
    return _truth(phi, env, tr)


def _truth(phi: Formula, env: dict, tr: Truncation) -> bool | None:
    if isinstance(phi, Eq):
        a = denote(resolve_term(phi.x, env), tr)
        b = denote(resolve_term(phi.y, env), tr)
        return None if a is None or b is None else a is b
    if isinstance(phi, In):
        a = denote(resolve_term(phi.x, env), tr)
        b = denote(resolve_term(phi.y, env), tr)
        return None if a is None or b is None else a in b.elems
    if isinstance(phi, Not):
        t = _truth(phi.body, env, tr)
        return None if t is None else not t
    if isinstance(phi, And):
        l = _truth(phi.lhs, env, tr)
        r = _truth(phi.rhs, env, tr)
        if l is False or r is False:
            return False
        if l is None or r is None:
            return None
        return True
    if isinstance(phi, Or):
        l = _truth(phi.lhs, env, tr)
        r = _truth(phi.rhs, env, tr)
        if l is True or r is True:
            return True
        if l is None or r is None:
            return None
        return False
    if isinstance(phi, Implies):
        l = _truth(phi.lhs, env, tr)
        r = _truth(phi.rhs, env, tr)
        if l is False or r is True:
            return True
        if l is None or r is None:
            return None
        return r
    if isinstance(phi, (BAll, BEx)):
        bound = resolve_term(phi.bound, env)
        members, complete = enumerate_index(bound.index_type, tr)
        if not complete:
            return None
        results = []
        for k in members:
            elem = _family_at(bound.elem_map, k, tr, False)
            if elem is None:
                return None
            results.append(_truth(phi.body, {**env, phi.var: VCode(elem)}, tr))
        if isinstance(phi, BAll):
            if False in results:
                return False
            return None if None in results else True
        if True in results:
            return True
        return None if None in results else False
    return None  # unbounded quantifiers have no finite reading


# ---------------------------------------------------------------------------
# Named constructions


def subcountability_witness(alpha) -> tuple[VCode, VCode, Code]:
    """The canonical enumeration witness for a set code.

    u reads the index type as a set of naturals, f is the graph sending
    each index to its element, and the realiser certifies that u sits
    inside omega and that f is onto.
    """
    a = VCode(as_code(alpha))
    u = VCode(pair(a.index_type, rom.NUMMAP))
    f = VCode(pair(a.index_type, mkapp(rom.SURJFAM, a.code)))
    realiser = pair(rom.SUB_OMEGA_REALISER,
                    pair(rom.SURJ_REALISER, rom.SURJ_REALISER))
    return u, f, realiser


def subcountability_formula(alpha, u: VCode, f: VCode) -> Formula:
    """u is contained in omega, and f maps u onto the given set."""
    a = Val(VCode(as_code(alpha)))
    omega = Val(v_omega())
    member_shape = BAll("p", Val(f),
                        BEx("i", Val(u),
                            BEx("z", a, Eq(Var("p"), OPairT(Var("i"), Var("z"))))))
    onto = BAll("z", a,
                BEx("p", Val(f),
                    BEx("i", Val(u), Eq(Var("p"), OPairT(Var("i"), Var("z"))))))
    contained = BAll("y", Val(u), In(Var("y"), omega))
    return And(contained, And(member_shape, onto))


def incomparability_statement_realiser() -> Code:
    """The constant program behind "inclusion in the derived family
    forces equal indices"."""
    return rom.INCOMP


def incomparability_formula() -> Formula:
    """For all i, j in omega: if the i-th member of the derived family
    sits inside the j-th, then i = j."""
    subset = BAll("n", F0T(Var("i")), In(Var("n"), F0T(Var("j"))))
    return BAll("i", Val(v_omega()),
                BAll("j", Val(v_omega()),
                     Implies(subset, Eq(Var("i"), Var("j")))))
