"""Formulas over set codes and the clause-by-clause evidence checker.

check(e, phi) decides, relative to a budget, whether the code e is
evidence for phi under the standard clauses (McCarty 1984; Rathjen 2006).
Equality defers to membership in the equality type, and conjunction,
disjunction and the unbounded existential read e as a pair.  The other
evidence has two shapes: a pair(k, u) whose k names a member of the bound
and whose u is checked against it (membership, bounded existential), and
a code run on each case (each listed index of a bounded universal, each
antecedent witness found, each member of the witness family).

Verdicts are three-valued.  Only unnoted answers are stable as the
budget grows.  A Realized that carries a note is relative to its budget
(infinite index types are only enumerated up to the truncation;
implications are tested against the witnesses the searcher can
produce), and a larger budget can turn it into Refuted.  An unbounded
universal is never Realized, only refuted by a counterexample from the
budget's witness family.

find_realiser is the witness synthesizer the negative clauses lean on.
Its two walks over a bound's listed members find the first member with
a witness (membership, bounded existential) or a table of witnesses
(bounded universal, each half of equality).  It decides realizability
outright (decisive) on hereditarily finite-indexed codes, which the
acceptance suite cross-checks against plain truth over the sets they denote.
"""

from __future__ import annotations

from collections.abc import Mapping

from . import romlib as rom
from ._value import Value, setfield
from .lworld import HFSet
from .machine import (
    DivergedError, OutOfFuelError, apply_raw)
from .pairing import Code, pair, unpair, unpair1
from .terms import mkapp
from .universe import (
    DEFAULT_TRUNCATION, MAX_FIN_INDEX, REALIZED, REFUTED, Truncation, Verdict,
    _depth_memo, _family_at, check_in_V, din, enumerate_index, provably_empty,
    type_view, unknown,
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


class Var(Value):
    __slots__ = _fields = ("name",)


class Val(Value):
    __slots__ = _fields = ("value",)


class OPairT(Value):
    """Ordered-pair constructor term."""
    __slots__ = _fields = ("fst", "snd")


class F0T(Value):
    """The derived-family member named by a numeral term."""
    __slots__ = _fields = ("index",)


FTerm = Var | Val | OPairT | F0T


class Eq(Value):
    __slots__ = _fields = ("x", "y")


class In(Value):
    __slots__ = _fields = ("x", "y")


class Not(Value):
    __slots__ = _fields = ("body",)


class And(Value):
    __slots__ = _fields = ("lhs", "rhs")


class Or(Value):
    __slots__ = _fields = ("lhs", "rhs")


class Implies(Value):
    __slots__ = _fields = ("lhs", "rhs")


class BAll(Value):
    __slots__ = _fields = ("var", "bound", "body")


class BEx(Value):
    __slots__ = _fields = ("var", "bound", "body")


class All(Value):
    __slots__ = _fields = ("var", "body")


class Ex(Value):
    __slots__ = _fields = ("var", "body")


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
        kind, size, _, _ = type_view(v.index_type)
        if kind != "fin":
            raise IllScopedFormulaError(
                "the derived-family index must be a numeral")
        return f0_vcode(size)
    raise TypeError(t)


class CheckBudget(Value):
    """The truncation, how many antecedent witnesses an implication is
    tried on, and the sets an unbounded universal is refuted from.  The
    defaults are class attributes, so the command line reads its
    --implication-bound default here."""

    _fields = ("truncation", "implication_bound", "witness_family")
    truncation = DEFAULT_TRUNCATION
    implication_bound = 8
    witness_family = ()

    def __init__(self, truncation: Truncation = truncation,
                 implication_bound: int = implication_bound,
                 witness_family: tuple[VCode, ...] = witness_family):
        if implication_bound < 0:
            raise ValueError(
                f"implication_bound must not be negative, got {implication_bound}")
        if not all(isinstance(alpha, VCode) for alpha in witness_family):
            raise ValueError("witness_family must hold VCode set codes")
        setfield(self, "truncation", truncation)
        setfield(self, "implication_bound", implication_bound)
        setfield(self, "witness_family", witness_family)


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
    return _check(e, phi, dict(env or {}), budget or CheckBudget())


def _check(e: Code, phi: Formula, env: dict, budget: CheckBudget) -> Verdict:
    tr = budget.truncation

    if isinstance(phi, (Eq, In)):
        a = resolve_term(phi.x, env)
        b = resolve_term(phi.y, env)
        if isinstance(phi, Eq):
            return din(e, eq_code(a.code, b.code), tr)
        return _check_pair(e, b, tr, "element map did not converge on the index",
                           lambda u, elem: din(u, eq_code(a.code, elem), tr))

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
        v = _run_on_each(
            e, candidates, tr, "consequent checks undecided on some antecedent realisers",
            lambda d, ed: _check(ed, phi.rhs, env, budget))
        if v.realized:
            return Verdict("realized", "relative to the searched antecedent realisers")
        return v

    if isinstance(phi, BAll):
        bound = resolve_term(phi.bound, env)
        members, complete = enumerate_index(bound.index_type, tr)

        def instance(i: Code, ei: Code) -> Verdict:
            elem = _family_at(bound.elem_map, i, tr, False)
            if elem is None:
                return unknown("element map did not converge on the index")
            return _check(ei, phi.body, {**env, phi.var: VCode(elem)}, budget)

        v = _run_on_each(e, members, tr, "some instances undecided", instance)
        if v.realized and not complete:
            return Verdict("realized", "relative to the index enumeration bound")
        return v

    if isinstance(phi, BEx):
        bound = resolve_term(phi.bound, env)
        return _check_pair(
            e, bound, tr, "element map did not converge on the witness index",
            lambda u, elem: _check(u, phi.body, {**env, phi.var: VCode(elem)}, budget))

    if isinstance(phi, All):
        note = "unbounded universal: checked relative to the witness family only"
        family = [alpha.code for alpha in budget.witness_family]
        v = _run_on_each(e, family, tr, note, lambda a, ea: _check(
            ea, phi.body, {**env, phi.var: VCode(a)}, budget))
        return REFUTED if v.refuted else unknown(note)

    if isinstance(phi, Ex):
        w0, w1 = unpair(e)
        v_in = check_in_V(w0, tr)
        if v_in.refuted:
            return REFUTED
        return _join(v_in, _check(w1, phi.body, {**env, phi.var: VCode(w0)}, budget))

    raise TypeError(phi)


def _check_pair(e: Code, bound: VCode, tr: Truncation, unformed: str,
                check_member) -> Verdict:
    """Evidence pair(k, u) naming a member: k must index bound, and
    check_member(u, elem) checks u against the k-th member; unformed is
    the note when the element map does not converge on k."""
    k0, u = unpair(e)
    v_idx = din(k0, bound.index_type, tr)
    if v_idx.refuted:
        return REFUTED
    elem = _family_at(bound.elem_map, k0, tr, False)
    if elem is None:
        return unknown(unformed)
    return _join(v_idx, check_member(u, elem))


def _run_on_each(e: Code, cases, tr: Truncation, undecided: str, check_case) -> Verdict:
    """Evidence e run on each case c, its value ec checked by
    check_case(c, ec).  e runs first, so e diverging refutes even where
    the case's element cannot be formed: the clauses demand convergence
    on every case.  Realized when every case is, else unknown(undecided)."""
    decided = True
    for c in cases:
        try:
            ec = apply_raw(e, c, tr.fuel)
        except OutOfFuelError:
            decided = False
            continue
        except DivergedError:
            return REFUTED
        v = check_case(c, ec)
        if v.refuted:
            return REFUTED
        decided = decided and v.realized
    return REALIZED if decided else unknown(undecided)


# ---------------------------------------------------------------------------
# Witness synthesis


@_depth_memo(60, (None, False))
def _synth_eq(a: Code, b: Code, tr: Truncation,
              depth: int) -> tuple[Code | None, bool]:
    """(witness, decisive) for a = b.  Past the two type-level tests the
    search is the two subset tables, which it builds over finite index
    types only: a set indexed otherwise is left undecided."""
    eq = eq_code(a, b)
    if din(rom.IOTA, eq, tr).realized:
        return (rom.IOTA, True)
    if provably_empty(eq, tr):
        return (None, True)
    w1, d1 = _synth_subeq(a, b, tr, depth + 1)
    w2, d2 = _synth_subeq(b, a, tr, depth + 1)
    if w1 is not None and w2 is not None:
        return (pair(w1, w2), True)
    if (w1 is None and d1) or (w2 is None and d2):
        return (None, True)
    return (None, False)


# no guard of its own: _synth_eq's bounds it
def _synth_subeq(a: Code, b: Code, tr: Truncation,
                 depth: int) -> tuple[Code | None, bool]:
    """A table sending each member of a to an equal member of b;
    (witness, decisive) as for _synth_eq.  A member with no match is a
    decisive no only if every comparison made was decisive, those passed
    over before an earlier member's match among them."""
    kind_a, size_a, _, _ = type_view(index_type_of(a))
    kind_b, size_b, _, _ = type_view(index_type_of(b))
    if kind_a != "fin" or kind_b != "fin" or max(size_a, size_b) > MAX_FIN_INDEX:
        return (None, False)
    undecided = []  # a flag per comparison: it found neither a witness nor a decisive no

    def equal(ak: Code, by: Code) -> tuple[Code | None, bool]:
        w, d = _synth_eq(ak, by, tr, depth + 1)
        undecided.append(w is None and not d)
        return (w, d)

    w, d = _table(unpair1(a), (range(size_a), True), tr, lambda ak: _first_witness(
        unpair1(b), (range(size_b), True), tr, lambda by: equal(ak, by)))
    return (None, False) if w is None and any(undecided) else (w, d)


def _first_witness(family: Code, listing, tr: Truncation, search) -> tuple[Code | None, bool]:
    """(pair(k, w), True) for the first listed index k whose member has a
    witness w by search; else (None, decisive), decisive when the listing
    is complete and every member converged and decisively has none."""
    members, complete = listing
    decisive = bool(complete)
    for k in members:
        elem = _family_at(family, k, tr, False)
        if elem is None:
            decisive = False
            continue
        w, d = search(elem)
        if w is not None:
            return (pair(k, w), True)
        decisive = decisive and d
    return (None, decisive)


def _table(family: Code, listing, tr: Truncation, search) -> tuple[Code | None, bool]:
    """A table sending each listed index to its member's witness by search;
    (None, False) unless the listing is complete and every member
    converges, and the first member without one answers for the table."""
    members, complete = listing
    if not complete:
        return (None, False)
    table: list[Code] = []
    for k in members:
        elem = _family_at(family, k, tr, False)
        if elem is None:
            return (None, False)
        w, d = search(elem)
        if w is None:
            return (None, d)
        table.append(w)
    return (mkapp(rom.ELEMOF, seq_encode(table)) if table else 0, True)


def find_realiser(phi: Formula, env: Mapping[str, VCode] | None = None,
                  budget: CheckBudget | None = None) -> tuple[Code | None, bool]:
    """Search for evidence; the flag marks a decisive no-witness answer.

    Returns (witness, True) when one is found, (None, True) when no
    number can realize the formula, and (None, False) when the search
    ran out of structure to exploit.
    """
    return _find(phi, dict(env or {}), budget or CheckBudget(), 0)


def _find(phi: Formula, env: dict, budget: CheckBudget, depth: int) -> tuple[Code | None, bool]:
    tr = budget.truncation
    if depth > 40:
        return (None, False)

    if isinstance(phi, (Eq, In)):
        a = resolve_term(phi.x, env)
        b = resolve_term(phi.y, env)
        if isinstance(phi, Eq):
            return _synth_eq(a.code, b.code, tr, depth)
        return _first_witness(b.elem_map, enumerate_index(b.index_type, tr), tr,
                              lambda elem: _synth_eq(a.code, elem, tr, depth + 1))

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

    if isinstance(phi, (BAll, BEx)):
        bound = resolve_term(phi.bound, env)
        walk = _table if isinstance(phi, BAll) else _first_witness
        return walk(bound.elem_map, enumerate_index(bound.index_type, tr), tr, lambda elem: _find(
            phi.body, {**env, phi.var: VCode(elem)}, budget, depth + 1))

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


def denote(v, tr: Truncation | None = None) -> HFSet | None:
    """The hereditarily finite set a finite-indexed code stands for."""
    return _denote(as_code(v), tr or Truncation(), 0)


def _denote(code: Code, tr: Truncation, depth: int) -> HFSet | None:
    if depth > 40:
        return None
    kind, size, _, _ = type_view(index_type_of(code))
    if kind != "fin" or size > MAX_FIN_INDEX:
        return None
    out = []
    for k in range(size):
        ek = _family_at(unpair1(code), k, tr, False)
        if ek is None:
            return None
        d = _denote(ek, tr, depth + 1)
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
