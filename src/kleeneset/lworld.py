"""Hereditarily finite sets, definable subsets, stages, and stage coding.

Everything here is classical and finite: sets are interned so that
extensional equality is object identity, definable subsets of a finite
structure are computed both by brute-force formula enumeration and by
the powerset shortcut, and a set is coded as the edge set of the
membership digraph on its transitive closure, with decoding by
well-founded recursion.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .pairing import pair, unpair

__all__ = [
    "HFSet", "EMPTY", "hf", "hf_nat", "is_transitive", "is_ordinal",
    "parse_hf", "print_hf",
    "FOTerm", "FOVar", "FOParam", "FOFormula", "eval_fo", "enumerate_formulas",
    "def_subsets", "l_stage", "ordinals_of", "alpha_star",
    "SigmaCode", "transitive_closure", "encode_sigma", "decode_sigma",
    "IllFoundedCodeError",
]


class HFSet:
    """A hereditarily finite set; interned, so == is identity.

    Sets are ordered canonically (rank, then size, then children
    lexicographically).  Two distinct sets of equal rank and size differ
    in their first non-identical sorted child, so a comparison walks one
    path down the DAG, never the exponentially larger tree.
    """

    __slots__ = ("elems", "_rank", "_sorted", "_ordinal")
    _intern: dict[frozenset, "HFSet"] = {}

    def __new__(cls, elems: Iterable["HFSet"] = ()):
        fs = frozenset(elems)
        got = cls._intern.get(fs)
        if got is not None:
            return got
        self = cls._intern[fs] = object.__new__(cls)
        self.elems = fs
        self._rank = 0 if not fs else 1 + max(e._rank for e in fs)
        self._sorted = None
        self._ordinal = None
        return self

    def sorted_children(self) -> tuple["HFSet", ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self.elems, key=_cmp_key))
        return self._sorted

    def __iter__(self):
        return iter(self.sorted_children())

    def __len__(self) -> int:
        return len(self.elems)

    def __contains__(self, x) -> bool:
        return x in self.elems

    def __lt__(self, other) -> bool:
        return _cmp(self, other) < 0

    def __repr__(self) -> str:
        if self._rank <= 4:
            return print_hf(self)
        return f"<hf set rank {self._rank}, {len(self.elems)} elements>"

    @property
    def rank(self) -> int:
        return self._rank


def _cmp(a: "HFSet", b: "HFSet") -> int:
    while a is not b:
        if a._rank != b._rank:
            return -1 if a._rank < b._rank else 1
        if len(a.elems) != len(b.elems):
            return -1 if len(a.elems) < len(b.elems) else 1
        for x, y in zip(a.sorted_children(), b.sorted_children()):
            if x is not y:
                a, b = x, y  # the first difference decides
                break
        else:  # pragma: no cover
            raise AssertionError("distinct interned sets share their children")
    return 0


_cmp_key = functools.cmp_to_key(_cmp)


EMPTY = HFSet()


def hf(*elems: HFSet) -> HFSet:
    return HFSet(elems)


def hf_nat(n: int) -> HFSet:
    out = EMPTY
    for _ in range(n):
        out = HFSet(out.elems | {out})
    return out


def is_transitive(x: HFSet) -> bool:
    return all(e.elems <= x.elems for e in x.elems)


def is_ordinal(x: HFSet) -> bool:
    """Hereditarily transitive (the classical finite reading)."""
    if x._ordinal is None:
        x._ordinal = is_transitive(x) and all(is_ordinal(e) for e in x.elems)
    return x._ordinal


def print_hf(x: HFSet) -> str:
    """The set literal, children in canonical order.  Each distinct
    subset is printed once, bottom-up, so no depth exhausts the stack."""
    text: dict[HFSet, str] = {}
    todo = [x]
    while todo:
        y = todo.pop()
        if y in text:
            continue
        pending = [e for e in y.elems if e not in text]
        if pending:
            todo += [y] + pending
        else:
            text[y] = "{" + ",".join(text[e] for e in y) + "}"
    return text[x]


_MAX_NESTING = 100  # the s-expression reader's bound


def parse_hf(text: str) -> HFSet:
    """Read a set literal such as {{},{{}}}; nesting deeper than
    _MAX_NESTING braces is rejected, so no recursion exhausts the stack."""
    text = "".join(text.split())
    pos = 0

    def parse(depth: int) -> HFSet:
        nonlocal pos
        if pos >= len(text) or text[pos] != "{":
            raise ValueError(f"expected '{{' at position {pos}")
        if depth > _MAX_NESTING:
            raise ValueError(f"set literal nested deeper than {_MAX_NESTING} at position {pos}")
        pos += 1
        elems = []
        while True:
            if pos >= len(text):
                raise ValueError("unterminated set literal")
            if text[pos] == "}":
                pos += 1
                return HFSet(elems)
            if text[pos] == ",":
                pos += 1
                continue
            elems.append(parse(depth + 1))

    result = parse(1)
    if pos != len(text):
        raise ValueError(f"trailing input at position {pos}")
    return result


# ---------------------------------------------------------------------------
# First-order formulas over the membership signature


@dataclass(frozen=True, slots=True)
class FOVar:
    name: str


@dataclass(frozen=True, slots=True)
class FOParam:
    value: HFSet


FOTerm = FOVar | FOParam


@dataclass(frozen=True, slots=True)
class FOFormula:
    kind: str  # "in" | "eq" | "not" | "and" | "or" | "all" | "ex"
    parts: tuple = ()

    def __repr__(self) -> str:  # compact; used in diagnostics only
        return f"FO({self.kind}, {self.parts})"


def fo_in(a: FOTerm, b: FOTerm) -> FOFormula:
    return FOFormula("in", (a, b))


def fo_eq(a: FOTerm, b: FOTerm) -> FOFormula:
    return FOFormula("eq", (a, b))


def fo_not(p: FOFormula) -> FOFormula:
    return FOFormula("not", (p,))


def fo_and(p: FOFormula, q: FOFormula) -> FOFormula:
    return FOFormula("and", (p, q))


def fo_or(p: FOFormula, q: FOFormula) -> FOFormula:
    return FOFormula("or", (p, q))


def fo_all(v: str, p: FOFormula) -> FOFormula:
    return FOFormula("all", (v, p))


def fo_ex(v: str, p: FOFormula) -> FOFormula:
    return FOFormula("ex", (v, p))


def eval_fo(phi: FOFormula, domain: Sequence[HFSet], env: dict[str, HFSet]) -> bool:
    """Truth in the structure (domain; membership), quantifiers bounded."""
    k = phi.kind
    if k in ("in", "eq"):
        a, b = phi.parts
        va = env[a.name] if isinstance(a, FOVar) else a.value
        vb = env[b.name] if isinstance(b, FOVar) else b.value
        return (va in vb.elems) if k == "in" else (va is vb)
    if k == "not":
        return not eval_fo(phi.parts[0], domain, env)
    if k == "and":
        return eval_fo(phi.parts[0], domain, env) and eval_fo(phi.parts[1], domain, env)
    if k == "or":
        return eval_fo(phi.parts[0], domain, env) or eval_fo(phi.parts[1], domain, env)
    if k == "all":
        v, body = phi.parts
        return all(eval_fo(body, domain, {**env, v: d}) for d in domain)
    if k == "ex":
        v, body = phi.parts
        return any(eval_fo(body, domain, {**env, v: d}) for d in domain)
    raise ValueError(k)


def enumerate_formulas(domain: Sequence[HFSet], max_size: int,
                       free_var: str = "x"):
    """All membership-signature formulas in one free variable up to a size.

    Terms are the free variable, one quantified variable, and parameters
    from the domain.  Size counts connective and atom nodes.
    """
    terms_outer: list[FOTerm] = [FOVar(free_var)] + [FOParam(d) for d in domain]
    terms_inner = terms_outer + [FOVar("y")]

    def atoms(terms):
        for a in terms:
            for b in terms:
                yield fo_in(a, b)
                yield fo_eq(a, b)

    by_size: dict[tuple[int, bool], list[FOFormula]] = {}

    def formulas(size: int, inner: bool) -> list[FOFormula]:
        key = (size, inner)
        got = by_size.get(key)
        if got is not None:
            return got
        out: list[FOFormula] = []
        if size >= 1:
            out.extend(atoms(terms_inner if inner else terms_outer))
        if size >= 2:
            for p in formulas(size - 1, inner):
                out.append(fo_not(p))
            if not inner:
                for p in formulas(size - 1, True):
                    out.append(fo_all("y", p))
                    out.append(fo_ex("y", p))
        if size >= 3:
            for s1 in range(1, size - 1):
                for p in formulas(s1, inner):
                    for q in formulas(size - 1 - s1, inner):
                        out.append(fo_and(p, q))
                        out.append(fo_or(p, q))
        by_size[key] = out
        return out

    seen = set()
    for size in range(1, max_size + 1):
        for phi in formulas(size, False):
            if phi not in seen:
                seen.add(phi)
                yield phi


def def_subsets(domain: Iterable[HFSet], route: str = "formulas",
                max_size: int = 5, domain_bound: int = 6) -> set[HFSet]:
    """The definable subsets of a finite membership structure, as sets.

    The formula route enumerates first-order formulas with parameters and
    collects the subsets they carve out; the powerset route returns every
    subset (each one is definable by a disjunction of equalities with
    parameters, so the routes agree on finite structures).
    """
    dom = sorted(set(domain))
    if route == "powerset":
        out = set()
        for k in range(len(dom) + 1):
            for combo in itertools.combinations(dom, k):
                out.add(HFSet(combo))
        return out
    if route != "formulas":
        raise ValueError(route)
    if len(dom) > domain_bound:
        raise ValueError(
            f"structure of size {len(dom)} exceeds the brute-force bound "
            f"{domain_bound}; use route='powerset'")
    found: set[HFSet] = set()
    full = 2 ** len(dom)
    for phi in enumerate_formulas(dom, max_size):
        subset = HFSet(a for a in dom if eval_fo(phi, dom, {"x": a}))
        found.add(subset)
        if len(found) == full:
            break
    return found


def l_stage(n: int, stage_bound: int = 5) -> set[HFSet]:
    """The n-th stage: union over m < n of the definable subsets of
    stage m (powerset route; the routes are compared in the tests).

    Stage five already holds 2**16 sets and the growth is a tower, so
    the bound is not negotiable in practice."""
    if n > stage_bound:
        raise ValueError(f"stage {n} exceeds the bound {stage_bound}")
    stages: list[set[HFSet]] = [set()]
    for m in range(n):
        nxt: set[HFSet] = set()
        for k in range(m + 1):
            nxt |= def_subsets(stages[k], route="powerset")
        stages.append(nxt)
    return stages[n]


def ordinals_of(s: Iterable[HFSet]) -> set[HFSet]:
    return {x for x in s if is_ordinal(x)}


def alpha_star(a: HFSet) -> HFSet:
    """Union of the double successors of the members of a finite ordinal."""
    if not is_ordinal(a):
        raise ValueError(f"{print_hf(a)} is not an ordinal")
    out: set[HFSet] = set()
    for b in a.elems:
        b1 = HFSet(b.elems | {b})
        b2 = HFSet(b1.elems | {b1})
        out |= b2.elems
    return HFSet(out)


def hf_union(a: HFSet) -> HFSet:
    out: set[HFSet] = set()
    for b in a.elems:
        out |= b.elems
    return HFSet(out)


# ---------------------------------------------------------------------------
# Stage coding: the membership digraph of the transitive closure


@dataclass(frozen=True, slots=True)
class SigmaCode:
    """Edge-set coding of a set: u enumerates the transitive closure,
    sigma holds pair(member-index, container-index) for every edge."""

    u: frozenset[int]
    sigma: frozenset[int]
    root: int = 0


class IllFoundedCodeError(ValueError):
    """The induced membership digraph has a cycle."""


def transitive_closure(s: HFSet) -> set[HFSet]:
    """trcl({s}): s together with everything reachable below it."""
    seen: set[HFSet] = set()
    queue = [s]
    while queue:
        x = queue.pop()
        if x in seen:
            continue
        seen.add(x)
        queue.extend(x.elems)
    return seen


def encode_sigma(s: HFSet, enumeration: Sequence[HFSet] | None = None) -> SigmaCode:
    """Code s through a surjection from an initial segment of the
    naturals onto its transitive closure, with 0 naming s itself.

    The default enumeration is breadth-first from s in canonical order;
    a caller-supplied one must be surjective and send 0 to s.
    """
    closure = transitive_closure(s)
    if enumeration is None:
        order: list[HFSet] = []
        seen: set[HFSet] = set()
        queue = [s]
        while queue:
            x = queue.pop(0)
            if x in seen:
                continue
            seen.add(x)
            order.append(x)
            queue.extend(iter(x))
    else:
        order = list(enumeration)
        if not order or order[0] is not s:
            raise ValueError("enumeration must map 0 to the coded set")
        if set(order) != closure:
            raise ValueError("enumeration must be onto the transitive closure")
    sigma = set()
    for i, x in enumerate(order):
        for j, y in enumerate(order):
            if x in y.elems:
                code = pair(i, j)
                assert isinstance(code, int)
                sigma.add(code)
    return SigmaCode(frozenset(range(len(order))), frozenset(sigma), 0)


def decode_sigma(code: SigmaCode) -> HFSet:
    """Rebuild the coded set by well-founded recursion along the
    membership digraph, run on an explicit stack of (index, members
    still to visit), so no depth exhausts the host stack."""
    members: dict[int, list[int]] = {n: [] for n in code.u}
    for edge in code.sigma:
        m, n = unpair(edge)
        if not (isinstance(m, int) and isinstance(n, int)):
            raise ValueError("sigma contains a non-pair code")
        if m not in code.u or n not in code.u:
            raise ValueError(f"edge {edge} leaves the index set")
        members[n].append(m)
    if code.root not in code.u:
        raise ValueError("root index outside the index set")
    done: dict[int, HFSet] = {}
    on_stack = {code.root}
    frames = [(code.root, iter(members[code.root]))]
    while frames:
        n, rest = frames[-1]
        for m in rest:
            if m in done:
                continue
            if m in on_stack:
                raise IllFoundedCodeError(f"index {m} depends on itself")
            on_stack.add(m)
            frames.append((m, iter(members[m])))
            break
        else:
            frames.pop()
            on_stack.remove(n)
            done[n] = HFSet(done[m] for m in members[n])
    return done[code.root]
