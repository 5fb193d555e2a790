"""Hereditarily finite sets, definable subsets, stages, and stage coding.

Everything here is classical and finite: sets are interned so that
extensional equality is object identity, definable subsets of a finite
structure are computed both by formula enumeration up to equal
denotation and by the powerset shortcut, and a set is coded as the edge
set of the membership digraph on its transitive closure, with decoding
by well-founded recursion.  The powerset route interns its subsets with
the cyclic garbage collector paused, since interned sets are acyclic
(each member has a smaller rank), and at the end of the pause moves them
to the collector's oldest generation, since interned sets are never
garbage; `def_subsets` gives the argument.
"""

from __future__ import annotations

import functools
import gc
import itertools
from collections import deque
from collections.abc import Iterable, Sequence
from contextlib import contextmanager

from ._value import Value
from .pairing import pair, unpair

__all__ = [
    "HFSet", "EMPTY", "hf_nat", "is_transitive", "is_ordinal",
    "parse_hf", "print_hf", "print_hfs",
    "def_subsets", "l_stage", "ordinals_of", "alpha_star",
    "SigmaCode", "transitive_closure", "encode_sigma", "decode_sigma",
    "IllFoundedCodeError",
]


class HFSet:
    """A hereditarily finite set; interned, so == is identity.

    Sets are ordered canonically (rank, then size, then children
    lexicographically).  Two distinct sets of equal rank and size differ
    in their first non-identical sorted child, so a comparison walks one
    path down the DAG, never the exponentially larger tree.  The intern
    table stays for the whole process: a set is itself, whatever the
    library table holds, so terms.rewind leaves it alone.
    """

    __slots__ = ("elems", "_rank", "_sorted", "_ordinal")
    _intern: dict[frozenset, "HFSet"] = {}

    def __new__(cls, elems: Iterable["HFSet"] = ()):
        fs = frozenset(elems)
        got = cls._intern.get(fs)
        if got is not None:
            return got
        return _interned(fs, 1 + max([e._rank for e in fs]) if fs else 0)

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


def _interned(fs: frozenset, rank: int) -> HFSet:
    """The set with members fs, made only if it is not interned yet.  The
    caller vouches for rank; it is stored on a miss and never recomputed."""
    got = HFSet._intern.get(fs)
    if got is None:
        got = HFSet._intern[fs] = object.__new__(HFSet)
        got.elems = fs
        got._rank = rank
        got._sorted = None
        got._ordinal = None
    return got


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


def hf_nat(n: int) -> HFSet:
    if n < 0:
        raise ValueError(f"no natural {n}")
    out = EMPTY
    for _ in range(n):
        out = HFSet(out.elems | {out})
    return out


def is_transitive(x: HFSet) -> bool:
    return all(e.elems <= x.elems for e in x.elems)


def is_ordinal(x: HFSet) -> bool:
    """Hereditarily transitive (the classical finite reading).

    The finite ordinal n has exactly the members 0, ..., n - 1, so its
    rank equals its size, n; a set whose size differs from its rank is
    rejected before its members are walked."""
    if len(x.elems) != x._rank:
        return False
    if x._ordinal is None:
        x._ordinal = is_transitive(x) and all(is_ordinal(e) for e in x.elems)
    return x._ordinal


def print_hf(x: HFSet) -> str:
    """The set literal, children in canonical order."""
    return print_hfs([x])[0]


MAX_TEXT = 1 << 24  # the longest set literal print_hfs writes


def print_hfs(xs: Sequence[HFSet]) -> list[str]:
    """The set literals of xs, in order.  Each distinct subset is printed
    once for the whole list, bottom-up, so no depth exhausts the stack.
    A literal longer than MAX_TEXT characters is a ValueError: sharing
    lets a set of n subsets print in 2**n characters."""
    text: dict[HFSet, str] = {}
    todo = list(xs)
    while todo:
        y = todo.pop()
        if y in text:
            continue
        pending = [e for e in y.elems if e not in text]
        if pending:
            todo += [y] + pending
        elif sum(len(text[e]) + 1 for e in y.elems) + 1 > MAX_TEXT:
            raise ValueError(f"a set literal longer than {MAX_TEXT} characters is not printed")
        else:
            text[y] = "{" + ",".join(text[e] for e in y) + "}"
    return [text[x] for x in xs]


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
# Definable subsets: formulas counted by what they mean
#
# A formula in the free variable x denotes an n-bit mask over the domain
# (bit i: it holds of dom[i]); one in x and the bound y denotes an n*n-bit
# mask (bit i*n + j: it holds of x = dom[i], y = dom[j]).


def _atom_masks(terms: list[list[HFSet]]) -> set[int]:
    """The masks of `a in b` and `a = b` for every pair of terms, each
    term given by its value at every environment."""
    out = set()
    for a in terms:
        for b in terms:
            out.add(sum(1 << k for k, (u, v) in enumerate(zip(a, b)) if u in v.elems))
            out.add(sum(1 << k for k, (u, v) in enumerate(zip(a, b)) if u is v))
    return out


def _connect(table: list[set[int]], atoms: set[int], full: int, size: int) -> set[int]:
    """The masks of the formulas of exactly `size` nodes: the atoms, and
    not, and, or over the smaller masks in table."""
    out = set(atoms)
    out.update(full ^ p for p in table[size - 1])
    for s1 in range(1, size - 1):
        for p in table[s1]:
            for q in table[size - 1 - s1]:
                out.add(p & q)
                out.add(p | q)
    return out


def _definable_masks(dom: list[HFSet], max_size: int) -> set[int]:
    """The masks of the formulas in free x of 1 to max_size nodes, with
    parameters from dom and quantifiers over dom binding y."""
    n = len(dom)
    row = (1 << n) - 1
    outer_atoms = _atom_masks([dom] + [[p] * n for p in dom])
    inner_atoms = _atom_masks([[x for x in dom for _ in dom], dom * n]
                              + [[p] * (n * n) for p in dom])
    outer: list[set[int]] = [set()]
    inner: list[set[int]] = [set()]
    for size in range(1, max_size + 1):
        masks = _connect(outer, outer_atoms, row, size)
        for body in inner[size - 1]:  # all y / ex y
            rows = [body >> (i * n) & row for i in range(n)]
            masks.add(sum(1 << i for i, r in enumerate(rows) if r == row))
            masks.add(sum(1 << i for i, r in enumerate(rows) if r))
        outer.append(masks)
        if size < max_size:
            inner.append(_connect(inner, inner_atoms, (1 << (n * n)) - 1, size))
    return set().union(*outer)


_DOMAIN_BOUND = 6  # the formula route's largest domain
_FORMULA_SIZE = 5  # and its largest formula, in nodes
_POWERSET_BOUND = 16  # the powerset route's largest domain: |L_4|, which l_stage(5) takes


@contextmanager
def _collector_paused():
    """Switch the cyclic garbage collector off for the body, and back on
    after it only if it was on before.  On the way out, unless the process
    has frozen objects, every tracked object moves to the oldest generation
    (def_subsets gives the argument)."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if gc.get_freeze_count() == 0:
            gc.freeze()
            gc.unfreeze()
        if was_on:
            gc.enable()


def def_subsets(domain: Iterable[HFSet], route: str = "formulas") -> set[HFSet]:
    """The definable subsets of a finite membership structure, as sets.

    The formula route enumerates the first-order formulas in x of 1 to
    _FORMULA_SIZE nodes up to equal denotation.  A formula is an atom `a in
    b` or `a = b` over x, y and parameters from the domain, or not, and, or
    of formulas, or all y / ex y of a formula in x and y.  Its denotation
    is the set of values of x (and y) at which it holds, kept as a bit
    mask; for each size only the distinct denotations are kept, never a
    formula.  The truth of a compound formula at a value depends only on
    the truth of its parts there, so the denotations built from
    denotations are exactly those of the formulas, and the subsets they
    name are exactly the subsets the formulas carve out one at a time.

    The powerset route returns every subset (each one is definable by a
    disjunction of equalities with parameters, so the routes agree on
    finite structures once _FORMULA_SIZE allows it).  The domain is sorted
    canonically, rank first, so the last member of each combination has
    the largest rank, and the subset's rank is one more than that.  A
    domain of more than _POWERSET_BOUND members is a ValueError: its
    2**17 subsets and more are not built.

    Its loop runs with the cyclic garbage collector paused, which only
    saves the collector's time.  A set made here refers only to its
    frozenset of members, and each member has a strictly smaller rank, so
    the objects made here cannot form a cycle.  The loop runs no user code
    (the sort, which compares through _cmp, runs before the pause), and
    the workbench starts no threads, so a collection during the loop
    could free nothing.  Pausing changes no set, no rank, no iteration
    result and no memory bound.

    When the pause ends, gc.freeze() then gc.unfreeze() moves every object
    the collector tracks into its oldest generation; both only splice
    lists.  The sets made here are interned for the whole process, so
    they are never garbage, and the collection the pause left due would
    walk them (about 131,000 objects for L_5) to free nothing.  The move
    frees no object and makes none, and the intern table keeps these sets
    alive whichever generation holds them, so it changes no set, no rank,
    no iteration result and no memory bound of the route.  It also
    promotes a caller's young objects early, as if they had survived two
    collections: with the collector on, at most threshold0 objects of the
    youngest generation and the survivors of fewer than threshold1 young
    collections.  Garbage among them waits for the next full collection
    instead of a young one.  gc.unfreeze() would also thaw what a caller
    froze, so the move is skipped while anything is frozen, and the
    freeze count is the same after every call as before it.
    """
    dom = sorted(set(domain))
    if route == "powerset":
        if len(dom) > _POWERSET_BOUND:
            raise ValueError(
                f"structure of size {len(dom)} exceeds the powerset bound {_POWERSET_BOUND}")
        out = {EMPTY}
        with _collector_paused():
            for k in range(1, len(dom) + 1):
                for combo in itertools.combinations(dom, k):
                    out.add(_interned(frozenset(combo), combo[-1]._rank + 1))
        return out
    if route != "formulas":
        raise ValueError(route)
    if len(dom) > _DOMAIN_BOUND:
        raise ValueError(
            f"structure of size {len(dom)} exceeds the brute-force bound "
            f"{_DOMAIN_BOUND}; use route='powerset'")
    return {HFSet(d for i, d in enumerate(dom) if mask >> i & 1)
            for mask in _definable_masks(dom, _FORMULA_SIZE)}


_STAGE_BOUND = 5


def l_stage(n: int) -> set[HFSet]:
    """The n-th stage: union over m < n of the definable subsets of
    stage m (powerset route; the routes are compared in the tests).

    Each stage is transitive, so its members are subsets of it and lie
    in the next stage: the stages grow.  The powerset of an earlier
    stage therefore lies inside the powerset of the last one, so the
    union is that powerset alone, and each stage is built from the
    stage before it.

    Stage five already holds 2**16 sets and the growth is a tower, so
    the bound is not negotiable in practice."""
    if n < 0:
        raise ValueError(f"no stage {n}")
    if n > _STAGE_BOUND:
        raise ValueError(f"stage {n} exceeds the bound {_STAGE_BOUND}")
    stage: set[HFSet] = set()
    for _ in range(n):
        stage = def_subsets(stage, route="powerset")
    return stage


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


class SigmaCode(Value):
    """Edge-set coding of a set: u enumerates the transitive closure with
    index 0 naming the coded set itself, and sigma holds
    pair(member-index, container-index) for every edge."""

    __slots__ = _fields = ("u", "sigma")


class IllFoundedCodeError(ValueError):
    """The induced membership digraph has a cycle."""


def _closure_order(s: HFSet) -> list[HFSet]:
    """trcl({s}) breadth-first from s, children in canonical order."""
    order: list[HFSet] = []
    seen: set[HFSet] = set()
    queue = deque([s])
    while queue:
        x = queue.popleft()
        if x not in seen:
            seen.add(x)
            order.append(x)
            queue.extend(x)
    return order


def transitive_closure(s: HFSet) -> set[HFSet]:
    """trcl({s}): s together with everything reachable below it, the
    members of the breadth-first walk that encode_sigma enumerates."""
    return set(_closure_order(s))


def encode_sigma(s: HFSet, enumeration: Sequence[HFSet] | None = None) -> SigmaCode:
    """Code s through a surjection from an initial segment of the
    naturals onto its transitive closure, with 0 naming s itself.

    The default enumeration is breadth-first from s in canonical order;
    a caller-supplied one must be surjective and send 0 to s.
    """
    if enumeration is None:
        order = _closure_order(s)
    else:
        order = list(enumeration)
        if not order or order[0] is not s:
            raise ValueError("enumeration must map 0 to the coded set")
        if set(order) != transitive_closure(s):
            raise ValueError("enumeration must be onto the transitive closure")
    indices: dict[HFSet, list[int]] = {}  # a repeated set has several
    for i, x in enumerate(order):
        indices.setdefault(x, []).append(i)
    sigma = set()
    for j, y in enumerate(order):
        for x in y.elems:
            for i in indices[x]:
                code = pair(i, j)
                assert isinstance(code, int)
                sigma.add(code)
    return SigmaCode(frozenset(range(len(order))), frozenset(sigma))


def decode_sigma(code: SigmaCode) -> HFSet:
    """Rebuild the set coded at index 0 by well-founded recursion along
    the membership digraph, run on an explicit stack of (index, members
    still to visit), so no depth exhausts the host stack."""
    members: dict[int, list[int]] = {n: [] for n in code.u}
    for edge in code.sigma:
        m, n = unpair(edge)
        if not (isinstance(m, int) and isinstance(n, int)):
            raise ValueError("sigma contains a non-pair code")
        if m not in code.u or n not in code.u:
            raise ValueError(f"edge {edge} leaves the index set")
        members[n].append(m)
    if 0 not in code.u:
        raise ValueError("root index outside the index set")
    done: dict[int, HFSet] = {}
    on_stack = {0}
    frames = [(0, iter(members[0]))]
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
    return done[0]
