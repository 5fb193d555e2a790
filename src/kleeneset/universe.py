"""Type codes and the three-valued membership relations.

A type code is read through the pairing function:

  pair(0, n)          the finite type with n elements
  pair(1, 0)          the type of naturals
  pair(1, 1)          the distinguished type (membership delegated to a
                      configured set of sequence codes, see diagonal)
  pair(2, pair(n, e)) dependent sum over index type n with family e
  pair(3, pair(n, e)) dependent product over index type n with family e

din decides "k is a member of t" as far as the truncation allows and
answers Realized / Refuted / Unknown.  Realized and Refuted are stable:
growing the truncation can only turn Unknown into one of them, never
flip them.  Membership in a product over an infinite index type is never
Realized (only refutable), which keeps every Realized verdict sound.

check_in_U and check_in_V read one formation rule, as sets are indexed
families: an index type in U plus a family converging to a good member
(a type, or a set) at every index.

Every recursive decider here and in realizability stops at a depth guard
and then answers as if undecided.  Such an answer depends on the depth of
the call, so one rule keeps it out of the memos: each guard that fires
bumps GUARD_HITS, and a memoized decider stores an answer only when the
count did not move while it computed that answer.  check_in_U and
check_in_V store with each answer its height, how far below its own depth
the computation reached (a memo hit counts by its stored height), and
reuse it at depth d only when d + height <= _MAX_DEPTH: each one's only
depth-dependent children are calls of itself, so the guard then fires
exactly where a cold run would fire it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from typing import Callable

from .machine import (
    DEFAULT_FUEL, DivergedError, OutOfFuelError, apply_raw,
)
from .pairing import Code, pair, unpair
from .terms import table_memo

__all__ = [
    "Verdict", "REALIZED", "REFUTED", "Truncation", "MalformedTypeError",
    "TypeView", "type_view", "din", "check_in_U", "check_in_V",
    "enumerate_index", "provably_empty", "MAX_FIN_INDEX",
    "FIN0", "NAT", "DIST", "fin", "sigma_code", "pi_code",
]


NAT = pair(1, 0)
DIST = pair(1, 1)
FIN0 = pair(0, 0)


def fin(n: int) -> Code:
    return pair(0, n)


def sigma_code(n: Code, e: Code) -> Code:
    return pair(2, pair(n, e))


def pi_code(n: Code, e: Code) -> Code:
    return pair(3, pair(n, e))


@dataclass(frozen=True, slots=True)
class Verdict:
    status: str  # "realized" | "refuted" | "unknown"
    note: str | None = None

    @property
    def realized(self) -> bool:
        return self.status == "realized"

    @property
    def refuted(self) -> bool:
        return self.status == "refuted"

    @property
    def unknown(self) -> bool:
        return self.status == "unknown"

    def qualified(self, note: str) -> "Verdict":
        if self.status == "realized" and self.note is None:
            return Verdict("realized", note)
        return self


REALIZED = Verdict("realized")
REFUTED = Verdict("refuted")


def unknown(reason: str) -> Verdict:
    return Verdict("unknown", reason)


class MalformedTypeError(ValueError):
    """A family diverged on an index it must cover, or a non-type was used."""


@dataclass(frozen=True)
class Truncation:
    """Finite bounds under which infinite base types are approximated.

    segment_bound caps the length of distinguished-set members that get
    enumerated; nat_bound caps enumeration of the naturals; fuel bounds
    every program run.  distinguished, when set, is the distinguished
    type: a built path prefix (`diagonal.SeqCode`) that answers
    `membership(c)`, lists `member_codes(segment_bound)`, gives the code
    of each segment by `segment_code(length)`, and names its contents by
    a `cache_token`, which the verdict caches key on.
    """

    segment_bound: int = 16
    nat_bound: int = 12
    fuel: int = DEFAULT_FUEL
    distinguished: object = None

    def key(self) -> tuple:
        token = None if self.distinguished is None else self.distinguished.cache_token
        return (self.segment_bound, self.nat_bound, self.fuel, token)


DEFAULT_TRUNCATION = Truncation()


@dataclass(frozen=True, slots=True)
class TypeView:
    kind: str  # "fin" | "nat" | "dist" | "sigma" | "pi" | "invalid"
    size: int = 0
    index: Code = 0
    family: Code = 0


def type_view(t: Code) -> TypeView:
    tag, payload = unpair(t)
    if tag == 0:
        if isinstance(payload, int):
            return TypeView("fin", size=payload)
        return TypeView("invalid")
    if tag == 1:
        if payload == 0:
            return TypeView("nat")
        if payload == 1:
            return TypeView("dist")
        return TypeView("invalid")
    if tag == 2 or tag == 3:
        n, e = unpair(payload)
        return TypeView("sigma" if tag == 2 else "pi", index=n, family=e)
    return TypeView("invalid")


def _family_at(e: Code, k: Code, tr: Truncation, on_realized_index: bool) -> Code | None:
    """Apply a family program; None when it does not converge.

    A provably diverging family on an index that is certainly inhabited
    is a malformed type, not an unknown.
    """
    try:
        return apply_raw(e, k, tr.fuel)
    except OutOfFuelError:
        return None
    except DivergedError:
        if on_realized_index:
            raise MalformedTypeError(
                f"family {e!r} diverges on index {k!r}") from None
        return None


_din_memo: dict = table_memo()


def din(k: Code, t: Code, tr: Truncation = DEFAULT_TRUNCATION) -> Verdict:
    """Membership of k in the type t, relative to the truncation."""
    return _din(k, t, tr, 0)


_MAX_DEPTH = 200
_DEPTH_NOTE = "recursion depth bound hit"
# The count of depth-guard hits (see the module docstring), one element
# so that realizability's guards bump the same count.
GUARD_HITS = [0]

# A finite index type with more members than this is not listed: the
# rules that would walk its members answer unknown instead.
MAX_FIN_INDEX = 1 << 16
_TOO_LARGE_NOTE = f"finite index type of more than {MAX_FIN_INDEX} members not enumerated"


def _din(k: Code, t: Code, tr: Truncation, depth: int) -> Verdict:
    memo_key = (k, t, tr.key())
    got = _din_memo.get(memo_key)
    if got is not None:
        return got
    hits = GUARD_HITS[0]
    v = _din_raw(k, t, tr, depth)
    if GUARD_HITS[0] == hits:
        _din_memo[memo_key] = v
    return v


def _din_raw(k: Code, t: Code, tr: Truncation, depth: int) -> Verdict:
    if depth > _MAX_DEPTH:
        GUARD_HITS[0] += 1
        return unknown(_DEPTH_NOTE)
    view = type_view(t)
    if view.kind == "invalid":
        raise MalformedTypeError(f"{t!r} is not a type code")
    if view.kind == "fin":
        return REALIZED if isinstance(k, int) and k < view.size else REFUTED
    if view.kind == "nat":
        return REALIZED
    if view.kind == "dist":
        xs = tr.distinguished
        if xs is None:
            return unknown("no distinguished set configured")
        status = xs.membership(k)
        if status == "member":
            return REALIZED
        if status == "nonmember":
            return REFUTED
        return unknown("beyond the distinguished-set truncation")
    if view.kind == "sigma":
        k0, u = unpair(k)
        v0 = _din(k0, view.index, tr, depth + 1)
        if v0.refuted:
            return REFUTED  # first disjunct of the non-membership rule
        ek = _family_at(view.family, k0, tr, on_realized_index=v0.realized)
        if ek is None:
            return unknown("family application exhausted fuel")
        v1 = _din(u, ek, tr, depth + 1)
        if v1.refuted:
            return REFUTED  # second disjunct, sound whatever v0 is
        if v0.realized and v1.realized:
            return v1.qualified("component verdict relative to truncation") \
                if v1.note or v0.note else REALIZED
        return unknown("component membership undecided")
    # pi
    members, complete = enumerate_index(view.index, tr)
    saw_unknown = not complete
    note = None if complete else "index type enumerated up to the truncation"
    if complete is None:
        note = _TOO_LARGE_NOTE
    for k0 in members:
        ek = _family_at(view.family, k0, tr, on_realized_index=True)
        if ek is None:
            saw_unknown = True
            continue
        if provably_empty(ek, tr, depth + 1):
            return REFUTED  # no dk can land in an empty target
        try:
            dk = apply_raw(k, k0, tr.fuel)
        except OutOfFuelError:
            saw_unknown = True
            continue
        except DivergedError:
            return REFUTED  # dk provably never converges: vacuous failure
        v = _din(dk, ek, tr, depth + 1)
        if v.refuted:
            return REFUTED
        if not v.realized:
            saw_unknown = True
    if saw_unknown or not complete:
        return unknown(note or "some component checks undecided")
    return REALIZED


def enumerate_index(t: Code, tr: Truncation,
                    _depth: int = 0) -> tuple[list[Code], bool | None]:
    """Members of an index type up to the truncation, plus completeness:
    True when every member is listed, False when the listing stops at the
    truncation or at the depth guard, None (as falsy as False) when a
    finite type of more than MAX_FIN_INDEX members is in it and is not
    listed."""
    if _depth > _MAX_DEPTH:
        GUARD_HITS[0] += 1
        return [], False
    view = type_view(t)
    if view.kind == "fin":
        if view.size > MAX_FIN_INDEX:
            return [], None
        return list(range(view.size)), True
    if view.kind == "nat":
        return list(range(tr.nat_bound + 1)), False
    if view.kind == "dist":
        xs = tr.distinguished
        if xs is None:
            return [], False
        return list(xs.member_codes(tr.segment_bound)), False
    if view.kind == "sigma":
        base, base_complete = enumerate_index(view.index, tr, _depth + 1)
        out: list[Code] = []
        complete = base_complete
        for k0 in base:
            ek = _family_at(view.family, k0, tr, on_realized_index=False)
            if ek is None:
                complete = False
                continue
            sub, sub_complete = enumerate_index(ek, tr, _depth + 1)
            complete = complete and sub_complete
            out.extend(pair(k0, u) for u in sub)
        return out, complete
    return [], False


_empty_memo: dict = table_memo()


def provably_empty(t: Code, tr: Truncation, depth: int = 0) -> bool:
    """True only when no natural can be a member of t."""
    key = (t, tr.key())
    got = _empty_memo.get(key)
    if got is not None:
        return got
    if depth > 40:
        GUARD_HITS[0] += 1
        return False
    hits = GUARD_HITS[0]
    result = _provably_empty_raw(t, tr, depth)
    if GUARD_HITS[0] == hits:
        _empty_memo[key] = result
    return result


def _provably_empty_raw(t: Code, tr: Truncation, depth: int) -> bool:
    view = type_view(t)
    if view.kind == "fin":
        return view.size == 0
    if view.kind in ("nat", "dist"):
        return False  # the empty sequence always codes a path member
    if view.kind == "invalid":
        return False
    members, complete = enumerate_index(view.index, tr)
    if view.kind == "sigma":
        if provably_empty(view.index, tr, depth + 1):
            return True
        if not complete:
            return False
        for k0 in members:
            ek = _family_at(view.family, k0, tr, on_realized_index=False)
            if ek is None or not provably_empty(ek, tr, depth + 1):
                return False
        return bool(members)
    # pi: empty when some certainly-inhabited index maps to an empty target
    for k0 in members:
        ek = _family_at(view.family, k0, tr, on_realized_index=False)
        if ek is not None and provably_empty(ek, tr, depth + 1):
            return True
    return False


def _family_walk(index: Code, family: Code, tr: Truncation, index_depth: int,
                 member_check: Callable[[Code], Verdict],
                 truncated_note: str, undecided_note: str) -> Verdict:
    """The formation rule U and V share: the index type is in U, and the
    family converges on every enumerated index to a good member.  Only a
    truncated enumeration qualifies a realized answer with a note."""
    v_index = check_in_U(index, tr, index_depth)
    if v_index.refuted:
        return REFUTED
    members, complete = enumerate_index(index, tr)
    decided = v_index.realized
    for k0 in members:
        try:
            ek = apply_raw(family, k0, tr.fuel)
        except OutOfFuelError:
            decided = False
            continue
        except DivergedError:
            return REFUTED  # the rule needs the family to converge here
        v = member_check(ek)
        if v.refuted:
            return REFUTED
        decided = decided and v.realized
    if complete is None:
        return unknown(_TOO_LARGE_NOTE)
    if not decided:
        return unknown(undecided_note)
    if not complete:
        return Verdict("realized", truncated_note)
    return REALIZED


def _depth_memo(decide):
    """Guard and memoize a decider of (code, tr, depth) under the height
    rule of the module docstring."""
    memo: dict = table_memo()
    reach = 0  # the deepest depth reached by the call in progress

    @wraps(decide)
    def memoized(c: Code, tr: Truncation = DEFAULT_TRUNCATION, _depth: int = 0) -> Verdict:
        nonlocal reach
        if _depth > _MAX_DEPTH:
            GUARD_HITS[0] += 1
            return unknown(_DEPTH_NOTE)
        key = (c, tr.key())
        got = memo.get(key)
        if got is not None and _depth + got[1] <= _MAX_DEPTH:
            reach = max(reach, _depth + got[1])
            return got[0]
        outer, reach = reach, _depth
        hits = GUARD_HITS[0]
        v = decide(c, tr, _depth)
        if GUARD_HITS[0] == hits:
            memo[key] = (v, reach - _depth)
        reach = max(outer, reach)
        return v
    return memoized


@_depth_memo
def check_in_U(t: Code, tr: Truncation = DEFAULT_TRUNCATION, _depth: int = 0) -> Verdict:
    """Is t a well-formed type code (member of the type universe)?"""
    view = type_view(t)
    if view.kind == "invalid":
        return REFUTED  # no formation rule concludes an unknown tag
    if view.kind in ("fin", "nat", "dist"):
        return REALIZED
    return _family_walk(view.index, view.family, tr, _depth + 1,
                        lambda e: check_in_U(e, tr, _depth + 1),
                        "family checked up to the truncation",
                        "index or family membership undecided")


@_depth_memo
def check_in_V(a: Code, tr: Truncation = DEFAULT_TRUNCATION, _depth: int = 0) -> Verdict:
    """Is a a well-formed set code (index type plus element map)?"""
    n, e = unpair(a)
    return _family_walk(n, e, tr, 0, lambda c: check_in_V(c, tr, _depth + 1),
                        "element map checked up to the truncation",
                        "index or element map undecided")
