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
and then answers as if undecided, so its answer can depend on the depth
of the call.  The six memoized deciders (_din, provably_empty,
check_in_U, check_in_V, and realizability's _synth_eq and _synth_subeq)
share one guard and memo rule, _depth_memo.  Each answer, guarded or
not, is stored with its depth window: the call depths at which a cold run
takes the same side of every guard it meets, its own and those of the
calls it makes at depth + 1, memo hits among them counting by their
stored windows.  A hit is used only inside its window; outside it the
decider recomputes, so a call answers as it does cold whatever ran
before it.  A call at depth 0 is never a depth-dependent child, since
children are called at depth + 1, so its window stays its own:
check_in_V's check of its index type, _synth_eq's din and
provably_empty, and enumerate_index (which is not memoized and keeps its
own guard) all start there.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import wraps
from math import inf
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
    "NAT", "DIST", "fin", "sigma_code", "pi_code",
]


NAT = pair(1, 0)
DIST = pair(1, 1)


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


# A finite index type with more members than this is not listed: the
# rules that would walk its members answer unknown instead.  The naturals
# are listed up to nat_bound, so it caps nat_bound too.
MAX_FIN_INDEX = 1 << 16


@dataclass(frozen=True)
class Truncation:
    """Finite bounds under which infinite base types are approximated.

    segment_bound caps the length of distinguished-set members that get
    enumerated; nat_bound caps enumeration of the naturals; fuel bounds
    every program run.  distinguished, when set, is the distinguished
    type: a built path prefix (`diagonal.SeqCode`) that answers
    `membership(c)`, lists `member_codes(segment_bound)`, gives the code
    of each segment by `segment_code(length)`, and names its contents by
    a `cache_token`, which the verdict caches key on.  A negative bound,
    a nat_bound above MAX_FIN_INDEX or a fuel below 1 is a ValueError.
    """

    segment_bound: int = 16
    nat_bound: int = 12
    fuel: int = DEFAULT_FUEL
    distinguished: object = None

    def __post_init__(self):
        for name in ("segment_bound", "nat_bound"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)}")
        if self.nat_bound > MAX_FIN_INDEX:
            raise ValueError(f"nat_bound {self.nat_bound} exceeds {MAX_FIN_INDEX}")
        if self.fuel <= 0:
            raise ValueError("fuel must be positive")

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


def din(k: Code, t: Code, tr: Truncation = DEFAULT_TRUNCATION) -> Verdict:
    """Membership of k in the type t, relative to the truncation."""
    return _din(k, t, tr, 0)


_MAX_DEPTH = 200
_DEPTH_NOTE = "recursion depth bound hit"

_TOO_LARGE_NOTE = f"finite index type of more than {MAX_FIN_INDEX} members not enumerated"

# The depth window of the call in progress (see the module docstring): the
# largest depth - limit over the guards it met that did not fire, and the
# smallest over those that fired.
_window_hi, _window_lo = -inf, inf


def _depth_memo(limit: float, guarded):
    """Guard a decider of (codes..., tr, depth), which answers guarded at
    a depth past limit, and memoize it under the window rule of the module
    docstring."""
    def decorate(decide):
        memo: dict = table_memo()
        sig = inspect.signature(decide)
        arity = len(sig.parameters)
        defaults = decide.__defaults__ or ()

        @wraps(decide)
        def memoized(*args, **kwargs):
            global _window_hi, _window_lo
            if kwargs or len(args) + len(defaults) < arity:
                bound = sig.bind(*args, **kwargs)  # raises on a bad call
                bound.apply_defaults()
                args = bound.args
            elif len(args) < arity:
                args += defaults[len(args) - arity:]
            depth = args[-1]
            if depth > limit:
                v, hi, lo = guarded, -inf, depth - limit
            else:
                key = (*args[:-2], args[-2].key())
                got = memo.get(key)
                if got is not None and depth + got[1] <= 0 < depth + got[2]:
                    v, hi, lo = got[0], depth + got[1], depth + got[2]
                else:
                    outer = _window_hi, _window_lo
                    _window_hi, _window_lo = depth - limit, inf
                    try:
                        v = decide(*args)
                    finally:
                        hi, lo = _window_hi, _window_lo
                        _window_hi, _window_lo = outer
                    memo[key] = (v, hi - depth, lo - depth)
            if depth:  # a depth-dependent child: its window bounds its caller's
                if hi > _window_hi:
                    _window_hi = hi
                if lo < _window_lo:
                    _window_lo = lo
            return v
        return memoized
    return decorate


@_depth_memo(_MAX_DEPTH, unknown(_DEPTH_NOTE))
def _din(k: Code, t: Code, tr: Truncation, depth: int) -> Verdict:
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


@_depth_memo(40, False)
def provably_empty(t: Code, tr: Truncation, depth: int = 0) -> bool:
    """True only when no natural can be a member of t."""
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


@_depth_memo(_MAX_DEPTH, unknown(_DEPTH_NOTE))
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


@_depth_memo(_MAX_DEPTH, unknown(_DEPTH_NOTE))
def check_in_V(a: Code, tr: Truncation = DEFAULT_TRUNCATION, _depth: int = 0) -> Verdict:
    """Is a a well-formed set code (index type plus element map)?"""
    n, e = unpair(a)
    return _family_walk(n, e, tr, 0, lambda c: check_in_V(c, tr, _depth + 1),
                        "element map checked up to the truncation",
                        "index or element map undecided")
