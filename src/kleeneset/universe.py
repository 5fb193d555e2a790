"""Type codes and the three-valued membership relations.

A type code is read through the pairing function:

  pair(0, n)          the finite type with n elements
  pair(1, 0)          the type of naturals
  pair(1, 1)          the distinguished type (membership delegated to a
                      configured set of sequence codes, see diagonal)
  pair(2, pair(n, e)) dependent sum over index type n with family e
  pair(3, pair(n, e)) dependent product over index type n with family e

type_view reads a code by these rules into a plain tuple (kind, size,
index, family), its kind "fin", "nat", "dist", "sigma", "pi" or
"invalid".  The nat, dist and invalid views are module constants, so a
call builds a tuple only for fin, sigma and pi.

din decides "k is a member of t" as far as the truncation allows and
answers Realized / Refuted / Unknown, with a note when the answer rests
on an enumeration the truncation cut short, its own or a member's.  Only
unnoted answers are stable: growing the truncation can turn Unknown into
one of them, never flip them.  That holds for codes in U only.  For
t = sigma_code(pi_code(NAT, NUMMAP), K sigma_code(fin(1), K fin(1))),
which is not a type, din(5, t) at nat_bound=2 is an unnoted Refuted at
fuel=9 and raises MalformedTypeError at fuel=10.  A Realized
with a note is relative to its budget: check_in_U(sigma_code(NAT,
LSFAM)) is Realized, "family checked up to the truncation", at
nat_bound=1 and Refuted at nat_bound=2.  Membership in a product over an
infinite index type is never Realized (only refutable).

check_in_U and check_in_V read one formation rule, _formation, as sets
are indexed families: an index type in U plus a family converging to a
good member (a type, or a set) at every index.

Every recursive decider here and in realizability stops at a depth guard
and then answers as if undecided, so its answer can depend on the depth
of the call.  The four memoized deciders (_din, _provably_empty,
_formation, and realizability's _synth_eq) share one guard and memo
rule, _depth_memo.  Each answer, guarded or not, is stored with its
depth window: the call depths at which a cold run takes the same side of
every guard it meets, its own and those of the calls it makes at
depth + 1, memo hits among them counting by their stored windows.  A hit
is used only inside its window; outside it the decider recomputes, so a
call answers as it does cold whatever ran before it.  A key keeps every
window it was computed in, and a lookup takes the first that holds the
depth: a numeral met at every depth inside the numerals above it is then
computed once per window, not once per meeting.  _formation has no
negation, so a deeper call only turns answers unknown: an unknown one
holds down to the guard, and its window says so.  A call at depth 0
is never a depth-dependent child, since children are called at
depth + 1, so its window stays its own: a set's check of its index type,
_synth_eq's din and provably_empty, and enumerate_index (which is not
memoized and keeps its own guard) all start there.

A U or V level takes two Python frames (the memo wrapper and
_formation), so the guard at depth 200 fires some 400 frames down.
"""

from __future__ import annotations

from math import inf

from ._value import Value, setfield
from .machine import (
    DEFAULT_FUEL, DivergedError, OutOfFuelError, apply_raw,
)
from .pairing import Code, pair, unpair
from .terms import table_memo

__all__ = [
    "Verdict", "REALIZED", "REFUTED", "Truncation", "MalformedTypeError",
    "type_view", "din", "check_in_U", "check_in_V",
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


class Verdict(Value):
    """status: "realized" | "refuted" | "unknown"."""
    __slots__ = _fields = ("status", "note")
    _defaults = (None,)

    @property
    def realized(self) -> bool:
        return self.status == "realized"

    @property
    def refuted(self) -> bool:
        return self.status == "refuted"

    @property
    def unknown(self) -> bool:
        return self.status == "unknown"


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


class Truncation(Value):
    """Finite bounds under which infinite base types are approximated.

    segment_bound caps the length of distinguished-set members that get
    enumerated; nat_bound caps enumeration of the naturals; fuel bounds
    every program run.  distinguished, when set, is the distinguished
    type: a built path prefix (`diagonal.SeqCode`) that answers
    `membership(c)`, lists `member_codes(segment_bound)` and gives the
    code of each segment by `segment_code(length)`; the verdict caches
    key on its `code`, the code of the whole prefix.  A negative bound,
    a nat_bound above MAX_FIN_INDEX or a fuel below 1 is a ValueError.
    """

    _fields = ("segment_bound", "nat_bound", "fuel", "distinguished")
    __slots__ = _fields + ("_key",)

    def __init__(self, segment_bound: int = 16, nat_bound: int = 12,
                 fuel: int = DEFAULT_FUEL, distinguished: object = None):
        if segment_bound < 0:
            raise ValueError(f"segment_bound must not be negative, got {segment_bound}")
        if nat_bound < 0:
            raise ValueError(f"nat_bound must not be negative, got {nat_bound}")
        if nat_bound > MAX_FIN_INDEX:
            raise ValueError(f"nat_bound {nat_bound} exceeds {MAX_FIN_INDEX}")
        if fuel <= 0:
            raise ValueError("fuel must be positive")
        setfield(self, "segment_bound", segment_bound)
        setfield(self, "nat_bound", nat_bound)
        setfield(self, "fuel", fuel)
        setfield(self, "distinguished", distinguished)
        setfield(self, "_key", None)

    def key(self) -> tuple:
        """The memo key of the deciders: the bounds and the code of the
        distinguished prefix, computed on first use and kept."""
        key = self._key
        if key is None:
            path = None if self.distinguished is None else self.distinguished.code
            key = (self.segment_bound, self.nat_bound, self.fuel, path)
            setfield(self, "_key", key)
        return key


DEFAULT_TRUNCATION = Truncation()


_NAT_VIEW = ("nat", 0, 0, 0)
_DIST_VIEW = ("dist", 0, 0, 0)
_INVALID_VIEW = ("invalid", 0, 0, 0)


def type_view(t: Code) -> tuple[str, int, Code, Code]:
    """(kind, size, index, family), with 0 for a part the kind lacks."""
    tag, payload = unpair(t)
    if tag == 0:
        if isinstance(payload, int):
            return ("fin", payload, 0, 0)
        return _INVALID_VIEW
    if tag == 1:
        if payload == 0:
            return _NAT_VIEW
        if payload == 1:
            return _DIST_VIEW
        return _INVALID_VIEW
    if tag == 2 or tag == 3:
        n, e = unpair(payload)
        return ("sigma" if tag == 2 else "pi", 0, n, e)
    return _INVALID_VIEW


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


def _depth_memo(limit: int, guarded):
    """Guard a decider of (keys..., tr, depth), all positional, which
    answers guarded at a depth past limit, and memoize it under the window
    rule of the module docstring."""
    def decorate(decide):
        memo: dict = table_memo()

        def memoized(*args):
            global _window_hi, _window_lo
            depth = args[-1]
            if depth > limit:
                v, hi, lo = guarded, -inf, depth - limit
            else:
                tr = args[-2]
                key = (*args[:-2], tr._key or tr.key())
                for v, hi, lo in memo.get(key, ()):  # the first window holding depth
                    if depth + hi <= 0 < depth + lo:
                        hi, lo = depth + hi, depth + lo
                        break
                else:
                    outer = _window_hi, _window_lo
                    _window_hi, _window_lo = depth - limit, inf
                    try:
                        v = decide(*args)
                    finally:
                        hi, lo = _window_hi, _window_lo
                        _window_hi, _window_lo = outer
                    memo.setdefault(key, []).append((v, hi - depth, lo - depth))
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
    kind, size, index, family = type_view(t)
    if kind == "invalid":
        raise MalformedTypeError(f"{t!r} is not a type code")
    if kind == "fin":
        return REALIZED if isinstance(k, int) and k < size else REFUTED
    if kind == "nat":
        return REALIZED
    if kind == "dist":
        xs = tr.distinguished
        if xs is None:
            return unknown("no distinguished set configured")
        status = xs.membership(k)
        if status == "member":
            return REALIZED
        if status == "nonmember":
            return REFUTED
        return unknown("beyond the distinguished-set truncation")
    if kind == "sigma":
        k0, u = unpair(k)
        v0 = _din(k0, index, tr, depth + 1)
        if v0.refuted:
            return REFUTED  # first disjunct of the non-membership rule
        ek = _family_at(family, k0, tr, on_realized_index=v0.realized)
        if ek is None:
            return unknown("family application exhausted fuel")
        v1 = _din(u, ek, tr, depth + 1)
        if v1.refuted:
            return REFUTED  # second disjunct, sound whatever v0 is
        if v0.realized and v1.realized:
            return REALIZED
        return unknown("component membership undecided")
    # pi
    members, complete = enumerate_index(index, tr)
    saw_unknown = not complete
    note = None if complete else "index type enumerated up to the truncation"
    if complete is None:
        note = _TOO_LARGE_NOTE
    for k0 in members:
        ek = _family_at(family, k0, tr, on_realized_index=True)
        if ek is None:
            saw_unknown = True
            continue
        if _provably_empty(ek, tr, depth + 1):
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


def enumerate_index(t: Code, tr: Truncation) -> tuple[list[Code], bool | None]:
    """Members of an index type up to the truncation, plus completeness:
    True when every member is listed, False when the listing stops at the
    truncation or at the depth guard, None (as falsy as False) when a
    finite type of more than MAX_FIN_INDEX members is in it and is not
    listed."""
    return _enumerate_index(t, tr, 0)


def _enumerate_index(t: Code, tr: Truncation, depth: int) -> tuple[list[Code], bool | None]:
    if depth > _MAX_DEPTH:
        return [], False
    kind, size, index, family = type_view(t)
    if kind == "fin":
        if size > MAX_FIN_INDEX:
            return [], None
        return list(range(size)), True
    if kind == "nat":
        return list(range(tr.nat_bound + 1)), False
    if kind == "dist":
        xs = tr.distinguished
        if xs is None:
            return [], False
        return list(xs.member_codes(tr.segment_bound)), False
    if kind == "sigma":
        base, base_complete = _enumerate_index(index, tr, depth + 1)
        out: list[Code] = []
        complete = base_complete
        for k0 in base:
            ek = _family_at(family, k0, tr, on_realized_index=False)
            if ek is None:
                complete = False
                continue
            sub, sub_complete = _enumerate_index(ek, tr, depth + 1)
            complete = complete and sub_complete
            out.extend(pair(k0, u) for u in sub)
        return out, complete
    return [], False


def provably_empty(t: Code, tr: Truncation) -> bool:
    """True only when no natural can be a member of t."""
    return _provably_empty(t, tr, 0)


@_depth_memo(40, False)
def _provably_empty(t: Code, tr: Truncation, depth: int) -> bool:
    kind, size, index, family = type_view(t)
    if kind == "fin":
        return size == 0
    if kind in ("nat", "dist"):
        return False  # the empty sequence always codes a path member
    if kind == "invalid":
        return False
    members, complete = enumerate_index(index, tr)
    if kind == "sigma":
        if _provably_empty(index, tr, depth + 1):
            return True
        if not complete:
            return False
        for k0 in members:
            ek = _family_at(family, k0, tr, on_realized_index=False)
            if ek is None or not _provably_empty(ek, tr, depth + 1):
                return False
        return bool(members)
    # pi: empty when some certainly-inhabited index maps to an empty target
    for k0 in members:
        ek = _family_at(family, k0, tr, on_realized_index=False)
        if ek is not None and _provably_empty(ek, tr, depth + 1):
            return True
    return False


def check_in_U(t: Code, tr: Truncation = DEFAULT_TRUNCATION) -> Verdict:
    """Is t a well-formed type code (member of the type universe)?"""
    return _formation("U", t, tr, 0)


def check_in_V(a: Code, tr: Truncation = DEFAULT_TRUNCATION) -> Verdict:
    """Is a a well-formed set code (index type plus element map)?"""
    return _formation("V", a, tr, 0)


_FORMATION_NOTES = {
    "U": ("family checked up to the truncation", "index or family membership undecided"),
    "V": ("element map checked up to the truncation", "index or element map undecided"),
}


@_depth_memo(_MAX_DEPTH, unknown(_DEPTH_NOTE))
def _formation(space: str, c: Code, tr: Truncation, depth: int) -> Verdict:
    """The formation rule of U (c a type code) or V (c a set code): an index
    type in U, and a family converging at each index to a member of the space."""
    global _window_hi
    if space == "U":
        kind, _, index, family = type_view(c)
        if kind == "invalid":
            return REFUTED  # no formation rule concludes an unknown tag
        if kind in ("fin", "nat", "dist"):
            return REALIZED
        v_index = _formation("U", index, tr, depth + 1)
    else:  # a set's index, a type, is checked from depth 0
        index, family = unpair(c)
        v_index = _formation("U", index, tr, 0)
    if v_index.refuted:
        return REFUTED
    members, complete = enumerate_index(index, tr)
    decided, exact = v_index.realized, True  # a noted index lists its members short
    for k0 in members:
        try:
            ek = apply_raw(family, k0, tr.fuel)
        except OutOfFuelError:
            decided = False
            continue
        except DivergedError:
            return REFUTED  # the rule needs the family to converge here
        v = _formation(space, ek, tr, depth + 1)
        if v.refuted:
            return REFUTED
        decided, exact = decided and v.realized, exact and v.note is None
    truncated_note, undecided_note = _FORMATION_NOTES[space]
    if complete is None or not decided:
        _window_hi = depth - _MAX_DEPTH  # an unknown holds down to the guard
        return unknown(_TOO_LARGE_NOTE if complete is None else undecided_note)
    return REALIZED if complete and exact else Verdict("realized", truncated_note)
