"""Fuel-bounded evaluation of codes: the applicative structure on N.

apply_raw(f, a) runs the program f on the argument a.  Arguments are inert:
a code in operand position is a number, full stop; it is never evaluated.
Evaluation happens only by firing a primitive or derived combinator that
has collected enough arguments along its application spine.  Surface
terms with nested applications in argument position are evaluated
call-by-value by the frontend, which feeds this machine one application
at a time.

Internally a value is either a code or an under-applied spine kept
symbolic (head code plus argument values).  Symbolic spines exist so the
partial applications that pour out of a bracket-abstraction cascade are
never rendered as numbers; the pairing function squares magnitudes, so
rendering them would grow codes exponentially in reduction depth.  A
value is materialized to its code exactly when a number-consuming
primitive (sN pN d p p0 p1) or the caller looks at it, at which point
it is the plain application-spine code pair(0, pair(f, a))-nested.

Reduction is iterative (explicit frames, no host recursion), charging
one fuel unit per combinator fire and per redex dispatch.  Running out
of fuel means "not converged within budget", never "diverges".  The
machine does notice some certainly-stuck states (applying a code with
no program reading, the self-application spine of 0); those raise
DivergedError so callers like the membership checker can treat provable
non-termination specially.

What a head code does is one lookup in terms.HEADS per dispatch; a code
not in it is data.  Value results are memoized.  A shared cache only
ever turns out-of-fuel answers into values, never changes a value:
Value outcomes are unique per (f, a) and stable under fuel increase, and
the memos are cleared whenever the library table grows, since that
gives a stuck tag-2 code a program reading.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pairing import Code, canon, pair, unpair
from .terms import HEADS, app_view, clear_caches, mkapp, prim_code, table_memo

__all__ = [
    "Fuel", "DEFAULT_FUEL", "OutOfFuelError", "DivergedError",
    "apply_raw", "apply_chain", "run_code", "fixpoint",
    "clear_caches",
]

Fuel = int
DEFAULT_FUEL: Fuel = 10**6


class OutOfFuelError(Exception):
    """The step budget ran out before a value appeared."""


class DivergedError(Exception):
    """The machine reached a state it can prove never produces a value."""


@dataclass(frozen=True, slots=True)
class _Spine:
    """Under-applied combinator: head code and symbolic argument values."""

    head: Code
    args: tuple

    def code(self) -> Code:
        c = self.head
        for a in self.args:
            c = mkapp(c, _code_of(a))
        return c


def _code_of(v) -> Code:
    return v.code() if isinstance(v, _Spine) else v


_DIVERGED = object()

_apply_memo: dict[tuple, object] = table_memo()


class _Budget:
    __slots__ = ("left",)

    def __init__(self, steps: int):
        if steps <= 0:
            raise ValueError("fuel must be positive")
        self.left = steps

    def step(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise OutOfFuelError


_peel_memo: dict = table_memo()


def _peel(code: Code) -> tuple[Code, tuple]:
    """Head and operand codes of an application spine, outermost-last.

    The walk stops at the degenerate self-operator spine of 0, whose
    head is an application code and so data.  Memoized: operator spines
    are re-walked on every application.
    """
    got = _peel_memo.get(code)
    if got is not None:
        return got
    args_rev: list = []
    head = code
    while True:
        view = app_view(head)
        if view is None or view[0] == head:
            break
        args_rev.append(view[1])
        head = view[0]
    out = _peel_memo[code] = (head, tuple(args_rev[::-1]))
    return out


def _machine(start_apply: tuple | None, start_eval: int | None,
             budget: _Budget):
    """Run to a value (int or _Spine).

    Frames: ("app2", x)  apply incoming value to x
            ("sA", b, c) s-fire: got a*c, next b*c
            ("sB", t1)   s-fire: got b*c, now t1*(b*c)
            ("apmemo", key)  record the result of an application
    """
    stack: list[tuple] = []
    val = None
    if start_apply is not None:
        pending: tuple | None = start_apply
        action = "ap"
        ev_code = 0
    else:
        assert start_eval is not None
        ev_code = start_eval
        action = "ev"
        pending = None

    def fire(entry: tuple, full, self_value):
        """-> ('ret', value) or ('ap', (f, a)) after stacking frames."""
        budget.step()
        kind, body, _, name = entry
        if kind == "sc":
            for extra in full[:0:-1]:
                stack.append(("app2", extra))
            return "ap", (body, full[0])
        if name == "k":
            return "ret", full[0]
        if name == "sN":
            n = _code_of(full[0])
            return "ret", n + 1 if isinstance(n, int) else canon(n.value() + 1)
        if name == "pN":
            n = _code_of(full[0])
            if not isinstance(n, int):
                return "ret", canon(n.value() - 1)
            return "ret", n - 1 if n > 0 else 0
        if name == "d":
            return "ret", full[0] if _code_of(full[2]) == _code_of(full[3]) else full[1]
        if name == "p":
            return "ret", pair(_code_of(full[0]), _code_of(full[1]))
        if name == "p0":
            return "ret", unpair(_code_of(full[0]))[0]
        if name == "p1":
            return "ret", unpair(_code_of(full[0]))[1]
        if name == "s":
            stack.append(("sA", full[1], full[2]))
            return "ap", (full[0], full[2])
        if name == "fix":
            # self_value is the (fix f) spine: the program's own code
            stack.append(("app2", full[1]))
            return "ap", (full[0], self_value)
        raise AssertionError(name)  # pragma: no cover

    try:
        while True:
            if action == "ev":
                c = ev_code
                head, args = _peel(c)
                entry = HEADS.get(head)
                if entry is None or len(args) < entry[2]:
                    val = c  # data or an under-applied spine: a value as written
                    action = "ret"
                    continue
                arity = entry[2]
                budget.step()
                for extra in args[arity:][::-1]:
                    stack.append(("app2", extra))
                fix_self = _Spine(head, (args[0],)) if args else None
                action, out = fire(entry, args[:arity], fix_self)
                if action == "ret":
                    val = out
                else:
                    pending = out
                continue

            if action == "ap":
                vf, va = pending  # type: ignore[misc]
                pending = None
                if isinstance(vf, _Spine):
                    head, args = vf.head, vf.args
                else:
                    head, args = _peel(vf)
                entry = HEADS.get(head)
                if entry is None:  # data in head position is stuck
                    if not isinstance(va, _Spine):
                        _apply_memo[(vf, va)] = _DIVERGED
                    raise DivergedError(vf)
                arity = entry[2]
                if len(args) + 1 < arity:
                    val = _Spine(head, args + (va,))
                    action = "ret"
                    continue
                key = (vf, va) if not isinstance(vf, _Spine) and not isinstance(va, _Spine) else None
                if key is not None:
                    memo = _apply_memo.get(key)
                    if memo is not None:
                        if memo is _DIVERGED:
                            raise DivergedError(vf)
                        val = memo
                        action = "ret"
                        continue
                    stack.append(("apmemo", key))
                full = list(args) + [va]
                for extra in full[arity:][::-1]:
                    stack.append(("app2", extra))
                fix_self = vf if len(args) == 1 else _Spine(head, (full[0],))
                action, out = fire(entry, full[:arity], fix_self)
                if action == "ret":
                    val = out
                else:
                    pending = out
                continue

            # action == "ret"
            if not stack:
                return val
            frame = stack.pop()
            kind = frame[0]
            if kind == "app2":
                pending = (val, frame[1])
                action = "ap"
            elif kind == "sA":
                stack.append(("sB", val))
                pending = (frame[1], frame[2])
                action = "ap"
            elif kind == "sB":
                pending = (frame[1], val)
                action = "ap"
            elif kind == "apmemo":
                _apply_memo[frame[1]] = val
            else:  # pragma: no cover
                raise AssertionError(kind)
    except DivergedError:
        for frame in stack:
            if frame[0] == "apmemo":
                _apply_memo[frame[1]] = _DIVERGED
        raise


def run_code(code: Code, fuel: Fuel = DEFAULT_FUEL) -> Code:
    """Rewrite a code's program spine to a value code; data comes back as is.

    Raises OutOfFuelError / DivergedError; library-internal entry point.
    """
    return _code_of(_machine(None, code, _Budget(fuel)))


def apply_raw(f: Code, a: Code, fuel: Fuel = DEFAULT_FUEL) -> Code:
    """Apply program f to the inert argument a; raises on non-convergence."""
    budget = _Budget(fuel)
    vf = _machine(None, f, budget)
    return _code_of(_machine((vf, a), None, budget))


def apply_chain(f: Code, *args: Code, fuel: Fuel = DEFAULT_FUEL) -> Code:
    """apply_raw folded left over several arguments, one shared budget."""
    budget = _Budget(fuel)
    v = _machine(None, f, budget)
    for a in args:
        v = _machine((v, a), None, budget)
    return _code_of(v)


def fixpoint(f: Code) -> Code:
    """A code e with apply_raw(e, x) == apply_raw(apply_raw(f, e), x).

    e is the under-applied fix spine, so the numeric code f receives is
    exactly e itself.
    """
    return mkapp(prim_code("fix"), f)
