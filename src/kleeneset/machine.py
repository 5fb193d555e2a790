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

Reduction is iterative, with no host recursion: a stack of frames, each
either an operand to apply the returned value to or a tuple tagged by a
small int (the two halves of an s-fire and a memo write).  Fuel is
part of the specification: one unit per redex dispatch when a run
starts on a code whose own spine is a redex, and one per combinator
fire; nothing else costs fuel.  The budget is counted down in a local
and written back to the _Budget when the run ends, however it ends, so
a budget shared by apply_chain sees every step.  Running out of fuel
means "not converged within budget", never "diverges".  The machine
does notice some certainly-stuck states (applying a code with no
program reading, the self-application spine of 0); those raise
DivergedError so callers like the membership checker can treat provable
non-termination specially.

What a head code does is one lookup in terms.HEADS, made when a spine
is first peeled (the peel memo keeps it) and carried by the symbolic
spines built on it; a code not in it is data.  Value results are memoized per application of a
code to a code.  The memo is read before anything else is done with the
application (a key is only ever written for an application that fires
or is stuck, so a hit skips nothing a miss would do), written when the
application returns a value, and marked diverged for every application
still open when DivergedError is raised; running out of fuel leaves the
open applications unrecorded.  A shared cache only ever turns
out-of-fuel answers into values, never changes a value: Value outcomes
are unique per (f, a) and stable under fuel increase, and the memos are
cleared whenever the library table grows, since that gives a stuck
tag-2 code a program reading.  tests/data/step_trace.json pins the
steps charged, cold and warm, on a fixed corpus.
"""

from __future__ import annotations

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


class _Spine(tuple):
    """Under-applied combinator: (head code, tuple of symbolic argument
    values, the head's terms.HEADS entry)."""

    __slots__ = ()

    def code(self) -> Code:
        c, args, _ = self
        for a in args:
            c = mkapp(c, _code_of(a))
        return c


def _code_of(v) -> Code:
    return v.code() if type(v) is _Spine else v


_DIVERGED = object()

_apply_memo: dict[tuple, object] = table_memo()


class _Budget:
    __slots__ = ("left",)

    def __init__(self, steps: int):
        if steps <= 0:
            raise ValueError("fuel must be positive")
        self.left = steps


_peel_memo: dict = table_memo()


def _peel(code: Code) -> tuple[Code, tuple, tuple | None]:
    """Head and operand codes of an application spine, outermost-last,
    and the head's terms.HEADS entry (None for data).

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
    out = _peel_memo[code] = (head, tuple(args_rev[::-1]), HEADS.get(head))
    return out


# Tags of the tuple frames; any other stack entry is an operand.
_MEMO, _SA, _SB = 0, 1, 2


def _machine(start_apply: tuple | None, start_eval: Code | None,
             budget: _Budget):
    """Run to a value (int or _Spine).

    Starts either by applying a value to a value (start_apply) or by
    dispatching on a code's own spine (start_eval).  Frames:
        x             an operand: apply the returned value to x
        (_SA, b, c)   s a b c fired, a*c is running: next b*c
        (_SB, t)      t = a*c, b*c is running: next t*(b*c)
        (_MEMO, key)  record the value returned for the application key
    """
    stack: list = []
    push = stack.append
    pop = stack.pop
    memo = _apply_memo
    memo_get = memo.get
    peel_get = _peel_memo.get
    left = budget.left
    try:
        if start_apply is None:
            head, args, entry = _peel(start_eval)
            if entry is None or len(args) < entry[2]:
                return start_eval  # data or an under-applied spine: a value as written
            arity = entry[2]
            left -= 1  # the dispatch; the fire is charged below
            if left < 0:
                raise OutOfFuelError
            for extra in reversed(args[arity:]):
                push(extra)
            f = _Spine((head, args[:arity - 1], entry))
            a = args[arity - 1]
        else:
            f, a = start_apply
        while True:
            while True:  # apply f to a until a value is in val
                if type(f) is _Spine:
                    head, args, entry = f
                    key = None
                else:
                    if type(a) is _Spine:
                        key = None
                    else:
                        key = (f, a)
                        val = memo_get(key)
                        if val is not None:
                            if val is _DIVERGED:
                                raise DivergedError(f)
                            break
                    got = peel_get(f)
                    head, args, entry = got if got is not None else _peel(f)
                if entry is None:  # data in head position is stuck
                    if key is not None:
                        memo[key] = _DIVERGED
                    raise DivergedError(f)
                kind, body, arity, name = entry
                n = len(args) + 1
                if n < arity:
                    val = _Spine((head, args + (a,), entry))
                    break
                if key is not None:
                    push((_MEMO, key))
                if n > arity:  # over-applied code: stack the extra operands
                    full = args + (a,)
                    for extra in reversed(full[arity:]):
                        push(extra)
                    args = full[:arity - 1]
                    a = full[arity - 1]
                    f = _Spine((head, args, entry))
                left -= 1  # the fire
                if left < 0:
                    raise OutOfFuelError
                if name == "s":
                    push((_SA, args[1], a))
                    f = args[0]
                    continue
                if name == "k":
                    val = args[0]
                elif kind == "sc":
                    if args:
                        push(a)
                        for extra in args[:0:-1]:
                            push(extra)
                        a = args[0]
                    f = body
                    continue
                elif name == "fix":  # f is the (fix g) spine: the program's own code
                    push(a)
                    f, a = args[0], f
                    continue
                elif name == "d":
                    val = args[0] if _code_of(args[2]) == _code_of(a) else args[1]
                elif name == "p":
                    val = pair(_code_of(args[0]), _code_of(a))
                elif name == "sN":
                    a = _code_of(a)
                    val = a + 1 if isinstance(a, int) else canon(a.value() + 1)
                elif name == "pN":
                    a = _code_of(a)
                    if not isinstance(a, int):
                        val = canon(a.value() - 1)
                    else:
                        val = a - 1 if a > 0 else 0
                elif name == "p0":
                    val = unpair(_code_of(a))[0]
                else:  # p1
                    val = unpair(_code_of(a))[1]
                break
            # return val to the frames below
            while True:
                if not stack:
                    return val
                frame = pop()
                if type(frame) is not tuple:
                    f, a = val, frame
                    break
                tag = frame[0]
                if tag == _SA:
                    push((_SB, val))
                    f, a = frame[1], frame[2]
                    break
                if tag == _SB:
                    f, a = frame[1], val
                    break
                memo[frame[1]] = val
    except DivergedError:
        for frame in stack:
            if type(frame) is tuple and frame[0] == _MEMO:
                memo[frame[1]] = _DIVERGED
        raise
    finally:
        budget.left = left


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
