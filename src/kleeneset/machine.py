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

A run is a code and the operands it is applied to: the machine runs the
code's own spine, then applies the value to each operand in turn.
Reduction is iterative, with no host recursion: a stack of frames, each
either an operand to apply the returned value to or a tuple tagged by a
small int (the two halves of an s-fire and a memo write).  Fuel is part
of the specification: one unit per redex dispatch when a run starts on a
code whose own spine is a redex, and one per combinator fire, a memo hit
charging the fires it stands for; nothing else costs fuel.  The budget
is counted down in a local and written back to the _Budget when the run
ends, however it ends, so the steps charged can be read after a raise.
Running out of fuel means "not converged within budget", never
"diverges".  The machine does notice some certainly-stuck states
(applying a code with no program reading, the self-application spine of
0); those raise DivergedError so callers like the membership checker can
treat provable non-termination specially.

What a head code does is one lookup in terms.HEADS, made when a spine is
first peeled (the peel memo keeps it) and carried by the symbolic spines
built on it; a code not in it is data.  Outcomes are memoized per
application: a code applied to a code is keyed (f, a), and a saturated
spine whose arguments are all codes (a flag on the spine says so),
applied to a code, is keyed (head, argument codes, a).  An entry holds
the outcome and its cost: the steps charged from the application's fire
to its value, or to the stuck point for an entry marked diverged (a data
head stuck at once costs 0).  The memo is read before the application
fires or is found stuck (a key is only ever written for an application
that fires or is stuck, so a hit skips nothing a miss would do), written
when the application returns a value, and marked diverged for every
application still open when DivergedError is raised; running out of fuel
leaves the open applications unrecorded.  A hit charges the entry's
cost, whatever run wrote it, and runs out of fuel if that is more than
is left, charged fuel + 1 as the reduction it stands for would be.  So
the steps of a call are those of a reducer with no memo
(tests/reference_machine.py), a function of the call alone: the memo
changes no outcome and no step count, only the time taken.  An entry
that cost one step is not kept, since one fire costs no more to redo
than to look up.  The memos are cleared whenever the library table
grows, since that gives a stuck tag-2 code a program reading.
tests/data/step_trace.json pins the steps charged on a fixed corpus,
cold and warm alike.
"""

from __future__ import annotations

from .pairing import _THRESHOLD_BITS, Code, canon, code_value, pair, unpair
from .terms import HEADS, app_view, clear_caches, mkapp, prim_code, table_memo

__all__ = [
    "Fuel", "DEFAULT_FUEL", "OutOfFuelError", "DivergedError",
    "apply_raw", "apply_chain", "fixpoint",
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
    values, the head's terms.HEADS entry, whether every argument is a
    code)."""

    __slots__ = ()

    def code(self) -> Code:
        c, args = self[0], self[1]
        for a in args:
            c = mkapp(c, _code_of(a))
        return c


def _code_of(v) -> Code:
    return v.code() if type(v) is _Spine else v


_DIVERGED = object()

# the largest natural kept an int: its successor is the least Big code
_LAST_INT = (1 << _THRESHOLD_BITS) - 1

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


def _machine(code: Code, operands: tuple, budget: _Budget):
    """Run code's own spine, then apply the value to each operand in
    turn; return the last value (int or _Spine).

    The operands go on the stack before the first step, the first on top.
    A code whose own spine is a redex is charged its dispatch step, its
    arguments are pushed above the operands, and the value starts as the
    bare head spine; any other code is its own value.  Frames:
        x             an operand: apply the returned value to x
        (_SA, b, c)   s a b c fired, a*c is running: next b*c
        (_SB, t)      t = a*c, b*c is running: next t*(b*c)
        (_MEMO, key, left)  record the value returned for the application
                      key, and its cost: left, the budget before its fire,
                      less the budget now
    """
    stack: list = list(reversed(operands))
    push = stack.append
    pop = stack.pop
    memo = _apply_memo
    memo_get = memo.get
    peel_get = _peel_memo.get
    left = budget.left
    try:
        head, args, entry = _peel(code)
        if entry is None or len(args) < entry[2]:
            val = code  # data or an under-applied spine: a value as written
        else:
            left -= 1  # the dispatch; the fire is charged when the arguments are in
            if left < 0:
                raise OutOfFuelError
            stack.extend(reversed(args))
            val = _Spine((head, (), entry, True))
        while True:
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
                cost = frame[2] - left
                if cost != 1:  # one fire costs no more to redo than to look up
                    memo[frame[1]] = (val, cost)
            while True:  # apply f to a until a value is in val
                if type(f) is _Spine:
                    head, args, entry, codes = f
                    key = ((head, args, a) if codes and type(a) is not _Spine
                           and len(args) + 1 == entry[2] else None)
                else:
                    got = peel_get(f)
                    head, args, entry = got if got is not None else _peel(f)
                    codes = True
                    key = None if type(a) is _Spine else (f, a)
                if key is not None:
                    got = memo_get(key)
                    if got is not None:
                        val, cost = got
                        left -= cost
                        if left < 0:
                            left = -1  # as the reduction it stands for would run out
                            raise OutOfFuelError
                        if val is _DIVERGED:
                            raise DivergedError(f)
                        break
                if entry is None:  # data in head position is stuck
                    if key is not None:
                        memo[key] = (_DIVERGED, 0)
                    raise DivergedError(f)
                kind, body, arity, name = entry
                n = len(args) + 1
                if n < arity:
                    val = _Spine((head, args + (a,), entry, codes and type(a) is not _Spine))
                    break
                if key is not None:
                    push((_MEMO, key, left))
                if n > arity:  # over-applied code: stack the extra operands
                    full = args + (a,)
                    for extra in reversed(full[arity:]):
                        push(extra)
                    args = full[:arity - 1]
                    a = full[arity - 1]
                    f = _Spine((head, args, entry, True))
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
                    val = (a + 1 if isinstance(a, int) and a != _LAST_INT
                           else canon(code_value(a) + 1))
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
    except DivergedError:
        for frame in stack:
            if type(frame) is tuple and frame[0] == _MEMO and frame[2] - left != 1:
                memo[frame[1]] = (_DIVERGED, frame[2] - left)
        raise
    finally:
        budget.left = left


def apply_raw(f: Code, a: Code, fuel: Fuel = DEFAULT_FUEL) -> Code:
    """Apply program f to the inert argument a; raises on non-convergence."""
    return _code_of(_machine(f, (a,), _Budget(fuel)))


def apply_chain(f: Code, *args: Code, fuel: Fuel = DEFAULT_FUEL) -> Code:
    """Run f's own spine, then apply the value to each argument in turn,
    on one budget; with no arguments, f's spine rewritten to a value."""
    return _code_of(_machine(f, args, _Budget(fuel)))


def fixpoint(f: Code) -> Code:
    """A code e with apply_raw(e, x) == apply_raw(apply_raw(f, e), x).

    e is the under-applied fix spine, so the numeric code f receives is
    exactly e itself.
    """
    return mkapp(prim_code("fix"), f)
