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
small int (the two halves of an s-fire, a memo write, a running plan).
Fuel is part of the specification: one unit per redex dispatch when a
run starts on a code whose own spine is a redex, and one per combinator
fire, a memo hit charging the fires it stands for; nothing else costs
fuel.  The budget is counted down in a local and written back to the
_Budget when the run ends, however it ends, so the steps charged can be
read after a raise.  Running out of fuel means "not converged within
budget", never "diverges".  The machine does notice some certainly-stuck
states (applying a code with no program reading, the self-application
spine of 0); those raise DivergedError so callers like the membership
checker can treat provable non-termination specially.

A derived combinator runs from a plan, compiled at its first fire by
reducing its bracket-abstracted body on opaque arguments (supercombinator
compilation by partial evaluation).  The compile fires only s and k, the
bookkeeping that moves arguments into place and whose count depends on
the body alone; every other application becomes an instruction that the
machine makes as it always would.  A plan charges the bookkeeping fires
as counts, each before the instruction it precedes, so a run charges the
steps it would charge firing them one by one, and runs out of fuel at
the same point, charged fuel + 1; they cannot get stuck.  A body whose
bookkeeping does not end within a fixed bound gets the trivial plan,
which applies the body to each argument in turn.

What a head code does is one lookup in terms.HEADS, made when a spine is
first peeled (the peel memo keeps it) and carried by the symbolic spines
built on it; a code not in it is data.  Outcomes are memoized per
application: a code applied to a code is keyed (f, a), and a saturated
spine whose arguments are all codes (a flag on the spine says so),
applied to a code, is keyed (head, argument codes, a).  The bookkeeping
applications inside a plan are not made, so they are not keys.  An entry
holds the outcome and its cost: the steps charged from the application's
fire to its value, or to the stuck point for an entry marked diverged (a
data head stuck at once costs 0).  The memo is read before the
application fires or is found stuck (a key is only ever written for an
application that fires or is stuck, so a hit skips nothing a miss would
do), written when the application returns a value, and marked diverged
for every application still open when DivergedError is raised; running
out of fuel leaves the open applications unrecorded.  A hit charges the
entry's cost, whatever run wrote it, and runs out of fuel if that is more
than is left, charged fuel + 1 as the reduction it stands for would be.
So the steps of a call are those of a reducer with no memo and no plans
(tests/reference_machine.py), a function of the call alone: the memo and
the plans change no outcome and no step count, only the time taken.  An
entry that cost one step is not kept, since one fire costs no more to
redo than to look up.  So a plan fires a number primitive (p p0 p1 sN pN
d) that an instruction saturates in place, with no memo key, lookup or
frame: that fire costs one step and is never stuck, so the memo holds no
entry for it to skip.  The memos and plans are cleared whenever the
library table grows, since that gives a stuck tag-2 code a program
reading.  tests/data/step_trace.json pins the steps charged on a fixed
corpus, cold and warm alike.

One combinator runs natively: MONUS = fix g, the library's truncated
subtraction, which romlib names once it is compiled.  A fire of g whose
first argument is MONUS itself (its code or the fix spine) and whose two
numbers x and a are ints gives x - a, or 0 when a > x, at once.  It is
charged what g's plan charges, and that is exact: every level of the loop
fires the same sequence whatever the naturals (fix, g, two d tests against
0, their lifted thunks and two pN), so the steps are level * min(x, a)
plus those of the base case that ends the loop, a reaching 0 first or x.
The three counts are measured on g's plan at the first native fire, by
running g on (0, 0), (1, 1) and (0, 1), and kept in a table memo, so they
go when the plans they came from do.  A fire short of fuel is charged
fuel + 1, as the plan's fires would be, and the memo records a native fire
as any other.  Every other operand (a Big, a spine) and every other first
argument takes the plan.
"""

from __future__ import annotations

from .pairing import _THRESHOLD_BITS, Code, canon, code_value, pair, unpair
from .terms import HEADS, app_view, mkapp, prim_code, table_memo

__all__ = [
    "Fuel", "DEFAULT_FUEL", "OutOfFuelError", "DivergedError",
    "apply_raw", "apply_chain", "fixpoint",
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
_MEMO, _SA, _SB, _PLAN = 0, 1, 2, 3

# ---------------------------------------------------------------------------
# Plans: a derived combinator's body, reduced once on opaque arguments
#
# A plan is (constants, instructions, framed).  A fire of the combinator
# fills registers [*constants, *arguments] and runs the instructions in
# order.  An instruction (fires, operator, operand) charges the s/k
# bookkeeping fires before it, applies the operator to the operand through
# the machine and appends the value as the next register; the last one,
# (fires, result, None), charges the fires after the last application and
# gives the result.  An operand is a register number, or a spine (head,
# HEADS entry, operands) built when it is read.  An instruction whose
# operator (a constant or a spine) has a number primitive head that the
# operand saturates is (fires, name, operands), fired in place on the
# primitive's arguments.  The value of an instruction past the first
# `framed` is the plan's result, so it runs as a tail call, with no frame
# to return to.

# the applications a compile may make, and the nesting of spine operands
# (built by host recursion) it may reach, before it gives the body the
# trivial plan; the library's bodies need at most 240 and 2
_PLAN_APPLICATIONS = 10_000
_PLAN_NESTING = 32

_NUMBER_FIRES = frozenset(("p", "p0", "p1", "sN", "pN", "d"))

_plans: dict = table_memo()


class _Opaque:
    """A register of a plan being compiled: an argument or an instruction's
    value, which the compile does not look into."""

    __slots__ = ("reg",)

    def __init__(self, reg: int):
        self.reg = reg


class _Unplannable(Exception):
    """A compile passed its bounds: the body gets the trivial plan."""


def _plan(head: Code, body: Code, arity: int) -> tuple:
    """Compile and keep the plan of the derived combinator head."""
    try:
        plan = _compile(body, arity)
    except _Unplannable:  # the trivial plan: apply the body to each argument in turn
        code = [(0, _Opaque(arity + i - 1) if i else body, _Opaque(i)) for i in range(arity)]
        plan = _lower(code, arity - 1, 0, _Opaque(2 * arity - 1))
    _plans[head] = plan
    return plan


def _compile(body: Code, arity: int) -> tuple:
    """Run body on opaque arguments by the machine's rules, firing only s
    and k; every other application becomes an instruction."""
    xs = [_Opaque(i) for i in range(arity)]
    stack: list = xs[:0:-1]
    f, a = body, xs[0]
    code: list = []
    fires = 0
    for _ in range(_PLAN_APPLICATIONS):
        # apply f to a
        if type(f) is _Spine:
            head, args, entry, _ = f
        elif type(f) is _Opaque:
            entry = None
        else:
            head, args, entry = _peel(f)
        if entry is not None and len(args) + 1 < entry[2]:
            val = _Spine((head, args + (a,), entry, False))
        elif entry is not None and entry[3] in ("s", "k"):
            fires += 1
            full = args + (a,)
            stack.extend(reversed(full[entry[2]:]))
            if entry[3] == "s":
                stack.append((_SA, full[1], full[2]))
                f, a = full[0], full[2]
                continue
            val = full[0]
        else:
            code.append((fires, f, a))
            fires = 0
            val = _Opaque(arity + len(code) - 1)
        # return val to the frames below
        if not stack:  # a last instruction whose value is the result is a tail call
            tail = not fires and type(val) is _Opaque and val.reg == arity + len(code) - 1
            return _lower(code, len(code) - tail, fires, val)
        frame = stack.pop()
        if type(frame) is not tuple:
            f, a = val, frame
        elif frame[0] == _SA:
            stack.append((_SB, val))
            f, a = frame[1], frame[2]
        else:
            f, a = frame[1], val
    raise _Unplannable


def _lower(code: list, framed: int, fires: int, result) -> tuple:
    """The plan of compiled instructions: registers numbered constants
    first (in the order met), then arguments, then instruction values."""
    consts: dict = {}
    code = code + [(fires, result, None)]
    for ins in code:  # number the constants
        _instruction(*ins, 0, consts)
    base = len(consts)
    return (tuple(consts), tuple(_instruction(*ins, base, consts) for ins in code), framed)


def _operand(v, base: int, consts: dict, depth: int = 0):
    if type(v) is _Opaque:
        return base + v.reg
    if type(v) is _Spine:
        if depth == _PLAN_NESTING:
            raise _Unplannable
        return (v[0], v[2], tuple(_operand(x, base, consts, depth + 1) for x in v[1]))
    return consts.setdefault(v, len(consts))


def _instruction(n: int, f, a, base: int, consts: dict) -> tuple:
    if a is not None and type(f) is not _Opaque:
        head, args, entry = f[:3] if type(f) is _Spine else _peel(f)
        if entry is not None and entry[3] in _NUMBER_FIRES and len(args) + 1 == entry[2]:
            return (n, entry[3], tuple(_operand(x, base, consts) for x in args + (a,)))
    return (n, _operand(f, base, consts), None if a is None else _operand(a, base, consts))


def _fire_number(name: str, xs):
    """The value of the number primitive name fired on its arguments xs."""
    if name == "p":
        return pair(_code_of(xs[0]), _code_of(xs[1]))
    if name == "d":
        return xs[0] if _code_of(xs[2]) == _code_of(xs[3]) else xs[1]
    a = _code_of(xs[0])
    if name == "sN":
        return a + 1 if isinstance(a, int) and a != _LAST_INT else canon(code_value(a) + 1)
    if name == "pN":
        if not isinstance(a, int):
            return canon(a.value() - 1)
        return a - 1 if a > 0 else 0
    return unpair(a)[0 if name == "p0" else 1]


def _build(op: tuple, regs: list) -> _Spine:
    """The spine a plan operand (head, entry, operands) stands for."""
    head, entry, ops = op
    vals = tuple([regs[x] if type(x) is int else _build(x, regs) for x in ops])
    return _Spine((head, vals, entry, _Spine not in map(type, vals)))


def _machine(code: Code, operands: tuple, budget: _Budget, native: bool = True):
    """Run code's own spine, then apply the value to each operand in
    turn; return the last value (int or _Spine).  With native false,
    MONUS runs from its plan like any derived combinator.

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
        (_PLAN, plan, regs, pc)  a derived combinator's plan is running:
                      append the value to regs unless pc is 0 (the plan
                      starts), then run instruction pc
    """
    stack: list = list(reversed(operands))
    push = stack.append
    pop = stack.pop
    memo = _apply_memo
    memo_get = memo.get
    peel_get = _peel_memo.get
    plans_get = _plans.get
    monus_body = _monus_body if native else None
    left = budget.left
    try:
        head, args, entry = _peel(code)
        if entry is None or len(args) < entry[2]:
            val = code  # data or an under-applied spine: a value as written
        else:
            left -= 1  # the dispatch; the fire is charged when the arguments are in
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
                if tag == _PLAN:
                    _, plan, regs, pc = frame
                    if pc:
                        regs.append(val)
                    fires, f, a = plan[1][pc]
                    while type(f) is str:  # a number primitive, fired in place
                        left -= fires + 1
                        if left < 0:
                            left = -1  # as the fires one by one would run out
                            raise OutOfFuelError
                        if f == "p":  # the most frequent, read without a list
                            x, y = a
                            x = regs[x] if type(x) is int else _build(x, regs)
                            y = regs[y] if type(y) is int else _build(y, regs)
                            val = pair(x.code() if type(x) is _Spine else x,
                                       y.code() if type(y) is _Spine else y)
                        else:
                            val = _fire_number(f, [regs[x] if type(x) is int else _build(x, regs)
                                                   for x in a])
                        if pc >= plan[2]:  # a tail instruction
                            break
                        regs.append(val)
                        pc += 1
                        fires, f, a = plan[1][pc]
                    if type(f) is str:  # a tail fired in place: val is the plan's result
                        continue
                    if fires:  # the s and k fires the plan stands for
                        left -= fires
                        if left < 0:
                            left = -1  # as the fires one by one would run out
                            raise OutOfFuelError
                    f = regs[f] if type(f) is int else _build(f, regs)
                    if a is None:  # the plan's end: f is the value
                        val = f
                        continue
                    if pc < plan[2]:
                        push((_PLAN, plan, regs, pc + 1))
                    a = regs[a] if type(a) is int else _build(a, regs)
                    break
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
                    if (head == monus_body and type(a) is int and type(args[1]) is int
                            and _code_of(args[0]) == _monus):  # MONUS x a, fired natively
                        x = args[1]
                        level, b_ends, a_ends = _monus_costs.get(head) or _measure_monus()
                        left -= (level * a + b_ends if a <= x else level * x + a_ends) - 1
                        if left < 0:
                            left = -1  # as the plan's fires one by one would run out
                            raise OutOfFuelError
                        val = x - a if a <= x else 0
                        break
                    # the plan's first instruction takes no value
                    plan = plans_get(head) or _plan(head, body, arity)
                    push((_PLAN, plan, [*plan[0], *args, a], 0))
                elif name == "fix":  # f is the (fix g) spine: the program's own code
                    push(a)
                    f, a = args[0], f
                    continue
                else:
                    val = _fire_number(name, args + (a,))
                break
    except DivergedError:
        for frame in stack:
            if type(frame) is tuple and frame[0] == _MEMO and frame[2] - left != 1:
                memo[frame[1]] = (_DIVERGED, frame[2] - left)
        raise
    finally:
        budget.left = left


# ---------------------------------------------------------------------------
# MONUS = fix g, fired natively (see the module docstring)

_monus = _monus_body = None
_monus_costs: dict = table_memo()


def set_native_monus(monus: Code) -> None:
    """Fire monus = fix g natively from now on: romlib's MONUS."""
    global _monus, _monus_body
    _monus, _monus_body = monus, app_view(monus)[1]


def _measure_monus() -> tuple:
    """(level, b ends, a ends): the steps of one level of MONUS x a, and
    those of g's fire when a is 0 and when x is 0 but a is not, each
    measured on g's plan and kept until the memos are next cleared."""
    def steps(x, a):
        budget = _Budget(DEFAULT_FUEL)
        _machine(_monus_body, (_monus, x, a), budget, native=False)
        return DEFAULT_FUEL - budget.left

    b_ends = steps(0, 0)
    costs = _monus_costs[_monus_body] = (steps(1, 1) - b_ends, b_ends, steps(0, 1))
    return costs


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
