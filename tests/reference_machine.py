"""A reference reducer for the fuel machine: no memo and no symbolic spines.

    run(f, args, fuel) -> (outcome, steps)

answers apply_chain(f, *args, fuel=fuel) the plain way.  The outcome is
the value code, "out_of_fuel" or "diverged".  Every value is a code, and
every application is reduced afresh.  The charging rules are the ones
kleeneset.machine states:

  - one step for the dispatch when a run starts on a code whose own spine
    is a redex, and one step per combinator fire; nothing else costs;
  - a run whose fuel ends before a value appears is out of fuel, and is
    charged fuel + 1 steps: every step it had, and the one it lacked;
  - a data head in head position is stuck, and the run diverges, charged
    the steps made up to that point.

So the steps of a call depend on the call alone.  The machine must charge
the same, whatever its memo holds.
"""

from __future__ import annotations

from kleeneset.pairing import canon, code_value, pair, unpair
from kleeneset.terms import HEADS, app_view, mkapps


class _OutOfFuel(Exception):
    pass


class _Diverged(Exception):
    pass


def _peel(code):
    """Head, operand codes outermost-last, and the head's HEADS entry."""
    args = []
    head = code
    while True:
        view = app_view(head)
        if view is None or view[0] == head:  # the self-operator spine of 0 is data
            break
        args.append(view[1])
        head = view[0]
    return head, args[::-1], HEADS.get(head)


def _reduce(code, operands, fuel):
    left = fuel

    def charge():
        nonlocal left
        left -= 1
        if left < 0:
            raise _OutOfFuel

    # frames: ("arg", x) apply the value to x; ("s", b, c) the value is
    # a*c, next b*c; ("then", t) the value is b*c, next t*(b*c)
    stack = [("arg", x) for x in reversed(operands)]
    head, args, entry = _peel(code)
    if entry is not None and len(args) >= entry[2]:
        charge()  # the dispatch
        stack.extend(("arg", x) for x in reversed(args))
        val = head
    else:
        val = code
    while stack:
        frame = stack.pop()
        if frame[0] == "arg":
            f, a = val, frame[1]
        elif frame[0] == "s":
            stack.append(("then", val))
            f, a = frame[1], frame[2]
        else:
            f, a = frame[1], val
        while True:  # apply f to a until a value is in val
            head, args, entry = _peel(f)
            if entry is None:
                raise _Diverged(fuel - left)
            kind, body, arity, name = entry
            full = args + [a]
            if len(full) < arity:
                val = mkapps(head, *full)
                break
            charge()  # the fire
            for extra in reversed(full[arity:]):
                stack.append(("arg", extra))
            xs = full[:arity]
            if name == "s":
                stack.append(("s", xs[1], xs[2]))
                f, a = xs[0], xs[2]
                continue
            if name == "fix":  # g gets the code of the fix spine
                stack.append(("arg", xs[1]))
                f, a = xs[0], f if len(full) == arity else mkapps(head, xs[0])
                continue
            if kind == "sc":
                for x in reversed(xs[1:]):
                    stack.append(("arg", x))
                f, a = body, xs[0]
                continue
            if name == "k":
                val = xs[0]
            elif name == "d":
                val = xs[0] if xs[2] == xs[3] else xs[1]
            elif name == "p":
                val = pair(xs[0], xs[1])
            elif name == "sN":
                val = canon(code_value(xs[0]) + 1)
            elif name == "pN":
                val = canon(max(code_value(xs[0]) - 1, 0))
            elif name == "p0":
                val = unpair(xs[0])[0]
            else:  # p1
                val = unpair(xs[0])[1]
            break
    return val, left


def run(f, args, fuel: int):
    """(outcome, steps charged) of apply_chain(f, *args, fuel=fuel)."""
    try:
        val, left = _reduce(f, tuple(args), fuel)
    except _OutOfFuel:
        return "out_of_fuel", fuel + 1
    except _Diverged as exc:
        return "diverged", exc.args[0]
    return val, fuel - left
