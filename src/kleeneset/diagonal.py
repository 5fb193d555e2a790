"""The diagonal path: requirements, density-based extension, extraction.

A requirement (i, j, f) asks for a stage n with i, j < n at which the
machine f, fed the first pair(i, n) components of the path, fails to
output the code of the first pair(j, n) components (not halting counts
as failing).  Because pair(i, n) < pair(j, n) happens at arbitrarily
large n whenever i != j, the set of finite sequences satisfying any one
requirement is dense, and a finite catalogue of requirements can be
satisfied by one finite prefix built stage by stage.

The extension step follows the density argument literally: pick the
least usable n above the current length, pad with zeros up to the
pair(i, n) mark, ask f for its prediction, then extend to length
pair(j, n) making the last component disagree.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable

from . import romlib as rom
from ._value import Value, setfield
from .machine import (
    DEFAULT_FUEL, DivergedError, OutOfFuelError, apply_raw,
)
from .pairing import Code, incomparable_witness, pair, unpair
from .terms import mkapp, mkapps
from .vcodes import (
    _MAX_SEQ_LENGTH, seq_decode, seq_encode, seq_extends, seq_grow, seq_prefix_code,
)

__all__ = [
    "SeqCode", "PathView", "CatalogueMachine", "Catalogue", "Requirement",
    "Stage", "RequirementStatus",
    "requirement_satisfied", "extend_for_requirement", "build_h",
    "x_membership", "extract_g", "default_catalogue", "enumerate_requirements",
    "impostor_report",
]


class SeqCode(Value):
    """A finite sequence of naturals together with the codes of its prefixes.

    It also serves as the distinguished set of a truncation: the initial
    segments of the path this sequence is a prefix of.  Segments inside
    the prefix are decided, longer candidates that agree with the whole
    prefix are beyond the truncation, everything else is out.  The rows of
    aligned block codes (see vcodes) are grown only as far as the longest
    prefix asked for so far; a prefix code pairs the blocks that straddle
    its length, and is kept.  A longer candidate is compared block by block
    with the rows, never decoded.
    """

    _fields = ("components",)
    __slots__ = _fields + ("_rows", "_codes")  # no part of the value

    def __init__(self, components: Iterable[int]):
        comps = tuple(components)
        for k, x in enumerate(comps):
            if type(x) is not int or x < 0:
                raise ValueError(f"sequence component {k} is not a natural: {x!r}")
        setfield(self, "components", comps)
        setfield(self, "_rows", [comps])
        setfield(self, "_codes", {})

    def __len__(self) -> int:
        return len(self.components)

    @property
    def code(self) -> Code:
        return self.segment_code(len(self.components))

    def segment_code(self, length: int) -> Code | None:
        if not 0 <= length <= len(self.components):
            return None
        got = self._codes.get(length)
        if got is None:
            seq_grow(self._rows, length)
            got = self._codes[length] = seq_prefix_code(self._rows, length)
        return got

    def member_codes(self, segment_bound: int) -> list[Code]:
        return [self.segment_code(n)
                for n in range(min(segment_bound, len(self.components)) + 1)]

    def membership(self, c: Code) -> str:
        length = unpair(c)[0]
        known = len(self.components)
        if not isinstance(length, int) or length > known + 65536:
            # too long to inspect: could extend the path past the prefix
            return "beyond"
        if length <= known:
            return "member" if c == self.segment_code(length) else "nonmember"
        return "beyond" if seq_extends(self._rows, c) else "nonmember"


PathView = SeqCode  # the older name, kept only because bench/workloads.py builds D.PathView


class CatalogueMachine(Value):
    """A sequence predictor; step_bound, a positive int, marks it
    declared-total."""

    __slots__ = _fields = ("name", "code", "step_bound")

    def __init__(self, name: str, code: Code, step_bound: int | None = None):
        if not isinstance(name, str):
            raise ValueError(f"a machine name is a string, got {name!r}")
        if step_bound is not None and (type(step_bound) is not int or step_bound < 1):
            raise ValueError(f"a step bound is a positive integer or null, got {step_bound!r}")
        setfield(self, "name", name)
        setfield(self, "code", code)
        setfield(self, "step_bound", step_bound)


Catalogue = tuple[CatalogueMachine, ...]


class Requirement(Value):
    __slots__ = _fields = ("i", "j", "machine")

    def __init__(self, i: int, j: int, machine: CatalogueMachine):
        if i == j:
            raise ValueError("a requirement needs i != j")
        setfield(self, "i", i)
        setfield(self, "j", j)
        setfield(self, "machine", machine)


class Stage(Value):
    __slots__ = _fields = ("seq", "requirement", "witness", "resolved", "extended")


class RequirementStatus(Value):
    """outcome: "yes" | "no" | "unknown"."""
    __slots__ = _fields = ("outcome", "witness")
    _defaults = (None,)


def x_membership(t, h_prefix) -> str:
    """member | nonmember | beyond_truncation for a candidate code."""
    view = h_prefix if isinstance(h_prefix, SeqCode) else SeqCode(h_prefix)
    status = view.membership(t.code if isinstance(t, SeqCode) else t)
    return "beyond_truncation" if status == "beyond" else status


# ---------------------------------------------------------------------------
# Requirement checking and extension


def _run_machine(m: CatalogueMachine, arg: Code, fuel: int) -> tuple[str, Code]:
    budget = m.step_bound if m.step_bound is not None else fuel
    try:
        return "value", apply_raw(m.code, arg, budget)
    except OutOfFuelError:
        return ("declared_exhausted" if m.step_bound is not None
                else "out_of_fuel"), 0
    except DivergedError:
        return "diverged", 0


def requirement_satisfied(t: SeqCode, r: Requirement,
                          fuel: int = DEFAULT_FUEL) -> RequirementStatus:
    """Search all usable stages for one where the machine fails.

    Failing means: wrong output, provable divergence, or (for a machine
    with a declared step bound) not finishing inside its own bound.
    Only an undeclared machine running out of fuel leaves the answer
    open.
    """
    length = len(t)
    saw_unknown = False
    for n in range(max(r.i, r.j) + 1, math.isqrt(length) + 2):
        pin = pair(r.i, n)
        pjn = pair(r.j, n)
        if pin > length or pjn > length:
            continue
        status, out = _run_machine(r.machine, t.segment_code(pin), fuel)
        if status in ("declared_exhausted", "diverged"):
            return RequirementStatus("yes", n)
        if status == "out_of_fuel":
            saw_unknown = True
            continue
        if out != t.segment_code(pjn):
            return RequirementStatus("yes", n)
    return RequirementStatus("unknown" if saw_unknown else "no", None)


def extend_for_requirement(t: SeqCode, r: Requirement,
                           fuel: int = DEFAULT_FUEL) -> Stage:
    """Extend the sequence so the requirement holds, following the
    density argument.

    Already-satisfied requirements return the sequence unchanged.  The
    extension pads with zeros to the pair(i, n) mark, runs the machine
    on that prefix, and extends to length pair(j, n) with a final
    component one above the machine's prediction (zeros when the
    prediction is shaped wrong or the machine did not halt).
    """
    status = requirement_satisfied(t, r, fuel)
    if status.outcome == "yes":
        return Stage(t, r, status.witness, True, False)
    n = incomparable_witness(r.i, r.j, len(t))
    pin = pair(r.i, n)
    pjn = pair(r.j, n)
    assert isinstance(pin, int) and isinstance(pjn, int) and pin < pjn
    if pjn > _MAX_SEQ_LENGTH:  # refused before a prefix that long is built
        raise ValueError(f"requirement ({r.i}, {r.j}) at stage n = {n} would extend the path "
                         f"to {pjn} components, past the {_MAX_SEQ_LENGTH} a sequence may have")
    comps = list(t.components) + [0] * (pin - len(t))
    run, out = _run_machine(r.machine, seq_encode(comps), fuel)
    last = 0
    if run == "value":
        predicted = seq_decode(out)
        if (predicted is not None and len(predicted) == pjn
                and isinstance(predicted[pjn - 1], int)):
            last = predicted[pjn - 1] + 1
    comps += [0] * (pjn - 1 - len(comps)) + [last]
    new = SeqCode(tuple(comps))
    if run == "out_of_fuel":
        return Stage(new, r, None, False, True)
    check = requirement_satisfied(new, r, fuel)
    assert check.outcome == "yes", (r, n)
    return Stage(new, r, check.witness, True, True)


def enumerate_requirements(catalogue: Catalogue):
    """Fair order: blocks by max(i, j, machine index), then (i, j, index)."""
    for m in itertools.count():
        indices = range(m + 1)
        for i, j, c in itertools.product(indices, indices, range(min(m + 1, len(catalogue)))):
            if i != j and max(i, j, c) == m:
                yield Requirement(i, j, catalogue[c])


def build_h(catalogue: Catalogue, stages: int,
            fuel: int = DEFAULT_FUEL) -> tuple[SeqCode, list[Stage]]:
    """Fold the extension step over the first `stages` requirements.

    Unresolved requirements (undeclared machines hitting fuel) are
    retried once against the final prefix and stay marked in the log if
    still open.  An empty catalogue poses no requirement, so it is a
    ValueError unless stages < 1.
    """
    if stages < 1:
        return SeqCode(()), []
    if not catalogue:
        raise ValueError("an empty catalogue poses no requirements")
    gen = enumerate_requirements(catalogue)
    seq = SeqCode(())
    log: list[Stage] = []
    for _ in range(stages):
        r = next(gen)
        stage = extend_for_requirement(seq, r, fuel)
        assert stage.seq.components[:len(seq)] == seq.components
        seq = stage.seq
        log.append(stage)
    for idx, stage in enumerate(log):
        if not stage.resolved:
            status = requirement_satisfied(seq, stage.requirement, fuel)
            if status.outcome == "yes":
                log[idx] = Stage(stage.seq, stage.requirement,
                                 status.witness, True, stage.extended)
    return seq, log


# ---------------------------------------------------------------------------
# The executable refutation: from a claimed inclusion realiser to a
# sequence predictor, which the built path then defeats


def extract_g(d: Code, i: int, j: int) -> Code:
    """Compile the proof pipeline from a claimed inclusion realiser.

    f n t feeds d the successor index and the antecedent evidence family
    for (i, t), then picks out component n; g recovers n from the input
    prefix length and returns the predicted longer segment.
    """
    if i == j:
        raise ValueError("extract_g requires i != j")
    f_code = mkapps(rom.FF, d, i)
    return mkapp(rom.GG, f_code)


def impostor_report(catalogue: Catalogue, h: SeqCode, index_bound: int,
                    fuel: int = DEFAULT_FUEL) -> list[dict]:
    """Run every catalogue machine as a claimed inclusion realiser.

    For each machine d and each i != j up to the bound, the extracted
    predictor must fail against the built prefix at some usable stage.
    """
    rows = []
    for m in catalogue:
        for i, j in itertools.permutations(range(index_bound + 1), 2):
            g = extract_g(m.code, i, j)
            status = requirement_satisfied(
                h, Requirement(i, j, CatalogueMachine(
                    f"extracted({m.name},{i},{j})", g, None)), fuel)
            rows.append({
                "machine": m.name, "i": i, "j": j,
                "defeated": status.outcome == "yes",
                "witness": status.witness,
            })
    return rows


def default_catalogue() -> Catalogue:
    """Eleven declared-total predictors: copy, two constants, truncators,
    single- and double-step extenders, and zero-padding guessers."""
    return (
        CatalogueMachine("copy", rom.M_COPY, 20_000),
        CatalogueMachine("const_empty", rom.M_EMPTY, 20_000),
        CatalogueMachine("trunc1", rom.M_TRUNC1, 2_000_000),
        CatalogueMachine("trunc2", rom.M_TRUNC2, 2_000_000),
        CatalogueMachine("head1", rom.M_HEAD1, 2_000_000),
        CatalogueMachine("snoc0", rom.M_SNOC0, 2_000_000),
        CatalogueMachine("snoc1", rom.M_SNOC1, 2_000_000),
        CatalogueMachine("snoc00", rom.M_SNOC00, 4_000_000),
        CatalogueMachine("zeros_same", rom.M_ZEROS_SAME, 20_000),
        CatalogueMachine("zeros_plus1", rom.M_ZEROS_PLUS1, 20_000),
        CatalogueMachine("const101", rom.M_CONST101, 20_000),
    )
