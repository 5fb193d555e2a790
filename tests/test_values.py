"""What every value class of the package does: immutable records that are
built by position or by keyword, equal only to a record of the same class
with equal fields, hashed as the tuple of their fields and printed as
`Name(field=value, ...)`.  Sets and dicts of them iterate in an order the
hash fixes, so the hash is pinned exactly."""

import subprocess
import sys

import pytest

from kleeneset import diagonal as D
from kleeneset import lworld as LW
from kleeneset import realizability as rz
from kleeneset import sexpr
from kleeneset import terms as T
from kleeneset import universe as U
from kleeneset import vcodes as VC
from kleeneset.machine import DEFAULT_FUEL

_M = D.CatalogueMachine("m", 3, 7)
_P = rz.Eq(rz.Var("x"), rz.Var("y"))
_Q = rz.In(rz.Var("x"), rz.Val(VC.VCode(5)))
_TR = U.Truncation(1, 2, 3, None)

# class, its fields and their values in order, the repr
VALUES = [
    (T.Prim, dict(name="k"), "Prim(name='k')"),
    (T.Lit, dict(value=3), "Lit(value=3)"),
    (T.Var, dict(name="x"), "Var(name='x')"),
    (T.App, dict(fn=T.Prim("s"), arg=T.Lit(0)), "App(fn=Prim(name='s'), arg=Lit(value=0))"),
    (T.Lam, dict(var="x", body=T.Var("x")), "Lam(var='x', body=Var(name='x'))"),
    (T.RomRef, dict(index=3), "RomRef(index=3)"),
    (T.Junk, dict(code=7), "Junk(code=7)"),
    (rz.Var, dict(name="x"), "Var(name='x')"),
    (rz.Val, dict(value=VC.VCode(5)), "Val(value=VCode(code=5))"),
    (rz.OPairT, dict(fst=rz.Var("a"), snd=rz.Var("b")),
     "OPairT(fst=Var(name='a'), snd=Var(name='b'))"),
    (rz.F0T, dict(index=rz.Var("n")), "F0T(index=Var(name='n'))"),
    (rz.Eq, dict(x=rz.Var("x"), y=rz.Var("y")), "Eq(x=Var(name='x'), y=Var(name='y'))"),
    (rz.In, dict(x=rz.Var("x"), y=rz.Var("y")), "In(x=Var(name='x'), y=Var(name='y'))"),
    (rz.Not, dict(body=_P), "Not(body=Eq(x=Var(name='x'), y=Var(name='y')))"),
    (rz.And, dict(lhs=_P, rhs=_Q), f"And(lhs={_P!r}, rhs={_Q!r})"),
    (rz.Or, dict(lhs=_P, rhs=_Q), f"Or(lhs={_P!r}, rhs={_Q!r})"),
    (rz.Implies, dict(lhs=_P, rhs=_Q), f"Implies(lhs={_P!r}, rhs={_Q!r})"),
    (rz.BAll, dict(var="x", bound=rz.Var("a"), body=_P),
     f"BAll(var='x', bound=Var(name='a'), body={_P!r})"),
    (rz.BEx, dict(var="x", bound=rz.Var("a"), body=_P),
     f"BEx(var='x', bound=Var(name='a'), body={_P!r})"),
    (rz.All, dict(var="x", body=_P), f"All(var='x', body={_P!r})"),
    (rz.Ex, dict(var="x", body=_P), f"Ex(var='x', body={_P!r})"),
    (rz.CheckBudget, dict(truncation=_TR, implication_bound=2, witness_family=(VC.VCode(5),)),
     "CheckBudget(truncation=Truncation(segment_bound=1, nat_bound=2, fuel=3, "
     "distinguished=None), implication_bound=2, witness_family=(VCode(code=5),))"),
    (D.SeqCode, dict(components=(1, 2)), "SeqCode(components=(1, 2))"),
    (D.CatalogueMachine, dict(name="m", code=3, step_bound=7),
     "CatalogueMachine(name='m', code=3, step_bound=7)"),
    (D.Requirement, dict(i=0, j=1, machine=_M), f"Requirement(i=0, j=1, machine={_M!r})"),
    (D.Stage, dict(seq=D.SeqCode(()), requirement=D.Requirement(0, 1, _M), witness=None,
                   resolved=True, extended=False),
     f"Stage(seq=SeqCode(components=()), requirement=Requirement(i=0, j=1, machine={_M!r}), "
     "witness=None, resolved=True, extended=False)"),
    (D.RequirementStatus, dict(outcome="yes", witness=4),
     "RequirementStatus(outcome='yes', witness=4)"),
    (U.Verdict, dict(status="unknown", note="why"), "Verdict(status='unknown', note='why')"),
    (U.Truncation, dict(segment_bound=1, nat_bound=2, fuel=3, distinguished=None),
     "Truncation(segment_bound=1, nat_bound=2, fuel=3, distinguished=None)"),
    (VC.VCode, dict(code=5), "VCode(code=5)"),
    (VC.EqType, dict(lhs=VC.VCode(1), rhs=VC.VCode(2), code=3),
     "EqType(lhs=VCode(code=1), rhs=VCode(code=2), code=3)"),
    (LW.SigmaCode, dict(u=frozenset({0}), sigma=frozenset()),
     "SigmaCode(u=frozenset({0}), sigma=frozenset())"),
    (sexpr._Tok, dict(text="(", pos=0), "_Tok(text='(', pos=0)"),
]
_IDS = [f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}" for cls, _, _ in VALUES]


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=_IDS)
def test_a_value_is_its_fields(cls, fields, text):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert tuple(getattr(by_keyword, f) for f in fields) == tuple(fields.values())
    assert hash(by_position) == hash(tuple(fields.values()))
    assert repr(by_position) == text
    assert {by_position, by_keyword} == {by_keyword}


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=_IDS)
def test_a_value_is_equal_only_within_its_class(cls, fields, text):
    x = cls(**fields)
    assert x.__eq__(tuple(fields.values())) is NotImplemented
    assert x != tuple(fields.values())
    assert x != object()


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=_IDS)
def test_a_value_cannot_be_changed(cls, fields, text):
    x = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) == value


# calls that break Python's call rules, each made from a class and its fields
BAD_CALLS = {
    "one positional too many": lambda cls, fields: cls(*fields.values(), None),
    "a required field left out": lambda cls, fields: cls(**dict(list(fields.items())[1:])),
    "an unknown keyword": lambda cls, fields: cls(**fields, no_such_field=None),
    "a field given twice": lambda cls, fields: cls(next(iter(fields.values())), **fields),
}
_EVERY_FIELD_DEFAULTED = {U.Truncation, rz.CheckBudget}


@pytest.mark.parametrize("cls, fields, call", [
    pytest.param(cls, fields, call, id=f"{name}-{case}")
    for (cls, fields, _), name in zip(VALUES, _IDS)
    for case, call in BAD_CALLS.items()
    if not (case == "a required field left out" and cls in _EVERY_FIELD_DEFAULTED)
])
def test_a_call_that_breaks_the_call_rules_is_a_type_error(cls, fields, call):
    with pytest.raises(TypeError):
        call(cls, fields)


@pytest.mark.parametrize("a, b", [
    (T.Var("k"), T.Prim("k")),
    (T.RomRef(3), T.Lit(3)),
    (T.Lit(7), T.Junk(7)),
    (rz.And(_P, _Q), rz.Or(_P, _Q)),
    (rz.Or(_P, _Q), rz.Implies(_P, _Q)),
    (rz.Eq(rz.Var("x"), rz.Var("y")), rz.In(rz.Var("x"), rz.Var("y"))),
    (rz.BAll("x", rz.Var("a"), _P), rz.BEx("x", rz.Var("a"), _P)),
    (rz.All("x", _P), rz.Ex("x", _P)),
    (rz.Var("x"), T.Var("x")),
])
def test_values_of_different_classes_differ_even_with_equal_fields(a, b):
    assert a != b and b != a
    assert hash(a) == hash(b)  # the same fields: only the class tells them apart
    assert len({a, b}) == 2


@pytest.mark.parametrize("value, fields", [
    (U.Verdict("realized"), ("realized", None)),
    (U.Truncation(), (16, 12, DEFAULT_FUEL, None)),
    (U.Verdict(status="refuted"), ("refuted", None)),
    (rz.CheckBudget(), (U.Truncation(), 8, ())),
    (D.CatalogueMachine("m", 3), ("m", 3, None)),
    (D.RequirementStatus("no"), ("no", None)),
])
def test_defaults(value, fields):
    assert hash(value) == hash(fields)
    assert value == type(value)(*fields)


def test_the_cli_reads_the_default_implication_bound_from_the_class():
    assert rz.CheckBudget.implication_bound == 8 == rz.CheckBudget().implication_bound


@pytest.mark.parametrize("build, message", [
    (lambda: U.Truncation(segment_bound=-1), "segment_bound must not be negative"),
    (lambda: U.Truncation(nat_bound=-1), "nat_bound must not be negative"),
    (lambda: U.Truncation(nat_bound=U.MAX_FIN_INDEX + 1), "exceeds"),
    (lambda: U.Truncation(fuel=0), "fuel must be positive"),
    (lambda: rz.CheckBudget(implication_bound=-1), "implication_bound must not be negative"),
    (lambda: rz.CheckBudget(witness_family=(5,)), "witness_family must hold VCode"),
    (lambda: D.CatalogueMachine(5, 0), "a machine name is a string"),
    (lambda: D.CatalogueMachine("m", 0, 0), "a step bound is a positive integer"),
    (lambda: D.CatalogueMachine("m", 0, True), "a step bound is a positive integer"),
    (lambda: D.CatalogueMachine("m", 0, 1.0), "a step bound is a positive integer"),
    (lambda: D.Requirement(2, 2, _M), "a requirement needs i != j"),
    (lambda: D.SeqCode((1, -1)), "sequence component 1 is not a natural"),
    (lambda: D.SeqCode((True,)), "sequence component 0 is not a natural"),
    (lambda: D.SeqCode(("1",)), "sequence component 0 is not a natural"),
])
def test_a_constructor_refuses_what_its_checks_refuse(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_a_sequence_takes_any_iterable_and_keeps_a_tuple():
    s = D.SeqCode([1, 2])
    assert s.components == (1, 2) and s == D.SeqCode(iter((1, 2)))


def test_the_prefix_code_cache_is_not_part_of_a_sequence():
    s, twin = D.SeqCode((3, 1, 4)), D.SeqCode((3, 1, 4))
    before = (hash(s), repr(s))
    assert s.code == VC.seq_encode((3, 1, 4)) and s.segment_code(1) == VC.seq_encode((3,))
    assert s == twin and (hash(s), repr(s)) == before == (hash(twin), repr(twin))


def test_importing_the_package_generates_no_code(child_env):
    """The value classes need no code generator: importing the package,
    and then its command line, loads none of these modules."""
    script = ("import sys\n"
              "generators = {'dataclasses', 'typing', 'inspect'}\n"
              "before = set(sys.modules)\n"
              "import kleeneset\n"
              "print(sorted(generators & (set(sys.modules) - before)))\n"
              "before = set(sys.modules)\n"
              "import kleeneset.cli\n"
              "print(sorted(generators & (set(sys.modules) - before)))\n")
    out = subprocess.run([sys.executable, "-c", script], env=child_env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["[]", "[]"]
