import importlib.util
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from kleeneset import machine
from kleeneset import romlib as rom
from kleeneset import terms
from kleeneset.machine import (
    DEFAULT_FUEL, DivergedError, OutOfFuelError, apply_chain, apply_raw, fixpoint,
)
from kleeneset.pairing import canon, code_value, pair, unpair, unpair0, unpair1
from kleeneset.terms import (
    A, L, Lam, Lit, N, PRIM_ARITY, PRIM_ORDER, Prim, V, app_view,
    bracket_abstract, clear_caches, compile_lambda, decode, encode, mkapp, mkapps,
    prim_code, rom_size, UnboundVariableError)
from kleeneset.universe import NAT, check_in_U, din, fin, pi_code, sigma_code
from kleeneset.vcodes import seq_encode, v_numeral

# the helper that measures the steps a run is charged, as step_trace.json
# pins them, and its reducer with no memo that charges by the same rules
_spec = importlib.util.spec_from_file_location(
    "step_trace", Path(__file__).parent / "data" / "step_trace.py")
step_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_trace)


def test_basic_combinator_examples():
    assert apply_chain(rom.K, 3, 5) == 3
    assert apply_raw(rom.SN, 4) == 5
    assert apply_raw(rom.PN, 0) == 0
    assert apply_raw(rom.PN, 7) == 6
    assert apply_chain(rom.D, 8, 9, 2, 2) == 8
    assert apply_chain(rom.D, 8, 9, 2, 3) == 9
    assert apply_chain(rom.P, 2, 1) == 5
    assert apply_raw(rom.P0, 5) == 2
    assert apply_raw(rom.P1, 5) == 1


def test_a_combinator_may_not_take_a_primitive_name():
    # the machine tells heads apart by name: a combinator named "k" fired as k
    size = rom_size()
    for name in PRIM_ORDER:
        with pytest.raises(ValueError, match="primitive"):
            compile_lambda(L("x", "y", V("y")), name)
    assert rom_size() == size
    assert apply_chain(compile_lambda(L("x", "y", V("y")), "second"), 3, 4) == 4


def _total_pool(rng):
    """Programs that converge on any argument, for law instances."""
    x = rng.randrange(100)
    y = rng.randrange(100)
    return [rom.K, rom.P, rom.SN, rom.PN, rom.P0, rom.P1,
            mkapp(rom.K, x), mkapp(mkapp(rom.D, x), y)]


def test_k_law_randomized():
    rng = random.Random(11)
    for _ in range(500):
        a, b = rng.randrange(10 ** 6), rng.randrange(10 ** 6)
        assert apply_chain(rom.K, a, b) == a


def test_s_law_randomized():
    rng = random.Random(12)
    for _ in range(500):
        a = rng.choice([rom.K, rom.P, mkapp(mkapp(rom.D, rng.randrange(50)),
                                            rng.randrange(50))])
        b = rng.choice(_total_pool(rng))
        c = rng.randrange(10 ** 4)
        lhs = apply_chain(rom.S, a, b, c)
        rhs = apply_raw(apply_raw(a, c), apply_raw(b, c))
        assert lhs == rhs


def test_succ_pred_laws_randomized():
    rng = random.Random(13)
    for _ in range(500):
        a = rng.randrange(10 ** 9)
        assert apply_raw(rom.SN, a) == a + 1
        assert apply_raw(rom.PN, a) == max(a - 1, 0)


def test_successor_codes_are_canonical_at_the_int_boundary():
    # the successor of the largest int code is a Big, as canon makes it,
    # so a dict keyed by canonical codes finds it
    last = (1 << 2048) - 1
    for a in (last - 1, last, canon(1 << 2048), canon((1 << 2048) + 5)):
        got = apply_raw(rom.SN, a)
        assert got is canon(code_value(a) + 1) or got == canon(code_value(a) + 1) == code_value(a) + 1
        assert type(got) is type(canon(code_value(a) + 1))
        assert {canon(code_value(a) + 1): True}.get(got)
        assert apply_raw(rom.PN, got) == a and type(apply_raw(rom.PN, got)) is type(a)


def test_d_law_randomized():
    rng = random.Random(14)
    for _ in range(500):
        a, b = rng.randrange(10 ** 6), rng.randrange(10 ** 6)
        if rng.random() < 0.5:
            c1 = c2 = rng.randrange(10 ** 6)
        else:
            c1, c2 = rng.randrange(10 ** 6), rng.randrange(10 ** 6)
        want = a if c1 == c2 else b
        assert apply_chain(rom.D, a, b, c1, c2) == want


def test_pair_laws_randomized():
    rng = random.Random(15)
    for _ in range(500):
        a, b = rng.randrange(10 ** 6), rng.randrange(10 ** 6)
        c = apply_chain(rom.P, a, b)
        assert c == pair(a, b)
        assert apply_raw(rom.P0, c) == a
        assert apply_raw(rom.P1, c) == b


def test_fuel_monotonicity_and_value_stability():
    f = rom.MONUS
    lo = None
    for fuel in (40, 80, 200, 10 ** 5):
        try:
            r = apply_chain(f, 9, 4, fuel=fuel)
        except OutOfFuelError:
            assert lo is None, "a value must not degrade with more fuel"
            continue
        if lo is None:
            lo = r
        assert r == lo == 5


def test_apply_deterministic():
    for _ in range(3):
        assert apply_chain(rom.PLUS, 17, 25) == 42


def test_under_applied_primitives_are_values():
    spine = apply_raw(rom.K, 9)
    assert spine == mkapp(rom.K, 9)
    assert apply_raw(spine, 1) == 9
    assert apply_chain(spine) == spine  # evaluation keeps the written form


def test_out_of_fuel_on_self_application():
    with pytest.raises(DivergedError):  # the self-application spine of 0 is stuck
        apply_raw(0, 0, fuel=100)


def test_junk_as_program_reports_out_of_fuel():
    with pytest.raises(DivergedError):  # 15 has no program reading in head position
        apply_raw(15, 3, fuel=1000)


def test_literals_are_inert_arguments():
    assert apply_raw(rom.SN, 15) == 16
    assert apply_chain(rom.K, 0, 5) == 0


# ---------------------------------------------------------------------------
# bracket abstraction


def test_bracket_identity():
    ident = bracket_abstract(V("x"), "x")
    assert apply_raw(encode(ident), 7) == 7


def test_bracket_sigma_display():
    # the two-argument constructor that tags a pair with 2
    sigma = compile_lambda(L("n", "m", A(Prim("p"), N(2),
                                         A(Prim("p"), V("n"), V("m")))))
    for n, m in ((0, 0), (3, 5), (11, 2)):
        assert apply_chain(sigma, n, m) == pair(2, pair(n, m))
    assert apply_chain(rom.SIGMA_PROG, 3, 5) == pair(2, pair(3, 5))
    assert apply_chain(rom.PI_PROG, 3, 5) == pair(3, pair(3, 5))


def test_bracket_constant_composition():
    # \x. k, applied to anything, then to (a, b), gives a
    f = compile_lambda(L("x", Prim("k")))
    assert apply_chain(f, 99, 4, 7) == 4


def test_bracket_unbound_variable():
    with pytest.raises(UnboundVariableError):
        bracket_abstract(A(V("x"), V("y")), "x")


def test_lambda_lift_gives_small_closures():
    two = compile_lambda(L("a", "b", A(Prim("p"), V("a"), V("b"))))
    partial = apply_raw(two, 6)
    assert apply_raw(partial, 7) == pair(6, 7)


# ---------------------------------------------------------------------------
# the recursion theorem


def test_fixpoint_of_identity_step():
    e = fixpoint(compile_lambda(L("e", "x", V("x"))))
    for n in (0, 1, 2):
        assert apply_raw(e, n) == n


def test_delta_iota_identities():
    assert unpair0(rom.IOTA) == rom.DELTA
    assert unpair1(rom.IOTA) == rom.DELTA
    assert rom.IOTA == pair(rom.DELTA, rom.DELTA)
    for n in (0, 1, 4, 9):
        assert apply_raw(rom.DELTA, n) == pair(n, rom.IOTA)


def test_fixpoint_contract():
    # e x = f e x for the step f it was built from
    step = compile_lambda(L("e", "n", A(Prim("p"), V("n"), V("e"))))
    e = fixpoint(step)
    for n in (0, 5):
        assert apply_raw(e, n) == apply_raw(apply_chain(step, e), n) == pair(n, e)


def test_fixpoint_factorial():
    mul = rom.MONUS  # placeholder to keep names close; real mult below
    fact_step = L("f", "n",
                  A(Prim("d"),
                    Lam("_", N(1)),
                    Lam("_", A(Lit(rom.PLUS), V("n"), N(0))),
                    V("n"), N(0), N(0)))
    # a genuine multiply: iterate addition
    mult = fixpoint(compile_lambda(L("f", "a", "b",
        A(Prim("d"),
          Lam("_", N(0)),
          Lam("_", A(Lit(rom.PLUS), V("b"),
                     A(V("f"), A(Prim("pN"), V("a")), V("b")))),
          V("a"), N(0), N(0)))))
    assert apply_chain(mult, 3, 4) == 12
    fact = fixpoint(compile_lambda(L("f", "n",
        A(Prim("d"),
          Lam("_", N(1)),
          Lam("_", A(Lit(mult), V("n"), A(V("f"), A(Prim("pN"), V("n"))))),
          V("n"), N(0), N(0)))))
    assert apply_raw(fact, 0) == 1
    assert apply_raw(fact, 3) == 6
    assert apply_raw(fact, 5) == 120


# ---------------------------------------------------------------------------
# coding


def test_encode_decode_roundtrip_on_canonical_codes():
    samples = [rom.K, rom.S, rom.SN, pair(1, 5),
               mkapp(rom.K, 3), mkapp(mkapp(rom.S, rom.K), rom.K),
               rom.TS, rom.NUMMAP, rom.IOTA, 0, 1, 9, 15]
    for c in samples:
        assert encode(decode(c)) == c


def test_decode_total_on_junk():
    t = decode(pair(9, 9))
    assert encode(t) == pair(9, 9)


@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_pair_program_agrees_with_arithmetic(a, b):
    assert apply_chain(rom.P, a, b) == pair(a, b)
    assert apply_raw(rom.P0, pair(a, b)) == a
    assert apply_raw(rom.P1, pair(a, b)) == b


@given(st.integers(min_value=0, max_value=10**4))
@settings(max_examples=40, deadline=None)
def test_fix_contract_holds_for_arbitrary_inputs(x):
    # e x = f e x, with f the step the fixpoint was built from
    step = compile_lambda(L("e", "n", A(Prim("p"), V("n"), A(Prim("sN"), V("n")))))
    e = fixpoint(step)
    assert apply_raw(e, x) == apply_raw(apply_chain(step, e), x) == pair(x, x + 1)


def test_values_identical_cold_and_warm():
    rng = random.Random(31)
    jobs = []
    for _ in range(60):
        kind = rng.randrange(4)
        if kind == 0:
            jobs.append((rom.MONUS, (rng.randrange(30), rng.randrange(30))))
        elif kind == 1:
            jobs.append((rom.PLUS, (rng.randrange(30), rng.randrange(30))))
        elif kind == 2:
            jobs.append((rom.TS, (pair(3, pair(pair(1, 0), pair(2, 0))),
                                  rng.randrange(4))))
        else:
            jobs.append((rom.NUMMAP, (rng.randrange(6),)))
    clear_caches()
    cold = [apply_chain(f, *args) for f, args in jobs]
    warm = [apply_chain(f, *args) for f, args in jobs]
    clear_caches()
    again = [apply_chain(f, *args) for f, args in jobs]
    assert cold == warm == again


# ---------------------------------------------------------------------------
# what the machine charges and how it reads a head code

_SEQ = seq_encode([1, 2, 3, 4, 5, 6])

COLD_MINIMUM_FUEL = [  # program, arguments, least fuel that converges, cold or warm
    ("HALF", (200,), 7628),
    ("PLUS", (3, 4), 278),
    ("MONUS", (9, 4), 585),
    ("ELEMOF", (_SEQ, 4), 6850),
    ("EQ", (v_numeral(3).code, v_numeral(3).code), 141),
    ("SNOC", (_SEQ, 7), 10854),
    ("TS", (_SEQ, 3), 6581),
]


@pytest.mark.parametrize("name,args,fuel", COLD_MINIMUM_FUEL,
                         ids=[row[0] for row in COLD_MINIMUM_FUEL])
def test_cold_minimum_fuel_is_pinned(name, args, fuel):
    f = getattr(rom, name)
    clear_caches()
    apply_chain(f, *args, fuel=fuel)
    clear_caches()
    with pytest.raises(OutOfFuelError):
        apply_chain(f, *args, fuel=fuel - 1)
    apply_chain(f, *args)  # warm, the memo holds every part of the call
    with pytest.raises(OutOfFuelError):
        apply_chain(f, *args, fuel=fuel - 1)
    assert apply_chain(f, *args, fuel=fuel) == apply_chain(f, *args)


# A run starts on the code's own spine, then applies the value to each
# operand in turn.  Each shape below is (k sN) once its own spine is run.
# A data head with operands is left out: it diverges at 0 steps whatever
# the fuel, and step_trace.json pins that cold and warm.
_K, _SN = prim_code("k"), prim_code("sN")
_KSN = mkapp(_K, _SN)
START_SHAPES = {
    "data head": mkapp(pair(3, 0), 7),
    "under-applied": _KSN,
    "redex": mkapps(_K, _KSN, 9),
    "one-argument redex": mkapp(prim_code("p0"), pair(_KSN, 0)),
    "over-applied": mkapps(_K, _K, 9, _SN),
}
START_RUNS = [  # shape, operands, value, steps charged cold and warm alike
    ("data head", (), START_SHAPES["data head"], 0),
    ("under-applied", (), _KSN, 0),
    ("under-applied", (9,), _SN, 1),
    ("under-applied", (9, 4), 5, 2),
    ("redex", (), _KSN, 2),
    ("redex", (9,), _SN, 3),
    ("redex", (9, 4), 5, 4),
    ("one-argument redex", (), _KSN, 2),
    ("over-applied", (), _KSN, 2),
    ("over-applied", (9,), _SN, 3),
    ("over-applied", (9, 4), 5, 4),
]


def _start(code, operands, fuel, warm):
    """Outcome and steps of one run from a clearing; warm, after the same
    run once at the default fuel."""
    clear_caches()
    if warm:
        step_trace.run(code, operands, DEFAULT_FUEL)
    return step_trace.run(code, operands, fuel)


@pytest.mark.parametrize("shape,operands,value,steps", START_RUNS,
                         ids=[f"{row[0]} on {len(row[1])}" for row in START_RUNS])
def test_a_run_starts_on_the_code_then_takes_each_operand(shape, operands, value, steps):
    code = START_SHAPES[shape]
    exact = max(steps, 1)  # the least fuel that reaches the value
    for warm in (False, True):
        assert _start(code, operands, exact, warm) == {"outcome": value, "steps": steps}
        if exact > 1:  # one step less runs out, and is charged every step it had
            assert _start(code, operands, exact - 1, warm) == {
                "outcome": "out_of_fuel", "steps": exact}


# ---------------------------------------------------------------------------
# the fuel a call costs depends on the call alone


# fix (s k k): e x = e x, so it runs out of fuel at every fuel
_LOOP = fixpoint(mkapps(prim_code("s"), rom.K, rom.K))
# s (k 15) k x: the s and k fires, then 15 is stuck in head position
_STUCK_AFTER_TWO = mkapps(prim_code("s"), mkapp(rom.K, 15), rom.K)
# Derived combinators whose bodies show each shape the machine meets in a
# body: INNER (arity 5, a variable applied to a variable), HALF (recursion
# through fix), ELEMOF (eta-reduced at its last binder; a k constant holds
# the saturated redex POW2GE 1, returned as an inert code and then
# over-applied).  Two are lambdas, compiled by the test that draws them,
# so that no test module grows the library table at import:
# \x. p (15 x) x, where the data constant 15 is stuck in head position
# after three s/k fires;
_STUCK_MID_BODY = L("x", A(Prim("p"), A(N(15), V("x")), V("x")))
# \x. W W x with W = s I I: the body eta-reduces to the over-applied
# constant W W, whose s/k reduction never ends
_I = A(Prim("s"), Prim("k"), Prim("k"))
_W = A(Prim("s"), _I, _I)
_W_W = L("x", A(_W, _W, V("x")))
_LEAVES = (st.sampled_from([prim_code(name) for name in PRIM_ORDER]
                           + [rom.PLUS, rom.MONUS, rom.TS, _LOOP, rom.HALF, rom.INNER,
                              rom.GG, rom.ELEMOF, _STUCK_MID_BODY, _W_W])
           | st.integers(min_value=0, max_value=20))
_TERMS = st.recursive(_LEAVES, lambda t: st.tuples(t, t), max_leaves=8)
_CALLS = st.tuples(_TERMS, st.lists(_TERMS, min_size=1, max_size=3).map(tuple),
                   st.integers(min_value=1, max_value=2000))


def _code(t):
    """The code of a drawn program: a pair applies its first to its second,
    and a lambda is compiled."""
    if isinstance(t, tuple):
        return mkapp(_code(t[0]), _code(t[1]))
    return compile_lambda(t) if isinstance(t, Lam) else t


@given(call=_CALLS)
@example(call=(rom.PLUS, (3, 4), 278))  # a value at exactly its cost
@example(call=(rom.PLUS, (3, 4), 277))  # one step short: out of fuel, whatever the memo holds
@example(call=(_LOOP, (0,), 50))  # out of fuel at every fuel
@example(call=(15, (3,), 10))  # a data head, stuck at once
@example(call=(_STUCK_AFTER_TWO, (0,), 10))  # stuck after two fires
@example(call=(_STUCK_AFTER_TWO, (0,), 1))  # out of fuel before the stuck point
@example(call=(rom.INNER, (rom.K, pair(0, rom.SN), pair(0, rom.SN), 3, 4), 56))
@example(call=(rom.HALF, (20,), 788))
@example(call=(rom.ELEMOF, (seq_encode([1, 2, 3]), 1), 3435))
@example(call=(_STUCK_MID_BODY, (0,), 10))  # stuck after four fires
@example(call=(_STUCK_MID_BODY, (0,), 3))  # out of fuel in the s/k fires
@example(call=(_W_W, (0,), 1000))
@settings(max_examples=150, deadline=None)
def test_a_call_charges_the_same_whatever_ran_before_it(call):
    f, args, fuel = _code(call[0]), tuple(map(_code, call[1])), call[2]
    want = step_trace.reference_run(f, args, fuel)
    runs = {"after the calls before it": step_trace.run(f, args, fuel)}
    clear_caches()
    runs["cold"] = step_trace.run(f, args, fuel)
    step_trace.run(f, args, 4 * fuel)  # the memo now holds what a larger budget reached
    runs["warm"] = step_trace.run(f, args, fuel)
    clear_caches()
    runs["after clearing"] = step_trace.run(f, args, fuel)
    assert runs == dict.fromkeys(runs, want)


def test_a_body_whose_bookkeeping_never_ends_answers_as_the_reference(time_limit):
    # its s/k reduction on unknown arguments never ends, so the machine
    # must not try to finish it before the first run can answer
    w_w = compile_lambda(_W_W)
    with time_limit(5, "the first run"):
        first = step_trace.run(w_w, (0,), 1000)
    assert first == step_trace.reference_run(w_w, (0,), 1000)
    assert first == {"outcome": "out_of_fuel", "steps": 1001}
    assert (step_trace.run(w_w, (0,), 100_000)
            == step_trace.reference_run(w_w, (0,), 100_000))


def test_a_body_that_nests_partial_applications_deeply_answers_as_the_reference():
    # \x. d (d (... (d x))), 40 deep: its value is a spine nested 40 deep,
    # past the depth to which a plan nests spines, so the body runs from
    # the trivial plan
    body = V("x")
    for _ in range(40):
        body = A(Prim("d"), body)
    code = compile_lambda(L("x", body))
    for fuel in (5, 1000):
        assert step_trace.run(code, (3,), fuel) == step_trace.reference_run(code, (3,), fuel)


def test_a_warm_repeat_is_answered_from_the_memo_at_its_cold_steps(monkeypatch):
    clear_caches()
    cold = step_trace.run(rom.PLUS, (3, 4), DEFAULT_FUEL)
    lookups = []

    class Recording(dict):
        def get(self, key):
            got = dict.get(self, key)
            lookups.append((len(key), got is not None))
            return got

    monkeypatch.setattr(machine, "_apply_memo", Recording(machine._apply_memo))
    assert step_trace.run(rom.PLUS, (3, 4), DEFAULT_FUEL) == cold == {"outcome": 7, "steps": 278}
    # PLUS is fix g.  PLUS 3 is one fix fire, which the memo does not keep,
    # and g PLUS is under-applied; then the spine g PLUS 3 applied to 4 is
    # found under its key of head, argument codes and operand, and charged
    # the 277 steps it cost
    assert lookups == [(2, False), (2, False), (3, True)]


def _read_head(code):
    """A head code read from its tag and payload: ('prim' | 'sc', arity),
    ('node', (operator, operand)) for a table application node, or
    ('data', None) for every code with no program reading."""
    tag, payload = unpair(code)
    if tag == 1 and isinstance(payload, int) and payload < len(PRIM_ORDER):
        return "prim", PRIM_ARITY[PRIM_ORDER[payload]]
    if tag == 2 and isinstance(payload, int) and payload < rom_size():
        entry = terms._rom[payload]
        if entry[0] == "node":
            return "node", (entry[1], entry[2])
        return "sc", entry[2]
    return "data", None


def _assert_machine_reads(code):
    kind, info = _read_head(code)
    if kind == "node":
        assert app_view(code) == info
        return
    assert app_view(code) is None
    if kind == "data":  # inert as written, stuck in head position
        assert apply_chain(mkapp(code, 7), fuel=1) == mkapp(code, 7)
        with pytest.raises(DivergedError):
            apply_raw(code, 7, fuel=1)
        return
    under = mkapps(code, *[7] * (info - 1))
    assert apply_chain(under, fuel=1) == under  # under-applied: a value, no fuel
    with pytest.raises(OutOfFuelError):  # full arity: one dispatch, one fire
        apply_chain(mkapp(under, 7), fuel=1)


def test_machine_reads_head_codes_by_tag_and_payload():
    clear_caches()
    codes = [prim_code(name) for name in PRIM_ORDER]
    codes += [pair(2, i) for i in range(rom_size())]
    codes += [pair(3, 0), pair(4, 5), pair(17, 2), pair(1, 9), pair(1, 2 ** 40),
              pair(1, 2 ** 5000), pair(2, 2 ** 5000), pair(3, 2 ** 5000)]
    for code in codes:
        _assert_machine_reads(code)
    past = pair(2, rom_size())
    _assert_machine_reads(past)
    assert _read_head(past) == ("data", None)
    fresh = compile_lambda(L("x", "y", A(Prim("p"), V("y"), A(Prim("p"), V("x"), V("y")))))
    assert _read_head(past) != ("data", None)
    for code in (past, fresh):
        _assert_machine_reads(code)
    assert _read_head(fresh) == ("sc", 2)


_GROWN_TABLE_SCRIPT = """
from kleeneset import romlib as rom
from kleeneset.machine import DivergedError, apply_raw
from kleeneset.terms import A, L, Prim, V, compile_lambda, mkapp
from kleeneset.universe import NAT, check_in_U, din, fin, pi_code, sigma_code
code = compile_lambda(L("x", A(Prim("p"), V("x"), V("x"))))
try:
    value = apply_raw(code, 5)
except DivergedError:
    value = "diverged"
print(value, din(code, pi_code(fin(1), mkapp(rom.K, NAT))).status,
      check_in_U(sigma_code(fin(1), code)).status)
"""


def test_outcomes_do_not_outlive_a_growth_of_the_library_table(child_env):
    # the code just past the table is stuck until an entry lands there
    code = pair(2, rom_size())
    total_on_one = pi_code(fin(1), mkapp(rom.K, NAT))
    family_past_the_table = sigma_code(fin(1), code)
    with pytest.raises(DivergedError):
        apply_raw(code, 5)
    assert din(code, total_on_one).refuted
    assert check_in_U(family_past_the_table).refuted
    assert compile_lambda(L("x", A(Prim("p"), V("x"), V("x")))) == code
    warm = (f"{apply_raw(code, 5)} {din(code, total_on_one).status}"
            f" {check_in_U(family_past_the_table).status}")
    cold = subprocess.run([sys.executable, "-c", _GROWN_TABLE_SCRIPT], env=child_env,
                          capture_output=True, text=True, check=True).stdout.strip()
    # the family now answers fin 0 = pair(0, 0) at index 0
    assert warm == cold == f"{pair(5, 5)} realized realized"
