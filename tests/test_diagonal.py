import random

import pytest
from hypothesis import given, settings, strategies as st

from kleeneset import diagonal, romlib as rom, vcodes
from kleeneset.diagonal import (
    CatalogueMachine, Requirement, SeqCode, build_h,
    default_catalogue, enumerate_requirements, extend_for_requirement,
    extract_g, impostor_report, requirement_satisfied, x_membership)
from kleeneset.machine import DivergedError, OutOfFuelError, apply_raw, fixpoint
from kleeneset.pairing import pair, unpair
from kleeneset.terms import A, L, Lam, N, Prim, V, compile_lambda, mkapps
from kleeneset.universe import Truncation
from kleeneset.vcodes import seq_decode, seq_encode


def const_machine(values, bound=50_000):
    code = compile_lambda(L("s", N(seq_encode(values))), "")
    return CatalogueMachine(f"const{values}", code, bound)


def test_requirement_rejects_equal_indices():
    with pytest.raises(ValueError):
        Requirement(2, 2, default_catalogue()[0])


def test_no_usable_stage_on_a_short_sequence():
    r = Requirement(0, 1, const_machine([]))
    status = requirement_satisfied(SeqCode((0, 0)), r)
    assert status.outcome == "no"


def test_constant_machine_fails_against_content():
    # a sequence long enough to admit n = 2 and 3, with content the
    # constant machine cannot reproduce
    seq = SeqCode(tuple([1] * 12))
    r = Requirement(0, 1, const_machine([]))
    status = requirement_satisfied(seq, r)
    assert status.outcome == "yes"


def test_copying_machine_fails_by_length():
    seq = SeqCode(tuple([0] * 12))
    copy = CatalogueMachine("copy", rom.M_COPY, 20_000)
    status = requirement_satisfied(seq, Requirement(0, 1, copy))
    assert status.outcome == "yes"


def test_extend_flips_the_last_component():
    # a machine that always predicts ten zeros; the extension must
    # reach length pair(1, 3) = 10 and disagree at the last slot
    r = Requirement(0, 1, const_machine([0] * 10))
    stage = extend_for_requirement(SeqCode(()), r)
    assert stage.extended and stage.resolved
    assert len(stage.seq) == pair(1, 3) == 10
    assert stage.seq.components[-1] == 1  # prediction 0, flipped to 1
    assert stage.witness is not None  # the wrong-length stage n=2 also counts


def test_extend_keeps_satisfied_sequences():
    seq = SeqCode(tuple([1] * 12))
    r = Requirement(0, 1, const_machine([]))
    stage = extend_for_requirement(seq, r)
    assert not stage.extended
    assert stage.seq is seq
    assert stage.witness is not None


def test_witness_parity_for_swapped_indices():
    # i > j settles at an even stage; the arithmetic decides, not prose
    r = Requirement(1, 0, const_machine([5, 5]))
    stage = extend_for_requirement(SeqCode(()), r)
    assert stage.witness is not None and stage.witness % 2 == 0


def test_upward_closure():
    rng = random.Random(3)
    seq = SeqCode(tuple([1] * 12))
    r = Requirement(0, 1, const_machine([]))
    assert requirement_satisfied(seq, r).outcome == "yes"
    for _ in range(20):
        longer = SeqCode(seq.components +
                         tuple(rng.randrange(4) for _ in range(rng.randrange(9))))
        assert requirement_satisfied(longer, r).outcome == "yes"


def test_build_h_small_run(catalogue):
    h, log = build_h(catalogue, 12)
    assert len(log) == 12
    assert all(s.resolved for s in log)
    gen = enumerate_requirements(catalogue)
    for _ in range(12):
        r = next(gen)
        assert requirement_satisfied(h, r).outcome == "yes"


def test_build_h_prefix_chain(catalogue):
    _, log = build_h(catalogue, 10)
    for earlier, later in zip(log, log[1:]):
        n = len(earlier.seq)
        assert later.seq.components[:n] == earlier.seq.components


def test_build_h_zero_stages(catalogue):
    h, log = build_h(catalogue, 0)
    assert len(h) == 0 and log == []


def test_build_h_refuses_an_empty_catalogue(time_limit):
    # no machine means no requirement: the search for the next one never
    # ended, so a time limit stops the test if it ever hangs again
    with time_limit(2, "build_h on an empty catalogue"):
        with pytest.raises(ValueError, match="empty catalogue"):
            build_h((), 2)
    assert build_h((), 0) == (SeqCode(()), [])


@pytest.mark.parametrize("name, bound", [
    ("copy", 0), ("copy", -1), ("copy", 1.5), ("copy", True), ("copy", "x"), ("copy", [1]),
    (5, 20_000), (None, None),
])
def test_catalogue_machines_take_a_string_name_and_a_positive_bound(name, bound):
    with pytest.raises(ValueError):
        CatalogueMachine(name, rom.M_COPY, bound)


def test_declared_step_bounds_are_honored(built_path, catalogue):
    h, _ = built_path
    for m in catalogue:
        for ln in (0, 3, len(h)):
            arg = seq_encode(h.components[:ln])
            apply_raw(m.code, arg, m.step_bound)  # must not run out


def test_x_membership_cases(built_path):
    h, _ = built_path
    assert x_membership(SeqCode(()), h) == "member"
    assert x_membership(h, h) == "member"
    altered = list(h.components)
    altered[-1] += 1
    assert x_membership(seq_encode(altered), h) == "nonmember"
    beyond = list(h.components) + [0]
    assert x_membership(seq_encode(beyond), h) == "beyond_truncation"
    assert x_membership(7, h) in ("nonmember", "member")


def test_requirement_enumeration_is_fair_and_deterministic(catalogue):
    gen = enumerate_requirements(catalogue)
    first = [(r.i, r.j, r.machine.name) for r, _ in zip(gen, range(8))]
    assert first[:4] == [(0, 1, "copy"), (0, 1, "const_empty"),
                         (1, 0, "copy"), (1, 0, "const_empty")]
    gen2 = enumerate_requirements(catalogue)
    again = [(r.i, r.j, r.machine.name) for r, _ in zip(gen2, range(8))]
    assert first == again


# ---------------------------------------------------------------------------
# the extraction pipeline


def test_extract_g_rejects_equal_indices():
    with pytest.raises(ValueError):
        extract_g(0, 3, 3)


def test_extract_g_single_argument_shape(built_path):
    h, _ = built_path
    g = extract_g(rom.M_COPY, 0, 1)
    prefix = seq_encode(h.components[:pair(0, 3)])
    try:
        out = apply_raw(g, prefix, 200_000)
    except (OutOfFuelError, DivergedError):
        out = None
    assert out != seq_encode(h.components[:pair(1, 3)])


def test_trivial_impostor_is_defeated(built_path):
    h, _ = built_path
    trivial = compile_lambda(L("x", N(rom.IOTA)))
    g = extract_g(trivial, 0, 1)
    status = requirement_satisfied(
        h, Requirement(0, 1, CatalogueMachine("g", g, None)), 200_000)
    assert status.outcome == "yes"


def test_impostor_report_small(catalogue, built_path):
    h, _ = built_path
    rows = impostor_report(catalogue[:3], h, 2, fuel=200_000)
    assert rows and all(r["defeated"] for r in rows)


def test_x_membership_coherent_across_truncations(catalogue):
    short, _ = build_h(catalogue, 6)
    longer, _ = build_h(catalogue, 30)
    assert longer.components[:len(short)] == short.components
    for length in range(len(short) + 1):
        c = seq_encode(short.components[:length])
        assert x_membership(c, short) == "member"
        assert x_membership(c, longer) == "member"
    altered = list(short.components)
    altered[0] += 1
    bad = seq_encode(altered)
    assert x_membership(bad, short) == "nonmember"
    assert x_membership(bad, longer) == "nonmember"


def test_extension_density_over_the_whole_catalogue(catalogue):
    # every declared-total machine, from scratch and from a grown prefix
    mid = SeqCode((0, 1, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0))
    for m in catalogue:
        for i, j in ((0, 1), (1, 0), (2, 4)):
            for start in (SeqCode(()), mid):
                stage = extend_for_requirement(start, Requirement(i, j, m))
                assert stage.resolved, (m.name, i, j)
                assert requirement_satisfied(stage.seq,
                                             Requirement(i, j, m)).outcome == "yes"


def test_undeclared_machine_exhausting_fuel_is_requeued():
    from kleeneset.terms import clear_caches
    clear_caches()  # a warm value cache would finish the run early
    # an undeclared (no step bound) machine too slow for the tiny budget
    slow = CatalogueMachine("slow_trunc", rom.M_TRUNC1, None)
    r = Requirement(0, 1, slow)
    stage = extend_for_requirement(SeqCode(()), r, fuel=30)
    assert stage.extended and not stage.resolved
    assert stage.witness is None
    assert len(stage.seq) == pair(1, 3)  # zero filler up to the target length
    # with a real budget the same requirement settles on the final prefix
    h, log = build_h((slow,), 1, fuel=30)
    assert not log[0].resolved
    h2, log2 = build_h((slow,), 1, fuel=2_000_000)
    assert log2[0].resolved


def test_an_open_stage_is_resolved_on_a_longer_segment_of_the_final_prefix():
    # an undeclared machine that loops on a segment shorter than 10 and is
    # stuck data on a longer one: requirement (0, 1) extends the empty
    # sequence at n = 3, on the segment of length pair(0, 3) = 9, and runs
    # out of fuel there; stage 3 grows the prefix to 123, so the retry
    # reaches n = 4, whose segment of length pair(0, 4) = 24 gets it stuck
    loop = fixpoint(mkapps(rom.S, rom.K, rom.K))
    late = CatalogueMachine("late", compile_lambda(L("t", A(
        Prim("d"), Lam("_", A(N(15), V("t"))), Lam("_", A(N(loop), V("t"))),
        A(N(rom.MONUS), N(10), A(Prim("p0"), V("t"))), N(0), N(0)))), None)
    r = Requirement(0, 1, late)
    first = extend_for_requirement(SeqCode(()), r, fuel=2000)
    assert first.extended and not first.resolved
    seq, log = build_h((late,), 3, fuel=2000)
    assert len(seq) == 123 and log[0].requirement == r
    assert (log[0].seq, log[0].resolved, log[0].witness, log[0].extended) == (
        first.seq, True, 4, True)
    assert requirement_satisfied(seq, r, fuel=2000).witness == 4


def test_x_membership_on_uninspectable_codes(built_path):
    h, _ = built_path
    # a code claiming an absurd length cannot be refuted, only deferred
    absurd = pair(10**9, 0)
    assert x_membership(absurd, h) == "beyond_truncation"
    big = pair(pair(2**3000, 1), 0)
    assert x_membership(big, h) == "beyond_truncation"
    # a sane-length non-canonical code is provably out
    junky = pair(3, pair(pair(1, 1), pair(1, 7)))
    assert x_membership(junky, h) == "nonmember"


# ---------------------------------------------------------------------------
# SeqCode as the path set: prefix codes and membership


def _membership_oracle(comps, c):
    """The path-set reading, straight from the decoded candidate."""
    length = unpair(c)[0]
    if not isinstance(length, int) or length > len(comps) + 65536:
        return "beyond"
    got = seq_decode(c)
    if got is None:
        return "nonmember"
    if len(got) <= len(comps):
        return "member" if tuple(got) == comps[:len(got)] else "nonmember"
    if any(not isinstance(x, int) for x in got):
        # a component past 2**2048 decodes as a Big: no longer path has it
        return "nonmember"
    return "beyond" if tuple(got[:len(comps)]) == comps else "nonmember"


_COMPONENTS = st.lists(st.integers(min_value=0, max_value=40)
                       | st.integers(min_value=0, max_value=2 ** 70)
                       | st.integers(min_value=2 ** 2048 - 4, max_value=2 ** 2100), max_size=12)

# codes of every shape: ints of up to 2048 bits and Big pairs of them
_CODES = st.recursive(st.integers(min_value=0, max_value=40)
                      | st.integers(min_value=0, max_value=2 ** 2048 - 1),
                      lambda kids: st.builds(pair, kids, kids), max_leaves=6)


@given(_COMPONENTS, st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=4),
       st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(min_value=0, max_value=20), _CODES), max_size=4))
@settings(max_examples=80, deadline=None)
def test_seqcode_prefix_codes_and_membership(comps, others, tail, drawn):
    comps = tuple(comps)
    s = SeqCode(comps)
    for n in range(len(comps) + 1):
        assert s.segment_code(n) == seq_encode(comps[:n])
    assert s.segment_code(len(comps) + 1) is None and s.segment_code(-1) is None
    assert s.code == seq_encode(comps)
    assert s.member_codes(3) == [seq_encode(comps[:n])
                                 for n in range(min(3, len(comps)) + 1)]
    candidates = [seq_encode(comps[:n]) for n in range(len(comps) + 1)]
    for k in range(len(comps)):
        bumped = list(comps)
        bumped[k] += 1
        candidates.append(seq_encode(bumped))
    candidates += [seq_encode(comps + tuple(tail)), seq_encode(tail), pair(10 ** 9, 0)]
    candidates += others
    for length, code in drawn:
        candidates += [code, pair(length, code), pair(len(comps) + length, code)]
    for c in candidates:
        assert s.membership(c) == _membership_oracle(comps, c), c
    twin = SeqCode(list(comps))
    assert twin == s and hash(twin) == hash(s)
    assert Truncation(distinguished=twin).key() == Truncation(distinguished=s).key()


@given(st.lists(st.integers(min_value=0, max_value=3)
                | st.integers(min_value=0, max_value=2 ** 40), max_size=300), st.randoms())
@settings(max_examples=25, deadline=None)
def test_every_prefix_code_is_the_code_of_the_prefix(comps, rng):
    s = SeqCode(comps)
    lengths = list(range(len(comps) + 1))
    rng.shuffle(lengths)  # the prefixes asked for in any order
    for n in lengths:
        assert s.segment_code(n) == seq_encode(comps[:n])


def test_seqcode_encodes_lazily_and_once(monkeypatch):
    want = seq_encode(range(7))
    calls = []
    def counting(a, b):
        calls.append((a, b))
        return pair(a, b)
    monkeypatch.setattr(diagonal, "pair", counting)
    monkeypatch.setattr(vcodes, "pair", counting)
    s = SeqCode(tuple(range(4000)))
    assert calls == []  # a long --h-prefix file costs no encoding to load
    assert s.membership(0) == "member"
    assert s.segment_code(7) == want
    assert 0 < len(calls) <= 16
    del calls[:]
    assert s.segment_code(7) == want
    assert calls == []


@pytest.mark.parametrize("bad", [None, 1.5, "1", True, -1, [0]])
def test_seqcode_rejects_components_that_are_not_naturals(bad):
    with pytest.raises(ValueError):
        SeqCode((0, bad, 1))
