import hashlib
import io
import json
import random
import resource
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kleeneset import cli, lworld as lw, romlib as rom, terms
from kleeneset.cli import build_parser
from kleeneset.machine import fixpoint
from kleeneset.pairing import canon, code_bits, code_value, is_big, pair
from kleeneset.realizability import All, BAll, BEx, Eq, F0T, In, Val, Var
from kleeneset.sexpr import (
    ParseError, parse_formula, parse_term, print_formula, print_term,
)
from kleeneset.terms import App, Junk, Lam, Lit, Prim, RomRef, Var as TVar, encode, mkapp, mkapps
from kleeneset.universe import fin, sigma_code
from kleeneset.vcodes import VCode, v_numeral, v_omega


def _library_table():
    return (terms.rom_size(), dict(terms.HEADS), dict(terms._node_index),
            dict(terms._sc_index))


def main(argv):
    """cli.main(argv), which must leave the library table as it found it."""
    before = _library_table()
    try:
        return cli.main(argv)
    finally:
        assert _library_table() == before, argv


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_term_examples():
    assert parse_term("(app k 3)") == App(Prim("k"), Lit(3))
    assert parse_term("(lam x (app x x))") == Lam("x", App(TVar("x"), TVar("x")))
    assert parse_term("iota") == Lit(rom.IOTA)
    assert parse_term("sN") == Prim("sN")


def test_parse_formula_examples():
    phi = parse_formula("(in a b)")
    assert phi == In(Var("a"), Var("b"))
    phi = parse_formula("(all x (numeral 3) (= x x))")
    assert isinstance(phi, BAll) and phi.var == "x"


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_term("(app k")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse_term("(app k 3) extra")
    with pytest.raises(ParseError):
        parse_formula("(= a)")


# one case for each way a parse can fail: (parser, input, message, position)
PARSE_ERRORS = [
    (parse_term, "(foo 1 2)", "unknown program form 'foo'", 1),
    (parse_term, "()", "unknown program form ')'", 1),
    (parse_term, ")", "unexpected ')'", 0),
    (parse_term, "(lam 3 x)", "bad binder '3'", 5),
    (parse_term, "(const x)", "const needs a table index", 7),
    (parse_term, "#", "unrecognized token '#'", 0),
    (parse_term, "(app k 3 4)", "expected ')', found '4'", 9),
    (parse_term, "(const 3 4)", "expected ')', found '4'", 9),
    (parse_term, "(app k", "unexpected end of input", 6),
    (parse_term, "(app k 3) extra", "trailing input 'extra'", 10),
    (parse_term, "(app " * 101 + "k 1" + ")" * 101, "nested deeper than 100", 500),
    (parse_formula, "", "unexpected end of input", 0),
    (parse_formula, "x", "expected '(', found 'x'", 0),
    (parse_formula, "(foo a b)", "unknown formula form 'foo'", 1),
    (parse_formula, "((= a a))", "unknown formula form '('", 1),
    (parse_formula, "(in (foo 1) a)", "unknown term form 'foo'", 5),
    (parse_formula, "(in (numeral x) a)", "numeral needs a natural", 13),
    (parse_formula, "(in (numeral 2 3) a)", "expected ')', found '3'", 15),
    (parse_formula, "(= # a)", "unrecognized term '#'", 3),
    (parse_formula, "(= a)", "unrecognized term ')'", 4),
    (parse_formula, "(not (= a a) (= a a))", "expected ')', found '('", 13),
    (parse_formula, "(all x omega (= x x)", "unexpected end of input", 20),
    (parse_formula, "(= a b) c", "trailing input 'c'", 8),
    (parse_formula, "(all ) omega (= a a))", "bad binder ')'", 5),
    (parse_formula, "(ex 3 omega (= a a))", "bad binder '3'", 4),
    (parse_formula, "(ALL (= a a))", "bad binder '('", 5),
    # numerals are ASCII digits: int() would reject the first and accept the second
    (parse_term, "\u00b2", "unrecognized token '\u00b2'", 0),
    (parse_term, "\u0663", "unrecognized token '\u0663'", 0),
    (parse_term, "(const \u00b2)", "const needs a table index", 7),
    (parse_formula, "(in (numeral \u0663) a)", "numeral needs a natural", 13),
    (parse_formula, "(= \u00b2 a)", "unrecognized term '\u00b2'", 3),
]


@pytest.mark.parametrize("parser, text, message, position", PARSE_ERRORS)
def test_parse_error_message_and_position(parser, text, message, position):
    with pytest.raises(ParseError) as err:
        parser(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def random_term(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(3)
        if choice == 0:
            return Lit(rng.randrange(50))
        if choice == 1:
            return Prim(rng.choice(("k", "s", "sN", "pN", "d", "p", "p0", "p1", "fix")))
        return TVar(rng.choice("xyz"))
    if rng.random() < 0.3:
        return Lam(rng.choice("xyz"), random_term(rng, depth - 1))
    return App(random_term(rng, depth - 1), random_term(rng, depth - 1))


def random_formula(rng, depth=2):
    from kleeneset import realizability as rz
    from kleeneset.vcodes import v_numeral

    def term():
        c = rng.randrange(4)
        if c <= 1:
            return Var(rng.choice("abc"))
        if c == 2:
            return rz.OPairT(Var("a"), Var("b"))
        return Val(v_numeral(rng.randrange(4)))

    if depth == 0 or rng.random() < 0.4:
        ctor = rng.choice((Eq, In))
        return ctor(term(), term())
    kind = rng.randrange(6)
    if kind == 0:
        return rz.Not(random_formula(rng, depth - 1))
    if kind == 1:
        return rz.And(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == 2:
        return rz.Or(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == 3:
        return rz.Implies(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind == 4:
        return rz.BAll(rng.choice("xy"), term(), random_formula(rng, depth - 1))
    return rz.Ex(rng.choice("xy"), random_formula(rng, depth - 1))


def test_term_roundtrip_generated():
    rng = random.Random(21)
    for _ in range(500):
        t = random_term(rng)
        assert parse_term(print_term(t)) == t
    for t in (RomRef(3), App(RomRef(0), Lam("x", RomRef(12)))):  # (const N)
        assert parse_term(print_term(t)) == t
    assert print_term(Lit(rom.IOTA)) == "iota" and parse_term("iota") == Lit(rom.IOTA)
    assert print_term(RomRef(3)) == "(const 3)"
    for code in (0, 1, 13):  # Junk prints as its code, which reads back as that code
        assert print_term(Junk(code)) == str(code)
        assert encode(parse_term(print_term(Junk(code)))) == code


def test_formula_roundtrip_generated():
    rng = random.Random(22)
    for _ in range(500):
        phi = random_formula(rng)
        assert parse_formula(print_formula(phi)) == phi
    phi = BAll("n", F0T(Var("i")), In(Var("n"), F0T(F0T(Val(v_numeral(2))))))
    assert print_formula(phi) == "(all n (f0 i) (in n (f0 (f0 (numeral 2)))))"
    assert parse_formula(print_formula(phi)) == phi
    # the forms random_formula never makes: ex, ALL, omega and a raw code
    phi = BEx("y", Val(v_omega()), All("z", Eq(Var("y"), Val(VCode(5)))))
    assert print_formula(phi) == "(ex y omega (ALL z (= y 5)))"
    assert parse_formula(print_formula(phi)) == phi


# ---------------------------------------------------------------------------
# the command line


@pytest.mark.parametrize("term, code", [
    ("7", "7"), ("k", "3"), ("(const 4)", "22"), ("(lam x x)", "833571"),
    ("iota", "15590439522856080192796427078550956106717791042"),
])
def test_cli_eval_of_a_leaf_is_its_code(term, code):
    assert run_cli("pca", "eval", term, "--json") == (
        0, json.dumps({"outcome": "value", "result": code}, separators=(",", ":")) + "\n")


def test_numeric_atoms_are_canonical_codes():
    huge = 2 ** 3000
    assert parse_term(str(huge)) == Lit(canon(huge)) and is_big(parse_term(str(huge)).value)
    assert parse_formula(f"(= {huge} 0)").x == Val(VCode(canon(huge)))
    digest = f"~2^{code_bits(canon(huge))}"
    for argv in (("pca", "eval", str(huge)), ("pca", "encode", str(huge)),
                 ("pca", "eval", f"(app (app k {huge}) 0)")):
        assert run_cli(*argv) == (0, digest + "\n"), argv


def test_cli_names_a_non_ascii_digit_in_its_own_words(capsys):
    for argv, err in ((("pca", "unpair", "\u00b2"), "expected a natural number, got '\u00b2'"),
                      (("pca", "eval", "\u00b2"), "unrecognized token '\u00b2' (at position 0)"),
                      (("pca", "eval", "(app sN \u0663)"), "unrecognized token '\u0663' (at position 8)")):
        assert main(list(argv)) == 2
        assert capsys.readouterr().err == f"error: {err}\n"


def test_cli_json_deterministic():
    args = ("vcode", "eq", "numeral:1", "numeral:2", "--json")
    _, first = run_cli(*args)
    _, second = run_cli(*args)
    assert first == second
    args = ("pca", "encode", "(lam x (app sN x))", "--json")
    _, first = run_cli(*args)
    _, second = run_cli(*args)
    assert first == second


@pytest.mark.parametrize("terms_in_order", [
    ("(lam y (app pN y))", "(lam x (app sN x))"),
    ("(lam x (app sN x))", "(lam y (app pN y))"),
])
def test_an_in_process_command_answers_as_the_console_script(terms_in_order):
    # each lambda is the first entry past the library, pair(2, 948), in a
    # fresh process, and so in any order in one process
    for term in terms_in_order:
        assert run_cli("pca", "encode", term) == (0, "900598\n"), term


def test_cli_check_relative_verdict(tmp_path):
    out_file = tmp_path / "h.json"
    rc, _ = run_cli("diagonal", "build", "--stages", "8", "--out", str(out_file))
    assert rc == 0
    rc, out = run_cli(
        "check", "(lam i (lam j (lam x iota)))",
        "(all i omega (all j omega (-> (all n (f0 i) (in n (f0 j))) (= i j))))",
        "--h-prefix", str(out_file), "--nat-bound", "2",
        "--segment-bound", "4", "--json")
    payload = json.loads(out)
    assert payload["verdict"] in ("unknown", "realized")
    assert payload["verdict"] != "refuted"


def test_cli_check_keeps_a_conjunct_note_on_either_side():
    # the bounded conjunct is realized relative to the enumeration bound, the
    # other outright; the conjunction keeps the note whichever side it is on
    relative = "(all x omega (= x x))"
    outright = "(= (numeral 1) (numeral 1))"
    for realiser, formula in (("(app (app p (lam i iota)) iota)", f"(and {relative} {outright})"),
                              ("(app (app p iota) (lam i iota))", f"(and {outright} {relative})")):
        rc, out = run_cli("check", realiser, formula, "--nat-bound", "3", "--json")
        assert (rc, out) == (0, '{"note":"relative to the index enumeration bound",'
                                '"verdict":"realized"}\n')


def test_cli_check_concrete_membership():
    rc, out = run_cli("check", "(app (app p 0) iota)",
                      "(in (numeral 0) (numeral 1))", "--json")
    assert json.loads(out)["verdict"] == "realized"
    assert rc == 0


def test_cli_catalogue_file(tmp_path):
    spec = [
        {"term": "(lam s s)", "step_bound": 20000, "name": "copy"},
        {"term": "(lam s 0)", "step_bound": 20000, "name": "empty"},
    ]
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    rc, out = run_cli("diagonal", "build", "--catalogue", str(path),
                      "--stages", "4", "--json")
    payload = json.loads(out)
    assert rc == 0 and len(payload["stages"]) == 4
    assert all(s["resolved"] for s in payload["stages"])


LOOP_CATALOGUE = [{"term": "(lam t (app (app (app fix (app (app s k) k)) t) t))"}]


def test_cli_builds_three_open_stages_of_a_machine_that_never_halts(tmp_path, time_limit):
    # each open stage pads the path past its length squared; the 351 prefix
    # codes of the 28,563 components cost a path of pairs each, not an encoding
    path = _write(tmp_path / "cat.json", LOOP_CATALOGUE)
    argv = ("diagonal", "build", "--catalogue", path, "--stages", "3", "--fuel", "100")
    with time_limit(2, "three stages of the loop catalogue"):
        rc, out = run_cli(*argv)
        assert (rc, out) == (0, "built a prefix of length 28563 over 3 stages (3 extensions)\n")
        rc, out = run_cli(*argv, "--json")
    assert rc == 0
    assert hashlib.md5(out.encode()).hexdigest() == "7a72087ee93d234536690e7ba5185400"


def test_cli_encodes_any_closed_term(tmp_path):
    # one encoder: lambda-free terms keep the code encode gives them
    for text in ("(app k 3)", "(app (app s k) k)", "(app iota 5)", "7", "sN", "(const 4)"):
        rc, out = run_cli("pca", "encode", text)
        assert (rc, out.strip()) == (0, str(encode(parse_term(text))))
    rc, out = run_cli("pca", "encode", "(app (lam x x) 7)")  # 7 is the successor program
    assert rc == 0 and run_cli("pca", "apply", out.strip(), "5")[1].strip() == "6"
    spec = [{"term": "(app (lam x (lam s x)) 0)", "step_bound": 20000, "name": "empty"},
            {"term": "(app k 0)", "step_bound": 20000, "name": "also empty"}]
    rc, out = run_cli("diagonal", "build", "--catalogue", _write(tmp_path / "cat.json", spec),
                      "--stages", "2", "--json")
    assert rc == 0 and len(json.loads(out)["stages"]) == 2


def test_cli_din_over_the_path_set(tmp_path):
    out_file = tmp_path / "h.json"
    run_cli("diagonal", "build", "--stages", "8", "--out", str(out_file))
    # the empty sequence (code 0) belongs to the path set (type code 2)
    rc, out = run_cli("universe", "din", "0", "2",
                      "--h-prefix", str(out_file), "--json")
    assert json.loads(out)["verdict"] == "realized"
    rc, out = run_cli("universe", "din", "0", "2", "--json")
    assert json.loads(out)["verdict"] == "unknown"


UNIVERSE_ANSWERS = [  # argv, stdout, exit code: 1 is a negative answer
    (("check-u", "31475006110386586987366", "--nat-bound", "2"), "refuted", 1),
    (("check-u", "31475006110386586987366", "--nat-bound", "1"),
     "realized (family checked up to the truncation)", 0),
    (("check-v", "1295"), "refuted", 1),
    (("check-v", "0"), "realized", 0),
    (("din", "5", "8"), "refuted", 1),
    (("din", "1", "8"), "realized", 0),
    (("din", "0", "2"), "unknown (no distinguished set configured)", 0),
]


@pytest.mark.parametrize("argv,text,code", UNIVERSE_ANSWERS,
                         ids=[" ".join(row[0][:2]) + f" {row[1][:8]}" for row in UNIVERSE_ANSWERS])
def test_universe_verbs_exit_1_on_a_refuted_answer(argv, text, code):
    assert run_cli("universe", *argv) == (code, text + "\n")
    status, _, note = text.partition(" (")
    payload = {"verdict": status, **({"note": note[:-1]} if note else {})}
    rc, out = run_cli("universe", *argv, "--json")
    assert (rc, json.loads(out)) == (code, payload)


# every subcommand once: argv, exit code, the text stdout and the --json
# stdout; H names a file holding the path prefix [0,0,0], OUT a file that
# `--out` writes
SUBCOMMAND_ANSWERS = [
    (("pca", "pair", "2", "1"), 0, "5", '{"result":"5"}'),
    (("pca", "unpair", "5"), 0, "2 1", '{"first":"2","second":"1"}'),
    (("pca", "apply", "86770688973685200", "200", "--fuel", "5"), 1,  # HALF 200 takes more
     "out of fuel", '{"outcome":"out_of_fuel"}'),
    (("pca", "apply", "7", "4"), 0, "5", '{"outcome":"value","result":"5"}'),  # 7 is sN
    (("pca", "eval", "(app sN 4)"), 0, "5", '{"outcome":"value","result":"5"}'),
    (("pca", "eval", "(app (app k 8) 9)"), 0, "8", '{"outcome":"value","result":"8"}'),
    (("pca", "eval", "(app (lam x x) 7)"), 0, "7", '{"outcome":"value","result":"7"}'),
    (("pca", "encode", "(lam x x)"), 0, "833571", '{"code":"833571"}'),
    (("pca", "decode", "3"), 0, "k", '{"term":"k"}'),
    (("pca", "fixpoint", "3"), 0, "40921608", '{"code":"40921608"}'),
    (("pca", "witness", "0", "1", "1"), 0, "3", '{"witness":3}'),
    (("universe", "check-u", "31475006110386586987366", "--nat-bound", "1"), 0,
     "realized (family checked up to the truncation)",
     '{"note":"family checked up to the truncation","verdict":"realized"}'),
    (("universe", "check-v", "0"), 0, "realized", '{"verdict":"realized"}'),
    (("universe", "din", "5", "8"), 1, "refuted", '{"verdict":"refuted"}'),
    (("vcode", "numeral", "2"), 0, "897371221224137741117825546714260898688803352",
     '{"code":"897371221224137741117825546714260898688803352"}'),
    (("vcode", "omega"), 0, "897371221224137741117825546714260898688803357",
     '{"code":"897371221224137741117825546714260898688803357"}'),
    (("vcode", "upair", "numeral:1", "numeral:2"), 0, "~2^4786", '{"code":"~2^4786"}'),
    (("vcode", "opair", "numeral:1", "numeral:2"), 0, "~2^153214", '{"code":"~2^153214"}'),
    (("vcode", "eq", "numeral:1", "numeral:2"), 0, "~2^314366", '{"code":"~2^314366"}'),
    (("vcode", "pbar"), 0, "220173977532", '{"code":"220173977532"}'),
    (("vcode", "alpha0", "--h-prefix", "H"), 0, "177411967211", '{"code":"177411967211"}'),
    (("check", "(app (app p 0) iota)", "(in (numeral 0) (numeral 1))"), 0,
     "realized", '{"verdict":"realized"}'),
    # --bind takes numeral:N, omega and raw codes (0 is the empty set)
    (("check", "(app (app p 0) iota)", "(in a b)", "--bind", "a=numeral:0",
      "--bind", "b=numeral:1"), 0, "realized", '{"verdict":"realized"}'),
    (("check", "(app (app p 1) iota)", "(in a b)", "--bind", "a=numeral:0",
      "--bind", "b=numeral:1"), 1, "refuted", '{"verdict":"refuted"}'),
    (("check", "(app (app p 0) iota)", "(in a b)", "--bind", "a=0",
      "--bind", "b=omega"), 0, "realized", '{"verdict":"realized"}'),
    # the identity realises A -> A; A bounds x by {0, 3, 4}, indexed by a sum
    (("check", "(lam a a)", "(-> (all x 897371221224137741117825546714260896126925133 "
      "(in x (numeral 8))) (all x 897371221224137741117825546714260896126925133 "
      "(in x (numeral 8))))"), 0, "realized (relative to the searched antecedent realisers)",
     '{"note":"relative to the searched antecedent realisers","verdict":"realized"}'),
    (("diagonal", "build", "--stages", "2", "--out", "OUT"), 0,
     "built a prefix of length 10 over 2 stages (1 extensions)",
     '{"components":[0,0,0,0,0,0,0,0,0,0],"stages":['
     '{"extended":true,"length":10,"requirement":{"i":0,"j":1,"machine":"copy"},'
     '"resolved":true,"witness":2},'
     '{"extended":false,"length":10,"requirement":{"i":0,"j":1,"machine":"const_empty"},'
     '"resolved":true,"witness":2}]}'),
    (("lworld", "lstage", "2"), 0, "{}\n{{}}", '{"elements":["{}","{{}}"],"size":2}'),
    (("lworld", "defsub", "{}", "{{}}"), 0, "{}\n{{}}\n{{{}}}\n{{},{{}}}",
     '{"size":4,"subsets":["{}","{{}}","{{{}}}","{{},{{}}}"]}'),
    (("lworld", "ordinals", "{}", "{{{}}}", "{{}}"), 0, "{}\n{{}}", '{"ordinals":["{}","{{}}"]}'),
    (("lworld", "alphastar", "3"), 0, "{{},{{}},{{},{{}}},{{},{{}},{{},{{}}}}}",
     '{"result":"{{},{{}},{{},{{}}},{{},{{}},{{},{{}}}}}"}'),
    (("lworld", "encode", "{{},{{}}}"), 0, '{"sigma": [3, 4, 7], "u": [0, 1, 2]}',
     '{"sigma":[3,4,7],"u":[0,1,2]}'),
    (("lworld", "decode", "{0}", "{0}"), 1,  # index 0 below itself: the error is the answer
     "error: index 0 depends on itself", '{"error":"index 0 depends on itself"}'),
    (("lworld", "decode", "[0,1,2]", "[3,4,7]"), 0, "{{},{{}}}", '{"result":"{{},{{}}}"}'),
    (("lworld", "decode", "{0}", "{}"), 0, "{}", '{"result":"{}"}'),
]


def _row_ids(rows):
    """A row's verb; the verb's later rows add their arguments."""
    ids = []
    for argv, *_ in rows:
        verb = " ".join(argv[:1 if argv[0] == "check" else 2])
        ids.append(" ".join(argv) if verb in ids else verb)
    return ids


@pytest.mark.parametrize("argv,code,text,payload", SUBCOMMAND_ANSWERS,
                         ids=_row_ids(SUBCOMMAND_ANSWERS))
def test_each_subcommand_prints_its_pinned_answer(argv, code, text, payload, tmp_path):
    files = {"H": _write(tmp_path / "h.json", [0, 0, 0]), "OUT": str(tmp_path / "out.json")}
    argv = [files.get(arg, arg) for arg in argv]
    assert run_cli(*argv) == (code, text + "\n")
    assert run_cli(*argv, "--json") == (code, payload + "\n")
    if "--out" in argv:
        assert (tmp_path / "out.json").read_text(encoding="utf-8") == payload


def test_cli_reports_malformed_bounds_cleanly(capsys):
    rc, out = run_cli("check", "0", "(in (numeral 1) 8100)")
    assert rc == 2


def _write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


HOSTILE_INPUTS = {
    "missing h-prefix file": lambda d: (
        "universe", "din", "0", "2", "--h-prefix", str(d / "missing.json")),
    "missing catalogue file": lambda d: (
        "diagonal", "build", "--catalogue", str(d / "missing.json")),
    "h-prefix without components": lambda d: (
        "universe", "din", "0", "2", "--h-prefix", _write(d / "h.json", {"stages": []})),
    "h-prefix with a null component": lambda d: (
        "universe", "din", "0", "2", "--h-prefix", _write(d / "h.json", [0, None, 1])),
    "h-prefix with a 1.5 component": lambda d: (
        "universe", "din", "0", "2", "--h-prefix", _write(d / "h.json", [0, 1.5])),
    "h-prefix with a negative component": lambda d: (
        "universe", "din", "0", "2", "--h-prefix", _write(d / "h.json", [0, -1])),
    "catalogue item without term": lambda d: (
        "diagonal", "build", "--catalogue", _write(d / "cat.json", [{"name": "copy"}])),
    "code that is not a natural": lambda d: ("pca", "unpair", "abc"),
    "program with an unbound variable": lambda d: ("pca", "eval", "x"),
    "witness for equal indices": lambda d: ("pca", "witness", "2", "2", "0"),
    "binding without a value": lambda d: ("check", "0", "(in a a)", "--bind", "a"),
    "check realiser that diverges": lambda d: ("check", "(app 0 0)", "(= omega omega)"),
    "check realiser out of fuel": lambda d: (
        "check", "(app (lam x (app x x)) (lam x (app x x)))", "(= omega omega)",
        "--fuel", "1000"),
    "term nested 3000 deep": lambda d: ("pca", "eval", "(app " * 3000 + "k" + " 1)" * 3000),
    # a ')' taken as a binder would undo the '(' before it in the nesting count
    "quantifier binders that are ')' 3000 deep": lambda d: (
        "check", "0", "(ALL ) " * 3000 + "(= a a)" + ")" * 3000),
    "quantifier binder that is ')'": lambda d: ("check", "0", "(all ) omega (= a a))"),
    "set literal nested 3000 deep": lambda d: ("lworld", "encode", "{" * 3000 + "}" * 3000),
    "negative stage": lambda d: ("lworld", "lstage", "-3"),
    "stage minus one": lambda d: ("lworld", "lstage", "-1"),
    "alpha star of a negative natural": lambda d: ("lworld", "alphastar", "-2"),
    "negative nat bound": lambda d: ("universe", "check-u", "5", "--nat-bound", "-4"),
    "negative segment bound": lambda d: (
        "universe", "din", "3", "25", "--segment-bound", "-3"),
    "negative implication bound": lambda d: (
        "check", "0", "(= omega omega)", "--implication-bound", "-5"),
    "negative stage count": lambda d: ("diagonal", "build", "--stages", "-1"),
    "zero fuel": lambda d: ("universe", "check-u", "5", "--fuel", "0"),
    "zero fuel for a build": lambda d: ("diagonal", "build", "--stages", "2", "--fuel", "0"),
    "catalogue step bound that is a string": lambda d: (
        "diagonal", "build", "--stages", "2", "--catalogue",
        _write(d / "cat.json", [{"term": "(lam s s)", "step_bound": "x"}])),
    "catalogue step bound that is a list": lambda d: (
        "diagonal", "build", "--stages", "2", "--catalogue",
        _write(d / "cat.json", [{"term": "(lam s s)", "step_bound": [1]}])),
    "catalogue step bound of 1.5": lambda d: (
        "diagonal", "build", "--stages", "2", "--catalogue",
        _write(d / "cat.json", [{"term": "(lam s s)", "step_bound": 1.5}])),
    "catalogue step bound that is true": lambda d: (
        "diagonal", "build", "--stages", "2", "--catalogue",
        _write(d / "cat.json", [{"term": "(lam s s)", "step_bound": True}])),
    "catalogue machine named 5": lambda d: (
        "diagonal", "build", "--stages", "2", "--catalogue",
        _write(d / "cat.json", [{"term": "(lam s s)", "step_bound": 20000, "name": 5}])),
    # a machine that always runs out of fuel leaves each stage open, so the
    # path pads past its length squared: the fourth stage would be 8 * 10**8 long
    "catalogue machine that never halts, four stages": lambda d: (
        "diagonal", "build", "--stages", "4", "--fuel", "100", "--catalogue",
        _write(d / "cat.json", [{"term": "(lam t (app (app (app fix (app (app s k) k)) t) t))"}])),
    # a printed answer of 2**n characters: ordinals, and a code sharing its subsets
    "alpha star past the printable bound": lambda d: ("lworld", "alphastar", "100000000"),
    "decoded set too long to print": lambda d: ("lworld", "decode", *_sigma_texts(lw.hf_nat(40))),
    # no machine, no requirement: the search for the first one never ended
    "empty catalogue": lambda d: ("diagonal", "build", "--catalogue", _write(d / "cat.json", [])),
    # 2**26 subsets: the powerset route takes no domain larger than L_4
    "powerset of 26 sets": lambda d: (
        "lworld", "defsub", "--route", "powerset", *("{" * k + "}" * k for k in range(1, 27))),
    # a pi over NAT: unchecked, it lists a billion naturals
    "nat bound past MAX_FIN_INDEX": lambda d: (
        "universe", "check-u", "2562485644", "--nat-bound", "1000000000"),
    # an index of a set code is an ASCII numeral, as every code argument is
    "decode index of 1.5": lambda d: ("lworld", "decode", "[0,1.5]", "[]"),
    "decode index that is true": lambda d: ("lworld", "decode", "[0,true]", "[]"),
    "decode index that is an Arabic-Indic digit": lambda d: ("lworld", "decode", "{0,\u0663}", "{}"),
    "numeral spec with an Arabic-Indic digit": lambda d: ("vcode", "upair", "numeral:\u0663", "0"),
    "numeral spec with an underscore": lambda d: ("vcode", "upair", "numeral:1_0", "0"),
}

# run in a child process under a memory limit and a timeout, so that a
# missing check ends in a MemoryError or a timeout there and not in the
# test process
RUN_APART = {"nat bound past MAX_FIN_INDEX", "empty catalogue",
             "alpha star past the printable bound", "decoded set too long to print",
             "catalogue machine that never halts, four stages", "powerset of 26 sets"}
CHILD_MEMORY = 3 << 29  # 1.5 GiB of address space


def _run_apart(argv, env):
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))

    proc = subprocess.run([sys.executable, "-m", "kleeneset.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=limit_memory)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("case", sorted(HOSTILE_INPUTS))
def test_cli_hostile_input_is_one_line_and_exit_2(case, tmp_path, capsys, child_env):
    argv = list(HOSTILE_INPUTS[case](tmp_path))
    if case in RUN_APART:
        rc, err = _run_apart(argv, child_env)
    else:
        rc, err = main(argv), capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_cli_answers_a_type_too_large_to_walk(capsys):
    # well-formed, so an answer and not an error: a sigma over 2**70 indices
    rc = main(["universe", "check-u", str(sigma_code(fin(2 ** 70), 0))])
    captured = capsys.readouterr()
    assert rc in (0, 1)
    assert "Traceback" not in captured.err
    assert captured.out.startswith("unknown")


def test_cli_answers_a_type_whose_family_returns_itself(capsys):
    # e 0 = sigma(fin 1, e): every index type below the top is the top again
    t = sigma_code(fin(1), fixpoint(
        mkapps(rom.S, mkapp(rom.K, rom.K), mkapp(rom.SIGMA_PROG, fin(1)))))
    rc = main(["universe", "check-v", str(code_value(pair(t, 0)))])
    captured = capsys.readouterr()
    assert rc in (0, 1)
    assert "Traceback" not in captured.err


def test_cli_checks_a_set_code_whose_walk_meets_the_same_elements_again(capsys, time_limit):
    # unmemoized, this walk repeats each element's whole tree and ran for
    # minutes; a two-second limit stops the test if it ever does again
    with time_limit(2, "universe check-v"):
        rc = main(["universe", "check-v", "897371221224137741117825546714260897873529554",
                   "--fuel", "20000"])
    captured = capsys.readouterr()
    assert rc in (0, 1)
    assert "Traceback" not in captured.err


def test_cli_runs_out_of_fuel_on_a_body_whose_bookkeeping_never_ends(capsys):
    # \x. W W x, W = s I I: the body eta-reduces to the over-applied W W
    i = "(app (app s k) k)"
    w = f"(app (app s {i}) {i})"
    rc = main(["pca", "eval", f"(app (lam x (app (app {w} {w}) x)) 0)", "--fuel", "100000"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "out of fuel\n")
    assert "Traceback" not in captured.err


def test_cli_decodes_a_deep_singleton_chain():
    chain = lw.EMPTY
    for _ in range(1500):
        chain = lw.HFSet([chain])
    code = lw.encode_sigma(chain)
    rc, out = run_cli("lworld", "decode", json.dumps(sorted(code.u)),
                      json.dumps(sorted(code.sigma)))
    assert rc == 0
    assert out == "{" * 1501 + "}" * 1501 + "\n"


def _readme_commands():
    """The command lines of the README's command-line section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    block = block.replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("kleeneset ")]


def test_readme_commands_print_the_pinned_json(tmp_path, monkeypatch):
    """Each README command, run with --json, prints the pinned text."""
    pinned = json.loads((Path(__file__).parent / "data" / "readme_json.json")
                        .read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)  # `diagonal build --out h.json` writes here
    got = []
    for argv in _readme_commands():
        rc, out = run_cli(*argv, "--json")
        got.append({"argv": argv, "exit": rc, "stdout": out})
    assert got == pinned


def test_cli_flags_sit_only_on_the_verbs_that_read_them():
    parser = build_parser()
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:  # every README flag is accepted where it is used
        parser.parse_args(argv + ["--json"])
    for argv in (["lworld", "lstage", "2", "--fuel", "5"],
                 ["pca", "pair", "1", "2", "--nat-bound", "3"],
                 ["vcode", "numeral", "2", "--fuel", "9"],
                 ["vcode", "alpha0", "--segment-bound", "4"],
                 ["diagonal", "build", "--h-prefix", "h.json"],
                 ["universe", "din", "3", "25", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["pca", "pair", "\u0663", "1"], ["pca", "pair", "1_0", "1"], ["pca", "pair", "+3", "1"],
    ["pca", "witness", "1", " 2", "3"], ["lworld", "lstage", "\u0663"],
    ["lworld", "alphastar", "-\u0662"], ["vcode", "numeral", "\uff13"],
    ["diagonal", "build", "--stages", "1_0"], ["universe", "check-u", "5", "--fuel", "\u0661\u0660"],
    ["check", "0", "(= omega omega)", "--implication-bound", "\u0663"]],
    ids=" ".join)
def test_cli_integer_arguments_are_ascii_digits(argv, capsys):
    # as every code argument: a run of ASCII digits, here after an optional '-'
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Fuzzing the command line: every subcommand, on drawn arguments, files and
# flag placements, ends with exit 0, 1 or 2 and no traceback.  Drawn budgets
# stay small (fuel <= 2000, nat bound <= 12, stages <= 40), so a well-formed
# command ends well inside the time limit; the arguments that make a command
# allocate without bound are drawn only for the child process.

HUGE = 2 ** 3000
FUZZ_LIMIT_S = 5

naturals = st.one_of(st.integers(0, 40), st.integers(0, 2 ** 80),
                     st.sampled_from([HUGE, 2 ** 2048 - 1, 2 ** 2048]))
code_texts = st.one_of(
    naturals.map(str), naturals.map(str), naturals.map(str), st.integers(-50, -1).map(str),
    st.sampled_from(["²", "٣", "1_000", " 7", "0x10", "", "abc", "+3", "1e3", "-0"]))


def _mangled(texts):
    """Mostly the text itself, else the text with one character dropped or doubled."""
    def mangle(args):
        text, k, double = args
        k %= max(len(text), 1)
        return text[:k] + text[k:k + 1] * double + text[k + 1:]
    return st.one_of(texts, texts, texts,
                     st.tuples(texts, st.integers(0, 200), st.integers(0, 2)).map(mangle))


program_atoms = st.one_of(
    st.sampled_from(["k", "s", "sN", "pN", "d", "p", "p0", "p1", "fix", "iota", "delta", "eq",
                     "snoc", "0", "7", "(const 4)", "(lam x x)", "(lam x (app x x))"]),
    st.sampled_from(["x", str(HUGE), "²", "#", "(const 99999)", "(const x)", "(lam ) x)"]))
program_texts = _mangled(st.recursive(program_atoms, lambda kids: st.one_of(
    st.tuples(kids, kids).map(lambda t: f"(app {t[0]} {t[1]})"),
    st.tuples(st.sampled_from(["x", "y"]), kids).map(lambda t: f"(lam {t[0]} {t[1]})"),
), max_leaves=5))
fterm_texts = st.recursive(
    st.sampled_from(["a", "b", "omega", "0", "5", str(HUGE), "(numeral 0)", "(numeral 2)",
                     "(numeral 70000)", f"(numeral {HUGE})", "²"]),
    lambda kids: st.one_of(st.tuples(kids, kids).map(lambda t: f"(opair {t[0]} {t[1]})"),
                           kids.map(lambda t: f"(f0 {t})")), max_leaves=3)
binders = st.sampled_from(["a", "b", "a", "b", ")", "3"])
formula_texts = _mangled(st.recursive(
    st.tuples(st.sampled_from(["=", "in"]), fterm_texts, fterm_texts).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"),
    lambda kids: st.one_of(
        kids.map(lambda t: f"(not {t})"),
        st.tuples(st.sampled_from(["and", "or", "->"]), kids, kids).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["all", "ex"]), binders, fterm_texts, kids).map(
            lambda t: f"({t[0]} {t[1]} {t[2]} {t[3]})"),
        st.tuples(st.sampled_from(["ALL", "EX"]), binders, kids).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})")),
    max_leaves=3))
hf_texts = st.recursive(
    st.just("{}"), lambda kids: st.lists(kids, max_size=3).map(lambda xs: "{" + ",".join(xs) + "}"),
    max_leaves=6)
set_texts = _mangled(hf_texts)
vcode_specs = st.one_of(code_texts, st.just("omega"),
                        st.one_of(st.integers(-2, 5), st.just(HUGE)).map(lambda n: f"numeral:{n}"),
                        st.just("numeral:x"))
json_values = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.just(HUGE),
                        st.just(1.5), st.text(max_size=3))
machines = st.fixed_dictionaries({"term": st.one_of(program_texts, program_texts, json_values)},
                                 optional={"step_bound": st.one_of(st.integers(1, 20_000), json_values,
                                                                   st.just([1])),
                                           "name": st.one_of(st.text(max_size=5), json_values)})
catalogues = st.one_of(st.lists(machines, max_size=3), json_values, st.just({"term": "k"}))
prefixes = st.one_of(
    st.lists(st.integers(0, 5), max_size=30), st.lists(st.integers(0, 5), max_size=30),
    st.lists(st.one_of(st.integers(0, 5), json_values), max_size=12),
    st.lists(st.integers(0, 3), max_size=30).map(lambda xs: {"components": xs}),
    json_values, st.just({"stages": []}))


@st.composite
def _files(draw, directory, payloads):
    """A JSON file under directory holding a drawn payload; now and then
    invalid JSON or no file at all."""
    kind = draw(st.sampled_from(["json", "json", "json", "not json", "missing"]))
    path = directory / f"{kind}.json"
    if kind == "missing":
        path.unlink(missing_ok=True)
    elif kind == "not json":
        path.write_text(draw(st.sampled_from(["", "[", "{\"components\": [0,", "²"])),
                        encoding="utf-8")
    else:
        path.write_text(json.dumps(draw(payloads)), encoding="utf-8")
    return str(path)


@st.composite
def _flags(draw, directory, *flags):
    """Some of the flags, each with a small drawn value."""
    values = {"--fuel": st.integers(-2, 2000), "--segment-bound": st.integers(-1, 12),
              "--nat-bound": st.integers(-1, 12), "--implication-bound": st.integers(-1, 8),
              "--stages": st.integers(-1, 40), "--h-prefix": _files(directory, prefixes),
              "--catalogue": _files(directory, catalogues),
              "--out": st.just(str(directory / "out.json")),
              "--route": st.sampled_from(["formulas", "powerset", "powerset", "formulas", "other"]),
              "--bind": st.tuples(binders, vcode_specs).map(lambda t: f"{t[0]}={t[1]}")}
    out = []
    for flag in draw(st.lists(st.sampled_from(flags), max_size=3)) if flags else ():
        out += [flag, str(draw(values[flag]))]
    return out


BUDGET = ("--fuel", "--segment-bound", "--nat-bound", "--h-prefix")


@st.composite
def cli_argvs(draw, directory):
    """An argv for a drawn subcommand, with a flag misplaced now and then."""
    code = lambda: draw(code_texts)
    flags = lambda *names: draw(_flags(directory, *names))
    verb = draw(st.sampled_from(["pca", "universe", "vcode", "check", "diagonal", "lworld"]))
    if verb == "pca":
        op = draw(st.sampled_from(["pair", "unpair", "apply", "eval", "encode", "decode",
                                   "fixpoint", "witness"]))
        args = {"pair": lambda: [code(), code()], "unpair": lambda: [code()],
                "apply": lambda: [code(), code()], "eval": lambda: [draw(program_texts)],
                "encode": lambda: [draw(program_texts)], "decode": lambda: [code()],
                "fixpoint": lambda: [code()], "witness": lambda: [code(), code(), code()]}[op]()
        fuel = ["--fuel", "2000"] if op in ("apply", "eval") else []
        argv = ["pca", op, *args, *fuel, *flags(*fuel[:1])]
    elif verb == "universe":
        op = draw(st.sampled_from(["check-u", "check-v", "din"]))
        argv = ["universe", op, code(), *([code()] if op == "din" else []),
                "--fuel", "2000", *flags(*BUDGET)]
    elif verb == "vcode":
        op = draw(st.sampled_from(["numeral", "omega", "upair", "opair", "eq", "pbar", "alpha0"]))
        args = {"numeral": [code()], "upair": [draw(vcode_specs), draw(vcode_specs)],
                "opair": [draw(vcode_specs), draw(vcode_specs)],
                "eq": [draw(vcode_specs), draw(vcode_specs)]}.get(op, [])
        argv = ["vcode", op, *args, *(flags("--h-prefix") if op == "alpha0" else [])]
    elif verb == "check":
        binds = [f"--bind={v}={draw(vcode_specs)}" for v in "ab" if draw(st.integers(0, 3))]
        argv = ["check", draw(program_texts), draw(formula_texts), *binds, "--fuel", "2000",
                "--nat-bound", "3", *flags(*BUDGET, "--implication-bound", "--bind")]
    elif verb == "diagonal":
        argv = ["diagonal", "build", "--stages", "8", "--fuel", "2000",
                *flags("--stages", "--fuel", "--catalogue", "--out")]
    else:
        op = draw(st.sampled_from(["lstage", "defsub", "ordinals", "alphastar", "encode", "decode"]))
        sets = lambda: draw(st.lists(set_texts, max_size=7))
        # lstage 5 is well-formed but takes over a second: not drawn
        args = {"lstage": lambda: [draw(st.sampled_from(["-2", "-1", "0", "1", "3", "4", "6",
                                                         str(HUGE), "x"]))],
                "defsub": sets, "ordinals": sets,
                "alphastar": lambda: [str(draw(st.integers(-3, 12)))],
                "encode": lambda: [draw(set_texts)],
                "decode": lambda: draw(st.one_of(
                    hf_texts.map(lambda t: _sigma_texts(lw.parse_hf(t))),
                    st.lists(st.one_of(set_texts, st.lists(st.integers(-1, 20)).map(json.dumps)),
                             min_size=2, max_size=2)))}[op]()
        argv = ["lworld", op, *args, *(flags("--route") if op == "defsub" else [])]
    if draw(st.integers(0, 7)) == 0:  # a flag where it does not belong
        flag = draw(st.sampled_from(["--json", "--fuel", "--nat-bound", "--stages", "--bind", "-h"]))
        argv.insert(draw(st.integers(0, len(argv))), flag)
    elif draw(st.booleans()):
        argv.append("--json")
    return argv


def _sigma_texts(s):
    """The arguments of `lworld decode` for the set s."""
    code = lw.encode_sigma(s)
    return [json.dumps(sorted(code.u)), json.dumps(sorted(code.sigma))]


def _run_in_process(argv, time_limit):
    """Exit code and stderr of main(argv), stopped by a time limit."""
    out, err = io.StringIO(), io.StringIO()
    with time_limit(FUZZ_LIMIT_S, argv), redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's usage errors and -h
            rc = exc.code
    return rc, err.getvalue()


@given(data=st.data())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_cli_fuzz_in_process(data, tmp_path, time_limit):
    argv = data.draw(cli_argvs(tmp_path), label="argv")
    rc, err = _run_in_process(argv, time_limit)
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err, (argv, err)


# what would allocate without bound if a check were missing: huge ordinals,
# and codes whose decoded set prints in exponentially many characters
apart_argvs = st.one_of(
    st.integers(21, 10 ** 12).map(lambda n: ["lworld", "alphastar", str(n)]),
    st.integers(30, 60).map(lambda n: ["lworld", "decode", *_sigma_texts(lw.hf_nat(n))]),
)


@given(argv=apart_argvs)
@settings(max_examples=3, deadline=None)
def test_cli_fuzz_apart(argv, child_env):
    rc, err = _run_apart(argv, child_env)
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err, (argv, err)
