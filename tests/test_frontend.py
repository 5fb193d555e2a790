import io
import json
import random
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from kleeneset import lworld as lw, romlib as rom
from kleeneset.cli import build_parser, main
from kleeneset.realizability import BAll, Eq, In, Val, Var
from kleeneset.sexpr import (
    ParseError, parse_formula, parse_term, print_formula, print_term,
)
from kleeneset.terms import App, Lam, Lit, Prim, Var as TVar
from kleeneset.universe import fin, sigma_code


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


def test_formula_roundtrip_generated():
    rng = random.Random(22)
    for _ in range(500):
        phi = random_formula(rng)
        assert parse_formula(print_formula(phi)) == phi


# ---------------------------------------------------------------------------
# the command line


def test_cli_pair():
    rc, out = run_cli("pca", "pair", "2", "1")
    assert rc == 0 and out.strip() == "5"


def test_cli_eval_term():
    rc, out = run_cli("pca", "eval", "(app sN 4)")
    assert out.strip() == "5"
    rc, out = run_cli("pca", "eval", "(app (app k 8) 9)")
    assert out.strip() == "8"
    rc, out = run_cli("pca", "eval", "(app (lam x x) 7)")
    assert out.strip() == "7"


def test_cli_witness():
    rc, out = run_cli("pca", "witness", "0", "1", "1")
    assert out.strip() == "3"


def test_cli_decode_worked_example():
    rc, out = run_cli("lworld", "decode", "[0,1,2]", "[3,4,7]")
    assert out.strip() == "{{},{{}}}"


def test_cli_lstage():
    rc, out = run_cli("lworld", "lstage", "2", "--json")
    payload = json.loads(out)
    assert payload["size"] == 2


def test_cli_din():
    rc, out = run_cli("universe", "din", "3", "25", "--json")
    # 25 = pair(0, 5): the finite type with five elements
    assert json.loads(out)["verdict"] == "realized"


def test_cli_json_deterministic():
    args = ("vcode", "eq", "numeral:1", "numeral:2", "--json")
    _, first = run_cli(*args)
    _, second = run_cli(*args)
    assert first == second
    args = ("pca", "encode", "(lam x (app sN x))", "--json")
    _, first = run_cli(*args)
    _, second = run_cli(*args)
    assert first == second


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


def test_cli_remaining_verbs():
    rc, out = run_cli("pca", "unpair", "5")
    assert out.strip() == "2 1"
    rc, out = run_cli("pca", "apply", "7", "4")   # 7 is the successor program
    assert out.strip() == "5"
    rc, out = run_cli("pca", "fixpoint", "3", "--json")
    assert json.loads(out)["code"].isdigit()
    rc, out = run_cli("pca", "decode", "3")
    assert out.strip() == "k"
    rc, out = run_cli("universe", "check-u", "49")   # pair(0, 7): a finite type
    assert out.strip() == "realized"
    rc, out = run_cli("universe", "check-v", "0", "--json")
    assert json.loads(out)["verdict"] == "realized"
    rc, out = run_cli("vcode", "upair", "numeral:1", "numeral:2", "--json")
    assert "code" in json.loads(out)
    rc, out = run_cli("vcode", "omega")
    assert out.strip().isdigit()
    rc, out = run_cli("lworld", "encode", "{{},{{}}}", "--json")
    payload = json.loads(out)
    assert payload["u"] == [0, 1, 2] and payload["sigma"] == [3, 4, 7]
    rc, out = run_cli("lworld", "defsub", "{}", "{{}}", "--json")
    assert json.loads(out)["size"] == 4
    rc, out = run_cli("lworld", "ordinals", "{}", "{{{}}}")
    assert out.strip() == "{}"
    rc, out = run_cli("pca", "witness", "2", "2", "0")
    assert rc == 2  # equal indices are a usage error


def test_cli_din_over_the_path_set(tmp_path):
    out_file = tmp_path / "h.json"
    run_cli("diagonal", "build", "--stages", "8", "--out", str(out_file))
    # the empty sequence (code 0) belongs to the path set (type code 2)
    rc, out = run_cli("universe", "din", "0", "2",
                      "--h-prefix", str(out_file), "--json")
    assert json.loads(out)["verdict"] == "realized"
    rc, out = run_cli("universe", "din", "0", "2", "--json")
    assert json.loads(out)["verdict"] == "unknown"


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
    "binding without a value": lambda d: ("check", "0", "(in a a)", "--bind", "a"),
    "term nested 3000 deep": lambda d: ("pca", "eval", "(app " * 3000 + "k" + " 1)" * 3000),
    "set literal nested 3000 deep": lambda d: ("lworld", "encode", "{" * 3000 + "}" * 3000),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_INPUTS))
def test_cli_hostile_input_is_one_line_and_exit_2(case, tmp_path, capsys):
    rc = main(list(HOSTILE_INPUTS[case](tmp_path)))
    err = capsys.readouterr().err
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
