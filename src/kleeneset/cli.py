"""Command line: every subsystem behind reproducible commands.

Verbs: pca, universe, vcode, check, diagonal, lworld.  Every command
accepts --json for machine-readable output; identical flags give
byte-identical output.  A command takes --fuel, --segment-bound,
--nat-bound and --h-prefix only where it reads them.  Codes too large
to print in full appear in the digest form ~2^bits.  Malformed input
ends in one line on stderr and exit code 2.

build_parser binds each subcommand to the function that answers it,
which returns the JSON payload, the text and, when it is not 0, the exit
code.  main prints every answer, in one place, on stdout; the error of an
ill-founded `lworld decode` is its answer, printed there with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import diagonal as diag
from . import lworld as lw
from . import realizability as rz
from . import sexpr
from .machine import DivergedError, OutOfFuelError, apply_raw, fixpoint
from .pairing import Code, canon, code_bits, incomparable_witness, is_big, pair, unpair
from .terms import App, Term, Var, compile_lambda, decode
from .universe import DEFAULT_TRUNCATION, Truncation, check_in_U, check_in_V, din
from .vcodes import (
    VCode, alpha0, eq_code, internal_pair_fn, v_numeral, v_omega, v_opair, v_upair)

__all__ = ["main"]


def _code_str(c: Code) -> str:
    if is_big(c):
        return f"~2^{code_bits(c)}"
    return str(c)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(text)


def _eval_term(t: Term, fuel: int) -> Code:
    """Call-by-value evaluation of a surface program term; any other
    term is its own code."""
    if isinstance(t, App):
        return apply_raw(_eval_term(t.fn, fuel), _eval_term(t.arg, fuel), fuel)
    if isinstance(t, Var):
        raise sexpr.ParseError(f"unbound variable {t.name!r}", 0)
    return compile_lambda(t)


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fp:
            return json.load(fp)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None


def _path_view(path: str | None) -> diag.SeqCode | None:
    """The built path prefix saved by `diagonal build --out`, if given."""
    if path is None:
        return None
    payload = _read_json(path)
    comps = payload.get("components") if isinstance(payload, dict) else payload
    if not isinstance(comps, list):
        raise ValueError(f"{path} holds no list of path components")
    return diag.SeqCode(comps)


def _truncation(args) -> Truncation:
    return Truncation(segment_bound=args.segment_bound,
                      nat_bound=args.nat_bound,
                      fuel=args.fuel,
                      distinguished=_path_view(args.h_prefix))


def _parse_code(text: str) -> Code:
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected a natural number, got {text!r}")
    return canon(int(text))  # huge inputs go to the canonical symbolic form


def _int(text: str) -> int:
    """An integer argument: a run of ASCII digits after an optional '-'."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _nat_set(text: str) -> set[Code]:
    """{0,1,2} or [0,1,2]: numerals between braces or brackets; empty
    braces or brackets are the empty set."""
    body = text.strip()
    if body[:1] + body[-1:] not in ("{}", "[]"):
        raise ValueError(f"expected a set of naturals like {{0,1,2}} or [0,1,2], got {text!r}")
    inner = body[1:-1].strip()
    return {_parse_code(p.strip()) for p in inner.split(",")} if inner else set()


def _vcode_spec(text: str) -> VCode:
    """numeral:<n> | omega | a raw code."""
    if text == "omega":
        return v_omega()
    if text.startswith("numeral:"):
        return v_numeral(_parse_code(text.split(":", 1)[1]))
    return VCode(_parse_code(text))


def _field(key: str, value) -> tuple[dict, str]:
    """An answer of one value, printed alone."""
    return {key: value}, str(value)


def _code(c: Code) -> tuple[dict, str]:
    return _field("code", _code_str(c))


def _outcome(compute) -> tuple:
    """The value of a program run, or out of fuel (exit 1)."""
    try:
        r = _code_str(compute())
    except (OutOfFuelError, DivergedError):
        return {"outcome": "out_of_fuel"}, "out of fuel", 1
    return {"outcome": "value", "result": r}, r


def _verdict(v) -> tuple:
    """A three-valued answer, its note in parentheses (exit 1 on refuted)."""
    payload = {"verdict": v.status, **({"note": v.note} if v.note else {})}
    return payload, (f"{v.status} ({v.note})" if v.note else v.status), int(v.refuted)


def _decide(tr: Truncation, decider, *codes: str) -> tuple:
    """The verdict of a universe decider on numerals under tr, which is read
    first, so that a malformed budget flag is reported before a numeral."""
    return _verdict(decider(*map(_parse_code, codes), tr))


def _hf_sets(sets, key: str, sized: bool, empty: str) -> tuple[dict, str]:
    """HF sets in canonical order, one per line (empty when there are none)."""
    names = lw.print_hfs(sorted(sets))
    payload = {"size": len(names), key: names} if sized else {key: names}
    return payload, "\n".join(names) or empty


# ---------------------------------------------------------------------------
# the run functions longer than one expression


def _unpair(args) -> tuple[dict, str]:
    a, b = map(_code_str, unpair(_parse_code(args.code)))
    return {"first": a, "second": b}, f"{a} {b}"


def _check(args) -> tuple:
    tr = _truncation(args)
    env = {}
    for binding in args.bind or []:
        name, _, spec = binding.partition("=")
        if not spec:
            raise ValueError(f"--bind needs name=value, got {binding!r}")
        env[name] = _vcode_spec(spec)
    try:
        realiser = _eval_term(sexpr.parse_term(args.realiser), args.fuel)
    except OutOfFuelError:
        raise ValueError(f"the realiser ran out of fuel ({args.fuel} steps)") from None
    except DivergedError:
        raise ValueError("the realiser diverges") from None
    phi = sexpr.parse_formula(args.formula)
    budget = rz.CheckBudget(truncation=tr, implication_bound=args.implication_bound)
    return _verdict(rz.check(realiser, phi, env, budget))


def _build(args) -> tuple[dict, str]:
    if args.catalogue:
        spec = _read_json(args.catalogue)
        if not (isinstance(spec, list) and all(
                isinstance(item, dict) and isinstance(item.get("term"), str)
                for item in spec)):
            raise ValueError(f"{args.catalogue} is not a list of machines with a term each")
        machines = []
        for item in spec:
            code = compile_lambda(sexpr.parse_term(item["term"]))
            machines.append(diag.CatalogueMachine(
                item.get("name", item["term"]), code, item.get("step_bound")))
        catalogue = tuple(machines)
    else:
        catalogue = diag.default_catalogue()
    if args.stages < 0:
        raise ValueError(f"--stages must not be negative, got {args.stages}")
    if args.fuel <= 0:  # the default catalogue declares its step bounds
        raise ValueError("fuel must be positive")
    h, log = diag.build_h(catalogue, args.stages, args.fuel)
    payload = {
        "components": list(h.components),
        "stages": [
            {"requirement": {"i": s.requirement.i, "j": s.requirement.j,
                             "machine": s.requirement.machine.name},
             "witness": s.witness, "resolved": s.resolved,
             "extended": s.extended, "length": len(s.seq)}
            for s in log
        ],
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(payload, fp, sort_keys=True, separators=(",", ":"))
    return payload, (f"built a prefix of length {len(h)} over {len(log)} stages "
                     f"({sum(s.extended for s in log)} extensions)")


def _alphastar(args) -> tuple[dict, str]:
    if args.n > 21:  # the answer is the ordinal n + 1, printed in about 5 * 2**n characters
        raise ValueError(f"alphastar takes n up to 21, whose answer prints within "
                         f"{lw.MAX_TEXT} characters; got {args.n}")
    return _field("result", lw.print_hf(lw.alpha_star(lw.hf_nat(args.n))))


def _encode_sigma(args) -> tuple[dict, str]:
    sc = lw.encode_sigma(lw.parse_hf(args.set))
    payload = {"u": sorted(sc.u), "sigma": sorted(sc.sigma)}
    return payload, json.dumps(payload, sort_keys=True)


def _decode_sigma(args) -> tuple:
    u = frozenset(_nat_set(args.u))
    sigma = frozenset(_nat_set(args.sigma))
    try:
        s = lw.decode_sigma(lw.SigmaCode(u, sigma))
    except lw.IllFoundedCodeError as exc:
        return {"error": str(exc)}, f"error: {exc}", 1
    return _field("result", lw.print_hf(s))


# the budget flags; all four build a Truncation, and each command takes
# only those it reads
_FLAGS = {
    "--fuel": dict(type=_int, default=DEFAULT_TRUNCATION.fuel),
    "--segment-bound": dict(type=_int, default=DEFAULT_TRUNCATION.segment_bound),
    "--nat-bound": dict(type=_int, default=DEFAULT_TRUNCATION.nat_bound),
    "--h-prefix": dict(default=None, help="JSON file with the built path prefix"),
}
_INT = dict(type=_int)


def _command(p: argparse.ArgumentParser, arguments, flags, run) -> None:
    """Give p its arguments in order, each a name or a (name, options)
    pair, then --json and the budget flags; run answers p."""
    for arg in arguments:
        name, options = (arg, {}) if isinstance(arg, str) else arg
        p.add_argument(name, **options)
    p.add_argument("--json", action="store_true")
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])
    p.set_defaults(run=run)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="kleeneset")
    sub = top.add_subparsers(dest="verb", required=True)

    ops = sub.add_parser("pca", help="pairing and program application").add_subparsers(
        dest="op", required=True)
    _command(ops.add_parser("pair"), [("a", _INT), ("b", _INT)], (),
             lambda a: _field("result", _code_str(pair(a.a, a.b))))
    _command(ops.add_parser("unpair"), ["code"], (), _unpair)
    _command(ops.add_parser("apply"), ["f", "arg"], ["--fuel"], lambda a: _outcome(
        lambda: apply_raw(_parse_code(a.f), _parse_code(a.arg), a.fuel)))
    _command(ops.add_parser("eval"), ["term"], ["--fuel"], lambda a: _outcome(
        lambda: _eval_term(sexpr.parse_term(a.term), a.fuel)))
    _command(ops.add_parser("encode"), ["term"], (),
             lambda a: _code(compile_lambda(sexpr.parse_term(a.term))))
    _command(ops.add_parser("decode"), ["code"], (),
             lambda a: _field("term", sexpr.print_term(decode(_parse_code(a.code)))))
    _command(ops.add_parser("fixpoint"), ["code"], (),
             lambda a: _code(fixpoint(_parse_code(a.code))))
    _command(ops.add_parser("witness"), [("i", _INT), ("j", _INT), ("lower", _INT)], (),
             lambda a: _field("witness", incomparable_witness(a.i, a.j, a.lower)))

    ops = sub.add_parser("universe", help="type membership checking").add_subparsers(
        dest="op", required=True)
    _command(ops.add_parser("check-u"), ["code"], _FLAGS,
             lambda a: _decide(_truncation(a), check_in_U, a.code))
    _command(ops.add_parser("check-v"), ["code"], _FLAGS,
             lambda a: _decide(_truncation(a), check_in_V, a.code))
    _command(ops.add_parser("din"), ["k", "type_code"], _FLAGS,
             lambda a: _decide(_truncation(a), din, a.k, a.type_code))

    ops = sub.add_parser("vcode", help="canonical set codes").add_subparsers(
        dest="op", required=True)
    _command(ops.add_parser("numeral"), [("n", _INT)], (), lambda a: _code(v_numeral(a.n).code))
    _command(ops.add_parser("omega"), [], (), lambda a: _code(v_omega().code))
    _command(ops.add_parser("upair"), ["a", "b"], (),
             lambda a: _code(v_upair(_vcode_spec(a.a), _vcode_spec(a.b)).code))
    _command(ops.add_parser("opair"), ["a", "b"], (),
             lambda a: _code(v_opair(_vcode_spec(a.a), _vcode_spec(a.b)).code))
    _command(ops.add_parser("eq"), ["a", "b"], (),
             lambda a: _code(eq_code(_vcode_spec(a.a).code, _vcode_spec(a.b).code)))
    _command(ops.add_parser("pbar"), [], (), lambda a: _code(internal_pair_fn().code))
    _command(ops.add_parser("alpha0"), [], ["--h-prefix"], lambda a: _code(
        alpha0(Truncation(distinguished=_path_view(a.h_prefix))).code))

    _command(sub.add_parser("check", help="run the evidence checker"), [
        "realiser", "formula", ("--bind", dict(action="append", metavar="NAME=SPEC")),
        ("--implication-bound", dict(type=_int, default=rz.CheckBudget.implication_bound))],
        _FLAGS, _check)

    ops = sub.add_parser("diagonal", help="build the path prefix").add_subparsers(
        dest="op", required=True)
    _command(ops.add_parser("build"), [
        ("--catalogue", dict(default=None, help="JSON list of {term, step_bound, name}")),
        ("--stages", dict(type=_int, default=30)), ("--out", dict(default=None))],
        ["--fuel"], _build)

    ops = sub.add_parser("lworld", help="hereditarily finite sets and stages").add_subparsers(
        dest="op", required=True)
    _command(ops.add_parser("lstage"), [("n", _INT)], (),
             lambda a: _hf_sets(lw.l_stage(a.n), "elements", True, "(empty stage)"))
    _command(ops.add_parser("defsub"), [
        ("sets", dict(nargs="*")),
        ("--route", dict(default="formulas", choices=("formulas", "powerset")))], (),
        lambda a: _hf_sets(lw.def_subsets([lw.parse_hf(s) for s in a.sets], route=a.route),
                           "subsets", True, ""))
    _command(ops.add_parser("ordinals"), [("sets", dict(nargs="*"))], (),
             lambda a: _hf_sets(lw.ordinals_of([lw.parse_hf(s) for s in a.sets]),
                                "ordinals", False, "(none)"))
    _command(ops.add_parser("alphastar"), [("n", _INT)], (), _alphastar)
    _command(ops.add_parser("encode"), ["set"], (), _encode_sigma)
    _command(ops.add_parser("decode"), ["u", "sigma"], (), _decode_sigma)
    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, text, *code = args.run(args)
        _emit(args, payload, text)
    except (sexpr.ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code[0] if code else 0


if __name__ == "__main__":
    sys.exit(main())
