"""Command line: every subsystem behind reproducible commands.

Verbs: pca, universe, vcode, check, diagonal, lworld.  Every command
accepts --json for machine-readable output; identical flags give
byte-identical output.  A command takes --fuel, --segment-bound,
--nat-bound and --h-prefix only where it reads them.  Codes too large
to print in full appear in the digest form ~2^bits.  Malformed input
ends in one line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import diagonal as diag
from . import lworld as lw
from . import realizability as rz
from . import sexpr
from .machine import DEFAULT_FUEL, DivergedError, OutOfFuelError, apply_raw, fixpoint
from .pairing import Code, canon, code_bits, incomparable_witness, is_big, pair, unpair
from .terms import Lam, Lit, Prim, RomRef, Term, App, Var, compile_lambda, decode, encode
from .universe import Truncation, check_in_U, check_in_V, din
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
    """Call-by-value evaluation of a surface program term."""
    if isinstance(t, Lit):
        return t.value
    if isinstance(t, (Prim, RomRef)):
        return encode(t)
    if isinstance(t, Lam):
        return compile_lambda(t)
    if isinstance(t, App):
        return apply_raw(_eval_term(t.fn, fuel), _eval_term(t.arg, fuel), fuel)
    if isinstance(t, Var):
        raise sexpr.ParseError(f"unbound variable {t.name!r}", 0)
    raise TypeError(t)


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
    if not text.isdigit():
        raise ValueError(f"expected a natural number, got {text!r}")
    return canon(int(text))  # huge inputs go to the canonical symbolic form


def _nat_set(text: str) -> set[int]:
    """{0,1,2} or [0,1,2]; an empty pair of braces is the empty set."""
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        inner = body[1:-1].strip()
        return {int(p) for p in inner.split(",")} if inner else set()
    return {int(x) for x in json.loads(body)}


def _vcode_spec(text: str) -> VCode:
    """numeral:<n> | omega | a raw code."""
    if text == "omega":
        return v_omega()
    if text.startswith("numeral:"):
        return v_numeral(int(text.split(":", 1)[1]))
    return VCode(_parse_code(text))


def _verdict_payload(v) -> dict:
    out = {"verdict": v.status}
    if v.note:
        out["note"] = v.note
    return out


def _verdict_text(v) -> str:
    return v.status if not v.note else f"{v.status} ({v.note})"


# ---------------------------------------------------------------------------


def _cmd_pca(args) -> int:
    if args.op == "pair":
        c = pair(args.a, args.b)
        _emit(args, {"result": _code_str(c)}, _code_str(c))
    elif args.op == "unpair":
        a, b = unpair(_parse_code(args.code))
        _emit(args, {"first": _code_str(a), "second": _code_str(b)},
              f"{_code_str(a)} {_code_str(b)}")
    elif args.op == "apply":
        try:
            r = apply_raw(_parse_code(args.f), _parse_code(args.arg), args.fuel)
            _emit(args, {"outcome": "value", "result": _code_str(r)}, _code_str(r))
        except (OutOfFuelError, DivergedError):
            _emit(args, {"outcome": "out_of_fuel"}, "out of fuel")
            return 1
    elif args.op == "eval":
        term = sexpr.parse_term(args.term)
        try:
            r = _eval_term(term, args.fuel)
            _emit(args, {"outcome": "value", "result": _code_str(r)}, _code_str(r))
        except (OutOfFuelError, DivergedError):
            _emit(args, {"outcome": "out_of_fuel"}, "out of fuel")
            return 1
    elif args.op == "encode":
        term = sexpr.parse_term(args.term)
        if isinstance(term, Lam):
            c = compile_lambda(term)
        else:
            c = encode(term)
        _emit(args, {"code": _code_str(c)}, _code_str(c))
    elif args.op == "decode":
        t = decode(_parse_code(args.code))
        s = sexpr.print_term(t)
        _emit(args, {"term": s}, s)
    elif args.op == "fixpoint":
        c = fixpoint(_parse_code(args.code))
        _emit(args, {"code": _code_str(c)}, _code_str(c))
    elif args.op == "witness":
        n = incomparable_witness(args.i, args.j, args.lower)
        _emit(args, {"witness": n}, str(n))
    return 0


def _cmd_universe(args) -> int:
    tr = _truncation(args)
    if args.op == "check-u":
        v = check_in_U(_parse_code(args.code), tr)
    elif args.op == "check-v":
        v = check_in_V(_parse_code(args.code), tr)
    else:  # din
        v = din(_parse_code(args.k), _parse_code(args.type_code), tr)
    _emit(args, _verdict_payload(v), _verdict_text(v))
    return 0


def _cmd_vcode(args) -> int:
    if args.op == "numeral":
        c = v_numeral(args.n).code
    elif args.op == "omega":
        c = v_omega().code
    elif args.op == "upair":
        c = v_upair(_vcode_spec(args.a), _vcode_spec(args.b)).code
    elif args.op == "opair":
        c = v_opair(_vcode_spec(args.a), _vcode_spec(args.b)).code
    elif args.op == "eq":
        c = eq_code(_vcode_spec(args.a).code, _vcode_spec(args.b).code)
    elif args.op == "pbar":
        c = internal_pair_fn().code
    else:  # alpha0
        c = alpha0(Truncation(distinguished=_path_view(args.h_prefix))).code
    _emit(args, {"code": _code_str(c)}, _code_str(c))
    return 0


def _cmd_check(args) -> int:
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
    v = rz.check(realiser, phi, env, budget)
    _emit(args, _verdict_payload(v), _verdict_text(v))
    return 0 if not v.refuted else 1


def _cmd_diagonal(args) -> int:
    if args.catalogue:
        spec = _read_json(args.catalogue)
        if not (isinstance(spec, list) and all(
                isinstance(item, dict) and isinstance(item.get("term"), str)
                for item in spec)):
            raise ValueError(f"{args.catalogue} is not a list of machines with a term each")
        machines = []
        for item in spec:
            term = sexpr.parse_term(item["term"])
            code = compile_lambda(term) if isinstance(term, Lam) else encode(term)
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
    _emit(args, payload,
          f"built a prefix of length {len(h)} over {len(log)} stages "
          f"({sum(s.extended for s in log)} extensions)")
    return 0


def _cmd_lworld(args) -> int:
    if args.op == "lstage":
        stage = sorted(lw.l_stage(args.n))
        names = lw.print_hfs(stage)
        _emit(args, {"size": len(stage), "elements": names},
              "\n".join(names) if names else "(empty stage)")
    elif args.op == "defsub":
        domain = [lw.parse_hf(s) for s in args.sets]
        subs = sorted(lw.def_subsets(domain, route=args.route))
        names = lw.print_hfs(subs)
        _emit(args, {"size": len(subs), "subsets": names}, "\n".join(names))
    elif args.op == "ordinals":
        domain = [lw.parse_hf(s) for s in args.sets]
        ords = sorted(lw.ordinals_of(domain))
        names = lw.print_hfs(ords)
        _emit(args, {"ordinals": names}, "\n".join(names) if names else "(none)")
    elif args.op == "alphastar":
        a = lw.hf_nat(args.n)
        r = lw.alpha_star(a)
        _emit(args, {"result": lw.print_hf(r)}, lw.print_hf(r))
    elif args.op == "encode":
        s = lw.parse_hf(args.set)
        sc = lw.encode_sigma(s)
        payload = {"u": sorted(sc.u), "sigma": sorted(sc.sigma)}
        _emit(args, payload, json.dumps(payload, sort_keys=True))
    else:  # decode
        u = frozenset(_nat_set(args.u))
        sigma = frozenset(_nat_set(args.sigma))
        try:
            s = lw.decode_sigma(lw.SigmaCode(u, sigma))
        except lw.IllFoundedCodeError as exc:
            _emit(args, {"error": str(exc)}, f"error: {exc}")
            return 1
        _emit(args, {"result": lw.print_hf(s)}, lw.print_hf(s))
    return 0


# the budget flags; all four build a Truncation, and each command takes
# only those it reads
_FLAGS = {
    "--fuel": dict(type=int, default=DEFAULT_FUEL),
    "--segment-bound": dict(type=int, default=16),
    "--nat-bound": dict(type=int, default=12),
    "--h-prefix": dict(default=None, help="JSON file with the built path prefix"),
}


def _add_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    p.add_argument("--json", action="store_true")
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="kleeneset")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("pca", help="pairing and program application")
    ops = p.add_subparsers(dest="op", required=True)
    q = ops.add_parser("pair"); q.add_argument("a", type=int); q.add_argument("b", type=int)
    q = ops.add_parser("unpair"); q.add_argument("code")
    q = ops.add_parser("apply"); q.add_argument("f"); q.add_argument("arg")
    q = ops.add_parser("eval"); q.add_argument("term")
    q = ops.add_parser("encode"); q.add_argument("term")
    q = ops.add_parser("decode"); q.add_argument("code")
    q = ops.add_parser("fixpoint"); q.add_argument("code")
    q = ops.add_parser("witness")
    q.add_argument("i", type=int); q.add_argument("j", type=int)
    q.add_argument("lower", type=int)
    for name, q in ops.choices.items():
        _add_flags(q, *(["--fuel"] if name in ("apply", "eval") else []))
    p.set_defaults(fn=_cmd_pca)

    p = sub.add_parser("universe", help="type membership checking")
    ops = p.add_subparsers(dest="op", required=True)
    q = ops.add_parser("check-u"); q.add_argument("code")
    q = ops.add_parser("check-v"); q.add_argument("code")
    q = ops.add_parser("din"); q.add_argument("k"); q.add_argument("type_code")
    for q in ops.choices.values():
        _add_flags(q, *_FLAGS)
    p.set_defaults(fn=_cmd_universe)

    p = sub.add_parser("vcode", help="canonical set codes")
    ops = p.add_subparsers(dest="op", required=True)
    q = ops.add_parser("numeral"); q.add_argument("n", type=int)
    ops.add_parser("omega")
    q = ops.add_parser("upair"); q.add_argument("a"); q.add_argument("b")
    q = ops.add_parser("opair"); q.add_argument("a"); q.add_argument("b")
    q = ops.add_parser("eq"); q.add_argument("a"); q.add_argument("b")
    ops.add_parser("pbar")
    ops.add_parser("alpha0")
    for name, q in ops.choices.items():
        _add_flags(q, *(["--h-prefix"] if name == "alpha0" else []))
    p.set_defaults(fn=_cmd_vcode)

    p = sub.add_parser("check", help="run the evidence checker")
    p.add_argument("realiser")
    p.add_argument("formula")
    p.add_argument("--bind", action="append", metavar="NAME=SPEC")
    p.add_argument("--implication-bound", type=int, default=8)
    _add_flags(p, *_FLAGS)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("diagonal", help="build the path prefix")
    dops = p.add_subparsers(dest="op", required=True)
    q = dops.add_parser("build")
    q.add_argument("--catalogue", default=None,
                   help="JSON list of {term, step_bound, name}")
    q.add_argument("--stages", type=int, default=30)
    q.add_argument("--out", default=None)
    _add_flags(q, "--fuel")
    p.set_defaults(fn=_cmd_diagonal)

    p = sub.add_parser("lworld", help="hereditarily finite sets and stages")
    ops = p.add_subparsers(dest="op", required=True)
    q = ops.add_parser("lstage"); q.add_argument("n", type=int)
    q = ops.add_parser("defsub"); q.add_argument("sets", nargs="*")
    q.add_argument("--route", default="formulas", choices=("formulas", "powerset"))
    q = ops.add_parser("ordinals"); q.add_argument("sets", nargs="*")
    q = ops.add_parser("alphastar"); q.add_argument("n", type=int)
    q = ops.add_parser("encode"); q.add_argument("set")
    q = ops.add_parser("decode"); q.add_argument("u"); q.add_argument("sigma")
    for q in ops.choices.values():
        _add_flags(q)
    p.set_defaults(fn=_cmd_lworld)

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (sexpr.ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
