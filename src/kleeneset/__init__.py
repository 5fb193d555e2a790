"""kleeneset: a workbench for a realizability model of constructive set theory.

The carrier of everything is the natural numbers: programs, type codes,
set codes and realizers are all numbers, read through the square-based
pairing bijection.  Submodules:

  pairing       the pairing bijection and its inverses
  terms         combinatory terms, coding, bracket abstraction
  machine       fuel-bounded application
  romlib        the library programs compiled at import time
  universe      inductively defined type codes and membership checking
  vcodes        canonical set codes (numerals, pairs, equality types, ...)
  realizability formulas and the clause-by-clause checker
  diagonal      sequence coding, requirements, the diagonal path
  lworld        hereditarily finite sets, definable subsets, stage coding
  sexpr, cli    surface syntax and the command line
"""

from . import romlib as _romlib  # noqa: F401  (fixes the library code table)
from .diagonal import (
    PathView, Requirement, SeqCode, build_h, default_catalogue, extract_g,
    requirement_satisfied, x_membership,
)
from .lworld import (
    HFSet, SigmaCode, alpha_star, decode_sigma, def_subsets, encode_sigma,
    l_stage, ordinals_of,
)
from .machine import DEFAULT_FUEL, apply_raw, fixpoint
from .pairing import incomparable_witness, pair, unpair, unpair0, unpair1
from .realizability import (
    CheckBudget, check, find_realiser, formula_status,
    incomparability_statement_realiser, subcountability_witness,
)
from .terms import bracket_abstract, compile_lambda, decode, encode
from .universe import Truncation, Verdict, check_in_U, check_in_V, din
from .vcodes import (
    VCode, alpha0, eq_type, f0_membership_realiser, internal_pair_fn,
    v_finite, v_numeral, v_omega, v_opair, v_upair,
)

__version__ = "0.1.0"

__all__ = [
    "pair", "unpair", "unpair0", "unpair1", "incomparable_witness",
    "apply_raw", "fixpoint", "DEFAULT_FUEL",
    "bracket_abstract", "compile_lambda", "encode", "decode",
    "din", "check_in_U", "check_in_V", "Truncation", "Verdict",
    "VCode", "v_numeral", "v_omega", "v_upair", "v_opair", "v_finite",
    "eq_type", "internal_pair_fn", "alpha0",
    "f0_membership_realiser",
    "check", "CheckBudget", "formula_status", "find_realiser",
    "subcountability_witness", "incomparability_statement_realiser",
    "SeqCode", "PathView", "Requirement", "build_h", "requirement_satisfied",
    "x_membership", "extract_g", "default_catalogue",
    "HFSet", "SigmaCode", "def_subsets", "l_stage", "ordinals_of",
    "alpha_star", "encode_sigma", "decode_sigma",
]
