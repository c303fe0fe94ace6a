"""Command-line front end.

Exit codes: 0 for acceptance/success, 1 for a rejection (failed class
check, exhausted fuel, violated guard, exhausted recursion depth or
memory), 2 for unusable input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .kernel import ProofGraph, validate_graph
from .checker import classify
from .interp import (
    EvalConfig,
    EvalError,
    FuelExhausted,
    GuardViolation,
    TermDef,
    eval_pp,
    eval_proof,
)
from .formats import (
    ParseError,
    classification_json,
    export_dot,
    parse_proof,
    parse_terms,
    serialize_program,
    serialize_proof,
)
from .compilealg import CompileError, nb_to_circular, term_to_derivation
from .transform import TransformError, _cycle_normal_form, cnf_to_graph
from .translate import TranslateError, translate
from .bounds import synthesize_bound, verify_bound

OK, REJECTED, BAD_INPUT = 0, 1, 2


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}")


def _load_proof(path: str) -> ProofGraph:
    return parse_proof(_read(path))


def _load_term(args: argparse.Namespace) -> TermDef:
    """The term ``--name`` of the term document ``file``."""
    doc = parse_terms(_read(args.file))
    if args.name not in doc.terms:
        raise ParseError(f"no term {args.name!r} in {args.file}")
    return doc.terms[args.name]


def _invalid(graph: ProofGraph, **options) -> bool:
    """Whether ``validate_graph(graph, **options)`` finds an error; the
    first one is printed."""
    errors = validate_graph(graph, **options)
    if errors:
        print(f"{graph.name}: invalid ({errors[0]})")
    return bool(errors)


def _values(text: Optional[str]) -> list[int]:
    if not text:
        return []
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part.isdigit():
            raise ParseError(f"values are nonnegative decimals, got {part!r}")
        out.append(int(part))
    return out


def _write_out(path: Optional[str], data: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(data)
        return
    try:
        Path(path).write_text(data, encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot write {path}: {e}")


def cmd_check(args: argparse.Namespace) -> int:
    graph = _load_proof(args.file)
    cls = classify(graph)
    if args.json:
        _write_out(args.json, classification_json(cls))
    if not cls.valid:
        print(f"{graph.name}: invalid ({cls.diagnostics[0]})")
        return BAD_INPUT
    wanted = {"cb": ("CB",), "cnb": ("CB", "CNB"), "bminus": None}[args.system]
    print(
        f"{cls.name}: valid safe={cls.safe} left_leaning={cls.left_leaning} "
        f"progressing={'unknown' if cls.progressing is None else cls.progressing} class={cls.cls}"
    )
    if cls.witness_cycle:
        print("witness cycle: " + " -> ".join(cls.witness_cycle))
    if wanted is None or cls.cls in wanted:
        return OK
    return REJECTED


def cmd_eval(args: argparse.Namespace) -> int:
    graph = _load_proof(args.file)
    if _invalid(graph):
        return BAD_INPUT
    cfg = EvalConfig(fuel=args.fuel)
    try:
        value = eval_proof(graph, graph.root, _values(args.normals), _values(args.safes), cfg)
    except FuelExhausted:
        print("fuel-exhausted")
        return REJECTED
    print(value)
    return OK


def cmd_eval_pp(args: argparse.Namespace) -> int:
    doc = parse_terms(_read(args.file))
    if args.program:
        if args.program not in doc.programs:
            raise ParseError(f"no program {args.program!r} in {args.file}")
        prog = doc.programs[args.program]
    elif len(doc.programs) == 1:
        prog = next(iter(doc.programs.values()))
    else:
        raise ParseError("document holds several programs; pass --program")
    cfg = EvalConfig(fuel=args.fuel, guard_mode=args.guard_mode)
    try:
        value = eval_pp(prog, args.fn, None, _values(args.normals), _values(args.safes), cfg)
    except GuardViolation as e:
        print(f"guard-violation: {e}")
        return REJECTED
    except FuelExhausted:
        print("fuel-exhausted")
        return REJECTED
    print(value)
    return OK


def cmd_compile(args: argparse.Namespace) -> int:
    td = _load_term(args)
    graph = term_to_derivation(td) if args.target == "derivation" else nb_to_circular(td)
    _write_out(args.output, serialize_proof(graph))
    return OK


def cmd_translate(args: argparse.Namespace) -> int:
    graph = _load_proof(args.file)
    prog = translate(graph)
    _write_out(args.output, serialize_program(prog, graph.name))
    return OK


def cmd_cyclenf(args: argparse.Namespace) -> int:
    graph = _load_proof(args.file)
    if _invalid(graph, allow_oracle=True):
        return BAD_INPUT
    cnf = _cycle_normal_form(graph)  # validated just above
    folded = cnf_to_graph(cnf)
    if args.dot:
        _write_out(args.dot, export_dot(folded))
    _write_out(args.output, serialize_proof(folded))
    return OK


def cmd_bound(args: argparse.Namespace) -> int:
    td = _load_term(args)
    pair = synthesize_bound(td.body)  # not cached: a deep term is never hashed
    report = {
        "term": td.name,
        "e": str(pair.e),
        "d": pair.d,
        "polynomial": pair.is_polynomial,
    }
    if args.json:
        _write_out(args.json, json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"e(n) = {pair.e}")
    print(f"d = {pair.d}")
    print(f"polynomial = {str(pair.is_polynomial).lower()}")
    return OK


def cmd_verify_bound(args: argparse.Namespace) -> int:
    td = _load_term(args)
    report = verify_bound(td, samples=args.samples, seed=args.seed)
    if args.json:
        _write_out(args.json, json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    print(f"samples = {report.samples}")
    print(f"violations = {len(report.violations)}")
    print(f"max_slack = {report.max_slack}")
    return OK if not report.violations else REJECTED


def cmd_export_dot(args: argparse.Namespace) -> int:
    graph = _load_proof(args.file)
    if _invalid(graph, allow_oracle=True, allow_dis=True, allow_srec=True):
        return BAD_INPUT
    _write_out(args.output, export_dot(graph))
    return OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing keeps no state in the parser: every call returns a fresh
    namespace.
    """
    top = argparse.ArgumentParser(prog="circsafe", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_common_eval(p: argparse.ArgumentParser) -> None:
        p.add_argument("--normals", default="", help="comma-separated decimal naturals")
        p.add_argument("--safes", default="", help="comma-separated decimal naturals")
        p.add_argument("--fuel", type=int, default=10**6)

    p = sub.add_parser("check", help="validate and classify a proof")
    p.add_argument("file")
    p.add_argument("--system", choices=("cb", "cnb", "bminus"), default="cnb")
    p.add_argument("--json", help="write the JSON report here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("eval", help="run a proof on inputs")
    p.add_argument("file")
    add_common_eval(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("eval-pp", help="run a guarded-recursion program")
    p.add_argument("file")
    p.add_argument("--fn", default="main")
    p.add_argument("--program", default=None)
    p.add_argument("--guard-mode", choices=("zero", "strict"), default="zero")
    add_common_eval(p)
    p.set_defaults(func=cmd_eval_pp)

    p = sub.add_parser("compile", help="compile a term into a proof")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    p.add_argument("--target", choices=("derivation", "circular"), default="circular")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("translate", help="translate a proof into a program")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("cyclenf", help="cycle normal form with dis markers")
    p.add_argument("file")
    p.add_argument("--dot", help="also write DOT here")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_cyclenf)

    p = sub.add_parser("bound", help="synthesize the output bound of a term")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    p.add_argument("--json", help="write the JSON report here")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify-bound", help="empirically check a term's bound")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="write the JSON report here")
    p.set_defaults(func=cmd_verify_bound)

    p = sub.add_parser("export-dot", help="DOT rendering of a proof graph")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_export_dot)

    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:  # values are read and printed in full, past CPython's cap on decimal digits
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's final flush
        return code
    except BrokenPipeError:
        # standard output closed early: send what is left to devnull, so
        # the flush at exit finds nothing to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return REJECTED
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return BAD_INPUT
    except (CompileError, TransformError, TranslateError, EvalError) as e:
        print(f"rejected: {e}", file=sys.stderr)
        return REJECTED
    except (RecursionError, MemoryError, FuelExhausted) as e:
        # out of stack, memory or fuel: a rejection, never a traceback
        detail = f": {e}" if str(e) else ""
        print(f"rejected: {type(e).__name__}{detail}", file=sys.stderr)
        return REJECTED
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return BAD_INPUT
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
