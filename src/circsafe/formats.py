"""Textual formats: proof documents, term documents, DOT, JSON reports.

Proof documents are line-oriented node tables (cycles are just ids
pointing backwards), so they round-trip exactly.  Term documents hold
named definitions of algebra terms and guarded-recursion programs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Container, NamedTuple, Optional

from .kernel import Node, ProofGraph, Rule, RuleKind, Sequent, SType
from .interp import (
    REC,
    Call,
    CompNormal,
    CompSafe,
    Cond,
    EvalError,
    OracleCall,
    PPFunction,
    PPProgram,
    Pred,
    Proj,
    S0,
    S1,
    SimRecPP,
    SNRec,
    SNRecPP,
    SRecN,
    SRecPP,
    Term,
    TermDef,
    Zero,
    children,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        super().__init__(f"line {line}, column {column}: {message}" if line else message)
        self.line = line
        self.column = column


_RULE_NAMES = {k.value: k for k in RuleKind}


# ---------------------------------------------------------------------------
# Proof documents


_NODE_RE = re.compile(
    r"^node\s+(?P<id>\S+)\s*:\s*(?P<rule>[a-zA-Z0-9]+)"
    r"(?:\((?P<param>[^)]*)\))?"
    r"(?:\s+oracle\s+(?P<oracle>\S+))?"
    r"\s+seq\s+(?P<ctx>.*?)=>\s*(?P<ty>bN|N)"
    r"\s+premises\s+\[(?P<prem>[^\]]*)\]\s*$"
)


def parse_proof(text: str | bytes) -> ProofGraph:
    """Parse a proof document; positioned errors on malformed input.

    Each distinct label text (rule, parameter, oracle, context,
    succedent) is checked and built once, at its first line; later
    nodes with that text share its ``Rule`` and ``Sequent``.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    name: Optional[str] = None
    root: Optional[str] = None
    nodes: dict[str, Node] = {}
    labels: dict[tuple, tuple[Rule, Sequent]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("proof "):
            m = re.match(r"^proof\s+(\S+)\s+root\s+(\S+)\s*$", line)
            if not m:
                raise ParseError("malformed proof header", lineno, 1)
            if name is not None:
                raise ParseError("duplicate proof header", lineno, 1)
            name, root = m.group(1), m.group(2)
            continue
        m = _NODE_RE.match(line)
        if not m:
            raise ParseError("malformed node line", lineno, 1)
        g = m.groups()  # id, then the label text: rule, param, oracle, ctx, ty; then prem
        nid, key = g[0], g[1:6]
        if nid in nodes:
            raise ParseError(f"duplicate node id {nid!r}", lineno, 1)
        label = labels.get(key)
        if label is None:
            label = labels[key] = _proof_label(line, lineno, key)
        premises = tuple(filter(None, map(str.strip, g[6].split(","))))
        nodes[nid] = Node(label[0], label[1], premises)
    if name is None or root is None:
        raise ParseError("missing proof header")
    for nid, node in nodes.items():
        for p in node.premises:
            if p not in nodes:
                raise ParseError(f"node {nid!r} references undeclared premise {p!r}")
    if root not in nodes:
        raise ParseError(f"root {root!r} undeclared")
    return ProofGraph(name, root, nodes)


def _proof_label(line: str, lineno: int, key: tuple) -> tuple[Rule, Sequent]:
    """The rule and sequent that a node line's label text ``key`` spells,
    or the ParseError for the first thing wrong with it."""
    rule_name, param, oracle, ctx, ty = key
    if rule_name not in _RULE_NAMES:
        raise ParseError(f"unknown rule {rule_name!r}", lineno, line.find(rule_name) + 1)
    kind = _RULE_NAMES[rule_name]
    pos_param: Optional[int] = None
    buds: tuple[str, ...] = ()
    if param is not None:
        if kind in (RuleKind.EXCH_N, RuleKind.EXCH_B):
            try:
                pos_param = int(param)
            except ValueError:
                raise ParseError(f"exchange position must be an integer, got {param!r}", lineno, 1)
        elif kind is RuleKind.DIS:
            buds = tuple(p for p in param.split("|") if p)
        else:
            raise ParseError(f"rule {rule_name} takes no parameter", lineno, 1)
    elif kind in (RuleKind.EXCH_N, RuleKind.EXCH_B):
        raise ParseError(f"rule {rule_name} needs a position parameter", lineno, 1)
    if kind is RuleKind.ORACLE and oracle is None:
        raise ParseError("oracle leaf needs a name", lineno, 1)
    if kind is not RuleKind.ORACLE and oracle is not None:
        raise ParseError(f"rule {rule_name} carries no oracle name", lineno, 1)
    ctx = ctx.strip()
    boxed = plain = 0
    if ctx:
        col = line.find("seq") + 4
        for tok in (t.strip() for t in ctx.split(",")):
            if tok == "bN":
                if plain:
                    raise ParseError("boxed type after a plain one in the context", lineno, col)
                boxed += 1
            elif tok == "N":
                plain += 1
            else:
                raise ParseError(f"unknown context type {tok!r}", lineno, col)
    succ = SType.BOXED if ty == "bN" else SType.PLAIN
    return Rule(kind, pos=pos_param, oracle=oracle, buds=buds), Sequent(boxed, plain, succ)


def serialize_proof(graph: ProofGraph) -> str:
    """Deterministic text form: node records sorted by id."""
    out = [f"proof {graph.name} root {graph.root}"]
    for nid in sorted(graph.nodes):
        node = graph.nodes[nid]
        out.append(f"node {nid} : {node.rule} seq {node.sequent} premises [{','.join(node.premises)}]")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# DOT export


def export_dot(graph: ProofGraph) -> str:
    """One digraph; edges closing a cycle (to a node on the current DFS
    stack) are styled as back edges."""
    lines = [f'digraph "{graph.name}" {{', "  rankdir=BT;"]
    reach = graph.reachable()
    for nid in reach:
        node = graph.nodes[nid]
        label = f"{node.rule} : {node.sequent}".replace('"', "'")
        shape = "box" if node.rule.kind is not RuleKind.DIS else "hexagon"
        lines.append(f'  "{nid}" [label="{nid}\\n{label}", shape={shape}];')
    back_edges = set()
    state: dict[str, int] = {}  # 1 on stack, 2 done

    def dfs(start: str) -> None:
        stack = [(start, 0)]
        state[start] = 1
        while stack:
            nid, i = stack[-1]
            prem = graph.nodes[nid].premises
            if i < len(prem):
                stack[-1] = (nid, i + 1)
                p = prem[i]
                if state.get(p) == 1:
                    back_edges.add((nid, i, p))
                elif state.get(p) is None:
                    state[p] = 1
                    stack.append((p, 0))
            else:
                state[nid] = 2
                stack.pop()

    dfs(graph.root)
    for nid in reach:
        for i, p in enumerate(graph.nodes[nid].premises):
            style = ' [style=dashed, color=red, constraint=false]' if (nid, i, p) in back_edges else ""
            lines.append(f'  "{nid}" -> "{p}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def classification_json(classification) -> str:
    return json.dumps(classification.to_json_dict(), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Term documents


@dataclass
class TermDocument:
    terms: dict[str, TermDef]
    programs: dict[str, PPProgram]
    oracles: dict[str, tuple[int, int]]


class _Form(NamedTuple):
    cls: type
    count: Optional[int]  # subterms; None for one or more
    named: bool = False  # takes a |name suffix: the recursion name
    guard_safes: bool = False  # SimRecPP.guard_safes: simrecs, not simrecn


# The concrete syntax of the keyword forms, read by both the parser and
# the printer.  Zero, projections and calls have their own cases.
_FORMS = {
    "s0": _Form(S0, 1),
    "s1": _Form(S1, 1),
    "p": _Form(Pred, 1),
    "cond": _Form(Cond, 4),
    "comps": _Form(CompSafe, 2),
    "compn": _Form(CompNormal, 2),
    "srec": _Form(SRecN, 3),
    "snrec": _Form(SNRec, 2, named=True),
    "srecpp": _Form(SRecPP, 1, named=True),
    "snrecpp": _Form(SNRecPP, 1, named=True),
    "simrecs": _Form(SimRecPP, None, guard_safes=True),
    "simrecn": _Form(SimRecPP, None),
}
_KEYWORDS = {(f.cls, f.guard_safes): kw for kw, f in _FORMS.items()}
_COUNTS = {
    None: "one or more arguments", 1: "one argument", 2: "two arguments", 3: "three arguments", 4: "four arguments"
}

# One token: a whole name, or one other character ("" at the end).
# Matched in place: slicing the rest of the line per token is quadratic.
_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_*]*)|(\S?))")
_PROJ = re.compile(r"[xy][0-9]+")


class _Open:
    """A form whose ')' is still to come; ``form`` is None for a call, of
    a program function (``call``) or else of an oracle."""

    __slots__ = ("name", "form", "call", "guard", "kids", "split", "rec_name")

    def __init__(self, name: str, form: Optional[_Form], call: bool, guard: Optional[str]) -> None:
        self.name, self.form, self.call, self.guard = name, form, call, guard
        self.kids: list[Term] = []
        self.split: Optional[int] = None  # where a call's safe arguments start
        self.rec_name = REC

    def close(self, lineno: int, col: int) -> Term:
        name, form, kids = self.name, self.form, self.kids
        if form is None:  # without ';' every argument is safe
            k = self.split or 0
            normals, safes = tuple(kids[:k]), tuple(kids[k:])
            return Call(name, normals, safes, self.guard) if self.call else OracleCall(name, normals, safes)
        if not kids or form.count not in (None, len(kids)):
            raise ParseError(f"{name} takes {_COUNTS[form.count]}", lineno, col)
        if form.count is None:
            return form.cls(tuple(kids), 0, form.guard_safes)
        return form.cls(*kids, self.rec_name) if form.named else form.cls(*kids)


def _number(digits: str, lineno: int, col: int) -> int:
    """``int(digits)``; a numeral past CPython's int-conversion digit
    limit is a ParseError, not a ValueError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"numeral of {len(digits)} digits is too long", lineno, col) from None


def _parse_term(text: str, pos: int, lineno: int, guard: Optional[str], functions: Container[str] = ()) -> Term:
    """The term that is the whole of ``text[pos:]``.

    ``@f(...)`` is a call guarded by ``guard``, the program's guard kind,
    and an error outside programs (``guard`` None).  A plain ``f(...)``
    is an unguarded call when ``functions`` (the program's function
    names) holds ``f``, else an oracle call.  One loop over an explicit
    stack of open forms, so term depth costs no Python frames.  Columns
    are 1-based in ``text``, the line.
    """

    def token() -> re.Match:
        nonlocal pos
        m = _TOKEN.match(text, pos)
        pos = m.end()
        return m

    def fail(msg: str, m: re.Match) -> ParseError:
        return ParseError(msg, lineno, m.start(m.lastindex) + 1)

    stack: list[_Open] = []
    m = token()
    while True:  # m starts a term
        name, ch = m[1], m[2]
        if ch == "0":
            term: Term = Zero()
        elif name is not None and _PROJ.fullmatch(name):
            term = Proj("n" if name[0] == "x" else "s", _number(name[1:], lineno, m.start(1) + 2))
        else:
            call_guard = None
            if ch == "@":
                if guard is None:
                    raise fail("@ calls only occur in programs", m)
                call_guard, m = guard, token()
                name = m[1]
            if name is None:
                raise fail("expected a name", m)
            m = token()
            if m[2] != "(":
                raise fail("expected '('", m)
            call = bool(call_guard) or name in functions
            top = _Open(name, None if call_guard else _FORMS.get(name), call, call_guard)
            stack.append(top)
            m = token()
            if m[2] == ";" and top.form is None:
                top.split, m = 0, token()
            if m[2] != ")":
                continue
            term = stack.pop().close(lineno, m.end() + 1)
        # term is complete: it joins the innermost open form, and each
        # ')' that follows closes one more
        while stack:
            top = stack[-1]
            top.kids.append(term)
            m = token()
            ch = m[2]
            if ch == ",":
                m = token()
                break
            if ch == ";" and top.form is None and top.split is None:
                top.split, m = len(top.kids), token()
                if m[2] != ")":
                    break
            elif ch == "|" and top.form is not None and top.form.named:
                m = token()
                if m[1] is None:
                    raise fail("expected a name", m)
                top.rec_name, m = m[1], token()
            if m[2] != ")":
                raise fail("expected ')'", m)
            term = stack.pop().close(lineno, m.end() + 1)
        else:
            m = token()
            if m[1] or m[2]:
                raise fail("trailing input", m)
            return term


# Matched from the line's first non-blank character, so that group
# offsets are columns of the line.
_DEF_RE = re.compile(r"(def|fn)\s+(\S+?)\((?P<normals>\d+);(?P<safes>\d+)\)\s*=\s*(?P<rhs>.*)$")
_ORACLE_RE = re.compile(r"oracle\s+(\S+?)\((?P<normals>\d+);(?P<safes>\d+)\)\s*$")


def _arities(m: re.Match, lineno: int) -> tuple[int, ...]:
    """The ``(normals;safes)`` a definition or oracle line declares."""
    return tuple(_number(m[g], lineno, m.start(g) + 1) for g in ("normals", "safes"))


def parse_terms(text: str | bytes) -> TermDocument:
    """Parse named term and program definitions.

    A first pass lists the functions that each program defines, so each
    body is built once, its plain calls of them as unguarded ``Call``s.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.splitlines()
    functions: dict[int, set[str]] = {}  # a program header's line -> the names its fn lines define
    current: Optional[set[str]] = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line.startswith("program "):
            current = functions[lineno] = set()
        elif current is not None and (m := _DEF_RE.match(line)) and m[1] == "fn":
            current.add(m[2])
    terms: dict[str, TermDef] = {}
    programs: dict[str, PPProgram] = {}
    oracles: dict[str, tuple[int, int]] = {}
    current_prog: Optional[str] = None
    prog_fns: dict[str, PPFunction] = {}
    prog_guard, prog_line = "strict", 0

    def close_program() -> None:
        nonlocal current_prog, prog_fns
        if current_prog is not None:
            prog = PPProgram(prog_fns, prog_guard)
            try:
                prog.validate()
            except EvalError as e:  # an unknown callee or a wrong arity
                raise ParseError(str(e), prog_line, 1) from None
            programs[current_prog] = prog
        current_prog, prog_fns = None, {}

    for lineno, raw in enumerate(lines, start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        start = len(code) - len(code.lstrip())
        if line.startswith("oracle "):
            m = _ORACLE_RE.match(code, start)
            if not m:
                raise ParseError("malformed oracle declaration", lineno, 1)
            oracles[m[1]] = _arities(m, lineno)
            continue
        if line.startswith("program "):
            close_program()
            m = re.match(r"^program\s+(\S+)\s+guard\s+(strict|strictsafe)\s*$", line)
            if not m:
                raise ParseError("malformed program header", lineno, 1)
            current_prog, prog_line = m.group(1), lineno
            prog_guard = "strict" if m.group(2) == "strict" else "strict_safe"
            continue
        m = _DEF_RE.match(code, start)
        if not m:
            raise ParseError("malformed definition", lineno, 1)
        kw, name = m[1], m[2]
        names = functions[prog_line] if kw == "fn" and current_prog is not None else ()
        body = _parse_term(code, m.start("rhs"), lineno, prog_guard if kw == "fn" else None, names)
        normals, safes = _arities(m, lineno)
        if kw == "def":
            if current_prog is not None:
                raise ParseError("term definitions cannot appear inside a program", lineno, 1)
            if name in terms:
                raise ParseError(f"duplicate definition of {name!r}", lineno, 1)
            terms[name] = TermDef(name, normals, safes, body)
        else:
            if current_prog is None:
                raise ParseError("fn outside a program", lineno, 1)
            if name in prog_fns:
                raise ParseError(f"duplicate function {name!r}", lineno, 1)
            prog_fns[name] = PPFunction(name, normals, safes, body)
    close_program()
    return TermDocument(terms, programs, oracles)


def serialize_term(term: Term) -> str:
    """Text form of ``term`` as ``parse_terms`` reads it.

    Written left to right from an explicit stack of subterms and text
    pieces, so no recursion on term depth and time linear in the text.
    """
    out: list[str] = []
    stack: list = [term]
    while stack:
        t = stack.pop()
        if type(t) is str:
            out.append(t)
        else:
            stack.extend(reversed(_serialize_node(t)))
    return "".join(out)


def _serialize_node(term: Term) -> list:
    """One term node as text pieces with its ``children`` in place."""
    kind = type(term)
    if kind is Zero:
        return ["0"]
    if kind is Proj:
        return [f"{'x' if term.sort == 'n' else 'y'}{term.index}"]
    kids = children(term)
    if kind is OracleCall or kind is Call:
        k = len(term.normal_args)
        mark = "@" if kind is Call and term.guard is not None else ""
        return [f"{mark}{term.name}(", *_commas(kids[:k]), ";", *_commas(kids[k:]), ")"]
    kw = _KEYWORDS.get((kind, getattr(term, "guard_safes", False)))
    if kw is None:
        raise TypeError(f"cannot serialize {kind.__name__}")
    tail = f"|{term.rec_name}" if _FORMS[kw].named and term.rec_name != REC else ""
    return [f"{kw}(", *_commas(kids), f"{tail})"]


def _commas(terms) -> list:
    """``terms`` with a "," between neighbours."""
    return [x for t in terms for x in (",", t)][1:]


def serialize_program(prog: PPProgram, name: str = "translated") -> str:
    guard = "strictsafe" if prog.guard == "strict_safe" else "strict"
    out = [f"program {name} guard {guard}"]
    for fname in sorted(prog.functions):
        fn = prog.functions[fname]
        out.append(f"fn {fn.name}({fn.normals};{fn.safes}) = {serialize_term(fn.body)}")
    return "\n".join(out) + "\n"


def serialize_termdef(td: TermDef) -> str:
    return f"def {td.name}({td.normals};{td.safes}) = {serialize_term(td.body)}\n"
