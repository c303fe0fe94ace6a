"""Textual formats: proof documents, term documents, DOT, JSON reports.

Proof documents are line-oriented node tables (cycles are just ids
pointing backwards), so they round-trip exactly.  Term documents hold
named definitions of algebra terms and guarded-recursion programs.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Optional

from .kernel import Node, ProofGraph, Rule, RuleKind, Sequent, SType
from .interp import (
    Call,
    CompNormal,
    CompSafe,
    Cond,
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
    fold,
    map_children,
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
    """Parse a proof document; positioned errors on malformed input."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    name: Optional[str] = None
    root: Optional[str] = None
    nodes: dict[str, Node] = {}
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
        nid = m.group("id")
        if nid in nodes:
            raise ParseError(f"duplicate node id {nid!r}", lineno, 1)
        rule_name = m.group("rule")
        if rule_name not in _RULE_NAMES:
            raise ParseError(f"unknown rule {rule_name!r}", lineno, line.find(rule_name) + 1)
        kind = _RULE_NAMES[rule_name]
        pos_param: Optional[int] = None
        buds: tuple[str, ...] = ()
        param = m.group("param")
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
        oracle = m.group("oracle")
        if kind is RuleKind.ORACLE and oracle is None:
            raise ParseError("oracle leaf needs a name", lineno, 1)
        if kind is not RuleKind.ORACLE and oracle is not None:
            raise ParseError(f"rule {rule_name} carries no oracle name", lineno, 1)
        ctx = m.group("ctx").strip()
        boxed = plain = 0
        if ctx:
            col = line.find("seq") + 4
            seen_plain = False
            for tok in (t.strip() for t in ctx.split(",")):
                if tok == "bN":
                    if seen_plain:
                        raise ParseError("boxed type after a plain one in the context", lineno, col)
                    boxed += 1
                elif tok == "N":
                    seen_plain = True
                    plain += 1
                else:
                    raise ParseError(f"unknown context type {tok!r}", lineno, col)
        succ = SType.BOXED if m.group("ty") == "bN" else SType.PLAIN
        prem_field = m.group("prem").strip()
        premises = tuple(p.strip() for p in prem_field.split(",") if p.strip()) if prem_field else ()
        nodes[nid] = Node(Rule(kind, pos=pos_param, oracle=oracle, buds=buds), Sequent(boxed, plain, succ), premises)
    if name is None or root is None:
        raise ParseError("missing proof header")
    for nid, node in nodes.items():
        for p in node.premises:
            if p not in nodes:
                raise ParseError(f"node {nid!r} references undeclared premise {p!r}")
    if root not in nodes:
        raise ParseError(f"root {root!r} undeclared")
    return ProofGraph(name, root, nodes)


def serialize_proof(graph: ProofGraph) -> str:
    """Deterministic text form: node records sorted by id."""
    out = [f"proof {graph.name} root {graph.root}"]
    for nid in sorted(graph.nodes):
        node = graph.nodes[nid]
        rule = node.rule
        s = rule.kind.value
        if rule.pos is not None:
            s += f"({rule.pos})"
        if rule.buds:
            s += "(" + "|".join(rule.buds) + ")"
        if rule.oracle is not None:
            s += f" oracle {rule.oracle}"
        ctx = ",".join(["bN"] * node.sequent.boxed + ["N"] * node.sequent.plain)
        ty = "bN" if node.sequent.succedent is SType.BOXED else "N"
        prem = ",".join(node.premises)
        out.append(f"node {nid} : {s} seq {ctx} => {ty} premises [{prem}]")
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


# matched in place: slicing the rest of the line per token is quadratic
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_*]*")
_NUMBER = re.compile(r"\d+")
_PROJ = re.compile(r"[xy]\d+")


class _TermParser:
    def __init__(self, text: str, lineno: int) -> None:
        self.text = text
        self.pos = 0
        self.lineno = lineno

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, self.lineno, self.pos + 1)

    def ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str) -> None:
        self.ws()
        if not self.text.startswith(ch, self.pos):
            raise self.error(f"expected {ch!r}")
        self.pos += len(ch)

    def ident(self) -> str:
        self.ws()
        m = _IDENT.match(self.text, self.pos)
        if not m:
            raise self.error("expected a name")
        self.pos = m.end()
        return m.group(0)

    def number(self) -> int:
        self.ws()
        m = _NUMBER.match(self.text, self.pos)
        if not m:
            raise self.error("expected a number")
        self.pos = m.end()
        return int(m.group(0))

    def args(self) -> list[Term]:
        out: list[Term] = []
        if self.peek() == ")":
            return out
        out.append(self.term())
        while self.peek() == ",":
            self.eat(",")
            out.append(self.term())
        return out

    def two_sorted_args(self) -> tuple[list[Term], list[Term]]:
        normals: list[Term] = []
        if self.peek() not in (";", ")"):
            normals.append(self.term())
            while self.peek() == ",":
                self.eat(",")
                normals.append(self.term())
        if self.peek() == ";":
            self.eat(";")
            safes: list[Term] = []
            if self.peek() != ")":
                safes.append(self.term())
                while self.peek() == ",":
                    self.eat(",")
                    safes.append(self.term())
            return normals, safes
        return [], normals  # plain arg lists are safe-only oracle calls

    def term(self) -> Term:
        self.ws()
        c = self.peek()
        if c == "0":
            self.pos += 1
            return Zero()
        if c == "@":
            self.eat("@")
            name = self.ident()
            self.eat("(")
            ns, ss = self.two_sorted_args()
            self.eat(")")
            return Call(name, tuple(ns), tuple(ss), guard="?")  # resolved by the program
        m = _PROJ.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            tok = m.group(0)
            return Proj("n" if tok[0] == "x" else "s", int(tok[1:]))
        name = self.ident()
        if name in ("s0", "s1", "p"):
            self.eat("(")
            t = self.term()
            self.eat(")")
            return {"s0": S0, "s1": S1, "p": Pred}[name](t)
        if name == "cond":
            self.eat("(")
            a = self.args()
            self.eat(")")
            if len(a) != 4:
                raise self.error("cond takes four arguments")
            return Cond(*a)
        if name in ("comps", "compn"):
            self.eat("(")
            a = self.args()
            self.eat(")")
            if len(a) != 2:
                raise self.error(f"{name} takes two arguments")
            return (CompSafe if name == "comps" else CompNormal)(*a)
        if name == "srec":
            self.eat("(")
            a = self.args()
            self.eat(")")
            if len(a) != 3:
                raise self.error("srec takes three arguments")
            return SRecN(*a)
        if name in ("snrec", "srecpp", "snrecpp"):
            self.eat("(")
            a = self.args()
            rec_name = "rec"
            if self.peek() == "|":
                self.eat("|")
                rec_name = self.ident()
            self.eat(")")
            if name == "snrec":
                if len(a) != 2:
                    raise self.error("snrec takes two arguments")
                return SNRec(a[0], a[1], rec_name)
            if len(a) != 1:
                raise self.error(f"{name} takes one argument")
            return (SRecPP if name == "srecpp" else SNRecPP)(a[0], rec_name)
        if name in ("simrecs", "simrecn"):
            self.eat("(")
            a = self.args()
            self.eat(")")
            return SimRecPP(tuple(a), 0, name == "simrecs")
        # named invocation: oracle or program function
        self.eat("(")
        ns, ss = self.two_sorted_args()
        self.eat(")")
        return OracleCall(name, tuple(ns), tuple(ss))

    def finish(self) -> None:
        self.ws()
        if self.pos != len(self.text):
            raise self.error("trailing input")


_DEF_RE = re.compile(r"^(def|fn)\s+(\S+?)\((\d+);(\d+)\)\s*=\s*(.*)$")


def parse_terms(text: str | bytes) -> TermDocument:
    """Parse named term and program definitions."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    terms: dict[str, TermDef] = {}
    programs: dict[str, PPProgram] = {}
    oracles: dict[str, tuple[int, int]] = {}
    current_prog: Optional[str] = None
    prog_fns: dict[str, PPFunction] = {}
    prog_guard = "strict"

    def close_program() -> None:
        nonlocal current_prog, prog_fns
        if current_prog is not None:
            prog = PPProgram(dict(prog_fns), prog_guard)
            _resolve_guards(prog)
            prog.validate()
            programs[current_prog] = prog
        current_prog, prog_fns = None, {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("oracle "):
            m = re.match(r"^oracle\s+(\S+?)\((\d+);(\d+)\)\s*$", line)
            if not m:
                raise ParseError("malformed oracle declaration", lineno, 1)
            oracles[m.group(1)] = (int(m.group(2)), int(m.group(3)))
            continue
        if line.startswith("program "):
            close_program()
            m = re.match(r"^program\s+(\S+)\s+guard\s+(strict|strictsafe)\s*$", line)
            if not m:
                raise ParseError("malformed program header", lineno, 1)
            current_prog = m.group(1)
            prog_guard = "strict" if m.group(2) == "strict" else "strict_safe"
            continue
        m = _DEF_RE.match(line)
        if not m:
            raise ParseError("malformed definition", lineno, 1)
        kw, name, ms, ns_, rhs = m.groups()
        parser = _TermParser(rhs, lineno)
        body = parser.term()
        parser.finish()
        if kw == "def":
            if current_prog is not None:
                raise ParseError("term definitions cannot appear inside a program", lineno, 1)
            if name in terms:
                raise ParseError(f"duplicate definition of {name!r}", lineno, 1)
            terms[name] = TermDef(name, int(ms), int(ns_), body)
        else:
            if current_prog is None:
                raise ParseError("fn outside a program", lineno, 1)
            if name in prog_fns:
                raise ParseError(f"duplicate function {name!r}", lineno, 1)
            prog_fns[name] = PPFunction(name, int(ms), int(ns_), body)
    close_program()
    return TermDocument(terms, programs, oracles)


def _resolve_guards(prog: PPProgram) -> None:
    """Fix up call nodes: '?' guards take the program's kind, and plain
    invocations of program functions become unguarded calls."""
    def fix(t: Term) -> Term:
        if isinstance(t, Call) and t.guard == "?":
            return Call(
                t.name,
                tuple(fix(a) for a in t.normal_args),
                tuple(fix(a) for a in t.safe_args),
                guard=prog.guard,
            )
        if isinstance(t, OracleCall) and t.name in prog.functions:
            return Call(
                t.name,
                tuple(fix(a) for a in t.normal_args),
                tuple(fix(a) for a in t.safe_args),
                guard=None,
            )
        return map_children(t, fix)

    for name, fn in list(prog.functions.items()):
        prog.functions[name] = PPFunction(fn.name, fn.normals, fn.safes, fix(fn.body))


def serialize_term(term: Term) -> str:
    """Text form of ``term`` as ``parse_terms`` reads it.

    Built bottom-up by ``fold``, so no recursion on term depth.
    """
    return fold(term, _serialize_node)


def _serialize_node(term: Term, kids: list[str]) -> str:
    """Text of one term node, given the text of its ``children``."""
    if isinstance(term, Zero):
        return "0"
    if isinstance(term, Proj):
        return f"{'x' if term.sort == 'n' else 'y'}{term.index}"
    if isinstance(term, S0):
        return f"s0({kids[0]})"
    if isinstance(term, S1):
        return f"s1({kids[0]})"
    if isinstance(term, Pred):
        return f"p({kids[0]})"
    if isinstance(term, Cond):
        return f"cond({','.join(kids)})"
    if isinstance(term, (OracleCall, Call)):
        k = len(term.normal_args)
        mark = "@" if isinstance(term, Call) and term.guard is not None else ""
        return f"{mark}{term.name}({','.join(kids[:k])};{','.join(kids[k:])})"
    if isinstance(term, CompSafe):
        return f"comps({kids[0]},{kids[1]})"
    if isinstance(term, CompNormal):
        return f"compn({kids[0]},{kids[1]})"
    if isinstance(term, SRecN):
        return f"srec({kids[0]},{kids[1]},{kids[2]})"
    if isinstance(term, SNRec):
        tail = f"|{term.rec_name}" if term.rec_name != "rec" else ""
        return f"snrec({kids[0]},{kids[1]}{tail})"
    if isinstance(term, SRecPP):
        tail = f"|{term.rec_name}" if term.rec_name != "rec" else ""
        return f"srecpp({kids[0]}{tail})"
    if isinstance(term, SNRecPP):
        tail = f"|{term.rec_name}" if term.rec_name != "rec" else ""
        return f"snrecpp({kids[0]}{tail})"
    if isinstance(term, SimRecPP):
        return f"{'simrecs' if term.guard_safes else 'simrecn'}({','.join(kids)})"
    raise TypeError(f"cannot serialize {type(term).__name__}")


def serialize_program(prog: PPProgram, name: str = "translated") -> str:
    guard = "strictsafe" if prog.guard == "strict_safe" else "strict"
    out = [f"program {name} guard {guard}"]
    for fname in sorted(prog.functions):
        fn = prog.functions[fname]
        out.append(f"fn {fn.name}({fn.normals};{fn.safes}) = {serialize_term(fn.body)}")
    return "\n".join(out) + "\n"


def serialize_termdef(td: TermDef) -> str:
    return f"def {td.name}({td.normals};{td.safes}) = {serialize_term(td.body)}\n"
