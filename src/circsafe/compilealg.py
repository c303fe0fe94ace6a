"""Compiling function-algebra terms into proof graphs.

Terms of the base algebra become finite derivations whose recursions
use the explicit recursion rule; eliminating that rule yields circular
proofs whose loops stay on the left of plain cuts.  Nested-recursion
terms compile directly to circular proofs by closing each recursion
through the parameter-passing transformation.
"""

from __future__ import annotations

from typing import Optional

from .kernel import Node, ProofGraph, Rule, RuleKind, Sequent, SType
from .interp import (
    Zero,
    CompNormal,
    CompSafe,
    Cond,
    OracleCall,
    Pred,
    Proj,
    S0,
    S1,
    SNRec,
    SRecN,
    Term,
    TermDef,
    check_term_class,
    fold,
)
from .transform import ShapeViolation, pass_parameters


class CompileError(Exception):
    pass


N, B = SType.PLAIN, SType.BOXED


class _Graph:
    """Accumulates nodes with structure sharing by construction key."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nodes: dict[str, Node] = {}
        self.by_key: dict[object, str] = {}
        self.counter = 0

    def add(self, rule: Rule, seq: Sequent, premises: tuple[str, ...], hint: str = "n") -> str:
        key = (rule, seq, premises)
        if key in self.by_key:
            return self.by_key[key]
        nid = f"{hint}{self.counter}"
        self.counter += 1
        self.nodes[nid] = Node(rule, seq, premises)
        self.by_key[key] = nid
        return nid

    def reserve(self, rule_kind: RuleKind, seq: Sequent, hint: str = "n") -> str:
        """Placeholder for a node whose premises close a cycle later."""
        nid = f"{hint}{self.counter}"
        self.counter += 1
        self.nodes[nid] = Node(Rule(rule_kind), seq, ())
        return nid

    def fill(self, nid: str, rule: Rule, premises: tuple[str, ...]) -> None:
        self.nodes[nid] = Node(rule, self.nodes[nid].sequent, premises)

    def graph(self, root: str) -> ProofGraph:
        return ProofGraph(self.name, root, self.nodes).pruned()


def _exchange_up(g: _Graph, kind: RuleKind, seq: Sequent, positions: list[int], inner: str) -> str:
    """Exchange steps, conclusion-to-premise order, bottom id returned."""
    cur = inner
    for p in reversed(positions):
        cur = g.add(Rule(kind, pos=p), seq, (cur,))
    return cur


def _weaken_to(g: _Graph, inner: str, inner_seq: Sequent, m: int, n: int) -> str:
    """Pad a closed sub-proof with unused inputs up to (m; n)."""
    cur, b, p = inner, inner_seq.boxed, inner_seq.plain
    succ = inner_seq.succedent
    while p < n:
        p += 1
        cur = g.add(Rule(RuleKind.WEAK_N), Sequent(b, p, succ), (cur,))
    while b < m:
        b += 1
        cur = g.add(Rule(RuleKind.WEAK_B), Sequent(b, p, succ), (cur,))
    return cur


def _proj_safe(g: _Graph, m: int, n: int, j: int) -> str:
    """Derivation of (m; n) => N returning safe input j."""
    cur = g.add(Rule(RuleKind.ID), Sequent(0, 1), ())
    for i in range(1, n):
        cur = g.add(Rule(RuleKind.WEAK_N), Sequent(0, i + 1), (cur,))
    # the used safe sits at position 0; move it to position j
    cur = _exchange_up(g, RuleKind.EXCH_N, Sequent(0, n), list(range(j - 1, -1, -1)), cur)
    for i in range(m):
        cur = g.add(Rule(RuleKind.WEAK_B), Sequent(i + 1, n), (cur,))
    return cur


def _proj_normal(g: _Graph, m: int, n: int, j: int) -> str:
    """Derivation of (m; n) => N returning normal input j."""
    cur = g.add(Rule(RuleKind.ID), Sequent(0, 1), ())
    # append the ambient safes behind the used one, then rotate it last
    for i in range(n):
        cur = g.add(Rule(RuleKind.WEAK_N), Sequent(0, 2 + i), (cur,))
    cur = _exchange_up(g, RuleKind.EXCH_N, Sequent(0, n + 1), list(range(n - 1, -1, -1)), cur)
    cur = g.add(Rule(RuleKind.BOX_L), Sequent(1, n), (cur,))
    for i in range(m - 1):
        cur = g.add(Rule(RuleKind.WEAK_B), Sequent(i + 2, n), (cur,))
    # the used normal is at the last position; move it down to j
    cur = _exchange_up(g, RuleKind.EXCH_B, Sequent(m, n), list(range(j, m - 1)), cur)
    return cur


def _compile(g: _Graph, term: Term, m: int, n: int, oracle_sigs: dict[str, tuple[int, int]]) -> str:
    """Sub-derivation of (m; n) => N computing the term's value."""
    seq = Sequent(m, n)
    if isinstance(term, Proj):
        if term.sort == "s":
            if not 0 <= term.index < n:
                raise CompileError(f"safe projection {term.index} out of range")
            return _proj_safe(g, m, n, term.index)
        if not 0 <= term.index < m:
            raise CompileError(f"normal projection {term.index} out of range")
        return _proj_normal(g, m, n, term.index)
    if isinstance(term, Zero):
        return _weaken_to(g, g.add(Rule(RuleKind.ZERO), Sequent(0, 0), ()), Sequent(0, 0), m, n)
    if isinstance(term, (S0, S1, Pred)):
        # in a loop: the leaf first, then each node upward, in the order recursion would add them
        chain = []
        while isinstance(term, (S0, S1, Pred)):
            chain.append(term)
            term = term.t
        if isinstance(chain[-1], Pred) and isinstance(term, Proj) and term.sort == "s" and term.index == n - 1:
            chain.pop()  # p of the last safe needs no cut
            cur = _pred_of_last(g, m, n - 1)
        else:
            cur = _compile(g, term, m, n, oracle_sigs)
        for t in reversed(chain):
            if isinstance(t, Pred):  # p over the cut value
                cur = g.add(Rule(RuleKind.CUT_N), seq, (cur, _pred_of_last(g, m, n)))
            else:
                cur = g.add(Rule(RuleKind.S0 if isinstance(t, S0) else RuleKind.S1), seq, (cur,))
        return cur
    if isinstance(term, Cond):
        w = _compile(g, term.w, m, n, oracle_sigs)
        x = _compile(g, term.x, m, n, oracle_sigs)
        y = _compile(g, term.y, m, n, oracle_sigs)
        z = _compile(g, term.z, m, n, oracle_sigs)
        # branches ignore the conditional's replaced scrutinee slot
        body = g.add(
            Rule(RuleKind.COND_N),
            Sequent(m, n + 1),
            (
                x,
                g.add(Rule(RuleKind.WEAK_N), Sequent(m, n + 1), (y,)),
                g.add(Rule(RuleKind.WEAK_N), Sequent(m, n + 1), (z,)),
            ),
        )
        return g.add(Rule(RuleKind.CUT_N), seq, (w, body))
    if isinstance(term, CompSafe):
        value = _compile(g, term.g, m, n, oracle_sigs)
        body = _compile(g, term.h, m, n + 1, oracle_sigs)
        return g.add(Rule(RuleKind.CUT_N), seq, (value, body))
    if isinstance(term, CompNormal):
        inner = _compile(g, term.g, m, 0, oracle_sigs)
        boxed = g.add(Rule(RuleKind.BOX_R), Sequent(m, 0, B), (inner,))
        for i in range(n):
            boxed = g.add(Rule(RuleKind.WEAK_N), Sequent(m, i + 1, B), (boxed,))
        body = _compile(g, term.h, m + 1, n, oracle_sigs)
        # the cut hands the value over in front; the body wants it last
        body = _exchange_up(g, RuleKind.EXCH_B, Sequent(m + 1, n), list(range(m)), body)
        return g.add(Rule(RuleKind.CUT_B), seq, (boxed, body))
    if isinstance(term, SRecN):
        if m < 1:
            raise CompileError("recursion needs a normal input in front")
        base = _compile(g, term.g, m - 1, n, oracle_sigs)
        h0 = _compile(g, term.h0, m, n + 1, oracle_sigs)
        h1 = _compile(g, term.h1, m, n + 1, oracle_sigs)
        return g.add(Rule(RuleKind.SREC), seq, (base, h0, h1))
    if isinstance(term, SNRec):
        return _compile_snrec(g, term, m, n, oracle_sigs)
    if isinstance(term, OracleCall):
        return _compile_oracle_call(g, term, m, n, oracle_sigs)
    raise CompileError(f"cannot compile {type(term).__name__}")


def _pred_of_last(g: _Graph, m: int, n: int) -> str:
    """Derivation of (m; n + 1) => N: a conditional on the last safe returning its p."""
    zero = _weaken_to(g, g.add(Rule(RuleKind.ZERO), Sequent(0, 0), ()), Sequent(0, 0), m, n)
    keep = _proj_safe(g, m, n + 1, n)
    return g.add(Rule(RuleKind.COND_N), Sequent(m, n + 1), (zero, keep, keep))


def _compile_oracle_call(g: _Graph, term: OracleCall, m: int, n: int, oracle_sigs: dict[str, tuple[int, int]]) -> str:
    """Oracle leaf with computed safe arguments and a plain context.

    Arguments are cut in one by one; the ambient inputs are weakened
    away just below the leaf (boxed ones first, so every boxed thread
    ends at a weakening on the path to the leaf).
    """
    if term.name not in oracle_sigs:
        raise CompileError(f"oracle {term.name!r} has no declared arity")
    om, on = oracle_sigs[term.name]
    if om != 0:
        raise CompileError("oracle leaves take safe arguments only")
    if len(term.normal_args) != 0 or len(term.safe_args) != on:
        raise CompileError(f"oracle {term.name!r} arity mismatch")
    leaf = g.add(Rule(RuleKind.ORACLE, oracle=term.name), Sequent(0, on), ())
    # discard the ambient safes: rotate each original safe to the end and weaken
    cur = leaf
    for i in range(n):
        wide = Sequent(0, on + i + 1)
        cur = g.add(Rule(RuleKind.WEAK_N), wide, (cur,))
        cur = _exchange_up(g, RuleKind.EXCH_N, wide, list(range(on + i)), cur)
    for i in range(m):
        cur = g.add(Rule(RuleKind.WEAK_B), Sequent(i + 1, n + on), (cur,))
    # now cut in the argument values, innermost last.  Argument j sees
    # the j earlier values as safes n..n+j-1; one that reads the count of
    # ambient safes (_binds_safe) compiles without them, weakened away
    for j in range(on - 1, -1, -1):
        arg = term.safe_args[j]
        if j and _binds_safe(arg):
            value = _weaken_to(g, _compile(g, arg, m, n, oracle_sigs), Sequent(m, n), m, n + j)
        else:
            value = _compile(g, arg, m, n + j, oracle_sigs)
        cur = g.add(Rule(RuleKind.CUT_N), Sequent(m, n + j), (value, cur))
    return cur


def _binds_safe(term: Term) -> bool:
    """Does ``term`` contain a form that reads the count n of ambient
    safes: ``comps`` and ``srec`` bind slot n, ``snrec``'s recursive
    call takes n safes?"""
    return fold(term, lambda t, kids: isinstance(t, (CompSafe, SRecN, SNRec)) or any(kids))


def _compile_snrec(g: _Graph, term: SNRec, m: int, n: int, oracle_sigs: dict[str, tuple[int, int]]) -> str:
    """Close a nested recursion through parameter passing and a backedge."""
    if m < 1:
        raise CompileError("recursion needs a normal input in front")
    _reject_frozen_oracle_under_loop(term.h, term.rec_name)
    sigs = dict(oracle_sigs)
    sigs[term.rec_name] = (0, n)
    # compile the step over the recursion oracle in its own graph
    sub = _Graph(g.name + "_h")
    h_root = _compile(sub, term.h, m, n, sigs)
    h_graph = sub.graph(h_root)
    starred, star = pass_parameters(h_graph, term.rec_name)
    prefix = f"s{g.counter}_"
    g.counter += 1
    base = _compile(g, term.g, m - 1, n, oracle_sigs)
    loop = g.reserve(RuleKind.COND_B, Sequent(m, n), hint="loop")
    # import the transformed step proof under fresh ids; the widened
    # oracle leaves become backedges to the loop head
    ids = {}
    for nid, node in starred.nodes.items():
        ids[nid] = prefix + nid
        if node.rule.kind is RuleKind.ORACLE and node.rule.oracle == star:
            if node.sequent != Sequent(m, n):
                raise CompileError(f"widened oracle leaf has sequent {node.sequent}")
            ids[nid] = loop
    for nid, node in starred.nodes.items():
        if ids[nid] != loop:
            g.nodes[ids[nid]] = Node(node.rule, node.sequent, tuple(ids[p] for p in node.premises))
    g.fill(loop, Rule(RuleKind.COND_B), (base,) + (ids[starred.root],) * 2)
    return loop


def _reject_frozen_oracle_under_loop(h: Term, name: str) -> None:
    """Refuse recursive calls captured under a further recursion.

    Closing such a call with a backedge would re-read the loop's
    decremented parameter instead of the frozen one, so the loop gadget
    cannot realise the closure semantics without contraction.
    """

    def step(t: Term, kids: list[bool]) -> bool:
        """Does ``t`` contain a recursive call?"""
        if isinstance(t, (SRecN, SNRec)) and any(kids):
            raise CompileError(
                f"recursive call {name!r} occurs under an inner recursion; "
                "the backedge construction cannot freeze its parameters"
            )
        return isinstance(t, OracleCall) and t.name == name or any(kids)

    fold(h, step)


def _compiled(td: TermDef, cls: str, oracle_sigs: Optional[dict[str, tuple[int, int]]]) -> ProofGraph:
    """The term's proof after checking it is in class ``cls``."""
    violations = check_term_class(td.body, cls)
    if violations:
        algebra = "base" if cls == "B" else "nested"
        raise CompileError(f"{td.name} is not in the {algebra} algebra: {violations[0]}")
    g = _Graph(td.name + "_deriv")
    return g.graph(_compile(g, td.body, td.normals, td.safes, oracle_sigs or {}))


def term_to_derivation(td: TermDef, oracle_sigs: Optional[dict[str, tuple[int, int]]] = None) -> ProofGraph:
    """Finite derivation (recursion rule allowed) computing the term."""
    return _compiled(td, "B", oracle_sigs)


def srec_eliminate(graph: ProofGraph) -> ProofGraph:
    """Replace each recursion-rule node by the backedge loop gadget.

    The conditional's recursive branches share the loop edge on the
    left of a plain cut whose right side is the original step proof, so
    the output is safe, progressing and left-leaning.
    """
    out = ProofGraph(graph.name.removesuffix("_deriv") + "_circ", graph.root, dict(graph.nodes))
    counter = 0
    for nid in list(out.reachable()):
        node = out.nodes[nid]
        if node.rule.kind is not RuleKind.SREC:
            continue
        base, h0, h1 = node.premises
        cuts = []
        for h in dict.fromkeys((h0, h1)):
            # one cut per distinct step; the node keeps its id, and each
            # cut takes the next {nid}_k id that no node holds
            while f"{nid}_k{counter}" in out.nodes:
                counter += 1
            cuts.append(f"{nid}_k{counter}")
            counter += 1
            out.nodes[cuts[-1]] = Node(Rule(RuleKind.CUT_N), node.sequent, (nid, h))
        out.nodes[nid] = Node(Rule(RuleKind.COND_B), node.sequent, (base, cuts[0], cuts[-1]))
    return out.pruned()


def nb_to_circular(td: TermDef, oracle_sigs: Optional[dict[str, tuple[int, int]]] = None) -> ProofGraph:
    """Circular proof for a term of the nested algebra, base terms included.

    Plain recursion nodes are eliminated afterwards; nested recursions
    close their loops during compilation.  The construction keeps every
    path from the conclusion to an oracle leaf free of boxed cuts, so
    parameter passing stays applicable at each stage.
    """
    out = srec_eliminate(_compiled(td, "NB", oracle_sigs))
    _assert_no_boxed_cut_to_oracles(out)
    return out


def _assert_no_boxed_cut_to_oracles(graph: ProofGraph) -> None:
    leaves = [x for x in graph.reachable() if graph.nodes[x].rule.kind is RuleKind.ORACLE]
    for x in sorted(graph.reaching(leaves)):
        if graph.nodes[x].rule.kind is RuleKind.CUT_B:
            raise ShapeViolation(f"boxed cut at {x} on a path to an oracle leaf")
