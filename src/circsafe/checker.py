"""Global correctness criteria on proof graphs.

Safety, left-leaning and (for safe graphs) progressiveness all reduce
to cycle conditions on the finite graph, decided here via strongly
connected components with deterministic witness extraction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .kernel import (
    _R_BOX_L, _R_COND_B, _R_COND_N, _R_CUT_B, _R_CUT_N, _R_WEAK_B, _R_WEAK_N, ProofGraph, has_cycle,
    sccs, validate_graph,
)


Adjacency = dict[str, tuple[str, ...]]


def _adjacency(graph: ProofGraph, order: list[str]) -> Adjacency:
    """Premise edges of the root-reachable part, in its BFS ``order``."""
    return {n: graph.nodes[n].premises for n in order}


def _cyclic(adj: Adjacency, comps: list[list[str]]) -> list[list[str]]:
    """The components of ``comps`` that carry a cycle."""
    return [c for c in comps if len(c) > 1 or c[0] in adj.get(c[0], ())]


def _shortest_path(adj: Adjacency, members: set[str], src: str, dst: str) -> list[str]:
    """Shortest path src..dst inside one SCC; deterministic via sorted BFS."""
    if src == dst:
        return [src]
    parent: dict[str, str] = {}
    queue = deque([src])
    seen = {src}
    while queue:
        u = queue.popleft()
        for v in sorted(adj.get(u, ())):
            if v not in members or v in seen:
                continue
            parent[v] = u
            if v == dst:
                path = [dst]
                while path[-1] != src:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            seen.add(v)
            queue.append(v)
    raise AssertionError(f"no path {src}->{dst} inside the component")


def _cycle_with_edge(adj: Adjacency, comp: list[str], u: str, v: str) -> list[str]:
    """A shortest simple cycle using the edge u -> v, as the node list from u.

    Consecutive entries are premise edges and the last entry points
    back at the first; BFS over sorted adjacency keeps it deterministic.
    """
    path = _shortest_path(adj, set(comp), v, u)
    return [u] + path[:-1]


def _shortest_cycle_through(adj: Adjacency, comp: list[str], target: str) -> list[str]:
    """Shortest simple cycle through ``target``; ties go to the first
    successor in sorted order."""
    members = set(comp)
    succ = (v for v in sorted(adj[target]) if v in members)
    return min((_cycle_with_edge(adj, comp, target, v) for v in succ), key=len)


@dataclass
class CheckOutcome:
    ok: bool
    witness_cycle: Optional[list[str]] = None


@dataclass
class ProgressOutcome:
    status: str  # "progressing" | "not_progressing" | "unknown_unsafe"
    witness_cycle: Optional[list[str]] = None


# The checks below take the reachable adjacency and its (cyclic)
# components, so classify computes them once for all three; the public
# wrappers that follow compute them per call.


def _safety(graph: ProofGraph, adj: Adjacency, cyclic: list[list[str]]) -> CheckOutcome:
    for comp in cyclic:
        for nid in comp:
            if graph.nodes[nid].rule.kind is _R_CUT_B:
                return CheckOutcome(False, _shortest_cycle_through(adj, comp, nid))
    return CheckOutcome(True)


def _left_leaning(graph: ProofGraph, adj: Adjacency, comps: list[list[str]]) -> CheckOutcome:
    comp_of = {n: i for i, comp in enumerate(comps) for n in comp}
    for nid in sorted(adj):
        node = graph.nodes[nid]
        if node.rule.kind is not _R_CUT_N:
            continue
        right = node.premises[1]
        if comp_of.get(right) == comp_of[nid]:
            return CheckOutcome(False, _cycle_with_edge(adj, comps[comp_of[nid]], nid, right))
    return CheckOutcome(True)


def _progress(graph: ProofGraph, adj: Adjacency, cyclic: list[list[str]], safety: CheckOutcome) -> ProgressOutcome:
    """A cycle avoiding every condB lies inside a ``cyclic`` component,
    so a peel of their other nodes decides; only then does a second
    Tarjan pass, over the whole condB-free subgraph, pick the witness."""
    if not safety.ok:
        return ProgressOutcome("unknown_unsafe", safety.witness_cycle)
    nodes = graph.nodes
    if not has_cycle({n: adj[n] for comp in cyclic for n in comp if nodes[n].rule.kind is not _R_COND_B}):
        return ProgressOutcome("progressing")
    kept = {n for n in adj if nodes[n].rule.kind is not _R_COND_B}
    sub = {n: tuple(p for p in ps if p in kept) for n, ps in adj.items() if n in kept}
    comp = _cyclic(sub, sccs(sub))[0]
    return ProgressOutcome("not_progressing", _shortest_cycle_through(sub, comp, comp[0]))


def check_safety(graph: ProofGraph) -> CheckOutcome:
    """Unsafe iff some reachable cycle passes a boxed-cut conclusion."""
    adj = _adjacency(graph, graph.reachable())
    return _safety(graph, adj, _cyclic(adj, sccs(adj)))


def check_left_leaning(graph: ProofGraph) -> CheckOutcome:
    """Violated iff some cycle takes the right premise of a plain cut."""
    adj = _adjacency(graph, graph.reachable())
    return _left_leaning(graph, adj, sccs(adj))


def check_progressing_safe(graph: ProofGraph) -> ProgressOutcome:
    """Safe-case progressiveness: every cycle crosses a boxed conditional.

    On unsafe graphs the cycle criterion is not equivalent to the
    thread condition, so the answer is unknown.
    """
    adj = _adjacency(graph, graph.reachable())
    cyclic = _cyclic(adj, sccs(adj))
    return _progress(graph, adj, cyclic, _safety(graph, adj, cyclic))


@dataclass
class Classification:
    name: str
    valid: bool
    safe: bool
    left_leaning: bool
    progressing: Optional[bool]  # None when unknown (unsafe graph)
    witness_cycle: Optional[list[str]]
    cls: str  # "CB" | "CNB" | "none"
    diagnostics: list[str] = field(default_factory=list)
    # classify's BFS order of a valid graph, and whether it has a cycle
    _order: Optional[list[str]] = field(default=None, init=False, repr=False, compare=False)
    _cyclic: bool = field(default=False, init=False, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "valid": self.valid,
            "safe": self.safe,
            "left_leaning": self.left_leaning,
            "progressing": "unknown" if self.progressing is None else self.progressing,
            "class": self.cls,
            "diagnostics": self.diagnostics,
        }


def classify(graph: ProofGraph) -> Classification:
    """Full classification into the circular systems: one BFS serves
    validation and the adjacency, one Tarjan pass all three checks.  The
    result keeps the BFS order and whether a cycle exists."""
    order = graph.reachable()
    errors = validate_graph(graph, order=order)
    if errors:
        return Classification(
            graph.name, False, False, False, None, None, "none",
            [str(e) for e in errors],
        )
    diagnostics: list[str] = []
    adj = _adjacency(graph, order)
    comps = sccs(adj)
    cyclic = _cyclic(adj, comps)
    safety = _safety(graph, adj, cyclic)
    leaning = _left_leaning(graph, adj, comps)
    progress = _progress(graph, adj, cyclic, safety)
    witness = None
    if not safety.ok:
        witness = safety.witness_cycle
        diagnostics.append("unsafe: cycle through a boxed cut: " + "->".join(witness or []))
    if not leaning.ok:
        witness = witness or leaning.witness_cycle
        diagnostics.append(
            "not left-leaning: cycle through the right premise of a plain cut: "
            + "->".join(leaning.witness_cycle or [])
        )
    progressing: Optional[bool]
    if progress.status == "progressing":
        progressing = True
    elif progress.status == "not_progressing":
        progressing = False
        witness = witness or progress.witness_cycle
        diagnostics.append(
            "not progressing: cycle avoiding boxed conditionals: "
            + "->".join(progress.witness_cycle or [])
        )
    else:
        progressing = None
        diagnostics.append("progressiveness unknown: the cycle criterion needs safety")
    if safety.ok and progressing:
        cls = "CB" if leaning.ok else "CNB"
    else:
        cls = "none"
    out = Classification(graph.name, True, safety.ok, leaning.ok, progressing, witness, cls, diagnostics)
    out._order, out._cyclic = order, bool(cyclic)
    return out


# ---------------------------------------------------------------------------
# Cycle-path diagnostics on the tree-with-backpointers form


@dataclass
class PathReport:
    bud: tuple[int, ...]
    companion: tuple[int, ...]
    has_boxed_conditional: bool
    clause2_violations: list[str]
    clause3_violations: list[str]

    @property
    def ok_progressing(self) -> bool:
        return self.has_boxed_conditional

    @property
    def ok_cnb(self) -> bool:
        return not self.clause2_violations

    @property
    def ok_cb(self) -> bool:
        return not self.clause3_violations


def cycle_path_diagnostics(cnf) -> list[PathReport]:
    """Check each companion-to-bud path against the loop-shape clauses.

    Clause 1: a progressing proof puts a boxed conditional on every
    such path.  Clause 2: safe proofs exclude boxed cuts, box-left and
    boxed weakening conclusions and the leftmost premise of a boxed
    conditional.  Clause 3: left-leaning proofs additionally exclude
    plain weakening, the leftmost premise of a plain conditional and
    the rightmost premise of a plain cut.  Only a violation builds a
    printed position id.
    """
    reports = []
    for bud in sorted(cnf.buds):
        comp = cnf.buds[bud]
        bud_path, comp_path = cnf.path(bud), cnf.path(comp)
        has_cond_b = False
        c2: list[str] = []
        c3: list[str] = []
        # walk positions comp .. bud (the bud leaf itself carries no rule)
        pos = comp
        for depth in range(len(comp_path), len(bud_path)):
            node = cnf.tree[pos]
            kind = node.rule.kind
            into = bud_path[depth]  # premise index taken next
            if kind is _R_COND_B:
                has_cond_b = True
                if into == 0:
                    c2.append(f"{cnf.label(pos)}: leftmost premise of a boxed conditional")
            if kind is _R_CUT_B:
                c2.append(f"{cnf.label(pos)}: boxed cut on the path")
            if kind is _R_BOX_L:
                c2.append(f"{cnf.label(pos)}: box-left on the path")
            if kind is _R_WEAK_B:
                c2.append(f"{cnf.label(pos)}: boxed weakening on the path")
            if kind is _R_WEAK_N:
                c3.append(f"{cnf.label(pos)}: plain weakening on the path")
            if kind is _R_COND_N and into == 0:
                c3.append(f"{cnf.label(pos)}: leftmost premise of a plain conditional")
            if kind is _R_CUT_N and into == 1:
                c3.append(f"{cnf.label(pos)}: rightmost premise of a plain cut")
            pos = node.children[into]
        reports.append(PathReport(bud_path, comp_path, has_cond_b, c2, c3))
    return reports
