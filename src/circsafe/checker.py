"""Global correctness criteria on proof graphs.

Safety, left-leaning and (for safe graphs) progressiveness all reduce
to cycle conditions on the finite graph, decided here via strongly
connected components with deterministic witness extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .kernel import ProofGraph, RuleKind, sccs, validate_graph


def _cyclic_sccs(adj: dict[str, tuple[str, ...]]) -> list[list[str]]:
    out = []
    for comp in sccs(adj):
        if len(comp) > 1 or comp[0] in adj.get(comp[0], ()):
            out.append(comp)
    return out


def _shortest_path(adj: dict[str, tuple[str, ...]], members: set[str], src: str, dst: str) -> list[str]:
    """Shortest path src..dst inside one SCC; deterministic via sorted BFS."""
    if src == dst:
        return [src]
    parent: dict[str, str] = {}
    queue = [src]
    seen = {src}
    while queue:
        u = queue.pop(0)
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


def _shortest_cycle_through(adj: dict[str, tuple[str, ...]], comp: list[str], target: str) -> list[str]:
    """Shortest simple cycle through ``target``, as a node list.

    Consecutive entries are premise edges and the last entry points
    back at the first; BFS over sorted adjacency keeps it deterministic.
    """
    members = set(comp)
    best: Optional[list[str]] = None
    for v in sorted(adj.get(target, ())):
        if v == target:
            return [target]
        if v not in members:
            continue
        try:
            path = _shortest_path(adj, members, v, target)
        except AssertionError:
            continue
        cycle = [target] + path[:-1]
        if best is None or len(cycle) < len(best):
            best = cycle
    assert best is not None, "target is on no cycle of its component"
    return best


def _cycle_with_edge(adj: dict[str, tuple[str, ...]], comp: list[str], u: str, v: str) -> list[str]:
    """A simple cycle using the edge u -> v, as the node list from u."""
    members = set(comp)
    path = _shortest_path(adj, members, v, u)
    return [u] + path[:-1]


@dataclass
class CheckOutcome:
    ok: bool
    witness_cycle: Optional[list[str]] = None


def check_safety(graph: ProofGraph) -> CheckOutcome:
    """Unsafe iff some reachable cycle passes a boxed-cut conclusion."""
    adj = {n: graph.nodes[n].premises for n in graph.reachable()}
    for comp in _cyclic_sccs(adj):
        for nid in comp:
            if graph.nodes[nid].rule.kind is RuleKind.CUT_B:
                return CheckOutcome(False, _shortest_cycle_through(adj, comp, nid))
    return CheckOutcome(True)


def check_left_leaning(graph: ProofGraph) -> CheckOutcome:
    """Violated iff some cycle takes the right premise of a plain cut."""
    adj = {n: graph.nodes[n].premises for n in graph.reachable()}
    comp_of: dict[str, int] = {}
    comps = sccs(adj)
    for i, comp in enumerate(comps):
        for n in comp:
            comp_of[n] = i
    for nid in sorted(adj):
        node = graph.nodes[nid]
        if node.rule.kind is not RuleKind.CUT_N:
            continue
        right = node.premises[1]
        if comp_of.get(right) == comp_of.get(nid):
            comp = comps[comp_of[nid]]
            if len(comp) > 1 or nid in adj.get(nid, ()):
                return CheckOutcome(False, _cycle_with_edge(adj, comp, nid, right))
    return CheckOutcome(True)


@dataclass
class ProgressOutcome:
    status: str  # "progressing" | "not_progressing" | "unknown_unsafe"
    witness_cycle: Optional[list[str]] = None


def check_progressing_safe(graph: ProofGraph) -> ProgressOutcome:
    """Safe-case progressiveness: every cycle crosses a boxed conditional.

    On unsafe graphs the cycle criterion is not equivalent to the
    thread condition, so the answer is unknown.
    """
    safety = check_safety(graph)
    if not safety.ok:
        return ProgressOutcome("unknown_unsafe", safety.witness_cycle)
    keep = [n for n in graph.reachable() if graph.nodes[n].rule.kind is not RuleKind.COND_B]
    kept = set(keep)
    adj = {n: tuple(p for p in graph.nodes[n].premises if p in kept) for n in keep}
    cyc = _cyclic_sccs(adj)
    if cyc:
        comp = cyc[0]
        return ProgressOutcome("not_progressing", _shortest_cycle_through(adj, comp, comp[0]))
    return ProgressOutcome("progressing")


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
    """Full classification into the circular systems."""
    errors = validate_graph(graph)
    if errors:
        return Classification(
            graph.name, False, False, False, None, None, "none",
            [str(e) for e in errors],
        )
    diagnostics: list[str] = []
    safety = check_safety(graph)
    leaning = check_left_leaning(graph)
    progress = check_progressing_safe(graph)
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
    return Classification(
        graph.name, True, safety.ok, leaning.ok, progressing, witness, cls, diagnostics
    )


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
    the rightmost premise of a plain cut.
    """
    reports = []
    for bud in sorted(cnf.buds):
        comp = cnf.buds[bud]
        has_cond_b = False
        c2: list[str] = []
        c3: list[str] = []
        # walk positions comp .. bud (the bud leaf itself carries no rule)
        for depth in range(len(comp), len(bud)):
            pos = bud[:depth]
            node = cnf.tree[pos]
            kind = node.rule.kind
            into = bud[depth]  # premise index taken next
            label = cnf.position_id(pos)
            if kind is RuleKind.COND_B:
                has_cond_b = True
                if into == 0:
                    c2.append(f"{label}: leftmost premise of a boxed conditional")
            if kind is RuleKind.CUT_B:
                c2.append(f"{label}: boxed cut on the path")
            if kind is RuleKind.BOX_L:
                c2.append(f"{label}: box-left on the path")
            if kind is RuleKind.WEAK_B:
                c2.append(f"{label}: boxed weakening on the path")
            if kind is RuleKind.WEAK_N:
                c3.append(f"{label}: plain weakening on the path")
            if kind is RuleKind.COND_N and into == 0:
                c3.append(f"{label}: leftmost premise of a plain conditional")
            if kind is RuleKind.CUT_N and into == 1:
                c3.append(f"{label}: rightmost premise of a plain cut")
        reports.append(PathReport(bud, comp, has_cond_b, c2, c3))
    return reports
