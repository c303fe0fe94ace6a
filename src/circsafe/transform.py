"""Structural transformations on proof graphs.

Includes the canonical tree-with-backpointers presentation (cycle
normal form), promotion of all inputs to the boxed sort, removal of
safe inputs under a boxed succedent, threading of boxed parameters
into oracle leaves, and the reduction of simultaneous recursion to a
single function via rotation tags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .kernel import (
    Node,
    ProofGraph,
    Rule,
    RuleKind,
    Sequent,
    SType,
    sccs,
    validate_graph,
)
from .interp import (
    REC,
    Call,
    OracleCall,
    OracleEnv,
    PPFunction,
    PPProgram,
    Proj,
    S0,
    S1,
    SimRecPP,
    SNRecPP,
    SRecPP,
    TagDispatch,
    Term,
    Zero,
    eval_term,
    map_terms,
)


class TransformError(Exception):
    pass


class ShapeViolation(TransformError):
    pass


class NotProgressing(TransformError):
    pass


# ---------------------------------------------------------------------------
# Bisimulation minimization and cycle normal form


def bisimulation_classes(graph: ProofGraph) -> dict[str, int]:
    """Coarsest partition of the reachable nodes into bisimilar classes.

    Two nodes are bisimilar when they carry the same (rule, sequent)
    label and their i-th premises are bisimilar for every i.  This is
    Hopcroft's DFA minimisation with nodes as states, labels as the
    initial partition and the premise index (0..2) as the alphabet: a
    worklist of splitters over inverse premise edges, where a split
    block queues only its smaller half.  O(k n log n) time for n
    reachable nodes and at most k = 3 premises each, no recursion.
    Class ids only mean equality; their numbering is arbitrary.
    """
    order = sorted(graph.reachable())
    index = {n: i for i, n in enumerate(order)}
    k = max((len(graph.nodes[n].premises) for n in order), default=0)
    preds: list[list[list[int]]] = [[[] for _ in order] for _ in range(k)]
    block_of: list[int] = []
    members: list[set[int]] = []
    labels: dict[object, int] = {}
    for i, n in enumerate(order):
        node = graph.nodes[n]
        for a, p in enumerate(node.premises):
            preds[a][index[p]].append(i)
        b = labels.setdefault((node.rule, node.sequent), len(labels))
        if b == len(members):
            members.append(set())
        members[b].add(i)
        block_of.append(b)
    work = [(b, a) for b in range(len(members)) for a in range(k)]
    while work:
        b, a = work.pop()
        # nodes whose a-th premise lies in block b, by their own block;
        # each node has one a-th premise, so none is listed twice
        hit: dict[int, list[int]] = {}
        for j in members[b]:
            for i in preds[a][j]:
                hit.setdefault(block_of[i], []).append(i)
        for y, inside in hit.items():
            ys = members[y]
            if len(inside) == len(ys):
                continue
            moved = set(inside)
            if 2 * len(moved) > len(ys):
                moved = ys - moved
            ys -= moved
            z = len(members)
            members.append(moved)
            for i in moved:
                block_of[i] = z
            # z is the smaller half: queuing it suffices whether or not
            # (y, c) is still queued
            work.extend((z, c) for c in range(k))
    return {n: block_of[i] for i, n in enumerate(order)}


class CnfNode(NamedTuple):
    rule: Rule
    sequent: Sequent
    children: list[int]  # positions, filled in as the walk numbers them


@dataclass
class CycleNF:
    """Finite unfolding tree with bud-to-companion backpointers.

    A position is its pre-order number in the unfolding, leftmost
    premise first, so the root is 0 and a position's subtree follows it.
    Pre-order on a leftmost-first walk is the lexicographic order of root
    paths, so sorting positions sorts them by root path.  ``parent`` and
    ``index`` give each position's parent (-1 for the root) and the
    premise index that leads to it.  Only output needs root paths:
    ``path`` and ``label`` build them for one position, ``cnf_to_graph``
    the printed ids of all.
    """

    name: str
    tree: dict[int, CnfNode] = field(default_factory=dict)
    buds: dict[int, int] = field(default_factory=dict)  # bud -> companion
    node_of: list[str] = field(default_factory=list)  # source graph node
    parent: list[int] = field(default_factory=list)
    index: list[int] = field(default_factory=list)

    @property
    def companions(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for b, c in sorted(self.buds.items()):
            out.setdefault(c, []).append(b)
        return {c: tuple(bs) for c, bs in sorted(out.items())}

    def path(self, pos: int) -> tuple[int, ...]:
        """The premise indices from the root down to ``pos``."""
        out = []
        while pos > 0:
            out.append(self.index[pos])
            pos = self.parent[pos]
        return tuple(reversed(out))

    def label(self, pos: int) -> str:
        """The printed id of ``pos``: "t" followed by its root path, so
        "t" is the root and "t01" its first premise's second premise."""
        return "t" + "".join(map(str, self.path(pos)))


def cycle_normal_form(graph: ProofGraph) -> CycleNF:
    """``_cycle_normal_form`` of a graph that passes ``validate_graph``
    (srec and oracle leaves allowed); TransformError otherwise."""
    _require_valid(graph, allow_srec=True)
    return _cycle_normal_form(graph)


def _require_valid(graph: ProofGraph, allow_srec: bool = False) -> None:
    """TransformError on the first error ``validate_graph`` finds
    (oracle leaves allowed)."""
    errors = validate_graph(graph, allow_srec=allow_srec, allow_oracle=True)
    if errors:
        raise TransformError(f"invalid input graph: {errors[0]}")


def _cycle_normal_form(graph: ProofGraph) -> CycleNF:
    """Unfold the bisimulation-minimized graph, cutting at repetitions.

    Depth-first, leftmost premise first; a node whose minimized class
    already occurs on the current root path becomes a bud pointing at
    that earlier occurrence.  The result is canonical for the graph.

    One explicit-stack walk numbers the positions in the order it enters
    them and keeps one map from class to position for the root path, so
    it runs without recursion in time linear in the tree, after the
    O(n log n) minimisation.  Callers that have validated ``graph`` more
    strictly call this directly.
    """
    classes = bisimulation_classes(graph)
    cnf = CycleNF(graph.name)
    tree, buds, node_of, parent, index = cnf.tree, cnf.buds, cnf.node_of, cnf.parent, cnf.index
    on_path: dict[int, int] = {}  # class -> its position on the root path
    # entries: (node, parent position, premise index, the parent's
    # children) to enter, or a class to take off the path once its
    # subtree is done
    stack: list = [(graph.root, -1, 0, [])]
    while stack:
        top = stack.pop()
        if type(top) is int:
            del on_path[top]
            continue
        nid, up, i, siblings = top
        pos = len(node_of)
        node_of.append(nid)
        parent.append(up)
        index.append(i)
        siblings.append(pos)
        cls = classes[nid]
        if cls in on_path:
            buds[pos] = on_path[cls]
            continue
        node = graph.nodes[nid]
        children: list[int] = []
        tree[pos] = CnfNode(node.rule, node.sequent, children)
        on_path[cls] = pos
        stack.append(cls)
        for i in reversed(range(len(node.premises))):
            stack.append((node.premises[i], pos, i, children))
    return cnf


def close_open_sets(cnf: CycleNF, pos: int) -> tuple[list[int], list[int]]:
    """Companions at-or-above ``pos`` of buds above it, and buds above
    ``pos`` whose companion sits strictly below it."""
    parent = cnf.parent

    def at_or_above(base: int, q: int) -> bool:
        while q > base:  # a parent precedes its children
            q = parent[q]
        return q == base

    close: set[int] = set()
    open_: set[int] = set()
    for bud, comp in cnf.buds.items():
        if not at_or_above(pos, bud):
            continue
        if at_or_above(pos, comp):
            close.add(comp)
        else:
            open_.add(bud)
    return sorted(close), sorted(open_)


def cnf_to_graph(cnf: CycleNF) -> ProofGraph:
    """Refold the tree into a proof graph, marking companions with dis.

    Buds become premise edges pointing back at their companion's dis
    node, which records its buds' position ids.  The ids (``label`` of
    every position) come from one forward pass: a parent precedes its
    children.
    """
    buds, parent, index, tree = cnf.buds, cnf.parent, cnf.index, cnf.tree
    ids = ["t"]
    for p in range(1, len(parent)):
        ids.append(ids[parent[p]] + str(index[p]))
    companions = cnf.companions
    nodes: dict[str, Node] = {}
    for pos, cn in tree.items():
        base = ids[pos]
        prem = tuple([ids[buds.get(child, child)] for child in cn.children])
        if pos in companions:
            bud_ids = tuple([ids[b] for b in companions[pos]])
            nodes[base] = Node(Rule(RuleKind.DIS, buds=bud_ids), cn.sequent, (base + "c",))
            nodes[base + "c"] = Node(cn.rule, cn.sequent, prem)
        else:
            nodes[base] = Node(cn.rule, cn.sequent, prem)
    return ProofGraph(cnf.name + "_cnf", "t", nodes)


# ---------------------------------------------------------------------------
# Box promotion: all inputs become boxed


class _Builder:
    """Node factory for the graph rewrites, with one id rule: a node's
    replacement keeps the node's id, and every added node gets an id
    that neither the input graph nor the output holds, so no added node
    overwrites another and nothing is renamed afterwards."""

    def __init__(self, graph: ProofGraph, nodes: dict[str, Node]) -> None:
        self.taken = graph.nodes
        self.nodes = nodes
        self.counters: dict[str, int] = {}

    def fresh(self, base: str) -> str:
        """``base.c`` for the least free c not drawn for ``base`` before."""
        c = self.counters.get(base, 0)
        while (nid := f"{base}.{c}") in self.taken or nid in self.nodes:
            c += 1
        self.counters[base] = c + 1
        return nid

    def named(self, nid: str) -> str:
        """``nid`` itself when it is free, else ``fresh(nid)``."""
        return self.fresh(nid) if nid in self.taken or nid in self.nodes else nid

    def exch_chain(
        self, base: str, seq: Sequent, positions: list[int], inner: str, bottom: Optional[str] = None
    ) -> str:
        """Boxed exchange steps applied conclusion-to-premise at ``positions``.

        Returns the id of the conclusion (bottom) node, ``bottom`` when
        given and the others drawn from ``base``; empty position lists
        return ``inner`` unchanged.
        """
        cur = inner
        for i, p in enumerate(reversed(positions)):
            nid = bottom if bottom is not None and i == len(positions) - 1 else self.fresh(base)
            self.nodes[nid] = Node(Rule(RuleKind.EXCH_B, pos=p), seq, (cur,))
            cur = nid
        return cur


def box_promote(graph: ProofGraph) -> ProofGraph:
    """Rebuild the proof with every input boxed and the same values.

    A node over m boxed and n plain inputs becomes a node over m+n
    boxed inputs (original order, safes after normals); plain cuts
    become boxed cuts behind a box-right, plain conditionals become
    boxed ones, and the argument plumbing is explicit exchange chains.
    The output contains no plain weakening, exchange, cut or
    conditional.

    Ids follow ``_Builder``'s rule: each node's replacement, the bottom
    of its chain included, keeps the node's id, and added nodes get
    fresh ones.  The one exception is a box-left over one input, which
    becomes the identity: its id stands for its premise's, which
    concludes N => N and so is never such a box-left itself.
    """
    _require_valid(graph)

    nodes: dict[str, Node] = {}
    alias: dict[str, str] = {}
    b = _Builder(graph, nodes)

    def promoted(seq: Sequent) -> Sequent:
        return Sequent(seq.boxed + seq.plain, 0, seq.succedent)

    for nid in graph.reachable():
        node = graph.nodes[nid]
        kind = node.rule.kind
        seq = node.sequent
        pseq = promoted(seq)
        k = seq.boxed + seq.plain
        pr = node.premises
        if kind is RuleKind.ID:
            leaf = b.named(nid + ".i")
            nodes[nid] = Node(Rule(RuleKind.BOX_L), pseq, (leaf,))
            nodes[leaf] = Node(Rule(RuleKind.ID), Sequent(0, 1), ())
        elif kind is RuleKind.ZERO:
            nodes[nid] = Node(Rule(RuleKind.ZERO), pseq, ())
        elif kind in (RuleKind.S0, RuleKind.S1):
            nodes[nid] = Node(Rule(kind), pseq, (pr[0],))
        elif kind is RuleKind.WEAK_N:
            # rotate the dropped (last) input to the front, weaken it there
            positions = list(range(k - 2, -1, -1))
            wid = b.named(nid + ".w") if positions else nid
            nodes[wid] = Node(Rule(RuleKind.WEAK_B), pseq, (pr[0],))
            b.exch_chain(nid, pseq, positions, wid, nid)
        elif kind is RuleKind.WEAK_B:
            nodes[nid] = Node(Rule(RuleKind.WEAK_B), pseq, (pr[0],))
        elif kind is RuleKind.EXCH_N:
            nodes[nid] = Node(Rule(RuleKind.EXCH_B, pos=seq.boxed + node.rule.pos), pseq, (pr[0],))
        elif kind is RuleKind.EXCH_B:
            nodes[nid] = Node(Rule(RuleKind.EXCH_B, pos=node.rule.pos), pseq, (pr[0],))
        elif kind is RuleKind.BOX_L:
            # first input moves to last place; with one input this is a no-op
            if k == 1:
                alias[nid] = pr[0]
            b.exch_chain(nid, pseq, list(range(k - 1)), pr[0], nid)
        elif kind is RuleKind.BOX_R:
            nodes[nid] = Node(Rule(RuleKind.BOX_R), pseq, (pr[0],))
        elif kind is RuleKind.CUT_N:
            right_seq = Sequent(k + 1, 0, seq.succedent)
            right = b.exch_chain(nid + ".r", right_seq, list(range(k)), pr[1])
            left = b.named(nid + ".b")
            nodes[left] = Node(Rule(RuleKind.BOX_R), Sequent(k, 0, SType.BOXED), (pr[0],))
            nodes[nid] = Node(Rule(RuleKind.CUT_B), pseq, (left, right))
        elif kind is RuleKind.CUT_B:
            nodes[nid] = Node(Rule(RuleKind.CUT_B), pseq, (pr[0], pr[1]))
        elif kind is RuleKind.COND_N:
            branches = [pr[0]]
            for bi in (1, 2):
                # the boxed conditional hands back the scrutinee in front;
                # the original branch expects it last
                branches.append(b.exch_chain(f"{nid}.b{bi}", pseq, list(range(k - 1)), pr[bi]))
            positions = list(range(k - 2, -1, -1))
            cid = b.named(nid + ".c") if positions else nid
            nodes[cid] = Node(Rule(RuleKind.COND_B), pseq, tuple(branches))
            b.exch_chain(nid, pseq, positions, cid, nid)
        elif kind is RuleKind.COND_B:
            nodes[nid] = Node(Rule(RuleKind.COND_B), pseq, tuple(pr))
        elif kind is RuleKind.ORACLE:
            nodes[nid] = Node(Rule(RuleKind.ORACLE, oracle=node.rule.oracle), pseq, ())
        else:
            raise TransformError(f"cannot promote rule {kind.value} at {nid}")

    out_nodes = {
        nid: Node(n.rule, n.sequent, tuple(alias.get(p, p) for p in n.premises))
        for nid, n in nodes.items()
    }
    return ProofGraph(graph.name + "_boxed", alias.get(graph.root, graph.root), out_nodes).pruned()


# ---------------------------------------------------------------------------
# Stripping safe inputs under a boxed succedent


_STRIPPED_IN_PLACE = (RuleKind.BOX_L, RuleKind.WEAK_B, RuleKind.EXCH_B, RuleKind.S0, RuleKind.S1, RuleKind.CUT_B)


def strip_safe_inputs(graph: ProofGraph) -> ProofGraph:
    """For a boxed-succedent root, drop the plain zone without changing
    the boxed-input semantics.

    Only rules with boxed succedents occur below the box-right bar, and
    in a progressing graph that region is acyclic, so the memoized
    recursion terminates; sub-proofs at and above the bar are shared
    unchanged.
    """
    _require_valid(graph)
    if graph.nodes[graph.root].sequent.succedent is not SType.BOXED:
        raise TransformError("strip_safe_inputs needs a boxed succedent at the root")

    out_nodes: dict[str, Node] = dict(graph.nodes)
    b = _Builder(graph, out_nodes)
    memo: dict[str, str] = {}
    in_progress: set[str] = set()

    def strip(nid: str) -> str:
        if nid in memo:
            return memo[nid]
        if nid in in_progress:
            raise NotProgressing(f"cycle of boxed-succedent steps through {nid}")
        in_progress.add(nid)
        node = graph.nodes[nid]
        kind = node.rule.kind
        seq = node.sequent
        if kind is RuleKind.BOX_R:
            res = nid
        elif kind in (RuleKind.WEAK_N, RuleKind.EXCH_N):
            res = strip(node.premises[0])
        elif kind is RuleKind.CUT_N:
            res = strip(node.premises[1])
        elif kind in _STRIPPED_IN_PLACE:
            # a box-left's moved input goes unused in the target: a boxed weakening
            rule = Rule(RuleKind.WEAK_B) if kind is RuleKind.BOX_L else node.rule
            premises = tuple([strip(p) for p in node.premises])
            res = b.fresh(nid)
            out_nodes[res] = Node(rule, Sequent(seq.boxed, 0, seq.succedent), premises)
        else:
            raise TransformError(f"rule {kind.value} at {nid} cannot conclude a boxed succedent")
        in_progress.discard(nid)
        memo[nid] = res
        return res

    root = strip(graph.root)
    return ProofGraph(graph.name + "_stripped", root, out_nodes).pruned()


# ---------------------------------------------------------------------------
# Passing boxed parameters into oracle leaves


def pass_parameters(graph: ProofGraph, oracle: str) -> tuple[ProofGraph, str]:
    """Thread the root's boxed inputs into every leaf of ``oracle``.

    Requires the completeness-construction shape: oracle leaves carry
    all-plain contexts and no path from the root to such a leaf passes
    a boxed cut, a box-left, an srec, or the leftmost premise of a boxed
    conditional; srec nodes off those paths stay.  Each root thread
    ends at a boxed weakening on such a path; those weakenings are
    removed and the threads run on into a widened oracle (name
    returned) that takes the root's boxed inputs in front of the
    original context.
    """
    _require_valid(graph, allow_srec=True)
    k = graph.nodes[graph.root].sequent.boxed
    star = oracle + "*"
    reach = graph.reachable()

    leaves = [
        n
        for n in reach
        if graph.nodes[n].rule.kind is RuleKind.ORACLE and graph.nodes[n].rule.oracle == oracle
    ]
    for leaf in leaves:
        if graph.nodes[leaf].sequent.boxed != 0:
            raise ShapeViolation(f"oracle leaf {leaf} must have an all-plain context")
    hits = graph.reaching(leaves)

    for nid in sorted(hits):
        kind = graph.nodes[nid].rule.kind
        if kind is RuleKind.CUT_B:
            raise ShapeViolation(f"boxed cut at {nid} on a path to oracle {oracle!r}")
        if kind is RuleKind.BOX_L:
            raise ShapeViolation(f"box-left at {nid} on a path to oracle {oracle!r}")
        if kind is RuleKind.COND_B and graph.nodes[nid].premises[0] in hits:
            raise ShapeViolation(
                f"leftmost premise of the boxed conditional at {nid} reaches oracle {oracle!r}"
            )

    out_nodes: dict[str, Node] = {nid: graph.nodes[nid] for nid in reach}
    b = _Builder(graph, out_nodes)
    memo: dict[tuple, str] = {}

    def widen(seq: Sequent, nd: int) -> Sequent:
        return Sequent(seq.boxed + nd, seq.plain, seq.succedent)

    def off_region(nid: str, dead: tuple[int, ...]) -> str:
        """Original sub-proof with the parked (suffix) boxes weakened away."""
        if not dead:
            return nid
        key = ("off", nid, len(dead))
        if key in memo:
            return memo[key]
        seq = graph.nodes[nid].sequent
        cur = nid
        for i in range(len(dead)):  # innermost first
            small = widen(seq, i + 1)
            wid = b.fresh(nid + ".d")
            out_nodes[wid] = Node(Rule(RuleKind.WEAK_B), small, (cur,))
            cur = b.exch_chain(nid + ".d", small, list(range(small.boxed - 2, -1, -1)), wid)
        memo[key] = cur
        return cur

    def rewrite(nid: str, sig: tuple[int, ...], dead: tuple[int, ...]) -> str:
        """Rewritten node: live root threads ``sig`` in original positions,
        re-inserted threads ``dead`` (sorted) parked as a boxed suffix."""
        if nid not in hits:
            return off_region(nid, dead)
        key = (nid, sig, dead)
        if key in memo:
            return memo[key]
        node = graph.nodes[nid]
        kind = node.rule.kind
        nd = len(dead)
        if len(sig) != node.sequent.boxed:
            raise ShapeViolation(f"{nid}: boxed zone is not made of root threads alone")
        seq = widen(node.sequent, nd)
        oid = b.fresh(nid + ".t")
        memo[key] = oid
        pr = node.premises

        if kind is RuleKind.ORACLE:
            out_nodes[oid] = Node(
                Rule(RuleKind.ORACLE, oracle=star), Sequent(k, node.sequent.plain), ()
            )
            return oid
        if kind is RuleKind.WEAK_B:
            dying = sig[0]
            new_dead = tuple(sorted(dead + (dying,)))
            j = new_dead.index(dying)
            inner = rewrite(pr[0], sig[1:], new_dead)
            # move the kept box from the front to suffix slot j
            target_pos = (len(sig) - 1) + j
            head = b.exch_chain(nid + ".t", seq, list(range(target_pos)), inner)
            memo[key] = head
            return head
        if kind is RuleKind.EXCH_B:
            p = node.rule.pos
            sig2 = sig[:p] + (sig[p + 1], sig[p]) + sig[p + 2 :]
            out_nodes[oid] = Node(node.rule, seq, (rewrite(pr[0], sig2, dead),))
            return oid
        if kind in (RuleKind.S0, RuleKind.S1, RuleKind.WEAK_N, RuleKind.EXCH_N, RuleKind.BOX_R):
            out_nodes[oid] = Node(node.rule, seq, (rewrite(pr[0], sig, dead),))
            return oid
        if kind is RuleKind.CUT_N:
            left = rewrite(pr[0], sig, dead)
            right = rewrite(pr[1], sig, dead)
            out_nodes[oid] = Node(node.rule, seq, (left, right))
            return oid
        if kind is RuleKind.COND_N:
            prems = tuple(rewrite(p, sig, dead) for p in pr)
            out_nodes[oid] = Node(node.rule, seq, prems)
            return oid
        if kind is RuleKind.COND_B:
            # the left premise never reaches the oracle (checked above)
            zero = off_region(pr[0], dead)
            b1 = rewrite(pr[1], sig, dead)
            b2 = rewrite(pr[2], sig, dead)
            out_nodes[oid] = Node(node.rule, seq, (zero, b1, b2))
            return oid
        raise ShapeViolation(f"rule {kind.value} at {nid} on a path to oracle {oracle!r}")

    root = rewrite(graph.root, tuple(range(k)), ()) if graph.root in hits else graph.root
    return ProofGraph(graph.name + "_pp", root, out_nodes).pruned(), star


# ---------------------------------------------------------------------------
# Simultaneous recursion reduction


def rotation_tags(k: int) -> list[tuple[int, ...]]:
    """Tag tuples <i+1, .., k, 1, .., i> in binary, for i = 0..k-1."""
    base = list(range(1, k + 1))
    return [tuple(base[i:] + base[:i]) for i in range(k)]


def numeral(v: int) -> Term:
    t: Term = Zero()
    for ch in format(v, "b") if v else "":
        t = S1(t) if ch == "1" else S0(t)
    return t


@dataclass(frozen=True)
class ReducedSimultaneous:
    """One recursive function plus tag-applying selectors."""

    fn: Term  # SRecPP or SNRecPP over k extra trailing safe inputs
    tags: tuple[tuple[int, ...], ...]
    normals: int
    safes: int

    def selector(self, i: int, env: Optional[OracleEnv], normals, safes) -> int:
        return eval_term(self.fn, env, normals, tuple(safes) + self.tags[i])


def reduce_simultaneous(term: SimRecPP, normals: int, safes: int) -> ReducedSimultaneous:
    """Flatten a simultaneous scheme into a single function.

    The function takes k extra safe inputs carrying a rotation of the
    numerals 1..k and dispatches on them; component i's recursive calls
    to component j pass rotation j (a permutation of any rotation, so
    trailing safe guards stay satisfied).  Unknown tags fall to 0.
    """
    k = len(term.hs)
    if k < 1:
        raise ValueError("need at least one component")
    tags = tuple(rotation_tags(k))

    def rewrite_call(t: Term) -> Term:
        if isinstance(t, OracleCall) and t.name.startswith(REC) and t.name[len(REC) :].isdigit():
            j = int(t.name[len(REC) :]) - 1
            return OracleCall(REC, t.normal_args, t.safe_args + tuple(numeral(v) for v in tags[j]))
        return t

    cases = tuple((tags[i], map_terms(term.hs[i], rewrite_call)) for i in range(k))
    body = TagDispatch(k, cases)
    fn: Term = SRecPP(body) if term.guard_safes else SNRecPP(body)
    return ReducedSimultaneous(fn, tags, normals, safes + k)


def flatten_program(prog: PPProgram) -> PPProgram:
    """Collapse every mutual-recursion block of a program to one function.

    Per block, a fresh function over k extra tag-carrying safe inputs
    dispatches on the rotation tags; the block's original names remain
    as thin selector wrappers, so callers are unaffected.
    """
    out: dict[str, PPFunction] = dict(prog.functions)
    for scc in sccs(prog.call_graph()):
        if len(scc) < 2:
            continue
        names = sorted(scc)
        k = len(names)
        f0 = prog.functions[names[0]]
        if any(
            (prog.functions[n].normals, prog.functions[n].safes) != (f0.normals, f0.safes)
            for n in names
        ):
            raise TransformError("mutual block has non-uniform arities; normalize first")
        tags = rotation_tags(k)
        flat = "+".join(names)

        idx_of = {n: i for i, n in enumerate(names)}

        def retarget(t: Term) -> Term:
            if isinstance(t, Call) and t.name in idx_of:
                tag = tuple(numeral(v) for v in tags[idx_of[t.name]])
                return Call(flat, t.normal_args, t.safe_args + tag, guard=t.guard)
            return t

        cases = tuple((tags[i], map_terms(prog.functions[names[i]].body, retarget)) for i in range(k))
        out[flat] = PPFunction(flat, f0.normals, f0.safes + k, TagDispatch(k, cases))
        for i, n in enumerate(names):
            out[n] = PPFunction(
                n,
                f0.normals,
                f0.safes,
                Call(
                    flat,
                    tuple(Proj("n", j) for j in range(f0.normals)),
                    tuple(Proj("s", j) for j in range(f0.safes))
                    + tuple(numeral(v) for v in tags[i]),
                ),
            )
    new = PPProgram(out, prog.guard)
    new.validate()
    return new
