"""Core domain objects for two-sorted circular proofs.

Values of both sorts are plain Python ints read in binary notation.  A
sequent records only the sizes of its two antecedent zones (all boxed
types precede all plain ones by convention) plus the succedent.  Proof
graphs are finite rooted node maps; cycles are ordinary premise edges
pointing back at an earlier node, which makes every representable
object regular by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence, TypeVar

T = TypeVar("T")


# ---------------------------------------------------------------------------
# Values and the prefix orders


def length(n: int) -> int:
    """Number of binary digits of ``n``; 0 has length 0."""
    if n < 0:
        raise ValueError("values are natural numbers")
    return n.bit_length()


def s0(n: int) -> int:
    return 2 * n


def s1(n: int) -> int:
    return 2 * n + 1


def pred(n: int) -> int:
    return n >> 1


def is_prefix(x: int, y: int) -> bool:
    """True iff the binary string of ``x`` is an initial segment of ``y``'s.

    Equivalently: y = x*2**n + z for some n >= 0 and z < 2**n.
    """
    if x < 0 or y < 0:
        raise ValueError("values are natural numbers")
    k = y.bit_length() - x.bit_length()
    return k >= 0 and (y >> k) == x


class TupleOrder(Enum):
    NOT_RELATED = "not_related"
    SUBSET_EQ = "subset_eq"
    SUBSET_STRICT = "subset_strict"


@dataclass(frozen=True)
class TupleOrderWitness:
    """A permutation pi with xs[i] a prefix of ys[pi[i]] for all i."""

    permutation: tuple[int, ...]
    strict_positions: frozenset[int]


def _prefix_matching(xs: Sequence[int], ys: Sequence[int]) -> Optional[list[int]]:
    """pi with xs[i] a prefix of ys[pi[i]] for all i, or None.

    The sets {y : x is a prefix of y} are laminar: two of them are
    nested or disjoint.  So serving the longest x first, each taking any
    free y it prefixes, finds a matching whenever one exists (Hall, "On
    representatives of subsets", 1935).
    """
    free = list(range(len(ys)))
    pi = [0] * len(xs)
    for i in sorted(range(len(xs)), key=lambda i: -xs[i].bit_length()):
        for j in free:
            if is_prefix(xs[i], ys[j]):
                free.remove(j)
                pi[i] = j
                break
        else:
            return None
    return pi


def tuple_below(xs: Sequence[int], ys: Sequence[int], strict: bool) -> bool:
    """Whether ``tuple_order(xs, ys)`` is SUBSET_STRICT (``strict``) or
    related at all (not ``strict``), without building its witness."""
    if len(xs) != len(ys):
        raise ValueError("tuple_below: length mismatch (%d vs %d)" % (len(xs), len(ys)))
    lx, ly = sum(map(length, xs)), sum(map(length, ys))
    return (lx < ly if strict else lx <= ly) and _prefix_matching(xs, ys) is not None


def tuple_order(
    xs: Sequence[int], ys: Sequence[int]
) -> tuple[TupleOrder, Optional[TupleOrderWitness]]:
    """Compare tuples under permutation of componentwise binary prefixes."""
    if len(xs) != len(ys):
        raise ValueError("tuple_order: length mismatch (%d vs %d)" % (len(xs), len(ys)))
    pi = _prefix_matching(xs, ys)
    if pi is None:
        return TupleOrder.NOT_RELATED, None
    # Sum of lengths decides strictness: equality forces componentwise
    # equality under any witnessing permutation.
    if sum(length(x) for x in xs) < sum(length(y) for y in ys):
        strict = frozenset(i for i in range(len(xs)) if xs[i] != ys[pi[i]])
        return TupleOrder.SUBSET_STRICT, TupleOrderWitness(tuple(pi), strict)
    return TupleOrder.SUBSET_EQ, TupleOrderWitness(tuple(pi), frozenset())


# ---------------------------------------------------------------------------
# Types, sequents, rules


class SType(Enum):
    PLAIN = "N"
    BOXED = "bN"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Sequent:
    """Antecedent zone sizes plus succedent; boxed zone comes first."""

    boxed: int
    plain: int
    succedent: SType = SType.PLAIN

    def __post_init__(self) -> None:
        if self.boxed < 0 or self.plain < 0:
            raise ValueError("zone counts are nonnegative")

    def __str__(self) -> str:
        ctx = ",".join(["bN"] * self.boxed + ["N"] * self.plain)
        return f"{ctx} => {self.succedent}"


class RuleKind(Enum):
    ID = "id"
    ZERO = "zero"
    S0 = "s0"
    S1 = "s1"
    WEAK_N = "wN"
    WEAK_B = "wB"
    EXCH_N = "eN"
    EXCH_B = "eB"
    BOX_L = "boxL"
    BOX_R = "boxR"
    CUT_N = "cutN"
    CUT_B = "cutB"
    COND_N = "condN"
    COND_B = "condB"
    SREC = "srec"
    ORACLE = "oracle"
    DIS = "dis"


PREMISE_COUNT = {
    RuleKind.ID: 0,
    RuleKind.ZERO: 0,
    RuleKind.S0: 1,
    RuleKind.S1: 1,
    RuleKind.WEAK_N: 1,
    RuleKind.WEAK_B: 1,
    RuleKind.EXCH_N: 1,
    RuleKind.EXCH_B: 1,
    RuleKind.BOX_L: 1,
    RuleKind.BOX_R: 1,
    RuleKind.CUT_N: 2,
    RuleKind.CUT_B: 2,
    RuleKind.COND_N: 3,
    RuleKind.COND_B: 3,
    RuleKind.SREC: 3,
    RuleKind.ORACLE: 0,
    RuleKind.DIS: 1,
}

# The rule kinds as module globals, in RuleKind's order, for the per-node
# loops of every pass: on CPython 3.11 reading one costs about 10 ns,
# ``RuleKind.X`` about 164.
(_R_ID, _R_ZERO, _R_S0, _R_S1, _R_WEAK_N, _R_WEAK_B, _R_EXCH_N, _R_EXCH_B, _R_BOX_L, _R_BOX_R,
 _R_CUT_N, _R_CUT_B, _R_COND_N, _R_COND_B, _R_SREC, _R_ORACLE, _R_DIS) = RuleKind


@dataclass(frozen=True)
class Rule:
    """A rule tag: kind plus the parameter some kinds carry.

    ``pos`` is the left index of the swapped adjacent pair for the two
    exchange rules; ``oracle`` names the initial sequent of an oracle
    leaf; ``buds`` lists the bud node ids attached to a dis companion.
    """

    kind: RuleKind
    pos: Optional[int] = None
    oracle: Optional[str] = None
    buds: tuple[str, ...] = ()

    def __str__(self) -> str:
        s = self.kind.value
        if self.pos is not None:
            s += f"({self.pos})"
        if self.buds:
            s += "(" + "|".join(self.buds) + ")"
        if self.oracle is not None:
            s += f" oracle {self.oracle}"
        return s


@dataclass(frozen=True)
class Node:
    rule: Rule
    sequent: Sequent
    premises: tuple[str, ...] = ()


@dataclass
class ProofGraph:
    """Finite rooted labelled graph of inference steps; cycles allowed.

    ``eval_proof`` keeps its memo node sets and notation companions
    here, for as long as ``root`` and ``nodes`` stay as they were
    (``interp._kept``).
    """

    name: str
    root: str
    nodes: dict[str, Node] = field(default_factory=dict)
    _memo_nodes: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def reachable(self) -> list[str]:
        """Node ids reachable from the root, in deterministic BFS order."""
        if self.root not in self.nodes:
            return []
        seen = {self.root}
        order = [self.root]
        i = 0
        while i < len(order):  # order doubles as the BFS queue
            for p in self.nodes[order[i]].premises:
                if p in self.nodes and p not in seen:
                    seen.add(p)
                    order.append(p)
            i += 1
        return order

    def pruned(self) -> "ProofGraph":
        """A copy without the nodes the root cannot reach.

        Every pass that builds a graph node by node ends here; the
        surviving nodes keep their insertion order.
        """
        keep = set(self.reachable())
        return ProofGraph(self.name, self.root, {k: v for k, v in self.nodes.items() if k in keep})

    def reaching(self, targets: Iterable[str]) -> set[str]:
        """Root-reachable nodes from which some target is reachable.

        The reverse closure of ``targets`` over premise edges, taken
        inside the root's reachable part; reachable targets are members.
        """
        reach = self.reachable()
        parents: dict[str, list[str]] = {n: [] for n in reach}
        for n in reach:
            for p in self.nodes[n].premises:
                if p in parents:
                    parents[p].append(n)
        return _reach(parents, [t for t in targets if t in parents])


def _reach(succ: dict, starts: Sequence) -> set:
    """``starts`` and all they reach in the successor map ``succ``: O(V + E)."""
    seen, stack = set(starts), list(starts)
    while stack:
        for p in succ.get(stack.pop(), ()):
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def sccs(adj: dict[T, Sequence[T]]) -> list[list[T]]:
    """Strongly connected components, Tarjan's algorithm, iteratively.

    Components come in reverse topological order (a component precedes
    every component that reaches it), each sorted.  Successors missing
    from ``adj`` are ignored.  Among unrelated components the order
    follows the caller's adjacency: roots are tried in sorted order and
    successors in the order ``adj`` lists them, so callers that need a
    canonical answer pass their successor lists sorted.  The witness
    cycle of ``checker.check_progressing_safe`` (first cyclic component)
    depends on this order.
    """
    index: dict[T, int] = {}
    low: dict[T, int] = {}
    on: set[T] = set()
    stack: list[T] = []
    comps: list[list[T]] = []
    for start in sorted(adj):
        if start in index:
            continue
        index[start] = low[start] = len(index)
        stack.append(start)
        on.add(start)
        work = [(start, iter(adj[start]))]
        while work:
            node, succs = work[-1]
            for w in succs:
                if w not in adj:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on.add(w)
                    work.append((w, iter(adj[w])))
                    break
                if w in on:
                    low[node] = min(low[node], index[w])
            else:
                work.pop()
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    comps.append(sorted(comp))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return comps


def has_cycle(adj: dict[T, Sequence[T]]) -> bool:
    """Whether ``adj`` has a cycle: peeling nodes of in-degree 0 (Kahn
    1962) leaves the nodes a cycle reaches.  Successors missing from
    ``adj`` are ignored.  O(V + E), no recursion."""
    indegree = dict.fromkeys(adj, 0)
    for succs in adj.values():
        for w in succs:
            if w in indegree:
                indegree[w] += 1
    free = [n for n, d in indegree.items() if not d]
    left = len(indegree)
    while free:
        left -= 1
        for w in adj[free.pop()]:
            if w in indegree:
                indegree[w] -= 1
                if not indegree[w]:
                    free.append(w)
    return left > 0


@dataclass(frozen=True)
class StepError:
    node: str
    message: str

    def __str__(self) -> str:
        return f"{self.node}: {self.message}"


def _expect(cond: bool, node: str, msg: str, errors: list[StepError]) -> None:
    if not cond:
        errors.append(StepError(node, msg))


def _seq(boxed: int, plain: int, succ: SType) -> Optional[Sequent]:
    """Comparison sequent; None when the shape is unconstructible."""
    if boxed < 0 or plain < 0:
        return None
    return Sequent(boxed, plain, succ)


def validate_step(graph: ProofGraph, nid: str) -> list[StepError]:
    """Check one node against its rule schema; empty list means ok."""
    errors: list[StepError] = []
    node = graph.nodes.get(nid)
    if node is None:
        return [StepError(nid, "node does not exist")]
    rule, seq = node.rule, node.sequent
    kind = rule.kind

    want = PREMISE_COUNT[kind]
    if len(node.premises) != want:
        return [StepError(nid, f"{kind.value} takes {want} premises, got {len(node.premises)}")]
    prem: list[Sequent] = []
    for pid in node.premises:
        pn = graph.nodes.get(pid)
        if pn is None:
            return [StepError(nid, f"premise {pid!r} unresolved")]
        prem.append(pn.sequent)

    N, B = SType.PLAIN, SType.BOXED
    if kind is _R_ID:  # the message is built only when the check fails
        if seq != Sequent(0, 1, N):
            errors.append(StepError(nid, f"id concludes N => N, got {seq}"))
    elif kind is _R_ZERO:
        if seq != Sequent(0, 0, N):
            errors.append(StepError(nid, f"zero concludes => N, got {seq}"))
    elif kind is _R_S0 or kind is _R_S1:
        _expect(prem[0] == seq, nid, "successor premise must repeat the conclusion", errors)
    elif kind is _R_WEAK_N:
        _expect(seq.plain >= 1, nid, "wN needs a plain formula to weaken", errors)
        _expect(
            prem[0] == _seq(seq.boxed, seq.plain - 1, seq.succedent),
            nid,
            "wN premise must drop the last plain formula",
            errors,
        )
    elif kind is _R_WEAK_B:
        _expect(seq.boxed >= 1, nid, "wB needs a boxed formula to weaken", errors)
        _expect(
            prem[0] == _seq(seq.boxed - 1, seq.plain, seq.succedent),
            nid,
            "wB premise must drop the first boxed formula",
            errors,
        )
    elif kind is _R_EXCH_N:
        _expect(rule.pos is not None, nid, "eN carries a position", errors)
        if rule.pos is not None and not 0 <= rule.pos <= seq.plain - 2:
            errors.append(StepError(nid, f"eN position {rule.pos} out of range"))
        _expect(prem[0] == seq, nid, "eN premise must repeat the conclusion", errors)
    elif kind is _R_EXCH_B:
        _expect(rule.pos is not None, nid, "eB carries a position", errors)
        if rule.pos is not None and not 0 <= rule.pos <= seq.boxed - 2:
            errors.append(StepError(nid, f"eB position {rule.pos} out of range"))
        _expect(prem[0] == seq, nid, "eB premise must repeat the conclusion", errors)
    elif kind is _R_BOX_L:
        _expect(seq.boxed >= 1, nid, "boxL needs a boxed formula", errors)
        _expect(
            prem[0] == _seq(seq.boxed - 1, seq.plain + 1, seq.succedent),
            nid,
            "boxL premise must carry the moved formula as last plain",
            errors,
        )
    elif kind is _R_BOX_R:
        _expect(seq.plain == 0, nid, "boxR requires an all-boxed antecedent", errors)
        _expect(seq.succedent is B, nid, "boxR concludes a boxed succedent", errors)
        _expect(
            prem[0] == Sequent(seq.boxed, seq.plain, N),
            nid,
            "boxR premise has the same context and plain succedent",
            errors,
        )
    elif kind is _R_CUT_N:
        _expect(prem[0] == Sequent(seq.boxed, seq.plain, N), nid, "cutN left premise shape", errors)
        _expect(
            prem[1] == Sequent(seq.boxed, seq.plain + 1, seq.succedent),
            nid,
            "cutN right premise must add the cut formula as last plain",
            errors,
        )
    elif kind is _R_CUT_B:
        _expect(prem[0] == Sequent(seq.boxed, seq.plain, B), nid, "cutB left premise shape", errors)
        _expect(
            prem[1] == Sequent(seq.boxed + 1, seq.plain, seq.succedent),
            nid,
            "cutB right premise must add the cut formula as first boxed",
            errors,
        )
    elif kind is _R_COND_N:
        _expect(seq.succedent is N, nid, "condN has a plain succedent", errors)
        _expect(seq.plain >= 1, nid, "condN scrutinises the last plain formula", errors)
        _expect(prem[0] == _seq(seq.boxed, seq.plain - 1, N), nid, "condN zero-branch shape", errors)
        _expect(prem[1] == Sequent(seq.boxed, seq.plain, N), nid, "condN s0-branch shape", errors)
        _expect(prem[2] == Sequent(seq.boxed, seq.plain, N), nid, "condN s1-branch shape", errors)
    elif kind is _R_COND_B:
        _expect(seq.succedent is N, nid, "condB has a plain succedent", errors)
        _expect(seq.boxed >= 1, nid, "condB scrutinises the first boxed formula", errors)
        _expect(prem[0] == _seq(seq.boxed - 1, seq.plain, N), nid, "condB zero-branch shape", errors)
        _expect(prem[1] == Sequent(seq.boxed, seq.plain, N), nid, "condB s0-branch shape", errors)
        _expect(prem[2] == Sequent(seq.boxed, seq.plain, N), nid, "condB s1-branch shape", errors)
    elif kind is _R_SREC:
        _expect(seq.succedent is N, nid, "srec has a plain succedent", errors)
        _expect(seq.boxed >= 1, nid, "srec recurses on the first boxed formula", errors)
        _expect(prem[0] == _seq(seq.boxed - 1, seq.plain, N), nid, "srec base premise shape", errors)
        _expect(prem[1] == Sequent(seq.boxed, seq.plain + 1, N), nid, "srec s0-step premise shape", errors)
        _expect(prem[2] == Sequent(seq.boxed, seq.plain + 1, N), nid, "srec s1-step premise shape", errors)
    elif kind is _R_ORACLE:
        _expect(rule.oracle is not None, nid, "oracle leaf carries a name", errors)
        _expect(seq.succedent is N, nid, "oracle leaves conclude N", errors)
    elif kind is _R_DIS:
        _expect(prem[0] == seq, nid, "dis premise must repeat the conclusion", errors)
    return errors


def validate_graph(
    graph: ProofGraph,
    *,
    allow_srec: bool = False,
    allow_oracle: bool = False,
    allow_dis: bool = False,
    order: Optional[list[str]] = None,
) -> list[StepError]:
    """Validate every reachable node (``order``, when the caller has
    ``graph.reachable()`` already); returns all errors found."""
    errors: list[StepError] = []
    if graph.root not in graph.nodes:
        return [StepError(graph.root, "root unresolved")]
    reach = graph.reachable() if order is None else order
    for nid in reach:
        kind = graph.nodes[nid].rule.kind
        if kind is _R_SREC and not allow_srec:
            errors.append(StepError(nid, "srec is not part of the circular rule set"))
        if kind is _R_ORACLE and not allow_oracle:
            errors.append(StepError(nid, "oracle leaves only occur in proofs-with-oracles"))
        if kind is _R_DIS and not allow_dis:
            errors.append(StepError(nid, "dis only occurs in cycle-normal-form output"))
        errors.extend(validate_step(graph, nid))
    unreachable = set(graph.nodes) - set(reach)
    for nid in sorted(unreachable):
        errors.append(StepError(nid, "unreachable from root"))
    return errors
