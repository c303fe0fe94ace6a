"""Evaluators for proof graphs and for function-algebra terms.

Proof graphs are run as equational programs on an explicit work stack
(cycles unfold lazily, a fuel budget bounds the number of rule-step
expansions).  A boxed conditional whose digit branches re-enter it at
``x >> 1`` (``_notation_companion``) runs its levels as one loop: fuel
and steps are charged per node as before, the way down at once, and the
edits fold on the way out (``_edit_fold``), or return one level at a
time where the way back keeps memo entries.  A run from the companion
keeps none on a way back whose keys grow with every level
(``_growing``), so S and L fold; P keeps the entry its runs hit.
Terms are a two-sorted
function algebra with oracles and
the recursion schemes on notation and on permutations of prefixes;
programs over the prefix-permutation order add guarded calls between
named functions.  Memo entries are kept only where a run can read them.

Terms and programs compile once into closures for fixed argument counts
(``eval_term`` keeps them on the term object, ``_kept_on``, so no run
hashes a term; a program keeps one code for both
guard modes while its functions stay the same objects, each body
compiled on its first call).  A run's state and guard mode travel with
it, never in the code.
Recursion names are scoped lexically: a program body sees only the
host's oracles.  A chain of ``s0``/``s1``/``p`` compiles to one prefix
edit, ``srec`` runs as a loop over the prefixes of its recursion
argument, so neither recurses once per chain link or input bit.  When
both steps are edits of the recursion value or constants, the edits
fold over the argument's digits (``_edit_fold``), in linear time when
every edit appends (one ``str.translate``) or both steps are constants.
A program function that recurses on notation, ``cond(x0, g, B0, B1)``
with a branch that edits a self-call at ``p(x0)`` (``_notation_loop``),
runs as one loop with the same fold; fuel, steps and depth are charged
per call as before, all the loop's calls at once.  ``snrec`` binds its
recursion name to the level below the step, a cell whose argument tuple
and bindings are built on the level's first call and kept, so the
exponentially many recursive calls into one level share them and each
is one call of the step; a call that passes the safes through unchanged
does not copy them.
One compiler, ``_compile``, builds terms and program bodies.  A body
hands each call on its path to ``eval_pp``'s loop as a request, so
program-call depth uses no Python frames; term depth other than chains
does, as does each active call inside a recursion scheme (a nested loop).

A guarded call is checked at run time only where the program text does
not prove its guard.  ``descent_audit`` lists those calls: a call has a
descent certificate when each normal argument is one of the caller's
own normals under zero or more ``p``, or ``0``, no two on one normal,
with a ``p`` inside a ``cond`` branch that knows its normal is nonzero
(under ``strict_safe`` the safes likewise, not strictly).  Every other
call of a known callee at the right arity builds its request in one
closure.  One walk of each body, ``_walk``, kept with the program,
finds the listed calls (every guarded call inside a recursion scheme or
tag dispatch among them) and answers validation, the call graph and the
class check; it and the compile do a shared subterm object once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from operator import attrgetter, is_
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar

from .kernel import (
    _R_BOX_L, _R_BOX_R, _R_COND_B, _R_COND_N, _R_CUT_B, _R_CUT_N, _R_EXCH_B, _R_EXCH_N, _R_ID,
    _R_ORACLE, _R_S0, _R_S1, _R_SREC, _R_WEAK_B, _R_WEAK_N, _R_ZERO, ProofGraph, _reach, sccs,
    tuple_below,
)

R = TypeVar("R")

REC = "rec"  # reserved oracle name for the distinguished recursive call


class FuelExhausted(Exception):
    """The step budget ran out; the run may diverge."""


class GuardViolation(Exception):
    """A guarded call failed its order check in strict mode."""


class EvalError(Exception):
    """Arity mismatch, unknown oracle, or malformed input."""


@dataclass
class EvalConfig:
    fuel: int = 10**6
    memo: bool = True
    guard_mode: str = "zero"  # "zero" returns 0 on failed guards, "strict" raises

    def __post_init__(self) -> None:
        if self.fuel < 1:
            raise ValueError("fuel must be positive")
        if self.guard_mode not in ("zero", "strict"):
            raise ValueError("guard_mode is 'zero' or 'strict'")


@dataclass
class EvalStats:
    """What a run of ``eval_proof`` or ``eval_pp`` did.

    ``steps`` counts node expansions (``eval_proof``, memo hits
    included) or entered program calls (``eval_pp``, memo hits not
    included); the expansion or call that fuel refuses is not one.
    ``memo_keys`` counts the distinct keys whose evaluation began with
    memoization on, whether or not the run stored an entry for them; a
    run that raises counts those it did not finish too.  Each expansion
    or call where no entry is kept counts as a key, so a run that never
    returns may count such a key once per expansion or call.
    ``max_depth`` is the deepest nesting of program calls (``eval_pp``).
    """

    steps: int = 0
    memo_keys: int = 0
    max_depth: int = 0


OracleFn = Callable[[Sequence[int], Sequence[int]], int]


class OracleDef(NamedTuple):
    name: str
    normals: int
    safes: int
    fn: OracleFn


class OracleEnv:
    """Host-supplied total functions keyed by name, with declared arities."""

    __slots__ = ("_defs",)

    def __init__(self, defs: Sequence[OracleDef] = ()) -> None:
        self._defs = {d.name: d for d in defs}

    def lookup(self, name: str) -> OracleDef:
        d = self._defs.get(name)
        if d is None:
            raise EvalError(f"unknown oracle {name!r}")
        return d

    def __contains__(self, name: str) -> bool:
        return name in self._defs


EMPTY_ORACLES = OracleEnv()


# ---------------------------------------------------------------------------
# Proof evaluation: the equational program, run on an explicit stack


def eval_proof(
    graph: ProofGraph,
    nid: str,
    normals: Sequence[int],
    safes: Sequence[int],
    cfg: Optional[EvalConfig] = None,
    oracles: Optional[OracleEnv] = None,
    stats: Optional[EvalStats] = None,
) -> int:
    """Value of the sub-proof at ``nid`` applied to the given inputs.

    Each expansion of a node at some inputs costs one unit of fuel and
    counts one step, a memo hit included.  With memoization on, the run
    keeps memo entries only at the nodes of ``_repeatable``, fixed before
    the first expansion and kept with the graph (``_kept``),
    under ``_long_key``s: a run with an entry at
    every node finds its hits only there if it returns.  So a run that
    returns has that run's value, steps, fuel, memo hits and
    ``memo_keys``, and so does a run cut short on the way (out of fuel,
    say).  A run that never returns may expand again a key that the
    other run would find in its memo, so it may run out of fuel while
    expanding another node.  Successor steps with no other continuation
    between them share one frame, which returns ``v << count | bits`` at
    once.

    A condB companion whose digit branches re-enter it at ``x >> 1``
    (``_Loop``) descends k >= ``_FEW`` levels at once when fuel covers
    the way down: it charges their expansions and leaves one frame.  On
    the way back, when no node there keeps memo entries and fuel covers
    it, the k levels' edits fold in one ``_edit_fold``: so C, and S and
    L from their roots, whose ways back keep none (``_growing``);
    otherwise the levels return one at a time, innermost first, with
    each expansion's fuel and memo lookup as the frames of a stepwise
    descent would take them: so P, which keeps ``p7``.  Values, steps,
    memo keys and the node that fuel refuses stay those of a run one
    expansion at a time.

    Raises EvalError on an unknown node, on inputs of the wrong arity
    and on a negative input, as ``eval_pp`` does.
    """
    cfg = cfg or EvalConfig()
    node = graph.nodes.get(nid)
    if node is None:
        raise EvalError(f"no node {nid!r}")
    if len(normals) != node.sequent.boxed or len(safes) != node.sequent.plain:
        raise EvalError(
            f"arity mismatch at {nid}: sequent {node.sequent} vs "
            f"{len(normals)} normals, {len(safes)} safes"
        )

    n, xs, ys = nid, tuple(normals), tuple(safes)
    if any(v < 0 for v in xs + ys):
        raise EvalError(f"negative input to {nid}: values are natural numbers")
    nodes = graph.nodes
    fuel = cfg.fuel
    memo: Optional[dict] = {} if cfg.memo else None
    # nodes that keep memo entries, and the notation companions met so far
    repeat, loops = _kept(graph, nid) if cfg.memo else ((), None)
    keyed = 0  # expansions that looked up an entry
    work: list = []  # continuations, innermost last
    try:
        while True:
            # expand (n, xs, ys) until it has a value v
            fuel -= 1
            if fuel < 0:
                raise FuelExhausted(f"fuel exhausted while expanding {n}")
            v = None
            if n in repeat:
                keyed += 1
                cell = memo.setdefault(_long_key(n, xs, ys), [None])  # one hash of the key
                v = cell[0]
                if v is None:
                    work.append((_STORE, cell))
            if v is None:
                nd = nodes[n]
                kind = nd.rule.kind
                pr = nd.premises
                if kind is _R_COND_B:
                    x0 = xs[0]
                    if x0 == 0:
                        n, xs = pr[0], xs[1:]
                        continue
                    if x0 >= _FEW_X:  # perhaps _FEW levels or more to descend at once
                        if loops is None:
                            loops = _kept(graph, None)[1]
                        loop = loops.get(n)
                        if loop is None:  # False: not a notation companion
                            loop = loops[n] = _notation_companion(nodes, n, repeat) or False
                        if loop and x0 & loop.mask == loop.low and len(xs) == loop.boxed and len(ys) == loop.plain:
                            k, down, back = loop.levels(x0)
                            if down <= fuel:
                                fuel -= down
                                work.append((_LOOP, loop, x0, k, back, xs[1:], ys))
                                xs = (x0 >> k,) + xs[1:]
                                continue
                    n, xs = pr[1 + (x0 & 1)], (x0 >> 1,) + xs[1:]
                    continue
                if kind is _R_COND_N:
                    w = ys[-1]
                    if w == 0:
                        n, ys = pr[0], ys[:-1]
                    else:
                        n, ys = pr[1 + (w & 1)], ys[:-1] + (w >> 1,)
                    continue
                if kind is _R_S0 or kind is _R_S1:
                    # successors with no frame between them share one frame
                    top = work[-1] if work else None
                    if top is not None and top[0] is _SUCC:
                        if kind is _R_S1:
                            top[1] |= 1 << top[2]
                        top[2] += 1
                    else:
                        work.append([_SUCC, 1 if kind is _R_S1 else 0, 1])
                    n = pr[0]
                    continue
                if kind is _R_CUT_N or kind is _R_CUT_B:
                    work.append((kind, pr[1], xs, ys))
                    n = pr[0]
                    continue
                if kind is _R_SREC:
                    x0 = xs[0]
                    if x0 == 0:
                        n, xs = pr[0], xs[1:]
                    else:
                        # the step takes the recursive value as a plain cut's right premise would
                        xs = (x0 >> 1,) + xs[1:]
                        work.append((_R_CUT_N, pr[1 + (x0 & 1)], xs, ys))
                    continue
                if kind is _R_WEAK_N:
                    n, ys = pr[0], ys[:-1]
                    continue
                if kind is _R_WEAK_B:
                    n, xs = pr[0], xs[1:]
                    continue
                if kind is _R_EXCH_N:
                    p = nd.rule.pos
                    n, ys = pr[0], ys[:p] + (ys[p + 1], ys[p]) + ys[p + 2 :]
                    continue
                if kind is _R_EXCH_B:
                    p = nd.rule.pos
                    n, xs = pr[0], xs[:p] + (xs[p + 1], xs[p]) + xs[p + 2 :]
                    continue
                if kind is _R_BOX_L:
                    n, xs, ys = pr[0], xs[1:], ys + (xs[0],)
                    continue
                if kind is _R_BOX_R:
                    n = pr[0]
                    continue
                if kind is _R_ID:
                    v = ys[0]
                elif kind is _R_ZERO:
                    v = 0
                elif kind is _R_ORACLE:
                    if oracles is None or nd.rule.oracle not in oracles:
                        raise EvalError(f"oracle {nd.rule.oracle!r} not supplied at {n}")
                    v = oracles.lookup(nd.rule.oracle).fn(xs, ys)
                else:
                    raise EvalError(f"rule {kind.value} at {n} is not evaluable")
            # return v into the innermost continuation that expands again
            while work:
                frame = work.pop()
                op = frame[0]
                if op is _SUCC:
                    v = v << frame[2] | frame[1]
                elif op is _STORE:
                    frame[1][0] = v
                elif op is _LOOP:
                    _, loop, x, k, back, rest, ys0 = frame
                    if back <= fuel and not loop.keyed:
                        fuel -= back
                        v = loop.fold(v, loop.digits(x, k))
                    else:
                        v, fuel, lookups, refused = loop.unwind(v, x, k, rest, ys0, fuel, memo)
                        keyed += lookups
                        if refused is not None:
                            raise FuelExhausted(f"fuel exhausted while expanding {refused}")
                else:
                    _, n, xs, ys = frame
                    if op is _R_CUT_N:
                        ys = ys + (v,)
                    else:
                        xs = (v,) + xs
                    break
            else:
                return v
    finally:
        if stats is not None:
            steps = cfg.fuel - max(fuel, 0)  # an expansion refused for want of fuel never began
            stats.steps += steps
            if memo is not None:
                stats.memo_keys = len(memo) + steps - keyed


# continuation frames of eval_proof: a cut's (kind, right premise, xs,
# ys), a memo cell's (_STORE, cell), a run of successors'
# [_SUCC, bits, count], which returns v << count | bits, and a notation
# companion's (_LOOP, loop, x, k, back, rest, ys) for the k levels that
# descended at once from (x,) + rest, whose ways back take back expansions
_SUCC, _STORE, _LOOP = "succ", "store", "loop"
_FEW = 3  # levels below which a notation companion descends one at a time
_FEW_X = 1 << _FEW - 1  # the least x with _FEW digits


def _long_key(n: str, xs: tuple, ys: tuple) -> tuple:
    """The memo key of both evaluators, which adds the inputs' bit
    lengths: an int hashes to itself modulo 2**61 - 1, so appending 61
    one-bits to a value keeps its hash, and all-ones inputs or values
    grown by appending ones would share hashes.  Plain loops sum the
    lengths: ``sum(map(...))`` costs twice as much on short tuples."""
    lx = ly = 0
    for x in xs:
        lx += x.bit_length()
    for y in ys:
        ly += y.bit_length()
    return n, xs, ys, lx, ly


def _kept(graph: ProofGraph, nid: Optional[str]) -> tuple[frozenset, dict]:
    """What runs of ``graph`` from ``nid`` with memoization (None: runs
    without) derive from the graph: the nodes that keep memo entries,
    ``_repeatable(graph, nid)`` (none without memo), and a dict that the
    runs fill as they first reach a condB node with levels to descend,
    with its ``_notation_companion`` or False.  Kept on the graph, in
    ``graph._memo_nodes = (root, nodes, {nid: (repeat, loops)})``.
    ``graph.nodes`` is a mutable dict, so they are served only while
    ``graph.root`` and ``graph.nodes`` are what they were when the first
    was computed: the same or equal ``Node`` objects under the same ids.
    Any change drops them all."""
    kept = graph._memo_nodes
    if kept is None or kept[0] != graph.root or kept[1] != graph.nodes:
        kept = graph._memo_nodes = (graph.root, dict(graph.nodes), {})
    runs = kept[2]
    run = runs.get(nid)
    if run is None:
        run = runs[nid] = (frozenset() if nid is None else _repeatable(graph, nid)), {}
    return run


class _Loop:
    """A condB node ``c`` whose digit branches re-enter it at ``x >> 1``
    (``_notation_companion``), as ``eval_proof`` runs it: k levels
    descend at once, and their returns fold into one ``_edit_fold`` or,
    where the way back keeps memo entries or fuel may run out on it, run
    one level at a time (``unwind``).  A run from ``c`` keeps no entry
    on a way back whose keys grow with every level (``_growing``): C,
    S and L fold, and P unwinds, as its runs hit ``p7``.

    Per digit d (0 where d's branch does not recurse): ``down[d]``
    expansions from the branch to c and ``back[d]`` on a level's way
    back; ``path[d]`` that way back, None for a chain of successors,
    else ``(node, kept, xs, ys, digit)`` per node: whether it keeps memo
    entries, the slices of the cut's normals and safes (its value last)
    that its key holds, and the digit it writes if it is a successor;
    ``succ[d]`` the ``(bits, count)`` that the level's successors write;
    ``xs_used[d]``: a kept node on the way back sees the level's first
    normal.  ``keyed``: some node on a way back keeps memo entries.
    ``boxed`` and ``plain`` are c's input counts, which the way back was
    worked out for."""

    __slots__ = ("both", "odd", "mask", "low", "boxed", "plain", "down", "back", "path", "succ", "xs_used",
                 "keyed", "fold")

    def __init__(self, branches: list, boxed: int, plain: int) -> None:
        self.both = None not in branches
        self.odd = int(branches[1] is not None)
        self.mask = 0 if self.both else (1 << _FEW) - 1  # x & mask == low: _FEW levels or more from x
        self.low = self.mask if self.odd else 0
        self.boxed, self.plain = boxed, plain
        self.down, self.back, self.path, self.succ, self.xs_used = zip(
            *(b or (0, 0, None, None, False) for b in branches))
        self.keyed = any(p and any(step[1] for step in p) for p in self.path)
        self.fold = _edit_fold(*(b and (0, b[3][1], b[3][0], True) for b in branches))

    def levels(self, x: int) -> tuple[int, int, int]:
        """``(k, down, back)``: the k levels from ``x > 0`` down that
        re-enter c (every digit when both branches recurse, else the
        trailing run of the recursing digit), the expansions after c at
        x down to c at ``x >> k``, and those of the levels' ways back."""
        if self.both:
            k = x.bit_length()
            ones = x.bit_count()
        else:
            k = ((x ^ (x + 1)) if self.odd else (x & -x)).bit_length() - 1
            ones = k * self.odd
        down, back = self.down, self.back
        return k, k - 1 + (k - ones) * down[0] + ones * down[1], (k - ones) * back[0] + ones * back[1]

    def digits(self, x: int, k: int) -> str:
        """The digits of the k levels from x, innermost level first."""
        return format(x, "b") if self.both else "01"[self.odd] * k

    def unwind(self, v: int, x: int, k: int, rest: tuple, ys: tuple, fuel: int, memo: Optional[dict]):
        """Return ``v`` through the k levels that descended from ``(x,) +
        rest`` and ``ys``, innermost first, as ``eval_proof``'s frames
        would: fuel per expansion, and at each kept node the memo lookup
        under the same ``_long_key``, a hit ending its level's way back.
        Gives ``(v, fuel, lookups, node)``, with the node that fuel
        refused, or None."""
        lookups = 0
        paths, succ, xs_used = self.path, self.succ, self.xs_used
        fixed = (None,) + rest  # the cut's normals, where no key holds the first
        for i, d in enumerate(self.digits(x, k)):
            d = d == "1"
            path = paths[d]
            if path is None:  # successors back to c write on the way out, with no expansion
                bits, count = succ[d]
                v = v << count | bits
                continue
            xs = (x >> (k - i),) + rest if xs_used[d] else fixed
            vs = ys + (v,)
            pending = []  # memo cells to fill and digits to write, innermost last
            for n, kept, xsl, ysl, digit in path:
                fuel -= 1
                if fuel < 0:
                    return v, fuel, lookups, n
                if kept:
                    lookups += 1
                    kx, ky = xs[xsl], vs[ysl]
                    lx = ly = 0  # as _long_key sums them
                    for a in kx:
                        lx += a.bit_length()
                    for a in ky:
                        ly += a.bit_length()
                    cell = memo.setdefault((n, kx, ky, lx, ly), [None])
                    if cell[0] is not None:
                        v = cell[0]
                        break
                    pending.append(cell)
                if digit is not None:
                    pending.append(digit)
            for p in reversed(pending):  # with no hit, the id returned v itself
                if p.__class__ is int:
                    v = v << 1 | p
                else:
                    p[0] = v
        return v, fuel, lookups, None


def _notation_companion(nodes: dict, c: str, repeat) -> Optional[_Loop]:
    """The ``_Loop`` of the condB node ``c``, or None where no digit
    branch re-enters it.  A branch re-enters c when it is a chain of
    successors back to c, or a ``cutN`` whose left premise is c and whose
    right premise runs through weakenings, exchanges and successors to an
    id that returns the cut's value.  No node on the way down may keep
    memo entries (nor c), and a walk stops on a node it has seen."""
    nd = nodes[c]
    pr = nd.premises
    if c in repeat or len(pr) < 3:
        return None
    seq = nd.sequent
    branches = [_branch(nodes, c, b, seq.boxed, seq.plain, repeat) for b in pr[1:3]]
    if branches == [None, None]:
        return None
    return _Loop(branches, seq.boxed, seq.plain)


def _branch(nodes: dict, c: str, b: str, boxed: int, plain: int, repeat) -> Optional[tuple]:
    """``(down, back, path, (bits, count), xs_used)`` of the branch ``b``
    of ``c`` (``_Loop``), or None.  The way back is walked on stand-ins
    for c's ``boxed`` and ``plain`` inputs, with the same tuple
    operations as ``eval_proof``, so it holds for any run whose inputs at
    c have those counts; each kept node's key must hold a slice of the
    cut's inputs, in order."""
    bits = count = 0
    seen: set = set()
    nd = nodes.get(b)
    if nd is not None and nd.rule.kind is _R_CUT_N and len(nd.premises) > 1 and nd.premises[0] == c:
        if b in repeat:
            return None
        n, path, xs_used = nd.premises[1], [], False
        xs, ys = tuple(range(boxed)), tuple(range(plain + 1))  # the cut's inputs by place; plain: its value
        while True:
            nd = nodes.get(n)
            if nd is None or n in seen:
                return None
            seen.add(n)
            kind, pr, pos = nd.rule.kind, nd.premises, nd.rule.pos
            kept = n in repeat
            if kept:
                xsl, ysl = _slice(xs), _slice(ys)
                if xsl is None or ysl is None:
                    return None
                xs_used = xs_used or 0 in xs
            digit = int(kind is _R_S1) if kind is _R_S0 or kind is _R_S1 else None
            path.append((n, kept, xsl if kept else None, ysl if kept else None, digit))
            if kind is _R_ID:
                if ys[:1] != (plain,):
                    return None
                return 1, len(path), tuple(path), (bits, count), xs_used
            if not pr:
                return None
            if digit is not None:
                bits |= digit << count
                count += 1
            elif kind is _R_WEAK_N:
                ys = ys[:-1]
            elif kind is _R_WEAK_B:
                xs = xs[1:]
            elif kind is _R_EXCH_N or kind is _R_EXCH_B:
                try:
                    if kind is _R_EXCH_N:
                        ys = ys[:pos] + (ys[pos + 1], ys[pos]) + ys[pos + 2 :]
                    else:
                        xs = xs[:pos] + (xs[pos + 1], xs[pos]) + xs[pos + 2 :]
                except (IndexError, TypeError):
                    return None
            else:
                return None
            n = pr[0]
    n = b
    while n != c:
        nd = nodes.get(n)
        if nd is None or n in seen or n in repeat or not nd.premises:
            return None
        kind = nd.rule.kind
        if not (kind is _R_S0 or kind is _R_S1):
            return None
        seen.add(n)
        bits |= (kind is _R_S1) << count
        count += 1
        n = nd.premises[0]
    return count, 0, None, (bits, count), False


def _slice(places: tuple) -> Optional[slice]:
    """The slice that picks ``places`` out of a tuple, if they are a run
    of consecutive places in order; else None."""
    start = places[0] if places else 0
    return slice(start, start + len(places)) if places == tuple(range(start, start + len(places))) else None


def _repeatable(graph: ProofGraph, nid: str) -> frozenset:
    """Nodes where a run from ``nid`` that returns can hit its memo.

    A hit needs two expansions of a node at the same inputs, the first
    finished before the second starts.  Their lowest common ancestor in
    the run expands two children, so it is a cut or an srec, and the
    later expansion lies below its second child: a cut's right premise
    or an srec's step premise (its first is the srec at x >> 1).

    Of those nodes, only ones with more than one way in are kept: their
    in-edges from nodes live from ``nid``, with multiplicity, plus one
    for ``nid`` itself and one for an srec, which expands itself again;
    an edge from a weakening counts two.  Other rules map their inputs
    injectively to a premise's, so in a run with an entry at every node,
    a hit at a node with one such way in means its parent missed at
    inputs it had expanded before: that expansion finished, and then the
    parent would have hit, or it encloses this one, which never returns.

    When ``nid`` is a notation companion, the nodes on its ways back
    whose keys no run repeats (``_growing``) keep no entries either.
    """
    nodes = graph.nodes
    adj = {n: nd.premises for n, nd in nodes.items()}
    seconds = []  # the second children of live cuts and srecs
    ways = {nid: 1}  # ways into each node, from nodes live from nid
    for n in _reach(adj, (nid,)) & nodes.keys():
        kind, pr = nodes[n].rule.kind, adj[n]
        if (kind is _R_CUT_N or kind is _R_CUT_B) and len(pr) > 1:
            seconds.append(pr[1])
        elif kind is _R_SREC:
            ways[n] = ways.get(n, 0) + 1  # the srec expands itself again
            seconds.extend(pr[1:])
        # a weakening forgets an input: its one edge counts as two ways in
        step = 2 if kind is _R_WEAK_N or kind is _R_WEAK_B else 1
        for p in pr:
            ways[p] = ways.get(p, 0) + step
    kept = frozenset(n for n in _reach(adj, seconds) & nodes.keys() if ways[n] > 1)
    return kept - _growing(nodes, adj, nid) if kept and nodes[nid].rule.kind is _R_COND_B else kept


def _growing(nodes: dict, adj: dict, c: str) -> frozenset:
    """Nodes on the ways back of the condB node ``c`` (``_branch``) whose
    keys no run from ``c`` repeats, so that they need no memo entries.

    Every recursing branch must be a cut whose way back appends a digit.
    A run expands a node p on a way back once at each level whose way
    back passes it, with the value w that ``c`` returned at the level
    below at the place in its key that the id below p returns, and
    otherwise only below the one base it takes at the innermost level
    (premise 0, or a digit branch that does not recurse).  The w's
    strictly grow when every recursing branch's digits hold a 1, or when
    every base's value is positive: a spine below it (cuts' right
    premises, box, weakening, exchange and successor rules) holds an
    ``s1``.

    A base that reaches p must reach it on its spine, each node down to
    p entered only by the spine's edge from the nodes the base reaches.
    The base then expands p once, at a key that holds some u where the
    levels' keys hold w, and its spine must hold an ``s1``: the base's
    value, which every w is at least, is u edited, an ``s1`` among the
    edits, so it exceeds u.  A base that reaches ``c`` again reaches
    every way back through ``c`` and a cut, which no spine passes, so
    they all keep their entries; otherwise the levels lie on one chain
    ``x, x >> 1, ...``.  A run of P at a power of two hits ``p7``, which
    its base reaches through an ``s0`` only, so ``p7`` keeps its entries."""
    nd = nodes[c]
    pr = nd.premises
    if len(pr) != 3:
        return frozenset()
    seq = nd.sequent
    cuts = {b: _branch(nodes, c, b, seq.boxed, seq.plain, ()) for b in set(pr[1:])}
    cuts = {b: shape for b, shape in cuts.items() if shape is not None}
    if not cuts or any(path is None or count == 0 for _, _, path, (_, count), _ in cuts.values()):
        return frozenset()
    spines = []  # per base: the nodes it reaches, those its one expansion expands once, an s1 on its spine
    for r in {pr[0]} | {b for b in pr[1:] if b not in cuts}:
        reach = _reach(adj, (r,)) & nodes.keys()
        ways: dict = {}  # ways into each node from the nodes r reaches
        for n in reach:
            for q in adj[n]:
                ways[q] = ways.get(q, 0) + 1
        seen, once, single, s1, n = set(), set(), True, False, r
        while n in nodes and n not in seen:
            seen.add(n)
            single = single and ways.get(n, 0) == (n != r)  # so far each entered by the spine's edge alone
            if single:
                once.add(n)
            kind = nodes[n].rule.kind
            s1 = s1 or kind is _R_S1
            at = 1 if kind is _R_CUT_N or kind is _R_CUT_B else 0
            if kind not in _FLOW or len(adj[n]) <= at:
                break
            n = adj[n][at]
        spines.append((reach, once, s1))
    if not (all(bits for _, _, _, (bits, _), _ in cuts.values()) or all(s1 for _, _, s1 in spines)):
        return frozenset()
    return frozenset(
        p for _, _, path, _, _ in cuts.values() for p, *_ in path
        if all(p in once and s1 for reach, once, s1 in spines if p in reach))


# the rules whose value is an edit of one premise's: a cut's right premise, else the first
_FLOW = frozenset({_R_CUT_N, _R_CUT_B, _R_S0, _R_S1, _R_WEAK_N, _R_WEAK_B, _R_EXCH_N, _R_EXCH_B, _R_BOX_L, _R_BOX_R})


# ---------------------------------------------------------------------------
# Algebra terms


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class Proj(Term):
    sort: str  # "n" or "s"
    index: int


@dataclass(frozen=True)
class S0(Term):
    t: Term


@dataclass(frozen=True)
class S1(Term):
    t: Term


@dataclass(frozen=True)
class Pred(Term):
    t: Term


@dataclass(frozen=True)
class Cond(Term):
    w: Term
    x: Term
    y: Term
    z: Term


@dataclass(frozen=True)
class OracleCall(Term):
    """Invocation of an oracle; argument terms are evaluated in place.

    The reserved name ``rec`` denotes the distinguished recursive call
    inside the step term of the nested / prefix-permutation schemes.
    """

    name: str
    normal_args: tuple[Term, ...] = ()
    safe_args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Call(Term):
    """Invocation of a named function of a PPProgram.

    ``guard`` is None for plain composition with an already-defined
    function, "strict" for calls guarded by a strict prefix-permutation
    descent on the normal tuple, and "strict_safe" when the safe tuple
    must additionally stay below the caller's safe tuple.
    """

    name: str
    normal_args: tuple[Term, ...] = ()
    safe_args: tuple[Term, ...] = ()
    guard: Optional[str] = None


@dataclass(frozen=True)
class CompSafe(Term):
    """f(x;y) = h(x; y, g(x;y)) - safe composition along a safe parameter."""

    h: Term
    g: Term


@dataclass(frozen=True)
class CompNormal(Term):
    """f(x;y) = h(x, g(x;); y) - safe composition along a normal parameter."""

    h: Term
    g: Term


@dataclass(frozen=True)
class SRecN(Term):
    """Safe recursion on notation; h0/h1 take the call as last safe arg."""

    g: Term
    h0: Term
    h1: Term


@dataclass(frozen=True)
class SNRec(Term):
    """Safe nested recursion; h calls its recursion oracle on safes only.

    ``rec_name`` defaults to ``rec``; nested instances pick distinct
    names so inner steps can still reach outer recursive calls.
    """

    g: Term
    h: Term
    rec_name: str = REC


@dataclass(frozen=True)
class SRecPP(Term):
    """Recursion on permutations of prefixes, calls guarded on both zones."""

    h: Term
    rec_name: str = REC


@dataclass(frozen=True)
class SNRecPP(Term):
    """Nested recursion on permutations of prefixes, normals-only guard."""

    h: Term
    rec_name: str = REC


@dataclass(frozen=True)
class SimRecPP(Term):
    """Simultaneous prefix-permutation recursion over oracles rec1..reck."""

    hs: tuple[Term, ...]
    select: int = 0
    guard_safes: bool = False


@dataclass(frozen=True)
class TagDispatch(Term):
    """Finite case split of trailing safe slots against constant tuples.

    Realises the bounded case distinction used when flattening
    simultaneous recursion; falls through to 0.
    """

    tag_width: int
    cases: tuple[tuple[tuple[int, ...], Term], ...]


@dataclass(frozen=True)
class TermDef:
    """A named closed term with declared arities."""

    name: str
    normals: int
    safes: int
    body: Term


# children and map_children are the one place that knows where each
# term class keeps its subterms.  children reads them through a getter
# per class (it is on the bound-synthesis hot path), map_children
# through the dataclass fields; tests/test_classes.py checks they agree.
_CHILDREN: dict[type, Callable[[Term], tuple[Term, ...]]] = {
    Zero: lambda t: (),
    Proj: lambda t: (),
    S0: lambda t: (t.t,),
    S1: lambda t: (t.t,),
    Pred: lambda t: (t.t,),
    Cond: attrgetter("w", "x", "y", "z"),
    OracleCall: lambda t: t.normal_args + t.safe_args,
    Call: lambda t: t.normal_args + t.safe_args,
    CompSafe: attrgetter("h", "g"),
    CompNormal: attrgetter("h", "g"),
    SRecN: attrgetter("g", "h0", "h1"),
    SNRec: attrgetter("g", "h"),
    SRecPP: lambda t: (t.h,),
    SNRecPP: lambda t: (t.h,),
    SimRecPP: attrgetter("hs"),
    TagDispatch: lambda t: tuple([body for _, body in t.cases]),
}


def children(term: Term) -> tuple[Term, ...]:
    """Immediate subterms in field order.

    Call and OracleCall give their normal then safe arguments, SimRecPP
    its components, TagDispatch its case bodies (never the tags).  A
    non-term raises ValueError.
    """
    get = _CHILDREN.get(type(term))
    if get is None:
        raise ValueError(f"unknown term {term!r}")
    return get(term)


def map_children(term: Term, f: Callable[[Term], Term]) -> Term:
    """``term`` rebuilt with ``f`` applied to each of its ``children``.

    Returns ``term`` itself when every ``f`` result is the subterm it
    was given, so unchanged parts stay shared.
    """
    new = {}
    for name in term.__dataclass_fields__:
        v = getattr(term, name)
        if isinstance(v, Term):
            nv = f(v)
            if nv is not v:
                new[name] = nv
        elif isinstance(v, tuple):
            olds = [x if isinstance(x, Term) else x[1] for x in v]
            news = [f(x) for x in olds]
            if any(a is not b for a, b in zip(olds, news)):
                new[name] = tuple(
                    n if isinstance(x, Term) else (x[0], n) for x, n in zip(v, news)
                )
    return replace(term, **new) if new else term


def fold(term: Term, f: Callable[[Term, list], R]) -> R:
    """``f(t, results)`` for every subterm ``t``, bottom-up, where
    ``results`` holds the values for ``children(t)`` in order.

    Runs on an explicit stack, so term depth is not bounded by Python's
    recursion limit; a subterm object shared at several places is
    folded once.
    """
    done: dict[int, R] = {}
    stack = [(term, False)]
    while stack:
        t, ready = stack.pop()
        if ready:
            done[id(t)] = f(t, [done[id(c)] for c in children(t)])
        elif id(t) not in done:  # a shared subterm is done by its first visit
            stack.append((t, True))
            stack.extend([(c, False) for c in reversed(children(t))])
    return done[id(term)]


def map_terms(term: Term, f: Callable[[Term], Term]) -> Term:
    """``f`` applied bottom-up: each subterm is rebuilt from its mapped
    children (shared when unchanged, as in ``map_children``), then
    passed to ``f``.  No recursion, by ``fold``."""

    def step(t: Term, kids: list[Term]) -> Term:
        if all(map(is_, kids, children(t))):
            return f(t)
        it = iter(kids)  # map_children visits children in children() order
        return f(map_children(t, lambda _: next(it)))

    return fold(term, step)


# ---------------------------------------------------------------------------
# Term evaluation: compiled once into closures
#
# For fixed argument counts a term compiles to ``run(xs, ys, b)``: xs and
# ys are the normal and safe arguments at that point, b the bindings.
# b[0] maps host oracle names to their OracleDef, b[1] and b[2] are the
# normals and safes of the innermost program call (the frame its guards
# compare against), b[3] is the ``_Run`` of the program run (all three
# None outside programs).  Each recursion scheme appends one binding
# per name it introduces.  A guarded scheme's is ``(code, bound, outer)``:
# the scheme's code, the arguments it was entered with and the bindings
# around it.  ``snrec``'s is the level below the step, a list whose
# head, once a call has built it, is ``(code, normals, bindings)`` with
# ``code(normals, ys, bindings) == f(x >> 1, tail; ys)`` (``_snrec``).
# So a recursion name resolves at compile time to an index into b, and
# a recursive call runs in its scheme's scope, never in the caller's.
# Arities are fixed by the term, so they are checked here once; a
# failed check compiles to code that raises when it is reached.

_FIXED = 4  # b[0..3] as above; recursion bindings follow
_EDITS = (S0, S1, Pred)


def _chain(term: Term) -> tuple[Term, int, int, int]:
    """The leaf below the maximal ``s0``/``s1``/``p`` chain at ``term``,
    and the chain as one prefix edit ``(r, k, c)``: its value is
    ``leaf >> r << k | c``, with ``c < 2**k``.  A chain of none is the
    edit ``(0, 0, 0)``."""
    ops = []
    while isinstance(term, _EDITS):
        ops.append(term.__class__)
        term = term.t
    r = k = c = 0
    for op in reversed(ops):  # innermost first
        if op is not Pred:
            k, c = k + 1, c << 1 | (op is S1)
        elif k:
            k, c = k - 1, c >> 1
        else:
            r += 1
    return term, r, k, c


def _edit_code(term: Term, m: int, n: int, scope: tuple, prog: Optional[_ProgramCode], suspends: set):
    """``_compile`` of an ``s0``/``s1``/``p`` chain: one edit, fused into
    a constant or projection leaf, or applied by one frame when the leaf
    suspends.  An edit with k = 0 (so c = 0) is a bare right shift."""
    leaf, r, k, c = _chain(term)
    if isinstance(leaf, Zero):
        return lambda xs, ys, b: c
    if not (r or k):  # p(s0(t)) is t
        return _compile(leaf, m, n, scope, prog, suspends)
    if isinstance(leaf, Proj) and leaf.index < (m if leaf.sort == "n" else n):
        i = leaf.index
        if leaf.sort == "n":
            return (lambda xs, ys, b: xs[i] >> r << k | c) if k else lambda xs, ys, b: xs[i] >> r
        return (lambda xs, ys, b: ys[i] >> r << k | c) if k else lambda xs, ys, b: ys[i] >> r
    t = _compile(leaf, m, n, scope, prog, suspends)
    if id(leaf) in suspends:
        return _then(t, lambda v, fr: v >> r << k | c)
    return (lambda xs, ys, b: t(xs, ys, b) >> r << k | c) if k else lambda xs, ys, b: t(xs, ys, b) >> r


def _step_edit(h: Term, n: int) -> Optional[tuple[int, int, int, bool]]:
    """``(r, k, c, keep)`` if the srec step ``h``, at ``n + 1`` safes, is
    an edit of the recursion value ``ys[n]`` (keep) or the constant c
    (not keep); else None."""
    leaf, r, k, c = _chain(h)
    if isinstance(leaf, Zero):
        return 0, 0, c, False
    if isinstance(leaf, Proj) and leaf.sort == "s" and leaf.index == n:
        return r, k, c, True
    return None


def _fail(msg: str):
    def run(*_):
        raise EvalError(msg)

    return run


def _tuple_of(args: list):
    """Code building the tuple of the values of ``args``, in order."""
    if not args:
        return lambda xs, ys, b: ()
    if len(args) == 1:
        (a,) = args
        return lambda xs, ys, b: (a(xs, ys, b),)
    if len(args) == 2:
        a, c = args
        return lambda xs, ys, b: (a(xs, ys, b), c(xs, ys, b))
    return lambda xs, ys, b: tuple([a(xs, ys, b) for a in args])


def _compile(term: Term, m: int, n: int, scope: tuple, prog: Optional[_ProgramCode], suspends=frozenset(), reuse=True):
    """Code of ``term`` at ``m`` normal and ``n`` safe arguments.

    ``scope`` holds the recursion names bound around ``term``, outermost
    first, as ``(name, guard, normals, safes)``: guard None for nested
    recursion, else whether the safes are guarded too.  ``prog`` resolves
    named calls (None outside programs).  The subterms of a program body
    in ``suspends`` (``_walk``), those on the path to its calls, return a
    request ``(callee, normals, safes)`` in place of a value once they
    reach a call, leaving on ``b[3].ks`` the frames that finish the
    caller: ``frame[0](value, frame)`` takes the callee's value and
    returns the next value or request (``_Run.call`` runs that loop).
    Recursion schemes and tag dispatch compile their parts with no
    suspending ids.  A subterm object in ``prog.shared`` compiles once
    per arity, scope and suspension (a miss compiles it with ``reuse`` False).
    """
    if reuse and prog is not None and id(term) in prog.shared:
        key = (id(term), m, n, scope, id(term) in suspends)
        if key not in prog.codes:
            prog.codes[key] = _compile(term, m, n, scope, prog, suspends, False)
        return prog.codes[key]
    if isinstance(term, Zero):
        return lambda xs, ys, b: 0
    if isinstance(term, Proj):
        i, normal = term.index, term.sort == "n"
        if i >= (m if normal else n):
            return _fail(f"projection {'n' if normal else 's'}{i} out of range")
        return (lambda xs, ys, b: xs[i]) if normal else (lambda xs, ys, b: ys[i])
    if isinstance(term, _EDITS):
        return _edit_code(term, m, n, scope, prog, suspends)
    if isinstance(term, Cond):
        w, x, y, z = (_compile(t, m, n, scope, prog, suspends) for t in (term.w, term.x, term.y, term.z))
        if id(term.w) in suspends:
            return _then(w, lambda v, fr: (x if v == 0 else y if v % 2 == 0 else z)(fr[1], fr[2], fr[3]))
        return _cond(w, x, y, z)
    if isinstance(term, (OracleCall, Call)):
        parts, split = term.normal_args + term.safe_args, len(term.normal_args)
        args = [_compile(a, m, n, scope, prog, suspends) for a in parts]
        flags = [id(a) in suspends for a in parts]
        if isinstance(term, Call):  # the one rule for every call site
            if prog is None:
                return _fail("named calls only occur inside programs")
            bad = prog.mismatch(term.name, split, len(parts) - split)
            if bad is None and id(term) not in prog.checked:
                request = _unchecked(term, args, flags, m, n)
            else:
                request = _request(term, args, flags, bad)
            if id(term) in suspends:
                return request

            def run(xs, ys, b):  # inside a recursion scheme: a nested loop runs the request
                r = request(xs, ys, b)
                return b[3].call(*r) if r.__class__ is tuple else r

            return run
        for k in range(len(scope) - 1, -1, -1):
            name, guard, bm, bn = scope[k]
            if name == term.name:
                if split != bm or len(args) - split != bn:  # the arguments run, then this raises
                    return _args(args, flags, split, _fail(f"oracle {name!r} arity mismatch"))
                if guard is None:
                    return _nested_call(_FIXED + k, term.safe_args, args[split:], n)
                return _rec_call(_FIXED + k, guard, args[:split], args[split:])
        return _host_call(term, args, flags)
    if isinstance(term, CompSafe):
        h, g = _compile(term.h, m, n + 1, scope, prog, suspends), _compile(term.g, m, n, scope, prog, suspends)
        if id(term.g) in suspends:
            return _then(g, lambda v, fr: h(fr[1], fr[2] + (v,), fr[3]))
        return lambda xs, ys, b: h(xs, ys + (g(xs, ys, b),), b)
    if isinstance(term, CompNormal):
        h, g = _compile(term.h, m + 1, n, scope, prog, suspends), _compile(term.g, m, 0, scope, prog, suspends)
        if id(term.g) in suspends:
            return _then(lambda xs, ys, b: g(xs, (), b), lambda v, fr: h(fr[1] + (v,), fr[2], fr[3]))
        return lambda xs, ys, b: h(xs + (g(xs, (), b),), ys, b)
    if isinstance(term, (SRecN, SNRec)) and m == 0:
        return _fail(f"{type(term).__name__} needs a normal argument")
    if isinstance(term, SRecN):
        g = _compile(term.g, m - 1, n, scope, prog)
        e0, e1 = _step_edit(term.h0, n), _step_edit(term.h1, n)
        if e0 and e1:
            return _srec_edits(g, e0, e1)
        h0, h1 = (_compile(h, m, n + 1, scope, prog) for h in (term.h0, term.h1))

        def run(xs, ys, b):
            # f(x) from f(0), folding h0/h1 over the prefixes of x,
            # shortest first: a loop, not one call per bit
            x0, tail = xs[0], xs[1:]
            if x0 < 0:
                raise EvalError("srec on a negative input")
            v = g(tail, ys, b)
            for k in range(x0.bit_length() - 1, -1, -1):
                p = x0 >> k
                v = (h1 if p & 1 else h0)((p >> 1,) + tail, ys + (v,), b)
            return v

        return run
    if isinstance(term, SNRec):
        g = _compile(term.g, m - 1, n, scope, prog)
        return _snrec(g, _compile(term.h, m, n, scope + ((term.rec_name, None, 0, n),), prog))
    if isinstance(term, (SRecPP, SNRecPP)):
        h = _compile(term.h, m, n, scope + ((term.rec_name, isinstance(term, SRecPP), m, n),), prog)

        def run(xs, ys, b):
            return h(xs, ys, b + ((run, (xs, ys), b),))

        return run
    if isinstance(term, SimRecPP):
        inner = scope + tuple((f"{REC}{j + 1}", term.guard_safes, m, n) for j in range(len(term.hs)))
        runs = []
        for h in term.hs:

            def run(xs, ys, b, h=_compile(h, m, n, inner, prog)):
                bound = (xs, ys)
                return h(xs, ys, b + tuple([(r, bound, b) for r in runs]))

            runs.append(run)
        return runs[term.select]
    if isinstance(term, TagDispatch):
        w = term.tag_width
        if n < w:
            return _fail("tag dispatch needs its trailing safe slots")
        table: dict = {}
        for want, body in term.cases:
            table.setdefault(want, _compile(body, m, n, scope, prog))

        def run(xs, ys, b):
            body = table.get(ys[n - w :])
            return 0 if body is None else body(xs, ys, b)

        return run
    raise EvalError(f"cannot evaluate {term!r}")


def _snrec(g, h):
    """``snrec`` code.  A level ``[built, x, tail, outer, build]`` stands
    for ``f(x, tail; ys)`` as a function of the safes, in the bindings
    ``outer``.  ``build`` sets ``built`` on the level's first call, to
    ``(code, normals, bindings)`` with ``code(normals, ys, bindings)``
    that value: the step over a new level for ``x >> 1``, or ``g`` at
    x = 0.  So calls into a level share one argument tuple and one
    binding, and a level that no call reaches is never built."""

    def build(lv):
        _, x, tail, outer, _ = lv
        if x:
            y = x >> 1
            lv[0] = h, (y,) + tail, outer + ([None, y, tail, outer, build],)
        else:
            lv[0] = g, tail, outer
        return lv[0]

    def run(xs, ys, b):
        if xs[0] < 0:
            raise EvalError("snrec on a negative input")
        code, rest, inner = build([None, xs[0], xs[1:], b, build])
        return code(rest, ys, inner)

    return run


def _srec_edits(g, e0: tuple, e1: tuple):
    """``srec`` whose steps are ``_step_edit``s: the edits fold over the
    bits of the recursion argument, most significant first, with no
    step call and no argument tuple per bit (``_edit_fold``)."""
    fold = _edit_fold(e0, e1)

    def run(xs, ys, b):
        x0 = xs[0]
        if x0 < 0:
            raise EvalError("srec on a negative input")
        v = g(xs[1:], ys, b)
        return fold(v, format(x0, "b")) if x0 else v

    return run


_SHORT = 4  # digit strings up to this long fold one digit at a time


@functools.lru_cache(maxsize=256)
def _edit_fold(e0: Optional[tuple], e1: Optional[tuple]):
    """``fold(v, digits)``: ``v`` after the edit ``(r, k, c, keep)`` of
    each digit of the string ``digits`` in turn, ``e0`` for "0" and
    ``e1`` for "1" (None for a digit that never occurs); an edit that
    does not keep its value gives the constant c.  Built once per pair
    of edits, its table included.

    Past ``_SHORT`` digits, when both edits are constants the value is
    the last digit's, and when every edit appends (r = 0) the fold is
    ``v << K | C`` in linear time, C one ``str.translate`` of the digits
    into k binary digits each.  Otherwise one Python step a digit, as
    on short strings."""
    edits = {"0": e0, "1": e1}
    present = {d: e for d, e in edits.items() if e}
    last = len(present) == 2 and not (e0[3] or e1[3])  # the value is the last digit's constant
    table = None
    if all(e[3] and not e[0] for e in present.values()):
        table = str.maketrans({d: format(e[2], f"0{e[1]}b") if e[1] else "" for d, e in present.items()})

    def fold(v, digits):
        if len(digits) > _SHORT:
            if last:
                return edits[digits[-1]][2]
            if table is not None:
                t = digits.translate(table)
                return v << len(t) | int(t, 2) if t else v
        for d in digits:
            r, k, c, keep = e1 if d == "1" else e0
            if not keep:
                v = c
            elif r:
                v = v >> r << k | c
            else:
                v = v << k | c
        return v

    return fold


def _cond(w, x, y, z):
    def run(xs, ys, b):
        v = w(xs, ys, b)
        if v == 0:
            return x(xs, ys, b)
        if v % 2 == 0:
            return y(xs, ys, b)
        return z(xs, ys, b)

    return run


def _rec_call(slot: int, guard: bool, nargs: list, sargs: list):
    """A call of the guarded recursion name bound at ``slot``."""
    us, vs = _tuple_of(nargs), _tuple_of(sargs)

    def guarded(xs, ys, b):  # prefix-permutation recursion: 0 below no descent
        code, (fx, fy), outer = b[slot]
        u, v = us(xs, ys, b), vs(xs, ys, b)
        if not tuple_below(u, fx, True) or guard and not tuple_below(v, fy, False):
            return 0
        return code(u, v, outer)

    return guarded


def _nested_call(slot: int, terms: tuple, sargs: list, n: int):
    """A nested-recursion call at ``n`` safes into the level ``b[slot]``
    (``_snrec``), built here on its first call.  The safes passed
    through unchanged are not copied; other arguments run their code
    ``sargs``, left to right."""
    if _through(terms, n):

        def through(xs, ys, b):
            lv = b[slot]
            code, rest, inner = lv[0] or lv[4](lv)
            return code(rest, ys, inner)

        return through
    vs = _tuple_of(sargs)

    def call(xs, ys, b):
        lv = b[slot]
        code, rest, inner = lv[0] or lv[4](lv)
        return code(rest, vs(xs, ys, b), inner)

    return call


def _through(terms: tuple, n: int) -> bool:
    """Whether ``terms`` are the ``n`` safes ``y0 .. y(n-1)``, in order."""
    return [t.index if isinstance(t, Proj) and t.sort == "s" else None for t in terms] == list(range(n))


def _host_call(term: OracleCall, args: list, flags: list):
    """A call of the host oracle of ``term``: looked up when it runs,
    before ``_args`` runs the argument code ``args`` and applies the
    oracle to their values; a negative result raises EvalError."""
    name, m, n = term.name, len(term.normal_args), len(term.safe_args)

    def finish(u, v, b):
        d = b[0][name]
        if d.normals != m or d.safes != n:
            raise EvalError(f"oracle {name!r} arity mismatch")
        r = d.fn(u, v)
        if r < 0:
            raise EvalError(f"oracle {name!r} returned the negative value {r}")
        return r

    code = _args(args, flags, m, finish)

    def run(xs, ys, b):
        if name not in b[0]:
            raise EvalError(f"unknown oracle {name!r}")
        return code(xs, ys, b)

    return run


def _kept_on(term: Term, key, make: Callable[[], R]) -> R:
    """``make()``, kept on the term object under ``key``, outside its
    fields, as ``_kept_code`` keeps a program's code: the term is never
    hashed, which for a frozen dataclass walks the whole tree on Python's
    stack."""
    kept = term.__dict__.get("_kept")
    if kept is None:
        kept = {}
        object.__setattr__(term, "_kept", kept)
    value = kept.get(key)
    if value is None:
        value = kept[key] = make()
    return value


def _term_code(term: Term, normals: int, safes: int):
    return _kept_on(term, (normals, safes), lambda: _compile(term, normals, safes, (), None))


def eval_term(
    term: Term,
    env: Optional[OracleEnv] = None,
    normals: Sequence[int] = (),
    safes: Sequence[int] = (),
) -> int:
    """Total evaluation of an algebra term against ambient inputs."""
    xs, ys = tuple(normals), tuple(safes)
    return _term_code(term, len(xs), len(ys))(xs, ys, ((env or EMPTY_ORACLES)._defs, None, None, None))


# ---------------------------------------------------------------------------
# Programs over the prefix-permutation order


@dataclass(frozen=True)
class PPFunction:
    name: str
    normals: int
    safes: int
    body: Term


@dataclass
class PPProgram:
    """Mutually recursive named functions with guarded calls.

    Every question about the program's calls (``validate``,
    ``call_graph``, the class check, ``descent_audit``) and ``eval_pp``
    read one ``_ProgramCode``, kept here by ``_kept_code``.
    """

    functions: dict[str, PPFunction]
    guard: str = "strict"  # family default: "strict" or "strict_safe"
    _code: Optional[_ProgramCode] = field(default=None, init=False, repr=False, compare=False)

    def validate(self) -> None:
        calls = _kept_code(self).calls
        for nm, fn in self.functions.items():
            if fn.name != nm:
                raise EvalError(f"function {fn.name} is stored under the name {nm!r}")
            for c in calls[nm]:
                if c.name not in self.functions:
                    raise EvalError(f"{fn.name} calls unknown function {c.name!r}")
                callee = self.functions[c.name]
                if len(c.normal_args) != callee.normals or len(c.safe_args) != callee.safes:
                    raise EvalError(f"{fn.name} calls {c.name} with wrong arity")

    def call_graph(self) -> dict[str, tuple[str, ...]]:
        """Callee names of each function, sorted, for ``kernel.sccs``."""
        callees = _kept_code(self).callees
        return {nm: callees[nm] for nm in self.functions}


def _must_guard(graph: dict[str, Sequence[str]]) -> Callable[[str, str], bool]:
    """Whether a call from ``caller`` to ``callee`` must be guarded, given
    the callee names of each function: the callee lies in the caller's
    component of ``sccs(graph)`` (a self-call does; an unknown callee
    does not).  ``translate`` places guards by this rule and
    ``check_term_class`` requires them by it."""
    comp_of = {nm: i for i, comp in enumerate(sccs(graph)) for nm in comp}
    return lambda caller, callee: comp_of.get(callee, -1) == comp_of[caller]


def _kept_code(prog: PPProgram) -> _ProgramCode:
    """The code of ``prog``, built by the first caller that needs it and
    kept while ``prog.functions`` holds exactly the objects it was built
    from (call sites read their callee's arity when they compile)."""
    code, fns = prog._code, prog.functions
    if code is None or len(fns) != len(code.functions) or any(fns.get(k) is not f for k, f in code.functions.items()):
        code = prog._code = _ProgramCode(fns)
    return code


class _ProgramCode:
    """A program's calls and compiled bodies, shared by its runs in both
    guard modes and by every question about its calls.

    Built from one ``_walk`` of each body: ``calls`` holds each body's
    ``Call`` objects, each once, in pre-order, ``callees`` their names,
    sorted, and ``uncertified`` the calls ``descent_audit`` lists.  A
    body compiles with ``_compile`` the first time a run enters its
    function.  ``checked`` holds the ids of the uncertified calls; only
    those check their guard (a Call object also at a certified site
    checks there too), in the run's guard mode.  ``shared`` holds the
    ids of the subterm objects a walk met at two places, ``codes`` their
    code.  The code holds no state of a run; each run passes its own in
    b[3].

    ``keep`` holds the functions whose calls keep memo entries: those
    reachable in the call graph from a callee of a body that can make
    two calls in one activation.  As in ``_repeatable``, two
    calls with one key lie below two calls of their lowest common activation.
    """

    __slots__ = ("functions", "bodies", "marks", "calls", "callees", "uncertified", "keep", "checked", "shared", "codes")

    def __init__(self, functions: dict[str, PPFunction]) -> None:
        self.functions, self.checked, self.shared = dict(functions), set(), set()
        self.marks: dict[str, set] = {}  # each body's suspending subterms, until it compiles
        self.bodies, self.calls, self.callees, self.uncertified, self.codes = {}, {}, {}, {}, {}
        starts = []
        for name, fn in self.functions.items():
            self.marks[name], self.calls[name], twice, self.uncertified[name], shared = _walk(fn)
            self.callees[name] = tuple(sorted({c.name for c in self.calls[name]}))
            self.checked.update([id(u.call) for u in self.uncertified[name]])
            self.shared |= shared
            starts += self.callees[name] if twice else ()
        self.keep = frozenset(_reach(self.callees, starts))

    def mismatch(self, name: str, m: int, n: int) -> Optional[str]:
        """Why function ``name`` cannot take m normals and n safes, or None."""
        fn = self.functions.get(name)
        if fn is None:
            return f"unknown function {name!r}"
        if (m, n) != (fn.normals, fn.safes):
            return f"{name} expects ({fn.normals};{fn.safes}) arguments"
        return None

    def _body(self, name: str) -> Callable:
        """Compile function ``name``'s body along the marks of ``_walk``;
        a recursion on notation outside ``keep`` runs as one loop
        (``_notation_loop``)."""
        fn = self.functions[name]
        code = _compile(fn.body, fn.normals, fn.safes, (), self, self.marks.pop(name))
        if name not in self.keep:
            code = _notation_loop(name, fn, code, self) or code
        self.bodies[name] = code
        return code


def _notation_loop(name: str, fn: PPFunction, body, code: _ProgramCode):
    """The body of function ``name`` as one loop, where it recurses on
    notation, else None; ``body`` is its compiled code.

    The shape is ``cond(x0, g, B0, B1)`` where at least one branch is an
    ``s0``/``s1``/``p`` chain around a call of ``name`` itself that checks
    no guard, whose first normal is ``p(x0)``, each other normal the
    caller's own or 0 (one map in both such branches) and the safes the
    caller's, in order.  At ``x0`` the recursion descends k levels: one
    per digit when both branches recurse, else the trailing run of the
    recursing digit.  The loop charges k calls' fuel, steps and depth at
    once, as ``_Run.call`` would, runs ``body`` at the innermost level
    (which takes ``g`` or the other branch, its calls going to the
    machine as requests), and folds the k edits on the way out
    (``_edit_fold``).  With less than k fuel left it runs ``body``."""
    t, m, n = fn.body, fn.normals, fn.safes
    if not (isinstance(t, Cond) and isinstance(t.w, Proj) and t.w.sort == "n" and t.w.index == 0 < m):
        return None
    steps = []
    for branch in (t.y, t.z):
        call, r, k, c = _chain(branch)
        zeros = None
        if isinstance(call, Call) and call.name == name and id(call) not in code.checked:
            zeros = _self_normals(call.normal_args, m) if _through(call.safe_args, n) else None
        steps.append(None if zeros is None else ((r, k, c, True), zeros))
    s0, s1 = steps
    if s0 is None and s1 is None or s0 and s1 and s0[1] != s1[1]:
        return None
    zeros = (s0 or s1)[1]
    fold = _edit_fold(s0 and s0[0], s1 and s1[0])
    both, odd, zeros_in = s0 is not None and s1 is not None, int(s1 is not None), any(zeros)
    digit = str(odd)

    def finish(v, fr):
        fr[3].depth -= fr[1]
        return fold(v, fr[2])

    def loop(xs, ys, b):
        x = xs[0]
        if both:
            k = x.bit_length()
        elif x & 1 != odd or not x:  # no call at this level
            return body(xs, ys, b)
        else:  # the trailing run of the recursing digit: 2**(k+1) - 1 or 2**k
            k = ((x ^ (x + 1)) if odd else (x & -x)).bit_length() - 1
        machine = b[3]
        if not k or machine.fuel < k:
            return body(xs, ys, b)
        machine.fuel -= k
        machine.steps += k
        depth = machine.depth = machine.depth + k
        if depth > machine.max_depth:
            machine.max_depth = depth
        inner = (x >> k,) + (tuple([0 if z else v for z, v in zip(zeros, xs[1:])]) if zeros_in else xs[1:])
        frame = (finish, k, format(x, "b") if both else digit * k, machine)
        ks = machine.ks
        ks.append(frame)
        v = body(inner, ys, (b[0], inner, ys, machine))
        if v.__class__ is tuple:
            return v
        ks.pop()
        return finish(v, frame)

    return loop


def _self_normals(args: tuple, m: int) -> Optional[tuple[bool, ...]]:
    """For a self-call's normal arguments ``args``, at ``m`` normals: if
    the first is ``p(x0)`` and each other is the caller's own normal at
    its place or 0, whether each other one is 0; else None."""
    if len(args) != m:
        return None
    leaf, r, k, _ = _chain(args[0])
    if not (isinstance(leaf, Proj) and leaf.sort == "n" and leaf.index == 0 and (r, k) == (1, 0)):
        return None
    zeros = []
    for i, a in enumerate(args[1:], 1):
        leaf, r, k, c = _chain(a)
        if isinstance(leaf, Zero) and not c:
            zeros.append(True)
        elif isinstance(leaf, Proj) and leaf.sort == "n" and leaf.index == i and not (r or k):
            zeros.append(False)
        else:
            return None
    return tuple(zeros)


def _request(term: Call, args: list, flags: list, bad: Optional[str]):
    """Code of a call site with a check to make (``_args`` over the
    argument code ``args``): the arguments, the guard against the
    caller's frame, then the request.  A failed guard gives 0, or
    GuardViolation in a strict run; a guard fails on tuples of other
    lengths than the frame's.  After the guard, ``bad``, why the callee
    cannot take these arguments, raises."""
    name, m = term.name, len(term.normal_args)
    guard, safe_guard = term.guard is not None, term.guard == "strict_safe"

    def finish(u, v, b):
        if guard and not (
            len(u) == len(b[1]) and tuple_below(u, b[1], True)
            and (not safe_guard or len(v) == len(b[2]) and tuple_below(v, b[2], False))
        ):
            if b[3].strict:
                raise GuardViolation(f"guarded call to {name} with normals {u} against frame {b[1]}")
            return 0
        if bad is not None:
            raise EvalError(bad)
        return (name, u, v)

    return _args(args, flags, m, finish)


def _unchecked(term: Call, args: list, flags: list, m: int, n: int):
    """Code of a call site at ``m`` normals and ``n`` safes with no check
    to make (unguarded or certified, its callee and arity right): the
    request ``(name, normals, safes)``.  An argument that can suspend
    keeps ``_args``.  Otherwise one closure builds the request: each
    argument that is a prefix edit of a constant or a projection is
    written in place (``xs[i] >> r``, ``ys[j] >> r``, ``0``), the others
    are called, and arguments that are all of ``xs`` or of ``ys``, in
    order, pass that tuple itself.  The closure's text holds only
    indices, shifts and hexadecimal constants."""
    name, split = term.name, len(term.normal_args)
    if any(flags):
        return _args(args, flags, split, lambda u, v, b: (name, u, v))
    parts = [_inline(a, m, n) or f"a{i}(xs, ys, b)" for i, a in enumerate(term.normal_args + term.safe_args)]

    def tup(items: list, whole: str, size: int) -> str:
        if items == [f"{whole}[{i}]" for i in range(size)]:
            return whole
        return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"

    params = ", ".join(["name"] + [f"a{i}" for i in range(len(args))])
    body = f"(name, {tup(parts[:split], 'xs', m)}, {tup(parts[split:], 'ys', n)})"
    return _request_maker(f"lambda {params}: lambda xs, ys, b: {body}")(name, *args)


@functools.lru_cache(maxsize=256)
def _request_maker(text: str):
    """The function that ``text`` from ``_unchecked`` defines, compiled
    once per text: compiling one costs about 50 µs on CPython 3.11, and
    call sites of one shape share a text."""
    return eval(text, {})


def _inline(t: Term, m: int, n: int) -> Optional[str]:
    """``t`` as Python text over ``xs`` and ``ys`` at ``m`` normals and
    ``n`` safes, if it is a prefix edit (``_chain``) of a constant or of
    a projection in range; else None."""
    leaf, r, k, c = _chain(t)
    if isinstance(leaf, Zero):
        return hex(c)
    if not isinstance(leaf, Proj) or leaf.index >= (m if leaf.sort == "n" else n):
        return None
    text = f"{'xs' if leaf.sort == 'n' else 'ys'}[{leaf.index}]"
    if r:
        text += f" >> {r}"
    return f"{text} << {k} | {hex(c)}" if k else text


# Forms that compile their parts with no suspending ids: a call there runs in a nested loop.
_OPAQUE = (SRecN, SNRec, SRecPP, SNRecPP, SimRecPP, TagDispatch)


def _walk(fn: PPFunction) -> tuple[set, list, bool, list, set]:
    """The one pass over a program body, on an explicit stack: down it
    carries the frame ``(m, n, nonzero)`` of ``_descent_gap``, up whether
    a subterm can suspend (with a call outside ``_OPAQUE`` forms) and its
    call count (a conditional counts its condition and costliest branch,
    an ``_OPAQUE`` form twice its parts).  Gives those subterms' ids, the
    Call objects in pre-order, each once, whether an activation can make
    two calls, the uncertified guarded calls in pre-order, at each place
    of a shared one, and the ids of the subterm objects met at two
    places.  An object met again in a frame it was walked in gives what
    it gave there."""
    suspends, calls, uncertified, up, done, shared = set(), [], [], [], {}, set()
    stack: list = [(fn.body, (fn.normals, fn.safes, frozenset()))]
    while stack:
        t, down = stack.pop()
        if down.__class__ is list:  # t's children are done: [t's frame, their number, t's first entry]
            down, size, start = down
            kids, up[len(up) - size :] = up[len(up) - size :], []
            s, count = any([k[0] for k in kids]), sum([k[1] for k in kids])
            if isinstance(t, Call):
                s, count = True, count + 1
            elif isinstance(t, _OPAQUE):
                s, count = False, 2 * count
            elif isinstance(t, Cond):
                count = kids[0][1] + max(k[1] for k in kids[1:])
            if s:
                suspends.add(id(t))
            up.append((s, count))
            done[id(t)] = (down, up[-1], start, len(uncertified))
            continue
        seen = done.get(id(t))
        if seen is not None:
            shared.add(id(t))
            if seen[0] == down:
                up.append(seen[1])
                uncertified += uncertified[seen[2] : seen[3]]
                continue
        elif isinstance(t, Call):  # its first place
            calls.append(t)
        start = len(uncertified)
        if isinstance(t, Call) and t.guard is not None and (reason := _descent_gap(t, *down)):
            uncertified.append(Uncertified(fn.name, t, reason))
        kids = children(t)
        if not kids and not isinstance(t, Call):
            up.append((False, 0))
            continue
        inner = (0, 0, frozenset()) if isinstance(t, _OPAQUE) else down  # inside, no argument is the caller's own
        stack += [(t, [down, len(kids), start])] + [(c, inner) for c in reversed(kids)]
        if isinstance(t, Cond):  # a test on a normal under ``p``s proves it nonzero in the nonzero branches
            leaf, _, k, _ = _chain(t.w)
            if isinstance(leaf, Proj) and leaf.sort == "n" and leaf.index < down[0] and not k:
                known = (*down[:2], down[2] | {leaf.index})
                stack[-4:-2] = [(t.z, known), (t.y, known)]  # the branches after w, x
    return suspends, calls, up[0][1] > 1, uncertified, shared


def _then(code, then):
    """Code running ``code``, then ``then(value, (then, xs, ys, b))``."""

    def run(xs, ys, b):
        frame = (then, xs, ys, b)
        ks = b[3].ks
        ks.append(frame)
        r = code(xs, ys, b)
        if r.__class__ is tuple:
            return r
        ks.pop()
        return then(r, frame)

    return run


def _args(args: list, flags: list, m: int, finish):
    """Code evaluating ``args`` left to right, then ``finish(normals,
    safes, b)`` on the first ``m`` values and the rest."""
    if not any(flags):
        us, vs = _tuple_of(args[:m]), _tuple_of(args[m:])
        return lambda xs, ys, b: finish(us(xs, ys, b), vs(xs, ys, b), b)
    if flags.index(True) == len(args) - 1:  # only the last one can suspend
        head, last = _tuple_of(args[:-1]), args[-1]

        def resume_last(v, fr):
            vals = fr[1] + (v,)
            return finish(vals[:m], vals[m:], fr[2])

        def run_last(xs, ys, b):
            frame = (resume_last, head(xs, ys, b), b)
            ks = b[3].ks
            ks.append(frame)
            r = last(xs, ys, b)
            if r.__class__ is tuple:
                return r
            ks.pop()
            return resume_last(r, frame)

        return run_last

    def resume(v, fr):
        _, i, vals, xs, ys, b = fr
        vals.append(v)
        return run(xs, ys, b, i + 1, vals)

    def run(xs, ys, b, i=0, vals=None):
        vals = [] if vals is None else vals
        ks = b[3].ks
        while i < len(args):
            if flags[i]:
                frame = (resume, i, vals, xs, ys, b)
                ks.append(frame)
                r = args[i](xs, ys, b)
                if r.__class__ is tuple:
                    return r
                ks.pop()
                vals.append(r)
            else:
                vals.append(args[i](xs, ys, b))
            i += 1
        return finish(tuple(vals[:m]), tuple(vals[m:]), b)

    return run


class _Run:
    """The state of one ``eval_pp`` run, and the machine loop over it.

    ``call`` runs the program's code with the pending program calls on
    the run's own stack ``ks``, so program-call depth uses no Python
    frames.  ``translate`` never puts a call inside a recursion scheme
    or a tag dispatch; a call there runs its request by calling ``call``
    again, one Python-level loop per active call of that kind, sharing
    the run's fuel, memo, statistics and stack.  Only calls of the
    code's ``keep`` look up memo cells ``[value]``, under ``_long_key``s;
    ``keyed`` counts them.
    """

    __slots__ = ("code", "defs", "strict", "memo", "keep", "fuel", "keyed", "depth", "max_depth", "steps", "ks")

    def __init__(self, code: _ProgramCode, env: OracleEnv, cfg: EvalConfig) -> None:
        self.code, self.defs, self.strict = code, env._defs, cfg.guard_mode == "strict"
        self.memo, self.keep = ({}, code.keep) if cfg.memo else (None, frozenset())
        self.fuel, self.keyed = cfg.fuel, 0
        self.depth, self.max_depth, self.steps = 0, 0, 0
        self.ks: list[tuple] = []

    def call(self, name: str, us: tuple, vs: tuple) -> int:
        """Value of function ``name`` at ``us``, ``vs``: the machine loop.
        An exception ends the whole run."""
        ks, memo, keep, code, defs = self.ks, self.memo, self.keep, self.code, self.defs
        bodies = code.bodies
        base = len(ks)
        r = (name, us, vs)
        while True:
            while r.__class__ is tuple:  # a request: enter the callee
                fuel = self.fuel = self.fuel - 1
                if fuel < 0:
                    raise FuelExhausted(f"fuel exhausted calling {r[0]}")
                cell = None
                if r[0] in keep:
                    self.keyed += 1
                    cell = memo.setdefault(_long_key(*r), [None])
                    if cell[0] is not None:
                        r = cell[0]
                        break
                body = bodies.get(r[0]) or code._body(r[0])
                self.steps += 1
                self.depth += 1
                if self.depth > self.max_depth:
                    self.max_depth = self.depth
                ks.append((None, cell))  # the callee's end
                us, vs = r[1], r[2]
                r = body(us, vs, (defs, us, vs, self))
            # a value: hand it to the innermost frame
            if len(ks) == base:
                return r
            frame = ks.pop()
            if frame[0] is None:  # the end of a program call
                self.depth -= 1
                if frame[1] is not None:
                    frame[1][0] = r
            else:
                r = frame[0](r, frame)


def eval_pp(
    prog: PPProgram,
    fname: str,
    env: Optional[OracleEnv] = None,
    normals: Sequence[int] = (),
    safes: Sequence[int] = (),
    cfg: Optional[EvalConfig] = None,
    stats: Optional[EvalStats] = None,
) -> int:
    """Run a named function of a prefix-permutation program.

    The program's compiled code is kept with it for the next run; the
    memo, fuel and stack are this run's alone; calls of the functions in
    ``_ProgramCode.keep`` keep memo entries, and only those.  Guarded
    calls that carry a descent certificate run unchecked; the others,
    those of ``descent_audit``, check their guard against the caller's
    arguments and give 0 on failure, or raise GuardViolation when
    ``cfg.guard_mode`` is "strict".

    Raises EvalError on an unknown function, on inputs of the wrong
    arity, on a negative input (values are natural numbers, and a
    certified call trusts that), and when a host oracle returns a
    negative value; FuelExhausted when ``cfg.fuel`` calls did not
    finish the run.
    """
    cfg = cfg or EvalConfig()
    code = _kept_code(prog)
    xs, ys = tuple(normals), tuple(safes)
    bad = code.mismatch(fname, len(xs), len(ys))
    if bad is not None:
        raise EvalError(bad)
    if any(v < 0 for v in xs + ys):
        raise EvalError(f"negative input to {fname}: values are natural numbers")
    run = _Run(code, env or EMPTY_ORACLES, cfg)
    try:
        return run.call(fname, xs, ys)
    finally:
        run.ks.clear()  # frames of a run cut short hold b, and b holds the run
        if stats is not None:
            stats.steps += run.steps
            stats.max_depth = max(stats.max_depth, run.max_depth)
            if run.memo is not None:  # the calls made, less those that looked up an entry
                stats.memo_keys = len(run.memo) + cfg.fuel - max(run.fuel, 0) - run.keyed


# ---------------------------------------------------------------------------
# Syntactic class membership


_REC_KINDS = {
    "B": (SRecN,),
    "SB": (SRecN, SNRec),
    "NB": (SRecN, SNRec),
    "Bpp": (SRecN, SRecPP, SimRecPP),
    "SBpp": (SRecN, SNRec, SRecPP, SNRecPP, SimRecPP),
    "NBpp": (SRecN, SNRec, SRecPP, SNRecPP, SimRecPP),
}
_UNNESTED = {"SB", "Bpp", "SBpp"}
_PP = {"Bpp", "SBpp", "NBpp"}


def check_term_class(term, cls: str, *, _peers_bearing: frozenset[str] = frozenset()) -> list[str]:
    """Syntactic membership check; empty list means the term belongs.

    ``term`` may be a Term, a TermDef, or a whole PPProgram (each
    function body is then checked with its guarded peers as oracles).
    One ``fold``, so linear time and no Python frame per level.  A node's
    messages precede its subterms', a call argument's just before the
    argument's own; a subterm object shared at several places reports
    once, at its first place.  A non-term raises ValueError.
    """
    if cls not in _REC_KINDS:
        raise ValueError(f"unknown class {cls!r}")
    if isinstance(term, TermDef):
        term = term.body
    if isinstance(term, PPProgram):
        return _check_program_class(term, cls)
    unnested, pp, kinds, peers = cls in _UNNESTED, cls in _PP, _REC_KINDS[cls], _peers_bearing

    def step(t: Term, kids: list) -> tuple:
        """(does ``t`` bear, None or a tuple of its messages and its children's reports)."""
        flags, report = [b for b, _ in kids], []
        if isinstance(t, (OracleCall, Call)):
            head, split = _bears(t, (), peers), len(t.normal_args)
            for i, (a, (bears, sub)) in enumerate(zip(children(t), kids)):
                if i < split and bears:
                    report.append(f"oracle-bearing term in normal position of {t.name}")
                elif i < split and not isinstance(a, (Proj, Zero)) and head and not pp:
                    report.append(
                        f"computed normal argument of {t.name} needs the relaxed "
                        "composition rule, absent from this class"
                    )
                elif i >= split and head and unnested and bears:
                    report.append(f"nested call: oracle-bearing safe argument of {t.name}")
                report.append(sub)
            return _bears(t, flags, peers), tuple(report) if any(report) else None
        if isinstance(t, CompSafe):
            if unnested and flags[0] and flags[1]:
                report.append("nested safe composition: neither side is oracle-free")
        elif isinstance(t, CompNormal):
            if flags[1]:
                report.append("composition along a normal parameter with oracle-using g")
            if not pp and flags[0]:
                report.append(
                    "composition along a normal parameter with oracle-using h "
                    "needs the relaxed rule, absent from this class"
                )
        elif isinstance(t, (SRecN, SNRec, SRecPP, SNRecPP, SimRecPP)):
            if not isinstance(t, kinds):
                report.append(f"{type(t).__name__} is not a recursion scheme of {cls}")
            if isinstance(t, SNRec) and flags[0]:
                report.append("base case of nested recursion must be oracle-free")
            if isinstance(t, SimRecPP) and cls == "Bpp" and not t.guard_safes:
                report.append("simultaneous scheme without safe guards is not available here")
        # initial functions, conditional branches and tag cases add none
        report.extend([sub for _, sub in kids if sub])
        return any(flags), tuple(report) or None

    violations, seen, stack = [], set(), [fold(term, step)[1]]
    while stack:  # flatten the reports in pre-order, each shared one once
        r = stack.pop()
        if isinstance(r, str):
            violations.append(r)
        elif r is not None and id(r) not in seen:
            seen.add(id(r))
            stack.extend(reversed(r))
    return violations


def _bears(t: Term, kid_flags: Sequence[bool], peers: Optional[frozenset[str]]) -> bool:
    """Does ``t`` contain an oracle call or a bearing program call, given
    whether each of its children does?  With ``peers`` None every Call
    bears (bound synthesis: a call's output length is unknown); with a
    set of names only guarded calls and calls to those peers bear (the
    class check: plain composition with an earlier function is oracle-free).
    """
    head = isinstance(t, Call) and (peers is None or t.guard is not None or t.name in peers)
    return head or isinstance(t, OracleCall) or any(kid_flags)


def _check_program_class(prog: PPProgram, cls: str) -> list[str]:
    """Functions under their own names, known callees at their arities,
    guards where ``_must_guard`` asks (in Bpp on the safes too) on as many
    arguments as the caller's, and each body in ``cls`` with its guarded
    peers as oracles.  Each ``Call`` object reports once, in pre-order."""
    if cls not in _PP:
        return [f"programs with guarded calls live in the pp classes, not {cls}"]
    violations = [f"{nm}: holds function {fn.name!r}" for nm, fn in prog.functions.items() if fn.name != nm]
    calls, must_guard = _kept_code(prog).calls, _must_guard(prog.call_graph())
    for nm, fn in prog.functions.items():
        for c in calls[nm]:
            callee, m, n = prog.functions.get(c.name), len(c.normal_args), len(c.safe_args)
            if callee is None:
                violations.append(f"{nm}: call to unknown function {c.name!r}")
            elif (m, n) != (callee.normals, callee.safes):
                violations.append(f"{nm}: call to {c.name} with wrong arity")
            if c.guard is None and must_guard(nm, c.name):
                peer = "itself" if c.name == nm else f"mutual peer {c.name}"
                violations.append(f"{nm}: unguarded call to {peer}")
            if cls == "Bpp" and c.guard not in (None, "strict_safe"):
                violations.append(f"{nm}: call to {c.name} lacks the safe-zone guard")
            if c.guard is not None and (m != fn.normals or c.guard == "strict_safe" and n != fn.safes):
                violations.append(f"{nm}: guarded call to {c.name} at ({m};{n}) against ({fn.normals};{fn.safes})")
        peers = frozenset(c.name for c in calls[nm] if must_guard(nm, c.name))
        violations.extend(f"{nm}: {v}" for v in check_term_class(fn.body, cls, _peers_bearing=peers))
    return violations


# ---------------------------------------------------------------------------
# Descent certificates for guarded calls


class Uncertified(NamedTuple):
    """A guarded call with no descent certificate (``descent_audit``):
    the calling function, the call, and why, "no match" or "no strict
    match"."""

    caller: str
    call: Call
    reason: str


def descent_audit(prog: PPProgram) -> list[Uncertified]:
    """The guarded calls of ``prog`` that carry no descent certificate,
    by function and, in each body, in pre-order; empty when the program
    text proves every guard.

    A certificate is the size-change principle restricted to prefix
    descent (Lee, Jones & Ben-Amram, POPL 2001), read off the call
    site: each normal argument is one of the caller's own normals under
    zero or more ``p``, or ``0``, matched injectively, and at least one
    ``p`` lies inside a ``cond`` branch that knows its normal is nonzero,
    so the normals descend strictly in the prefix-permutation order.
    Under ``strict_safe`` the safes match the same way, not strictly.
    Inside a recursion scheme or a tag dispatch no argument counts as
    the caller's own.  ``eval_pp`` checks exactly these calls at run
    time: the audit reads the code it keeps (``_kept_code``).
    """
    uncertified = _kept_code(prog).uncertified
    return [u for nm in prog.functions for u in uncertified[nm]]


def _descent_gap(call: Call, m: int, n: int, nonzero: frozenset) -> Optional[str]:
    """Why the guarded ``call`` has no descent certificate, where the
    caller has ``m`` normals and ``n`` safes and its normals ``nonzero``
    are known to be nonzero; None when it has one (``descent_audit``)."""
    normals = _own(call.normal_args, "n", m)
    if normals is None or call.guard == "strict_safe" and _own(call.safe_args, "s", n) is None:
        return "no match"
    if not any(r and i in nonzero for i, r in normals):
        return "no strict match"
    return None


def _own(args: tuple, sort: str, count: int) -> Optional[list[tuple[int, int]]]:
    """``(i, r)`` for each of ``args`` that is the caller's parameter ``i``
    of ``sort`` under ``r`` ``p``s, skipping those that are 0, when every
    argument is one or the other, no two share a parameter and there are
    ``count`` of them, the caller's number of that sort; else None."""
    if len(args) != count:
        return None
    out = []
    for a in args:
        leaf, r, k, c = _chain(a)
        if isinstance(leaf, Zero) and not c:
            continue
        if k or not isinstance(leaf, Proj) or leaf.sort != sort or leaf.index >= count:
            return None
        out.append((leaf.index, r))
    return out if len({i for i, _ in out}) == len(out) else None
