"""Evaluators for proof graphs and for function-algebra terms.

Proof graphs are run as equational programs on an explicit work stack
(cycles unfold lazily, a fuel budget bounds the number of rule-step
expansions).  Terms are a two-sorted function algebra with oracles and
the recursion schemes on notation and on permutations of prefixes;
programs over the prefix-permutation order add guarded calls between
named functions.  Memo entries are kept only where a run can read them.

Terms and programs compile once into closures for fixed argument counts
(``eval_term`` caches them per term; a program keeps its compiled
bodies, each compiled on its first call, while its functions stay the
same objects).  A run's state travels with it, never in the code.
Recursion names are scoped lexically: a program body sees only the
host's oracles.  A chain of ``s0``/``s1``/``p`` compiles to one prefix
edit, ``srec`` runs as a loop over the prefixes of its recursion
argument (inline over its bits when both steps are edits of the
recursion value or constants), so neither recurses once per chain link
or input bit.  ``snrec`` binds its recursion name to the level below
the step, a cell whose argument tuple and bindings are built on the
level's first call and kept, so the exponentially many recursive calls
into one level share them and each is one call of the step; a call
that passes the safes through unchanged does not copy them.
``eval_pp`` keeps pending program calls on its own stack: the code on
the path from a body to its calls hands each call to one loop as a
request, so program-call depth uses no Python frames; the depth of
terms other than chains does.
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
    the first expansion, under ``_long_key``s: a run with an entry at
    every node finds its hits only there if it returns.  So a run that
    returns has that run's value, steps, fuel, memo hits and
    ``memo_keys``, and so does a run cut short on the way (out of fuel,
    say).  A run that never returns may expand again a key that the
    other run would find in its memo, so it may run out of fuel while
    expanding another node.  Successor steps with no other continuation
    between them share one frame, which returns ``v << count | bits`` at
    once.
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

    nodes = graph.nodes
    fuel = cfg.fuel
    memo: Optional[dict] = {} if cfg.memo else None
    repeat = _repeatable(graph, nid) if cfg.memo else ()  # nodes that keep memo entries
    keyed = 0  # expansions that looked up an entry
    work: list = []  # continuations, innermost last
    n, xs, ys = nid, tuple(normals), tuple(safes)
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
                    else:
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
# ys), a memo cell's (_STORE, cell), and a run of successors'
# [_SUCC, bits, count], which returns v << count | bits
_SUCC, _STORE = "succ", "store"


_bits = int.bit_length


def _long_key(n: str, xs: tuple, ys: tuple) -> tuple:
    """The memo key of both evaluators, which adds the inputs' bit
    lengths: an int hashes to itself modulo 2**61 - 1, so appending 61
    one-bits to a value keeps its hash, and all-ones inputs or values
    grown by appending ones would share hashes."""
    return n, xs, ys, sum(map(_bits, xs)), sum(map(_bits, ys))


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
    return frozenset(n for n in _reach(adj, seconds) & nodes.keys() if ways[n] > 1)


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


def _edit_code(term: Term, m: int, n: int, scope: tuple, prog: Optional["_ProgramCode"]):
    """``_compile`` of an ``s0``/``s1``/``p`` chain: one edit, fused into
    a constant or projection leaf.  An edit with k = 0 (so c = 0) is a
    bare right shift."""
    leaf, r, k, c = _chain(term)
    if isinstance(leaf, Zero):
        return lambda xs, ys, b: c
    if not (r or k):  # p(s0(t)) is t
        return _compile(leaf, m, n, scope, prog)
    if isinstance(leaf, Proj) and leaf.index < (m if leaf.sort == "n" else n):
        i = leaf.index
        if leaf.sort == "n":
            return (lambda xs, ys, b: xs[i] >> r << k | c) if k else lambda xs, ys, b: xs[i] >> r
        return (lambda xs, ys, b: ys[i] >> r << k | c) if k else lambda xs, ys, b: ys[i] >> r
    t = _compile(leaf, m, n, scope, prog)
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


def _compile(term: Term, m: int, n: int, scope: tuple, prog: Optional["_ProgramCode"]):
    """Code of ``term`` at ``m`` normal and ``n`` safe arguments.

    ``scope`` holds the recursion names bound around ``term``, outermost
    first, as ``(name, guard, normals, safes)``: guard None for nested
    recursion, else whether the safes are guarded too.  ``prog`` resolves
    named calls (None outside programs).
    """
    if isinstance(term, Zero):
        return lambda xs, ys, b: 0
    if isinstance(term, Proj):
        i, normal = term.index, term.sort == "n"
        if i >= (m if normal else n):
            return _fail(f"projection {'n' if normal else 's'}{i} out of range")
        return (lambda xs, ys, b: xs[i]) if normal else (lambda xs, ys, b: ys[i])
    if isinstance(term, _EDITS):
        return _edit_code(term, m, n, scope, prog)
    if isinstance(term, Cond):
        return _cond(*(_compile(t, m, n, scope, prog) for t in (term.w, term.x, term.y, term.z)))
    if isinstance(term, (OracleCall, Call)):
        nargs = [_compile(a, m, n, scope, prog) for a in term.normal_args]
        sargs = [_compile(a, m, n, scope, prog) for a in term.safe_args]
        if isinstance(term, Call):
            return _named_call(term, nargs, sargs, prog)
        for k in range(len(scope) - 1, -1, -1):
            name, guard, bm, bn = scope[k]
            if name == term.name:
                if len(nargs) != bm or len(sargs) != bn:  # the arguments run, then this raises
                    return _apply(nargs, sargs, _fail(f"oracle {name!r} arity mismatch"))
                if guard is None:
                    return _nested_call(_FIXED + k, term.safe_args, sargs, n)
                return _rec_call(_FIXED + k, guard, nargs, sargs)
        return _oracle_call(term.name, _apply(nargs, sargs, _host_call(term)))
    if isinstance(term, CompSafe):
        h, g = _compile(term.h, m, n + 1, scope, prog), _compile(term.g, m, n, scope, prog)
        return lambda xs, ys, b: h(xs, ys + (g(xs, ys, b),), b)
    if isinstance(term, CompNormal):
        h, g = _compile(term.h, m + 1, n, scope, prog), _compile(term.g, m, 0, scope, prog)
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
    """``srec`` whose steps are ``_step_edit``s: the edits run inline over
    the bits of the recursion argument, most significant first, with
    no step call and no argument tuple per bit."""

    def run(xs, ys, b):
        x0 = xs[0]
        if x0 < 0:
            raise EvalError("srec on a negative input")
        v = g(xs[1:], ys, b)
        for d in format(x0, "b") if x0 else "":
            r, k, c, keep = e1 if d == "1" else e0
            if not keep:
                v = c
            elif r:
                v = v >> r << k | c
            else:
                v = v << k | c
        return v

    return run


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
    if [t.index if isinstance(t, Proj) and t.sort == "s" else None for t in terms] == list(range(n)):

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


def _apply(nargs: list, sargs: list, finish):
    """Code evaluating ``nargs`` and ``sargs``, then ``finish(normals,
    safes, b)`` on their values."""
    us, vs = _tuple_of(nargs), _tuple_of(sargs)
    return lambda xs, ys, b: finish(us(xs, ys, b), vs(xs, ys, b), b)


def _oracle_call(name: str, args):
    """A call of the host oracle ``name``: looked up when it runs, before
    ``args`` evaluates the arguments and finishes (``_host_call``)."""

    def run(xs, ys, b):
        if name not in b[0]:
            raise EvalError(f"unknown oracle {name!r}")
        return args(xs, ys, b)

    return run


def _host_call(term: OracleCall):
    """``finish`` applying the host oracle of ``term`` to the argument values."""
    name, m, n = term.name, len(term.normal_args), len(term.safe_args)

    def finish(u, v, b):
        d = b[0][name]
        if d.normals != m or d.safes != n:
            raise EvalError(f"oracle {name!r} arity mismatch")
        return d.fn(u, v)

    return finish


@functools.lru_cache(maxsize=256)
def _term_code(term: Term, normals: int, safes: int):
    return _compile(term, normals, safes, (), None)


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

    ``eval_pp`` keeps its compiled code and memo policy here, one
    ``_ProgramCode`` per guard mode, and uses it again while
    ``functions`` holds the same ``PPFunction`` objects.
    """

    functions: dict[str, PPFunction]
    guard: str = "strict"  # family default: "strict" or "strict_safe"
    _code: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def validate(self) -> None:
        for fn in self.functions.values():
            for c in _calls(fn.body):
                if c.name not in self.functions:
                    raise EvalError(f"{fn.name} calls unknown function {c.name!r}")
                callee = self.functions[c.name]
                if len(c.normal_args) != callee.normals or len(c.safe_args) != callee.safes:
                    raise EvalError(f"{fn.name} calls {c.name} with wrong arity")

    def call_graph(self) -> dict[str, tuple[str, ...]]:
        """Callee names of each function, sorted, for ``kernel.sccs``."""
        return {
            nm: tuple(sorted({c.name for c in _calls(fn.body)}))
            for nm, fn in self.functions.items()
        }


def _calls(term: Term) -> list[Call]:
    """Every Call inside ``term``, in depth-first order."""
    out: list[Call] = []
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Call):
            out.append(t)
        stack.extend(children(t))
    return out


class _ProgramCode:
    """A program's compiled bodies for one guard mode, shared by its runs.

    A body compiles the first time a run enters its function.  Subterms
    with no call outside a recursion scheme compile to ``_compile``'s
    closures; the rest, the path from the body to its calls, compile to
    code that returns a request ``(callee, normals, safes)`` in place of
    a value once it reaches a call (guard already checked), leaving on
    the run's stack ``b[3].ks`` the frames that finish the caller:
    ``frame[0](value, frame)`` takes the callee's value and returns the
    next value or request.  ``_Run.call`` runs that loop.

    The code holds no state of a run; each run passes its own in b[3].
    A call site's arity check reads its callee when the site compiles,
    so the code keeps the functions it was built from and serves only a
    program that holds those very objects (``current``).

    ``keep`` holds the functions whose calls keep memo entries: those
    reachable in the call graph from a callee of a body that can make
    two calls in one activation (``_walk``).  As in ``_repeatable``, two
    calls with one key lie below two calls of their lowest common activation.
    """

    __slots__ = ("functions", "strict", "bodies", "marks", "keep")

    def __init__(self, functions: dict[str, PPFunction], strict: bool) -> None:
        self.functions, self.strict = dict(functions), strict
        self.bodies: dict[str, Callable] = {}
        self.marks: dict[str, set] = {}  # each body's suspending subterms, until it compiles
        calls, starts = {}, []
        for name, fn in self.functions.items():
            self.marks[name], calls[name], twice = _walk(fn.body)
            starts += calls[name] if twice else ()
        self.keep = frozenset(_reach(calls, starts))

    def current(self, functions: dict[str, PPFunction]) -> bool:
        """Does ``functions`` hold exactly the objects this code was built from?"""
        own = self.functions
        return len(functions) == len(own) and all(functions.get(k) is f for k, f in own.items())

    def mismatch(self, name: str, m: int, n: int) -> Optional[str]:
        """Why function ``name`` cannot take m normals and n safes, or None."""
        fn = self.functions.get(name)
        if fn is None:
            return f"unknown function {name!r}"
        if (m, n) != (fn.normals, fn.safes):
            return f"{name} expects ({fn.normals};{fn.safes}) arguments"
        return None

    def _body(self, name: str) -> Callable:
        """Compile function ``name``'s body along the marks of ``_walk``."""
        fn = self.functions[name]
        code = self.bodies[name] = self._code(fn.body, fn.normals, fn.safes, self.marks.pop(name))
        return code

    def _code(self, t: Term, m: int, n: int, suspends: set):
        """Code of body subterm ``t`` at ``m`` normals and ``n`` safes:
        ``_compile``'s closure unless ``t`` is in ``suspends``."""
        if id(t) not in suspends:
            return _compile(t, m, n, (), self)
        if isinstance(t, (Call, OracleCall)):
            args = [self._code(a, m, n, suspends) for a in t.normal_args + t.safe_args]
            flags = [id(a) in suspends for a in t.normal_args + t.safe_args]
            if isinstance(t, Call):
                return self._request(t, args, flags)
            return _oracle_call(t.name, _args(args, flags, len(t.normal_args), _host_call(t)))
        if isinstance(t, _EDITS):  # the chain's leaf suspends: one frame applies the whole edit
            leaf, r, k, c = _chain(t)
            return _then(self._code(leaf, m, n, suspends), lambda v, fr: v >> r << k | c)
        if isinstance(t, Cond):
            w, x, y, z = (self._code(c, m, n, suspends) for c in (t.w, t.x, t.y, t.z))
            if id(t.w) not in suspends:
                return _cond(w, x, y, z)

            def pick(v, fr):
                _, xs, ys, b = fr
                return (x if v == 0 else y if v % 2 == 0 else z)(xs, ys, b)

            return _then(w, pick)
        if isinstance(t, CompSafe):
            h, g = self._code(t.h, m, n + 1, suspends), self._code(t.g, m, n, suspends)
            if id(t.g) not in suspends:
                return lambda xs, ys, b: h(xs, ys + (g(xs, ys, b),), b)
            return _then(g, lambda v, fr: h(fr[1], fr[2] + (v,), fr[3]))
        if isinstance(t, CompNormal):
            h, g = self._code(t.h, m + 1, n, suspends), self._code(t.g, m, 0, suspends)
            if id(t.g) not in suspends:
                return lambda xs, ys, b: h(xs + (g(xs, (), b),), ys, b)
            return _then(lambda xs, ys, b: g(xs, (), b), lambda v, fr: h(fr[1] + (v,), fr[2], fr[3]))
        raise AssertionError(f"{type(t).__name__} cannot suspend")  # pragma: no cover

    def _request(self, term: Call, args: list, flags: list):
        """Code of a call site (``_args`` over the argument code ``args``):
        the arguments, the guard against the caller's frame, then the
        request.  A failed guard gives 0, or GuardViolation in strict
        mode; after the guard, an unknown callee or a wrong arity raises."""
        name, m = term.name, len(term.normal_args)
        bad = self.mismatch(name, m, len(term.safe_args))
        guard, strict, safe_guard = term.guard is not None, self.strict, term.guard == "strict_safe"

        def finish(u, v, b):
            if guard and (not tuple_below(u, b[1], True) or safe_guard and not tuple_below(v, b[2], False)):
                if strict:
                    raise GuardViolation(f"guarded call to {name} with normals {u} against frame {b[1]}")
                return 0
            if bad is not None:
                raise EvalError(bad)
            return (name, u, v)

        return _args(args, flags, m, finish)


# Subterms whose calls run through ``_compile``'s closures, never suspending.
_OPAQUE = (SRecN, SNRec, SRecPP, SNRecPP, SimRecPP, TagDispatch)


def _walk(body: Term) -> tuple[set, set, bool]:
    """One pass over a program body: the ids of the subterms that can
    suspend (with a call outside ``_OPAQUE`` forms), the names it calls,
    and whether an activation can make two calls: a conditional counts
    its condition and costliest branch, a call inside an ``_OPAQUE`` form
    (which may run it again) two, and other forms the sum of their parts."""
    suspends, callees = set(), set()

    def mark(t: Term, kids: list[tuple[bool, int]]) -> tuple[bool, int]:
        s, count = any([k[0] for k in kids]), sum([k[1] for k in kids])
        if isinstance(t, Call):
            callees.add(t.name)
            s, count = True, count + 1
        elif isinstance(t, _OPAQUE):
            s, count = False, 2 * count
        elif isinstance(t, Cond):
            count = kids[0][1] + max(k[1] for k in kids[1:])
        if s:
            suspends.add(id(t))
        return s, count

    return suspends, callees, fold(body, mark)[1] > 1


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
        return _apply(args[:m], args[m:], finish)
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


def _named_call(term: Call, nargs: list, sargs: list, prog: Optional[_ProgramCode]):
    """A call of a program function from ``_compile``'s closures: the
    call site's request, run to its value by a nested ``_Run.call``."""
    if prog is None:
        return _fail("named calls only occur inside programs")
    request = prog._request(term, nargs + sargs, [False] * (len(nargs) + len(sargs)))

    def run(xs, ys, b):
        r = request(xs, ys, b)
        return b[3].call(*r) if r.__class__ is tuple else r

    return run


class _Run:
    """The state of one ``eval_pp`` run, and the machine loop over it.

    ``call`` runs the program's code with the pending program calls on
    the run's own stack ``ks``, so program-call depth uses no Python
    frames.  ``translate`` never puts a call inside a recursion scheme
    or a tag dispatch.  A program that does gets such calls compiled by
    ``_compile`` as closures that run ``call`` again, one Python-level
    loop per active call of that kind, sharing the run's fuel, memo,
    statistics and stack.  Only calls of the code's ``keep`` look up
    memo cells ``[value]``, under ``_long_key``s; ``keyed`` counts them.
    """

    __slots__ = ("code", "defs", "memo", "keep", "fuel", "keyed", "depth", "max_depth", "steps", "ks")

    def __init__(self, code: _ProgramCode, env: OracleEnv, cfg: EvalConfig) -> None:
        self.code, self.defs = code, env._defs
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
    ``_ProgramCode.keep`` keep memo entries, and only those.
    """
    cfg = cfg or EvalConfig()
    strict = cfg.guard_mode == "strict"
    code = prog._code.get(strict)
    if code is None or not code.current(prog.functions):  # first run, or the functions changed
        code = prog._code[strict] = _ProgramCode(prog.functions, strict)
    xs, ys = tuple(normals), tuple(safes)
    bad = code.mismatch(fname, len(xs), len(ys))
    if bad is not None:
        raise EvalError(bad)
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
    if cls not in _PP:
        return [f"programs with guarded calls live in the pp classes, not {cls}"]
    violations: list[str] = []
    calls = prog.call_graph()
    comps = sccs(calls)
    comp_of = {nm: i for i, scc in enumerate(comps) for nm in scc}
    for fn in prog.functions.values():
        peers = frozenset(
            nm for nm in comps[comp_of[fn.name]] if nm != fn.name or fn.name in calls[fn.name]
        )
        for c in _calls(fn.body):
            if c.guard is not None:
                if cls == "Bpp" and c.guard != "strict_safe":
                    violations.append(f"{fn.name}: call to {c.name} lacks the safe-zone guard")
                if comp_of[c.name] > comp_of[fn.name]:
                    violations.append(f"{fn.name}: guarded call forward to {c.name}")
            elif comp_of.get(c.name) == comp_of[fn.name] and c.name != fn.name:
                violations.append(f"{fn.name}: unguarded call to mutual peer {c.name}")
        violations.extend(
            f"{fn.name}: {v}" for v in check_term_class(fn.body, cls, _peers_bearing=peers)
        )
    return violations
