"""Evaluators for proof graphs and for function-algebra terms.

Proof graphs are run as equational programs on an explicit work stack
(cycles unfold lazily, a fuel budget bounds the number of rule-step
expansions).  Terms are a two-sorted function algebra with oracles and
the recursion schemes on notation and on permutations of prefixes;
programs over the prefix-permutation order add guarded calls between
named functions.

Terms and programs compile once into closures for fixed argument counts
(``eval_term`` caches them, ``eval_pp`` compiles a body on its first
call).  Recursion names are scoped lexically: a program body sees only
the host's oracles.  ``srec`` runs as a loop over the prefixes of its
recursion argument, so it does not recurse once per input bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from operator import attrgetter, is_
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar

from .kernel import (
    ProofGraph,
    RuleKind,
    sccs,
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
    """Value of the sub-proof at ``nid`` applied to the given inputs."""
    cfg = cfg or EvalConfig()
    node = graph.nodes.get(nid)
    if node is None:
        raise EvalError(f"no node {nid!r}")
    if len(normals) != node.sequent.boxed or len(safes) != node.sequent.plain:
        raise EvalError(
            f"arity mismatch at {nid}: sequent {node.sequent} vs "
            f"{len(normals)} normals, {len(safes)} safes"
        )

    fuel = cfg.fuel
    memo: Optional[dict] = {} if cfg.memo else None
    vstack: list[int] = []
    work: list[tuple] = [("ev", nid, tuple(normals), tuple(safes))]

    while work:
        item = work.pop()
        op = item[0]
        if op == "ev":
            _, n, xs, ys = item
            fuel -= 1
            if stats is not None:
                stats.steps += 1
            if fuel < 0:
                raise FuelExhausted(f"fuel exhausted while expanding {n}")
            key = (n, xs, ys)
            if memo is not None:
                hit = memo.get(key)
                if hit is not None:
                    vstack.append(hit)
                    continue
                work.append(("memo", key))
            nd = graph.nodes[n]
            kind = nd.rule.kind
            pr = nd.premises
            if kind is RuleKind.ID:
                vstack.append(ys[0])
            elif kind is RuleKind.ZERO:
                vstack.append(0)
            elif kind is RuleKind.S0:
                work.append(("succ", 0))
                work.append(("ev", pr[0], xs, ys))
            elif kind is RuleKind.S1:
                work.append(("succ", 1))
                work.append(("ev", pr[0], xs, ys))
            elif kind is RuleKind.WEAK_N:
                work.append(("ev", pr[0], xs, ys[:-1]))
            elif kind is RuleKind.WEAK_B:
                work.append(("ev", pr[0], xs[1:], ys))
            elif kind is RuleKind.EXCH_N:
                p = nd.rule.pos
                ys2 = ys[:p] + (ys[p + 1], ys[p]) + ys[p + 2 :]
                work.append(("ev", pr[0], xs, ys2))
            elif kind is RuleKind.EXCH_B:
                p = nd.rule.pos
                xs2 = xs[:p] + (xs[p + 1], xs[p]) + xs[p + 2 :]
                work.append(("ev", pr[0], xs2, ys))
            elif kind is RuleKind.BOX_L:
                work.append(("ev", pr[0], xs[1:], ys + (xs[0],)))
            elif kind is RuleKind.BOX_R:
                work.append(("ev", pr[0], xs, ys))
            elif kind is RuleKind.CUT_N:
                work.append(("cutN", pr[1], xs, ys))
                work.append(("ev", pr[0], xs, ys))
            elif kind is RuleKind.CUT_B:
                work.append(("cutB", pr[1], xs, ys))
                work.append(("ev", pr[0], xs, ys))
            elif kind is RuleKind.COND_N:
                w = ys[-1]
                if w == 0:
                    work.append(("ev", pr[0], xs, ys[:-1]))
                elif w % 2 == 0:
                    work.append(("ev", pr[1], xs, ys[:-1] + (w >> 1,)))
                else:
                    work.append(("ev", pr[2], xs, ys[:-1] + (w >> 1,)))
            elif kind is RuleKind.COND_B:
                x0 = xs[0]
                if x0 == 0:
                    work.append(("ev", pr[0], xs[1:], ys))
                elif x0 % 2 == 0:
                    work.append(("ev", pr[1], (x0 >> 1,) + xs[1:], ys))
                else:
                    work.append(("ev", pr[2], (x0 >> 1,) + xs[1:], ys))
            elif kind is RuleKind.SREC:
                x0 = xs[0]
                if x0 == 0:
                    work.append(("ev", pr[0], xs[1:], ys))
                else:
                    xs2 = (x0 >> 1,) + xs[1:]
                    # the step takes the recursive value as a plain cut's right premise would
                    work.append(("cutN", pr[1 + (x0 & 1)], xs2, ys))
                    work.append(("ev", n, xs2, ys))
            elif kind is RuleKind.ORACLE:
                if oracles is None or nd.rule.oracle not in oracles:
                    raise EvalError(f"oracle {nd.rule.oracle!r} not supplied at {n}")
                vstack.append(oracles.lookup(nd.rule.oracle).fn(xs, ys))
            else:
                raise EvalError(f"rule {kind.value} at {n} is not evaluable")
        elif op == "memo":
            memo[item[1]] = vstack[-1]
            if stats is not None:
                stats.memo_keys = len(memo)
        elif op == "succ":
            vstack.append(2 * vstack.pop() + item[1])
        elif op == "cutN":
            _, p1, xs, ys = item
            v = vstack.pop()
            work.append(("ev", p1, xs, ys + (v,)))
        elif op == "cutB":
            _, p1, xs, ys = item
            v = vstack.pop()
            work.append(("ev", p1, (v,) + xs, ys))
        else:  # pragma: no cover
            raise AssertionError(op)

    assert len(vstack) == 1
    return vstack[0]


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
    its components, TagDispatch its case bodies (never the tags).
    """
    return _CHILDREN[type(term)](term)


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
# compare against; None outside programs).  Each recursion scheme
# appends one binding per name it introduces, ``(code, bound, outer)``:
# the scheme's code, the arguments it was entered with and the bindings
# around it.  So a recursion name resolves at compile time to an index
# into b, and a recursive call runs in its scheme's scope, never in the
# caller's.  Arities are fixed by the term, so they are checked here
# once; a failed check compiles to code that raises when it is reached.

_FIXED = 3  # b[0..2] as above; recursion bindings follow


def _fail(msg: str):
    def run(*_):
        raise EvalError(msg)

    return run


def _tuple_of(args: list):
    """Code building the tuple of the values of ``args``, in order."""
    if len(args) == 1:
        (a,) = args
        return lambda xs, ys, b: (a(xs, ys, b),)
    if len(args) == 2:
        a, c = args
        return lambda xs, ys, b: (a(xs, ys, b), c(xs, ys, b))
    return lambda xs, ys, b: tuple([a(xs, ys, b) for a in args])


def _compile(term: Term, m: int, n: int, scope: tuple, prog: Optional["_Run"]):
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
    if isinstance(term, (S0, S1, Pred)):
        t = _compile(term.t, m, n, scope, prog)
        if isinstance(term, S0):
            return lambda xs, ys, b: 2 * t(xs, ys, b)
        if isinstance(term, S1):
            return lambda xs, ys, b: 2 * t(xs, ys, b) + 1
        return lambda xs, ys, b: t(xs, ys, b) >> 1
    if isinstance(term, Cond):
        w, x, y, z = (_compile(t, m, n, scope, prog) for t in (term.w, term.x, term.y, term.z))

        def run(xs, ys, b):
            v = w(xs, ys, b)
            if v == 0:
                return x(xs, ys, b)
            if v % 2 == 0:
                return y(xs, ys, b)
            return z(xs, ys, b)

        return run
    if isinstance(term, (OracleCall, Call)):
        nargs = [_compile(a, m, n, scope, prog) for a in term.normal_args]
        sargs = [_compile(a, m, n, scope, prog) for a in term.safe_args]
        if isinstance(term, Call):
            return _named_call(term, nargs, sargs, prog)
        for k in range(len(scope) - 1, -1, -1):
            if scope[k][0] == term.name:
                return _rec_call(term.name, _FIXED + k, scope[k], nargs, sargs)
        return _oracle_call(term.name, nargs, sargs)
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
        h = _compile(term.h, m, n, scope + ((term.rec_name, None, 0, n),), prog)

        def run(xs, ys, b):
            x0 = xs[0]
            if x0 == 0:
                return g(xs[1:], ys, b)
            rest = (x0 >> 1,) + xs[1:]
            return h(rest, ys, b + ((run, rest, b),))

        return run
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


def _rec_call(name: str, slot: int, binder: tuple, nargs: list, sargs: list):
    """A call of the recursion name bound at ``slot`` by ``binder``."""
    _, guard, bm, bn = binder
    if len(nargs) != bm or len(sargs) != bn:

        def bad(xs, ys, b):
            for a in nargs + sargs:
                a(xs, ys, b)
            raise EvalError(f"oracle {name!r} arity mismatch")

        return bad
    us, vs = _tuple_of(nargs), _tuple_of(sargs)
    if guard is None:  # nested recursion: f(pred x, rest; vs)
        if len(sargs) == 1:  # the hot case, without the tuple builder's call
            (a,) = sargs

            def nested(xs, ys, b):
                code, rest, outer = b[slot]
                return code(rest, (a(xs, ys, b),), outer)

        else:

            def nested(xs, ys, b):
                code, rest, outer = b[slot]
                return code(rest, vs(xs, ys, b), outer)

        return nested

    def guarded(xs, ys, b):  # prefix-permutation recursion: 0 below no descent
        code, (fx, fy), outer = b[slot]
        u, v = us(xs, ys, b), vs(xs, ys, b)
        if not tuple_below(u, fx, True) or guard and not tuple_below(v, fy, False):
            return 0
        return code(u, v, outer)

    return guarded


def _oracle_call(name: str, nargs: list, sargs: list):
    """A call of the host oracle ``name``, looked up when it runs."""
    us, vs, m, n = _tuple_of(nargs), _tuple_of(sargs), len(nargs), len(sargs)

    def run(xs, ys, b):
        d = b[0].get(name)
        if d is None:
            raise EvalError(f"unknown oracle {name!r}")
        u, v = us(xs, ys, b), vs(xs, ys, b)
        if d.normals != m or d.safes != n:
            raise EvalError(f"oracle {name!r} arity mismatch")
        return d.fn(u, v)

    return run


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
    return _term_code(term, len(xs), len(ys))(xs, ys, ((env or EMPTY_ORACLES)._defs, None, None))


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
    """Mutually recursive named functions with guarded calls."""

    functions: dict[str, PPFunction]
    guard: str = "strict"  # family default: "strict" or "strict_safe"

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


class _Run:
    """One ``eval_pp`` run: fuel, memo and stats shared by every call;
    each function body is compiled on its first call."""

    def __init__(self, prog: PPProgram, env: OracleEnv, cfg: EvalConfig, stats: Optional[EvalStats]) -> None:
        self.prog, self.defs, self.stats = prog, env._defs, stats
        self.strict = cfg.guard_mode == "strict"
        self.memo: Optional[dict] = {} if cfg.memo else None
        self.fuel, self.depth = cfg.fuel, 0
        self.entries: dict[str, Callable] = {}

    def entry(self, name: str, m: int, n: int) -> Callable:
        """``enter(us, vs)`` calling function ``name`` with m normals and
        n safes; it raises EvalError if there is no such function."""
        fn = self.prog.functions.get(name)
        if fn is None:
            return _fail(f"unknown function {name!r}")
        if (m, n) != (fn.normals, fn.safes):
            return _fail(f"{name} expects ({fn.normals};{fn.safes}) arguments")
        if name not in self.entries:
            self.entries[name] = self._enter(fn)
        return self.entries[name]

    def _enter(self, fn: PPFunction) -> Callable:
        name, defs, memo, stats = fn.name, self.defs, self.memo, self.stats
        body = None

        def enter(us, vs):
            nonlocal body
            self.fuel -= 1
            if self.fuel < 0:
                raise FuelExhausted(f"fuel exhausted calling {name}")
            if memo is not None:
                hit = memo.get((name, us, vs))
                if hit is not None:
                    return hit
            if body is None:
                body = _compile(fn.body, fn.normals, fn.safes, (), self)
            self.depth += 1
            if stats is not None:
                stats.steps += 1
                stats.max_depth = max(stats.max_depth, self.depth)
            v = body(us, vs, (defs, us, vs))  # an exception ends the whole run
            self.depth -= 1
            if memo is not None:
                memo[(name, us, vs)] = v
                if stats is not None:
                    stats.memo_keys = len(memo)
            return v

        return enter


def _named_call(term: Call, nargs: list, sargs: list, prog: Optional[_Run]):
    """A call of a program function, straight to its entry; a guarded
    call first compares its normals (and safes) with the caller's frame."""
    if prog is None:
        return _fail("named calls only occur inside programs")
    us, vs = _tuple_of(nargs), _tuple_of(sargs)
    enter = prog.entry(term.name, len(nargs), len(sargs))
    if term.guard is None:
        return lambda xs, ys, b: enter(us(xs, ys, b), vs(xs, ys, b))
    name, strict, safe_guard = term.name, prog.strict, term.guard == "strict_safe"

    def guarded(xs, ys, b):
        u, v = us(xs, ys, b), vs(xs, ys, b)
        if not tuple_below(u, b[1], True) or safe_guard and not tuple_below(v, b[2], False):
            if strict:
                raise GuardViolation(f"guarded call to {name} with normals {u} against frame {b[1]}")
            return 0
        return enter(u, v)

    return guarded


def eval_pp(
    prog: PPProgram,
    fname: str,
    env: Optional[OracleEnv] = None,
    normals: Sequence[int] = (),
    safes: Sequence[int] = (),
    cfg: Optional[EvalConfig] = None,
    stats: Optional[EvalStats] = None,
) -> int:
    """Run a named function of a prefix-permutation program."""
    run = _Run(prog, env or EMPTY_ORACLES, cfg or EvalConfig(), stats)
    xs, ys = tuple(normals), tuple(safes)
    return run.entry(fname, len(xs), len(ys))(xs, ys)


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
    """
    if cls not in _REC_KINDS:
        raise ValueError(f"unknown class {cls!r}")
    if isinstance(term, TermDef):
        term = term.body
    if isinstance(term, PPProgram):
        return _check_program_class(term, cls)
    violations: list[str] = []
    _uses(term, cls, violations, _peers_bearing)
    return violations


def is_bearing(term: Term, peers: Optional[frozenset[str]] = None) -> bool:
    """Does the term contain an oracle call or a bearing program call?

    With ``peers`` None every Call bears (the bound synthesis reading: a
    call's output length is unknown).  With a set of names only guarded
    calls and calls to those peers bear (the class-check reading: plain
    composition with an earlier function is oracle-free).
    """
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, OracleCall):
            return True
        if isinstance(t, Call) and (peers is None or t.guard is not None or t.name in peers):
            return True
        stack.extend(children(t))
    return False


def _uses(term: Term, cls: str, out: list[str], peers: frozenset[str]) -> None:
    if isinstance(term, (Zero, Proj)):
        return
    unnested = cls in _UNNESTED
    pp = cls in _PP
    if isinstance(term, (OracleCall, Call)):
        bearing_head = isinstance(term, OracleCall) or term.guard is not None or term.name in peers
        for a in term.normal_args:
            if is_bearing(a, peers):
                out.append(f"oracle-bearing term in normal position of {_name(term)}")
            elif not isinstance(a, (Proj, Zero)) and bearing_head and not pp:
                out.append(
                    f"computed normal argument of {_name(term)} needs the relaxed "
                    "composition rule, absent from this class"
                )
            _uses(a, cls, out, peers)
        for a in term.safe_args:
            if bearing_head and unnested and is_bearing(a, peers):
                out.append(f"nested call: oracle-bearing safe argument of {_name(term)}")
            _uses(a, cls, out, peers)
        return
    if isinstance(term, CompSafe):
        if unnested and is_bearing(term.h, peers) and is_bearing(term.g, peers):
            out.append("nested safe composition: neither side is oracle-free")
    elif isinstance(term, CompNormal):
        if is_bearing(term.g, peers):
            out.append("composition along a normal parameter with oracle-using g")
        if not pp and is_bearing(term.h, peers):
            out.append(
                "composition along a normal parameter with oracle-using h "
                "needs the relaxed rule, absent from this class"
            )
    elif isinstance(term, (SRecN, SNRec, SRecPP, SNRecPP, SimRecPP)):
        if not isinstance(term, _REC_KINDS[cls]):
            # still recurse below to surface deeper issues
            out.append(f"{type(term).__name__} is not a recursion scheme of {cls}")
        if isinstance(term, SNRec) and is_bearing(term.g, peers):
            out.append("base case of nested recursion must be oracle-free")
        if isinstance(term, SimRecPP) and cls == "Bpp" and not term.guard_safes:
            out.append("simultaneous scheme without safe guards is not available here")
    elif not isinstance(term, Term):
        raise ValueError(f"unknown term {term!r}")
    # initial functions, conditional branches and tag cases only recurse
    for t in children(term):
        _uses(t, cls, out, peers)


def _name(term: Term) -> str:
    return getattr(term, "name", type(term).__name__)


def _check_program_class(prog: PPProgram, cls: str) -> list[str]:
    if cls not in _PP:
        return [f"programs with guarded calls live in the pp classes, not {cls}"]
    violations: list[str] = []
    calls = prog.call_graph()
    comps = sccs(calls)
    comp_of = {}
    for i, scc in enumerate(comps):
        for nm in scc:
            comp_of[nm] = i
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
