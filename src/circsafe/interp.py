"""Evaluators for proof graphs and for function-algebra terms.

Proof graphs are run as equational programs on an explicit work stack
(cycles unfold lazily, a fuel budget bounds the number of rule-step
expansions).  Terms are a two-sorted function algebra with oracles and
the recursion schemes on notation and on permutations of prefixes;
programs over the prefix-permutation order add guarded calls between
named functions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar

from .kernel import (
    ProofGraph,
    RuleKind,
    TupleOrder,
    sccs,
    tuple_order,
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
    """Host-supplied total functions keyed by name, with declared arities.

    Extension is a cheap chain link; recursion extends the environment
    once per unfolding, so lookups walk at most the nesting depth.
    """

    __slots__ = ("_defs", "_parent", "_name", "_def")

    def __init__(self, defs: Sequence[OracleDef] = ()) -> None:
        self._defs = {d.name: d for d in defs}
        self._parent: Optional["OracleEnv"] = None
        self._name: Optional[str] = None
        self._def: Optional[OracleDef] = None

    def extended(self, d: OracleDef) -> "OracleEnv":
        env = OracleEnv.__new__(OracleEnv)
        env._defs = self._defs
        env._parent = self
        env._name = d.name
        env._def = d
        return env

    def lookup(self, name: str) -> OracleDef:
        env = self
        while env._name is not None:
            if env._name == name:
                return env._def
            env = env._parent
        d = env._defs.get(name)
        if d is None:
            raise EvalError(f"unknown oracle {name!r}")
        return d

    def __contains__(self, name: str) -> bool:
        try:
            self.lookup(name)
            return True
        except EvalError:
            return False


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
                    work.append(("srec", pr[1 + (x0 & 1)], xs2, ys))
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
        elif op == "srec":
            _, tgt, xs, ys = item
            v = vstack.pop()
            work.append(("ev", tgt, xs, ys + (v,)))
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
    stack = [term]
    while stack:
        t = stack[-1]
        if id(t) in done:
            stack.pop()
            continue
        kids = children(t)
        todo = [c for c in kids if id(c) not in done]
        if todo:
            stack.extend(reversed(todo))
            continue
        stack.pop()
        done[id(t)] = f(t, [done[id(c)] for c in kids])
    return done[id(term)]


def map_terms(term: Term, f: Callable[[Term], Term]) -> Term:
    """``f`` applied bottom-up: each subterm is rebuilt from its mapped
    children (shared when unchanged, as in ``map_children``), then
    passed to ``f``.  No recursion, by ``fold``."""

    def step(t: Term, kids: list[Term]) -> Term:
        it = iter(kids)  # map_children visits children in children() order
        return f(map_children(t, lambda _: next(it)))

    return fold(term, step)


# ---------------------------------------------------------------------------
# Term evaluation


class _Frame:
    __slots__ = ("normals", "safes")

    def __init__(self, normals: tuple[int, ...], safes: tuple[int, ...]) -> None:
        self.normals = normals
        self.safes = safes


class _Ctx:
    """Shared evaluation state: fuel, memo table, nesting depth."""

    def __init__(
        self,
        prog: Optional["PPProgram"],
        cfg: EvalConfig,
        stats: Optional[EvalStats],
    ) -> None:
        self.prog = prog
        self.cfg = cfg
        self.stats = stats
        self.fuel = cfg.fuel
        self.memo: dict = {}
        self.depth = 0


def _eval_term(term: Term, xs: tuple[int, ...], ys: tuple[int, ...], frame: Optional[_Frame], ctx: _Ctx, oracles: OracleEnv) -> int:
    return _staged(term)(xs, ys, frame, ctx, oracles)


# Terms are staged once into nested closures; repeated evaluation (the
# recursion schemes unfold the same step term very many times) then
# skips all dispatch.  Keyed by structural equality, so shared subterms
# stage once.
_STAGED: dict = {}


def _staged(term: Term):
    fn = _STAGED.get(term)
    if fn is None:
        fn = _build(term)
        _STAGED[term] = fn
    return fn


def _build(term: Term):
    if isinstance(term, Zero):
        return lambda xs, ys, frame, ctx, oracles: 0
    if isinstance(term, Proj):
        i = term.index
        if term.sort == "n":
            def run(xs, ys, frame, ctx, oracles, _i=i):
                if _i >= len(xs):
                    raise EvalError(f"projection n{_i} out of range")
                return xs[_i]
            return run
        def run(xs, ys, frame, ctx, oracles, _i=i):
            if _i >= len(ys):
                raise EvalError(f"projection s{_i} out of range")
            return ys[_i]
        return run
    if isinstance(term, S0):
        t = _staged(term.t)
        return lambda xs, ys, frame, ctx, oracles: 2 * t(xs, ys, frame, ctx, oracles)
    if isinstance(term, S1):
        t = _staged(term.t)
        return lambda xs, ys, frame, ctx, oracles: 2 * t(xs, ys, frame, ctx, oracles) + 1
    if isinstance(term, Pred):
        t = _staged(term.t)
        return lambda xs, ys, frame, ctx, oracles: t(xs, ys, frame, ctx, oracles) >> 1
    if isinstance(term, Cond):
        w, x, y, z = (_staged(t) for t in (term.w, term.x, term.y, term.z))

        def run(xs, ys, frame, ctx, oracles):
            v = w(xs, ys, frame, ctx, oracles)
            if v == 0:
                return x(xs, ys, frame, ctx, oracles)
            if v % 2 == 0:
                return y(xs, ys, frame, ctx, oracles)
            return z(xs, ys, frame, ctx, oracles)

        return run
    if isinstance(term, OracleCall):
        name = term.name
        nargs = tuple(_staged(a) for a in term.normal_args)
        sargs = tuple(_staged(a) for a in term.safe_args)

        def run(xs, ys, frame, ctx, oracles):
            d = oracles.lookup(name)
            us = tuple([a(xs, ys, frame, ctx, oracles) for a in nargs])
            vs = tuple([a(xs, ys, frame, ctx, oracles) for a in sargs])
            if len(us) != d.normals or len(vs) != d.safes:
                raise EvalError(f"oracle {name!r} arity mismatch")
            return d.fn(us, vs)

        return run
    if isinstance(term, Call):
        name, guard = term.name, term.guard
        nargs = tuple(_staged(a) for a in term.normal_args)
        sargs = tuple(_staged(a) for a in term.safe_args)

        def run(xs, ys, frame, ctx, oracles):
            if ctx.prog is None:
                raise EvalError("named calls only occur inside programs")
            us = tuple([a(xs, ys, frame, ctx, oracles) for a in nargs])
            vs = tuple([a(xs, ys, frame, ctx, oracles) for a in sargs])
            if guard is not None:
                rel, _ = tuple_order(us, frame.normals)
                ok = rel is TupleOrder.SUBSET_STRICT
                if ok and guard == "strict_safe":
                    srel, _ = tuple_order(vs, frame.safes)
                    ok = srel is not TupleOrder.NOT_RELATED
                if not ok:
                    if ctx.cfg.guard_mode == "strict":
                        raise GuardViolation(
                            f"guarded call to {name} with normals {us} "
                            f"against frame {frame.normals}"
                        )
                    return 0
            return _call_pp(ctx.prog, name, us, vs, ctx, oracles)

        return run
    if isinstance(term, CompSafe):
        h, g = _staged(term.h), _staged(term.g)

        def run(xs, ys, frame, ctx, oracles):
            v = g(xs, ys, frame, ctx, oracles)
            return h(xs, ys + (v,), frame, ctx, oracles)

        return run
    if isinstance(term, CompNormal):
        h, g = _staged(term.h), _staged(term.g)

        def run(xs, ys, frame, ctx, oracles):
            v = g(xs, (), frame, ctx, oracles)
            return h(xs + (v,), ys, frame, ctx, oracles)

        return run
    if isinstance(term, SRecN):
        g, h0, h1 = _staged(term.g), _staged(term.h0), _staged(term.h1)

        def run(xs, ys, frame, ctx, oracles):
            x0 = xs[0]
            if x0 == 0:
                return g(xs[1:], ys, frame, ctx, oracles)
            rest = (x0 >> 1,) + xs[1:]
            rec = run(rest, ys, frame, ctx, oracles)
            h = h1 if x0 % 2 else h0
            return h(rest, ys + (rec,), frame, ctx, oracles)

        return run
    if isinstance(term, SNRec):
        g, h = _staged(term.g), _staged(term.h)
        name = term.rec_name

        def run(xs, ys, frame, ctx, oracles):
            x0 = xs[0]
            if x0 == 0:
                return g(xs[1:], ys, frame, ctx, oracles)
            rest = (x0 >> 1,) + xs[1:]

            def recurse(us, vs):
                # call-by-name closure for f(pred x, rest; .)
                return run(rest, tuple(vs), frame, ctx, oracles)

            sub = oracles.extended(OracleDef(name, 0, len(ys), recurse))
            return h(rest, ys, frame, ctx, sub)

        return run
    if isinstance(term, (SRecPP, SNRecPP)):
        h = _staged(term.h)
        name = term.rec_name
        guard_safes = isinstance(term, SRecPP)

        def run(xs, ys, frame, ctx, oracles):
            def recurse(us, vs):
                us, vs = tuple(us), tuple(vs)
                rel, _ = tuple_order(us, xs)
                ok = rel is TupleOrder.SUBSET_STRICT
                if ok and guard_safes:
                    srel, _ = tuple_order(vs, ys)
                    ok = srel is not TupleOrder.NOT_RELATED
                if not ok:
                    return 0
                return run(us, vs, frame, ctx, oracles)

            sub = oracles.extended(OracleDef(name, len(xs), len(ys), recurse))
            return h(xs, ys, frame, ctx, sub)

        return run
    if isinstance(term, SimRecPP):
        return lambda xs, ys, frame, ctx, oracles: _eval_simrec(
            term, term.select, xs, ys, frame, ctx, oracles
        )
    if isinstance(term, TagDispatch):
        w = term.tag_width
        cases = tuple((want, _staged(body)) for want, body in term.cases)

        def run(xs, ys, frame, ctx, oracles):
            if len(ys) < w:
                raise EvalError("tag dispatch needs its trailing safe slots")
            tag = ys[len(ys) - w :]
            for want, body in cases:
                if tag == want:
                    return body(xs, ys, frame, ctx, oracles)
            return 0

        return run
    raise EvalError(f"cannot evaluate {term!r}")


def _eval_simrec(term: SimRecPP, which: int, xs: tuple[int, ...], ys: tuple[int, ...], frame, ctx: _Ctx, oracles: OracleEnv) -> int:
    k = len(term.hs)

    def make(j: int) -> OracleFn:
        def recurse(us: Sequence[int], vs: Sequence[int]) -> int:
            us, vs = tuple(us), tuple(vs)
            rel, _ = tuple_order(us, xs)
            ok = rel is TupleOrder.SUBSET_STRICT
            if ok and term.guard_safes:
                srel, _ = tuple_order(vs, ys)
                ok = srel is not TupleOrder.NOT_RELATED
            if not ok:
                return 0
            return _eval_simrec(term, j, us, vs, frame, ctx, oracles)

        return recurse

    env = oracles
    for j in range(k):
        env = env.extended(OracleDef(f"{REC}{j + 1}", len(xs), len(ys), make(j)))
    return _eval_term(term.hs[which], xs, ys, frame, ctx, env)


def eval_term(
    term: Term,
    env: Optional[OracleEnv] = None,
    normals: Sequence[int] = (),
    safes: Sequence[int] = (),
    cfg: Optional[EvalConfig] = None,
) -> int:
    """Total evaluation of an algebra term against ambient inputs."""
    ctx = _Ctx(None, cfg or EvalConfig(), None)
    return _eval_term(term, tuple(normals), tuple(safes), None, ctx, env or EMPTY_ORACLES)


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

    def function(self, name: str) -> PPFunction:
        if name not in self.functions:
            raise EvalError(f"unknown function {name!r}")
        return self.functions[name]

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


def _call_pp(prog: "PPProgram", fname: str, xs: tuple[int, ...], ys: tuple[int, ...], ctx: _Ctx, oracles: OracleEnv) -> int:
    fn = prog.function(fname)
    if len(xs) != fn.normals or len(ys) != fn.safes:
        raise EvalError(f"{fname} expects ({fn.normals};{fn.safes}) arguments")
    ctx.fuel -= 1
    if ctx.fuel < 0:
        raise FuelExhausted(f"fuel exhausted calling {fname}")
    key = (fname, xs, ys)
    if ctx.cfg.memo:
        hit = ctx.memo.get(key)
        if hit is not None:
            return hit
    ctx.depth += 1
    if ctx.stats is not None:
        ctx.stats.steps += 1
        ctx.stats.max_depth = max(ctx.stats.max_depth, ctx.depth)
    try:
        v = _eval_term(fn.body, xs, ys, _Frame(xs, ys), ctx, oracles)
    finally:
        ctx.depth -= 1
    if ctx.cfg.memo:
        ctx.memo[key] = v
        if ctx.stats is not None:
            ctx.stats.memo_keys = len(ctx.memo)
    return v


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
    ctx = _Ctx(prog, cfg or EvalConfig(), stats)
    return _call_pp(prog, fname, tuple(normals), tuple(safes), ctx, env or EMPTY_ORACLES)


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
