"""Symbolic output bounds for algebra terms.

Every term gets a monotone expression e and a constant d with
|f(xs;ys)| <= e(sum of |xs|) + d * (sum of oracle constants) + max|ys|;
closed terms drop the middle summand.  Composition-free terms stay
polynomial with d = 1, recursion multiplies in the sensitivity d and a
power of it, which is where non-polynomial growth enters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .interp import (
    Call,
    CompNormal,
    CompSafe,
    Cond,
    OracleCall,
    OracleEnv,
    Pred,
    Proj,
    S0,
    S1,
    SimRecPP,
    SNRec,
    SNRecPP,
    SRecN,
    SRecPP,
    TagDispatch,
    Term,
    TermDef,
    Zero,
    eval_term,
    is_bearing,
)
from .kernel import length


# ---------------------------------------------------------------------------
# Bound expressions: 0, successor, +, *, powers, one variable


class BoundExpr:
    __slots__ = ()

    def __add__(self, other: "BoundExpr") -> "BoundExpr":
        return badd(self, other)

    def __mul__(self, other: "BoundExpr") -> "BoundExpr":
        return bmul(self, other)


@dataclass(frozen=True)
class Const(BoundExpr):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var(BoundExpr):
    def __str__(self) -> str:
        return "n"


@dataclass(frozen=True)
class Add(BoundExpr):
    left: BoundExpr
    right: BoundExpr

    def __str__(self) -> str:
        return f"({self.left} + {self.right})"


@dataclass(frozen=True)
class Mul(BoundExpr):
    left: BoundExpr
    right: BoundExpr

    def __str__(self) -> str:
        return f"({self.left} * {self.right})"


@dataclass(frozen=True)
class Pow(BoundExpr):
    base: BoundExpr
    exp: BoundExpr

    def __str__(self) -> str:
        return f"({self.base} ^ {self.exp})"


@dataclass(frozen=True)
class Subst(BoundExpr):
    """Evaluate ``outer`` at the value of ``inner`` (composition in n)."""

    outer: BoundExpr
    inner: BoundExpr

    def __str__(self) -> str:
        return f"({self.outer} @ n={self.inner})"


def badd(a: BoundExpr, b: BoundExpr) -> BoundExpr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0:
        return b
    if isinstance(b, Const) and b.value == 0:
        return a
    return Add(a, b)


def bmul(a: BoundExpr, b: BoundExpr) -> BoundExpr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(a, Const) and a.value == 1:
        return b
    if isinstance(b, Const) and b.value == 1:
        return a
    if (isinstance(a, Const) and a.value == 0) or (isinstance(b, Const) and b.value == 0):
        return Const(0)
    return Mul(a, b)


def bpow(base: BoundExpr, exp: BoundExpr) -> BoundExpr:
    if isinstance(base, Const) and base.value == 1:
        return Const(1)
    if isinstance(exp, Const) and isinstance(base, Const):
        return Const(base.value**exp.value)
    return Pow(base, exp)


def beval(e: BoundExpr, n: int) -> int:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return n
    if isinstance(e, Add):
        return beval(e.left, n) + beval(e.right, n)
    if isinstance(e, Mul):
        return beval(e.left, n) * beval(e.right, n)
    if isinstance(e, Pow):
        return beval(e.base, n) ** beval(e.exp, n)
    if isinstance(e, Subst):
        return beval(e.outer, beval(e.inner, n))
    raise TypeError(e)


def is_polynomial(e: BoundExpr) -> bool:
    if isinstance(e, Pow):
        return False
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, (Add, Mul)):
        return is_polynomial(e.left) and is_polynomial(e.right)
    if isinstance(e, Subst):
        return is_polynomial(e.outer) and is_polynomial(e.inner)
    raise TypeError(e)


@dataclass(frozen=True)
class BoundPair:
    e: BoundExpr
    d: int

    @property
    def is_polynomial(self) -> bool:
        return is_polynomial(self.e)


# ---------------------------------------------------------------------------
# Synthesis


INITIAL = BoundPair(badd(Const(1), Var()), 1)


def synthesize_bound(term: Term) -> BoundPair:
    """Bound pair by structural recursion over the term.

    Initial functions get 1+n with d=1, oracle calls get 0 with d=1,
    compositions add their bounds (d adds only when both sides call
    oracles), and each recursion takes e(n) = n * d^n * e_step(n) with
    the step's own d.
    """
    if isinstance(term, (Zero, Proj)):
        return INITIAL
    if isinstance(term, (S0, S1, Pred)):
        sub = synthesize_bound(term.t)
        return BoundPair(badd(badd(Const(1), Var()), sub.e), sub.d)
    if isinstance(term, Cond):
        subs = [synthesize_bound(t) for t in (term.w, term.x, term.y, term.z)]
        e = badd(Const(1), Var())
        for s in subs:
            e = badd(e, s.e)
        # branches are exclusive, so the worst sensitivity suffices
        return BoundPair(e, max(s.d for s in subs))
    if isinstance(term, TagDispatch):
        subs = [synthesize_bound(b) for _, b in term.cases]
        e = badd(Const(1), Var())
        for s in subs:
            e = badd(e, s.e)
        return BoundPair(e, max([s.d for s in subs], default=1))
    if isinstance(term, (OracleCall, Call)):
        e: BoundExpr = Const(0)
        d = 1
        for a in term.safe_args:
            s = synthesize_bound(a)
            e = badd(e, s.e)
            if is_bearing(a):
                d += s.d  # a call fed into a call: nesting
        for a in term.normal_args:
            s = synthesize_bound(a)
            e = badd(e, s.e)
        return BoundPair(e, d)
    if isinstance(term, CompSafe):
        h, g = synthesize_bound(term.h), synthesize_bound(term.g)
        hb, gb = is_bearing(term.h), is_bearing(term.g)
        if hb and gb:
            d = h.d + g.d
        elif hb:
            d = h.d
        elif gb:
            d = g.d
        else:
            d = 1
        return BoundPair(badd(h.e, g.e), d)
    if isinstance(term, CompNormal):
        h, g = synthesize_bound(term.h), synthesize_bound(term.g)
        return BoundPair(Subst(h.e, badd(Var(), g.e)), h.d)
    if isinstance(term, SRecN):
        g = synthesize_bound(term.g)
        h0 = synthesize_bound(term.h0)
        h1 = synthesize_bound(term.h1)
        step_e = badd(badd(badd(Const(1), Var()), g.e), badd(h0.e, h1.e))
        step_d = max(g.d, h0.d + (1 if is_bearing(term.h0) else 0), h1.d + (1 if is_bearing(term.h1) else 0))
        return _recursion_bound(BoundPair(step_e, step_d))
    if isinstance(term, SNRec):
        g = synthesize_bound(term.g)
        h = synthesize_bound(term.h)
        step = BoundPair(badd(badd(badd(Const(1), Var()), g.e), h.e), max(g.d, h.d))
        return _recursion_bound(step)
    if isinstance(term, (SRecPP, SNRecPP)):
        return _recursion_bound(synthesize_bound(term.h))
    if isinstance(term, SimRecPP):
        subs = [synthesize_bound(h) for h in term.hs]
        e = badd(Const(1), Var())
        for s in subs:
            e = badd(e, s.e)
        return _recursion_bound(BoundPair(e, max(s.d for s in subs)))
    raise TypeError(f"no bound rule for {type(term).__name__}")


def _recursion_bound(step: BoundPair) -> BoundPair:
    # (n+1) rather than n: the bare product vanishes at n = 0, below the
    # base case's requirement e_step(0); the extra factor keeps
    # monotonicity, d, polynomiality and the descent inequality intact.
    e = bmul(bmul(badd(Var(), Const(1)), bpow(Const(step.d), Var())), step.e)
    return BoundPair(e, step.d)


def input_bound(term: Term, constants: Sequence[int] = ()) -> "InputBound":
    """The bound every oracle call's safe inputs satisfy during a run."""
    return InputBound(synthesize_bound(term), tuple(constants))


@dataclass(frozen=True)
class InputBound:
    pair: BoundPair
    constants: tuple[int, ...]

    def __call__(self, normals: Sequence[int], safes: Sequence[int]) -> int:
        n = sum(length(x) for x in normals)
        return (
            beval(self.pair.e, n)
            + self.pair.d * sum(self.constants)
            + max([length(y) for y in safes], default=0)
        )

    def __str__(self) -> str:
        c = sum(self.constants)
        return f"e({self.pair.e}) + {self.pair.d}*{c} + max|ys|"


# ---------------------------------------------------------------------------
# Empirical verification


@dataclass
class BoundReport:
    term: str
    e: str
    d: int
    polynomial: bool
    samples: int
    max_slack: Optional[int]
    violations: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "term": self.term,
            "e": self.e,
            "d": self.d,
            "polynomial": self.polynomial,
            "samples": self.samples,
            "max_slack": None if self.max_slack is None else str(self.max_slack),
            "violations": self.violations,
        }


def sample_inputs(rng: random.Random, m: int, n: int, total_bits: int = 16) -> tuple[list[int], list[int]]:
    """Random two-sorted inputs with the normal lengths jointly bounded."""
    xs = []
    budget = total_bits
    for _ in range(m):
        b = rng.randrange(budget + 1)
        xs.append(rng.getrandbits(b) if b else 0)
        budget -= xs[-1].bit_length()
    ys = [rng.getrandbits(rng.randrange(total_bits + 1)) for _ in range(n)]
    return xs, ys


def verify_bound(
    td: TermDef,
    samples: int = 200,
    seed: int = 0,
    env: Optional[OracleEnv] = None,
    constants: Sequence[int] = (),
    pair: Optional[BoundPair] = None,
) -> BoundReport:
    """Draw seeded inputs and check the output-length inequality.

    A violation indicates an implementation bug; the report records the
    worst slack seen (bound minus actual length).  Samples are drawn up
    front from one seeded stream.
    """
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    pair = pair or synthesize_bound(td.body)
    bound_of = InputBound(pair, tuple(constants))
    rng = random.Random(seed)
    drawn = [sample_inputs(rng, td.normals, td.safes) for _ in range(samples)]
    max_slack: Optional[int] = None
    violations: list[dict] = []
    for xs, ys in drawn:
        vlen = length(eval_term(td.body, env, xs, ys))
        bound = bound_of(xs, ys)
        slack = bound - vlen
        if slack < 0:
            violations.append({"normals": xs, "safes": ys, "value_len": vlen, "bound": str(bound)})
        if max_slack is None or slack > max_slack:
            max_slack = slack
    return BoundReport(
        td.name, str(pair.e), pair.d, pair.is_polynomial, samples, max_slack, violations
    )
