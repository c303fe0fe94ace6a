"""Symbolic output bounds for algebra terms.

Every term gets a monotone expression e and a constant d with
|f(xs;ys)| <= e(sum of |xs|) + d * (sum of oracle constants) + max|ys|;
closed terms drop the middle summand.  Composition-free terms stay
polynomial with d = 1, recursion multiplies in the sensitivity d and a
power of it, which is where non-polynomial growth enters.

A term's bound is derived in one bottom-up pass over its subterms, in
time linear in the term and without Python's stack, and printing,
testing and compiling an expression are loops over its nodes too.
``verify_bound`` and ``input_bound`` derive and compile a term's bound
once and then evaluate it for each sample as compiled code ``n -> int``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Optional, Sequence

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
    _bears,
    eval_term,
    fold,
)
from .kernel import _kept_on, length


# ---------------------------------------------------------------------------
# Bound expressions: 0, successor, +, *, powers, one variable


class BoundExpr:
    """A bound expression.  Equality, hashing, ``repr`` and ``str`` are
    loops over the nodes, not recursion, so expression depth is not
    capped by Python's recursion limit; equality and hashing visit a
    shared node once."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoundExpr):
            return NotImplemented
        seen: set[tuple[int, int]] = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            t = type(a)
            if t is not type(b) or t is Const and a.value != b.value:
                return False
            if t in _BINARY:
                seen.add((id(a), id(b)))
                operands = _BINARY[t][0]
                stack += zip(operands(a), operands(b))
        return True

    def __hash__(self) -> int:
        done: dict[int, int] = {}  # id -> hash of the nodes finished
        stack = [(self, False)]
        while stack:
            x, ready = stack.pop()
            t = type(x)
            if t is Const:
                done[id(x)] = hash((t, x.value))
            elif t is Var:
                done[id(x)] = hash(t)
            elif ready:
                a, b = _BINARY[t][0](x)
                done[id(x)] = hash((t, done[id(a)], done[id(b)]))
            elif id(x) not in done:
                stack.append((x, True))
                stack += [(o, False) for o in _BINARY[t][0](x)]
        return done[id(self)]

    def __repr__(self) -> str:
        """The dataclass form, ``Add(left=Const(value=1), right=Var())``."""
        out: list[str] = []
        stack: list = [self]
        while stack:
            x = stack.pop()
            t = type(x)
            if t is str:
                out.append(x)
            elif t is Const:
                out.append(f"Const(value={x.value!r})")
            elif t is Var:
                out.append("Var()")
            else:
                a, b = _BINARY[t][0](x)
                first, second = x.__dataclass_fields__
                out.append(f"{t.__name__}({first}=")
                stack += [")", b, f", {second}=", a]
        return "".join(out)

    def __add__(self, other: "BoundExpr") -> "BoundExpr":
        return badd(self, other)

    def __mul__(self, other: "BoundExpr") -> "BoundExpr":
        return bmul(self, other)

    def __str__(self) -> str:
        """Fully parenthesised infix: ``(a + b)``, ``(a * b)``, ``(a ^ b)``
        and ``(outer @ n=inner)``, written left to right from a stack."""
        out: list[str] = []
        stack: list = [self]
        while stack:
            x = stack.pop()
            t = type(x)
            if t is str:
                out.append(x)
            elif t is Const:
                out.append(str(x.value))
            elif t is Var:
                out.append("n")
            else:
                operands, infix, _ = _BINARY[t]
                a, b = operands(x)
                out.append("(")
                stack += [")", b, infix, a]
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False)
class Const(BoundExpr):
    value: int


@dataclass(frozen=True, eq=False, repr=False)
class Var(BoundExpr):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Add(BoundExpr):
    left: BoundExpr
    right: BoundExpr


@dataclass(frozen=True, eq=False, repr=False)
class Mul(BoundExpr):
    left: BoundExpr
    right: BoundExpr


@dataclass(frozen=True, eq=False, repr=False)
class Pow(BoundExpr):
    base: BoundExpr
    exp: BoundExpr


@dataclass(frozen=True, eq=False, repr=False)
class Subst(BoundExpr):
    """Evaluate ``outer`` at the value of ``inner`` (composition in n)."""

    outer: BoundExpr
    inner: BoundExpr


# the nodes with two operands: (operands, printed operator, Python operator)
_BINARY = {
    Add: (attrgetter("left", "right"), " + ", "+"),
    Mul: (attrgetter("left", "right"), " * ", "*"),
    Pow: (attrgetter("base", "exp"), " ^ ", "**"),
    Subst: (attrgetter("outer", "inner"), " @ n=", None),
}


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


def compile_bound(e: BoundExpr) -> Callable[[int], int]:
    """``e`` as compiled code ``n -> int``.

    The code is one assignment per operator node, in evaluation order,
    so neither compiling nor running it recurses on the depth of ``e``.
    A node shared at several places is computed once for each value of
    n it is evaluated at (``Subst`` evaluates its outer side at another).
    """
    lines = ["def bound(n):"]
    val: dict = {}  # (id(node), name of n's value there) -> operand text
    stack = [(e, "n", 0)]  # state 0: operands still to do; 1, 2: operand(s) done
    while stack:
        x, n, state = stack.pop()
        key = (id(x), n)
        t = type(x)
        if t is Const:
            val[key] = str(x.value)
        elif t is Var:
            val[key] = n
        elif state == 0:
            if key not in val:  # a shared node is done by its first visit
                a, b = _BINARY[t][0](x)
                stack.append((x, n, 1))
                # Subst's outer side waits for the name of the inner's value
                stack += [(b, n, 0)] if t is Subst else [(b, n, 0), (a, n, 0)]
        elif t is Subst:
            m = val[(id(x.inner), n)]
            if state == 1:
                stack += [(x, n, 2), (x.outer, m, 0)]
            else:
                val[key] = val[(id(x.outer), m)]
        else:
            a, b = _BINARY[t][0](x)
            val[key] = f"v{len(lines)}"
            lines.append(f"    {val[key]} = {val[(id(a), n)]} {_BINARY[t][2]} {val[(id(b), n)]}")
    lines.append(f"    return {val[(id(e), 'n')]}")
    scope: dict = {}
    exec("\n".join(lines), scope)
    return scope["bound"]


def beval(e: BoundExpr, n: int) -> int:
    """Value of ``e`` at ``n``.  Compiles ``e`` on every call; code that
    evaluates one expression at many points calls ``compile_bound``."""
    return compile_bound(e)(n)


def is_polynomial(e: BoundExpr) -> bool:
    """Whether ``e`` has no power node."""
    seen: set[int] = set()
    stack = [e]
    while stack:
        x = stack.pop()
        t = type(x)
        if t is Pow:
            return False
        if t in _BINARY and id(x) not in seen:
            seen.add(id(x))
            stack += _BINARY[t][0](x)
    return True


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
    """Bound pair of ``term``, in one bottom-up pass over its subterms.

    Initial functions get 1+n with d=1, oracle calls get 0 with d=1,
    compositions add their bounds (d adds only when both sides call
    oracles), and each recursion takes e(n) = (n + 1) * d^n * e_step(n)
    with the step's own d.  Beside its pair each subterm carries whether
    it bears, that is contains an oracle or program call (``_bears``
    with no peers), so no subtree is scanned twice.
    """
    return fold(term, _bound_step)[0]


def _bound_step(t: Term, kids: list[tuple[BoundPair, bool]]) -> tuple[BoundPair, bool]:
    """``t``'s bound pair and whether it bears, from its children's."""
    subs = [s for s, _ in kids]
    if isinstance(t, (Zero, Proj)):
        pair = INITIAL
    elif isinstance(t, (S0, S1, Pred)):
        pair = BoundPair(badd(badd(Const(1), Var()), subs[0].e), subs[0].d)
    elif isinstance(t, (Cond, TagDispatch, SimRecPP)):
        e = badd(Const(1), Var())
        for s in subs:
            e = badd(e, s.e)
        # branches are exclusive, so the worst sensitivity suffices
        pair = BoundPair(e, max([s.d for s in subs], default=1))
        if isinstance(t, SimRecPP):
            pair = _recursion_bound(pair)
    elif isinstance(t, (OracleCall, Call)):
        e: BoundExpr = Const(0)
        d = 1
        split = len(t.normal_args)
        for s, bears in kids[split:]:  # the safe arguments
            e = badd(e, s.e)
            if bears:
                d += s.d  # a call fed into a call: nesting
        for s in subs[:split]:
            e = badd(e, s.e)
        pair = BoundPair(e, d)
    elif isinstance(t, CompSafe):
        (h, hb), (g, gb) = kids
        # d adds over the sides that bear; every d is at least 1
        pair = BoundPair(badd(h.e, g.e), (h.d if hb else 0) + (g.d if gb else 0) or 1)
    elif isinstance(t, CompNormal):
        h, g = subs
        pair = BoundPair(Subst(h.e, badd(Var(), g.e)), h.d)
    elif isinstance(t, SRecN):
        (g, _), (h0, b0), (h1, b1) = kids
        step_e = badd(badd(badd(Const(1), Var()), g.e), badd(h0.e, h1.e))
        pair = _recursion_bound(BoundPair(step_e, max(g.d, h0.d + b0, h1.d + b1)))
    elif isinstance(t, SNRec):
        g, h = subs
        pair = _recursion_bound(BoundPair(badd(badd(badd(Const(1), Var()), g.e), h.e), max(g.d, h.d)))
    else:  # SRecPP, SNRecPP: fold's children() knows no other term class
        pair = _recursion_bound(subs[0])
    return pair, _bears(t, [b for _, b in kids], None)


def _recursion_bound(step: BoundPair) -> BoundPair:
    # (n+1) rather than n: the bare product vanishes at n = 0, below the
    # base case's requirement e_step(0); the extra factor keeps
    # monotonicity, d, polynomiality and the descent inequality intact.
    e = bmul(bmul(badd(Var(), Const(1)), bpow(Const(step.d), Var())), step.e)
    return BoundPair(e, step.d)


def _prepared(pair: BoundPair) -> tuple[BoundPair, str, bool, Callable[[int], int]]:
    return pair, str(pair.e), is_polynomial(pair.e), compile_bound(pair.e)


def _term_bound(term: Term) -> tuple[BoundPair, str, bool, Callable[[int], int]]:
    """(pair, printed e, polynomial flag, compiled e) of ``term``'s bound,
    kept on the term object."""
    return _kept_on(term, "bound", lambda: _prepared(synthesize_bound(term)))


def input_bound(term: Term, constants: Sequence[int] = ()) -> "InputBound":
    """The bound every oracle call's safe inputs satisfy during a run."""
    pair, _, _, code = _term_bound(term)
    return InputBound(pair, tuple(constants), code)


@dataclass(frozen=True)
class InputBound:
    pair: BoundPair
    constants: tuple[int, ...]
    code: Callable[[int], int] = field(compare=False, repr=False)  # compile_bound(pair.e)

    def __call__(self, normals: Sequence[int], safes: Sequence[int]) -> int:
        return (
            self.code(sum(map(length, normals)))
            + self.pair.d * sum(self.constants)
            + max(map(length, safes), default=0)
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
    max_slack: int
    violations: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "term": self.term,
            "e": self.e,
            "d": self.d,
            "polynomial": self.polynomial,
            "samples": self.samples,
            "max_slack": str(self.max_slack),
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
    front from one seeded stream.  The bound is ``td``'s own, derived
    once per term, or ``pair`` when given.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    pair, text, polynomial, code = _term_bound(td.body) if pair is None else _prepared(pair)
    bound_of = InputBound(pair, tuple(constants), code)
    rng = random.Random(seed)
    drawn = [sample_inputs(rng, td.normals, td.safes) for _ in range(samples)]
    slacks: list[int] = []
    violations: list[dict] = []
    for xs, ys in drawn:
        vlen = length(eval_term(td.body, env, xs, ys))
        bound = bound_of(xs, ys)
        if bound < vlen:
            violations.append({"normals": xs, "safes": ys, "value_len": vlen, "bound": str(bound)})
        slacks.append(bound - vlen)
    return BoundReport(td.name, text, pair.d, polynomial, samples, max(slacks), violations)
