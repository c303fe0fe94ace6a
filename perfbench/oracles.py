"""Independent oracles for every value the benchmark checks.

Nothing here imports circsafe.  The corpus proofs are transcribed from
their defining equational programs (as the test suite's conftest does),
unrolled into loops over the binary digits so that 4096-bit inputs need
no deep Python recursion; each docstring gives the closed form.  The
term oracles are closed forms of the twelve terms in corpus/terms.term
and of the generated families in gen.py.
"""

from __future__ import annotations


def bits(x: int) -> list[int]:
    """Binary digits of x, most significant first; [] for 0."""
    return [int(c) for c in bin(x)[2:]] if x else []


# ---------------------------------------------------------------------------
# Corpus proofs


def s_program(x: int) -> int:
    """S(0) = 1, S(2u) = 2u+1, S(2u+1) = 2 S(u); closed form x+1."""
    shift = 0
    while x & 1:
        x >>= 1
        shift += 1
    return (x + 1) << shift


def c_program(x: int, y: int, z: int) -> int:
    """C(0,0,z) = z, C(0,y,z) = 2 C(0,y/2,z) + y mod 2,
    C(x,y,z) = 2 C(x/2,y,z) + x mod 2: z followed by y's, then x's digits."""
    v = z
    for b in bits(y):
        v = 2 * v + b
    for b in bits(x):
        v = 2 * v + b
    return v


def e_program(x: int, y: int) -> int:
    """E(0,y) = 2y, E(x,y) = E(x/2, E(x/2, y)); closed form y * 2^(2^|x|)."""
    return y << (1 << x.bit_length())


def p_program(x: int) -> int:
    """P(0) = 0, P(2u) = 2 P(u) + 1, P(2u+1) = 2u; closed form max(x-1, 0)."""
    shift = 0
    while x and not x & 1:
        x >>= 1
        shift += 1
    if x == 0:
        return 0
    v = x - 1  # P(o) = o - 1 for odd o, then one 2v+1 per trailing zero
    for _ in range(shift):
        v = 2 * v + 1
    return v


def l_program(x: int, y: int) -> int:
    """L(0,y) = y, L(x,y) = 2 L(x/2,y) + 1: y followed by |x| ones."""
    n = x.bit_length()
    return (y << n) | ((1 << n) - 1)


def n_closed(x: int) -> int:
    """N(x) = 2^x - 1 (the unary converter)."""
    return (1 << x) - 1


# Keyed by corpus proof name; arguments are (normals, safes).
PROOF_ORACLES = {
    "S": lambda xs, ys: s_program(xs[0]),
    "C": lambda xs, ys: c_program(xs[0], xs[1], ys[0]),
    "E": lambda xs, ys: e_program(xs[0], ys[0]),
    "P": lambda xs, ys: p_program(xs[0]),
    "L": lambda xs, ys: l_program(xs[0], ys[0]),
    "N": lambda xs, ys: n_closed(xs[0]),
}

# Expected classification of every corpus proof document.
PROOF_CLASSES = {
    "C": "CB",
    "E": "CNB",
    "EPRIME": "none",
    "I": "none",
    "L": "CB",
    "N": "CNB",
    "N_UNSAFE": "none",
    "P": "CB",
    "P_UNSAFE": "none",
    "S": "CB",
}


# ---------------------------------------------------------------------------
# Corpus terms: closed forms; k = |x| is the length of the first normal


def _append(y: int, x: int) -> int:
    return (y << x.bit_length()) | x


def _ones(n: int) -> int:
    return (1 << n) - 1


def _padones(k: int, y: int) -> int:
    n = 1 << k
    return (y << n) | _ones(n)


def _cdr(k: int, y: int) -> int:
    return ((y << k) + _ones(k)) << k


TERM_ORACLES = {
    "succ1": lambda xs, ys: 2 * ys[0] + 1,
    "half": lambda xs, ys: ys[0] >> 1,
    "select": lambda xs, ys: 0 if ys[0] == 0 else 2 * ys[1] + (ys[0] & 1),
    "append": lambda xs, ys: _append(ys[0], xs[0]),
    "lenones": lambda xs, ys: (ys[0] << xs[0].bit_length()) | _ones(xs[0].bit_length()),
    "parity": lambda xs, ys: xs[0] & 1,
    "lenunary": lambda xs, ys: _ones(xs[0].bit_length()),
    "ex": lambda xs, ys: ys[0] << (1 << xs[0].bit_length()),
    "padones": lambda xs, ys: _padones(xs[0].bit_length(), ys[0]),
    "exquad": lambda xs, ys: ys[0] << (2 << xs[0].bit_length()),
    "cdr": lambda xs, ys: _cdr(xs[0].bit_length(), ys[0]),
    # twoloops(x;y) = 2^(2^|x|) * padones(x;y)
    "twoloops": lambda xs, ys: _padones(xs[0].bit_length(), ys[0]) << (1 << xs[0].bit_length()),
}

# The nested-recursion terms; the rest belong to the base algebra.
NESTED_TERMS = frozenset({"twoloops", "ex", "padones", "exquad", "cdr"})
# Terms whose value or run time grows exponentially in |x|.
EXPONENTIAL_TERMS = frozenset({"twoloops", "ex", "padones", "exquad"})


# ---------------------------------------------------------------------------
# Generated families (see gen.py for the documents)


def chain_value(digits: tuple[int, ...], y: int) -> int:
    """chain: node j applies s_{d_j} to node j+1, the last node is y."""
    v = y
    for b in reversed(digits):
        v = 2 * v + b
    return v


def loop_value(d0: tuple[int, ...], d1: tuple[int, ...], x: int, y: int) -> int:
    """loop: f(0;y) = y, f(2u+i;y) = chain value of branch i over f(u;y)."""
    v = y
    for b in bits(x):
        v = chain_value(d1 if b else d0, v)
    return v


def nest_value(m: int, base: int, k: int, y: int) -> int:
    """nest: f_0(y) = 2y+base, f_k(y) = f_{k-1} applied m times to y,
    where k is the length of the boxed input."""
    if k == 0:
        return 2 * y + base
    for _ in range(m):
        y = nest_value(m, base, k - 1, y)
    return y


def deep_value(digits: tuple[int, ...], y: int) -> int:
    """deep: comps layers each append one digit to half of y (innermost
    layer is the base p(y0))."""
    v = y >> 1
    for b in digits:
        v = 2 * v + b
    return v


def loops_value(maps: tuple[tuple[int, int], ...], x: int, y: int) -> int:
    """loops: layer j appends x's digits, with 0 written as maps[j][0] and
    1 written as maps[j][1]."""
    v = y
    xb = bits(x)
    for zero, one in maps:
        for b in xb:
            v = 2 * v + (one if b else zero)
    return v
