"""Seeded input generators for the benchmark workloads.

Sizes are fixed by the workloads; the seed picks digits and values, so
two seeds give equally hard inputs with different contents, and the
same seed gives the same inputs.  The program under test sees only the
generated documents and numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Doc:
    """A generated proof or term document and what its oracle needs."""

    name: str
    family: str
    size: int  # the family parameter
    text: str
    params: tuple
    nodes: int = 0  # proof nodes, for proof families
    cls: str = ""  # expected classification, for proof families


def _node(nid: str, rule: str, ctx: str, premises: list[str]) -> str:
    return f"node {nid} : {rule} seq {ctx} => N premises [{','.join(premises)}]"


def _digits(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.getrandbits(1) for _ in range(n))


def _pattern(name: str, n: int, flip: int) -> tuple[int, ...]:
    """n digits fixed for the document ``name``, complemented when ``flip``.

    Cycle normal form refines a partition until no two nodes' digit
    suffixes agree, so its cost depends on where the digits repeat.
    Complementing every digit keeps those repeats, so the seed (which
    picks ``flip``) changes the values computed but not the cost.
    """
    base = random.Random(name)
    return tuple(base.getrandbits(1) ^ flip for _ in range(n))


# ---------------------------------------------------------------------------
# Proof families


def chain(n: int, rng: random.Random) -> Doc:
    """n plain successor steps over the identity, digits as in _pattern.

    Acyclic and CB, n+1 nodes: one long path and no cycle, so graph
    passes are measured on depth alone.
    """
    digits = _pattern(f"chain{n}", n, rng.getrandbits(1))
    lines = [f"proof chain{n} root c0"]
    lines += [_node(f"c{j}", f"s{b}", "N", [f"c{j + 1}"]) for j, b in enumerate(digits)]
    lines.append(_node(f"c{n}", "id", "N", []))
    return Doc(f"chain{n}", "chain", n, "\n".join(lines) + "\n", (digits,), n + 1, "CB")


def loop(n: int, rng: random.Random) -> Doc:
    """A boxed conditional whose two recursive branches each run through n
    successor steps back to it, digits as in _pattern.

    CB, 2n+2 nodes: one long cycle per branch, so the cycle normal form
    has one companion and two buds far above it.
    """
    flip = rng.getrandbits(1)
    d0, d1 = _pattern(f"loop{n}/0", n, flip), _pattern(f"loop{n}/1", n, flip)
    lines = [f"proof loop{n} root r", _node("r", "condB", "bN,N", ["z", "a0", "b0"]), _node("z", "id", "N", [])]
    for tag, digits in (("a", d0), ("b", d1)):
        for j, b in enumerate(digits):
            lines.append(_node(f"{tag}{j}", f"s{b}", "bN,N", [f"{tag}{j + 1}" if j + 1 < n else "r"]))
    return Doc(f"loop{n}", "loop", n, "\n".join(lines) + "\n", (d0, d1), 2 * n + 2, "CB")


def nest(m: int, rng: random.Random) -> Doc:
    """m-fold nested recursion f(x;y) = f(x/2; f(x/2; ... f(x/2; y))) with
    base f(0;y) = 2y + b for a seeded digit b; nest(2) is the corpus E.

    CNB (every call but the last sits right of a plain cut), 3m nodes.
    Its m cut nodes are alike, the worst case for the partition
    refinement behind cycle normal form (one round per cut).
    """
    b = rng.getrandbits(1)
    lines = [
        f"proof nest{m} root e0",
        _node("e0", "condB", "bN,N", ["e1", "k0", "k0"]),
        _node("e1", f"s{b}", "N", ["e2"]),
        _node("e2", "id", "N", []),
    ]
    for j in range(m - 1):
        lines.append(_node(f"k{j}", "cutN", "bN,N", ["e0", f"x{j}"]))
        lines.append(_node(f"x{j}", "eN(0)", "bN,N,N", [f"w{j}"]))
        lines.append(_node(f"w{j}", "wN", "bN,N,N", [f"k{j + 1}" if j + 2 < m else "e0"]))
    return Doc(f"nest{m}", "nest", m, "\n".join(lines) + "\n", (b,), 3 * m, "CNB")


def proof_family(family: str, nodes: int, rng: random.Random) -> Doc:
    """The member of a family with about ``nodes`` nodes."""
    if family == "chain":
        return chain(nodes - 1, rng)
    if family == "loop":
        return loop((nodes - 2) // 2, rng)
    return nest(max(2, nodes // 3), rng)


# ---------------------------------------------------------------------------
# Term families


def deep(k: int, rng: random.Random) -> Doc:
    """k nested safe compositions, each appending a seeded digit, over
    the base p(y0): a term k levels deep with no recursion."""
    digits = _digits(rng, k)
    t = "p(y0)"
    for b in digits:
        t = f"comps(s{b}(y1),{t})"
    return Doc(f"deep{k}", "deep", k, f"def deep{k}(0;1) = {t}\n", (digits,))


def loops(k: int, rng: random.Random) -> Doc:
    """k recursions on notation composed in sequence; layer j appends the
    digits of x written through a map of {0, 1} to digits, so the
    compiled proof has k loops one after another.

    Even layers copy or complement the digits, odd layers write one
    constant digit; the seed picks which.  A constant layer compiles to
    one loop edge instead of two, so fixing the kind keeps the proof's
    shape, and its cost, the same for every seed.
    """
    maps = []
    for j in range(k):
        c = rng.getrandbits(1)
        maps.append((c, 1 - c) if j % 2 == 0 else (c, c))
    maps = tuple(maps)
    t = "y0"
    for zero, one in maps:
        t = f"comps(srec(y1,s{zero}(y2),s{one}(y2)),{t})"
    return Doc(f"loops{k}", "loops", k, f"def loops{k}(1;1) = {t}\n", (maps,))


# ---------------------------------------------------------------------------
# Values


def ones(b: int) -> int:
    """The worst case of length b: all digits 1."""
    return (1 << b) - 1


def random_value(rng: random.Random, b: int) -> int:
    """A seeded value of exactly b binary digits."""
    return rng.getrandbits(b) | (1 << (b - 1)) if b else 0


def bound_sample(seed: int, normals: int, safes: int, total_bits: int = 16):
    """The inputs ``verify_bound(td, samples=1, seed=seed)`` draws.

    A transcription of the sampler in circsafe.bounds: one seeded
    stream, normal lengths jointly bounded by ``total_bits``.
    """
    rng = random.Random(seed)
    xs, budget = [], total_bits
    for _ in range(normals):
        b = rng.randrange(budget + 1)
        xs.append(rng.getrandbits(b) if b else 0)
        budget -= xs[-1].bit_length()
    ys = [rng.getrandbits(rng.randrange(total_bits + 1)) for _ in range(safes)]
    return xs, ys


def stratified_seeds(rng: random.Random, normals: int, safes: int, lengths: range) -> list[int]:
    """One ``verify_bound`` seed per total normal length in ``lengths``.

    The exponential terms cost about 2^n for total normal length n, so
    an unstratified draw would move p90 between cost levels a factor
    of two apart from one workload seed to the next.
    """
    want = {n: None for n in lengths}
    while any(s is None for s in want.values()):
        s = rng.getrandbits(32)
        xs, _ = bound_sample(s, normals, safes)
        n = sum(x.bit_length() for x in xs)
        if normals == 0:
            n = next(k for k, v in want.items() if v is None)
        if n in want and want[n] is None:
            want[n] = s
    return [want[n] for n in lengths]
