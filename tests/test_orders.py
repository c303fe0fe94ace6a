"""Prefix order and tuple order laws."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circsafe.kernel import (
    TupleOrder,
    is_prefix,
    length,
    pred,
    s0,
    s1,
    tuple_below,
    tuple_order,
)


def prefix_by_definition(x: int, y: int) -> bool:
    """The defining equation: y = x*2**n + z with z < 2**n, n bounded by |y|."""
    for n in range(y.bit_length() + 1):
        z = y - x * 2**n
        if 0 <= z < 2**n:
            return True
    return False


def test_prefix_examples():
    assert is_prefix(5, 5)
    assert is_prefix(2, 5)  # 5 = 2*2 + 1
    assert is_prefix(0, 7)
    assert not is_prefix(3, 5)


def test_prefix_matches_definition_exhaustively():
    for x in range(64):
        for y in range(64):
            assert is_prefix(x, y) == prefix_by_definition(x, y), (x, y)


@given(st.integers(0, 2**16), st.integers(0, 2**16), st.integers(0, 2**16))
@settings(max_examples=300)
def test_prefix_partial_order(x, y, z):
    assert is_prefix(x, x)
    if is_prefix(x, y) and is_prefix(y, x):
        assert x == y
    if is_prefix(x, y) and is_prefix(y, z):
        assert is_prefix(x, z)


def test_successors_and_predecessor():
    for n in range(200):
        assert s0(n) == 2 * n and s1(n) == 2 * n + 1
        assert pred(s0(n)) == n and pred(s1(n)) == n
        assert is_prefix(n, s0(n)) and is_prefix(n, s1(n))
    assert length(0) == 0
    for n in range(1, 200):
        assert length(n) == len(format(n, "b"))


def test_tuple_order_examples():
    assert tuple_order([1, 2], [2, 1])[0] is TupleOrder.SUBSET_EQ
    for x in (0, 1, 7, 12345):
        assert tuple_order([x], [x])[0] is TupleOrder.SUBSET_EQ
    rel, wit = tuple_order([1], [3])
    assert rel is TupleOrder.SUBSET_STRICT
    assert wit.strict_positions == frozenset({0})
    assert tuple_order([2], [3])[0] is TupleOrder.NOT_RELATED


def test_tuple_order_length_mismatch():
    with pytest.raises(ValueError):
        tuple_order([1], [1, 2])


def test_witness_is_genuine():
    rng = random.Random(5)
    for _ in range(2000):
        k = rng.randrange(1, 4)
        xs = [rng.getrandbits(rng.randrange(6)) for _ in range(k)]
        ys = [rng.getrandbits(rng.randrange(6)) for _ in range(k)]
        rel, wit = tuple_order(xs, ys)
        if rel is TupleOrder.NOT_RELATED:
            assert wit is None
        else:
            pi = wit.permutation
            assert sorted(pi) == list(range(k))
            assert all(is_prefix(xs[i], ys[pi[i]]) for i in range(k))


def order_by_permutations(xs, ys) -> TupleOrder:
    """The relation of ``tuple_order`` by trying every permutation:
    strict when some matching permutation meets a proper prefix."""
    matched = [
        p for p in permutations(range(len(ys))) if all(is_prefix(x, ys[j]) for x, j in zip(xs, p))
    ]
    if not matched:
        return TupleOrder.NOT_RELATED
    if any(x != ys[j] for p in matched for x, j in zip(xs, p)):
        return TupleOrder.SUBSET_STRICT
    return TupleOrder.SUBSET_EQ


def test_tuple_order_and_tuple_below_match_permutation_search():
    # xs=[0,1] below ys=[1,0] needs 1 matched first: serving the
    # shortest prefix first would give 0 the only y that 1 prefixes
    cases = [([0, 1], [1, 0]), ([1, 0], [1, 0]), ([1, 2], [5, 2])]
    rng = random.Random(13)
    for _ in range(20000):
        k = rng.randrange(0, 5)
        ys = [rng.getrandbits(rng.randrange(6)) for _ in range(k)]
        if rng.random() < 0.5:  # chopped, shuffled copies relate often
            xs = [y >> rng.randrange(y.bit_length() + 1) for y in rng.sample(ys, k)]
        else:
            xs = [rng.getrandbits(rng.randrange(6)) for _ in range(k)]
        cases.append((xs, ys))
    seen = set()
    for xs, ys in cases:
        want = order_by_permutations(xs, ys)
        seen.add((len(xs), want))
        assert tuple_order(xs, ys)[0] is want, (xs, ys)
        assert tuple_below(xs, ys, True) == (want is TupleOrder.SUBSET_STRICT), (xs, ys)
        assert tuple_below(xs, ys, False) == (want is not TupleOrder.NOT_RELATED), (xs, ys)
    # each tuple length k sees every outcome it can
    assert seen >= {(k, want) for k in (1, 2, 3, 4) for want in TupleOrder} | {(0, TupleOrder.SUBSET_EQ)}


def test_tuple_below_length_mismatch():
    for strict in (True, False):
        with pytest.raises(ValueError):
            tuple_below([1], [1, 2], strict)


def test_tuple_below_rejects_negative_values():
    # a negative value anywhere, in tuples of every length, is refused
    for xs, ys in (([-1], [3]), ([1], [-3]), ([-1], [-1]), ([0, -1], [1, 3]), ([1, 2], [5, -2]), ([1, 2, -3], [5, 2, 3])):
        for strict in (True, False):
            with pytest.raises(ValueError):
                tuple_below(xs, ys, strict)


def test_coherence_law():
    # strict iff forward subset holds and the converse fails
    rng = random.Random(7)
    for _ in range(10**4):
        k = rng.randrange(1, 4)
        xs = [rng.getrandbits(rng.randrange(5)) for _ in range(k)]
        ys = [rng.getrandbits(rng.randrange(5)) for _ in range(k)]
        fwd, _ = tuple_order(xs, ys)
        bwd, _ = tuple_order(ys, xs)
        if fwd is TupleOrder.SUBSET_STRICT:
            assert bwd is TupleOrder.NOT_RELATED
        if fwd is TupleOrder.SUBSET_EQ:
            assert bwd is TupleOrder.SUBSET_EQ


def test_preorder_transitivity():
    rng = random.Random(9)
    for _ in range(3000):
        k = rng.randrange(1, 3)
        ts = [[rng.getrandbits(rng.randrange(5)) for _ in range(k)] for _ in range(3)]
        a, b, c = ts
        if (
            tuple_order(a, b)[0] is not TupleOrder.NOT_RELATED
            and tuple_order(b, c)[0] is not TupleOrder.NOT_RELATED
        ):
            assert tuple_order(a, c)[0] is not TupleOrder.NOT_RELATED


def test_strict_descent_chains_bounded():
    # any strictly descending chain from ys has length <= sum of lengths
    rng = random.Random(11)
    for _ in range(300):
        k = rng.randrange(1, 4)
        ys = [rng.getrandbits(rng.randrange(8)) for _ in range(k)]
        bound = sum(length(y) for y in ys)
        cur = list(ys)
        steps = 0
        while True:
            # derive a random strictly smaller tuple by chopping one entry
            nonzero = [i for i, v in enumerate(cur) if v]
            if not nonzero:
                break
            i = rng.choice(nonzero)
            nxt = list(cur)
            nxt[i] >>= rng.randrange(1, nxt[i].bit_length() + 1)
            assert tuple_order(nxt, cur)[0] is TupleOrder.SUBSET_STRICT
            cur = nxt
            steps += 1
        assert steps <= bound
