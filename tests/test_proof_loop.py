"""Recursion on notation in ``eval_proof``, against the reference.

A condB companion whose digit branches re-enter it at ``x >> 1`` (a
chain of successors back to it, or a cut whose left premise is it and
whose right premise leads to an id returning the cut's value) and whose
ways back keep no memo entries runs its levels as one loop
(``interp._Loop``): the way down is charged at once, and the way back
folds its edits, or raises FuelExhausted at the node where fuel runs
out on it.  A way back that keeps entries runs one expansion at a time
(P, and the hit-making variants below).  The references are
``conftest.ref_proof_outcome``, one Python call per expansion with a
memo entry at every node, and ``eval_proof`` itself with no companion
taken for a loop, one expansion at a time.
"""

import random
import tracemalloc

import pytest

from conftest import loop_graph, ref_proof_outcome, ref_proof_stats

from circsafe.compilealg import nb_to_circular
from circsafe.corpus import proof, term_corpus
from circsafe import interp
from circsafe.formats import parse_proof
from circsafe.interp import EvalConfig, EvalStats, FuelExhausted, _Loop, _repeatable, eval_proof
from circsafe.kernel import Node, ProofGraph, Rule, RuleKind, Sequent


def _outcome(g, xs, ys, cfg):
    stats = EvalStats()
    try:
        value = eval_proof(g, g.root, xs, ys, cfg, None, stats)
    except FuelExhausted as e:
        value = str(e)
    return value, stats.steps, stats.memo_keys


def _stepwise(g, xs, ys, cfg, monkeypatch):
    """``_outcome`` on a fresh copy of ``g`` with no loop: one expansion
    at a time, as before loops existed."""
    with monkeypatch.context() as m:
        m.setattr(interp, "_notation_companion", lambda *_: None)
        return _outcome(ProofGraph(g.name, g.root, dict(g.nodes)), xs, ys, cfg)


def _with(g: ProofGraph, nid: str, kind=None, premises=None) -> ProofGraph:
    """A copy of ``g`` with node ``nid``'s rule kind or premises replaced."""
    nodes = dict(g.nodes)
    nd = nodes[nid]
    nodes[nid] = Node(Rule(kind) if kind else nd.rule, nd.sequent, tuple(premises) if premises else nd.premises)
    return ProofGraph(f"{g.name}_{nid}", g.root, nodes)


def _graphs() -> dict:
    terms = term_corpus()
    graphs = {name: proof(name) for name in "SCLP"}
    graphs["loop"] = loop_graph([0, 1, 1], [1])
    graphs.update({name: nb_to_circular(terms[name]) for name in ("append", "lenones", "lenunary")})
    # the way back hits the memo: S with n3 as s0 computes 0 at every level,
    # and L with l6 as s0 keeps y = 0 at 0
    graphs["S_hits"] = _with(graphs["S"], "n3", RuleKind.S0)
    graphs["L_hits"] = _with(graphs["L"], "l6", RuleKind.S0)
    # and a way back that grows all the same: L_hits with its base through an s1 into the way back's id
    graphs["L_grows"] = _with(graphs["L_hits"], "l1", RuleKind.S1, ["l7"])
    return graphs


GRAPHS = _graphs()


def _points(g: ProofGraph, name: str, rng: random.Random) -> list:
    seq = g.nodes[g.root].sequent
    values = [2**40 - 1, 2**40, 2**33 - 1 << 7, rng.getrandbits(40), 5]
    points = [([x] * seq.boxed, [x] * seq.plain) for x in values]
    points += [([rng.getrandbits(36) for _ in range(seq.boxed)], [rng.getrandbits(36) for _ in range(seq.plain)])]
    if name == "L_hits":
        points += [([x], [0]) for x in values]
    return points


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_the_loop_matches_the_reference(name, monkeypatch):
    """Value (or ``FuelExhausted`` text), steps and memo keys equal the
    reference's, with memo on and off, at fuel = steps, steps - 1,
    steps // 2 and 1; the loop runs its levels at once on every graph."""
    runs = {"fold": 0}
    digits = _Loop.digits

    def counted_digits(self, x, k):
        runs["fold"] += 1
        return digits(self, x, k)

    monkeypatch.setattr(_Loop, "digits", counted_digits)
    g = GRAPHS[name]
    rng = random.Random(f"proof-loop:{name}")
    for xs, ys in _points(g, name, rng):
        for memo in (True, False):
            want = ref_proof_outcome(g, xs, ys, memo)
            assert _outcome(g, xs, ys, EvalConfig(memo=memo)) == want, (xs, ys, memo)
            assert _stepwise(g, xs, ys, EvalConfig(memo=memo), monkeypatch) == want
            steps = want[1]
            for fuel in sorted({steps - 1, steps // 2, 1} - {0}):
                got = _outcome(g, xs, ys, EvalConfig(fuel=fuel, memo=memo))
                assert got == ref_proof_outcome(g, xs, ys, memo, fuel), (xs, ys, memo, fuel)
    assert runs["fold"] > 0, runs


@pytest.mark.parametrize("name", ["S_hits", "L_hits"])
def test_the_way_back_hits_the_memo_level_by_level(name):
    """On the hit-making variants a run with memo takes fewer steps than
    one without: their ways back keep entries, so they take no loop."""
    g = GRAPHS[name]
    xs, ys = ([2**300 - 1], []) if name == "S_hits" else ([2**300 - 1], [0])
    on, off = _outcome(g, xs, ys, EvalConfig()), _outcome(g, xs, ys, EvalConfig(memo=False))
    assert on[0] == off[0] and on[1] < off[1], (on, off)
    assert on == ref_proof_outcome(g, xs, ys)


# The memo policy on the ways back (``interp._growing``): a node there
# keeps no entry when its keys provably never repeat, and the graphs
# below mark the rule's edges.  "L_twice" enters L's companion from its
# base too (at y > 0 the base runs L at 2h and then at 2h + 1, h = y >> 1,
# safe 0), so the second run hits l4 at the key the first one stored;
# the evaluator does not check the shapes that its base's cuts break.
# "L_forgets" (l4 as wB, a mutant the fuzz sweep meets) drops the cut's
# value, so its way back is no path to an id returning it.
L_TWICE = parse_proof("""proof L_twice root l0
node l0 : condB seq bN,N => N premises [t0,l2,l2]
node t0 : condN seq N => N premises [t1,t2,t2]
node t1 : zero seq  => N premises []
node t2 : cutN seq N => N premises [t3,t4]
node t3 : cutB seq N => N premises [t5,t7]
node t4 : wN seq N,N => N premises [t6]
node t5 : s0 seq N => N premises [t9]
node t6 : cutB seq N => N premises [t8,t7]
node t7 : wN seq bN,N => N premises [t10]
node t8 : s1 seq N => N premises [t9]
node t9 : id seq N => N premises []
node t10 : cutN seq bN => N premises [t1,l0]
node l2 : cutN seq bN,N => N premises [l0,l3]
node l3 : wB seq bN,N,N => N premises [l4]
node l4 : eN(0) seq N,N => N premises [l5]
node l5 : wN seq N,N => N premises [l6]
node l6 : s1 seq N => N premises [l7]
node l7 : id seq N => N premises []
""")
def _s_base_twice() -> ProofGraph:
    """S whose even base runs n3 at h, then n8 at h again under another s1."""
    g = _with(proof("S"), "n4", premises=["n9"])
    return ProofGraph(g.name, g.root, {
        **g.nodes,
        "n9": Node(Rule(RuleKind.CUT_N), Sequent(0, 1), ("n3", "n10")),
        "n10": Node(Rule(RuleKind.WEAK_N), Sequent(0, 2), ("n11",)),
        "n11": g.nodes["n3"],  # s1 over n8
    })


KEPT = {  # graph, the nodes on its way back that keep entries, inputs whose memo-everywhere run hits the memo
    # P's base reaches p7 through s0 only: P(1) = 0, and the level above 1 looks p7 up at 0
    "P": (GRAPHS["P"], {"p7"}, [([1 << j], []) for j in (1, 2, 5, 40)]),
    # a recursing edit s0 with a base through s0 (S), or with a base that may return 0 (L)
    "S_hits": (GRAPHS["S_hits"], {"n7", "n8"}, [([2**j - 1], []) for j in (2, 5, 40)]),
    "L_hits": (GRAPHS["L_hits"], {"l4", "l6"}, [([2**j - 1], [0]) for j in (2, 5, 40)]),
    # a way back with no successor keeps the base's value, positive as it is
    "S_flat": (_with(proof("S"), "n6", premises=["n8"]), {"n8"}, [([2**j - 1], []) for j in (2, 5, 40)]),
    # the even base enters n8 twice, so not on a spine entered once
    "S_base_twice": (_s_base_twice(), {"n8"}, [([6], []), ([6 << 5 | 31], []), ([6 << 40 | 2**40 - 1], [])]),
    "L_twice": (L_TWICE, {"l4", "l6"}, [([x], [y]) for x in (0, 5, 2**20 - 1) for y in (1, 6)]),
    "L_forgets": (_with(proof("L"), "l4", RuleKind.WEAK_B), {"l4"}, [([12], [2]), ([2**20 - 1], [3])]),
}


def test_way_backs_that_only_grow_keep_no_entries():
    """S and L keep no entry on their ways back, nor P at p4; S keeps n3,
    which its bases share (``tests/test_fuzz.py`` pins the corpus sets).
    Each equals the memo-everywhere reference, folding its way back."""
    assert _repeatable(proof("S"), "n0") == {"n3"} and _repeatable(proof("L"), "l0") == frozenset()
    assert "p4" not in _repeatable(proof("P"), "p0") and _repeatable(GRAPHS["L_grows"], "l0") == frozenset()
    runs = (("S", [2**60 - 1], []), ("L", [2**60 - 1], [0]), ("L", [2**60 - 1], [5]), ("L_grows", [2**60 - 1], [0]),
            ("P", [2**60], []))
    for name, xs, ys in runs:
        g = GRAPHS[name]
        value, steps, keys, hits = ref_proof_stats(g, xs, ys)
        assert hits == (name == "P") and _outcome(g, xs, ys, EvalConfig()) == (value, steps, keys), name


@pytest.mark.parametrize("name", sorted(KEPT))
def test_way_backs_that_may_repeat_keep_their_entries(name):
    """Where the rule cannot show that keys never repeat, the nodes keep
    their entries and the runs hit them, as the memo-everywhere
    reference does, at fuel = steps, steps - 1 and steps // 2."""
    g, want_kept, inputs = KEPT[name]
    assert want_kept <= _repeatable(g, g.root), name
    hits = 0
    for xs, ys in inputs:
        want = ref_proof_outcome(g, xs, ys)
        steps = want[1]
        assert _outcome(g, xs, ys, EvalConfig()) == want, (xs, ys)
        for fuel in sorted({steps - 1, steps // 2} - {0}):
            assert _outcome(g, xs, ys, EvalConfig(fuel=fuel)) == ref_proof_outcome(g, xs, ys, True, fuel), (xs, ys, fuel)
        hits += ref_proof_stats(g, xs, ys)[3]
    assert hits > 0


def test_a_way_back_that_only_grows_folds_in_linear_memory():
    """``eval_proof`` of S and L at 2**14 all-ones bits, memo on, peaks
    below 1 MB in tracemalloc: no memo entry holds a level's value."""
    x = 2 ** 2**14 - 1
    for name, xs, ys in (("S", [x], []), ("L", [x], [x])):
        g = proof(name)
        tracemalloc.start()
        try:
            eval_proof(g, g.root, xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (name, peak)


def test_long_all_ones_inputs_charge_every_level():
    """The corpus proofs at 4096 all-ones bits: the closed forms, and the
    step counts of ``tests/golden/eval_stats.json``'s growth (5 per
    digit for S, 4 for C, 7 for L), with memo on and off."""
    x = 2**4096 - 1
    for memo in (True, False):
        cfg, stats = EvalConfig(memo=memo), {n: EvalStats() for n in "SCLP"}
        assert eval_proof(proof("S"), "n0", [x], [], cfg, None, stats["S"]) == x + 1
        assert eval_proof(proof("C"), "c0", [x, x], [x], cfg, None, stats["C"]) == ((x << 4096 | x) << 4096) | x
        assert eval_proof(proof("L"), "l0", [x], [x], cfg, None, stats["L"]) == (x << 4096) | x
        assert eval_proof(proof("P"), "p0", [x], [], cfg, None, stats["P"]) == x - 1
        assert eval_proof(proof("P"), "p0", [1 << 4096], [], cfg, None, stats["P"]) == (1 << 4096) - 1
        steps = {n: s.steps for n, s in stats.items()}
        assert steps == {"S": 5 * 4096 + 5, "C": 4 * 4096 + 3, "L": 7 * 4096 + 2, "P": 4 + 5 * 4096 + 4}, steps


# Invalid graphs: the walks that work out a companion's shape stop on a
# cycle that avoids the companion, and the run goes on one step at a
# time, as if no loop existed.
CYCLES = {
    # C's even branch: an s0 that is its own premise
    "chain": (_with(proof("C"), "c5", premises=["c5"]), [2**20, 3], [5]),
    # S's way back: an s0 that is its own premise
    "way back": (_with(proof("S"), "n7", premises=["n7"]), [2**20 - 1], []),
    # loop_graph's a-branch: a0 -> a1 -> a0
    "two nodes": (_with(loop_graph([0, 1], [1]), "a1", premises=["a0"]), [2**20], [5]),
}


@pytest.mark.parametrize("name", sorted(CYCLES))
def test_a_cycle_that_avoids_the_companion_runs_as_one_step_at_a_time(name, monkeypatch):
    """The run raises ``FuelExhausted`` at the node, step and memo key
    count of the machine that takes no loop (a run that never returns
    counts a key per expansion at a node with no memo entry, so only the
    text and steps are the reference's)."""
    g, xs, ys = CYCLES[name]
    for memo in (True, False):
        for fuel in (1, 37, 300):
            want = _stepwise(g, xs, ys, EvalConfig(fuel=fuel, memo=memo), monkeypatch)
            assert want[:2] == ref_proof_outcome(g, xs, ys, memo, fuel)[:2] and want[1] == fuel
            assert _outcome(g, xs, ys, EvalConfig(fuel=fuel, memo=memo)) == want, (memo, fuel)
