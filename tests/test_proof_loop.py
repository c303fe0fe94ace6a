"""Recursion on notation in ``eval_proof``, against the reference.

A condB companion whose digit branches re-enter it at ``x >> 1`` (a
chain of successors back to it, or a cut whose left premise is it and
whose right premise leads to an id returning the cut's value) runs its
levels as one loop (``interp._Loop``): the way down is charged at once,
and the way back folds its edits, or runs one level at a time where it
keeps memo entries or fuel may run out on it.  The references are
``conftest.ref_proof_outcome``, one Python call per expansion with a
memo entry at every node, and ``eval_proof`` itself with no companion
taken for a loop, one expansion at a time.
"""

import random

import pytest

from conftest import loop_graph, ref_proof_outcome

from circsafe.compilealg import nb_to_circular
from circsafe.corpus import proof, term_corpus
from circsafe import interp
from circsafe.interp import EvalConfig, EvalStats, FuelExhausted, _Loop, eval_proof
from circsafe.kernel import Node, ProofGraph, Rule, RuleKind


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
    steps // 2 and 1; the loop runs its levels at once on every graph,
    and its way back one level at a time where it is a cut's."""
    runs = {"fold": 0, "unwind": 0}
    digits, unwind = _Loop.digits, _Loop.unwind

    def counted_digits(self, x, k):
        runs["fold"] += 1
        return digits(self, x, k)

    def counted_unwind(self, *args):
        runs["unwind"] += 1
        runs["fold"] -= 1  # unwind reads the digits too
        return unwind(self, *args)

    monkeypatch.setattr(_Loop, "digits", counted_digits)
    monkeypatch.setattr(_Loop, "unwind", counted_unwind)
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
    assert runs["fold"] > 0 and (runs["unwind"] > 0) == (name not in ("C", "loop")), runs


@pytest.mark.parametrize("name", ["S_hits", "L_hits"])
def test_the_way_back_hits_the_memo_level_by_level(name):
    """On the hit-making variants a run with memo takes fewer steps than
    one without, through the loop's level-by-level way back."""
    g = GRAPHS[name]
    xs, ys = ([2**300 - 1], []) if name == "S_hits" else ([2**300 - 1], [0])
    on, off = _outcome(g, xs, ys, EvalConfig()), _outcome(g, xs, ys, EvalConfig(memo=False))
    assert on[0] == off[0] and on[1] < off[1], (on, off)
    assert on == ref_proof_outcome(g, xs, ys)


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
