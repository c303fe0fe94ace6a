"""Randomized whole-pipeline agreement and checker crash-safety."""

import random

import pytest
from conftest import mutate, sample_two_sorted
from hypothesis import given, settings
from hypothesis import strategies as st

from circsafe.checker import classify
from circsafe.compilealg import srec_eliminate, term_to_derivation
from circsafe.corpus import standard_proofs
from circsafe.interp import (
    Call,
    CompNormal,
    CompSafe,
    Cond,
    EvalConfig,
    PPFunction,
    PPProgram,
    Pred,
    Proj,
    S0,
    S1,
    SRecN,
    TermDef,
    Zero,
    check_term_class,
    eval_pp,
    eval_proof,
    eval_term,
)
from circsafe.kernel import Node, ProofGraph, Rule, RuleKind, Sequent, validate_graph
from circsafe.translate import MAIN, translate


def random_b_term(rng: random.Random, m: int, n: int, depth: int, rec_budget: list):
    """A well-formed term of the base algebra over (m; n) inputs."""
    leaves = [Zero()]
    leaves += [Proj("n", i) for i in range(m)]
    leaves += [Proj("s", j) for j in range(n)]
    if depth <= 0:
        return rng.choice(leaves)
    kind = rng.randrange(8)
    if kind == 0:
        return rng.choice(leaves)
    if kind == 1:
        return S0(random_b_term(rng, m, n, depth - 1, rec_budget))
    if kind == 2:
        return S1(random_b_term(rng, m, n, depth - 1, rec_budget))
    if kind == 3:
        return Pred(random_b_term(rng, m, n, depth - 1, rec_budget))
    if kind == 4:
        return Cond(*(random_b_term(rng, m, n, depth - 1, rec_budget) for _ in range(4)))
    if kind == 5:
        return CompSafe(
            random_b_term(rng, m, n + 1, depth - 1, rec_budget),
            random_b_term(rng, m, n, depth - 1, rec_budget),
        )
    if kind == 6 and m >= 1:
        return CompNormal(
            random_b_term(rng, m + 1, n, depth - 1, rec_budget),
            random_b_term(rng, m, 0, depth - 1, rec_budget),
        )
    if m >= 1 and rec_budget[0] > 0:
        rec_budget[0] -= 1
        return SRecN(
            random_b_term(rng, m - 1, n, depth - 1, rec_budget),
            random_b_term(rng, m, n + 1, depth - 1, rec_budget),
            random_b_term(rng, m, n + 1, depth - 1, rec_budget),
        )
    return rng.choice(leaves)


def test_random_b_terms_whole_pipeline():
    rng = random.Random(20260809)
    strict = EvalConfig(guard_mode="strict")
    made = 0
    for trial in range(120):
        m = rng.randrange(0, 3)
        n = rng.randrange(0, 3)
        td = TermDef(f"fz{trial}", m, n, random_b_term(rng, m, n, 3, [2]))
        assert check_term_class(td, "B") == []
        deriv = term_to_derivation(td)
        assert validate_graph(deriv, allow_srec=True) == []
        circ = srec_eliminate(deriv)
        assert validate_graph(circ) == []
        cls = classify(circ)
        assert cls.cls == "CB", (trial, cls)
        prog = translate(circ)
        assert check_term_class(prog, "Bpp") == []
        for _ in range(15):
            xs, ys = sample_two_sorted(rng, m, n, 8)
            want = eval_term(td.body, None, xs, ys)
            assert eval_proof(deriv, deriv.root, xs, ys) == want, (trial, xs, ys)
            assert eval_proof(circ, circ.root, xs, ys) == want, (trial, xs, ys)
            assert eval_pp(prog, MAIN, None, xs, ys, strict) == want, (trial, xs, ys)
        made += 1
    assert made == 120


def test_random_b_term_bounds_hold():
    from circsafe.bounds import verify_bound

    rng = random.Random(77002)
    for trial in range(40):
        m = rng.randrange(0, 3)
        n = rng.randrange(0, 3)
        td = TermDef(f"bz{trial}", m, n, random_b_term(rng, m, n, 3, [2]))
        rep = verify_bound(td, samples=40, seed=trial)
        assert rep.violations == [], (trial, rep.violations[:1])
        from circsafe.bounds import synthesize_bound

        pair = synthesize_bound(td.body)
        assert pair.d == 1 and pair.is_polynomial, trial


def test_checker_totality_on_mutants():
    # classify never crashes and stays coherent on arbitrary corruption
    rng = random.Random(31007)
    for name, g in standard_proofs().items():
        for _ in range(60):
            mutant = mutate(rng, g)
            c = classify(mutant)
            if c.cls == "CB":
                assert c.safe and c.left_leaning and c.progressing is True
            if c.cls == "CNB":
                assert c.safe and c.progressing is True
            if not c.valid:
                assert c.cls == "none"


def random_nb_step(rng: random.Random, m: int, n: int, depth: int, rec_budget: list, rec_arity: int):
    """A step term over the recursion oracle; recursion-free otherwise.

    The recursion oracle always takes ``rec_arity`` safe arguments (the
    enclosing function's own count), whatever the ambient context grew to.
    """
    from circsafe.interp import OracleCall

    leaves = [Zero()] + [Proj("n", i) for i in range(m)] + [Proj("s", j) for j in range(n)]
    if depth <= 0:
        return rng.choice(leaves)
    kind = rng.randrange(8)
    if kind == 0:
        return rng.choice(leaves)
    if kind in (1, 2):
        op = S0 if kind == 1 else S1
        return op(random_nb_step(rng, m, n, depth - 1, rec_budget, rec_arity))
    if kind == 3:
        return Pred(random_nb_step(rng, m, n, depth - 1, rec_budget, rec_arity))
    if kind == 4:
        return Cond(*(random_nb_step(rng, m, n, depth - 1, rec_budget, rec_arity) for _ in range(4)))
    if kind == 5:
        return CompSafe(
            random_nb_step(rng, m, n + 1, depth - 1, rec_budget, rec_arity),
            random_nb_step(rng, m, n, depth - 1, rec_budget, rec_arity),
        )
    if rec_budget[0] > 0:
        rec_budget[0] -= 1
        return OracleCall(
            "rec",
            (),
            tuple(
                random_nb_step(rng, m, n, depth - 1, rec_budget, rec_arity)
                for _ in range(rec_arity)
            ),
        )
    return rng.choice(leaves)


def test_random_nb_terms_whole_pipeline():
    from circsafe.compilealg import nb_to_circular
    from circsafe.interp import SNRec

    rng = random.Random(515031)
    strict = EvalConfig(guard_mode="strict")
    made = 0
    for trial in range(60):
        m = rng.randrange(1, 3)
        n = rng.randrange(1, 3)
        g_term = random_b_term(rng, m - 1, n, 2, [0])
        h_term = random_nb_step(rng, m, n, 3, [3], n)
        td = TermDef(f"nz{trial}", m, n, SNRec(g_term, h_term))
        assert check_term_class(td, "NB") == []
        circ = nb_to_circular(td)
        assert validate_graph(circ) == [], trial
        cls = classify(circ)
        assert cls.cls in ("CB", "CNB"), (trial, cls)
        prog = translate(circ)
        assert check_term_class(prog, "NBpp") == []
        for _ in range(12):
            xs, ys = sample_two_sorted(rng, m, n, 6)
            want = eval_term(td.body, None, xs, ys)
            assert eval_proof(circ, circ.root, xs, ys) == want, (trial, xs, ys)
            assert eval_pp(prog, MAIN, None, xs, ys, strict) == want, (trial, xs, ys)
        made += 1
    assert made == 60


@pytest.mark.parametrize("cut", [1, 40, None])
def test_eval_proof_statistics_match_the_memo_everywhere_reference(cut):
    """Value, steps and memo keys of ``eval_proof`` equal those of a run
    that keeps a memo entry at every node (``ref_proof_stats``), with
    memoization on and off, on the corpus, on compiled random terms, on
    mutated corpus graphs that evaluate and on all-ones runs of over a
    thousand expansions.  ``cut`` (None: no cut) is a second fuel: each
    run that takes more steps is run again with it and reports the
    reference's counts at the step where it stops."""
    from conftest import ref_proof_stats

    from circsafe.compilealg import nb_to_circular
    from circsafe.corpus import proof
    from circsafe.interp import EvalError, EvalStats, FuelExhausted, SNRec

    rng = random.Random(4242)
    graphs = [(g, 7) for g in standard_proofs().values()]
    graphs += [(proof(n), 7) for n in ("N_UNSAFE", "P_UNSAFE")]
    for trial in range(30):
        m, n = rng.randrange(1, 3), rng.randrange(0, 3)
        deriv = term_to_derivation(TermDef(f"b{trial}", m, n, random_b_term(rng, m, n, 3, [2])))
        graphs += [(deriv, 6), (srec_eliminate(deriv), 6)]
        n = rng.randrange(1, 3)
        step = random_nb_step(rng, m, n, 3, [3], n)
        nb = TermDef(f"nb{trial}", m, n, SNRec(random_b_term(rng, m - 1, n, 2, [0]), step))
        graphs.append((nb_to_circular(nb), 5))
    corpus = list(standard_proofs().values())
    graphs += [(mutate(rng, rng.choice(corpus)), 5) for _ in range(400)]

    checked, hits = 0, {}
    for g, bits in graphs:
        seq = g.nodes[g.root].sequent
        for _ in range(6):
            xs, ys = sample_two_sorted(rng, seq.boxed, seq.plain, bits)
            for memo in (True, False):
                stats = EvalStats()
                try:
                    got = eval_proof(g, g.root, xs, ys, EvalConfig(fuel=400, memo=memo), None, stats)
                except (EvalError, FuelExhausted, IndexError, KeyError):  # ill-formed or diverging mutants
                    continue
                value, steps, keys, hit = ref_proof_stats(g, xs, ys, memo)
                assert (got, stats.steps, stats.memo_keys) == (value, steps, keys), (g.name, xs, ys, memo)
                hits[g.name] = hits.get(g.name, 0) + hit
                checked += 1
                if cut is not None and cut < steps:
                    _assert_cut_like_reference(g, xs, ys, memo, cut)
    assert checked > 1500
    assert hits["N"] > 0 and hits["N_UNSAFE"] > 0
    # all-ones runs of over a thousand expansions
    long_runs = (("E", [2**9 - 1], [3]), ("N", [2**10 - 1], []), ("S", [2**210 - 1], []), ("L", [2**200 - 1], [5]))
    for name, xs, ys in long_runs:
        g, stats = proof(name), EvalStats()
        got = eval_proof(g, g.root, xs, ys, None, None, stats)
        value, steps, keys, _ = ref_proof_stats(g, xs, ys)
        assert steps > 1000 and (got, stats.steps, stats.memo_keys) == (value, steps, keys), name
        if cut is not None:
            for memo in (True, False):
                _assert_cut_like_reference(g, xs, ys, memo, cut)


def _assert_cut_like_reference(g, xs, ys, memo: bool, fuel: int) -> None:
    """A run of ``g`` that runs out of ``fuel`` reports the steps and memo
    keys of the memo-everywhere reference cut at the same fuel."""
    from conftest import ref_proof_stats

    from circsafe.interp import EvalStats, FuelExhausted

    stats = EvalStats()
    with pytest.raises(FuelExhausted):
        eval_proof(g, g.root, xs, ys, EvalConfig(fuel=fuel, memo=memo), None, stats)
    value, steps, keys, _ = ref_proof_stats(g, xs, ys, memo, fuel)
    assert value is None and (stats.steps, stats.memo_keys) == (steps, keys), (g.name, xs, ys, memo, fuel)


def test_eval_proof_statistics_when_fuel_runs_out():
    """A run that runs out of fuel reports the steps it took and the keys
    whose expansion began, as the memo-everywhere reference does at the
    same fuel, on short runs and on the all-ones S and L runs cut off at
    half their steps."""
    from conftest import ref_proof_stats

    from circsafe.corpus import proof
    from circsafe.interp import EvalStats, FuelExhausted

    rng = random.Random(77)
    graphs = list(standard_proofs().values()) + [proof("N_UNSAFE")]
    checked = 0
    for g in graphs:
        seq = g.nodes[g.root].sequent
        for _ in range(4):
            xs, ys = sample_two_sorted(rng, seq.boxed, seq.plain, 5)
            for memo in (True, False):
                stats = EvalStats()
                try:
                    eval_proof(g, g.root, xs, ys, EvalConfig(fuel=400, memo=memo), None, stats)
                except FuelExhausted:  # a diverging proof
                    continue
                full = stats.steps
                for fuel in sorted({1, 2, full // 3, full // 2, full - 1} & set(range(1, full))):
                    stats = EvalStats()
                    with pytest.raises(FuelExhausted):
                        eval_proof(g, g.root, xs, ys, EvalConfig(fuel=fuel, memo=memo), None, stats)
                    value, steps, keys, _ = ref_proof_stats(g, xs, ys, memo, fuel)
                    assert value is None and (stats.steps, stats.memo_keys) == (steps, keys), (g.name, xs, ys, fuel)
                    checked += 1
    assert checked > 200
    for name, xs, ys in (("S", [2**420 - 1], []), ("L", [2**400 - 1], [5])):  # over 2000 steps
        g = proof(name)
        _, full, _, _ = ref_proof_stats(g, xs, ys)
        for memo in (True, False):
            stats = EvalStats()
            with pytest.raises(FuelExhausted):
                eval_proof(g, g.root, xs, ys, EvalConfig(fuel=full // 2, memo=memo), None, stats)
            _, steps, keys, _ = ref_proof_stats(g, xs, ys, memo, full // 2)
            assert full // 2 > 1000 and (stats.steps, stats.memo_keys) == (steps, keys), (name, memo)


# Graphs with memo hits at a node that one condition of
# interp._repeatable keeps, named by the node and the condition.  Each
# evaluates a sub-proof at two inputs that its rule maps to one: a
# conditional or srec at 2x and 2x + 1 (the boxed cuts compute 2x and
# 2x + 1 from x), or a weakening at two values of the input it drops.
_TWICE_X = """
node p : boxR seq bN => bN premises [p0]
node p0 : s0 seq bN => N premises [p1]
node p1 : boxL seq bN => N premises [p2]
node p2 : id seq N => N premises []
"""
_TWICE_X_PLUS_1 = """
node pp : boxR seq bN => bN premises [pp0]
node pp0 : s1 seq bN => N premises [p1]
"""
MEMO_RULE_GRAPHS = {
    # m is a conditional's s0 and s1 premise at once: m(x, x) from a(2x, x)
    # and a(2x + 1, x); m1, under m's one injective edge, is an oracle leaf
    ("m", "condB premise twice"): """proof twoslots root r
node r : cutB seq bN => N premises [p,q]
node q : cutN seq bN,bN => N premises [a,q1]
node a : condB seq bN,bN => N premises [z,m,m]
node z : wB seq bN => N premises [z1]
node z1 : zero seq  => N premises []
node m : s1 seq bN,bN => N premises [m1]
node m1 : oracle oracle f seq bN,bN => N premises []
node q1 : wN seq bN,bN,N => N premises [q2]
node q2 : wB seq bN,bN => N premises [q3]
node q3 : cutB seq bN => N premises [pp,a]
""" + _TWICE_X + _TWICE_X_PLUS_1,
    # k's one way in is a wB: k() from w(x) and w(2x)
    ("k", "one way in, from wB"): """proof weakb root r
node r : cutN seq bN => N premises [w,r1]
node w : wB seq bN => N premises [k]
node k : s1 seq  => N premises [k1]
node k1 : zero seq  => N premises []
node r1 : wN seq bN,N => N premises [r2]
node r2 : cutB seq bN => N premises [p,r3]
node r3 : eB(0) seq bN,bN => N premises [r4]
node r4 : wB seq bN,bN => N premises [w]
""" + _TWICE_X,
    # k's one way in is a wN: k() from w(y) and w(1)
    ("k", "one way in, from wN"): """proof weakn root r
node r : cutN seq N => N premises [w,r1]
node w : wN seq N => N premises [k]
node k : s1 seq  => N premises [k1]
node k1 : zero seq  => N premises []
node r1 : eN(0) seq N,N => N premises [r2]
node r2 : wN seq N,N => N premises [w]
""",
    # st is both step premises of s: st(x, x; s(x, x)) from s(2x, x) and
    # s(2x + 1, x); s(x, x) hits through s's expansion of itself, since
    # s has one edge in
    ("st", "srec step premise twice"): """proof srecone root r
node r : cutB seq bN => N premises [p,q]
node q : cutN seq bN,bN => N premises [e,q1]
node e : s1 seq bN,bN => N premises [s]
node s : srec seq bN,bN => N premises [b,st,st]
node b : wB seq bN => N premises [b1]
node b1 : zero seq  => N premises []
node st : s1 seq bN,bN,N => N premises [st1]
node st1 : wB seq bN,bN,N => N premises [st2]
node st2 : wB seq bN,N => N premises [st3]
node st3 : id seq N => N premises []
node q1 : wN seq bN,bN,N => N premises [q2]
node q2 : wB seq bN,bN => N premises [q3]
node q3 : cutB seq bN => N premises [pp,e]
""" + _TWICE_X + _TWICE_X_PLUS_1,
}


def _host_f(calls: list):
    """An oracle ``f`` on two normals that records its calls in ``calls``."""
    from circsafe.interp import OracleDef, OracleEnv

    return OracleEnv([OracleDef("f", 2, 0, lambda xs, ys: calls.append(xs) or xs[0] + 3 * xs[1])])


def _same_as_memo_everywhere(g, nid, inputs, host: bool = False) -> int:
    """Check ``eval_proof`` at ``nid`` against ``ref_proof_stats`` (value,
    steps, memo keys and, with ``host``, the calls of ``_host_f``) with
    memoization on and off; returns the memo hits."""
    from conftest import ref_proof_stats

    from circsafe.interp import EvalStats

    at = ProofGraph(g.name, nid, g.nodes)
    hits = 0
    for xs, ys in inputs:
        for memo in (True, False):
            stats, calls, want_calls = EvalStats(), [], []
            got = eval_proof(g, nid, xs, ys, EvalConfig(memo=memo), _host_f(calls) if host else None, stats)
            value, steps, keys, hit = ref_proof_stats(at, xs, ys, memo, None, _host_f(want_calls) if host else None)
            assert (got, stats.steps, stats.memo_keys) == (value, steps, keys), (g.name, nid, xs, ys, memo)
            assert calls == want_calls, (g.name, xs, ys, memo)  # the host is called as often, in the same order
            hits += hit
    return hits


def test_memo_entries_stay_where_the_memo_everywhere_run_hits():
    """Each condition of ``_repeatable``'s rule keeps an entry that a run
    hits; every run keeps entries only there, and matches the run with
    an entry at every node.  ``m1`` is an oracle leaf under one injective
    edge: it keeps no entry, and its host function is called once per
    distinct key all the same."""
    from circsafe.formats import parse_proof
    from circsafe.interp import _repeatable

    inputs = {"twoslots": [([x], []) for x in (0, 1, 2, 5, 12)], "weakn": [([], [y]) for y in (0, 1, 2, 7)]}
    for (node, why), text in MEMO_RULE_GRAPHS.items():
        g = parse_proof(text)
        assert validate_graph(g, allow_srec=True, allow_oracle=True) == [], why
        kept = _repeatable(g, g.root)
        assert node in kept, why
        host = g.name == "twoslots"
        if host:
            assert "m1" not in kept
        hits = _same_as_memo_everywhere(g, g.root, inputs.get(g.name, [([x], []) for x in (0, 1, 6, 9)]), host)
        assert hits > 0, why


def test_memo_entries_for_a_run_started_below_the_root():
    """A run from a node other than the root counts only the edges from
    nodes it reaches: from ``u0`` in N (into which the unreached root
    ``m0`` has an edge too), and from ``m0`` in N with its root moved to
    ``u1``, which reaches none of the nodes that the run expands."""
    from circsafe.corpus import proof

    n = proof("N")
    assert "u0" in n.nodes["m0"].premises
    assert _same_as_memo_everywhere(n, "u0", [([x], [y]) for x in (0, 3, 6, 13) for y in (0, 5)]) > 0
    aside = ProofGraph(n.name, "u1", n.nodes)
    assert not any("m0" in nd.premises for nd in n.nodes.values())
    assert _same_as_memo_everywhere(aside, "m0", [([x], []) for x in (0, 3, 6, 13)]) > 0


def test_repeatable_on_the_corpus(proofs):
    from circsafe.interp import _repeatable

    # S's n3 is the right premise of the cut n1, with ways in from n1 and
    # n4, but a run of S expands it once.  The ways back of S and L, and
    # P's p4, hold values that only grow (interp._growing); P's base
    # reaches p7 through an s0, and a run of P at a power of two hits it
    kept = {"S": {"n3"}, "L": set(), "E": {"e0", "e3"}, "P": {"p7"}, "C": set()}
    for name, want in kept.items():
        g = proofs[name]
        assert _repeatable(g, g.root) == want, name


def test_memo_sets_are_kept_with_the_graph(monkeypatch):
    """``eval_proof`` computes a start node's memo set once and keeps it on
    the graph while its root and nodes stay the same (equal nodes count
    as the same); a changed node map or root drops the kept sets.  Beside
    each set it keeps the notation companions that runs from that start
    node reached, and runs without memo keep theirs under None."""
    from dataclasses import replace

    from circsafe import interp
    from circsafe.corpus import proof

    computed, real = [], interp._repeatable
    monkeypatch.setattr(interp, "_repeatable", lambda g, nid: computed.append(nid) or real(g, nid))
    g = proof("S")
    for x in (5, 6, 2**100 - 1):
        assert eval_proof(g, "n0", [x], []) == x + 1
    assert eval_proof(g, "n0", [3], [], EvalConfig(memo=False)) == 4  # no memo, no set
    assert computed == ["n0"]
    for _ in range(2):
        assert eval_proof(g, "n1", [], []) == 1
    assert computed == ["n0", "n1"]
    g.nodes["n1"] = replace(g.nodes["n1"])  # an equal node
    assert eval_proof(g, "n0", [9], []) == 10 and computed == ["n0", "n1"]
    g.nodes["extra"] = Node(Rule(RuleKind.ZERO), Sequent(0, 0), ())
    assert eval_proof(g, "n0", [9], []) == 10 and computed == ["n0", "n1", "n0"]
    g.root = "n1"
    assert eval_proof(g, "n0", [9], []) == 10 and computed == ["n0", "n1", "n0", "n0"]
    assert g._memo_nodes[2].keys() == {"n0"}
    repeat, loops = g._memo_nodes[2]["n0"]
    assert repeat == real(g, "n0") and loops.keys() == {"n0"} and loops["n0"].odd == 1
    assert eval_proof(g, "n0", [3], [], EvalConfig(memo=False)) == 4  # no levels to descend: nothing worked out
    assert eval_proof(g, "n0", [2**9 - 1], [], EvalConfig(memo=False)) == 2**9
    assert g._memo_nodes[2].keys() == {"n0", None} and g._memo_nodes[2][None][1].keys() == {"n0"}
    assert computed == ["n0", "n1", "n0", "n0"]


def test_repeatable_takes_linear_memory():
    """The proof policy's traced peak on a chain of 8 * 10**4 nodes is at
    most five times its peak on 2 * 10**4 (a quadratic one would take
    sixteen)."""
    import tracemalloc

    from conftest import chain_graph

    from circsafe.interp import _repeatable

    peaks = []
    for n in (2 * 10**4, 8 * 10**4):
        g = chain_graph([j % 2 for j in range(n - 1)])
        tracemalloc.start()
        try:
            assert _repeatable(g, g.root) == frozenset()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 5 * peaks[0], peaks


def test_program_memo_policy_on_the_corpus(proofs):
    """Translated S, C, L and P make at most one call per activation, so
    no call keeps a memo entry; E and N call f0 twice from one body."""
    from circsafe.interp import _ProgramCode

    for name in ("S", "C", "L", "P", "E", "N"):
        prog = translate(proofs[name])
        want = {"f0"} if name in ("E", "N") else set()
        assert _ProgramCode(prog.functions).keep == want, name


def _random_body(rng: random.Random, m: int, n: int, depth: int, me: int, sigs: list):
    """A program body over (m; n) inputs for function ``me``: plain calls
    to earlier functions and guarded calls to itself, in any position
    (conditions, composed functions, oracle and call arguments), so every
    path from a body to a call is exercised."""
    leaves = [Zero()] + [Proj("n", i) for i in range(m)] + [Proj("s", j) for j in range(n)]
    kind = rng.randrange(9) if depth > 0 else 0
    sub = lambda mm, nn: _random_body(rng, mm, nn, depth - 1, me, sigs)  # noqa: E731
    if kind == 0:
        return rng.choice(leaves)
    if kind == 1:
        return rng.choice([S0, S1, Pred])(sub(m, n))
    if kind == 2:
        return Cond(sub(m, n), sub(m, n), sub(m, n), sub(m, n))
    if kind == 3:
        return CompSafe(sub(m, n + 1), sub(m, n))
    if kind == 4 and m:
        return CompNormal(sub(m + 1, n), sub(m, 0))
    if kind == 5:
        from circsafe.interp import OracleCall

        return OracleCall("h", (sub(m, n),), (sub(m, n),))
    from circsafe.interp import Call

    j = rng.randrange(me + 1)  # down in the list, or a guarded call to itself: every run ends
    fm, fn = sigs[j]
    guard = None if j < me else rng.choice(["strict", "strict_safe"])
    return Call(f"f{j}", tuple(sub(m, n) for _ in range(fm)), tuple(sub(m, n) for _ in range(fn)), guard)


def test_eval_pp_matches_reference_with_calls_anywhere():
    """Values, guard failures and fuel accounting of ``eval_pp`` on random
    programs whose calls sit in every kind of position, against the
    reference ``ref_pp``; with memoization on, value, statistics and the
    outcome at less fuel against a run with a memo entry for every call."""
    from conftest import memo_everywhere, pp_outcome, ref_pp

    from circsafe.interp import (
        EvalStats,
        FuelExhausted,
        GuardViolation,
        OracleDef,
        OracleEnv,
        PPFunction,
        PPProgram,
    )

    rng = random.Random(90210)
    host = [OracleDef("h", 1, 1, lambda us, vs: 2 * us[0] + vs[0] % 4)]
    checked = violations = hits = 0
    for trial in range(80):
        sigs = [(rng.randrange(1, 3), rng.randrange(0, 3)) for _ in range(rng.randrange(1, 4))]
        prog = PPProgram(
            {f"f{i}": PPFunction(f"f{i}", m, n, _random_body(rng, m, n, 3, i, sigs)) for i, (m, n) in enumerate(sigs)}
        )
        everywhere = memo_everywhere(prog)
        top = len(sigs) - 1
        for _ in range(8):
            xs, ys = sample_two_sorted(rng, *sigs[top], 3)
            for strict in (False, True):
                try:
                    want = ref_pp(prog, f"f{top}", xs, ys, host, strict)
                except GuardViolation:
                    want = GuardViolation
                for memo in (True, False):
                    cfg, stats = EvalConfig(memo=memo, guard_mode="strict" if strict else "zero"), EvalStats()
                    try:
                        got = eval_pp(prog, f"f{top}", OracleEnv(host), xs, ys, cfg, stats)
                    except GuardViolation:
                        got = GuardViolation
                    assert got == want, (trial, xs, ys, strict, memo)
                    violations += got is GuardViolation
                    if memo:
                        for fuel in {cfg.fuel, stats.steps, max(1, stats.steps // 2)}:
                            cut = EvalConfig(fuel, True, cfg.guard_mode)
                            outcome = pp_outcome(everywhere, f"f{top}", OracleEnv(host), xs, ys, cut)
                            assert pp_outcome(prog, f"f{top}", OracleEnv(host), xs, ys, cut) == outcome, (trial, fuel)
                        off = EvalConfig(memo=False, guard_mode=cfg.guard_mode)
                        hits += stats.steps < pp_outcome(prog, f"f{top}", OracleEnv(host), xs, ys, off)[1].steps
                    if memo or got is GuardViolation:
                        continue
                    # without a memo every call is entered: it costs one fuel and counts one step
                    assert eval_pp(prog, f"f{top}", OracleEnv(host), xs, ys, EvalConfig(stats.steps, False)) == got
                    if stats.steps > 1:
                        with pytest.raises(FuelExhausted):
                            eval_pp(prog, f"f{top}", OracleEnv(host), xs, ys, EvalConfig(stats.steps - 1, False))
                    checked += 1
    assert checked > 500 and violations > 50 and hits > 100, hits


# Prefix edits: a chain of s0/s1/p compiles to one edit ``v >> r << k | c``,
# and an srec whose steps are such edits of the recursion value (or
# constants) runs them inline.  The references below apply one operator
# at a time.

_EDIT_OPS = st.lists(st.sampled_from([S0, S1, Pred]), max_size=12)


def _chained(ops: list, leaf):
    """``ops`` (outermost first) applied to ``leaf``."""
    for op in reversed(ops):
        leaf = op(leaf)
    return leaf


def _ref_chain(ops: list, v: int) -> int:
    for op in reversed(ops):
        v = 2 * v if op is S0 else 2 * v + 1 if op is S1 else v // 2
    return v


def _inputs(ops: list):
    """0, 1, a value shorter than the chain's count of p, or any."""
    short = 2 ** sum(op is Pred for op in ops) - 1
    return st.one_of(st.just(0), st.just(1), st.integers(0, short), st.integers(0, 2**80))


@given(st.data(), _EDIT_OPS, st.sampled_from(["n", "s", "0"]))
@settings(max_examples=400, deadline=None)
def test_unary_chains_match_one_operator_at_a_time(data, ops, leaf):
    x, y = data.draw(_inputs(ops)), data.draw(_inputs(ops))
    base = Zero() if leaf == "0" else Proj(leaf, 0)
    want = _ref_chain(ops, {"n": x, "s": y, "0": 0}[leaf])
    assert eval_term(_chained(ops, base), None, [x], [y]) == want
    # above a program call, the chain is one frame of the call's caller
    prog = PPProgram({
        "main": PPFunction("main", 1, 1, _chained(ops, Call("leaf", (Proj("n", 0),), (Proj("s", 0),)))),
        "leaf": PPFunction("leaf", 1, 1, base),
    })
    assert eval_pp(prog, "main", None, [x], [y]) == want


# an srec step at (1; 2) as (ops, leaf): the leaf is the normal x0 (the
# prefix before the step's bit), the safe y0, the recursion value y1,
# 0, or a conditional on y1 (no chain reaches a cond's value)
_STEP_LEAVES = ["x0", "y0", "y1", "0", "cond"]


def _step_term(ops: list, leaf: str):
    x0, y0, y1 = Proj("n", 0), Proj("s", 0), Proj("s", 1)
    leaves = {"x0": x0, "y0": y0, "y1": y1, "0": Zero(), "cond": Cond(y1, S1(y0), y1, Pred(y1))}
    return _chained(ops, leaves[leaf])


def _ref_step(ops: list, leaf: str, x: int, y: int, v: int) -> int:
    if leaf == "cond":
        base = 2 * y + 1 if v == 0 else v if v % 2 == 0 else v // 2
    else:
        base = {"x0": x, "y0": y, "y1": v, "0": 0}[leaf]
    return _ref_chain(ops, base)


@given(st.data(), _EDIT_OPS, st.sampled_from(["y0", "0"]), _EDIT_OPS, st.sampled_from(_STEP_LEAVES),
       _EDIT_OPS, st.sampled_from(_STEP_LEAVES))
@settings(max_examples=400, deadline=None)
def test_srec_with_edit_steps_matches_a_plain_loop(data, g_ops, g_leaf, ops0, leaf0, ops1, leaf1):
    term = SRecN(_chained(g_ops, Zero() if g_leaf == "0" else Proj("s", 0)),
                 _step_term(ops0, leaf0), _step_term(ops1, leaf1))
    x = data.draw(_inputs(ops0 + ops1))
    y = data.draw(_inputs(g_ops))
    # f(0; y) = g(y); f(x; y) = h_b(x >> 1; y, f(x >> 1; y)) for b the low bit of x
    v = _ref_chain(g_ops, {"y0": y, "0": 0}[g_leaf])
    for k in range(x.bit_length() - 1, -1, -1):
        prefix = x >> k
        ops, leaf = (ops1, leaf1) if prefix & 1 else (ops0, leaf0)
        v = _ref_step(ops, leaf, prefix >> 1, y, v)
    assert eval_term(term, None, [x], [y]) == v
