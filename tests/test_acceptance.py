"""Acceptance criteria, one test per criterion, one printed line each.

Criterion 1 carries one expectation that cannot hold: the unary
converter N computes 2^n - 1, whose output length is exponential in its
input length, while every left-leaning-accepted proof obeys a
polynomial length bound; no such proof can compute it.  The stated
expectation is kept as a strict expected failure and the rest of the
table is checked normally.  See the decisions ledger for the analysis.
"""

import random
import time

import pytest

from conftest import c_program, sample_two_sorted

from circsafe.bounds import BoundPair, Const, Var, badd, beval, synthesize_bound
from circsafe.bounds import _recursion_bound
from circsafe.checker import classify, cycle_path_diagnostics
from circsafe.compilealg import nb_to_circular, srec_eliminate, term_to_derivation
from circsafe.interp import (
    EvalConfig,
    FuelExhausted,
    check_term_class,
    eval_pp,
    eval_proof,
    eval_term,
)
from circsafe.kernel import (
    Node,
    ProofGraph,
    Rule,
    RuleKind,
    Sequent,
    SType,
    TupleOrder,
    is_prefix,
    length,
    tuple_order,
    validate_graph,
)
from circsafe.transform import (
    box_promote,
    bisimulation_classes,
    cycle_normal_form,
    pass_parameters,
    strip_safe_inputs,
)
from circsafe.translate import MAIN, translate

B_NAMES = ("succ1", "half", "select", "append", "lenones", "parity", "lenunary")
NB_NAMES = ("ex", "padones", "exquad", "cdr", "twoloops")
STRICT = EvalConfig(guard_mode="strict")


def report(n, status, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\nacceptance criterion {n}: {status}{tail}")


def test_criterion_1_classification_table(proofs):
    t0 = time.time()
    table = {
        "I": (True, False, True, None, "none"),
        "S": (True, True, True, True, "CB"),
        "C": (True, True, True, True, "CB"),
        "E": (True, True, False, True, "CNB"),
        "P": (True, True, True, True, "CB"),
        "L": (True, True, True, True, "CB"),
        "EPRIME": (True, False, False, None, "none"),
    }
    for name, (valid, safe, ll, prog, cls) in table.items():
        c = classify(proofs[name])
        assert (c.valid, c.safe, c.left_leaning, c.progressing, c.cls) == (
            valid,
            safe,
            ll,
            prog,
            cls,
        ), name
    # E is CNB and in particular not CB
    assert classify(proofs["E"]).cls == "CNB"
    # the attainable part of the N row: safe and progressing hold
    n = classify(proofs["N"])
    assert n.valid and n.safe and n.progressing is True and n.cls == "CNB"
    report(
        1,
        "PASS (except the N:CB entry, expected-failing; see the companion test)",
        f"{time.time() - t0:.2f}s",
    )


@pytest.mark.xfail(
    strict=True,
    reason="stated expectation 'N: CB' is unattainable: |N(n)| = n is "
    "exponential in |n|, above every polynomial length bound that "
    "left-leaning-accepted proofs satisfy",
)
def test_criterion_1_n_class_as_stated(proofs):
    assert classify(proofs["N"]).cls == "CB"
    report(1, "N:CB PASS")


def test_criterion_2_evaluator_golden_values(proofs):
    t0 = time.time()
    s = proofs["S"]
    for x in range(2**12):
        assert eval_proof(s, s.root, [x], [], EvalConfig(memo=False)) == x + 1
    c = proofs["C"]
    rng = random.Random(2024)
    for _ in range(500):
        x, y, z = (rng.getrandbits(rng.randrange(11)) for _ in range(3))
        assert eval_proof(c, c.root, [x, y], [z]) == c_program(x, y, z)
    e = proofs["E"]
    for x in range(5):
        for y in range(16):
            assert eval_proof(e, e.root, [x], [y]) == 2 ** (2 ** x.bit_length()) * y
    p = proofs["P"]
    for x in range(2**10):
        assert eval_proof(p, p.root, [x], [], EvalConfig(memo=False)) == max(x - 1, 0)
    n = proofs["N"]
    for k in range(13):
        assert eval_proof(n, n.root, [k], []) == 2**k - 1
    i = proofs["I"]
    for x in range(8):
        with pytest.raises(FuelExhausted):
            eval_proof(i, i.root, [x], [], EvalConfig(fuel=10**5, memo=False))
    report(2, "PASS", f"{time.time() - t0:.2f}s")


def test_criterion_3_completeness_pipelines(terms):
    t0 = time.time()
    rng = random.Random(3001)
    assert len(B_NAMES) >= 5 and len(NB_NAMES) >= 3 and "ex" in NB_NAMES
    for name in B_NAMES:
        td = terms[name]
        circ = srec_eliminate(term_to_derivation(td))
        assert classify(circ).cls == "CB", name
        for _ in range(100):
            xs, ys = sample_two_sorted(rng, td.normals, td.safes, 10)
            assert eval_proof(circ, circ.root, xs, ys) == eval_term(td.body, None, xs, ys), name
    for name in NB_NAMES:
        td = terms[name]
        circ = nb_to_circular(td)
        assert classify(circ).cls in ("CB", "CNB"), name
        for _ in range(50):
            xs, ys = sample_two_sorted(rng, td.normals, td.safes, 8)
            assert eval_proof(circ, circ.root, xs, ys) == eval_term(td.body, None, xs, ys), name
    report(3, "PASS", f"{time.time() - t0:.2f}s")


def test_criterion_4_translation_soundness(proofs):
    t0 = time.time()
    rng = random.Random(4001)
    for name in ("S", "C", "E", "P", "L", "N"):
        g = proofs[name]
        prog = translate(g)
        seq = g.nodes[g.root].sequent
        for _ in range(100):
            xs, ys = sample_two_sorted(rng, seq.boxed, seq.plain, 10)
            want = eval_proof(g, g.root, xs, ys)
            # strict mode: any guard fallback raises instead of returning 0
            assert eval_pp(prog, MAIN, None, xs, ys, STRICT) == want, (name, xs, ys)
    for name in ("S", "C", "P", "L"):
        assert check_term_class(translate(proofs[name]), "Bpp") == [], name
    report(4, "PASS", f"{time.time() - t0:.2f}s")


def test_criterion_5_round_trip_closure(terms):
    t0 = time.time()
    rng = random.Random(5001)
    for name in B_NAMES:
        td = terms[name]
        prog = translate(srec_eliminate(term_to_derivation(td)))
        for _ in range(100):
            xs, ys = sample_two_sorted(rng, td.normals, td.safes, 10)
            assert eval_pp(prog, MAIN, None, xs, ys, STRICT) == eval_term(td.body, None, xs, ys), name
    report(5, "PASS", f"{time.time() - t0:.2f}s")


def test_criterion_6_output_bounds_suite(terms, corpus_bound_reports):
    t0 = time.time()
    assert sorted(corpus_bound_reports) == sorted(terms)
    for name, rep in corpus_bound_reports.items():
        assert rep.violations == [], (name, rep.violations[:1])
    for name in B_NAMES + ("cdr",):
        pair = synthesize_bound(terms[name].body)
        assert pair.d == 1 and pair.is_polynomial, name
    for c in (1, 2, 4):
        for d in (1, 2, 3):
            step = BoundPair(badd(Const(c), Var()), d)
            f = _recursion_bound(step)
            for n in range(1, 65):
                assert beval(f.e, n) >= beval(step.e, n) + d * beval(f.e, n - 1)
    report(6, "PASS", f"{time.time() - t0:.2f}s")


def test_criterion_7_transformation_preservation(proofs):
    t0 = time.time()
    rng = random.Random(7001)
    forbidden = {RuleKind.WEAK_N, RuleKind.EXCH_N, RuleKind.CUT_N, RuleKind.COND_N}
    bits = {"EPRIME": 2, "E": 5}
    for name, g in proofs.items():
        if name == "I":  # diverges: evaluation comparison is meaningless
            continue
        bp = box_promote(g)
        census = {bp.nodes[n].rule.kind for n in bp.reachable()}
        assert not census & forbidden, name
        seq = g.nodes[g.root].sequent
        for _ in range(100):
            xs, ys = sample_two_sorted(rng, seq.boxed, seq.plain, bits.get(name, 6))
            assert eval_proof(g, g.root, xs, ys) == eval_proof(bp, bp.root, xs + ys, []), name
    # strip_safe_inputs on its eligible fixtures
    bpS = box_promote(proofs["S"])
    nodes = dict(bpS.nodes)
    nodes["r"] = Node(Rule(RuleKind.BOX_R), Sequent(1, 0, SType.BOXED), (bpS.root,))
    nodes["w"] = Node(Rule(RuleKind.WEAK_N), Sequent(1, 1, SType.BOXED), ("r",))
    fixture = ProofGraph("fix", "w", nodes)
    stripped = strip_safe_inputs(fixture)
    assert validate_graph(stripped) == []
    for _ in range(100):
        x = rng.getrandbits(rng.randrange(9))
        y = rng.getrandbits(rng.randrange(9))
        assert eval_proof(fixture, fixture.root, [x], [y]) == eval_proof(
            stripped, stripped.root, [x], []
        )
    # pass_parameters preserves classification and semantics on its fixture
    from circsafe.interp import OracleDef, OracleEnv
    from circsafe.checker import check_left_leaning, check_safety, check_progressing_safe

    s = proofs["S"]
    pnodes = {f"S{k}": Node(v.rule, v.sequent, tuple(f"S{p}" for p in v.premises)) for k, v in s.nodes.items()}
    pnodes["r"] = Node(Rule(RuleKind.CUT_N), Sequent(1, 0), ("Sn0", "k"))
    pnodes["k"] = Node(Rule(RuleKind.WEAK_B), Sequent(1, 1), ("a",))
    pnodes["a"] = Node(Rule(RuleKind.ORACLE, oracle="a"), Sequent(0, 1), ())
    fix = ProofGraph("fixture", "r", pnodes)
    out, star = pass_parameters(fix, "a")

    def flags(graph):
        return (
            check_safety(graph).ok,
            check_left_leaning(graph).ok,
            check_progressing_safe(graph).status,
        )

    assert flags(fix) == flags(out)
    env = OracleEnv([OracleDef("a", 0, 1, lambda xs, ys: 5 * ys[0] + 2)])
    envs = OracleEnv([OracleDef(star, 1, 1, lambda xs, ys: 5 * ys[0] + 2)])
    for x in range(50):
        assert eval_proof(fix, fix.root, [x], [], oracles=env) == eval_proof(
            out, out.root, [x], [], oracles=envs
        )
    report(7, "PASS", f"{time.time() - t0:.2f}s")


def test_criterion_8_cycle_nf_structure(proofs, terms):
    t0 = time.time()
    accepted = ["S", "C", "E", "P", "L", "N"]
    graphs = {name: proofs[name] for name in accepted}
    graphs["compiled_append"] = srec_eliminate(term_to_derivation(terms["append"]))
    graphs["compiled_ex"] = nb_to_circular(terms["ex"])
    for name, g in graphs.items():
        cnf = cycle_normal_form(g)
        classes = bisimulation_classes(g)
        buds = sorted(cnf.buds)
        paths = {b: cnf.path(b) for b in buds}
        for i, a in enumerate(buds):
            for b in buds[i + 1 :]:
                pa, pb = paths[a], paths[b]
                assert pa != pb[: len(pa)] and pb != pa[: len(pb)], (name, "antichain")
        for pos, node in cnf.tree.items():
            if not node.children:
                assert node.rule.kind in (RuleKind.ID, RuleKind.ZERO, RuleKind.ORACLE), name
        for bud, comp in cnf.buds.items():
            assert classes[cnf.node_of[bud]] == classes[cnf.node_of[comp]], (name, "bisimilar")
        reports = cycle_path_diagnostics(cnf)
        cls = classify(g).cls
        for r in reports:
            assert r.ok_progressing, (name, "clause 1")
            assert r.ok_cnb, (name, "clause 2")
            if cls == "CB":
                assert r.ok_cb, (name, "clause 3")
    e_reports = cycle_path_diagnostics(cycle_normal_form(proofs["E"]))
    assert any(
        "rightmost premise of a plain cut" in v for r in e_reports for v in r.clause3_violations
    )
    report(8, "PASS", f"{time.time() - t0:.2f}s")


def test_criterion_9_order_theory(proofs):
    t0 = time.time()
    rng = random.Random(9001)
    for _ in range(10**4):
        x = rng.getrandbits(rng.randrange(16))
        y = rng.getrandbits(rng.randrange(16))
        z = rng.getrandbits(rng.randrange(16))
        assert is_prefix(x, x)
        if is_prefix(x, y) and is_prefix(y, x):
            assert x == y
        if is_prefix(x, y) and is_prefix(y, z):
            assert is_prefix(x, z)
    # strict descent chains cannot outlive the joint length
    for _ in range(400):
        k = rng.randrange(1, 4)
        ys = [rng.getrandbits(rng.randrange(8)) for _ in range(k)]
        bound = sum(length(v) for v in ys)
        cur, steps = list(ys), 0
        while any(cur):
            i = rng.choice([j for j, v in enumerate(cur) if v])
            nxt = list(cur)
            nxt[i] >>= rng.randrange(1, nxt[i].bit_length() + 1)
            assert tuple_order(nxt, cur)[0] is TupleOrder.SUBSET_STRICT
            cur = nxt
            steps += 1
        assert steps <= bound
    # coherence of the strict relation
    for _ in range(3000):
        k = rng.randrange(1, 4)
        xs = [rng.getrandbits(rng.randrange(5)) for _ in range(k)]
        ys = [rng.getrandbits(rng.randrange(5)) for _ in range(k)]
        fwd, _ = tuple_order(xs, ys)
        bwd, _ = tuple_order(ys, xs)
        assert (fwd is TupleOrder.SUBSET_STRICT) == (
            fwd is not TupleOrder.NOT_RELATED and bwd is TupleOrder.NOT_RELATED
        )
    report(9, "PASS", f"{time.time() - t0:.2f}s")
