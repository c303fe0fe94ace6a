"""Classification and cycle-condition checks."""

import random

from conftest import graph_passes_inputs, ref_progress

from circsafe.corpus import proof
from circsafe.checker import (
    ProgressOutcome,
    check_left_leaning,
    check_progressing_safe,
    check_safety,
    classify,
    cycle_path_diagnostics,
)
from circsafe.kernel import Node, ProofGraph, Rule, RuleKind, Sequent, sccs
from circsafe.transform import cycle_normal_form


EXPECTED = {
    "I": dict(safe=False, left_leaning=True, progressing=None, cls="none"),
    "S": dict(safe=True, left_leaning=True, progressing=True, cls="CB"),
    "C": dict(safe=True, left_leaning=True, progressing=True, cls="CB"),
    "E": dict(safe=True, left_leaning=False, progressing=True, cls="CNB"),
    "P": dict(safe=True, left_leaning=True, progressing=True, cls="CB"),
    "L": dict(safe=True, left_leaning=True, progressing=True, cls="CB"),
    "N": dict(safe=True, left_leaning=False, progressing=True, cls="CNB"),
    "EPRIME": dict(safe=False, left_leaning=False, progressing=None, cls="none"),
}


def test_classification_table(proofs):
    for name, want in EXPECTED.items():
        c = classify(proofs[name])
        assert c.valid, name
        got = dict(safe=c.safe, left_leaning=c.left_leaning, progressing=c.progressing, cls=c.cls)
        assert got == want, (name, got)


def test_unsafe_variants_are_rejected():
    for g in (proof("P_UNSAFE"), proof("N_UNSAFE")):
        c = classify(g)
        assert not c.safe and c.cls == "none"


def test_witness_cycles_are_real(proofs):
    for name, g in proofs.items():
        c = classify(g)
        if c.witness_cycle:
            nodes = c.witness_cycle
            for a, b in zip(nodes, nodes[1:] + nodes[:1]):
                assert b in g.nodes[a].premises, (name, a, b)


def test_safety_witness_passes_boxed_cut(proofs):
    out = check_safety(proofs["I"])
    assert not out.ok
    assert any(proofs["I"].nodes[n].rule.kind is RuleKind.CUT_B for n in out.witness_cycle)
    assert check_safety(proofs["S"]).ok
    assert check_safety(proofs["C"]).ok
    assert not check_safety(proofs["EPRIME"]).ok


def test_left_leaning_detects_right_cut_cycles(proofs):
    out = check_left_leaning(proofs["E"])
    assert not out.ok
    cyc = out.witness_cycle
    # the witness starts at the plain cut and enters its right premise
    head = proofs["E"].nodes[cyc[0]]
    assert head.rule.kind is RuleKind.CUT_N and cyc[1] == head.premises[1]
    for name in ("S", "C", "I", "P", "L"):
        assert check_left_leaning(proofs[name]).ok, name


def test_progressing_status(proofs):
    assert check_progressing_safe(proofs["I"]).status == "unknown_unsafe"
    for name in ("S", "C", "E", "P", "L", "N"):
        assert check_progressing_safe(proofs[name]).status == "progressing", name


def test_cycle_without_cond_box_not_progressing():
    g = ProofGraph(
        "t",
        "a",
        {
            "a": Node(Rule(RuleKind.CUT_N), Sequent(0, 0), ("a", "b")),
            "b": Node(Rule(RuleKind.WEAK_N), Sequent(0, 1), ("z",)),
            "z": Node(Rule(RuleKind.ZERO), Sequent(0, 0), ()),
        },
    )
    out = check_progressing_safe(g)
    assert out.status == "not_progressing"
    assert out.witness_cycle == ["a"]


def _rename(g: ProofGraph, seed: int) -> ProofGraph:
    rng = random.Random(seed)
    ids = sorted(g.nodes)
    perm = ids[:]
    rng.shuffle(perm)
    ren = dict(zip(ids, (f"r{p}" for p in perm)))
    nodes = {
        ren[k]: Node(v.rule, v.sequent, tuple(ren[p] for p in v.premises))
        for k, v in g.nodes.items()
    }
    return ProofGraph(g.name, ren[g.root], nodes)


def _unroll_once(g: ProofGraph) -> ProofGraph:
    nodes = dict(g.nodes)
    root = g.nodes[g.root]
    nodes["unrolled_root"] = Node(root.rule, root.sequent, root.premises)
    out = ProofGraph(g.name, "unrolled_root", nodes)
    keep = set(out.reachable())
    out.nodes = {k: v for k, v in nodes.items() if k in keep}
    return out


def test_checks_invariant_under_renaming_and_unrolling(proofs):
    for name, g in proofs.items():
        base = (check_safety(g).ok, check_left_leaning(g).ok)
        for seed in (1, 2):
            r = _rename(g, seed)
            assert (check_safety(r).ok, check_left_leaning(r).ok) == base, name
        u = _unroll_once(g)
        assert (check_safety(u).ok, check_left_leaning(u).ok) == base, name
        assert classify(u).cls == classify(g).cls, name


def test_witness_determinism(proofs):
    for name, g in proofs.items():
        a = classify(g).witness_cycle
        b = classify(g).witness_cycle
        assert a == b, name


def test_cb_implies_all_three(proofs):
    for name, g in proofs.items():
        c = classify(g)
        if c.cls == "CB":
            assert c.safe and c.left_leaning and c.progressing is True, name


def test_diagnostics_on_accepted_proofs(proofs):
    for name in ("S", "C", "P", "L"):
        reports = cycle_path_diagnostics(cycle_normal_form(proofs[name]))
        assert reports, name
        for r in reports:
            assert r.ok_progressing and r.ok_cnb and r.ok_cb, (name, r)
    for name in ("E", "N"):
        reports = cycle_path_diagnostics(cycle_normal_form(proofs[name]))
        assert all(r.ok_progressing and r.ok_cnb for r in reports), name
        assert any(not r.ok_cb for r in reports), name


def test_diagnostics_flag_es_right_cut(proofs):
    reports = cycle_path_diagnostics(cycle_normal_form(proofs["E"]))
    flagged = [v for r in reports for v in r.clause3_violations]
    assert any("rightmost premise of a plain cut" in v for v in flagged)


def test_diagnostics_name_root_paths(proofs):
    """Buds and companions come as root paths, in root-path order, and
    violations name positions by their printed ids."""
    reports = cycle_path_diagnostics(cycle_normal_form(proofs["E"]))
    assert [(r.bud, r.companion) for r in reports] == [
        ((1, 0), ()), ((1, 1, 0, 0), ()), ((2, 0), ()), ((2, 1, 0, 0), ())
    ]
    assert [r.clause3_violations for r in reports] == [
        [],
        ["t1: rightmost premise of a plain cut", "t110: plain weakening on the path"],
        [],
        ["t2: rightmost premise of a plain cut", "t210: plain weakening on the path"],
    ]
    assert all(r.has_boxed_conditional and not r.clause2_violations for r in reports)


def test_classify_rejects_invalid():
    g = ProofGraph("broken", "a", {"a": Node(Rule(RuleKind.ID), Sequent(1, 1), ())})
    c = classify(g)
    assert not c.valid and c.cls == "none"


def _two_loops(first_free: bool, second_free: bool, joined: bool) -> ProofGraph:
    """Two cyclic components over bN,N: ``a0 -> a1 -> a0`` and ``b0 -> b1
    -> b0``, each through a boxed conditional at its ``0`` node unless
    it is ``free``.  The root ``r`` is a plain conditional entering the
    a loop from its s0 branch and the b loop from its s1 branch; when
    ``joined``, the b loop also enters the a loop, so the a component
    comes first in ``sccs`` order either way."""
    bn_n, b_n = Sequent(1, 1), Sequent(1, 0)
    nodes = {
        "r": Node(Rule(RuleKind.COND_N), bn_n, ("q", "a0", "b0")),
        "q": Node(Rule(RuleKind.BOX_L), b_n, ("z",)),
        "z": Node(Rule(RuleKind.ID), Sequent(0, 1), ()),
    }
    for tag, free, exit_ in (("a", first_free, "a1"), ("b", second_free, "a0" if joined else "b1")):
        if free:
            nodes[f"{tag}0"] = Node(Rule(RuleKind.COND_N), bn_n, ("q", f"{tag}1", exit_))
        else:
            nodes[f"{tag}0"] = Node(Rule(RuleKind.COND_B), bn_n, ("z", f"{tag}1", exit_))
        nodes[f"{tag}1"] = Node(Rule(RuleKind.S1), bn_n, (f"{tag}0",))
    return ProofGraph(f"two_loops_{first_free:d}{second_free:d}{joined:d}", "r", nodes)


def test_two_loops_pin_the_witness_order():
    for joined in (False, True):
        g = _two_loops(False, True, joined)
        adj = {n: g.nodes[n].premises for n in g.reachable()}
        cyclic = [c for c in sccs(adj) if len(c) > 1]
        assert cyclic == [["a0", "a1"], ["b0", "b1"]]
        c = classify(g)
        assert (c.valid, c.safe, c.left_leaning, c.progressing, c.cls) == (True, True, True, False, "none")
        assert c.witness_cycle == ["b0", "b1"]
        assert c.diagnostics == ["not progressing: cycle avoiding boxed conditionals: b0->b1"]
        assert classify(_two_loops(True, True, joined)).witness_cycle == ["a0", "a1"]
        assert classify(_two_loops(False, False, joined)).progressing is True


def test_classification_matches_the_second_tarjan_pass():
    """The progress check inside the cyclic components gives the verdict,
    witness cycle and diagnostics of the check over the whole condB-free
    subgraph (``conftest.ref_progress``)."""
    graphs = graph_passes_inputs() + [_two_loops(*flags) for flags in
                                       ((a, b, j) for a in (0, 1) for b in (0, 1) for j in (0, 1))]
    verdicts = {}
    for g in graphs:
        c = classify(g)
        if not c.valid:
            continue
        status, witness = ref_progress(g)
        assert check_progressing_safe(g) == ProgressOutcome(status, witness), g.name
        safety, leaning = check_safety(g), check_left_leaning(g)
        diagnostics, witnesses = [], [safety.witness_cycle, leaning.witness_cycle]
        if not safety.ok:
            diagnostics.append("unsafe: cycle through a boxed cut: " + "->".join(safety.witness_cycle))
        if not leaning.ok:
            diagnostics.append("not left-leaning: cycle through the right premise of a plain cut: "
                               + "->".join(leaning.witness_cycle))
        if status == "not_progressing":
            diagnostics.append("not progressing: cycle avoiding boxed conditionals: " + "->".join(witness))
            witnesses.append(witness)
        elif status == "unknown_unsafe":
            diagnostics.append("progressiveness unknown: the cycle criterion needs safety")
        progressing = {"progressing": True, "not_progressing": False, "unknown_unsafe": None}[status]
        assert (c.progressing, c.diagnostics) == (progressing, diagnostics), g.name
        assert c.witness_cycle == next(filter(None, witnesses), None), g.name
        verdicts[status] = verdicts.get(status, 0) + 1
    assert verdicts["not_progressing"] >= 10 and verdicts["progressing"] > 50 and verdicts["unknown_unsafe"] >= 5
