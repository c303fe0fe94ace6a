"""Local rule validation."""

from circsafe.corpus import proof
from circsafe.kernel import (
    Node,
    ProofGraph,
    Rule,
    RuleKind,
    Sequent,
    SType,
    validate_graph,
    validate_step,
)

N, B = SType.PLAIN, SType.BOXED


def test_id_shape():
    g = ProofGraph("t", "a", {"a": Node(Rule(RuleKind.ID), Sequent(0, 1), ())})
    assert validate_step(g, "a") == []


def test_cond_box_drops_principal_on_the_left():
    g = ProofGraph(
        "t",
        "c",
        {
            "c": Node(Rule(RuleKind.COND_B), Sequent(1, 0), ("z", "b", "b")),
            "z": Node(Rule(RuleKind.ZERO), Sequent(0, 0), ()),
            "b": Node(Rule(RuleKind.COND_B), Sequent(1, 0), ("z", "b", "b")),
        },
    )
    assert validate_step(g, "c") == []


def test_boxr_rejects_plain_context():
    g = ProofGraph(
        "t",
        "r",
        {
            "r": Node(Rule(RuleKind.BOX_R), Sequent(1, 1, B), ("i",)),
            "i": Node(Rule(RuleKind.ID), Sequent(0, 1), ()),
        },
    )
    errs = validate_step(g, "r")
    assert errs and "all-boxed" in errs[0].message


def test_corpus_proofs_validate(proofs):
    for name, g in proofs.items():
        assert validate_graph(g) == [], name
    assert validate_graph(proof("P_UNSAFE")) == []
    assert validate_graph(proof("N_UNSAFE")) == []


def _mutations(g: ProofGraph):
    """Single-field corruptions that validation must catch."""
    items = sorted(g.nodes)
    # retarget a premise to a node with a different sequent
    for nid in items:
        node = g.nodes[nid]
        for i, p in enumerate(node.premises):
            for other in items:
                if g.nodes[other].sequent != g.nodes[p].sequent:
                    bad = dict(g.nodes)
                    prem = list(node.premises)
                    prem[i] = other
                    bad[nid] = Node(node.rule, node.sequent, tuple(prem))
                    yield ProofGraph(g.name, g.root, bad)
                    break
            break
    # bump a zone count
    for nid in items:
        node = g.nodes[nid]
        bad = dict(g.nodes)
        bumped = Sequent(node.sequent.boxed + 1, node.sequent.plain, node.sequent.succedent)
        bad[nid] = Node(node.rule, bumped, node.premises)
        yield ProofGraph(g.name, g.root, bad)
        break
    # flip a rule kind
    for nid in items:
        node = g.nodes[nid]
        if node.rule.kind is RuleKind.S0:
            bad = dict(g.nodes)
            bad[nid] = Node(Rule(RuleKind.WEAK_N), node.sequent, node.premises)
            yield ProofGraph(g.name, g.root, bad)
            break


def test_mutations_rejected(proofs):
    for name, g in proofs.items():
        for bad in _mutations(g):
            assert validate_graph(bad) != [], name


def test_backpointer_retarget_in_s_rejected(proofs):
    s = proofs["S"]
    bad_nodes = dict(s.nodes)
    node = bad_nodes["n5"]  # its first premise loops to the root
    bad_nodes["n5"] = Node(node.rule, node.sequent, ("n8", node.premises[1]))
    bad = ProofGraph("S", s.root, bad_nodes)
    assert validate_graph(bad) != []


def test_empty_node_map_is_an_error():
    g = ProofGraph("empty", "root", {})
    errs = validate_graph(g)
    assert errs and "root" in errs[0].message


def test_unreachable_nodes_flagged(proofs):
    s = proofs["S"]
    nodes = dict(s.nodes)
    nodes["stray"] = Node(Rule(RuleKind.ZERO), Sequent(0, 0), ())
    errs = validate_graph(ProofGraph("S", s.root, nodes))
    assert any("unreachable" in e.message for e in errs)


def test_srec_and_dis_flagged_in_circular_inputs():
    g = ProofGraph(
        "t",
        "r",
        {
            "r": Node(Rule(RuleKind.SREC), Sequent(1, 0), ("z", "h", "h")),
            "z": Node(Rule(RuleKind.ZERO), Sequent(0, 0), ()),
            "h": Node(Rule(RuleKind.ID), Sequent(1, 1), ()),
        },
    )
    assert any("srec" in e.message for e in validate_graph(g))
    # the same graph is fine when finite derivations are expected,
    # apart from the deliberately wrong id shape
    errs = validate_graph(g, allow_srec=True)
    assert all("srec" not in e.message for e in errs)


def test_rule_kind_aliases_name_their_members():
    import circsafe.kernel as kernel

    for kind in RuleKind:
        assert getattr(kernel, f"_R_{kind.name}") is kind


def test_failing_leaf_and_exchange_checks_name_the_sequent_and_position():
    # the text is built only for a failing check; it reads as it always has
    g = ProofGraph(
        "t",
        "a",
        {
            "a": Node(Rule(RuleKind.ID), Sequent(1, 1), ()),
            "z": Node(Rule(RuleKind.ZERO), Sequent(0, 1), ()),
            "e": Node(Rule(RuleKind.EXCH_N, pos=1), Sequent(0, 2), ("e",)),
            "f": Node(Rule(RuleKind.EXCH_B, pos=0), Sequent(1, 0), ("f",)),
            "ok": Node(Rule(RuleKind.EXCH_N, pos=0), Sequent(0, 2), ("ok",)),
        },
    )
    assert [str(e) for n in ("a", "z", "e", "f", "ok") for e in validate_step(g, n)] == [
        "a: id concludes N => N, got bN,N => N",
        "z: zero concludes => N, got N => N",
        "e: eN position 1 out of range",
        "f: eB position 0 out of range",
    ]
