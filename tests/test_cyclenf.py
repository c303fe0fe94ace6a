"""Cycle normal form structure and the close/open sets."""

import random

from conftest import chain_graph, graph_passes_inputs, loop_graph, moore_classes, nest_graph, same_partition

from circsafe.checker import classify
from circsafe.compilealg import nb_to_circular, srec_eliminate, term_to_derivation
from circsafe.interp import check_term_class
from circsafe.kernel import Node, ProofGraph, Rule, RuleKind, Sequent, has_cycle
from circsafe.transform import (
    CnfNode,
    _cycle_normal_form,
    bisimulation_classes,
    close_open_sets,
    cnf_to_graph,
    cycle_normal_form,
)


def is_ancestor(cnf, a, b):
    """Whether position ``a`` is ``b`` or above it, by walking up from ``b``."""
    while b > a:
        b = cnf.parent[b]
    return b == a


def strict_ancestors(cnf, pos):
    """The positions above ``pos``, root first."""
    out = []
    while pos > 0:
        pos = cnf.parent[pos]
        out.append(pos)
    return out[::-1]


def test_every_leaf_is_axiom_or_bud(proofs):
    for name, g in proofs.items():
        cnf = cycle_normal_form(g)
        for pos, node in cnf.tree.items():
            if not node.children:
                assert node.rule.kind in (RuleKind.ID, RuleKind.ZERO, RuleKind.ORACLE), (name, pos)
        for bud in cnf.buds:
            assert bud not in cnf.tree


def test_companions_are_strict_ancestors(proofs):
    for name, g in proofs.items():
        cnf = cycle_normal_form(g)
        for bud, comp in cnf.buds.items():
            assert comp != bud and is_ancestor(cnf, comp, bud), (name, bud, comp)


def test_buds_form_an_antichain(proofs):
    for name, g in proofs.items():
        cnf = cycle_normal_form(g)
        buds = sorted(cnf.buds)
        for i, a in enumerate(buds):
            for b in buds[i + 1 :]:
                assert not is_ancestor(cnf, a, b) and not is_ancestor(cnf, b, a), (name, a, b)


def test_bud_and_companion_are_bisimilar(proofs):
    for name, g in proofs.items():
        classes = bisimulation_classes(g)
        cnf = cycle_normal_form(g)
        for bud, comp in cnf.buds.items():
            assert classes[cnf.node_of[bud]] == classes[cnf.node_of[comp]], (name, bud)


def test_below_bar_nodes_pairwise_distinct_along_branches(proofs):
    for name, g in proofs.items():
        classes = bisimulation_classes(g)
        cnf = cycle_normal_form(g)
        for bud in cnf.buds:
            seen = set()
            for d, pos in enumerate(strict_ancestors(cnf, bud)):
                c = classes[cnf.node_of[pos]]
                assert c not in seen, (name, bud, d)
                seen.add(c)


def test_s_companion_is_root(proofs):
    cnf = cycle_normal_form(proofs["S"])
    assert list(cnf.companions) == [0]
    assert len(cnf.buds) == 1


def test_c_has_two_companions(proofs):
    cnf = cycle_normal_form(proofs["C"])
    assert sorted(cnf.companions) == [0, 1]
    assert cnf.path(1) == (0,)


def test_positions_are_the_preorder_of_root_paths(proofs):
    for name, g in proofs.items():
        cnf = cycle_normal_form(g)
        n = len(cnf.node_of)
        assert sorted([*cnf.tree, *cnf.buds]) == list(range(n)) and cnf.parent[0] == -1, name
        for pos, node in cnf.tree.items():
            for i, child in enumerate(node.children):
                assert (cnf.parent[child], cnf.index[child]) == (pos, i), (name, child)
                assert cnf.path(child) == cnf.path(pos) + (i,), (name, child)
        paths = [cnf.path(p) for p in range(n)]
        assert paths == sorted(paths) and len(set(paths)) == n, name
        assert [cnf.label(p) for p in range(n)] == ["t" + "".join(map(str, q)) for q in paths], name


def test_acyclic_unfolds_to_budless_tree(terms):
    d = term_to_derivation(terms["select"])
    cnf = cycle_normal_form(d)
    assert not cnf.buds


def test_close_open_examples(proofs):
    cnf = cycle_normal_form(proofs["C"])
    close, open_ = close_open_sets(cnf, 0)
    assert open_ == []  # the root always has an empty open set
    assert close == [0, 1]
    for bud in cnf.buds:
        close_b, open_b = close_open_sets(cnf, bud)
        assert open_b == [bud] and close_b == [], bud


def test_close_open_enumeration_on_s(proofs):
    cnf = cycle_normal_form(proofs["S"])
    bud = next(iter(cnf.buds))
    for d, pos in enumerate(strict_ancestors(cnf, bud) + [bud]):
        close, open_ = close_open_sets(cnf, pos)
        if d == 0:
            assert close == [0] and open_ == []
        else:
            # the companion (the root) now lies strictly below
            assert close == [] and open_ == [bud]


def test_refold_is_bisimilar_to_input(proofs):
    for name, g in proofs.items():
        folded = cnf_to_graph(cycle_normal_form(g))
        # splice out the dis markers, then compare minimized root classes
        def splice(graph):
            target = {}
            for nid, node in graph.nodes.items():
                target[nid] = node.premises[0] if node.rule.kind is RuleKind.DIS else nid
            def resolve(nid):
                while graph.nodes[nid].rule.kind is RuleKind.DIS:
                    nid = graph.nodes[nid].premises[0]
                return nid
            nodes = {
                nid: Node(n.rule, n.sequent, tuple(resolve(p) for p in n.premises))
                for nid, n in graph.nodes.items()
                if n.rule.kind is not RuleKind.DIS
            }
            return ProofGraph(graph.name, resolve(graph.root), nodes)

        spliced = splice(folded)
        merged = {}
        for nid, node in g.nodes.items():
            merged[f"a_{nid}"] = Node(node.rule, node.sequent, tuple(f"a_{p}" for p in node.premises))
        for nid, node in spliced.nodes.items():
            merged[f"b_{nid}"] = Node(node.rule, node.sequent, tuple(f"b_{p}" for p in node.premises))
        # reachability from one root only sees half; classify over all nodes
        mapping = moore_classes(merged)
        assert mapping[f"a_{g.root}"] == mapping[f"b_{spliced.root}"], name


def test_compiled_cb_proofs_pass_all_clauses(terms):
    from circsafe.checker import cycle_path_diagnostics

    for name in ("append", "lenones", "parity"):
        circ = srec_eliminate(term_to_derivation(terms[name]))
        reports = cycle_path_diagnostics(cycle_normal_form(circ))
        assert reports, name
        for r in reports:
            assert r.ok_progressing and r.ok_cnb and r.ok_cb, (name, r)


def _random_graph(rng: random.Random, n: int) -> ProofGraph:
    """n successor or boxed-conditional steps over bN,N pointing at each
    other at random, plus one identity for the zero branches."""
    seq = Sequent(1, 1)
    nodes = {"z": Node(Rule(RuleKind.ID), Sequent(0, 1), ())}
    for j in range(n):
        kind = rng.choice((RuleKind.S0, RuleKind.S1, RuleKind.COND_B))
        target = lambda: f"v{rng.randrange(n)}"
        prem = ("z", target(), target()) if kind is RuleKind.COND_B else (target(),)
        nodes[f"v{j}"] = Node(Rule(kind), seq, prem)
    return ProofGraph(f"random{n}", "v0", nodes)


def test_bisimulation_classes_match_moore_refinement(proofs, terms):
    rng = random.Random(7)
    graphs = list(proofs.values())
    for td in terms.values():
        if check_term_class(td.body, "B") == []:
            graphs.append(term_to_derivation(td))
            graphs.append(srec_eliminate(graphs[-1]))
        else:
            graphs.append(nb_to_circular(td))
    for n in (1, 2, 7, 40, 120):
        digits = [rng.getrandbits(1) for _ in range(n)]
        graphs.append(chain_graph(digits))
        # a shared digit tail makes the two branches partly bisimilar
        graphs.append(loop_graph(digits, [1 - d for d in digits[: n // 2]] + digits[n // 2 :]))
        graphs.append(loop_graph(digits, digits))
    graphs += [nest_graph(m) for m in (2, 3, 10, 40)]
    graphs += [_random_graph(rng, n) for n in (3, 5, 8, 20, 60) for _ in range(4)]
    for g in graphs:
        reach = {n: g.nodes[n] for n in g.reachable()}
        assert same_partition(bisimulation_classes(g), moore_classes(reach)), g.name


def ref_cycle_normal_form(g: ProofGraph) -> tuple:
    """``(tree, buds, node_of)`` of the unfolding of ``g``, leftmost
    premise first and numbered in pre-order, cut at a node whose class
    in ``moore_classes`` already occurs on its root path.  Recursive, so
    keep the unfolding's depth small."""
    classes = moore_classes({n: g.nodes[n] for n in g.reachable()})
    tree, buds, node_of = {}, {}, []

    def unfold(nid: str, path: dict) -> int:
        pos = len(node_of)
        node_of.append(nid)
        if classes[nid] in path:
            buds[pos] = path[classes[nid]]
            return pos
        node, children = g.nodes[nid], []
        tree[pos] = CnfNode(node.rule, node.sequent, children)
        for p in node.premises:
            children.append(unfold(p, {**path, classes[nid]: pos}))
        return pos

    unfold(g.root, {})
    return tree, buds, node_of


def test_cycle_normal_form_matches_the_unfolding_by_moore_classes():
    """Minimisation runs on cyclic graphs only; acyclic ones unfold with
    each node its own class.  Both agree with the reference, and a graph
    has buds exactly when it has a cycle."""
    seen = set()
    for g in graph_passes_inputs():
        want = ref_cycle_normal_form(g)
        cnf = cycle_normal_form(g)
        assert (cnf.tree, cnf.buds, cnf.node_of) == want, g.name
        cyclic = has_cycle({n: g.nodes[n].premises for n in g.reachable()})
        assert bool(cnf.buds) == cyclic, g.name
        seen.add(cyclic)
        fresh = ProofGraph(g.name, g.root, g.nodes)
        if classify(fresh).valid:  # as translate calls it, with the facts classify kept
            cnf = _cycle_normal_form(fresh)
            assert (cnf.tree, cnf.buds, cnf.node_of) == want, g.name
    assert seen == {False, True}
