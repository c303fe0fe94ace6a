"""Box promotion, safe-input stripping, parameter passing, simultaneous
recursion reduction."""

import itertools
import random

import pytest

from conftest import sample_two_sorted

from circsafe.checker import check_progressing_safe, classify, sccs
from circsafe.interp import (
    Call,
    OracleCall,
    OracleDef,
    OracleEnv,
    PPFunction,
    PPProgram,
    Proj,
    S1,
    SimRecPP,
    TagDispatch,
    Zero,
    eval_pp,
    eval_proof,
    eval_term,
)
from circsafe.kernel import Node, ProofGraph, Rule, RuleKind, Sequent, SType, validate_graph
from circsafe.transform import (
    ShapeViolation,
    box_promote,
    flatten_program,
    pass_parameters,
    reduce_simultaneous,
    rotation_tags,
    strip_safe_inputs,
)

N, B = SType.PLAIN, SType.BOXED
FORBIDDEN_AFTER_PROMOTION = {RuleKind.WEAK_N, RuleKind.EXCH_N, RuleKind.CUT_N, RuleKind.COND_N}
BITS = {"EPRIME": 2, "E": 5}


def _graph(root, spec):
    """Proof graph from {id: (rule or rule kind, sequent, premises)}."""
    return ProofGraph(
        "fx", root, {n: Node(r if isinstance(r, Rule) else Rule(r), q, p) for n, (r, q, p) in spec.items()}
    )


def _assert_promotes(g, m, n, env=None):
    """box_promote(g) is valid and agrees with g on a grid of m boxed and n plain inputs."""
    bp = box_promote(g)
    assert validate_graph(bp, allow_oracle=True) == []
    for xs in itertools.product(range(6), repeat=m):
        for ys in itertools.product(range(6), repeat=n):
            want = eval_proof(g, g.root, xs, ys, oracles=env)
            assert eval_proof(bp, bp.root, xs + ys, (), oracles=env) == want, (xs, ys)
    return bp


def test_box_promote_census_and_values(proofs):
    rng = random.Random(41)
    for name, g in proofs.items():
        if name == "I":
            continue
        bp = box_promote(g)
        assert validate_graph(bp, allow_oracle=True) == [], name
        census = {bp.nodes[n].rule.kind for n in bp.reachable()}
        assert not census & FORBIDDEN_AFTER_PROMOTION, name
        seq = g.nodes[g.root].sequent
        for _ in range(100):
            xs, ys = sample_two_sorted(rng, seq.boxed, seq.plain, BITS.get(name, 6))
            a = eval_proof(g, g.root, xs, ys)
            b = eval_proof(bp, bp.root, xs + ys, [])
            assert a == b, (name, xs, ys)


def test_box_promote_id_case():
    g = ProofGraph("idp", "a", {"a": Node(Rule(RuleKind.ID), Sequent(0, 1), ())})
    bp = box_promote(g)
    root = bp.nodes[bp.root]
    assert root.rule.kind is RuleKind.BOX_L
    assert bp.nodes[root.premises[0]].rule.kind is RuleKind.ID
    assert len(bp.nodes) == 2


def test_box_promote_plain_conditionals_and_oracle_leaves():
    # plain conditionals over a boxed and a plain input (the boxed
    # conditional sits above an exchange chain) and over one plain input
    # (no chain: the boxed conditional keeps the node's id)
    fst = lambda xs, ys: 3 * [*xs, *ys][0] + 1
    env = OracleEnv([OracleDef("a", 0, 1, fst)])
    g = _graph("c", {
        "c": (RuleKind.COND_N, Sequent(1, 1), ("z", "b0", "b1")),
        "z": (RuleKind.WEAK_B, Sequent(1, 0), ("zero",)),
        "zero": (RuleKind.ZERO, Sequent(0, 0), ()),
        "b0": (RuleKind.S0, Sequent(1, 1), ("p",)),
        "p": (RuleKind.WEAK_B, Sequent(1, 1), ("a",)),
        "a": (Rule(RuleKind.ORACLE, oracle="a"), Sequent(0, 1), ()),
        "b1": (RuleKind.S1, Sequent(1, 1), ("q",)),
        "q": (RuleKind.BOX_L, Sequent(1, 1), ("qe",)),
        "qe": (Rule(RuleKind.EXCH_N, pos=0), Sequent(0, 2), ("qw",)),
        "qw": (RuleKind.WEAK_N, Sequent(0, 2), ("c1",)),
        "c1": (RuleKind.COND_N, Sequent(0, 1), ("zero", "c1s", "c1s")),
        "c1s": (RuleKind.S1, Sequent(0, 1), ("id",)),
        "id": (RuleKind.ID, Sequent(0, 1), ()),
    })
    assert validate_graph(g, allow_oracle=True) == []
    bp = _assert_promotes(g, 1, 1, env)
    assert bp.nodes["c"].rule.kind is RuleKind.EXCH_B and bp.nodes["c1"].rule.kind is RuleKind.COND_B
    assert bp.nodes["a"] == Node(Rule(RuleKind.ORACLE, oracle="a"), Sequent(1, 0), ())


def test_box_promote_keeps_input_ids_under_a_one_input_box_left():
    # x's premise x.y starts with "x." and is reached first: it must keep
    # its own id, and x stands for it
    g = _graph("r", {
        "r": (RuleKind.CUT_N, Sequent(1, 1), ("w", "rw")),
        "w": (RuleKind.WEAK_B, Sequent(1, 1), ("x.y",)),
        "x.y": (RuleKind.ID, Sequent(0, 1), ()),
        "rw": (RuleKind.WEAK_N, Sequent(1, 2), ("rw2",)),
        "rw2": (RuleKind.WEAK_N, Sequent(1, 1), ("x",)),
        "x": (RuleKind.BOX_L, Sequent(1, 0), ("x.y",)),
    })
    bp = _assert_promotes(g, 1, 1)
    assert "x" not in bp.nodes and bp.nodes["rw2.w"].premises == ("x.y",)


def test_box_promote_draws_no_id_of_the_input():
    # a.0 is the id the weakening's exchange chain would draw first
    g = _graph("a", {
        "a": (RuleKind.WEAK_N, Sequent(1, 2), ("a.0",)),
        "a.0": (RuleKind.CUT_N, Sequent(1, 1), ("v", "s")),
        "v": (RuleKind.S1, Sequent(1, 1), ("p",)),
        "p": (RuleKind.WEAK_B, Sequent(1, 1), ("i",)),
        "i": (RuleKind.ID, Sequent(0, 1), ()),
        "s": (RuleKind.S1, Sequent(1, 2), ("sw",)),
        "sw": (RuleKind.WEAK_B, Sequent(1, 2), ("sn",)),
        "sn": (RuleKind.WEAK_N, Sequent(0, 2), ("i",)),
    })
    _assert_promotes(g, 1, 2)


def test_box_promote_keeps_cycles_through_boxed_conditionals(proofs):
    # the necessary progress condition (a boxed conditional on every
    # cycle) survives promotion even where safety does not
    for name in ("S", "C", "E", "P", "L", "N"):
        bp = box_promote(proofs[name])
        adj = {n: tuple(p for p in bp.nodes[n].premises) for n in bp.reachable()}
        no_cond = {
            n: tuple(p for p in ps if bp.nodes[p].rule.kind is not RuleKind.COND_B)
            for n, ps in adj.items()
            if bp.nodes[n].rule.kind is not RuleKind.COND_B
        }
        no_cond = {
            n: tuple(p for p in ps if p in no_cond) for n, ps in no_cond.items()
        }
        for comp in sccs(no_cond):
            assert len(comp) == 1 and comp[0] not in no_cond.get(comp[0], ()), name


def _boxed_succ_fixture(proofs):
    bp = box_promote(proofs["S"])
    nodes = dict(bp.nodes)
    nodes["r"] = Node(Rule(RuleKind.BOX_R), Sequent(1, 0, B), (bp.root,))
    return ProofGraph("SB", "r", nodes)


def test_strip_boxr_rooted_is_unchanged(proofs):
    g = _boxed_succ_fixture(proofs)
    st = strip_safe_inputs(g)
    assert st.root == "r"


def test_strip_wn_rooted_drops_to_subproof(proofs):
    g = _boxed_succ_fixture(proofs)
    nodes = dict(g.nodes)
    nodes["w"] = Node(Rule(RuleKind.WEAK_N), Sequent(1, 1, B), ("r",))
    g2 = ProofGraph("SW", "w", nodes)
    st = strip_safe_inputs(g2)
    assert st.root == "r"
    for x in range(40):
        assert eval_proof(st, st.root, [x], []) == x + 1


def test_strip_preserves_values_with_used_safe_inputs():
    # a proof bN, bN, N => bN that reads its safe input below the bar (a
    # plain cut computes from it) but not in its value: a box-left moves
    # a boxed input away and a boxed weakening forgets one
    g = _graph("top", {
        "top": (RuleKind.WEAK_B, Sequent(2, 1, B), ("r",)),
        "r": (RuleKind.CUT_B, Sequent(1, 1, B), ("l", "rt")),
        "l": (RuleKind.WEAK_N, Sequent(1, 1, B), ("lb",)),
        "lb": (RuleKind.BOX_R, Sequent(1, 0, B), ("li",)),
        "li": (RuleKind.S0, Sequent(1, 0), ("lx",)),
        "lx": (RuleKind.BOX_L, Sequent(1, 0), ("id",)),
        "id": (RuleKind.ID, Sequent(0, 1), ()),
        "rt": (Rule(RuleKind.EXCH_B, pos=0), Sequent(2, 1, B), ("s",)),
        "s": (RuleKind.S1, Sequent(2, 1, B), ("bl",)),
        "bl": (RuleKind.BOX_L, Sequent(2, 1, B), ("wn",)),
        "wn": (RuleKind.WEAK_N, Sequent(1, 2, B), ("c",)),
        "c": (RuleKind.CUT_N, Sequent(1, 1, B), ("cl", "cr")),
        "cl": (RuleKind.WEAK_B, Sequent(1, 1), ("id",)),
        "cr": (RuleKind.WEAK_N, Sequent(1, 2, B), ("cr1",)),
        "cr1": (RuleKind.WEAK_N, Sequent(1, 1, B), ("rb",)),
        "rb": (RuleKind.BOX_R, Sequent(1, 0, B), ("lx",)),
    })
    st = strip_safe_inputs(g)
    assert validate_graph(st) == []
    # below the bar: each rule kind strip rebuilds (s1 standing for both
    # successors) and a plain cut
    kinds = {g.nodes[n].rule.kind for n in ("top", "r", "rt", "s", "bl", "c")}
    assert kinds == {RuleKind.WEAK_B, RuleKind.CUT_B, RuleKind.EXCH_B, RuleKind.S1, RuleKind.BOX_L, RuleKind.CUT_N}
    for z in range(4):
        for x in range(8):
            for y in range(4):
                want = 4 * x + 1
                assert eval_proof(g, g.root, [z, x], [y]) == want
                assert eval_proof(st, st.root, [z, x], []) == want, (z, x, y)


def test_strip_requires_boxed_succedent(proofs):
    from circsafe.transform import TransformError

    with pytest.raises(TransformError):
        strip_safe_inputs(proofs["S"])


def test_strip_preserves_classification(proofs):
    g = _boxed_succ_fixture(proofs)
    nodes = dict(g.nodes)
    nodes["w"] = Node(Rule(RuleKind.WEAK_N), Sequent(1, 1, B), ("r",))
    g2 = ProofGraph("SW", "w", nodes)
    before = classify(g2)
    after = classify(strip_safe_inputs(g2))
    assert (before.safe, before.left_leaning) == (after.safe, after.left_leaning)


# ---------------------------------------------------------------------------
# pass_parameters


def test_pass_parameters_minimal_weakening():
    g = ProofGraph(
        "min",
        "r",
        {
            "r": Node(Rule(RuleKind.WEAK_B), Sequent(1, 1), ("a",)),
            "a": Node(Rule(RuleKind.ORACLE, oracle="a"), Sequent(0, 1), ()),
        },
    )
    out, star = pass_parameters(g, "a")
    assert star == "a*"
    leaves = [n for n in out.nodes.values() if n.rule.kind is RuleKind.ORACLE]
    assert len(leaves) == 1 and leaves[0].sequent == Sequent(1, 1)
    env = OracleEnv([OracleDef("a", 0, 1, lambda xs, ys: 3 * ys[0])])
    envs = OracleEnv([OracleDef("a*", 1, 1, lambda xs, ys: 3 * ys[0])])
    for x in range(6):
        for y in range(6):
            assert eval_proof(g, g.root, [x], [y], oracles=env) == eval_proof(
                out, out.root, [x], [y], oracles=envs
            )


def test_pass_parameters_threads_root_normals():
    # the widened oracle must see the root's normals unchanged
    g = ProofGraph(
        "thread",
        "r",
        {
            "r": Node(Rule(RuleKind.COND_B), Sequent(1, 1), ("z", "b", "b")),
            "z": Node(Rule(RuleKind.ID), Sequent(0, 1), ()),
            "b": Node(Rule(RuleKind.WEAK_B), Sequent(1, 1), ("a",)),
            "a": Node(Rule(RuleKind.ORACLE, oracle="a"), Sequent(0, 1), ()),
        },
    )
    out, star = pass_parameters(g, "a")
    assert validate_graph(out, allow_oracle=True) == []
    seen = {}
    envs = OracleEnv([OracleDef(star, 1, 1, lambda xs, ys: seen.setdefault("x", xs[0]) * 0 + ys[0])])
    eval_proof(out, out.root, [13], [4], oracles=envs)
    # the conditional hands its branch the predecessor, which is what a* sees
    assert seen["x"] == 6


def test_pass_parameters_semantics_with_cuts():
    # value computed before the oracle call: a(; s1(y)) under a dropped box
    g = ProofGraph(
        "cutty",
        "r",
        {
            "r": Node(Rule(RuleKind.CUT_N), Sequent(1, 1), ("v", "k")),
            "v": Node(Rule(RuleKind.WEAK_B), Sequent(1, 1), ("vs",)),
            "vs": Node(Rule(RuleKind.S1), Sequent(0, 1), ("vi",)),
            "vi": Node(Rule(RuleKind.ID), Sequent(0, 1), ()),
            "k": Node(Rule(RuleKind.WEAK_B), Sequent(1, 2), ("kw",)),
            "kw": Node(Rule(RuleKind.WEAK_N), Sequent(0, 2), ("a",)) ,
            "a": Node(Rule(RuleKind.ORACLE, oracle="a"), Sequent(0, 1), ()),
        },
    )
    assert validate_graph(g, allow_oracle=True) == []
    out, star = pass_parameters(g, "a")
    assert validate_graph(out, allow_oracle=True) == []
    env = OracleEnv([OracleDef("a", 0, 1, lambda xs, ys: ys[0] + 7)])
    envs = OracleEnv([OracleDef(star, 1, 1, lambda xs, ys: ys[0] + 7)])
    rng = random.Random(47)
    for _ in range(50):
        x, y = rng.getrandbits(5), rng.getrandbits(5)
        assert eval_proof(g, g.root, [x], [y], oracles=env) == eval_proof(
            out, out.root, [x], [y], oracles=envs
        )


def test_pass_parameters_rejects_boxed_cut_on_path():
    g = ProofGraph(
        "bad",
        "r",
        {
            "r": Node(Rule(RuleKind.CUT_B), Sequent(1, 0), ("l", "rr")),
            "l": Node(Rule(RuleKind.BOX_R), Sequent(1, 0, B), ("li",)),
            "li": Node(Rule(RuleKind.BOX_L), Sequent(1, 0), ("lid",)),
            "lid": Node(Rule(RuleKind.ID), Sequent(0, 1), ()),
            "rr": Node(Rule(RuleKind.WEAK_B), Sequent(2, 0), ("rw",)),
            "rw": Node(Rule(RuleKind.WEAK_B), Sequent(1, 0), ("a",)),
            "a": Node(Rule(RuleKind.ORACLE, oracle="a"), Sequent(0, 0), ()),
        },
    )
    with pytest.raises(ShapeViolation):
        pass_parameters(g, "a")


def test_pass_parameters_preserves_classification_off_region(proofs):
    # oracle leaves beside an accepted loop: the loop is untouched
    s = proofs["S"]
    nodes = {f"S{k}": Node(v.rule, v.sequent, tuple(f"S{p}" for p in v.premises)) for k, v in s.nodes.items()}
    nodes["r"] = Node(Rule(RuleKind.CUT_N), Sequent(1, 0), ("Sn0", "k"))
    nodes["k"] = Node(Rule(RuleKind.WEAK_B), Sequent(1, 1), ("a",))
    nodes["a"] = Node(Rule(RuleKind.ORACLE, oracle="a"), Sequent(0, 1), ())
    g = ProofGraph("sidecar", "r", nodes)
    assert validate_graph(g, allow_oracle=True) == []
    out, star = pass_parameters(g, "a")
    assert validate_graph(out, allow_oracle=True) == []

    def cls_flags(graph):
        from circsafe.checker import check_left_leaning, check_safety

        return (check_safety(graph).ok, check_left_leaning(graph).ok, check_progressing_safe(graph).status)

    assert cls_flags(g) == cls_flags(out)
    env = OracleEnv([OracleDef("a", 0, 1, lambda xs, ys: ys[0] * 2)])
    envs = OracleEnv([OracleDef(star, 1, 1, lambda xs, ys: ys[0] * 2)])
    for x in range(20):
        assert eval_proof(g, g.root, [x], [], oracles=env) == eval_proof(
            out, out.root, [x], [], oracles=envs
        )


def test_pass_parameters_exchange_and_off_region():
    # the root's two boxed inputs are swapped, then both weakened: the
    # widened oracle still sees them in root order, and the cut's left
    # premise, off the oracle path, gets both weakened back in
    g = _graph("r", {
        "r": (Rule(RuleKind.EXCH_B, pos=0), Sequent(2, 0), ("w",)),
        "w": (RuleKind.WEAK_B, Sequent(2, 0), ("w2",)),
        "w2": (RuleKind.WEAK_B, Sequent(1, 0), ("c",)),
        "c": (RuleKind.CUT_N, Sequent(0, 0), ("cl", "a")),
        "cl": (RuleKind.S1, Sequent(0, 0), ("zero",)),
        "zero": (RuleKind.ZERO, Sequent(0, 0), ()),
        "a": (Rule(RuleKind.ORACLE, oracle="a"), Sequent(0, 1), ()),
    })
    assert validate_graph(g, allow_oracle=True) == []
    out, star = pass_parameters(g, "a")
    assert validate_graph(out, allow_oracle=True) == []
    assert {out.nodes[n].rule.kind for n in out.reachable()} >= {RuleKind.EXCH_B, RuleKind.WEAK_B}
    seen = []
    env = OracleEnv([OracleDef("a", 0, 1, lambda xs, ys: 5 * ys[0])])
    envs = OracleEnv([OracleDef(star, 2, 1, lambda xs, ys: seen.append(tuple(xs)) or 5 * ys[0])])
    for xs in itertools.product(range(5), repeat=2):
        assert eval_proof(g, g.root, xs, (), oracles=env) == eval_proof(out, out.root, xs, (), oracles=envs) == 5
        assert seen.pop() == xs


# ---------------------------------------------------------------------------
# simultaneous recursion


def test_rotation_tags():
    assert rotation_tags(1) == [(1,)]
    assert rotation_tags(3) == [(1, 2, 3), (2, 3, 1), (3, 1, 2)]


def _parity_pair():
    """Mutual even/odd on the prefix order: even(x), odd(x) in {0,1}."""
    x0 = Proj("n", 0)
    # even(0)=1; even(x)=odd(p x); odd(0)=0; odd(x)=even(p x)
    h_even = lambda: OracleCall("rec2", (Pred_(x0),), ())
    h_odd = lambda: OracleCall("rec1", (Pred_(x0),), ())
    from circsafe.interp import Cond, Zero

    even = Cond(x0, S1(Zero()), h_even(), h_even())
    odd = Cond(x0, Zero(), h_odd(), h_odd())
    return SimRecPP((even, odd), 0, False)


def Pred_(t):
    from circsafe.interp import Pred

    return Pred(t)


def _evenlen(x: int) -> int:
    return 1 if x.bit_length() % 2 == 0 else 0


def test_simultaneous_direct_evaluation():
    term = _parity_pair()
    for x in range(64):
        assert eval_term(term, None, [x], []) == _evenlen(x)


def test_reduce_simultaneous_selectors_agree():
    term = _parity_pair()
    red = reduce_simultaneous(term, 1, 0)
    for x in range(200):
        assert red.selector(0, None, [x], []) == _evenlen(x)
        assert red.selector(1, None, [x], []) == 1 - _evenlen(x)


def test_reduce_simultaneous_degenerate_k1():
    x0 = Proj("n", 0)
    from circsafe.interp import Cond, Zero

    body = Cond(x0, Zero(), OracleCall("rec1", (Pred_(x0),), ()), S1(OracleCall("rec1", (Pred_(x0),), ())))
    term = SimRecPP((body,), 0, False)
    red = reduce_simultaneous(term, 1, 0)
    assert red.tags == ((1,),)
    for x in range(64):
        assert red.selector(0, None, [x], []) == eval_term(term, None, [x], [])


def test_reduced_function_returns_zero_on_alien_tags():
    term = _parity_pair()
    red = reduce_simultaneous(term, 1, 0)
    assert eval_term(red.fn, None, [5], [7, 7]) == 0  # (7,7) is no rotation


def test_reduce_simultaneous_rewrites_calls_inside_tag_dispatch():
    x0 = Proj("n", 0)
    first = TagDispatch(0, (((), OracleCall("rec2", (Pred_(x0),), ())),))
    term = SimRecPP((first, S1(S1(S1(Zero())))), 0, False)
    red = reduce_simultaneous(term, 1, 0)
    assert eval_term(term, None, [1], []) == 7
    for x in range(40):
        for i in (0, 1):
            want = eval_term(SimRecPP(term.hs, i, False), None, [x], [])
            assert red.selector(i, None, [x], []) == want, (i, x)


def test_flatten_program_preserves_semantics(proofs):
    from circsafe.translate import translate

    for name in ("S", "C", "E", "N"):
        prog = translate(proofs[name])
        flat = flatten_program(prog)
        g = proofs[name]
        seq = g.nodes[g.root].sequent
        rng = random.Random(53)
        for _ in range(60):
            xs, ys = sample_two_sorted(rng, seq.boxed, seq.plain, 7)
            assert eval_pp(prog, "main", None, xs, ys) == eval_pp(flat, "main", None, xs, ys), name


def test_flatten_program_collapses_blocks():
    # two mutually guarded functions become one recursive core
    x0 = Proj("n", 0)
    from circsafe.interp import Cond, Zero

    fns = {
        "main": PPFunction("main", 1, 0, Call("ev", (x0,), ())),
        "ev": PPFunction(
            "ev", 1, 0, Cond(x0, S1(Zero()), Call("od", (Pred_(x0),), (), guard="strict"), Call("od", (Pred_(x0),), (), guard="strict"))
        ),
        "od": PPFunction(
            "od", 1, 0, Cond(x0, Zero(), Call("ev", (Pred_(x0),), (), guard="strict"), Call("ev", (Pred_(x0),), (), guard="strict"))
        ),
    }
    prog = PPProgram(fns, "strict")
    prog.validate()
    flat = flatten_program(prog)
    assert "ev+od" in flat.functions
    for x in range(64):
        assert eval_pp(flat, "main", None, [x], []) == _evenlen(x)
