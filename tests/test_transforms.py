"""Box promotion, safe-input stripping, parameter passing, simultaneous
recursion reduction."""

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


def test_strip_preserves_values_with_used_safe_inputs(proofs):
    # a proof bN, N => bN whose value provably ignores its safe input:
    # box-left moves it away, a boxed weakening forgets it
    bp = box_promote(proofs["S"])
    nodes = dict(bp.nodes)
    nodes["r0"] = Node(Rule(RuleKind.BOX_R), Sequent(1, 0, B), (bp.root,))
    nodes["w"] = Node(Rule(RuleKind.WEAK_B), Sequent(2, 0, B), ("r0",))
    nodes["bl"] = Node(Rule(RuleKind.BOX_L), Sequent(1, 1, B), ("el",))
    nodes["el"] = Node(Rule(RuleKind.EXCH_N), Sequent(0, 2, B), ("wn",))
    # build instead: bN, N => bN via weakening the plain input then boxR
    nodes2 = dict(bp.nodes)
    nodes2["r0"] = Node(Rule(RuleKind.BOX_R), Sequent(1, 0, B), (bp.root,))
    nodes2["top"] = Node(Rule(RuleKind.WEAK_N), Sequent(1, 1, B), ("r0",))
    g = ProofGraph("mix", "top", nodes2)
    assert validate_graph(g) == []
    st = strip_safe_inputs(g)
    assert validate_graph(st) == []
    rng = random.Random(43)
    for _ in range(100):
        x = rng.getrandbits(rng.randrange(8))
        y = rng.getrandbits(rng.randrange(8))
        assert eval_proof(g, g.root, [x], [y]) == eval_proof(st, st.root, [x], [])


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
