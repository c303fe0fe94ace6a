"""Completeness pipelines: terms to derivations to circular proofs."""

import random

import pytest

from conftest import sample_two_sorted

from circsafe.checker import classify
from circsafe.compilealg import (
    CompileError,
    nb_to_circular,
    srec_eliminate,
    term_to_derivation,
)
from circsafe.interp import (
    CompSafe,
    OracleCall,
    Pred,
    Proj,
    S0,
    S1,
    SNRec,
    SRecN,
    TermDef,
    Zero,
    eval_proof,
    eval_term,
)
from circsafe.kernel import RuleKind, validate_graph

B_NAMES = ("succ1", "half", "select", "append", "lenones", "parity", "lenunary")
NB_NAMES = ("ex", "padones", "exquad", "cdr", "twoloops")


def test_zero_compiles_to_single_node():
    d = term_to_derivation(TermDef("z", 0, 0, Zero()))
    assert len(d.nodes) == 1
    assert d.nodes[d.root].rule.kind is RuleKind.ZERO


def test_predecessor_compiles_to_displayed_conditional():
    d = term_to_derivation(TermDef("pr", 0, 1, Pred(Proj("s", 0))))
    root = d.nodes[d.root]
    assert root.rule.kind is RuleKind.COND_N
    kinds = sorted(d.nodes[p].rule.kind.value for p in root.premises)
    assert kinds == ["id", "id", "zero"]


def test_srec_census():
    td = TermDef("two", 1, 1, SRecN(Proj("s", 0), S0(Proj("s", 1)), S1(Proj("s", 1))))
    d = term_to_derivation(td)
    srecs = [n for n in d.reachable() if d.nodes[n].rule.kind is RuleKind.SREC]
    assert len(srecs) == 1


def test_srec_eliminate_gadget_shape(terms):
    d = term_to_derivation(terms["append"])
    c = srec_eliminate(d)
    assert all(c.nodes[n].rule.kind is not RuleKind.SREC for n in c.reachable())
    conds = [n for n in c.reachable() if c.nodes[n].rule.kind is RuleKind.COND_B]
    assert conds
    # the conditional's recursive branches cut left into the loop
    cb = c.nodes[conds[0]]
    k1 = c.nodes[cb.premises[1]]
    assert k1.rule.kind is RuleKind.CUT_N and k1.premises[0] == conds[0]
    assert classify(c).cls == "CB"


def test_srec_eliminate_identity_without_recursion(terms):
    d = term_to_derivation(terms["select"])
    c = srec_eliminate(d)
    assert c.nodes == d.nodes


def test_srec_eliminate_strips_only_the_deriv_suffix():
    d = term_to_derivation(TermDef("a_deriv_b", 0, 1, S0(Proj("s", 0))))
    assert d.name == "a_deriv_b_deriv"
    assert srec_eliminate(d).name == "a_deriv_b_circ"


def test_b_pipeline(proofs, terms):
    rng = random.Random(59)
    for name in B_NAMES:
        td = terms[name]
        d = term_to_derivation(td)
        assert validate_graph(d, allow_srec=True) == [], name
        c = srec_eliminate(d)
        assert validate_graph(c) == [], name
        assert classify(c).cls == "CB", name
        for _ in range(100):
            xs, ys = sample_two_sorted(rng, td.normals, td.safes, 10)
            want = eval_term(td.body, None, xs, ys)
            assert eval_proof(d, d.root, xs, ys) == want, (name, "derivation", xs, ys)
            assert eval_proof(c, c.root, xs, ys) == want, (name, "circular", xs, ys)


def test_nb_pipeline(terms):
    rng = random.Random(61)
    for name in NB_NAMES:
        td = terms[name]
        c = nb_to_circular(td)
        assert validate_graph(c) == [], name
        assert classify(c).cls in ("CB", "CNB"), name
        for _ in range(50):
            xs, ys = sample_two_sorted(rng, td.normals, td.safes, 8)
            want = eval_term(td.body, None, xs, ys)
            assert eval_proof(c, c.root, xs, ys) == want, (name, xs, ys)


def test_compiled_ex_matches_closed_form(terms):
    c = nb_to_circular(terms["ex"])
    for x in range(5):
        for y in range(16):
            assert eval_proof(c, c.root, [x], [y]) == 2 ** (2 ** x.bit_length()) * y
    cl = classify(c)
    assert cl.cls == "CNB" and not cl.left_leaning


def test_b_terms_through_nb_route(terms):
    for name in ("append", "lenones", "parity"):
        c = nb_to_circular(terms[name])
        assert classify(c).cls in ("CB", "CNB"), name


def test_term_class_gate():
    with pytest.raises(CompileError):
        term_to_derivation(TermDef("nested", 1, 1, SNRec(Proj("s", 0), OracleCall("rec", (), (Proj("s", 0),)))))


def test_frozen_recursive_call_under_inner_loop_rejected():
    inner = SNRec(
        S0(Proj("s", 0)),
        OracleCall("recB", (), (OracleCall("recA", (), (Proj("s", 0),)),)),
        "recB",
    )
    bad = TermDef("bad", 1, 1, SNRec(S1(Proj("s", 0)), inner, "recA"))
    with pytest.raises(CompileError):
        nb_to_circular(bad)


def test_later_recursive_call_argument_binding_a_safe_slot():
    # rec's second argument comps(y2, y1) reads the slot its comps binds,
    # not the value of rec's first argument cut in before it
    y1, y2 = Proj("s", 1), Proj("s", 2)
    td = TermDef("t", 1, 2, SNRec(y1, OracleCall("rec", (), (Zero(), CompSafe(y2, y1)))))
    c = nb_to_circular(td)
    assert validate_graph(c) == []
    for x in range(6):
        for a in range(4):
            for b in range(4):
                assert eval_proof(c, c.root, [x], [a, b]) == eval_term(td.body, None, [x], [a, b]), (x, a, b)
