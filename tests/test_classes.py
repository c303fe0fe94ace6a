"""Syntactic membership in the algebra tower."""

from dataclasses import replace

import pytest

from circsafe.interp import (
    Call,
    CompNormal,
    CompSafe,
    Cond,
    EvalError,
    OracleCall,
    PPFunction,
    PPProgram,
    Pred,
    Proj,
    S0,
    S1,
    SimRecPP,
    SNRec,
    SNRecPP,
    SRecN,
    SRecPP,
    TagDispatch,
    Term,
    Zero,
    check_term_class,
    children,
    eval_pp,
    eval_term,
    map_children,
)


def test_ex_memberships(terms):
    ex = terms["ex"]
    assert check_term_class(ex, "NB") == []
    assert check_term_class(ex, "NBpp") == []
    assert check_term_class(ex, "B") != []
    assert check_term_class(ex, "SB") != []  # the nesting itself offends


def test_b_terms_included_everywhere(terms):
    for name in ("succ1", "half", "select", "append", "lenones", "parity", "lenunary"):
        td = terms[name]
        for cls in ("B", "SB", "NB", "Bpp", "SBpp", "NBpp"):
            assert check_term_class(td, cls) == [], (name, cls)


def test_comp_during_recursion_is_shallow(terms):
    cdr = terms["cdr"]
    assert check_term_class(cdr, "SB") == []
    assert check_term_class(cdr, "B") != []


def test_comp_normal_oracle_sides():
    free_g = Proj("n", 0)
    using_h = OracleCall("a", (), (Proj("s", 0),))
    t = CompNormal(CompSafe(Proj("s", 0), using_h), free_g)
    # an oracle on the h side needs the relaxed composition rule
    assert check_term_class(t, "NB") != []
    assert check_term_class(t, "NBpp") == []
    # an oracle on the g side is out in every class
    bad = CompNormal(Proj("n", 1), OracleCall("a", (), ()))
    assert check_term_class(bad, "NB") != []
    assert check_term_class(bad, "NBpp") != []


def test_guards_never_consulted_when_oracle_ignored():
    # recursion whose step ignores its recursive call behaves like the step
    prog = SRecPP(S1(Proj("s", 0)))
    for y in range(20):
        assert eval_term(prog, None, [y], [y]) == 2 * y + 1


def test_nested_pp_forbidden_in_bpp():
    from circsafe.interp import SNRecPP

    h = OracleCall("rec", (Proj("n", 0),), (OracleCall("rec", (Proj("n", 0),), (Proj("s", 0),)),))
    assert check_term_class(SNRecPP(h), "NBpp") == []
    assert check_term_class(SNRecPP(h), "Bpp") != []
    assert check_term_class(SNRecPP(h), "SBpp") != []  # nested safe argument


def _dispatch(body):
    """A one-case TagDispatch over no tag slots: always runs ``body``."""
    return TagDispatch(0, (((), body),))


def test_validate_sees_calls_inside_tag_dispatch():
    body = _dispatch(Call("nowhere", (Proj("n", 0),), ()))
    prog = PPProgram({"main": PPFunction("main", 1, 0, body)})
    with pytest.raises(EvalError, match="unknown function 'nowhere'"):
        prog.validate()


def test_class_check_sees_unguarded_peer_inside_tag_dispatch():
    x0 = Proj("n", 0)

    def program(wrap):
        return PPProgram(
            {
                "f": PPFunction("f", 1, 0, wrap(Call("g", (Pred(x0),), ()))),
                "g": PPFunction("g", 1, 0, Call("f", (Pred(x0),), (), guard="strict")),
            }
        )

    want = "f: unguarded call to mutual peer g"
    assert want in check_term_class(program(lambda t: t), "NBpp")
    assert want in check_term_class(program(_dispatch), "NBpp")


def test_class_check_requires_a_guard_on_every_recursive_call():
    # f(x0;) and f(s1(x0);) call themselves unguarded and never return
    x0 = Proj("n", 0)
    for arg in (x0, S1(x0)):
        prog = PPProgram({"f": PPFunction("f", 1, 0, Call("f", (arg,), ()))})
        for cls in ("Bpp", "NBpp"):
            assert "f: unguarded call to itself" in check_term_class(prog, cls), (arg, cls)
    # guarded, the same self-call is in both classes
    prog = PPProgram({"f": PPFunction("f", 1, 0, Call("f", (Pred(x0),), (), guard="strict_safe"))})
    assert check_term_class(prog, "Bpp") == check_term_class(prog, "NBpp") == []
    # a guarded call that is not recursive is allowed, an unguarded one is composition
    for guard in (None, "strict_safe"):
        prog = PPProgram(
            {
                "f": PPFunction("f", 1, 0, S0(x0)),
                "g": PPFunction("g", 1, 0, Call("f", (x0,), (), guard=guard)),
            }
        )
        assert check_term_class(prog, "Bpp") == [], guard


def test_class_check_reports_an_unknown_callee():
    x0 = Proj("n", 0)
    for guard in (None, "strict", "strict_safe"):
        prog = PPProgram({"f": PPFunction("f", 1, 0, S1(Call("nowhere", (x0,), (), guard=guard)))})
        for cls in ("Bpp", "NBpp"):
            assert "f: call to unknown function 'nowhere'" in check_term_class(prog, cls), (guard, cls)
    # calls report in pre-order, left to right, and validate raises on the first
    prog = PPProgram({"f": PPFunction("f", 1, 0, Cond(x0, Call("a", (x0,), ()), Call("b", (x0,), ()), Zero()))})
    assert check_term_class(prog, "NBpp") == ["f: call to unknown function 'a'", "f: call to unknown function 'b'"]
    with pytest.raises(EvalError, match="f calls unknown function 'a'"):
        prog.validate()


def test_class_check_reports_guarded_calls_at_other_argument_counts():
    x0, y0, y1 = Proj("n", 0), Proj("s", 0), Proj("s", 1)
    for guard in ("strict", "strict_safe"):
        # one Call object at two places reports once; two equal objects report twice
        for copies, places in ((lambda c: (c, c), 1), (lambda c: (c, replace(c)), 2)):
            two = copies(Call("g", (Pred(x0), Pred(x0)), (), guard))
            one = copies(Call("main", (Pred(x0),), (), guard))
            prog = PPProgram({
                "main": PPFunction("main", 1, 0, Cond(x0, Zero(), *two)),
                "g": PPFunction("g", 2, 0, Cond(x0, Zero(), *one)),
            })
            for cls in ("Bpp", "NBpp"):
                got = check_term_class(prog, cls)
                assert got.count("main: guarded call to g at (2;0) against (1;0)") == places, (guard, cls)
                assert got.count("g: guarded call to main at (1;0) against (2;0)") == places, (guard, cls)
    # other safe counts than the caller's count only under strict_safe
    pair = ["main: guarded call to g at (1;1) against (1;2)", "g: guarded call to main at (1;2) against (1;1)"]
    for guard, want in (("strict", []), ("strict_safe", pair)):
        call = Call("g", (Pred(x0),), (y1,), guard)
        back = Call("main", (Pred(x0),), (y0, y0), guard)
        prog = PPProgram({
            "main": PPFunction("main", 1, 2, Cond(x0, y0, call, call)),
            "g": PPFunction("g", 1, 1, Cond(x0, y0, back, back)),
        })
        assert check_term_class(prog, "NBpp") == want, guard


def test_class_check_reports_a_call_at_the_wrong_arity():
    x0, y0 = Proj("n", 0), Proj("s", 0)
    prog = PPProgram({
        "main": PPFunction("main", 1, 1, Call("g", (x0,), (y0, y0))),
        "g": PPFunction("g", 1, 1, S0(y0)),
    })
    for cls in ("Bpp", "SBpp", "NBpp"):
        assert check_term_class(prog, cls) == ["main: call to g with wrong arity"], cls
    with pytest.raises(EvalError, match="main calls g with wrong arity"):
        prog.validate()
    with pytest.raises(EvalError, match="g expects \\(1;1\\) arguments"):
        eval_pp(prog, "main", None, [1], [1])



def test_a_function_under_another_name_is_reported():
    x0 = Proj("n", 0)
    prog = PPProgram({"main": PPFunction("f", 1, 0, Cond(x0, x0, Call("main", (Pred(x0),), (), "strict"), x0))})
    with pytest.raises(EvalError, match="function f is stored under the name 'main'"):
        prog.validate()
    for cls in ("SBpp", "NBpp"):
        assert check_term_class(prog, cls) == ["main: holds function 'f'"]


def test_children_and_map_children_agree_on_every_term_class():
    z, y = Zero(), Proj("s", 0)
    samples = [
        z, y, S0(y), S1(y), Pred(y), Cond(y, z, S0(z), S1(z)),
        OracleCall("o", (y,), (z,)), Call("f", (y,), (z, S0(y)), guard="strict"),
        CompSafe(y, z), CompNormal(y, z), SRecN(z, y, S0(y)), SNRec(z, y, "r"),
        SRecPP(y), SNRecPP(y), SimRecPP((y, z), 1, True),
        TagDispatch(1, (((1,), y), ((2,), z))),
    ]
    assert {type(t) for t in samples} == set(Term.__subclasses__())
    for t in samples:
        seen = []
        assert map_children(t, lambda c: seen.append(c) or c) is t
        assert seen == list(children(t))
        wrapped = map_children(t, S1)
        assert type(wrapped) is type(t)
        assert list(children(wrapped)) == [S1(c) for c in children(t)]
        assert map_children(wrapped, lambda c: c.t) == t  # tags and names kept


def _o(name, normals=(), safes=()):
    return OracleCall(name, normals, safes)


def test_violation_lists_keep_their_messages_and_order():
    # a node's messages precede its subterms', subterms go left to right,
    # and each call argument's message comes just before its own
    x0, y0 = Proj("n", 0), Proj("s", 0)
    calls = CompSafe(
        _o("f", (S0(x0), CompSafe(_o("a"), _o("b"))), (_o("b", (), (y0,)), y0)),
        Call("g", (Pred(x0),), (S1(y0),), guard="strict"),
    )
    nested = "nested safe composition: neither side is oracle-free"
    assert check_term_class(calls, "SB") == [
        nested,
        "computed normal argument of f needs the relaxed composition rule, absent from this class",
        "oracle-bearing term in normal position of f",
        nested,
        "nested call: oracle-bearing safe argument of f",
        "computed normal argument of g needs the relaxed composition rule, absent from this class",
    ]
    schemes = SNRec(_o("a"), CompNormal(_o("rec", (), (y0,)), Cond(y0, _o("b"), Zero(), y0)))
    assert check_term_class(schemes, "B") == [
        "SNRec is not a recursion scheme of B",
        "base case of nested recursion must be oracle-free",
        "composition along a normal parameter with oracle-using g",
        "composition along a normal parameter with oracle-using h needs the relaxed rule, absent from this class",
    ]
    pp = SimRecPP((SNRecPP(_o("rec1", (x0,), (_o("rec2", (x0,), (y0,)),))), SRecPP(S1(y0))), 0, False)
    assert check_term_class(pp, "Bpp") == [
        "simultaneous scheme without safe guards is not available here",
        "SNRecPP is not a recursion scheme of Bpp",
        "nested call: oracle-bearing safe argument of rec1",
    ]


def test_a_shared_offending_subterm_is_reported_once():
    both = CompSafe(_o("a"), _o("b"))
    msg = "nested safe composition: neither side is oracle-free"
    assert check_term_class(Cond(both, Zero(), both, S0(both)), "SB") == [msg]
    # equal but distinct objects are separate places
    assert check_term_class(Cond(both, Zero(), CompSafe(_o("a"), _o("b")), Zero()), "SB") == [msg] * 2
    # the call's own message about a shared argument stays
    assert check_term_class(_o("f", (both, both)), "SB") == [
        "oracle-bearing term in normal position of f",
        msg,
        "oracle-bearing term in normal position of f",
    ]


@pytest.mark.parametrize(
    "term", ["x0", None, S0("x0"), CompSafe(Zero(), 1), Call("f", ("x0",)), TagDispatch(0, (((), 3),))]
)
def test_class_check_rejects_a_non_term(term):
    for cls in ("B", "NBpp"):
        with pytest.raises(ValueError, match="unknown term"):
            check_term_class(term, cls)
