"""Symbolic bound synthesis and its empirical verification."""

from circsafe.bounds import (
    BoundPair,
    Const,
    Var,
    badd,
    beval,
    input_bound,
    synthesize_bound,
    verify_bound,
)
from circsafe.bounds import _recursion_bound
from circsafe.interp import (
    Call,
    CompSafe,
    OracleCall,
    Proj,
    SNRecPP,
    Zero,
    check_term_class,
    children,
    eval_term,
    is_bearing,
)
from circsafe.kernel import length

B_NAMES = ("succ1", "half", "select", "append", "lenones", "parity", "lenunary")


def test_initial_and_oracle_cases():
    z = synthesize_bound(Zero())
    assert beval(z.e, 5) == 6 and z.d == 1  # 1 + n
    o = synthesize_bound(OracleCall("a", (), ()))
    assert beval(o.e, 5) == 0 and o.d == 1


def test_pp_recursion_case_shape():
    h = OracleCall("rec", (Proj("n", 0),), (Proj("s", 0),))
    pair = synthesize_bound(SNRecPP(h))
    hb = synthesize_bound(h)
    assert pair.d == hb.d
    for n in range(1, 32):
        assert beval(pair.e, n) == (n + 1) * hb.d**n * beval(hb.e, n)


def test_bounds_count_every_call_as_bearing():
    # bound synthesis cannot see a callee's output, so any Call bears
    h = Call("f", (), (Proj("s", 0),))
    g = Call("g", (), ())
    assert is_bearing(h) and is_bearing(g)
    assert synthesize_bound(CompSafe(h, g)).d == synthesize_bound(h).d + synthesize_bound(g).d == 2
    # the class check reads an unguarded call to a non-peer as composition
    assert not is_bearing(h, frozenset()) and is_bearing(h, frozenset({"f"}))
    assert check_term_class(CompSafe(h, g), "SB") == []


def test_ex_is_nonpolynomial_with_d2(terms):
    pair = synthesize_bound(terms["ex"].body)
    assert pair.d == 2
    assert not pair.is_polynomial


def test_unnested_terms_polynomial_d1(terms):
    for name in B_NAMES + ("cdr",):
        pair = synthesize_bound(terms[name].body)
        assert pair.d == 1 and pair.is_polynomial, name


def test_monotone(terms):
    for name, td in terms.items():
        pair = synthesize_bound(td.body)
        vals = [beval(pair.e, n) for n in range(1025)]
        assert all(a <= b for a, b in zip(vals, vals[1:])), name


def test_recursion_invariant():
    for c in (1, 2, 5):
        for d in (1, 2, 3):
            step = BoundPair(badd(Const(c), Var()), d)
            f = _recursion_bound(step)
            for n in range(1, 65):
                assert beval(f.e, n) >= beval(step.e, n) + d * beval(f.e, n - 1), (c, d, n)


def test_corpus_recursion_nodes_satisfy_invariant(terms):
    # the synthesized bound of each recursion node dominates its step
    from circsafe.interp import SNRec, SRecN

    def walk(t):
        if isinstance(t, SRecN):
            g = synthesize_bound(t.g)
            h0 = synthesize_bound(t.h0)
            h1 = synthesize_bound(t.h1)
            f = synthesize_bound(t)
            step_e = badd(badd(badd(Const(1), Var()), g.e), badd(h0.e, h1.e))
            for n in range(1, 65):
                assert beval(f.e, n) >= beval(step_e, n) + f.d * beval(f.e, n - 1)
        if isinstance(t, SNRec):
            g = synthesize_bound(t.g)
            h = synthesize_bound(t.h)
            f = synthesize_bound(t)
            step_e = badd(badd(badd(Const(1), Var()), g.e), h.e)
            for n in range(1, 65):
                assert beval(f.e, n) >= beval(step_e, n) + f.d * beval(f.e, n - 1)
        for c in children(t):
            walk(c)

    for td in terms.values():
        walk(td.body)


def test_verify_bound_clean_on_corpus(terms, corpus_bound_reports):
    assert sorted(corpus_bound_reports) == sorted(terms)
    for name, rep in corpus_bound_reports.items():
        assert rep.violations == [], (name, rep.violations[:1])
        assert rep.max_slack is not None and rep.max_slack >= 0


def test_verify_bound_catches_corruption(terms):
    rep = verify_bound(terms["ex"], samples=200, seed=42, pair=BoundPair(Const(0), 1))
    assert rep.violations


def test_input_bound_dominates_outputs(terms):
    ib = input_bound(terms["ex"].body)
    v = eval_term(terms["ex"].body, None, [3], [5])
    assert ib([3], [5]) >= length(v)
    # empty constants: m = e(sum |xs|) + max |ys|
    assert ib([3], [5]) == beval(synthesize_bound(terms["ex"].body).e, 2) + 3


def test_report_json_shape(terms):
    rep = verify_bound(terms["append"], samples=50, seed=1)
    d = rep.to_json_dict()
    assert set(d) == {"term", "e", "d", "polynomial", "samples", "max_slack", "violations"}
