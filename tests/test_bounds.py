"""Symbolic bound synthesis and its empirical verification."""

import random

from conftest import ref_beval, ref_bound_str, ref_is_polynomial, ref_synthesize_bound

from circsafe.bounds import (
    Add,
    BoundPair,
    Const,
    Mul,
    Var,
    badd,
    beval,
    compile_bound,
    input_bound,
    synthesize_bound,
    verify_bound,
)
from circsafe.bounds import _recursion_bound
from circsafe.corpus import standard_proofs
from circsafe.interp import (
    Call,
    CompNormal,
    CompSafe,
    OracleCall,
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
    TermDef,
    Zero,
    check_term_class,
    children,
    eval_term,
)
from circsafe.kernel import length
from circsafe.translate import translate

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
    # d adds over the sides of a composition and the safe arguments that bear
    assert synthesize_bound(CompSafe(h, g)).d == synthesize_bound(h).d + synthesize_bound(g).d == 2
    assert synthesize_bound(Call("f", (), (g,))).d == 2
    # the class check reads an unguarded call to a non-peer as composition
    assert check_term_class(CompSafe(h, g), "SB") == []
    assert check_term_class(CompNormal(Proj("n", 0), h), "NBpp") == []
    assert check_term_class(CompNormal(Proj("n", 0), h), "NBpp", _peers_bearing=frozenset({"f"})) == [
        "composition along a normal parameter with oracle-using g"
    ]
    both = frozenset({"f", "g"})
    assert check_term_class(CompSafe(h, g), "SB", _peers_bearing=both) == [
        "nested safe composition: neither side is oracle-free"
    ]


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
        code = compile_bound(synthesize_bound(td.body).e)
        vals = [code(n) for n in range(1025)]
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


def _bound_cases(terms) -> list:
    """Corpus terms, seeded random B terms and NB recursions, the function
    bodies of translated corpus proofs, and the prefix-permutation forms."""
    from test_fuzz import random_b_term, random_nb_step

    cases = [td.body for td in terms.values()]
    rng = random.Random(15015)
    for _ in range(120):
        m, n = rng.randrange(0, 3), rng.randrange(0, 3)
        cases.append(random_b_term(rng, m, n, 4, [2]))
    for _ in range(120):
        m, n = rng.randrange(1, 3), rng.randrange(1, 3)
        cases.append(SNRec(random_b_term(rng, m - 1, n, 2, [0]), random_nb_step(rng, m, n, 4, [3], n)))
    for name in ("S", "C", "E", "P", "L", "N"):
        cases += [f.body for f in translate(standard_proofs()[name]).functions.values()]
    rec = OracleCall("rec", (Proj("n", 0),), (OracleCall("rec", (), (Proj("s", 0),)),))
    step = CompNormal(CompSafe(Call("f", (), (Proj("s", 0),), "strict"), rec), Proj("n", 0))
    cases += [SRecPP(rec), SNRecPP(step), SimRecPP((rec, step), 1, True), TagDispatch(1, (((1,), rec), ((2,), step)))]
    cases += [SRecN(Proj("s", 0), rec, S1(Proj("s", 1))), SRecN(Zero(), Pred(Proj("s", 1)), step)]
    return cases


def test_bounds_match_the_recursive_reference(terms):
    pairs = [(t, synthesize_bound(t)) for t in _bound_cases(terms)]
    # the cases reach substitution, powers and nested calls
    assert sum(" @ n=" in str(p.e) for _, p in pairs) > 20
    assert sum(not p.is_polynomial for _, p in pairs) > 20
    assert max(p.d for _, p in pairs) >= 3
    for t, pair in pairs:
        want = ref_synthesize_bound(t)
        assert pair == want, t
        assert str(pair.e) == ref_bound_str(want.e), t
        assert pair.is_polynomial == ref_is_polynomial(want.e), t
        code = compile_bound(pair.e)
        assert [code(n) for n in range(65)] == [ref_beval(want.e, n) for n in range(65)], t


def test_verify_bound_with_and_without_an_explicit_pair(terms):
    from test_fuzz import random_b_term

    rng = random.Random(15016)
    tds = [td for name, td in terms.items() if name not in ("twoloops", "exquad", "padones", "ex")]
    for trial in range(20):
        m, n = rng.randrange(0, 3), rng.randrange(0, 3)
        tds.append(TermDef(f"b{trial}", m, n, random_b_term(rng, m, n, 4, [2])))
    for s, td in enumerate(tds):
        rep = verify_bound(td, samples=20, seed=s)
        assert rep == verify_bound(td, samples=20, seed=s, pair=synthesize_bound(td.body)), td.name
        assert rep.samples == 20 and rep.violations == [], td.name


def test_bound_expressions_compare_hash_and_print_at_depth_10000():
    def chain_pair() -> BoundPair:
        """The pair of a 10^4-deep s0 chain: an Add chain as deep."""
        t = Proj("s", 0)
        for _ in range(10**4):
            t = S0(t)
        return synthesize_bound(t)

    a, b = chain_pair(), chain_pair()
    assert a.e is not b.e
    assert a == b and hash(a) == hash(b) and a.e == b.e and hash(a.e) == hash(b.e)
    assert a != BoundPair(badd(Const(1), b.e), 1) and a != BoundPair(b.e, 2)
    text = repr(a)
    assert text.startswith("BoundPair(e=Add(left=Add(left=Const(value=1), right=Var()), right=Add(")
    assert text.endswith("))), d=1)") and text.count("Var()") == 10**4 + 1
    assert repr(badd(Const(2), Mul(Var(), Const(3)))) == "Add(left=Const(value=2), right=Mul(left=Var(), right=Const(value=3)))"
    # shared subexpressions: 2^200 paths, compared and hashed once per node
    e, f = Var(), Var()
    for _ in range(200):
        e, f = Add(e, e), Add(f, f)
    assert e == f and hash(e) == hash(f) and e != Add(e, Const(1))
