"""Proof and term evaluation against the independent program oracles."""

import gc
import random
import sys
import threading
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError

import pytest

from conftest import (
    c_program, e_program, l_program, memo_everywhere, pp_outcome, ref_env, ref_eval, ref_pp, s_program, sample_two_sorted,
)

from circsafe import interp
from circsafe.corpus import proof
from circsafe.compilealg import nb_to_circular, srec_eliminate, term_to_derivation
from circsafe.formats import parse_terms, serialize_program
from circsafe.interp import (
    Call,
    CompNormal,
    CompSafe,
    Cond,
    EvalConfig,
    EvalError,
    EvalStats,
    FuelExhausted,
    GuardViolation,
    OracleCall,
    OracleDef,
    OracleEnv,
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
    Zero,
    check_term_class,
    descent_audit,
    eval_pp,
    eval_proof,
    eval_term,
)
from circsafe.kernel import RuleKind
from circsafe.translate import MAIN, translate


def test_s_golden(proofs):
    s = proofs["S"]
    assert eval_proof(s, s.root, [0], []) == 1
    for x in range(1, 10):
        assert eval_proof(s, s.root, [x], []) == x + 1


def test_c_golden(proofs):
    c = proofs["C"]
    assert eval_proof(c, c.root, [0, 0], [5]) == 5
    # frozen from the equational program: digits of z, then y, then x
    assert eval_proof(c, c.root, [2, 3], [1]) == 30
    rng = random.Random(3)
    for _ in range(200):
        x, y, z = (rng.getrandbits(rng.randrange(9)) for _ in range(3))
        assert eval_proof(c, c.root, [x, y], [z]) == c_program(x, y, z)


def test_e_golden(proofs):
    e = proofs["E"]
    assert eval_proof(e, e.root, [1], [1]) == 4
    assert eval_proof(e, e.root, [2], [3]) == 48
    for x in range(8):
        for y in range(8):
            assert eval_proof(e, e.root, [x], [y]) == 2 ** (2 ** x.bit_length()) * y
            assert e_program(x, y) == 2 ** (2 ** x.bit_length()) * y


def test_p_l_n_golden(proofs):
    p, l, n = proofs["P"], proofs["L"], proofs["N"]
    assert eval_proof(p, p.root, [6], []) == 5
    for x in range(100):
        assert eval_proof(p, p.root, [x], []) == max(x - 1, 0)
    for x in range(20):
        for y in range(8):
            k = x.bit_length()
            assert eval_proof(l, l.root, [x], [y]) == y * 2**k + 2**k - 1
    for k in range(11):
        assert eval_proof(n, n.root, [k], []) == 2**k - 1


def test_unsafe_variants_compute_the_same_functions():
    pu, nu = proof("P_UNSAFE"), proof("N_UNSAFE")
    for x in range(60):
        assert eval_proof(pu, pu.root, [x], []) == max(x - 1, 0)
    for k in range(10):
        assert eval_proof(nu, nu.root, [k], []) == 2**k - 1


def test_i_exhausts_fuel():
    i = proof("I")
    for x in range(3):
        with pytest.raises(FuelExhausted):
            eval_proof(i, i.root, [x], [], EvalConfig(fuel=10**4, memo=False))


def test_eprime_iterates_the_doubler():
    ep = proof("EPRIME")

    def d(y):
        return 2 ** (2 ** y.bit_length())

    def oracle(x, y):
        while x:
            y = d(y)
            x >>= 1
        return y

    for x in range(4):
        for y in range(3):
            assert eval_proof(ep, ep.root, [x, y], []) == oracle(x, y)


def test_arity_mismatch_raises(proofs):
    s = proofs["S"]
    with pytest.raises(EvalError):
        eval_proof(s, s.root, [1, 2], [])
    with pytest.raises(EvalError):
        eval_proof(s, s.root, [], [1])


def test_negative_inputs_raise_eval_error_as_in_eval_pp(proofs):
    # unchecked, S at -3 would give -2, and L at (-1,), (0,) would never end, as -1 >> 1 is -1
    s, l = proofs["S"], proofs["L"]
    for g, xs, ys in ((s, [-3], []), (l, [-1], [0]), (l, [5], [-3])):
        stats = EvalStats()
        with pytest.raises(EvalError, match=f"negative input to {g.root}: values are natural numbers"):
            eval_proof(g, g.root, xs, ys, stats=stats)
        assert stats.steps == 0
        with pytest.raises(EvalError, match="negative input to main: values are natural numbers"):
            eval_pp(translate(g), MAIN, None, xs, ys)
    # eval_term checks once at entry too: unchecked, a projection would give -1 and s0 -6
    for term, xs, ys in ((Proj("s", 0), [], [-1]), (S0(Proj("n", 0)), [-3], []), (Zero(), [4], [0, -2])):
        with pytest.raises(EvalError, match="negative input: values are natural numbers"):
            eval_term(term, None, xs, ys)


def test_memo_changes_steps_not_values(proofs):
    # the boxed-cut unary converter queries each recursive value twice,
    # so memoization genuinely shortens the run
    nu = proof("N_UNSAFE")
    on, off = EvalStats(), EvalStats()
    a = eval_proof(nu, nu.root, [9], [], EvalConfig(memo=True), stats=on)
    b = eval_proof(nu, nu.root, [9], [], EvalConfig(memo=False), stats=off)
    assert a == b == 2**9 - 1
    assert on.steps < off.steps
    # memoization never changes any corpus value
    rng = random.Random(37)
    for name in ("S", "C", "E", "P", "L", "N"):
        g = proofs[name]
        seq = g.nodes[g.root].sequent
        for _ in range(20):
            xs, ys = sample_two_sorted(rng, seq.boxed, seq.plain, 7)
            assert eval_proof(g, g.root, xs, ys, EvalConfig(memo=True)) == eval_proof(
                g, g.root, xs, ys, EvalConfig(memo=False)
            )


def test_fuel_monotone(proofs):
    e = proofs["E"]
    lo = EvalConfig(fuel=3, memo=False)
    with pytest.raises(FuelExhausted):
        eval_proof(e, e.root, [6], [1], lo)
    assert eval_proof(e, e.root, [6], [1], EvalConfig(fuel=10**6, memo=False)) > 0


def test_sequent_semantics_coherence(proofs):
    """One manual unfolding of the root clause agrees with direct evaluation."""
    rng = random.Random(19)
    for name in ("S", "C", "E", "P", "L", "N"):
        g = proofs[name]
        root = g.nodes[g.root]
        seq = root.sequent
        for _ in range(25):
            xs, ys = sample_two_sorted(rng, seq.boxed, seq.plain, 6)
            got = eval_proof(g, g.root, xs, ys)
            kind = root.rule.kind
            pr = root.premises
            if kind is RuleKind.COND_B:
                x0 = xs[0]
                if x0 == 0:
                    want = eval_proof(g, pr[0], xs[1:], ys)
                elif x0 % 2 == 0:
                    want = eval_proof(g, pr[1], [x0 >> 1] + xs[1:], ys)
                else:
                    want = eval_proof(g, pr[2], [x0 >> 1] + xs[1:], ys)
            elif kind is RuleKind.CUT_N:
                v = eval_proof(g, pr[0], xs, ys)
                want = eval_proof(g, pr[1], xs, list(ys) + [v])
            elif kind is RuleKind.CUT_B:
                v = eval_proof(g, pr[0], xs, ys)
                want = eval_proof(g, pr[1], [v] + xs, ys)
            elif kind in (RuleKind.S0, RuleKind.S1):
                want = 2 * eval_proof(g, pr[0], xs, ys) + (1 if kind is RuleKind.S1 else 0)
            else:
                continue
            assert got == want, (name, xs, ys)


def test_oracle_evaluation():
    from circsafe.kernel import Node, ProofGraph, Rule, Sequent

    g = ProofGraph(
        "o",
        "r",
        {"r": Node(Rule(RuleKind.ORACLE, oracle="f"), Sequent(1, 1), ())},
    )
    env = OracleEnv([OracleDef("f", 1, 1, lambda xs, ys: xs[0] * 10 + ys[0])])
    assert eval_proof(g, "r", [3], [4], oracles=env) == 34
    with pytest.raises(EvalError):
        eval_proof(g, "r", [3], [4])


def test_term_initials():
    from circsafe.interp import Cond, Pred, Proj, Zero

    assert eval_term(Cond(Proj("s", 0), Proj("s", 1), Proj("s", 2), Proj("s", 3)), None, [], [0, 7, 8, 9]) == 7
    assert eval_term(Cond(Proj("s", 0), Proj("s", 1), Proj("s", 2), Proj("s", 3)), None, [], [2, 7, 8, 9]) == 8
    assert eval_term(Cond(Proj("s", 0), Proj("s", 1), Proj("s", 2), Proj("s", 3)), None, [], [3, 7, 8, 9]) == 9
    assert eval_term(Pred(Proj("s", 0)), None, [], [5]) == 2
    assert eval_term(Zero(), None, [], []) == 0


def test_term_corpus_oracles(terms):
    rng = random.Random(23)
    closed = {
        "succ1": lambda xs, ys: 2 * ys[0] + 1,
        "half": lambda xs, ys: ys[0] >> 1,
        "append": lambda xs, ys: ys[0] * 2 ** xs[0].bit_length() + xs[0],
        "lenones": lambda xs, ys: ys[0] * 2 ** xs[0].bit_length() + 2 ** xs[0].bit_length() - 1,
        "parity": lambda xs, ys: xs[0] & 1,
        "lenunary": lambda xs, ys: 2 ** xs[0].bit_length() - 1,
        "ex": lambda xs, ys: 2 ** (2 ** xs[0].bit_length()) * ys[0],
        "padones": lambda xs, ys: ys[0] * 2 ** (2 ** xs[0].bit_length()) + 2 ** (2 ** xs[0].bit_length()) - 1,
        "exquad": lambda xs, ys: 4 ** (2 ** xs[0].bit_length()) * ys[0],
    }
    for name, fn in closed.items():
        td = terms[name]
        for _ in range(60):
            xs, ys = sample_two_sorted(rng, td.normals, td.safes, 8)
            assert eval_term(td.body, None, xs, ys) == fn(xs, ys), name


def test_snrec_example(terms):
    assert eval_term(terms["ex"].body, None, [2], [3]) == 48


def test_agreement_with_compiled_derivations(terms):
    from circsafe.compilealg import term_to_derivation

    rng = random.Random(29)
    for name in ("succ1", "half", "select", "append", "lenones", "parity", "lenunary"):
        td = terms[name]
        d = term_to_derivation(td)
        for _ in range(100):
            xs, ys = sample_two_sorted(rng, td.normals, td.safes, 10)
            assert eval_term(td.body, None, xs, ys) == eval_proof(d, d.root, xs, ys), name


def test_empirical_totality_of_accepted_proofs(proofs):
    """Accepted proofs finish well within the default budget."""
    rng = random.Random(31)
    cfg = EvalConfig(fuel=10**6)
    for name in ("S", "C", "E", "P", "L", "N"):
        g = proofs[name]
        seq = g.nodes[g.root].sequent
        for _ in range(60):
            xs, ys = sample_two_sorted(rng, seq.boxed, seq.plain, 12, 12)
            if sum(x.bit_length() for x in xs) > 12:
                continue
            eval_proof(g, g.root, xs, ys, cfg)  # must not raise


# ---------------------------------------------------------------------------
# The compiled term and program evaluator against the reference evaluator


def test_eval_term_matches_reference_on_corpus(terms):
    rng = random.Random(41)
    for name, td in terms.items():
        for _ in range(40):
            xs, ys = sample_two_sorted(rng, td.normals, td.safes, 7)
            want = ref_eval(td.body, tuple(xs), tuple(ys), ref_env())
            assert eval_term(td.body, None, xs, ys) == want, (name, xs, ys)


def test_eval_term_matches_reference_on_random_terms():
    from test_fuzz import random_b_term, random_nb_step

    rng = random.Random(43)
    for trial in range(150):
        m, n = rng.randrange(1, 3), rng.randrange(0, 3)
        if trial % 2:
            term = random_b_term(rng, m, n, 4, [2])
        else:
            n = max(n, 1)
            term = SNRec(random_b_term(rng, m - 1, n, 2, [0]), random_nb_step(rng, m, n, 3, [3], n))
        for _ in range(10):
            xs, ys = sample_two_sorted(rng, m, n, 6)
            want = ref_eval(term, tuple(xs), tuple(ys), ref_env())
            assert eval_term(term, None, xs, ys) == want, (trial, xs, ys)


def test_eval_pp_matches_reference_on_translated_corpus(proofs, terms):
    progs = {name: translate(proofs[name]) for name in ("S", "C", "E", "P", "L", "N")}
    for name in ("succ1", "half", "select", "append", "lenones", "parity", "lenunary"):
        progs[name] = translate(srec_eliminate(term_to_derivation(terms[name])))
    for name in ("ex", "padones", "exquad", "cdr", "twoloops"):
        progs[name] = translate(nb_to_circular(terms[name]))
    rng = random.Random(47)
    for name, prog in progs.items():
        main = prog.functions[MAIN]
        for _ in range(15):
            xs, ys = sample_two_sorted(rng, main.normals, main.safes, 6)
            for strict in (False, True):
                cfg = EvalConfig(guard_mode="strict" if strict else "zero")
                want = ref_pp(prog, MAIN, xs, ys, strict=strict)
                assert eval_pp(prog, MAIN, None, xs, ys, cfg) == want, (name, xs, ys, strict)


def _host(name, normals, safes, fn):
    return OracleEnv([OracleDef(name, normals, safes, fn)])


def test_inner_rec_shadows_outer():
    y0, y1 = Proj("s", 0), Proj("s", 1)
    # the inner snrec, over one more safe, rebinds rec: its step recurses
    # on itself with two safes (the outer rec takes one)
    inner = SNRec(y1, S0(OracleCall("rec", (), (y0, y1))))
    shadowed = SNRec(S1(y0), CompSafe(inner, S0(y0)))
    # under another name the outer rec stays reachable from the inner step
    reaching = SNRec(S1(y0), SNRec(y0, S0(OracleCall("rec", (), (y0,))), "r"))
    for x in range(12):
        for y in range(4):
            want = 2 * y + 1 if x == 0 else y * 2 ** ((x >> 1).bit_length() + 1)
            assert eval_term(shadowed, None, [x], [y]) == want == ref_eval(shadowed, (x,), (y,), ref_env())
            assert eval_term(reaching, None, [x], [y]) == ref_eval(reaching, (x,), (y,), ref_env())
    assert eval_term(reaching, None, [2], [3]) == 6  # 2 * f(1; 3) = 2 * 3


def test_recursion_guards_return_zero_below_no_descent():
    x0, y0 = Proj("n", 0), Proj("s", 0)
    # rec at half the normal and twice the safe: the normals descend, the
    # safe is no prefix of the old one
    step = lambda rec: Cond(x0, y0, OracleCall(rec, (Pred(x0),), (S0(y0),)), OracleCall(rec, (Pred(x0),), (S0(y0),)))
    normals_only = (SNRecPP(step("rec")), SimRecPP((step("rec1"),), 0, False))
    both = (SRecPP(step("rec")), SimRecPP((step("rec1"),), 0, True))
    # rec at the same normal never descends
    stuck = (SNRecPP(S1(OracleCall("rec", (x0,), (y0,)))), SimRecPP((S1(OracleCall("rec1", (x0,), (y0,))),), 0, False))
    for x in range(1, 9):
        for y in range(1, 4):
            for term in normals_only:
                assert eval_term(term, None, [x], [y]) == y * 2 ** x.bit_length()
            for term in both:
                assert eval_term(term, None, [x], [y]) == 0
            for term in stuck:
                assert eval_term(term, None, [x], [y]) == 1
            for term in normals_only + both + stuck:
                assert eval_term(term, None, [x], [y]) == ref_eval(term, (x,), (y,), ref_env())


def test_guarded_program_calls_compare_with_the_callers_frame():
    x0, y0 = Proj("n", 0), Proj("s", 0)

    def prog(guard):
        call = Call("main", (Pred(x0),), (S0(y0),), guard=guard)
        return PPProgram({"main": PPFunction("main", 1, 1, Cond(x0, y0, call, call))})

    strict = EvalConfig(guard_mode="strict")
    assert eval_pp(prog("strict"), "main", None, [5], [3], strict) == 3 * 2**3
    assert eval_pp(prog("strict_safe"), "main", None, [5], [3]) == 0
    with pytest.raises(GuardViolation) as e:
        eval_pp(prog("strict_safe"), "main", None, [5], [3], strict)
    assert str(e.value) == "guarded call to main with normals (2,) against frame (5,)"


def test_program_stats_and_fuel_count_memo_hits(proofs):
    # the unary converter's translation asks for some values twice
    prog = translate(proofs["N"])
    for memo, steps in ((True, 24), (False, 32)):
        stats = EvalStats()
        assert eval_pp(prog, MAIN, None, [9], [], EvalConfig(memo=memo), stats) == 511
        assert (stats.steps, stats.memo_keys, stats.max_depth) == (steps, 24 if memo else 0, 6)
        # every call costs fuel, a memo hit included
        assert eval_pp(prog, MAIN, None, [9], [], EvalConfig(fuel=32, memo=memo)) == 511
        stats = EvalStats()
        with pytest.raises(FuelExhausted):
            eval_pp(prog, MAIN, None, [9], [], EvalConfig(fuel=31, memo=memo), stats)
        # memo_keys counts the keys begun, those of the calls still open included
        assert (stats.steps, stats.memo_keys) == (24 if memo else 31, 24 if memo else 0)


def test_free_rec_resolves_to_host_oracle():
    y0 = Proj("s", 0)
    env = _host("rec", 0, 1, lambda us, vs: vs[0] + 5)
    assert eval_term(OracleCall("rec", (), (y0,)), env, [], [4]) == 9
    # inside a scheme bound to another name, rec is still the host's
    term = SNRec(y0, OracleCall("rec", (), (OracleCall("r", (), (y0,)),)), "r")
    assert eval_term(term, env, [1], [4]) == 9
    assert eval_term(term, env, [3], [4]) == 14
    with pytest.raises(EvalError, match="unknown oracle 'rec'"):
        eval_term(term, None, [1], [4])


def test_bad_projection_raises_only_when_reached():
    term = Cond(Proj("s", 0), Proj("s", 1), Proj("n", 5), Proj("s", 1))
    assert eval_term(term, None, [], [0, 7]) == 7
    assert eval_term(term, None, [], [1, 7]) == 7
    with pytest.raises(EvalError, match="projection n5 out of range"):
        eval_term(term, None, [], [2, 7])


def test_arity_mismatches_raise_eval_error():
    y0 = Proj("s", 0)
    env = _host("f", 0, 1, lambda us, vs: vs[0])
    with pytest.raises(EvalError, match="oracle 'f' arity mismatch"):
        eval_term(OracleCall("f", (), (y0, y0)), env, [], [3])
    with pytest.raises(EvalError, match="oracle 'f' arity mismatch"):
        eval_term(OracleCall("f", (y0,), (y0,)), env, [], [3])
    # a recursive call with the wrong arity fails where it is reached
    bad = SNRec(y0, Cond(Proj("n", 0), y0, OracleCall("rec", (), (y0, y0)), y0))
    assert eval_term(bad, None, [3], [5]) == 5
    with pytest.raises(EvalError, match="oracle 'rec' arity mismatch"):
        eval_term(bad, None, [4], [5])


def test_recursion_on_notation_needs_a_nonnegative_normal():
    y0 = Proj("s", 0)
    for term in (SRecN(y0, y0, y0), SNRec(y0, y0)):
        with pytest.raises(EvalError, match="needs a normal argument"):
            eval_term(term, None, [], [1])
    # both schemes refuse a negative recursion argument, in a term and in
    # a program body; -1 >> 1 stays -1, so snrec would never reach 0
    for term in (SRecN(y0, y0, y0), SNRec(y0, OracleCall("rec", (), (S1(y0),)))):
        prog = PPProgram({"main": PPFunction("main", 1, 1, term)})
        for x in (-1, -3):
            with pytest.raises(EvalError, match="negative"):
                eval_term(term, None, [x], [1])
            with pytest.raises(EvalError, match="negative"):
                eval_pp(prog, "main", None, [x], [1])


def test_srec_order_of_host_oracle_calls_is_unchanged():
    seen = []
    env = [OracleDef("f", 0, 1, lambda us, vs: seen.append(vs[0]) or vs[0] + 1)]
    y0, y1 = Proj("s", 0), Proj("s", 1)
    call = lambda t: OracleCall("f", (), (t,))
    term = SRecN(call(y0), call(S0(y1)), call(S1(y1)))
    for x in (0, 1, 6, 13):
        seen.clear()
        got = eval_term(term, OracleEnv(env), [x], [2])
        calls, seen[:] = list(seen), []
        assert got == ref_eval(term, (x,), (2,), ref_env(env)) and calls == seen, x


def test_snrec_matches_reference_on_recursive_call_shapes():
    # steps with several rec calls, rec calls as arguments, safes passed
    # through, reordered or edited, at 1-3 safes and 1-2 normals, calls
    # under a normal composition, renamed and shadowed recursion names,
    # and a host oracle in the arguments, whose calls keep their order
    x0, x1, x2 = (Proj("n", i) for i in range(3))
    y0, y1, y2 = (Proj("s", j) for j in range(3))
    rec = lambda *safes, name="rec": OracleCall(name, (), safes)
    f = lambda t: OracleCall("f", (), (t,))
    seen = []
    env = [OracleDef("f", 0, 1, lambda us, vs: seen.append(vs[0]) or vs[0] + 1)]
    cases = [  # (term, normals, safes)
        (SNRec(S1(y0), CompSafe(rec(y1), rec(S1(y0)))), 1, 1),
        (SNRec(y0, Cond(x0, rec(S0(S1(y0))), rec(Pred(y0)), S1(rec(rec(y0))))), 1, 1),
        (SNRec(f(y0), rec(f(S1(y0)))), 1, 1),
        (SNRec(S0(y1), rec(y0, rec(y0, y1))), 1, 2),
        (SNRec(y0, rec(y1, rec(y1, y0))), 1, 2),
        (SNRec(S0(y1), rec(rec(y0, S1(y1)), y0)), 1, 2),
        (SNRec(S1(y1), CompSafe(Cond(y2, S0(y0), S1(rec(y0, y1)), S0(rec(y1, y2))), x0)), 1, 2),
        (SNRec(f(y1), rec(f(y1), f(rec(y0, f(y0))))), 1, 2),
        (SNRec(S1(y2), rec(y2, S0(y0), rec(y1, y2, y0))), 2, 3),
        (SNRec(S1(x0), CompNormal(Cond(x2, rec(S0(y0)), rec(x1), S1(rec(y0))), S1(x0))), 2, 1),
        # inner schemes: the outer rec under another name, then shadowed
        (SNRec(S0(y0), SNRec(S1(y0), CompSafe(rec(y1, name="r"), rec(S0(y0)))), "r"), 2, 1),
        (SNRec(S1(x0), SNRec(y0, S0(rec(rec(y0, name="r"), name="r")), "r"), "r"), 2, 1),
        (SNRec(S1(y0), SNRec(f(y0), rec(f(rec(y0))))), 1, 1),
    ]
    rng = random.Random(59)
    for term, m, n in cases:
        for trial in range(25):
            xs, ys = sample_two_sorted(rng, m, n, 5, 4)
            if trial == 0:
                xs = [0] * m
            seen.clear()
            got = eval_term(term, OracleEnv(env), xs, ys)
            calls, seen[:] = list(seen), []
            assert got == ref_eval(term, tuple(xs), tuple(ys), ref_env(env)) and calls == seen, (term, xs, ys)


def test_snrec_with_program_calls_in_its_step_matches_reference():
    # the step calls g, guarded or not, on the recursion value; g
    # recurses on its normal through the program machine
    x0, y0 = Proj("n", 0), Proj("s", 0)
    g = PPFunction("g", 1, 1, Cond(x0, S1(y0), S0(Call("g", (Pred(x0),), (y0,), "strict")), y0))
    for guard in (None, "strict", "strict_safe"):
        step = Call("g", (x0,), (OracleCall("rec", (), (S0(y0),)),), guard)
        prog = PPProgram({"main": PPFunction("main", 1, 1, SNRec(S1(y0), step)), "g": g})
        for x in range(20):
            for strict in (False, True):
                try:
                    want = ref_pp(prog, "main", [x], [3], strict=strict)
                except GuardViolation:
                    want = GuardViolation
                cfg = EvalConfig(guard_mode="strict" if strict else "zero")
                assert pp_outcome(prog, "main", None, [x], [3], cfg)[0] == want, (guard, x, strict)


def test_snrec_builds_only_the_levels_its_calls_reach():
    # the step never recurses: one level is built, one shift of x made,
    # where all 10^4 levels would hold some 8 MB of shifted arguments
    y0 = Proj("s", 0)
    term = SNRec(y0, S1(y0))
    x = random.Random(67).getrandbits(10**4) | 1 << (10**4 - 1)
    assert eval_term(term, None, [1], [5]) == 11  # compiled before tracing
    tracemalloc.start()
    try:
        assert eval_term(term, None, [x], [5]) == 11
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6, peak


def test_long_srec_inputs_under_the_default_recursion_limit(terms):
    limit = sys.getrecursionlimit()
    x = random.Random(53).getrandbits(10**4) | 1 << (10**4 - 1)
    assert eval_term(terms["append"].body, None, [x], [5]) == 5 * 2**10**4 + x
    assert eval_term(terms["lenones"].body, None, [x], [5]) == 6 * 2**10**4 - 1
    assert sys.getrecursionlimit() == limit


def test_program_calls_see_no_recursion_names_of_their_caller():
    # main recurses with snrec and calls g inside its step; g's body
    # names rec, which only main binds.  Scoping is lexical: g's rec is
    # the host's, or unknown.
    y0 = Proj("s", 0)
    main = PPFunction("main", 1, 1, SNRec(y0, Call("g", (), (y0,))))
    g = PPFunction("g", 0, 1, OracleCall("rec", (), (S1(y0),)))
    prog = PPProgram({"main": main, "g": g})
    assert eval_pp(prog, "main", None, [0], [3]) == 3
    with pytest.raises(EvalError, match="unknown oracle 'rec'"):
        eval_pp(prog, "main", None, [1], [3])
    host = [OracleDef("rec", 0, 1, lambda us, vs: 100 + vs[0])]
    assert eval_pp(prog, "main", OracleEnv(host), [1], [3]) == 107 == ref_pp(prog, "main", [1], [3], host)


def _deep(f, *args):
    """``f(*args)`` for a recursive oracle: in a thread with a large stack,
    with the recursion limit raised only while it runs."""
    out, limit, size = [], sys.getrecursionlimit(), threading.stack_size(256 * 2**20)
    sys.setrecursionlimit(10**5)
    try:
        worker = threading.Thread(target=lambda: out.append(f(*args)))
        worker.start()
        worker.join()
    finally:
        sys.setrecursionlimit(limit)
        threading.stack_size(size)
    (value,) = out
    return value


def test_eval_pp_program_calls_need_no_python_stack(proofs):
    """Translated S, C and L at 10^4-bit all-ones inputs nest one
    program call per input bit (two for C), under the default
    recursion limit."""
    x = 2**10**4 - 1
    cases = {
        "S": ([x], [], lambda: s_program(x)),
        "C": ([x, x], [x], lambda: c_program(x, x, x)),
        "L": ([x], [x], lambda: l_program(x, x)),
    }
    want = {name: _deep(oracle) for name, (_, _, oracle) in cases.items()}
    limit = sys.getrecursionlimit()
    assert limit <= 1000
    for name, (xs, ys, _) in cases.items():
        prog, stats = translate(proofs[name]), EvalStats()
        assert eval_pp(prog, MAIN, None, xs, ys, EvalConfig(guard_mode="strict"), stats) == want[name], name
        assert stats.max_depth > 10**4 and stats.steps == stats.memo_keys == stats.max_depth, name
    assert sys.getrecursionlimit() == limit


def test_eval_proof_successor_runs_at_10k_bits(proofs):
    """C and L write one digit per successor step; at 10^4-bit inputs,
    all-ones and random, the long runs of successors return the closed
    forms.  C(x, y; z) is z's digits, then y's, then x's; L(x; y) is y
    followed by |x| ones.  Neither proof hits its memo, so the memo keys
    equal the steps."""
    rng, n = random.Random(61), 10**4
    for kind in ("ones", "random"):
        value = (lambda: 2**n - 1) if kind == "ones" else (lambda: rng.getrandbits(n) | 1 << (n - 1))
        x, y, z = value(), value(), value()
        lx, ly = x.bit_length(), y.bit_length()
        cases = {
            "C": ([x, y], [z], (z << ly | y) << lx | x, 2 * (lx + ly) + 3),
            "L": ([x], [y], y << lx | (1 << lx) - 1, 7 * lx + 2),
        }
        for name, (xs, ys, want, steps) in cases.items():
            g, stats = proofs[name], EvalStats()
            assert eval_proof(g, g.root, xs, ys, None, None, stats) == want, (name, kind)
            assert stats.steps == stats.memo_keys == steps, (name, kind)


def test_calls_inside_recursion_schemes_reenter_the_program_machine():
    # translate never emits them; a hand-written program may.  The call
    # to g inside srec's steps runs the machine again from the loop, and
    # g's own calls (a chain as deep as its input) still use no Python
    # frames.  Fuel, memo and statistics are the run's.
    x0, x1, y0 = Proj("n", 0), Proj("n", 1), Proj("s", 0)
    # g(x; y) = y * 2**|x| + x, one call per bit of x
    shift = Call("g", (Pred(x0),), (y0,), "strict")
    step = Call("g", (x1,), (y0,))  # main(x, w): w, then g(w; .) once per bit of x
    prog = PPProgram({
        "main": PPFunction("main", 2, 0, SRecN(x0, step, step)),
        "g": PPFunction("g", 1, 1, Cond(x0, y0, S0(shift), S1(shift))),
    })
    for xs in ([0, 5], [6, 1], [13, 2], [2, 3]):
        assert eval_pp(prog, "main", None, xs, []) == ref_pp(prog, "main", xs, []), xs
    x = 2**3000 - 1
    stats = EvalStats()
    assert eval_pp(prog, "main", None, [3, x], [], None, stats) == ((x << 3000) + x << 3000) + x
    assert stats.max_depth == 3002 and stats.steps == 1 + 2 * 3001
    with pytest.raises(FuelExhausted):
        eval_pp(prog, "main", None, [3, x], [], EvalConfig(fuel=stats.steps - 1))
    # an srec may run a call in its steps twice, so calls of g keep memo
    # entries and main's do not; a memo entry for every call changes
    # nothing, with the call in both steps or in one
    one_step = PPProgram({**prog.functions, "main": PPFunction("main", 2, 0, SRecN(x0, step, y0))})
    for p in (prog, one_step):
        everywhere = memo_everywhere(p)
        for xs in ([0, 5], [6, 1], [13, 2], [16, 0], [3, x]):  # g(0; 0) repeats
            for fuel in (10**6, 9, 3):
                cfg = EvalConfig(fuel=fuel)
                assert pp_outcome(p, "main", None, xs, [], cfg) == pp_outcome(everywhere, "main", None, xs, [], cfg)
        assert interp._program_code(p).keep == {"g"}


def test_bad_program_calls_raise_after_their_arguments_and_guard():
    # a call site runs its arguments, then its guard, and only then
    # reports an unknown callee or a wrong arity, whether it is on the
    # path from the body or inside a recursion scheme
    x0, y0 = Proj("n", 0), Proj("s", 0)
    nope = OracleCall("nope", (), ())
    for callee, msg in (("main", "main expects \\(1;0\\) arguments"), ("gone", "unknown function 'gone'")):
        for arg, below in ((nope, None), (S1(S1(x0)), False), (Pred(x0), True)):
            call = Call(callee, (arg,), (x0,), "strict")  # one safe too many for main
            for body in (S0(call), SRecN(Zero(), S1(y0), call)):
                prog = PPProgram({"main": PPFunction("main", 1, 0, body)})
                for mode in ("zero", "strict"):
                    run = lambda: eval_pp(prog, "main", None, [3], [], EvalConfig(guard_mode=mode))  # noqa: E731
                    if below is None:
                        with pytest.raises(EvalError, match="unknown oracle 'nope'"):
                            run()
                    elif below:
                        with pytest.raises(EvalError, match=msg):
                            run()
                    elif mode == "strict":
                        with pytest.raises(GuardViolation):
                            run()
                    else:
                        assert run() == 0, (callee, body)
    with pytest.raises(EvalError, match="main expects \\(1;0\\) arguments"):
        eval_pp(prog, "main", None, [3], [1])


def test_guarded_calls_at_other_argument_counts_fail_their_guard():
    # each guard compares tuples of other lengths than its caller's: two
    # normals against one and back, two normals inside an srec's step,
    # and a strict_safe call with one safe against two; the guard fails
    # before the arity check of the srec's call to main
    x0 = Proj("n", 0)
    mutual, safes = (
        parse_terms(text).programs["p"]
        for text in (
            "program p guard strict\n"
            "fn main(1;0) = cond(x0,0,@g(p(x0),p(x0);),@g(p(x0),p(x0);))\n"
            "fn g(2;0) = cond(x0,0,@main(p(x0);),@main(p(x0);))\n",
            "program p guard strictsafe\n"
            "fn main(1;2) = cond(x0,y0,@g(p(x0);y1),@g(p(x0);y1))\n"
            "fn g(1;1) = cond(x0,y0,@main(p(x0);y0,y0),@main(p(x0);y0,y0))\n",
        )
    )
    step = S1(Call("main", (Pred(x0), x0), (), "strict"))
    srec = PPProgram({"main": PPFunction("main", 1, 0, SRecN(Zero(), step, S1(Proj("s", 0))))})
    for prog, xs, ys, want, text in (
        (mutual, [3], [], 0, "guarded call to g with normals (1, 1) against frame (3,)"),
        (srec, [2], [], 1, "guarded call to main with normals (0, 1) against frame (2,)"),
        (safes, [3], [5, 6], 0, "guarded call to g with normals (1,) against frame (3,)"),
    ):
        assert eval_pp(prog, "main", None, xs, ys) == ref_pp(prog, "main", xs, ys) == want
        with pytest.raises(GuardViolation) as e:
            eval_pp(prog, "main", None, xs, ys, EvalConfig(guard_mode="strict"))
        assert str(e.value) == text
        with pytest.raises(GuardViolation):
            ref_pp(prog, "main", xs, ys, strict=True)


def _counting_compiles(monkeypatch) -> list:
    """Names of the function bodies ``eval_pp`` compiles from now on."""
    compiled, real = [], interp._ProgramCode._body
    monkeypatch.setattr(interp._ProgramCode, "_body", lambda code, name: compiled.append(name) or real(code, name))
    return compiled


def test_eval_pp_compiles_each_program_once(proofs, monkeypatch):
    compiled = _counting_compiles(monkeypatch)
    prog = translate(proofs["C"])
    strict = EvalConfig(guard_mode="strict")
    assert eval_pp(prog, MAIN, None, [5, 6], [7]) == c_program(5, 6, 7)
    assert sorted(compiled) == ["f0", "f1", "main"]
    # the next runs, at other inputs and either memo setting, compile nothing
    compiled.clear()
    assert eval_pp(prog, MAIN, None, [13, 2], [9], EvalConfig(memo=False)) == c_program(13, 2, 9)
    assert eval_pp(prog, MAIN, None, [0, 0], [0]) == c_program(0, 0, 0)
    assert compiled == []
    # the other guard mode runs the same code
    assert eval_pp(prog, MAIN, None, [5, 6], [7], strict) == c_program(5, 6, 7)
    assert compiled == []
    assert eval_pp(prog, MAIN, None, [6, 5], [1], strict) == c_program(6, 5, 1)
    assert eval_pp(prog, MAIN, None, [6, 5], [1]) == c_program(6, 5, 1)
    assert compiled == []
    # the program cannot change; one rebuilt with a replaced function
    # compiles afresh, every body that calls it too
    x0, y0 = Proj("n", 0), Proj("s", 0)
    with pytest.raises(TypeError):
        prog.functions["f1"] = PPFunction("f1", 2, 1, S1(S1(y0)))
    with pytest.raises(FrozenInstanceError):
        prog.functions = {}
    changed = PPProgram({**prog.functions, "f1": PPFunction("f1", 2, 1, S1(S1(y0)))}, prog.guard)
    assert eval_pp(changed, MAIN, None, [2, 6], [7]) == ref_pp(changed, MAIN, [2, 6], [7]) == 126
    assert sorted(compiled) == ["f0", "f1", "main"]
    # so does one rebuilt from the same functions, or with a function
    # added, even one no body calls; the first program keeps its code
    for rebuilt in (PPProgram(changed.functions, changed.guard),
                    PPProgram({**changed.functions, "g": PPFunction("g", 1, 0, S0(x0))}, changed.guard)):
        compiled.clear()
        assert eval_pp(rebuilt, MAIN, None, [2, 6], [7]) == 126
        assert sorted(compiled) == ["f0", "f1", "main"]
    compiled.clear()
    assert eval_pp(rebuilt, "g", None, [3], []) == 6 and compiled == ["g"]
    compiled.clear()
    assert eval_pp(prog, MAIN, None, [2, 6], [7]) == c_program(2, 6, 7) and compiled == []


def test_both_guard_modes_and_the_audit_walk_each_body_once(proofs, monkeypatch):
    """Runs in both guard modes, descent_audit, validate, call_graph and
    the class check all read one walk of each body, on a translated
    program and on one parsed from text alike; translate walks none."""
    compiled, walked, real = _counting_compiles(monkeypatch), [], interp._walk
    monkeypatch.setattr(interp, "_walk", lambda fn: walked.append(fn.name) or real(fn))
    translated = translate(proofs["C"])
    assert walked == []
    parsed = parse_terms(serialize_program(translated, "c")).programs["c"]
    assert sorted(walked) == ["f0", "f1", "main"]  # parse_terms validates
    for prog in (parsed, translated):
        walked.clear()
        compiled.clear()
        for mode in ("zero", "strict"):
            assert eval_pp(prog, MAIN, None, [5, 6], [7], EvalConfig(guard_mode=mode)) == c_program(5, 6, 7)
        assert descent_audit(prog) == []
        prog.validate()
        assert prog.call_graph() == {"f0": ("f0", "f1"), "f1": ("f1",), "main": ("f0",)}
        assert check_term_class(prog, "Bpp") == []
        assert sorted(walked) == ([] if prog is parsed else ["f0", "f1", "main"])
        assert sorted(compiled) == ["f0", "f1", "main"]


def test_kept_code_still_checks_call_sites_when_reached(monkeypatch):
    compiled = _counting_compiles(monkeypatch)
    x0, y0 = Proj("n", 0), Proj("s", 0)
    # main calls g with one safe too many, in the branch of even nonzero x
    call = Call("g", (Pred(x0),), (y0, y0))
    prog = PPProgram({
        "main": PPFunction("main", 1, 1, Cond(x0, y0, call, S1(y0))),
        "g": PPFunction("g", 1, 1, S0(y0)),
    })
    for _ in range(2):
        assert eval_pp(prog, "main", None, [3], [5]) == 11
        assert eval_pp(prog, "main", None, [0], [5]) == 5
        with pytest.raises(EvalError, match="g expects \\(1;1\\) arguments"):
            eval_pp(prog, "main", None, [4], [5])
    assert compiled == ["main"]
    # a program rebuilt with g of the arity the call site uses compiles
    # its own code
    fixed = PPProgram({**prog.functions, "g": PPFunction("g", 1, 2, S0(Proj("s", 1)))})
    assert eval_pp(fixed, "main", None, [4], [5]) == 10
    assert compiled == ["main", "main", "g"]
    with pytest.raises(EvalError, match="g expects \\(1;1\\) arguments"):
        eval_pp(prog, "main", None, [4], [5])
    assert compiled == ["main", "main", "g"]


def test_a_run_keeps_no_state_after_it_ends(proofs, monkeypatch):
    """After eval_pp returns or raises, nothing holds its run (and so its
    memo and frame stack) but what the raised exception still holds; the
    next run on the same program is a fresh copy's run."""
    runs = []

    class Tracked(interp._Run):
        __slots__ = ("__weakref__",)

        def __init__(self, *args):
            super().__init__(*args)
            runs.append(weakref.ref(self))

    monkeypatch.setattr(interp, "_Run", Tracked)
    x0, y0 = Proj("n", 0), Proj("s", 0)
    # f halves even inputs and calls itself at unchanged odd ones: a guard
    # violation four calls deep at 8, a 0 there in the zero mode
    loop = PPProgram({"f": PPFunction("f", 1, 0, Cond(x0, Zero(), S0(Call("f", (Pred(x0),), (), "strict")),
                                                     S1(Call("f", (x0,), (), "strict"))))})
    s = translate(proofs["S"])
    ones = 2**200 - 1
    cases = [
        (s, MAIN, [ones], EvalConfig(), None),
        (s, MAIN, [ones], EvalConfig(fuel=100), FuelExhausted),
        (s, MAIN, [ones], EvalConfig(fuel=100, memo=False), FuelExhausted),
        (loop, "f", [8], EvalConfig(guard_mode="strict"), GuardViolation),
        (loop, "f", [8], EvalConfig(), None),
    ]
    enabled = gc.isenabled()
    gc.disable()  # reference counts alone must free the run
    try:
        for prog, name, xs, cfg, error in cases:
            for target in (prog, PPProgram(dict(prog.functions), prog.guard)):  # kept code, then a fresh copy
                stats = EvalStats()
                try:
                    got = eval_pp(target, name, None, xs, [], cfg, stats)
                except (FuelExhausted, GuardViolation) as exc:
                    got = type(exc)
                assert got == (error or got) and got is not None, (name, cfg)
                if target is prog:
                    want = (got, stats)
                else:
                    assert (got, stats) == want, (name, cfg)
                assert runs and all(ref() is None for ref in runs), (name, cfg)
    finally:
        if enabled:
            gc.enable()
    assert eval_pp(loop, "f", None, [8], []) == 8  # f(1) = s1(0)


def test_a_host_oracle_may_run_the_same_program_again():
    # main(x; y) = y << |x| | x: even bits by guarded calls, an odd one
    # by the host oracle h, which runs main again on the same program
    x0, y0 = Proj("n", 0), Proj("s", 0)
    body = Cond(x0, y0, S0(Call("main", (Pred(x0),), (y0,), "strict")), S1(OracleCall("h", (Pred(x0),), (y0,))))
    prog = PPProgram({"main": PPFunction("main", 1, 1, body)})
    inner: list[EvalStats] = []

    def again(us, vs):
        inner.append(EvalStats())
        return eval_pp(prog, "main", nested, us, vs, None, inner[-1])

    nested = OracleEnv([OracleDef("h", 1, 1, again)])
    plain = OracleEnv([OracleDef("h", 1, 1, lambda us, vs: vs[0] << us[0].bit_length() | us[0])])
    for x in (0, 1, 4, 0b1011000, 2**40 - 1, 0b101 << 30):
        got, alone = EvalStats(), EvalStats()
        inner.clear()
        assert eval_pp(prog, "main", nested, [x], [3], None, got) == 3 << x.bit_length() | x
        assert eval_pp(prog, "main", plain, [x], [3], None, alone) == 3 << x.bit_length() | x
        assert got == alone, x
        # each inner run counts its own calls, as a run of its own would
        for stats in inner:
            assert stats.steps == stats.memo_keys == stats.max_depth >= 1


def test_kept_code_does_not_outlive_its_program(proofs):
    """eval_pp on 500 freshly parsed copies of one program leaves the
    traced memory where it was after the first 50."""
    text = serialize_program(translate(proofs["C"]), "c")
    tracemalloc.start()
    try:
        for i in range(500):
            prog = parse_terms(text).programs["c"]
            assert eval_pp(prog, MAIN, None, [i, 5], [3]) == c_program(i, 5, 3)
            if i == 49:
                gc.collect()
                start = tracemalloc.get_traced_memory()[0]
        del prog
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    # one kept copy of C's code and bodies takes some 30 KB; 450 would take megabytes
    assert grown < 20_000, grown
