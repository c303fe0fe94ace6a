"""The soundness-direction translation and its guard discipline."""

import random

import pytest

from conftest import chain_graph, loop_graph, nest_graph, ref_calls, sample_two_sorted

from circsafe.checker import classify

from circsafe.compilealg import nb_to_circular, srec_eliminate, term_to_derivation
from circsafe.formats import parse_terms
from circsafe.interp import (
    Call,
    EvalConfig,
    EvalStats,
    GuardViolation,
    PPFunction,
    PPProgram,
    Proj,
    Zero,
    check_term_class,
    eval_pp,
    eval_proof,
)
from circsafe.kernel import length
from circsafe.transform import cycle_normal_form
from circsafe.translate import MAIN, TranslateError, translate

STRICT = EvalConfig(guard_mode="strict")


def test_translate_s_strict_everywhere(proofs):
    prog = translate(proofs["S"])
    assert prog.guard == "strict_safe"
    for x in range(1025):
        assert eval_pp(prog, MAIN, None, [x], [], STRICT) == x + 1


def test_translate_c_two_functions(proofs):
    prog = translate(proofs["C"])
    assert len([f for f in prog.functions if f != MAIN]) == 2


def test_translate_e_is_nested_class(proofs):
    prog = translate(proofs["E"])
    assert prog.guard == "strict"
    for x in range(5):
        for y in range(16):
            assert eval_pp(prog, MAIN, None, [x], [y], STRICT) == 2 ** (2 ** x.bit_length()) * y
    assert check_term_class(prog, "NBpp") == []


def test_translation_soundness_on_corpus(proofs):
    rng = random.Random(67)
    for name in ("S", "C", "E", "P", "L", "N"):
        g = proofs[name]
        prog = translate(g)
        seq = g.nodes[g.root].sequent
        for _ in range(100):
            xs, ys = sample_two_sorted(rng, seq.boxed, seq.plain, 10)
            want = eval_proof(g, g.root, xs, ys)
            got = eval_pp(prog, MAIN, None, xs, ys, STRICT)  # raises on any fallback
            assert got == want, (name, xs, ys)


def test_class_preservation(proofs):
    for name in ("S", "C", "P", "L"):
        assert check_term_class(translate(proofs[name]), "Bpp") == [], name
    for name in ("E", "N"):
        assert check_term_class(translate(proofs[name]), "NBpp") == [], name


def test_rejects_unaccepted_inputs(proofs):
    for name in ("I", "EPRIME"):
        with pytest.raises(TranslateError):
            translate(proofs[name])


def test_acyclic_inputs_give_guard_free_programs(terms):
    d = srec_eliminate(term_to_derivation(terms["select"]))
    prog = translate(d)
    assert list(prog.functions) == [MAIN]

    def guards(t):
        out = []
        stack = [t]
        while stack:
            s = stack.pop()
            if isinstance(s, Call) and s.guard is not None:
                out.append(s)
            for f in getattr(s, "__dataclass_fields__", {}):
                v = getattr(s, f)
                if hasattr(v, "__dataclass_fields__"):
                    stack.append(v)
                elif isinstance(v, tuple):
                    stack.extend(x for x in v if hasattr(x, "__dataclass_fields__"))
        return out

    assert guards(prog.functions[MAIN].body) == []


def test_companion_functions_are_padded_with_zero(proofs):
    g = proofs["C"]
    cnf = cycle_normal_form(g)
    genuine = sorted((cnf.tree[c].sequent.boxed, cnf.tree[c].sequent.plain) for c in cnf.companions)
    assert genuine == [(1, 1), (2, 1)]
    prog = translate(g)
    companion_fns = [f for name, f in prog.functions.items() if name != MAIN]
    assert len(companion_fns) == 2
    assert all((f.normals, f.safes) == (2, 1) for f in companion_fns)
    # f0 enters the narrower f1 with one genuine normal, padded by Zero()
    into_f1 = [c for c in ref_calls(prog.functions["f0"].body) if c.name == "f1"]
    assert [c.normal_args[1] for c in into_f1] == [Zero()]
    rng = random.Random(71)
    for _ in range(100):
        xs, ys = sample_two_sorted(rng, 2, 1, 9)
        got = eval_pp(prog, MAIN, None, xs, ys, STRICT)
        want = eval_proof(g, g.root, xs, ys)
        assert got == want


def test_padding_preserves_strictness_detection():
    # a hand-built mutual pair with arities (1) and (2): after padding,
    # strictness must still come from the genuine slot
    from circsafe.kernel import Node, ProofGraph, Rule, RuleKind, Sequent

    # f(x, y) = digits of y then x appended to nothing: loop on two levels
    g = ProofGraph(
        "toy",
        "a0",
        {
            "a0": Node(Rule(RuleKind.COND_B), Sequent(2, 0), ("b0", "a1", "a1")),
            "a1": Node(Rule(RuleKind.S1), Sequent(2, 0), ("a0",)),
            "b0": Node(Rule(RuleKind.COND_B), Sequent(1, 0), ("z", "b1", "b1")),
            "b1": Node(Rule(RuleKind.S0), Sequent(1, 0), ("b0",)),
            "z": Node(Rule(RuleKind.ZERO), Sequent(0, 0), ()),
        },
    )
    from circsafe.checker import classify

    assert classify(g).cls == "CB"
    prog = translate(g)
    sizes = {(f.normals, f.safes) for n, f in prog.functions.items() if n != MAIN}
    assert sizes == {(2, 0)}
    for x in range(8):
        for y in range(8):
            want = eval_proof(g, g.root, [x, y], [])
            assert eval_pp(prog, MAIN, None, [x, y], [], STRICT) == want


def test_guard_violation_surfaces_in_strict_mode():
    x0 = Proj("n", 0)
    prog = PPProgram(
        {
            "f": PPFunction("f", 1, 0, Call("f", (x0,), (), guard="strict")),
        },
        "strict",
    )
    with pytest.raises(GuardViolation):
        eval_pp(prog, "f", None, [3], [], STRICT)
    # the default mode returns the guard fallback instead
    assert eval_pp(prog, "f", None, [3], [], EvalConfig(guard_mode="zero")) == 0


def test_guard_depth_bounded_by_normal_lengths(proofs):
    rng = random.Random(73)
    for name in ("S", "C", "P", "L"):
        g = proofs[name]
        prog = translate(g)
        seq = g.nodes[g.root].sequent
        for _ in range(30):
            xs, ys = sample_two_sorted(rng, seq.boxed, seq.plain, 9)
            stats = EvalStats()
            eval_pp(prog, MAIN, None, xs, ys, STRICT, stats=stats)
            # guarded descent alone is bounded by the joint normal length;
            # unguarded composition hops add at most one frame per function
            depth_bound = sum(length(x) for x in xs) + 1 + len(prog.functions)
            assert stats.max_depth <= depth_bound, (name, xs, stats.max_depth)


def test_memo_keys_realize_course_of_values(proofs):
    rng = random.Random(79)
    for name in ("S", "C", "P", "L"):
        g = proofs[name]
        prog = translate(g)
        seq = g.nodes[g.root].sequent
        m, n = seq.boxed, seq.plain
        import math

        for _ in range(30):
            xs, ys = sample_two_sorted(rng, m, n, 9)
            stats = EvalStats()
            eval_pp(prog, MAIN, None, xs, ys, EvalConfig(), stats=stats)
            total = sum(length(x) for x in xs)
            bound = (total + 1) ** (m + n) * math.factorial(m) * math.factorial(n)
            # one extra key for the entry wrapper itself
            assert stats.memo_keys <= bound + 1, (name, xs, ys, stats.memo_keys, bound)


def test_grand_tour_b_terms(terms):
    rng = random.Random(83)
    for name in ("succ1", "half", "select", "append", "lenones", "parity", "lenunary"):
        td = terms[name]
        prog = translate(srec_eliminate(term_to_derivation(td)))
        assert check_term_class(prog, "Bpp") == [], name
        from circsafe.interp import eval_term

        for _ in range(100):
            xs, ys = sample_two_sorted(rng, td.normals, td.safes, 10)
            assert eval_pp(prog, MAIN, None, xs, ys, STRICT) == eval_term(td.body, None, xs, ys), name


def test_grand_tour_nb_terms(terms):
    rng = random.Random(89)
    for name in ("ex", "padones", "exquad", "cdr", "twoloops"):
        td = terms[name]
        prog = translate(nb_to_circular(td))
        assert check_term_class(prog, "NBpp") == [], name
        from circsafe.interp import eval_term

        for _ in range(50):
            xs, ys = sample_two_sorted(rng, td.normals, td.safes, 8)
            assert eval_pp(prog, MAIN, None, xs, ys, STRICT) == eval_term(td.body, None, xs, ys), name


def test_every_translation_validates(proofs, terms):
    """translate does not validate the program it builds: each call it
    emits names a companion function and fits that function's sequent,
    and padding gives every call and companion function one arity."""
    graphs = [g for g in proofs.values() if classify(g).cls in ("CB", "CNB")]
    graphs += [nb_to_circular(td) for td in terms.values() if check_term_class(td, "NB") == []]
    graphs += [chain_graph([1, 0, 1]), loop_graph([0, 1], [1, 1, 0]), nest_graph(4)]
    loops = "y0"  # five recursions on notation in sequence, one companion each
    for j in range(5):
        loops = f"comps(srec(y1,s{j % 2}(y2),s1(y2)),{loops})"
        graphs.append(nb_to_circular(parse_terms(f"def loops{j}(1;1) = {loops}").terms[f"loops{j}"]))
    for g in graphs:
        prog = translate(g)
        prog.validate()
        calls = [c for f in prog.functions.values() for c in ref_calls(f.body)]
        arities = {(f.normals, f.safes) for f in prog.functions.values() if f.name != MAIN}
        arities |= {(len(c.normal_args), len(c.safe_args)) for c in calls}
        assert len(arities) <= 1 and {c.name for c in calls} <= prog.functions.keys() - {MAIN}, g.name
    assert len(graphs) == 26 and sum(len(translate(g).functions) > 2 for g in graphs) > 5
