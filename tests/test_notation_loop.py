"""Recursion on notation in one loop, against the request machine.

A program function whose body is ``cond(x0, g, B0, B1)``, with a branch
that is a prefix edit of a self-call at ``p(x0)``, runs as one loop that
charges its calls at once and folds their edits on the way out; an
``srec`` whose steps are prefix edits folds them over the digits of its
recursion argument.  The reference for the loop is the same program with
a memo entry kept for every call (``conftest.memo_everywhere``): the
loop never runs for a function that keeps memo entries, so that copy
takes one request per call.  The reference for the fold is
``conftest.ref_eval``, one operator and one digit at a time.
"""

import random

import pytest

from conftest import memo_everywhere, pp_outcome, ref_env, ref_eval

from circsafe.compilealg import nb_to_circular
from circsafe.corpus import proof, term_corpus
from circsafe.formats import parse_terms
from circsafe.interp import (
    Call, Cond, EvalConfig, EvalError, OracleDef, OracleEnv, PPFunction, PPProgram, Pred, Proj, S0, S1, SRecN, Zero,
    _program_code, eval_pp, eval_term,
)
from circsafe.translate import translate

x0, y0, y1 = Proj("n", 0), Proj("s", 0), Proj("s", 1)


def _inputs(rng: random.Random, bits: int) -> list[int]:
    """0, 1, 2, all ones, a power of two and random values, up to ``bits``."""
    values = [0, 1, 2, 2**bits - 1, 2 ** (bits - 1), 2 ** rng.randrange(bits)]
    return values + [rng.getrandbits(rng.randrange(1, bits + 1)) for _ in range(4)]


def _loops(prog: PPProgram) -> set:
    """The functions of ``prog`` whose compiled body is the notation loop."""
    return {nm for nm, body in _program_code(prog).bodies.items() if body.__name__ == "loop"}


def _same_as_requests(prog, fname, points, env=None) -> int:
    """Value, statistics and fuel outcome of ``prog`` against the request
    machine, in both guard modes, with and without memo; the number of
    runs compared."""
    everywhere = memo_everywhere(prog)
    runs = 0
    for xs, ys in points:
        for mode in ("zero", "strict"):
            for memo in (True, False):
                cfg = EvalConfig(memo=memo, guard_mode=mode)
                want = pp_outcome(everywhere, fname, env, xs, ys, cfg)
                assert pp_outcome(prog, fname, env, xs, ys, cfg) == want, (fname, xs, ys, mode, memo)
                steps = want[1].steps
                for fuel in {steps, max(1, steps // 2), 1}:
                    cut = EvalConfig(fuel, memo, mode)
                    got = pp_outcome(prog, fname, env, xs, ys, cut)
                    assert got == pp_outcome(everywhere, fname, env, xs, ys, cut), (fname, xs, ys, mode, fuel)
                runs += 1
    return runs


# The loop takes the translations of the CB corpus proofs and of the
# compiled recursions on notation; E and N recurse twice a level, so
# they keep the request machine.
LOOPING = {"S": {"f0"}, "C": {"f0", "f1"}, "L": {"f0"}, "P": {"f0"}, "E": set(), "N": set()}


@pytest.mark.parametrize("name", sorted(LOOPING))
def test_translated_corpus_proofs_loop_as_the_request_machine_runs(name):
    g = proof(name)
    prog = translate(g)
    seq = g.nodes[g.root].sequent
    rng = random.Random(f"loop:{name}")
    bits = 6 if name in ("E", "N") else 300
    points = [([x] * seq.boxed, [x] * seq.plain) for x in _inputs(rng, bits)]
    points += [([rng.getrandbits(bits) for _ in range(seq.boxed)], [rng.getrandbits(bits) for _ in range(seq.plain)])
               for _ in range(4)]
    assert _same_as_requests(prog, "main", points) == 4 * len(points)
    assert _loops(prog) == LOOPING[name]


def _loops_term(k: int) -> str:
    """k recursions on notation composed in sequence, as in the benchmark's loops family."""
    t = "y0"
    for j in range(k):
        t = f"comps(srec(y1,s{j % 2}(y2),s1(y2)),{t})"
    return f"def loops{k}(1;1) = {t}"


# main of loops3 makes three calls, so its callees keep memo entries
# (``_ProgramCode.keep``) and never loop
TERM_LOOPS = {"append": {"f0"}, "lenones": {"f0"}, "lenunary": {"f0"}, "loops1": {"f0"}, "loops3": set()}


@pytest.mark.parametrize("name", sorted(TERM_LOOPS))
def test_translated_terms_loop_as_the_request_machine_runs(name):
    td = parse_terms(_loops_term(int(name[5:]))).terms[name] if name.startswith("loops") else term_corpus()[name]
    prog = translate(nb_to_circular(td))
    rng = random.Random(f"loop:{name}")
    points = [([x], [y] * td.safes) for x in _inputs(rng, 300) for y in (0, 5, rng.getrandbits(40))]
    assert _same_as_requests(prog, "main", points) == 4 * len(points)
    for xs, ys in points[:6]:
        assert pp_outcome(prog, "main", None, xs, ys, EvalConfig())[0] == eval_term(td.body, None, xs, ys)
    assert _loops(prog) == TERM_LOOPS[name]


# Near misses: each keeps the request machine for the function named,
# or takes the loop where the shape still holds, with the same outcome.
NEAR_MISSES = {
    # cdr's translation edits the safe it passes down
    "edited safe": ("fn f(1;1) = cond(x0,y0,s0(@f(p(x0);s1(y0))),s0(@f(p(x0);s1(y0))))", 1, set()),
    # the safes swapped: certified, but not the caller's in order
    "swapped safes": ("fn f(1;2) = cond(x0,y0,s0(@f(p(x0);y1,y0)),s1(@f(p(x0);y1,y0)))", 2, set()),
    # two different maps of the second normal
    "two maps": ("fn f(2;1) = cond(x0,x1,s0(@f(p(x0),x1;y0)),s1(@f(p(x0),0;y0)))", 1, set()),
    # one map in both branches, the second normal dropped to 0
    "zero map": ("fn f(2;1) = cond(x0,s1(x1),s0(@f(p(x0),0;y0)),s1(@f(p(x0),0;y0)))", 1, {"f"}),
    # the first normal under two p
    "two p": ("fn f(1;1) = cond(x0,y0,s0(@f(p(p(x0));y0)),s1(@f(p(x0);y0)))", 1, {"f"}),
    # a self-call in the base branch fails its guard
    "base call": ("fn f(1;1) = cond(x0,@f(p(x0);y0),s0(@f(p(x0);y0)),y0)", 1, {"f"}),
    # a call inside the condition
    "call in condition": ("fn f(1;1) = cond(g(x0;),y0,s0(@f(p(x0);y0)),s1(@f(p(x0);y0)))\nfn g(1;0) = x0", 1, set()),
    # the stopping branch calls a host oracle and a function that loops itself
    "calls at the bottom": (
        "fn f(1;1) = cond(x0,h(x0;y0),s1(s1(@f(p(x0);y0))),p(l(x0;y0)))\n"
        "fn l(1;1) = cond(x0,y0,p(@l(p(x0);y0)),s1(@l(p(x0);y0)))", 1, {"f", "l"}),
}


def test_a_condition_on_a_missing_normal_raises_as_the_request_machine_does():
    # no normals, so x0 is out of range: the shape of a recursion on
    # notation, but the body raises where it reads x0
    prog = parse_terms("program near guard strict\nfn f(0;1) = cond(x0,y0,s0(f(;y0)),y0)\n").programs["near"]
    for cfg in (EvalConfig(), EvalConfig(guard_mode="strict")):
        for ys in ([0], [5]):
            with pytest.raises(EvalError, match="projection n0 out of range"):
                eval_pp(prog, "f", None, [], ys, cfg)
    assert "f" in _program_code(prog).bodies and _loops(prog) == set()


@pytest.mark.parametrize("name", sorted(NEAR_MISSES))
def test_near_misses_run_as_the_request_machine_runs(name):
    text, safes, looping = NEAR_MISSES[name]
    prog = parse_terms("program near guard strict\n" + text + "\n").programs["near"]
    env = OracleEnv([OracleDef("h", 1, 1, lambda us, vs: us[0] + 3 * vs[0])])
    m = prog.functions["f"].normals
    rng = random.Random(f"near:{name}")
    points = [([x] * m, [x % 97] * safes) for x in _inputs(rng, 120)]
    assert _same_as_requests(prog, "f", points, env) == 4 * len(points)
    assert _loops(prog) & {"f", "l"} == looping


def test_an_uncertified_self_call_keeps_the_request_machine():
    # one Call object at the base branch, where no guard can pass, and in
    # both recursing branches: it checks its guard at every place
    call = Call("f", (Pred(x0),), (y0,), "strict")
    prog = PPProgram({"f": PPFunction("f", 1, 1, Cond(x0, call, S0(call), S1(call)))})
    rng = random.Random(7)
    assert _same_as_requests(prog, "f", [([x], [3]) for x in _inputs(rng, 120)]) == 40
    assert _loops(prog) == set()
    # a certified copy of it at the recursing branches takes the loop
    fresh = Call("f", (Pred(x0),), (y0,), "strict")
    prog = PPProgram({"f": PPFunction("f", 1, 1, Cond(x0, y0, S0(fresh), S1(fresh)))})
    assert _same_as_requests(prog, "f", [([x], [3]) for x in _inputs(rng, 120)]) == 40
    assert _loops(prog) == {"f"}


def test_the_loop_charges_fuel_steps_and_depth_per_call():
    prog = translate(proof("L"))
    x = 2**5000 - 1
    everywhere = memo_everywhere(prog)
    want = pp_outcome(everywhere, "main", None, [x], [6], EvalConfig())
    got = pp_outcome(prog, "main", None, [x], [6], EvalConfig())
    assert got == want and got[1].steps == 5002 and got[1].max_depth == 5002
    assert got[0] == (6 << 5000) | (2**5000 - 1)
    for fuel in (5002, 5001, 4999, 2):
        cut = EvalConfig(fuel)
        assert pp_outcome(prog, "main", None, [x], [6], cut) == pp_outcome(everywhere, "main", None, [x], [6], cut)


# The edit fold: random srec steps, each an edit of the recursion value
# (any r, k and c, k = 0 among them) or a constant, against ref_eval on
# digit strings shorter and longer than the fold's plain-loop cutoff.


def _random_edit(rng: random.Random, leaf):
    t = leaf
    for _ in range(rng.choice([0, 1, 1, 2, 3, 6])):
        t = rng.choice([S0, S1, Pred, S1])(t)
    return t


def test_srec_edit_fold_matches_ref_eval():
    rng = random.Random(20261020)
    shapes = set()
    for trial in range(300):
        steps = [_random_edit(rng, y1 if rng.random() < 0.8 else Zero()) for _ in range(2)]
        term = SRecN(_random_edit(rng, y0), *steps)
        for bits in (0, 1, 3, 6, 7, 12, 70):
            x = rng.getrandbits(bits) | (1 << bits >> 1)
            y = rng.getrandbits(rng.randrange(1, 30))
            assert eval_term(term, None, [x], [y]) == ref_eval(term, (x,), (y,), ref_env()), (trial, term, x, y)
        shapes.add(tuple(type(s).__name__ for s in steps))
    for x in (0, 1, 2**64, 2**64 - 1, 2**90 + 5):  # constants, a k = 0 edit and a bare shift
        for h0, h1 in ((Zero(), S1(Zero())), (Pred(S0(y1)), S1(y1)), (S0(y1), Pred(y1)), (y1, S0(S0(S1(y1))))):
            term = SRecN(S1(y0), h0, h1)
            assert eval_term(term, None, [x], [9]) == ref_eval(term, (x,), (9,), ref_env()), (h0, h1, x)
    assert len(shapes) > 6
