"""Descent certificates: ``descent_audit`` on translated and hand-written
programs, and ``eval_pp``'s certified call sites, which skip the
run-time guard, against the reference and against runs that check
every guard."""

import itertools
import json
import random
import time
from pathlib import Path

import pytest
from conftest import ref_calls, ref_pp, sample_two_sorted

from circsafe import interp
from circsafe.compilealg import nb_to_circular, srec_eliminate, term_to_derivation
from circsafe.formats import parse_terms, serialize_term
from circsafe.interp import (
    Call,
    CompNormal,
    CompSafe,
    Cond,
    EvalConfig,
    EvalError,
    EvalStats,
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
    SRecN,
    Zero,
    check_term_class,
    descent_audit,
    eval_pp,
    eval_term,
)
from circsafe.translate import MAIN, translate

GOLDEN = Path(__file__).parent / "golden" / "translate.json"
x0, x1, y0, y1 = Proj("n", 0), Proj("n", 1), Proj("s", 0), Proj("s", 1)

# Known failures of translation, as the current translate writes them
# (ROADMAP item 1): `bug`, `g` and `t` are the compiled terms
#   def bug(1;1) = comps(s1(y1),srec(y0,s0(y1),s1(y1)))
#   def g(1;1) = p(srec(cond(0,y0,0,0),comps(x0,x0),p(y1)))
#   def t(1;1) = p(srec(p(y0),p(y1),comps(0,y0)))
# and NEST the hand-written CB proof with nested companions.  Each enters
# its cycle through a guarded call at unchanged arguments.  Kept as data,
# so the audit's verdict on them holds once translate changes.
ITEM_1 = {
    "bug": (
        "program bug_circ guard strictsafe\n"
        "fn f0(1;1) = s1(@f1(x0;y0))\n"
        "fn f1(1;1) = cond(x0,y0,s0(@f1(p(x0);y0)),@f0(p(x0);y0))\n"
        "fn main(1;1) = f0(x0;y0)\n"
    ),
    "g": (
        "program g_circ guard strictsafe\n"
        "fn f0(1;1) = cond(@f1(x0;y0),0,p(@f1(x0;y0)),p(@f1(x0;y0)))\n"
        "fn f1(1;1) = cond(x0,cond(0,y0,0,0),p(x0),@f0(p(x0);y0))\n"
        "fn main(1;1) = f0(x0;y0)\n"
    ),
    "t": (
        "program t_circ guard strictsafe\n"
        "fn f0(1;1) = cond(@f1(x0;y0),0,p(@f1(x0;y0)),p(@f1(x0;y0)))\n"
        "fn f1(1;1) = cond(x0,cond(y0,0,p(y0),p(y0)),@f0(p(x0);y0),0)\n"
        "fn main(1;1) = f0(x0;y0)\n"
    ),
    "NEST": (
        "program NEST guard strictsafe\n"
        "fn f0(1;1) = s1(@f1(x0;y0))\n"
        "fn f1(1;1) = cond(x0,y0,@f0(p(x0);y0),s0(@f1(p(x0);y0)))\n"
        "fn main(1;1) = f0(x0;y0)\n"
    ),
}


def _program(text: str) -> PPProgram:
    (prog,) = parse_terms(text).programs.values()
    return prog


def _translated(proofs, terms) -> dict:
    """Translations of the accepted corpus proofs and of the compiled
    corpus terms, loop and composition shapes included."""
    progs = {name: translate(proofs[name]) for name in ("S", "C", "E", "P", "L", "N")}
    for name in ("succ1", "half", "select", "append", "lenones", "parity", "lenunary"):
        progs[name] = translate(srec_eliminate(term_to_derivation(terms[name])))
    for name in ("ex", "padones", "exquad", "cdr", "twoloops"):
        progs[name] = translate(nb_to_circular(terms[name]))
    # k recursions on notation in sequence, and k nested compositions
    for k in (1, 2, 5):
        loops, deep = "y0", "p(y0)"
        for j in range(k):
            loops = f"comps(srec(y1,s{j % 2}(y2),s1(y2)),{loops})"
            deep = f"comps(s{j % 2}(y1),{deep})"
        doc = parse_terms(f"def loops{k}(1;1) = {loops}\ndef deep{k}(0;1) = {deep}\n")
        for name, td in doc.terms.items():
            progs[name] = translate(nb_to_circular(td))
    return progs


def test_audit_is_empty_on_every_golden_translation():
    golden = json.loads(GOLDEN.read_text())
    texts = [t for group in golden.values() for t in group.values() if t.startswith("program ")]
    assert len(texts) == 18
    for text in texts:
        assert descent_audit(_program(text)) == [], text


def test_audit_is_empty_on_translated_corpus_and_compiled_shapes(proofs, terms):
    progs = _translated(proofs, terms)
    guarded = 0
    for name, prog in progs.items():
        assert descent_audit(prog) == [], name
        guarded += sum(c.guard is not None for fn in prog.functions.values() for c in ref_calls(fn.body))
    assert len(progs) == 24 and guarded > 30


def test_audit_names_the_uncertified_calls_of_the_known_failures():
    got = {
        name: [(u.caller, serialize_term(u.call), u.reason) for u in descent_audit(_program(text))]
        for name, text in ITEM_1.items()
    }
    entry = ("f0", "@f1(x0;y0)", "no strict match")
    assert got == {"bug": [entry], "g": [entry] * 3, "t": [entry] * 3, "NEST": [entry]}


def test_audit_reasons():
    cases = [
        # p(x0) in a branch where x0 is nonzero, and 0 for the other normal
        (Cond(x0, y0, Call("f", (Pred(x0), Zero()), (y0,), "strict_safe"), y0), []),
        # a normal under two p's, the test itself under one
        (Cond(Pred(x0), y0, Call("f", (x1, Pred(Pred(x0))), (y0,), "strict"), y0), []),
        # no cond: p(x0) may be 0 = x0
        (S0(Call("f", (Pred(x0), x1), (y0,), "strict")), ["no strict match"]),
        # the test is on x1, the descent on x0
        (Cond(x1, y0, Call("f", (Pred(x0), x1), (y0,), "strict"), y0), ["no strict match"]),
        # the branch taken on a zero test
        (Cond(x0, Call("f", (Pred(x0), x1), (y0,), "strict"), y0, y0), ["no strict match"]),
        # x0 twice, a successor, a safe in a normal slot
        (Cond(x0, y0, Call("f", (Pred(x0), x0), (y0,), "strict"), y0), ["no match"]),
        (Cond(x0, y0, Call("f", (S1(Pred(x0)), x1), (y0,), "strict"), y0), ["no match"]),
        (Cond(x0, y0, Call("f", (Pred(x0), y0), (y0,), "strict"), y0), ["no match"]),
        # the safes count only under strict_safe
        (Cond(x0, y0, Call("f", (Pred(x0), x1), (S0(y0),), "strict"), y0), []),
        (Cond(x0, y0, Call("f", (Pred(x0), x1), (S0(y0),), "strict_safe"), y0), ["no match"]),
        # inside a recursion scheme no argument is the caller's own
        (SRecN(Zero(), Call("f", (x0, x1), (y0,), "strict"), y0), ["no match"]),
    ]
    for body, want in cases:
        prog = PPProgram({"f": PPFunction("f", 2, 1, body)})
        assert [u.reason for u in descent_audit(prog)] == want, body


def test_a_shared_subterm_is_walked_and_compiled_once(monkeypatch):
    """f(x) = cond(x, 0, t, t), with t d nested comps(t', t') over one
    call object: 2**(d + 1) places of that call, d + 5 objects."""

    def shared(call: Call, d: int) -> PPProgram:
        t = call
        for _ in range(d):
            t = CompSafe(t, t)
        return PPProgram({"f": PPFunction("f", 1, 0, Cond(x0, Zero(), t, t))})

    prog = shared(Call("f", (Pred(x0),), (), "strict"), 18)
    start = time.perf_counter()
    assert descent_audit(prog) == []
    audited = time.perf_counter()
    assert eval_pp(prog, "f", None, [0], []) == 0
    assert audited - start < 1 and time.perf_counter() - audited < 1, (audited - start, time.perf_counter() - audited)
    # an uncertified call is listed at each of its places
    call = Call("f", (x0,), (), "strict")
    assert descent_audit(shared(call, 3)) == [interp.Uncertified("f", call, "no strict match")] * 16
    # one object in two frames: uncertified where x0 may be 0, certified
    # where it is not, and checked at both
    call = Call("f", (Pred(x0),), (), "strict")
    prog = PPProgram({"f": PPFunction("f", 1, 0, Cond(x0, S1(call), call, CompSafe(y0, call)))})
    assert descent_audit(prog) == [interp.Uncertified("f", call, "no strict match")]
    for x in (0, 1, 2, 5):
        assert eval_pp(prog, "f", None, [x], []) == ref_pp(prog, "f", [x], []), x
        with pytest.raises(GuardViolation):
            eval_pp(prog, "f", None, [x], [], EvalConfig(guard_mode="strict"))
    # validate, call_graph and the class check, each on a fresh program,
    # ask interp.children about each object a bounded number of times
    asked, children = [], interp.children
    monkeypatch.setattr(interp, "children", lambda t: asked.append(t) or children(t))
    questions = (PPProgram.validate, PPProgram.call_graph, lambda p: check_term_class(p, "NBpp"))
    for d in (12, 16):
        for question in questions:
            asked.clear()
            assert question(shared(Call("f", (Pred(x0),), (), "strict"), d)) in (None, {"f": ("f",)}, [])
            assert len(asked) <= 4 * (d + 5), (question, d, len(asked))


def _all_checked(monkeypatch):
    """From now on no call site has a certificate, so every guarded call
    checks its guard at run time."""
    monkeypatch.setattr(interp, "_descent_gap", lambda *_: "no match")


def _run(prog, fname, xs, ys, strict: bool, defs=()) -> tuple:
    """The value of ``eval_pp``, or its GuardViolation's text, and its
    statistics."""
    stats = EvalStats()
    cfg = EvalConfig(guard_mode="strict" if strict else "zero")
    try:
        got = eval_pp(prog, fname, OracleEnv(defs), xs, ys, cfg, stats)
    except GuardViolation as e:
        got = str(e)
    return got, stats


def test_certified_runs_match_the_reference_and_checked_runs(proofs, terms, monkeypatch):
    """On a grid of inputs, in both guard modes: the value or guard
    outcome of the reference, and the value, guard outcome and
    statistics of the same program with every guard checked."""
    progs = {**_translated(proofs, terms), **{name: _program(text) for name, text in ITEM_1.items()}}
    normals, safes = (0, 1, 2, 3, 4, 5, 6, 7, 45, 65), (0, 1, 2, 5)
    runs = {}
    for name, prog in progs.items():
        main = prog.functions[MAIN]
        grid = itertools.product(
            itertools.product(normals, repeat=main.normals), itertools.product(safes, repeat=main.safes)
        )
        for xs, ys in grid:
            for strict in (False, True):
                got, _ = runs[name, xs, ys, strict] = _run(prog, MAIN, xs, ys, strict)
                try:
                    assert got == ref_pp(prog, MAIN, xs, ys, strict=strict), (name, xs, ys, strict)
                except GuardViolation:
                    assert isinstance(got, str), (name, xs, ys)
    _all_checked(monkeypatch)
    violations = 0
    for (name, xs, ys, strict), (got, stats) in runs.items():
        fresh = PPProgram(dict(progs[name].functions), progs[name].guard)
        assert _run(fresh, MAIN, xs, ys, strict) == (got, stats), (name, xs, ys, strict)
        violations += isinstance(got, str)
    assert len(runs) > 2000 and violations > 20


def _descent_body(rng: random.Random, m: int, n: int, depth: int, own: tuple, nonzero: frozenset, sigs, kind=None):
    """A random body at (m; n) inputs for the last function of ``sigs``,
    whose parameters are the first ``own`` = (normals, safes) of those
    inputs, with ``nonzero`` the normals known nonzero here.  Conds often
    test a parameter, and guarded calls to itself often take arguments
    of a certificate's shape, in every kind of position (in srec steps
    too, and in subterm objects used at several places), so its calls
    are certified, uncertified and failing alike; plain calls go to
    earlier functions."""
    me = len(sigs) - 1
    leaves = [Zero()] + [Proj("n", i) for i in range(m)] + [Proj("s", j) for j in range(n)]
    if kind is None:  # 8 and above make a call
        kind = rng.randrange(11) if depth > 0 else 0
    sub = lambda mm, nn, known=nonzero: _descent_body(rng, mm, nn, depth - 1, own, known, sigs)  # noqa: E731
    if kind == 0:
        return rng.choice(leaves)
    if kind == 1:
        return rng.choice([S0, S1, Pred])(sub(m, n))
    if kind == 2:
        i = rng.randrange(own[0])
        test, known = (Proj("n", i), nonzero | {i}) if rng.randrange(3) else (sub(m, n), nonzero)
        return Cond(test, sub(m, n), sub(m, n, known), sub(m, n, known))
    if kind == 3:
        return CompSafe(sub(m, n + 1), sub(m, n))
    if kind == 4:
        return CompNormal(sub(m + 1, n), sub(m, 0))
    if kind == 5:
        return OracleCall("h", (sub(m, n),), (sub(m, n),))
    if kind == 6:  # a call as a step, and a base case without the recursion argument
        step = _descent_body(rng, m, n + 1, depth - 1, own, nonzero, sigs, kind=8)
        return SRecN(rng.choice(leaves[:m] + leaves[m + 1 :]), step, sub(m, n + 1))
    if kind == 7:  # one subterm object at several places, in one frame or in two
        t, i = sub(m, n), rng.randrange(own[0])
        return rng.choice([Cond(Proj("n", i), t, t, CompSafe(t, t)), OracleCall("h", (t,), (t,))])
    j = rng.randrange(me + 1)
    if j < me:
        return Call(f"f{j}", tuple(sub(m, n) for _ in range(sigs[j][0])), tuple(sub(m, n) for _ in range(sigs[j][1])))

    def shaped(sort: str, count: int, size: int) -> tuple:
        slots = list(range(count))
        rng.shuffle(slots)
        out = []
        for i in slots:
            i = i if rng.randrange(8) else rng.randrange(count)  # now and then a parameter twice
            arg = Proj(sort, i) if i < size and rng.randrange(4) else Zero()
            for _ in range(rng.choice((0, 1, 1, 2)) if sort == "n" else rng.choice((0, 0, 1))):
                arg = Pred(arg)
            out.append(arg if rng.randrange(8) else rng.choice([S0, S1])(arg))  # or a successor
        return tuple(out)

    normals = shaped("n", own[0], m) if rng.randrange(4) else tuple(sub(m, n) for _ in range(own[0]))
    safes = shaped("s", own[1], n) if rng.randrange(3) else tuple(sub(m, n) for _ in range(own[1]))
    return Call(f"f{me}", normals, safes, rng.choice(["strict", "strict_safe"]))


def test_certified_runs_match_checked_runs_with_calls_anywhere(monkeypatch):
    """Random programs with guarded calls in every kind of position, some
    certified: value, guard outcome and statistics as with every guard
    checked, and the value or guard outcome of the reference."""
    rng = random.Random(2101)
    host = [OracleDef("h", 1, 1, lambda us, vs: 2 * us[0] + vs[0] % 4)]
    cases = []
    for _ in range(150):
        sigs = [(rng.randrange(1, 3), rng.randrange(0, 3)) for _ in range(rng.randrange(1, 4))]
        fns = {}
        for i, (m, n) in enumerate(sigs):
            body = lambda known: _descent_body(rng, m, n, 3, (m, n), known, sigs[: i + 1])  # noqa: E731
            t = rng.randrange(m)  # most bodies start with a cond on a parameter, as translated ones do
            top = Cond(Proj("n", t), body(frozenset()), body({t}), body({t})) if rng.randrange(3) else body(frozenset())
            fns[f"f{i}"] = PPFunction(f"f{i}", m, n, top)
        inputs = [sample_two_sorted(rng, *sigs[-1], 3) for _ in range(6)]
        cases.append((fns, f"f{len(sigs) - 1}", inputs))
    guarded = sum(c.guard is not None for fns, _, _ in cases for fn in fns.values() for c in ref_calls(fn.body))
    uncertified = sum(len(descent_audit(PPProgram(fns))) for fns, _, _ in cases)
    assert guarded - uncertified > 100 and uncertified > 100, (guarded, uncertified)

    def in_step(t, kids) -> bool:  # does an srec step in t hold a call?
        return any(kids) or isinstance(t, SRecN) and bool(ref_calls(t.h0) + ref_calls(t.h1))

    assert sum(interp.fold(fn.body, in_step) for fns, _, _ in cases for fn in fns.values()) > 20
    assert sum(bool(interp._ProgramCode(fns).shared) for fns, _, _ in cases) > 20

    def runs():
        for fns, top, inputs in cases:
            prog = PPProgram(dict(fns))
            for (xs, ys), strict in itertools.product(inputs, (False, True)):
                yield prog, top, xs, ys, strict, _run(prog, top, xs, ys, strict, host)

    certified, violations = [], 0
    for prog, top, xs, ys, strict, out in runs():
        certified.append(out)
        try:
            assert out[0] == ref_pp(prog, top, xs, ys, host, strict), (top, xs, ys, strict)
        except GuardViolation:
            assert isinstance(out[0], str)
            violations += 1
    assert violations > 50
    _all_checked(monkeypatch)
    assert [out for *_, out in runs()] == certified


def test_accepted_corpus_translations_never_check_a_guard(proofs, monkeypatch):
    calls = []
    real = interp.tuple_below
    monkeypatch.setattr(interp, "tuple_below", lambda *a: calls.append(a) or real(*a))
    rng = random.Random(5)
    for name in ("S", "C", "E", "P", "L", "N"):
        prog = translate(proofs[name])
        main = prog.functions[MAIN]
        for bits in (0, 3, 8, 64):
            xs, ys = sample_two_sorted(rng, main.normals, main.safes, min(bits, 10) if name in ("E", "N") else bits)
            for mode in ("zero", "strict"):
                eval_pp(prog, MAIN, None, xs, ys, EvalConfig(guard_mode=mode))
    assert calls == []
    # an uncertified call still checks: NEST's f0 -> f1
    assert eval_pp(_program(ITEM_1["NEST"]), MAIN, None, [1], [3]) == 1
    assert len(calls) == 1


def test_uncertified_guards_keep_their_run_time_check():
    # f(x; y) = s1(f(p(x); y)): no cond, so no certificate, although the
    # guard holds until x reaches 0
    body = S1(Call("f", (Pred(x0),), (y0,), "strict_safe"))
    prog = PPProgram({"f": PPFunction("f", 1, 1, body)})
    assert [(u.caller, u.reason) for u in descent_audit(prog)] == [("f", "no strict match")]
    for x in (0, 1, 6):
        assert eval_pp(prog, "f", None, [x], [4]) == 2 ** (x.bit_length() + 1) - 1
        with pytest.raises(GuardViolation) as e:
            eval_pp(prog, "f", None, [x], [4], EvalConfig(guard_mode="strict"))
        assert str(e.value) == "guarded call to f with normals (0,) against frame (0,)"
    # the certified sibling returns y below |x| ones in both modes
    prog = PPProgram({"f": PPFunction("f", 1, 1, Cond(x0, y0, body, body))})
    assert descent_audit(prog) == []
    for mode in ("zero", "strict"):
        assert eval_pp(prog, "f", None, [6], [4], EvalConfig(guard_mode=mode)) == 4 << 3 | 7


def test_certified_call_sites_build_their_arguments_in_place():
    # the normals (x1, p(x0)) descend where x0 is nonzero; the safes are
    # the caller's in order, swapped, edits of them, and constants
    for safes in ((y0, y1), (y1, y0), (S1(S0(y1)), Pred(y0)), (Zero(), S1(Zero()))):
        call = Call("f", (x1, Pred(x0)), safes, "strict")
        prog = PPProgram({"f": PPFunction("f", 2, 2, Cond(x0, S0(y0), S1(call), y1))})
        assert descent_audit(prog) == []
        for xs, ys in (([0, 0], [1, 2]), ([5, 3], [1, 2]), ([12, 9], [7, 0]), ([45, 6], [5, 3])):
            assert eval_pp(prog, "f", None, xs, ys) == ref_pp(prog, "f", xs, ys), (safes, xs, ys)
    # a constant of more than 4300 decimal digits
    big, want = Zero(), 0
    for j in range(2 * 10**4):
        big, want = (S1(big), 2 * want + 1) if j % 3 else (S0(big), 2 * want)
    prog = PPProgram({"f": PPFunction("f", 1, 1, Cond(x0, y0, Call("f", (Pred(x0),), (big,), "strict"), y0))})
    assert eval_pp(prog, "f", None, [2], [3]) == want and want.bit_length() > 15000
    # a projection out of range raises when the call is reached
    bad = PPProgram({"f": PPFunction("f", 1, 1, Cond(x0, y0, Call("f", (Pred(x0),), (Proj("s", 3),), "strict"), y0))})
    assert descent_audit(bad) == []
    assert eval_pp(bad, "f", None, [0], [5]) == 5
    with pytest.raises(EvalError, match="projection s3 out of range"):
        eval_pp(bad, "f", None, [2], [5])
    # a safe computed by an oracle: f(x; y) = y + |x|
    host = OracleEnv([OracleDef("h", 0, 1, lambda us, vs: vs[0] + 1)])
    step = Call("f", (Pred(x0),), (OracleCall("h", (), (y0,)),), "strict")
    count = PPProgram({"f": PPFunction("f", 1, 1, Cond(x0, y0, step, step))})
    assert descent_audit(count) == []
    assert eval_pp(count, "f", host, [2**40 - 1], [2]) == 42


def test_negative_inputs_and_oracle_values_raise_eval_error(proofs):
    with pytest.raises(EvalError, match="negative input to main"):
        eval_pp(translate(proofs["S"]), MAIN, None, [-3], [])
    with pytest.raises(EvalError, match="negative input to main"):
        eval_pp(translate(proofs["L"]), MAIN, None, [2**70], [-1])
    # h(x) = x - 5 is negative below 5
    neg = OracleEnv([OracleDef("h", 1, 0, lambda us, vs: us[0] - 5)])
    call = OracleCall("h", (x0,), ())
    prog = PPProgram({"f": PPFunction("f", 1, 0, Cond(call, Zero(), S0(call), S1(call)))})
    assert eval_pp(prog, "f", neg, [7], []) == 4 == eval_term(S0(call), neg, [7])
    with pytest.raises(EvalError, match="oracle 'h' returned the negative value -2"):
        eval_pp(prog, "f", neg, [3], [])
    with pytest.raises(EvalError, match="oracle 'h' returned the negative value -5"):
        eval_term(S0(call), neg, [0])
