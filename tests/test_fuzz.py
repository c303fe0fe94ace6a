"""Randomized whole-pipeline agreement and checker crash-safety."""

import random

import pytest
from conftest import sample_two_sorted

from circsafe.checker import classify
from circsafe.compilealg import srec_eliminate, term_to_derivation
from circsafe.corpus import standard_proofs
from circsafe.interp import (
    CompNormal,
    CompSafe,
    Cond,
    EvalConfig,
    Pred,
    Proj,
    S0,
    S1,
    SRecN,
    TermDef,
    Zero,
    check_term_class,
    eval_pp,
    eval_proof,
    eval_term,
)
from circsafe.kernel import Node, ProofGraph, Rule, RuleKind, Sequent, validate_graph
from circsafe.translate import MAIN, translate


def random_b_term(rng: random.Random, m: int, n: int, depth: int, rec_budget: list):
    """A well-formed term of the base algebra over (m; n) inputs."""
    leaves = [Zero()]
    leaves += [Proj("n", i) for i in range(m)]
    leaves += [Proj("s", j) for j in range(n)]
    if depth <= 0:
        return rng.choice(leaves)
    kind = rng.randrange(8)
    if kind == 0:
        return rng.choice(leaves)
    if kind == 1:
        return S0(random_b_term(rng, m, n, depth - 1, rec_budget))
    if kind == 2:
        return S1(random_b_term(rng, m, n, depth - 1, rec_budget))
    if kind == 3:
        return Pred(random_b_term(rng, m, n, depth - 1, rec_budget))
    if kind == 4:
        return Cond(*(random_b_term(rng, m, n, depth - 1, rec_budget) for _ in range(4)))
    if kind == 5:
        return CompSafe(
            random_b_term(rng, m, n + 1, depth - 1, rec_budget),
            random_b_term(rng, m, n, depth - 1, rec_budget),
        )
    if kind == 6 and m >= 1:
        return CompNormal(
            random_b_term(rng, m + 1, n, depth - 1, rec_budget),
            random_b_term(rng, m, 0, depth - 1, rec_budget),
        )
    if m >= 1 and rec_budget[0] > 0:
        rec_budget[0] -= 1
        return SRecN(
            random_b_term(rng, m - 1, n, depth - 1, rec_budget),
            random_b_term(rng, m, n + 1, depth - 1, rec_budget),
            random_b_term(rng, m, n + 1, depth - 1, rec_budget),
        )
    return rng.choice(leaves)


def test_random_b_terms_whole_pipeline():
    rng = random.Random(20260809)
    strict = EvalConfig(guard_mode="strict")
    made = 0
    for trial in range(120):
        m = rng.randrange(0, 3)
        n = rng.randrange(0, 3)
        td = TermDef(f"fz{trial}", m, n, random_b_term(rng, m, n, 3, [2]))
        assert check_term_class(td, "B") == []
        deriv = term_to_derivation(td)
        assert validate_graph(deriv, allow_srec=True) == []
        circ = srec_eliminate(deriv)
        assert validate_graph(circ) == []
        cls = classify(circ)
        assert cls.cls == "CB", (trial, cls)
        prog = translate(circ)
        assert check_term_class(prog, "Bpp") == []
        for _ in range(15):
            xs, ys = sample_two_sorted(rng, m, n, 8)
            want = eval_term(td.body, None, xs, ys)
            assert eval_proof(deriv, deriv.root, xs, ys) == want, (trial, xs, ys)
            assert eval_proof(circ, circ.root, xs, ys) == want, (trial, xs, ys)
            assert eval_pp(prog, MAIN, None, xs, ys, strict) == want, (trial, xs, ys)
        made += 1
    assert made == 120


def test_random_b_term_bounds_hold():
    from circsafe.bounds import verify_bound

    rng = random.Random(77002)
    for trial in range(40):
        m = rng.randrange(0, 3)
        n = rng.randrange(0, 3)
        td = TermDef(f"bz{trial}", m, n, random_b_term(rng, m, n, 3, [2]))
        rep = verify_bound(td, samples=40, seed=trial)
        assert rep.violations == [], (trial, rep.violations[:1])
        from circsafe.bounds import synthesize_bound

        pair = synthesize_bound(td.body)
        assert pair.d == 1 and pair.is_polynomial, trial


def _mutate(rng: random.Random, g: ProofGraph) -> ProofGraph:
    nodes = dict(g.nodes)
    nid = rng.choice(sorted(nodes))
    node = nodes[nid]
    what = rng.randrange(3)
    if what == 0 and node.premises:
        others = sorted(nodes)
        prem = list(node.premises)
        prem[rng.randrange(len(prem))] = rng.choice(others)
        nodes[nid] = Node(node.rule, node.sequent, tuple(prem))
    elif what == 1:
        s = node.sequent
        bump = rng.choice([(1, 0), (0, 1)])
        nodes[nid] = Node(node.rule, Sequent(s.boxed + bump[0], s.plain + bump[1], s.succedent), node.premises)
    else:
        kinds = [k for k in RuleKind if k not in (RuleKind.DIS,)]
        nodes[nid] = Node(Rule(rng.choice(kinds), pos=0), node.sequent, node.premises)
    return ProofGraph(g.name, g.root, nodes)


def test_checker_totality_on_mutants():
    # classify never crashes and stays coherent on arbitrary corruption
    rng = random.Random(31007)
    for name, g in standard_proofs().items():
        for _ in range(60):
            mutant = _mutate(rng, g)
            c = classify(mutant)
            if c.cls == "CB":
                assert c.safe and c.left_leaning and c.progressing is True
            if c.cls == "CNB":
                assert c.safe and c.progressing is True
            if not c.valid:
                assert c.cls == "none"


def random_nb_step(rng: random.Random, m: int, n: int, depth: int, rec_budget: list, rec_arity: int):
    """A step term over the recursion oracle; recursion-free otherwise.

    The recursion oracle always takes ``rec_arity`` safe arguments (the
    enclosing function's own count), whatever the ambient context grew to.
    """
    from circsafe.interp import OracleCall

    leaves = [Zero()] + [Proj("n", i) for i in range(m)] + [Proj("s", j) for j in range(n)]
    if depth <= 0:
        return rng.choice(leaves)
    kind = rng.randrange(8)
    if kind == 0:
        return rng.choice(leaves)
    if kind in (1, 2):
        op = S0 if kind == 1 else S1
        return op(random_nb_step(rng, m, n, depth - 1, rec_budget, rec_arity))
    if kind == 3:
        return Pred(random_nb_step(rng, m, n, depth - 1, rec_budget, rec_arity))
    if kind == 4:
        return Cond(*(random_nb_step(rng, m, n, depth - 1, rec_budget, rec_arity) for _ in range(4)))
    if kind == 5:
        return CompSafe(
            random_nb_step(rng, m, n + 1, depth - 1, rec_budget, rec_arity),
            random_nb_step(rng, m, n, depth - 1, rec_budget, rec_arity),
        )
    if rec_budget[0] > 0:
        rec_budget[0] -= 1
        return OracleCall(
            "rec",
            (),
            tuple(
                random_nb_step(rng, m, n, depth - 1, rec_budget, rec_arity)
                for _ in range(rec_arity)
            ),
        )
    return rng.choice(leaves)


def test_random_nb_terms_whole_pipeline():
    from circsafe.compilealg import nb_to_circular
    from circsafe.interp import SNRec

    rng = random.Random(515031)
    strict = EvalConfig(guard_mode="strict")
    made = 0
    for trial in range(60):
        m = rng.randrange(1, 3)
        n = rng.randrange(1, 3)
        g_term = random_b_term(rng, m - 1, n, 2, [0])
        h_term = random_nb_step(rng, m, n, 3, [3], n)
        td = TermDef(f"nz{trial}", m, n, SNRec(g_term, h_term))
        assert check_term_class(td, "NB") == []
        circ = nb_to_circular(td)
        assert validate_graph(circ) == [], trial
        cls = classify(circ)
        assert cls.cls in ("CB", "CNB"), (trial, cls)
        prog = translate(circ)
        assert check_term_class(prog, "NBpp") == []
        for _ in range(12):
            xs, ys = sample_two_sorted(rng, m, n, 6)
            want = eval_term(td.body, None, xs, ys)
            assert eval_proof(circ, circ.root, xs, ys) == want, (trial, xs, ys)
            assert eval_pp(prog, MAIN, None, xs, ys, strict) == want, (trial, xs, ys)
        made += 1
    assert made == 60


@pytest.mark.parametrize("short_run", [1, 40, None])
def test_eval_proof_statistics_match_the_memo_everywhere_reference(monkeypatch, short_run):
    """Value, steps and memo keys of ``eval_proof`` equal those of a run
    that keeps a memo entry at every node (``ref_proof_stats``), with
    memoization on and off, on the corpus, on compiled random terms and
    on mutated corpus graphs that evaluate.  ``short_run`` moves the
    point where a run starts to keep entries only at repeatable nodes
    (None: the default, which only the all-ones runs at the end reach)."""
    from conftest import ref_proof_stats

    from circsafe import interp
    from circsafe.compilealg import nb_to_circular
    from circsafe.corpus import proof
    from circsafe.interp import EvalError, EvalStats, FuelExhausted, SNRec

    if short_run is not None:
        monkeypatch.setattr(interp, "_SHORT_RUN", short_run)
    rng = random.Random(4242)
    graphs = [(g, 7) for g in standard_proofs().values()]
    graphs += [(proof(n), 7) for n in ("N_UNSAFE", "P_UNSAFE")]
    for trial in range(30):
        m, n = rng.randrange(1, 3), rng.randrange(0, 3)
        deriv = term_to_derivation(TermDef(f"b{trial}", m, n, random_b_term(rng, m, n, 3, [2])))
        graphs += [(deriv, 6), (srec_eliminate(deriv), 6)]
        n = rng.randrange(1, 3)
        step = random_nb_step(rng, m, n, 3, [3], n)
        nb = TermDef(f"nb{trial}", m, n, SNRec(random_b_term(rng, m - 1, n, 2, [0]), step))
        graphs.append((nb_to_circular(nb), 5))
    corpus = list(standard_proofs().values())
    graphs += [(_mutate(rng, rng.choice(corpus)), 5) for _ in range(400)]

    checked, hits = 0, {}
    for g, bits in graphs:
        seq = g.nodes[g.root].sequent
        for _ in range(6):
            xs, ys = sample_two_sorted(rng, seq.boxed, seq.plain, bits)
            for memo in (True, False):
                stats = EvalStats()
                try:
                    got = eval_proof(g, g.root, xs, ys, EvalConfig(fuel=400, memo=memo), None, stats)
                except (EvalError, FuelExhausted, IndexError, KeyError):  # ill-formed or diverging mutants
                    continue
                value, steps, keys, hit = ref_proof_stats(g, xs, ys, memo)
                assert (got, stats.steps, stats.memo_keys) == (value, steps, keys), (g.name, xs, ys, memo)
                hits[g.name] = hits.get(g.name, 0) + hit
                checked += 1
    assert checked > 1500
    assert hits["N"] > 0 and hits["N_UNSAFE"] > 0
    # all-ones runs past the default switch point
    long_runs = (("E", [2**9 - 1], [3]), ("N", [2**10 - 1], []), ("S", [2**210 - 1], []), ("L", [2**200 - 1], [5]))
    for name, xs, ys in long_runs:
        g, stats = proof(name), EvalStats()
        got = eval_proof(g, g.root, xs, ys, None, None, stats)
        value, steps, keys, _ = ref_proof_stats(g, xs, ys)
        assert steps > 1000 and (got, stats.steps, stats.memo_keys) == (value, steps, keys), name


def test_eval_proof_statistics_when_fuel_runs_out():
    """A run that runs out of fuel reports the steps it took and the keys
    whose value it found, as the memo-everywhere reference does at the
    same fuel (runs shorter than the switch to entries at repeatable
    nodes only)."""
    from conftest import ref_proof_stats

    from circsafe.corpus import proof
    from circsafe.interp import EvalStats, FuelExhausted

    rng = random.Random(77)
    graphs = list(standard_proofs().values()) + [proof("N_UNSAFE")]
    checked = 0
    for g in graphs:
        seq = g.nodes[g.root].sequent
        for _ in range(4):
            xs, ys = sample_two_sorted(rng, seq.boxed, seq.plain, 5)
            for memo in (True, False):
                stats = EvalStats()
                try:
                    eval_proof(g, g.root, xs, ys, EvalConfig(fuel=400, memo=memo), None, stats)
                except FuelExhausted:  # a diverging proof
                    continue
                full = stats.steps
                for fuel in sorted({1, 2, full // 3, full // 2, full - 1} & set(range(1, full))):
                    stats = EvalStats()
                    with pytest.raises(FuelExhausted):
                        eval_proof(g, g.root, xs, ys, EvalConfig(fuel=fuel, memo=memo), None, stats)
                    value, steps, keys, _ = ref_proof_stats(g, xs, ys, memo, fuel)
                    assert value is None and (stats.steps, stats.memo_keys) == (steps + 1, keys), (g.name, xs, ys, fuel)
                    checked += 1
    assert checked > 200


def _random_body(rng: random.Random, m: int, n: int, depth: int, me: int, sigs: list):
    """A program body over (m; n) inputs for function ``me``: plain calls
    to earlier functions and guarded calls to itself, in any position
    (conditions, composed functions, oracle and call arguments), so every
    path from a body to a call is exercised."""
    leaves = [Zero()] + [Proj("n", i) for i in range(m)] + [Proj("s", j) for j in range(n)]
    kind = rng.randrange(9) if depth > 0 else 0
    sub = lambda mm, nn: _random_body(rng, mm, nn, depth - 1, me, sigs)  # noqa: E731
    if kind == 0:
        return rng.choice(leaves)
    if kind == 1:
        return rng.choice([S0, S1, Pred])(sub(m, n))
    if kind == 2:
        return Cond(sub(m, n), sub(m, n), sub(m, n), sub(m, n))
    if kind == 3:
        return CompSafe(sub(m, n + 1), sub(m, n))
    if kind == 4 and m:
        return CompNormal(sub(m + 1, n), sub(m, 0))
    if kind == 5:
        from circsafe.interp import OracleCall

        return OracleCall("h", (sub(m, n),), (sub(m, n),))
    from circsafe.interp import Call

    j = rng.randrange(me + 1)  # down in the list, or a guarded call to itself: every run ends
    fm, fn = sigs[j]
    guard = None if j < me else rng.choice(["strict", "strict_safe"])
    return Call(f"f{j}", tuple(sub(m, n) for _ in range(fm)), tuple(sub(m, n) for _ in range(fn)), guard)


def test_eval_pp_matches_reference_with_calls_anywhere():
    """Values, guard failures and fuel accounting of ``eval_pp`` on random
    programs whose calls sit in every kind of position, against the
    reference ``ref_pp``."""
    from conftest import ref_pp

    from circsafe.interp import (
        EvalStats,
        FuelExhausted,
        GuardViolation,
        OracleDef,
        OracleEnv,
        PPFunction,
        PPProgram,
    )

    rng = random.Random(90210)
    host = [OracleDef("h", 1, 1, lambda us, vs: 2 * us[0] + vs[0] % 4)]
    checked = violations = 0
    for trial in range(80):
        sigs = [(rng.randrange(1, 3), rng.randrange(0, 3)) for _ in range(rng.randrange(1, 4))]
        prog = PPProgram(
            {f"f{i}": PPFunction(f"f{i}", m, n, _random_body(rng, m, n, 3, i, sigs)) for i, (m, n) in enumerate(sigs)}
        )
        top = len(sigs) - 1
        for _ in range(8):
            xs, ys = sample_two_sorted(rng, *sigs[top], 3)
            for strict in (False, True):
                try:
                    want = ref_pp(prog, f"f{top}", xs, ys, host, strict)
                except GuardViolation:
                    want = GuardViolation
                for memo in (True, False):
                    cfg, stats = EvalConfig(memo=memo, guard_mode="strict" if strict else "zero"), EvalStats()
                    try:
                        got = eval_pp(prog, f"f{top}", OracleEnv(host), xs, ys, cfg, stats)
                    except GuardViolation:
                        got = GuardViolation
                    assert got == want, (trial, xs, ys, strict, memo)
                    violations += got is GuardViolation
                    if memo or got is GuardViolation:
                        continue
                    # without a memo every call is entered: it costs one fuel and counts one step
                    assert eval_pp(prog, f"f{top}", OracleEnv(host), xs, ys, EvalConfig(stats.steps, False)) == got
                    if stats.steps > 1:
                        with pytest.raises(FuelExhausted):
                            eval_pp(prog, f"f{top}", OracleEnv(host), xs, ys, EvalConfig(stats.steps - 1, False))
                    checked += 1
    assert checked > 500 and violations > 50
