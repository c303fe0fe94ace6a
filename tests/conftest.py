import dataclasses
import random
from collections import ChainMap

import pytest

from circsafe.corpus import standard_proofs, term_corpus
from circsafe.interp import (
    Call,
    CompNormal,
    CompSafe,
    Cond,
    EvalError,
    EvalStats,
    FuelExhausted,
    GuardViolation,
    OracleCall,
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
    _ProgramCode,
    children,
    eval_pp,
)
from circsafe.kernel import Node, ProofGraph, Rule, RuleKind, Sequent, TupleOrder, tuple_order


def bitlen(x: int) -> int:
    return x.bit_length()


# Independent oracles for the corpus proofs: direct transcriptions of the
# defining equational programs, kept separate from the package evaluators.


def s_program(x: int) -> int:
    if x == 0:
        return 1
    if x % 2 == 0:
        return 2 * (x // 2) + 1
    return 2 * s_program(x // 2)


def c_program(x: int, y: int, z: int) -> int:
    if x == 0 and y == 0:
        return z
    if x == 0:
        return 2 * c_program(0, y >> 1, z) + (y & 1)
    return 2 * c_program(x >> 1, y, z) + (x & 1)


def e_program(x: int, y: int) -> int:
    if x == 0:
        return 2 * y
    return e_program(x >> 1, e_program(x >> 1, y))


def p_program(x: int) -> int:
    if x == 0:
        return 0
    if x % 2 == 0:
        return 2 * p_program(x >> 1) + 1
    return 2 * (x >> 1)


def l_program(x: int, y: int) -> int:
    if x == 0:
        return y
    return 2 * l_program(x >> 1, y) + 1


def n_closed(n: int) -> int:
    return 2**n - 1


PROOF_ORACLES = {
    "S": lambda xs, ys: s_program(xs[0]),
    "C": lambda xs, ys: c_program(xs[0], xs[1], ys[0]),
    "E": lambda xs, ys: e_program(xs[0], ys[0]),
    "P": lambda xs, ys: p_program(xs[0]),
    "L": lambda xs, ys: l_program(xs[0], ys[0]),
    "N": lambda xs, ys: n_closed(xs[0]),
}


def sample_two_sorted(rng: random.Random, m: int, n: int, normal_bits: int, safe_bits: int = None):
    """Random inputs with the normal lengths jointly bounded."""
    if safe_bits is None:
        safe_bits = normal_bits
    xs = []
    budget = normal_bits
    for _ in range(m):
        b = rng.randrange(budget + 1)
        xs.append(rng.getrandbits(b) if b else 0)
        budget -= xs[-1].bit_length()
    ys = [rng.getrandbits(rng.randrange(safe_bits + 1)) for _ in range(n)]
    return xs, ys


@pytest.fixture(scope="session")
def proofs():
    return standard_proofs()


@pytest.fixture(scope="session")
def terms():
    return term_corpus()


@pytest.fixture(scope="session")
def corpus_bound_reports(terms):
    """``verify_bound(td, samples=200, seed=42)`` of every corpus term,
    computed once for the tests that check those reports."""
    from circsafe.bounds import verify_bound

    return {name: verify_bound(td, samples=200, seed=42) for name, td in terms.items()}


# Independent oracle for transform.bisimulation_classes: Moore's
# round-by-round refinement, the definition read literally.  Each round
# re-partitions every node by (own block, premise blocks) until no block
# splits, so it costs one pass per level of depth: keep inputs small.


def moore_classes(nodes: dict) -> dict:
    """Bisimulation classes over all of ``nodes`` (premises inside it)."""
    order = sorted(nodes)
    blocks = {}
    mapping = {}
    for n in order:
        mapping[n] = blocks.setdefault((nodes[n].rule, nodes[n].sequent), len(blocks))
    while True:
        sig_blocks = {}
        new = {}
        for n in order:
            sig = (mapping[n], tuple(mapping[p] for p in nodes[n].premises))
            new[n] = sig_blocks.setdefault(sig, len(sig_blocks))
        if new == mapping:
            return mapping
        mapping = new


def same_partition(a: dict, b: dict) -> bool:
    """Equal partitions of the same keys, up to renumbering the blocks."""
    pairs = {(a[k], b[k]) for k in a}
    return a.keys() == b.keys() and len(pairs) == len(set(a.values())) == len(set(b.values()))


# Scaled proof families, built directly as graphs.

N, BN_N, BN_NN = Sequent(0, 1), Sequent(1, 1), Sequent(1, 2)


def _succ(b: int) -> Rule:
    return Rule(RuleKind.S1 if b else RuleKind.S0)


def chain_graph(digits) -> ProofGraph:
    """Successor steps writing ``digits`` over the identity: acyclic, CB,
    len(digits)+1 nodes on one path."""
    n = len(digits)
    nodes = {f"c{j}": Node(_succ(b), N, (f"c{j + 1}",)) for j, b in enumerate(digits)}
    nodes[f"c{n}"] = Node(Rule(RuleKind.ID), N, ())
    return ProofGraph(f"chain{n}", "c0", nodes)


def loop_graph(d0, d1) -> ProofGraph:
    """A boxed conditional whose recursive branches run through the
    successor steps ``d0`` and ``d1`` back to it: CB, one long cycle per
    branch, len(d0)+len(d1)+2 nodes."""
    nodes = {"r": Node(Rule(RuleKind.COND_B), BN_N, ("z", "a0", "b0")), "z": Node(Rule(RuleKind.ID), N, ())}
    for tag, digits in (("a", d0), ("b", d1)):
        for j, b in enumerate(digits):
            nodes[f"{tag}{j}"] = Node(_succ(b), BN_N, (f"{tag}{j + 1}" if j + 1 < len(digits) else "r",))
    return ProofGraph(f"loop{len(d0)}", "r", nodes)


def nest_graph(m: int) -> ProofGraph:
    """m-fold nested recursion f(x;y) = f(x/2; ... f(x/2; y)), base
    f(0;y) = 2y: CNB, 3m nodes whose m cut nodes are all alike."""
    nodes = {
        "e0": Node(Rule(RuleKind.COND_B), BN_N, ("e1", "k0", "k0")),
        "e1": Node(Rule(RuleKind.S0), N, ("e2",)),
        "e2": Node(Rule(RuleKind.ID), N, ()),
    }
    for j in range(m - 1):
        nodes[f"k{j}"] = Node(Rule(RuleKind.CUT_N), BN_N, ("e0", f"x{j}"))
        nodes[f"x{j}"] = Node(Rule(RuleKind.EXCH_N, pos=0), BN_NN, (f"w{j}",))
        nodes[f"w{j}"] = Node(Rule(RuleKind.WEAK_N), BN_NN, (f"k{j + 1}" if j + 2 < m else "e0",))
    return ProofGraph(f"nest{m}", "e0", nodes)


def mutate(rng: random.Random, g: ProofGraph) -> ProofGraph:
    """``g`` with one node changed at random: a premise redirected, a
    context grown by one formula, or the rule replaced."""
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


def graph_passes_inputs() -> list[ProofGraph]:
    """Inputs for the differential tests of the graph passes: the corpus
    proofs, the corpus terms compiled both ways, the chain, loop and
    nest families at several sizes, and mutants of the corpus proofs
    that pass ``validate_graph`` (srec and oracle leaves allowed), some
    of them with a cycle and some without."""
    from circsafe.compilealg import nb_to_circular, term_to_derivation
    from circsafe.corpus import proof
    from circsafe.interp import check_term_class
    from circsafe.kernel import validate_graph

    rng = random.Random(29)
    graphs = list(standard_proofs().values()) + [proof("P_UNSAFE"), proof("N_UNSAFE")]
    for td in term_corpus().values():
        graphs.append(nb_to_circular(td))
        if check_term_class(td.body, "B") == []:
            graphs.append(term_to_derivation(td))
    for n in (1, 2, 11, 60, 150):
        digits = [rng.getrandbits(1) for _ in range(n)]
        graphs.append(chain_graph(digits))
        graphs.append(loop_graph(digits, digits[::-1]))
    graphs += [nest_graph(m) for m in (2, 3, 8, 30)]
    corpus = graphs[:]
    mutants = 0
    while mutants < 150:
        g = mutate(rng, rng.choice(corpus))
        if not validate_graph(g, allow_srec=True, allow_oracle=True):
            graphs.append(g)
            mutants += 1
    return graphs


# Independent oracle for checker's progress check: the check as it ran
# before progress was decided inside the cyclic components, a second
# Tarjan pass over the condB-free subgraph of the whole reachable part,
# whose first cyclic component gives the witness.


def ref_progress(graph: ProofGraph) -> tuple:
    """``(status, witness cycle)`` as ``check_progressing_safe`` gives them."""
    from circsafe.checker import _shortest_cycle_through, check_safety
    from circsafe.kernel import sccs

    safety = check_safety(graph)
    if not safety.ok:
        return "unknown_unsafe", safety.witness_cycle
    kept = {n for n in graph.reachable() if graph.nodes[n].rule.kind is not RuleKind.COND_B}
    sub = {n: tuple(p for p in graph.nodes[n].premises if p in kept) for n in graph.reachable() if n in kept}
    cyclic = [c for c in sccs(sub) if len(c) > 1 or c[0] in sub[c[0]]]
    if cyclic:
        return "not_progressing", _shortest_cycle_through(sub, cyclic[0], cyclic[0][0])
    return "progressing", None


# Independent oracle for the statistics of interp.eval_proof: the rules
# read as equations, one Python call per expansion, with a memo entry
# for every (node, normals, safes) key once its value is known.  A
# memo hit still counts as a step.  The memo keys counted are those
# whose expansion began, finished or not, which is the table's size on
# a run that returns.  Premises run left to right, and
# srec computes its recursive value before the step premise.  The
# recursion is Python's, so keep inputs and cycles short.


def ref_proof_stats(graph: ProofGraph, normals, safes, memo: bool = True, fuel=None, oracles=None) -> tuple:
    """(value, steps, memo keys begun, memo hits) of the sub-proof at the
    root.  Past ``fuel`` steps the value is None and the counts are those
    when the next step would have begun.  Oracle leaves call the functions
    that ``oracles`` (an ``OracleEnv``) names."""
    return _ref_proof_run(graph, normals, safes, memo, fuel, oracles)[:4]


def ref_proof_outcome(graph: ProofGraph, normals, safes, memo: bool = True, fuel=None) -> tuple:
    """(value, steps, memo keys begun) as ``ref_proof_stats`` gives them,
    with the text of the ``FuelExhausted`` that ``interp.eval_proof``
    raises in place of the value when fuel runs out: it names the node
    whose step would have begun."""
    value, steps, keys, _, refused = _ref_proof_run(graph, normals, safes, memo, fuel, None)
    return (f"fuel exhausted while expanding {refused}" if refused is not None else value), steps, keys


def _ref_proof_run(graph: ProofGraph, normals, safes, memo: bool, fuel, oracles) -> tuple:
    """``ref_proof_stats``'s counts and the node whose step fuel refused, or None."""
    table: dict = {}
    begun: set = set()
    count = {"steps": 0, "hits": 0}

    def ev(n, xs, ys):
        if count["steps"] == fuel:
            raise _OutOfFuel(n)
        count["steps"] += 1
        key = (n, xs, ys)
        if memo:
            if key in table:
                count["hits"] += 1
                return table[key]
            begun.add(key)
        node = graph.nodes[n]
        kind, pr, pos = node.rule.kind, node.premises, node.rule.pos
        if kind is RuleKind.ID:
            v = ys[0]
        elif kind is RuleKind.ZERO:
            v = 0
        elif kind is RuleKind.ORACLE:
            v = oracles.lookup(node.rule.oracle).fn(xs, ys)
        elif kind in (RuleKind.S0, RuleKind.S1):
            v = 2 * ev(pr[0], xs, ys) + (kind is RuleKind.S1)
        elif kind is RuleKind.WEAK_N:
            v = ev(pr[0], xs, ys[:-1])
        elif kind is RuleKind.WEAK_B:
            v = ev(pr[0], xs[1:], ys)
        elif kind is RuleKind.EXCH_N:
            v = ev(pr[0], xs, ys[:pos] + (ys[pos + 1], ys[pos]) + ys[pos + 2 :])
        elif kind is RuleKind.EXCH_B:
            v = ev(pr[0], xs[:pos] + (xs[pos + 1], xs[pos]) + xs[pos + 2 :], ys)
        elif kind is RuleKind.BOX_L:
            v = ev(pr[0], xs[1:], ys + xs[:1])
        elif kind is RuleKind.BOX_R:
            v = ev(pr[0], xs, ys)
        elif kind is RuleKind.CUT_N:
            v = ev(pr[1], xs, ys + (ev(pr[0], xs, ys),))
        elif kind is RuleKind.CUT_B:
            v = ev(pr[1], (ev(pr[0], xs, ys),) + xs, ys)
        elif kind is RuleKind.COND_N:
            w, rest = ys[-1], ys[:-1]
            v = ev(pr[0], xs, rest) if w == 0 else ev(pr[1 + w % 2], xs, rest + (w // 2,))
        elif kind is RuleKind.COND_B:
            x, rest = xs[0], xs[1:]
            v = ev(pr[0], rest, ys) if x == 0 else ev(pr[1 + x % 2], (x // 2,) + rest, ys)
        elif kind is RuleKind.SREC:
            x, rest = xs[0], xs[1:]
            if x == 0:
                v = ev(pr[0], rest, ys)
            else:
                below = ev(n, (x // 2,) + rest, ys)
                v = ev(pr[1 + x % 2], (x // 2,) + rest, ys + (below,))
        else:
            raise EvalError(f"rule {kind.value} has no reference semantics")
        if memo:
            table[key] = v
        return v

    try:
        value, refused = ev(graph.root, tuple(normals), tuple(safes)), None
    except _OutOfFuel as out:
        value, refused = None, out.args[0]
    return value, count["steps"], len(begun), count["hits"], refused


class _OutOfFuel(Exception):
    pass


# Independent oracle for interp.eval_term and interp.eval_pp: the term
# semantics read literally, one Python call per step, with recursion
# names bound in a chain of dicts (innermost first) over the host
# oracles.  A program function's body sees the host oracles only.  No
# fuel, memo or statistics; the recursion is Python's, so keep inputs
# to a few dozen bits.


def ref_env(defs=()) -> ChainMap:
    """Host oracles, from OracleDefs, as name -> (normals, safes, fn)."""
    return ChainMap({d.name: (d.normals, d.safes, d.fn) for d in defs})


def _descends(us, vs, frame, safes: bool) -> bool:
    """The guard: tuples of other lengths than the frame's fail it."""
    if len(us) != len(frame[0]) or tuple_order(us, frame[0])[0] is not TupleOrder.SUBSET_STRICT:
        return False
    return not safes or len(vs) == len(frame[1]) and tuple_order(vs, frame[1])[0] is not TupleOrder.NOT_RELATED


def ref_eval(t, xs, ys, env, run=None, frame=None):
    """Value of term ``t`` at tuples ``xs``, ``ys``; ``run`` is
    (program, host env, strict guards) inside programs, ``frame`` the
    arguments of the innermost program call."""

    def ev(u, a=xs, b=ys, e=env):
        return ref_eval(u, a, b, e, run, frame)

    if isinstance(t, Zero):
        return 0
    if isinstance(t, Proj):
        seq = xs if t.sort == "n" else ys
        if t.index >= len(seq):
            raise EvalError(f"projection {t.sort}{t.index} out of range")
        return seq[t.index]
    if isinstance(t, (S0, S1)):
        return 2 * ev(t.t) + isinstance(t, S1)
    if isinstance(t, Pred):
        return ev(t.t) >> 1
    if isinstance(t, Cond):
        w = ev(t.w)
        return ev(t.x if w == 0 else t.y if w % 2 == 0 else t.z)
    if isinstance(t, OracleCall):
        if t.name not in env:
            raise EvalError(f"unknown oracle {t.name!r}")
        m, n, fn = env[t.name]
        us, vs = tuple(ev(a) for a in t.normal_args), tuple(ev(a) for a in t.safe_args)
        if (len(us), len(vs)) != (m, n):
            raise EvalError(f"oracle {t.name!r} arity mismatch")
        return fn(us, vs)
    if isinstance(t, Call):
        if run is None:
            raise EvalError("named calls only occur inside programs")
        prog, host, strict = run
        us, vs = tuple(ev(a) for a in t.normal_args), tuple(ev(a) for a in t.safe_args)
        if t.guard is not None and not _descends(us, vs, frame, t.guard == "strict_safe"):
            if strict:
                raise GuardViolation(t.name)
            return 0
        return ref_eval(prog.functions[t.name].body, us, vs, host, run, (us, vs))
    if isinstance(t, CompSafe):
        return ev(t.h, xs, ys + (ev(t.g),))
    if isinstance(t, CompNormal):
        return ev(t.h, xs + (ev(t.g, xs, ()),), ys)
    if isinstance(t, (SRecN, SNRec)):
        if xs[0] == 0:
            return ev(t.g, xs[1:])
        rest = (xs[0] >> 1,) + xs[1:]
        if isinstance(t, SRecN):
            below = ev(t, rest)
            return ev(t.h1 if xs[0] % 2 else t.h0, rest, ys + (below,))
        rec = (0, len(ys), lambda us, vs: ev(t, rest, tuple(vs)))
        return ev(t.h, rest, ys, env.new_child({t.rec_name: rec}))
    if isinstance(t, (SRecPP, SNRecPP, SimRecPP)):
        safes = t.guard_safes if isinstance(t, SimRecPP) else isinstance(t, SRecPP)

        def rec(j):
            def call(us, vs):
                if not _descends(tuple(us), tuple(vs), (xs, ys), safes):
                    return 0
                again = t if j is None else SimRecPP(t.hs, j, t.guard_safes)
                return ev(again, tuple(us), tuple(vs))

            return (len(xs), len(ys), call)

        if isinstance(t, SimRecPP):
            names = {f"rec{j + 1}": rec(j) for j in range(len(t.hs))}
            return ev(t.hs[t.select], xs, ys, env.new_child(names))
        return ev(t.h, xs, ys, env.new_child({t.rec_name: rec(None)}))
    if isinstance(t, TagDispatch):
        tag = ys[len(ys) - t.tag_width :]
        return next((ev(body) for want, body in t.cases if tag == want), 0)
    raise EvalError(f"cannot evaluate {t!r}")


def ref_pp(prog, fname, xs, ys, defs=(), strict=False):
    """Function ``fname`` of ``prog`` at ``xs``, ``ys``; guards fail to 0,
    or raise GuardViolation when ``strict``."""
    host = ref_env(defs)
    xs, ys = tuple(xs), tuple(ys)
    return ref_eval(prog.functions[fname].body, xs, ys, host, (prog, host, strict), (xs, ys))


def ref_calls(term) -> list:
    """Every Call inside ``term``, at each of its places, in pre-order,
    read off the dataclass fields (not through ``interp.children``), on
    an explicit stack."""
    out, stack = [], [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Call):
            out.append(t)
        kids = []
        for f in dataclasses.fields(t):
            v = getattr(t, f.name)
            for x in v if isinstance(v, tuple) else (v,):
                x = x[1] if isinstance(x, tuple) else x  # a TagDispatch case is (tags, body)
                if isinstance(x, Term):
                    kids.append(x)
        stack.extend(reversed(kids))
    return out


# Reference for the memo policy of interp.eval_pp, which keeps memo
# entries only for calls of some functions: the same machine with the
# policy patched to keep an entry for every call.


def memo_everywhere(prog):
    """A copy of ``prog`` whose ``eval_pp`` runs keep a memo entry for
    every call, in either guard mode."""
    copy = PPProgram(dict(prog.functions), prog.guard)
    copy._code = _ProgramCode(copy.functions)
    copy._code.keep = frozenset(copy.functions)
    return copy


def pp_outcome(prog, fname, env, xs, ys, cfg) -> tuple:
    """The value of ``eval_pp`` (or the type of the exception it raised
    for want of fuel or at a guard) and its ``EvalStats``."""
    stats = EvalStats()
    try:
        got = eval_pp(prog, fname, env, xs, ys, cfg, stats)
    except (FuelExhausted, GuardViolation) as e:
        got = type(e)
    return got, stats


# Independent oracle for circsafe.bounds: bound synthesis, expression
# evaluation, the polynomial test and the printer, each by structural
# recursion on Python's stack, with ``ref_bears`` rescanning every
# subterm it is asked about.  Quadratic and depth-limited: keep terms
# small.


def ref_bears(term) -> bool:
    """Does ``term`` contain an oracle or program call?"""
    return isinstance(term, (OracleCall, Call)) or any(ref_bears(c) for c in children(term))


def ref_synthesize_bound(term):
    from circsafe.bounds import INITIAL, BoundPair, Const, Subst, Var, _recursion_bound, badd

    if isinstance(term, (Zero, Proj)):
        return INITIAL
    if isinstance(term, (S0, S1, Pred)):
        sub = ref_synthesize_bound(term.t)
        return BoundPair(badd(badd(Const(1), Var()), sub.e), sub.d)
    if isinstance(term, Cond):
        subs = [ref_synthesize_bound(t) for t in (term.w, term.x, term.y, term.z)]
        e = badd(Const(1), Var())
        for s in subs:
            e = badd(e, s.e)
        return BoundPair(e, max(s.d for s in subs))
    if isinstance(term, TagDispatch):
        subs = [ref_synthesize_bound(b) for _, b in term.cases]
        e = badd(Const(1), Var())
        for s in subs:
            e = badd(e, s.e)
        return BoundPair(e, max([s.d for s in subs], default=1))
    if isinstance(term, (OracleCall, Call)):
        e = Const(0)
        d = 1
        for a in term.safe_args:
            s = ref_synthesize_bound(a)
            e = badd(e, s.e)
            if ref_bears(a):
                d += s.d
        for a in term.normal_args:
            s = ref_synthesize_bound(a)
            e = badd(e, s.e)
        return BoundPair(e, d)
    if isinstance(term, CompSafe):
        h, g = ref_synthesize_bound(term.h), ref_synthesize_bound(term.g)
        hb, gb = ref_bears(term.h), ref_bears(term.g)
        if hb and gb:
            d = h.d + g.d
        elif hb:
            d = h.d
        elif gb:
            d = g.d
        else:
            d = 1
        return BoundPair(badd(h.e, g.e), d)
    if isinstance(term, CompNormal):
        h, g = ref_synthesize_bound(term.h), ref_synthesize_bound(term.g)
        return BoundPair(Subst(h.e, badd(Var(), g.e)), h.d)
    if isinstance(term, SRecN):
        g = ref_synthesize_bound(term.g)
        h0 = ref_synthesize_bound(term.h0)
        h1 = ref_synthesize_bound(term.h1)
        step_e = badd(badd(badd(Const(1), Var()), g.e), badd(h0.e, h1.e))
        step_d = max(g.d, h0.d + (1 if ref_bears(term.h0) else 0), h1.d + (1 if ref_bears(term.h1) else 0))
        return _recursion_bound(BoundPair(step_e, step_d))
    if isinstance(term, SNRec):
        g = ref_synthesize_bound(term.g)
        h = ref_synthesize_bound(term.h)
        step = BoundPair(badd(badd(badd(Const(1), Var()), g.e), h.e), max(g.d, h.d))
        return _recursion_bound(step)
    if isinstance(term, (SRecPP, SNRecPP)):
        return _recursion_bound(ref_synthesize_bound(term.h))
    if isinstance(term, SimRecPP):
        subs = [ref_synthesize_bound(h) for h in term.hs]
        e = badd(Const(1), Var())
        for s in subs:
            e = badd(e, s.e)
        return _recursion_bound(BoundPair(e, max(s.d for s in subs)))
    raise TypeError(f"no bound rule for {type(term).__name__}")


def ref_beval(e, n: int) -> int:
    from circsafe.bounds import Add, Const, Mul, Pow, Subst, Var

    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return n
    if isinstance(e, Add):
        return ref_beval(e.left, n) + ref_beval(e.right, n)
    if isinstance(e, Mul):
        return ref_beval(e.left, n) * ref_beval(e.right, n)
    if isinstance(e, Pow):
        return ref_beval(e.base, n) ** ref_beval(e.exp, n)
    if isinstance(e, Subst):
        return ref_beval(e.outer, ref_beval(e.inner, n))
    raise TypeError(e)


def ref_is_polynomial(e) -> bool:
    from circsafe.bounds import Add, Const, Mul, Pow, Subst, Var

    if isinstance(e, Pow):
        return False
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, (Add, Mul)):
        return ref_is_polynomial(e.left) and ref_is_polynomial(e.right)
    if isinstance(e, Subst):
        return ref_is_polynomial(e.outer) and ref_is_polynomial(e.inner)
    raise TypeError(e)


def ref_bound_str(e) -> str:
    from circsafe.bounds import Add, Const, Mul, Pow, Subst, Var

    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Var):
        return "n"
    if isinstance(e, Add):
        return f"({ref_bound_str(e.left)} + {ref_bound_str(e.right)})"
    if isinstance(e, Mul):
        return f"({ref_bound_str(e.left)} * {ref_bound_str(e.right)})"
    if isinstance(e, Pow):
        return f"({ref_bound_str(e.base)} ^ {ref_bound_str(e.exp)})"
    if isinstance(e, Subst):
        return f"({ref_bound_str(e.outer)} @ n={ref_bound_str(e.inner)})"
    raise TypeError(e)
