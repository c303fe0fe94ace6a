"""Canonicity, cross-mode agreement, process-level determinism."""

import random
import subprocess
import sys
from pathlib import Path

from conftest import sample_two_sorted

from circsafe.compilealg import _Graph, _compile
from circsafe.corpus import term_corpus
from circsafe.interp import (
    REC,
    EvalConfig,
    OracleDef,
    OracleEnv,
    eval_pp,
    eval_proof,
)
from circsafe.kernel import Node, ProofGraph
from circsafe.transform import cycle_normal_form, pass_parameters
from circsafe.translate import MAIN, translate

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _rename(g: ProofGraph, seed: int) -> ProofGraph:
    rng = random.Random(seed)
    ids = sorted(g.nodes)
    perm = ids[:]
    rng.shuffle(perm)
    ren = dict(zip(ids, (f"z{p}" for p in perm)))
    nodes = {
        ren[k]: Node(v.rule, v.sequent, tuple(ren[p] for p in v.premises))
        for k, v in g.nodes.items()
    }
    return ProofGraph(g.name, ren[g.root], nodes)


def test_cycle_nf_canonical_under_renaming(proofs):
    for name, g in proofs.items():
        base = cycle_normal_form(g)
        for seed in (3, 5):
            r = cycle_normal_form(_rename(g, seed))
            assert {p: (n.rule, n.sequent, n.children) for p, n in base.tree.items()} == {
                p: (n.rule, n.sequent, n.children) for p, n in r.tree.items()
            }, name
            assert base.buds == r.buds, name
            assert (base.parent, base.index) == (r.parent, r.index), name


def test_zero_fallback_mode_equals_strict_on_accepted(proofs):
    # guards of translated accepted proofs never trip, so both guard
    # modes agree everywhere sampled
    rng = random.Random(97)
    for name in ("S", "C", "E", "P", "L", "N"):
        g = proofs[name]
        prog = translate(g)
        seq = g.nodes[g.root].sequent
        for _ in range(40):
            xs, ys = sample_two_sorted(rng, seq.boxed, seq.plain, 8)
            a = eval_pp(prog, MAIN, None, xs, ys, EvalConfig(guard_mode="zero"))
            b = eval_pp(prog, MAIN, None, xs, ys, EvalConfig(guard_mode="strict"))
            assert a == b == eval_proof(g, g.root, xs, ys), name


def test_ex_step_proof_parameter_passing(terms):
    """The nested step of ex, widened: equal to the original with the
    oracle's normal input fixed to the proof's own normal."""
    ex = terms["ex"]
    g = _Graph("exh")
    root = _compile(g, ex.body.h, 1, 1, {REC: (0, 1)})
    h_graph = g.graph(root)
    out, star = pass_parameters(h_graph, REC)
    rng = random.Random(101)
    for _ in range(50):
        x = rng.getrandbits(rng.randrange(8))
        y = rng.getrandbits(rng.randrange(8))
        base = OracleEnv([OracleDef(REC, 0, 1, lambda us, vs, _x=x: 3 * vs[0] + _x)])
        wide = OracleEnv([OracleDef(star, 1, 1, lambda us, vs: 3 * vs[0] + us[0])])
        assert eval_proof(h_graph, h_graph.root, [x], [y], oracles=base) == eval_proof(
            out, out.root, [x], [y], oracles=wide
        )


def test_cli_deterministic_across_processes(tmp_path):
    """translate writes the same bytes under two hash seeds, for every
    accepted corpus proof."""
    outs = []
    for i in range(2):
        for name in ("S", "C", "E", "P", "L", "N"):
            target = tmp_path / f"{name}{i}"
            subprocess.run(
                [sys.executable, "-m", "circsafe.cli", "translate", str(CORPUS / f"{name}.proof"), "-o", str(target)],
                check=True,
                env={"PYTHONHASHSEED": str(i), "PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
            )
            outs.append(target.read_bytes())
    assert outs[:6] == outs[6:]
