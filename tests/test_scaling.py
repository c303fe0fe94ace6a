"""Graph passes at sizes past Python's recursion limit.

``check``, ``cyclenf`` and ``translate`` run on explicit stacks, so a
3200-node chain, loop or nest goes through the command line under the
default recursion limit.  ``check`` and ``translate`` number tree
positions by pre-order and build no root path, so they take time
linear in the graph (2 * 10**4 nodes below), and ``classify`` is linear
enough for 10**5 nodes.  Only ``cyclenf``'s printed position ids grow
with the square of the depth, by format: they spell the root path, so
a 10**5-node chain would print some 5 * 10**9 characters of ids.
``eval_pp`` runs the translations of 2 * 10**4-node chains and loops,
and the class check takes them in one linear pass.  ``compile`` builds
``s0``/``s1``/``p`` chains in a loop, so a 10**4-deep term goes through
the whole command-line pipeline, and through ``verify-bound``.
"""

import random
import sys
import time

import pytest
from conftest import chain_graph, loop_graph, nest_graph

from circsafe.bounds import beval, synthesize_bound
from circsafe.checker import classify
from circsafe.cli import main
from circsafe.formats import parse_proof, parse_terms, serialize_proof
from circsafe.interp import CompSafe, EvalConfig, EvalStats, OracleCall, Proj, check_term_class, eval_pp, eval_term
from circsafe.translate import MAIN, translate


def _digits(n: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(1) for _ in range(n)]


@pytest.mark.parametrize(
    "graph, cls",
    [
        (chain_graph(_digits(3199, 1)), "CB"),
        (loop_graph(_digits(1599, 2), _digits(1599, 3)), "CB"),
        (nest_graph(1067), "CNB"),
    ],
    ids=["chain3200", "loop3200", "nest3201"],
)
def test_cli_pipeline_on_3200_nodes(graph, cls, capsys, tmp_path):
    assert len(graph.nodes) == 3200 + graph.name.startswith("nest")
    limit = sys.getrecursionlimit()
    src, cnf, pp = tmp_path / "g.proof", tmp_path / "g.cnf.proof", tmp_path / "g.pp"
    src.write_text(serialize_proof(graph))
    assert main(["check", str(src)]) == 0
    assert f"class={cls}" in capsys.readouterr().out
    assert main(["cyclenf", str(src), "-o", str(cnf)]) == 0
    assert main(["translate", str(src), "-o", str(pp)]) == 0
    assert sys.getrecursionlimit() == limit
    # one node per position off the buds, plus a dis marker per
    # companion: the chain's graph nodes, the loop's and its root's
    # marker, and for nest_graph(m) 6m - 3 positions (its unfolding
    # takes the m cuts twice, once per recursing branch) and the root's
    # marker, with 2m buds pointing at the root
    folded = parse_proof(cnf.read_text())
    want = {"chain": 3200, "loop": 3201, "nest": 6 * 1067 - 2}[graph.name.rstrip("0123456789")]
    assert len(folded.nodes) == want
    guard = "strictsafe" if cls == "CB" else "strict"
    assert pp.read_text().startswith(f"program {graph.name} guard {guard}\n")


@pytest.mark.parametrize(
    "graph",
    [chain_graph(_digits(19999, 5)), loop_graph(_digits(9999, 6), _digits(9999, 7))],
    ids=["chain20000", "loop20000"],
)
def test_check_and_translate_on_20000_nodes(graph, capsys, tmp_path):
    assert len(graph.nodes) == 20000
    limit = sys.getrecursionlimit()
    src, pp = tmp_path / "g.proof", tmp_path / "g.pp"
    src.write_text(serialize_proof(graph))
    start = time.perf_counter()
    assert main(["check", str(src)]) == 0
    assert "class=CB" in capsys.readouterr().out
    assert main(["translate", str(src), "-o", str(pp)]) == 0
    elapsed = time.perf_counter() - start
    assert sys.getrecursionlimit() == limit
    assert pp.read_text().startswith(f"program {graph.name} guard strictsafe\n")
    # about 0.5 s for the chain on a 2-core x86-64 machine with CPython
    # 3.11 (min of 3 runs); root-path positions took 2.6 s for translate
    # alone at 10**4 nodes and grow with the square of the depth
    assert elapsed < 15.0, elapsed
    assert check_term_class(translate(graph), "Bpp") == []


def _written(v: int, digits) -> int:
    """``v`` with the successor steps ``digits`` applied, the first
    digit outermost (so it is the last one written)."""
    for b in reversed(digits):
        v = 2 * v + b
    return v


def test_eval_pp_on_translations_of_20000_nodes():
    """A translated chain is one 2 * 10**4-deep s0/s1 term and a
    translated loop two 10**4-deep ones above a call; each compiles to
    one prefix edit, so ``eval_pp`` runs them under the default
    recursion limit."""
    limit = sys.getrecursionlimit()
    assert limit <= 1000
    strict = EvalConfig(guard_mode="strict")
    digits = _digits(19999, 5)
    prog = translate(chain_graph(digits))
    assert eval_pp(prog, MAIN, None, [], [5], strict) == _written(5, digits)
    d0, d1 = _digits(9999, 6), _digits(9999, 7)
    prog, stats = translate(loop_graph(d0, d1)), EvalStats()
    # f(0; y) = y, f(x; y) = f(x >> 1; y) with the digits of x's low bit's branch written
    x, want = 0b1101, 3
    for bit in format(x, "b"):
        want = _written(want, d1 if bit == "1" else d0)
    assert eval_pp(prog, MAIN, None, [x], [3], strict, stats) == want
    assert stats.steps == 6  # main, then f at 13, 6, 3, 1 and 0
    assert sys.getrecursionlimit() == limit


def test_classify_on_a_100000_node_chain():
    graph = chain_graph(_digits(10**5 - 1, 4))
    start = time.perf_counter()
    cls = classify(graph)
    elapsed = time.perf_counter() - start
    assert cls.cls == "CB" and not cls.diagnostics
    # about 0.8 s on a 2-core x86-64 machine with CPython 3.11 (min of
    # 3 runs); the margin is for a loaded machine, while a pass
    # quadratic in n takes far longer at this size
    assert elapsed < 10.0, elapsed


def test_bound_of_a_10000_deep_term(capsys, tmp_path):
    doc = tmp_path / "deep.term"
    doc.write_text("def deep(0;1) = " + "s0(" * 10**4 + "y0" + ")" * 10**4 + "\n")
    limit = sys.getrecursionlimit()
    assert main(["bound", str(doc), "--name", "deep"]) == 0
    out = capsys.readouterr().out
    assert sys.getrecursionlimit() == limit
    assert out.endswith("\nd = 1\npolynomial = true\n")
    assert out.count("(1 + n)") == 10**4 + 1  # one per s0 and one for y0


def test_verify_bound_and_eval_term_of_a_10000_deep_term(capsys, tmp_path):
    # the term's code and bound are kept on the term object, so no
    # evaluation path hashes the frozen tree one level per Python frame
    doc = tmp_path / "deep.term"
    doc.write_text("def deep(0;1) = " + "s0(" * 10**4 + "y0" + ")" * 10**4 + "\n")
    assert main(["verify-bound", str(doc), "--name", "deep", "--samples", "20"]) == 0
    out = capsys.readouterr().out
    assert "samples = 20\nviolations = 0\n" in out
    term = parse_terms(doc.read_text()).terms["deep"].body
    assert eval_term(term, None, [], [5]) == 5 << 10**4 and eval_term(term, None, [], [5]).bit_length() == 10003


def test_bound_synthesis_on_a_20000_level_composition_chain():
    # both sides of every comps call an oracle, so d adds at every level
    term = OracleCall("o", (), (Proj("s", 0),))
    for _ in range(2 * 10**4):
        term = CompSafe(OracleCall("o", (), (Proj("s", 0),)), term)
    start = time.perf_counter()
    pair = synthesize_bound(term)
    elapsed = time.perf_counter() - start
    assert pair.d == 2 * 10**4 + 1 and pair.is_polynomial
    assert beval(pair.e, 3) == (2 * 10**4 + 1) * 4
    # about 0.3 s on a 2-core x86-64 machine with CPython 3.11; a pass
    # that rescans each subterm's subtree for oracle calls is quadratic
    # and would take minutes
    assert elapsed < 10.0, elapsed
    # the class check carries the same flag: every level nests in SB
    assert check_term_class(term, "SB") == ["nested safe composition: neither side is oracle-free"] * 2 * 10**4
    assert check_term_class(term, "NB") == []


def _unary_term(name: str, ops: str) -> str:
    """A term document defining ``name(0;1)`` as the chain ``ops`` of
    ``s0``/``s1``/``p`` (one letter each, ``0``/``1``/``p``, the first
    outermost) over ``y0``."""
    chain = "".join({"0": "s0(", "1": "s1(", "p": "p("}[c] for c in ops)
    return f"def {name}(0;1) = {chain}y0{')' * len(ops)}\n"


def _unary_value(ops: str, y: int) -> int:
    for c in reversed(ops):
        y = y >> 1 if c == "p" else 2 * y + int(c)
    return y


def test_cli_pipeline_on_a_10000_deep_term(capsys, tmp_path):
    digits = _digits(10**4, 8)
    doc, proof, pp = tmp_path / "deep.term", tmp_path / "deep.proof", tmp_path / "deep.pp"
    doc.write_text(_unary_term("deep", "".join(map(str, digits))))
    limit = sys.getrecursionlimit()
    assert limit <= 1000
    assert main(["compile", str(doc), "--name", "deep", "-o", str(proof)]) == 0
    assert main(["check", str(proof)]) == 0
    assert "class=CB" in capsys.readouterr().out
    assert main(["eval", str(proof), "--safes", "5"]) == 0
    assert int(capsys.readouterr().out) == _written(5, digits)
    assert main(["translate", str(proof), "-o", str(pp)]) == 0
    assert main(["eval-pp", str(pp), "--safes", "5", "--guard-mode", "strict"]) == 0
    assert int(capsys.readouterr().out) == _written(5, digits)
    assert sys.getrecursionlimit() == limit


def test_compile_and_eval_of_a_10000_deep_chain_with_predecessors(capsys, tmp_path):
    rng = random.Random(9)
    # ends in p(y0), the predecessor of the last safe, compiled without a cut
    ops = "".join(rng.choice("01p") for _ in range(10**4 - 1)) + "p"
    doc, proof = tmp_path / "deep.term", tmp_path / "deep.proof"
    doc.write_text(_unary_term("deep", ops))
    limit = sys.getrecursionlimit()
    assert limit <= 1000
    assert main(["compile", str(doc), "--name", "deep", "-o", str(proof)]) == 0
    y = (1 << 300) - 12345
    assert main(["eval", str(proof), "--safes", str(y)]) == 0
    assert int(capsys.readouterr().out) == _unary_value(ops, y)
    assert sys.getrecursionlimit() == limit
