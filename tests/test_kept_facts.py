"""Graphs and programs are immutable values that keep what is derived
from them: writes raise, a rebuilt graph or program derives its own
facts, each command runs each graph pass at most as often as it must,
and no result depends on which call derived a kept fact first."""

import contextlib
import copy
import io
import pickle
import sys
from dataclasses import FrozenInstanceError, replace

import pytest
from conftest import chain_graph, loop_graph, nest_graph

from circsafe import checker, cli, kernel, transform
from circsafe.checker import check_left_leaning, check_progressing_safe, check_safety, classify
from circsafe.corpus import proof
from circsafe.formats import classification_json, parse_proof, serialize_program, serialize_proof
from circsafe.interp import (
    EvalConfig, EvalStats, FuelExhausted, PPFunction, PPProgram, Proj, S0, _program_code, eval_pp, eval_proof,
)
from circsafe.kernel import ProofGraph
from circsafe.transform import TransformError, cnf_to_graph, cycle_normal_form
from circsafe.translate import TranslateError, translate

CORPUS = ("I", "S", "C", "E", "P", "L", "N", "EPRIME", "P_UNSAFE", "N_UNSAFE")


def _graphs() -> dict:
    graphs = {name: proof(name) for name in CORPUS}
    graphs.update(chain=chain_graph([1, 0, 1, 1]), loop=loop_graph([0, 1], [1, 1, 0]), nest=nest_graph(4))
    return graphs


def test_writes_raise():
    g = proof("S")
    with pytest.raises(TypeError):
        g.nodes["n0"] = g.nodes["n1"]
    with pytest.raises(TypeError):
        del g.nodes["n0"]
    with pytest.raises(FrozenInstanceError):
        g.root = "n1"
    with pytest.raises(FrozenInstanceError):
        g.nodes = {}
    prog = translate(g)
    with pytest.raises(TypeError):
        prog.functions["main"] = prog.functions["f0"]
    with pytest.raises(FrozenInstanceError):
        prog.guard = "strict"
    # the mapping a graph or program is built from stays the caller's
    nodes = dict(g.nodes)
    built = ProofGraph(g.name, g.root, nodes)
    nodes.clear()
    assert built == g and len(built.nodes) == len(g.nodes)


def test_copies_and_pickles_rebuild_with_nothing_kept():
    g = proof("S")
    prog = translate(g)
    assert eval_pp(prog, "main", None, [41], []) == eval_proof(g, g.root, [41], []) == 42
    for original in (g, prog):
        for roundtrip in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            copied = roundtrip(original)
            assert copied == original and "_kept" not in copied.__dict__
    with pytest.raises(TypeError):
        copy.deepcopy(g).nodes["n0"] = g.nodes["n1"]
    assert eval_pp(pickle.loads(pickle.dumps(prog)), "main", None, [41], []) == 42


def test_a_rebuilt_graph_derives_its_own_facts():
    """S with its loop's cut taking the box-left instead of the loop: the
    copy is acyclic and its cycle normal form has no buds, while S keeps
    its own cycle, verdict and normal form; each classifies as a fresh
    parse of it does."""
    g = proof("S")
    before = (classify(g), serialize_proof(cnf_to_graph(cycle_normal_form(g))))
    assert cycle_normal_form(g).buds
    changed = ProofGraph(g.name, g.root, {**g.nodes, "n5": replace(g.nodes["n5"], premises=("n4", "n6"))})
    assert not cycle_normal_form(changed).buds and kernel._has_cycles(g) and not kernel._has_cycles(changed)
    assert classify(changed) == classify(parse_proof(serialize_proof(changed)))
    assert (classify(g), serialize_proof(cnf_to_graph(cycle_normal_form(g)))) == before
    # a root moved to a premise gives another reachable part
    moved = replace(g, root="n5")
    assert kernel._reached(moved) == moved.reachable() != g.reachable() == kernel._reached(g)
    assert classify(moved) == classify(parse_proof(serialize_proof(moved)))


def test_a_rebuilt_program_compiles_afresh():
    x0 = Proj("n", 0)
    prog = PPProgram({"f": PPFunction("f", 1, 0, S0(x0))})
    assert eval_pp(prog, "f", None, [3], []) == 6
    code = _program_code(prog)
    assert _program_code(prog) is code
    again = PPProgram(prog.functions, prog.guard)
    assert again == prog and _program_code(again) is not code
    other = PPProgram({"f": PPFunction("f", 1, 0, S0(S0(x0)))})
    assert eval_pp(other, "f", None, [3], []) == 12 and eval_pp(prog, "f", None, [3], []) == 6


# -- graph passes per command -----------------------------------------------

PASSES = ("reachable", "sccs", "has_cycle", "validate_step", "bisimulation_classes", "_shortest_cycle_through")


def _most_passes(cmd: str, g: ProofGraph) -> dict:
    """The most passes each command may run on ``g``: one BFS, one
    ``validate_step`` per reachable node, one Tarjan pass, Hopcroft
    only on cyclic graphs; the progress check's peel (``has_cycle``)
    only on safe graphs, and ``translate``'s second ``sccs``, over the
    program's call graph, only for accepted proofs; one witness search
    for an unsafe graph and one for a safe graph that does not
    progress."""
    cl = classify(ProofGraph(g.name, g.root, g.nodes))
    cyclic = kernel.has_cycle({n: g.nodes[n].premises for n in g.reachable()})
    accepted = cl.cls in ("CB", "CNB")
    witnesses = (int(cl.valid and not cl.safe) + int(cl.progressing is False)) * (cmd in ("check", "translate"))
    return {
        "check": dict(reachable=1, sccs=1, has_cycle=int(cl.safe), bisimulation_classes=0),
        "cyclenf": dict(reachable=1, sccs=0, has_cycle=1, bisimulation_classes=int(cyclic)),
        "translate": dict(reachable=1, sccs=1 + accepted, has_cycle=int(cl.safe),
                          bisimulation_classes=int(accepted and cyclic)),
        "eval": dict(reachable=1, sccs=0, has_cycle=0, bisimulation_classes=0),
    }[cmd] | {"validate_step": len(g.reachable()), "_shortest_cycle_through": witnesses}


def test_each_command_runs_each_graph_pass_at_most_as_often_as_it_must(monkeypatch, tmp_path):
    counts: dict = {}

    def counted(name, real):
        def run(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)
        return run

    graphs = _graphs()
    limits = {(cmd, name): _most_passes(cmd, g) for name, g in graphs.items()
              for cmd in ("check", "cyclenf", "translate", "eval")}
    # every module that binds a pass by name counts through the same wrapper
    mods = [m for n, m in sorted(sys.modules.items()) if n == "circsafe" or n.startswith("circsafe.")]
    for fn in ("sccs", "has_cycle"):
        real = getattr(kernel, fn)
        for mod in mods:
            if getattr(mod, fn, None) is real:
                monkeypatch.setattr(mod, fn, counted(fn, real))
    for mod, fn in ((kernel, "validate_step"), (transform, "bisimulation_classes"), (ProofGraph, "reachable"),
                    (checker, "_shortest_cycle_through")):
        monkeypatch.setattr(mod, fn, counted(fn, getattr(mod, fn)))
    for name, g in graphs.items():
        path = tmp_path / f"{name}.proof"
        path.write_text(serialize_proof(g))
        seq = g.nodes[g.root].sequent
        inputs = ["--normals", ",".join(["5"] * seq.boxed), "--safes", ",".join(["3"] * seq.plain), "--fuel", "2000"]
        for cmd in ("check", "cyclenf", "translate", "eval"):
            counts.clear()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main([cmd, str(path)] + (inputs if cmd == "eval" else []))
            most = limits[cmd, name]
            assert all(counts.get(p, 0) <= most[p] for p in PASSES), (cmd, name, counts, most)


# -- kept facts do not depend on call order ---------------------------------


def _outcome(call):
    try:
        return call()
    except (TransformError, TranslateError) as e:
        return type(e).__name__, str(e)


def _run(g: ProofGraph, xs, ys, memo: bool):
    stats = EvalStats()
    try:
        value = eval_proof(g, g.root, xs, ys, EvalConfig(fuel=5000, memo=memo), None, stats)
    except FuelExhausted as e:
        value = str(e)
    return value, stats


def _calls(g: ProofGraph) -> list:
    """Each call on ``g`` with the output it is compared by."""
    seq = g.nodes[g.root].sequent
    inputs = [([5] * seq.boxed, [3] * seq.plain), ([2**12 - 1] * seq.boxed, [0b1011] * seq.plain)]
    calls = [
        ("classify", lambda: classification_json(classify(g))),
        ("safety", lambda: check_safety(g)),
        ("left leaning", lambda: check_left_leaning(g)),
        ("progress", lambda: check_progressing_safe(g)),
        ("cnf", lambda: _outcome(lambda: serialize_proof(cnf_to_graph(cycle_normal_form(g))))),
        ("translate", lambda: _outcome(lambda: serialize_program(translate(g), g.name))),
    ]
    for memo in (True, False):
        for xs, ys in inputs:
            calls.append((f"eval {xs} {ys} memo={memo}", lambda xs=xs, ys=ys, memo=memo: _run(g, xs, ys, memo)))
    return calls


@pytest.mark.parametrize("name", sorted(_graphs()))
def test_kept_facts_do_not_depend_on_call_order(name):
    text = serialize_proof(_graphs()[name])
    # each call on a graph of its own, then all on one graph, forwards and backwards
    want = {what: dict(_calls(parse_proof(text)))[what]() for what, _ in _calls(parse_proof(text))}
    for order in (1, -1):
        shared = parse_proof(text)
        assert {what: call() for what, call in _calls(shared)[::order]} == want, (name, order)
