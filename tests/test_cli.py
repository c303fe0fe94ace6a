"""Exit-code contract and determinism of the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import chain_graph, s_program

from circsafe.checker import classify
from circsafe.cli import main
from circsafe.formats import parse_proof, parse_terms, serialize_proof
from circsafe.interp import eval_proof, eval_term

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_s_cb(capsys):
    code, out, _ = run(capsys, "check", CORPUS / "S.proof", "--system", "cb")
    assert code == 0 and "class=CB" in out


def test_check_e_cb_rejected(capsys):
    code, out, _ = run(capsys, "check", CORPUS / "E.proof", "--system", "cb")
    assert code == 1
    assert "left_leaning=False" in out and "witness" in out


def test_check_e_cnb_accepted(capsys):
    code, _, _ = run(capsys, "check", CORPUS / "E.proof", "--system", "cnb")
    assert code == 0


def test_check_writes_json(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "check", CORPUS / "I.proof", "--system", "cnb", "--json", target)
    assert code == 1
    data = json.loads(target.read_text())
    assert data["class"] == "none" and data["safe"] is False
    assert data["progressing"] == "unknown"
    assert set(data) == {"name", "valid", "safe", "left_leaning", "progressing", "class", "diagnostics"}


def test_check_malformed_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.proof"
    bad.write_text("proof x root a\nnode a : wurble seq => N premises []\n")
    code, _, err = run(capsys, "check", bad)
    assert code == 2 and "error" in err


def test_check_invalid_graph_json_schema(capsys, tmp_path):
    bad = tmp_path / "invalid.proof"
    bad.write_text("proof x root a\nnode a : id seq bN => N premises []\n")
    target = tmp_path / "r.json"
    code, _, _ = run(capsys, "check", bad, "--json", target)
    assert code == 2
    data = json.loads(target.read_text())
    assert data["valid"] is False and data["class"] == "none"
    assert set(data) == {"name", "valid", "safe", "left_leaning", "progressing", "class", "diagnostics"}


def test_eval_s(capsys):
    code, out, _ = run(capsys, "eval", CORPUS / "S.proof", "--normals", "7")
    assert code == 0 and out.strip() == "8"


def test_eval_i_fuel(capsys):
    code, out, _ = run(capsys, "eval", CORPUS / "I.proof", "--normals", "1", "--fuel", "1000")
    assert code == 1 and out.strip() == "fuel-exhausted"


def test_eval_c(capsys):
    code, out, _ = run(capsys, "eval", CORPUS / "C.proof", "--normals", "2,3", "--safes", "1")
    assert code == 0 and out.strip() == "30"


def test_values_past_the_str_digit_cap(capsys, tmp_path):
    """Values of over 4300 decimal digits, CPython's default cap on int
    conversion, are read and printed in full, and the cap is the same
    after ``main`` as before, whatever the exit code."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, "eval", CORPUS / "N.proof", "--normals", "16000")
    assert (code, err, len(out.strip())) == (0, "", 4817)
    assert int(out.strip()[-40:]) == pow(2, 16000, 10**40) - 1
    ident = tmp_path / "ident.term"
    ident.write_text("program t guard strict\nfn main(0;1) = y0\n")
    for value in ("7" * 5000, out.strip()):
        code, out2, err = run(capsys, "eval-pp", ident, "--safes", value)
        assert (code, err, out2) == (0, "", value + "\n")
    code, _, _ = run(capsys, "eval", CORPUS / "N.proof", "--normals", "x")
    assert code == 2 and getattr(sys, "get_int_max_str_digits", lambda: None)() == cap


def test_compile_then_check_pipeline(capsys, tmp_path):
    proof = tmp_path / "ex.proof"
    code, _, _ = run(capsys, "compile", CORPUS / "terms.term", "--name", "ex", "--target", "circular", "-o", proof)
    assert code == 0
    code, out, _ = run(capsys, "check", proof, "--system", "cnb")
    assert code == 0 and "class=CNB" in out


def test_compile_bare_recursive_step(capsys, tmp_path):
    # a step that is the recursive call itself: the loop head is its own step
    src = tmp_path / "t.term"
    src.write_text("def t(1;0) = snrec(0,rec())\n")
    proof = tmp_path / "t.proof"
    code, _, _ = run(capsys, "compile", src, "--name", "t", "-o", proof)
    assert code == 0
    graph = parse_proof(proof.read_text())
    assert classify(graph).cls == "CB"
    td = parse_terms(src.read_text()).terms["t"]
    for x in range(32):
        assert eval_proof(graph, graph.root, [x], []) == eval_term(td.body, None, [x], []), x


def test_compile_names_the_proof_after_the_term(capsys, tmp_path):
    src = tmp_path / "t.term"
    src.write_text("def a_deriv_b(0;1) = s0(y0)\n")
    code, out, _ = run(capsys, "compile", src, "--name", "a_deriv_b")
    assert code == 0 and out.startswith("proof a_deriv_b_circ root ")


def test_translate_then_eval_pp(capsys, tmp_path):
    prog = tmp_path / "S.pp"
    code, _, _ = run(capsys, "translate", CORPUS / "S.proof", "-o", prog)
    assert code == 0
    code, out, _ = run(capsys, "eval-pp", prog, "--normals", "9", "--guard-mode", "strict")
    assert code == 0 and out.strip() == "10"


def test_translate_rejects_unaccepted(capsys, tmp_path):
    code, _, err = run(capsys, "translate", CORPUS / "I.proof", "-o", tmp_path / "x.pp")
    assert code == 1 and "rejected" in err


def test_cyclenf_dis_annotations(capsys, tmp_path):
    out_proof = tmp_path / "C.cnf.proof"
    dot = tmp_path / "C.dot"
    code, _, _ = run(capsys, "cyclenf", CORPUS / "C.proof", "--dot", dot, "-o", out_proof)
    assert code == 0
    text = out_proof.read_text()
    assert sum(1 for line in text.splitlines() if " dis(" in line) == 2
    assert dot.read_text().startswith("digraph")


def test_bound_and_verify(capsys, tmp_path):
    code, out, _ = run(capsys, "bound", CORPUS / "terms.term", "--name", "ex")
    assert code == 0 and "d = 2" in out and "polynomial = false" in out
    code, out, _ = run(
        capsys, "verify-bound", CORPUS / "terms.term", "--name", "append", "--samples", "50", "--seed", "9"
    )
    assert code == 0 and "violations = 0" in out
    for samples in ("-5", "0"):
        code, out, err = run(capsys, "verify-bound", CORPUS / "terms.term", "--name", "ex", "--samples", samples)
        assert (code, out) == (2, "") and f"samples must be at least 1, got {samples}" in err


def test_export_dot(capsys, tmp_path):
    target = tmp_path / "S.dot"
    code, _, _ = run(capsys, "export-dot", CORPUS / "S.proof", "-o", target)
    assert code == 0 and "digraph" in target.read_text()


def test_outputs_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "translate", CORPUS / "C.proof", "-o", a)
    run(capsys, "translate", CORPUS / "C.proof", "-o", b)
    assert a.read_bytes() == b.read_bytes()
    a2, b2 = tmp_path / "a2", tmp_path / "b2"
    run(capsys, "verify-bound", CORPUS / "terms.term", "--name", "append", "--samples", "30", "--seed", "4", "--json", a2)
    run(capsys, "verify-bound", CORPUS / "terms.term", "--name", "append", "--samples", "30", "--seed", "4", "--json", b2)
    assert a2.read_bytes() == b2.read_bytes()


def test_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, "check", "no/such/file.proof")
    assert code == 2


def test_check_invalid_graph_exact_output(capsys, tmp_path):
    bad = tmp_path / "invalid.proof"
    bad.write_text(
        "proof x root a\nnode a : id seq bN => N premises []\nnode b : zero seq => N premises []\n"
    )
    target = tmp_path / "r.json"
    code, out, _ = run(capsys, "check", bad, "--json", target)
    assert code == 2
    assert out == "x: invalid (a: id concludes N => N, got bN => N)\n"
    assert target.read_text() == (
        "{\n"
        '  "class": "none",\n'
        '  "diagnostics": [\n'
        '    "a: id concludes N => N, got bN => N",\n'
        '    "b: unreachable from root"\n'
        "  ],\n"
        '  "left_leaning": false,\n'
        '  "name": "x",\n'
        '  "progressing": "unknown",\n'
        '  "safe": false,\n'
        '  "valid": false\n'
        "}\n"
    )


def test_parser_keeps_no_state_between_calls(capsys, tmp_path):
    target = tmp_path / "r.json"
    code, _, _ = run(capsys, "check", CORPUS / "S.proof", "--json", target)
    assert code == 0 and target.exists()
    target.unlink()
    code, out, _ = run(capsys, "check", CORPUS / "S.proof")
    assert code == 0 and not target.exists() and "{" not in out


def test_eval_pp_past_the_recursion_limit_is_no_traceback(capsys, tmp_path):
    """A 400-bit all-ones input nests about 400 program calls in the
    translated S program, which run on eval-pp's own stack: the result
    is its value."""
    prog = tmp_path / "S.pp"
    code, _, _ = run(capsys, "translate", CORPUS / "S.proof", "-o", prog)
    assert code == 0
    x = 2**400 - 1
    code, out, err = run(capsys, "eval-pp", prog, "--normals", x)
    assert (code, err) == (0, "")
    assert int(out) == s_program(x)


def test_translated_799_node_chain_evaluates(capsys, tmp_path):
    """``translate`` writes a term nested ~800 deep for this chain;
    ``eval-pp`` reads it back and prints ``eval_proof``'s value."""
    graph = chain_graph([1, 1, 0] * 266)
    assert len(graph.nodes) == 799
    src, prog = tmp_path / "c.proof", tmp_path / "c.pp"
    src.write_text(serialize_proof(graph))
    code, _, _ = run(capsys, "translate", src, "-o", prog)
    assert code == 0
    code, out, err = run(capsys, "eval-pp", prog, "--safes", 3)
    assert (code, err) == (0, "")
    assert int(out) == eval_proof(graph, graph.root, [], [3])


@pytest.mark.parametrize(
    "doc, argv, message",
    [
        ("program t guard strict\nfn main(0;1) = simrecs()\n", ["eval-pp"], "simrecs takes one or more arguments"),
        ("def t(1;0) = simrecn()\n", ["bound", "--name", "t"], "simrecn takes one or more arguments"),
        ("def t(0;1) = @g(;y0)\n", ["compile", "--name", "t"], "@ calls only occur in programs"),
        ("def t(0;1) = s0(@g(;y0))\n", ["verify-bound", "--name", "t"], "@ calls only occur in programs"),
        (
            "# unknown callee\nprogram t guard strict\nfn main(0;1) = @g(;y0)\n",
            ["eval-pp"],
            "line 2, column 1: main calls unknown function 'g'",
        ),
        (
            "# wrong arity\nprogram t guard strict\nfn main(0;1) = f(y0;)\nfn f(0;1) = y0\n",
            ["eval-pp"],
            "line 2, column 1: main calls f with wrong arity",
        ),
    ],
    ids=["empty-simrecs", "empty-simrecn", "call-in-def", "call-in-def-verify", "unknown-callee", "wrong-arity"],
)
def test_malformed_term_document_is_exit_2(capsys, tmp_path, doc, argv, message):
    path = tmp_path / "bad.term"
    path.write_text(doc)
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err, err


@pytest.mark.parametrize(
    "argv", [["eval", "S.proof", "--normals", "7"], ["eval-pp", "S.pp", "--normals", "7"], ["translate", "S.proof"]]
)
def test_closed_standard_output_is_no_traceback(tmp_path, argv):
    """A reader that has gone before the command writes: exit 1, with
    nothing on standard error, not even at interpreter exit."""
    assert main(["translate", str(CORPUS / "S.proof"), "-o", str(tmp_path / "S.pp")]) == 0
    files = {"S.proof": str(CORPUS / "S.proof"), "S.pp": str(tmp_path / "S.pp")}
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "circsafe.cli", *(files.get(a, a) for a in argv)],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(CORPUS.parent / "src")},
            timeout=60,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, "")
