"""Document round-trips, parse errors, DOT export."""

import sys
import time
from pathlib import Path

import pytest
from conftest import chain_graph, loop_graph, nest_graph
from hypothesis import given, settings
from hypothesis import strategies as st

import circsafe.corpus
from circsafe.corpus import proof, standard_proofs, term_corpus
from circsafe.formats import (
    ParseError,
    export_dot,
    parse_proof,
    parse_terms,
    serialize_program,
    serialize_proof,
    serialize_termdef,
)
from circsafe.interp import S0, S1, OracleCall, Proj, TermDef, eval_pp, eval_term
from circsafe.transform import cnf_to_graph, cycle_normal_form
from circsafe.translate import translate


def test_round_trip_corpus(proofs):
    for name, g in proofs.items():
        text = serialize_proof(g)
        g2 = parse_proof(text)
        assert (g2.name, g2.root, g2.nodes) == (g.name, g.root, g.nodes), name
        assert serialize_proof(g2) == text


def test_s_document_has_nine_nodes(proofs):
    text = serialize_proof(proofs["S"])
    assert sum(1 for line in text.splitlines() if line.startswith("node ")) == 9


def test_undeclared_premise():
    with pytest.raises(ParseError):
        parse_proof("proof x root a\nnode a : s0 seq N => N premises [ghost]\n")


def test_duplicate_id():
    doc = "proof x root a\nnode a : zero seq => N premises []\nnode a : zero seq => N premises []\n"
    with pytest.raises(ParseError):
        parse_proof(doc)


def test_unknown_rule():
    with pytest.raises(ParseError):
        parse_proof("proof x root a\nnode a : frobnicate seq => N premises []\n")


def test_zone_violation():
    with pytest.raises(ParseError) as e:
        parse_proof("proof x root a\nnode a : id seq N,bN => N premises []\n")
    assert "boxed type after a plain one" in str(e.value)


def test_nodes_with_one_label_text_share_its_rule_and_sequent():
    g = parse_proof(serialize_proof(chain_graph([0, 1, 1, 0, 1])))
    seen = {}
    for node in g.nodes.values():
        key = (str(node.rule), str(node.sequent))
        rule, seq = seen.setdefault(key, (node.rule, node.sequent))
        assert node.rule is rule and node.sequent is seq, key
    assert len(seen) == 3 and len(g.nodes) == 6
    # a bad label is reported at its first line, with that line's column
    doc = "proof x root a\nnode a : s0 seq N => N premises [b]\nnode b : id seq N, bN => N premises []\n"
    with pytest.raises(ParseError) as e:
        parse_proof(doc)
    assert str(e.value) == "line 3, column 16: boxed type after a plain one in the context"


def test_comments_and_blank_lines():
    doc = "# header\n\nproof x root a  # trailing\nnode a : zero seq => N premises []\n"
    g = parse_proof(doc)
    assert g.root == "a"


def test_dis_nodes_round_trip(proofs):
    for name, g in proofs.items():
        folded = cnf_to_graph(cycle_normal_form(g))
        text = serialize_proof(folded)
        back = parse_proof(text)
        assert back.nodes == folded.nodes, name
        assert any(r.rule.buds for r in folded.nodes.values()), name


def test_empty_premises_serialization(proofs):
    text = serialize_proof(proofs["S"])
    assert "premises []" in text


def test_dot_back_edges(proofs):
    assert export_dot(proofs["S"]).count("style=dashed") == 1
    # the diverging proof loops through its boxed cut
    dot_i = export_dot(proof("I"))
    assert dot_i.count("style=dashed") == 1
    from circsafe.compilealg import term_to_derivation

    acyclic = term_to_derivation(term_corpus()["append"])
    assert export_dot(acyclic).count("style=dashed") == 0


def test_term_document_round_trips(terms):
    # a name is read whole: x0f is an oracle, not x0 followed by f
    x0f = TermDef("x0f_caller", 1, 1, OracleCall("x0f", (Proj("n", 0),), (S0(Proj("s", 0)),)))
    for name, td in {**terms, x0f.name: x0f}.items():
        back = parse_terms(serialize_termdef(td))
        assert back.terms[name].body == td.body, name
        assert (back.terms[name].normals, back.terms[name].safes) == (td.normals, td.safes)


def test_program_document_round_trips(proofs):
    for name in ("S", "C", "E", "N"):
        prog = translate(proofs[name])
        back = parse_terms(serialize_program(prog, name)).programs[name]
        assert back.guard == prog.guard
        assert {k: (f.normals, f.safes, f.body) for k, f in back.functions.items()} == {
            k: (f.normals, f.safes, f.body) for k, f in prog.functions.items()
        }


def test_program_document_evaluates():
    doc = (
        "program t guard strictsafe\n"
        "fn main(1;0) = f0(x0;)\n"
        "fn f0(1;0) = cond(x0, s1(0), s1(p(x0)), s0(@f0(p(x0);)))\n"
    )
    prog = parse_terms(doc).programs["t"]
    assert all(eval_pp(prog, "main", None, [x], []) == x + 1 for x in range(40))


def test_oracle_declarations():
    doc = "oracle a(0;2)\ndef f(0;2) = a(;y0,y1)\n"
    td = parse_terms(doc)
    assert td.oracles["a"] == (0, 2)


@pytest.mark.parametrize(
    "doc, line, column",
    [
        ("def t(1;1) = x" + "1" * 5000, 1, 15),
        ("def t(" + "1" * 5000 + ";1) = y0", 1, 7),
        ("program q guard strict\nfn main(1;" + "1" * 5000 + ") = y0", 2, 11),
        ("oracle a(0;" + "1" * 5000 + ")", 1, 12),
    ],
    ids=["projection", "def-arity", "fn-arity", "oracle"],
)
def test_overlong_numerals_are_parse_errors(doc, line, column):
    # past CPython's int-conversion limit of 4300 digits
    with pytest.raises(ParseError) as e:
        parse_terms(doc)
    assert (e.value.line, e.value.column) == (line, column)


def test_term_error_columns_count_from_the_line_start():
    for doc, column in [("def t(1;1) = s0(x0,)", 20), ("\t def t(1;1) = s0(x0,)  # note", 22)]:
        with pytest.raises(ParseError) as e:
            parse_terms(doc)
        assert (e.value.line, e.value.column) == (1, column), doc


@given(st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=50)
def test_parsed_term_evaluates_like_source(x, y):
    tc = term_corpus()
    td = tc["append"]
    back = parse_terms(serialize_termdef(td)).terms["append"]
    assert eval_term(back.body, None, [x], [y]) == eval_term(td.body, None, [x], [y])


def test_parse_terms_is_linear_in_line_length():
    # one definition on one line: an oracle call with k arguments y0
    def doc(k):
        return "def wide(0;1) = f(" + ",".join(["y0"] * k) + ")\n"

    short, long = doc(3_300), doc(33_000)  # about 10^4 and 10^5 characters
    assert len(parse_terms(long).terms["wide"].body.safe_args) == 33_000
    best = {short: float("inf"), long: float("inf")}
    for _ in range(3):  # interleaved, so a slow spell of the machine hits both
        for text in (short, long):
            t = time.perf_counter()
            parse_terms(text)
            best[text] = min(best[text], time.perf_counter() - t)
    assert best[long] < 20 * best[short], best


def test_serialize_term_is_linear_in_depth():
    # s0(s1(...s0(y0)...)): each level's text holds all the levels below
    def termdef(depth):
        t = Proj("s", 0)
        for j in range(depth):
            t = (S1 if j % 2 else S0)(t)
        return TermDef("deep", 0, 1, t)

    tds = {depth: termdef(depth) for depth in (1_000, 10_000)}
    assert serialize_termdef(tds[10_000]).count("s0(") == 5_000
    best = dict.fromkeys(tds, float("inf"))
    for _ in range(3):  # interleaved, so a slow spell of the machine hits both
        for depth, td in tds.items():
            t = time.perf_counter()
            serialize_termdef(td)
            best[depth] = min(best[depth], time.perf_counter() - t)
    assert best[10_000] < 20 * best[1_000], best


def test_corpus_documents_are_canonical():
    """The shipped documents are the standard proofs and the unsafe
    variants, each in the form the serializers write, and ``proof``
    parses afresh on every call."""
    folder = Path(circsafe.corpus.__file__).parent
    texts = {p.stem: p.read_text(encoding="utf-8") for p in folder.glob("*.proof")}
    assert texts.keys() == {*standard_proofs(), "P_UNSAFE", "N_UNSAFE"}
    for name, text in texts.items():
        g = parse_proof(text)
        assert g.name == name and serialize_proof(g) == text, name
    text = (folder / "terms.term").read_text(encoding="utf-8")
    doc = parse_terms(text)
    assert not doc.programs and not doc.oracles
    lines = [line + "\n" for line in text.splitlines() if not line.startswith("#")]
    assert lines == [serialize_termdef(td) for td in doc.terms.values()]
    assert proof("S") is not proof("S")


@pytest.mark.parametrize(
    "build",
    [
        lambda: chain_graph([1, 0, 0] * 1066 + [1]),
        lambda: loop_graph([1, 0] * 799 + [1], [0] * 1599),
        lambda: nest_graph(1067),
    ],
    ids=["chain3200", "loop3200", "nest3201"],
)
def test_deep_program_documents_round_trip(build):
    """Translated 3200-node proofs nest their terms thousands deep;
    ``parse_terms`` reads them back under the default recursion limit.
    The texts are compared, as ``==`` on such terms recurses on depth."""
    graph = build()
    limit = sys.getrecursionlimit()
    text = serialize_program(translate(graph), graph.name)
    back = parse_terms(text).programs[graph.name]
    assert serialize_program(back, graph.name) == text
    assert sys.getrecursionlimit() == limit


def _parses_or_parse_error(parse, text):
    try:
        parse(text)
    except ParseError:
        pass


@given(st.text())
@settings(max_examples=300, deadline=None)
def test_parsers_end_in_a_document_or_parse_error(text):
    _parses_or_parse_error(parse_proof, text)
    _parses_or_parse_error(parse_terms, text)
    _parses_or_parse_error(parse_terms, "def t(1;1) = " + text)


_TERM_ALPHABET = ["s0(", "cond(", "srec(", "snrec(", "simrecs(", "@f(", "f(", "x0", "y1", "0", ",", ";", ")", "|", " "]


@given(st.lists(st.sampled_from(_TERM_ALPHABET), max_size=30).map("".join))
@settings(max_examples=1000, deadline=None)
def test_term_alphabet_ends_in_a_document_or_parse_error(rhs):
    _parses_or_parse_error(parse_terms, f"def t(1;1) = {rhs}\n")
    _parses_or_parse_error(parse_terms, f"program q guard strict\nfn main(1;1) = {rhs}\nfn f(1;1) = y0\n")
