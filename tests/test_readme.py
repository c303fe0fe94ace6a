"""The README's "Python API" example runs and gives the results its
comments state, and its "Term documents" example means what it says."""

import ast
from pathlib import Path

from circsafe.formats import parse_terms
from circsafe.interp import check_term_class, eval_pp

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_example():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Python API", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    scope: dict = {}
    checked = []
    for line in block.splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if not code:
            continue
        try:
            want = ast.literal_eval(comment)
        except (ValueError, SyntaxError):  # a statement, or a comment in words
            exec(code, scope)
            continue
        assert eval(code, scope) == want, line
        checked.append(want)
    assert checked == ["CB", 42, [], 42]


def test_term_documents_example():
    """The README's "Term documents" example parses, its program is in
    Bpp, and its main is the successor."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Term documents", 1)[1].split("```", 2)[1]
    doc = parse_terms(block)
    assert sorted(doc.terms) == ["append", "ex"] and sorted(doc.programs) == ["succ"]
    program = doc.programs["succ"]
    assert check_term_class(program, "Bpp") == []
    assert [eval_pp(program, "main", None, [x], []) for x in range(8)] == list(range(1, 9))
