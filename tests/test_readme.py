"""The README's "Python API" example runs and gives the results its
comments state."""

import ast
from pathlib import Path

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
