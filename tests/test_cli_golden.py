"""Byte-for-byte golden outputs of the README command-line examples.

Every ``circsafe ...`` line of the README's "Command line" section runs
in process through ``cli.main``, in order, inside a scratch directory
that holds a copy of ``corpus/``.  Exit code, stdout and every file the
command writes must equal the recorded outputs under ``tests/golden/``.
``verify-bound`` draws 20 samples instead of the README's 200 to keep
the suite fast.

Regenerate the recorded outputs (only when a change of output is
intended) with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import json
import os
import shlex
import shutil
import sys
from pathlib import Path

from circsafe.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def readme_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("```", 2)[1]
    out = []
    for line in section.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("circsafe "):
            argv = shlex.split(line)[1:]
            if argv[0] == "verify-bound":
                argv[argv.index("--samples") + 1] = "20"
            out.append(argv)
    return out


def run_commands(workdir: Path, emit) -> list[dict]:
    """Run every README command in ``workdir``; ``emit()`` returns the
    stdout written since its previous call."""
    shutil.copytree(ROOT / "corpus", workdir / "corpus")
    before = set(workdir.iterdir())
    results = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in readme_commands():
            code = main(argv)
            results.append({"argv": argv, "exit": code, "stdout": emit()})
    finally:
        os.chdir(cwd)
    for path in sorted(set(workdir.iterdir()) - before):
        results.append({"file": path.name, "content": path.read_text(encoding="utf-8")})
    return results


def test_readme_commands_match_golden(capsys, tmp_path):
    got = run_commands(tmp_path, lambda: capsys.readouterr().out)
    want = json.loads((GOLDEN / "cli_corpus.json").read_text(encoding="utf-8"))
    commands = [r for r in got if "argv" in r]
    assert commands == want["commands"]
    files = {r["file"]: r["content"] for r in got if "file" in r}
    assert sorted(files) == sorted(want["files"])
    for name in want["files"]:
        expected = (GOLDEN / "files" / name).read_text(encoding="utf-8")
        assert files[name] == expected, name


def _regenerate() -> None:
    import io
    import tempfile

    buf = io.StringIO()

    def emit() -> str:
        s = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        return s

    with tempfile.TemporaryDirectory() as tmp:
        real = sys.stdout
        sys.stdout = buf
        try:
            got = run_commands(Path(tmp), emit)
        finally:
            sys.stdout = real
    shutil.rmtree(GOLDEN, ignore_errors=True)
    (GOLDEN / "files").mkdir(parents=True)
    files = []
    for r in got:
        if "file" in r:
            (GOLDEN / "files" / r["file"]).write_text(r["content"], encoding="utf-8")
            files.append(r["file"])
    doc = {"commands": [r for r in got if "argv" in r], "files": files}
    (GOLDEN / "cli_corpus.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    _regenerate()
