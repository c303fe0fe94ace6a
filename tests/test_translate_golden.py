"""Byte-for-byte golden output of ``translate`` on the whole corpus.

``tests/golden/translate.json`` maps every corpus proof and every
corpus term, compiled as ``circsafe compile`` does, to
``serialize_program(translate(...))``, or to the ``TranslateError``
text for a proof that does not translate.

Regenerate it (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_translate_golden.py``.
"""

import json
from pathlib import Path

from circsafe.compilealg import nb_to_circular
from circsafe.corpus import proof, standard_proofs, term_corpus
from circsafe.formats import serialize_program
from circsafe.translate import TranslateError, translate

GOLDEN = Path(__file__).resolve().parent / "golden" / "translate.json"


def _translated(graph) -> str:
    try:
        return serialize_program(translate(graph))
    except TranslateError as e:
        return f"TranslateError: {e}"


def translations() -> dict[str, dict[str, str]]:
    proofs = dict(standard_proofs(), P_UNSAFE=proof("P_UNSAFE"), N_UNSAFE=proof("N_UNSAFE"))
    terms = {name: _translated(nb_to_circular(td)) for name, td in term_corpus().items()}
    return {"proofs": {n: _translated(g) for n, g in proofs.items()}, "terms": terms}


def test_translations_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = translations()
    assert sorted(got["proofs"]) == sorted(want["proofs"])
    assert sorted(got["terms"]) == sorted(want["terms"])
    for kind in ("proofs", "terms"):
        for name, text in want[kind].items():
            assert got[kind][name] == text, (kind, name)
    failed = {n for n, t in got["proofs"].items() if t.startswith("TranslateError: ")}
    assert failed == {"I", "EPRIME", "N_UNSAFE", "P_UNSAFE"}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(translations(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
