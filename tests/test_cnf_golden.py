"""sha256 digests of ``cyclenf`` and ``translate`` output.

``tests/golden/cnf_digests.json`` maps each input to the sha256 of
``serialize_proof(cnf_to_graph(cycle_normal_form(g)))`` and, for the
accepted ones, of ``serialize_program(translate(g))``.  The inputs are
the ten corpus proofs, the twelve corpus terms compiled as
``circsafe compile`` does and, those in the base algebra, as
``--target derivation`` does (acyclic; those with srec are never
translated), chains of safe compositions compiled as ``circsafe
compile`` does (acyclic and accepted), and the chain, loop and nest
graphs of ``conftest`` at 12 to 400 nodes.  Digests keep the file small
where the printed position ids of a 400-node path would not.

Regenerate it (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_cnf_golden.py`` from the repository
root.
"""

import hashlib
import json
import random
from pathlib import Path

from conftest import chain_graph, loop_graph, nest_graph

from circsafe.checker import classify
from circsafe.compilealg import nb_to_circular, term_to_derivation
from circsafe.corpus import proof, standard_proofs, term_corpus
from circsafe.formats import parse_terms, serialize_program, serialize_proof
from circsafe.transform import cnf_to_graph, cycle_normal_form
from circsafe.translate import translate

GOLDEN = Path(__file__).resolve().parent / "golden" / "cnf_digests.json"
SIZES = (12, 25, 50, 100, 200, 400)
DEEP = (1, 4, 16, 64)
NOT_B = {"cdr", "ex", "exquad", "padones", "twoloops"}  # corpus terms outside the base algebra


def _digits(n: int, seed: str) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(1) for _ in range(n)]


def _deep(k: int) -> str:
    """A term document defining ``deep{k}(0;1)``: k safe compositions,
    each appending a seeded digit, over ``p(y0)``; no recursion."""
    t = "p(y0)"
    for b in _digits(k, f"deep{k}"):
        t = f"comps(s{b}(y1),{t})"
    return f"def deep{k}(0;1) = {t}\n"


def inputs() -> dict:
    graphs = dict(standard_proofs(), P_UNSAFE=proof("P_UNSAFE"), N_UNSAFE=proof("N_UNSAFE"))
    for name, td in term_corpus().items():
        graphs[f"term:{name}"] = nb_to_circular(td)
        if td.name not in NOT_B:
            graphs[f"deriv:{name}"] = term_to_derivation(td)
    for k in DEEP:
        graphs[f"deep{k}"] = nb_to_circular(parse_terms(_deep(k)).terms[f"deep{k}"])
    for n in SIZES:
        graphs[f"chain{n}"] = chain_graph(_digits(n - 1, f"chain{n}"))
        half = n // 2 - 1
        graphs[f"loop{n}"] = loop_graph(_digits(half, f"loop{n}a"), _digits(n - 2 - half, f"loop{n}b"))
        graphs[f"nest{n}"] = nest_graph(max(2, round(n / 3)))
    return graphs


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests() -> dict[str, dict[str, str]]:
    out = {}
    for name, g in inputs().items():
        entry = {"cyclenf": _sha(serialize_proof(cnf_to_graph(cycle_normal_form(g))))}
        if classify(g).cls in ("CB", "CNB"):
            entry["translate"] = _sha(serialize_program(translate(g)))
        out[name] = entry
    return out


def test_digests_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests()
    assert sorted(got) == sorted(want)
    for name, entry in want.items():
        assert got[name] == entry, name
    # the four unaccepted corpus proofs and the derivations of recursive
    # terms (srec is no circular rule) have no translation
    untranslated = {"EPRIME", "I", "N_UNSAFE", "P_UNSAFE"}
    untranslated |= {f"deriv:{n}" for n in ("append", "lenones", "lenunary", "parity")}
    assert {n for n, e in want.items() if "translate" not in e} == untranslated


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
