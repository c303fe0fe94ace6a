"""The worked examples, read from the documents shipped in this package.

The proof documents are the standard worked examples of this proof
style: a diverging self-cut loop (I), the unary successor (S), three-way
binary concatenation (C), the nested doubling loop with exponential
growth (E), unary predecessor (P), length-many-ones append (L), the
binary-to-unary converter (N) and the unsafe variant (EPRIME) whose
loop passes a boxed cut.

P is written with its loop on the left premise of a plain cut (the
boxed-cut variant of the same program is kept as P_UNSAFE): only the
former satisfies the safety criterion.  N computes 2^n - 1, which no
left-leaning proof can do, so it uses the nested loop; the boxed-cut
original is kept as N_UNSAFE.  The unsafe variants stay in the corpus
as the checker's negative examples.

``terms.term`` holds the named algebra terms: the base algebra's
(recursion on notation only) and the nested-recursion ones.  Every
document is in the form the serializers write, so the proof documents
carry no comments; the terms' meanings are comment lines in
``terms.term``.
"""

from __future__ import annotations

from importlib.resources import files

from ..formats import parse_proof, parse_terms
from ..interp import TermDef
from ..kernel import ProofGraph

_STANDARD = ("I", "S", "C", "E", "P", "L", "N", "EPRIME")


def _read(name: str) -> str:
    return files(__name__).joinpath(name).read_text(encoding="utf-8")


def proof(name: str) -> ProofGraph:
    """The proof document ``<name>.proof``, parsed afresh on every call,
    so each caller gets a graph of its own, with no facts kept yet."""
    return parse_proof(_read(f"{name}.proof"))


def standard_proofs() -> dict[str, ProofGraph]:
    """The eight standard proofs by name: every proof but P_UNSAFE and N_UNSAFE."""
    return {name: proof(name) for name in _STANDARD}


def term_corpus() -> dict[str, TermDef]:
    """The named terms of ``terms.term``."""
    return parse_terms(_read("terms.term")).terms
