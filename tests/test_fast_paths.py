"""The evaluator's fast paths, each taken by the run that needs it.

Each shortcut that ``interp`` keeps beside a general path is named here
with a run it speeds up: the benchmark operation, or a smaller run of the
same shape, that slows down when the shortcut goes (CHANGES.md has the
measured costs).  The test counts the shortcut's code object in that run
under ``sys.setprofile``, so a refactor that bypasses a shortcut fails
here instead of slowing down silently.  The code objects come from
building each shortcut on stand-in arguments (every closure a builder
returns shares its code), and each must differ from the code that the
same builder returns for the general case, so a builder that drops its
shortcut fails too.
"""

import sys

import pytest

from conftest import e_program

from circsafe.corpus import proof, term_corpus
from circsafe.interp import (
    Proj, Zero, _args, _edit_fold, _Loop, _nested_call, _notation_loop, _srec_edits, _tuple_of, eval_pp, eval_proof,
    eval_term,
)
from circsafe.translate import translate


def _nested_code(fn, name: str):
    """The code object of the function ``name`` defined inside ``fn``."""
    (code,) = [c for c in fn.__code__.co_consts if getattr(c, "co_name", None) == name]
    return code


def _ones(bits: int) -> int:
    return 2**bits - 1


TERMS = term_corpus()


def _term(name: str, normals, safes):
    body = TERMS[name].body
    return lambda: eval_term(body, None, normals, safes)


def _program(name: str, normals, safes):
    prog = translate(proof(name))
    return lambda: eval_pp(prog, "main", None, normals, safes)


def _noop(*_):
    return 0


# shortcut: (its code object, that of the general path beside it or
# None, the run that takes the shortcut, the run's value or None)
PATHS = {
    # eval_proof's notation loop folds S's way back, which keeps no memo
    # entries (interp._growing), over 4096 levels at once
    "loop fold, S at 4096 bits": (
        _Loop.digits.__code__, None, lambda: eval_proof(proof("S"), "n0", [_ones(4096)], []), _ones(4096) + 1,
    ),
    "notation loop, translated S at 256 bits": (
        _nested_code(_notation_loop, "loop"), None, _program("S", [_ones(256)], []), _ones(256) + 1,
    ),
    "nested call passing the safes through, ex": (
        _nested_call(4, (Proj("s", 0),), [_noop], 1).__code__,
        _nested_call(4, (Zero(),), [_noop], 1).__code__,
        _term("ex", [_ones(6)], [5]),
        5 << 2**6,
    ),
    "one-argument tuple, ex": (
        _tuple_of([_noop]).__code__, _tuple_of([_noop] * 3).__code__, _term("ex", [_ones(6)], [5]), 5 << 2**6,
    ),
    "two-argument tuple, twoloops": (
        _tuple_of([_noop] * 2).__code__, _tuple_of([_noop] * 3).__code__, _term("twoloops", [_ones(4)], [5]), None,
    ),
    "both-constants fold, parity at 512 bits": (
        _edit_fold((0, 0, 0, False), (0, 0, 1, False)).__code__,
        _edit_fold((1, 0, 0, True), (0, 0, 1, False)).__code__,
        _term("parity", [_ones(512)], []),
        1,
    ),
    "srec of prefix edits, append at 512 bits": (
        _srec_edits(_noop, (0, 1, 0, True), (0, 1, 1, True)).__code__,
        None,
        _term("append", [_ones(512)], [5]),
        5 << 512 | _ones(512),
    ),
    "last argument that suspends, translated E at 8 bits": (
        _args([_noop, _noop], [False, True], 1, _noop).__code__,
        _args([_noop, _noop], [True, False], 1, _noop).__code__,
        _program("E", [255], [255]),
        e_program(255, 255),
    ),
}


@pytest.mark.parametrize("name", sorted(PATHS))
def test_each_fast_path_is_taken_by_its_run(name):
    code, general, run, want = PATHS[name]
    assert code is not general, name
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        value = run()
    finally:
        sys.setprofile(before)
    assert calls > 0, name
    assert want is None or value == want, (name, value)
