"""Exact run statistics of the two graph-and-program evaluators.

``tests/golden/eval_stats.json`` maps each run to its value (or the text
of the exception it raised), its ``EvalStats`` fields and the smallest
fuel with which it succeeds:

- ``eval_proof`` on the corpus proofs S, C, P, L, E, N and N_UNSAFE over
  a small input grid, with memoization on and off;
- ``eval_pp`` on the translations of those that translate, in the
  ``zero`` and ``strict`` guard modes, with memoization on and off.

``eval_pp`` keeps a program's compiled code for its next run, so the
test runs each program through copies that serve a fixed number of runs
each and compile afresh: the statistics must not depend on it.

Any change to how the evaluators schedule, memoize or count work shows
here as a changed entry.

Regenerate it (only when a change of statistics is intended) with
``PYTHONPATH=src python tests/test_eval_stats_golden.py``.
"""

import json
from itertools import product
from pathlib import Path

import pytest

from circsafe.corpus import proof
from circsafe.interp import (
    EvalConfig,
    EvalStats,
    FuelExhausted,
    GuardViolation,
    PPProgram,
    eval_pp,
    eval_proof,
)
from circsafe.translate import MAIN, TranslateError, translate

GOLDEN = Path(__file__).resolve().parent / "golden" / "eval_stats.json"

PROOFS = ("S", "C", "P", "L", "E", "N", "N_UNSAFE")
NORMALS = (0, 1, 2, 5, 6, 13, 45)
SAFES = (0, 3)
FUEL_CEILING = 10**6


def _inputs(boxed: int, plain: int):
    for xs in product(NORMALS, repeat=boxed):
        for ys in product(SAFES, repeat=plain):
            yield xs, ys


def _entry(run) -> dict:
    """Value and statistics of ``run(fuel, stats)``, and the least fuel
    that lets it finish (found by doubling, then bisection)."""
    stats = EvalStats()
    try:
        value = run(FUEL_CEILING, stats)
    except GuardViolation as e:
        return {"error": f"GuardViolation: {e}"}
    lo, hi = 0, max(1, stats.steps)  # run(lo) fails, run(hi) succeeds
    while True:
        try:
            run(hi, None)
            break
        except FuelExhausted:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            run(mid, None)
            hi = mid
        except FuelExhausted:
            lo = mid
    return {
        "value": value,
        "steps": stats.steps,
        "memo_keys": stats.memo_keys,
        "max_depth": stats.max_depth,
        "min_fuel": hi,
    }


def eval_stats(reuse: int | None = None) -> dict[str, dict]:
    """The golden entries, each program serving ``reuse`` ``eval_pp``
    runs before a copy with no compiled code takes over (``None``: one
    program for all its runs)."""
    out = {}
    for name in PROOFS:
        g = proof(name)
        seq = g.nodes[g.root].sequent
        try:
            prog = translate(g)
        except TranslateError:  # N_UNSAFE is not accepted, so it has no program
            prog = None
        runs = 0
        for xs, ys in _inputs(seq.boxed, seq.plain):
            args = f"{','.join(map(str, xs))};{','.join(map(str, ys))}"
            for memo in (True, False):
                tag = "memo" if memo else "nomemo"

                def by_proof(fuel, stats):
                    return eval_proof(g, g.root, xs, ys, EvalConfig(fuel=fuel, memo=memo), None, stats)

                out[f"proof {name} {tag} ({args})"] = _entry(by_proof)
                if prog is None:
                    continue
                for mode in ("zero", "strict"):

                    def by_program(fuel, stats):
                        nonlocal prog, runs
                        if reuse is not None and runs % reuse == 0:
                            prog = PPProgram(dict(prog.functions), prog.guard)
                        runs += 1
                        cfg = EvalConfig(fuel=fuel, memo=memo, guard_mode=mode)
                        return eval_pp(prog, MAIN, None, xs, ys, cfg, stats)

                    out[f"pp {name} {tag} {mode} ({args})"] = _entry(by_program)
    return out


@pytest.mark.parametrize("reuse", [1, 5, None])
def test_eval_stats_match_golden(reuse):
    # each run compiles afresh, copies serve five runs (so kept code meets
    # other inputs, memo settings and guard modes), or one program serves all
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = eval_stats(reuse)
    assert sorted(got) == sorted(want)
    for key, entry in want.items():
        assert got[key] == entry, key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(eval_stats(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
