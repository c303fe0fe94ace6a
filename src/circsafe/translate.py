"""Translating accepted circular proofs into guarded recursion programs.

Each companion of the cycle normal form becomes a named function; the
finite tree segments compile node-by-node through the rule semantics
into expression bodies, and buds and companions met inside a region
become calls.  A call is guarded exactly when it is recursive, that is
when the callee lies in the caller's strongly connected component of
the program's call graph; calls that cannot call back are ordinary
composition with other functions.  Left-leaning inputs get the stronger
guards that also confine the safe zone, placing the program in the
smaller algebra.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from .kernel import (
    _R_BOX_L, _R_BOX_R, _R_COND_B, _R_COND_N, _R_CUT_B, _R_CUT_N, _R_EXCH_B, _R_EXCH_N, _R_ID,
    _R_ORACLE, _R_S0, _R_S1, _R_WEAK_B, _R_WEAK_N, _R_ZERO, ProofGraph,
)
from .checker import classify
from .interp import (
    Call,
    Cond,
    OracleCall,
    PPFunction,
    PPProgram,
    Pred,
    Proj,
    S0,
    S1,
    Term,
    Zero,
    _must_guard,
    map_terms,
)
from .transform import _cycle_normal_form


class TranslateError(Exception):
    pass


MAIN = "main"

# task tags of translate's walk
_VISIT, _BUILD, _CUT = range(3)


def translate(graph: ProofGraph) -> PPProgram:
    """Guarded recursion program computing the proof's function.

    The entry point is the function ``main`` with the root's arities;
    one further function exists per companion of the cycle normal form.
    A call is guarded when it is recursive (``interp._must_guard``, by
    which ``check_term_class`` requires guards).  Every companion
    function is padded with ``Zero()`` to the largest arities among all
    companion functions of the program, not of one component.  The constant is a
    prefix of everything and equal padding never supplies the strict
    component, so guard outcomes on genuine slots are unchanged.  Each
    call fits its companion's sequent when emitted and is padded as the
    companion is, so the program validates without a further check.
    """
    cl = classify(graph)
    if cl.cls not in ("CB", "CNB"):
        raise TranslateError(
            f"{graph.name}: only accepted proofs translate (classified {cl.cls}: {'; '.join(cl.diagnostics)})"
        )
    guard = "strict_safe" if cl.cls == "CB" else "strict"
    cnf = _cycle_normal_form(graph)  # classify validated it
    fname = {pos: f"f{i}" for i, pos in enumerate(sorted(cnf.companions))}
    callees: dict[str, set] = {}  # the names each function calls, the program's call graph

    def walk(top: int, start: Optional[int]) -> PPFunction:
        """The function for the tree region at ``top``, built on an
        explicit stack; its calls are unguarded, unpadded and recorded.

        ``todo`` holds positions to visit with their environments, and
        continuations: ``_BUILD`` pops finished subterms into a node,
        ``_CUT`` feeds a cut's left value into its right premise.  The
        subterms of a node are built left to right, as in the rules.
        """
        seq, name = cnf.tree[top].sequent, fname.get(start, MAIN)
        called = callees[name] = set()
        nenv = [Proj("n", i) for i in range(seq.boxed)]
        senv = [Proj("s", j) for j in range(seq.plain)]
        done: list[Term] = []
        todo: list[tuple] = [(_VISIT, top, nenv, senv)]
        while todo:
            task = todo.pop()
            if task[0] == _BUILD:
                _, make, k = task
                args = done[-k:]
                del done[-k:]
                done.append(make(*args))
                continue
            if task[0] == _CUT:
                _, pos, nenv, senv, boxed = task
                v = done.pop()
                todo.append((_VISIT, pos, [v] + nenv, senv) if boxed else (_VISIT, pos, nenv, senv + [v]))
                continue
            _, pos, nenv, senv = task
            if pos in cnf.buds or (pos != start and pos in fname):
                target = cnf.buds.get(pos, pos)
                tseq = cnf.tree[target].sequent
                if len(nenv) != tseq.boxed or len(senv) != tseq.plain:
                    raise TranslateError(
                        f"call into {fname[target]} with {len(nenv)};{len(senv)} arguments "
                        f"against sequent {tseq}"
                    )
                called.add(fname[target])
                done.append(Call(fname[target], tuple(nenv), tuple(senv)))
                continue
            node = cnf.tree[pos]
            kind = node.rule.kind
            ch = node.children
            if kind is _R_ID:
                done.append(senv[0])
            elif kind is _R_ZERO:
                done.append(Zero())
            elif kind is _R_ORACLE:
                done.append(OracleCall(node.rule.oracle, tuple(nenv), tuple(senv)))
            elif kind is _R_S0 or kind is _R_S1:
                todo.append((_BUILD, S0 if kind is _R_S0 else S1, 1))
                todo.append((_VISIT, ch[0], nenv, senv))
            elif kind is _R_WEAK_N:
                todo.append((_VISIT, ch[0], nenv, senv[:-1]))
            elif kind is _R_WEAK_B:
                todo.append((_VISIT, ch[0], nenv[1:], senv))
            elif kind is _R_EXCH_N:
                p = node.rule.pos
                todo.append((_VISIT, ch[0], nenv, senv[:p] + [senv[p + 1], senv[p]] + senv[p + 2 :]))
            elif kind is _R_EXCH_B:
                p = node.rule.pos
                todo.append((_VISIT, ch[0], nenv[:p] + [nenv[p + 1], nenv[p]] + nenv[p + 2 :], senv))
            elif kind is _R_BOX_L:
                todo.append((_VISIT, ch[0], nenv[1:], senv + [nenv[0]]))
            elif kind is _R_BOX_R:
                todo.append((_VISIT, ch[0], nenv, senv))
            elif kind is _R_CUT_N or kind is _R_CUT_B:
                todo.append((_CUT, ch[1], nenv, senv, kind is _R_CUT_B))
                todo.append((_VISIT, ch[0], nenv, senv))
            elif kind is _R_COND_N:
                w = senv[-1]
                rest = senv[:-1]
                todo.append((_BUILD, partial(Cond, w), 3))
                todo.append((_VISIT, ch[2], nenv, rest + [Pred(w)]))
                todo.append((_VISIT, ch[1], nenv, rest + [Pred(w)]))
                todo.append((_VISIT, ch[0], nenv, rest))
            elif kind is _R_COND_B:
                x = nenv[0]
                rest = nenv[1:]
                todo.append((_BUILD, partial(Cond, x), 3))
                todo.append((_VISIT, ch[2], [Pred(x)] + rest, senv))
                todo.append((_VISIT, ch[1], [Pred(x)] + rest, senv))
                todo.append((_VISIT, ch[0], rest, senv))
            else:
                raise TranslateError(f"rule {kind.value} at {cnf.label(pos)} is not translatable")
        (body,) = done
        return PPFunction(name, seq.boxed, seq.plain, body)

    companion_fns = [walk(c, c) for c in fname]
    unpadded = companion_fns + [walk(0, None)]
    must_guard = _must_guard(callees)
    big_m = max((f.normals for f in companion_fns), default=0)
    big_n = max((f.safes for f in companion_fns), default=0)

    def guard_and_pad(caller: str, t: Term) -> Term:
        if not isinstance(t, Call):
            return t
        return Call(
            t.name,
            t.normal_args + (Zero(),) * (big_m - len(t.normal_args)),
            t.safe_args + (Zero(),) * (big_n - len(t.safe_args)),
            guard=guard if must_guard(caller, t.name) else None,
        )

    fns = {}
    for f in unpadded:
        m, n = (f.normals, f.safes) if f.name == MAIN else (big_m, big_n)
        fns[f.name] = PPFunction(f.name, m, n, map_terms(f.body, partial(guard_and_pad, f.name)))
    return PPProgram(fns, guard)
