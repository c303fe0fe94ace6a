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
The call graph comes first, so one walk builds each body with its
calls guarded and padded.
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
    ``classify``'s BFS order and cycle test feed the cycle normal form,
    and a scan of each region's positions gives the call graph.
    """
    cl = classify(graph)
    if cl.cls not in ("CB", "CNB"):
        raise TranslateError(
            f"{graph.name}: only accepted proofs translate (classified {cl.cls}: {'; '.join(cl.diagnostics)})"
        )
    guard = "strict_safe" if cl.cls == "CB" else "strict"
    cnf = _cycle_normal_form(graph, cl._order, cl._cyclic)  # classify validated it
    tree, buds = cnf.tree, cnf.buds
    fname = {pos: f"f{i}" for i, pos in enumerate(sorted(cnf.companions))}
    regions = [(c, c) for c in fname] + [(0, None)]  # (top, its companion): the functions, main last

    def callees(top: int, start: Optional[int]) -> set[str]:
        """The functions of the buds and companions the region at ``top`` meets."""
        out, todo = set(), [top]
        while todo:
            pos = todo.pop()
            if pos in buds or (pos != start and pos in fname):
                out.add(fname[buds.get(pos, pos)])
            else:
                todo += tree[pos].children
        return out

    calls = {fname.get(start, MAIN): callees(top, start) for top, start in regions}
    must_guard = _must_guard(calls)
    big_m = max((tree[c].sequent.boxed for c in fname), default=0)
    big_n = max((tree[c].sequent.plain for c in fname), default=0)

    def walk(top: int, start: Optional[int]) -> PPFunction:
        """The function for the tree region at ``top``, built on an
        explicit stack.

        ``todo`` holds positions to visit with their environments, and
        continuations: ``_BUILD`` pops finished subterms into a node,
        ``_CUT`` feeds a cut's left value into its right premise.  The
        subterms of a node are built left to right, as in the rules.
        """
        seq, name = tree[top].sequent, fname.get(start, MAIN)
        guards = {f: guard if must_guard(name, f) else None for f in calls[name]}
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
            if pos in buds or (pos != start and pos in fname):
                target = buds.get(pos, pos)
                tseq = tree[target].sequent
                if len(nenv) != tseq.boxed or len(senv) != tseq.plain:
                    raise TranslateError(
                        f"call into {fname[target]} with {len(nenv)};{len(senv)} arguments "
                        f"against sequent {tseq}"
                    )
                f, pad_m, pad_n = fname[target], (Zero(),) * (big_m - len(nenv)), (Zero(),) * (big_n - len(senv))
                done.append(Call(f, (*nenv, *pad_m), (*senv, *pad_n), guards[f]))
                continue
            node = tree[pos]
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
        m, n = (seq.boxed, seq.plain) if start is None else (big_m, big_n)
        return PPFunction(name, m, n, body)

    fns = [walk(top, start) for top, start in regions]
    return PPProgram({f.name: f for f in fns}, guard)
