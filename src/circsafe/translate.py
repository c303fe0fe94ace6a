"""Translating accepted circular proofs into guarded recursion programs.

Each companion of the cycle normal form becomes a named function; the
finite tree segments compile node-by-node through the rule semantics
into expression bodies, buds become guarded calls, and sub-loops that
cannot call back are ordinary composition with earlier functions.
Left-leaning inputs get the stronger guards that also confine the safe
zone, placing the program in the smaller algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from .kernel import ProofGraph, RuleKind, sccs
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
    map_terms,
)
from .transform import CycleNF, Pos, _cycle_normal_form


class TranslateError(Exception):
    pass


MAIN = "main"

# task tags of synthesize's walk
_VISIT, _BUILD, _CUT = range(3)


@dataclass
class TranslationState:
    """Synthesized functions before arity normalization."""

    cnf: CycleNF
    guard: str  # "strict" (nested class) or "strict_safe" (left-leaning)
    fname: dict[Pos, str]
    arities: dict[str, tuple[int, int]]
    bodies: dict[str, Term]
    scc_of: dict[Pos, int]

    def program(self) -> PPProgram:
        fns = {
            name: PPFunction(name, self.arities[name][0], self.arities[name][1], self.bodies[name])
            for name in self.bodies
        }
        prog = PPProgram(fns, self.guard)
        prog.validate()
        return prog


def _companion_sccs(cnf: CycleNF) -> tuple[list[Pos], dict[Pos, int]]:
    """Call-graph components among companions (bud and region edges)."""
    companions = sorted(cnf.companions)
    cset = set(companions)
    targets: dict[Pos, set[Pos]] = {c: set() for c in companions}
    for c in companions:
        stack = [c]
        while stack:
            pos = stack.pop()
            if pos in cnf.buds:
                targets[c].add(cnf.buds[pos])
            elif pos != c and pos in cset:
                targets[c].add(pos)
            else:
                stack.extend(cnf.tree[pos].children)
    comps = sccs({c: tuple(sorted(targets[c])) for c in companions})
    return companions, {c: i for i, comp in enumerate(comps) for c in comp}


def synthesize(graph: ProofGraph) -> TranslationState:
    """Build the per-companion functions, genuine arities, no padding yet."""
    cl = classify(graph)
    if cl.cls not in ("CB", "CNB"):
        raise TranslateError(
            f"{graph.name}: only accepted proofs translate (classified {cl.cls}: "
            + "; ".join(cl.diagnostics)
        )
    guard = "strict_safe" if cl.cls == "CB" else "strict"
    cnf = _cycle_normal_form(graph)  # classify validated it
    companions, scc_of = _companion_sccs(cnf)
    fname = {pos: f"f{i}" for i, pos in enumerate(companions)}
    cset = set(companions)

    arities: dict[str, tuple[int, int]] = {}
    bodies: dict[str, Term] = {}

    def make_call(target: Pos, caller_scc: Optional[int], nenv: list[Term], senv: list[Term]) -> Term:
        seq = cnf.tree[target].sequent
        if len(nenv) != seq.boxed or len(senv) != seq.plain:
            raise TranslateError(
                f"call into {fname[target]} with {len(nenv)};{len(senv)} arguments "
                f"against sequent {seq}"
            )
        guarded = caller_scc is not None and scc_of[target] == caller_scc
        return Call(fname[target], tuple(nenv), tuple(senv), guard=guard if guarded else None)

    def walk(top: Pos, start: Optional[Pos], caller_scc: Optional[int], nenv: list[Term], senv: list[Term]) -> Term:
        """The body for the tree region at ``top``, on an explicit stack.

        ``todo`` holds positions to visit with their environments, and
        continuations: ``_BUILD`` pops finished subterms into a node,
        ``_CUT`` feeds a cut's left value into its right premise.  The
        subterms of a node are built left to right, as in the rules.
        """
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
            if pos in cnf.buds:
                done.append(make_call(cnf.buds[pos], caller_scc, nenv, senv))
                continue
            if pos != start and pos in cset:
                done.append(make_call(pos, caller_scc, nenv, senv))
                continue
            node = cnf.tree[pos]
            kind = node.rule.kind
            ch = node.children
            if kind is RuleKind.ID:
                done.append(senv[0])
            elif kind is RuleKind.ZERO:
                done.append(Zero())
            elif kind is RuleKind.ORACLE:
                done.append(OracleCall(node.rule.oracle, tuple(nenv), tuple(senv)))
            elif kind in (RuleKind.S0, RuleKind.S1):
                todo.append((_BUILD, S0 if kind is RuleKind.S0 else S1, 1))
                todo.append((_VISIT, ch[0], nenv, senv))
            elif kind is RuleKind.WEAK_N:
                todo.append((_VISIT, ch[0], nenv, senv[:-1]))
            elif kind is RuleKind.WEAK_B:
                todo.append((_VISIT, ch[0], nenv[1:], senv))
            elif kind is RuleKind.EXCH_N:
                p = node.rule.pos
                todo.append((_VISIT, ch[0], nenv, senv[:p] + [senv[p + 1], senv[p]] + senv[p + 2 :]))
            elif kind is RuleKind.EXCH_B:
                p = node.rule.pos
                todo.append((_VISIT, ch[0], nenv[:p] + [nenv[p + 1], nenv[p]] + nenv[p + 2 :], senv))
            elif kind is RuleKind.BOX_L:
                todo.append((_VISIT, ch[0], nenv[1:], senv + [nenv[0]]))
            elif kind is RuleKind.BOX_R:
                todo.append((_VISIT, ch[0], nenv, senv))
            elif kind in (RuleKind.CUT_N, RuleKind.CUT_B):
                todo.append((_CUT, ch[1], nenv, senv, kind is RuleKind.CUT_B))
                todo.append((_VISIT, ch[0], nenv, senv))
            elif kind is RuleKind.COND_N:
                w = senv[-1]
                rest = senv[:-1]
                todo.append((_BUILD, partial(Cond, w), 3))
                todo.append((_VISIT, ch[2], nenv, rest + [Pred(w)]))
                todo.append((_VISIT, ch[1], nenv, rest + [Pred(w)]))
                todo.append((_VISIT, ch[0], nenv, rest))
            elif kind is RuleKind.COND_B:
                x = nenv[0]
                rest = nenv[1:]
                todo.append((_BUILD, partial(Cond, x), 3))
                todo.append((_VISIT, ch[2], [Pred(x)] + rest, senv))
                todo.append((_VISIT, ch[1], [Pred(x)] + rest, senv))
                todo.append((_VISIT, ch[0], rest, senv))
            else:
                raise TranslateError(f"rule {kind.value} at {pos} is not translatable")
        (body,) = done
        return body

    for c in companions:
        seq = cnf.tree[c].sequent
        nenv = [Proj("n", i) for i in range(seq.boxed)]
        senv = [Proj("s", j) for j in range(seq.plain)]
        arities[fname[c]] = (seq.boxed, seq.plain)
        bodies[fname[c]] = walk(c, c, scc_of[c], list(nenv), list(senv))

    root_seq = cnf.tree[()].sequent
    arities[MAIN] = (root_seq.boxed, root_seq.plain)
    nenv = [Proj("n", i) for i in range(root_seq.boxed)]
    senv = [Proj("s", j) for j in range(root_seq.plain)]
    if () in cset:
        bodies[MAIN] = Call(fname[()], tuple(nenv), tuple(senv), guard=None)
    else:
        bodies[MAIN] = walk((), None, None, list(nenv), list(senv))

    return TranslationState(cnf, guard, fname, arities, bodies, scc_of)


def normalize_arities(state: TranslationState) -> TranslationState:
    """Pad every companion function to the block-wide maximum arities.

    Zero fills the fresh slots; the constant is a prefix of everything
    and equal padding never supplies the strict component, so guard
    outcomes on genuine slots are unchanged.
    """
    companion_fns = [state.fname[c] for c in sorted(state.fname)]
    if not companion_fns:
        return state
    big_m = max(state.arities[f][0] for f in companion_fns)
    big_n = max(state.arities[f][1] for f in companion_fns)

    def pad_calls(t: Term) -> Term:
        if isinstance(t, Call) and t.name in state.arities and t.name != MAIN:
            m, n = state.arities[t.name]
            return Call(
                t.name,
                t.normal_args + tuple(Zero() for _ in range(big_m - m)),
                t.safe_args + tuple(Zero() for _ in range(big_n - n)),
                guard=t.guard,
            )
        return t

    new_bodies = {name: map_terms(body, pad_calls) for name, body in state.bodies.items()}
    new_arities = dict(state.arities)
    for f in companion_fns:
        new_arities[f] = (big_m, big_n)
    return TranslationState(
        state.cnf, state.guard, state.fname, new_arities, new_bodies, state.scc_of
    )


def translate(graph: ProofGraph) -> PPProgram:
    """Guarded recursion program computing the proof's function.

    The entry point is the function ``main`` with the root's arities;
    one further function exists per companion of the cycle normal form,
    padded to uniform arities within the block.
    """
    return normalize_arities(synthesize(graph)).program()
