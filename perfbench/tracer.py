"""Spans around circsafe's public functions, installed from outside.

The tracer replaces each traced function by a wrapper in its home
module and wherever another circsafe module imported it by name (for
example ``bounds.eval_term``, ``translate.classify`` and the names
``cli`` imports), so calls between layers nest.  Nothing in the source
tree changes; the wrappers exist only in the traced process.

Each span records its name, start, end, parent span and the operation
it belongs to.  Spans stay in memory and are written out when the run
ends.  Counts come from arguments and return values, and from an
``EvalStats`` the wrapper passes through the evaluators' ``stats=``
argument when the caller gave none.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


def _positions(cnf) -> int:
    return len(cnf.tree) + len(cnf.buds)


# (module, function, layer metric prefix, counter on (args, result, stats));
# the result is None when the call raised
TRACED: list[tuple[str, str, str, Optional[Callable]]] = [
    ("formats", "parse_proof", "formats.parse_proof", None),
    ("formats", "parse_terms", "formats.parse_terms", None),
    ("formats", "serialize_proof", "formats.serialize", None),
    ("formats", "serialize_program", "formats.serialize", None),
    ("kernel", "validate_graph", "kernel.validate_graph", lambda a, r, s: {"nodes": len(a[0].nodes)}),
    ("checker", "classify", "checker.classify", lambda a, r, s: {"calls": 1}),
    ("transform", "cycle_normal_form", "transform.cycle_normal_form", lambda a, r, s: {"positions": _positions(r)} if r is not None else {}),
    ("transform", "cnf_to_graph", "transform.cnf_to_graph", None),
    ("compilealg", "term_to_derivation", "compilealg.compile", None),
    ("compilealg", "srec_eliminate", "compilealg.compile", lambda a, r, s: {"nodes_out": len(r.nodes)} if r is not None else {}),
    ("compilealg", "nb_to_circular", "compilealg.compile", lambda a, r, s: {"nodes_out": len(r.nodes)} if r is not None else {}),
    ("translate", "translate", "translate.translate", lambda a, r, s: {"functions": len(r.functions)} if r is not None else {}),
    ("interp", "eval_term", "interp.eval_term", lambda a, r, s: {"calls": 1}),
    ("interp", "eval_proof", "interp.eval_proof", lambda a, r, s: {"steps": s.steps, "memo_keys": s.memo_keys}),
    ("interp", "eval_pp", "interp.eval_pp", lambda a, r, s: {"steps": s.steps, "max_depth": s.max_depth}),
    ("bounds", "synthesize_bound", "bounds.synthesize_bound", None),
    ("bounds", "verify_bound", "bounds.verify_bound", lambda a, r, s: {"samples": r.samples} if r is not None else {}),
    ("cli", "main", "cli.main", None),
]

# Evaluators that get an EvalStats through their stats= argument.
_STATS_COUNTERS = {"interp.eval_proof", "interp.eval_pp"}
# Position of ``stats`` among the positional parameters of the evaluators.
_STATS_ARG = 6

# Layer metrics, in report order: (name, unit, how to derive it).
LAYER_METRICS = [
    ("formats.parse_proof.self_ms", "ms", ("self", "formats.parse_proof")),
    ("formats.parse_terms.self_ms", "ms", ("self", "formats.parse_terms")),
    ("formats.serialize.self_ms", "ms", ("self", "formats.serialize")),
    ("kernel.validate_graph.self_ms", "ms", ("self", "kernel.validate_graph")),
    ("kernel.validate_graph.nodes", "count", ("sum", "kernel.validate_graph", "nodes")),
    ("checker.classify.self_ms", "ms", ("self", "checker.classify")),
    ("checker.classify.calls", "count", ("sum", "checker.classify", "calls")),
    ("transform.cycle_normal_form.self_ms", "ms", ("self", "transform.cycle_normal_form")),
    ("transform.cycle_normal_form.positions", "count", ("sum", "transform.cycle_normal_form", "positions")),
    ("transform.cnf_to_graph.self_ms", "ms", ("self", "transform.cnf_to_graph")),
    ("compilealg.compile.self_ms", "ms", ("self", "compilealg.compile")),
    ("compilealg.compile.nodes_out", "count", ("sum", "compilealg.compile", "nodes_out")),
    ("translate.translate.self_ms", "ms", ("self", "translate.translate")),
    ("translate.translate.functions", "count", ("sum", "translate.translate", "functions")),
    ("translate.translate.failed", "count", ("failed", "translate.translate")),
    ("interp.eval_term.self_ms", "ms", ("self", "interp.eval_term")),
    ("interp.eval_term.calls", "count", ("sum", "interp.eval_term", "calls")),
    ("interp.eval_proof.self_ms", "ms", ("self", "interp.eval_proof")),
    ("interp.eval_proof.steps", "count", ("sum", "interp.eval_proof", "steps")),
    ("interp.eval_proof.memo_keys", "count", ("sum", "interp.eval_proof", "memo_keys")),
    ("interp.eval_pp.self_ms", "ms", ("self", "interp.eval_pp")),
    ("interp.eval_pp.steps", "count", ("sum", "interp.eval_pp", "steps")),
    ("interp.eval_pp.max_depth", "count", ("max", "interp.eval_pp", "max_depth")),
    ("interp.eval_pp.failed", "count", ("failed", "interp.eval_pp")),
    ("bounds.synthesize_bound.self_ms", "ms", ("self", "bounds.synthesize_bound")),
    ("bounds.verify_bound.self_ms", "ms", ("self", "bounds.verify_bound")),
    ("bounds.verify_bound.samples", "count", ("sum", "bounds.verify_bound", "samples")),
    ("cli.main.self_ms", "ms", ("self", "cli.main")),
    ("cli.main.tracebacks", "count", ("failed", "cli.main")),
]


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    op: tuple[int, int]  # (pass, operation index): the request this span serves
    layer: str
    name: str
    start: float = 0.0
    end: float = 0.0
    failed: bool = False
    counts: Optional[dict] = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op: tuple[int, int] = (-1, -1)
        self.origin = time.perf_counter()
        self.replaced: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every function in TRACED wherever circsafe binds it."""
        stats_cls = importlib.import_module("circsafe.interp").EvalStats
        modules = [m for n, m in sys.modules.items() if n == "circsafe" or n.startswith("circsafe.")]
        for mod_name, fn_name, layer, counter in TRACED:
            orig = getattr(importlib.import_module(f"circsafe.{mod_name}"), fn_name)
            wrapper = self._wrap(orig, layer, f"{mod_name}.{fn_name}", counter, stats_cls if layer in _STATS_COUNTERS else None)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self.replaced.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self.replaced):
            setattr(mod, attr, orig)
        self.replaced.clear()

    def _wrap(self, fn, layer, name, counter, stats_cls):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]].name == name:
                return fn(*args, **kwargs)  # direct recursion folds into the outer span
            stats = None
            if stats_cls is not None:
                stats = kwargs.get("stats") if len(args) <= _STATS_ARG else args[_STATS_ARG]
                if stats is None:
                    stats = kwargs["stats"] = stats_cls()
            span = Span(len(spans), stack[-1] if stack else None, self.op, layer, name)
            spans.append(span)
            stack.append(span.sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = time.perf_counter()
                stack.pop()
                span.failed = True
                if counter is not None:
                    span.counts = counter(args, None, stats)
                raise
            span.end = time.perf_counter()
            stack.pop()
            if counter is not None:
                span.counts = counter(args, result, stats)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "pass": s.op[0], "op": s.op[1],
                    "name": s.name, "start": s.start - self.origin, "end": s.end - self.origin,
                    "failed": s.failed, "counts": s.counts,
                }) + "\n")


def per_pass(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Layer metrics for each traced pass, keyed by pass number."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[int, dict[str, float]] = {}
    for s in spans:
        acc = out.setdefault(s.op[0], {})
        self_s = (s.end - s.start) - child_time[s.sid]
        acc[("self", s.layer)] = acc.get(("self", s.layer), 0.0) + self_s
        if s.failed:
            acc[("failed", s.layer)] = acc.get(("failed", s.layer), 0) + 1
        # counts of a call nested in another call of its own layer (such
        # as the srec elimination inside nb_to_circular) are not added
        if s.counts and not _nested_in_layer(spans, s):
            for k, v in s.counts.items():
                acc[("sum", s.layer, k)] = acc.get(("sum", s.layer, k), 0) + v
                acc[("max", s.layer, k)] = max(acc.get(("max", s.layer, k), 0), v)
    return {p: {name: _value(acc, how) for name, _, how in LAYER_METRICS} for p, acc in out.items()}


def _nested_in_layer(spans: list[Span], s: Span) -> bool:
    p = s.parent
    while p is not None:
        if spans[p].layer == s.layer:
            return True
        p = spans[p].parent
    return False


def _value(acc: dict, how: tuple) -> float:
    if how[0] == "self":
        return acc.get(how, 0.0) * 1000.0
    return acc.get(how, 0)


def op_counts(spans: list[Span], layer: str, key: str) -> dict[tuple[int, int], int]:
    """Sum of one count per operation, for spans of one layer."""
    out: dict[tuple[int, int], int] = {}
    for s in spans:
        if s.layer == layer and s.counts and key in s.counts:
            out[s.op] = out.get(s.op, 0) + s.counts[key]
    return out
