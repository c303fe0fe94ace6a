"""One benchmark process: set up a workload, measure it, check it.

Started by run.py with a fixed PYTHONHASHSEED and circsafe's source
directory on PYTHONPATH; prints one JSON line with its results.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from before circsafe is imported

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import threading
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failures are +inf and sort last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latency_ms(m: "Measurement", q: float) -> float:
    """Percentile over the operations of a pass, each operation taken at
    its fastest pass, in milliseconds.

    The mix of a pass is fixed, so the percentile picks the same
    operation in every run.  On a shared machine the processor's speed
    drifts, by a fifth within a second and by up to 1.4 times for tens
    of seconds; the fastest of the passes, which are spread over the
    whole run, is the least disturbed reading of each operation.  A
    failure is +inf in every pass, so it stays +inf.
    """
    return percentile([min(ts) for ts in m.times.values()], q) * 1000.0


def _canon(x):
    """A repr-able form of an output; hex keeps huge ints printable."""
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, int):
        return hex(x)
    if isinstance(x, (tuple, list)):
        return tuple(_canon(v) for v in x)
    return repr(x)


class Measurement:
    """Whole passes over the operations until ``seconds`` have elapsed."""

    def __init__(self) -> None:
        self.times: dict[int, list[float]] = {}  # op index -> seconds per pass, +inf when it raised
        self.passes = 0
        self.errors: dict[str, int] = {}
        self.outputs: dict[int, dict[str, object]] = {}  # op index -> digest -> output

    def run_pass(self, ops, tracer=None) -> None:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = (self.passes, i)
            t = time.perf_counter()
            try:
                out = op.run()
            except Exception as e:  # a failure is any exception escaping the call
                self.times.setdefault(i, []).append(math.inf)
                name = f"{op.key}: {type(e).__name__}"
                self.errors[name] = self.errors.get(name, 0) + 1
                continue
            self.times.setdefault(i, []).append(time.perf_counter() - t)
            value = op.collect(out)
            digest = hashlib.sha256(repr(_canon(value)).encode()).hexdigest()
            self.outputs.setdefault(i, {}).setdefault(digest, value)
        self.passes += 1

    @property
    def attempted(self) -> int:
        return sum(len(ts) for ts in self.times.values())

    @property
    def failed(self) -> int:
        return sum(1 for ts in self.times.values() for t in ts if t == math.inf)


def run_deep(fn):
    """Run fn on a thread with a large stack and recursion limit.

    Only the checks use it: they parse and run translated programs as
    deep as the generated proofs, which the program's own calls are not
    given room for.
    """
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:
            box["error"] = e

    old_limit, old_size = sys.getrecursionlimit(), threading.stack_size()
    threading.stack_size(256 * 1024 * 1024)
    sys.setrecursionlimit(60000)
    try:
        t = threading.Thread(target=target)
        t.start()
        t.join()
    finally:
        sys.setrecursionlimit(old_limit)
        threading.stack_size(old_size)
    if "error" in box:
        raise box["error"]
    return box.get("value")


def check_outputs(ops, *measurements) -> list[str]:
    problems = []
    for m in measurements:
        for i, outs in m.outputs.items():
            for value in outs.values():
                try:
                    ops[i].check(value)
                except workloads.CheckFailed as e:
                    problems.append(str(e))
                except Exception as e:  # an output the checks cannot even read is wrong too
                    problems.append(f"{ops[i].key}: checking the output raised {type(e).__name__}: {e}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tmp = Path(__file__).resolve().parent / ".tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, tmp: Path) -> int:
    ctx = workloads.load(ROOT, args.seed, tmp)
    ops, warmup = workloads.WORKLOADS[args.workload](ctx)
    for op in warmup:
        op.collect(op.run())
    setup_s = time.perf_counter() - STARTED
    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "cores": os.cpu_count(), "machine": platform.machine(), "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "env": env}))
        return 0

    # Objects alive after set-up (modules, inputs, the harness's own) move
    # out of the collector's reach: otherwise each full collection, which
    # falls on the same operation in every pass, rescans them, and which
    # operation that is changes with the seed.
    gc.collect()
    gc.freeze()
    plain = Measurement()
    result = {"env": env, "setup_s": setup_s, "ops_per_pass": len(ops)}
    start = time.perf_counter()
    if not args.trace:
        while not plain.passes or time.perf_counter() - start < args.seconds:
            plain.run_pass(ops)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = run_deep(lambda: check_outputs(ops, plain))
        measured = plain
    else:
        # traced and untraced passes alternate, so the tracing overhead is
        # measured under the same machine conditions; at least two traced
        # passes, so counts can be compared between them
        tracer = tracing.Tracer()
        traced = Measurement()
        while traced.passes < 2 or time.perf_counter() - start < args.seconds:
            plain.run_pass(ops)
            tracer.install()
            traced.run_pass(ops, tracer)
            tracer.uninstall()
        problems = run_deep(lambda: check_outputs(ops, plain, traced))
        problems += _trace_metrics(result, ops, plain, traced, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        measured = traced
    # an operation whose output changed between passes is reported too
    for m in (plain, measured):
        for i, outs in m.outputs.items():
            if len(outs) > 1:
                problems.append(f"{ops[i].key}: {len(outs)} different outputs across passes")
    result.update(
        correct=not problems, problems=problems[:20], attempted=measured.attempted, failed=measured.failed,
        passes=measured.passes, errors=measured.errors,
        op_p50_ms=latency_ms(measured, 0.5), op_p90_ms=latency_ms(measured, 0.9),
        op_ms={ops[i].key: min(ts) * 1000.0 for i, ts in measured.times.items()},
    )
    print(json.dumps(result))
    return 0


def _trace_metrics(result: dict, ops, plain: Measurement, traced: Measurement, tracer) -> list[str]:
    problems = []
    passes = tracing.per_pass(tracer.spans)
    first = passes[0]
    layer = {}
    for name, unit, how in tracing.LAYER_METRICS:
        values = [p[name] for p in passes.values()]
        if unit == "ms":
            layer[name] = (sorted(values)[len(values) // 2], unit)
        else:
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            layer[name] = (first[name], unit)
    steps: dict[str, set[int]] = {key: set() for key in workloads.STEPS_KEYS}
    for (_, i), v in tracing.op_counts(tracer.spans, "interp.eval_proof", "steps").items():
        if ops[i].steps_key is not None:
            steps[ops[i].steps_key].add(v)
    for key, values in steps.items():
        if len(values) > 1:
            problems.append(f"count interp.eval_proof.steps.{key} differs between traced passes: {sorted(values)}")
        layer[f"interp.eval_proof.steps.{key}"] = (max(values, default=0), "count")
    layer["trace.overhead_p50_ms"] = (latency_ms(traced, 0.5) - latency_ms(plain, 0.5), "ms")
    result["layers"] = layer
    result["layer_passes"] = len(passes)
    return problems


if __name__ == "__main__":
    sys.exit(main())
