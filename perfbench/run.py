"""circsafe benchmark: one command, one workload, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a circsafe checkout.  Each run starts fresh
worker processes with a fixed PYTHONHASHSEED and the checkout's src/ on
PYTHONPATH, so nothing needs installing.  With --trace 0 it prints the
end-to-end metrics of BENCHMARK.json; set-up is repeated in five
processes and reported as their median.  With --trace 1 it prints the
per-layer metrics from a traced run.  The last line of standard output
is the JSON result; earlier lines describe the run and its environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bound-sampling", "proof-graphs", "compile-run", "long-inputs")
# Set-up is timed in five fresh processes: two before the measuring one,
# which also reports its own, and two after, so that the median spans the
# whole run rather than one moment of the machine's drifting speed.
SETUP_BEFORE, SETUP_AFTER = 2, 2
DEADLINE_S = 170.0


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _worker(args, setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "circsafe" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"error: {ROOT} is not a circsafe checkout (no src/circsafe or corpus/)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    spec = _benchmark_spec()
    try:
        if args.trace:
            res = _worker(args, False, deadline)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["layers"].items()}
            wanted = spec["per_layer"]
        else:
            setups = [_worker(args, True, deadline)["setup_s"] for _ in range(SETUP_BEFORE)]
            res = _worker(args, False, deadline)
            setups += [res["setup_s"]] + [_worker(args, True, deadline)["setup_s"] for _ in range(SETUP_AFTER)]
            ok_share = (res["attempted"] - res["failed"]) / res["attempted"]
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "op_p50_ms": {"value": res["op_p50_ms"], "unit": "ms"},
                "op_p90_ms": {"value": res["op_p90_ms"], "unit": "ms"},
                "ok_share": {"value": ok_share, "unit": "ratio"},
                "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            }
            wanted = spec["end_to_end"]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as e:
        print(f"error: {args.workload} seed {args.seed}: {e}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: metrics[m["name"]] for m in wanted}

    print("env: " + json.dumps(res["env"], sort_keys=True))
    print(f"run: {res['attempted']} operations in {res['passes']} passes of {res['ops_per_pass']}, "
          f"{res['failed']} failed ({res['failed'] / res['attempted']:.2%})")
    for name, count in sorted(res["errors"].items()):
        print(f"failed: {name} x{count}")
    for problem in res["problems"]:
        print(f"wrong: {problem}")
    for name, m in metrics.items():
        print(f"metric: {name} = {m['value']:.6g} {m['unit']}")
    (HERE / "out").mkdir(exist_ok=True)
    record = dict(res, metrics=metrics)
    (HERE / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
