"""Repeat the benchmark over seeds and record the spread, medians and trace.

    python3 perfbench/record.py [--trace] [--out perfbench/trajectory/NAME.json]
        [--label TEXT]

For every workload, runs `run.py --trace 0` once per seed, seeds 0 to RUNS - 1,
and reports, for every end-to-end metric, the median, the quartiles and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json.
With --trace, one traced run per workload (seed 0) adds the per-layer
metrics, the trace's own overhead and self-time coverage, and each span's
share of the traced operation time. --out writes all of it, with the machine
it ran on, as one point of the trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import PINNED_ENV, WORKLOAD_NAMES  # noqa: E402
from tracer import trace_summary  # noqa: E402

# Runs per workload: the spread of ten runs is what a change is judged by.
RUNS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"]}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--label", default="")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"label": args.label, "machine": machine(), "run_seconds": spec["run_seconds"],
              "runs": RUNS, "workloads": {}}
    for w in WORKLOAD_NAMES:
        start = time.monotonic()
        results = [bench(w, seed, spec["run_seconds"], 0) for seed in range(RUNS)]
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "wall_s_per_run": (time.monotonic() - start) / RUNS, "end_to_end": {}}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = s
            flag = "ok" if s["spread"] < bound / 3 else ("WIDE" if s["spread"] <= bound else "OVER")
            print(f"{w:13s} {name:12s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                  f"q3 {s['q3']:10.4f}  spread {s['spread']:.4f} / bound {bound}  {flag}",
                  flush=True)
        print(f"{w:13s} failed {entry['failed']}/{entry['attempted']}, "
              f"{entry['wall_s_per_run']:.1f} s wall per run", flush=True)
        if args.trace:
            start = time.monotonic()
            traced = bench(w, 0, spec["run_seconds"], 1)["metrics"]
            entry["traced_wall_s"] = time.monotonic() - start
            per_layer = {k: v["value"] for k, v in traced.items()}
            op_s = per_layer["trace.op_s"]
            entry["per_layer"] = per_layer
            entry["trace_summary"] = trace_summary(per_layer)
            entry["share_of_traced_op"] = {
                k[: -len(".self_s")]: v / op_s for k, v in sorted(
                    per_layer.items(), key=lambda kv: -kv[1]) if k.endswith(".self_s") and v > 0}
            for span, share in entry["share_of_traced_op"].items():
                print(f"{w:13s}   {span:40s} {share:7.1%}", flush=True)
        record["workloads"][w] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
