"""dest3d decoder benchmark.

Runs one workload (or all of them) in child processes with BLAS pinned to one
thread, checks every operation's output against a frozen reference, and
prints the metrics by name with their units. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload states_heavy --seed 0 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 8 --trace 0

--trace 0 reports the end-to-end metrics (op_s, setup_s, peak_rss_mb) from
SETUPS fresh processes that split --seconds between them; --trace 1 reports
the per-layer metrics from one process that alternates untraced and traced
operations and writes its spans to perfbench/out/. Operations that raise or
miss the reference are counted in "failed". Exit code 2: the program under
src/ or its frozen reference is missing, or a child process died.
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
OUT_DIR = HERE / "out"
# One BLAS thread: two measured about 20% slower at K=64 on a 2-core machine.
# No transparent huge pages for numpy arrays: whether the host has them free
# varies per process and moved a process's op time by up to 30% on a 2-core
# VM, while ops within one process agreed to about 2%.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "NUMPY_MADVISE_HUGEPAGE": "0"}
# Fresh processes per untraced run. Op times vary more between processes than
# within one, so the run's medians are taken over several.
SETUPS = 3
CHILD_TIMEOUT_S = 170.0
# Kept in step with workloads.WORKLOADS (a test checks); the parent does not
# import the program, only its children do.
WORKLOAD_NAMES = ("demo", "states_heavy", "points_heavy", "mlp_vertex", "oracles")
END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(Exception):
    pass


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              perturb: float, spans_out: Path | None, timeout: float) -> dict:
    """Start one measured process, wait for it, and return its JSON result."""
    env = dict(os.environ, **PINNED_ENV)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    if trace:
        cmd.append("--trace")
    if perturb:
        cmd += ["--perturb", repr(perturb)]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    cmd += ["--t0", repr(time.monotonic())]
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{workload}: child exceeded {timeout:.0f} s") from None
        finally:
            if proc.poll() is None:  # timed out or interrupted: never leave it running
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}: child exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{workload}: child printed no result")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 perturb: float = 0.0) -> dict:
    """Measure one workload within CHILD_TIMEOUT_S.

    Returns {"attempted", "failed", "metrics", "units", "note", "mismatches"}.
    """
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    def child(secs: float, spans_out: Path | None = None) -> dict:
        return run_child(workload, seed, secs, trace, perturb, spans_out,
                         max(1.0, deadline - time.monotonic()))

    if trace:
        spans_out = OUT_DIR / f"spans_{workload}_seed{seed}.json"
        res = child(seconds, spans_out)
        children = [res]
        metrics = res["per_layer"]
        summary = res["summary"]
        note = (f"{res['traced_ops']} traced ops alternating with untraced ones; "
                f"trace overhead_ratio {summary['overhead_ratio']:.4g}, self_sum_ratio "
                f"{summary['self_sum_ratio']:.4g}; spans in {spans_out.relative_to(ROOT)}")
        note += f"; missing (not wrapped): {', '.join(res['missing']) or 'none'}"
    else:
        children = [child(seconds / SETUPS) for _ in range(SETUPS)]
        times = [t for c in children for t in c["op_times"]]
        metrics = {
            "op_s": statistics.median(times),
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        }
        note = (f"op_s median of {len(times)} ops, setup_s and peak_rss_mb "
                f"medians of {SETUPS} processes")
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    mismatches = [m for c in children for m in c["mismatches"]]
    if workload == "oracles":
        note += "; the suites seed their own inputs, so --seed does not vary them"
    else:
        note += f"; --seed {seed} runs frozen reference case {children[0]['case']}"
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "units": children[0].get("units", END_TO_END_UNITS),
            "note": note, "mismatches": mismatches[:3]}


def report(workload: str, res: dict) -> None:
    """Human-readable lines; the JSON result follows on the last line."""
    ratio = res["failed"] / res["attempted"]
    print(f"[{workload}] {res['note']}")
    print(f"[{workload}] failed_ratio {ratio:.6g} (1) = {res['failed']}/{res['attempted']}")
    for m in res["mismatches"]:
        print(f"[{workload}] mismatch: {m}")
    for name, value in res["metrics"].items():
        print(f"[{workload}] {name} {value:.6g} {res['units'][name]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dest3d decoder benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb", type=float, default=0.0,
                    help="negative control: offset one weight (decoder workloads) "
                         "or each suite's checked side (oracles); every op must fail")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dest3d" / "__init__.py").is_file():
        print(f"run.py: no program at {ROOT / 'src' / 'dest3d'}; nothing to measure",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, trace, args.perturb)
        except ChildFailed as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
        report(name, results[name])
    prefix = len(names) > 1
    metrics = {(f"{w}.{k}" if prefix else k): {"value": v, "unit": r["units"][k]}
               for w, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
