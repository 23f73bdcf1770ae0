"""One measured process: set up one workload, warm up, then time operations.

Started by run.py with the environment of run.PINNED_ENV. Prints
one JSON object as its last line of standard output. Exit code 2 means the
program or its frozen reference could not be loaded. An op that raises or
misses the reference, the warm-up op included, is counted as failed.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --t0 T
        [--trace] [--perturb EPS] [--spans-out FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def checked_op(wl, inputs, ref) -> tuple[float, str | None]:
    """Run and check one op: (seconds, failure reason or None).

    An op that raises counts as failed, never as skipped.
    """
    from workloads import digest, mismatch, run_op

    start = time.perf_counter()
    try:
        out = run_op(wl, inputs)
    except Exception as exc:
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return seconds, mismatch(wl, digest(wl, out), ref)


def run_untraced(wl, inputs, ref, seconds: float) -> dict:
    times, failures = [], []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        dt, reason = checked_op(wl, inputs, ref)
        times.append(dt)
        failures += [reason] if reason else []
    return {"op_times": times, "op_s": statistics.median(times),
            "attempted": len(times), "failures": failures}


def run_traced(wl, inputs, ref, seconds: float, spans_out: str | None) -> dict:
    """Alternate untraced and traced ops, then one checked op under tracemalloc."""
    from tracer import Tracer, per_layer_metrics, per_layer_units, trace_summary

    tracer = Tracer()
    plain, traced, ops, failures = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        dt, reason = checked_op(wl, inputs, ref)
        plain.append(dt)
        failures += [reason] if reason else []
        with tracer.op() as op:
            dt, reason = checked_op(wl, inputs, ref)
        ops.append(op)
        traced.append(dt)
        failures += [reason] if reason else []
    memory_op, attempted = None, len(plain) + len(traced)
    if wl.is_decoder:
        with tracer.op(memory=True) as memory_op:
            _, reason = checked_op(wl, inputs, ref)
        attempted += 1
        failures += [reason] if reason else []
    if spans_out:
        Path(spans_out).parent.mkdir(parents=True, exist_ok=True)
        Path(spans_out).write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "op"],
            "timed_ops": ops, "memory_op": memory_op,
            "spans": tracer.spans, "missing": tracer.missing,
        }))
    per_layer = per_layer_metrics(tracer, ops, traced, plain, memory_op)
    return {"per_layer": per_layer, "units": per_layer_units(),
            "summary": trace_summary(per_layer), "missing": tracer.missing, "traced_ops": len(ops),
            "attempted": attempted, "failures": failures}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--perturb", type=float, default=0.0)
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)
    try:
        from workloads import WORKLOADS, MissingReference, build_inputs, case_for_seed, load_reference
    except ImportError as exc:
        print(f"child: cannot import the program: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    case = case_for_seed(args.seed)
    try:
        ref = load_reference(wl, case)
    except MissingReference as exc:
        print(f"child: refused: {exc}", file=sys.stderr)
        return 2
    inputs = build_inputs(wl, case, args.perturb)
    _, warmup_failure = checked_op(wl, inputs, ref)  # untimed, but checked and counted
    setup_s = time.monotonic() - args.t0

    if args.trace:
        result = run_traced(wl, inputs, ref, args.seconds, args.spans_out)
    else:
        result = run_untraced(wl, inputs, ref, args.seconds)
    failures = [warmup_failure] if warmup_failure else []
    failures += result.pop("failures")
    result["attempted"] += 1
    result.update(case=case, setup_s=setup_s, failed=len(failures), mismatches=failures[:3],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
