"""Spans around the calls into each dest3d layer, recorded from outside.

Each traced function is replaced, for the duration of one traced operation,
by a wrapper at the module global where its caller looks it up (for example
`dest3d.issm.softplus`, which `ibs_forward` calls, rather than
`dest3d.numerics.softplus`). A wrapper records a span (name, start, end,
parent span, op) in memory; spans are written out when the benchmark ends.
A traced name that no longer exists at any of its lookup sites is reported as
missing and skipped, so the program can drop or fuse functions without
breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from workloads import SUITES

# (span name "<layer>.<function>", dest3d modules whose global of that name
# the timed path calls). Every site where a caller on the decoder or oracle
# path looks the name up is listed, so a span's time is never booked to its
# caller: verify's delay_monotone suite calls issm.delay_kernel and
# numerics.softplus through verify's own imports.
TRACED = (
    ("serialization.serialize", ("decoder",)),
    ("geometry.farthest_point_sampling", ("decoder",)),
    ("issm.ibs_forward", ("decoder",)),
    ("issm.spatial_correlation", ("issm",)),
    ("issm.delay_kernel", ("issm", "verify")),
    ("issm.gen_params", ("issm",)),
    ("numerics.softplus", ("issm", "decoder", "verify")),
    ("numerics.depthwise_conv1d", ("issm", "decoder")),
    ("numerics.linear", ("issm", "decoder")),
    ("ssm.discretize_zoh", ("issm",)),
    ("ssm.scan_sequential", ("issm", "verify", "ssm")),
    ("ssm.scan_chunked", ("verify",)),
    ("ssm.scan_backward", ("verify",)),
    ("ssm.lti_conv_form", ("verify",)),
    ("decoder.decoder_stack", ("decoder",)),
    ("decoder.decoder_layer", ("decoder",)),
    ("decoder.inter_state_attention", ("decoder",)),
    ("decoder.gffn", ("decoder",)),
    ("decoder.detection_head", ("decoder",)),
    ("verify.attention_recurrence", ("verify",)),
    ("verify.attention_direct", ("verify",)),
)
# run_equivalence_suite is wrapped once; each call's span is named after the
# suite it runs.
SUITE_RUNNER = "run_equivalence_suite"
# Functions whose (M, K, E) results are counted in issm.mke_bytes.
MKE_PRODUCERS = ("issm.gen_params", "numerics.softplus", "ssm.discretize_zoh")
SUPPRESSED_BELOW = 1e-3


def span_names() -> list[str]:
    return [name for name, _ in TRACED] + [f"verify.{s}" for s in SUITES]


def _arrays(value):
    """ndarrays in a result: the value itself, a tuple's items or a dataclass's fields."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            if isinstance(item, np.ndarray):
                yield item
    elif hasattr(value, "__dataclass_fields__"):
        for f in value.__dataclass_fields__:
            item = getattr(value, f, None)
            if isinstance(item, np.ndarray):
                yield item


@dataclass
class OpCounters:
    mke_bytes: int = 0
    suppressed: int = 0
    delay_pairs: int = 0
    scan_steps: int = 0
    ibs_peak_bytes: list[int] = field(default_factory=list)


class Tracer:
    """Installs wrappers around one operation and keeps its spans in memory."""

    def __init__(self, traced=TRACED):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: list[OpCounters] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._memory = False
        self._sites = self._resolve(traced)

    def _resolve(self, traced):
        """(module, attribute, original, span name) for every site that exists."""
        sites = []
        for name, modules in traced:
            attr = name.rsplit(".", 1)[1]
            found = False
            for mod_name in modules:
                try:
                    mod = importlib.import_module(f"dest3d.{mod_name}")
                except ImportError:
                    continue
                fn = getattr(mod, attr, None)
                if callable(fn):
                    sites.append((mod, attr, fn, name))
                    found = True
            if not found:
                self.missing.append(name)
        try:
            verify = importlib.import_module("dest3d.verify")
            runner = getattr(verify, SUITE_RUNNER)
            sites.append((verify, SUITE_RUNNER, runner, None))
        except (ImportError, AttributeError):
            self.missing.extend(f"verify.{s}" for s in SUITES)
        return sites

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if span_name is None:  # the suite runner: name the span after the suite
                kind = args[0] if args else kwargs.get("kind")
                span_name = f"verify.{kind}"
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append((span_name, 0.0, 0.0, parent, tracer._op))
            tracer._stack.append(index)
            memory = tracer._memory and span_name == "issm.ibs_forward"
            if memory:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (span_name, start, end, parent, tracer._op)
            if memory:
                tracer.counters[-1].ibs_peak_bytes.append(
                    tracemalloc.get_traced_memory()[1] - base)
            tracer._count(span_name, out)
            return out

        return wrapper

    def _count(self, name: str, out) -> None:
        c = self.counters[-1]
        if name in MKE_PRODUCERS:
            c.mke_bytes += sum(a.nbytes for a in _arrays(out) if a.ndim == 3)
        elif name == "issm.delay_kernel" and isinstance(out, np.ndarray):
            c.suppressed += int(np.count_nonzero(out < SUPPRESSED_BELOW))
            c.delay_pairs += out.size
        elif name == "ssm.scan_sequential":
            y = getattr(out, "y", None)
            if isinstance(y, np.ndarray):
                c.scan_steps += y.shape[0]

    @contextmanager
    def op(self, memory: bool = False):
        """Trace one operation; with memory=True also take tracemalloc peaks."""
        self._op += 1
        self._memory = memory
        self.counters.append(OpCounters())
        for mod, attr, fn, name in self._sites:
            setattr(mod, attr, self._wrap(fn, name))
        if memory:
            tracemalloc.start()
        try:
            yield self._op
        finally:
            if memory:
                tracemalloc.stop()
            for mod, attr, fn, _ in self._sites:
                setattr(mod, attr, fn)
            self._memory = False


def self_times(spans) -> dict[int, dict[str, tuple[float, int]]]:
    """Per op, per span name: (total self time, calls).

    Self time is a span's duration minus the durations of its direct
    children; calls nest strictly, so children never overlap.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
    for index, (name, start, end, parent, op) in enumerate(spans):
        entry = out[op][name]
        entry[0] += end - start - child_time[index]
        entry[1] += 1
    return {op: {n: (v[0], v[1]) for n, v in names.items()} for op, names in out.items()}


def per_layer_metrics(tracer: Tracer, timed_ops: list[int], op_wall: list[float],
                      untraced_wall: list[float], memory_op: int | None) -> dict[str, float]:
    """Per-op medians over the timed traced ops, plus the counters and op times."""
    per_op = self_times([s for s in tracer.spans if s[4] in timed_ops])
    metrics: dict[str, float] = {}
    for name in span_names():
        selfs = [per_op.get(op, {}).get(name, (0.0, 0))[0] for op in timed_ops]
        calls = [per_op.get(op, {}).get(name, (0.0, 0))[1] for op in timed_ops]
        metrics[f"{name}.self_s"] = statistics.median(selfs)
        metrics[f"{name}.calls"] = statistics.median(calls)
    counters = [tracer.counters[op] for op in timed_ops]
    peaks = tracer.counters[memory_op].ibs_peak_bytes if memory_op is not None else []
    pairs = sum(c.delay_pairs for c in counters)
    metrics["issm.ibs_forward.peak_alloc_mb"] = max(peaks, default=0) / 2**20
    metrics["issm.mke_bytes"] = statistics.median(c.mke_bytes for c in counters)
    metrics["issm.delay_kernel.suppressed_ratio"] = (
        sum(c.suppressed for c in counters) / pairs if pairs else 0.0)
    metrics["ssm.scan_sequential.steps"] = statistics.median(c.scan_steps for c in counters)
    metrics["trace.op_s"] = statistics.median(op_wall)
    metrics["trace.untraced_op_s"] = statistics.median(untraced_wall)
    return metrics


def trace_summary(per_layer: dict[str, float]) -> dict[str, float]:
    """Figures that check the trace itself rather than measure a layer.

    overhead_ratio is traced over untraced op time, minus 1; it compares one
    to a few op pairs in one process, so machine drift can make it negative.
    self_sum_ratio is the sum of the median self times over the median traced
    op time, about 1 when the spans account for the op.
    """
    op_s = per_layer["trace.op_s"]
    self_sum = sum(v for k, v in per_layer.items() if k.endswith(".self_s"))
    return {"overhead_ratio": op_s / per_layer["trace.untraced_op_s"] - 1.0,
            "self_sum_ratio": self_sum / op_s}


PER_LAYER_SPECIAL = {
    "issm.ibs_forward.peak_alloc_mb": "MB",
    "issm.mke_bytes": "B",
    "issm.delay_kernel.suppressed_ratio": "1",
    "ssm.scan_sequential.steps": "count",
    "trace.op_s": "s",
    "trace.untraced_op_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in span_names():
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(PER_LAYER_SPECIAL)
    return units
