"""Tests and negative controls for the benchmark itself.

    python3 -m pytest -q perfbench/tests

They import dest3d from this checkout's src/ and take about a minute,
most of it in the decoder operations behind the negative controls.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from workloads import (CASES, WORKLOADS, OracleInputs, MissingReference, Workload,  # noqa: E402
                       build_inputs, digest, load_reference, mismatch, run_op)

DECODER_WORKLOADS = [n for n, w in WORKLOADS.items() if w.is_decoder]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_code():
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracer_mod.per_layer_units()


@pytest.mark.parametrize("name", DECODER_WORKLOADS)
def test_perturbed_weight_misses_reference(name):
    w = WORKLOADS[name]
    got = digest(w, run_op(w, build_inputs(w, 0, perturb=1e-6)))
    assert mismatch(w, got, load_reference(w, 0)) is not None


def test_perturbed_oracles_fail():
    w = WORKLOADS["oracles"]
    assert mismatch(w, digest(w, run_op(w, OracleInputs(perturb=1e-6))), None) is not None
    assert mismatch(w, digest(w, run_op(w, OracleInputs())), None) is None


def test_cli_negative_control_fails_every_op():
    res = last_json(bench("--workload", "mlp_vertex", "--seed", "2", "--seconds", "1",
                          "--trace", "0", "--perturb", "1e-6"))
    assert res["attempted"] >= 1
    assert res["failed"] == res["attempted"]
    assert res["correct"] is False


@pytest.mark.parametrize("name", ["mlp_vertex", "oracles"])
def test_traced_and_untraced_outputs_identical(name):
    w = WORKLOADS[name]
    inputs = build_inputs(w, 1)
    plain = digest(w, run_op(w, inputs))
    tr = tracer_mod.Tracer()
    with tr.op():
        traced = digest(w, run_op(w, inputs))
    assert plain.keys() == traced.keys()
    for key in plain:
        assert np.array_equal(plain[key], traced[key]), key
    assert mismatch(w, plain, load_reference(w, 1)) is None
    assert tr.spans and not tr.missing


def test_wrappers_are_removed_after_the_op():
    from dest3d import issm
    original = issm.softplus
    with tracer_mod.Tracer().op():
        assert issm.softplus is not original
    assert issm.softplus is original


def test_missing_function_is_reported_not_fatal(monkeypatch):
    from dest3d import verify
    monkeypatch.delattr(verify, "scan_chunked")
    traced = tracer_mod.TRACED + (("issm.no_such_function", ("issm",)),)
    tr = tracer_mod.Tracer(traced=traced)
    assert "ssm.scan_chunked" in tr.missing
    assert "issm.no_such_function" in tr.missing
    with tr.op():
        pass
    metrics = tracer_mod.per_layer_metrics(tr, [0], [1.0], [1.0], None)
    assert metrics["ssm.scan_chunked.self_s"] == 0.0


def test_seed_maps_to_frozen_case_and_unknown_case_is_refused():
    w = WORKLOADS["points_heavy"]
    assert load_reference(w, CASES - 1)
    with pytest.raises(MissingReference):
        load_reference(w, CASES)
    changed = Workload(w.name, w.why, points=w.points + 12, states=w.states)
    with pytest.raises(MissingReference):
        load_reference(changed, 0)


def test_self_time_subtracts_direct_children():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 1.0, 2.0, 1, 0),
        ("a", 5.0, 6.0, 0, 0),
    ]
    per_op = tracer_mod.self_times(spans)[0]
    assert per_op["root"] == pytest.approx((6.0, 1))
    assert per_op["a"] == pytest.approx((3.0, 2))
    assert per_op["b"] == pytest.approx((1.0, 1))


def test_untraced_run_prints_end_to_end_metrics():
    res = last_json(bench("--workload", "oracles", "--seed", "5", "--seconds", "1",
                          "--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_oracles_run_has_no_decoder_span_and_only_delay_kernel_of_issm():
    proc = bench("--workload", "oracles", "--seed", "0", "--seconds", "1", "--trace", "1")
    res = last_json(proc)
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    calls = {k[: -len(".calls")]: v for k, v in metrics.items() if k.endswith(".calls")}
    assert not any(v for k, v in calls.items() if k.startswith("decoder."))
    # delay_monotone calls issm.delay_kernel through verify's own import.
    assert [k for k, v in calls.items() if k.startswith("issm.") and v] == ["issm.delay_kernel"]
    assert metrics["issm.delay_kernel.self_s"] > 0
    assert metrics["verify.grad_check.calls"] == 1
    assert metrics["ssm.scan_chunked.calls"] > 0
    summary = tracer_mod.trace_summary(metrics)
    # A ratio of medians, so it can pass 1 by a little.
    assert 0.95 <= summary["self_sum_ratio"] <= 1.05
    assert "missing (not wrapped): none" in proc.stdout


def test_program_that_raises_is_reported_failed_not_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "dest3d" / "decoder.py", "a") as f:
        f.write("\n\ndef decoder_stack(*args, **kwargs):\n    raise RuntimeError('broken')\n")
    res = last_json(bench("--workload", "demo", "--seed", "0", "--seconds", "1", "--trace", "0",
                          cwd=tmp_path))
    # Each of the run's processes counts its warm-up op and at least one timed op.
    assert res["attempted"] >= 2 * run.SETUPS
    assert res["failed"] == res["attempted"]
    assert res["correct"] is False


def test_directory_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "oracles", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
