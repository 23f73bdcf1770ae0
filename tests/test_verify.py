import subprocess
import warnings

import numpy as np
import pytest

from dest3d import verify
from dest3d.numerics import PrngStream
from dest3d.ssm import _BLOCK
from dest3d.verify import (
    SUITE_NAMES,
    EquivalenceReport,
    _similarity,
    attention_direct,
    attention_recurrence,
    complexity_bench,
    run_equivalence_suite,
)


class TestAttentionDirect:
    def test_first_prefix_returns_first_value(self):
        rng = PrngStream(0)
        q0, keys, values = rng.normal((3, 4)), rng.normal((6, 4)), rng.normal((6, 4))
        for sim in ("exp_dot", "rbf"):
            out = attention_direct(q0, keys, values, m=1, sim=sim)
            np.testing.assert_allclose(out, np.tile(values[0], (3, 1)), rtol=1e-12)

    def test_identical_values_collapse(self):
        rng = PrngStream(1)
        v = rng.normal((4,))
        values = np.tile(v, (7, 1))
        q0, keys = rng.normal((2, 4)), rng.normal((7, 4))
        for m in range(1, 8):
            out = attention_direct(q0, keys, values, m)
            np.testing.assert_allclose(out, np.tile(v, (2, 1)), rtol=1e-10)

    def test_triple_loop_oracle(self):
        rng = PrngStream(2)
        q0, keys, values = rng.normal((2, 4)), rng.normal((8, 4)), rng.normal((8, 4))
        m = 5
        out = attention_direct(q0, keys, values, m, "exp_dot")
        expected = np.zeros((2, 4))
        for i in range(2):
            weights = []
            for j in range(m):
                dot = sum(q0[i, a] * keys[j, a] for a in range(4))
                weights.append(np.exp(dot / 2.0))  # sqrt(C)=2
            total = sum(weights)
            for j in range(m):
                for a in range(4):
                    expected[i, a] += weights[j] / total * values[j, a]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_bad_prefix(self):
        rng = PrngStream(3)
        with pytest.raises(ValueError):
            attention_direct(rng.normal((1, 2)), rng.normal((3, 2)),
                             rng.normal((3, 2)), m=0)

    @pytest.mark.parametrize("rows", [3, 4, 6, 9])
    def test_values_rows_must_match_keys(self, rows):
        rng = PrngStream(10)
        q0, keys, values = rng.normal((2, 3)), rng.normal((5, 3)), rng.normal((rows, 3))
        for m in (1, 5):
            with pytest.raises(ValueError, match=f"values has {rows} rows, keys has 5"):
                attention_direct(q0, keys, values, m)


class TestAttentionRecurrence:
    def test_first_step_forced(self):
        rng = PrngStream(4)
        q0, keys, values = rng.normal((3, 4)), rng.normal((5, 4)), rng.normal((5, 4))
        out = attention_recurrence(q0, keys, values)
        np.testing.assert_allclose(out[0], np.tile(values[0], (3, 1)), rtol=1e-12)

    def test_convex_combination(self):
        # cumulative coefficients over values sum to 1 at every prefix:
        # checked by feeding constant values
        rng = PrngStream(5)
        q0, keys = rng.normal((2, 3)), rng.normal((9, 3))
        values = np.full((9, 3), 2.75)
        out = attention_recurrence(q0, keys, values)
        np.testing.assert_allclose(out, 2.75, atol=1e-12)

    @pytest.mark.parametrize("sim", ["exp_dot", "rbf"])
    def test_equivalence_with_direct(self, sim):
        rng = PrngStream(6)
        q0, keys, values = rng.normal((2, 4)), rng.normal((8, 4)), rng.normal((8, 4))
        rec = attention_recurrence(q0, keys, values, sim)
        for m in range(1, 9):
            ref = attention_direct(q0, keys, values, m, sim)
            assert np.abs(rec[m - 1] - ref).max() < 1e-12


def loop_attention(q0, keys, values, sim):
    """Per-step reference of attention_recurrence: a running sum and one update per key."""
    w = _similarity(q0, keys, sim)
    out = np.empty((keys.shape[0],) + q0.shape)
    s_prev = np.zeros(q0.shape[0])
    q = np.zeros_like(q0)
    for m in range(keys.shape[0]):
        s_curr = s_prev + w[:, m]
        q = (s_prev / s_curr)[:, None] * q + (w[:, m] / s_curr)[:, None] * values[m]
        out[m] = q
        s_prev = s_curr
    return out


class TestAttentionRecurrenceBitwise:
    """attention_recurrence equals the per-step loop bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, _BLOCK + 1, 2 * _BLOCK + 2, None])
    def test_equal_to_loop(self, m):
        # 30 seeds per fixed length; None draws the length per seed
        for seed in range(30):
            rng = PrngStream(9000 + seed)
            steps = int(rng.integers(1, 200)) if m is None else m
            k, c = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            q0, keys, values = rng.normal((k, c)), rng.normal((steps, c)), rng.normal((steps, c))
            for sim in ("exp_dot", "rbf"):
                np.testing.assert_array_equal(attention_recurrence(q0, keys, values, sim),
                                              loop_attention(q0, keys, values, sim))

    @pytest.mark.parametrize("rows", [4, 6])
    def test_values_rows_must_match_keys(self, rows):
        rng = PrngStream(10)
        q0, keys, values = rng.normal((2, 3)), rng.normal((5, 3)), rng.normal((rows, 3))
        with pytest.raises(ValueError, match=f"values has {rows} rows, keys has 5"):
            attention_recurrence(q0, keys, values)


class TestSuites:
    @pytest.mark.parametrize("kind", SUITE_NAMES)
    def test_all_suites_pass(self, kind):
        report = run_equivalence_suite(kind, seeds=5)
        assert report.passed, f"{kind}: {report.max_abs_err}"
        assert report.cases == 5

    @pytest.mark.parametrize("kind", SUITE_NAMES)
    def test_perturbation_fails(self, kind):
        report = run_equivalence_suite(kind, seeds=2, perturb=1e-3)
        assert not report.passed

    @pytest.mark.parametrize("row, sim", [(None, None), (-1, "rbf"), (0, "exp_dot")])
    def test_attn_compares_every_prefix_and_similarity(self, monkeypatch, row, sim):
        # 1e-9 on one prefix row of one similarity kind must fail the suite;
        # row None is the untouched wrapper, which must still pass
        real = verify.attention_recurrence

        def shifted(q0, keys, values, kind):
            out = real(q0, keys, values, kind)
            if kind == sim:
                out[row] += 1e-9
            return out
        monkeypatch.setattr(verify, "attention_recurrence", shifted)
        assert run_equivalence_suite("attn_recurrence", seeds=2).passed is (row is None)

    def test_attn_accuracy(self):
        # the pass rule stays max_abs_err <= 1e-12; this pins how far inside
        # it the direct and recurrent sides agree
        report = run_equivalence_suite("attn_recurrence", seeds=20)
        assert report.max_abs_err <= 1e-14

    def test_report_invariant(self):
        r = EquivalenceReport(suite="x", max_abs_err=1e-13, max_rel_err=0.0,
                              cases=1, tolerance=1e-12)
        assert r.passed
        r2 = EquivalenceReport(suite="x", max_abs_err=1e-11, max_rel_err=0.0,
                               cases=1, tolerance=1e-12)
        assert not r2.passed
        assert r.to_dict()["pass"] is True

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_equivalence_suite("nonsense")


class TestBench:
    def test_structure_and_monotonicity(self):
        # medians of 7 repeats: up to 3 samples per size slowed by other
        # load on the machine cannot move a median
        result = complexity_bench([256, 1024, 4096], k=4, e=8, repeats=7)
        assert len(result["rows"]) == 3
        times = [r["scan_time"] for r in result["rows"]]
        assert times[0] < times[1] < times[2]
        attn = [r["attention_time"] for r in result["rows"]]
        assert attn[0] < attn[1] < attn[2]

    def test_times_in_one_child_with_pinned_blas(self, monkeypatch):
        # the timing runs in one child process whose environment caps the
        # BLAS and OpenMP pools at `threads`, and warns about nothing
        started, real_run = [], subprocess.run

        def recorded(cmd, **kw):
            started.append(kw["env"])
            return real_run(cmd, **kw)
        monkeypatch.setattr(subprocess, "run", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = complexity_bench([64, 128], k=2, e=4, repeats=3, threads=2)
        assert [(env["OPENBLAS_NUM_THREADS"], env["OMP_NUM_THREADS"]) for env in started] \
            == [("2", "2")]
        assert [r["M"] for r in result["rows"]] == [64, 128]
        assert all(r["scan_time"] > 0 and r["attention_time"] > 0 for r in result["rows"])
        assert np.isfinite(result["scan_slope"])
        assert np.isfinite(result["attention_slope"])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            complexity_bench([512, 128], repeats=3)

    def test_rejects_few_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            complexity_bench([64, 128], repeats=1)
