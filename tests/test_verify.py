import sys
import warnings

import numpy as np
import pytest

from dest3d.numerics import PrngStream
from dest3d.verify import (
    SUITE_NAMES,
    EquivalenceReport,
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


class TestSuites:
    @pytest.mark.parametrize("kind", SUITE_NAMES)
    def test_all_suites_pass(self, kind):
        report = run_equivalence_suite(kind, seeds=5)
        assert report.passed, f"{kind}: {report.max_abs_err}"
        assert report.cases == 5

    def test_perturbation_fails(self):
        report = run_equivalence_suite("scan_chunked", seeds=2, perturb=1e-3)
        assert not report.passed

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
        result = complexity_bench([256, 1024, 4096], k=4, e=8, repeats=3)
        assert len(result["rows"]) == 3
        times = [r["scan_time"] for r in result["rows"]]
        assert times[0] < times[1] < times[2]
        attn = [r["attention_time"] for r in result["rows"]]
        assert attn[0] < attn[1] < attn[2]

    def test_without_threadpoolctl_warns_and_still_times(self, monkeypatch):
        # None in sys.modules makes the import raise ImportError, so the
        # fallback runs whether or not threadpoolctl is installed.
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        with pytest.warns(RuntimeWarning, match="threadpoolctl"):
            result = complexity_bench([64, 128], k=2, e=4, repeats=3)
        assert [r["M"] for r in result["rows"]] == [64, 128]
        assert np.isfinite(result["scan_slope"])
        assert np.isfinite(result["attention_slope"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = complexity_bench([64, 128], k=2, e=4, repeats=3, threads=None)
        assert caught == []
        assert len(result["rows"]) == 2

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            complexity_bench([512, 128], repeats=3)

    def test_rejects_few_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            complexity_bench([64, 128], repeats=1)
