import numpy as np
import pytest

from dest3d.numerics import (
    CONV_BLOCK_ELEMENTS,
    LinearWeights,
    PrngStream,
    depthwise_conv1d,
    layer_norm,
    linear,
    sigmoid,
    silu,
    softmax_attention,
    softplus,
)


class TestLinear:
    def test_identity_weights(self):
        w = LinearWeights(np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(linear(np.array([1.0, 2.0]), w), [1.0, 2.0])

    def test_forced_by_definition(self):
        w = LinearWeights(np.array([[1.0, 1.0]]), np.array([-2.0]))
        np.testing.assert_array_equal(linear(np.array([1.0, 1.0]), w), [0.0])

    def test_matches_handrolled_loop(self):
        rng = PrngStream(11)
        x = rng.normal((3, 4))
        w = LinearWeights(rng.normal((5, 4)), rng.normal((5,)))
        # independent dot-product oracle
        expected = np.empty((3, 5))
        for i in range(3):
            for o in range(5):
                acc = w.bias[o]
                for j in range(4):
                    acc += x[i, j] * w.weight[o, j]
                expected[i, o] = acc
        np.testing.assert_allclose(linear(x, w), expected, atol=1e-13)

    def test_shape_mismatch_raises(self):
        w = LinearWeights(np.eye(3))
        with pytest.raises(ValueError):
            linear(np.zeros(4), w)

    def test_superposition(self):
        rng = PrngStream(2)
        w = LinearWeights(rng.normal((4, 6)), rng.normal((4,)))
        x, y = rng.normal((6,)), rng.normal((6,))
        a, b = 0.7, -1.3
        lhs = linear(a * x + b * y, w)
        rhs = a * linear(x, w) + b * linear(y, w) - (a + b - 1.0) * w.bias
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


    @pytest.mark.parametrize("shape", [(5,), (6, 5), (4, 3, 5), (2, 3, 4, 5)])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_matches_einsum_any_rank(self, shape, with_bias):
        rng = PrngStream(len(shape) + 10 * with_bias)
        w = LinearWeights(rng.normal((7, 5)), rng.normal((7,)) if with_bias else None)
        x = rng.normal(shape)
        expected = np.einsum("...i,oi->...o", x, w.weight)
        if with_bias:
            expected = expected + w.bias
        y = linear(x, w)
        assert y.shape == shape[:-1] + (7,)
        np.testing.assert_allclose(y, expected, rtol=1e-15, atol=1e-15 * np.abs(expected).max())

    def test_non_contiguous_input(self):
        rng = PrngStream(12)
        w = LinearWeights(rng.normal((4, 3)), rng.normal((4,)))
        x = rng.normal((3, 6, 5)).transpose(2, 1, 0)  # (5, 6, 3) view
        assert not x.flags.c_contiguous
        expected = np.einsum("...i,oi->...o", x, w.weight) + w.bias
        np.testing.assert_allclose(linear(x, w), expected, rtol=1e-15,
                                   atol=1e-15 * np.abs(expected).max())


def two_branch_sigmoid(x):
    """Reference: 1 / (1 + exp(-x)) for x >= 0, exp(x) / (1 + exp(x)) otherwise."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


SIGMOID_EDGES = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, 745.2, -745.2, np.nan]


class TestSigmoid:
    def test_bitwise_equal_to_two_branch_form(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 4_000_001), SIGMOID_EDGES])
        with np.errstate(over="ignore", invalid="ignore"):
            expected = two_branch_sigmoid(x)
        np.testing.assert_array_equal(sigmoid(x), expected)  # NaNs compare equal
        assert np.isnan(sigmoid(np.array([np.nan]))).all()

    @pytest.mark.parametrize("fn", [sigmoid, silu], ids=["sigmoid", "silu"])
    def test_out_matches_allocating_call(self, fn):
        x = np.concatenate([np.linspace(-800.0, 800.0, 100_001), SIGMOID_EDGES])
        before = x.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            expected = fn(x)
            buf = np.full_like(x, 7.0)  # stale contents must not leak through
            got = fn(x, out=buf)
        assert got is buf
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert np.array_equal(x.view(np.int64), before.view(np.int64))
        if fn is sigmoid:  # out=x works in place; silu reads x after writing out
            assert sigmoid(x, out=x) is x
            assert np.array_equal(x.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("fn", [sigmoid, silu], ids=["sigmoid", "silu"])
    def test_out_zero_d(self, fn):
        buf = np.empty(())
        assert fn(np.array(-1.0), out=buf) is buf
        assert buf.shape == () and buf == fn(np.array(-1.0))

    def test_zero_d_input(self):
        y = sigmoid(np.array(0.0))
        assert isinstance(y, np.ndarray) and y.shape == () and y == 0.5
        assert silu(np.array(0.0)) == 0.0
        assert np.shape(silu(np.array(-1.0))) == ()

    def test_input_unchanged(self):
        x = PrngStream(13).normal((4, 5))
        before = x.copy()
        silu(x)
        np.testing.assert_array_equal(x, before)


class TestLayerNorm:
    def test_constant_row_collapses(self):
        out = layer_norm(np.array([5.0, 5.0, 5.0]), np.ones(3), np.zeros(3), eps=1e-6)
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    def test_symmetric_pair(self):
        out = layer_norm(np.array([-1.0, 1.0]), np.ones(2), np.zeros(2), eps=1e-14)
        np.testing.assert_allclose(out, [-1.0, 1.0], atol=1e-6)

    def test_moments(self):
        x = PrngStream(3).normal((4, 8))
        out = layer_norm(x, np.ones(8), np.zeros(8), eps=1e-15)
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-12)

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError):
            layer_norm(np.zeros((2, 0)), np.ones(0), np.zeros(0))


class TestActivation:
    def test_silu_zero(self):
        assert silu(np.array(0.0)) == 0.0

    def test_softplus_zero_is_log2(self):
        np.testing.assert_allclose(softplus(np.array(0.0)), np.log(2.0), rtol=1e-12)

    def test_softplus_large_asymptote(self):
        np.testing.assert_allclose(softplus(np.array(50.0)), 50.0, atol=1e-9)

    def test_softplus_matches_logaddexp(self):
        x = np.concatenate([[np.inf, -np.inf, 746.0, -746.0, 1e300, -1e300, 0.0],
                            np.linspace(-800.0, 800.0, 2_000_001)])
        ref = np.logaddexp(0.0, x)
        got = softplus(x)
        # 5e-16 relative; a subnormal result (x below about -708) has fewer
        # significant bits, so there one subnormal spacing is the bound
        tol = np.maximum(5e-16 * np.abs(ref), np.finfo(np.float64).smallest_subnormal)
        with np.errstate(invalid="ignore"):
            assert (np.abs(got - ref) <= tol)[np.isfinite(ref)].all()
        np.testing.assert_array_equal(got[~np.isfinite(ref)], ref[~np.isfinite(ref)])
        # in place: the same bits, written to x itself
        assert softplus(x, out=x) is x
        assert np.array_equal(x.view(np.int64), got.view(np.int64))
        assert softplus(-np.inf) == 0.0
        assert softplus(np.inf) == np.inf
        assert np.isnan(softplus(np.nan))


def conv_whole_sequence(x, kernel):
    """Reference: depthwise_conv1d as one whole-sequence pass per tap."""
    out = x * kernel[:, 0]
    for j in range(1, min(kernel.shape[1], x.shape[0])):
        out[j:] += x[:-j] * kernel[:, j]
    return out


class TestDepthwiseConv:
    @pytest.mark.parametrize("channels", [32, 48])
    @pytest.mark.parametrize("blocks,extra", [(0, 5), (1, -1), (1, 0), (1, 1), (3, 7)])
    def test_blocks_bitwise_equal_whole_sequence(self, channels, blocks, extra):
        # fewer rows than the kernel's 8 taps, one block less a row, exactly
        # one, one plus a row, several plus a tail; 48 channels leave a
        # budget remainder per block
        rows = CONV_BLOCK_ELEMENTS // channels
        rng = PrngStream(channels + blocks + extra)
        x = rng.normal((blocks * rows + extra, channels))
        kernel = rng.normal((channels, 8))
        np.testing.assert_array_equal(depthwise_conv1d(x, kernel),
                                      conv_whole_sequence(x, kernel))
        # the backward scan's anti-causal conv runs on a reversed view
        np.testing.assert_array_equal(depthwise_conv1d(x[::-1], kernel),
                                      conv_whole_sequence(x[::-1], kernel))

    def test_one_tap_per_row_bitwise(self):
        # lti_conv_form's kernel has M taps: later blocks run more taps than
        # earlier ones
        channels = 64
        m = 2 * (CONV_BLOCK_ELEMENTS // channels) + 3
        rng = PrngStream(13)
        x, kernel = rng.normal((m, channels)), rng.normal((channels, m))
        np.testing.assert_array_equal(depthwise_conv1d(x, kernel),
                                      conv_whole_sequence(x, kernel))

    def test_identity_kernel_exact(self):
        x = PrngStream(5).normal((10, 3))
        kernel = np.zeros((3, 4))
        kernel[:, 0] = 1.0
        np.testing.assert_array_equal(depthwise_conv1d(x, kernel), x)

    def test_hand_convolution(self):
        x = np.ones((6, 1))
        out = depthwise_conv1d(x, np.ones((1, 3)))
        np.testing.assert_array_equal(out[:, 0], [1, 2, 3, 3, 3, 3])

    def test_kernel_longer_than_sequence(self):
        x = np.ones((2, 1))
        out = depthwise_conv1d(x, np.ones((1, 5)))
        np.testing.assert_array_equal(out[:, 0], [1, 2])


class TestSoftmaxAttention:
    def test_single_key_returns_value(self):
        rng = PrngStream(7)
        q, k, v = rng.normal((1, 4)), rng.normal((1, 4)), rng.normal((1, 4))
        np.testing.assert_allclose(softmax_attention(q, k, v, heads=2), v, rtol=1e-12)

    def test_uniform_weights_give_mean(self):
        rng = PrngStream(8)
        k = np.tile(rng.normal((1, 4)), (5, 1))  # identical keys
        q = rng.normal((3, 4))
        v = rng.normal((5, 4))
        out = softmax_attention(q, k, v, heads=1)
        np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (3, 1)), rtol=1e-10)

    def test_matches_three_loop_reference(self):
        rng = PrngStream(9)
        q, k, v = rng.normal((4, 8)), rng.normal((4, 8)), rng.normal((4, 8))
        heads, d = 2, 4
        expected = np.zeros((4, 8))
        for h in range(heads):
            for i in range(4):
                scores = np.array([
                    sum(q[i, h * d + a] * k[j, h * d + a] for a in range(d)) / np.sqrt(d)
                    for j in range(4)
                ])
                weights = np.exp(scores - scores.max())
                weights /= weights.sum()
                for j in range(4):
                    for a in range(d):
                        expected[i, h * d + a] += weights[j] * v[j, h * d + a]
        np.testing.assert_allclose(softmax_attention(q, k, v, heads), expected,
                                   atol=1e-12)

    def test_head_mismatch_rejected(self):
        with pytest.raises(ValueError):
            softmax_attention(np.zeros((2, 5)), np.zeros((2, 5)), np.zeros((2, 5)), 2)

    def test_weights_row_normalized(self):
        # softmax rows summing to 1 means attention of constant values is constant
        rng = PrngStream(10)
        q, k = rng.normal((6, 4)), rng.normal((6, 4))
        v = np.full((6, 4), 3.25)
        out = softmax_attention(q, k, v, heads=2)
        np.testing.assert_allclose(out, 3.25, rtol=1e-12)


class TestPrng:
    def test_same_seed_identical(self):
        a = PrngStream(123).normal((5, 5))
        b = PrngStream(123).normal((5, 5))
        np.testing.assert_array_equal(a, b)

    def test_uniform_mean(self):
        draws = PrngStream(42).uniform((100_000,))
        assert 0.49 <= draws.mean() <= 0.51

    def test_normal_variance(self):
        draws = PrngStream(43).normal((100_000,))
        assert 0.97 <= draws.var() <= 1.03

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            PrngStream(1).uniform((3,), low=2.0, high=1.0)
        with pytest.raises(ValueError):
            PrngStream(1).normal((3,), std=-1.0)
