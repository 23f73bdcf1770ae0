"""The decoder's per-point stages run over numerics.row_blocks: the block
size changes no output bit.

Each stage runs with the rule's constant, BLOCK_ELEMENTS, patched to one of
two block sizes and is compared with the same call patched to one block over
all M rows (the unblocked computation):

  * "rule": the shipped constant, at the shipped widths (C = E = 32,
    ffn 64, D = 16), where B is the stage's widest block in rows;
  * "two": 2 rows at the stage's widest width, below the conv's 7 rows of
    causal context, so a gffn block's context reaches back over several
    blocks. The scan prelude's blocks hold whole scan chunks, so there
    "two" gives blocks of one chunk, at least 24 rows.

Each runs at M in {B-1, B, B+1, 3B+5}; ibs_forward also at one scan chunk
-1, +0 and +1, its B a whole number of chunks. The "two" checks are bitwise at
widths up to 16. At the shipped widths a product of a few rows takes
OpenBLAS's small-matrix path, which rounds differently from the same rows
of a larger product, so TestTwoRowBlocksAtShippedWidths bounds that
difference instead; row_blocks never makes a block shorter than
BLOCK_ELEMENTS // width rows unless M is, which is what keeps the shipped
rule bitwise.
"""

import tracemalloc

import numpy as np
import pytest

from dest3d import issm, numerics
from dest3d.decoder import DecoderConfig, decoder_stack, decoder_weights_init, gffn
from dest3d.geometry import Box3D, BoxSet, synth_scene
from dest3d.issm import ibs_forward, spatial_correlation
from dest3d.numerics import PrngStream, row_blocks

WHOLE = 2**62  # one block covers any M
SHIPPED = DecoderConfig()
NARROW = DecoderConfig(channels=8, state_dim=8, corr_dim=4, ffn_dim=16, heads=2)


def sizes(b):
    return [b - 1, b, b + 1, 3 * b + 5]


def run_with(monkeypatch, elements, fn):
    monkeypatch.setattr(numerics, "BLOCK_ELEMENTS", elements)
    return fn()


def assert_blocks_change_nothing(monkeypatch, elements, fn):
    blocked = run_with(monkeypatch, elements, fn)
    whole = run_with(monkeypatch, WHOLE, fn)
    for got, want in zip(blocked, whole):
        np.testing.assert_array_equal(got, want)


def ibs_inputs(cfg, m, k, seed):
    rng = PrngStream(seed)
    w = decoder_weights_init(PrngStream(seed + 1), cfg).layers[0]
    return (rng.normal((m, cfg.channels)), rng.normal((k, cfg.channels)),
            rng.normal((m, k, cfg.corr_dim)), rng.uniform((m, k), 0.05, 1.0), w)


def random_boxes(k, seed):
    rng = PrngStream(seed)
    return [Box3D(center=rng.uniform((3,), -3.0, 3.0), size=rng.uniform((3,), 0.3, 2.5),
                  yaw=float(rng.uniform((), -3.0, 3.0))) for _ in range(k)]


def stack_outputs(cfg, m, seed):
    def run():
        scene = synth_scene(num_boxes=2, points_per_box=m // 4, noise_points=m - 2 * (m // 4),
                            extent=4.0, seed=seed, feature_dim=cfg.channels)
        out = decoder_stack(scene, cfg, decoder_weights_init(PrngStream(seed), cfg))
        return [out.final_x] + [layer.h for layer in out.layers]
    return run


class TestRowBlocks:
    @pytest.mark.parametrize("m", [0, 1, 1023, 1024, 1025, 2047, 2048, 3077])
    def test_cover_in_order_and_none_short(self, m):
        blocks = row_blocks(m, 32)
        rows = numerics.BLOCK_ELEMENTS // 32
        assert blocks[0].start == 0 and blocks[-1].stop == m
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        # every block holds rows rows, the last also the remainder
        assert all(b.stop - b.start == rows for b in blocks[:-1])
        assert rows <= blocks[-1].stop - blocks[-1].start < 2 * rows or len(blocks) == 1

    def test_width_wider_than_the_budget_gives_one_row_blocks(self, monkeypatch):
        monkeypatch.setattr(numerics, "BLOCK_ELEMENTS", 4)
        assert row_blocks(3, 8) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    @pytest.mark.parametrize("m", [0, 1, 127, 1024, 2047, 2048, 2049, 3077])
    def test_units_round_the_rows_up_and_keep_their_edges(self, m):
        # 963 rows at width 34, rounded up to 8 units of 128
        blocks = row_blocks(m, 34, unit=128)
        assert blocks[0].start == 0 and blocks[-1].stop == m
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(b.stop - b.start == 1024 for b in blocks[:-1])
        assert 1024 <= blocks[-1].stop - blocks[-1].start < 2048 or len(blocks) == 1


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(issm, "_cpu_count", lambda: 2)


class TestBlocksAreBitwise:
    CASES = [pytest.param("rule", SHIPPED, id="rule"), pytest.param("two", NARROW, id="two")]

    @staticmethod
    def elements(which, width):
        return numerics.BLOCK_ELEMENTS if which == "rule" else 2 * width

    @pytest.mark.parametrize("which,cfg", CASES)
    def test_scene_stream_gffn(self, monkeypatch, which, cfg):
        w = decoder_weights_init(PrngStream(5), cfg).layers[0].gffn_x
        elements = self.elements(which, cfg.ffn_dim)
        for m in sizes(max(1, elements // cfg.ffn_dim)):
            t = PrngStream(m).normal((m, cfg.channels))
            assert_blocks_change_nothing(monkeypatch, elements, lambda: [gffn(t, w)])

    @pytest.mark.parametrize("which,cfg", CASES)
    @pytest.mark.parametrize("k", [4, 16, 64])
    def test_ibs_forward(self, monkeypatch, two_cpus, which, cfg, k):
        # at K=64 the two directions run on two threads (_cpu_count forced).
        # The scan prelude's blocks, of width [delta | b | c], are rounded up
        # to whole chunks: under "two" one chunk each (32 rows at K=64)
        width = cfg.state_dim + 2
        elements = self.elements(which, width)
        chunk = issm._chunk_rows(k, cfg.state_dim)
        block = -(-max(1, elements // width) // chunk) * chunk
        for m in sorted({chunk - 1, chunk, chunk + 1, *sizes(block)}):
            x, h0, s, delay, w = ibs_inputs(cfg, m, k, seed=m + k)
            assert_blocks_change_nothing(monkeypatch, elements,
                                         lambda: ibs_forward(x, h0, s, delay, w.ibs))

    @pytest.mark.parametrize("which,cfg", CASES)
    @pytest.mark.parametrize("k", [4, 64])
    def test_table_spatial_correlation(self, monkeypatch, two_cpus, which, cfg, k):
        corr = decoder_weights_init(PrngStream(6), cfg).layers[0].corr
        elements = self.elements(which, cfg.corr_dim)
        boxes = BoxSet(random_boxes(k, seed=k))
        for m in sizes(max(1, elements // cfg.corr_dim)):
            points = PrngStream(m).uniform((m, 3), -5.0, 5.0)
            assert_blocks_change_nothing(monkeypatch, elements,
                                         lambda: [spatial_correlation(points, boxes, corr)])

    @pytest.mark.parametrize("which,cfg", CASES)
    @pytest.mark.parametrize("mode", ["table", "mlp"])
    def test_decoder_stack(self, monkeypatch, which, cfg, mode):
        # the widest stage is gffn's (rows, ffn_dim): "two" gives it 2 rows
        # per block and the others 2-8; B is the rule's rows at the scan
        # prelude's width, so 3B+5 rows split every stage but the
        # correlation (its own test) and, under "two", the prelude, whose
        # blocks are whole scan chunks (test_ibs_forward splits those)
        cfg = DecoderConfig(**{**vars(cfg), "num_layers": 2, "correlation_mode": mode,
                               "num_states": 4 if which == "rule" else 1})
        elements = self.elements(which, cfg.ffn_dim)
        for m in sizes(elements // (cfg.state_dim + 2)):
            assert_blocks_change_nothing(monkeypatch, elements, stack_outputs(cfg, m, seed=m))


class TestTwoRowBlocksAtShippedWidths:
    """2-row blocks at C = E = 32 agree with one block to rounding: their
    BLAS products take the small-matrix path (see the module docstring)."""

    @staticmethod
    def assert_close(monkeypatch, elements, fn):
        blocked = run_with(monkeypatch, elements, fn)
        whole = run_with(monkeypatch, WHOLE, fn)
        for got, want in zip(blocked, whole):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_ibs_forward(self, monkeypatch):
        elements = 2 * (SHIPPED.state_dim + 2)
        for m in sizes(2):
            x, h0, s, delay, w = ibs_inputs(SHIPPED, m, 4, seed=m)
            self.assert_close(monkeypatch, elements, lambda: ibs_forward(x, h0, s, delay, w.ibs))

    def test_decoder_stack(self, monkeypatch):
        cfg = DecoderConfig(num_layers=2, num_states=1)
        for m in sizes(2):
            self.assert_close(monkeypatch, 2 * cfg.ffn_dim, stack_outputs(cfg, m, seed=m))


def test_ibs_forward_scratch_stays_within_a_few_blocks():
    # besides its inputs, ibs_forward holds at full M one (M, E) sum of both
    # directions' outputs, which y is written over (C == E); x_hat (M, E)
    # and the two directions' own (M, E) outputs held 8 MiB more here, and
    # before that the per-direction (M, E) conv output, its (M, E+2)
    # [delta | b | c] projection and the (M, E) gate 13 MiB more
    m, k = 16384, 4
    cfg = DecoderConfig(channels=32, state_dim=32, num_states=k)
    x, h0, s, delay, w = ibs_inputs(cfg, m, k, seed=8)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        y, _ = ibs_forward(x, h0, s, delay, w.ibs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scratch = peak - base - max(m * cfg.state_dim * 8, y.nbytes)
    chunk_buffers = 8 * issm._chunk_rows(k, cfg.state_dim) * k * (3 * cfg.state_dim + 2)
    assert scratch <= 8 * numerics.BLOCK_ELEMENTS * 8 + chunk_buffers


def test_gffn_scratch_stays_within_a_few_blocks():
    # without blocks the call held several (M, ffn_dim) arrays at once:
    # 28 MiB here, 112 blocks of BLOCK_ELEMENTS f64 values
    cfg = DecoderConfig(channels=32, ffn_dim=64)
    w = decoder_weights_init(PrngStream(3), cfg).layers[0].gffn_x
    t = PrngStream(4).normal((16384, cfg.channels))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = gffn(t, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scratch = peak - base - out.nbytes
    assert scratch <= 8 * numerics.BLOCK_ELEMENTS * 8
