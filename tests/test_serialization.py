import itertools

import numpy as np
import pytest

from dest3d.serialization import (
    AXIS_ORDERS,
    SerializationOrder,
    hilbert_indices,
    locality_score,
    order_for_layer,
    serialize,
)


def lattice(n):
    return np.array(list(itertools.product(range(n), repeat=3)), dtype=np.float64)


class TestHilbertIndex:
    def test_origin_is_zero(self):
        for bits in (1, 3, 9, 16):
            assert hilbert_indices(np.zeros((1, 3), dtype=np.int64), bits)[0] == 0

    def test_bits1_gray_code_path(self):
        # order-1 curve: a bijection on the 8 corners where consecutive cells
        # differ in exactly one coordinate by 1 (the Gray-code property)
        cells = lattice(2).astype(np.int64)
        codes = hilbert_indices(cells, 1)
        assert sorted(codes.tolist()) == list(range(8))
        path = cells[np.argsort(codes)]
        steps = np.abs(np.diff(path, axis=0))
        assert (steps.sum(axis=1) == 1).all()
        assert (steps.max(axis=1) == 1).all()

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 5])
    def test_bijection(self, bits):
        cells = lattice(1 << bits).astype(np.int64)
        codes = hilbert_indices(cells, bits)
        assert len(np.unique(codes)) == len(cells)
        assert codes.min() == 0 and codes.max() == len(cells) - 1

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_consecutive_codes_are_grid_neighbors(self, bits):
        cells = lattice(1 << bits).astype(np.int64)
        codes = hilbert_indices(cells, bits)
        path = cells[np.argsort(codes)]
        l1 = np.abs(np.diff(path, axis=0)).sum(axis=1)
        assert (l1 == 1).all()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            hilbert_indices(np.array([[4, 0, 0]]), 2)
        with pytest.raises(ValueError):
            hilbert_indices(np.zeros((1, 3), dtype=np.int64), 22)


class TestAxisOrder:
    def test_every_order_is_xyz_on_permuted_columns(self):
        # an order names the columns the curve reads first, e.g. "zyx" is the
        # "xyz" curve over the columns (z, y, x)
        pos = np.random.default_rng(8).normal(size=(300, 3)) * [1.0, 2.0, 3.0]
        xyz = SerializationOrder("xyz", 4)
        for order in AXIS_ORDERS:
            columns = pos[:, ["xyz".index(a) for a in order]]
            np.testing.assert_array_equal(serialize(pos, SerializationOrder(order, 4)),
                                          serialize(columns, xyz), err_msg=order)

    def test_bad_tag(self):
        with pytest.raises(ValueError):
            SerializationOrder("abc", 4)


class TestSerialize:
    def test_single_point(self):
        perm = serialize(np.array([[0.5, 0.5, 0.5]]), SerializationOrder("xyz", 4))
        np.testing.assert_array_equal(perm, [0])

    def test_same_cell_keeps_input_order(self):
        # the corners span the grid; at 1 bit the three middle points and the
        # far corner share the upper cell
        pts = np.array([[0.51, 0.5, 0.5], [0.0, 0.0, 0.0], [0.5, 0.5, 0.5],
                        [1.0, 1.0, 1.0], [0.52, 0.5, 0.5]])
        perm = serialize(pts, SerializationOrder("xyz", 1))
        np.testing.assert_array_equal(perm, [1, 0, 2, 3, 4])

    def test_orders_differ_on_lattice(self):
        pts = lattice(3) + 0.5
        a = serialize(pts, SerializationOrder("xyz", 2))
        b = serialize(pts, SerializationOrder("zyx", 2))
        assert not np.array_equal(a, b)

    def test_all_orders_valid_permutations(self):
        pts = np.random.default_rng(0).normal(size=(50, 3))
        for order in AXIS_ORDERS:
            perm = serialize(pts, SerializationOrder(order, 6))
            assert sorted(perm.tolist()) == list(range(50))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            serialize(np.zeros((0, 3)), SerializationOrder("xyz", 4))

    def test_flat_point_set_serializes(self):
        # bounds_from_points pads flat axes, so coincident points share a cell
        perm = serialize(np.zeros((3, 3)), SerializationOrder("xyz", 4))
        np.testing.assert_array_equal(perm, [0, 1, 2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        pts = np.zeros((2, 3))
        pts[1, 0] = bad
        with pytest.raises(ValueError, match="positions contains non-finite"):
            serialize(pts, SerializationOrder("xyz", 4))


class TestOrderForLayer:
    def test_layer_zero_is_xyz(self):
        assert order_for_layer(0) == "xyz"

    def test_cycle_wraps(self):
        assert order_for_layer(6) == "xyz"
        assert order_for_layer(13) == "xzy"

    def test_layer_three(self):
        assert order_for_layer(3) == "yzx"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            order_for_layer(-1)


class TestLocalityScore:
    def test_sorted_line_knn1(self):
        pts = np.linspace(0, 1, 20)[:, None] * np.array([1.0, 0.0, 0.0])
        score = locality_score(np.arange(20), pts, knn=1)
        assert score == 1.0

    def test_random_permutation_scores_worse(self):
        pts = np.linspace(0, 1, 64)[:, None] * np.array([1.0, 0.0, 0.0])
        ident = locality_score(np.arange(64), pts, knn=1)
        shuffled = np.random.default_rng(3).permutation(64)
        assert locality_score(shuffled, pts, knn=1) > ident

    def test_hilbert_beats_row_major_on_lattice(self):
        # frozen fixture: 16^3 lattice enumerated row-major, knn=1.
        # Score values precomputed with this exact oracle; the identity
        # permutation IS row-major order for this enumeration.
        pts = lattice(16)
        row_major = locality_score(np.arange(len(pts)), pts, knn=1)
        hilbert = locality_score(
            serialize(pts, SerializationOrder("xyz", 4)),
            pts, knn=1)
        assert hilbert < row_major
        np.testing.assert_allclose(row_major, 240.941406, atol=1e-5)
        np.testing.assert_allclose(hilbert, 150.874512, atol=1e-5)
        np.testing.assert_allclose(row_major - hilbert, 90.066895, atol=1e-4)

    def test_knn_bounds(self):
        with pytest.raises(ValueError):
            locality_score(np.arange(4), np.zeros((4, 3)), knn=4)
