import numpy as np
import pytest

from dest3d.geometry import (
    Box3D,
    BoxSet,
    Scene,
    farthest_point_sampling,
    points_in_box,
    synth_scene,
)


def rotz(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# Per-box transcriptions of what BoxSet computes for all boxes at once. The
# oracles that check the decoder's geometry read these, not a BoxSet.
CORNER_SIGNS = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                        dtype=np.float64)


def box_vertices(box):
    """Eight corners, canonical sign order, rotated by yaw and translated."""
    return (CORNER_SIGNS * (box.size / 2.0)) @ box.rotation().T + box.center


def box_radius(box):
    """Radius of the sphere through all eight vertices."""
    return 0.5 * float(np.linalg.norm(box.size))


def box_local(points, box):
    """Points in the box's yaw-aligned frame, scaled so faces sit at +/-1."""
    return (points - box.center) @ box.rotation() / (box.size / 2.0)


def random_boxes(k, seed):
    rng = np.random.default_rng(seed)
    return [Box3D(center=rng.normal(size=3) * 3.0, size=rng.uniform(0.05, 2.0, size=3),
                  yaw=float(rng.uniform(-4.0, 4.0))) for _ in range(k)]


class TestBox3D:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Box3D(center=np.zeros(3), size=np.array([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("yaw", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_yaw(self, yaw):
        with pytest.raises(ValueError, match="yaw contains non-finite values"):
            Box3D(center=np.zeros(3), size=np.ones(3), yaw=yaw)

    def test_yaw_normalized(self):
        box = Box3D(center=np.zeros(3), size=np.ones(3), yaw=3 * np.pi)
        assert -np.pi < box.yaw <= np.pi
        np.testing.assert_allclose(box.yaw, np.pi)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Box3D(center=np.array([np.nan, 0, 0]), size=np.ones(3))


class TestVertices:
    def test_unit_cube(self):
        verts = BoxSet([Box3D(center=np.zeros(3), size=np.ones(3))]).vertices[0]
        expected = {(sx / 2, sy / 2, sz / 2)
                    for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)}
        assert {tuple(np.round(v, 12)) for v in verts} == expected

    def test_quarter_turn_same_corner_set(self):
        v0, v1 = BoxSet([Box3D(center=np.zeros(3), size=np.ones(3), yaw=yaw)
                         for yaw in (0.0, np.pi / 2)]).vertices
        s0 = sorted(map(tuple, np.round(v0, 12)))
        s1 = sorted(map(tuple, np.round(v1, 12)))
        assert s0 == s1

    def test_rotation_matrix_oracle(self):
        box = Box3D(center=np.array([1.0, 2.0, 3.0]), size=np.array([2.0, 4.0, 6.0]),
                    yaw=0.3)
        verts = BoxSet([box]).vertices[0]
        signs = [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
        for vert, (sx, sy, sz) in zip(verts, signs):
            corner = np.array([sx * 1.0, sy * 2.0, sz * 3.0])
            np.testing.assert_allclose(vert, rotz(0.3) @ corner + box.center,
                                       atol=1e-12)

    def test_local_coords_of_vertices_are_sign_patterns(self):
        box = Box3D(center=np.array([0.3, -0.7, 1.1]), size=np.array([0.8, 1.5, 0.4]),
                    yaw=-1.2)
        boxes = BoxSet([box])
        local = boxes.local(boxes.vertices[0], 0)
        expected = np.array([[sx, sy, sz]
                             for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                            dtype=float)
        np.testing.assert_allclose(local, expected, atol=1e-12)


class TestRadius:
    def test_unit_cube_closed_form(self):
        r = BoxSet([Box3D(center=np.zeros(3), size=np.ones(3))]).radii[0]
        np.testing.assert_allclose(r, np.sqrt(3) / 2, rtol=1e-12)

    def test_elongated_box(self):
        r = BoxSet([Box3D(center=np.zeros(3), size=np.array([2.0, 0.1, 0.1]))]).radii[0]
        np.testing.assert_allclose(r, np.sqrt(1 + 0.0025 + 0.0025), rtol=1e-12)

    def test_yaw_invariant(self):
        size = np.array([1.0, 2.0, 0.5])
        rs = BoxSet([Box3D(center=np.zeros(3), size=size, yaw=y)
                     for y in (-2.0, 0.0, 0.9, 3.0)]).radii
        assert rs.max() - rs.min() == 0.0

    def test_equals_max_vertex_distance(self):
        box = Box3D(center=np.array([1.0, -2.0, 0.5]), size=np.array([0.7, 1.3, 2.2]),
                    yaw=0.8)
        boxes = BoxSet([box])
        d = np.linalg.norm(boxes.vertices[0] - box.center, axis=1)
        np.testing.assert_allclose(boxes.radii[0], d.max(), atol=1e-12)
        np.testing.assert_allclose(d, d.max(), atol=1e-12)  # sphere through all 8


class TestLocalCoords:
    def test_center_maps_to_origin(self):
        box = Box3D(center=np.array([1.0, 2.0, 3.0]), size=np.array([2.0, 1.0, 4.0]),
                    yaw=0.7)
        np.testing.assert_allclose(BoxSet([box]).local(box.center[None], 0), 0.0,
                                   atol=1e-15)

    def test_axis_aligned_corner(self):
        box = Box3D(center=np.zeros(3), size=np.array([2.0, 4.0, 6.0]))
        corner = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(BoxSet([box]).local(corner[None], 0)[0],
                                   [1.0, 1.0, 1.0], atol=1e-12)

    def test_round_trip(self):
        box = Box3D(center=np.array([0.5, -1.0, 2.0]), size=np.array([1.2, 0.8, 2.5]),
                    yaw=0.7)
        p = np.array([[1.3, -0.2, 2.9]])
        local = BoxSet([box]).local(p, 0)
        back = (local * (box.size / 2.0)) @ box.rotation().T + box.center
        np.testing.assert_allclose(back, p, atol=1e-12)


class TestBoxSet:
    @pytest.mark.parametrize("k", [0, 1, 7])
    def test_bitwise_equal_to_per_box_forms(self, k):
        boxes = random_boxes(k, seed=k)
        got = BoxSet(boxes)
        points = np.random.default_rng(100 + k).normal(size=(50, 3)) * 3.0
        assert got.centers.shape == got.half.shape == (k, 3)
        assert got.rotations.shape == (k, 3, 3) and got.radii.shape == (k,)
        assert got.vertices.shape == (k, 8, 3)
        for j, box in enumerate(boxes):
            assert np.array_equal(got.rotations[j], box.rotation())
            assert np.array_equal(got.vertices[j], box_vertices(box))
            assert got.radii[j] == box_radius(box)
            assert np.array_equal(got.local(points, j), box_local(points, box))


class TestScene:
    @pytest.mark.parametrize("shape", [(4,), (4, 2, 3), (), (3, 2)])
    def test_features_must_be_points_by_channels(self, shape):
        with pytest.raises(ValueError, match="features"):
            Scene(positions=np.zeros((4, 3)), features=np.zeros(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_colors_must_be_finite(self, value):
        colors = np.zeros((4, 3))
        colors[2, 1] = value
        with pytest.raises(ValueError, match="^colors contains non-finite values"):
            Scene(positions=np.zeros((4, 3)), features=np.zeros((4, 2)), colors=colors)


class TestPointInBox:
    def test_center_inside(self):
        box = Box3D(center=np.array([1.0, 1.0, 1.0]), size=np.ones(3), yaw=0.2)
        assert points_in_box(box.center[None], box).tolist() == [True]

    def test_far_point_outside(self):
        box = Box3D(center=np.zeros(3), size=np.ones(3))
        r = box_radius(box)
        assert points_in_box(np.array([[2 * r, 0.0, 0.0]]), box).tolist() == [False]

    def test_agrees_with_local_coords(self):
        rng = np.random.default_rng(3)
        box = Box3D(center=rng.normal(size=3), size=np.abs(rng.normal(size=3)) + 0.3,
                    yaw=-0.6)
        pts = rng.normal(size=(1000, 3))
        expected = [bool((np.abs(box_local(p[None], box)[0]) <= 1).all()) for p in pts]
        assert points_in_box(pts, box).tolist() == expected


class TestFps:
    def test_full_sample_is_permutation(self):
        pts = np.random.default_rng(4).normal(size=(12, 3))
        idx = farthest_point_sampling(pts, 12)
        assert sorted(idx) == list(range(12))

    def test_collinear_hand_case(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [10.0, 0, 0]])
        assert farthest_point_sampling(pts, 2) == [0, 3]

    def test_k_one(self):
        pts = np.zeros((5, 3))
        assert farthest_point_sampling(pts, 1) == [0]

    def test_indices_distinct(self):
        pts = np.random.default_rng(5).normal(size=(30, 3))
        idx = farthest_point_sampling(pts, 17)
        assert len(set(idx)) == 17

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            farthest_point_sampling(np.zeros((3, 3)), 4)


class TestSynthScene:
    def test_noise_only(self):
        scene = synth_scene(num_boxes=0, points_per_box=10, noise_points=100, seed=1)
        assert scene.num_points == 100
        assert scene.gt_boxes == []

    def test_surface_points_on_faces(self):
        scene = synth_scene(num_boxes=2, points_per_box=50, noise_points=0, seed=2)
        for b, box in enumerate(scene.gt_boxes):
            pts = scene.positions[b * 50:(b + 1) * 50]
            local = box_local(pts, box)
            np.testing.assert_allclose(np.abs(local).max(axis=1), 1.0, atol=1e-9)

    def test_deterministic(self):
        a = synth_scene(seed=7)
        b = synth_scene(seed=7)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.features, b.features)
        assert [bx.yaw for bx in a.gt_boxes] == [bx.yaw for bx in b.gt_boxes]

    def test_empty_scene_rejected(self):
        with pytest.raises(ValueError):
            synth_scene(num_boxes=0, points_per_box=0, noise_points=0)
