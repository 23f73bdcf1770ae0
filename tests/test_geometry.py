import numpy as np
import pytest

from dest3d.geometry import (
    Box3D,
    box_local_coords,
    box_vertices,
    circumscribed_radius,
    farthest_point_sampling,
    point_in_box,
    synth_scene,
)


def rotz(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


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
        verts = box_vertices(Box3D(center=np.zeros(3), size=np.ones(3)))
        expected = {(sx / 2, sy / 2, sz / 2)
                    for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)}
        assert {tuple(np.round(v, 12)) for v in verts} == expected

    def test_quarter_turn_same_corner_set(self):
        v0 = box_vertices(Box3D(center=np.zeros(3), size=np.ones(3), yaw=0.0))
        v1 = box_vertices(Box3D(center=np.zeros(3), size=np.ones(3), yaw=np.pi / 2))
        s0 = sorted(map(tuple, np.round(v0, 12)))
        s1 = sorted(map(tuple, np.round(v1, 12)))
        assert s0 == s1

    def test_rotation_matrix_oracle(self):
        box = Box3D(center=np.array([1.0, 2.0, 3.0]), size=np.array([2.0, 4.0, 6.0]),
                    yaw=0.3)
        verts = box_vertices(box)
        signs = [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
        for vert, (sx, sy, sz) in zip(verts, signs):
            corner = np.array([sx * 1.0, sy * 2.0, sz * 3.0])
            np.testing.assert_allclose(vert, rotz(0.3) @ corner + box.center,
                                       atol=1e-12)

    def test_local_coords_of_vertices_are_sign_patterns(self):
        box = Box3D(center=np.array([0.3, -0.7, 1.1]), size=np.array([0.8, 1.5, 0.4]),
                    yaw=-1.2)
        local = box_local_coords(box_vertices(box), box)
        expected = np.array([[sx, sy, sz]
                             for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                            dtype=float)
        np.testing.assert_allclose(local, expected, atol=1e-12)


class TestRadius:
    def test_unit_cube_closed_form(self):
        r = circumscribed_radius(Box3D(center=np.zeros(3), size=np.ones(3)))
        np.testing.assert_allclose(r, np.sqrt(3) / 2, rtol=1e-12)

    def test_elongated_box(self):
        r = circumscribed_radius(Box3D(center=np.zeros(3),
                                       size=np.array([2.0, 0.1, 0.1])))
        np.testing.assert_allclose(r, np.sqrt(1 + 0.0025 + 0.0025), rtol=1e-12)

    def test_yaw_invariant(self):
        size = np.array([1.0, 2.0, 0.5])
        rs = [circumscribed_radius(Box3D(center=np.zeros(3), size=size, yaw=y))
              for y in (-2.0, 0.0, 0.9, 3.0)]
        assert max(rs) - min(rs) == 0.0

    def test_equals_max_vertex_distance(self):
        box = Box3D(center=np.array([1.0, -2.0, 0.5]), size=np.array([0.7, 1.3, 2.2]),
                    yaw=0.8)
        d = np.linalg.norm(box_vertices(box) - box.center, axis=1)
        np.testing.assert_allclose(circumscribed_radius(box), d.max(), atol=1e-12)
        np.testing.assert_allclose(d, d.max(), atol=1e-12)  # sphere through all 8


class TestLocalCoords:
    def test_center_maps_to_origin(self):
        box = Box3D(center=np.array([1.0, 2.0, 3.0]), size=np.array([2.0, 1.0, 4.0]),
                    yaw=0.7)
        np.testing.assert_allclose(box_local_coords(box.center[None], box), 0.0,
                                   atol=1e-15)

    def test_axis_aligned_corner(self):
        box = Box3D(center=np.zeros(3), size=np.array([2.0, 4.0, 6.0]))
        corner = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(box_local_coords(corner[None], box)[0],
                                   [1.0, 1.0, 1.0], atol=1e-12)

    def test_round_trip(self):
        box = Box3D(center=np.array([0.5, -1.0, 2.0]), size=np.array([1.2, 0.8, 2.5]),
                    yaw=0.7)
        p = np.array([[1.3, -0.2, 2.9]])
        local = box_local_coords(p, box)
        back = (local * (box.size / 2.0)) @ box.rotation().T + box.center
        np.testing.assert_allclose(back, p, atol=1e-12)


class TestPointInBox:
    def test_center_inside(self):
        box = Box3D(center=np.array([1.0, 1.0, 1.0]), size=np.ones(3), yaw=0.2)
        assert point_in_box(box.center, box)

    def test_far_point_outside(self):
        box = Box3D(center=np.zeros(3), size=np.ones(3))
        r = circumscribed_radius(box)
        assert not point_in_box(np.array([2 * r, 0.0, 0.0]), box)

    def test_agrees_with_local_coords(self):
        rng = np.random.default_rng(3)
        box = Box3D(center=rng.normal(size=3), size=np.abs(rng.normal(size=3)) + 0.3,
                    yaw=-0.6)
        pts = rng.normal(size=(1000, 3))
        for p in pts:
            expected = bool((np.abs(box_local_coords(p[None], box)[0]) <= 1).all())
            assert point_in_box(p, box) == expected


class TestFps:
    def test_full_sample_is_permutation(self):
        pts = np.random.default_rng(4).normal(size=(12, 3))
        idx = farthest_point_sampling(pts, 12)
        assert sorted(idx) == list(range(12))

    def test_collinear_hand_case(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [10.0, 0, 0]])
        assert farthest_point_sampling(pts, 2, start=0) == [0, 3]

    def test_k_one(self):
        pts = np.zeros((5, 3))
        assert farthest_point_sampling(pts, 1, start=2) == [2]

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
            local = box_local_coords(pts, box)
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
