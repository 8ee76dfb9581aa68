import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from helpers import (box_surface_distance, knn_label_brute,
                     point_in_box_brute, scene_surface_distance,
                     split_reference, voxelize_brute)

from occspot.cloud import BoxLabel, PointCloud, Pose, transform
from occspot.occupancy import (GridSpec, OccupancyGrid, aggregate, knn_label,
                               make_occupancy, split_dynamic_static,
                               voxelize_bev)
from occspot.synth import (BeamSpec, Scene, SceneObject, SceneParams,
                           SequenceMeta, build_scene, generate_sequence)


def small_spec(h=16, w=16, cell=1.0, n_cls=15):
    return GridSpec(origin_x=-w * cell / 2, origin_y=-h * cell / 2,
                    cell_size=cell, h=h, w=w, z_min=-1.0, z_max=3.0, n_cls=n_cls)


class TestSplit:
    def test_no_boxes_all_static(self):
        cloud = PointCloud(np.random.default_rng(0).normal(0, 5, (50, 3)))
        res = split_dynamic_static(cloud, [])
        assert res.static_index.size == 50 and res.dynamic_index.size == 0

    def test_point_at_dynamic_center(self):
        box = BoxLabel(1.0, 2.0, 0.5, 2, 2, 2, 0.3, is_dynamic=True)
        cloud = PointCloud([[1.0, 2.0, 0.5]])
        res = split_dynamic_static(cloud, [box])
        assert res.dynamic_index.tolist() == [0]
        assert res.box_index.tolist() == [0]

    def test_static_box_not_dynamic(self):
        box = BoxLabel(0, 0, 0, 2, 2, 2, 0.0, is_dynamic=False)
        res = split_dynamic_static(PointCloud([[0.0, 0.0, 0.0]]), [box])
        assert res.static_index.tolist() == [0]

    def test_speed_fallback(self):
        box = BoxLabel(0, 0, 0, 2, 2, 2, 0.0, vx=1.0, is_dynamic=False)
        cloud = PointCloud([[0.0, 0.0, 0.0]])
        assert split_dynamic_static(cloud, [box]).static_index.size == 1
        res = split_dynamic_static(cloud, [box], speed_threshold=0.2)
        assert res.dynamic_index.size == 1

    def test_partition_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            cloud = PointCloud(rng.normal(0, 6, (300, 3)))
            boxes = [BoxLabel(*rng.uniform(-5, 5, 3),
                              *rng.uniform(0.5, 4.0, 3),
                              rng.uniform(-math.pi, math.pi),
                              class_id=int(rng.integers(1, 15)),
                              is_dynamic=bool(rng.random() < 0.6))
                     for _ in range(6)]
            res = split_dynamic_static(cloud, boxes)
            assert res.static_index.size + res.dynamic_index.size == 300
            for i in range(300):
                owners = [bi for bi, b in enumerate(boxes)
                          if b.is_dynamic and point_in_box_brute(cloud.xyz[i], b)]
                if owners:
                    k = np.where(res.dynamic_index == i)[0]
                    assert k.size == 1
                    assert res.box_index[k[0]] == owners[0]
                else:
                    assert i in res.static_index


def shell_points(box: BoxLabel, pad: float, n_edge: int = 7) -> np.ndarray:
    """Corners and edge points of `box` inflated by `pad`, in world xyz."""
    half = np.array([box.l, box.w, box.h]) / 2.0 + pad
    signs = np.array(np.meshgrid([-1, 1], [-1, 1], [-1, 1])).reshape(3, -1).T
    t = np.linspace(-1.0, 1.0, n_edge)
    local = [signs * half]
    for axis in range(3):  # the 12 edges: two axes at +-half, one swept
        edge = np.repeat(signs * half, n_edge, axis=0)
        edge[:, axis] = np.tile(t, len(signs)) * half[axis]
        local.append(edge)
    local = np.concatenate(local)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    world = np.empty_like(local)
    world[:, 0] = box.cx + c * local[:, 0] - s * local[:, 1]
    world[:, 1] = box.cy + s * local[:, 0] + c * local[:, 1]
    world[:, 2] = box.cz + local[:, 2]
    return world


class TestSplitCulling:
    """The bounding-circle cull matches the unculled split exactly."""

    def random_case(self, rng, scale):
        center = rng.uniform(-scale, scale, 3)
        boxes = [BoxLabel(*(center + rng.uniform(-4, 4, 3)),
                          *rng.uniform(0.2, 5.0, 3),
                          rng.uniform(-math.pi, math.pi),
                          vx=float(rng.uniform(-2, 2)),
                          class_id=int(rng.integers(1, 15)),
                          is_dynamic=bool(rng.random() < 0.7))
                 for _ in range(int(rng.integers(1, 9)))]
        return center, boxes

    def assert_same(self, cloud, boxes, **kwargs):
        got = split_dynamic_static(cloud, boxes, **kwargs)
        want = split_reference(cloud, boxes, **kwargs)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("atol", [0.0, 1e-9, 0.05])
    @pytest.mark.parametrize("scale", [0.0, 50.0, 5e3])
    def test_seeded_clouds(self, atol, scale):
        rng = np.random.default_rng(17)
        for trial in range(12):
            center, boxes = self.random_case(rng, scale)
            cloud = PointCloud(center + rng.normal(0, 4, (2000, 3)))
            self.assert_same(cloud, boxes, atol=atol)
            self.assert_same(cloud, boxes, atol=atol, speed_threshold=0.5)

    @pytest.mark.parametrize("atol", [0.0, 1e-9, 0.05])
    @pytest.mark.parametrize("scale", [0.0, 50.0, 5e3])
    def test_corners_edges_and_atol_shell(self, atol, scale):
        rng = np.random.default_rng(23)
        dynamic = 0
        for trial in range(12):
            _, boxes = self.random_case(rng, scale)
            pts = np.concatenate(
                [shell_points(b, pad) for b in boxes for pad in (0.0, atol)])
            # the same points an ulp away on either side
            pts = np.concatenate([pts, np.nextafter(pts, np.inf),
                                  np.nextafter(pts, -np.inf)])
            self.assert_same(PointCloud(pts), boxes, atol=atol)
            dynamic += split_reference(PointCloud(pts), boxes, atol=atol)[1].size
        assert dynamic > 0

    def test_overlapping_boxes_lowest_index_wins(self):
        a = BoxLabel(0, 0, 0, 4, 4, 4, 0.0, is_dynamic=True)
        b = BoxLabel(1, 0, 0, 4, 4, 4, 0.7, is_dynamic=True)
        pts = np.concatenate([shell_points(a, 0.0), shell_points(b, 0.0)])
        res = split_dynamic_static(PointCloud(pts), [a, b])
        assert {0, 1} == set(res.box_index.tolist())
        self.assert_same(PointCloud(pts), [a, b])
        self.assert_same(PointCloud(pts), [b, a])


class TestAggregate:
    def make_sequence(self, n_objects=6, n_frames=3, dynamic=0.5, seed=0):
        scene = build_scene(SceneParams(n_objects=n_objects,
                                        dynamic_fraction=dynamic), seed)
        poses = tuple(Pose(np.eye(3), (0.5 * i, 0.0, 2.0))
                      for i in range(n_frames))
        meta = SequenceMeta(n_frames=n_frames, keyframe_hz=10.0, ego_poses=poses)
        beams = BeamSpec(16, -2.0, -30.0, 90)
        frames = generate_sequence(scene, beams, meta)
        return scene, meta, frames

    def test_single_frame_is_world_frame(self):
        scene, meta, frames = self.make_sequence(n_frames=1)
        fused, labels = aggregate([frames[0].cloud], [frames[0].labels],
                                  [meta.ego_poses[0]], [frames[0].boxes], 0)
        world = transform(frames[0].cloud, meta.ego_poses[0])
        np.testing.assert_allclose(fused.xyz, world.xyz, atol=1e-12)
        np.testing.assert_array_equal(labels, frames[0].labels)

    def test_count_preserved(self):
        scene, meta, frames = self.make_sequence(n_frames=4)
        fused, labels = aggregate([f.cloud for f in frames],
                                  [f.labels for f in frames],
                                  list(meta.ego_poses),
                                  [f.boxes for f in frames], 0)
        total = sum(len(f.cloud) for f in frames)
        assert len(fused) == total and labels.size == total

    def test_static_scene_on_surfaces(self):
        scene, meta, frames = self.make_sequence(dynamic=0.0, n_frames=2, seed=4)
        fused, _ = aggregate([f.cloud for f in frames],
                             [f.labels for f in frames],
                             list(meta.ego_poses),
                             [f.boxes for f in frames], 0)
        for p in fused.xyz:
            assert scene_surface_distance(p, scene) <= 1e-6

    def test_dynamic_points_land_on_keyframe_box(self):
        # one box crossing the scene at 1 m/s; frames 1 s apart
        box = BoxLabel(0.0, 6.0, 1.0, 3.0, 2.0, 2.0, 0.4, vx=1.0, vy=0.0,
                       class_id=1, is_dynamic=True)
        scene = Scene(ground_z=0.0, objects=(SceneObject(box, 1),), rng_seed=0)
        poses = tuple(Pose(np.eye(3), (0.0, 0.0, 2.0)) for _ in range(11))
        meta = SequenceMeta(n_frames=11, keyframe_hz=10.0, ego_poses=poses)
        beams = BeamSpec(24, -2.0, -40.0, 180)
        frames = generate_sequence(scene, beams, meta)
        fused, labels = aggregate([f.cloud for f in frames],
                                  [f.labels for f in frames], list(poses),
                                  [f.boxes for f in frames], keyframe=0)
        key_box = frames[0].boxes[0]
        box_points = fused.xyz[labels == 1]
        assert len(box_points) > 50
        for p in box_points:
            assert box_surface_distance(p, key_box) <= 1e-6

    def test_length_mismatch_rejected(self):
        scene, meta, frames = self.make_sequence(n_frames=2)
        with pytest.raises(ValueError, match="equal length"):
            aggregate([frames[0].cloud], [frames[0].labels, frames[1].labels],
                      [meta.ego_poses[0]], [frames[0].boxes], 0)

    def test_box_count_mismatch_rejected(self):
        scene, meta, frames = self.make_sequence(n_frames=2)
        with pytest.raises(ValueError, match="boxes"):
            aggregate([f.cloud for f in frames], [f.labels for f in frames],
                      list(meta.ego_poses),
                      [frames[0].boxes, frames[1].boxes[:-1]], 0)


class TestKnnLabel:
    def test_coincident_point_k1(self):
        tree = cKDTree([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
        labels = np.array([7, 2])
        out = knn_label(tree, labels, np.array([[0.0, 0.0, 0.0]]), k=1)
        assert out.tolist() == [7]

    def test_majority_of_three(self):
        tree = cKDTree([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0], [9, 9, 9]])
        labels = np.array([2, 2, 5, 5])
        out = knn_label(tree, labels, np.array([[0.0, 0.0, 0.0]]), k=3)
        assert out.tolist() == [2]

    def test_empty_fused_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            knn_label(cKDTree(np.zeros((0, 3))), np.zeros(0),
                      np.zeros((1, 3)), k=1)

    def test_labels_must_align_with_tree(self):
        with pytest.raises(ValueError, match="length 2"):
            knn_label(cKDTree(np.zeros((2, 3))), np.zeros(3),
                      np.zeros((1, 3)), k=1)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            n = int(rng.integers(50, 400))
            fused = PointCloud(rng.normal(0, 5, (n, 3)))
            labels = rng.integers(0, 16, n)
            queries = rng.normal(0, 5, (25, 3))
            k = int(rng.integers(1, 9))
            got = knn_label(cKDTree(fused.xyz), labels, queries, k)
            want = knn_label_brute(fused.xyz, labels, queries, k)
            np.testing.assert_array_equal(got, want)


class TestVoxelize:
    def test_empty_cloud_zero_grid(self):
        grid = voxelize_bev(PointCloud(np.zeros((0, 3))), np.zeros(0), small_spec())
        assert grid.labels.sum() == 0

    def test_single_point(self):
        spec = small_spec()
        grid = voxelize_bev(PointCloud([[0.5, 0.5, 0.0]]), np.array([3]), spec)
        assert grid.occupied_count == 1
        assert grid.labels[8, 8] == 3  # cell containing (0.5, 0.5)

    def test_out_of_band_z_ignored(self):
        spec = small_spec()
        grid = voxelize_bev(PointCloud([[0.5, 0.5, 9.0]]), np.array([3]), spec)
        assert grid.occupied_count == 0

    def test_matches_brute_force_voting(self):
        rng = np.random.default_rng(6)
        for trial in range(15):
            n = int(rng.integers(1, 2000))
            spec = GridSpec(origin_x=float(rng.uniform(-4, 0)),
                            origin_y=float(rng.uniform(-4, 0)),
                            cell_size=float(rng.uniform(0.4, 1.5)),
                            h=int(rng.integers(4, 24)),
                            w=int(rng.integers(4, 24)),
                            z_min=-1.0, z_max=2.0, n_cls=15)
            xyz = rng.uniform(-6, 14, (n, 3)) * [1, 1, 0.25]
            labels = rng.integers(0, 16, n)
            got = voxelize_bev(PointCloud(xyz), labels, spec)
            np.testing.assert_array_equal(got.labels,
                                          voxelize_brute(xyz, labels, spec))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        xyz = rng.uniform(-8, 8, (500, 3)) * [1, 1, 0.2]
        labels = rng.integers(0, 16, 500)
        spec = small_spec()
        a = voxelize_bev(PointCloud(xyz), labels, spec)
        perm = rng.permutation(500)
        b = voxelize_bev(PointCloud(xyz[perm]), labels[perm], spec)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_tie_breaks_prefer_heavier_class(self):
        spec = small_spec(n_cls=15)
        # one foreground (class 1, weight 2.0) vs one background point (class 11)
        xyz = np.array([[0.1, 0.1, 0.0], [0.2, 0.2, 0.0]])
        grid = voxelize_bev(PointCloud(xyz), np.array([11, 1]), spec)
        assert grid.labels[8, 8] == 1
        # two background classes tie -> smaller id
        grid = voxelize_bev(PointCloud(xyz), np.array([12, 11]), spec)
        assert grid.labels[8, 8] == 11


class TestMakeOccupancy:
    def setup_sequence(self, seed=3, n_frames=3):
        scene = build_scene(SceneParams(
            arena=(-12.0, 12.0, -12.0, 12.0), n_objects=6,
            dynamic_fraction=0.3), seed)
        poses = tuple(Pose(np.eye(3), (0.2 * i, 0.0, 2.0))
                      for i in range(n_frames))
        meta = SequenceMeta(n_frames=n_frames, keyframe_hz=10.0, ego_poses=poses)
        beams = BeamSpec(32, -5.0, -60.0, 240)
        frames = generate_sequence(scene, beams, meta)
        return scene, meta, frames

    def args_of(self, meta, frames):
        return ([f.cloud for f in frames], [f.labels for f in frames],
                list(meta.ego_poses), [f.boxes for f in frames])

    def test_single_point_matches_voxelize(self):
        spec = small_spec()
        cloud = PointCloud([[0.5, 0.5, 0.0]])
        labels = np.array([4])
        pose = Pose.identity()
        grid = make_occupancy([cloud], [labels], [pose], [[]], spec,
                              densify=False)
        direct = voxelize_bev(cloud, labels, spec)
        np.testing.assert_array_equal(grid.labels, direct.labels)

    def test_values_in_range(self):
        scene, meta, frames = self.setup_sequence()
        spec = GridSpec(-8.0, -8.0, 0.5, 32, 32, -1.0, 3.0, n_cls=15)
        grid = make_occupancy(*self.args_of(meta, frames), spec)
        assert grid.labels.min() >= 0 and grid.labels.max() <= 15

    def test_densification_monotone(self):
        scene, meta, frames = self.setup_sequence()
        spec = GridSpec(-8.0, -8.0, 0.5, 32, 32, -0.5, 0.5, n_cls=15)
        off = make_occupancy(*self.args_of(meta, frames), spec, densify=False)
        on = make_occupancy(*self.args_of(meta, frames), spec, densify=True,
                            radius=0.6)
        assert on.occupied_count >= off.occupied_count
        # cells labeled without densification keep their labels
        mask = off.labels != 0
        np.testing.assert_array_equal(on.labels[mask], off.labels[mask])

    def test_box_footprints_carry_box_class(self):
        scene, meta, frames = self.setup_sequence(seed=12)
        spec = GridSpec(-8.0, -8.0, 0.5, 32, 32, -1.0, 3.0, n_cls=15)
        grid = make_occupancy(*self.args_of(meta, frames), spec, keyframe=0)
        xx, yy = spec.cell_centers()
        for obj_index, obj in enumerate(scene.objects):
            box = frames[0].boxes[obj_index]
            # footprint cells whose center is inside and that contain points
            centers = np.stack([xx.ravel(), yy.ravel(),
                                np.full(xx.size, box.cz)], axis=-1)
            inside = np.array([point_in_box_brute(p, box) for p in centers])
            hit = (grid.labels.ravel() != 0) & inside
            if hit.sum() == 0:
                continue
            agree = (grid.labels.ravel()[hit] == obj.surface_class).mean()
            assert agree >= 0.9


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 0, 0.0, 4, 4, -1, 1)
    with pytest.raises(ValueError):
        GridSpec(0, 0, 1.0, 4, 4, 1, -1)
    with pytest.raises(ValueError):
        OccupancyGrid(small_spec(n_cls=3), np.full((16, 16), 4))
