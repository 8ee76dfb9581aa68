import math
import tracemalloc

import numpy as np
import pytest

from helpers import (aggregate_reference, box_surface_distance, cloud_of,
                     make_occupancy_reference,
                     point_in_box_brute, scene_surface_distance,
                     split_reference, tie_weights, voxelize_brute)

from occspot.cloud import BoxLabel, LidarSequence, Pose, transform
from occspot.occupancy import (_CHUNK, GridSpec, OccupancyGrid, _tie_order,
                               aggregate, knn_label, make_occupancy,
                               split_dynamic_static, voxelize_bev)
from occspot.synth import (BeamSpec, Scene, SceneParams, build_scene,
                           generate_sequence)


#: class counts at the edges of the foreground block 1-5
EDGE_N_CLS = (1, 5, 6, 15)


def small_spec(h=16, w=16, cell=1.0, n_cls=15):
    return GridSpec(origin_x=-w * cell / 2, origin_y=-h * cell / 2,
                    cell_size=cell, h=h, w=w, z_min=-1.0, z_max=3.0, n_cls=n_cls)


class TestSplit:
    def test_no_boxes_all_static(self):
        cloud = cloud_of(np.random.default_rng(0).normal(0, 5, (50, 3)))
        owner = split_dynamic_static(cloud.xyz, [], atol=0.0)
        assert owner.dtype == np.int64 and owner.tolist() == [-1] * 50

    def test_point_at_dynamic_center(self):
        box = BoxLabel(1.0, 2.0, 0.5, 2, 2, 2, 0.3, is_dynamic=True)
        cloud = cloud_of([[1.0, 2.0, 0.5]])
        assert split_dynamic_static(cloud.xyz, [box], atol=0.0).tolist() == [0]

    def test_static_box_not_dynamic(self):
        box = BoxLabel(0, 0, 0, 2, 2, 2, 0.0, is_dynamic=False)
        owner = split_dynamic_static(np.zeros((1, 3)), [box], atol=0.0)
        assert owner.tolist() == [-1]
        # the flag decides, not the speed
        moving = BoxLabel(0, 0, 0, 2, 2, 2, 0.0, vx=1.0, is_dynamic=False)
        owner = split_dynamic_static(np.zeros((1, 3)), [moving], atol=0.0)
        assert owner.tolist() == [-1]

    def test_partition_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            cloud = cloud_of(rng.normal(0, 6, (300, 3)))
            boxes = [BoxLabel(*rng.uniform(-5, 5, 3),
                              *rng.uniform(0.5, 4.0, 3),
                              rng.uniform(-math.pi, math.pi),
                              class_id=int(rng.integers(1, 15)),
                              is_dynamic=bool(rng.random() < 0.6))
                     for _ in range(6)]
            owner = split_dynamic_static(cloud.xyz, boxes, atol=0.0)
            assert owner.shape == (300,)
            for i in range(300):
                owners = [bi for bi, b in enumerate(boxes)
                          if b.is_dynamic and point_in_box_brute(cloud.xyz[i], b)]
                assert owner[i] == (owners[0] if owners else -1)


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

    def assert_same(self, xyz, boxes, atol):
        got = split_dynamic_static(xyz, boxes, atol=atol)
        want = split_reference(xyz, boxes, atol=atol)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("atol", [0.0, 1e-9, 0.05])
    @pytest.mark.parametrize("scale", [0.0, 50.0, 5e3])
    def test_seeded_clouds(self, atol, scale):
        rng = np.random.default_rng(17)
        for trial in range(12):
            center, boxes = self.random_case(rng, scale)
            self.assert_same(center + rng.normal(0, 4, (2000, 3)), boxes,
                             atol=atol)

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
            self.assert_same(pts, boxes, atol=atol)
            dynamic += int((split_reference(pts, boxes, atol=atol) >= 0).sum())
        assert dynamic > 0

    def test_overlapping_boxes_lowest_index_wins(self):
        a = BoxLabel(0, 0, 0, 4, 4, 4, 0.0, is_dynamic=True)
        b = BoxLabel(1, 0, 0, 4, 4, 4, 0.7, is_dynamic=True)
        pts = np.concatenate([shell_points(a, 0.0), shell_points(b, 0.0)])
        owner = split_dynamic_static(pts, [a, b], atol=0.0)
        assert {0, 1} == set(owner[owner >= 0].tolist())
        self.assert_same(pts, [a, b], atol=0.0)
        self.assert_same(pts, [b, a], atol=0.0)


class TestAggregate:
    def make_sequence(self, n_objects=6, n_frames=3, dynamic=0.5, seed=0):
        scene = build_scene(SceneParams(n_objects=n_objects,
                                        dynamic_fraction=dynamic), seed)
        poses = [Pose(np.eye(3), (0.5 * i, 0.0, 2.0)) for i in range(n_frames)]
        beams = BeamSpec(16, -2.0, -30.0, 90)
        return scene, generate_sequence(scene, beams, poses, 10.0)

    def test_single_frame_is_world_frame(self):
        scene, seq = self.make_sequence(n_frames=1)
        fused, labels = aggregate(seq, 0)
        world = transform(seq.frames[0], seq.poses[0])
        np.testing.assert_allclose(fused, world.xyz, atol=1e-12)
        np.testing.assert_array_equal(labels, seq.labels[0])

    def test_count_preserved(self):
        scene, seq = self.make_sequence(n_frames=4)
        fused, labels = aggregate(seq, 0)
        total = sum(len(cloud) for cloud in seq.frames)
        assert len(fused) == total and labels.size == total

    def test_static_scene_on_surfaces(self):
        scene, seq = self.make_sequence(dynamic=0.0, n_frames=2, seed=4)
        fused, _ = aggregate(seq, 0)
        for p in fused:
            assert scene_surface_distance(p, scene) <= 1e-6

    def test_dynamic_points_land_on_keyframe_box(self):
        # one box crossing the scene at 1 m/s; frames 1 s apart
        box = BoxLabel(0.0, 6.0, 1.0, 3.0, 2.0, 2.0, 0.4, vx=1.0, vy=0.0,
                       class_id=1, is_dynamic=True)
        scene = Scene(ground_z=0.0, objects=(box,))
        poses = [Pose(np.eye(3), (0.0, 0.0, 2.0)) for _ in range(11)]
        beams = BeamSpec(24, -2.0, -40.0, 180)
        seq = generate_sequence(scene, beams, poses, 10.0)
        fused, labels = aggregate(seq, keyframe=0)
        key_box = seq.boxes[0][0]
        box_points = fused[labels == 1]
        assert len(box_points) > 50
        for p in box_points:
            assert box_surface_distance(p, key_box) <= 1e-6

    @pytest.mark.parametrize("dynamic, keyframe, seed", [
        (0.0, 0, 1), (0.5, 0, 2), (0.5, 2, 3), (1.0, 1, 4)])
    def test_matches_point_cloud_form(self, dynamic, keyframe, seed):
        scene, seq = self.make_sequence(n_frames=3, dynamic=dynamic, seed=seed)
        fused, labels = aggregate(seq, keyframe)
        cloud, want = aggregate_reference(seq, keyframe)
        assert fused.dtype == np.float64 and fused.shape == cloud.xyz.shape
        assert fused.tobytes() == cloud.xyz.tobytes()
        assert labels.dtype == np.uint8 and np.array_equal(labels, want)

    def test_non_finite_fused_points_rejected(self):
        # finite points and a finite pose whose sum overflows
        seq = LidarSequence([cloud_of([[1e308, 0.0, 0.0]])], [np.array([1])],
                            [Pose(np.eye(3), (1e308, 0.0, 0.0))], [[]])
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="^point coordinates must be "
                                                "finite$"):
            aggregate(seq, 0)

    @pytest.mark.parametrize("far", [1e200, -1e200])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_points_past_1e150_rejected(self, axis, far):
        # the squared distance of a point some 1e154 m off overflows to inf,
        # and ties at inf would decide the densify vote
        def fused(coord):
            p = np.array([0.1, 0.1, 1.0])
            p[axis] = coord
            seq = LidarSequence([cloud_of([[0.1, 0.2, 1.0], p])],
                                [np.array([3, 5])],
                                [Pose(np.eye(3), np.zeros(3))], [[]])
            return aggregate(seq, 0)[0]

        with pytest.raises(ValueError, match="^point coordinates must be "
                                             "finite$"):
            fused(far)
        bound = math.copysign(1e150, far)  # the bound itself is kept
        assert fused(bound)[1, axis] == bound

    @pytest.mark.parametrize("keyframe", [-1, 2])
    def test_keyframe_out_of_range_rejected(self, keyframe):
        scene, seq = self.make_sequence(n_frames=2)
        with pytest.raises(ValueError, match=f"keyframe {keyframe} out of range"):
            aggregate(seq, keyframe)


class TestKnnLabel:
    """``knn_label`` on hand-built clouds around one queried cell, and on
    random clouds against the brute force ``make_occupancy_reference``."""

    #: 4 x 4 cells of 1 m from (-2, -2) and z_mid 0: cell (2, 2) is centred
    #: at (0.5, 0.5, 0), and every offset below is exact in binary
    SPEC = GridSpec(-2.0, -2.0, 1.0, 4, 4, -1.0, 1.0, n_cls=15)
    CENTER = np.array([0.5, 0.5, 0.0])

    def label(self, offsets, labels, k, radius=1.0):
        """The label of cell (2, 2) among the points at `offsets` from its
        column center."""
        xyz = self.CENTER + np.asarray(offsets, dtype=np.float64)
        cells = np.zeros((4, 4), dtype=bool)
        cells[2, 2] = True
        out = knn_label(xyz, np.asarray(labels), self.SPEC.bin_points(xyz),
                        cells, self.SPEC, radius, k)
        assert out.shape == (1,)
        return int(out[0])

    def test_coincident_point_k1(self):
        assert self.label([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]], [7, 2], k=1) == 7

    def test_majority_of_three(self):
        offsets = [[0, 0, 0], [0.25, 0, 0], [0, 0.25, 0], [9, 9, 9]]
        assert self.label(offsets, [2, 2, 5, 5], k=3) == 2

    def test_no_point_within_the_radius(self):
        # the point lies at 1.5 m: near at radius 1.5, far at radius 1
        assert self.label([[1.5, 0.0, 0.0]], [7], k=1, radius=1.5) == 7
        assert self.label([[1.5, 0.0, 0.0]], [7], k=1, radius=1.0) == 0

    def test_empty_fused_labels_nothing(self):
        assert self.label(np.zeros((0, 3)), np.zeros(0, dtype=np.int64),
                          k=1) == 0

    def test_labels_must_align_with_points(self):
        with pytest.raises(ValueError, match="length 2"):
            self.label(np.zeros((2, 3)), np.zeros(3, dtype=np.int64), k=1)

    def test_ties_go_to_the_lower_index(self):
        # four points 1 m from the center, each with its own label
        offsets = [[1.0, 0, 0], [0, -1.0, 0], [-1.0, 0, 0], [0, 0, 1.0]]
        for perm in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
            labels = np.array([11, 12, 13, 14])[perm]
            assert self.label(offsets, labels, k=1) == labels[0]

    def test_vote_ties_go_to_the_smaller_id(self):
        offsets = [[1.0, 0, 0], [0, -1.0, 0], [-1.0, 0, 0], [0, 0, 1.0]]
        for perm in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
            labels = np.array([11, 12, 13, 14])[perm]
            # one vote each for the first three
            assert self.label(offsets, labels, k=3) == min(labels[:3])
        # empty loses every tie
        assert self.label(offsets[:2], [0, 12], k=2) == 12
        assert self.label(offsets[:2], [12, 0], k=2) == 12

    def test_k_larger_than_the_cloud(self):
        # the vote takes all three points, the one 6 m out too
        offsets = [[0.25, 0, 0], [0, 0.5, 0], [6.0, 0, 0]]
        assert self.label(offsets, [4, 9, 9], k=10) == 9
        assert self.label(offsets, [4, 9, 9], k=1) == 4

    def assert_matches_reference(self, xyz, labels, spec, radius, k):
        """knn_label on the empty cells equals the brute force grid there;
        returns the number of cells it filled."""
        seq = one_frame(xyz, labels)
        want = make_occupancy_reference(seq, spec, 0, True, radius, k)
        bins = spec.bin_points(xyz)
        empty = voxelize_bev(bins, labels, spec).labels == 0
        got = knn_label(xyz, labels, bins, empty, spec, radius, k)
        np.testing.assert_array_equal(got, want.labels[empty])
        return int(np.count_nonzero(got))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        filled = 0
        for n_cls in EDGE_N_CLS:
            spec = small_spec(n_cls=n_cls)
            for trial in range(20):
                n = int(rng.integers(50, 400))
                fused = rng.normal(0, 5, (n, 3))
                if trial % 2:   # a 1/4 m lattice: many exact distance ties
                    fused = np.round(fused * 4) / 4
                labels = rng.integers(0, n_cls + 1, n)
                radius = float(rng.choice([0.5, 1.0, 2.5]))
                k = int(rng.integers(1, 9))
                filled += self.assert_matches_reference(fused, labels, spec,
                                                        radius, k)
        assert filled > 0

    def test_k_nearest_in_a_far_cluster(self):
        # three points near the grid, and the rest of each near cell's k
        # nearest in a dense cluster 60 m away
        rng = np.random.default_rng(11)
        spec = small_spec(h=8, w=8, cell=0.5)
        near = np.array([[0.1, 0.2, 1.0], [-0.6, 0.3, 1.2], [0.2, -0.7, 0.9]])
        far = np.array([60.0, -20.0, 1.0]) + rng.normal(0, 1.0, (3000, 3))
        xyz = np.concatenate([near, far])
        labels = np.concatenate([[3, 3, 3], np.full(len(far), 7)])
        for k in (1, 3, 4, 8):
            filled = self.assert_matches_reference(xyz, labels, spec, 0.75, k)
            assert filled > 0
        # with k = 8, five of each cell's votes are the cluster's
        grid = make_occupancy(one_frame(xyz, labels), spec, 0, True, 0.75, 8)
        assert 7 in grid.labels


def test_tie_order_is_the_oracles_rule():
    # larger tie weight first, then smaller id, at every class count
    for n_cls in range(1, 256):
        w = tie_weights(n_cls)
        want = sorted(range(n_cls + 1), key=lambda c: (-w[c], c))
        assert _tie_order(n_cls).tolist() == want


class TestVoxelize:
    def test_empty_cloud_zero_grid(self):
        spec = small_spec()
        grid = voxelize_bev(spec.bin_points(np.zeros((0, 3))), np.zeros(0),
                            spec)
        assert grid.labels.sum() == 0

    def test_single_point(self):
        spec = small_spec()
        grid = voxelize_bev(spec.bin_points([[0.5, 0.5, 0.0]]), np.array([3]),
                            spec)
        assert grid.occupied_count == 1
        assert grid.labels[8, 8] == 3  # cell containing (0.5, 0.5)

    def test_out_of_band_z_ignored(self):
        spec = small_spec()
        grid = voxelize_bev(spec.bin_points([[0.5, 0.5, 9.0]]), np.array([3]),
                            spec)
        assert grid.occupied_count == 0

    def test_matches_brute_force_voting(self):
        rng = np.random.default_rng(6)
        for n_cls in EDGE_N_CLS:
            for trial in range(15):
                n = int(rng.integers(1, 2000))
                spec = GridSpec(origin_x=float(rng.uniform(-4, 0)),
                                origin_y=float(rng.uniform(-4, 0)),
                                cell_size=float(rng.uniform(0.4, 1.5)),
                                h=int(rng.integers(4, 24)),
                                w=int(rng.integers(4, 24)),
                                z_min=-1.0, z_max=2.0, n_cls=n_cls)
                xyz = rng.uniform(-6, 14, (n, 3)) * [1, 1, 0.25]
                labels = rng.integers(0, n_cls + 1, n)
                got = voxelize_bev(spec.bin_points(xyz), labels, spec)
                np.testing.assert_array_equal(
                    got.labels, voxelize_brute(xyz, labels, spec))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        xyz = rng.uniform(-8, 8, (500, 3)) * [1, 1, 0.2]
        labels = rng.integers(0, 16, 500)
        spec = small_spec()
        a = voxelize_bev(spec.bin_points(xyz), labels, spec)
        perm = rng.permutation(500)
        b = voxelize_bev(spec.bin_points(xyz[perm]), labels[perm], spec)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_tie_breaks_prefer_heavier_class(self):
        spec = small_spec(n_cls=15)
        # one foreground (class 1, weight 2.0) vs one background point (class 11)
        xyz = np.array([[0.1, 0.1, 0.0], [0.2, 0.2, 0.0]])
        grid = voxelize_bev(spec.bin_points(xyz), np.array([11, 1]), spec)
        assert grid.labels[8, 8] == 1
        # two background classes tie -> smaller id
        grid = voxelize_bev(spec.bin_points(xyz), np.array([12, 11]), spec)
        assert grid.labels[8, 8] == 11


class TestMakeOccupancy:
    def setup_sequence(self, seed=3, n_frames=3):
        scene = build_scene(SceneParams(
            arena=(-12.0, 12.0, -12.0, 12.0), n_objects=6,
            dynamic_fraction=0.3), seed)
        poses = [Pose(np.eye(3), (0.2 * i, 0.0, 2.0)) for i in range(n_frames)]
        beams = BeamSpec(32, -5.0, -60.0, 240)
        return scene, generate_sequence(scene, beams, poses, 10.0)

    def test_single_point_matches_voxelize(self):
        spec = small_spec()
        cloud = cloud_of([[0.5, 0.5, 0.0]])
        labels = np.array([4])
        seq = LidarSequence([cloud], [labels], [Pose(np.eye(3), np.zeros(3))],
                            [[]])
        grid = make_occupancy(seq, spec, keyframe=0, densify=False, radius=0.4,
                              k=5)
        direct = voxelize_bev(spec.bin_points(cloud.xyz), labels, spec)
        np.testing.assert_array_equal(grid.labels, direct.labels)

    def test_values_in_range(self):
        scene, seq = self.setup_sequence()
        spec = GridSpec(-8.0, -8.0, 0.5, 32, 32, -1.0, 3.0, n_cls=15)
        grid = make_occupancy(seq, spec, keyframe=0, densify=True, radius=0.4,
                              k=5)
        assert grid.labels.min() >= 0 and grid.labels.max() <= 15

    def test_densification_monotone(self):
        scene, seq = self.setup_sequence()
        spec = GridSpec(-8.0, -8.0, 0.5, 32, 32, -0.5, 0.5, n_cls=15)
        off = make_occupancy(seq, spec, keyframe=0, densify=False, radius=0.6,
                             k=5)
        on = make_occupancy(seq, spec, keyframe=0, densify=True, radius=0.6, k=5)
        assert on.occupied_count >= off.occupied_count
        # cells labeled without densification keep their labels
        mask = off.labels != 0
        np.testing.assert_array_equal(on.labels[mask], off.labels[mask])

    def test_box_footprints_carry_box_class(self):
        scene, seq = self.setup_sequence(seed=12)
        spec = GridSpec(-8.0, -8.0, 0.5, 32, 32, -1.0, 3.0, n_cls=15)
        grid = make_occupancy(seq, spec, keyframe=0, densify=True, radius=0.4,
                              k=5)
        xx, yy = spec.cell_centers()
        for box in seq.boxes[0]:
            # footprint cells whose center is inside and that contain points
            centers = np.stack([xx.ravel(), yy.ravel(),
                                np.full(xx.size, box.cz)], axis=-1)
            inside = np.array([point_in_box_brute(p, box) for p in centers])
            hit = (grid.labels.ravel() != 0) & inside
            if hit.sum() == 0:
                continue
            agree = (grid.labels.ravel()[hit] == box.class_id).mean()
            assert agree >= 0.9


def one_frame(xyz, labels) -> LidarSequence:
    """A one-frame sequence at the identity pose; its fused cloud is `xyz`."""
    cloud = cloud_of(xyz)
    seq = LidarSequence([cloud], [np.asarray(labels)],
                        [Pose(np.eye(3), np.zeros(3))], [[]])
    assert np.array_equal(aggregate(seq, 0)[0], cloud.xyz)
    return seq


class TestDensifyCulling:
    """The windowed cell search gives the grid of a brute force over the
    whole fused cloud (``make_occupancy_reference``), bit for bit."""

    #: 8 x 8 cells of 1 m from (-4, -4); z_mid 1.0.  Cell (4, 4) is
    #: centred at (0.5, 0.5); every offset below is exact in binary.
    SPEC = GridSpec(-4.0, -4.0, 1.0, 8, 8, 0.5, 1.5, n_cls=15)

    def assert_same(self, seq, spec, radius, k):
        got = make_occupancy(seq, spec, 0, True, radius, k)
        want = make_occupancy_reference(seq, spec, 0, True, radius, k)
        assert np.array_equal(got.labels, want.labels)
        return want

    def densified(self, seq, spec, radius, k):
        """Cells that densification filled, after checking the grid."""
        grid = self.assert_same(seq, spec, radius, k)
        plain = make_occupancy(seq, spec, 0, False, radius, k)
        return int(((grid.labels != 0) & (plain.labels == 0)).sum())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_sequences(self, seed):
        scene = build_scene(SceneParams(
            arena=(-12.0, 12.0, -12.0, 12.0), n_objects=8,
            dynamic_fraction=0.5), seed)
        poses = [Pose(np.eye(3), (0.7 * i, 0.3 * i, 2.0)) for i in range(3)]
        seq = generate_sequence(scene, BeamSpec(24, -2.0, -40.0, 180), poses,
                                10.0)
        filled = 0
        for cell, radius, k in [(0.5, 0.4, 5), (0.25, 0.3, 1), (1.0, 0.9, 8),
                                (0.5, 1.7, 3)]:
            spec = GridSpec(-8.0, -8.0, cell, int(16 / cell), int(16 / cell),
                            -1.0, 3.0, n_cls=15)
            filled += self.densified(seq, spec, radius, k)
        assert filled > 0

    def test_seeded_clouds_on_a_lattice(self):
        # coordinates on a 1/8 m lattice: exact distance ties are common
        rng = np.random.default_rng(41)
        filled = 0
        for trial in range(40):
            n = int(rng.choice([3, 20, 200, 2000]))
            xyz = rng.integers(-56, 57, (n, 3)) / 8.0 * [1.0, 1.0, 0.3]
            xyz[:, 2] += 1.0
            labels = rng.integers(0, 16, n)
            dup = rng.random(n) < 0.2  # coincident points, other labels
            xyz = np.concatenate([xyz, xyz[dup]])
            labels = np.concatenate([labels, rng.integers(0, 16, dup.sum())])
            cell = float(rng.choice([0.25, 0.5, 1.0]))
            side = int(rng.integers(4, 17))
            spec = GridSpec(-side * cell / 2, -side * cell / 2, cell, side,
                            side, float(rng.choice([-1.0, 0.5])), 1.5, 15)
            radius = float(rng.choice([0.125, 0.375, 0.75, 1.5]))
            filled += self.densified(one_frame(xyz, labels), spec, radius,
                                     int(rng.integers(1, 9)))
        assert filled > 0

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_ties_at_the_kth_distance(self, k):
        # four points 0.625 m from the centre of empty cell (4, 4), some
        # doubled with another label, shuffled among far filler: the k-set
        # is the k tied points of lowest fused index
        rng = np.random.default_rng(k)
        ring = np.array([[1.125, 0.5, 1.0], [-0.125, 0.5, 1.0],
                         [0.5, 1.125, 1.0], [0.5, -0.125, 1.0]])
        w = tie_weights(15)
        for trial in range(30):
            tied = np.concatenate([ring, ring[rng.integers(0, 4, 4)]])
            filler = rng.uniform(-3.5, 3.5, (int(rng.integers(20, 400)), 3))
            filler[:, 2] = rng.choice([-20.0, 20.0], len(filler))
            xyz = np.concatenate([tied, filler])
            order = rng.permutation(len(xyz))
            labels = rng.integers(1, 16, len(xyz))[order]
            grid = self.assert_same(one_frame(xyz[order], labels), self.SPEC,
                                    0.75, k)
            nearest = labels[np.flatnonzero(order < len(tied))[:k]].tolist()
            assert grid.labels[4, 4] == max(
                nearest, key=lambda c: (nearest.count(c), w[c], -c))

    def test_points_exactly_radius_from_a_centre(self):
        # 0.75 m from the centre of cell (4, 4) along x, y or z, and one ulp
        # nearer or farther; z = 1.75 and 0.25 lie outside the band, so
        # only densification can fill the cell, and it does unless farther
        centre = np.array([0.5, 0.5, 1.0])
        for exact, axis in [([1.25, 0.5, 1.0], 0), ([0.5, -0.25, 1.0], 1),
                            ([0.5, 0.5, 1.75], 2), ([0.5, 0.5, 0.25], 2)]:
            for nudge in (None, -np.inf, np.inf):
                p = np.array(exact)
                if nudge is not None:
                    p[axis] = np.nextafter(p[axis], nudge)
                grid = self.assert_same(one_frame(p[None], [7]), self.SPEC,
                                        0.75, 1)
                near = abs(p[axis] - centre[axis]) <= 0.75
                assert grid.labels[4, 4] == (7 if near else 0)

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_fewer_points_than_k_plus_one(self, n):
        rng = np.random.default_rng(n)
        filled = 0
        for trial in range(10):
            xyz = rng.uniform(-2.0, 2.0, (n, 3)) * [1.0, 1.0, 0.1] + [0, 0, 1]
            filled += self.densified(one_frame(xyz, rng.integers(1, 16, n)),
                                     self.SPEC, 0.75, 5)
        assert filled > 0

    @pytest.mark.parametrize("n_far", [2, 9])
    def test_kth_neighbour_many_windows_away(self, n_far):
        # one point beside cell (4, 4); the rest 40-60 m off, so the k-th
        # neighbour lies a dozen doublings of the window away
        rng = np.random.default_rng(n_far)
        far = rng.uniform(40.0, 60.0, (n_far, 3)) * rng.choice([-1, 1], (n_far, 3))
        xyz = np.concatenate([[[1.125, 0.5, 1.0]], far])
        labels = np.concatenate([[3], rng.integers(4, 16, n_far)])
        assert self.densified(one_frame(xyz, labels), self.SPEC, 0.75, 3) > 0

    @pytest.mark.parametrize("outside", [[0.5, 0.5, 2.6], [3.0, 0.5, 1.6]])
    def test_a_neighbour_just_outside_the_window(self, outside):
        # cell (4, 4) is the only one near a point, and its first window
        # spans 1.5 m in z and 2 cells in x and y.  The point `outside` lies
        # just beyond it (1.6 m up, or 2.5 m along x), nearer than the
        # window's 2nd and 3rd neighbours (2.60 and 2.70 m)
        xyz = np.array([[1.125, 0.5, 1.0], outside, [0.5, 2.625, 2.5],
                        [-1.75, 0.5, 2.5]])
        assert self.densified(one_frame(xyz, [9, 5, 12, 12]), self.SPEC,
                              0.75, 2) > 0

    def test_points_just_off_the_grid(self):
        # beside border cells, just outside each edge, and one ulp outside
        edge = []
        for c in (-3.5, -0.5, 2.5, 3.5):
            edge += [[-4.25, c, 1.0], [c, 4.25, 1.0],
                     [np.nextafter(-4.0, -np.inf), c + 0.125, 1.0],
                     [c + 0.125, np.nextafter(4.0, np.inf), 1.0],
                     [4.625, c, 1.0], [c, -4.625, 1.25]]
        xyz = np.array(edge)
        labels = np.arange(len(xyz)) % 15 + 1
        for k in (1, 2, 4):
            assert self.densified(one_frame(xyz, labels), self.SPEC, 0.75,
                                  k) > 0

    def test_points_far_outside_the_z_band(self):
        # the near point is in the band; its neighbours are 30-500 m above
        # or below the columns, so the vote reaches far out in z
        rng = np.random.default_rng(8)
        xy = rng.uniform(-3.5, 3.5, (12, 2))
        z = rng.choice([-500.0, -30.0, 30.0, 500.0], (12, 1))
        xyz = np.concatenate([[[0.5, 1.125, 1.0]], np.hstack([xy, z])])
        labels = np.concatenate([[2], rng.integers(5, 16, 12)])
        for k in (1, 3, 6):
            assert self.densified(one_frame(xyz, labels), self.SPEC, 0.75,
                                  k) > 0

    def test_a_grid_with_no_empty_cell(self):
        spec = GridSpec(-2.0, -2.0, 1.0, 4, 4, 0.5, 1.5, n_cls=15)
        xx, yy = spec.cell_centers()
        xyz = np.stack([xx.ravel(), yy.ravel(), np.ones(16)], axis=-1)
        grid = self.assert_same(one_frame(xyz, np.arange(1, 17) % 15 + 1),
                                spec, 0.75, 3)
        assert grid.occupied_count == 16


class TestCompactWorkingSet:
    """uint8 labels, clipped int32 bins and chunked votes give the grids of
    independent oracles, in a working set that does not grow with the
    cloud."""

    @staticmethod
    def counted(cells, labels, spec):
        """The plurality grid of points whose flat cell is known (-1 when
        off the grid or out of the band): one count per (cell, class), ties
        to the larger :func:`tie_weights` entry, then the smaller id."""
        w = tie_weights(spec.n_cls)
        counts = np.zeros((spec.h * spec.w, spec.n_cls + 1), dtype=np.int64)
        on = cells >= 0
        np.add.at(counts, (cells[on], labels[on]), 1)
        out = np.zeros(spec.h * spec.w, dtype=np.int64)
        for c in np.flatnonzero(counts.sum(axis=1)):
            out[c] = max(range(spec.n_cls + 1),
                         key=lambda k: (counts[c, k], w[k], -k))
        return out.reshape(spec.h, spec.w)

    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1,
                                   3 * _CHUNK + 7])
    def test_chunked_votes_match_a_per_cell_count(self, n):
        spec = GridSpec(-3.0, -2.0, 0.5, 48, 64, -1.0, 1.0, n_cls=15)
        rng = np.random.default_rng(n)
        # each point inside a known cell, a ring of cells off the grid
        # included, and a tenth of them above the band; three classes per
        # cell, so votes are close
        i = rng.integers(1, spec.h + 1, n)
        j = rng.integers(-1, spec.w + 1, n)
        z = rng.choice([0.0, 5.0], n, p=[0.9, 0.1])
        labels = (rng.integers(0, 3, n) + (5 * i + j) % 13).astype(np.uint8)
        # the first and last point of each chunk alone in a cell of row 0
        edge = np.unique(np.clip(np.arange(0, n + _CHUNK, _CHUNK)[:, None]
                                 + [-1, 0], 0, n - 1))
        i[edge], j[edge], z[edge] = 0, np.arange(edge.size), 0.0
        labels[edge] = np.arange(edge.size) % 15 + 1
        xyz = np.stack([
            spec.origin_x + (j + rng.uniform(0.1, 0.9, n)) * spec.cell_size,
            spec.origin_y + (i + rng.uniform(0.1, 0.9, n)) * spec.cell_size,
            z], axis=-1)
        inside = ((i >= 0) & (i < spec.h) & (j >= 0) & (j < spec.w)
                  & (xyz[:, 2] <= spec.z_max))
        cells = np.where(inside, i * spec.w + j, -1)
        got = voxelize_bev(spec.bin_points(xyz), labels, spec)
        np.testing.assert_array_equal(got.labels,
                                      self.counted(cells, labels, spec))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_every_u8_label_through_aggregate_voxelize_and_knn(self, dtype):
        # one point at each cell centre of a 16 x 16 grid, labelled by the
        # cell's row-major index 0..255, but none in cells 7 and 200
        spec = GridSpec(-8.0, -8.0, 1.0, 16, 16, 0.0, 2.0, n_cls=255)
        xx, yy = spec.cell_centers()
        cell = np.setdiff1d(np.arange(256), [7, 200])
        xyz = np.stack([xx.ravel()[cell], yy.ravel()[cell],
                        np.ones(cell.size)], axis=-1)
        seq = one_frame(xyz, cell.astype(dtype))
        fused_labels = aggregate(seq, 0)[1]
        assert fused_labels.dtype == np.uint8
        assert np.array_equal(fused_labels, cell)
        for k in (1, 3):
            grid = make_occupancy(seq, spec, 0, True, 1.5, k)
            want = make_occupancy_reference(seq, spec, 0, True, 1.5, k)
            np.testing.assert_array_equal(grid.labels, want.labels)
        # cell 0's own point votes empty; cells 7 and 200 take their
        # neighbour of lowest index, 1 m away
        want = np.arange(256)
        want[7], want[200] = 6, 184
        np.testing.assert_array_equal(
            make_occupancy(seq, spec, 0, True, 1.5, 1).labels.ravel(), want)

    def test_bins_are_int32_and_exact_within_2_30(self):
        spec = GridSpec(0.0, 0.0, 1.0, 4, 4, -1.0, 1.0)
        k = np.array([-2**30, -2**30 + 1, -5, -1, 0, 1, 3, 4, 2**30 - 1,
                      2**30])
        xyz = np.stack([k + 0.5, k[::-1] + 0.5, np.zeros(k.size)], axis=-1)
        ii, jj, ok = spec.bin_points(xyz)
        assert ii.dtype == np.int32 and jj.dtype == np.int32
        assert ok.dtype == np.bool_
        assert jj.tolist() == k.tolist() and ii.tolist() == k[::-1].tolist()
        assert ok.tolist() == [bool(0 <= a < 4 and 0 <= b < 4)
                               for a, b in zip(k[::-1], k)]

    def test_far_bins_clip_and_stay_far(self):
        spec = GridSpec(0.0, 0.0, 1.0, 4, 4, -1.0, 1.0)
        far = np.array([[2.0**30 + 5.5, -2.0**30 - 5.5, 0.0],
                        [2.0**40, -2.0**40, 0.0], [1e20, -1e20, 0.0],
                        [1e150, -1e150, 0.0], [np.inf, -np.inf, 0.0]])
        ii, jj, ok = spec.bin_points(far)
        assert ii.dtype == np.int32 and jj.dtype == np.int32
        assert jj.tolist() == [2**30] * 5 and ii.tolist() == [-2**30] * 5
        assert not ok.any()

    @pytest.mark.parametrize("far", [1e20, -1e20, 1e150])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_a_vote_that_reaches_a_point_far_off(self, axis, far):
        # the three nearest of each near cell include the far point, some
        # 70 (at 1e150, 500) doublings of the window away
        spec = GridSpec(-1.0, -1.0, 0.25, 8, 8, -1.0, 3.0)
        p = np.array([0.0, 0.0, 1.0])
        p[axis] = far
        seq = one_frame(np.array([[0.1, 0.1, 1.0], [0.1, 0.2, 1.0], p]),
                        [3, 5, 5])
        grid = make_occupancy(seq, spec, 0, True, 0.4, 3)
        want = make_occupancy_reference(seq, spec, 0, True, 0.4, 3)
        np.testing.assert_array_equal(grid.labels, want.labels)
        # both near points share cell (4, 4), where 3 wins the tie; the far
        # point's vote makes every densified cell 5
        assert grid.labels[4, 4] == 3 and (grid.labels == 5).sum() > 1

    def test_voxelize_peak_does_not_grow_with_the_cloud(self):
        spec = GridSpec(-16.0, -16.0, 0.5, 64, 64, -1.0, 3.0)

        def peak(n: int) -> int:
            rng = np.random.default_rng(n)
            ii = rng.integers(-4, spec.h + 4, n).astype(np.int32)
            jj = rng.integers(-4, spec.w + 4, n).astype(np.int32)
            ok = (ii >= 0) & (ii < spec.h) & (jj >= 0) & (jj < spec.w)
            labels = rng.integers(0, 16, n).astype(np.uint8)
            tracemalloc.start()
            try:
                voxelize_bev((ii, jj, ok), labels, spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2**16), peak(2**20)
        assert large <= small + 2**20, (small, large)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 0, 0.0, 4, 4, -1, 1)
    with pytest.raises(ValueError):
        GridSpec(0, 0, 1.0, 4, 4, 1, -1)
    with pytest.raises(ValueError):
        OccupancyGrid(small_spec(n_cls=3), np.full((16, 16), 4))
