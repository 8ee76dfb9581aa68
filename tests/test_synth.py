import math

import numpy as np
import pytest

from helpers import point_in_box_brute, scan_reference, scene_surface_distance

from occspot.cloud import BoxLabel, Pose, to_spherical, transform
from occspot.synth import (BeamSpec, Scene, SceneObject, SceneParams,
                           SequenceMeta, _ray_directions, build_scene,
                           generate_sequence, scan)


def down_beams(n=16, steps=90):
    # all beams point below the horizon so every ray hits the ground
    return BeamSpec(n_beams=n, alpha_up=-2.0, alpha_low=-30.0, azimuth_steps=steps)


def sensor(height=2.0):
    return Pose(np.eye(3), (0.0, 0.0, height))


class TestBeamSpec:
    def test_degenerate_vfov(self):
        with pytest.raises(ValueError, match="degenerate VFOV"):
            BeamSpec(n_beams=4, alpha_up=1.0, alpha_low=1.0)

    def test_elevations_uniform(self):
        b = BeamSpec(5, 10.0, -10.0)
        np.testing.assert_allclose(np.rad2deg(b.elevations()),
                                   [-10, -5, 0, 5, 10])

    def test_single_beam_midpoint(self):
        b = BeamSpec(1, -44.0, -46.0)
        assert np.rad2deg(b.elevations()) == pytest.approx([-45.0])

    def test_ray_directions_are_cached_read_only(self):
        b = BeamSpec(4, 10.0, -10.0, 12)
        dirs = _ray_directions(b)
        assert _ray_directions(BeamSpec(4, 10.0, -10.0, 12)) is dirs
        assert not dirs.flags.writeable
        with pytest.raises(ValueError):
            dirs[0, 0] = 1.0

    def test_ray_directions_tell_signed_zeros_apart(self):
        # equal specs, but the -0.0 elevation casts rays with z = -0.0
        plus, minus = BeamSpec(3, 0.0, -20.0, 4), BeamSpec(3, -0.0, -20.0, 4)
        assert plus == minus
        a, b = _ray_directions(plus), _ray_directions(minus)
        assert np.array_equal(a, b)
        assert a.tobytes() != b.tobytes()
        assert np.signbit(b[:, 2]).all() and not np.signbit(a[-4:, 2]).any()


class TestBuildScene:
    def test_zero_objects_ground_only(self):
        scene = build_scene(SceneParams(n_objects=0), seed=1)
        assert scene.objects == ()
        assert scene.ground_z == 0.0

    def test_same_seed_identical(self):
        params = SceneParams(n_objects=20)
        assert build_scene(params, 9) == build_scene(params, 9)

    def test_containment_in_arena(self):
        params = SceneParams(arena=(-30.0, 30.0, -25.0, 25.0), n_objects=50,
                             dynamic_fraction=0.5)
        scene = build_scene(params, seed=7)
        assert len(scene.objects) == 50
        x0, x1, y0, y1 = params.arena
        for obj in scene.objects:
            b = obj.box
            # exhaustive corner check of the footprint
            c, s = math.cos(b.yaw), math.sin(b.yaw)
            for sx in (-1, 1):
                for sy in (-1, 1):
                    dx, dy = sx * b.l / 2, sy * b.w / 2
                    cx = b.cx + c * dx - s * dy
                    cy = b.cy + s * dx + c * dy
                    assert x0 <= cx <= x1 and y0 <= cy <= y1

    def test_dynamic_objects_have_velocity(self):
        scene = build_scene(SceneParams(n_objects=40, dynamic_fraction=1.0), 3)
        assert all(o.box.speed > 0 for o in scene.objects)

    def test_infeasible_placement_raises(self):
        params = SceneParams(arena=(-4.0, 4.0, -4.0, 4.0), n_objects=60)
        with pytest.raises(ValueError, match="infeasible placement"):
            build_scene(params, seed=0)


class TestScan:
    def test_empty_scene_no_ground(self):
        scene = Scene(ground_z=None, objects=(), rng_seed=0)
        cloud, labels = scan(scene, down_beams(), sensor())
        assert len(cloud) == 0 and labels.size == 0

    def test_ground_hit_analytic(self):
        # single ray at -45 deg from 2 m: range 2*sqrt(2), lands 2 m ahead
        scene = Scene(ground_z=0.0, objects=(), rng_seed=0, ground_class=15)
        beams = BeamSpec(1, -44.0, -46.0, azimuth_steps=1)
        cloud, labels = scan(scene, beams, sensor(2.0))
        assert len(cloud) == 1
        r = np.linalg.norm(cloud.xyz[0])
        assert r == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        world = cloud.xyz[0] + [0.0, 0.0, 2.0]
        assert world[2] == pytest.approx(0.0, abs=1e-9)
        assert np.hypot(world[0], world[1]) == pytest.approx(2.0, abs=1e-9)
        assert labels[0] == 15

    def test_box_face_hit(self):
        # axis-aligned face 5 m ahead (+y), horizontal ray straight at it
        box = BoxLabel(0.0, 6.0, 1.0, 4.0, 2.0, 2.0, yaw=0.0, class_id=3)
        scene = Scene(ground_z=None, objects=(SceneObject(box, 3),), rng_seed=0)
        beams = BeamSpec(1, 1.0, -1.0, azimuth_steps=4)  # elevation 0; az 0 is +y
        pose = Pose(np.eye(3), (0.0, 0.0, 1.0))
        cloud, labels = scan(scene, beams, pose)
        assert len(cloud) == 1  # only the +y ray meets the box
        hits = cloud.xyz[np.abs(to_spherical(cloud.xyz)[:, 1]) < 1e-9]
        assert len(hits) == 1
        # face plane: y = 6 - w/2 = 5 in world, sensor at y=0
        assert hits[0][1] == pytest.approx(5.0, abs=1e-9)
        assert labels[0] == 3

    def test_points_on_surfaces_and_labels_match(self):
        scene = build_scene(SceneParams(n_objects=12), seed=11)
        pose = sensor(1.8)
        cloud, labels = scan(scene, down_beams(24, 120), pose)
        assert len(cloud) > 0
        world = transform(cloud, pose)
        for p, lbl in zip(world.xyz, labels):
            assert scene_surface_distance(p, scene) <= 1e-6
            if lbl == scene.ground_class and abs(p[2] - scene.ground_z) <= 1e-6:
                continue
            owner = next(o for o in scene.objects
                         if point_in_box_brute(p, o.box, atol=1e-6))
            assert lbl == owner.surface_class

    def test_point_count_bound(self):
        scene = build_scene(SceneParams(n_objects=5), seed=2)
        beams = down_beams(8, 64)
        cloud, _ = scan(scene, beams, sensor())
        assert len(cloud) <= beams.n_beams * beams.azimuth_steps

    def test_elevations_are_nominal(self):
        scene = build_scene(SceneParams(n_objects=6), seed=4)
        beams = down_beams(16, 90)
        cloud, _ = scan(scene, beams, sensor())
        got = to_spherical(cloud.xyz)[:, 2]
        nominal = beams.elevations()
        dist = np.abs(got[:, None] - nominal[None, :]).min(axis=1)
        assert dist.max() <= 1e-9

    def test_nearest_surface_wins(self):
        near = SceneObject(BoxLabel(0.0, 3.0, 1.0, 1.0, 1.0, 2.0, 0.0, class_id=2), 2)
        far = SceneObject(BoxLabel(0.0, 8.0, 1.0, 1.0, 1.0, 2.0, 0.0, class_id=4), 4)
        scene = Scene(ground_z=None, objects=(near, far), rng_seed=0)
        beams = BeamSpec(1, 1.0, -1.0, azimuth_steps=4)
        cloud, labels = scan(scene, beams, Pose(np.eye(3), (0, 0, 1.0)))
        assert labels.tolist() == [2]
        assert cloud.xyz[0][1] == pytest.approx(2.5, abs=1e-9)


def rotation(yaw, pitch=0.0, roll=0.0):
    cz, sz = math.cos(yaw), math.sin(yaw)
    cy, sy = math.cos(pitch), math.sin(pitch)
    cx, sx = math.cos(roll), math.sin(roll)
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    return rz @ ry @ rx


def assert_matches_reference(scene, beams, pose, time_s=0.0):
    """`scan` (culled) equals the unculled reference bit for bit."""
    cloud, labels = scan(scene, beams, pose, time_s=time_s)
    ref_cloud, ref_labels = scan_reference(scene, beams, pose, time_s=time_s)
    assert np.array_equal(cloud.xyz, ref_cloud.xyz)
    assert np.array_equal(cloud.feat, ref_cloud.feat)
    assert np.array_equal(labels, ref_labels)
    assert labels.dtype == ref_labels.dtype
    return labels


class TestScanCulling:
    """The bounding-sphere cull in `scan` never changes its output."""

    WIDE = BeamSpec(n_beams=16, alpha_up=15.0, alpha_low=-25.0, azimuth_steps=360)

    @pytest.mark.parametrize("ground_z", [0.0, None], ids=["ground", "no-ground"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_scenes(self, seed, ground_z):
        rng = np.random.default_rng(seed)
        params = SceneParams(n_objects=12 + 4 * seed, dynamic_fraction=0.5,
                             ground_z=ground_z)
        scene = build_scene(params, seed=100 + seed)
        pose = Pose(rotation(rng.uniform(-math.pi, math.pi),
                             rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)),
                    (rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(1, 3)))
        labels = assert_matches_reference(scene, self.WIDE, pose,
                                          time_s=float(rng.uniform(0, 2)))
        assert np.isin(labels, [o.surface_class for o in scene.objects]).any()

    def test_dynamic_boxes_later_times(self):
        scene = build_scene(SceneParams(n_objects=16, dynamic_fraction=1.0), 21)
        for time_s in (0.5, 3.0):
            assert scene.boxes_at(time_s) != scene.boxes_at(0.0)
            assert_matches_reference(scene, self.WIDE, sensor(1.8), time_s)

    @pytest.mark.parametrize("ground_z", [0.0, None], ids=["ground", "no-ground"])
    def test_zero_objects(self, ground_z):
        scene = build_scene(SceneParams(n_objects=0, ground_z=ground_z), 3)
        assert_matches_reference(scene, self.WIDE, sensor())

    def test_sensor_inside_box(self):
        around = SceneObject(BoxLabel(0.5, -0.3, 2.0, 4.0, 3.0, 5.0, 0.4), 2)
        outside = SceneObject(BoxLabel(8.0, 0.0, 1.0, 2.0, 2.0, 2.0, 0.0), 4)
        scene = Scene(ground_z=0.0, objects=(around, outside), rng_seed=0)
        labels = assert_matches_reference(scene, self.WIDE, sensor(2.0))
        assert len(labels) == self.WIDE.n_beams * self.WIDE.azimuth_steps
        assert (labels == 2).all()

    def test_boxes_behind_sensor(self):
        # one vertical fan of rays; every box sits on the opposite side
        beams = BeamSpec(n_beams=8, alpha_up=20.0, alpha_low=-20.0,
                         azimuth_steps=1)
        ahead = _ray_directions(beams).mean(axis=0)
        ahead /= np.linalg.norm(ahead)
        objects = tuple(
            SceneObject(BoxLabel(*(-d * ahead + [0.0, 0.0, 2.0] + off),
                                 1.5, 1.0, 2.0, 0.3 * i), 1 + i % 5)
            for i, (d, off) in enumerate([(3.0, (0, 0, 0)), (6.0, (2, 1, 0)),
                                          (10.0, (-1, 2, 1))]))
        scene = Scene(ground_z=None, objects=objects, rng_seed=0)
        labels = assert_matches_reference(scene, beams, sensor(2.0))
        assert labels.size == 0

    def test_rays_grazing_edges_and_corners(self):
        # boxes placed so one corner or edge point lies on a ray, up to
        # rounding: the hardest case for a conservative cull
        rng = np.random.default_rng(5)
        beams = BeamSpec(n_beams=32, alpha_up=10.0, alpha_low=-20.0,
                         azimuth_steps=90)
        pose = Pose(rotation(0.3, 0.05, -0.02), (1.0, -2.0, 1.7))
        dirs = _ray_directions(beams) @ pose.rotation.T
        objects = []
        for i, ray in enumerate(rng.choice(len(dirs), size=40, replace=False)):
            p = pose.translation + rng.uniform(3.0, 25.0) * dirs[ray]
            l, w, h = rng.uniform(0.5, 4.0, size=3)
            yaw = float(rng.uniform(-math.pi, math.pi))
            sx, sy, sz = rng.choice([-1.0, 1.0], size=3)
            # even i: a corner on the ray; odd i: a point on an edge
            u = 1.0 if i % 2 == 0 else rng.uniform(-1.0, 1.0)
            off = np.array([sx * l / 2, u * sy * w / 2, sz * h / 2])
            c, s = math.cos(yaw), math.sin(yaw)
            cx = p[0] - (c * off[0] - s * off[1])
            cy = p[1] - (s * off[0] + c * off[1])
            box = BoxLabel(cx, cy, p[2] - off[2], l, w, h, yaw)
            objects.append(SceneObject(box, 1 + i % 5))
        # an axis-aligned top face exactly at sensor height: the horizontal
        # rays graze it
        objects.append(SceneObject(BoxLabel(0.0, 9.0, 1.2, 4.0, 2.0, 1.0, 0.0), 3))
        scene = Scene(ground_z=0.0, objects=tuple(objects), rng_seed=0)
        assert_matches_reference(scene, beams, pose)
        flat = BeamSpec(n_beams=1, alpha_up=1.0, alpha_low=-1.0, azimuth_steps=720)
        assert_matches_reference(scene, flat, sensor(1.7))


class TestSequence:
    def make_meta(self, n, hz=10.0, speed=0.0):
        poses = tuple(Pose(np.eye(3), (speed * i / hz, 0.0, 2.0))
                      for i in range(n))
        return SequenceMeta(n_frames=n, keyframe_hz=hz, ego_poses=poses)

    def test_single_frame_matches_scan(self):
        scene = build_scene(SceneParams(n_objects=6), seed=5)
        meta = self.make_meta(1)
        frames = generate_sequence(scene, down_beams(), meta)
        cloud, labels = scan(scene, down_beams(), meta.ego_poses[0], time_s=0.0)
        assert len(frames) == 1
        np.testing.assert_array_equal(frames[0].cloud.xyz, cloud.xyz)
        np.testing.assert_array_equal(frames[0].labels, labels)

    def test_static_scene_fused_points_on_surfaces(self):
        params = SceneParams(n_objects=8, dynamic_fraction=0.0)
        scene = build_scene(params, seed=6)
        meta = self.make_meta(2, speed=3.0)
        frames = generate_sequence(scene, down_beams(12, 60), meta)
        for frame, pose in zip(frames, meta.ego_poses):
            world = transform(frame.cloud, pose)
            for p in world.xyz:
                assert scene_surface_distance(p, scene) <= 1e-6

    def test_dynamic_box_linear_motion(self):
        box = BoxLabel(0.0, 5.0, 1.0, 2.0, 1.0, 2.0, 0.0, vx=1.0, vy=0.0,
                       class_id=1, is_dynamic=True)
        scene = Scene(ground_z=0.0, objects=(SceneObject(box, 1),), rng_seed=0)
        meta = self.make_meta(11, hz=10.0)
        frames = generate_sequence(scene, down_beams(), meta)
        assert frames[10].boxes[0].cx == pytest.approx(1.0)
        assert frames[0].boxes[0].cx == pytest.approx(0.0)

    def test_deterministic_and_parallel_equal(self):
        scene = build_scene(SceneParams(n_objects=10, dynamic_fraction=0.5), 8)
        meta = self.make_meta(4, speed=2.0)
        serial = generate_sequence(scene, down_beams(), meta, workers=1)
        parallel = generate_sequence(scene, down_beams(), meta, workers=4)
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a.cloud.xyz, b.cloud.xyz)
            np.testing.assert_array_equal(a.labels, b.labels)
            assert a.boxes == b.boxes
