import math

import numpy as np
import pytest

from helpers import (azimuth_elevation, from_spherical_reference,
                     point_in_box_brute, scan_reference, scene_surface_distance)

from occspot import synth
from occspot.cloud import BoxLabel, FieldError, Pose, transform
from occspot.synth import (BeamSpec, Scene, SceneParams, _ray_directions,
                           _sector_windows, build_scene, generate_sequence,
                           scan)


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

    @pytest.mark.parametrize("name", ["alpha_up", "alpha_low"])
    @pytest.mark.parametrize("value", [90.5, -90.5, 1e300, math.inf,
                                       -math.inf, math.nan])
    def test_elevation_past_a_pole_is_rejected(self, name, value):
        # past a pole a ray's azimuth flips by pi
        kwargs = {"n_beams": 4, "alpha_up": 10.0, "alpha_low": -10.0,
                  name: value}
        with pytest.raises(FieldError, match="must lie in \\[-90, 90\\]") as info:
            BeamSpec(**kwargs)
        assert info.value.field == name

    def test_poles_are_accepted(self):
        b = BeamSpec(3, 90.0, -90.0, 8)
        assert np.rad2deg(b.elevations()).tolist() == [-90.0, 0.0, 90.0]

    def test_ray_directions_are_cached_read_only(self):
        b = BeamSpec(4, 10.0, -10.0, 12)
        dirs, el = _ray_directions(b)
        again = _ray_directions(BeamSpec(4, 10.0, -10.0, 12))
        assert again[0] is dirs and again[1] is el
        assert dirs.shape == (48, 3) and el.tobytes() == b.elevations().tobytes()
        for arr in (dirs, el):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_rays_form_an_elevation_by_azimuth_grid(self):
        # ray i * azimuth_steps + k: elevation i, azimuth k
        b = BeamSpec(5, 40.0, -50.0, 7)
        dirs, el = _ray_directions(b)
        grid = dirs.reshape(5, 7, 3)
        np.testing.assert_allclose(np.arcsin(grid[..., 2]),
                                   np.repeat(el[:, None], 7, axis=1), atol=1e-12)
        az = np.arctan2(grid[..., 0], grid[..., 1])
        np.testing.assert_allclose(np.exp(1j * az),
                                   np.exp(1j * b.azimuths())[None, :].repeat(5, 0),
                                   atol=1e-12)

    @pytest.mark.parametrize("beams", [
        BeamSpec(128, -2.0, -26.0, 720), BeamSpec(32, -2.0, -26.0, 720),
        BeamSpec(32, -2.0, -26.0, 360), BeamSpec(3, -0.0, -20.0, 4),
        BeamSpec(3, 90.0, -90.0, 8)])
    def test_ray_directions_equal_the_spherical_reference(self, beams):
        ee, aa = np.meshgrid(beams.elevations(), beams.azimuths(),
                             indexing="ij")
        sph = np.stack([np.ones(ee.size), aa.ravel(), ee.ravel()], axis=-1)
        dirs, _ = _ray_directions(beams)
        assert dirs.tobytes() == from_spherical_reference(sph).tobytes()

    def test_ray_directions_tell_signed_zeros_apart(self):
        # equal specs, but the -0.0 elevation casts rays with z = -0.0
        plus, minus = BeamSpec(3, 0.0, -20.0, 4), BeamSpec(3, -0.0, -20.0, 4)
        assert plus == minus
        (a, el_a), (b, el_b) = _ray_directions(plus), _ray_directions(minus)
        assert np.array_equal(a, b)
        assert a.tobytes() != b.tobytes()
        assert np.signbit(b[:, 2]).all() and not np.signbit(a[-4:, 2]).any()
        assert np.signbit(el_b[-1]) and not np.signbit(el_a[-1])


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
        for b in scene.objects:
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
        assert all(math.hypot(b.vx, b.vy) > 0 for b in scene.objects)

    def test_infeasible_placement_raises(self):
        params = SceneParams(arena=(-4.0, 4.0, -4.0, 4.0), n_objects=60)
        with pytest.raises(ValueError, match="infeasible placement"):
            build_scene(params, seed=0)

    @pytest.mark.parametrize("arena", [(-1.4, 1.4, -5.0, 5.0),
                                       (-5.0, 5.0, -1.4, 1.4)])
    def test_arena_narrower_than_a_footprint_raises(self, arena):
        # a 2 x 2 m box has footprint radius sqrt(2) = 1.414 m
        params = SceneParams(arena=arena, n_objects=1, size_range_l=(2.0, 2.0),
                             size_range_w=(2.0, 2.0))
        with pytest.raises(FieldError, match="too small") as info:
            build_scene(params, seed=0)
        assert info.value.field == "arena"

    def test_arena_that_just_fits_a_footprint_places_it(self):
        params = SceneParams(arena=(-1.5, 1.5, -1.5, 1.5), n_objects=1,
                             size_range_l=(2.0, 2.0), size_range_w=(2.0, 2.0))
        (box,) = build_scene(params, seed=0).objects
        room = 1.5 - math.sqrt(2)
        assert abs(box.cx) <= room and abs(box.cy) <= room


class TestScan:
    def test_empty_scene_no_ground(self):
        scene = Scene(ground_z=None, objects=())
        cloud, labels = scan(scene, down_beams(), sensor(), 0.0)
        assert len(cloud) == 0 and labels.size == 0

    def test_ground_hit_analytic(self):
        # single ray at -45 deg from 2 m: range 2*sqrt(2), lands 2 m ahead
        scene = Scene(ground_z=0.0, objects=(), ground_class=15)
        beams = BeamSpec(1, -44.0, -46.0, azimuth_steps=1)
        cloud, labels = scan(scene, beams, sensor(2.0), 0.0)
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
        scene = Scene(ground_z=None, objects=(box,))
        beams = BeamSpec(1, 1.0, -1.0, azimuth_steps=4)  # elevation 0; az 0 is +y
        pose = Pose(np.eye(3), (0.0, 0.0, 1.0))
        cloud, labels = scan(scene, beams, pose, 0.0)
        assert len(cloud) == 1  # only the +y ray meets the box
        hits = cloud.xyz[np.abs(azimuth_elevation(cloud.xyz)[0]) < 1e-9]
        assert len(hits) == 1
        # face plane: y = 6 - w/2 = 5 in world, sensor at y=0
        assert hits[0][1] == pytest.approx(5.0, abs=1e-9)
        assert labels[0] == 3

    def test_points_on_surfaces_and_labels_match(self):
        scene = build_scene(SceneParams(n_objects=12), seed=11)
        pose = sensor(1.8)
        cloud, labels = scan(scene, down_beams(24, 120), pose, 0.0)
        assert len(cloud) > 0
        world = transform(cloud, pose)
        for p, lbl in zip(world.xyz, labels):
            assert scene_surface_distance(p, scene) <= 1e-6
            if lbl == scene.ground_class and abs(p[2] - scene.ground_z) <= 1e-6:
                continue
            owner = next(b for b in scene.objects
                         if point_in_box_brute(p, b, atol=1e-6))
            assert lbl == owner.class_id

    def test_point_count_bound(self):
        scene = build_scene(SceneParams(n_objects=5), seed=2)
        beams = down_beams(8, 64)
        cloud, _ = scan(scene, beams, sensor(), 0.0)
        assert len(cloud) <= beams.n_beams * beams.azimuth_steps

    def test_elevations_are_nominal(self):
        scene = build_scene(SceneParams(n_objects=6), seed=4)
        beams = down_beams(16, 90)
        cloud, _ = scan(scene, beams, sensor(), 0.0)
        _, got = azimuth_elevation(cloud.xyz)
        nominal = beams.elevations()
        dist = np.abs(got[:, None] - nominal[None, :]).min(axis=1)
        assert dist.max() <= 1e-9

    def test_nearest_surface_wins(self):
        near = BoxLabel(0.0, 3.0, 1.0, 1.0, 1.0, 2.0, 0.0, class_id=2)
        far = BoxLabel(0.0, 8.0, 1.0, 1.0, 1.0, 2.0, 0.0, class_id=4)
        scene = Scene(ground_z=None, objects=(near, far))
        beams = BeamSpec(1, 1.0, -1.0, azimuth_steps=4)
        cloud, labels = scan(scene, beams, Pose(np.eye(3), (0, 0, 1.0)), 0.0)
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
    for got, want in ((cloud.xyz, ref_cloud.xyz), (cloud.feat, ref_cloud.feat),
                      (labels, ref_labels)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
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
        assert np.isin(labels, [b.class_id for b in scene.objects]).any()

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
        around = BoxLabel(0.5, -0.3, 2.0, 4.0, 3.0, 5.0, 0.4, class_id=2)
        outside = BoxLabel(8.0, 0.0, 1.0, 2.0, 2.0, 2.0, 0.0, class_id=4)
        scene = Scene(ground_z=0.0, objects=(around, outside))
        labels = assert_matches_reference(scene, self.WIDE, sensor(2.0))
        assert len(labels) == self.WIDE.n_beams * self.WIDE.azimuth_steps
        assert (labels == 2).all()

    def test_ties_go_to_the_ground_then_the_earlier_box(self):
        # a box sunk so its top face is the ground plane, and two equal boxes
        sunk = BoxLabel(0.0, 6.0, -1.0, 4.0, 4.0, 2.0, 0.0, class_id=3)
        first = BoxLabel(0.0, -6.0, 1.0, 2.0, 2.0, 2.0, 0.3, class_id=1)
        second = BoxLabel(0.0, -6.0, 1.0, 2.0, 2.0, 2.0, 0.3, class_id=2)
        scene = Scene(ground_z=0.0, objects=(sunk, first, second))
        labels = assert_matches_reference(scene, down_beams(16, 90), sensor(2.0))
        assert 1 in labels and 2 not in labels and 3 not in labels

    def test_boxes_behind_sensor(self):
        # one vertical fan of rays; every box sits on the opposite side
        beams = BeamSpec(n_beams=8, alpha_up=20.0, alpha_low=-20.0,
                         azimuth_steps=1)
        ahead = _ray_directions(beams)[0].mean(axis=0)
        ahead /= np.linalg.norm(ahead)
        objects = tuple(
            BoxLabel(*(-d * ahead + [0.0, 0.0, 2.0] + off), 1.5, 1.0, 2.0,
                     0.3 * i, class_id=1 + i % 5)
            for i, (d, off) in enumerate([(3.0, (0, 0, 0)), (6.0, (2, 1, 0)),
                                          (10.0, (-1, 2, 1))]))
        scene = Scene(ground_z=None, objects=objects)
        labels = assert_matches_reference(scene, beams, sensor(2.0))
        assert labels.size == 0

    def test_rays_grazing_edges_and_corners(self):
        # boxes placed so one corner or edge point lies on a ray, up to
        # rounding: the hardest case for a conservative cull
        rng = np.random.default_rng(5)
        beams = BeamSpec(n_beams=32, alpha_up=10.0, alpha_low=-20.0,
                         azimuth_steps=90)
        pose = Pose(rotation(0.3, 0.05, -0.02), (1.0, -2.0, 1.7))
        dirs = _ray_directions(beams)[0] @ pose.rotation.T
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
            objects.append(BoxLabel(cx, cy, p[2] - off[2], l, w, h, yaw,
                                    class_id=1 + i % 5))
        # an axis-aligned top face exactly at sensor height: the horizontal
        # rays graze it
        objects.append(BoxLabel(0.0, 9.0, 1.2, 4.0, 2.0, 1.0, 0.0, class_id=3))
        scene = Scene(ground_z=0.0, objects=tuple(objects))
        assert_matches_reference(scene, beams, pose)
        flat = BeamSpec(n_beams=1, alpha_up=1.0, alpha_low=-1.0, azimuth_steps=720)
        assert_matches_reference(scene, flat, sensor(1.7))


def sphere_rays(boxes, dirs_world, origin):
    """Per box, the rays that pass `scan`'s bounding-sphere test when it
    runs on every ray."""
    for box in boxes:
        radius = 0.5 * math.hypot(box.l, box.w, box.h) * (1.0 + 1e-6) + 1e-6
        oc = box.center - origin
        oc2 = float(oc @ oc)
        proj = dirs_world @ oc
        yield np.flatnonzero((proj >= -radius)
                             & (oc2 - proj * proj <= radius * radius + 1e-8 * oc2))


def unit(v):
    return np.asarray(v, dtype=np.float64) / np.linalg.norm(v)


class TestScanStress:
    """Seeded adversarial scenes: every box's sector window holds every
    ray its sphere test keeps, and `scan` equals `scan_reference` bit for
    bit."""

    FAMILIES = ("random", "tilted", "seam", "poles", "near", "tangent",
                "one-beam-or-step", "no-ground", "signed-zero")
    SEEDS = 48

    def make_beams(self, rng, family):
        n_beams, steps = int(rng.integers(2, 24)), int(rng.integers(8, 180))
        low = float(rng.uniform(-60.0, 10.0))
        up = float(rng.uniform(low + 0.5, 30.0))
        if family == "poles":
            low, up = [(float(rng.uniform(60.0, 89.0)), 90.0),
                       (-90.0, float(rng.uniform(-89.0, -60.0))),
                       (-90.0, 90.0)][rng.integers(3)]
        elif family == "one-beam-or-step":
            n_beams, steps = [(1, steps), (n_beams, 1), (1, 1)][rng.integers(3)]
        elif family == "signed-zero":
            # the top beam casts rays with z = -0.0
            low, up = min(low, -1.0), -0.0
        return BeamSpec(n_beams, up, low, steps)

    def make_pose(self, rng, family):
        tilt = 1.5 if family == "tilted" else 0.1
        rot = rotation(rng.uniform(-math.pi, math.pi), rng.uniform(-tilt, tilt),
                       rng.uniform(-tilt, tilt))
        if family == "tilted":
            # orthonormal only to within what Pose accepts
            rot = rot + rng.uniform(-2e-10, 2e-10, size=(3, 3))
        return Pose(rot, rng.uniform(-5.0, 5.0, size=3) + [0.0, 0.0, 2.0])

    def box_direction(self, rng, family, dirs_sensor):
        """A sensor-frame unit vector towards a box centre."""
        if family == "seam":  # azimuth +-pi: straight along -y
            az = math.pi + rng.uniform(-0.05, 0.05)
            el = rng.uniform(-0.6, 0.6)
            return np.array([math.cos(el) * math.sin(az),
                             math.cos(el) * math.cos(az), math.sin(el)])
        if family == "poles":
            return unit([*rng.normal(0.0, 0.05, size=2), rng.choice([-1.0, 1.0])])
        ray = dirs_sensor[rng.integers(len(dirs_sensor))]
        return unit(ray + rng.normal(0.0, 0.02, size=3))

    def tangent_centre(self, rng, ray, radius):
        """A centre whose widened sphere the ray `ray` only just meets or
        only just misses, at sin^2 of the angle R^2/|oc|^2 or, far away,
        R^2/|oc|^2 + 1e-8 (the test's slack)."""
        sphere = radius * (1.0 + 1e-6) + 1e-6
        side = unit(np.cross(ray, rng.normal(size=3)))
        if rng.random() < 0.5:
            dist = rng.uniform(2.2, 40.0) * sphere
            sin2 = (sphere / dist) ** 2
        else:
            dist = rng.uniform(1e3, 1e4)
            sin2 = (sphere / dist) ** 2 + 1e-8
        sin2 *= 1.0 + rng.choice([-1e-9, 1e-9])
        phi = math.asin(math.sqrt(sin2))
        return dist * (math.cos(phi) * ray + math.sin(phi) * side)

    def make_case(self, family, seed):
        rng = np.random.default_rng([self.FAMILIES.index(family), seed])
        beams = self.make_beams(rng, family)
        pose = self.make_pose(rng, family)
        dirs_sensor, _ = _ray_directions(beams)
        boxes = []
        for i in range(int(rng.integers(1, 10))):
            l, w, h = rng.uniform(0.3, 4.0, size=3)
            radius = 0.5 * math.hypot(l, w, h)
            if family == "tangent":
                offset = self.tangent_centre(
                    rng, dirs_sensor[rng.integers(len(dirs_sensor))], radius)
            else:
                far = rng.uniform(0.0, 2.5) * radius if family == "near" \
                    else rng.uniform(1.0, 30.0)
                offset = far * self.box_direction(rng, family, dirs_sensor)
            centre = pose.translation + pose.rotation @ offset
            dynamic = bool(rng.random() < 0.3)
            vx, vy = rng.uniform(-2.0, 2.0, size=2) if dynamic else (0.0, 0.0)
            boxes.append(BoxLabel(*centre, l, w, h,
                                  float(rng.uniform(-math.pi, math.pi)),
                                  vx, vy, class_id=1 + i % 5, is_dynamic=dynamic))
        no_ground = family == "no-ground" or rng.random() < 0.2
        ground_z = None if no_ground else float(rng.uniform(-1.0, 1.0))
        scene = Scene(ground_z=ground_z, objects=tuple(boxes))
        return scene, beams, pose, 0.0 if rng.random() < 0.5 else 0.25

    def test_window_covers_a_rotation_orthonormal_only_to_tolerance(self):
        # a tiny box 5 km along +x, and one ray 1.03e-4 rad above it; the
        # rotation stretches x by 4.9e-10, which Pose accepts, so the ray
        # passes the sphere test although sin^2 of its angle is above
        # R^2/|oc|^2 + 1e-8
        rot = np.diag([1.0 + 4.9e-10, 1.0 - 2.45e-10, 1.0 - 2.45e-10])
        pose = Pose(rot, (0.0, 0.0, 2.0))
        mid = math.degrees(1.03e-4)
        beams = BeamSpec(1, mid + 1.0, mid - 1.0, azimuth_steps=4)  # col 3: +x
        box = BoxLabel(5000.0, 0.0, 2.0, 0.01, 0.01, 0.01, 0.0, class_id=1)
        dirs, el = _ray_directions(beams)
        [kept] = sphere_rays([box], dirs @ rot.T, pose.translation)
        assert kept.tolist() == [3]
        oc = (box.center - pose.translation)[None, :]
        radius = 0.5 * math.hypot(0.01, 0.01, 0.01) * (1.0 + 1e-6) + 1e-6
        [(r0, r1, c0, nc)] = _sector_windows(beams, el, oc @ rot,
                                             np.einsum("ij,ij->i", oc, oc),
                                             np.array([radius]))
        assert (r0, r1) == (0, 1) and 3 in (c0 + np.arange(nc)) % 4

    @pytest.mark.parametrize("family", FAMILIES)
    def test_windows_hold_the_sphere_test_and_scan_matches_reference(self, family):
        seen = {"box hits": 0, "seam": 0, "every column": 0, "every ray": 0}
        for seed in range(self.SEEDS):
            scene, beams, pose, time_s = self.make_case(family, seed)
            dirs_sensor, el = _ray_directions(beams)
            dirs_world = dirs_sensor @ pose.rotation.T
            boxes = scene.boxes_at(time_s)
            radius = np.array([0.5 * math.hypot(b.l, b.w, b.h) * (1.0 + 1e-6)
                               + 1e-6 for b in boxes])
            oc = np.array([b.center for b in boxes]) - pose.translation
            windows = _sector_windows(beams, el, oc @ pose.rotation,
                                      np.einsum("ij,ij->i", oc, oc), radius)
            n_az = beams.azimuth_steps
            for kept, (r0, r1, c0, nc) in zip(
                    sphere_rays(boxes, dirs_world, pose.translation), windows):
                window = (np.arange(r0, r1)[:, None] * n_az
                          + (c0 + np.arange(nc)) % n_az).ravel()
                assert np.isin(kept, window).all(), (family, seed)
                seen["seam"] += c0 + nc > n_az
                seen["every column"] += nc == n_az and n_az > 1
                seen["every ray"] += (r1 - r0) * nc == len(dirs_sensor)
            labels = assert_matches_reference(scene, beams, pose, time_s)
            seen["box hits"] += int((labels != scene.ground_class).sum())
        assert seen["box hits"] > 0, seen
        if family == "seam":
            assert seen["seam"] > 0, seen
        if family == "poles":
            assert seen["every column"] > 0, seen
        if family == "near":
            assert seen["every ray"] > 0, seen


class TestSequence:
    def make_poses(self, n, hz=10.0, speed=0.0):
        return [Pose(np.eye(3), (speed * i / hz, 0.0, 2.0)) for i in range(n)]

    def test_single_frame_matches_scan(self):
        scene = build_scene(SceneParams(n_objects=6), seed=5)
        poses = self.make_poses(1)
        seq = generate_sequence(scene, down_beams(), poses, 10.0)
        cloud, labels = scan(scene, down_beams(), poses[0], time_s=0.0)
        assert len(seq.frames) == 1
        np.testing.assert_array_equal(seq.frames[0].xyz, cloud.xyz)
        np.testing.assert_array_equal(seq.labels[0], labels)

    def test_each_frame_goes_through_the_module_scan(self, monkeypatch):
        # perfbench wraps synth.scan to time and count every frame
        scene = build_scene(SceneParams(n_objects=3), seed=5)
        real, seen = synth.scan, []

        def counting(scene, beams, pose, time_s):
            seen.append((pose, time_s))
            return real(scene, beams, pose, time_s)

        monkeypatch.setattr(synth, "scan", counting)
        poses = self.make_poses(3)
        generate_sequence(scene, down_beams(), poses, 10.0)
        assert seen == list(zip(poses, [0.0, 0.1, 0.2]))

    def test_static_scene_fused_points_on_surfaces(self):
        params = SceneParams(n_objects=8, dynamic_fraction=0.0)
        scene = build_scene(params, seed=6)
        seq = generate_sequence(scene, down_beams(12, 60),
                                self.make_poses(2, speed=3.0), 10.0)
        for cloud, pose in zip(seq.frames, seq.poses):
            world = transform(cloud, pose)
            for p in world.xyz:
                assert scene_surface_distance(p, scene) <= 1e-6

    def test_dynamic_box_linear_motion(self):
        box = BoxLabel(0.0, 5.0, 1.0, 2.0, 1.0, 2.0, 0.0, vx=1.0, vy=0.0,
                       class_id=1, is_dynamic=True)
        scene = Scene(ground_z=0.0, objects=(box,))
        seq = generate_sequence(scene, down_beams(), self.make_poses(11), 10.0)
        assert seq.boxes[10][0].cx == pytest.approx(1.0)
        assert seq.boxes[0][0].cx == pytest.approx(0.0)

    def test_no_poses_is_rejected(self):
        scene = build_scene(SceneParams(n_objects=2), seed=1)
        with pytest.raises(ValueError, match="at least one frame"):
            generate_sequence(scene, down_beams(), [], 10.0)
