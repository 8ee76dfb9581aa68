import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import azimuth_elevation, beam_resample_reference

from occspot.augment import (DEFAULT_MERGE_THRESHOLD_DEG, ResampleFactor,
                             beam_density, beam_resample, estimate_beams,
                             random_flip, resample_factor)
from occspot.cloud import PointCloud, Pose
from occspot.synth import BeamSpec, SceneParams, build_scene, scan


def synth_scan(n_beams=64, steps=180, seed=11):
    scene = build_scene(SceneParams(n_objects=10), seed=seed)
    beams = BeamSpec(n_beams=n_beams, alpha_up=-2.0, alpha_low=-28.0,
                     azimuth_steps=steps)
    return scan(scene, beams, Pose(np.eye(3), (0.0, 0.0, 2.0)), 0.0)


def rand_cloud_labels(n=200, seed=0, n_cls=15):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.normal(0, 8, (n, 3)), rng.random((n, 1)))
    return cloud, rng.integers(0, n_cls + 1, n)


class TestBeamDensity:
    def test_forty_over_twenty(self):
        assert beam_density(BeamSpec(40, 20.0, 0.0)) == pytest.approx(2.0)

    def test_sixtyfour_over_forty(self):
        assert beam_density(BeamSpec(64, 10.0, -30.0)) == pytest.approx(1.6)

    def test_rational_oracle(self):
        # the division must be exact to float limits against Fraction math
        cases = [(40, 20, 0), (64, 10, -30), (32, -3, -27), (128, 15, -25)]
        for n, up, low in cases:
            expected = Fraction(n, up - low)
            got = beam_density(BeamSpec(n, float(up), float(low)))
            assert abs(got - float(expected)) <= 1e-12


class TestResampleFactor:
    def test_identity(self):
        b = BeamSpec(64, 10.0, -30.0)
        assert resample_factor(b, b).value == 1.0

    def test_halving(self):
        src = BeamSpec(40, 20.0, 0.0)          # density 2.0
        tgt = BeamSpec(20, 20.0, 0.0)          # density 1.0
        f = resample_factor(src, tgt)
        assert f.value == pytest.approx(0.5)

    def test_upsampling_clamped_with_warning(self):
        src = BeamSpec(20, 20.0, 0.0)
        tgt = BeamSpec(40, 20.0, 0.0)
        with pytest.warns(UserWarning, match="upsampling"):
            assert resample_factor(src, tgt).value == 1.0

    def test_unit_invariance(self):
        # expressing both VFOVs in radians leaves the ratio unchanged
        src = BeamSpec(64, 10.0, -30.0)
        tgt = BeamSpec(32, 15.0, -25.0)
        ratio_deg = resample_factor(src, tgt).value
        ratio_alt = ((32 / math.radians(40.0)) / (64 / math.radians(40.0)))
        assert ratio_deg == pytest.approx(ratio_alt, abs=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ResampleFactor(0.0)
        with pytest.raises(ValueError):
            ResampleFactor(1.2)


class TestEstimateBeams:
    def test_synthetic_64_beams(self):
        cloud, _ = synth_scan(64)
        ids = estimate_beams(cloud)
        assert ids.shape == (len(cloud),) and ids.dtype == np.int64
        assert ids.max() + 1 == 64

    def test_single_elevation_one_cluster(self):
        cloud = PointCloud([[1.0, 1.0, 0.0], [0.0, 2.0, 0.0], [-3.0, 1.0, 0.0]],
                           np.zeros((3, 1)))
        assert estimate_beams(cloud).tolist() == [0, 0, 0]

    def test_merge_threshold(self):
        # gaps of 0.04 and 0.06 degrees: the first merges, the second splits
        el = np.radians([0.0, 0.04, 0.10])
        cloud = PointCloud(np.stack([np.zeros(3), 10 * np.cos(el),
                                     10 * np.sin(el)], axis=-1),
                           np.zeros((3, 1)))
        assert DEFAULT_MERGE_THRESHOLD_DEG == 0.05
        assert estimate_beams(cloud).tolist() == [0, 0, 1]

    def test_partition(self):
        # ids ascend with elevation, one step per gap, and every id is used
        cloud, _ = synth_scan(32, steps=90, seed=5)
        ids = estimate_beams(cloud)
        _, el = azimuth_elevation(cloud.xyz)
        order = np.argsort(el, kind="stable")
        steps = np.diff(ids[order])
        assert ids[order][0] == 0 and set(steps.tolist()) <= {0, 1}
        gaps = np.diff(el[order])
        threshold = math.radians(DEFAULT_MERGE_THRESHOLD_DEG)
        np.testing.assert_array_equal(steps == 1, gaps > threshold)
        assert ids.max() + 1 == 32

    def test_empty_cloud(self):
        ids = estimate_beams(PointCloud(np.zeros((0, 3)), np.zeros((0, 1))))
        assert ids.shape == (0,) and ids.dtype == np.int64


#: the source and target beam patterns of the benchmark's three workloads
WORKLOAD_BEAMS = [
    (BeamSpec(128, -2.0, -26.0, 720),
     [BeamSpec(64, -2.0, -26.0, 720), BeamSpec(32, -2.0, -26.0, 720)]),
    (BeamSpec(32, -2.0, -26.0, 720), [BeamSpec(16, -2.0, -26.0, 720)]),
    (BeamSpec(32, -2.0, -26.0, 360), [BeamSpec(16, -2.0, -26.0, 360)]),
]


class TestBeamResample:
    @pytest.mark.parametrize("source, targets", WORKLOAD_BEAMS,
                             ids=["scan_heavy", "occupancy_heavy", "train_heavy"])
    def test_equals_the_per_beam_mask_reference(self, source, targets):
        scene = build_scene(SceneParams(n_objects=12), seed=7)
        cloud, labels = scan(scene, source, Pose(np.eye(3), (0.0, 0.0, 1.8)),
                             0.0)
        factors = [resample_factor(source, t) for t in targets]
        factors += [ResampleFactor(v) for v in (0.01, 0.3, 0.75)]
        for r in factors:
            for seed in (0, 1, 2**40 + 3):
                out, olab = beam_resample(cloud, labels, r, seed)
                ref, rlab = beam_resample_reference(cloud, labels, r, seed)
                assert out.xyz.tobytes() == ref.xyz.tobytes()
                assert out.feat.tobytes() == ref.feat.tobytes()
                assert olab.tobytes() == rlab.tobytes()

    def test_identity_factor(self):
        cloud, labels = synth_scan(32, steps=90)
        out, olab = beam_resample(cloud, labels, ResampleFactor(1.0), seed=1)
        np.testing.assert_array_equal(out.xyz, cloud.xyz)
        np.testing.assert_array_equal(olab, labels)

    def test_half_factor_counts_and_subset(self):
        cloud, labels = synth_scan(64)
        out, olab = beam_resample(cloud, labels, ResampleFactor(0.5), seed=3)
        assert estimate_beams(out).max() + 1 == 32
        # exact record subset
        rows_in = {tuple(r) for r in np.hstack([cloud.xyz, cloud.feat])}
        rows_out = [tuple(r) for r in np.hstack([out.xyz, out.feat])]
        assert all(r in rows_in for r in rows_out)
        assert len(olab) == len(out)

    def test_retained_beam_count_rule(self):
        cloud, labels = synth_scan(64)
        for r in (0.25, 0.4, 0.75, 1.0):
            out, _ = beam_resample(cloud, labels, ResampleFactor(r), seed=0)
            expected = max(1, int(math.floor(r * 64 + 0.5)))
            assert estimate_beams(out).max() + 1 == expected

    def test_order_preserved(self):
        cloud, labels = synth_scan(16, steps=45)
        out, _ = beam_resample(cloud, labels, ResampleFactor(0.5), seed=2)
        # kept records appear in their original relative order
        key_in = [tuple(r) for r in cloud.xyz]
        key_out = [tuple(r) for r in out.xyz]
        positions = [key_in.index(k) for k in key_out]
        assert positions == sorted(positions)

    def test_deterministic(self):
        cloud, labels = synth_scan(64)
        a = beam_resample(cloud, labels, ResampleFactor(0.3), seed=9)
        b = beam_resample(cloud, labels, ResampleFactor(0.3), seed=9)
        np.testing.assert_array_equal(a[0].xyz, b[0].xyz)
        np.testing.assert_array_equal(a[1], b[1])

    def test_empty_cloud(self):
        empty = PointCloud(np.zeros((0, 3)), np.zeros((0, 1)))
        out, olab = beam_resample(empty, np.zeros(0), ResampleFactor(0.5),
                                  seed=0)
        assert len(out) == 0 and olab.size == 0


class TestFlip:
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_involution(self, axis):
        cloud, _ = rand_cloud_labels(seed=1)
        twice = random_flip(random_flip(cloud, axis), axis)
        np.testing.assert_array_equal(twice.xyz, cloud.xyz)
        np.testing.assert_array_equal(twice.feat, cloud.feat)

    def test_counts_distances_labels_preserved(self):
        # labels are per point, so keeping the point order keeps them aligned
        cloud, _ = rand_cloud_labels(seed=2)
        fc = random_flip(cloud, "y")
        assert len(fc) == len(cloud)
        np.testing.assert_array_equal(fc.xyz[:, 0], -cloud.xyz[:, 0])
        np.testing.assert_array_equal(fc.xyz[:, 1:], cloud.xyz[:, 1:])
        np.testing.assert_array_equal(fc.feat, cloud.feat)
        d_in = np.linalg.norm(cloud.xyz[:50, None] - cloud.xyz[None, :50], axis=-1)
        d_out = np.linalg.norm(fc.xyz[:50, None] - fc.xyz[None, :50], axis=-1)
        assert np.abs(d_in - d_out).max() <= 1e-9 * max(1.0, d_in.max())

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            random_flip(PointCloud(np.zeros((0, 3)), np.zeros((0, 1))), "z")
