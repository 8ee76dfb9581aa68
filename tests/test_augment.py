import math
from fractions import Fraction

import numpy as np
import pytest

from occspot.augment import (ResampleFactor, beam_density, beam_resample,
                             estimate_beams, random_flip, resample_factor)
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
        clusters = estimate_beams(cloud)
        assert len(clusters) == 64

    def test_single_elevation_one_cluster(self):
        cloud = PointCloud([[1.0, 1.0, 0.0], [0.0, 2.0, 0.0], [-3.0, 1.0, 0.0]],
                           np.zeros((3, 1)))
        assert len(estimate_beams(cloud)) == 1

    def test_partition(self):
        cloud, _ = synth_scan(32, steps=90, seed=5)
        clusters = estimate_beams(cloud)
        seen = np.concatenate(clusters)
        assert len(seen) == len(cloud)
        assert len(np.unique(seen)) == len(cloud)

    def test_empty_cloud(self):
        assert estimate_beams(PointCloud(np.zeros((0, 3)), np.zeros((0, 1)))) == []


class TestBeamResample:
    def test_identity_factor(self):
        cloud, labels = synth_scan(32, steps=90)
        out, olab = beam_resample(cloud, labels, ResampleFactor(1.0), seed=1)
        np.testing.assert_array_equal(out.xyz, cloud.xyz)
        np.testing.assert_array_equal(olab, labels)

    def test_half_factor_counts_and_subset(self):
        cloud, labels = synth_scan(64)
        out, olab = beam_resample(cloud, labels, ResampleFactor(0.5), seed=3)
        assert len(estimate_beams(out)) == 32
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
            assert len(estimate_beams(out)) == expected

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
