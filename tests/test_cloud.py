import math

import numpy as np
import pytest

from occspot.cloud import (BoxLabel, LidarSequence, PointCloud, Pose,
                           transform, validate_labels)


def yaw_pose(yaw: float, translation=(0.0, 0.0, 0.0)) -> Pose:
    """Pose rotating by `yaw` about z, then translating."""
    c, s = math.cos(yaw), math.sin(yaw)
    return Pose([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], translation)


class TestPose:
    def test_identity_transform_unchanged(self):
        cloud = PointCloud([[1.0, 2.0, 3.0]], [[0.5]])
        out = transform(cloud, Pose(np.eye(3), np.zeros(3)))
        np.testing.assert_array_equal(out.xyz, cloud.xyz)
        np.testing.assert_array_equal(out.feat, cloud.feat)

    def test_quarter_turn(self):
        pose = yaw_pose(math.pi / 2)
        out = pose.apply(np.array([[1.0, 0.0, 0.0]]))
        assert np.abs(out - [[0.0, 1.0, 0.0]]).max() < 1e-12

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Pose(np.eye(3) * 1.001, np.zeros(3))

    def test_reflection_rejected(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="proper"):
            Pose(r, np.zeros(3))

    def test_rigidity_preserves_pairwise_distances(self):
        rng = np.random.default_rng(5)
        cloud = PointCloud(rng.normal(0, 10, (60, 3)), np.zeros((60, 1)))
        pose = yaw_pose(1.1, (4.0, -1.0, 2.0))
        out = transform(cloud, pose)
        d_in = np.linalg.norm(cloud.xyz[:, None] - cloud.xyz[None], axis=-1)
        d_out = np.linalg.norm(out.xyz[:, None] - out.xyz[None], axis=-1)
        scale = max(1.0, d_in.max())
        assert np.abs(d_in - d_out).max() <= 1e-9 * scale


class TestPointCloud:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            PointCloud([[0.0, 0.0, float("nan")]], [[0.0]])

    def test_feature_length_mismatch(self):
        with pytest.raises(ValueError):
            PointCloud([[0, 0, 0], [1, 1, 1]], [[0.5]])
        with pytest.raises(ValueError, match=r"feat must be \(N, d\)"):
            PointCloud([[0, 0, 0], [1, 1, 1]], [0.5, 0.5])

    def test_immutable_arrays(self):
        cloud = PointCloud([[1.0, 2.0, 3.0]], [[0.0]])
        with pytest.raises(ValueError):
            cloud.xyz[0, 0] = 9.0

    def test_empty_cloud(self):
        cloud = PointCloud(np.zeros((0, 3)), np.zeros((0, 0)))
        assert len(cloud) == 0 and cloud.d == 0


class TestLabels:
    def test_length_enforced(self):
        with pytest.raises(ValueError):
            validate_labels([1, 2], 3, 15)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            validate_labels([16], 1, 15)
        with pytest.raises(ValueError):
            validate_labels([-1], 1, 15)

    def test_valid_passes(self):
        out = validate_labels([0, 15, 3], 3, 15)
        assert out.dtype == np.int64

    def test_int64_labels_are_not_copied(self):
        labels = np.array([0, 15, 3], dtype=np.int64)
        assert validate_labels(labels, 3, 15) is labels
        narrow = labels.astype(np.uint8)
        out = validate_labels(narrow, 3, 15)
        assert out is narrow and out.dtype == np.uint8


class TestBoxLabel:
    def test_positive_sizes(self):
        with pytest.raises(ValueError):
            BoxLabel(0, 0, 0, 0.0, 1, 1, 0.0)

    @pytest.mark.parametrize("name", ["cx", "cy", "cz", "l", "w", "h",
                                      "yaw", "vx", "vy"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, name, value):
        fields = dict(cx=0.0, cy=0.0, cz=0.0, l=1.0, w=1.0, h=1.0, yaw=0.0)
        with pytest.raises(ValueError, match=f"box field {name} must be finite"):
            BoxLabel(**{**fields, name: value})

    def test_contains_inclusive_boundary(self):
        box = BoxLabel(0, 0, 0, 2, 2, 2, 0.0)
        inside = box.contains(np.array([[1.0, 0.0, 0.0],
                                        [1.0 + 1e-9, 0.0, 0.0]]), atol=0.0)
        assert inside.tolist() == [True, False]

    def test_at_time_static_noop(self):
        box = BoxLabel(0, 0, 0, 1, 1, 1, 0.0, vx=3.0, is_dynamic=False)
        assert box.at_time(2.0) is box


class TestLidarSequence:
    """A sequence is checked once, when it is built."""

    def frames(self, n, boxes_per_frame=1):
        box = BoxLabel(0, 0, 0, 1, 1, 1, 0.0)
        return ([PointCloud([[float(i), 0.0, 0.0]], [[0.0]]) for i in range(n)],
                [np.array([1]) for _ in range(n)],
                [Pose(np.eye(3), (float(i), 0.0, 0.0)) for i in range(n)],
                [[box] * boxes_per_frame for _ in range(n)])

    def test_fields_are_tuples_one_entry_per_frame(self):
        seq = LidarSequence(*self.frames(3))
        for field in (seq.frames, seq.labels, seq.poses, seq.boxes):
            assert isinstance(field, tuple) and len(field) == 3

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="at least one frame"):
            LidarSequence([], [], [], [])

    def test_length_mismatch_rejected(self):
        for short in range(4):  # frames, labels, poses, boxes
            fields = list(self.frames(2))
            fields[short] = fields[short][:1]
            with pytest.raises(ValueError, match="equal length"):
                LidarSequence(*fields)

    def test_box_count_mismatch_rejected(self):
        frames, labels, poses, boxes = self.frames(3, boxes_per_frame=2)
        boxes[2] = boxes[2][:1]
        with pytest.raises(ValueError,
                           match="frame 2 has 1 boxes, frame 0 has 2"):
            LidarSequence(frames, labels, poses, boxes)

