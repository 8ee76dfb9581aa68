"""Point-cloud data model: clouds, rigid poses, boxes, sequences, spherical transforms.

Coordinate conventions used throughout the package:

* Cartesian frames are right-handed, z up, units in meters.
* ``azimuth`` is the two-argument arctangent of ``(x, y)`` — zero along +y,
  increasing toward +x — matching ``arctan(x/y)`` on its principal branch.
* ``elevation`` is the angle above the xy-plane, ``atan2(z, hypot(x, y))``,
  in ``[-pi/2, pi/2]``.
* Box ``yaw`` is the usual counter-clockwise angle of the box length axis
  from +x; "flip along x" mirrors across the x-axis (negates y).

Angles are radians everywhere inside the library; degrees appear only at the
config/CLI boundary.  Points travel as (N, 3) arrays, one row per point,
even when N is 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FieldError",
    "PointCloud",
    "Pose",
    "BoxLabel",
    "LidarSequence",
    "to_spherical",
    "from_spherical",
    "transform",
    "validate_labels",
    "wrap_angle",
]


class FieldError(ValueError):
    """A dataclass field holds a value out of range; `field` names it.

    The message reads ``"<field> <why>"``; a config layer that knows where
    the dataclass sits in its document prefixes the path to `field`.
    """

    def __init__(self, field: str, why: str):
        super().__init__(f"{field} {why}")
        self.field, self.why = field, why


def _as_points(xyz) -> np.ndarray:
    arr = np.asarray(xyz, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected (N, 3) coordinates, got shape {arr.shape}")
    return arr


def wrap_angle(a: np.ndarray) -> np.ndarray:
    """Wrap an array of angles to the interval (-pi, pi]."""
    wrapped = np.remainder(a + np.pi, 2.0 * np.pi) - np.pi
    return np.where(wrapped == -np.pi, np.pi, wrapped)


@dataclass(frozen=True)
class PointCloud:
    """An ordered set of N points with d extra feature channels each.

    ``xyz`` is (N, 3) float64, ``feat`` is (N, d) float64 (d >= 0; the
    synthetic scans carry d=1, the normalized range).  Arrays are copied and
    frozen at construction; instances are immutable values.
    """

    xyz: np.ndarray
    feat: np.ndarray

    def __post_init__(self):
        xyz = np.array(self.xyz, dtype=np.float64, copy=True)
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise ValueError(f"xyz must be (N, 3), got {xyz.shape}")
        if not np.isfinite(xyz).all():
            raise ValueError("point coordinates must be finite")
        feat = np.array(self.feat, dtype=np.float64, copy=True)
        if feat.ndim != 2 or feat.shape[0] != xyz.shape[0]:
            raise ValueError(
                f"feat must be (N, d) with N = {xyz.shape[0]} points, "
                f"got {feat.shape}")
        xyz.setflags(write=False)
        feat.setflags(write=False)
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "feat", feat)

    @property
    def n(self) -> int:
        return self.xyz.shape[0]

    @property
    def d(self) -> int:
        return self.feat.shape[1]

    def __len__(self) -> int:
        return self.n

    def select(self, index) -> "PointCloud":
        """New cloud with the rows picked by `index` (order preserved)."""
        return PointCloud(self.xyz[index], self.feat[index])


@dataclass(frozen=True)
class Pose:
    """Rigid transform: ``p_world = rotation @ p_local + translation``."""

    rotation: np.ndarray
    translation: np.ndarray

    _ORTHO_TOL = 1e-9

    def __post_init__(self):
        r = np.array(self.rotation, dtype=np.float64, copy=True)
        t = np.array(self.translation, dtype=np.float64, copy=True).reshape(3)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {r.shape}")
        if not np.isfinite(r).all() or not np.isfinite(t).all():
            raise ValueError("pose entries must be finite")
        if np.abs(r.T @ r - np.eye(3)).max() > self._ORTHO_TOL:
            raise ValueError("rotation is not orthonormal (R^T R != I within 1e-9)")
        if abs(np.linalg.det(r) - 1.0) > self._ORTHO_TOL:
            raise ValueError("rotation must be proper (det R = 1 within 1e-9)")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def apply(self, xyz: np.ndarray) -> np.ndarray:
        """World coordinates of the (N, 3) local points `xyz`."""
        return _as_points(xyz) @ self.rotation.T + self.translation


@dataclass(frozen=True)
class BoxLabel:
    """Oriented 3D box with motion state and semantic class.

    Sizes ``(l, w, h)`` are full extents along the yaw-rotated x/y axes and
    z; ``class_id`` is 1-based (0 is reserved for "empty");
    ``velocity = (vx, vy)`` in m/s in the box's world frame.
    """

    cx: float
    cy: float
    cz: float
    l: float
    w: float
    h: float
    yaw: float
    vx: float = 0.0
    vy: float = 0.0
    class_id: int = 1
    is_dynamic: bool = False

    def __post_init__(self):
        for name in ("cx", "cy", "cz", "l", "w", "h", "yaw", "vx", "vy"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"box field {name} must be finite, "
                                 f"got {getattr(self, name)}")
        if not (self.l > 0 and self.w > 0 and self.h > 0):
            raise ValueError("box sizes must be strictly positive")
        if self.class_id < 1:
            raise ValueError("class_id must be >= 1 (0 is the empty label)")

    @property
    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.cz])

    def at_time(self, dt: float) -> "BoxLabel":
        """Box displaced by its constant velocity over `dt` seconds."""
        if not self.is_dynamic or dt == 0.0:
            return self
        return BoxLabel(self.cx + self.vx * dt, self.cy + self.vy * dt, self.cz,
                        self.l, self.w, self.h, self.yaw,
                        self.vx, self.vy, self.class_id, self.is_dynamic)

    def contains(self, xyz: np.ndarray, atol: float) -> np.ndarray:
        """Inclusive point-in-box test of (N, 3) points, with each half
        extent widened by `atol`; returns an (N,) boolean mask."""
        pts = _as_points(xyz)
        local = pts - self.center
        c, s = math.cos(-self.yaw), math.sin(-self.yaw)
        lx = c * local[:, 0] - s * local[:, 1]
        ly = s * local[:, 0] + c * local[:, 1]
        inside = (
            (np.abs(lx) <= self.l / 2.0 + atol)
            & (np.abs(ly) <= self.w / 2.0 + atol)
            & (np.abs(local[:, 2]) <= self.h / 2.0 + atol)
        )
        return inside


@dataclass(frozen=True)
class LidarSequence:
    """One recorded sequence: per frame, a sensor-frame cloud, its per-point
    labels, the sensor pose and the world-frame boxes.

    Boxes correspond across frames by position, so every frame lists the
    same number.  Each field is stored as a tuple with one entry per frame.
    """

    frames: tuple[PointCloud, ...]
    labels: tuple[np.ndarray, ...]
    poses: tuple[Pose, ...]
    boxes: tuple[list[BoxLabel], ...]

    def __post_init__(self):
        for name in ("frames", "labels", "poses", "boxes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.frames:
            raise ValueError("a sequence needs at least one frame")
        if not (len(self.frames) == len(self.labels) == len(self.poses)
                == len(self.boxes)):
            raise ValueError("frames, labels, poses and boxes must have equal length")
        for f, frame_boxes in enumerate(self.boxes):
            if len(frame_boxes) != len(self.boxes[0]):
                raise ValueError(
                    f"frame {f} has {len(frame_boxes)} boxes, frame 0 has "
                    f"{len(self.boxes[0])}; box lists must correspond by index")


def to_spherical(xyz) -> np.ndarray:
    """(N, 3) Cartesian -> (N, 3) spherical, columns ``(r, azimuth, elevation)``.

    ``r = sqrt(x^2+y^2+z^2)``, ``azimuth = atan2(x, y)`` in (-pi, pi],
    ``elevation = atan2(z, hypot(x, y))`` in [-pi/2, pi/2].  The origin maps
    to ``(0, 0, 0)`` by convention; a warning flags that case.
    """
    pts = _as_points(xyz)
    if not np.isfinite(pts).all():
        raise ValueError("coordinates must be finite")
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    rho = np.hypot(x, y)
    r = np.hypot(rho, z)
    az = wrap_angle(np.arctan2(x, y))
    el = np.arctan2(z, rho)
    at_origin = r == 0.0
    if at_origin.any():
        warnings.warn("origin point: azimuth/elevation set to 0 by convention",
                      stacklevel=2)
        az = np.where(at_origin, 0.0, az)
        el = np.where(at_origin, 0.0, el)
    return np.stack([r, az, el], axis=-1)


def from_spherical(sph) -> np.ndarray:
    """Inverse of :func:`to_spherical`: (N, 3) rows ``(r, azimuth,
    elevation)`` -> (N, 3) Cartesian.

    ``x = r cos(el) sin(az)``, ``y = r cos(el) cos(az)``, ``z = r sin(el)``.
    """
    r, az, el = _as_points(sph).T
    if (r < 0).any():
        raise ValueError("range r must be >= 0")
    ce = np.cos(el)
    return np.stack([r * ce * np.sin(az), r * ce * np.cos(az), r * np.sin(el)], axis=-1)


def transform(cloud: PointCloud, pose: Pose) -> PointCloud:
    """Apply a rigid pose to every point; features and order are untouched."""
    return PointCloud(pose.apply(cloud.xyz), cloud.feat)


def validate_labels(labels, n_points: int, n_cls: int) -> np.ndarray:
    """Check a per-point label vector against its paired cloud.

    Returns an integer array of the labels: `labels` itself when it already
    is one, in its own dtype (the u8 labels of an SPTL file stay one byte
    each), and any other input as int64.  Callers only read the result.
    Raises ValueError on length or range violations.  Valid values are
    0 (empty) .. n_cls.
    """
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.shape[0] != n_points:
        raise ValueError(f"labels must be length {n_points}, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        arr = arr.astype(np.int64)
    if arr.size and (arr.min() < 0 or arr.max() > n_cls):
        raise ValueError(f"labels must lie in [0, {n_cls}]")
    return arr
