"""Synthetic labeled LiDAR scenes: ground plane + yaw-rotated boxes.

The generator stands in for real pre-training sequences at desk scale.
Geometry is deliberately restricted to a ground plane and oriented boxes so
every returned point admits an analytic oracle (exact ray-plane and ray-box
intersections), which downstream tests lean on.

A scene is a ground plane plus a tuple of ``BoxLabel``; each box's class
labels the points on its surface.  :func:`generate_sequence` scans the scene
from a list of ego poses and returns a :class:`~occspot.cloud.LidarSequence`:
clouds in the sensor frame, boxes in the world frame.  Feature dimension is
d=1, filled with range normalized by ``RANGE_NORM`` (the pipeline treats
features opaquely).

Casting.  Ray ``i * azimuth_steps + k`` has the i-th elevation and the k-th
azimuth of its :class:`BeamSpec`, so a frame's rays form a grid.  A ray
hits a box only if it passes the box's widened bounding-sphere test, and
:func:`scan` runs that test only on a window of the grid, worked out per
box in the sensor frame from the centre offset ``u = R^T oc``:

- With ``|oc| > 2R``, a ray that passes the test points into the cap of
  half-angle ``theta = asin(sqrt(R^2 / |oc|^2 + 2e-8)) + 1e-6`` around
  ``u``: the 2e-8 covers the test's ``1e-8 |oc|^2`` slack and a rotation
  that is orthonormal only to 1e-9, and ``proj >= -R`` rules out the
  opposite cap.
- The cap holds elevations within ``theta`` of ``u``'s elevation ``e_c``,
  and at each of them azimuths within ``asin(sin theta / cos(|e_c| +
  theta))`` of ``u``'s.  The window takes those rows, and those columns
  widened by 1e-6 and one column each side, wrapped at the seam.
- It takes every column once the cap comes within 1e-3 of a pole, and
  every ray when ``|oc| <= 2R``.

Beam elevations lie in [-90, 90] degrees, so a ray's azimuth is that of its
column.  Every ray the test keeps is therefore in the window, and a ray
outside it misses the box.  The slab test works on one ray and one box at
a time, so the output is identical, bit for bit, to the slab test of every
box on every ray.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cloud import BoxLabel, FieldError, LidarSequence, PointCloud, Pose

__all__ = [
    "BeamSpec", "Scene", "SceneParams", "build_scene", "scan",
    "generate_sequence", "DEFAULT_GROUND_CLASS",
]

#: Range divisor for the single synthetic feature channel.
RANGE_NORM = 100.0

#: Default semantic class painted on ground-plane hits (a background class).
DEFAULT_GROUND_CLASS = 15

#: Gap (m) that build_scene keeps between the footprint circles of boxes.
CLEARANCE = 0.5

#: Position draws per box before build_scene gives up on a placement.
MAX_TRIES_PER_OBJECT = 200

_RAY_EPS = 1e-9

#: Slack in sin^2 of a sector window's half-angle: the sphere test's 1e-8,
#: plus up to 3e-9 from a rotation that Pose accepts as orthonormal.
_CONE_SLACK = 2e-8


@dataclass(frozen=True)
class BeamSpec:
    """Spinning-LiDAR beam pattern.

    ``n_beams`` emitters with elevations uniformly spaced over the vertical
    field of view ``[alpha_low, alpha_up]`` (degrees, within [-90, 90]),
    sampled at ``azimuth_steps`` horizontal positions per revolution.
    """

    n_beams: int
    alpha_up: float
    alpha_low: float
    azimuth_steps: int = 720

    def __post_init__(self):
        if self.n_beams < 1:
            raise FieldError("n_beams", "must be >= 1")
        if self.azimuth_steps < 1:
            raise FieldError("azimuth_steps", "must be >= 1")
        for name in ("alpha_up", "alpha_low"):
            # past a pole a ray's azimuth flips by pi
            if not -90.0 <= getattr(self, name) <= 90.0:
                raise FieldError(name, "must lie in [-90, 90] degrees, got "
                                 f"{getattr(self, name)}")
        if not self.alpha_up > self.alpha_low:
            raise ValueError(
                f"degenerate VFOV: alpha_up ({self.alpha_up}) must exceed "
                f"alpha_low ({self.alpha_low})")

    @property
    def vfov_deg(self) -> float:
        return self.alpha_up - self.alpha_low

    def elevations(self) -> np.ndarray:
        """Beam elevations in radians, ascending; midpoint for a single beam."""
        if self.n_beams == 1:
            deg = np.array([(self.alpha_up + self.alpha_low) / 2.0])
        else:
            deg = np.linspace(self.alpha_low, self.alpha_up, self.n_beams)
        return np.deg2rad(deg)

    def azimuths(self) -> np.ndarray:
        """Azimuth sample angles in radians, one revolution, half-open."""
        k = np.arange(self.azimuth_steps)
        return -np.pi + 2.0 * np.pi * k / self.azimuth_steps


@dataclass(frozen=True)
class Scene:
    """Static description of one synthetic world.

    ``ground_z=None`` means no ground plane.  Dynamic objects move with
    constant velocity; their boxes at time t are derived on demand.
    """

    ground_z: float | None
    objects: tuple[BoxLabel, ...]
    ground_class: int = DEFAULT_GROUND_CLASS

    def boxes_at(self, time_s: float) -> list[BoxLabel]:
        """World-frame boxes displaced to `time_s` (t=0 is the layout time)."""
        return [box.at_time(time_s) for box in self.objects]


@dataclass(frozen=True)
class SceneParams:
    """Knobs for :func:`build_scene`.

    ``class_mix`` maps class ids to non-negative sampling weights (sum > 0).
    Placed boxes keep ``CLEARANCE`` from each other and stay inside the
    arena; generation fails loudly when that becomes infeasible.
    """

    arena: tuple[float, float, float, float] = (-20.0, 20.0, -20.0, 20.0)
    n_objects: int = 12
    class_mix: dict[int, float] = field(
        default_factory=lambda: {1: 4.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 1.0})
    dynamic_fraction: float = 0.3
    size_range_l: tuple[float, float] = (1.2, 4.8)
    size_range_w: tuple[float, float] = (0.8, 2.2)
    size_range_h: tuple[float, float] = (1.0, 2.2)
    speed_range: tuple[float, float] = (0.5, 2.0)
    ground_z: float | None = 0.0
    ground_class: int = DEFAULT_GROUND_CLASS

    def __post_init__(self):
        x0, x1, y0, y1 = self.arena
        if not (x1 > x0 and y1 > y0):
            raise FieldError("arena", "bounds must satisfy x_max > x_min, y_max > y_min")
        if self.n_objects < 0:
            raise FieldError("n_objects", "must be >= 0")
        if any(w < 0 for w in self.class_mix.values()):
            raise FieldError("class_mix", "weights must be >= 0")
        if self.n_objects > 0 and sum(self.class_mix.values()) <= 0:
            raise ValueError("class_mix weights must sum > 0")
        if not 0.0 <= self.dynamic_fraction <= 1.0:
            raise FieldError("dynamic_fraction", "must lie in [0, 1]")
        for name in ("size_range_l", "size_range_w", "size_range_h"):
            low, high = getattr(self, name)
            if not 0 < low <= high:
                raise FieldError(name, "must satisfy 0 < low <= high")
        if not self.speed_range[0] <= self.speed_range[1]:
            raise FieldError("speed_range", "must satisfy low <= high")


def build_scene(params: SceneParams, seed: int) -> Scene:
    """Deterministically place `params.n_objects` boxes in the arena.

    Raises a FieldError on ``arena`` when an object's footprint does not
    fit in it, and on ``n_objects`` when placement stays infeasible after
    the bounded retry budget.
    """
    rng = np.random.default_rng(seed)
    x0, x1, y0, y1 = params.arena
    ground_z = params.ground_z if params.ground_z is not None else 0.0

    class_ids = sorted(params.class_mix)
    mix = np.array([params.class_mix[c] for c in class_ids], dtype=np.float64)
    mix = mix / mix.sum() if class_ids else mix

    objects: list[BoxLabel] = []
    placed: list[tuple[float, float, float]] = []  # (cx, cy, footprint radius)
    for _ in range(params.n_objects):
        cls = int(rng.choice(class_ids, p=mix))
        l = float(rng.uniform(*params.size_range_l))
        w = float(rng.uniform(*params.size_range_w))
        h = float(rng.uniform(*params.size_range_h))
        yaw = float(rng.uniform(-math.pi, math.pi))
        radius = math.hypot(l, w) / 2.0
        if x1 - radius < x0 + radius or y1 - radius < y0 + radius:
            raise FieldError(
                "arena", f"{params.arena} is too small for an object of "
                f"footprint radius {radius:.3f} m")

        for attempt in range(MAX_TRIES_PER_OBJECT):
            cx = float(rng.uniform(x0 + radius, x1 - radius))
            cy = float(rng.uniform(y0 + radius, y1 - radius))
            ok = all(math.hypot(cx - px, cy - py) >= radius + pr + CLEARANCE
                     for px, py, pr in placed)
            if ok:
                break
        else:
            raise FieldError(
                "n_objects", "infeasible placement: could not keep clearance "
                f"{CLEARANCE} m between {params.n_objects} objects in "
                f"arena {params.arena}")

        dynamic = bool(rng.random() < params.dynamic_fraction)
        if dynamic:
            speed = float(rng.uniform(*params.speed_range))
            heading = float(rng.uniform(-math.pi, math.pi))
            vx, vy = speed * math.cos(heading), speed * math.sin(heading)
        else:
            vx = vy = 0.0

        objects.append(BoxLabel(cx, cy, ground_z + h / 2.0, l, w, h, yaw,
                                vx, vy, cls, dynamic))
        placed.append((cx, cy, radius))

    return Scene(ground_z=params.ground_z, objects=tuple(objects),
                 ground_class=params.ground_class)


def _ray_directions(beams: BeamSpec) -> tuple[np.ndarray, np.ndarray]:
    """Unit ray directions and the beam elevations (radians, ascending).

    Ray ``i * azimuth_steps + k`` has elevation ``i`` and azimuth ``k`` of
    the spec.  Cached per beam pattern, since every frame of a dataset
    casts the same rays; both arrays are read-only because callers share
    them.
    """
    # keyed on repr too: specs with 0.0 and -0.0 are equal, their rays not
    return _cached_ray_directions(repr(beams), beams)


@functools.lru_cache(maxsize=8)
def _cached_ray_directions(key: str,
                           beams: BeamSpec) -> tuple[np.ndarray, np.ndarray]:
    el = beams.elevations()
    az = beams.azimuths()
    ee, aa = (g.ravel() for g in np.meshgrid(el, az, indexing="ij"))
    ce = np.cos(ee)
    dirs = np.stack([ce * np.sin(aa), ce * np.cos(aa), np.sin(ee)], axis=-1)
    dirs.setflags(write=False)
    el.setflags(write=False)
    return dirs, el


def _sector_windows(beams: BeamSpec, elevations: np.ndarray, u: np.ndarray,
                    oc2: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Per box, the window of the beam grid that holds every ray its sphere
    test keeps, as a (B, 4) integer array of rows ``r0 .. r1 - 1`` and
    columns ``c0 .. c0 + nc - 1`` (modulo ``azimuth_steps``).

    `u` holds the (B, 3) offsets of the box centres from the sensor, in
    the sensor frame; `oc2` and `radius` are the squared distances and the
    widened radii of the sphere test.
    """
    n_az = beams.azimuth_steps
    with np.errstate(divide="ignore"):
        sin_theta = np.sqrt(radius * radius / oc2 + _CONE_SLACK)
    theta = np.arcsin(np.minimum(sin_theta, 1.0)) + 1e-6
    e_c = np.arctan2(u[:, 2], np.hypot(u[:, 0], u[:, 1]))
    a_c = np.arctan2(u[:, 0], u[:, 1])
    r0 = np.searchsorted(elevations, e_c - theta, side="left")
    r1 = np.searchsorted(elevations, e_c + theta, side="right")

    # a cap of radius theta spans at most asin(sin theta / cos e) in azimuth
    # at elevation e, and |e| <= |e_c| + theta inside it
    reach = np.abs(e_c) + theta
    polar = reach >= np.pi / 2 - 1e-3
    ratio = np.sin(theta) / np.cos(np.where(polar, 0.0, reach))
    half = np.arcsin(np.minimum(ratio, 1.0)) + 1e-6
    step = 2.0 * np.pi / n_az
    c0 = np.floor((a_c - half + np.pi) / step).astype(np.int64) - 1
    nc = np.ceil((a_c + half + np.pi) / step).astype(np.int64) + 2 - c0

    near = oc2 <= 4.0 * radius * radius
    r0[near], r1[near] = 0, len(elevations)
    every = near | polar | (nc >= n_az)
    c0[every], nc[every] = 0, n_az
    return np.stack([r0, r1, c0 % n_az, nc], axis=-1)


def _sphere_candidates(boxes: Sequence[BoxLabel], beams: BeamSpec,
                       elevations: np.ndarray, dirs_world: np.ndarray,
                       sensor_pose: Pose) -> tuple[np.ndarray, np.ndarray]:
    """The rays that pass each box's bounding-sphere test, box after box,
    and how many belong to each box.

    Every ray the slab test would hit passes the test, which runs only on
    the box's :func:`_sector_windows` window.
    """
    origin = sensor_pose.translation
    # The sphere encloses the box, and its radius and the perpendicular-
    # distance test are widened by margins far above the rounding error of
    # the sphere arithmetic: the margins on the radius cover rays the
    # slab test accepts by rounding at an edge or corner; the
    # 1e-8 * |oc|^2 slack covers the cancellation in |oc|^2 - proj^2
    # and directions that are unit only to the 1e-9 that Pose allows.
    radius = [0.5 * math.hypot(box.l, box.w, box.h) * (1.0 + 1e-6) + 1e-6
              for box in boxes]
    oc = np.array([box.center for box in boxes]) - origin
    windows = _sector_windows(beams, elevations, oc @ sensor_pose.rotation,
                              np.einsum("ij,ij->i", oc, oc), np.array(radius))
    n_az = beams.azimuth_steps
    grid = dirs_world.reshape(len(elevations), n_az, 3)
    rays = []
    for b, (r0, r1, c0, nc) in enumerate(windows.tolist()):
        if c0 + nc <= n_az:
            window = grid[r0:r1, c0:c0 + nc]
        else:  # across the azimuth seam
            window = grid[r0:r1].take(range(c0, c0 + nc), axis=1, mode="wrap")
        oc2 = float(oc[b] @ oc[b])
        proj = window @ oc[b]
        row, col = np.nonzero(
            (proj >= -radius[b])
            & (oc2 - proj * proj <= radius[b] * radius[b] + 1e-8 * oc2))
        rays.append((r0 + row) * n_az + (c0 + col) % n_az)
    return np.concatenate(rays), np.array([len(r) for r in rays])


def _slab_hits(origin: np.ndarray, dirs: np.ndarray, counts: np.ndarray,
               boxes: Sequence[BoxLabel]) -> np.ndarray:
    """Slab test of the (M, 3) rays `dirs`: the first ``counts[0]`` against
    ``boxes[0]``, the next ``counts[1]`` against ``boxes[1]`` and so on.
    Returns the per-ray hit distance (inf where the box is missed).

    Each box's cos/sin, local origin and half extents are worked out once
    and repeated per ray, so every ray goes through the same IEEE
    operations as in a slab test of that box alone.
    """
    c = np.array([math.cos(-box.yaw) for box in boxes])
    s = np.array([math.sin(-box.yaw) for box in boxes])
    o = origin - np.array([box.center for box in boxes])
    local_o = np.stack([c * o[:, 0] - s * o[:, 1], s * o[:, 0] + c * o[:, 1],
                        o[:, 2]])
    half = np.array([[box.l, box.w, box.h] for box in boxes]).T / 2.0
    # rays parallel to a slab: inside -> (-inf, inf), outside -> no overlap
    parallel_near = np.where(np.abs(local_o) <= half, -np.inf, np.inf)

    def per_ray(per_box):
        return np.repeat(per_box, counts)

    c, s = per_ray(c), per_ray(s)
    local_d = (c * dirs[:, 0] - s * dirs[:, 1], s * dirs[:, 0] + c * dirs[:, 1],
               dirs[:, 2])
    for axis, d in enumerate(local_d):
        with np.errstate(divide="ignore", invalid="ignore"):
            t_lo = per_ray(-half[axis] - local_o[axis]) / d
            t_hi = per_ray(half[axis] - local_o[axis]) / d
        parallel = d == 0.0
        t_par = per_ray(parallel_near[axis])
        near = np.where(parallel, t_par, np.fmin(t_lo, t_hi))
        far = np.where(parallel, -t_par, np.fmax(t_lo, t_hi))
        # the largest near and smallest far of three: exact in any order
        t_min = near if axis == 0 else np.maximum(t_min, near)
        t_max = far if axis == 0 else np.minimum(t_max, far)
    t = np.where(t_min > _RAY_EPS, t_min, t_max)
    hit = (t_max >= t_min) & (t > _RAY_EPS) & np.isfinite(t)
    return np.where(hit, t, np.inf)


def scan(scene: Scene, beams: BeamSpec, sensor_pose: Pose,
         time_s: float) -> tuple[PointCloud, np.ndarray]:
    """Cast the full beam pattern from `sensor_pose`; nearest hit per ray.

    Dynamic boxes are displaced by ``velocity * time_s`` before casting.
    Returns a sensor-frame cloud together with per-point semantic labels;
    rays that miss everything produce no point.

    Each box runs the bounding-sphere test on its window of the beam grid,
    and one slab test runs over the rays every box keeps; the module
    docstring's window argument shows the output is that of the slab test
    of every box on every ray, bit for bit.  Hits are applied box after box
    with a strict ``<``: on a tie the ground, then the earlier box, wins.
    """
    dirs_sensor, elevations = _ray_directions(beams)
    dirs_world = dirs_sensor @ sensor_pose.rotation.T
    origin = sensor_pose.translation

    n_rays = dirs_world.shape[0]
    best_t = np.full(n_rays, np.inf)
    best_label = np.zeros(n_rays, dtype=np.int64)

    if scene.ground_z is not None:
        dz = dirs_world[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_ground = (scene.ground_z - origin[2]) / dz
        ok = (dz != 0.0) & (t_ground > _RAY_EPS)
        best_t = np.where(ok, t_ground, np.inf)
        best_label = np.where(ok, scene.ground_class, 0)

    boxes = scene.boxes_at(time_s)
    if boxes:
        rays, counts = _sphere_candidates(boxes, beams, elevations, dirs_world,
                                          sensor_pose)
        t_box = _slab_hits(origin, dirs_world.take(rays, axis=0), counts, boxes)
        end = np.cumsum(counts)
        for box, lo, hi in zip(boxes, end - counts, end):
            ray, dist = rays[lo:hi], t_box[lo:hi]
            closer = dist < best_t[ray]
            best_t[ray[closer]] = dist[closer]
            best_label[ray[closer]] = box.class_id

    hit = np.flatnonzero(np.isfinite(best_t))
    t = best_t.take(hit)
    points = dirs_sensor.take(hit, axis=0) * t[:, None]
    feat = (t / RANGE_NORM)[:, None]
    return PointCloud(points, feat), best_label.take(hit)


def generate_sequence(scene: Scene, beams: BeamSpec, poses: Sequence[Pose],
                      keyframe_hz: float) -> LidarSequence:
    """One scan per ego pose; frame i is taken at ``i / keyframe_hz`` s."""
    times = [i / keyframe_hz for i in range(len(poses))]
    scans = [scan(scene, beams, pose, t) for pose, t in zip(poses, times)]
    return LidarSequence([cloud for cloud, _ in scans],
                         [labels for _, labels in scans], poses,
                         [scene.boxes_at(t) for t in times])
