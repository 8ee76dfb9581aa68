"""Synthetic labeled LiDAR scenes: ground plane + yaw-rotated boxes.

The generator stands in for real pre-training sequences at desk scale.
Geometry is deliberately restricted to a ground plane and oriented boxes so
every returned point admits an analytic oracle (exact ray-plane and ray-box
intersections), which downstream tests lean on.

Scans are returned in the sensor frame; per-frame boxes are reported in the
world frame.  Feature dimension is d=1, filled with range normalized by
``RANGE_NORM`` (the pipeline treats features opaquely).
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cloud import BoxLabel, PointCloud, Pose, from_spherical

__all__ = [
    "BeamSpec", "SceneObject", "Scene", "SceneParams", "SequenceMeta",
    "Frame", "build_scene", "scan", "generate_sequence",
    "DEFAULT_GROUND_CLASS",
]

#: Range divisor for the single synthetic feature channel.
RANGE_NORM = 100.0

#: Default semantic class painted on ground-plane hits (a background class).
DEFAULT_GROUND_CLASS = 15

_RAY_EPS = 1e-9


@dataclass(frozen=True)
class BeamSpec:
    """Spinning-LiDAR beam pattern.

    ``n_beams`` emitters with elevations uniformly spaced over the vertical
    field of view ``[alpha_low, alpha_up]`` (degrees), sampled at
    ``azimuth_steps`` horizontal positions per revolution.
    """

    n_beams: int
    alpha_up: float
    alpha_low: float
    azimuth_steps: int = 720

    def __post_init__(self):
        if self.n_beams < 1:
            raise ValueError("n_beams must be >= 1")
        if self.azimuth_steps < 1:
            raise ValueError("azimuth_steps must be >= 1")
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
class SceneObject:
    """A box plus the semantic class its surface points receive."""

    box: BoxLabel
    surface_class: int

    def __post_init__(self):
        if self.surface_class < 1:
            raise ValueError("surface_class must be >= 1")


@dataclass(frozen=True)
class Scene:
    """Static description of one synthetic world.

    ``ground_z=None`` means no ground plane.  Dynamic objects move with
    constant velocity; their boxes at time t are derived on demand.
    """

    ground_z: float | None
    objects: tuple[SceneObject, ...]
    rng_seed: int
    ground_class: int = DEFAULT_GROUND_CLASS

    def boxes_at(self, time_s: float) -> list[BoxLabel]:
        """World-frame boxes displaced to `time_s` (t=0 is the layout time)."""
        return [o.box.at_time(time_s) for o in self.objects]


@dataclass(frozen=True)
class SceneParams:
    """Knobs for :func:`build_scene`.

    ``class_mix`` maps class ids to non-negative sampling weights (sum > 0).
    Placed boxes keep a clear margin from each other and from the arena
    edge; generation fails loudly when that becomes infeasible.
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
    clearance: float = 0.5
    max_tries_per_object: int = 200

    def __post_init__(self):
        x0, x1, y0, y1 = self.arena
        if not (x1 > x0 and y1 > y0):
            raise ValueError("arena bounds must satisfy x_max > x_min, y_max > y_min")
        if self.n_objects < 0:
            raise ValueError("n_objects must be >= 0")
        if any(w < 0 for w in self.class_mix.values()):
            raise ValueError("class_mix weights must be >= 0")
        if self.n_objects > 0 and sum(self.class_mix.values()) <= 0:
            raise ValueError("class_mix weights must sum > 0")
        if not 0.0 <= self.dynamic_fraction <= 1.0:
            raise ValueError("dynamic_fraction must lie in [0, 1]")
        for name in ("size_range_l", "size_range_w", "size_range_h"):
            low, high = getattr(self, name)
            if not 0 < low <= high:
                raise ValueError(f"{name} must satisfy 0 < low <= high")
        if not self.speed_range[0] <= self.speed_range[1]:
            raise ValueError("speed_range must satisfy low <= high")


class Frame(NamedTuple):
    """One simulated frame: sensor-frame cloud, labels, world-frame boxes."""

    cloud: PointCloud
    labels: np.ndarray
    boxes: list[BoxLabel]


@dataclass(frozen=True)
class SequenceMeta:
    """Frame timing and ego trajectory for a simulated sequence."""

    n_frames: int
    keyframe_hz: float
    ego_poses: tuple[Pose, ...]

    def __post_init__(self):
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if self.keyframe_hz <= 0:
            raise ValueError("keyframe_hz must be positive")
        if len(self.ego_poses) != self.n_frames:
            raise ValueError(
                f"got {len(self.ego_poses)} poses for {self.n_frames} frames")


def build_scene(params: SceneParams, seed: int) -> Scene:
    """Deterministically place `params.n_objects` boxes in the arena.

    Raises ValueError naming the violated constraint when placement stays
    infeasible after the bounded retry budget.
    """
    rng = np.random.default_rng(seed)
    x0, x1, y0, y1 = params.arena
    ground_z = params.ground_z if params.ground_z is not None else 0.0

    class_ids = sorted(params.class_mix)
    mix = np.array([params.class_mix[c] for c in class_ids], dtype=np.float64)
    mix = mix / mix.sum() if class_ids else mix

    objects: list[SceneObject] = []
    placed: list[tuple[float, float, float]] = []  # (cx, cy, footprint radius)
    for _ in range(params.n_objects):
        cls = int(rng.choice(class_ids, p=mix))
        l = float(rng.uniform(*params.size_range_l))
        w = float(rng.uniform(*params.size_range_w))
        h = float(rng.uniform(*params.size_range_h))
        yaw = float(rng.uniform(-math.pi, math.pi))
        radius = math.hypot(l, w) / 2.0

        for attempt in range(params.max_tries_per_object):
            cx = float(rng.uniform(x0 + radius, x1 - radius))
            cy = float(rng.uniform(y0 + radius, y1 - radius))
            ok = all(math.hypot(cx - px, cy - py) >= radius + pr + params.clearance
                     for px, py, pr in placed)
            if ok:
                break
        else:
            raise ValueError(
                "infeasible placement: could not keep clearance "
                f"{params.clearance} m between {params.n_objects} objects in "
                f"arena {params.arena}")

        dynamic = bool(rng.random() < params.dynamic_fraction)
        if dynamic:
            speed = float(rng.uniform(*params.speed_range))
            heading = float(rng.uniform(-math.pi, math.pi))
            vx, vy = speed * math.cos(heading), speed * math.sin(heading)
        else:
            vx = vy = 0.0

        box = BoxLabel(cx, cy, ground_z + h / 2.0, l, w, h, yaw,
                       vx, vy, cls, dynamic)
        objects.append(SceneObject(box, cls))
        placed.append((cx, cy, radius))

    return Scene(ground_z=params.ground_z, objects=tuple(objects),
                 rng_seed=seed, ground_class=params.ground_class)


def _ray_directions(beams: BeamSpec) -> np.ndarray:
    """Unit ray directions, one row per (elevation, azimuth) pair.

    Cached per beam pattern, since every frame of a dataset casts the same
    rays; the array is read-only because callers share it.
    """
    # keyed on repr too: specs with 0.0 and -0.0 are equal, their rays not
    return _cached_ray_directions(repr(beams), beams)


@functools.lru_cache(maxsize=8)
def _cached_ray_directions(key: str, beams: BeamSpec) -> np.ndarray:
    el = beams.elevations()
    az = beams.azimuths()
    ee, aa = np.meshgrid(el, az, indexing="ij")
    sph = np.stack([np.ones(ee.size), aa.ravel(), ee.ravel()], axis=-1)
    dirs = from_spherical(sph)
    dirs.setflags(write=False)
    return dirs


def _ray_box_hits(origin: np.ndarray, dirs: np.ndarray, box: BoxLabel) -> np.ndarray:
    """Slab test; returns per-ray hit distance (inf where the box is missed)."""
    c, s = math.cos(-box.yaw), math.sin(-box.yaw)
    o = origin - box.center
    ox, oy = c * o[0] - s * o[1], s * o[0] + c * o[1]
    dx = c * dirs[:, 0] - s * dirs[:, 1]
    dy = s * dirs[:, 0] + c * dirs[:, 1]
    local_o = np.array([ox, oy, o[2]])
    local_d = np.stack([dx, dy, dirs[:, 2]], axis=-1)

    half = np.array([box.l, box.w, box.h]) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (-half - local_o) / local_d
        t_hi = (half - local_o) / local_d
    near = np.fmin(t_lo, t_hi)
    far = np.fmax(t_lo, t_hi)
    # rays parallel to a slab: inside -> (-inf, inf), outside -> no overlap
    parallel = local_d == 0.0
    inside = np.abs(local_o) <= half
    near = np.where(parallel, np.where(inside, -np.inf, np.inf), near)
    far = np.where(parallel, np.where(inside, np.inf, -np.inf), far)

    t_min = near.max(axis=1)
    t_max = far.min(axis=1)
    t = np.where(t_min > _RAY_EPS, t_min, t_max)
    hit = (t_max >= t_min) & (t > _RAY_EPS) & np.isfinite(t)
    return np.where(hit, t, np.inf)


def scan(scene: Scene, beams: BeamSpec, sensor_pose: Pose,
         time_s: float = 0.0) -> tuple[PointCloud, np.ndarray]:
    """Cast the full beam pattern from `sensor_pose`; nearest hit per ray.

    Dynamic boxes are displaced by ``velocity * time_s`` before casting.
    Returns a sensor-frame cloud together with per-point semantic labels;
    rays that miss everything produce no point.

    Each box runs the exact slab test only on the rays that pass its
    bounding-sphere test.  The sphere encloses the box, and its radius and
    the perpendicular-distance test are widened by margins far above the
    rounding error of the sphere arithmetic, so every ray the slab test
    would hit is kept.  The slab test works on one ray at a time, so the
    output is identical, bit for bit, to running it on every ray.
    """
    dirs_sensor = _ray_directions(beams)
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

    for obj in scene.objects:
        box = obj.box.at_time(time_s)
        # Bounding sphere, widened: the margins on the radius cover rays the
        # slab test accepts by rounding at an edge or corner; the
        # 1e-8 * |oc|^2 slack covers the cancellation in |oc|^2 - proj^2
        # and directions that are unit only to the 1e-9 that Pose allows.
        radius = 0.5 * math.hypot(box.l, box.w, box.h) * (1.0 + 1e-6) + 1e-6
        oc = box.center - origin
        oc2 = float(oc @ oc)
        proj = dirs_world @ oc
        cand = np.flatnonzero(
            (proj >= -radius)
            & (oc2 - proj * proj <= radius * radius + 1e-8 * oc2))
        t_box = _ray_box_hits(origin, dirs_world[cand], box)
        closer = t_box < best_t[cand]
        best_t[cand[closer]] = t_box[closer]
        best_label[cand[closer]] = obj.surface_class

    hit = np.isfinite(best_t)
    t = best_t[hit]
    points = dirs_sensor[hit] * t[:, None]
    feat = (t / RANGE_NORM)[:, None]
    return PointCloud(points, feat), best_label[hit]


def generate_sequence(scene: Scene, beams: BeamSpec, meta: SequenceMeta,
                      workers: int = 1) -> list[Frame]:
    """One scan per ego pose; dynamic boxes advance at ``keyframe_hz``.

    Frames are independent pure computations, so ``workers > 1`` may render
    them in parallel; results are assembled by frame index either way.
    """

    def render(i: int) -> Frame:
        time_s = i / meta.keyframe_hz
        cloud, labels = scan(scene, beams, meta.ego_poses[i], time_s=time_s)
        return Frame(cloud, labels, scene.boxes_at(time_s))

    if workers > 1 and meta.n_frames > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(render, range(meta.n_frames)))
    return [render(i) for i in range(meta.n_frames)]
