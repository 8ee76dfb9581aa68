"""BEV occupancy ground truth from labeled sequences.

The pipeline mirrors how dense occupancy labels are built from driving logs:
split each frame's points into static and dynamic (inside a moving box),
fuse static points in the world frame while dynamic points are re-posed at
their object's keyframe location, then vote per BEV cell for the plurality
semantic label.  Hole filling is a KNN densification pass over the fused
cloud instead of mesh reconstruction: cells whose 3D column center lies
within a radius of any fused point inherit the majority label of their k
nearest neighbors.  One KD-tree over the fused cloud serves both the
radius test and the neighbor vote.

The split tests a point against a box exactly only when it lies inside the
box's widened xy bounding circle, and votes are integer counts from one
``np.bincount``, so neither shortcut changes a label.

Plurality ties go to the class with the larger loss weight, then to the
smaller class id, protecting rare foreground classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .balance import default_loss_weights
from .cloud import BoxLabel, PointCloud, Pose, transform, validate_labels

__all__ = [
    "GridSpec", "OccupancyGrid", "SplitResult",
    "split_dynamic_static", "aggregate", "knn_label", "voxelize_bev",
    "make_occupancy",
]

DEFAULT_DENSIFY_RADIUS = 0.4
DEFAULT_DENSIFY_K = 5


@dataclass(frozen=True)
class GridSpec:
    """BEV grid geometry: rows index y, columns index x.

    ``origin_x/origin_y`` is the minimum corner; cell (i, j) covers
    ``[origin + idx*cell, origin + (idx+1)*cell)`` with i along y and j
    along x.  Points bin only when z lies in ``[z_min, z_max]``.
    """

    origin_x: float
    origin_y: float
    cell_size: float
    h: int
    w: int
    z_min: float
    z_max: float
    n_cls: int = 15

    def __post_init__(self):
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if self.z_max <= self.z_min:
            raise ValueError("z_max must exceed z_min")
        if self.h < 1 or self.w < 1:
            raise ValueError("grid must have at least one cell per axis")
        if self.n_cls < 1:
            raise ValueError("n_cls must be >= 1")

    def bin_points(self, xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell indices (i along y, j along x) and the in-bounds mask."""
        xyz = np.asarray(xyz, dtype=np.float64)
        jj = np.floor((xyz[:, 0] - self.origin_x) / self.cell_size).astype(np.int64)
        ii = np.floor((xyz[:, 1] - self.origin_y) / self.cell_size).astype(np.int64)
        ok = ((ii >= 0) & (ii < self.h) & (jj >= 0) & (jj < self.w)
              & (xyz[:, 2] >= self.z_min) & (xyz[:, 2] <= self.z_max))
        return ii, jj, ok

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """(H, W) arrays of cell-center x and y coordinates."""
        xs = self.origin_x + (np.arange(self.w) + 0.5) * self.cell_size
        ys = self.origin_y + (np.arange(self.h) + 0.5) * self.cell_size
        xx, yy = np.meshgrid(xs, ys)
        return xx, yy

    @property
    def z_mid(self) -> float:
        return (self.z_min + self.z_max) / 2.0


@dataclass(frozen=True)
class OccupancyGrid:
    """Semantic BEV occupancy: (H, W) labels in 0..n_cls, 0 = empty."""

    spec: GridSpec
    labels: np.ndarray

    def __post_init__(self):
        arr = np.array(self.labels, dtype=np.int64, copy=True)
        if arr.shape != (self.spec.h, self.spec.w):
            raise ValueError(
                f"labels shape {arr.shape} != grid ({self.spec.h}, {self.spec.w})")
        if arr.size and (arr.min() < 0 or arr.max() > self.spec.n_cls):
            raise ValueError(f"labels must lie in [0, {self.spec.n_cls}]")
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)

    @property
    def occupied_count(self) -> int:
        return int((self.labels != 0).sum())


class SplitResult(NamedTuple):
    """Index partition of one frame into static and dynamic points."""

    static_index: np.ndarray   # indices of static points, ascending
    dynamic_index: np.ndarray  # indices of dynamic points, ascending
    box_index: np.ndarray      # owning box per dynamic point, aligned


def _is_dynamic_box(box: BoxLabel, speed_threshold: float | None) -> bool:
    if box.is_dynamic:
        return True
    return speed_threshold is not None and box.speed > speed_threshold


def split_dynamic_static(cloud: PointCloud, boxes: Sequence[BoxLabel],
                         speed_threshold: float | None = None,
                         atol: float = 0.0) -> SplitResult:
    """Partition points: dynamic iff inside a dynamic box (inclusive bounds).

    Points inside several dynamic boxes go to the lowest box index.  With
    `speed_threshold` set, boxes faster than the threshold count as dynamic
    even when their flag is unset (fallback for untrusted flags).  `atol`
    inflates boxes slightly; sensor returns lie exactly on surfaces, so a
    strict test would drop them to float noise.

    Each box runs the exact ``BoxLabel.contains`` only on the unowned points
    inside the xy circle around its inflated footprint.  The circle's
    radius is widened by margins far above the rounding error of both
    tests, so no point the exact test accepts is skipped.
    """
    n = len(cloud)
    owner = np.full(n, -1, dtype=np.int64)
    x = np.ascontiguousarray(cloud.xyz[:, 0])
    y = np.ascontiguousarray(cloud.xyz[:, 1])
    for bi, box in enumerate(boxes):
        if not _is_dynamic_box(box, speed_threshold):
            continue
        radius = (0.5 * math.hypot(box.l + 2.0 * atol, box.w + 2.0 * atol)
                  * (1.0 + 1e-6) + 1e-6)
        dx, dy = x - box.cx, y - box.cy
        dx *= dx
        dy *= dy
        dx += dy
        cand = np.flatnonzero(dx <= radius * radius)
        cand = cand[owner[cand] == -1]
        owner[cand[box.contains(cloud.xyz[cand], atol=atol)]] = bi
    dynamic = np.nonzero(owner >= 0)[0]
    static = np.nonzero(owner == -1)[0]
    return SplitResult(static, dynamic, owner[dynamic])


def _rotate_z(xy: np.ndarray, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    out = np.empty_like(xy)
    out[:, 0] = c * xy[:, 0] - s * xy[:, 1]
    out[:, 1] = s * xy[:, 0] + c * xy[:, 1]
    return out


def aggregate(frames: Sequence[PointCloud], labels: Sequence[np.ndarray],
              poses: Sequence[Pose], boxes: Sequence[Sequence[BoxLabel]],
              keyframe: int, speed_threshold: float | None = None
              ) -> tuple[PointCloud, np.ndarray]:
    """Fuse a sequence into one labeled world-frame cloud.

    Static points map straight through each frame's pose.  Dynamic points
    are lifted into their box's canonical frame at the source frame, then
    re-posed at the box's keyframe pose; boxes correspond across frames by
    list position.  Output preserves per-frame point order and total count.
    """
    if not (len(frames) == len(labels) == len(poses) == len(boxes)):
        raise ValueError("frames, labels, poses and boxes must have equal length")
    if not frames:
        raise ValueError("cannot aggregate an empty sequence")
    if not 0 <= keyframe < len(frames):
        raise ValueError(f"keyframe {keyframe} out of range")
    n_boxes = len(boxes[keyframe])
    for f, frame_boxes in enumerate(boxes):
        if len(frame_boxes) != n_boxes:
            raise ValueError(
                f"frame {f} has {len(frame_boxes)} boxes, keyframe has {n_boxes}; "
                "box lists must correspond by index")

    key_boxes = boxes[keyframe]
    out_xyz, out_feat, out_labels = [], [], []
    for f, frame in enumerate(frames):
        lab = validate_labels(labels[f], len(frame), n_cls=255)
        world = transform(frame, poses[f])
        xyz = world.xyz.copy()
        split = split_dynamic_static(world, boxes[f], speed_threshold, atol=1e-9)
        for bi in np.unique(split.box_index):
            src, dst = boxes[f][bi], key_boxes[bi]
            pts = split.dynamic_index[split.box_index == bi]
            local = xyz[pts] - src.center
            local[:, :2] = _rotate_z(local[:, :2], -src.yaw)
            local[:, :2] = _rotate_z(local[:, :2], dst.yaw)
            xyz[pts] = local + dst.center
        out_xyz.append(xyz)
        out_feat.append(world.feat)
        out_labels.append(lab)

    fused = PointCloud(np.concatenate(out_xyz), np.concatenate(out_feat))
    return fused, np.concatenate(out_labels)


def _tie_order(n_cls: int, tie_weights: np.ndarray | None) -> np.ndarray:
    """Class ids ordered by descending loss weight, then ascending id."""
    w = default_loss_weights(n_cls) if tie_weights is None else np.asarray(tie_weights)
    if w.shape != (n_cls + 1,):
        raise ValueError(f"tie_weights must have length {n_cls + 1}")
    classes = np.arange(n_cls + 1)
    return classes[np.lexsort((classes, -w))]


def _votes(rows: np.ndarray, classes: np.ndarray, n_rows: int,
           n_cls: int) -> np.ndarray:
    """(n_rows, n_cls + 1) integer counts of each (row, class) pair."""
    flat = rows * (n_cls + 1) + classes
    return np.bincount(flat, minlength=n_rows * (n_cls + 1)).reshape(
        n_rows, n_cls + 1)


def knn_label(tree: cKDTree, fused_labels: np.ndarray, queries: np.ndarray,
              k: int, n_cls: int = 15,
              tie_weights: np.ndarray | None = None) -> np.ndarray:
    """Majority label of the k nearest fused points per query (Euclidean).

    `tree` is a ``cKDTree`` over the fused points, built with the default
    parameters; `fused_labels` is aligned with its data.  Vote ties break
    toward the larger loss weight, then the smaller id.
    """
    if tree.n == 0:
        raise ValueError("cannot KNN-label against an empty fused cloud")
    if k < 1:
        raise ValueError("k must be >= 1")
    fl = validate_labels(fused_labels, tree.n, n_cls)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n_q, k_eff = queries.shape[0], min(k, tree.n)

    _, idx = tree.query(queries, k=k_eff)
    idx = np.asarray(idx).reshape(n_q, k_eff)
    votes = _votes(np.repeat(np.arange(n_q), k_eff), fl[idx].ravel(), n_q, n_cls)

    order = _tie_order(n_cls, tie_weights)
    return order[np.argmax(votes[:, order], axis=1)]


def voxelize_bev(cloud: PointCloud, labels: np.ndarray, spec: GridSpec,
                 tie_weights: np.ndarray | None = None) -> OccupancyGrid:
    """Bin points to BEV cells; each cell takes its plurality label.

    Cells without points stay 0.  The result is exactly permutation
    invariant in point order (integer vote counts).
    """
    lab = validate_labels(labels, len(cloud), spec.n_cls)
    ii, jj, ok = spec.bin_points(cloud.xyz)
    votes = _votes(ii[ok] * spec.w + jj[ok], lab[ok], spec.h * spec.w, spec.n_cls)

    order = _tie_order(spec.n_cls, tie_weights)
    winner = order[np.argmax(votes[:, order], axis=1)]
    winner[votes.sum(axis=1) == 0] = 0
    return OccupancyGrid(spec, winner.reshape(spec.h, spec.w))


def make_occupancy(frames: Sequence[PointCloud], labels: Sequence[np.ndarray],
                   poses: Sequence[Pose], boxes: Sequence[Sequence[BoxLabel]],
                   spec: GridSpec, keyframe: int = 0, densify: bool = True,
                   radius: float = DEFAULT_DENSIFY_RADIUS,
                   k: int = DEFAULT_DENSIFY_K,
                   speed_threshold: float | None = None,
                   tie_weights: np.ndarray | None = None) -> OccupancyGrid:
    """Full pipeline: split -> aggregate -> voxelize (+ KNN densification).

    Densification labels only currently-empty cells whose 3D column center
    (cell center at mid column height) lies within `radius` of any fused
    point, so it can only add occupied cells, never remove them.  One
    KD-tree over the fused cloud answers both the radius test and the k
    nearest neighbor vote; the split inside `aggregate` culls each box's
    exact point test by a bounding circle.
    """
    fused, fused_labels = aggregate(frames, labels, poses, boxes, keyframe,
                                    speed_threshold)
    grid = voxelize_bev(fused, fused_labels, spec, tie_weights)
    if not densify or len(fused) == 0:
        return grid

    empty_i, empty_j = np.nonzero(grid.labels == 0)
    if empty_i.size == 0:
        return grid
    xx, yy = spec.cell_centers()
    centers = np.stack([xx[empty_i, empty_j], yy[empty_i, empty_j],
                        np.full(empty_i.size, spec.z_mid)], axis=-1)
    tree = cKDTree(fused.xyz)
    near = tree.query_ball_point(centers, r=radius, return_length=True) > 0
    if not near.any():
        return grid
    filled = knn_label(tree, fused_labels, centers[near], k,
                       n_cls=spec.n_cls, tie_weights=tie_weights)
    out = grid.labels.copy()
    out[empty_i[near], empty_j[near]] = filled
    return OccupancyGrid(spec, out)
