"""BEV occupancy ground truth from labeled sequences.

The input is one :class:`~occspot.cloud.LidarSequence`, generated or loaded
from disk.  The pipeline mirrors how dense occupancy labels are built from
driving logs: split each frame's points into static and dynamic (inside a
moving box), fuse static points in the world frame while dynamic points are
re-posed at their object's keyframe location, then vote per BEV cell for the
plurality semantic label.  Hole filling is a KNN densification pass over the
fused cloud instead of mesh reconstruction: cells whose 3D column center
lies within a radius of any fused point inherit the majority label of their
k nearest neighbors.

Only the fused points near an empty cell can matter to either step, so
each step builds its KD-tree over a window of the cloud (``_window``): the
points whose z lies within a half-width ``h`` of the column centers' height
and whose xy cell lies within ``ceil(h / cell)`` cells of one of the cells
in question.  A z slack and the half cell between the window's last cell
and ``h`` cover rounding, so every point left out is farther than ``h``
from each of those centers, in computed distance too.

- **Radius test** (``h = radius``, the empty cells): every point within
  the radius of an empty center is in the window, so one tree over the
  window finds a point near exactly the centers that one tree over the
  whole cloud does.
- **Neighbor vote** (the near cells, ``h = 2 * radius`` at first): the
  window's tree returns each cell's k+1 nearest points.  A cell whose
  (k+1)-th distance is at most ``h`` and strictly above its k-th is labeled
  from that tree: no point outside the window can come nearer, and no
  point ties at the k-th distance, so the k-set is the whole cloud's, and
  unique.  The other cells go to the next round with ``h`` doubled.
- **Termination**: the round whose window would hold every point, or cover
  the cloud's bounding box, labels every cell left with one tree over the
  whole cloud, as before the windows.  Exact ties at the k-th distance are
  only ever resolved there, so they resolve as they always did; and since
  ``h`` doubles, that round always comes.

The split tests a point against a box exactly only when it lies inside the
box's widened xy bounding circle, and votes are integer counts from one
``np.bincount``, so neither shortcut changes a label.

Plurality ties go to the smaller class id, and empty (0) loses every tie.
The common traffic classes hold the lowest ids (``CLASS_NAMES``), so this
is the same order as ranking by default loss weight (2.0 on 1-5, 1.0 on
the rest, 0.01 on empty) and then by id, at every class count.  The grids
depend on no loss setting: ``balance.foreground_classes`` changes only
training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .cloud import (BoxLabel, FieldError, LidarSequence, PointCloud, transform,
                    validate_labels)

__all__ = [
    "CLASS_NAMES", "DEFAULT_N_CLS", "GridSpec", "OccupancyGrid", "SplitResult",
    "split_dynamic_static", "aggregate", "knn_label", "voxelize_bev",
    "make_occupancy",
]

#: Default 15-class schema; index 0 is the reserved "empty" state.
CLASS_NAMES = (
    "empty", "car", "pedestrian", "cyclist", "bicycle", "motorcycle",
    "truck", "bus", "other_vehicle", "traffic_cone", "barrier",
    "road", "sidewalk", "building", "vegetation", "ground",
)
DEFAULT_N_CLS = len(CLASS_NAMES) - 1

#: points binned at a time by the densification window: a wide z band can
#: hold most of the cloud, and its float temporaries stay this size
_BIN_CHUNK = 1 << 15


@dataclass(frozen=True)
class GridSpec:
    """BEV grid geometry: rows index y, columns index x.

    ``origin_x/origin_y`` is the minimum corner; cell (i, j) covers
    ``[origin + idx*cell, origin + (idx+1)*cell)`` with i along y and j
    along x.  Points bin only when z lies in ``[z_min, z_max]``.  Labels
    and ``n_cls`` are stored as one byte each (SPTL, SPOG), so ``n_cls``
    lies in ``1..255``.
    """

    origin_x: float
    origin_y: float
    cell_size: float
    h: int
    w: int
    z_min: float
    z_max: float
    n_cls: int = DEFAULT_N_CLS

    def __post_init__(self):
        if self.cell_size <= 0:
            raise FieldError("cell_size", "must be positive")
        if self.z_max <= self.z_min:
            raise ValueError("z_max must exceed z_min")
        for axis in ("h", "w"):
            if getattr(self, axis) < 1:
                raise FieldError(axis, "must be >= 1 (one cell per axis)")
        if not 1 <= self.n_cls <= 255:
            raise FieldError("n_cls", f"must lie in 1..255 (labels are stored "
                             f"as u8), got {self.n_cls}")

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


def split_dynamic_static(cloud: PointCloud, boxes: Sequence[BoxLabel],
                         atol: float) -> SplitResult:
    """Partition points: dynamic iff inside a dynamic box (inclusive bounds).

    A box is dynamic iff its ``is_dynamic`` flag is set; its speed plays no
    part.  Points inside several dynamic boxes go to the lowest box index.
    `atol` inflates boxes slightly; sensor returns lie exactly on surfaces,
    so a strict test would drop them to float noise.

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
        if not box.is_dynamic:
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


def aggregate(seq: LidarSequence, keyframe: int) -> tuple[PointCloud, np.ndarray]:
    """Fuse a sequence into one labeled world-frame cloud.

    Static points map straight through each frame's pose.  Dynamic points
    are lifted into their box's canonical frame at the source frame, then
    re-posed at the box's keyframe pose; boxes correspond across frames by
    list position, which ``LidarSequence`` checks.  Output preserves
    per-frame point order and total count.
    """
    if not 0 <= keyframe < len(seq.frames):
        raise ValueError(f"keyframe {keyframe} out of range")
    key_boxes = seq.boxes[keyframe]
    out_xyz, out_feat, out_labels = [], [], []
    for f, frame in enumerate(seq.frames):
        lab = validate_labels(seq.labels[f], len(frame), n_cls=255)
        world = transform(frame, seq.poses[f])
        xyz = world.xyz.copy()
        split = split_dynamic_static(world, seq.boxes[f], atol=1e-9)
        for bi in np.unique(split.box_index):
            src, dst = seq.boxes[f][bi], key_boxes[bi]
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


def _tie_order(n_cls: int) -> np.ndarray:
    """Class ids in the order that wins ties: ``1..n_cls``, then empty."""
    return np.append(np.arange(1, n_cls + 1), 0)


def _votes(rows: np.ndarray, classes: np.ndarray, n_rows: int,
           n_cls: int) -> np.ndarray:
    """(n_rows, n_cls + 1) integer counts of each (row, class) pair."""
    flat = rows * (n_cls + 1) + classes
    return np.bincount(flat, minlength=n_rows * (n_cls + 1)).reshape(
        n_rows, n_cls + 1)


def knn_label(tree: cKDTree, fused_labels: np.ndarray, queries: np.ndarray,
              k: int, n_cls: int) -> np.ndarray:
    """Majority label of the k nearest points of `tree` per row of the (Q, 3)
    float array `queries` (Euclidean).

    `tree` is a ``cKDTree`` built with the default parameters, over the
    whole fused cloud or over a window of it; `fused_labels` is aligned
    with its data.  Which of several points tied at the k-th distance joins
    the k-set depends on the tree, so :func:`make_occupancy` calls this on
    a window only for queries whose k-set the window fixes (see the module
    docstring).  Vote ties go to the smaller class id, with empty last.
    """
    if tree.n == 0:
        raise ValueError("cannot KNN-label against an empty fused cloud")
    if k < 1:
        raise ValueError("k must be >= 1")
    fl = validate_labels(fused_labels, tree.n, n_cls)
    n_q, k_eff = queries.shape[0], min(k, tree.n)

    _, idx = tree.query(queries, k=k_eff)
    idx = np.asarray(idx).reshape(n_q, k_eff)
    votes = _votes(np.repeat(np.arange(n_q), k_eff), fl[idx].ravel(), n_q, n_cls)

    order = _tie_order(n_cls)
    return order[np.argmax(votes[:, order], axis=1)]


def voxelize_bev(cloud: PointCloud, labels: np.ndarray,
                 spec: GridSpec) -> OccupancyGrid:
    """Bin points to BEV cells; each cell takes its plurality label.

    Cells without points stay 0.  The result is exactly permutation
    invariant in point order (integer vote counts).
    """
    lab = validate_labels(labels, len(cloud), spec.n_cls)
    ii, jj, ok = spec.bin_points(cloud.xyz)
    votes = _votes(ii[ok] * spec.w + jj[ok], lab[ok], spec.h * spec.w, spec.n_cls)

    order = _tie_order(spec.n_cls)
    winner = order[np.argmax(votes[:, order], axis=1)]
    winner[votes.sum(axis=1) == 0] = 0
    return OccupancyGrid(spec, winner.reshape(spec.h, spec.w))


def _window(xyz: np.ndarray, spec: GridSpec, cells: np.ndarray,
            half: float) -> np.ndarray:
    """Ascending indices of the points of `xyz` that may lie within `half`
    of the column center of a cell of the (H, W) bool mask `cells`.

    A point is kept when its z lies within ``half`` of ``z_mid``, plus a
    rounding slack, and its xy cell (off the grid too) lies within
    ``ceil(half / cell)`` cells of a masked cell, as one 2-D cumulative
    count of the mask tells.  A point in a cell farther out lies at least
    ``half`` + cell/2 from each masked center along x or y: rounding moves
    a cell index only for a point within rounding of a cell edge, and the
    nearest such edge is that far out.  So every point left out is farther
    than ``half`` from every masked center, by a margin far above the
    rounding of a computed distance.  The cull makes no float temporary
    the size of the cloud: on the whole cloud it only compares z, and it
    bins the z band ``_BIN_CHUNK`` points at a time.
    """
    pad = half + 1e-6 * (half + abs(spec.z_mid))
    z = xyz[:, 2]
    band = np.flatnonzero((z >= spec.z_mid - pad) & (z <= spec.z_mid + pad))
    reach = math.ceil(half / spec.cell_size)
    count = np.zeros((spec.h + 1, spec.w + 1), dtype=np.int64)
    count[1:, 1:] = cells.cumsum(axis=0).cumsum(axis=1)
    keep = np.empty(band.size, dtype=bool)
    for at in range(0, band.size, _BIN_CHUNK):
        ii, jj, _ = spec.bin_points(xyz[band[at:at + _BIN_CHUNK]])
        i0, i1 = np.clip(ii - reach, 0, spec.h), np.clip(ii + reach + 1, 0, spec.h)
        j0, j1 = np.clip(jj - reach, 0, spec.w), np.clip(jj + reach + 1, 0, spec.w)
        keep[at:at + _BIN_CHUNK] = (count[i1, j1] - count[i0, j1]
                                    - count[i1, j0] + count[i0, j0]) > 0
    return band[keep]


def make_occupancy(seq: LidarSequence, spec: GridSpec, keyframe: int,
                   densify: bool, radius: float, k: int) -> OccupancyGrid:
    """Occupancy of `seq` at `keyframe`: aggregate -> voxelize (+ KNN densify).

    Densification labels only currently-empty cells whose 3D column center
    (cell center at mid column height) lies within `radius` of any fused
    point, so it can only add occupied cells, never remove them.  The
    radius test and the k nearest neighbor vote each query a KD-tree over a
    window of the fused cloud (:func:`_window`); the vote widens its window
    by doubling until every cell's k-set is fixed, and labels what is left
    at the last round with one tree over the whole cloud.  The grid equals
    that of one tree over the whole cloud for both steps, bit for bit (the
    module docstring gives the argument).  The split inside `aggregate`
    culls each box's exact point test by a bounding circle.
    """
    fused, fused_labels = aggregate(seq, keyframe)
    grid = voxelize_bev(fused, fused_labels, spec)
    if not densify or len(fused) == 0:
        return grid

    empty = grid.labels == 0
    empty_i, empty_j = np.nonzero(empty)
    if empty_i.size == 0:
        return grid
    xx, yy = spec.cell_centers()
    centers = np.stack([xx[empty_i, empty_j], yy[empty_i, empty_j],
                        np.full(empty_i.size, spec.z_mid)], axis=-1)
    tree = cKDTree(fused.xyz[_window(fused.xyz, spec, empty, radius)])
    near = np.flatnonzero(
        tree.query_ball_point(centers, r=radius, return_length=True) > 0)
    if near.size == 0:
        return grid

    n, kq = len(fused), min(k, len(fused))
    out = grid.labels.copy()
    rest, half = near, 2.0 * radius
    while True:
        cells = np.zeros_like(empty)
        cells[empty_i[rest], empty_j[rest]] = True
        pts = _window(fused.xyz, spec, cells, half)
        if pts.size == n:
            break
        tree = cKDTree(fused.xyz[pts])
        dist, _ = tree.query(centers[rest], k=kq + 1)
        fixed = (dist[:, kq] <= half) & (dist[:, kq - 1] < dist[:, kq])
        out[empty_i[rest[fixed]], empty_j[rest[fixed]]] = knn_label(
            tree, fused_labels[pts], centers[rest[fixed]], k, n_cls=spec.n_cls)
        rest, half = rest[~fixed], 2.0 * half
        if rest.size == 0:
            return OccupancyGrid(spec, out)
        # a window that would cover the cloud's bounding box is the cloud;
        # per column, as a reduction along axis 0 of (N, 3) is slower
        lo = np.array([fused.xyz[:, a].min() for a in range(3)])
        hi = np.array([fused.xyz[:, a].max() for a in range(3)])
        c = centers[rest]
        if np.maximum(hi - c, c - lo).max(axis=1).min() <= half:
            break
    # the last round: one tree over the whole cloud labels every cell left
    out[empty_i[rest], empty_j[rest]] = knn_label(
        cKDTree(fused.xyz), fused_labels, centers[rest], k, n_cls=spec.n_cls)
    return OccupancyGrid(spec, out)
