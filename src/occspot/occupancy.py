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

Nearest means smallest squared distance, summed over x, then y, then z; a
tie at the k-th distance goes to the lower fused-point index, in the order
:func:`aggregate` emits.  So the grid depends on the points alone, not on
the structure that searches them.

The search is exact and runs over the BEV cells (:func:`knn_label`).
Every fused point is binned once (``GridSpec.bin_points``), and the bins
serve the votes of :func:`voxelize_bev`, the windows and the searches.
The working set is compact: fused labels are uint8 from the SPTL bytes to
the vote, and the bins are int32, each floored index clipped to
``+-2**30`` first, so an index in the grid never changes and a far point
stays far.  Only the subsets that need it are widened to int64: the flat
cells of the points in the grid, a window's ``+-reach`` (capped where it
already spans every clipped index) and the search's bucket keys.  Votes
are counted over fixed-size chunks of points, exact since the counts are
integers.  A round at half-width ``h`` first takes the window of the cloud
(``_window``): the points whose z lies within ``h`` of the column centers'
height and whose xy cell lies within ``ceil(h / cell)`` cells of one of the
cells in question.  A z slack and the half cell between the window's last
cell and ``h`` cover rounding, so every point left out is farther than
``h`` from each of those centers, in computed distance too.  A cell's
candidates are the window's points in the cells within that reach of it
(``_pairs``), and only the pairs at squared distance at most ``h**2``
count.  The first round has ``h = radius`` and takes every empty cell.

- **Radius test** (the first round): a cell with no counted pair has no
  point of the whole cloud within the radius of its center, and stays 0.
- **Neighbor vote**: a cell with at least k counted pairs is labeled from
  its k nearest among them.  No point outside them comes within ``h``, so
  they are the whole cloud's k nearest, ties included.  The other cells go
  to the next round with ``h`` doubled.
- **Termination**: once ``h`` passes a cell's k-th nearest distance, all
  of those k points lie within ``h`` and the window keeps them, so they
  are counted pairs and the cell is fixed.  Since ``h`` doubles, every
  cell is fixed in finitely many rounds (k is capped at the cloud's size).

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
from typing import Sequence

import numpy as np

from .cloud import BoxLabel, FieldError, LidarSequence, validate_labels

__all__ = [
    "CLASS_NAMES", "DEFAULT_N_CLS", "GridSpec", "OccupancyGrid",
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

#: (query, point) pairs the neighbor search holds at a time
_PAIRS = 1 << 16
#: points whose votes :func:`voxelize_bev` counts at a time
_CHUNK = 1 << 16
#: floored cell indices are clipped to +-_BIN_LIMIT before the int32 cast
_BIN_LIMIT = 1 << 30


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
        """Cell indices (i along y, j along x), two (N,) int32 arrays, and
        the (N,) bool in-bounds mask.

        Each floored index is clipped to ``+-2**30`` before the cast.  An
        index inside the grid never changes, and a point far off the grid
        keeps an index at least ``2**30 - max(h, w)`` cells off it, where a
        bare cast would wrap or fail.
        """
        xyz = np.asarray(xyz, dtype=np.float64)
        jj = _cell_index(xyz[:, 0], self.origin_x, self.cell_size)
        ii = _cell_index(xyz[:, 1], self.origin_y, self.cell_size)
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


def _cell_index(v: np.ndarray, origin: float, cell: float) -> np.ndarray:
    """``floor((v - origin) / cell)`` clipped to ``+-_BIN_LIMIT``, as int32."""
    f = v - origin
    f /= cell
    np.floor(f, out=f)
    return np.clip(f, -_BIN_LIMIT, _BIN_LIMIT, out=f).astype(np.int32)


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


def split_dynamic_static(xyz: np.ndarray, boxes: Sequence[BoxLabel],
                         atol: float) -> np.ndarray:
    """The (N,) int64 owner of each of the (N, 3) points `xyz`: the index of
    the dynamic box it lies in (inclusive bounds), or -1 for a static point.

    A box is dynamic iff its ``is_dynamic`` flag is set; its speed plays no
    part.  Points inside several dynamic boxes go to the lowest box index.
    `atol` inflates boxes slightly; sensor returns lie exactly on surfaces,
    so a strict test would drop them to float noise.

    Each box runs the exact ``BoxLabel.contains`` only on the unowned points
    inside the xy circle around its inflated footprint.  The circle's
    radius is widened by margins far above the rounding error of both
    tests, so no point the exact test accepts is skipped.
    """
    owner = np.full(len(xyz), -1, dtype=np.int64)
    x = np.ascontiguousarray(xyz[:, 0])
    y = np.ascontiguousarray(xyz[:, 1])
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
        owner[cand[box.contains(xyz[cand], atol=atol)]] = bi
    return owner


def _rotate_z(xy: np.ndarray, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    out = np.empty_like(xy)
    out[:, 0] = c * xy[:, 0] - s * xy[:, 1]
    out[:, 1] = s * xy[:, 0] + c * xy[:, 1]
    return out


def aggregate(seq: LidarSequence, keyframe: int) -> tuple[np.ndarray, np.ndarray]:
    """Fuse a sequence into one labeled world-frame cloud: ``(xyz,
    labels)``, the (N, 3) fused points and their (N,) uint8 labels.

    Static points map straight through each frame's pose.  Dynamic points
    are lifted into their box's canonical frame at the source frame, then
    re-posed at the box's keyframe pose; boxes correspond across frames by
    list position, which ``LidarSequence`` checks.  Output preserves
    per-frame point order and total count.  Each frame is written into its
    slice of the fused arrays, with the arithmetic of ``Pose.apply``, and
    nothing is copied after: the grid reads no point features, so none are
    fused.  A fused coordinate past +-1e150 m, or NaN, is a ValueError.
    """
    if not 0 <= keyframe < len(seq.frames):
        raise ValueError(f"keyframe {keyframe} out of range")
    key_boxes = seq.boxes[keyframe]
    n = sum(len(frame) for frame in seq.frames)
    xyz = np.empty((n, 3))
    labels = np.empty(n, dtype=np.uint8)
    at = 0
    for frame, lab, pose, boxes in zip(seq.frames, seq.labels, seq.poses,
                                       seq.boxes):
        part = slice(at, at + len(frame))
        at = part.stop
        labels[part] = validate_labels(lab, len(frame), n_cls=255)
        world = xyz[part]
        np.matmul(frame.xyz, pose.rotation.T, out=world)
        world += pose.translation
        if not any(box.is_dynamic for box in boxes):
            continue
        owner = split_dynamic_static(world, boxes, atol=1e-9)
        dynamic = np.flatnonzero(owner >= 0)
        for bi in np.unique(owner[dynamic]):
            src, dst = boxes[bi], key_boxes[bi]
            pts = dynamic[owner[dynamic] == bi]
            local = world[pts] - src.center
            local[:, :2] = _rotate_z(local[:, :2], -src.yaw)
            local[:, :2] = _rotate_z(local[:, :2], dst.yaw)
            world[pts] = local + dst.center
    # squares of |x| <= 1e150 stay finite (|x| > 1.3e154 overflows to inf)
    if n and not (-1e150 <= xyz.min() and xyz.max() <= 1e150):
        raise ValueError("point coordinates must be finite")
    return xyz, labels


def _tie_order(n_cls: int) -> np.ndarray:
    """Class ids in the order that wins ties: ``1..n_cls``, then empty."""
    return np.append(np.arange(1, n_cls + 1), 0)


def _votes(rows: np.ndarray, classes: np.ndarray, n_rows: int,
           n_cls: int) -> np.ndarray:
    """(n_rows, n_cls + 1) integer counts of each (row, class) pair."""
    flat = rows * (n_cls + 1) + classes
    return np.bincount(flat, minlength=n_rows * (n_cls + 1)).reshape(
        n_rows, n_cls + 1)


def _plurality(votes: np.ndarray, n_cls: int) -> np.ndarray:
    """The winning class of each row of `votes` (see :func:`_tie_order`)."""
    order = _tie_order(n_cls)
    return order[np.argmax(votes[:, order], axis=1)]


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances of the broadcast rows of `a` and `b`, summed over x,
    then y, then z: every search and check ranks by these bits."""
    d = a - b
    d *= d
    return d[..., 0] + d[..., 1] + d[..., 2]


def _nearest_vote(q: np.ndarray, pt: np.ndarray, d2: np.ndarray, n_q: int,
                  kq: int, fused_labels: np.ndarray, n_cls: int):
    """``(fixed, labels)`` of the ``n_q`` queries of the pairs ``(q, pt,
    d2)``, ordered by query: a query with at least `kq` pairs is fixed, and
    its label is the majority of its `kq` pairs that rank first by
    (``d2``, ``pt``)."""
    n = np.bincount(q, minlength=n_q)
    fixed = n >= kq
    if not fixed.any():
        return fixed, np.zeros(0, dtype=np.int64)
    take = fixed[q]
    n = n[fixed]
    row = (np.cumsum(fixed) - 1)[q[take]]
    col = np.arange(row.size) - np.repeat(np.cumsum(n) - n, n)
    dist = np.full((n.size, n.max()), np.inf)
    dist[row, col] = d2[take]
    idx = np.zeros(dist.shape, dtype=np.int64)
    idx[row, col] = pt[take]
    # each row takes every entry below its kq-th distance, then the lowest
    # indices among those tied at it
    kth = np.partition(dist, kq - 1, axis=1)[:, kq - 1, None]
    nearest = dist < kth
    tied = dist == kth
    left = kq - nearest.sum(axis=1)
    over = np.flatnonzero(tied.sum(axis=1) > left)
    if over.size:   # more ties at the kq-th distance than places left
        ids = np.where(tied[over], idx[over], np.iinfo(np.int64).max)
        cut = np.sort(ids, axis=1)[np.arange(over.size), left[over] - 1]
        tied[over] &= ids <= cut[:, None]
    row, col = np.nonzero(nearest | tied)
    votes = _votes(row, fused_labels[idx[row, col]], n.size, n_cls)
    return fixed, _plurality(votes, n_cls)


def voxelize_bev(bins: tuple[np.ndarray, np.ndarray, np.ndarray],
                 labels: np.ndarray, spec: GridSpec) -> OccupancyGrid:
    """Each BEV cell's plurality label over the points ``spec.bin_points``
    binned as `bins`.

    Cells without points stay 0; votes are counted and compared only for
    the cells that hold a point, each numbered by its rank among them.
    Hits and votes are counted over chunks of ``_CHUNK`` points, so no
    array spans the cloud; the counts are integers, so their sums equal
    one count over all points, and the result is exactly permutation
    invariant in point order.
    """
    ii, jj, ok = bins
    lab = validate_labels(labels, ii.size, spec.n_cls)
    chunks = [slice(a, a + _CHUNK) for a in range(0, ii.size, _CHUNK)]

    def cells(part: slice) -> tuple[np.ndarray, np.ndarray]:
        """The flat cells of the in-bounds points of `part`, and their mask."""
        keep = ok[part]
        cell = ii[part][keep].astype(np.int64)
        cell *= spec.w
        cell += jj[part][keep]
        return cell, keep

    hits = np.zeros(spec.h * spec.w, dtype=np.int64)
    for part in chunks:
        hits += np.bincount(cells(part)[0], minlength=hits.size)
    held = np.flatnonzero(hits)
    rank = np.cumsum(hits > 0) - 1
    votes = np.zeros((held.size, spec.n_cls + 1), dtype=np.int64)
    for part in chunks:
        cell, keep = cells(part)
        votes += _votes(rank[cell], lab[part][keep], held.size, spec.n_cls)
    winner = np.zeros(spec.h * spec.w, dtype=np.int64)
    winner[held] = _plurality(votes, spec.n_cls)
    return OccupancyGrid(spec, winner.reshape(spec.h, spec.w))


def _reach(half: float, spec: GridSpec) -> int:
    """``ceil(half / cell)``, the cells a window reaches out from a cell,
    capped at ``2 * _BIN_LIMIT``: that reach already spans every clipped
    index from every cell, so the cap leaves each window unchanged."""
    return math.ceil(min(half / spec.cell_size, 2 * _BIN_LIMIT))


def _window(z: np.ndarray, ii: np.ndarray, jj: np.ndarray, spec: GridSpec,
            cells: np.ndarray, half: float) -> np.ndarray:
    """Ascending indices of the points (heights `z`, cells ``ii``, ``jj``)
    that may lie within `half` of the column center of a cell of the (H, W)
    bool mask `cells`.

    A point is kept when its z lies within ``half`` of ``z_mid``, plus a
    rounding slack, and its xy cell (off the grid too) lies within
    ``ceil(half / cell)`` cells of a masked cell, as one 2-D cumulative
    count of the mask tells.  A point in a cell farther out lies at least
    ``half`` + cell/2 from each masked center along x or y: rounding moves
    a cell index only for a point within rounding of a cell edge, and the
    nearest such edge is that far out.  So every point left out is farther
    than ``half`` from every masked center, by a margin far above the
    rounding of a computed distance.
    """
    pad = half + 1e-6 * (half + abs(spec.z_mid))
    band = np.flatnonzero((z >= spec.z_mid - pad) & (z <= spec.z_mid + pad))
    reach = np.int64(_reach(half, spec))  # so the int32 bins sum in int64
    count = np.zeros((spec.h + 1, spec.w + 1), dtype=np.int64)
    count[1:, 1:] = cells.cumsum(axis=0).cumsum(axis=1)
    ii, jj = ii[band], jj[band]
    i0, i1 = np.clip(ii - reach, 0, spec.h), np.clip(ii + (reach + 1), 0, spec.h)
    j0, j1 = np.clip(jj - reach, 0, spec.w), np.clip(jj + (reach + 1), 0, spec.w)
    return band[(count[i1, j1] - count[i0, j1] - count[i1, j0]
                 + count[i0, j0]) > 0]


def _pairs(xyz: np.ndarray, ii: np.ndarray, jj: np.ndarray, pts: np.ndarray,
           qi: np.ndarray, qj: np.ndarray, centers: np.ndarray, half: float,
           spec: GridSpec):
    """Chunks ``(queries, q, point, d2)`` of the (query, point) pairs within
    `half` of each other: squared distance ``d2`` at most ``half**2``.

    Query ``q`` of the slice ``queries`` lies in cell ``(qi, qj)`` at
    ``centers``.  Its candidates are the points of the window `pts` whose
    cell (``ii``, ``jj``) lies within ``ceil(half / cell)`` cells of its own
    along both axes, which holds every point within `half` (see
    :func:`_window`).  The window is bucketed by cell with one sort, so a
    query's candidates in one bucket row are one slice of the sorted points,
    found by binary search, and the slices of every query and row expand in
    one pass.  Only the bucket rows that hold a point take a slice, and no
    table spans the window's cells, so a window that reaches far costs its
    points, not its area.  ``q`` ascends, and a chunk holds about
    ``_PAIRS`` candidates.
    """
    if pts.size == 0:
        return
    reach = _reach(half, spec)
    pi, pj = ii[pts].astype(np.int64), jj[pts].astype(np.int64)
    i0, j0 = pi.min(), pj.min()
    cols = int(pj.max() - j0) + 1
    key = (pi - i0) * cols + (pj - j0)
    order = np.argsort(key)
    pts, key = pts[order], key[order]
    coords = xyz[pts]
    # the bucket rows that hold a point, ascending, and the span of them
    # that each query's reach meets
    pi = pi[order] - i0
    rows = pi[np.flatnonzero(np.diff(pi, prepend=-1))]
    first = np.searchsorted(rows, qi - i0 - reach)
    end = np.searchsorted(rows, qi - i0 + reach, side="right")
    # one slice per (query, bucket row) that the query's reach meets
    at = first[:, None] + np.arange((end - first).max())
    meets = at < end[:, None]
    row = rows[np.minimum(at, rows.size - 1)] * cols
    lo = np.searchsorted(key, row + np.clip(qj - reach - j0, 0, cols)[:, None])
    hi = np.searchsorted(key, row + np.clip(qj + reach + 1 - j0, 0, cols)[:, None])
    count = np.where(meets, hi - lo, 0)
    per_query = count.sum(axis=1)
    before = np.cumsum(per_query) - per_query
    a = 0
    while a < qi.size:
        b = max(a + 1, int(np.searchsorted(before, before[a] + _PAIRS)))
        n = count[a:b].ravel()
        pos = np.repeat(lo[a:b].ravel() - (np.cumsum(n) - n), n)
        pos += np.arange(pos.size)
        q = np.repeat(np.arange(b - a), per_query[a:b])
        d2 = _sq_dist(coords[pos], centers[a:b][q])
        keep = d2 <= half * half
        yield slice(a, b), q[keep], pts[pos[keep]], d2[keep]
        a = b


def knn_label(xyz: np.ndarray, fused_labels: np.ndarray,
              bins: tuple[np.ndarray, np.ndarray, np.ndarray],
              cells: np.ndarray, spec: GridSpec, radius: float,
              k: int) -> np.ndarray:
    """The label of each cell of the (H, W) bool mask `cells`, in row-major
    order: 0 unless a point of the (N, 3) fused cloud `xyz` lies within
    `radius` of the cell's column center (cell center at ``z_mid``), and
    otherwise the majority of the cell's k nearest points.

    `bins` is ``spec.bin_points(xyz)`` and `fused_labels` is aligned with
    `xyz`.  Nearest ranks by squared distance and then by fused index, and
    vote ties go to the smaller class id, with empty last.  The rounds of
    the module docstring find every label exactly.
    """
    fused_labels = validate_labels(fused_labels, len(xyz), spec.n_cls)
    kq = min(k, len(xyz))
    ii, jj, _ = bins
    qi, qj = np.nonzero(cells)
    xx, yy = spec.cell_centers()
    centers = np.stack([xx[qi, qj], yy[qi, qj], np.full(qi.size, spec.z_mid)],
                       axis=-1)
    out = np.zeros(qi.size, dtype=np.int64)
    rest, half = np.arange(qi.size), radius
    while rest.size:
        mask = np.zeros_like(cells)
        mask[qi[rest], qj[rest]] = True
        pts = _window(xyz[:, 2], ii, jj, spec, mask, half)
        # a cell without a pair in the first round is far, and stays 0
        first = half == radius
        done = np.full(rest.size, first)
        for queries, q, pt, d2 in _pairs(xyz, ii, jj, pts, qi[rest], qj[rest],
                                         centers[rest], half, spec):
            n_q = len(done[queries])
            fixed, labels = _nearest_vote(q, pt, d2, n_q, kq, fused_labels,
                                          spec.n_cls)
            out[rest[queries][fixed]] = labels
            done[queries] = fixed | first & (np.bincount(q, minlength=n_q) == 0)
        rest, half = rest[~done], 2.0 * half
    return out


def make_occupancy(seq: LidarSequence, spec: GridSpec, keyframe: int,
                   densify: bool, radius: float, k: int) -> OccupancyGrid:
    """Occupancy of `seq` at `keyframe`: aggregate -> voxelize (+ KNN densify).

    Densification labels only currently-empty cells, with
    :func:`knn_label`: a cell whose column center lies within `radius` of a
    fused point takes the majority label of its k nearest fused points, so
    densification can only add occupied cells, never remove them.  The
    split inside `aggregate` culls each box's exact point test by a
    bounding circle.  The fused points are built once, in place, and every
    step reads that one array.
    """
    xyz, fused_labels = aggregate(seq, keyframe)
    bins = spec.bin_points(xyz)
    grid = voxelize_bev(bins, fused_labels, spec)
    if not densify:
        return grid
    out = grid.labels.copy()
    empty = out == 0
    out[empty] = knn_label(xyz, fused_labels, bins, empty, spec, radius, k)
    return OccupancyGrid(spec, out)
