"""Independent oracles shared by the test suite.

Everything here deliberately uses a *different* algorithm from the library
path it checks: exhaustive scans instead of KD-trees, per-cell loops
instead of single-pass binning, explicit enumeration instead of closed
forms.  Keep it that way.  The exceptions are the ``*_reference``
functions, whose docstrings say why.
"""

from __future__ import annotations

import math

import numpy as np

from occspot.balance import default_loss_weights
from occspot.cloud import BoxLabel, PointCloud
from occspot.synth import _RAY_EPS, RANGE_NORM, _ray_box_hits, _ray_directions


def point_in_box_brute(p, box: BoxLabel, atol: float = 0.0) -> bool:
    """Oriented-box membership via explicit corner-frame arithmetic."""
    dx, dy, dz = p[0] - box.cx, p[1] - box.cy, p[2] - box.cz
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    lx = c * dx + s * dy       # rotate by -yaw, written out longhand
    ly = -s * dx + c * dy
    return (abs(lx) <= box.l / 2 + atol and abs(ly) <= box.w / 2 + atol
            and abs(dz) <= box.h / 2 + atol)


def box_surface_distance(p, box: BoxLabel) -> float:
    """Unsigned distance from a point to the box surface."""
    dx, dy, dz = p[0] - box.cx, p[1] - box.cy, p[2] - box.cz
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    local = np.array([c * dx + s * dy, -s * dx + c * dy, dz])
    half = np.array([box.l, box.w, box.h]) / 2.0
    excess = np.abs(local) - half
    if (excess > 0).any():
        return float(np.linalg.norm(np.maximum(excess, 0.0)))
    return float((-excess).min())  # inside: distance to the nearest face


def scene_surface_distance(p, scene) -> float:
    """Distance to the closest scene surface (ground plane or any box)."""
    best = math.inf
    if scene.ground_z is not None:
        best = abs(p[2] - scene.ground_z)
    for obj in scene.objects:
        best = min(best, box_surface_distance(p, obj.box))
    return best


def scan_reference(scene, beams, sensor_pose, time_s: float = 0.0):
    """Unculled ``synth.scan``: the slab test on every ray for every box.

    Unlike the other oracles here, this one shares the library's slab
    arithmetic (``_ray_box_hits``) on purpose.  It is the reference for the
    bounding-sphere cull in ``scan``, and the property under test is
    bit-identity: the cull may skip only rays that miss the box, and must
    never change a hit distance or label.  Updates use ``np.where`` over
    all rays, as ``scan`` did before the cull.
    """
    dirs_sensor = _ray_directions(beams)
    dirs_world = dirs_sensor @ sensor_pose.rotation.T
    origin = sensor_pose.translation
    best_t = np.full(dirs_world.shape[0], np.inf)
    best_label = np.zeros(dirs_world.shape[0], dtype=np.int64)
    if scene.ground_z is not None:
        dz = dirs_world[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_ground = (scene.ground_z - origin[2]) / dz
        ok = (dz != 0.0) & (t_ground > _RAY_EPS)
        best_t = np.where(ok, t_ground, np.inf)
        best_label = np.where(ok, scene.ground_class, 0)
    for obj in scene.objects:
        t_box = _ray_box_hits(origin, dirs_world, obj.box.at_time(time_s))
        closer = t_box < best_t
        best_t = np.where(closer, t_box, best_t)
        best_label = np.where(closer, obj.surface_class, best_label)
    hit = np.isfinite(best_t)
    t = best_t[hit]
    return (PointCloud(dirs_sensor[hit] * t[:, None], (t / RANGE_NORM)[:, None]),
            best_label[hit])


def split_reference(cloud, boxes, speed_threshold=None, atol: float = 0.0):
    """Unculled ``occupancy.split_dynamic_static``: every point, every box.

    Like :func:`scan_reference`, this shares the library's exact test
    (``BoxLabel.contains``) on purpose: it is the reference for the
    bounding-circle cull, and the property under test is that the cull
    skips only points the exact test rejects.  Returns the
    ``(static_index, dynamic_index, box_index)`` arrays.
    """
    owner = np.full(len(cloud), -1, dtype=np.int64)
    for bi, box in enumerate(boxes):
        fast = speed_threshold is not None and box.speed > speed_threshold
        if box.is_dynamic or fast:
            owner[box.contains(cloud.xyz, atol=atol) & (owner == -1)] = bi
    dynamic = np.nonzero(owner >= 0)[0]
    return np.nonzero(owner == -1)[0], dynamic, owner[dynamic]


def pillar_features_reference(cloud, spec, cfg) -> np.ndarray:
    """``learn.model.pillar_features`` with its sums scattered by ``np.add.at``.

    Shares the library's per-point columns on purpose: the property under
    test is that one ``np.bincount`` per column adds the same values in the
    same order as ``np.add.at``, so the means are bit-identical.
    """
    out = np.zeros((spec.h, spec.w, cfg.pillar_dim))
    ii, jj, ok = spec.bin_points(cloud.xyz)
    if not ok.any():
        return out
    ii, jj, xyz = ii[ok], jj[ok], cloud.xyz[ok]
    cx = spec.origin_x + (jj + 0.5) * spec.cell_size
    cy = spec.origin_y + (ii + 0.5) * spec.cell_size
    cols = np.concatenate([
        cloud.feat[ok],
        ((xyz[:, 0] - cx) / spec.cell_size)[:, None],
        ((xyz[:, 1] - cy) / spec.cell_size)[:, None],
        ((xyz[:, 2] - spec.z_mid) / (spec.z_max - spec.z_min))[:, None],
    ], axis=1)
    flat = ii * spec.w + jj
    sums = np.zeros((spec.h * spec.w, cfg.pillar_dim))
    np.add.at(sums, flat, cols)
    counts = np.bincount(flat, minlength=spec.h * spec.w).astype(np.float64)
    occupied = counts > 0
    sums[occupied] /= counts[occupied, None]
    return sums.reshape(spec.h, spec.w, cfg.pillar_dim)


def knn_label_brute(fused_xyz, fused_labels, queries, k, n_cls=15,
                    tie_weights=None) -> np.ndarray:
    """Exhaustive nearest-neighbor majority labeling, one query at a time."""
    w = default_loss_weights(n_cls) if tie_weights is None else np.asarray(tie_weights)
    out = np.empty(len(queries), dtype=np.int64)
    for qi, q in enumerate(np.atleast_2d(queries)):
        d2 = ((fused_xyz - q) ** 2).sum(axis=1)
        nearest = np.argsort(d2, kind="stable")[:min(k, len(fused_xyz))]
        votes: dict[int, int] = {}
        for lbl in fused_labels[nearest]:
            votes[int(lbl)] = votes.get(int(lbl), 0) + 1
        out[qi] = max(votes, key=lambda c: (votes[c], w[c], -c))
    return out


def voxelize_brute(xyz, labels, spec, tie_weights=None) -> np.ndarray:
    """O(N * H * W) per-cell voting oracle."""
    w = default_loss_weights(spec.n_cls) if tie_weights is None else np.asarray(tie_weights)
    grid = np.zeros((spec.h, spec.w), dtype=np.int64)
    for i in range(spec.h):
        y0 = spec.origin_y + i * spec.cell_size
        in_row = (xyz[:, 1] >= y0) & (xyz[:, 1] < y0 + spec.cell_size)
        for j in range(spec.w):
            x0 = spec.origin_x + j * spec.cell_size
            sel = (in_row & (xyz[:, 0] >= x0) & (xyz[:, 0] < x0 + spec.cell_size)
                   & (xyz[:, 2] >= spec.z_min) & (xyz[:, 2] <= spec.z_max))
            if not sel.any():
                continue
            votes: dict[int, int] = {}
            for lbl in labels[sel]:
                votes[int(lbl)] = votes.get(int(lbl), 0) + 1
            grid[i, j] = max(votes, key=lambda c: (votes[c], w[c], -c))
    return grid


def jaccard_loss_brute(pred_mask, gt_mask) -> float:
    """1 - IoU by explicit set counting; empty/empty counts as IoU 1."""
    inter = int(np.logical_and(pred_mask, gt_mask).sum())
    union = int(np.logical_or(pred_mask, gt_mask).sum())
    return 0.0 if union == 0 else 1.0 - inter / union


def rel_err(a: float, b: float, floor: float = 1e-300) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def grad_rel_err(fd: np.ndarray, an: np.ndarray) -> float:
    """Norm-relative gradient mismatch used by the full-tensor FD checks."""
    denom = max(np.abs(fd).max(), np.abs(an).max(), 1e-300)
    return float(np.abs(fd - an).max() / denom)


def central_diff(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Dense central-difference gradient of a scalar function of an array."""
    g = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


def directional_diff(f, x: np.ndarray, d: np.ndarray, h: float = 1e-5) -> float:
    return (f(x + h * d) - f(x - h * d)) / (2 * h)


def lovasz_region_signature(pred, gt, classes="present") -> tuple:
    """Identify the linear region of the Lovász term at this input.

    The loss is piecewise linear in the probabilities; its gradient is
    constant while the descending error sort keeps the same foreground
    pattern per class.  Central differences are only meaningful when the
    probe points share a region, so FD checks compare this signature at
    x - h*d, x and x + h*d and skip directions that straddle a kink.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt)
    flat_p = pred.reshape(-1, pred.shape[-1])
    flat_gt = gt.reshape(-1)
    if classes == "present":
        active = [n for n in np.unique(flat_gt) if n != 0]
    else:
        active = list(range(1, pred.shape[-1]))
    sig = []
    for n in active:
        fg = flat_gt == n
        errors = np.where(fg, 1.0 - flat_p[:, n], flat_p[:, n])
        perm = np.argsort(-errors, kind="stable")
        sig.append(fg[perm].tobytes())
    return tuple(sig)


def guarded_directional_checks(loss_fn, grad_vec_fn, signature_fn,
                               x: np.ndarray, rng: np.random.Generator,
                               n_dirs: int = 3, h: float = 1e-5,
                               max_tries: int = 60) -> list[tuple[float, float]]:
    """(finite difference, analytic) pairs along kink-free random directions.

    Directions whose probe segment crosses a non-differentiable point (the
    region signature changes) are skipped; the check is only defined where
    the gradient exists.  Raises if too few clean directions are found.
    """
    an_grad = grad_vec_fn(x)
    out = []
    for _ in range(max_tries):
        if len(out) == n_dirs:
            break
        d = rng.normal(size=x.shape)
        d /= np.linalg.norm(d)
        sigs = {signature_fn(x - h * d), signature_fn(x), signature_fn(x + h * d)}
        if len(sigs) != 1:
            continue
        fd = (loss_fn(x + h * d) - loss_fn(x - h * d)) / (2 * h)
        out.append((fd, float((an_grad * d).sum())))
    if len(out) < n_dirs:
        raise RuntimeError(f"only {len(out)} kink-free directions in {max_tries} tries")
    return out
