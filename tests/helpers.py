"""Independent oracles shared by the test suite.

Everything here deliberately uses a *different* algorithm from the library
path it checks: exhaustive scans instead of cell searches, per-cell loops
instead of single-pass binning, explicit enumeration instead of closed
forms.  Keep it that way.  The exceptions are the ``*_reference``
functions, whose docstrings say why.
"""

from __future__ import annotations

import math

import numpy as np

from occspot.augment import beam_resample, random_flip, resample_factor
from occspot.cloud import BoxLabel, PointCloud, transform
from occspot.config import PipelineConfig
from occspot.learn import PILLAR_DIM
from occspot.learn.losses import _check_pair, lovasz_grad
from occspot.learn.model import _patches
from occspot.occupancy import (GridSpec, OccupancyGrid, _rotate_z, aggregate,
                               split_dynamic_static, voxelize_bev)
from occspot.pipeline import sequence_occupancy
from occspot.seeding import substream
from occspot.synth import _RAY_EPS, RANGE_NORM, SceneParams, _ray_directions


def toy_config(**kw) -> PipelineConfig:
    """A small model and training setup: a 32x32 grid at 0.5 m, 15 classes,
    channels (6, 8, 8), 2 epochs at batch 2; `kw` overrides any field."""
    base = dict(
        seed=3, n_sequences=3,
        scene=SceneParams(arena=(-12.0, 12.0, -12.0, 12.0), n_objects=6),
        grid=GridSpec(-8.0, -8.0, 0.5, 32, 32, -1.0, 3.0, 15),
        n_frames=3, channels=(6, 8, 8), epochs=2, batch_size=2,
    )
    base.update(kw)
    return PipelineConfig(**base)


def cloud_of(xyz) -> PointCloud:
    """A cloud of the (N, 3) points `xyz`, each with one zero feature."""
    xyz = np.asarray(xyz, dtype=np.float64)
    return PointCloud(xyz, np.zeros((len(xyz), 1)))


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
    for box in scene.objects:
        best = min(best, box_surface_distance(p, box))
    return best


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


def scan_reference(scene, beams, sensor_pose, time_s: float = 0.0):
    """Unculled, per-box ``synth.scan``: the slab test of each box in turn
    on every ray.

    Unlike the other oracles here, this one shares the library's slab
    arithmetic on purpose: :func:`_ray_box_hits` is the per-box form of
    ``synth._slab_hits``, kept from before the culled, batched ``scan``.
    It is the reference for the sector windows, the sphere test and the
    batched slab test in ``scan``, and the property under test is
    bit-identity: the cull may skip only rays that miss the box, and must
    never change a hit distance or label.  Updates use ``np.where`` over
    all rays, as ``scan`` did before the cull.
    """
    dirs_sensor, _ = _ray_directions(beams)
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
    for box in scene.boxes_at(time_s):
        t_box = _ray_box_hits(origin, dirs_world, box)
        closer = t_box < best_t
        best_t = np.where(closer, t_box, best_t)
        best_label = np.where(closer, box.class_id, best_label)
    hit = np.isfinite(best_t)
    t = best_t[hit]
    return (PointCloud(dirs_sensor[hit] * t[:, None], (t / RANGE_NORM)[:, None]),
            best_label[hit])


def split_reference(xyz, boxes, atol: float = 0.0):
    """Unculled ``occupancy.split_dynamic_static`` of the (N, 3) points
    `xyz`: every point, every box.

    Like :func:`scan_reference`, this shares the library's exact test
    (``BoxLabel.contains``) on purpose: it is the reference for the
    bounding-circle cull, and the property under test is that the cull
    skips only points the exact test rejects.  Returns the (N,) owner
    vector: the first dynamic box holding each point, or -1.
    """
    owner = np.full(len(xyz), -1, dtype=np.int64)
    for bi, box in enumerate(boxes):
        if box.is_dynamic:
            owner[box.contains(xyz, atol=atol) & (owner == -1)] = bi
    return owner


def aggregate_reference(seq, keyframe):
    """``occupancy.aggregate`` in its earlier form: each frame moved by
    ``Pose.apply`` and re-posed on its own array, then every frame's points
    and features concatenated into one ``PointCloud``.

    Like :func:`split_reference`, this shares the library's split and yaw
    rotation on purpose: the property under test is that fusing in place,
    without the features and without the cloud's copy, gives the same bits.
    Returns ``(cloud, labels)``.
    """
    key_boxes = seq.boxes[keyframe]
    parts = []
    for frame, pose, boxes in zip(seq.frames, seq.poses, seq.boxes):
        world = pose.apply(frame.xyz)
        owner = split_dynamic_static(world, boxes, atol=1e-9)
        for bi in np.unique(owner[owner >= 0]):
            src, dst = boxes[bi], key_boxes[bi]
            pts = np.flatnonzero(owner == bi)
            local = world[pts] - src.center
            local[:, :2] = _rotate_z(local[:, :2], -src.yaw)
            local[:, :2] = _rotate_z(local[:, :2], dst.yaw)
            world[pts] = local + dst.center
        parts.append(world)
    cloud = PointCloud(np.concatenate(parts),
                       np.concatenate([frame.feat for frame in seq.frames]))
    return cloud, np.concatenate(seq.labels).astype(np.int64)


def make_occupancy_reference(seq, spec, keyframe, densify, radius, k):
    """``occupancy.make_occupancy`` as a brute force over the whole fused cloud.

    Like :func:`split_reference`, this shares the library's ``aggregate``
    and ``voxelize_bev`` on purpose: it is the reference for the windowed
    cell search, and the property under test is bit-identity, ties at the
    k-th distance included.  An empty cell is near when some point's squared
    distance to its center, summed as :func:`knn_label_brute` sums it, is at
    most ``radius**2``; a near cell takes :func:`knn_label_brute`'s label.
    """
    fused, fused_labels = aggregate(seq, keyframe)
    grid = voxelize_bev(spec.bin_points(fused), fused_labels, spec)
    if not densify or len(fused) == 0:
        return grid

    xx, yy = spec.cell_centers()
    out = grid.labels.copy()
    for i, j in zip(*np.nonzero(grid.labels == 0)):
        q = np.array([[xx[i, j], yy[i, j], spec.z_mid]])
        if (((fused - q) ** 2).sum(axis=1) <= radius * radius).any():
            out[i, j] = knn_label_brute(fused, fused_labels, q, k,
                                        spec.n_cls)[0]
    return OccupancyGrid(spec, out)


def build_samples_reference(seqs, cfg, augment_seed) -> list:
    """``pipeline.build_samples`` in its earlier form: a list of (world-frame
    keyframe cloud, ``OccupancyGrid``) pairs, each flip mirroring a rebuilt
    grid.

    Shares the library's grid, re-sampling and flips on purpose: the
    property under test is that scattering each cloud at build time and
    mirroring the label array give the stacks these pairs give.
    """
    rng = None if augment_seed is None else substream(augment_seed, "augment")
    samples = []
    for seq in seqs:
        grid = sequence_occupancy(seq, cfg)
        cloud = seq.frames[cfg.keyframe]
        if rng is not None and cfg.target_beams:
            target = cfg.target_beams[int(rng.integers(len(cfg.target_beams)))]
            factor = resample_factor(cfg.source_beams, target)
            cloud, _ = beam_resample(cloud, seq.labels[cfg.keyframe], factor,
                                     seed=int(rng.integers(2**63)))
        cloud = transform(cloud, seq.poses[cfg.keyframe])
        if rng is not None:
            if rng.random() < cfg.flip_prob_x:
                cloud = random_flip(cloud, "x")
                grid = OccupancyGrid(grid.spec, grid.labels[::-1])
            if rng.random() < cfg.flip_prob_y:
                cloud = random_flip(cloud, "y")
                grid = OccupancyGrid(grid.spec, grid.labels[:, ::-1])
        samples.append((cloud, grid))
    return samples


def pillar_features_reference(cloud, spec) -> np.ndarray:
    """``learn.model.pillar_features`` with its sums scattered by ``np.add.at``.

    Shares the library's per-point columns on purpose: the property under
    test is that one ``np.bincount`` per column adds the same values in the
    same order as ``np.add.at``, so the means are bit-identical.
    """
    out = np.zeros((spec.h, spec.w, PILLAR_DIM))
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
    sums = np.zeros((spec.h * spec.w, PILLAR_DIM))
    np.add.at(sums, flat, cols)
    counts = np.bincount(flat, minlength=spec.h * spec.w).astype(np.float64)
    occupied = counts > 0
    sums[occupied] /= counts[occupied, None]
    return sums.reshape(spec.h, spec.w, PILLAR_DIM)


def tie_weights(n_cls: int) -> np.ndarray:
    """The weights the voting oracles break ties by, written out: 0.01 on
    empty, 2.0 on the common traffic classes 1-5 and 1.0 on the rest."""
    w = np.full(n_cls + 1, 1.0)
    w[0] = 0.01
    w[1:6] = 2.0
    return w


def knn_label_brute(fused_xyz, fused_labels, queries, k, n_cls) -> np.ndarray:
    """Exhaustive nearest-neighbor majority labeling, one query at a time.
    Ties go to the larger :func:`tie_weights` entry, then the smaller id."""
    w = tie_weights(n_cls)
    out = np.empty(len(queries), dtype=np.int64)
    for qi, q in enumerate(np.atleast_2d(queries)):
        d2 = ((fused_xyz - q) ** 2).sum(axis=1)
        nearest = np.argsort(d2, kind="stable")[:min(k, len(fused_xyz))]
        votes: dict[int, int] = {}
        for lbl in fused_labels[nearest]:
            votes[int(lbl)] = votes.get(int(lbl), 0) + 1
        out[qi] = max(votes, key=lambda c: (votes[c], w[c], -c))
    return out


def voxelize_brute(xyz, labels, spec) -> np.ndarray:
    """O(N * H * W) per-cell voting oracle, with the ties of
    :func:`knn_label_brute`."""
    w = tie_weights(spec.n_cls)
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


def softmax_field_reference(logits) -> np.ndarray:
    """``learn.losses.softmax_field`` with one ``max`` reduction over the
    class axis and out-of-place ``exp`` and divide.

    The same algorithm on purpose: the library halves the class axis for
    its max and must equal this bit for bit."""
    logits = np.asarray(logits)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def weighted_ce_reference(pred, gt, weights) -> tuple[float, np.ndarray]:
    """``learn.losses.weighted_ce`` with the gradient taken as
    ``w / W * (pred - onehot)`` over a dense one-hot; the library writes
    the true-class entries instead and must equal this bit for bit, the
    sign of every zero included."""
    pred, gt = _check_pair(pred, gt)
    w_cell = np.asarray(weights, dtype=pred.dtype)[gt]
    total_w = w_cell.sum()
    p_true = np.take_along_axis(pred, gt[..., None], axis=-1)[..., 0]
    with np.errstate(divide="ignore"):
        loss = float((w_cell * -np.log(p_true)).sum() / total_w)
    onehot = np.zeros_like(pred)
    np.put_along_axis(onehot, gt[..., None], 1.0, axis=-1)
    return loss, (w_cell / total_w)[..., None] * (pred - onehot)


def jaccard_loss_brute(pred_mask, gt_mask) -> float:
    """1 - IoU by explicit set counting; empty/empty counts as IoU 1."""
    inter = int(np.logical_and(pred_mask, gt_mask).sum())
    union = int(np.logical_or(pred_mask, gt_mask).sum())
    return 0.0 if union == 0 else 1.0 - inter / union


def lovasz_softmax_reference(pred, gt, classes: str) -> tuple[float, np.ndarray]:
    """Lovász-Softmax with a full stable sort of every class's errors.

    The library sorts only the head of each order and must equal this bit
    for bit, loss, gradient and the sign of every zero; the same algorithm
    is the point, so it is a reference rather than an independent oracle.
    """
    pred, gt = _check_pair(pred, gt)
    n_classes = pred.shape[-1]
    flat_p = pred.reshape(-1, n_classes)
    flat_gt = gt.reshape(-1)

    if classes == "present":
        active = [n for n in np.unique(flat_gt) if n != 0]
    else:
        active = list(range(1, n_classes))

    grad = np.zeros_like(flat_p)
    if not active:
        return 0.0, grad.reshape(pred.shape)

    loss = 0.0
    for n in active:
        fg = (flat_gt == n).astype(pred.dtype)
        errors = np.where(fg > 0, 1.0 - flat_p[:, n], flat_p[:, n])
        perm = np.argsort(-errors, kind="stable")
        g = lovasz_grad(fg[perm])
        loss += float(errors[perm] @ g)
        g_unsorted = np.empty_like(g)
        g_unsorted[perm] = g
        grad[:, n] += g_unsorted * (1.0 - 2.0 * fg)

    k = len(active)
    return loss / k, (grad / k).reshape(pred.shape)


def total_loss_reference(pred, gt, weights, lam: float,
                         lovasz_classes: str) -> tuple[float, np.ndarray]:
    """``learn.losses.total_loss`` combined out of place, as
    ``grad_ce + lam * softmax_vjp(pred, grad_lov)``, from the cross-entropy
    and Lovász references and the softmax pull-back written out.

    The same algorithm on purpose: the library scales and adds in place
    and must equal this bit for bit."""
    ce, grad_ce = weighted_ce_reference(pred, gt, weights)
    if lam == 0.0:
        return ce, grad_ce
    lov, grad_lov = lovasz_softmax_reference(pred, gt, lovasz_classes)
    inner = (pred * grad_lov).sum(axis=-1, keepdims=True)
    return ce + lam * lov, grad_ce + lam * (pred * (grad_lov - inner))


def conv_forward_reference(x, w, b, stride: int) -> np.ndarray:
    """3x3 convolution as one einsum over the im2col patches.

    The library adds one GEMM per tap in row-major (i, j) order; this sums
    every (tap, channel) term of an output in whatever order einsum's
    contraction takes, so the two agree to rounding, not bit for bit.
    """
    y = np.einsum("bhwijc,ijco->bhwo", _patches(x, stride), w, optimize=True)
    return y if b is None else y + b


def conv_backward_input_reference(gy, w, in_hw, stride: int) -> np.ndarray:
    """col2im through one einsum over every tap, then per-tap adds.

    The library makes one GEMM per tap and must equal this bit for bit at
    both strides; like :func:`lovasz_softmax_reference` it pins the bits,
    so it shares the add order it checks.
    """
    b, oh, ow, _ = gy.shape
    h, w_in = in_hw
    cin = w.shape[2]
    gcols = np.einsum("bhwo,ijco->bhwijc", gy, w, optimize=True)
    gx = np.zeros((b, h + 2, w_in + 2, cin), dtype=gy.dtype)
    for i in range(3):
        for j in range(3):
            gx[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += \
                gcols[:, :, :, i, j]
    return gx[:, 1:1 + h, 1:1 + w_in]


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


# -- theory: the sweeps one joint at a time ------------------------------------
#
# Like the other ``*_reference`` functions, these share the library's
# arithmetic on purpose: each takes one joint, row by row where a row is
# summed on its own, and adds the same terms in the same order as the
# whole-row reductions of ``occspot.theory``.  A zero term stays in its sum
# as +0.0, and a map of O pads to as many states as O has, so a joint's
# bits depend on that joint alone.  The sweeps below draw the library's
# random stream (:func:`draw_joints_reference`, which fixes up and
# normalises each joint on its own) and run these functions joint by joint,
# in joint order.  The property under test is that a stack gives each joint
# those bits, so they are compared with ``np.array_equal``, not a
# tolerance.  Their fields are those of ``theory._bound_rows``,
# ``_lemma1_rows`` and ``_risk_rows``.

_THEORY_TOL = 1e-12
_MAX_SUPPORT = 8
_SPARSITY = 0.2


def entropy_reference(p) -> float:
    """H of the distribution `p`, flattened; 0 ln 0 is a +0.0 term."""
    p = np.ravel(p)
    return float(-(p * np.log(np.where(p > 0, p, 1.0))).sum())


def mutual_information_reference(p: np.ndarray) -> float:
    """I(Z, T) of one joint; a zero entry is a +0.0 term (ratio 1)."""
    outer = p.sum(axis=1)[:, None] * p.sum(axis=0)[None, :]
    live = p > 0
    ratio = np.where(live, p, 1.0) / np.where(live, outer, 1.0)
    return float((p * np.log(ratio)).sum())


def conditional_mi_reference(p: np.ndarray) -> float:
    """I(O, T | Z) of one joint over (O, T, Z): every Z state's term is
    kept, an empty one as 0 * 0."""
    slabs = np.ascontiguousarray(np.moveaxis(p, 2, 0))
    pz = np.array([slab.sum() for slab in slabs])
    mi = np.array([mutual_information_reference(slab / w) if w > 0 else 0.0
                   for slab, w in zip(slabs, pz)])
    return float((pz * mi).sum())


def bayes_error_reference(p: np.ndarray) -> float:
    return float(1.0 - p.max(axis=1).sum())


def _apply_map(p_ot: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Joint (Z, T) of Z = f(O), padded to as many Z states as O has."""
    out = np.zeros(p_ot.shape)
    for o in range(p_ot.shape[0]):
        out[f[o]] += p_ot[o]
    return out


def _cmi_given_map(p_ot: np.ndarray, f: np.ndarray) -> float:
    n_o = p_ot.shape[0]
    p3 = np.zeros((n_o, p_ot.shape[1], n_o))
    for o in range(n_o):
        p3[o, :, f[o]] = p_ot[o]
    return conditional_mi_reference(p3)


def bound_reference(p) -> dict:
    """The fields of ``check_bayes_bound(p)``, one joint at a time."""
    p = np.asarray(p, dtype=np.float64)
    h_t = entropy_reference(p.sum(axis=0))
    mi = mutual_information_reference(p)
    pe = bayes_error_reference(p)
    bound = 1.0 - np.exp(-h_t + mi)
    slack = bound - pe
    return dict(h_t=h_t, mi=mi, bayes_error=pe, bound_value=float(bound),
                slack=float(slack), satisfied=bool(slack >= -_THEORY_TOL))


def lemma1_reference(p, f_occ, f_mae) -> dict:
    """The fields of ``lemma1_decomposition(p, f_occ, f_mae)``."""
    p = np.asarray(p, dtype=np.float64)
    f_occ = np.asarray(f_occ, dtype=np.int64)
    f_mae = np.asarray(f_mae, dtype=np.int64)
    mi_occ = mutual_information_reference(_apply_map(p, f_occ))
    mi_mae = mutual_information_reference(_apply_map(p, f_mae))
    gap_mae = _cmi_given_map(p, f_mae)
    gap_occ = _cmi_given_map(p, f_occ)
    lhs = mi_occ - mi_mae
    rhs = gap_mae - gap_occ
    return dict(mi_occ=mi_occ, mi_mae=mi_mae, gap_mae=gap_mae,
                gap_occ=gap_occ, lhs=lhs, rhs=rhs,
                holds=bool(abs(lhs - rhs) <= _THEORY_TOL))


def risk_reference(p, t_values, g) -> dict:
    """The fields of ``risk_ordering(p, t_values, g)``."""
    p = np.asarray(p, dtype=np.float64)
    t_values = np.asarray(t_values, dtype=np.float64)
    g = np.asarray(g, dtype=np.int64)

    def sq_risk(pzt: np.ndarray) -> float:
        pz = pzt.sum(axis=1)
        var = np.zeros(len(pz))
        for z in np.flatnonzero(pz > 0):
            cond = pzt[z] / pz[z]
            mean = (cond * t_values).sum()
            var[z] = (cond * (t_values - mean) ** 2).sum()
        return float((pz * var).sum())

    garbled = _apply_map(p, g)
    r, rg = sq_risk(p), sq_risk(garbled)
    be, beg = bayes_error_reference(p), bayes_error_reference(garbled)
    holds = bool(r <= rg + _THEORY_TOL and be <= beg + _THEORY_TOL)
    return dict(sq_risk=r, sq_risk_garbled=rg, bayes=be, bayes_garbled=beg,
                holds=holds)


def _maps_reference(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    return rng.integers(0, rng.integers(1, n + 1, size=(k, 1)), size=(k, n))


def draw_joints_reference(n: int, seed: int, chunk: int, rest) -> list:
    """The ``(p, *maps)`` of `n` sweep joints, in joint order, drawn `chunk`
    at a time in the sweeps' order: a chunk's shapes, then for each shape in
    ascending order its masses and ``rest(rng, k, a, b)``, the maps or
    values that follow them."""
    rng = np.random.default_rng(seed)
    joints = []
    for start in range(0, n, chunk):
        drawn = rng.integers(2, _MAX_SUPPORT + 1, size=(min(chunk, n - start), 2))
        shapes = [(int(a), int(b)) for a, b in drawn]
        out = [None] * len(shapes)
        for a, b in sorted(set(shapes)):
            idx = [i for i, s in enumerate(shapes) if s == (a, b)]
            mass = rng.exponential(size=(len(idx), a, b))
            mass *= rng.random(mass.shape) >= _SPARSITY
            empty = [j for j in range(len(idx)) if mass[j].sum() == 0]
            for j, e in zip(empty, rng.integers(a * b, size=len(empty))):
                mass[j].flat[e] = 1.0
            extra = rest(rng, len(idx), a, b)
            for j, i in enumerate(idx):
                out[i] = (mass[j] / mass[j].sum(), *(x[j] for x in extra))
        joints += out
    return joints


def _columns(rows: list[dict]) -> dict:
    return {k: np.array([r[k] for r in rows]) for k in rows[0]}


def sweep_bayes_bound_reference(n: int, seed: int,
                                chunk: int) -> tuple[dict, dict]:
    """(summary, per-joint fields) of the Bayes-bound sweep, one joint at a
    time.

    The per-joint fields add ``shape`` and ``nnz``, the joint's count of
    nonzero entries, so a test can show which cases it reached.
    """
    min_slack = np.inf
    violations = 0
    rows = []
    for (p,) in draw_joints_reference(n, seed, chunk, lambda *_: ()):
        rep = bound_reference(p)
        min_slack = min(min_slack, rep["slack"])
        violations += not rep["satisfied"]
        rows.append({**rep, "shape": p.shape, "nnz": np.count_nonzero(p)})
    summary = {"sweeps": n, "min_slack": float(min_slack),
               "violations": violations}
    return summary, _columns(rows)


def sweep_lemma1_reference(n: int, seed: int, chunk: int) -> tuple[dict, dict]:
    """(summary, per-joint fields) of the decomposition sweep."""
    def maps(rng, k, a, b):
        return _maps_reference(rng, k, a), _maps_reference(rng, k, a)

    worst = 0.0
    violations = 0
    rows = []
    for p, f_occ, f_mae in draw_joints_reference(n, seed, chunk, maps):
        rep = lemma1_reference(p, f_occ, f_mae)
        worst = max(worst, abs(rep["lhs"] - rep["rhs"]))
        violations += not rep["holds"]
        rows.append({**rep, "shape": p.shape, "nnz": np.count_nonzero(p)})
    summary = {"sweeps": n, "max_identity_gap": float(worst),
               "violations": violations}
    return summary, _columns(rows)


def sweep_risk_ordering_reference(n: int, seed: int,
                                  chunk: int) -> tuple[dict, dict]:
    """(summary, per-joint fields) of the risk-ordering sweep.

    The per-joint fields add ``shape`` and ``n_garbled``, the garbling's
    count of states, so a test can show which cases it reached.
    """
    def garbling(rng, k, a, b):
        return _maps_reference(rng, k, a), rng.normal(size=(k, b))

    violations = 0
    worst_sq = np.inf
    worst_bayes = np.inf
    rows = []
    for p, g, t_values in draw_joints_reference(n, seed, chunk, garbling):
        rep = risk_reference(p, t_values, g)
        worst_sq = min(worst_sq, rep["sq_risk_garbled"] - rep["sq_risk"])
        worst_bayes = min(worst_bayes, rep["bayes_garbled"] - rep["bayes"])
        violations += not rep["holds"]
        rows.append({**rep, "shape": p.shape, "n_garbled": int(g.max()) + 1})
    summary = {"sweeps": n, "min_sq_margin": float(worst_sq),
               "min_bayes_margin": float(worst_bayes), "violations": violations}
    return summary, _columns(rows)
