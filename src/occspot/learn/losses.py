"""Occupancy losses with hand-derived gradients.

Two terms guide pre-training, combined as ``L = L_ce + lambda * L_lov``:

* a class-weighted cross entropy over BEV cells, normalized by the sum of
  the applied weights so the scale is grid-size independent::

      L_ce = sum_hw w[gt_hw] * (-ln p_hw[gt_hw]) / sum_hw w[gt_hw]

* the Lovász-Softmax loss: for each class n the per-cell error map is
  ``1 - p[n]`` where the ground truth equals n and ``p[n]`` elsewhere; the
  errors are sorted descending and dotted with the gradient of the Lovász
  extension of the Jaccard loss, then averaged over classes.

Cross-entropy gradients are taken with respect to the *logits* feeding the
softmax (the composition collapses to ``w/W * (p - onehot)``); the Lovász
gradient is with respect to the probabilities, and :func:`softmax_vjp`
pulls it back through the softmax when mixing the two.

Every function computes in the dtype of the prediction it is given; the
class weights and the foreground indicators are cast to it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["softmax_field", "weighted_ce", "lovasz_softmax", "total_loss",
           "softmax_vjp", "lovasz_grad"]


def _class_max(x: np.ndarray) -> np.ndarray:
    """Max over the last axis, kept as a length-1 axis.

    The class axis is short, where a ``max`` reduction runs slowly, so it is
    halved by a pairwise ``np.maximum`` of its two halves, an odd last
    column folded into the first, until one column is left.  Without NaN
    the max is exact in any order.
    """
    m = x
    while m.shape[-1] > 1:
        half = m.shape[-1] // 2
        top = np.maximum(m[..., :half], m[..., half:2 * half])
        if m.shape[-1] % 2:
            np.maximum(top[..., :1], m[..., -1:], out=top[..., :1])
        m = top
    return m


def softmax_field(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last (class) axis of float
    `logits`."""
    logits = np.asarray(logits)
    if np.isnan(logits).any():
        raise ValueError("logits contain NaN")
    e = logits - _class_max(logits)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_vjp(probs: np.ndarray, grad_probs: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. probabilities back to the pre-softmax logits.

    Overwrites neither argument.  The result, ``probs * (grad_probs -
    inner)``, is made once, as ``grad_probs - inner``, and then multiplied
    by `probs` in place.
    """
    inner = (probs * grad_probs).sum(axis=-1, keepdims=True)
    out = grad_probs - inner
    out *= probs
    return out


def _check_pair(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.ndim != gt.ndim + 1 or pred.shape[:-1] != gt.shape:
        raise ValueError(
            f"prediction {pred.shape} does not match ground truth {gt.shape}")
    if gt.size and (gt.min() < 0 or gt.max() >= pred.shape[-1]):
        raise ValueError(f"ground-truth labels out of range [0, {pred.shape[-1] - 1}]")
    return pred, gt.astype(np.int64)


def weighted_ce(pred: np.ndarray, gt: np.ndarray,
                weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Class-weighted cross entropy and its gradient w.r.t. the logits.

    `pred` holds per-cell probabilities (..., C); `gt` integer labels (...);
    `weights` a length-C vector.  Returns the weighted-mean loss and an
    array shaped like `pred` holding dL/dlogits.
    """
    pred, gt = _check_pair(pred, gt)
    weights = np.asarray(weights, dtype=pred.dtype)
    if weights.shape != (pred.shape[-1],):
        raise ValueError(
            f"weights must have length {pred.shape[-1]}, got {weights.shape}")

    w_cell = weights[gt]
    total_w = w_cell.sum()
    if total_w == 0:
        raise ValueError("sum of applied weights is zero")
    p_true = np.take_along_axis(pred, gt[..., None], axis=-1)[..., 0]
    with np.errstate(divide="ignore"):
        loss = float((w_cell * -np.log(p_true)).sum() / total_w)

    # scale * (pred - onehot), without the one-hot: off the true class the
    # one-hot's 0 subtracts nothing
    scale = w_cell / total_w
    grad = scale[..., None] * pred
    np.put_along_axis(grad, gt[..., None], ((p_true - 1) * scale)[..., None],
                      axis=-1)
    return loss, grad


def lovasz_grad(fg_sorted: np.ndarray) -> np.ndarray:
    """Gradient of the Lovász extension of the Jaccard loss.

    `fg_sorted` is the 0/1 foreground vector re-ordered by descending error;
    the result is the vector of Jaccard-loss increments along that prefix.
    """
    gts = fg_sorted.sum()
    intersection = gts - np.cumsum(fg_sorted)
    union = gts + np.cumsum(1.0 - fg_sorted)
    jaccard = 1.0 - intersection / union
    if fg_sorted.size > 1:
        jaccard[1:] = jaccard[1:] - jaccard[:-1]
    return jaccard


def lovasz_softmax(pred: np.ndarray, gt: np.ndarray,
                   classes: str) -> tuple[float, np.ndarray]:
    """Lovász-Softmax loss and its gradient w.r.t. the probabilities.

    ``classes="present"`` averages over the non-empty classes that occur in
    `gt` (avoids zero-support degeneracy on small grids);  ``classes="all"``
    averages over every class 1..C-1 as the flat 1/N_cls formulation does.
    Class 0 (empty) never gets its own Jaccard term but still receives
    gradient through the other classes' error maps.

    The loss is piecewise linear; the returned gradient is exact wherever
    the descending error sort is strict (ties contribute a subgradient).

    Only the head of each class's order is sorted.  Let m be the smallest
    error on a cell of class n (the largest error when n is absent).  In
    the stable descending order every cell with error below m comes after
    the last foreground cell, where the Jaccard loss is 1 on both sides of
    each step, so its ``lovasz_grad`` entry is exactly +0.0 whatever order
    those cells take.  The head (error >= m) is sorted stably with ties in
    index order, exactly as a full ``argsort(-errors, kind="stable")``
    orders it, and the tail follows in index order.  ``lovasz_grad`` and
    the dot with the errors still run over all cells, so every sum keeps
    its length and its terms' positions: loss and gradient are the same
    bits as with the full sort.
    """
    pred, gt = _check_pair(pred, gt)
    if classes not in ("present", "all"):
        raise ValueError(f"classes must be 'present' or 'all', got {classes!r}")
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
        is_fg = flat_gt == n
        fg = is_fg.astype(pred.dtype)
        errors = np.where(is_fg, 1.0 - flat_p[:, n], flat_p[:, n])
        m = errors[is_fg].min() if is_fg.any() else errors.max()
        in_head = errors >= m
        head = np.flatnonzero(in_head)
        head = head[np.argsort(-errors[head], kind="stable")]
        perm = np.concatenate([head, np.flatnonzero(~in_head)])
        g = lovasz_grad(fg[perm])
        loss += float(errors[perm] @ g)
        g_unsorted = np.empty_like(g)
        g_unsorted[perm] = g
        # d(error)/d(p_n) is -1 on foreground cells, +1 elsewhere
        grad[:, n] += g_unsorted * (1.0 - 2.0 * fg)

    k = len(active)
    grad /= k
    return loss / k, grad.reshape(pred.shape)


def total_loss(pred: np.ndarray, gt: np.ndarray, weights: np.ndarray,
               lam: float, lovasz_classes: str) -> tuple[float, np.ndarray]:
    """``L_ce + lam * L_lov`` with the combined gradient w.r.t. the logits.

    Overwrites only arrays it made: the Lovász gradient pulled back by
    :func:`softmax_vjp` is scaled by ``lam`` in place and added in place
    into the cross-entropy gradient, which is returned.  `pred` is left as
    it is.  Every element gets the same IEEE operations, on the same
    operands, as in ``grad_ce + lam * softmax_vjp(pred, grad_lov)``.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    ce, grad_logits = weighted_ce(pred, gt, weights)
    if lam == 0.0:
        return ce, grad_logits
    lov, grad_probs = lovasz_softmax(pred, gt, classes=lovasz_classes)
    grad_lov = softmax_vjp(pred, grad_probs)
    grad_lov *= lam
    grad_logits += grad_lov
    return ce + lam * lov, grad_logits
