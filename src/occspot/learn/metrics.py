"""Segmentation metrics: confusion matrix and mean IoU."""

from __future__ import annotations

import numpy as np

__all__ = ["confusion_matrix", "miou"]


def confusion_matrix(gt: np.ndarray, pred: np.ndarray, n_classes: int) -> np.ndarray:
    """(n_classes, n_classes) counts; rows are ground truth, columns prediction."""
    gt = np.asarray(gt).ravel()
    pred = np.asarray(pred).ravel()
    if gt.shape != pred.shape:
        raise ValueError("gt and pred must have the same number of cells")
    if gt.size and (min(gt.min(), pred.min()) < 0
                    or max(gt.max(), pred.max()) >= n_classes):
        raise ValueError(f"labels must lie in [0, {n_classes - 1}]")
    flat = gt * n_classes + pred
    return np.bincount(flat, minlength=n_classes * n_classes).reshape(
        n_classes, n_classes).astype(np.int64)


def miou(cm: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-class IoU = TP / (TP + FP + FN) and their mean.

    Classes with no support at all (TP + FP + FN = 0) get NaN and are
    excluded from the mean rather than counted as zero; class 0 (empty)
    is left out of the mean too.
    """
    cm = np.asarray(cm, dtype=np.float64)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ValueError("confusion matrix must be square")
    tp = np.diag(cm)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    denom = tp + fp + fn
    iou = np.where(denom > 0, tp / np.where(denom > 0, denom, 1.0), np.nan)

    mean_mask = denom > 0
    mean_mask[0] = False
    mean = float(iou[mean_mask].mean()) if mean_mask.any() else float("nan")
    return iou, mean
