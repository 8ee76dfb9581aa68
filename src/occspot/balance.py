"""Class-balanced sampling: per-class weights and frame duplication.

Sampling weights follow the square-root rule ``s_i = sqrt(m / n_i)`` with
``m = 1/N_fg`` and ``n_i = N_i / sum_j N_j`` over foreground instance counts,
so rare classes weigh more without excessive duplication.  Frames are then
re-drawn with replacement proportionally to the largest weight among their
present foreground classes.

Per-class loss weights are not set here: they come from the config's
``loss`` section (``learn.train.loss_weights``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ClassStats", "SamplingWeights",
    "class_stats", "sampling_weights", "frame_weights", "resample_frames",
]


@dataclass(frozen=True)
class ClassStats:
    """Foreground instance counts summed over a dataset.

    Only classes with at least one instance are kept; ``class_ids`` and
    ``counts`` are aligned.
    """

    class_ids: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.class_ids) != len(self.counts):
            raise ValueError("class_ids and counts must align")
        if not self.counts or all(c == 0 for c in self.counts):
            raise ValueError("at least one class count must be positive")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")

    @property
    def n_fg(self) -> int:
        return len(self.class_ids)


@dataclass(frozen=True)
class SamplingWeights:
    """Per-class sampling weights ``s_i``, aligned with ``class_ids``."""

    class_ids: tuple[int, ...]
    s: tuple[float, ...]

    def __post_init__(self):
        if len(self.class_ids) != len(self.s):
            raise ValueError("class_ids and s must align")
        if any(not np.isfinite(v) or v <= 0 for v in self.s):
            raise ValueError("all weights must be positive and finite")

    def as_dict(self) -> dict[int, float]:
        return dict(zip(self.class_ids, self.s))


def class_stats(frame_counts: Iterable[Mapping[int, int]]) -> ClassStats:
    """Sum per-frame foreground instance counts into dataset statistics.

    Classes whose dataset-wide total is zero are dropped with a warning
    (their weight would be undefined); an all-zero dataset is an error.
    """
    totals: dict[int, int] = {}
    for frame in frame_counts:
        for cls, n in frame.items():
            if cls < 1:
                raise ValueError(f"foreground class ids must be >= 1, got {cls}")
            if n < 0:
                raise ValueError(f"negative instance count for class {cls}")
            totals[cls] = totals.get(cls, 0) + int(n)

    zero = sorted(c for c, n in totals.items() if n == 0)
    if zero:
        warnings.warn(f"classes with zero instances excluded: {zero}", stacklevel=2)
    kept = sorted(c for c, n in totals.items() if n > 0)
    if not kept:
        raise ValueError("dataset has no foreground instances")
    return ClassStats(tuple(kept), tuple(totals[c] for c in kept))


def sampling_weights(stats: ClassStats) -> SamplingWeights:
    """``s_i = sqrt(m / n_i)``, ``m = 1/N_fg``, ``n_i = N_i / sum_j N_j``."""
    counts = np.asarray(stats.counts, dtype=np.float64)
    total = counts.sum()
    m = 1.0 / stats.n_fg
    n = counts / total
    s = np.sqrt(m / n)
    return SamplingWeights(stats.class_ids, tuple(float(v) for v in s))


def frame_weights(frame_presence: Sequence[Iterable[int]],
                  weights: SamplingWeights) -> np.ndarray:
    """Per-frame sampling weight: max ``s_i`` over present foreground classes.

    Frames containing no (known) foreground class fall back to the smallest
    weight, so background-only frames are least duplicated.
    """
    by_class = weights.as_dict()
    floor = min(weights.s)
    out = np.empty(len(frame_presence), dtype=np.float64)
    for i, present in enumerate(frame_presence):
        known = [by_class[c] for c in present if c in by_class]
        out[i] = max(known) if known else floor
    return out


def resample_frames(weights: np.ndarray, epoch_size: int, seed: int) -> np.ndarray:
    """Draw `epoch_size` frame indices with replacement, proportional to weight."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    if (w <= 0).any() or not np.isfinite(w).all():
        raise ValueError("weights must be positive and finite")
    if epoch_size < 1:
        raise ValueError("epoch_size must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.choice(w.size, size=epoch_size, replace=True, p=w / w.sum())

