"""Class-balanced sampling weights.

Sampling weights follow the square-root rule ``s_i = sqrt(m / n_i)`` with
``m = 1/N_fg`` and ``n_i = N_i / sum_j N_j`` over foreground instance counts,
so rare classes weigh more without excessive duplication.

Per-class loss weights are not set here: they come from the config's
``loss`` section (``learn.train.loss_weights``).
"""

from __future__ import annotations

import warnings
from typing import Iterable, Mapping

import numpy as np

__all__ = ["sampling_weights"]


def sampling_weights(frame_counts: Iterable[Mapping[int, int]]
                     ) -> dict[int, float]:
    """``{class id: s_i}`` in ascending class order, from per-frame
    foreground instance counts summed over a dataset.

    Classes whose dataset-wide total is zero are dropped with a warning
    (their weight would be undefined); an all-zero dataset, or counts whose
    sum exceeds float64, is an error.
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
    try:
        counts = np.asarray([totals[c] for c in kept], dtype=np.float64)
        with np.errstate(over="raise"):
            total = counts.sum()
    except (OverflowError, FloatingPointError) as exc:
        raise ValueError("instance counts overflow float64") from exc
    m = 1.0 / len(kept)
    n = counts / total
    s = np.sqrt(m / n)
    return dict(zip(kept, s.tolist()))
