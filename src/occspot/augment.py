"""Point-cloud augmentations: beam re-sampling and axis flips.

Beam re-sampling compares beam densities (beams per degree of vertical FOV)
between a source and target sensor and discards whole beams from the source
scan until its density matches the target's.  Beams are recovered from raw
points by 1-D gap clustering of per-point elevations, so no ring indices are
needed.  Upsampling is never attempted: factors above 1 clamp to 1 with a
warning.

All ops are pure and deterministic in (input, seed).  A flip mirrors only
the points: per-point labels need no change, and no caller flips boxes.
The policy that chains them for training is
:func:`occspot.pipeline.build_samples`, which flips the cloud before its
pillar scatter and mirrors the sample's label array to match.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, to_spherical
from .synth import BeamSpec

__all__ = [
    "ResampleFactor", "beam_density", "resample_factor", "estimate_beams",
    "beam_resample", "random_flip", "DEFAULT_MERGE_THRESHOLD_DEG",
]

#: Elevation gap (degrees) below which adjacent points merge into one beam.
DEFAULT_MERGE_THRESHOLD_DEG = 0.05


@dataclass(frozen=True)
class ResampleFactor:
    """Fraction of beams to keep, already clamped to (0, 1]."""

    value: float

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise ValueError(f"resample factor must lie in (0, 1], got {self.value}")


def beam_density(b: BeamSpec) -> float:
    """Beams per degree of vertical field of view."""
    return b.n_beams / b.vfov_deg


def resample_factor(source: BeamSpec, target: BeamSpec) -> ResampleFactor:
    """Density ratio target/source, clamped to 1 (beams are only discarded)."""
    raw = beam_density(target) / beam_density(source)
    if raw > 1.0:
        warnings.warn(
            f"target denser than source (ratio {raw:.3f}); upsampling is "
            "impossible, clamping to 1.0", stacklevel=2)
        return ResampleFactor(1.0)
    return ResampleFactor(raw)


def estimate_beams(cloud: PointCloud) -> list[np.ndarray]:
    """Group points into beams by elevation-gap clustering.

    Returns one index array per beam, ordered by ascending elevation; the
    arrays partition ``range(len(cloud))``.  A new beam starts wherever the
    gap between consecutive sorted elevations exceeds
    :data:`DEFAULT_MERGE_THRESHOLD_DEG`.
    """
    if len(cloud) == 0:
        return []
    el = to_spherical(cloud.xyz)[:, 2]
    order = np.argsort(el, kind="stable")
    sorted_el = el[order]
    threshold = math.radians(DEFAULT_MERGE_THRESHOLD_DEG)
    breaks = np.nonzero(np.diff(sorted_el) > threshold)[0] + 1
    return [np.sort(chunk) for chunk in np.split(order, breaks)]


def beam_resample(cloud: PointCloud, labels: np.ndarray, r: ResampleFactor,
                  seed: int) -> tuple[PointCloud, np.ndarray]:
    """Keep a uniformly spaced subset of beams; points keep their order.

    With K recovered beams, ``K' = max(1, round(r*K))`` beams survive, picked
    at cluster indices ``floor(phase + j*K/K')`` where the phase is a seeded
    uniform draw in one stride (so different epochs keep different beams).
    """
    labels = np.asarray(labels)
    if len(cloud) == 0:
        return cloud, labels.copy()
    clusters = estimate_beams(cloud)
    k = len(clusters)
    keep = max(1, int(math.floor(r.value * k + 0.5)))
    if keep >= k:
        return cloud, labels.copy()

    stride = k / keep
    phase = np.random.default_rng(seed).uniform(0.0, stride)
    chosen = np.floor(phase + np.arange(keep) * stride).astype(int)

    mask = np.zeros(len(cloud), dtype=bool)
    for ci in chosen:
        mask[clusters[ci]] = True
    index = np.nonzero(mask)[0]
    return cloud.select(index), labels[index]


def random_flip(cloud: PointCloud, axis: str) -> PointCloud:
    """Mirror the points across the named axis.

    ``axis="x"`` keeps x and negates y; ``axis="y"`` keeps y and negates x.
    Features and point order are unchanged.  Whether to flip at all is the
    caller's draw.
    """
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    xyz = cloud.xyz.copy()
    if axis == "x":
        xyz[:, 1] = -xyz[:, 1]
    else:
        xyz[:, 0] = -xyz[:, 0]
    return PointCloud(xyz, cloud.feat)
