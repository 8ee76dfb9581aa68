"""occspot: occupancy-prediction pre-training toolkit for LiDAR point clouds.

Library layout:

* :mod:`occspot.cloud` — point clouds, poses, boxes, sequences, spherical transforms
* :mod:`occspot.synth` — synthetic labeled scenes and the beam raycaster
* :mod:`occspot.augment` — beam re-sampling and flips
* :mod:`occspot.occupancy` — the class schema and BEV occupancy ground truth
* :mod:`occspot.balance` — class-balanced sampling weights
* :mod:`occspot.learn` — loss kernels, toy BEV model, training, metrics
* :mod:`occspot.theory` — exact information-theoretic bound checks
* :mod:`occspot.formats` — binary frame/label/grid/checkpoint formats
* :mod:`occspot.cli` — the `occspot` command-line pipeline
"""

__version__ = "0.1.0"

from . import augment, balance, cloud, formats, learn, occupancy, synth, theory

__all__ = ["augment", "balance", "cloud", "formats", "learn", "occupancy",
           "synth", "theory", "__version__"]
