"""Dataset plumbing: generate sequence trees on disk, load them back, and
assemble the (pillars, labels) stacks the model trains and is scored on.

A sequence travels as one :class:`~occspot.cloud.LidarSequence`:
:func:`generate_dataset` writes what ``synth.generate_sequence`` returns
with :func:`write_sequence`, and :func:`load_sequence` reads the same value
back.  On-disk layout (all formats from :mod:`occspot.formats`)::

    out/
      manifest.json
      seq_0000/
        poses.json                 # per-frame sensor poses (R rows + t)
        frame_000.sptc / .sptl / .boxes.jsonl
        ...

A sample pairs the float32 pillars of a sequence's keyframe scan (beam
re-sampled and flipped under an augmentation seed) with the labels of the
grid aggregated over the whole sequence, mirrored to match each flip.

One sequence is resident at a time: :func:`generate_dataset` drops each
sequence once it is written, and :func:`build_samples` takes any iterable
(``map(load_sequence, seq_dirs)``), keeps only each sample's arrays, and
drops the sequence and its cloud before it asks for the next.  Peak memory
then grows with the samples, not with the loaded sequences.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable

import numpy as np

from .augment import beam_resample, random_flip, resample_factor
from .cloud import LidarSequence, PointCloud, Pose, transform
from .config import ConfigError, PipelineConfig
from .formats import (FormatError, atomic_write_text, read_boxes, read_frame,
                      read_labels, write_boxes, write_frame, write_labels)
from .learn.train import prepare_samples
from .occupancy import OccupancyGrid, make_occupancy
from .seeding import substream
from .synth import build_scene, generate_sequence

__all__ = [
    "worker_count", "ego_trajectory", "write_sequence", "generate_dataset",
    "load_sequence", "sequence_occupancy", "build_samples",
]


def worker_count() -> int:
    """Worker cap from OCCSPOT_THREADS, 1 when it is unset; a value that is
    not a positive integer is a ConfigError."""
    raw = os.environ.get("OCCSPOT_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(
            f"OCCSPOT_THREADS must be a positive integer, got {raw!r}")
    return n


def ego_trajectory(cfg: PipelineConfig) -> list[Pose]:
    """Straight-line ego motion along +x at ``ego_speed``, sensor at height."""
    return [Pose(np.eye(3), (cfg.ego_speed * i / cfg.keyframe_hz, 0.0,
                             cfg.sensor_height))
            for i in range(cfg.n_frames)]


def write_sequence(seq_dir, seq: LidarSequence, keyframe_hz: float) -> None:
    """Write `seq` into `seq_dir` in the layout :func:`load_sequence` reads."""
    seq_dir = Path(seq_dir)
    seq_dir.mkdir(exist_ok=True)
    doc = {"keyframe_hz": keyframe_hz,
           "poses": [{"rotation": p.rotation.tolist(),
                      "translation": p.translation.tolist()}
                     for p in seq.poses]}
    atomic_write_text(seq_dir / "poses.json", json.dumps(doc, indent=1) + "\n")
    for f, cloud in enumerate(seq.frames):
        write_frame(seq_dir / f"frame_{f:03d}.sptc", cloud)
        write_labels(seq_dir / f"frame_{f:03d}.sptl", seq.labels[f])
        write_boxes(seq_dir / f"frame_{f:03d}.boxes.jsonl", seq.boxes[f])


def generate_dataset(cfg: PipelineConfig, out_dir, seed: int,
                     workers: int) -> list[Path]:
    """Write ``cfg.n_sequences`` sequence directories; returns their paths.

    Deterministic in (config, seed), whatever the number of `workers`:
    sequence i uses the i-th draw of the seed's scene sub-stream.  Each
    sequence is released once written, before the next one is generated.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    scene_seeds = substream(seed, "scene").integers(2**63, size=cfg.n_sequences)
    poses = ego_trajectory(cfg)
    seq_dirs = []
    for i in range(cfg.n_sequences):
        scene = build_scene(cfg.scene, int(scene_seeds[i]))
        seq = generate_sequence(scene, cfg.source_beams, poses,
                                cfg.keyframe_hz, workers=workers)
        seq_dirs.append(out_dir / f"seq_{i:04d}")
        write_sequence(seq_dirs[-1], seq, cfg.keyframe_hz)
        del seq
    return seq_dirs


def load_sequence(seq_dir) -> LidarSequence:
    """Read back a sequence directory written by :func:`write_sequence`."""
    seq_dir = Path(seq_dir)
    poses_path = seq_dir / "poses.json"
    try:
        poses = [Pose(np.array(p["rotation"]), np.array(p["translation"]))
                 for p in json.loads(poses_path.read_text())["poses"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{poses_path}: malformed poses document: "
                          f"{exc!r}") from exc
    frames, labels, boxes = [], [], []
    for f in range(len(poses)):
        frames.append(read_frame(seq_dir / f"frame_{f:03d}.sptc"))
        labels.append(read_labels(seq_dir / f"frame_{f:03d}.sptl"))
        boxes.append(read_boxes(seq_dir / f"frame_{f:03d}.boxes.jsonl"))
    try:
        return LidarSequence(frames, labels, poses, boxes)
    except ValueError as exc:
        raise FormatError(f"{seq_dir}: {exc}") from exc


def sequence_occupancy(seq: LidarSequence, cfg: PipelineConfig) -> OccupancyGrid:
    """Aggregate a sequence into its keyframe occupancy grid."""
    return make_occupancy(seq, cfg.grid, keyframe=cfg.keyframe,
                          densify=cfg.densify, radius=cfg.densify_radius,
                          k=cfg.densify_k)


def build_samples(seqs: Iterable[LidarSequence], cfg: PipelineConfig,
                  augment_seed: int | None) -> tuple[np.ndarray, np.ndarray]:
    """(pillars, labels) stacks, one sample per sequence of `seqs`: float32
    ``(N, H, W, PILLAR_DIM)`` keyframe pillars and ``(N, H, W)`` labels.

    `seqs` may be any iterable, such as a lazy ``map(load_sequence,
    seq_dirs)``: each sequence and its cloud are dropped before the next
    one is drawn, so only one is held at a time.

    With `augment_seed` None (fine-tuning, evaluation) the keyframe cloud
    only moves into the world frame of the grid.  With a seed (pre-training)
    each sample is augmented from that seed's ``augment`` sub-stream: beam
    re-sampling (input-only; targets drawn uniformly from the configured
    list) and axis flips of the cloud before its pillar scatter, mirrored
    onto the labels.  There is no rotation: an arbitrary rotation does not
    map the label grid onto itself.
    """
    rng = None if augment_seed is None else substream(augment_seed, "augment")

    def sample(seq: LidarSequence) -> tuple[PointCloud, np.ndarray]:
        labels = sequence_occupancy(seq, cfg).labels
        cloud = seq.frames[cfg.keyframe]
        if rng is not None and cfg.target_beams:
            # re-sample in the sensor frame, where elevations mean beams
            target = cfg.target_beams[int(rng.integers(len(cfg.target_beams)))]
            factor = resample_factor(cfg.source_beams, target)
            cloud, _ = beam_resample(cloud, seq.labels[cfg.keyframe], factor,
                                     seed=int(rng.integers(2**63)))
        cloud = transform(cloud, seq.poses[cfg.keyframe])  # align with the grid
        if rng is not None:
            # PipelineConfig guarantees a centred grid when a flip can
            # happen, so a flip of the points mirrors the labels exactly
            if rng.random() < cfg.flip_prob_x:  # y -> -y mirrors rows
                cloud = random_flip(cloud, "x")
                labels = labels[::-1]
            if rng.random() < cfg.flip_prob_y:  # x -> -x mirrors columns
                cloud = random_flip(cloud, "y")
                labels = labels[:, ::-1]
        return cloud, labels

    # a lazy map holds no sequence once its sample is made
    return prepare_samples(map(sample, seqs), cfg.grid)
