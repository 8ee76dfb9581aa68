"""Dataset plumbing: generate sequence trees on disk, load them back, and
assemble (cloud, occupancy) training samples.

On-disk layout written by :func:`generate_dataset` (all formats from
:mod:`occspot.formats`)::

    out/
      manifest.json
      seq_0000/
        poses.json                 # per-frame sensor poses (R rows + t)
        frame_000.sptc / .sptl / .boxes.jsonl
        ...

Samples for training pair each sequence's keyframe scan (optionally beam
re-sampled and flipped, with the grid mirrored to match) with the occupancy
grid aggregated over the whole sequence.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .augment import beam_resample, random_flip, resample_factor
from .cloud import PointCloud, Pose, transform
from .config import PipelineConfig
from .formats import (atomic_write_text, read_boxes, read_frame, read_labels,
                      write_boxes, write_frame, write_labels)
from .occupancy import OccupancyGrid, make_occupancy
from .seeding import substream
from .synth import BeamSpec, Frame, Scene, SceneParams, SequenceMeta, build_scene, generate_sequence

__all__ = [
    "SequenceFiles", "worker_count", "ego_trajectory", "generate_dataset",
    "load_sequence", "sequence_occupancy", "build_samples",
]


def worker_count() -> int:
    """Worker cap from OCCSPOT_THREADS (>= 1); defaults to 1."""
    raw = os.environ.get("OCCSPOT_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"OCCSPOT_THREADS must be an integer, got {raw!r}")
    return max(1, n)


@dataclass(frozen=True)
class SequenceFiles:
    """Loaded contents of one sequence directory."""

    frames: list[PointCloud]
    labels: list[np.ndarray]
    poses: list[Pose]
    boxes: list[list]


def ego_trajectory(cfg: PipelineConfig) -> SequenceMeta:
    """Straight-line ego motion along +x at ``ego_speed``, sensor at height."""
    poses = tuple(
        Pose(np.eye(3), (cfg.ego_speed * i / cfg.keyframe_hz, 0.0,
                         cfg.sensor_height))
        for i in range(cfg.n_frames))
    return SequenceMeta(n_frames=cfg.n_frames, keyframe_hz=cfg.keyframe_hz,
                        ego_poses=poses)


def _poses_doc(meta: SequenceMeta) -> str:
    doc = {
        "keyframe_hz": meta.keyframe_hz,
        "poses": [{"rotation": p.rotation.tolist(),
                   "translation": p.translation.tolist()}
                  for p in meta.ego_poses],
    }
    return json.dumps(doc, indent=1) + "\n"


def render_sequence(scene: Scene, cfg: PipelineConfig,
                    workers: int = 1) -> tuple[list[Frame], SequenceMeta]:
    meta = ego_trajectory(cfg)
    return generate_sequence(scene, cfg.source_beams, meta, workers=workers), meta


def generate_dataset(cfg: PipelineConfig, out_dir, seed: int | None = None,
                     workers: int | None = None) -> list[Path]:
    """Write ``cfg.n_sequences`` sequence directories; returns their paths.

    Deterministic in (config, seed): sequence i uses the scene sub-stream
    seed offset by i.
    """
    root_seed = cfg.seed if seed is None else seed
    workers = worker_count() if workers is None else workers
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    scene_seeds = substream(root_seed, "scene").integers(2**63, size=cfg.n_sequences)
    seq_dirs = []
    for i in range(cfg.n_sequences):
        scene = build_scene(cfg.scene, int(scene_seeds[i]))
        frames, meta = render_sequence(scene, cfg, workers=workers)
        seq_dir = out_dir / f"seq_{i:04d}"
        seq_dir.mkdir(exist_ok=True)
        atomic_write_text(seq_dir / "poses.json", _poses_doc(meta))
        for f, frame in enumerate(frames):
            write_frame(seq_dir / f"frame_{f:03d}.sptc", frame.cloud)
            write_labels(seq_dir / f"frame_{f:03d}.sptl", frame.labels)
            write_boxes(seq_dir / f"frame_{f:03d}.boxes.jsonl", frame.boxes)
        seq_dirs.append(seq_dir)
    return seq_dirs


def load_sequence(seq_dir) -> SequenceFiles:
    seq_dir = Path(seq_dir)
    poses_doc = json.loads((seq_dir / "poses.json").read_text())
    poses = [Pose(np.array(p["rotation"]), np.array(p["translation"]))
             for p in poses_doc["poses"]]
    frames, labels, boxes = [], [], []
    for f in range(len(poses)):
        frames.append(read_frame(seq_dir / f"frame_{f:03d}.sptc"))
        labels.append(read_labels(seq_dir / f"frame_{f:03d}.sptl"))
        boxes.append(read_boxes(seq_dir / f"frame_{f:03d}.boxes.jsonl"))
    return SequenceFiles(frames, labels, poses, boxes)


def sequence_occupancy(seq: SequenceFiles, cfg: PipelineConfig) -> OccupancyGrid:
    """Aggregate a loaded sequence into its keyframe occupancy grid."""
    return make_occupancy(seq.frames, seq.labels, seq.poses, seq.boxes,
                          cfg.grid, keyframe=cfg.keyframe,
                          densify=cfg.densify, radius=cfg.densify_radius,
                          k=cfg.densify_k)


def build_samples(seqs: list[SequenceFiles], cfg: PipelineConfig,
                  augment: bool = False, seed: int | None = None
                  ) -> list[tuple[PointCloud, OccupancyGrid]]:
    """(keyframe cloud, sequence occupancy) pairs, optionally augmented.

    Augmentation applies beam re-sampling (input-only; targets drawn
    uniformly from the configured list) and axis flips mirrored onto the
    grid.  There is no rotation: an arbitrary rotation does not map the
    label grid onto itself, so ``augment.rotation_range_deg`` has no effect.
    """
    rng = substream(cfg.seed if seed is None else seed, "augment")
    samples = []
    for seq in seqs:
        grid = sequence_occupancy(seq, cfg)
        cloud = seq.frames[cfg.keyframe]
        labels = seq.labels[cfg.keyframe]
        if augment and cfg.target_beams:
            # re-sample in the sensor frame, where elevations mean beams
            target = cfg.target_beams[int(rng.integers(len(cfg.target_beams)))]
            factor = resample_factor(cfg.source_beams, target)
            cloud, labels = beam_resample(cloud, labels, factor,
                                          seed=int(rng.integers(2**63)))
        cloud = transform(cloud, seq.poses[cfg.keyframe])  # align with the grid
        if augment:
            # PipelineConfig guarantees a centred grid when a flip can
            # happen, so a flip of the points mirrors the grid exactly
            if rng.random() < cfg.flip_prob_x:  # y -> -y mirrors rows
                cloud, labels, _ = random_flip(cloud, labels, [], "x")
                grid = OccupancyGrid(grid.spec, grid.labels[::-1])
            if rng.random() < cfg.flip_prob_y:  # x -> -x mirrors columns
                cloud, labels, _ = random_flip(cloud, labels, [], "y")
                grid = OccupancyGrid(grid.spec, grid.labels[:, ::-1])
        samples.append((cloud, grid))
    return samples
