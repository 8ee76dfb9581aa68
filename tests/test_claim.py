"""The paper's central claim at a fixed budget: pre-training on occupancy
targets, then fine-tuning on a few labelled keyframes, beats training those
keyframes from scratch on held-out scenes.

The recipe runs through the library in memory:

- ``channels`` (16, 32, 32) and ``w_empty`` 1.0, every other setting at its
  default (8 sequences of 5 frames on a 32x32 grid);
- pre-training: one sample per frame of every training sequence, each frame
  with its own augmentation seed, for 600 steps (40 samples, batch 4,
  60 epochs).  One seed shared by a sequence's frames repeats its flips in
  every frame, and the claim then fails;
- fine-tuning: the keyframes of 2 sequences for 50 steps;
- scratch: the same keyframes for 300 steps (300 epochs);
- evaluation: the keyframes of 4 held-out sequences drawn from
  ``seed + 10_000``.

Cheaper settings (300 pre-training steps, channels (12, 24, 24)) fail on
some seeds; do not use them to save time.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from occspot.config import PipelineConfig
from occspot.learn import evaluate, train
from occspot.pipeline import build_samples, ego_trajectory
from occspot.seeding import subseed, substream
from occspot.synth import build_scene, generate_sequence

CFG = PipelineConfig(channels=(16, 32, 32), w_empty=1.0)
PRETRAIN_EPOCHS = 60        # 40 samples at batch 4: 600 steps
FINETUNE_EPOCHS = 50        # 2 samples at batch 4: 50 steps
SCRATCH_EPOCHS = 300
FINETUNE_SEQUENCES = 2
HELDOUT_SEQUENCES = 4


def sequences(cfg: PipelineConfig, seed: int) -> list:
    """``cfg.n_sequences`` sequences drawn as ``generate_dataset`` draws
    them, kept in memory."""
    scene_seeds = substream(seed, "scene").integers(2**63, size=cfg.n_sequences)
    poses = ego_trajectory(cfg)
    return [generate_sequence(build_scene(cfg.scene, int(s)), cfg.source_beams,
                              poses, cfg.keyframe_hz)
            for s in scene_seeds]


def claim_probe(seed: int) -> dict:
    """Held-out (per-class IoU, mIoU) of the pre-trained and the scratch
    model for one seed."""
    seqs = sequences(CFG, seed)
    per_frame = [build_samples(seqs, replace(CFG, keyframe=f),
                               subseed(seed, f"frame-{f}"))
                 for f in range(CFG.n_frames)]
    pre_samples = [np.concatenate(stacks) for stacks in zip(*per_frame)]
    labelled = build_samples(seqs[:FINETUNE_SEQUENCES], CFG, None)
    heldout = build_samples(
        sequences(replace(CFG, n_sequences=HELDOUT_SEQUENCES), seed + 10_000),
        CFG, None)

    pre, _ = train(None, *pre_samples, replace(CFG, epochs=PRETRAIN_EPOCHS),
                   seed)
    tuned, _ = train(pre, *labelled, replace(CFG, epochs=FINETUNE_EPOCHS),
                     seed)
    scratch, _ = train(None, *labelled, replace(CFG, epochs=SCRATCH_EPOCHS),
                       seed)
    out = {}
    for name, params in (("pretrained", tuned), ("scratch", scratch)):
        _, iou, mean = evaluate(params, *heldout, CFG)
        out[name] = (iou, mean)
    return out


def foreground_hits(iou: np.ndarray) -> dict[int, float]:
    """The object classes, neither empty nor ground, with IoU > 0."""
    return {c: float(iou[c]) for c in range(1, CFG.grid.n_cls + 1)
            if c != CFG.scene.ground_class and iou[c] > 0}


def test_pretraining_beats_scratch_on_heldout_scenes():
    got = claim_probe(seed=101)
    pre_iou, pre_miou = got["pretrained"]
    scratch_iou, scratch_miou = got["scratch"]
    # the scratch baseline is a real model, not one that predicts ground
    assert foreground_hits(scratch_iou), scratch_iou
    assert pre_miou > scratch_miou, (pre_miou, scratch_miou)
    # and pre-training gains on objects, not just on empty and ground
    assert foreground_hits(pre_iou), pre_iou
