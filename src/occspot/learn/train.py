"""Adam + one-cycle training loops for pre-training and fine-tuning.

Training is bit-deterministic for a fixed seed: parameter init, batch order
and every arithmetic step flow from named RNG sub-streams, and all math is
single-threaded float64 numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..balance import default_loss_weights
from ..cloud import PointCloud
from ..formats import read_checkpoint, write_checkpoint
from ..occupancy import GridSpec, OccupancyGrid
from ..seeding import substream
from .losses import softmax_field, total_loss
from .metrics import confusion_matrix, miou
from .model import (ModelConfig, Params, flatten_params, init_params,
                    model_backward, model_forward, pillar_features,
                    transfer_param_names, unflatten_params)

__all__ = [
    "TrainConfig", "NumericalError", "one_cycle_lr", "AdamState",
    "adam_step", "pretrain", "finetune_segmentation", "evaluate",
    "save_model", "load_model", "prepare_samples",
]


class NumericalError(RuntimeError):
    """Raised when training diverges: NaN logits or a non-finite loss."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters shared by pre-train and fine-tune."""

    epochs: int = 10
    batch_size: int = 4
    lr_peak: float = 0.003
    seed: int = 0
    lovasz_classes: str = "present"
    warmup_frac: float = 0.3
    div_factor: float = 25.0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.lr_peak < 0:
            raise ValueError("lr_peak must be >= 0")
        if not 0.0 < self.warmup_frac < 1.0:
            raise ValueError("warmup_frac must lie in (0, 1)")


def one_cycle_lr(step: int, total_steps: int, peak: float,
                 warmup_frac: float = 0.3, div_factor: float = 25.0) -> float:
    """Linear warm-up to `peak`, then cosine decay back to peak/div_factor."""
    if total_steps <= 1:
        return peak
    floor = peak / div_factor
    warm_steps = max(1, int(round(warmup_frac * total_steps)))
    if step < warm_steps:
        return floor + (peak - floor) * step / warm_steps
    frac = (step - warm_steps) / max(1, total_steps - warm_steps)
    return floor + (peak - floor) * 0.5 * (1.0 + np.cos(np.pi * min(frac, 1.0)))


@dataclass
class AdamState:
    m: Params
    v: Params
    t: int = 0

    @staticmethod
    def init(params: Params) -> "AdamState":
        return AdamState(m={k: np.zeros_like(p) for k, p in params.items()},
                         v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params: Params, grads: Params, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """One Adam update, in place; a zero learning rate is a no-op."""
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for name in sorted(params):
        g = grads[name]
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g * g
        if lr != 0.0:
            m_hat = state.m[name] / bc1
            v_hat = state.v[name] / bc2
            params[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def prepare_samples(samples: list[tuple[PointCloud, OccupancyGrid]],
                    spec: GridSpec, cfg: ModelConfig
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Scatter clouds to pillar tensors once; returns (pillars, gts) stacks."""
    if not samples:
        raise ValueError("empty sample list")
    pillars = np.stack([pillar_features(c, spec, cfg) for c, _ in samples])
    gts = np.stack([g.labels for _, g in samples])
    return pillars, gts


def _run_epochs(params: Params, pillars: np.ndarray, gts: np.ndarray,
                weights: np.ndarray, cfg: ModelConfig, tc: TrainConfig,
                order_rng: np.random.Generator) -> list[float]:
    n = pillars.shape[0]
    steps_per_epoch = (n + tc.batch_size - 1) // tc.batch_size
    total_steps = steps_per_epoch * tc.epochs
    opt = AdamState.init(params)
    trace: list[float] = []
    step = 0

    def diverged(why) -> NumericalError:
        return NumericalError(
            f"{why} at step {step} (epoch {len(trace)}, lr {lr:.2e})")

    for _ in range(tc.epochs):
        order = order_rng.permutation(n)
        epoch_losses = []
        for s in range(steps_per_epoch):
            sel = order[s * tc.batch_size:(s + 1) * tc.batch_size]
            lr = one_cycle_lr(step, total_steps, tc.lr_peak,
                              tc.warmup_frac, tc.div_factor)
            logits, cache = model_forward(pillars[sel], params)
            try:
                pred = softmax_field(logits)
            except ValueError as exc:  # NaN logits: the run diverged
                raise diverged(exc) from exc
            loss, dlogits = total_loss(pred, gts[sel], weights, cfg.lam,
                                       tc.lovasz_classes)
            if not np.isfinite(loss):
                raise diverged(f"non-finite loss {loss}")
            grads = model_backward(cache, dlogits, params)
            adam_step(params, grads, opt, lr)
            epoch_losses.append(loss)
            step += 1
        trace.append(float(np.mean(epoch_losses)))
    return trace


def pretrain(samples: list[tuple[PointCloud, OccupancyGrid]], spec: GridSpec,
             cfg: ModelConfig, tc: TrainConfig,
             weights: np.ndarray | None = None
             ) -> tuple[Params, list[float]]:
    """Train from scratch on occupancy targets; returns params + loss trace."""
    if weights is None:
        weights = default_loss_weights(cfg.n_cls)
    pillars, gts = prepare_samples(samples, spec, cfg)
    params = init_params(cfg, substream(tc.seed, "init").integers(2**63))
    trace = _run_epochs(params, pillars, gts, weights, cfg, tc,
                        substream(tc.seed, "batch-order"))
    return params, trace


def finetune_segmentation(pretrained: Params | None,
                          samples: list[tuple[PointCloud, OccupancyGrid]],
                          spec: GridSpec, cfg: ModelConfig, tc: TrainConfig,
                          weights: np.ndarray | None = None
                          ) -> tuple[Params, list[float]]:
    """Adapt to few labeled frames with a re-initialized prediction head.

    With `pretrained` given, the encoder and the transposed-conv decode path
    start from it and only the head is fresh; with None the whole model
    trains from scratch.  Raises on an empty fine-tune set or a
    shape-incompatible checkpoint.
    """
    if not samples:
        raise ValueError("empty fine-tune set")
    if weights is None:
        weights = default_loss_weights(cfg.n_cls)
    params = init_params(cfg, substream(tc.seed, "init").integers(2**63))
    if pretrained is not None:
        for name in transfer_param_names():
            if name not in pretrained:
                raise ValueError(f"checkpoint is missing parameter {name}")
            if pretrained[name].shape != params[name].shape:
                raise ValueError(
                    f"checkpoint parameter {name} has shape "
                    f"{pretrained[name].shape}, model expects {params[name].shape}")
            params[name] = pretrained[name].copy()
    pillars, gts = prepare_samples(samples, spec, cfg)
    trace = _run_epochs(params, pillars, gts, weights, cfg, tc,
                        substream(tc.seed, "batch-order"))
    return params, trace


def evaluate(params: Params, samples: list[tuple[PointCloud, OccupancyGrid]],
             spec: GridSpec, cfg: ModelConfig,
             ignore_empty: bool = True) -> tuple[np.ndarray, np.ndarray, float]:
    """Argmax predictions over `samples`; returns (cm, per-class IoU, mIoU)."""
    pillars, gts = prepare_samples(samples, spec, cfg)
    cm = np.zeros((cfg.n_out, cfg.n_out), dtype=np.int64)
    for i in range(pillars.shape[0]):
        logits, _ = model_forward(pillars[i:i + 1], params)
        pred = logits[0].argmax(axis=-1)
        cm += confusion_matrix(gts[i], pred, cfg.n_out)
    iou, mean = miou(cm, ignore_empty=ignore_empty)
    return cm, iou, mean


def save_model(path, params: Params, cfg: ModelConfig, seed: int,
               extra: dict | None = None) -> None:
    """Write a checkpoint: JSON header (config, seed) + f32 parameter blob."""
    header = {"model": cfg.to_dict(), "seed": seed,
              "params": {k: list(v.shape) for k, v in params.items()}}
    if extra:
        header["extra"] = extra
    write_checkpoint(path, header, flatten_params(params))


def load_model(path) -> tuple[Params, ModelConfig, dict]:
    header, blob = read_checkpoint(path)
    cfg = ModelConfig.from_dict(header["model"])
    params = unflatten_params(blob, cfg)
    return params, cfg, header
