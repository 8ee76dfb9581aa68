"""Adam + one-cycle training, one loop for pre-training and fine-tuning.

Both read the (pillars, labels) stacks of :func:`prepare_samples`.  Every
setting comes from :class:`~occspot.config.PipelineConfig`.  A checkpoint's
header records only the architecture, and loading checks it against the
config, so fine-tuning trains with its own loss and weights.

Training is bit-deterministic for a fixed seed: parameter init, batch order
and every arithmetic step flow from named RNG sub-streams, and all math is
single-threaded numpy in the dtype of the parameters (float32 from
:func:`~occspot.learn.model.init_params`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..cloud import PointCloud
from ..config import ConfigError, PipelineConfig
from ..formats import FormatError, read_checkpoint, write_checkpoint
from ..occupancy import GridSpec
from ..seeding import substream
from .losses import softmax_field, total_loss
from .metrics import confusion_matrix, miou
from .model import (Params, flatten_params, init_params, model_backward,
                    model_forward, pillar_features, transfer_param_names,
                    unflatten_params)

__all__ = [
    "NumericalError", "one_cycle_lr", "AdamState", "adam_step", "train",
    "evaluate", "loss_weights", "save_model", "load_model", "prepare_samples",
]


class NumericalError(RuntimeError):
    """Raised when training diverges: NaN logits or a non-finite loss."""


def loss_weights(cfg: PipelineConfig) -> np.ndarray:
    """Per-class loss weights, length ``grid.n_cls + 1``, read from the
    config alone: ``loss.w_empty`` on empty (index 0), ``loss.w_fg`` on
    ``balance.foreground_classes`` and ``loss.w_bg`` on every other class.
    The config checks that the weights are positive and that the
    foreground ids lie in ``1..grid.n_cls``."""
    w = np.full(cfg.grid.n_cls + 1, cfg.w_bg)
    w[0] = cfg.w_empty
    w[list(cfg.foreground_classes)] = cfg.w_fg
    return w


def one_cycle_lr(step: int, total_steps: int, peak: float) -> float:
    """Linear warm-up over 30% of the steps from ``peak / 25`` to `peak`,
    then cosine decay back to ``peak / 25``."""
    if total_steps <= 1:
        return peak
    floor = peak / 25.0
    warm_steps = max(1, int(round(0.3 * total_steps)))
    if step < warm_steps:
        return floor + (peak - floor) * step / warm_steps
    frac = (step - warm_steps) / max(1, total_steps - warm_steps)
    return floor + (peak - floor) * 0.5 * (1.0 + math.cos(math.pi * min(frac, 1.0)))


@dataclass
class AdamState:
    m: Params
    v: Params
    t: int = 0

    @staticmethod
    def init(params: Params) -> "AdamState":
        return AdamState(m={k: np.zeros_like(p) for k, p in params.items()},
                         v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params: Params, grads: Params, state: AdamState,
              lr: float) -> None:
    """One Adam update, in place, in the dtype of the parameters (the
    moments `m` and `v` are made like them and updated in place); a zero
    learning rate is a no-op."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for name in sorted(params):
        g = grads[name]
        m, v = state.m[name], state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        if lr != 0.0:
            m_hat = m / bc1
            v_hat = v / bc2
            params[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def prepare_samples(samples: Iterable[tuple[PointCloud, np.ndarray]],
                    spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(pillars, labels) stacks of (world-frame cloud, labels) pairs: each
    cloud becomes float32 pillars as soon as it is drawn, then is dropped."""
    pillars, labels = [], []
    for cloud, grid_labels in samples:
        pillars.append(pillar_features(cloud, spec).astype(np.float32))
        labels.append(grid_labels)
        del cloud
    if not pillars:
        raise ValueError("empty sample list")
    return np.stack(pillars), np.stack(labels)


def train(init: Params | None, pillars: np.ndarray, labels: np.ndarray,
          cfg: PipelineConfig, seed: int) -> tuple[Params, list[float]]:
    """Train on (pillars, labels) stacks; returns params + per-epoch losses.

    With `init` None the whole model trains from scratch (pre-training, or
    the scratch baseline).  With a checkpoint's params the encoder and the
    transposed-conv decode path start from it and only the head is fresh
    (fine-tuning).  `seed` replaces ``cfg.seed``, so a run's ``--seed``
    leaves the config as loaded.  Raises on a shape-incompatible checkpoint.
    """
    params = init_params(cfg, substream(seed, "init").integers(2**63))
    if init is not None:
        for name in transfer_param_names():
            if name not in init:
                raise ValueError(f"checkpoint is missing parameter {name}")
            if init[name].shape != params[name].shape:
                raise ValueError(
                    f"checkpoint parameter {name} has shape "
                    f"{init[name].shape}, model expects {params[name].shape}")
            params[name] = init[name].astype(params[name].dtype)
    n = pillars.shape[0]
    weights = loss_weights(cfg)
    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = steps_per_epoch * cfg.epochs
    opt = AdamState.init(params)
    order_rng = substream(seed, "batch-order")
    trace: list[float] = []
    step = 0

    def diverged(why) -> NumericalError:
        return NumericalError(
            f"{why} at step {step} (epoch {len(trace)}, lr {lr:.2e})")

    def run_step(sel: np.ndarray) -> float:
        """One update on the samples `sel`.  Every array the step makes is
        a local here, dropped as soon as the step is done with it, so no
        step's arrays overlap the next step's."""
        logits, cache = model_forward(pillars[sel], params)
        try:
            pred = softmax_field(logits)
        except ValueError as exc:  # NaN logits: the run diverged
            raise diverged(exc) from exc
        del logits
        loss, dlogits = total_loss(pred, labels[sel], weights, cfg.lam,
                                   cfg.lovasz_classes)
        del pred
        if not np.isfinite(loss):
            raise diverged(f"non-finite loss {loss}")
        adam_step(params, model_backward(cache, dlogits, params), opt, lr)
        return loss

    for _ in range(cfg.epochs):
        order = order_rng.permutation(n)
        epoch_losses = []
        for s in range(steps_per_epoch):
            lr = one_cycle_lr(step, total_steps, cfg.lr_peak)
            epoch_losses.append(
                run_step(order[s * cfg.batch_size:(s + 1) * cfg.batch_size]))
            step += 1
        trace.append(float(np.mean(epoch_losses)))
    return params, trace


def evaluate(params: Params, pillars: np.ndarray, labels: np.ndarray,
             cfg: PipelineConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """Argmax predictions over `pillars`; returns (cm, per-class IoU, mIoU).

    The mean leaves out class 0 (empty).
    """
    n_out = cfg.grid.n_cls + 1
    cm = np.zeros((n_out, n_out), dtype=np.int64)
    for i in range(pillars.shape[0]):
        logits, _ = model_forward(pillars[i:i + 1], params)
        pred = logits[0].argmax(axis=-1)
        cm += confusion_matrix(labels[i], pred, n_out)
    iou, mean = miou(cm)
    return cm, iou, mean


def save_model(path, params: Params, cfg: PipelineConfig, seed: int,
               extra: dict) -> None:
    """Write a checkpoint: JSON header (architecture, seed, shapes and the
    caller's `extra` record), f32 blob, which holds float32 parameters
    exactly."""
    model = {"n_cls": cfg.grid.n_cls, "channels": list(cfg.channels)}
    header = {"model": model, "seed": seed,
              "params": {k: list(v.shape) for k, v in params.items()},
              "extra": extra}
    write_checkpoint(path, header, flatten_params(params))


def load_model(path, cfg: PipelineConfig) -> Params:
    """The parameters of a checkpoint; a header whose architecture disagrees
    with `cfg` is a ConfigError, a malformed one or a parameter that is not
    finite a FormatError.  Other header keys (older checkpoints also hold
    ``feat_dim`` and ``lam``) are ignored."""
    header, blob = read_checkpoint(path)
    try:
        model = header["model"]
        saved = {"grid.n_cls": int(model["n_cls"]),
                 "train.channels": [int(c) for c in model["channels"]]}
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed checkpoint: {exc!r}") from exc
    for key, want in (("grid.n_cls", cfg.grid.n_cls),
                      ("train.channels", list(cfg.channels))):
        if saved[key] != want:
            raise ConfigError(f"{key}: config has {want}, checkpoint {path} "
                              f"has {saved[key]}")
    if not np.isfinite(blob).all():
        raise FormatError(f"{path}: checkpoint has non-finite parameters")
    try:
        return unflatten_params(blob, cfg)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed checkpoint: {exc!r}") from exc
