"""Toy BEV encoder-decoder with hand-written forward and backward passes.

Encoder: pillar scatter (per-cell mean of point features plus normalized
in-cell offsets, linearly embedded) followed by two stride-2 3x3
convolutions with ReLU, so BEV features live at H/4 x W/4.  Decoder: three
3x3 transposed convolutions (strides 2, 2, 1) restoring H x W, then a
per-cell linear head producing one logit per class including empty.

Everything is float64 numpy; transposed convolutions are implemented as the
exact adjoint of the matching strided convolution, which keeps the manual
gradients honest under finite-difference checks.  Parameters travel as a
plain dict keyed by layer name so the optimizer and checkpoints can treat
them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cloud import PointCloud
from ..occupancy import GridSpec

__all__ = [
    "ModelConfig", "init_params", "param_names", "flatten_params",
    "unflatten_params", "pillar_features", "model_forward", "model_backward",
]

Params = dict[str, np.ndarray]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; `lam` is the loss mixing coefficient."""

    n_cls: int = 15
    feat_dim: int = 1
    channels: tuple[int, int, int] = (8, 16, 16)  # post-embed, enc1, enc2
    lam: float = 1.0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if len(self.channels) != 3 or min(self.channels) < 1:
            raise ValueError("channels must be three positive widths")

    @property
    def pillar_dim(self) -> int:
        # per-point features + (dx, dy) cell offsets + normalized height
        return self.feat_dim + 3

    @property
    def n_out(self) -> int:
        return self.n_cls + 1

    def to_dict(self) -> dict:
        return {"n_cls": self.n_cls, "feat_dim": self.feat_dim,
                "channels": list(self.channels), "lam": self.lam}

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return ModelConfig(n_cls=int(d["n_cls"]), feat_dim=int(d["feat_dim"]),
                           channels=tuple(int(c) for c in d["channels"]),
                           lam=float(d["lam"]))


# -- convolution primitives (channels-last, kernel 3, pad 1) -----------------

_K = 3
_PAD = 1


def _patches(x: np.ndarray, stride: int) -> np.ndarray:
    """(B, H, W, C) -> (B, OH, OW, k, k, C) sliding 3x3 windows."""
    padded = np.pad(x, ((0, 0), (_PAD, _PAD), (_PAD, _PAD), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(padded, (_K, _K), axis=(1, 2))
    # sliding_window_view yields (B, H', W', C, k, k)
    win = win[:, ::stride, ::stride]
    return np.ascontiguousarray(np.moveaxis(win, 3, 5))


def conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                 stride: int) -> np.ndarray:
    """3x3 convolution, padding 1; weight is (k, k, Cin, Cout)."""
    y = np.einsum("bhwijc,ijco->bhwo", _patches(x, stride), w, optimize=True)
    return y if b is None else y + b


def conv_backward_weight(x: np.ndarray, gy: np.ndarray, stride: int) -> np.ndarray:
    return np.einsum("bhwijc,bhwo->ijco", _patches(x, stride), gy, optimize=True)


def conv_backward_input(gy: np.ndarray, w: np.ndarray, in_hw: tuple[int, int],
                        stride: int) -> np.ndarray:
    """Scatter output gradients back through the 3x3 stencil (col2im)."""
    b, oh, ow, _ = gy.shape
    h, w_in = in_hw
    cin = w.shape[2]
    gcols = np.einsum("bhwo,ijco->bhwijc", gy, w, optimize=True)
    gx = np.zeros((b, h + 2 * _PAD, w_in + 2 * _PAD, cin))
    for i in range(_K):
        for j in range(_K):
            gx[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += \
                gcols[:, :, :, i, j]
    return gx[:, _PAD:_PAD + h, _PAD:_PAD + w_in]


def tconv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                  out_hw: tuple[int, int], stride: int) -> np.ndarray:
    """Transposed 3x3 convolution: the adjoint of ``conv_forward``.

    Weight is (k, k, Cout, Cin) — the shape of the matching down-conv.
    """
    return conv_backward_input(x, w, out_hw, stride) + b


def tconv_backward(x: np.ndarray, gy: np.ndarray, w: np.ndarray,
                   stride: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) of a transposed convolution."""
    dx = conv_forward(gy, w, None, stride)
    dw = conv_backward_weight(gy, x, stride)
    db = gy.sum(axis=(0, 1, 2))
    return dx, dw, db


# -- parameters ---------------------------------------------------------------

_LAYER_ORDER = ("embed_w", "conv1_w", "conv1_b", "conv2_w", "conv2_b",
                "up1_w", "up1_b", "up2_w", "up2_b", "up3_w", "up3_b",
                "head_w", "head_b")


def param_names() -> tuple[str, ...]:
    return _LAYER_ORDER


def _param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    c0, c1, c2 = cfg.channels
    return {
        "embed_w": (cfg.pillar_dim, c0),
        "conv1_w": (_K, _K, c0, c1), "conv1_b": (c1,),
        "conv2_w": (_K, _K, c1, c2), "conv2_b": (c2,),
        # transposed convs store the matching down-conv weight (k,k,Cout,Cin)
        "up1_w": (_K, _K, c1, c2), "up1_b": (c1,),
        "up2_w": (_K, _K, c0, c1), "up2_b": (c0,),
        "up3_w": (_K, _K, c0, c0), "up3_b": (c0,),
        "head_w": (c0, cfg.n_out), "head_b": (cfg.n_out,),
    }


def init_params(cfg: ModelConfig, seed: int) -> Params:
    """Fan-in-scaled uniform weights, zero biases."""
    rng = np.random.default_rng(seed)
    params: Params = {}
    for name, shape in _param_shapes(cfg).items():
        if name.endswith("_b"):
            params[name] = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[:-1]))
            bound = 1.0 / np.sqrt(fan_in)
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def flatten_params(params: Params) -> np.ndarray:
    return np.concatenate([params[k].ravel() for k in _LAYER_ORDER])


def unflatten_params(vec: np.ndarray, cfg: ModelConfig) -> Params:
    shapes = _param_shapes(cfg)
    out: Params = {}
    pos = 0
    for name in _LAYER_ORDER:
        size = int(np.prod(shapes[name]))
        out[name] = np.array(vec[pos:pos + size], dtype=np.float64).reshape(shapes[name])
        pos += size
    if pos != vec.size:
        raise ValueError(f"parameter blob has {vec.size} entries, expected {pos}")
    return out


# -- pillar scatter -----------------------------------------------------------

def pillar_features(cloud: PointCloud, spec: GridSpec,
                    cfg: ModelConfig) -> np.ndarray:
    """(H, W, pillar_dim) per-cell means; cells without points stay zero.

    Channels are the point features followed by the in-cell (dx, dy) offsets
    in cell units and the height centered/normalized over [z_min, z_max].
    Points outside the grid or the z band are ignored.
    """
    if cloud.d != cfg.feat_dim:
        raise ValueError(f"cloud has d={cloud.d}, model expects {cfg.feat_dim}")
    out = np.zeros((spec.h, spec.w, cfg.pillar_dim))
    if len(cloud) == 0:
        return out
    ii, jj, ok = spec.bin_points(cloud.xyz)
    if not ok.any():
        return out
    ii, jj = ii[ok], jj[ok]
    xyz = cloud.xyz[ok]
    cx = spec.origin_x + (jj + 0.5) * spec.cell_size
    cy = spec.origin_y + (ii + 0.5) * spec.cell_size
    cols = np.concatenate([
        cloud.feat[ok],
        ((xyz[:, 0] - cx) / spec.cell_size)[:, None],
        ((xyz[:, 1] - cy) / spec.cell_size)[:, None],
        ((xyz[:, 2] - spec.z_mid) / (spec.z_max - spec.z_min))[:, None],
    ], axis=1)

    flat = ii * spec.w + jj
    n_cells = spec.h * spec.w
    # bincount adds each column in input order, exactly as np.add.at would
    sums = np.stack([np.bincount(flat, weights=col, minlength=n_cells)
                     for col in cols.T], axis=1)
    counts = np.bincount(flat, minlength=n_cells).astype(np.float64)
    occupied = counts > 0
    sums[occupied] /= counts[occupied, None]
    return sums.reshape(spec.h, spec.w, cfg.pillar_dim)


# -- forward / backward -------------------------------------------------------

def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def model_forward(pillars: np.ndarray, params: Params
                  ) -> tuple[np.ndarray, dict]:
    """Batched forward pass: (B, H, W, pillar_dim) -> (B, H, W, n_out) logits.

    H and W must be divisible by 4.  The returned cache carries every
    intermediate needed by :func:`model_backward`, including the raw
    pre-activations (useful for locating ReLU kinks).
    """
    b, h, w, _ = pillars.shape
    if h % 4 or w % 4:
        raise ValueError(f"grid ({h}, {w}) must be divisible by 4")

    e0 = pillars @ params["embed_w"]
    z1 = conv_forward(e0, params["conv1_w"], params["conv1_b"], stride=2)
    a1 = _relu(z1)
    z2 = conv_forward(a1, params["conv2_w"], params["conv2_b"], stride=2)
    feats = _relu(z2)

    z3 = tconv_forward(feats, params["up1_w"], params["up1_b"],
                       (h // 2, w // 2), stride=2)
    a3 = _relu(z3)
    z4 = tconv_forward(a3, params["up2_w"], params["up2_b"], (h, w), stride=2)
    a4 = _relu(z4)
    z5 = tconv_forward(a4, params["up3_w"], params["up3_b"], (h, w), stride=1)
    a5 = _relu(z5)
    logits = a5 @ params["head_w"] + params["head_b"]

    cache = {"pillars": pillars, "e0": e0, "z1": z1, "a1": a1, "z2": z2,
             "feats": feats, "z3": z3, "a3": a3, "z4": z4, "a4": a4,
             "z5": z5, "a5": a5}
    return logits, cache


def model_backward(cache: dict, dlogits: np.ndarray, params: Params) -> Params:
    """Exact gradients of every parameter given dL/dlogits."""
    grads: Params = {}
    a5 = cache["a5"]
    grads["head_w"] = np.einsum("bhwc,bhwo->co", a5, dlogits, optimize=True)
    grads["head_b"] = dlogits.sum(axis=(0, 1, 2))
    da5 = dlogits @ params["head_w"].T

    dz5 = da5 * (cache["z5"] > 0)
    da4, grads["up3_w"], grads["up3_b"] = tconv_backward(
        cache["a4"], dz5, params["up3_w"], stride=1)
    dz4 = da4 * (cache["z4"] > 0)
    da3, grads["up2_w"], grads["up2_b"] = tconv_backward(
        cache["a3"], dz4, params["up2_w"], stride=2)
    dz3 = da3 * (cache["z3"] > 0)
    dfeats, grads["up1_w"], grads["up1_b"] = tconv_backward(
        cache["feats"], dz3, params["up1_w"], stride=2)

    dz2 = dfeats * (cache["z2"] > 0)
    grads["conv2_w"] = conv_backward_weight(cache["a1"], dz2, stride=2)
    grads["conv2_b"] = dz2.sum(axis=(0, 1, 2))
    da1 = conv_backward_input(dz2, params["conv2_w"],
                              cache["a1"].shape[1:3], stride=2)
    dz1 = da1 * (cache["z1"] > 0)
    grads["conv1_w"] = conv_backward_weight(cache["e0"], dz1, stride=2)
    grads["conv1_b"] = dz1.sum(axis=(0, 1, 2))
    de0 = conv_backward_input(dz1, params["conv1_w"],
                              cache["e0"].shape[1:3], stride=2)
    grads["embed_w"] = np.einsum("bhwp,bhwc->pc", cache["pillars"], de0,
                                 optimize=True)
    return grads


def min_preactivation_gap(cache: dict) -> float:
    """Smallest |pre-activation| across all ReLU inputs (kink proximity)."""
    return min(float(np.abs(cache[k]).min()) for k in ("z1", "z2", "z3", "z4", "z5"))


def transfer_param_names() -> tuple[str, ...]:
    """Parameters carried from pre-training into fine-tuning.

    Everything except the prediction head transfers: the encoder backbone
    plus the transposed-conv decode path.  The head is always re-initialized
    for the downstream task.
    """
    return tuple(n for n in _LAYER_ORDER if not n.startswith("head_"))
