"""Pipeline configuration: strict JSON parsing with field-path diagnostics.

Unknown keys are rejected (silent hyperparameter typos are the main
reproducibility hazard), every value is range-checked on the way in, and
``parse -> serialize -> parse`` is the identity.  Angles are accepted in
degrees here and converted to radians at this boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .balance import DEFAULT_N_CLS
from .occupancy import GridSpec
from .synth import BeamSpec, SceneParams

__all__ = ["PipelineConfig", "ConfigError", "load_config", "parse_config"]


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


def _ctx(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _take(obj: dict, path: str, key: str, kind, default=None,
          required: bool = False):
    if key not in obj:
        if required:
            raise ConfigError(f"{_ctx(path, key)}: missing required key")
        return default
    val = obj.pop(key)
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(
            f"{_ctx(path, key)}: expected {getattr(kind, '__name__', kind)}, "
            f"got {type(val).__name__}")
    return val


def _no_extras(obj: dict, path: str) -> None:
    if obj:
        raise ConfigError(f"{path or '<root>'}: unknown keys {sorted(obj)}")


def _parse_beams(obj: dict, path: str) -> BeamSpec:
    obj = dict(obj)
    try:
        spec = BeamSpec(
            n_beams=_take(obj, path, "n_beams", int, required=True),
            alpha_up=_take(obj, path, "alpha_up", float, required=True),
            alpha_low=_take(obj, path, "alpha_low", float, required=True),
            azimuth_steps=_take(obj, path, "azimuth_steps", int, default=720),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    _no_extras(obj, path)
    return spec


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a pipeline run needs, seeded by one root seed."""

    seed: int = 0
    n_sequences: int = 8
    scene: SceneParams = field(default_factory=SceneParams)
    source_beams: BeamSpec = field(
        default_factory=lambda: BeamSpec(64, -2.0, -26.0, 360))
    target_beams: tuple[BeamSpec, ...] = ()
    grid: GridSpec = field(default_factory=lambda: GridSpec(
        origin_x=-16.0, origin_y=-16.0, cell_size=1.0, h=32, w=32,
        z_min=-1.0, z_max=3.0, n_cls=DEFAULT_N_CLS))
    n_frames: int = 5
    keyframe_hz: float = 10.0
    ego_speed: float = 1.0
    sensor_height: float = 2.0
    flip_prob_x: float = 0.5
    flip_prob_y: float = 0.5
    rotation_range: float = 0.0  # radians
    foreground_classes: tuple[int, ...] = (1, 2, 3, 4, 5)
    epoch_size: int | None = None
    w_fg: float = 2.0
    w_bg: float = 1.0
    w_empty: float = 0.01
    lam: float = 1.0
    lovasz_classes: str = "present"
    densify: bool = True
    densify_radius: float = 0.4
    densify_k: int = 5
    keyframe: int = 0
    epochs: int = 10
    batch_size: int = 4
    lr_peak: float = 0.003
    channels: tuple[int, int, int] = (8, 16, 16)

    def to_json_dict(self) -> dict:
        s = self.scene
        return {
            "seed": self.seed,
            "n_sequences": self.n_sequences,
            "scene": {
                "arena": list(s.arena),
                "n_objects": s.n_objects,
                "class_mix": {str(k): v for k, v in sorted(s.class_mix.items())},
                "dynamic_fraction": s.dynamic_fraction,
                "size_range_l": list(s.size_range_l),
                "size_range_w": list(s.size_range_w),
                "size_range_h": list(s.size_range_h),
                "speed_range": list(s.speed_range),
                "ground_z": s.ground_z,
                "ground_class": s.ground_class,
            },
            "beams": {
                "source": {
                    "n_beams": self.source_beams.n_beams,
                    "alpha_up": self.source_beams.alpha_up,
                    "alpha_low": self.source_beams.alpha_low,
                    "azimuth_steps": self.source_beams.azimuth_steps,
                },
                "targets": [{
                    "n_beams": b.n_beams, "alpha_up": b.alpha_up,
                    "alpha_low": b.alpha_low, "azimuth_steps": b.azimuth_steps,
                } for b in self.target_beams],
            },
            "sequence": {
                "n_frames": self.n_frames,
                "keyframe_hz": self.keyframe_hz,
                "ego_speed": self.ego_speed,
                "sensor_height": self.sensor_height,
            },
            "grid": {
                "origin_x": self.grid.origin_x, "origin_y": self.grid.origin_y,
                "cell_size": self.grid.cell_size, "h": self.grid.h,
                "w": self.grid.w, "z_min": self.grid.z_min,
                "z_max": self.grid.z_max, "n_cls": self.grid.n_cls,
            },
            "augment": {
                "flip_prob_x": self.flip_prob_x,
                "flip_prob_y": self.flip_prob_y,
                "rotation_range_deg": math.degrees(self.rotation_range),
            },
            "balance": {
                "foreground_classes": list(self.foreground_classes),
                "epoch_size": self.epoch_size,
            },
            "loss": {
                "w_fg": self.w_fg, "w_bg": self.w_bg, "w_empty": self.w_empty,
                "lambda": self.lam, "lovasz_classes": self.lovasz_classes,
            },
            "occupancy": {
                "densify": self.densify, "radius": self.densify_radius,
                "k": self.densify_k, "keyframe": self.keyframe,
            },
            "train": {
                "epochs": self.epochs, "batch_size": self.batch_size,
                "lr_peak": self.lr_peak, "channels": list(self.channels),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def parse_config(doc: dict) -> PipelineConfig:
    """Build a validated PipelineConfig from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("<root>: config must be a JSON object")
    obj = dict(doc)
    defaults = PipelineConfig()

    seed = _take(obj, "", "seed", int, default=defaults.seed)
    n_sequences = _take(obj, "", "n_sequences", int, default=defaults.n_sequences)
    if n_sequences < 1:
        raise ConfigError("n_sequences: must be >= 1")

    scene = defaults.scene
    if "scene" in obj:
        s = dict(_take(obj, "", "scene", dict))
        mix_raw = _take(s, "scene", "class_mix", dict,
                        default={str(k): v for k, v in scene.class_mix.items()})
        try:
            class_mix = {int(k): float(v) for k, v in mix_raw.items()}
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"scene.class_mix: {exc}") from exc
        ground_z = s.pop("ground_z", scene.ground_z)
        if ground_z is not None and not isinstance(ground_z, (int, float)):
            raise ConfigError("scene.ground_z: expected number or null")
        try:
            scene = SceneParams(
                arena=tuple(_take(s, "scene", "arena", list, default=list(scene.arena))),
                n_objects=_take(s, "scene", "n_objects", int, default=scene.n_objects),
                class_mix=class_mix,
                dynamic_fraction=_take(s, "scene", "dynamic_fraction", float,
                                       default=scene.dynamic_fraction),
                size_range_l=tuple(_take(s, "scene", "size_range_l", list,
                                         default=list(scene.size_range_l))),
                size_range_w=tuple(_take(s, "scene", "size_range_w", list,
                                         default=list(scene.size_range_w))),
                size_range_h=tuple(_take(s, "scene", "size_range_h", list,
                                         default=list(scene.size_range_h))),
                speed_range=tuple(_take(s, "scene", "speed_range", list,
                                        default=list(scene.speed_range))),
                ground_z=None if ground_z is None else float(ground_z),
                ground_class=_take(s, "scene", "ground_class", int,
                                   default=scene.ground_class),
            )
        except ValueError as exc:
            raise ConfigError(f"scene: {exc}") from exc
        _no_extras(s, "scene")

    source_beams, target_beams = defaults.source_beams, defaults.target_beams
    if "beams" in obj:
        b = dict(_take(obj, "", "beams", dict))
        if "source" in b:
            source_beams = _parse_beams(_take(b, "beams", "source", dict),
                                        "beams.source")
        targets = _take(b, "beams", "targets", list, default=None)
        if targets is not None:
            target_beams = tuple(
                _parse_beams(t, f"beams.targets[{i}]") for i, t in enumerate(targets))
        _no_extras(b, "beams")

    seq = {"n_frames": defaults.n_frames, "keyframe_hz": defaults.keyframe_hz,
           "ego_speed": defaults.ego_speed, "sensor_height": defaults.sensor_height}
    if "sequence" in obj:
        q = dict(_take(obj, "", "sequence", dict))
        seq["n_frames"] = _take(q, "sequence", "n_frames", int, default=seq["n_frames"])
        seq["keyframe_hz"] = _take(q, "sequence", "keyframe_hz", float,
                                   default=seq["keyframe_hz"])
        seq["ego_speed"] = _take(q, "sequence", "ego_speed", float,
                                 default=seq["ego_speed"])
        seq["sensor_height"] = _take(q, "sequence", "sensor_height", float,
                                     default=seq["sensor_height"])
        _no_extras(q, "sequence")
    if seq["n_frames"] < 1:
        raise ConfigError("sequence.n_frames: must be >= 1")
    if seq["keyframe_hz"] <= 0:
        raise ConfigError("sequence.keyframe_hz: must be positive")

    grid = defaults.grid
    if "grid" in obj:
        g = dict(_take(obj, "", "grid", dict))
        try:
            grid = GridSpec(
                origin_x=_take(g, "grid", "origin_x", float, default=grid.origin_x),
                origin_y=_take(g, "grid", "origin_y", float, default=grid.origin_y),
                cell_size=_take(g, "grid", "cell_size", float, default=grid.cell_size),
                h=_take(g, "grid", "h", int, default=grid.h),
                w=_take(g, "grid", "w", int, default=grid.w),
                z_min=_take(g, "grid", "z_min", float, default=grid.z_min),
                z_max=_take(g, "grid", "z_max", float, default=grid.z_max),
                n_cls=_take(g, "grid", "n_cls", int, default=grid.n_cls),
            )
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc
        _no_extras(g, "grid")

    aug = {"flip_prob_x": defaults.flip_prob_x, "flip_prob_y": defaults.flip_prob_y,
           "rotation_range": defaults.rotation_range}
    if "augment" in obj:
        a = dict(_take(obj, "", "augment", dict))
        aug["flip_prob_x"] = _take(a, "augment", "flip_prob_x", float,
                                   default=aug["flip_prob_x"])
        aug["flip_prob_y"] = _take(a, "augment", "flip_prob_y", float,
                                   default=aug["flip_prob_y"])
        deg = _take(a, "augment", "rotation_range_deg", float,
                    default=math.degrees(aug["rotation_range"]))
        aug["rotation_range"] = math.radians(deg)
        _no_extras(a, "augment")
    for key in ("flip_prob_x", "flip_prob_y"):
        if not 0.0 <= aug[key] <= 1.0:
            raise ConfigError(f"augment.{key}: must lie in [0, 1]")
    if aug["rotation_range"] < 0:
        raise ConfigError("augment.rotation_range_deg: must be >= 0")

    bal = {"foreground_classes": defaults.foreground_classes,
           "epoch_size": defaults.epoch_size}
    if "balance" in obj:
        blk = dict(_take(obj, "", "balance", dict))
        fg = _take(blk, "balance", "foreground_classes", list,
                   default=list(bal["foreground_classes"]))
        bal["foreground_classes"] = tuple(int(c) for c in fg)
        epoch_size = blk.pop("epoch_size", bal["epoch_size"])
        if epoch_size is not None:
            if not isinstance(epoch_size, int) or epoch_size < 1:
                raise ConfigError("balance.epoch_size: must be a positive integer or null")
        bal["epoch_size"] = epoch_size
        _no_extras(blk, "balance")
    for c in bal["foreground_classes"]:
        if not 1 <= c <= grid.n_cls:
            raise ConfigError(
                f"balance.foreground_classes: class {c} outside 1..{grid.n_cls}")

    loss = {"w_fg": defaults.w_fg, "w_bg": defaults.w_bg,
            "w_empty": defaults.w_empty, "lam": defaults.lam,
            "lovasz_classes": defaults.lovasz_classes}
    if "loss" in obj:
        lo = dict(_take(obj, "", "loss", dict))
        loss["w_fg"] = _take(lo, "loss", "w_fg", float, default=loss["w_fg"])
        loss["w_bg"] = _take(lo, "loss", "w_bg", float, default=loss["w_bg"])
        loss["w_empty"] = _take(lo, "loss", "w_empty", float, default=loss["w_empty"])
        loss["lam"] = _take(lo, "loss", "lambda", float, default=loss["lam"])
        loss["lovasz_classes"] = _take(lo, "loss", "lovasz_classes", str,
                                       default=loss["lovasz_classes"])
        _no_extras(lo, "loss")
    if min(loss["w_fg"], loss["w_bg"], loss["w_empty"]) <= 0:
        raise ConfigError("loss: weights must be strictly positive")
    if loss["lam"] < 0:
        raise ConfigError("loss.lambda: must be >= 0")
    if loss["lovasz_classes"] not in ("present", "all"):
        raise ConfigError("loss.lovasz_classes: must be 'present' or 'all'")

    occ = {"densify": defaults.densify, "radius": defaults.densify_radius,
           "k": defaults.densify_k, "keyframe": defaults.keyframe}
    if "occupancy" in obj:
        oc = dict(_take(obj, "", "occupancy", dict))
        occ["densify"] = _take(oc, "occupancy", "densify", bool, default=occ["densify"])
        occ["radius"] = _take(oc, "occupancy", "radius", float, default=occ["radius"])
        occ["k"] = _take(oc, "occupancy", "k", int, default=occ["k"])
        occ["keyframe"] = _take(oc, "occupancy", "keyframe", int,
                                default=occ["keyframe"])
        _no_extras(oc, "occupancy")
    if occ["radius"] <= 0 or occ["k"] < 1:
        raise ConfigError("occupancy: radius must be > 0 and k >= 1")
    if not 0 <= occ["keyframe"] < seq["n_frames"]:
        raise ConfigError(
            f"occupancy.keyframe: must lie in 0..{seq['n_frames'] - 1}")

    tr = {"epochs": defaults.epochs, "batch_size": defaults.batch_size,
          "lr_peak": defaults.lr_peak, "channels": defaults.channels}
    if "train" in obj:
        t = dict(_take(obj, "", "train", dict))
        tr["epochs"] = _take(t, "train", "epochs", int, default=tr["epochs"])
        tr["batch_size"] = _take(t, "train", "batch_size", int,
                                 default=tr["batch_size"])
        tr["lr_peak"] = _take(t, "train", "lr_peak", float, default=tr["lr_peak"])
        ch = _take(t, "train", "channels", list, default=list(tr["channels"]))
        tr["channels"] = tuple(int(c) for c in ch)
        _no_extras(t, "train")
    if tr["epochs"] < 1 or tr["batch_size"] < 1:
        raise ConfigError("train: epochs and batch_size must be >= 1")
    if tr["lr_peak"] < 0:
        raise ConfigError("train.lr_peak: must be >= 0")
    if len(tr["channels"]) != 3 or min(tr["channels"]) < 1:
        raise ConfigError("train.channels: must be three positive integers")
    if grid.h % 4 or grid.w % 4:
        raise ConfigError("grid: h and w must be divisible by 4 for the model")

    _no_extras(obj, "")
    return PipelineConfig(
        seed=seed, n_sequences=n_sequences, scene=scene,
        source_beams=source_beams, target_beams=target_beams, grid=grid,
        n_frames=seq["n_frames"], keyframe_hz=seq["keyframe_hz"],
        ego_speed=seq["ego_speed"], sensor_height=seq["sensor_height"],
        flip_prob_x=aug["flip_prob_x"], flip_prob_y=aug["flip_prob_y"],
        rotation_range=aug["rotation_range"],
        foreground_classes=bal["foreground_classes"], epoch_size=bal["epoch_size"],
        w_fg=loss["w_fg"], w_bg=loss["w_bg"], w_empty=loss["w_empty"],
        lam=loss["lam"], lovasz_classes=loss["lovasz_classes"],
        densify=occ["densify"], densify_radius=occ["radius"], densify_k=occ["k"],
        keyframe=occ["keyframe"], epochs=tr["epochs"], batch_size=tr["batch_size"],
        lr_peak=tr["lr_peak"], channels=tr["channels"],
    )


def load_config(path) -> PipelineConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(doc)
