"""Pipeline configuration: strict JSON parsing with field-path diagnostics.

One table, ``_FIELDS``, states every JSON key once: its path in the
document, the :class:`PipelineConfig` attribute it fills, and its kind.  A
kind checks the JSON type on the way in (no coercion: a bool is not an int,
a float is not an int, NaN and Infinity are not numbers) and converts the
value back on the way out.  Parsing and serialising both walk that table, so
they cannot disagree, and ``parse -> serialise -> parse`` is the identity.

Unknown keys are rejected (silent hyperparameter typos are the main
reproducibility hazard).  Range checks live in ``PipelineConfig.__post_init__``
and in the section dataclasses (``SceneParams``, ``GridSpec``, ``BeamSpec``),
so a config built directly in code is checked exactly like a parsed one.
Every error is a :class:`ConfigError` that names the JSON path.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path

from .balance import DEFAULT_N_CLS
from .occupancy import GridSpec
from .synth import BeamSpec, SceneParams

__all__ = ["PipelineConfig", "ConfigError", "load_config", "parse_config"]


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


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
    rotation_range_deg: float = 0.0
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

    def __post_init__(self):
        n_cls, mix, g = self.grid.n_cls, self.scene.class_mix, self.grid
        # the origins of a grid symmetric about x=0 and y=0
        mid_x, mid_y = -g.w * g.cell_size / 2.0, -g.h * g.cell_size / 2.0
        centred_x = math.isclose(g.origin_x, mid_x, abs_tol=1e-9)
        centred_y = math.isclose(g.origin_y, mid_y, abs_tol=1e-9)
        checks = (
            ("n_sequences", self.n_sequences >= 1, "must be >= 1"),
            ("scene.ground_class", 1 <= self.scene.ground_class <= n_cls,
             f"class {self.scene.ground_class} outside 1..{n_cls}"),
            ("scene.class_mix", all(1 <= c <= n_cls for c in mix),
             f"class ids {sorted(mix)} not all in 1..{n_cls}"),
            ("sequence.n_frames", self.n_frames >= 1, "must be >= 1"),
            ("sequence.keyframe_hz", self.keyframe_hz > 0, "must be positive"),
            ("grid", self.grid.h % 4 == 0 and self.grid.w % 4 == 0,
             "h and w must be divisible by 4 for the model"),
            ("augment.flip_prob_x", 0 <= self.flip_prob_x <= 1, "must lie in [0, 1]"),
            ("augment.flip_prob_y", 0 <= self.flip_prob_y <= 1, "must lie in [0, 1]"),
            # a flip mirrors the label grid, which needs a centred grid
            ("augment.flip_prob_x", self.flip_prob_x == 0 or centred_y,
             f"above 0 needs grid.origin_y = {mid_y} (centred), "
             f"got {g.origin_y}"),
            ("augment.flip_prob_y", self.flip_prob_y == 0 or centred_x,
             f"above 0 needs grid.origin_x = {mid_x} (centred), "
             f"got {g.origin_x}"),
            ("augment.rotation_range_deg", self.rotation_range_deg >= 0,
             "must be >= 0"),
            ("balance.foreground_classes",
             all(1 <= c <= n_cls for c in self.foreground_classes),
             f"classes {list(self.foreground_classes)} not all in 1..{n_cls}"),
            ("balance.epoch_size", self.epoch_size is None or self.epoch_size >= 1,
             "must be a positive integer or null"),
            ("loss", min(self.w_fg, self.w_bg, self.w_empty) > 0,
             "weights must be strictly positive"),
            ("loss.lambda", self.lam >= 0, "must be >= 0"),
            ("loss.lovasz_classes", self.lovasz_classes in ("present", "all"),
             "must be 'present' or 'all'"),
            ("occupancy", self.densify_radius > 0 and self.densify_k >= 1,
             "radius must be > 0 and k >= 1"),
            ("occupancy.keyframe", 0 <= self.keyframe < self.n_frames,
             f"must lie in 0..{self.n_frames - 1}"),
            ("train", self.epochs >= 1 and self.batch_size >= 1,
             "epochs and batch_size must be >= 1"),
            ("train.lr_peak", self.lr_peak >= 0, "must be >= 0"),
            ("train.channels", len(self.channels) == 3 and min(self.channels) >= 1,
             "must be three positive integers"),
        )
        for path, ok, why in checks:
            if not ok:
                raise ConfigError(f"{path}: {why}")

    def to_json_dict(self) -> dict:
        doc: dict = {}
        for path, attr, kind in _FIELDS:
            section, _, key = path.rpartition(".")
            target = doc.setdefault(section, {}) if section else doc
            target[key] = kind.dump(attrgetter(attr)(self))
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


# -- value kinds: load(value, path) checks and converts, dump converts back ---

@dataclass(frozen=True)
class _Plain:
    """A JSON value of one type (or null when `null` is set), never coerced;
    a float also takes a JSON integer, and must be finite."""

    type: type
    null: bool = False

    def load(self, value, path: str):
        if value is None and self.null:
            return None
        ok = type(value) is self.type
        if self.type is float:  # the bound also rejects NaN and huge ints
            ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
        if not ok:
            finite = "finite " if self.type is float else ""
            raise ConfigError(f"{path}: expected {finite}{self.type.__name__}"
                              f"{' or null' if self.null else ''}, got {value!r:.40}")
        return self.type(value)

    def dump(self, value):
        return None if value is None else self.type(value)


@dataclass(frozen=True)
class _Tuple:
    """A JSON list of `item` values, of exactly `length` when given."""

    item: object
    length: int | None = None

    def load(self, value, path: str) -> tuple:
        if type(value) is not list or self.length not in (None, len(value)):
            size = f" of {self.length} items" if self.length else ""
            raise ConfigError(f"{path}: expected a list{size}, got {value!r:.40}")
        return tuple(self.item.load(v, f"{path}[{i}]") for i, v in enumerate(value))

    def dump(self, value) -> list:
        return [self.item.dump(v) for v in value]


class _ClassMix:
    """``{"<class id>": weight}``; keys are canonical decimal integers."""

    def load(self, value, path: str) -> dict[int, float]:
        mix = {}
        for key, weight in _DICT.load(value, path).items():
            if not (key.isascii() and key.isdigit() and str(int(key)) == key):
                raise ConfigError(f"{path}: key {key!r} is not a class id")
            mix[int(key)] = _FLOAT.load(weight, f"{path}.{key}")
        return mix

    def dump(self, value: dict[int, float]) -> dict:
        return {str(k): _FLOAT.dump(v) for k, v in sorted(value.items())}


class _Beams:
    """A :class:`BeamSpec` object; ``azimuth_steps`` is optional."""

    keys = (("n_beams", _Plain(int)), ("alpha_up", _Plain(float)),
            ("alpha_low", _Plain(float)), ("azimuth_steps", _Plain(int)))

    def load(self, value, path: str) -> BeamSpec:
        obj = _DICT.load(value, path)
        kwargs = {k: kind.load(obj.pop(k), f"{path}.{k}")
                  for k, kind in self.keys if k in obj}
        _reject_extras(obj, path)
        try:  # a TypeError names a missing required key
            return BeamSpec(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    def dump(self, value: BeamSpec) -> dict:
        return {k: kind.dump(getattr(value, k)) for k, kind in self.keys}


_INT, _FLOAT, _DICT = _Plain(int), _Plain(float), _Plain(dict)
_PAIR = _Tuple(_FLOAT, 2)

#: (JSON path, PipelineConfig attribute path, kind), one row per JSON key.
_FIELDS = (
    ("seed", "seed", _INT),
    ("n_sequences", "n_sequences", _INT),
    ("scene.arena", "scene.arena", _Tuple(_FLOAT, 4)),
    ("scene.n_objects", "scene.n_objects", _INT),
    ("scene.class_mix", "scene.class_mix", _ClassMix()),
    ("scene.dynamic_fraction", "scene.dynamic_fraction", _FLOAT),
    ("scene.size_range_l", "scene.size_range_l", _PAIR),
    ("scene.size_range_w", "scene.size_range_w", _PAIR),
    ("scene.size_range_h", "scene.size_range_h", _PAIR),
    ("scene.speed_range", "scene.speed_range", _PAIR),
    ("scene.ground_z", "scene.ground_z", _Plain(float, null=True)),
    ("scene.ground_class", "scene.ground_class", _INT),
    ("beams.source", "source_beams", _Beams()),
    ("beams.targets", "target_beams", _Tuple(_Beams())),
    ("sequence.n_frames", "n_frames", _INT),
    ("sequence.keyframe_hz", "keyframe_hz", _FLOAT),
    ("sequence.ego_speed", "ego_speed", _FLOAT),
    ("sequence.sensor_height", "sensor_height", _FLOAT),
    ("grid.origin_x", "grid.origin_x", _FLOAT),
    ("grid.origin_y", "grid.origin_y", _FLOAT),
    ("grid.cell_size", "grid.cell_size", _FLOAT),
    ("grid.h", "grid.h", _INT),
    ("grid.w", "grid.w", _INT),
    ("grid.z_min", "grid.z_min", _FLOAT),
    ("grid.z_max", "grid.z_max", _FLOAT),
    ("grid.n_cls", "grid.n_cls", _INT),
    ("augment.flip_prob_x", "flip_prob_x", _FLOAT),
    ("augment.flip_prob_y", "flip_prob_y", _FLOAT),
    ("augment.rotation_range_deg", "rotation_range_deg", _FLOAT),
    ("balance.foreground_classes", "foreground_classes", _Tuple(_INT)),
    ("balance.epoch_size", "epoch_size", _Plain(int, null=True)),
    ("loss.w_fg", "w_fg", _FLOAT),
    ("loss.w_bg", "w_bg", _FLOAT),
    ("loss.w_empty", "w_empty", _FLOAT),
    ("loss.lambda", "lam", _FLOAT),
    ("loss.lovasz_classes", "lovasz_classes", _Plain(str)),
    ("occupancy.densify", "densify", _Plain(bool)),
    ("occupancy.radius", "densify_radius", _FLOAT),
    ("occupancy.k", "densify_k", _INT),
    ("occupancy.keyframe", "keyframe", _INT),
    ("train.epochs", "epochs", _INT),
    ("train.batch_size", "batch_size", _INT),
    ("train.lr_peak", "lr_peak", _FLOAT),
    ("train.channels", "channels", _Tuple(_INT, 3)),
)


def _reject_extras(obj: dict, path: str) -> None:
    if obj:
        raise ConfigError(f"{path or '<root>'}: unknown keys {sorted(obj)}")


def parse_config(doc: dict) -> PipelineConfig:
    """Build a validated PipelineConfig from a parsed JSON document."""
    root = _DICT.load(doc, "<root>")
    objs = {"": root}  # JSON section -> its keys not yet consumed
    top: dict = {}
    nested: dict[str, dict] = {}  # section dataclass attribute -> fields
    for path, attr, kind in _FIELDS:
        section, _, key = path.rpartition(".")
        if section not in objs:
            objs[section] = _DICT.load(root.pop(section, {}), section)
        if key in objs[section]:
            owner, _, name = attr.rpartition(".")
            value = kind.load(objs[section].pop(key), path)
            (nested.setdefault(owner, {}) if owner else top)[name] = value
    for section, obj in objs.items():
        _reject_extras(obj, section)
    defaults = PipelineConfig()
    for name, kwargs in nested.items():
        try:
            top[name] = replace(getattr(defaults, name), **kwargs)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    return PipelineConfig(**top)


def load_config(path) -> PipelineConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(doc)
