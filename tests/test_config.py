import hashlib
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from occspot.config import ConfigError, PipelineConfig, load_config, parse_config
from occspot.occupancy import GridSpec
from occspot.synth import SceneParams

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"


@pytest.mark.parametrize("n", [0, -2])
def test_parse_config_rejects_n_sequences_below_one(n):
    with pytest.raises(ConfigError, match="n_sequences"):
        parse_config({"n_sequences": n})


def test_parse_config_accepts_one_sequence():
    assert parse_config({"n_sequences": 1}).n_sequences == 1


def test_largest_seed_is_accepted():
    assert parse_config({"seed": 2**64 - 1}).seed == 2**64 - 1


# The serialised config is hashed into every run manifest, and the
# gen-scenes manifest is part of the benchmark's data hash: these bytes
# must not change by accident.
@pytest.mark.parametrize("name, sha256", [
    (None, "e881f890fd903d61784fccaa40827386b46a0f3a2cc1d521e48e1a86258c16ec"),
    ("occupancy_heavy",
     "1bba416070abbf1af684d35dce05ee3e1c51da5da19a396d6f73b8967224e14c"),
    ("scan_heavy",
     "476c302fcad8cb59a9b9fe23259f716b8d8ebf2a3e9250b5cdfb0debdd8a8993"),
    ("train_heavy",
     "854af17809a871916a0ee9a83e5a10d8a0de3b07f33614ea82a18343e7ce14c4"),
])
def test_serialised_bytes_are_pinned(name, sha256):
    cfg = PipelineConfig() if name is None else \
        load_config(WORKLOADS / f"{name}.json")
    assert hashlib.sha256(cfg.to_json().encode()).hexdigest() == sha256


# -- malformed documents: each is a ConfigError naming its JSON path ----------

MALFORMED = [
    ('{"scene": {"arena": ["a", 1, 2, 3]}}', "scene.arena[0]"),
    ('{"beams": {"targets": [3]}}', "beams.targets[0]"),
    ('{"n_sequences": true}', "n_sequences"),
    # seeds alias modulo 2**64: -1 would draw the streams of 2**64 - 1
    ('{"seed": -1}', "seed"),
    ('{"seed": 18446744073709551616}', "seed"),
    ('{"train": {"channels": [8.9, 16, 16]}}', "train.channels[0]"),
    ('{"balance": {"foreground_classes": [1.7]}}',
     "balance.foreground_classes[0]"),
    ('{"balance": {"foreground_classes": ["3"]}}',
     "balance.foreground_classes[0]"),
    ('{"train": {"channels": ["x", 16, 16]}}', "train.channels[0]"),
    ('{"scene": {"size_range_l": [1.0]}}', "scene.size_range_l"),
    ('{"scene": {"size_range_l": [-2.0, -1.0]}}', "scene.size_range_l"),
    ('{"scene": {"size_range_w": [2.0, 1.0]}}', "scene.size_range_w"),
    ('{"scene": {"speed_range": [3.0, 1.0]}}', "scene.speed_range"),
    ('{"scene": {"arena": [1.0, -1.0, -1.0, 1.0]}}', "scene.arena"),
    ('{"scene": {"n_objects": -1}}', "scene.n_objects"),
    ('{"scene": {"dynamic_fraction": 1.5}}', "scene.dynamic_fraction"),
    ('{"scene": {"class_mix": {"1": 0.0}}}', "scene"),
    ('{"scene": {"arena": [-1.0, 1.0, -1.0]}}', "scene.arena"),
    ('{"scene": {"arena": [-1.0, 1.0, -1.0, 1.0, 2.0]}}', "scene.arena"),
    ('{"balance": {"epoch_size": true}}', "balance.epoch_size"),
    ('{"train": {"lr_peak": NaN}}', "train.lr_peak"),
    ('{"sequence": {"ego_speed": -Infinity}}', "sequence.ego_speed"),
    ('{"scene": {"ground_class": 99}}', "scene.ground_class"),
    ('{"scene": {"ground_class": 0}}', "scene.ground_class"),
    ('{"scene": {"class_mix": {"0": 1.0}}}', "scene.class_mix"),
    ('{"scene": {"class_mix": {"16": 1.0}}}', "scene.class_mix"),
    ('{"scene": {"class_mix": {"01": 1.0}}}', "scene.class_mix"),
    ('{"scene": {"class_mix": {"1": 2.0, "2": -1.0}}}', "scene.class_mix"),
    ('{"grid": {"n_cls": 0}}', "grid.n_cls"),
    ('{"grid": {"cell_size": 0.0}}', "grid.cell_size"),
    ('{"grid": {"h": 0}}', "grid.h"),
    ('{"grid": {"w": -4}}', "grid.w"),
    ('{"grid": {"z_min": 3.0, "z_max": 3.0}}', "grid"),
    ('{"grid": {"n_cls": 4}}', "scene.ground_class"),
    ('{"beams": {"source": {"n_beams": 8, "alpha_up": 1.0}}}', "beams.source"),
    ('{"beams": {"source": {"n_beams": 8, "alpha_up": 1.0, "alpha_low": 1.0}}}',
     "beams.source"),
    ('{"beams": {"source": {"n_beams": 0, "alpha_up": 1.0, "alpha_low": -1.0}}}',
     "beams.source.n_beams"),
    ('{"beams": {"targets": [{"n_beams": 4, "alpha_up": 1.0, "alpha_low": -1.0,'
     ' "azimuth_steps": 0}]}}', "beams.targets[0].azimuth_steps"),
    ('{"beams": {"source": {"n_beams": 8, "alpha_up": 90.5, "alpha_low": 1.0}}}',
     "beams.source.alpha_up"),
    ('{"beams": {"targets": [{"n_beams": 4, "alpha_up": 1.0,'
     ' "alpha_low": -91}]}}', "beams.targets[0].alpha_low"),
    ('{"train": {"bogus": 1}}', "train"),
    ('[]', "<root>"),
]


@pytest.mark.parametrize("text, path", MALFORMED)
def test_malformed_config_names_its_path(text, path):
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: "):
        parse_config(json.loads(text))


def test_n_cls_must_fit_in_a_byte(tmp_path):
    # labels and n_cls are stored as u8 in SPTL and SPOG files
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grid": {"n_cls": 255}}))
    assert load_config(path).grid.n_cls == 255
    path.write_text(json.dumps({"grid": {"n_cls": 256}}))
    with pytest.raises(ConfigError,
                       match=r"^grid\.n_cls: must lie in 1\.\.255 .*got 256$"):
        load_config(path)
    with pytest.raises(ValueError, match="n_cls must lie in 1..255"):
        GridSpec(0.0, 0.0, 1.0, 4, 4, -1.0, 1.0, n_cls=256)


OFF_CENTRE = GridSpec(0.0, -16.0, 1.0, 32, 32, -1.0, 3.0)


@pytest.mark.parametrize("text, path", [
    ('{"grid": {"origin_x": 0.0}, "augment": {"flip_prob_y": 1.0}}',
     "augment.flip_prob_y"),
    ('{"grid": {"origin_y": -15.0}, "augment": {"flip_prob_y": 0}}',
     "augment.flip_prob_x"),
    ('{"grid": {"cell_size": 0.5}}', "augment.flip_prob_x"),
    ('{"grid": {"w": 64}, "augment": {"flip_prob_x": 0.5}}',
     "augment.flip_prob_y"),
])
def test_flips_need_a_centred_grid(text, path):
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: above 0 needs"):
        parse_config(json.loads(text))


@pytest.mark.parametrize("doc", [
    {"grid": {"origin_x": 0.0, "origin_y": 3.0},
     "augment": {"flip_prob_x": 0, "flip_prob_y": 0.0}},
    {"grid": {"origin_x": 0.0}, "augment": {"flip_prob_y": 0}},
    {"grid": {"origin_y": 5.0}, "augment": {"flip_prob_x": 0}},
    # centred up to the 1e-9 tolerance, flips on by default
    {"grid": {"cell_size": 0.5, "origin_x": -8, "origin_y": -8.0 + 1e-12}},
])
def test_grids_and_flips_that_agree_parse(doc):
    cfg = parse_config(doc)
    assert parse_config(json.loads(cfg.to_json())) == cfg


@pytest.mark.parametrize("kwargs, path", [
    ({"keyframe": 99}, "occupancy.keyframe"),
    ({"lr_peak": -1.0}, "train.lr_peak"),
    ({"channels": (8, 16)}, "train.channels"),
    ({"foreground_classes": (0,)}, "balance.foreground_classes"),
    ({"scene": SceneParams(ground_class=16)}, "scene.ground_class"),
    ({"grid": OFF_CENTRE}, "augment.flip_prob_y"),
])
def test_direct_build_is_checked_like_a_parsed_one(kwargs, path):
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: "):
        PipelineConfig(**kwargs)


# -- parse -> serialise -> parse is the identity ------------------------------

def number(lo, hi):
    """Finite JSON numbers in [lo, hi]: floats, and integers too."""
    return st.floats(lo, hi) | st.integers(math.ceil(lo), math.floor(hi))


def ascending(n=2, lo=-1e6, hi=1e6):
    """`n` strictly increasing numbers in [lo, hi], still distinct as
    floats."""
    return st.lists(number(lo, hi), min_size=n, max_size=n,
                    unique_by=float).map(sorted)


def positive(hi=1e6):
    return number(0, hi).filter(lambda v: v > 0)


@st.composite
def beams(draw):
    low, up = draw(ascending(lo=-90, hi=90))  # elevations, in degrees
    doc = {"n_beams": draw(st.integers(1, 256)), "alpha_up": up, "alpha_low": low}
    if draw(st.booleans()):
        doc["azimuth_steps"] = draw(st.integers(1, 4000))
    return doc


def some(draw, section: dict) -> dict:
    """A random subset of a section's keys: the rest take their defaults."""
    return {k: draw(v) for k, v in section.items() if draw(st.booleans())}


@st.composite
def documents(draw):
    n_cls = draw(st.integers(1, 20))
    n_frames = draw(st.integers(1, 8))
    cls = st.integers(1, n_cls)
    x0, x1, y0, y1 = draw(ascending(2)) + draw(ascending(2))
    z_min, z_max = draw(ascending())
    size = st.lists(positive(1e3), min_size=2, max_size=2).map(sorted)
    speed = st.lists(number(-1e3, 1e3), min_size=2, max_size=2).map(sorted)
    grid = {"n_cls": n_cls, "z_min": z_min, "z_max": z_max, **some(draw, {
        "origin_x": number(-1e3, 1e3), "origin_y": number(-1e3, 1e3),
        "cell_size": positive(10), "h": st.integers(1, 64).map(lambda v: 4 * v),
        "w": st.integers(1, 64).map(lambda v: 4 * v)})}
    augment = some(draw, {"flip_prob_x": number(0, 1),
                          "flip_prob_y": number(0, 1)})
    if draw(st.booleans()):  # flips need a grid centred on the sensor
        cell = grid.get("cell_size", 1.0)
        grid["origin_x"] = -grid.get("w", 32) * cell / 2
        grid["origin_y"] = -grid.get("h", 32) * cell / 2
    else:
        augment.update(flip_prob_x=0, flip_prob_y=0.0)
    return {
        "seed": draw(st.integers(0, 2**64 - 1)),
        "n_sequences": draw(st.integers(1, 64)),
        "scene": {
            "arena": [x0, x1, y0, y1],
            "class_mix": draw(st.dictionaries(cls.map(str), positive(10),
                                              min_size=1)),
            "ground_class": draw(cls),
            **some(draw, {
                "n_objects": st.integers(0, 50),
                "dynamic_fraction": number(0, 1),
                "size_range_l": size, "size_range_w": size,
                "size_range_h": size, "speed_range": speed,
                "ground_z": st.none() | number(-10, 10)}),
        },
        "beams": some(draw, {"source": beams(),
                             "targets": st.lists(beams(), max_size=3)}),
        "sequence": {"n_frames": n_frames,
                     **some(draw, {"keyframe_hz": positive(),
                                   "ego_speed": number(-50, 50),
                                   "sensor_height": number(-5, 5)})},
        "grid": grid,
        "augment": augment,
        "balance": {"foreground_classes": draw(st.lists(cls, max_size=n_cls)),
                    **some(draw, {"epoch_size": st.none() | st.integers(1, 10**6)})},
        "loss": some(draw, {"w_fg": positive(), "w_bg": positive(),
                            "w_empty": positive(), "lambda": number(0, 10),
                            "lovasz_classes": st.sampled_from(["present", "all"])}),
        "occupancy": some(draw, {"densify": st.booleans(), "radius": positive(10),
                                 "k": st.integers(1, 32),
                                 "keyframe": st.integers(0, n_frames - 1)}),
        "train": some(draw, {"epochs": st.integers(1, 1000),
                             "batch_size": st.integers(1, 64),
                             "lr_peak": number(0, 1),
                             "channels": st.lists(st.integers(1, 64), min_size=3,
                                                  max_size=3)}),
    }


@given(documents())
@example({"grid": {"cell_size": 2, "origin_x": -32, "origin_y": -32,
                   "z_min": -1, "z_max": 3},
          "scene": {"class_mix": {"1": 3}, "ground_z": 0},
          "beams": {"source": {"n_beams": 8, "alpha_up": 0, "alpha_low": -20}},
          "train": {"lr_peak": 1}, "loss": {"lambda": 0}})
@settings(deadline=None)
def test_parse_serialise_parse_is_the_identity(doc):
    cfg = parse_config(doc)
    text = cfg.to_json()
    again = parse_config(json.loads(text))
    assert again == cfg
    assert again.to_json() == text


def test_rotation_range_is_an_unknown_key():
    # there is no rotation augmentation, so the key that named one is gone
    with pytest.raises(ConfigError, match=re.escape(
            "augment: unknown keys ['rotation_range_deg']")):
        parse_config({"augment": {"rotation_range_deg": 1.5}})
