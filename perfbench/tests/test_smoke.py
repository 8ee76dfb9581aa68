"""The whole benchmark on a miniature config, untraced and traced."""

import json

import pytest

import layers
import run

MINI = {
    "n_sequences": 2,
    "scene": {"n_objects": 2},
    "beams": {
        "source": {"n_beams": 8, "alpha_up": -2.0, "alpha_low": -26.0,
                   "azimuth_steps": 36},
        "targets": [{"n_beams": 4, "alpha_up": -2.0, "alpha_low": -26.0,
                     "azimuth_steps": 36}],
    },
    "sequence": {"n_frames": 2},
    "grid": {"origin_x": -4.0, "origin_y": -4.0, "h": 8, "w": 8},
    "train": {"epochs": 1},
}


@pytest.fixture
def mini(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    config = tmp_path / "mini.json"
    config.write_text(json.dumps(MINI))
    return config


def _check(result, detail, names):
    assert result["correct"], detail["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 8
    assert list(result["metrics"]) == list(names)
    for name, unit in names.items():
        m = result["metrics"][name]
        assert m["unit"] == unit
        assert isinstance(m["value"], float | int)


def test_untraced_run_reports_every_end_to_end_metric(mini):
    result, detail = run.measure("mini", mini, seed=3, seconds=0,
                                 trace=False)
    _check(result, detail, run.UNITS)
    assert all(result["metrics"][k]["value"] > 0 for k in run.UNITS)
    assert detail["stage_calls"]["make_occ"] == MINI["n_sequences"]
    assert detail["env"]["occspot_threads"] == 1


def test_traced_run_reports_every_per_layer_metric(mini):
    result, detail = run.measure("mini", mini, seed=3, seconds=0,
                                 trace=True)
    _check(result, detail, {k: u for k, (u, _) in layers.METRICS.items()})
    assert detail["checks"]["repeats_identical"]   # traced == untraced
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["synth.scan.calls"] == 2 * MINI["n_sequences"] * 2
    assert m["synth.rays"] == m["synth.scan.calls"] * 8 * 36
    assert m["learn.train_steps"] > 0 and m["theory.sweeps_per_s"] > 0
    assert m[layers.MIOU] == detail["heldout_miou"]
