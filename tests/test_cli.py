import json
import shutil

import pytest

from occspot import cli
from occspot.cli import main

MINI = {
    "n_sequences": 2,
    "scene": {"n_objects": 2},
    "beams": {"source": {"n_beams": 8, "alpha_up": -2.0, "alpha_low": -26.0,
                         "azimuth_steps": 36}},
    "sequence": {"n_frames": 2},
    "grid": {"origin_x": -4.0, "origin_y": -4.0, "h": 8, "w": 8},
    "train": {"epochs": 1},
}


def write_config(tmp_path, n_sequences):
    path = tmp_path / f"mini_{n_sequences}.json"
    path.write_text(json.dumps({**MINI, "n_sequences": n_sequences}))
    return str(path)


@pytest.fixture
def config(tmp_path):
    return write_config(tmp_path, 2)


@pytest.fixture
def data(tmp_path, config):
    out = tmp_path / "data"
    assert main(["gen-scenes", "--config", config, "--out", str(out)]) == 0
    return out


def pretrain(config, data, tmp_path):
    return main(["pretrain", "--config", config, "--data", str(data),
                 "--out", str(tmp_path / "model.npz")])


class TestDatasetManifest:
    def test_loads_listed_sequences(self, data):
        assert cli._load_dataset_dirs(data) == [data / "seq_0000",
                                                data / "seq_0001"]

    def test_stale_sequences_are_not_loaded(self, tmp_path, data, capsys):
        # a second, smaller run into the same directory leaves seq_0002 of
        # the first run behind
        out = str(data)
        assert main(["gen-scenes", "--config", write_config(tmp_path, 3),
                     "--out", out]) == 0
        config = write_config(tmp_path, 2)
        assert main(["gen-scenes", "--config", config, "--out", out]) == 0
        assert (data / "seq_0002").is_dir()
        assert len(cli._load_dataset_dirs(data)) == 2
        capsys.readouterr()
        assert pretrain(config, data, tmp_path) == 0
        assert "on 2 samples" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", [
        "no-manifest", "garbled", "no-outputs", "outputs-not-names",
        "empty-outputs", "listed-dir-missing"])
    def test_incomplete_tree_is_a_data_error(self, tmp_path, config, data,
                                             damage, capsys):
        manifest = data / "manifest.json"
        doc = json.loads(manifest.read_text())
        if damage == "no-manifest":
            manifest.unlink()
        elif damage == "garbled":
            manifest.write_text("{\"outputs\": [")
        elif damage == "no-outputs":
            del doc["outputs"]
            manifest.write_text(json.dumps(doc))
        elif damage == "outputs-not-names":
            manifest.write_text(json.dumps({**doc, "outputs": [0, 1]}))
        elif damage == "empty-outputs":
            manifest.write_text(json.dumps({**doc, "outputs": []}))
        else:
            shutil.rmtree(data / "seq_0001")
        capsys.readouterr()
        assert pretrain(config, data, tmp_path) == cli.EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_killed_rerun_does_not_look_complete(self, tmp_path, config, data,
                                                 monkeypatch):
        def killed(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "generate_dataset", killed)
        with pytest.raises(KeyboardInterrupt):
            main(["gen-scenes", "--config", config, "--out", str(data)])
        assert not (data / "manifest.json").exists()
        assert pretrain(config, data, tmp_path) == cli.EXIT_DATA


@pytest.mark.parametrize("override, path", [
    ({"scene": {"arena": ["a", 1, 2, 3]}}, "scene.arena[0]"),
    ({"beams": {"targets": [3]}}, "beams.targets[0]"),
    ({"scene": {"ground_class": 99}}, "scene.ground_class"),
    ({"scene": {"class_mix": {"0": 1.0}}}, "scene.class_mix"),
])
def test_malformed_config_is_a_config_error(tmp_path, override, path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**MINI, **override}))
    assert main(["gen-scenes", "--config", str(config),
                 "--out", str(tmp_path / "data")]) == cli.EXIT_CONFIG
    assert f"config error: {path}: " in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


class TestFlipsAndGridCentre:
    OFF = {**MINI, "grid": {**MINI["grid"], "origin_x": 0.0}}

    def test_flip_on_an_off_centre_grid_is_a_config_error(
            self, tmp_path, data, capsys):
        config = tmp_path / "off.json"
        config.write_text(json.dumps(
            {**self.OFF, "augment": {"flip_prob_y": 1.0}}))
        for argv in (["gen-scenes", "--config", str(config),
                      "--out", str(tmp_path / "again")],
                     ["pretrain", "--config", str(config), "--data", str(data),
                      "--out", str(tmp_path / "model.npz")]):
            assert main(argv) == cli.EXIT_CONFIG
            assert "config error: augment.flip_prob_y: " in capsys.readouterr().err
        assert not (tmp_path / "model.npz").exists()

    def test_off_centre_grid_trains_without_the_flip(self, tmp_path, data):
        config = tmp_path / "off.json"
        config.write_text(json.dumps(
            {**self.OFF, "augment": {"flip_prob_x": 1.0, "flip_prob_y": 0.0}}))
        assert pretrain(str(config), data, tmp_path) == cli.EXIT_OK


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_diverging_run_is_a_numerical_error(tmp_path, data, capsys):
    config = tmp_path / "hot.json"
    config.write_text(json.dumps(
        {**MINI, "train": {"epochs": 3, "lr_peak": 1e300}}))
    capsys.readouterr()
    assert pretrain(str(config), data, tmp_path) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: logits contain NaN at step ")
    assert not (tmp_path / "model.npz").exists()


class TestTheoryCheck:
    @pytest.mark.parametrize("sweeps", ["0", "-3"])
    def test_sweeps_below_one_is_a_config_error(self, sweeps, capsys):
        assert main(["theory-check", "--sweeps", sweeps]) == cli.EXIT_CONFIG
        assert "--sweeps" in capsys.readouterr().err

    def test_prints_standard_json(self, capsys):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        assert main(["theory-check", "--sweeps", "1", "--seed", "4"]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert {k: v["sweeps"] for k, v in report.items()} == {
            "bayes_bound": 1, "lemma1": 1, "risk_ordering": 1}
