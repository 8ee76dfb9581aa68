import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import cloud_of, make_occupancy_reference

from occspot import cli, theory
from occspot.cli import main
from occspot.cloud import LidarSequence, PointCloud, Pose
from occspot.config import load_config
from occspot.formats import (read_checkpoint, read_frame, read_grid,
                             read_labels, write_checkpoint, write_frame,
                             write_labels)
from occspot.learn import train
from occspot.learn.model import transfer_param_names
from occspot.pipeline import load_sequence, write_sequence

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
        "empty-outputs", "listed-dir-missing", "absolute-path",
        "parent-path", "listed-twice"])
    def test_incomplete_tree_is_a_data_error(self, tmp_path, config, data,
                                             damage, capsys):
        manifest = data / "manifest.json"
        doc = json.loads(manifest.read_text())
        # a sequence outside the data directory, loadable if it were listed
        outside = tmp_path / "outside"
        shutil.copytree(data / "seq_0001", outside)
        if damage == "absolute-path":
            manifest.write_text(json.dumps({**doc, "outputs": [
                "seq_0000", str(outside)]}))
        elif damage == "parent-path":
            manifest.write_text(json.dumps({**doc, "outputs": [
                "seq_0000", "../outside"]}))
        elif damage == "no-manifest":
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
        elif damage == "listed-twice":  # would train on seq_0000 three times
            manifest.write_text(json.dumps({**doc,
                                            "outputs": ["seq_0000"] * 3}))
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


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("raw", ["abc", "0", "-4"])
def test_occspot_threads_is_ignored(tmp_path, config, data, monkeypatch, raw):
    # generation is serial, with no setting for it
    monkeypatch.setenv("OCCSPOT_THREADS", raw)
    out = tmp_path / "again"
    assert main(["gen-scenes", "--config", config,
                 "--out", str(out)]) == cli.EXIT_OK
    assert tree_bytes(out) == tree_bytes(data)


class TestStaleArtifactManifest:
    """A run killed between writing its artifact and the manifest leaves no
    manifest, not the previous run's, beside the new artifact."""

    def run(self, command, tmp_path, config, data):
        out = tmp_path / {"make-occ": "grid.spog", "resample": "out.sptc",
                          "pretrain": "model.npz", "finetune": "ft.npz"}[command]
        argv = {
            "make-occ": ["make-occ", "--config", config,
                         str(data / "seq_0000"), str(out)],
            "resample": ["resample", "--factor", "0.5",
                         str(data / "seq_0000" / "frame_000.sptc"), str(out)],
            "pretrain": ["pretrain", "--config", config, "--data", str(data),
                         "--out", str(out)],
            "finetune": ["finetune", "--ckpt", str(tmp_path / "model.npz"),
                         "--labels", "1", "--config", config, "--data",
                         str(data), "--out", str(out)],
        }[command]
        assert main(argv) == cli.EXIT_OK
        return out, out.with_suffix(out.suffix + ".manifest.json")

    @pytest.mark.parametrize("command", ["make-occ", "resample", "pretrain",
                                         "finetune"])
    def test_killed_after_the_artifact(self, tmp_path, config, data, command,
                                       monkeypatch):
        if command == "finetune":
            assert pretrain(config, data, tmp_path) == cli.EXIT_OK
        out, manifest = self.run(command, tmp_path, config, data)
        first = out.read_bytes(), manifest.read_bytes()

        def killed(*args, **kwargs):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(cli, "_write_manifest", killed)
            with pytest.raises(KeyboardInterrupt):
                self.run(command, tmp_path, config, data)
        assert out.exists() and not manifest.exists()
        # a run that completes writes the same bytes as the first
        self.run(command, tmp_path, config, data)
        assert (out.read_bytes(), manifest.read_bytes()) == first


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


def test_infeasible_scene_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "crowded.json"
    config.write_text(json.dumps({**MINI, "scene": {
        "n_objects": 40, "arena": [-3.0, 3.0, -3.0, 3.0]}}))
    assert main(["gen-scenes", "--config", str(config),
                 "--out", str(tmp_path / "data")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: scene.n_objects: infeasible placement: ")
    assert not (tmp_path / "data" / "manifest.json").exists()


def test_arena_too_small_for_a_box_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"n_sequences": 1, "scene": {
        "arena": [-1, 1, -1, 1], "n_objects": 1}}))
    assert main(["gen-scenes", "--config", str(config),
                 "--out", str(tmp_path / "data")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: scene.arena: (-1.0, 1.0, -1.0, 1.0) is too small ")
    assert not (tmp_path / "data" / "manifest.json").exists()


@pytest.mark.parametrize("damage", ["directory", "missing", "not-utf-8"])
def test_unreadable_config_is_a_config_error(tmp_path, damage, capsys):
    config = tmp_path / "config.json"
    if damage == "directory":
        config.mkdir()
    elif damage == "not-utf-8":
        config.write_bytes(b"\xff\xfe{}")
    assert main(["gen-scenes", "--config", str(config),
                 "--out", str(tmp_path / "data")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {config}: ")
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("alpha_up, why", [
    (95.0, "must lie in [-90, 90] degrees, got 95.0"),
    (math.nan, "expected finite float, got nan"),
])
def test_beam_elevation_past_a_pole_is_a_config_error(tmp_path, alpha_up, why,
                                                      capsys):
    config = tmp_path / "pole.json"
    config.write_text(json.dumps({**MINI, "beams": {"source": {
        **MINI["beams"]["source"], "alpha_up": alpha_up}}}))
    assert main(["gen-scenes", "--config", str(config),
                 "--out", str(tmp_path / "data")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: beams.source.alpha_up: {why}\n")
    assert not (tmp_path / "data").exists()


def test_pretrain_has_no_augment_switch(tmp_path, config, capsys):
    # no augmentation is flip probabilities 0 and no beam targets in the config
    with pytest.raises(SystemExit) as exc:
        main(["pretrain", "--config", config, "--data", str(tmp_path),
              "--out", str(tmp_path / "model.npz"), "--no-augment"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-augment" in capsys.readouterr().err


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


class _NoMallopt:
    """A C library without glibc's ``mallopt``."""


@pytest.mark.parametrize("cdll", [_NoMallopt, OSError])
def test_runs_where_the_allocator_cannot_be_tuned(monkeypatch, capsys, cdll):
    def load(name):
        if cdll is OSError:
            raise OSError("no C library to load")
        return cdll()

    monkeypatch.setattr(cli.ctypes, "CDLL", load)
    assert main(["theory-check", "--sweeps", "1"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)


class TestTheoryCheck:
    @pytest.mark.parametrize("sweeps", ["0", "-3"])
    def test_sweeps_below_one_is_a_config_error(self, sweeps, capsys):
        assert main(["theory-check", "--sweeps", sweeps]) == cli.EXIT_CONFIG
        assert "--sweeps" in capsys.readouterr().err

    def test_sweeps_above_ten_million_is_a_config_error(self, monkeypatch,
                                                        capsys):
        # rejected before anything is drawn: no sweep runs
        monkeypatch.setattr(theory, "_sweep_rows", None)
        assert main(["theory-check", "--sweeps",
                     str(10**7 + 1)]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "config error: --sweeps must lie in 1..10000000, got 10000001\n")

    def test_prints_standard_json(self, capsys):
        assert main(["theory-check", "--sweeps", "1", "--seed", "4"]) == 0
        report = json.loads(capsys.readouterr().out,
                            parse_constant=reject_constant)
        assert {k: v["sweeps"] for k, v in report.items()} == {
            "bayes_bound": 1, "lemma1": 1, "risk_ordering": 1}


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestUsageErrors:
    """A bad argument exits 2 and writes nothing."""

    @pytest.mark.parametrize("labels", ["0", "-1"])
    def test_finetune_labels_below_one(self, tmp_path, config, data, labels,
                                       capsys):
        assert pretrain(config, data, tmp_path) == cli.EXIT_OK
        capsys.readouterr()
        out = tmp_path / "ft.npz"
        assert main(["finetune", "--ckpt", str(tmp_path / "model.npz"),
                     "--labels", labels, "--config", config,
                     "--data", str(data), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: --labels must be >= 1, got {labels}\n")
        assert not list(tmp_path.glob("ft.*"))

    def test_finetune_labels_above_the_sequence_count(self, tmp_path, config,
                                                      data, capsys):
        assert pretrain(config, data, tmp_path) == cli.EXIT_OK
        capsys.readouterr()
        assert main(["finetune", "--ckpt", str(tmp_path / "model.npz"),
                     "--labels", "3", "--config", config, "--data", str(data),
                     "--out", str(tmp_path / "ft.npz")]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: --labels 3 exceeds 2 sequences\n")
        assert not list(tmp_path.glob("ft.*"))

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "1.5", "abc"])
    @pytest.mark.parametrize("command", ["gen-scenes", "pretrain", "finetune",
                                         "resample", "theory-check"])
    def test_seed_outside_64_bits(self, tmp_path, command, seed, capsys):
        # seeds alias modulo 2**64, so only 0..2**64-1 are accepted; the
        # parser rejects the rest before any file is read or written
        cfg, out = str(tmp_path / "c.json"), str(tmp_path / "out")
        argv = {"gen-scenes": ["--config", cfg, "--out", out],
                "pretrain": ["--config", cfg, "--data", str(tmp_path),
                             "--out", out],
                "finetune": ["--ckpt", out, "--labels", "1", "--config",
                             cfg, "--data", str(tmp_path), "--out", out],
                "resample": ["--factor", "0.5", out, out],
                "theory-check": ["--sweeps", "1"]}[command]
        with pytest.raises(SystemExit) as info:
            main([command, *argv, "--seed", seed])
        assert info.value.code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.endswith(
            "error: argument --seed: must be an integer in "
            f"0..18446744073709551615, got '{seed}'\n")
        assert not list(tmp_path.iterdir())

    def test_largest_seed_is_accepted(self, capsys):
        assert main(["theory-check", "--sweeps", "1",
                     "--seed", str(2**64 - 1)]) == cli.EXIT_OK


class TestClassCountFitsInAByte:
    """SPTL and SPOG store labels and grid.n_cls as u8."""

    def wide_config(self, tmp_path, n_cls):
        path = tmp_path / f"wide_{n_cls}.json"
        path.write_text(json.dumps({
            **MINI, "scene": {**MINI["scene"], "class_mix": {str(n_cls): 1.0}},
            "grid": {**MINI["grid"], "n_cls": n_cls}}))
        return str(path)

    def test_255_classes_are_accepted(self, tmp_path):
        config = self.wide_config(tmp_path, 255)
        out, grid = tmp_path / "wide", tmp_path / "wide.spog"
        assert main(["gen-scenes", "--config", config,
                     "--out", str(out)]) == cli.EXIT_OK
        assert main(["make-occ", "--config", config, str(out / "seq_0000"),
                     str(grid)]) == cli.EXIT_OK
        assert read_grid(grid).spec.n_cls == 255

    def test_256_classes_are_a_config_error(self, tmp_path, data, capsys):
        config = self.wide_config(tmp_path, 256)
        out, grid = tmp_path / "wide", tmp_path / "wide.spog"
        capsys.readouterr()
        for argv in (["gen-scenes", "--config", config, "--out", str(out)],
                     ["make-occ", "--config", config, str(data / "seq_0000"),
                      str(grid)]):
            assert main(argv) == cli.EXIT_CONFIG
            assert capsys.readouterr().err == (
                "config error: grid.n_cls: must lie in 1..255 (labels are "
                "stored as u8), got 256\n")
        assert not out.exists()
        assert not list(tmp_path.glob("wide.spog*"))


def test_make_occ_with_a_point_far_off_the_grid(tmp_path):
    # (1e20, 0, 1) lies some 4e20 cells from an 8 x 8 grid: its bins clip,
    # and each densified cell's 3 nearest reach it
    seq = LidarSequence(
        [cloud_of([[0.1, 0.1, 1.0], [0.1, 0.2, 1.0], [1e20, 0.0, 1.0]])],
        [np.array([3, 5, 5])], [Pose(np.eye(3), np.zeros(3))], [[]])
    write_sequence(tmp_path / "seq", seq, 10.0)
    config = tmp_path / "far.json"
    config.write_text(json.dumps({
        "grid": {"origin_x": -1.0, "origin_y": -1.0, "cell_size": 0.25,
                 "h": 8, "w": 8},
        "occupancy": {"k": 3}}))
    out = tmp_path / "grid.spog"
    assert main(["make-occ", "--config", str(config), str(tmp_path / "seq"),
                 str(out)]) == cli.EXIT_OK
    cfg = load_config(config)
    want = make_occupancy_reference(load_sequence(tmp_path / "seq"), cfg.grid,
                                    cfg.keyframe, cfg.densify,
                                    cfg.densify_radius, cfg.densify_k)
    assert (want.labels == 5).any()
    np.testing.assert_array_equal(read_grid(out).labels, want.labels)


def test_make_occ_with_a_pose_past_1e150_is_a_data_error(tmp_path, config,
                                                         capsys):
    seq = LidarSequence([cloud_of([[0.1, 0.1, 1.0], [0.1, 0.2, 1.0]])],
                        [np.array([3, 5])],
                        [Pose(np.eye(3), (1e200, 0.0, 0.0))], [[]])
    write_sequence(tmp_path / "seq", seq, 10.0)
    out = tmp_path / "grid.spog"
    assert main(["make-occ", "--config", config,
                 str(tmp_path / "seq"), str(out)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        "data error: point coordinates must be finite\n")
    assert not out.exists()


def test_eval_miou_without_support_prints_null(tmp_path, capsys):
    # an 8x8 grid far from every scan: every target cell is empty, so no
    # class but empty has support and the mean is over no class
    config = tmp_path / "far.json"
    config.write_text(json.dumps({
        **MINI, "grid": {**MINI["grid"], "origin_x": 500.0, "origin_y": 500.0},
        "augment": {"flip_prob_x": 0.0, "flip_prob_y": 0.0}}))
    data = tmp_path / "data"
    assert main(["gen-scenes", "--config", str(config),
                 "--out", str(data)]) == cli.EXIT_OK
    assert pretrain(str(config), data, tmp_path) == cli.EXIT_OK
    capsys.readouterr()
    assert main(["eval-miou", str(tmp_path / "model.npz"), str(data),
                 "--config", str(config)]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert report["miou"] is None
    assert all(report["iou"][str(c)] is None for c in range(1, 16))


class TestMalformedFiles:
    """A malformed file on disk is a data error naming the file."""

    def test_poses_without_poses_is_a_data_error(self, tmp_path, config,
                                                 data, capsys):
        poses = data / "seq_0000" / "poses.json"
        poses.write_text(json.dumps({"keyframe_hz": 2.0}))
        assert main(["make-occ", "--config", config, str(poses.parent),
                     str(tmp_path / "grid.spog")]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(poses) in err
        assert not (tmp_path / "grid.spog").exists()

    @pytest.mark.parametrize("command", ["make-occ", "pretrain"])
    def test_boxes_not_utf8_names_its_file(self, tmp_path, config, data,
                                          command, capsys):
        boxes = data / "seq_0000" / "frame_000.boxes.jsonl"
        boxes.write_bytes(b"\xff" + boxes.read_bytes())
        out = tmp_path / "out.bin"
        argv = {"make-occ": ["make-occ", "--config", config,
                             str(boxes.parent), str(out)],
                "pretrain": ["pretrain", "--config", config, "--data",
                             str(data), "--out", str(out)]}[command]
        assert main(argv) == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith(
            f"data error: {boxes}: boxes are not UTF-8 text: ")
        assert not out.exists()

    def test_checkpoint_without_model_is_a_data_error(self, tmp_path, config,
                                                      data, capsys):
        assert pretrain(config, data, tmp_path) == cli.EXIT_OK
        ckpt = tmp_path / "model.npz"
        header, blob = read_checkpoint(ckpt)
        del header["model"]
        write_checkpoint(ckpt, header, blob)
        capsys.readouterr()
        for argv in (["eval-miou", str(ckpt), str(data), "--config", config],
                     ["finetune", "--ckpt", str(ckpt), "--labels", "1",
                      "--config", config, "--data", str(data),
                      "--out", str(tmp_path / "ft.npz")]):
            assert main(argv) == cli.EXIT_DATA
            err = capsys.readouterr().err
            assert err.startswith("data error: ") and str(ckpt) in err
        assert not (tmp_path / "ft.npz").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_checkpoint_is_a_data_error(self, tmp_path, config,
                                                   data, bad, capsys):
        assert pretrain(config, data, tmp_path) == cli.EXIT_OK
        ckpt = tmp_path / "model.npz"
        header, blob = read_checkpoint(ckpt)
        if bad == "nan":
            blob[:] = np.nan
        else:
            blob[len(blob) // 2] = np.inf
        write_checkpoint(ckpt, header, blob)
        capsys.readouterr()
        for argv in (["eval-miou", str(ckpt), str(data), "--config", config],
                     ["finetune", "--ckpt", str(ckpt), "--labels", "1",
                      "--config", config, "--data", str(data),
                      "--out", str(tmp_path / "ft.npz")]):
            assert main(argv) == cli.EXIT_DATA
            out, err = capsys.readouterr()
            assert out == "" and err == (
                f"data error: {ckpt}: checkpoint has non-finite parameters\n")
        assert not list(tmp_path.glob("ft.*"))

    def test_checkpoint_cut_inside_its_header(self, tmp_path, config, data,
                                              capsys):
        ckpt = tmp_path / "cut.spck"
        ckpt.write_bytes(b"SPCK\x01\x00\x00\x00")
        assert main(["eval-miou", str(ckpt), str(data),
                     "--config", config]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {ckpt}: truncated checkpoint header\n")

    def test_checkpoint_header_that_is_not_json(self, tmp_path, config, data,
                                                capsys):
        assert pretrain(config, data, tmp_path) == cli.EXIT_OK
        ckpt = tmp_path / "model.npz"
        raw = bytearray(ckpt.read_bytes())
        raw[12] = ord("#")  # the first byte of the JSON header
        ckpt.write_bytes(bytes(raw))
        assert main(["eval-miou", str(ckpt), str(data),
                     "--config", config]) == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith(
            f"data error: {ckpt}: checkpoint header is not JSON: ")

    def test_checkpoint_that_is_a_directory(self, tmp_path, config, data,
                                            capsys):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        assert main(["eval-miou", str(ckpt), str(data),
                     "--config", config]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(ckpt) in err

    def test_negative_box_size_names_its_file(self, tmp_path, config, data,
                                              capsys):
        boxes = data / "seq_0000" / "frame_001.boxes.jsonl"
        records = [json.loads(line) for line in boxes.read_text().splitlines()]
        records[1]["l"] = -1.0
        boxes.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["make-occ", "--config", config, str(boxes.parent),
                     str(tmp_path / "grid.spog")]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {boxes}:2: bad box record: box sizes must be "
            "strictly positive\n")
        assert not (tmp_path / "grid.spog").exists()

    def test_nan_box_field_names_its_file_and_line(self, tmp_path, config,
                                                   data, capsys):
        boxes = data / "seq_0000" / "frame_000.boxes.jsonl"
        records = [json.loads(line) for line in boxes.read_text().splitlines()]
        records[1]["cx"] = math.nan
        boxes.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert "NaN" in boxes.read_text()
        assert main(["make-occ", "--config", config, str(boxes.parent),
                     str(tmp_path / "grid.spog")]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {boxes}:2: bad box record: box field cx must be "
            "finite, got nan\n")
        assert not (tmp_path / "grid.spog").exists()

    @pytest.mark.parametrize("key, value, why", [
        ("is_dynamic", "false", 'is_dynamic must be a bool, got "false"'),
        ("class_id", True, "class_id must be an integer, got true"),
        ("cx", True, "cx must be a number, got true"),
    ])
    def test_box_field_of_the_wrong_json_type(self, tmp_path, config, data,
                                              key, value, why, capsys):
        # nothing is coerced: the string "false" is not a static box
        boxes = data / "seq_0000" / "frame_000.boxes.jsonl"
        records = [json.loads(line) for line in boxes.read_text().splitlines()]
        records[1][key] = value
        boxes.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["make-occ", "--config", config, str(boxes.parent),
                     str(tmp_path / "grid.spog")]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {boxes}:2: bad box record: {why}\n")
        assert not (tmp_path / "grid.spog").exists()

    @pytest.mark.parametrize("frames, where", [
        ([[1, 2]], "frames[0]: expected an object"),
        ({"1": 2}, "frames[0]: expected an object"),
        ([{"1": 1}, {"1": True}], "frames[1].1: expected int, got True"),
        ([{"2": 2.7}], "frames[0].2: expected int, got 2.7"),
        ([{"3": "3"}], "frames[0].3: expected int, got '3'"),
        ([{"1": 4, "01": 1, "2": 1}], "frames[0]: key '01' is not a class"),
        ([{"+1": 1}], "frames[0]: key '+1' is not a class"),
        ([{"1.0": 1}], "frames[0]: key '1.0' is not a class"),
    ], ids=["frames0", "frames1", "bool_count", "float_count", "str_count",
            "padded_key", "signed_key", "float_key"])
    def test_balance_weights_frames_not_dicts(self, tmp_path, frames, where,
                                              capsys):
        """Each frame is an object of class ids to JSON integer counts;
        nothing is coerced, and the error names the frame and the key."""
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({"frames": frames}))
        assert main(["balance-weights", str(stats)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {stats}: bad stats document: ")
        assert where in err

    @pytest.mark.parametrize("counts", [{"1": 10**400},
                                        {"1": 10**308, "2": 10**308}],
                             ids=["count", "sum"])
    def test_balance_weights_counts_past_float64(self, tmp_path, counts,
                                                 capsys):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({"frames": [counts]}))
        assert main(["balance-weights", str(stats)]) == cli.EXIT_DATA
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"data error: {stats}: bad stats document: instance counts "
            "overflow float64\n")

    def test_balance_weights_prints_the_weights(self, tmp_path, capsys):
        # s_i = sqrt(m / n_i), m = 1/4, n = (10, 13, 1, 11) / 35; class 3
        # has no instance, so it gets no weight
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({"frames": [
            {"1": 7, "3": 0}, {"2": 13, "5": 2}, {"4": 1, "1": 3},
            {"2": 0, "5": 9}]}))
        with pytest.warns(UserWarning, match=r"excluded: \[3\]"):
            assert main(["balance-weights", str(stats)]) == cli.EXIT_OK
        assert capsys.readouterr().out == (
            '{\n  "class_ids": [\n    1,\n    2,\n    4,\n    5\n  ],\n'
            '  "s": [\n    0.9354143466934853,\n    0.820412654142367,\n'
            '    2.958039891549808,\n    0.8918825850158447\n  ]\n}\n')


def finetune(config, ckpt, data, out):
    return main(["finetune", "--ckpt", str(ckpt), "--labels", "1",
                 "--config", str(config), "--data", str(data),
                 "--out", str(out)])


def with_override(tmp_path, name, section, **values):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**MINI, section: {**MINI.get(section, {}),
                                                  **values}}))
    return path


class TestCheckpointAgainstConfig:
    """The config describes the model; a checkpoint must match it."""

    @pytest.mark.parametrize("section, key, value, saved", [
        ("train", "channels", [4, 4, 4], "[8, 16, 16]"),
        ("grid", "n_cls", 20, "15"),
    ])
    def test_architecture_mismatch_is_a_config_error(
            self, tmp_path, config, data, capsys, section, key, value, saved):
        assert pretrain(config, data, tmp_path) == cli.EXIT_OK
        ckpt = tmp_path / "model.npz"
        other = with_override(tmp_path, "other", section, **{key: value})
        capsys.readouterr()
        out = tmp_path / "ft.npz"
        for argv in (["finetune", "--ckpt", str(ckpt), "--labels", "1",
                      "--config", str(other), "--data", str(data),
                      "--out", str(out)],
                     ["eval-miou", str(ckpt), str(data), "--config", str(other)]):
            assert main(argv) == cli.EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"config error: {section}.{key}: config has {value}, "
                f"checkpoint {ckpt} has {saved}\n")
        assert not out.exists()
        assert not out.with_suffix(".npz.manifest.json").exists()

    def test_finetune_loss_follows_its_own_config(self, tmp_path, config,
                                                  data):
        assert pretrain(config, data, tmp_path) == cli.EXIT_OK
        traces = []
        for lam in (1.0, 0.0):
            other = with_override(tmp_path, f"lam{lam}", "loss", **{"lambda": lam})
            out = tmp_path / f"ft{lam}.npz"
            assert finetune(other, tmp_path / "model.npz", data, out) == 0
            manifest = out.with_suffix(".npz.manifest.json")
            traces.append(json.loads(manifest.read_text())["loss_trace"])
        assert traces[0] != traces[1]

    def test_finetune_starts_from_the_pretrained_parameters(
            self, tmp_path, config, data, monkeypatch):
        # float32 parameters and an f32 checkpoint: nothing is rounded
        runs = []

        def recorded(init, pillars, labels, cfg, seed):
            params, trace = train(init, pillars, labels, cfg, seed)
            runs.append((init, params))
            return params, trace

        monkeypatch.setattr(cli, "train", recorded)
        assert pretrain(config, data, tmp_path) == cli.EXIT_OK
        assert finetune(config, tmp_path / "model.npz", data,
                        tmp_path / "ft.npz") == cli.EXIT_OK
        (_, pretrained), (loaded, _) = runs
        for name in transfer_param_names():
            assert loaded[name].dtype == pretrained[name].dtype == np.float32
            assert np.array_equal(loaded[name], pretrained[name]), name

    def test_header_with_feat_dim_and_lam_still_loads(self, tmp_path, config,
                                                      data):
        assert pretrain(config, data, tmp_path) == cli.EXIT_OK
        ckpt = tmp_path / "model.npz"
        header, blob = read_checkpoint(ckpt)
        header["model"].update(feat_dim=1, lam=1.0)  # as older runs wrote it
        write_checkpoint(ckpt, header, blob)
        assert finetune(config, ckpt, data, tmp_path / "ft.npz") == 0
        assert main(["eval-miou", str(ckpt), str(data),
                     "--config", config]) == 0


def ring_frame(path, n_azimuth):
    """A frame of 10 beams at distinct elevations, `n_azimuth` points each."""
    elev, azim = np.meshgrid(np.linspace(-0.4, 0.0, 10),
                             np.linspace(0.0, 6.0, n_azimuth), indexing="ij")
    xyz = 10.0 * np.stack([np.cos(elev) * np.cos(azim),
                           np.cos(elev) * np.sin(azim),
                           np.sin(elev)], axis=-1).reshape(-1, 3)
    write_frame(path, PointCloud(xyz, np.ones((len(xyz), 1))))
    return path


class TestResampleBadInput:
    """Bad `resample` input exits 2 (arguments) or 3 (files), writing nothing."""

    @pytest.fixture
    def frame(self, tmp_path):
        return ring_frame(tmp_path / "in.sptc", 10)

    def resample(self, tmp_path, src, factor="0.5"):
        rc = main(["resample", "--factor", factor, str(src),
                   str(tmp_path / "out.sptc")])
        assert not list(tmp_path.glob("out.*"))
        return rc

    def test_good_input_is_resampled(self, tmp_path, frame):
        write_labels(frame.with_suffix(".sptl"), np.arange(100) % 7)
        assert main(["resample", "--factor", "0.5", str(frame),
                     str(tmp_path / "out.sptc")]) == cli.EXIT_OK
        assert (tmp_path / "out.sptl").exists()

    @pytest.mark.parametrize("factor", ["0", "1.5", "nan"])
    def test_factor_outside_unit_interval(self, tmp_path, frame, factor,
                                          capsys):
        assert self.resample(tmp_path, frame, factor) == cli.EXIT_CONFIG
        assert "config error: --factor" in capsys.readouterr().err

    @pytest.mark.parametrize("factor", ["0.5", "1.0"])
    def test_negative_seed_is_a_config_error(self, tmp_path, frame, factor,
                                             capsys):
        # a usage error from the argument parser: exit 2, naming the flag
        with pytest.raises(SystemExit) as info:
            main(["resample", "--factor", factor, "--seed", "-1",
                  str(frame), str(tmp_path / "out.sptc")])
        assert info.value.code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.endswith(
            "error: argument --seed: must be an integer in "
            "0..18446744073709551615, got '-1'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.sptc"]

    @pytest.mark.parametrize("damage", ["missing", "truncated", "not-a-frame",
                                        "nan-coordinate"])
    def test_bad_frame_is_a_data_error(self, tmp_path, frame, damage, capsys):
        if damage == "missing":
            frame.unlink()
        elif damage == "truncated":
            frame.write_bytes(frame.read_bytes()[:4])
        elif damage == "not-a-frame":
            frame.write_text("just some text")
        else:  # the first point's z, after the 16-byte header and x, y
            raw = bytearray(frame.read_bytes())
            raw[24:28] = struct.pack("<f", math.nan)
            frame.write_bytes(bytes(raw))
        assert self.resample(tmp_path, frame) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(frame) in err

    @pytest.mark.parametrize("n_labels", [5, 200])
    def test_labels_of_another_length_are_a_data_error(
            self, tmp_path, frame, n_labels, capsys):
        labels = frame.with_suffix(".sptl")
        write_labels(labels, np.zeros(n_labels, dtype=np.int64))
        assert self.resample(tmp_path, frame) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {labels}: {n_labels} labels for the 100 points "
            f"of {frame}\n")


def test_resample_replaces_an_older_labels_file(tmp_path, capsys):
    """Resampling an unlabelled frame over an earlier labelled output
    leaves no labels beside it, so the next read cannot take stale ones;
    a labelled frame resampled in place keeps its labels."""
    labelled, bare = tmp_path / "a.sptc", tmp_path / "b.sptc"
    ring_frame(labelled, 80)
    write_labels(labelled.with_suffix(".sptl"), np.arange(800) % 7)
    ring_frame(bare, 160)
    out = tmp_path / "out.sptc"
    argv = ["resample", "--factor", "0.5"]
    assert main([*argv, str(labelled), str(out)]) == cli.EXIT_OK
    assert len(read_labels(tmp_path / "out.sptl")) == 400
    manifest = tmp_path / "out.sptc.manifest.json"
    assert json.loads(manifest.read_text())["outputs"] == ["out.sptc",
                                                           "out.sptl"]
    assert main([*argv, str(bare), str(out)]) == cli.EXIT_OK
    assert len(read_frame(out)) == 800
    assert not (tmp_path / "out.sptl").exists()
    assert json.loads(manifest.read_text())["outputs"] == ["out.sptc"]
    capsys.readouterr()
    assert main([*argv, str(out), str(tmp_path / "again.sptc")]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    assert main([*argv, str(labelled), str(labelled)]) == cli.EXIT_OK
    assert len(read_labels(labelled.with_suffix(".sptl"))) == 400
    assert len(read_frame(labelled)) == 400


def test_no_command_imports_scipy():
    """`import occspot.cli` loads no scipy module and no thread pool
    (`concurrent.futures`), numpy's lazily loaded `random` and `ma` come
    with it, and the package does not list scipy."""
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys, occspot.cli; print(sorted(m for m in sys.modules if "
            "m.split('.')[0] in ('scipy', 'concurrent') "
            "or m in ('numpy.random', 'numpy.ma')))")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "['numpy.ma', 'numpy.random']"
    pyproject = src.parent / "pyproject.toml"
    assert "scipy" not in pyproject.read_text().lower()
