import dataclasses
import hashlib
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from helpers import build_samples_reference

from occspot.config import (ConfigError, PipelineConfig, load_config,
                            parse_config)
from occspot import pipeline
from occspot.formats import FormatError, read_boxes, write_boxes
from occspot.learn import PILLAR_DIM, pillar_features
from occspot.pipeline import (build_samples, ego_trajectory, generate_dataset,
                              load_sequence, sequence_occupancy, worker_count,
                              write_sequence)
from occspot.synth import build_scene, generate_sequence

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"

CFG = parse_config({
    "n_sequences": 2,
    "scene": {"n_objects": 4, "dynamic_fraction": 0.5},
    "beams": {"source": {"n_beams": 8, "alpha_up": -2.0, "alpha_low": -26.0,
                         "azimuth_steps": 72}},
    "sequence": {"n_frames": 3},
})


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def generate(root, seed, workers=1):
    generate_dataset(CFG, root, seed=seed, workers=workers)
    return tree_bytes(root)


def test_same_seed_writes_identical_bytes(tmp_path):
    first = generate(tmp_path / "a", seed=5)
    assert len(first) == CFG.n_sequences * (1 + 3 * CFG.n_frames)
    assert generate(tmp_path / "b", seed=5) == first


def test_worker_count_does_not_change_bytes(tmp_path):
    assert (generate(tmp_path / "serial", seed=5, workers=1)
            == generate(tmp_path / "threads", seed=5, workers=2))


def test_worker_count_reads_occspot_threads(monkeypatch):
    monkeypatch.delenv("OCCSPOT_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("OCCSPOT_THREADS", "3")
    assert worker_count() == 3


@pytest.mark.parametrize("raw", ["abc", "0", "-4", "1.5", ""])
def test_worker_count_rejects_what_is_not_a_positive_integer(monkeypatch,
                                                             raw):
    monkeypatch.setenv("OCCSPOT_THREADS", raw)
    with pytest.raises(ConfigError, match="^OCCSPOT_THREADS must be a "
                                          "positive integer, got "):
        worker_count()


def test_different_seed_gives_different_frames(tmp_path):
    a = generate(tmp_path / "a", seed=5)
    b = generate(tmp_path / "b", seed=6)
    assert a.keys() == b.keys()
    frames = [k for k in a if k.endswith(".sptc")]
    assert len(frames) == CFG.n_sequences * CFG.n_frames
    assert all(a[k] != b[k] for k in frames)


def generated_sequence(seed=3):
    return generate_sequence(build_scene(CFG.scene, seed), CFG.source_beams,
                             ego_trajectory(CFG), CFG.keyframe_hz, workers=1)


def test_sequence_round_trips_through_disk(tmp_path):
    seq = generated_sequence()
    write_sequence(tmp_path / "a", seq, CFG.keyframe_hz)
    loaded = load_sequence(tmp_path / "a")
    write_sequence(tmp_path / "b", loaded, CFG.keyframe_hz)
    written = tree_bytes(tmp_path / "a")
    assert len(written) == 1 + 3 * CFG.n_frames
    assert tree_bytes(tmp_path / "b") == written
    # boxes and labels are exact; coordinates are stored as f32
    assert loaded.boxes == seq.boxes
    for a, b in zip(loaded.labels, seq.labels):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(loaded.frames, seq.frames):
        np.testing.assert_array_equal(a.xyz, b.xyz.astype(np.float32))


def test_box_lists_that_do_not_correspond_name_the_directory(tmp_path):
    write_sequence(tmp_path, generated_sequence(), CFG.keyframe_hz)
    boxes = tmp_path / "frame_001.boxes.jsonl"
    write_boxes(boxes, read_boxes(boxes)[1:])
    with pytest.raises(FormatError, match=re.escape(f"{tmp_path}: frame 1 has ")):
        load_sequence(tmp_path)


def test_config_without_flips_or_beam_targets_does_not_augment():
    # what `pretrain --no-augment` used to do, stated in the config
    cfg = dataclasses.replace(CFG, flip_prob_x=0.0, flip_prob_y=0.0)
    assert cfg.target_beams == ()
    seqs = [generated_sequence(seed) for seed in (3, 4)]
    (p0, l0), (p1, l1) = (build_samples(seqs, cfg, seed) for seed in (None, 0))
    assert p0.tobytes() == p1.tobytes()
    assert np.array_equal(l0, l1)


def test_build_samples_holds_one_sequence_at_a_time(tmp_path):
    dirs = generate_dataset(dataclasses.replace(CFG, n_sequences=3), tmp_path,
                            seed=5, workers=1)
    refs = []

    def sequences():
        for d in dirs:
            assert all(r() is None for r in refs), "a sequence outlived its sample"
            seq = load_sequence(d)
            refs.append(weakref.ref(seq))
            yield seq
            del seq

    for augment_seed in (None, 0):
        refs.clear()
        pillars, labels = build_samples(sequences(), CFG, augment_seed)
        assert len(refs) == len(dirs) and all(r() is None for r in refs)
        assert pillars.dtype == np.float32
        assert pillars.shape == (len(dirs), CFG.grid.h, CFG.grid.w, PILLAR_DIM)
        # the augmentation stream draws in the same order as from a list
        want = build_samples([load_sequence(d) for d in dirs], CFG,
                             augment_seed)
        assert pillars.tobytes() == want[0].tobytes()
        assert np.array_equal(labels, want[1])


@pytest.mark.parametrize("augment_seed", [None, 0])
def test_build_samples_equals_the_scattered_reference_pairs(augment_seed):
    # with a seed every flip is taken, and seed 0 draws scan_heavy's beam
    # targets 64, 32, 64; without one neither is applied
    scan = load_config(WORKLOADS / "scan_heavy.json")
    cfg = dataclasses.replace(CFG, flip_prob_x=1.0, flip_prob_y=1.0,
                              source_beams=scan.source_beams,
                              target_beams=scan.target_beams)
    seqs = [generate_sequence(build_scene(cfg.scene, seed), cfg.source_beams,
                              ego_trajectory(cfg), cfg.keyframe_hz, workers=1)
            for seed in (3, 4, 5)]
    pillars, labels = build_samples(seqs, cfg, augment_seed)
    want = build_samples_reference(seqs, cfg, augment_seed)
    assert pillars.dtype == np.float32
    assert pillars.tobytes() == np.stack(
        [pillar_features(c, cfg.grid).astype(np.float32)
         for c, _ in want]).tobytes()
    assert labels.dtype == np.int64
    assert labels.tobytes() == np.stack([g.labels for _, g in want]).tobytes()


def test_generate_dataset_releases_each_sequence(tmp_path, monkeypatch):
    refs = []

    def tracked(*args, **kwargs):
        assert all(r() is None for r in refs), "a written sequence is alive"
        seq = generate_sequence(*args, **kwargs)
        refs.append(weakref.ref(seq))
        return seq

    monkeypatch.setattr(pipeline, "generate_sequence", tracked)
    generate_dataset(dataclasses.replace(CFG, n_sequences=3), tmp_path,
                     seed=5, workers=1)
    assert len(refs) == 3 and all(r() is None for r in refs)


# The occupancy targets of small seeded datasets, under the default config
# and the benchmark workloads, pinned by the sha256 of their label bytes:
# any speed-up of the occupancy path must leave every grid bit-identical.
@pytest.mark.parametrize("name, n_sequences, sha256", [
    (None, 2,
     "caf1536b1780701c37be869edcb44952af5bbf108aa88a1429487ae120db1a2e"),
    ("occupancy_heavy", 1,
     "52351ad19fbc4222a8fba972144989df9c19ed0586c2dc8614256dd69152c835"),
    ("scan_heavy", 1,
     "1c04ebf57790fd4e5177a9d6a298241017a7392c0fe8cd5a3908eff92a49e9f2"),
    ("train_heavy", 2,
     "b048bc72f7e4703b89b0ba5ac9d76013240f2a54a382a636d4017c0f4ca0a3e0"),
])
def test_sequence_occupancy_is_pinned(tmp_path, name, n_sequences, sha256):
    cfg = PipelineConfig() if name is None else \
        load_config(WORKLOADS / f"{name}.json")
    cfg = dataclasses.replace(cfg, n_sequences=n_sequences)
    digest = hashlib.sha256()
    for seq_dir in generate_dataset(cfg, tmp_path, seed=7, workers=1):
        grid = sequence_occupancy(load_sequence(seq_dir), cfg)
        digest.update(grid.labels.tobytes())
    assert digest.hexdigest() == sha256


def test_sequence_occupancy_working_set(tmp_path):
    # one occupancy_heavy sequence, 24 frames of 23,040 points: the grid's
    # peak above the loaded sequence (the fused cloud, its labels and bins,
    # the votes and the densify windows) stays well under the 39.8 MiB that
    # int64 labels and bins with whole-cloud votes took
    cfg = dataclasses.replace(load_config(WORKLOADS / "occupancy_heavy.json"),
                              n_sequences=1)
    seq_dir, = generate_dataset(cfg, tmp_path, seed=101, workers=1)
    seq = load_sequence(seq_dir)
    assert [len(frame) for frame in seq.frames] == [23040] * 24
    tracemalloc.start()
    try:
        sequence_occupancy(seq, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20, peak / 2**20
