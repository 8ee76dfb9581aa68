import dataclasses
import hashlib
from pathlib import Path

import pytest

from occspot.config import PipelineConfig, load_config, parse_config
from occspot.pipeline import generate_dataset, load_sequence, sequence_occupancy

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


def test_different_seed_gives_different_frames(tmp_path):
    a = generate(tmp_path / "a", seed=5)
    b = generate(tmp_path / "b", seed=6)
    assert a.keys() == b.keys()
    frames = [k for k in a if k.endswith(".sptc")]
    assert len(frames) == CFG.n_sequences * CFG.n_frames
    assert all(a[k] != b[k] for k in frames)


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
    for seq_dir in generate_dataset(cfg, tmp_path, seed=7):
        grid = sequence_occupancy(load_sequence(seq_dir), cfg)
        digest.update(grid.labels.tobytes())
    assert digest.hexdigest() == sha256
