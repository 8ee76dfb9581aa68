from occspot.config import parse_config
from occspot.pipeline import generate_dataset

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
