import sys

import numpy as np
import pytest

import layers
import spans


def _bindings(originals):
    """{(module, attribute): original} for each occspot binding of a target."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or name.split(".")[0] != "occspot":
            continue
        for attr, val in vars(mod).items():
            if any(val is fn for fn in originals):
                out[(name, attr)] = val
    return out


@pytest.fixture
def installed():
    rec = spans.Recorder()
    patched = layers.install(rec)
    try:
        yield rec, patched
    finally:
        spans.uninstall(patched)


def test_install_wraps_every_binding_and_uninstall_restores():
    import occspot.cli  # noqa: F401  (loads every module that binds a target)

    originals = layers.originals()
    before = _bindings(originals)
    rec = spans.Recorder()
    patched = layers.install(rec)
    try:
        assert {(m.__name__, a) for m, a, _ in patched} == set(before)
        for (mod, attr), orig in before.items():
            wrapper = getattr(sys.modules[mod], attr)
            assert wrapper is not orig
            assert wrapper.__wrapped__ is orig
        # bindings copied by `from .x import y` are wrapped too
        for mod, attr in [
            ("occspot.pipeline", "make_occupancy"),
            ("occspot.learn.train", "model_forward"),
            ("occspot.learn.train", "model_backward"),
            ("occspot.learn.train", "total_loss"),
            ("occspot.learn.train", "pillar_features"),
            ("occspot.learn.model", "conv_forward"),
            ("occspot.learn.model", "tconv_backward"),
            ("occspot.pipeline", "read_frame"),
            ("occspot.pipeline", "write_frame"),
            ("occspot.cli", "read_frame"),
            ("occspot.cli", "write_frame"),
            ("occspot.synth", "scan"),
        ]:
            assert (mod, attr) in before
    finally:
        spans.uninstall(patched)
    assert _bindings(originals) == before
    for (mod, attr), orig in before.items():
        assert getattr(sys.modules[mod], attr) is orig


def test_every_target_exists_once():
    names = [name for name, _, _ in layers.TARGETS]
    assert len(names) == len(set(names))
    assert len(layers.originals()) == sum(len(f) for _, _, f in layers.TARGETS)


def test_conv_macs_counted_from_shapes(installed):
    rec, _ = installed
    from occspot.learn import model

    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 4, 4, 3))
    w = rng.normal(size=(3, 3, 5, 3))      # (k, k, Cout, Cin) of the down-conv
    y = model.tconv_forward(x, w, np.zeros(5), (8, 8), stride=2)
    assert y.shape == (2, 8, 8, 5)
    names = [(s.name, s.parent) for s in rec.spans if s.name != "bench.hook"]
    assert names == [("learn.tconv_forward", None),
                     ("learn.conv_backward_input", 0)]
    # one MAC per (input cell of the adjoint, tap, Cout, Cin)
    assert rec.counters["learn.conv_macs"] == 2 * 4 * 4 * 9 * 5 * 3


def test_occupancy_counts(installed):
    rec, _ = installed
    from occspot import occupancy
    from occspot.cloud import PointCloud, Pose

    spec = occupancy.GridSpec(-2.0, -2.0, 1.0, 4, 4, -1.0, 3.0, n_cls=3)
    xyz = np.array([[-1.5, -1.5, 1.0], [0.5, 0.5, 1.0], [0.9, 0.5, 1.0]])
    cloud = PointCloud(xyz, np.zeros((3, 1)))
    grid = occupancy.make_occupancy([cloud], [np.array([1, 2, 2])],
                                    [Pose(np.eye(3), (0.0, 0.0, 0.0))], [[]],
                                    spec, densify=True, radius=1.2, k=1)
    base = occupancy.voxelize_bev(cloud, np.array([1, 2, 2]), spec)
    c = rec.counters
    assert c["occupancy.fused_points"] == 3
    assert c["occupancy.occupied_cells"] == grid.occupied_count
    assert c["occupancy.densify_queries"] == 16 - base.occupied_count
    assert c["occupancy.densified_cells"] == \
        grid.occupied_count - base.occupied_count > 0
    m = layers.summarize(rec)
    assert m["occupancy.make_occupancy.calls"] == 1
    assert m["occupancy.knn_label.calls"] == 1


def test_metric_table_covers_summary():
    rec = spans.Recorder()
    assert set(layers.summarize(rec)) | {layers.MIOU, layers.OVERHEAD} \
        == set(layers.METRICS)
    for unit, better in layers.METRICS.values():
        assert better in ("higher", "lower") and unit


def test_step_time_counts_training_calls_not_eval():
    rec = spans.Recorder()
    rec.spans = [
        spans.Span("cli", 0.0, 10.0, None),
        spans.Span("learn.model_forward", 1.0, 2.0, 0),
        spans.Span("learn.conv_forward", 1.0, 1.5, 1),
        spans.Span("learn.total_loss", 2.0, 2.5, 0),
        spans.Span("learn.softmax_field", 2.1, 2.2, 3),   # inside the loss
        spans.Span("learn.model_backward", 2.5, 4.0, 0),
        spans.Span("learn.adam_step", 4.0, 4.5, 0),
        spans.Span("learn.evaluate", 5.0, 9.0, 0),
        spans.Span("learn.model_forward", 5.5, 8.0, 7),   # eval: no step
    ]
    rec.count("learn.train_steps")
    assert layers.summarize(rec)["learn.step_s"] == pytest.approx(3.5)
