import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import (conv_backward_input_reference, lovasz_softmax_reference,
                     toy_config)

from occspot.config import ConfigError, PipelineConfig
from occspot.formats import FormatError, read_checkpoint, write_checkpoint
from occspot.learn import losses, model
from occspot.learn import (NumericalError, confusion_matrix, evaluate,
                           load_model, loss_weights, miou, one_cycle_lr,
                           save_model, train)
from occspot.learn.model import init_params
from occspot.learn.train import AdamState, adam_step
from occspot.pipeline import build_samples, ego_trajectory
from occspot.synth import build_scene, generate_sequence

CFG = toy_config()  # 15 classes, channels (6, 8, 8)


def toy_samples(cfg, n_scenes=3, seed0=50):
    poses = ego_trajectory(cfg)
    seqs = [generate_sequence(build_scene(cfg.scene, seed0 + i),
                              cfg.source_beams, poses, cfg.keyframe_hz)
            for i in range(n_scenes)]
    return build_samples(seqs, cfg, None)


def first(samples):
    """The (pillars, labels) stacks of the first sample alone."""
    return samples[0][:1], samples[1][:1]


class TestOneCycle:
    def test_peak_reached_at_warmup_end(self):
        total = 100
        warm = 30
        assert one_cycle_lr(warm, total, 0.003) == pytest.approx(0.003)

    def test_starts_and_ends_at_floor(self):
        total = 200
        assert one_cycle_lr(0, total, 0.003) == pytest.approx(0.003 / 25)
        assert one_cycle_lr(total, total, 0.003) == pytest.approx(0.003 / 25)

    def test_monotone_up_then_down(self):
        total = 50
        lrs = [one_cycle_lr(t, total, 0.003) for t in range(total + 1)]
        peak_at = int(np.argmax(lrs))
        assert all(a <= b + 1e-15 for a, b in zip(lrs[:peak_at], lrs[1:peak_at + 1]))
        assert all(a >= b - 1e-15 for a, b in zip(lrs[peak_at:-1], lrs[peak_at + 1:]))

    @pytest.mark.parametrize("step", [0, 29, 30, 99, 100])
    def test_a_python_float_on_both_branches(self, step):
        # a numpy float64 would promote every float32 Adam update to float64
        assert type(one_cycle_lr(step, 100, 0.003)) is float


class TestAdam:
    def test_zero_lr_noop(self):
        params = init_params(CFG, seed=0)
        before = {k: v.copy() for k, v in params.items()}
        grads = {k: np.ones_like(v) for k, v in params.items()}
        adam_step(params, grads, AdamState.init(params), lr=0.0)
        for k in params:
            np.testing.assert_array_equal(params[k], before[k])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_the_dtype_of_the_parameters(self, dtype):
        params = {k: v.astype(dtype) for k, v in init_params(CFG, 1).items()}
        state = AdamState.init(params)
        grads = {k: np.ones(v.shape) for k, v in params.items()}  # float64
        for step in (0, 9):  # the warm-up and the decay branch
            adam_step(params, grads, state, one_cycle_lr(step, 10, 0.003))
        for arrays in (params, state.m, state.v):
            assert {a.dtype for a in arrays.values()} == {np.dtype(dtype)}

    def test_step_moves_against_gradient(self):
        params = {"w": np.array([1.0, -1.0])}
        grads = {"w": np.array([1.0, -1.0])}
        adam_step(params, grads, AdamState.init(params), lr=0.1)
        assert params["w"][0] < 1.0 and params["w"][1] > -1.0


class TestTrainingLoops:
    def test_deterministic_loss_trace(self):
        cfg = toy_config(epochs=2, batch_size=2, lr_peak=0.003)
        samples = toy_samples(cfg)
        _, trace_a = train(None, *samples, cfg, seed=5)
        _, trace_b = train(None, *samples, cfg, seed=5)
        assert trace_a == trace_b  # bit-identical

    def test_different_seed_different_trace(self):
        cfg = toy_config(epochs=1, batch_size=4)
        samples = toy_samples(cfg)
        _, a = train(None, *samples, cfg, seed=1)
        _, b = train(None, *samples, cfg, seed=2)
        assert a != b

    def test_loss_decreases_quickly_on_one_sample(self):
        cfg = toy_config(epochs=100, batch_size=1, lr_peak=0.01)
        samples = toy_samples(cfg, n_scenes=1)
        _, trace = train(None, *samples, cfg, seed=7)
        assert trace[-1] < 0.5 * trace[0]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_nan_aborts_with_diagnostics(self):
        # an absurd learning rate saturates the softmax to an exact zero
        # on the true class within a couple of steps
        cfg = toy_config(epochs=4, batch_size=1, lr_peak=1e6)
        samples = toy_samples(cfg, n_scenes=1)
        with pytest.raises(NumericalError, match="step"):
            train(None, *samples, cfg, seed=0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_nan_logits_are_a_numerical_error(self):
        # parameters overflow after the first update, so the next forward
        # pass yields NaN logits before any loss is computed
        cfg = toy_config(epochs=3, batch_size=1, lr_peak=1e300)
        samples = toy_samples(cfg, n_scenes=1)
        with pytest.raises(NumericalError,
                           match=r"^logits contain NaN at step \d+ \(epoch"):
            train(None, *samples, cfg, seed=0)

    @pytest.mark.parametrize("classes", ["present", "all"])
    def test_training_equals_the_oracle_kernels(self, classes, monkeypatch):
        cfg = toy_config(lovasz_classes=classes)
        samples = toy_samples(cfg)
        params, trace = train(None, *samples, cfg, seed=5)
        calls = {"lovasz": 0, "col2im": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(losses, "lovasz_softmax",
                            counted("lovasz", lovasz_softmax_reference))
        monkeypatch.setattr(model, "conv_backward_input",
                            counted("col2im", conv_backward_input_reference))
        want_params, want_trace = train(None, *samples, cfg, seed=5)
        assert calls["lovasz"] > 0 and calls["col2im"] > 0
        assert trace == want_trace
        assert params.keys() == want_params.keys()
        for name in params:
            assert np.array_equal(params[name], want_params[name]), name

    def test_a_step_frees_its_arrays_before_the_next(self):
        # one batch holds every sample, so each epoch is one step.  The
        # grid is finer than CFG's, so a step's arrays are large against
        # the parameters; with narrow channels the 16-class
        # loss arrays, not the backward pass, set a step's peak.  A loop
        # that keeps the previous step's logits gradient into the next
        # step's loss then raises the 4-step peak by about 10%
        grid = replace(CFG.grid, cell_size=0.25, h=64, w=64)
        samples = toy_samples(toy_config(grid=grid), n_scenes=2)

        def peak(steps: int) -> int:
            cfg = toy_config(grid=grid, channels=(4, 4, 4), epochs=steps,
                             batch_size=2)
            tracemalloc.start()
            try:
                train(None, *samples, cfg, seed=5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = peak(1), peak(4)
        assert four <= 1.03 * one, (one, four)

    def test_finetune_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty sample list"):
            train(None, *build_samples([], CFG, None), CFG, seed=0)

    def test_finetune_shape_mismatch_rejected(self):
        samples = toy_samples(CFG, n_scenes=1)
        wrong = init_params(toy_config(channels=(4, 4, 4)), seed=0)
        with pytest.raises(ValueError, match="shape"):
            train(wrong, *samples, CFG, seed=0)

    def test_finetune_uses_pretrained_encoder(self):
        cfg = toy_config(epochs=1, batch_size=4)
        samples = toy_samples(cfg, n_scenes=2)
        pre, _ = train(None, *samples, cfg, seed=3)
        ft, _ = train(pre, *first(samples), toy_config(epochs=1, lr_peak=0.0),
                      seed=4)
        # with lr 0 the encoder stays exactly the pretrained one
        np.testing.assert_array_equal(ft["conv1_w"], pre["conv1_w"])

    def test_scratch_and_pretrained_produce_valid_miou(self):
        cfg = toy_config(epochs=1, batch_size=1)
        samples = toy_samples(cfg, n_scenes=2)
        pre, _ = train(None, *samples, cfg, seed=6)
        for init in (pre, None):
            params, _ = train(init, *first(samples), cfg, seed=6)
            _, _, mean = evaluate(params, *samples, cfg)
            assert 0.0 <= mean <= 1.0

    def test_loss_settings_come_from_the_config(self):
        # the same samples, seed and init; only the loss settings differ
        cfg = toy_config(epochs=1, batch_size=4)
        samples = toy_samples(cfg, n_scenes=2)
        pre, _ = train(None, *samples, cfg, seed=3)
        base = train(pre, *samples, cfg, seed=4)[1]
        for other in (toy_config(epochs=1, batch_size=4, lam=0.0),
                      toy_config(epochs=1, batch_size=4, w_empty=1.0)):
            assert train(pre, *samples, other, seed=4)[1] != base

    def test_loss_weights_follow_the_config(self):
        assert loss_weights(CFG).tolist() == [0.01] + [2.0] * 5 + [1.0] * 10
        w = loss_weights(toy_config(foreground_classes=(2,), w_fg=3.0,
                                    w_bg=0.5, w_empty=0.25))
        assert w.tolist() == [0.25, 0.5, 3.0] + [0.5] * 13


class TestLossWeights:
    def test_default_schema(self):
        w = loss_weights(PipelineConfig())
        assert w.shape == (16,) and w.dtype == np.float64
        assert w[0] == pytest.approx(0.01)
        for c in (1, 2, 3, 4, 5):
            assert w[c] == 2.0
        for c in range(6, 16):
            assert w[c] == 1.0

    def test_minimal_schema(self):
        cfg = toy_config(grid=replace(CFG.grid, n_cls=1),
                         scene=replace(CFG.scene, ground_class=1,
                                       class_mix={1: 1.0}),
                         foreground_classes=(1,))
        np.testing.assert_allclose(loss_weights(cfg), [0.01, 2.0])

    def test_strictly_positive_and_empty_smallest(self):
        w = loss_weights(PipelineConfig())
        assert (w > 0).all()
        assert w[0] == w.min() and (w[1:] > w[0]).all()


class TestCheckpoints:
    def test_save_load_roundtrip(self, tmp_path):
        params = init_params(CFG, seed=8)
        # float32 parameters and an f32 blob: the round trip is exact
        path = tmp_path / "m.spck"
        save_model(path, params, CFG, seed=8, extra={"note": "t"})
        loaded = load_model(path, CFG)
        header, _ = read_checkpoint(path)
        assert header["model"] == {"n_cls": 15, "channels": [6, 8, 8]}
        assert header["seed"] == 8 and header["extra"]["note"] == "t"
        assert loaded.keys() == params.keys()
        for k in params:
            assert loaded[k].dtype == np.float32
            assert np.array_equal(loaded[k], params[k])

    def test_byte_identical_rewrite(self, tmp_path):
        params = init_params(CFG, seed=9)
        p1, p2 = tmp_path / "a.spck", tmp_path / "b.spck"
        save_model(p1, params, CFG, seed=9, extra={})
        loaded = load_model(p1, CFG)
        header, _ = read_checkpoint(p1)
        save_model(p2, loaded, CFG, seed=header["seed"], extra={})
        assert p1.read_bytes() == p2.read_bytes()

    def test_older_header_with_feat_dim_and_lam_loads(self, tmp_path):
        path = tmp_path / "old.spck"
        save_model(path, init_params(CFG, seed=10), CFG, seed=10, extra={})
        header, blob = read_checkpoint(path)
        header["model"].update(feat_dim=1, lam=0.5)
        write_checkpoint(path, header, blob)
        loaded = load_model(path, CFG)
        np.testing.assert_array_equal(loaded["head_b"], np.zeros(16))

    @pytest.mark.parametrize("override, key, ours, theirs", [
        ({"channels": (4, 4, 4)}, "train.channels", "[4, 4, 4]", "[6, 8, 8]"),
        ({"grid": replace(CFG.grid, n_cls=20)}, "grid.n_cls", "20", "15"),
    ])
    def test_architecture_mismatch_is_a_config_error(self, tmp_path, override,
                                                     key, ours, theirs):
        path = tmp_path / "m.spck"
        save_model(path, init_params(CFG, seed=11), CFG, seed=11, extra={})
        with pytest.raises(ConfigError) as info:
            load_model(path, toy_config(**override))
        assert str(info.value) == (f"{key}: config has {ours}, checkpoint "
                                   f"{path} has {theirs}")

    @pytest.mark.parametrize("model", [
        None, {"n_cls": 15}, {"n_cls": "x", "channels": [6, 8, 8]},
        {"n_cls": 15, "channels": 6}])
    def test_malformed_header_is_a_format_error(self, tmp_path, model):
        path = tmp_path / "m.spck"
        save_model(path, init_params(CFG, seed=12), CFG, seed=12, extra={})
        header, blob = read_checkpoint(path)
        header["model"] = model
        write_checkpoint(path, header, blob)
        with pytest.raises(FormatError, match=re.escape(str(path))):
            load_model(path, CFG)


class TestMiou:
    def test_diagonal_perfect(self):
        cm = np.diag([5, 3, 2])
        iou, mean = miou(cm)
        np.testing.assert_allclose(iou, [1.0, 1.0, 1.0])
        assert np.nanmean(iou) == 1.0 and mean == 1.0

    def test_two_class_worked_example(self):
        # realize TP=(8,2), FP=(1,3), FN=(2,1) for the first two classes;
        # a third class absorbs the off-diagonal spill
        cm = np.array([[8, 2, 0],
                       [0, 2, 1],
                       [1, 1, 0]])
        tp = np.diag(cm)
        fp = cm.sum(axis=0) - tp
        fn = cm.sum(axis=1) - tp
        assert tp[:2].tolist() == [8, 2]
        assert fp[:2].tolist() == [1, 3]
        assert fn[:2].tolist() == [2, 1]
        iou, _ = miou(cm)
        assert iou[0] == pytest.approx(8 / 11)
        assert iou[1] == pytest.approx(2 / 6)
        assert (iou[0] + iou[1]) / 2 == pytest.approx(0.53030, abs=1e-5)

    def test_absent_class_excluded(self):
        cm = np.zeros((3, 3), dtype=int)
        cm[0, 0] = 4
        cm[1, 1] = 2
        iou, mean = miou(cm)
        assert np.isnan(iou[2])
        assert np.nanmean(iou) == pytest.approx(1.0)
        assert mean == pytest.approx(1.0)

    def test_ignore_empty(self):
        cm = np.zeros((3, 3), dtype=int)
        cm[0, 0] = 4
        cm[1, 1] = 1
        cm[1, 0] = 1
        _, mean = miou(cm)
        assert mean == pytest.approx(0.5)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(14)
        cm = rng.integers(0, 30, (5, 5))
        perm = rng.permutation(5)
        a_iou, _ = miou(cm)
        b_iou, _ = miou(cm[np.ix_(perm, perm)])
        np.testing.assert_allclose(np.sort(a_iou), np.sort(b_iou))
        assert np.nanmean(a_iou) == pytest.approx(np.nanmean(b_iou))

    def test_confusion_matrix_layout(self):
        cm = confusion_matrix(np.array([0, 0, 1]), np.array([0, 1, 1]), 2)
        np.testing.assert_array_equal(cm, [[1, 1], [0, 1]])
