import numpy as np
import pytest

from occspot.cloud import PointCloud, Pose
from occspot.learn import (ModelConfig, NumericalError, TrainConfig,
                           confusion_matrix, evaluate, finetune_segmentation,
                           load_model, miou, one_cycle_lr, pretrain,
                           save_model)
from occspot.learn.model import init_params
from occspot.learn.train import AdamState, adam_step
from occspot.occupancy import GridSpec, OccupancyGrid
from occspot.pipeline import build_samples, ego_trajectory, sequence_occupancy
from occspot.config import PipelineConfig
from occspot.synth import SceneParams, build_scene, generate_sequence

CFG = ModelConfig(n_cls=15, feat_dim=1, channels=(6, 8, 8))


def toy_config(**kw):
    base = dict(
        seed=3, n_sequences=3,
        scene=SceneParams(arena=(-12.0, 12.0, -12.0, 12.0), n_objects=6),
        grid=GridSpec(-8.0, -8.0, 0.5, 32, 32, -1.0, 3.0, 15),
        n_frames=3, channels=(6, 8, 8), epochs=2, batch_size=2,
    )
    base.update(kw)
    return PipelineConfig(**base)


def toy_samples(cfg, n_scenes=3, seed0=50):
    from occspot.pipeline import SequenceFiles
    meta = ego_trajectory(cfg)
    samples = []
    for i in range(n_scenes):
        scene = build_scene(cfg.scene, seed0 + i)
        frames = generate_sequence(scene, cfg.source_beams, meta)
        seq = SequenceFiles([f.cloud for f in frames],
                            [f.labels for f in frames],
                            list(meta.ego_poses),
                            [f.boxes for f in frames])
        samples.extend(build_samples([seq], cfg))
    return samples


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


class TestAdam:
    def test_zero_lr_noop(self):
        params = init_params(CFG, seed=0)
        before = {k: v.copy() for k, v in params.items()}
        grads = {k: np.ones_like(v) for k, v in params.items()}
        adam_step(params, grads, AdamState.init(params), lr=0.0)
        for k in params:
            np.testing.assert_array_equal(params[k], before[k])

    def test_step_moves_against_gradient(self):
        params = {"w": np.array([1.0, -1.0])}
        grads = {"w": np.array([1.0, -1.0])}
        adam_step(params, grads, AdamState.init(params), lr=0.1)
        assert params["w"][0] < 1.0 and params["w"][1] > -1.0


class TestTrainingLoops:
    def test_deterministic_loss_trace(self):
        cfg = toy_config()
        samples = toy_samples(cfg)
        tc = TrainConfig(epochs=2, batch_size=2, lr_peak=0.003, seed=5)
        _, trace_a = pretrain(samples, cfg.grid, CFG, tc)
        _, trace_b = pretrain(samples, cfg.grid, CFG, tc)
        assert trace_a == trace_b  # bit-identical

    def test_different_seed_different_trace(self):
        cfg = toy_config()
        samples = toy_samples(cfg)
        _, a = pretrain(samples, cfg.grid, CFG, TrainConfig(epochs=1, seed=1))
        _, b = pretrain(samples, cfg.grid, CFG, TrainConfig(epochs=1, seed=2))
        assert a != b

    def test_loss_decreases_quickly_on_one_sample(self):
        cfg = toy_config()
        samples = toy_samples(cfg, n_scenes=1)
        tc = TrainConfig(epochs=100, batch_size=1, lr_peak=0.01, seed=7)
        _, trace = pretrain(samples, cfg.grid, CFG, tc)
        assert trace[-1] < 0.5 * trace[0]

    def test_nan_aborts_with_diagnostics(self):
        cfg = toy_config()
        samples = toy_samples(cfg, n_scenes=1)
        # an absurd learning rate saturates the softmax to an exact zero
        # on the true class within a couple of steps
        tc = TrainConfig(epochs=4, batch_size=1, lr_peak=1e6, seed=0)
        with pytest.raises(NumericalError, match="step"):
            pretrain(samples, cfg.grid, CFG, tc)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_nan_logits_are_a_numerical_error(self):
        cfg = toy_config()
        samples = toy_samples(cfg, n_scenes=1)
        # parameters overflow after the first update, so the next forward
        # pass yields NaN logits before any loss is computed
        tc = TrainConfig(epochs=3, batch_size=1, lr_peak=1e300, seed=0)
        with pytest.raises(NumericalError,
                           match=r"^logits contain NaN at step \d+ \(epoch"):
            pretrain(samples, cfg.grid, CFG, tc)

    def test_finetune_empty_set_rejected(self):
        cfg = toy_config()
        with pytest.raises(ValueError, match="empty fine-tune set"):
            finetune_segmentation(None, [], cfg.grid, CFG, TrainConfig())

    def test_finetune_shape_mismatch_rejected(self):
        cfg = toy_config()
        samples = toy_samples(cfg, n_scenes=1)
        wrong = init_params(ModelConfig(n_cls=15, feat_dim=1,
                                        channels=(4, 4, 4)), seed=0)
        with pytest.raises(ValueError, match="shape"):
            finetune_segmentation(wrong, samples, cfg.grid, CFG, TrainConfig())

    def test_finetune_uses_pretrained_encoder(self):
        cfg = toy_config()
        samples = toy_samples(cfg, n_scenes=2)
        pre, _ = pretrain(samples, cfg.grid, CFG,
                          TrainConfig(epochs=1, seed=3))
        ft, _ = finetune_segmentation(pre, samples[:1], cfg.grid, CFG,
                                      TrainConfig(epochs=1, seed=4,
                                                  lr_peak=0.0))
        # with lr 0 the encoder stays exactly the pretrained one
        np.testing.assert_array_equal(ft["conv1_w"], pre["conv1_w"])

    def test_scratch_and_pretrained_produce_valid_miou(self):
        cfg = toy_config()
        samples = toy_samples(cfg, n_scenes=2)
        tc = TrainConfig(epochs=1, batch_size=1, seed=6)
        pre, _ = pretrain(samples, cfg.grid, CFG, tc)
        for init in (pre, None):
            params, _ = finetune_segmentation(init, samples[:1], cfg.grid,
                                              CFG, tc)
            _, _, mean = evaluate(params, samples, cfg.grid, CFG)
            assert 0.0 <= mean <= 1.0


class TestCheckpoints:
    def test_save_load_roundtrip(self, tmp_path):
        params = init_params(CFG, seed=8)
        # checkpoints are f32 on the wire; quantize before comparing
        path = tmp_path / "m.spck"
        save_model(path, params, CFG, seed=8, extra={"note": "t"})
        loaded, cfg2, header = load_model(path)
        assert cfg2 == CFG
        assert header["extra"]["note"] == "t"
        for k in params:
            np.testing.assert_array_equal(
                loaded[k], params[k].astype(np.float32).astype(np.float64))

    def test_byte_identical_rewrite(self, tmp_path):
        params = init_params(CFG, seed=9)
        p1, p2 = tmp_path / "a.spck", tmp_path / "b.spck"
        save_model(p1, params, CFG, seed=9)
        loaded, cfg2, header = load_model(p1)
        save_model(p2, loaded, cfg2, seed=header["seed"])
        assert p1.read_bytes() == p2.read_bytes()


class TestMiou:
    def test_diagonal_perfect(self):
        cm = np.diag([5, 3, 2])
        iou, mean = miou(cm, ignore_empty=False)
        np.testing.assert_allclose(iou, [1.0, 1.0, 1.0])
        assert mean == 1.0

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
        iou, _ = miou(cm, ignore_empty=False)
        assert iou[0] == pytest.approx(8 / 11)
        assert iou[1] == pytest.approx(2 / 6)
        assert (iou[0] + iou[1]) / 2 == pytest.approx(0.53030, abs=1e-5)

    def test_absent_class_excluded(self):
        cm = np.zeros((3, 3), dtype=int)
        cm[0, 0] = 4
        cm[1, 1] = 2
        iou, mean = miou(cm, ignore_empty=False)
        assert np.isnan(iou[2])
        assert mean == pytest.approx(1.0)

    def test_ignore_empty(self):
        cm = np.zeros((3, 3), dtype=int)
        cm[0, 0] = 4
        cm[1, 1] = 1
        cm[1, 0] = 1
        _, mean = miou(cm, ignore_empty=True)
        assert mean == pytest.approx(0.5)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(14)
        cm = rng.integers(0, 30, (5, 5))
        perm = rng.permutation(5)
        a_iou, a_mean = miou(cm, ignore_empty=False)
        b_iou, b_mean = miou(cm[np.ix_(perm, perm)], ignore_empty=False)
        np.testing.assert_allclose(np.sort(a_iou), np.sort(b_iou))
        assert a_mean == pytest.approx(b_mean)

    def test_confusion_matrix_layout(self):
        cm = confusion_matrix(np.array([0, 0, 1]), np.array([0, 1, 1]), 2)
        np.testing.assert_array_equal(cm, [[1, 1], [0, 1]])
