import itertools

import numpy as np
import pytest

from helpers import (central_diff, grad_rel_err, guarded_directional_checks,
                     jaccard_loss_brute, lovasz_region_signature,
                     lovasz_softmax_reference, rel_err,
                     softmax_field_reference, total_loss_reference,
                     weighted_ce_reference)

from occspot.config import PipelineConfig
from occspot.learn import (loss_weights, lovasz_softmax, softmax_field,
                           softmax_vjp, total_loss, weighted_ce)

W15 = loss_weights(PipelineConfig())


def random_instance(seed, h=6, w=6, n_cls=15, scale=2.0):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, scale, (h, w, n_cls + 1))
    gt = rng.integers(0, n_cls + 1, (h, w))
    return logits, gt


class TestSoftmaxField:
    def test_equal_logits_uniform(self):
        p = softmax_field(np.zeros((3, 3, 16)))
        np.testing.assert_allclose(p, 1.0 / 16, atol=1e-15)

    def test_shift_invariance(self):
        logits, _ = random_instance(0)
        p1 = softmax_field(logits)
        p2 = softmax_field(logits + 7.3)
        assert np.abs(p1 - p2).max() <= 1e-12

    def test_matches_extended_precision(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(0, 3, (4, 4, 3))
        got = softmax_field(logits)
        # longdouble reference, no stabilization trick
        ref64 = np.exp(logits.astype(np.longdouble))
        ref64 /= ref64.sum(axis=-1, keepdims=True)
        assert np.abs(got - ref64.astype(np.float64)).max() <= 1e-12

    def test_normalization(self):
        logits, _ = random_instance(2, scale=30.0)
        p = softmax_field(logits)
        assert np.abs(p.sum(axis=-1) - 1.0).max() <= 1e-9
        assert (p >= 0).all()

    def test_nan_rejected(self):
        bad = np.zeros((2, 2, 3))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            softmax_field(bad)


def random_logits(rng, dtype):
    """Logits of a random shape, 1-17 classes; every other draw is rounded
    to quarters so class maxima tie, and some carry signed zeros."""
    shape = tuple(rng.integers(1, 6, size=rng.integers(1, 4))) + \
        (int(rng.integers(1, 18)),)
    logits = rng.normal(0.0, rng.choice([3.0, 60.0]), shape)
    if rng.random() < 0.5:
        logits = np.round(logits * 4) / 4
        logits[rng.random(shape) < 0.2] = -0.0
    return logits.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_and_ce_equal_their_references_bit_for_bit(dtype):
    rng = np.random.default_rng(19)
    for _ in range(200):
        logits = random_logits(rng, dtype)
        pred = softmax_field(logits)
        want = softmax_field_reference(logits)
        assert pred.dtype == want.dtype == dtype
        assert pred.tobytes() == want.tobytes()

        n_cls = logits.shape[-1]
        gt = rng.integers(0, n_cls, logits.shape[:-1])
        weights = rng.uniform(0.01, 2.0, n_cls)
        loss, grad = weighted_ce(pred, gt, weights)
        want_loss, want_grad = weighted_ce_reference(pred, gt, weights)
        assert loss == want_loss
        assert grad.dtype == want_grad.dtype == dtype
        # bytes, so the sign of every zero counts too
        assert grad.tobytes() == want_grad.tobytes()
        assert np.array_equal(np.signbit(grad), np.signbit(want_grad))


@pytest.mark.parametrize("dtype, uint", [(np.float32, np.uint32),
                                         (np.float64, np.uint64)])
@pytest.mark.parametrize("classes", ["present", "all"])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0])
def test_total_loss_equals_its_out_of_place_reference_bit_for_bit(
        dtype, uint, classes, lam):
    rng = np.random.default_rng(29)
    for i in range(41):  # random shapes, then one batch of the model's
        logits = (random_logits(rng, dtype) if i < 40 else
                  rng.normal(0.0, 3.0, (2, 16, 16, 16)).astype(dtype))
        pred = softmax_field(logits)
        before = pred.copy()
        n_cls = logits.shape[-1]
        gt = rng.integers(0, n_cls, logits.shape[:-1])
        weights = rng.uniform(0.01, 2.0, n_cls)
        loss, grad = total_loss(pred, gt, weights, lam, classes)
        want_loss, want_grad = total_loss_reference(pred, gt, weights, lam,
                                                    classes)
        assert loss == want_loss
        assert grad.dtype == want_grad.dtype == dtype
        # the uint views, so the sign of every zero and each NaN count too
        assert np.array_equal(grad.view(uint), want_grad.view(uint))
        assert np.array_equal(pred.view(uint), before.view(uint))


class TestWeightedCE:
    def test_perfect_prediction_zero_loss(self):
        gt = np.array([[1, 2], [0, 15]])
        pred = np.zeros((2, 2, 16))
        np.put_along_axis(pred, gt[..., None], 1.0, axis=-1)
        loss, grad = weighted_ce(pred, gt, W15)
        assert loss == 0.0

    def test_uniform_prediction_log_c(self):
        _, gt = random_instance(3)
        pred = np.full((6, 6, 16), 1.0 / 16)
        loss, _ = weighted_ce(pred, gt, W15)
        assert loss == pytest.approx(np.log(16.0), abs=1e-12)

    def test_gradient_matches_central_differences(self):
        logits, gt = random_instance(4)

        def f(lg):
            return weighted_ce(softmax_field(lg), gt, W15)[0]

        _, grad = weighted_ce(softmax_field(logits), gt, W15)
        fd = central_diff(f, logits, h=1e-5)
        assert grad_rel_err(fd, grad) <= 1e-6

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_ce(np.zeros((2, 2, 16)), np.zeros((3, 3), dtype=int), W15)
        with pytest.raises(ValueError):
            weighted_ce(np.zeros((2, 2, 16)), np.zeros((2, 2), dtype=int),
                        np.ones(4))

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            weighted_ce(np.zeros((1, 1, 3)), np.array([[3]]), np.ones(3))


class TestLovaszSoftmax:
    def test_perfect_one_hot_zero(self):
        _, gt = random_instance(5)
        pred = np.zeros((6, 6, 16))
        np.put_along_axis(pred, gt[..., None], 1.0, axis=-1)
        loss, grad = lovasz_softmax(pred, gt, "present")
        assert loss == 0.0

    def test_single_cell_one_minus_p(self):
        for p in (0.0, 0.2, 0.7, 1.0):
            pred = np.array([[[1.0 - p, p]]])
            gt = np.array([[1]])
            loss, _ = lovasz_softmax(pred, gt, "present")
            assert loss == pytest.approx(1.0 - p, abs=1e-12)

    def test_binary_vertices_match_jaccard_2x2(self):
        # exhaustive over every (gt, pred) mask pair on a 2x2 grid
        cells = 4
        for gt_bits, pr_bits in itertools.product(range(16), range(16)):
            gt = np.array([(gt_bits >> i) & 1 for i in range(cells)]).reshape(2, 2)
            pr = np.array([(pr_bits >> i) & 1 for i in range(cells)]).reshape(2, 2)
            pred = np.stack([1.0 - pr, pr.astype(float)], axis=-1)
            loss, _ = lovasz_softmax(pred, gt, classes="all")
            want = jaccard_loss_brute(pr.astype(bool), gt.astype(bool))
            assert abs(loss - want) <= 1e-9, (gt_bits, pr_bits)

    def test_multiclass_vertices_match_mean_jaccard(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            gt = rng.integers(0, 4, (3, 3))
            hard = rng.integers(0, 4, (3, 3))
            pred = np.zeros((3, 3, 4))
            np.put_along_axis(pred, hard[..., None], 1.0, axis=-1)
            loss, _ = lovasz_softmax(pred, gt, classes="all")
            want = np.mean([jaccard_loss_brute(hard == n, gt == n)
                            for n in (1, 2, 3)])
            assert abs(loss - want) <= 1e-9

    def test_gradient_constant_within_region(self):
        logits, gt = random_instance(7)
        pred = softmax_field(logits)
        _, g1 = lovasz_softmax(pred, gt, "present")
        _, g2 = lovasz_softmax(np.clip(pred + 1e-12, 0, 1), gt, "present")
        assert np.abs(g1 - g2).max() <= 1e-9

    def test_gradient_matches_fd_along_clean_directions(self):
        rng = np.random.default_rng(8)
        logits, gt = random_instance(9)
        pred = softmax_field(logits)

        checks = guarded_directional_checks(
            lambda p: lovasz_softmax(p, gt, "present")[0],
            lambda p: lovasz_softmax(p, gt, "present")[1],
            lambda p: lovasz_region_signature(p, gt),
            pred, rng, n_dirs=5)
        for fd, an in checks:
            assert rel_err(fd, an) <= 1e-6

    def test_empty_gt_present_mode_zero(self):
        pred = softmax_field(np.random.default_rng(10).normal(size=(3, 3, 4)))
        loss, grad = lovasz_softmax(pred, np.zeros((3, 3), dtype=int),
                                    "present")
        assert loss == 0.0 and np.all(grad == 0.0)

    def test_out_of_range_gt_rejected(self):
        with pytest.raises(ValueError):
            lovasz_softmax(np.zeros((1, 1, 3)), np.array([[7]]), "present")

    def test_nonnegative(self):
        for seed in range(20):
            logits, gt = random_instance(seed, h=4, w=4)
            loss, _ = lovasz_softmax(softmax_field(logits), gt, "present")
            assert loss >= 0.0


def oracle_cases():
    """(name, pred, gt): inputs where sorting only the head of each class's
    order could slip a bit against the full sort."""
    rng = np.random.default_rng(21)
    shape, n_out = (2, 10, 12), 6
    gt = rng.integers(0, n_out, shape)
    gt[rng.random(shape) < 0.5] = 0
    logits = rng.normal(0.0, 2.0, shape + (n_out,))
    cases = [
        ("random", softmax_field(logits), gt),
        ("near_constant", softmax_field(1e-9 * logits), gt),
        ("sharp", softmax_field(30.0 * logits), gt),
        ("rounded", softmax_field(np.round(logits)), gt),
        # errors p and 1 - p from one small set: background errors tie
        # with the smallest foreground error m, and both signs of zero occur
        ("ties_on_m", rng.choice([0.0, 0.25, 0.5, 0.75, 1.0],
                                 shape + (n_out,)), gt),
        # classes 2..5 are absent, which only the "all" mode visits
        ("absent", softmax_field(logits), np.minimum(gt, 1)),
        ("single_cell", softmax_field(logits),
         np.where(np.arange(gt.size).reshape(shape) == 37, 4, 0)),
        ("all_foreground", softmax_field(logits), np.full(shape, 2)),
    ]
    big = rng.normal(0.0, 1.0, (4, 32, 32, 16))
    big_gt = np.where(rng.random((4, 32, 32)) < 0.7, 0,
                      rng.integers(1, 16, (4, 32, 32)))
    cases.append(("large", softmax_field(big), big_gt))
    # the same inputs in float32, where errors tie more often; rounded
    # logits through a float32 softmax tie on many cells
    f32 = np.float32
    cases += [(name + "_f32", pred.astype(f32), gt)
              for name, pred, gt in cases]
    cases.append(("rounded_logits_f32",
                  softmax_field(np.round(logits).astype(f32)), gt))
    cases.append(("rounded_large_f32",
                  softmax_field(np.round(2.0 * big).astype(f32)), big_gt))
    return cases


@pytest.mark.parametrize("classes", ["present", "all"])
@pytest.mark.parametrize("name, pred, gt", oracle_cases(),
                         ids=[c[0] for c in oracle_cases()])
def test_lovasz_equals_the_full_sort_bit_for_bit(name, pred, gt, classes):
    loss, grad = lovasz_softmax(pred, gt, classes)
    want_loss, want_grad = lovasz_softmax_reference(pred, gt, classes)
    assert grad.dtype == want_grad.dtype == pred.dtype
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert np.array_equal(grad, want_grad)
    # array_equal takes -0.0 for +0.0; the sign bits must agree too
    assert np.array_equal(np.signbit(grad), np.signbit(want_grad))


class TestTotalLoss:
    def test_lambda_zero_equals_ce(self):
        logits, gt = random_instance(11)
        pred = softmax_field(logits)
        ce, gce = weighted_ce(pred, gt, W15)
        tot, gtot = total_loss(pred, gt, W15, 0.0, "present")
        assert tot == ce
        np.testing.assert_array_equal(gtot, gce)

    def test_perfect_prediction_zero(self):
        _, gt = random_instance(12)
        pred = np.zeros((6, 6, 16))
        np.put_along_axis(pred, gt[..., None], 1.0, axis=-1)
        loss, _ = total_loss(pred, gt, W15, 1.0, "present")
        assert loss == 0.0

    def test_gradient_matches_central_differences(self):
        # full-tensor FD; the seeded instance keeps the probe kink-free
        logits, gt = random_instance(13)

        def f(lg):
            return total_loss(softmax_field(lg), gt, W15, 1.0, "present")[0]

        _, grad = total_loss(softmax_field(logits), gt, W15, 1.0, "present")
        fd = central_diff(f, logits, h=1e-5)
        assert grad_rel_err(fd, grad) <= 1e-6

    def test_negative_lambda_rejected(self):
        logits, gt = random_instance(14)
        with pytest.raises(ValueError):
            total_loss(softmax_field(logits), gt, W15, -0.1, "present")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_losses_follow_the_dtype_of_the_prediction(dtype):
    logits, gt = random_instance(16)
    pred = softmax_field(logits.astype(dtype))
    assert pred.dtype == dtype
    for lam in (0.0, 1.0):
        loss, grad = total_loss(pred, gt, W15, lam, "present")
        assert type(loss) is float and grad.dtype == dtype
    for fn in (lambda: weighted_ce(pred, gt, W15),
               lambda: lovasz_softmax(pred, gt, "all")):
        loss, grad = fn()
        assert type(loss) is float and grad.dtype == dtype


def test_softmax_vjp_matches_jacobian():
    rng = np.random.default_rng(15)
    logits = rng.normal(size=(5,))
    v = rng.normal(size=(5,))
    p = softmax_field(logits)
    jac = np.diag(p) - np.outer(p, p)  # explicit softmax Jacobian
    np.testing.assert_allclose(softmax_vjp(p, v), jac.T @ v, atol=1e-12)
