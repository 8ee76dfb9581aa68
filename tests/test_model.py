import itertools

import numpy as np
import pytest

from helpers import (conv_backward_input_reference, conv_forward_reference,
                     lovasz_region_signature, pillar_features_reference,
                     rel_err, toy_config)

from occspot.cloud import PointCloud
from occspot.learn import (PILLAR_DIM, init_params, loss_weights,
                           model_backward, model_forward, pillar_features,
                           softmax_field, total_loss)
from occspot.learn.model import (conv_backward_input, conv_backward_weight,
                                 conv_forward, flatten_params,
                                 tconv_backward, tconv_forward,
                                 unflatten_params)
from occspot.occupancy import GridSpec

CFG = toy_config()  # 15 classes, channels (6, 8, 8)
W15 = loss_weights(CFG)


def grid16():
    return GridSpec(origin_x=-8.0, origin_y=-8.0, cell_size=1.0, h=16, w=16,
                    z_min=-1.0, z_max=3.0, n_cls=15)


#: (B, H, W, C) conv inputs: square, non-square, odd
CONV_SHAPES = [(2, 8, 8, 3), (2, 12, 8, 3), (1, 7, 9, 4)]


class TestConvPrimitives:
    def test_adjoint_identity(self):
        rng = np.random.default_rng(0)
        for shape, stride in itertools.product(CONV_SHAPES, (1, 2)):
            x = rng.normal(size=shape)
            w = rng.normal(size=(3, 3, shape[3], 5))
            y = conv_forward(x, w, None, stride)
            gy = rng.normal(size=y.shape)
            lhs = float((y * gy).sum())
            rhs = float((x * conv_backward_input(gy, w, shape[1:3], stride)).sum())
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)), (shape, stride)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("shape", CONV_SHAPES, ids=str)
    def test_col2im_equals_the_einsum_oracle(self, shape, stride):
        rng = np.random.default_rng(13)
        w = rng.normal(size=(3, 3, shape[3], 5))
        y = conv_forward(rng.normal(size=shape), w, None, stride)
        gy = rng.normal(size=y.shape)
        assert np.array_equal(
            conv_backward_input(gy, w, shape[1:3], stride),
            conv_backward_input_reference(gy, w, shape[1:3], stride))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("shape", CONV_SHAPES + [(4, 32, 32, 8)], ids=str)
    def test_per_tap_forward_equals_the_einsum_oracle(self, shape, stride,
                                                      dtype):
        # the taps are summed in another order than einsum's, so the two
        # agree to within the rounding of an n-term sum, n = 9 * Cin: each
        # output may differ by at most 2 n eps times the sum of its terms'
        # magnitudes (the einsum of |x| and |w|)
        rng = np.random.default_rng(17)
        x = rng.normal(size=shape).astype(dtype)
        w = rng.normal(size=(3, 3, shape[3], 5)).astype(dtype)
        got = conv_forward(x, w, None, stride)
        want = conv_forward_reference(x, w, None, stride)
        assert got.dtype == want.dtype == dtype
        n = 9 * shape[3]
        bound = 2 * n * np.finfo(dtype).eps * conv_forward_reference(
            np.abs(x), np.abs(w), None, stride)
        assert (np.abs(got - want) <= bound).all()

    def test_tconv_shapes(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 4, 4, 5))
        w = rng.normal(size=(3, 3, 2, 5))  # down-conv weight (k,k,Cout,Cin)
        b = np.zeros(2)
        assert tconv_forward(x, w, b, (8, 8), stride=2).shape == (1, 8, 8, 2)
        w1 = rng.normal(size=(3, 3, 2, 5))
        assert tconv_forward(x, w1, b, (4, 4), stride=1).shape == (1, 4, 4, 2)

    def test_tconv_gradients_match_fd(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        # stride 1 on a non-square grid is the decoder's last layer, up3
        for stride, x_shape, out_hw in ((2, (1, 4, 4, 3), (8, 8)),
                                        (1, (2, 5, 6, 3), (5, 6))):
            x = rng.normal(size=x_shape)
            w = rng.normal(size=(3, 3, 2, 3))
            b = rng.normal(size=(2,))
            gy = rng.normal(size=(x_shape[0], *out_hw, 2))
            dx, dw, db = tconv_backward(x, gy, w, stride)

            def loss(xa, wa):
                return float((tconv_forward(xa, wa, b, out_hw, stride) * gy).sum())

            for arr, grad, at in ((w, dw, lambda a: loss(x, a)),
                                  (x, dx, lambda a: loss(a, w))):
                for _ in range(25):
                    idx = tuple(rng.integers(0, s) for s in arr.shape)
                    ap, am = arr.copy(), arr.copy()
                    ap[idx] += h
                    am[idx] -= h
                    fd = (at(ap) - at(am)) / (2 * h)
                    assert rel_err(fd, grad[idx]) <= 1e-6, (stride, idx)
            np.testing.assert_allclose(db, gy.sum(axis=(0, 1, 2)), atol=1e-12)


class TestPillarFeatures:
    def test_empty_cloud_all_zero(self):
        out = pillar_features(PointCloud(np.zeros((0, 3)), np.zeros((0, 1))),
                              grid16())
        assert out.shape == (16, 16, PILLAR_DIM)
        assert np.all(out == 0.0)

    def test_single_point_single_pillar(self):
        cloud = PointCloud([[0.25, 0.25, 1.0]], [[0.8]])
        out = pillar_features(cloud, grid16())
        nz = np.nonzero(out.any(axis=-1))
        assert (nz[0].tolist(), nz[1].tolist()) == ([8], [8])
        # feature channel, then offsets within the cell, then height
        np.testing.assert_allclose(out[8, 8],
                                   [0.8, -0.25, -0.25, 0.0], atol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        xyz = rng.uniform(-8, 8, (400, 3)) * [1, 1, 0.2]
        feat = rng.random((400, 1))
        cloud = PointCloud(xyz, feat)
        a = pillar_features(cloud, grid16())
        perm = rng.permutation(400)
        b = pillar_features(PointCloud(xyz[perm], feat[perm]), grid16())
        assert np.abs(a - b).max() <= 1e-9

    def test_out_of_band_points_ignored(self):
        cloud = PointCloud([[0.0, 0.0, 99.0]], [[1.0]])
        out = pillar_features(cloud, grid16())
        assert np.all(out == 0.0)

    def test_matches_add_at_scatter_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            n = int(rng.integers(1, 3000))
            # few cells and wide magnitudes, so the order of the sums matters
            xyz = rng.uniform(-3, 3, (n, 3)) * [1, 1, 0.5]
            feat = rng.normal(size=(n, 1)) * 10.0 ** rng.integers(-8, 9, (n, 1))
            cloud = PointCloud(xyz, feat)
            assert np.array_equal(pillar_features(cloud, grid16()),
                                  pillar_features_reference(cloud, grid16()))


def encoder_feats(cloud, params):
    """BEV features (H/4, W/4, C2) of one cloud, from the model's forward pass."""
    _, cache = model_forward(pillar_features(cloud, grid16())[None], params)
    return cache["feats"][0]


class TestEncoder:
    def test_empty_cloud_bias_propagation(self):
        params = init_params(CFG, seed=4)
        empty = PointCloud(np.zeros((0, 3)), np.zeros((0, 1)))
        feats = encoder_feats(empty, params)
        assert feats.shape == (4, 4, CFG.channels[2])
        # closed form: zero pillars -> relu(b1) broadcast -> conv2 + b2
        b1 = np.maximum(params["conv1_b"], 0.0)
        layer1 = np.tile(b1, (1, 8, 8, 1))
        expected = np.maximum(
            conv_forward(layer1, params["conv2_w"], params["conv2_b"], 2), 0.0)
        np.testing.assert_allclose(feats, expected[0], atol=1e-12)

    def test_single_point_receptive_field(self):
        params = init_params(CFG, seed=5)
        baseline = encoder_feats(PointCloud(np.zeros((0, 3)), np.zeros((0, 1))),
                                 params)
        cloud = PointCloud([[0.25, 0.25, 1.0]], [[1.0]])  # pillar (8, 8)
        feats = encoder_feats(cloud, params)
        diff = np.abs(feats - baseline).max(axis=-1)
        # two stride-2 3x3 convs: input u maps to outputs within
        # |4j - u| <= 3, i.e. j in {ceil((u-3)/4) .. floor((u+3)/4)}
        u = 8
        lo, hi = (u - 3 + 3) // 4, (u + 3) // 4
        affected = np.zeros((4, 4), dtype=bool)
        affected[lo:hi + 1, lo:hi + 1] = True
        assert np.all(diff[~affected] <= 1e-9)
        assert diff[affected].max() > 0.0


class TestDecoder:
    def test_output_shape_restored(self):
        params = init_params(CFG, seed=6)
        for h in (16, 32):
            pillars = np.random.default_rng(6).normal(
                size=(2, h, h, PILLAR_DIM))
            logits, cache = model_forward(pillars, params)
            assert cache["feats"].shape == (2, h // 4, h // 4, CFG.channels[2])
            assert logits.shape == (2, h, h, CFG.grid.n_cls + 1)

    def test_zero_input_zero_bias_zero_logits(self):
        params = init_params(CFG, seed=7)
        for k in params:
            if k.endswith("_b"):
                params[k] = np.zeros_like(params[k])
        logits, cache = model_forward(np.zeros((1, 16, 16, PILLAR_DIM)),
                                      params)
        assert np.all(cache["feats"] == 0.0)
        assert np.all(logits == 0.0)


def model_loss_and_grad(theta_vec, pillars, gt, lam=1.0):
    params = unflatten_params(theta_vec, CFG)
    logits, cache = model_forward(pillars, params)
    pred = softmax_field(logits)
    loss, dlogits = total_loss(pred, gt, W15, lam, "present")
    grads = model_backward(cache, dlogits, params)
    return loss, flatten_params(grads), cache, pred


def relu_mask_signature(cache) -> tuple:
    return tuple((cache[k] > 0).tobytes()
                 for k in ("a1", "feats", "a3", "a4", "a5"))


class TestEndToEndGradient:
    def test_composition_matches_fd(self):
        rng = np.random.default_rng(8)
        pillars = rng.normal(0, 1.0, (1, 16, 16, PILLAR_DIM))
        gt = rng.integers(0, 16, (1, 16, 16))
        # finite differences need float64: the model then runs in float64
        theta = flatten_params(init_params(CFG, seed=9)).astype(np.float64)
        loss, grad, cache, pred = model_loss_and_grad(theta, pillars, gt)

        def f(vec):
            return model_loss_and_grad(vec, pillars, gt)[0]

        def signature(vec):
            _, _, c, p = model_loss_and_grad(vec, pillars, gt)
            return relu_mask_signature(c) + lovasz_region_signature(p, gt)

        h = 1e-5
        found = 0
        for trial in range(40):
            if found == 3:
                break
            d = np.random.default_rng(100 + trial).normal(size=theta.size)
            d /= np.linalg.norm(d)
            if len({signature(theta - h * d), signature(theta),
                    signature(theta + h * d)}) != 1:
                continue
            fd = (f(theta + h * d) - f(theta - h * d)) / (2 * h)
            assert rel_err(fd, float(grad @ d)) <= 1e-6
            found += 1
        assert found == 3

    def test_gradient_nonzero_everywhere_reachable(self):
        rng = np.random.default_rng(10)
        pillars = rng.normal(0, 1.0, (2, 16, 16, PILLAR_DIM))
        gt = rng.integers(0, 16, (2, 16, 16))
        theta = flatten_params(init_params(CFG, seed=11))
        _, grad, _, _ = model_loss_and_grad(theta, pillars, gt)
        assert np.isfinite(grad).all()
        assert np.abs(grad).max() > 0.0

    def test_divisibility_enforced(self):
        params = init_params(CFG, seed=12)
        with pytest.raises(ValueError, match="divisible"):
            model_forward(np.zeros((1, 15, 16, PILLAR_DIM)), params)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_model_follows_the_dtype_of_the_parameters(dtype):
    params = {k: v.astype(dtype) for k, v in init_params(CFG, seed=14).items()}
    rng = np.random.default_rng(14)
    # the pillars stay float64, as pillar_features makes them
    pillars = rng.normal(size=(2, 16, 16, PILLAR_DIM))
    gt = rng.integers(0, 16, (2, 16, 16))
    logits, cache = model_forward(pillars, params)
    assert logits.dtype == dtype
    assert {k: v.dtype for k, v in cache.items()} == dict.fromkeys(cache, dtype)
    loss, dlogits = total_loss(softmax_field(logits), gt, W15, 1.0, "present")
    assert type(loss) is float and dlogits.dtype == dtype
    grads = model_backward(cache, dlogits, params)
    assert {k: g.dtype for k, g in grads.items()} == dict.fromkeys(params, dtype)


def test_init_params_are_float32():
    assert {p.dtype for p in init_params(CFG, seed=15).values()} == {
        np.dtype(np.float32)}


def test_flatten_unflatten_roundtrip():
    params = init_params(CFG, seed=13)
    vec = flatten_params(params)
    back = unflatten_params(vec, CFG)
    assert set(back) == set(params)
    for k in params:
        np.testing.assert_array_equal(params[k], back[k])
    # a blob keeps its dtype, whichever it is
    for blob in (vec, vec.astype(np.float64)):
        assert {p.dtype for p in unflatten_params(blob, CFG).values()} == {
            blob.dtype}
