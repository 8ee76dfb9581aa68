import math
from fractions import Fraction

import numpy as np
import pytest

from occspot.balance import (ClassStats, class_stats, frame_weights,
                             resample_frames, sampling_weights)


def weights_oracle(counts):
    """Eq-7-style weights in exact rational arithmetic, sqrt at the end."""
    total = sum(counts)
    m = Fraction(1, len(counts))
    return [math.sqrt(m / Fraction(c, total)) for c in counts]


class TestClassStats:
    def test_single_class(self):
        stats = class_stats([{1: 2}])
        assert stats.class_ids == (1,) and stats.counts == (2,)
        assert stats.n_fg == 1

    def test_summation(self):
        stats = class_stats([{1: 3, 2: 1}, {1: 1}])
        assert dict(zip(stats.class_ids, stats.counts)) == {1: 4, 2: 1}

    def test_zero_count_class_excluded_with_warning(self):
        with pytest.warns(UserWarning, match="zero instances"):
            stats = class_stats([{1: 2, 3: 0}])
        assert stats.class_ids == (1,)

    def test_all_zero_rejected(self):
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="no foreground"):
                class_stats([{1: 0}])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            class_stats([{1: -1}])


class TestSamplingWeights:
    def test_equal_counts_unit_weights(self):
        w = sampling_weights(ClassStats((1, 2), (10, 10)))
        assert w.s == pytest.approx((1.0, 1.0), abs=1e-15)

    def test_worked_case_10_10_10_70(self):
        w = sampling_weights(ClassStats((1, 2, 3, 4), (10, 10, 10, 70)))
        assert w.s[0] == pytest.approx(1.58114, abs=1e-5)
        assert w.s[3] == pytest.approx(0.59761, abs=1e-5)
        np.testing.assert_allclose(w.s, weights_oracle([10, 10, 10, 70]),
                                   rtol=0, atol=1e-12)

    def test_rational_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_fg = int(rng.integers(1, 12))
            counts = [int(c) for c in rng.integers(1, 10_000, n_fg)]
            got = sampling_weights(ClassStats(tuple(range(1, n_fg + 1)),
                                              tuple(counts))).s
            np.testing.assert_allclose(got, weights_oracle(counts),
                                       rtol=0, atol=1e-12)

    def test_rarest_class_has_largest_weight(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            counts = rng.integers(1, 500, int(rng.integers(2, 10)))
            w = sampling_weights(ClassStats(tuple(range(1, len(counts) + 1)),
                                            tuple(int(c) for c in counts)))
            assert np.argmax(w.s) == np.argmin(counts)

    def test_proportions_identity(self):
        # sum n_i = 1 exactly and s_i * sqrt(n_i) = sqrt(m) for every i
        counts = (3, 14, 15, 92, 6)
        total = sum(counts)
        n = [Fraction(c, total) for c in counts]
        assert sum(n) == 1
        w = sampling_weights(ClassStats(tuple(range(1, 6)), counts))
        root_m = math.sqrt(1 / 5)
        for s_i, n_i in zip(w.s, n):
            assert s_i * math.sqrt(n_i) == pytest.approx(root_m, abs=1e-12)

    def test_scale_invariance(self):
        counts = (4, 9, 25)
        a = sampling_weights(ClassStats((1, 2, 3), counts)).s
        b = sampling_weights(ClassStats((1, 2, 3),
                                        tuple(37 * c for c in counts))).s
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestFrameWeights:
    def setup_method(self):
        self.w = sampling_weights(ClassStats((1, 2, 3), (100, 10, 1)))

    def test_rarest_only(self):
        out = frame_weights([[3]], self.w)
        assert out[0] == pytest.approx(max(self.w.s))

    def test_all_classes_max_rule(self):
        out = frame_weights([[1, 2, 3]], self.w)
        assert out[0] == pytest.approx(max(self.w.s))

    def test_empty_frame_min_rule(self):
        out = frame_weights([[]], self.w)
        assert out[0] == pytest.approx(min(self.w.s))

    def test_unknown_class_ignored(self):
        out = frame_weights([[99]], self.w)
        assert out[0] == pytest.approx(min(self.w.s))


class TestResampleFrames:
    def test_deterministic(self):
        w = np.array([1.0, 2.0, 3.0])
        a = resample_frames(w, 1000, seed=5)
        b = resample_frames(w, 1000, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_indices_in_range(self):
        idx = resample_frames(np.ones(7), 5000, seed=1)
        assert idx.min() >= 0 and idx.max() < 7 and idx.size == 5000

    def test_uniform_frequencies(self):
        idx = resample_frames(np.ones(4), 200_000, seed=2)
        freq = np.bincount(idx, minlength=4) / idx.size
        assert np.abs(freq - 0.25).max() < 0.02

    def test_one_three_frequencies(self):
        idx = resample_frames(np.array([1.0, 3.0]), 200_000, seed=3)
        freq = np.bincount(idx, minlength=2) / idx.size
        assert abs(freq[0] - 0.25) < 0.01 and abs(freq[1] - 0.75) < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            resample_frames(np.array([1.0, 0.0]), 10, 0)
        with pytest.raises(ValueError):
            resample_frames(np.array([1.0]), 0, 0)

