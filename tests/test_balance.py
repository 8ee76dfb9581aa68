import math
from fractions import Fraction

import numpy as np
import pytest

from occspot.balance import sampling_weights


def weights_oracle(counts):
    """Eq-7-style weights in exact rational arithmetic, sqrt at the end."""
    total = sum(counts)
    m = Fraction(1, len(counts))
    return [math.sqrt(m / Fraction(c, total)) for c in counts]


def weights(counts):
    """The weights of classes 1, 2, ... with dataset totals `counts`."""
    return list(sampling_weights([dict(enumerate(counts, 1))]).values())


class TestClassStats:
    """Per-frame counts are summed per class before any weight is taken."""

    def test_single_class(self):
        assert sampling_weights([{1: 2}]) == {1: 1.0}

    def test_summation(self):
        w = sampling_weights([{1: 3, 2: 1}, {1: 1}])
        assert list(w) == [1, 2]
        np.testing.assert_allclose(list(w.values()), weights_oracle([4, 1]),
                                   rtol=0, atol=1e-12)
        # keyed in ascending class order, whatever the frames' order
        assert list(sampling_weights([{5: 1}, {4: 2, 2: 3}])) == [2, 4, 5]

    def test_zero_count_class_excluded_with_warning(self):
        with pytest.warns(UserWarning, match=r"zero instances excluded: \[3\]"):
            w = sampling_weights([{1: 2, 3: 0}])
        assert list(w) == [1]

    def test_all_zero_rejected(self):
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="no foreground"):
                sampling_weights([{1: 0}])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative instance count"):
            sampling_weights([{1: -1}])

    @pytest.mark.parametrize("cls", [0, -2])
    def test_class_id_below_one_rejected(self, cls):
        with pytest.raises(ValueError, match=f"must be >= 1, got {cls}"):
            sampling_weights([{1: 3}, {cls: 1}])


class TestSamplingWeights:
    def test_equal_counts_unit_weights(self):
        assert weights([10, 10]) == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_worked_case_10_10_10_70(self):
        s = weights([10, 10, 10, 70])
        assert s[0] == pytest.approx(1.58114, abs=1e-5)
        assert s[3] == pytest.approx(0.59761, abs=1e-5)
        np.testing.assert_allclose(s, weights_oracle([10, 10, 10, 70]),
                                   rtol=0, atol=1e-12)

    def test_rational_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_fg = int(rng.integers(1, 12))
            counts = [int(c) for c in rng.integers(1, 10_000, n_fg)]
            np.testing.assert_allclose(weights(counts), weights_oracle(counts),
                                       rtol=0, atol=1e-12)

    def test_rarest_class_has_largest_weight(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            counts = rng.integers(1, 500, int(rng.integers(2, 10)))
            s = weights([int(c) for c in counts])
            assert np.argmax(s) == np.argmin(counts)

    def test_proportions_identity(self):
        # sum n_i = 1 exactly and s_i * sqrt(n_i) = sqrt(m) for every i
        counts = (3, 14, 15, 92, 6)
        total = sum(counts)
        n = [Fraction(c, total) for c in counts]
        assert sum(n) == 1
        root_m = math.sqrt(1 / 5)
        for s_i, n_i in zip(weights(counts), n):
            assert s_i * math.sqrt(n_i) == pytest.approx(root_m, abs=1e-12)

    def test_scale_invariance(self):
        counts = (4, 9, 25)
        np.testing.assert_allclose(weights(counts),
                                   weights([37 * c for c in counts]),
                                   rtol=0, atol=1e-12)
