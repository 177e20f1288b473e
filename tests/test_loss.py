import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from ethikit.errors import EmptyInput, LengthMismatch
from ethikit.loss import bce, bce_grad_logits


class TestBce:
    def test_uninformative_point_is_ln2(self):
        assert bce([0.5], [1]).mean_loss == pytest.approx(math.log(2), abs=1e-12)

    def test_near_perfect(self):
        assert bce([1 - 1e-7], [1]).mean_loss <= 2e-7

    def test_two_sample_hand_value(self):
        # 0.5 * (-ln 0.9 - ln 0.8), worked by hand
        value = bce([0.9, 0.2], [1, 0]).mean_loss
        assert value == pytest.approx(0.164252033486018, abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        probs = rng.random(100)
        labels = rng.integers(0, 2, 100)
        assert bce(probs, labels).mean_loss >= 0.0

    def test_clamp_handles_exact_zero_one(self):
        value = bce([0.0, 1.0], [0, 1]).mean_loss
        assert value == pytest.approx(0.0, abs=2e-7)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            bce([0.5, 0.5], [1])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            bce([], [])

    def test_sample_count(self):
        assert bce([0.5, 0.5, 0.5], [1, 0, 1]).n == 3


class TestBceGradLogits:
    def test_zero_logit_label_one(self):
        assert bce_grad_logits(np.array([0.0]), np.array([1]))[0] == -0.5

    def test_zero_logit_label_zero(self):
        assert bce_grad_logits(np.array([0.0]), np.array([0]))[0] == 0.5

    def test_sign_convention(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=50)
        grads_pos = bce_grad_logits(logits, np.ones(50))
        grads_neg = bce_grad_logits(logits, np.zeros(50))
        assert (grads_pos < 0).all()
        assert (grads_neg > 0).all()

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=20)
        labels = rng.integers(0, 2, 20).astype(float)
        analytic = bce_grad_logits(logits, labels)
        h = 1e-6
        for i in range(20):
            zp, zm = logits.copy(), logits.copy()
            zp[i] += h
            zm[i] -= h
            fd = (
                bce(expit(zp), labels).mean_loss - bce(expit(zm), labels).mean_loss
            ) / (2 * h)
            assert analytic[i] == pytest.approx(fd, abs=1e-8)

    def test_per_sample_convexity_in_logit(self):
        # second difference of the one-sample loss is nonnegative everywhere
        h = 1e-3
        for label in (0.0, 1.0):
            for z in np.linspace(-6, 6, 49):
                left = bce(expit(np.array([z - h])), [label]).mean_loss
                mid = bce(expit(np.array([z])), [label]).mean_loss
                right = bce(expit(np.array([z + h])), [label]).mean_loss
                assert left + right - 2 * mid >= -1e-12

    def test_extreme_logits_finite_and_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grads = bce_grad_logits(np.array([1000.0, -1000.0]), np.array([0, 1]))
        assert grads.tolist() == [0.5, -0.5]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            bce_grad_logits(np.zeros(3), np.zeros(2))
