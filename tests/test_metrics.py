import numpy as np
import pytest

from ethikit.errors import EmptyInput, LengthMismatch, NonFiniteScore, SingleClass
from ethikit.metrics import (
    ConfusionMatrix,
    DegenerateMetricWarning,
    auc,
    build_report,
    confusion,
    render_confusion,
    round_half_up,
    scalar_metrics,
)


def brute_force_auc(scores, labels):
    """Independent O(P*N) pair-counting oracle."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestConfusion:
    def test_perfect(self):
        cm = confusion([1, 0, 1], [1, 0, 1])
        assert (cm.fp, cm.fn) == (0, 0)

    def test_inverted(self):
        cm = confusion([0, 1, 0], [1, 0, 1])
        assert (cm.tp, cm.tn) == (0, 0)

    def test_hand_count(self):
        preds = [1, 1, 0, 1, 0, 0, 0, 1, 0, 1]
        labels = [1, 1, 1, 0, 0, 0, 0, 1, 0, 1]
        cm = confusion(preds, labels)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (4, 1, 1, 4)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([1], [1, 0])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            confusion([], [])


class TestScalarMetrics:
    def test_hand_fixture(self):
        cm = ConfusionMatrix(tp=3, fp=1, fn=1, tn=5)
        assert scalar_metrics(cm) == (0.8, 0.75, 0.75, 0.75)

    def test_all_negative_predictions_flagged(self):
        cm = ConfusionMatrix(tp=0, fp=0, fn=3, tn=5)
        with pytest.warns(DegenerateMetricWarning):
            accuracy, precision, recall, f1 = scalar_metrics(cm)
        assert (precision, recall, f1) == (0.0, 0.0, 0.0)
        assert accuracy == 5 / 8

    def test_perfect_matrix(self):
        cm = ConfusionMatrix(tp=4, fp=0, fn=0, tn=6)
        assert scalar_metrics(cm) == (1.0, 1.0, 1.0, 1.0)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_hand_pairs(self):
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_single_class(self):
        with pytest.raises(SingleClass):
            auc([0.1, 0.9], [1, 1])

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # coarse grid forces plenty of ties
            scores = rng.integers(0, 5, n) / 4.0
            assert auc(scores, labels) == brute_force_auc(scores, labels)

    def test_negation_flips(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=50)
        labels = rng.integers(0, 2, 50)
        labels[0], labels[1] = 0, 1
        assert auc(scores, labels) == pytest.approx(1.0 - auc(-scores, labels), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=80)
        labels = rng.integers(0, 2, 80)
        labels[0], labels[1] = 0, 1
        assert auc(scores, labels) == auc(np.exp(scores), labels)
        assert auc(scores, labels) == auc(3.0 * scores + 7.0, labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(NonFiniteScore):
            auc([0.2, bad, 0.9, 0.1], [0, 0, 1, 1])


class TestReporting:
    def test_build_report_consistency(self):
        scores = np.array([0.9, 0.8, 0.3, 0.6, 0.2, 0.1])
        labels = np.array([1, 1, 1, 0, 0, 0])
        report = build_report(scores, labels)
        cm = report.confusion
        assert cm.total == report.n == 6
        assert report.accuracy == (cm.tp + cm.tn) / cm.total

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_build_report_rejects_non_finite_score(self, bad):
        with pytest.raises(NonFiniteScore):
            build_report([0.2, bad, 0.9, 0.1], [0, 0, 1, 1])

    def test_round_half_up(self):
        assert round_half_up(82.3275, 2) == 82.33
        assert round_half_up(82.325, 2) == 82.33
        assert round_half_up(0.5, 0) == 1.0

    def test_render_confusion_layout(self):
        text = render_confusion(ConfusionMatrix(tp=3, fp=1, fn=2, tn=9))
        lines = text.splitlines()
        assert len(lines) == 3
        assert "pred 0" in lines[0] and "pred 1" in lines[0]
        assert lines[1].split() == ["true", "0", "9", "1"]
        assert lines[2].split() == ["true", "1", "2", "3"]
