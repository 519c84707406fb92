import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tinyecg.labels import CLASSES
from tinyecg.metrics import (
    ConfusionMatrix,
    confusion,
    format_report,
    scores,
)

count_matrices = arrays(
    np.int64, (4, 4), elements=st.integers(0, 500)
).filter(lambda m: m.sum() > 0)


class TestConfusion:
    def test_diagonal_for_perfect_predictions(self):
        truth = ["N", "S", "V", "F", "N", "V"]
        cm = confusion(truth, truth)
        assert np.trace(cm.counts) == 6
        assert cm.counts.sum() == 6

    def test_single_off_diagonal(self):
        cm = confusion(["N"], ["S"])
        expected = np.zeros((4, 4), dtype=np.int64)
        expected[0, 1] = 1
        np.testing.assert_array_equal(cm.counts, expected)

    def test_hand_tallied_fixture(self):
        truth = ["N", "N", "N", "S", "S", "V", "V", "V", "F", "N", "S", "F"]
        pred  = ["N", "V", "N", "S", "N", "V", "V", "F", "F", "N", "S", "N"]
        cm = confusion(truth, pred)
        # tallied by hand from the pairs above
        expected = np.array(
            [
                [3, 0, 1, 0],
                [1, 2, 0, 0],
                [0, 0, 2, 1],
                [1, 0, 0, 1],
            ],
            dtype=np.int64,
        )
        np.testing.assert_array_equal(cm.counts, expected)

    def test_integer_codes_accepted(self):
        cm = confusion([0, 1, 2, 3], [0, 1, 2, 3])
        assert np.trace(cm.counts) == 4

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            confusion(["N", "S"], ["N"])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            confusion(["N", "X"], ["N", "N"])


class TestScores:
    def test_perfect_diagonal(self):
        cm = ConfusionMatrix(np.diag([5, 6, 7, 8]))
        report = scores(cm)
        assert report.precision == pytest.approx([1.0] * 4)
        assert report.recall == pytest.approx([1.0] * 4)
        assert report.f1 == pytest.approx([1.0] * 4)
        assert report.accuracy == 1.0
        assert not report.flags

    def test_never_predicted_class_flagged(self):
        counts = np.array([[4, 0, 0, 0], [2, 0, 0, 0], [0, 0, 3, 0], [0, 0, 0, 2]])
        report = scores(ConfusionMatrix(counts))
        assert report.precision[1] == 0.0  # S never predicted: 0/0 -> 0
        assert report.recall[1] == 0.0
        assert any("precision(S)" in f for f in report.flags)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            scores(ConfusionMatrix(np.zeros((4, 4), dtype=np.int64)))

    @given(count_matrices)
    @settings(max_examples=200)
    def test_accuracy_equals_weighted_recall(self, counts):
        report = scores(ConfusionMatrix(counts))
        assert abs(report.accuracy - report.weighted_recall) < 1e-12

    @given(count_matrices)
    @settings(max_examples=100)
    def test_macro_f1_bounded_by_per_class(self, counts):
        report = scores(ConfusionMatrix(counts))
        assert report.f1.min() - 1e-12 <= report.macro_f1 <= report.f1.max() + 1e-12

    @given(count_matrices, st.integers(2, 7))
    @settings(max_examples=100)
    def test_invariant_under_duplication(self, counts, k):
        a = scores(ConfusionMatrix(counts))
        b = scores(ConfusionMatrix(counts * k))
        np.testing.assert_allclose(a.f1, b.f1, atol=1e-12)
        assert a.accuracy == pytest.approx(b.accuracy, abs=1e-12)
        assert a.macro_f1 == pytest.approx(b.macro_f1, abs=1e-12)


# Published evaluation of the reference checkpoint (test split of the
# standard corpus): per-class precision, recall and support. The full
# confusion matrix was not published; it is reconstructed below.
REFERENCE_EVAL = {
    "support": np.array([29908, 918, 2388, 265]),
    "precision": np.array([0.975297, 0.783034, 0.928136, 0.937500]),
    "recall": np.array([0.992711, 0.522876, 0.892379, 0.452830]),
    "f1": np.array([0.983927, 0.627041, 0.909906, 0.610687]),
    "macro_f1": 0.782890,
    "accuracy": 0.968398,
}


# One valid off-diagonal completion of the reference confusion matrix.
# F1, macro F1 and accuracy depend only on the diagonal and the row and
# column sums, so any completion reproduces the published scores; this
# one was found by hand and is pinned by the consistency assertions in
# reconstruct_confusion.
REFERENCE_COMPLETION = np.array(
    [
        [29690, 133, 85, 0],
        [430, 480, 0, 8],
        [257, 0, 2131, 0],
        [65, 0, 80, 120],
    ],
    dtype=np.int64,
)


def reconstruct_confusion(support, precision, recall) -> np.ndarray:
    """Reverse-engineer an integer confusion matrix from per-class scores.

    TP = recall * support and TP / precision must land on integers (they
    do, up to rounding of the published six-decimal scores); the frozen
    completion must then reproduce those marginals exactly.
    """
    tp = recall * support
    assert np.allclose(tp, np.rint(tp), atol=0.01), "recall*support must be integral"
    tp = np.rint(tp).astype(np.int64)
    predicted = tp / precision
    assert np.allclose(predicted, np.rint(predicted), atol=0.05)
    predicted = np.rint(predicted).astype(np.int64)

    cm = REFERENCE_COMPLETION
    np.testing.assert_array_equal(np.diag(cm), tp)
    np.testing.assert_array_equal(cm.sum(axis=1), support)
    np.testing.assert_array_equal(cm.sum(axis=0), predicted)
    assert (cm >= 0).all()
    return cm


class TestReferenceEvalRecomputed:
    def test_reconstruction_is_consistent(self):
        cm = reconstruct_confusion(
            REFERENCE_EVAL["support"], REFERENCE_EVAL["precision"], REFERENCE_EVAL["recall"]
        )
        np.testing.assert_array_equal(cm.sum(axis=1), REFERENCE_EVAL["support"])
        assert cm.sum() == 33479

    def test_published_scores_recomputed(self):
        cm = reconstruct_confusion(
            REFERENCE_EVAL["support"], REFERENCE_EVAL["precision"], REFERENCE_EVAL["recall"]
        )
        report = scores(ConfusionMatrix(cm))
        np.testing.assert_allclose(report.precision, REFERENCE_EVAL["precision"], atol=5e-7)
        np.testing.assert_allclose(report.recall, REFERENCE_EVAL["recall"], atol=5e-7)
        np.testing.assert_allclose(report.f1, REFERENCE_EVAL["f1"], atol=5e-7)
        assert report.macro_f1 == pytest.approx(REFERENCE_EVAL["macro_f1"], abs=5e-7)
        assert report.accuracy == pytest.approx(REFERENCE_EVAL["accuracy"], abs=5e-7)
        assert report.weighted_recall == pytest.approx(report.accuracy, abs=1e-12)


class TestFormatting:
    def _report(self):
        counts = np.array([[8, 1, 0, 0], [1, 5, 0, 0], [0, 0, 6, 1], [0, 0, 1, 3]])
        return scores(ConfusionMatrix(counts))

    def test_table_layout(self):
        text = format_report(self._report())
        assert "Precision" in text and "Macro avg" in text and "Accuracy" in text
        for cls in CLASSES:
            assert cls in text
