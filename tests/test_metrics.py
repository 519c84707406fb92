import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tinyecg.labels import CLASSES, LABEL_INDEX
from tinyecg.metrics import confusion, format_report, scores

count_matrices = arrays(
    np.int64, (4, 4), elements=st.integers(0, 500)
).filter(lambda m: m.sum() > 0)


def codes(classes: str) -> np.ndarray:
    return np.array([LABEL_INDEX[c] for c in classes], dtype=np.int64)


class TestConfusion:
    def test_diagonal_for_perfect_predictions(self):
        truth = codes("NSVFNV")
        cm = confusion(truth, truth)
        assert cm.shape == (4, 4) and cm.dtype == np.int64
        assert np.trace(cm) == 6
        assert cm.sum() == 6

    def test_single_off_diagonal(self):
        cm = confusion(codes("N"), codes("S"))
        expected = np.zeros((4, 4), dtype=np.int64)
        expected[0, 1] = 1
        np.testing.assert_array_equal(cm, expected)

    def test_hand_tallied_fixture(self):
        truth = codes("NNNSSVVVFNSF")
        pred  = codes("NVNSNVVFFNSN")
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
        np.testing.assert_array_equal(cm, expected)

    def test_integer_codes_accepted(self):
        cm = confusion([0, 1, 2, 3], np.array([0, 1, 2, 3], dtype=np.uint8))
        assert np.trace(cm) == 4

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            confusion(codes("NS"), codes("N"))

    @pytest.mark.parametrize("bad, match", [
        (["N", "S"], "must be integers"),
        ([0.0, 1.0], "must be integers"),
        ([True, False], "must be integers"),
        ([0, 4], "out of range"),
        ([-1, 0], "out of range"),
    ], ids=["strings", "floats", "bools", "above", "below"])
    def test_non_integer_or_out_of_range_codes_rejected(self, bad, match):
        with pytest.raises(ValueError, match=match):
            confusion(bad, [0, 0])
        with pytest.raises(ValueError, match=match):
            confusion([0, 0], bad)

    def test_empty_inputs_give_zeros(self):
        empty = np.empty(0, np.int64)
        cm = confusion(empty, empty)
        np.testing.assert_array_equal(cm, np.zeros((4, 4), np.int64))
        assert cm.dtype == np.int64
        with pytest.raises(ValueError, match="empty confusion matrix"):
            scores(cm)


class TestScores:
    def test_perfect_diagonal(self):
        report = scores(np.diag([5, 6, 7, 8]))
        assert report.precision == pytest.approx([1.0] * 4)
        assert report.recall == pytest.approx([1.0] * 4)
        assert report.f1 == pytest.approx([1.0] * 4)
        assert report.accuracy == 1.0
        assert not report.flags

    def test_never_predicted_class_flagged(self):
        counts = np.array([[4, 0, 0, 0], [2, 0, 0, 0], [0, 0, 3, 0], [0, 0, 0, 2]])
        report = scores(counts)
        assert report.precision[1] == 0.0  # S never predicted: 0/0 -> 0
        assert report.recall[1] == 0.0
        assert any("precision(S)" in f for f in report.flags)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            scores(np.zeros((4, 4), dtype=np.int64))

    @given(count_matrices)
    @settings(max_examples=200)
    def test_accuracy_equals_weighted_recall(self, counts):
        report = scores(counts)
        assert abs(report.accuracy - report.weighted_recall) < 1e-12

    @given(count_matrices)
    @settings(max_examples=100)
    def test_macro_f1_bounded_by_per_class(self, counts):
        report = scores(counts)
        assert report.f1.min() - 1e-12 <= report.macro_f1 <= report.f1.max() + 1e-12

    @given(count_matrices, st.integers(2, 7))
    @settings(max_examples=100)
    def test_invariant_under_duplication(self, counts, k):
        a = scores(counts)
        b = scores(counts * k)
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
        report = scores(cm)
        np.testing.assert_allclose(report.precision, REFERENCE_EVAL["precision"], atol=5e-7)
        np.testing.assert_allclose(report.recall, REFERENCE_EVAL["recall"], atol=5e-7)
        np.testing.assert_allclose(report.f1, REFERENCE_EVAL["f1"], atol=5e-7)
        assert report.macro_f1 == pytest.approx(REFERENCE_EVAL["macro_f1"], abs=5e-7)
        assert report.accuracy == pytest.approx(REFERENCE_EVAL["accuracy"], abs=5e-7)
        assert report.weighted_recall == pytest.approx(report.accuracy, abs=1e-12)


class TestFormatting:
    def _report(self):
        counts = np.array([[8, 1, 0, 0], [1, 5, 0, 0], [0, 0, 6, 1], [0, 0, 1, 3]])
        return scores(counts)

    def test_table_layout(self):
        text = format_report(self._report())
        assert "Precision" in text and "Macro avg" in text and "Accuracy" in text
        for cls in CLASSES:
            assert cls in text
