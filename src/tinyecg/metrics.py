"""Confusion matrix and per-class precision / recall / F1 reporting.

`confusion` tallies integer class codes (`tinyecg.labels.CLASSES` order)
into a plain `(4, 4)` int64 count array, which `scores` reads.

Zero-denominator scores (a class never predicted, or absent from the
truth) are defined as 0 and flagged in the report rather than raised,
since rare classes legitimately occur in the evaluation sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .labels import CLASSES


def confusion(truth, predicted) -> np.ndarray:
    """Tally (truth, predicted) pairs of integer class codes into `(4, 4)`
    int64 counts: rows are ground truth, columns are predictions, both in
    N,S,V,F order."""
    t, p = np.asarray(truth), np.asarray(predicted)
    if t.shape != p.shape:
        raise ValueError(f"length mismatch: {t.shape} vs {p.shape}")
    if t.dtype.kind not in "iu" or p.dtype.kind not in "iu":
        raise ValueError(f"class codes must be integers, got {t.dtype} and {p.dtype}")
    n = len(CLASSES)
    if ((t < 0) | (t >= n) | (p < 0) | (p >= n)).any():
        raise ValueError("class codes out of range")
    return np.bincount((t * n + p).astype(np.int64, copy=False), minlength=n * n).reshape(n, n)


@dataclass(frozen=True)
class EvalReport:
    precision: np.ndarray  # per class
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    accuracy: float
    flags: tuple[str, ...] = field(default_factory=tuple)


def scores(counts: np.ndarray) -> EvalReport:
    """Precision TP/(TP+FP), recall TP/(TP+FN), F1 = harmonic mean, from
    `confusion`'s counts.

    Macro averages weight classes equally; weighted averages use the
    truth support. For single-label evaluation the weighted recall is
    identical to accuracy.
    """
    total = int(counts.sum())
    if total == 0:
        raise ValueError("empty confusion matrix")
    tp = np.diag(counts).astype(np.float64)
    pred_totals = counts.sum(axis=0).astype(np.float64)
    support = counts.sum(axis=1).astype(np.float64)

    precision = np.divide(tp, pred_totals, out=np.zeros_like(tp), where=pred_totals > 0)
    recall = np.divide(tp, support, out=np.zeros_like(tp), where=support > 0)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros_like(pr), where=pr > 0)
    flags = [f"{what}({cls}) undefined (0/0), reported as 0"
             for what, den in (("precision", pred_totals), ("recall", support))
             for cls, d in zip(CLASSES, den) if d == 0]

    weights = support / total
    return EvalReport(
        precision=precision,
        recall=recall,
        f1=f1,
        support=support.astype(np.int64),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        weighted_precision=float(weights @ precision),
        weighted_recall=float(weights @ recall),
        weighted_f1=float(weights @ f1),
        accuracy=float(tp.sum() / total),
        flags=tuple(flags),
    )


def format_report(report: EvalReport) -> str:
    """Fixed-width table: one column per class plus the two averages."""
    cols = list(CLASSES) + ["Weighted avg", "Macro avg"]
    widths = [max(10, len(c) + 2) for c in cols]
    head = f"{'':<11}" + "".join(f"{c:>{w}}" for c, w in zip(cols, widths))
    rows = []
    for name, per_class, w_avg, m_avg in (
        ("Precision", report.precision, report.weighted_precision, report.macro_precision),
        ("Recall", report.recall, report.weighted_recall, report.macro_recall),
        ("F1-score", report.f1, report.weighted_f1, report.macro_f1),
    ):
        cells = list(per_class) + [w_avg, m_avg]
        rows.append(
            f"{name:<11}" + "".join(f"{v:>{w}.6f}" for v, w in zip(cells, widths))
        )
    support_cells = [int(s) for s in report.support] + [int(report.support.sum())]
    rows.append(
        f"{'Support':<11}"
        + "".join(f"{v:>{w}}" for v, w in zip(support_cells, widths))
    )
    rows.append(f"{'Accuracy':<11}{report.accuracy:>10.6f}")
    out = [head, *rows]
    if report.flags:
        out.append("notes: " + "; ".join(report.flags))
    return "\n".join(out)


def report_to_dict(report: EvalReport) -> dict:
    return {
        "per_class": {
            cls: {
                "precision": float(report.precision[i]),
                "recall": float(report.recall[i]),
                "f1": float(report.f1[i]),
                "support": int(report.support[i]),
            }
            for i, cls in enumerate(CLASSES)
        },
        "macro": {
            "precision": report.macro_precision,
            "recall": report.macro_recall,
            "f1": report.macro_f1,
        },
        "weighted": {
            "precision": report.weighted_precision,
            "recall": report.weighted_recall,
            "f1": report.weighted_f1,
        },
        "accuracy": report.accuracy,
        "flags": list(report.flags),
    }
