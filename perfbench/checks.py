"""Correctness checks the benchmark applies to the program's outputs.

Each check returns which operations failed; the caller counts every
failure as a failed operation. None of them is skipped in a run.
"""

from __future__ import annotations

import json
import math

import numpy as np

from tinyecg import metrics, nn, quant
from tinyecg.ingest import WINDOW_HALF, BeatSet

BOOKED_FLOPS = 1314
BOOKED_SRAM_BYTES = 1267
SRAM_BUDGET_BYTES = 2048
WINDOW_TOLERANCE = 1e-9
# A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def oracle_model(float_model):
    """The dequantized model every quantized output is compared with."""
    return quant.dequantize_model(quant.quantize_model(float_model))


def eval_report_matches(report: dict, oracle, beats: BeatSet) -> bool:
    """A temporary-dequantized eval report equals the default eval of `oracle`."""
    predicted = nn.predict_labels(oracle, beats.windows)
    expected = metrics.report_to_dict(
        metrics.scores(metrics.confusion(beats.labels, predicted))
    )
    return json.loads(json.dumps(expected)) == report


def cost_matches(qmodel) -> bool:
    """The cost reports give the paper's 1314 FLOPs and 1267 of 2048 bytes."""
    flops = quant.flops_report(qmodel.shapes)
    memory = quant.memory_report(qmodel)
    return (
        flops.total == BOOKED_FLOPS
        and memory.total_bytes == BOOKED_SRAM_BYTES
        and memory.budget_bytes == SRAM_BUDGET_BYTES
        and not memory.over_budget
    )


def window_mismatches(r_indices, windows, reference) -> np.ndarray:
    """Per beat: does its streamed window differ from the batch chain's?

    `reference` is `dsp.preprocess` of the whole recording; the streamed
    window for a beat at r must equal reference[r - 30 : r + 31].
    """
    r = np.asarray(r_indices, dtype=np.int64)
    offsets = np.arange(-WINDOW_HALF, WINDOW_HALF + 1)
    windows = np.asarray(windows, dtype=np.float64)
    if windows.shape != (len(r), offsets.size):
        return np.ones(len(r), dtype=bool)
    idx = r[:, None] + offsets[None, :]
    inside = (idx >= 0).all(axis=1) & (idx < len(reference)).all(axis=1)
    expected = np.asarray(reference)[np.clip(idx, 0, len(reference) - 1)]
    close = (np.abs(windows - expected) <= WINDOW_TOLERANCE).all(axis=1)
    return ~(inside & close)


def label_mismatches(labels, windows, oracle) -> np.ndarray:
    """Per beat: does its streamed label differ from the oracle's label?"""
    if len(labels) == 0:
        return np.zeros(0, dtype=bool)
    return nn.predict_labels(oracle, windows) != np.asarray(labels)


def tail_percentile(samples, pct: float):
    """(value, samples beyond it) at percentile `pct`, or None.

    A percentile is reported only when at least `MIN_BEYOND` samples lie
    above its rank, so the tail it describes rests on real samples.
    """
    n = len(samples)
    beyond = n - math.ceil(n * pct / 100.0)
    if n == 0 or beyond < MIN_BEYOND:
        return None
    return float(np.percentile(samples, pct)), beyond
