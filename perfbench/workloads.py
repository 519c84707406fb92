"""Workload definitions, seeded input generation and the two timed loops.

Every workload runs the same offline job (ingest -> train -> quantize ->
eval in three modes, through in-process `tinyecg.cli.main`) and replays
recordings sample by sample through the live detector and classifier.
Workloads differ in the recordings they replay and in the share of the
run spent on each part, so each stresses different layers.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tinyecg import cli, dsp, qrs, quant, synthetic
from tinyecg.labels import LABEL_INDEX

FS_HZ = 360.0
SNR_DB = 25.0

# The offline job. Its recording is mostly N with S/V/F mixed in, long
# enough that the training split fills a 1024-beat batch.
BUILD_BEATS = 1600
BUILD_BPM = 120.0
BUILD_MIX = {"S": 0.10, "V": 0.10, "F": 0.05}
VARIANT = "relu-softmax"
TRAIN_STEPS = 400
LEARNING_RATE = 0.03
BATCH_SIZE = 1024
TRAIN_FRACTION = 0.67
CLI_SEED = 0
EVAL_MODES = ("default", "temporary-dequantized", "quantized")
BUILD_OUTPUTS = ("beats.npz", "model.tnm", "model.tnq", "model.tnm.json")


@dataclass(frozen=True)
class Workload:
    name: str
    stream_bpm: float
    stream_mix: dict  # share per class; N takes the rest
    segment_beats: int
    segments: int  # independent recordings, each replayed by a fresh detector
    build_share: float  # share of the measured seconds spent on the offline job


# A V beat among a recording's first two beats, while the detector learns
# its thresholds, stops it finding N beats for the whole recording. So the
# stream workloads replay many recordings, and at every beat position each
# class takes exactly its share of them (`segment_labels`): every seed then
# opens the same number of recordings with a V beat, and pooled quality
# shows this defect at its expected rate instead of by luck of the draw.
WORKLOADS = {
    w.name: w
    for w in (
        # Offline-job heavy: CSV parse, batch dsp, training and batched eval.
        # Its replays are all N, so their quality reflects only the warm-up.
        Workload("build", 70.0, {}, 150, 4, 0.75),
        # Per-sample detection dominates; about one beat per 300 samples.
        Workload("stream-sinus", 70.0, {"V": 0.05}, 150, 40, 0.3),
        # Twice the beats per sample, mostly ectopic: the per-beat kernel,
        # emit_window and the small-S-beat detection path carry more weight.
        Workload("stream-ectopic", 150.0, {"S": 0.30, "V": 0.10, "F": 0.20}, 300, 40, 0.3),
    )
}


def beat_labels(n: int, mix: dict, rng: np.random.Generator) -> list[str]:
    """Exactly round(n * share) beats per class in `mix`, N for the rest, shuffled."""
    counts = {c: int(round(n * share)) for c, share in mix.items()}
    labels = ["N"] * (n - sum(counts.values()))
    for c, k in counts.items():
        labels += [c] * k
    return [labels[i] for i in rng.permutation(n)]


def segment_labels(workload: Workload, rng: np.random.Generator) -> list[list[str]]:
    """Labels of each replayed recording. At every beat position, the
    recordings' labels there are `beat_labels` over the recordings, so each
    class takes exactly its share of them (shares times `segments` are whole).
    """
    columns = [beat_labels(workload.segments, workload.stream_mix, rng)
               for _ in range(workload.segment_beats)]
    return [list(row) for row in zip(*columns)]


@dataclass
class Segment:
    """One recording replayed from memory, with its ground truth."""

    samples: np.ndarray
    truth_index: np.ndarray  # true R indices
    truth_label: np.ndarray  # their class codes
    reference: np.ndarray  # dsp.preprocess of the whole recording


@dataclass
class Inputs:
    """Everything the program receives, generated before any timing."""

    signal_csv: Path
    annotation_csv: Path
    build_samples: int
    segments: list


def _recording(labels, bpm: float, rng: np.random.Generator):
    return synthetic.labeled_recording(
        labels, bpm=bpm, fs=FS_HZ, snr_db=SNR_DB, seed=int(rng.integers(2**31))
    )


def make_inputs(workload: Workload, seed: int, work: Path) -> Inputs:
    rng = np.random.default_rng([seed, 0])
    signal, truth = _recording(beat_labels(BUILD_BEATS, BUILD_MIX, rng), BUILD_BPM, rng)
    signal_csv, annotation_csv = work / "signal.csv", work / "annotations.csv"
    synthetic.write_signal_csv(signal_csv, signal)
    synthetic.write_annotation_csv(annotation_csv, truth)

    segments = []
    for k, labels in enumerate(segment_labels(workload, np.random.default_rng([seed, 1]))):
        samples, truth = _recording(labels, workload.stream_bpm,
                                    np.random.default_rng([seed, 2, k]))
        segments.append(Segment(
            samples=samples,
            truth_index=np.array([i for i, _ in truth], dtype=np.int64),
            truth_label=np.array([LABEL_INDEX[c] for _, c in truth], dtype=np.int64),
            reference=dsp.preprocess(samples, dsp.FilterSpec(FS_HZ)),
        ))
    return Inputs(signal_csv, annotation_csv, signal.size, segments)


def build_calls(inputs: Inputs, work: Path) -> list[tuple[str, list[str]]]:
    """The offline job as (operation kind, CLI argv) pairs, in order."""
    beats, model, qmodel = (str(work / n) for n in BUILD_OUTPUTS[:3])
    split = ["--split", "test", "--train-fraction", str(TRAIN_FRACTION),
             "--seed", str(CLI_SEED), "--json"]
    calls = [
        ("ingest", ["ingest", "--signal", str(inputs.signal_csv),
                    "--annotations", str(inputs.annotation_csv), "--out", beats,
                    "--sampling-rate", str(FS_HZ)]),
        ("train", ["train", "--beats", beats, "--variant", VARIANT,
                   "--epochs", str(TRAIN_STEPS), "--learning-rate", str(LEARNING_RATE),
                   "--batch-size", str(BATCH_SIZE), "--train-fraction", str(TRAIN_FRACTION),
                   "--seed", str(CLI_SEED), "--out", model]),
        ("quantize", ["quantize", "--model", model, "--out", qmodel, "--json"]),
    ]
    for mode in EVAL_MODES:
        path = model if mode == "default" else qmodel
        calls.append((f"eval.{mode}", ["eval", "--model", path, "--beats", beats,
                                       "--inference-mode", mode, *split]))
    return calls


# The speed reference: a fixed piece of interpreter and BLAS work that shares
# no code with tinyecg, so an optimisation of the program cannot change it.
_REFERENCE_SIGNAL = [math.sin(0.37 * i) for i in range(1500)]
_REFERENCE_X = np.random.default_rng(0).normal(size=(128, 61))
_REFERENCE_W = np.random.default_rng(1).normal(size=(61, 10))


def reference_seconds() -> float:
    """Best of three timings of the speed reference (about 1 ms each)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        z0 = z1 = 0.0
        window = deque(maxlen=15)
        for x in _REFERENCE_SIGNAL:
            y = 0.2 * x + z0
            z0 = 0.1 * x + z1 - 0.5 * y
            z1 = -0.3 * x + 0.2 * y
            window.append(y * y)
            sum(window)
        for _ in range(20):
            (_REFERENCE_X @ _REFERENCE_W).sum()
        best = min(best, time.perf_counter() - start)
    return best


RAISED = -1  # the exit code recorded for a call that raised


@dataclass
class CliResult:
    kind: str
    exit_code: int
    seconds: float
    reference_s: float  # the speed reference around the call
    stdout: str


def run_build_job(calls, tracer=None) -> list[CliResult]:
    """One pass of the offline job; each CLI call is one operation."""
    results = []
    before = reference_seconds()
    for kind, argv in calls:
        if tracer is not None:
            tracer.begin_op(f"cli.{kind}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                exit_code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                exit_code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error fails the call, not the run
                exit_code = RAISED
            seconds = time.perf_counter() - start
        after = reference_seconds()
        results.append(CliResult(kind, exit_code, seconds, (before + after) / 2, out.getvalue()))
        before = after
    return results


@dataclass
class Replay:
    seconds: float
    r_indices: list[int]
    windows: list[np.ndarray]
    labels: list[int]
    latencies_ns: list[int]
    lost: int


def replay(samples: np.ndarray, qmodel) -> Replay:
    """Stream `samples` through detection and classification as `cmd_stream` does.

    A beat's latency runs from the start of the push that completes its
    61-sample window to its label.
    """
    clock = time.perf_counter_ns
    emit_window = qrs.emit_window
    forward = quant.forward_temporary_dequantized
    WindowLostError = qrs.WindowLostError
    r_indices, windows, labels, latencies = [], [], [], []
    lost = 0
    detector = qrs.RPeakDetector(dsp.FilterSpec(FS_HZ))
    start = clock()
    pending: list[int] = []
    for raw in samples:
        pushed = clock()
        r = detector.push_sample(raw)
        if r is not None:
            pending.append(r)
        still_waiting = []
        for r_index in pending:
            try:
                window = emit_window(detector.buffer, r_index)
            except WindowLostError:
                lost += 1
                continue
            if window is None:
                still_waiting.append(r_index)
                continue
            label = int(np.argmax(forward(qmodel, window)))
            latencies.append(clock() - pushed)
            r_indices.append(r_index)
            windows.append(window)
            labels.append(label)
        pending = still_waiting
    seconds = (clock() - start) / 1e9
    return Replay(seconds, r_indices, windows, labels, latencies, lost)


def match_truth(r_indices, truth_index, tolerance: int) -> np.ndarray:
    """For each detection, the index of the true beat it matches, or -1.

    A detection matches the nearest true R within `tolerance` samples that
    no earlier detection has taken.
    """
    truth_index = np.asarray(truth_index)
    out = np.full(len(r_indices), -1, dtype=np.int64)
    taken = set()
    for k, r in enumerate(r_indices):
        j = int(np.searchsorted(truth_index, r))
        best = None
        for cand in (j - 1, j):
            if 0 <= cand < truth_index.size and cand not in taken:
                dist = abs(int(truth_index[cand]) - r)
                if dist <= tolerance and (best is None or dist < best[0]):
                    best = (dist, cand)
        if best is not None:
            out[k] = best[1]
            taken.add(best[1])
    return out
