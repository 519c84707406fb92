"""Synthetic signals and beat sets for tests, demos and acceptance checks.

Pulse trains use a raised-cosine bump as a stand-in QRS complex; the
bump's center sample is the ground-truth R index. SNR here is the ratio
of clean-signal power to additive white Gaussian noise power.
"""

from __future__ import annotations

import numpy as np

from .ingest import SAMPLING_RATE_HZ, WINDOW_LEN, BeatSet
from .labels import CLASSES


def qrs_pulse(width: int = 11, amplitude: float = 1.0) -> np.ndarray:
    """Raised-cosine bump, zero at both ends, peak at the center sample."""
    if width < 3 or width % 2 == 0:
        raise ValueError(f"width must be odd and >= 3, got {width}")
    n = np.arange(width)
    return amplitude * 0.5 * (1.0 - np.cos(2.0 * np.pi * (n + 1) / (width + 1)))


# Distinct morphology per class: (width, amplitude). V beats are wide and
# tall, S narrow and small, F in between; energies separate cleanly after
# squaring and integration.
BEAT_SHAPES = {
    "N": (11, 1.0),
    "S": (7, 0.6),
    "V": (25, 2.5),
    "F": (17, 1.6),
}


def labeled_recording(
    labels: list[str],
    bpm: float = 75.0,
    fs: float = SAMPLING_RATE_HZ,
    snr_db: float | None = None,
    seed: int = 0,
    start_s: float = 0.5,
) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """Beat sequence with per-class pulse shapes; returns (signal, [(index, label)])."""
    period = int(round(60.0 / bpm * fs))
    total = int(start_s * fs) + len(labels) * period + int(fs)
    sig = np.zeros(total)
    truth = []
    for k, label in enumerate(labels):
        width, amplitude = BEAT_SHAPES[label]
        center = int(start_s * fs) + k * period
        p = qrs_pulse(width, amplitude)
        sig[center - width // 2 : center - width // 2 + width] += p
        truth.append((center, label))
    if snr_db is not None:
        rng = np.random.default_rng(seed)
        signal_power = float(np.mean(sig**2))
        sig = sig + rng.normal(0.0, np.sqrt(signal_power / 10.0 ** (snr_db / 10.0)), total)
    return sig, truth


def pulse_train(
    n_beats: int,
    bpm: float = 75.0,
    fs: float = SAMPLING_RATE_HZ,
    snr_db: float | None = None,
    seed: int = 0,
    start_s: float = 0.5,
) -> tuple[np.ndarray, list[int]]:
    """Evenly spaced normal (N) beats; returns (signal, true R indices).

    Beats start inside the detector's two-second warmup window so its
    level initialization sees real beats, as on a continuous recording.
    """
    sig, truth = labeled_recording(["N"] * n_beats, bpm, fs, snr_db, seed, start_s)
    return sig, [index for index, _ in truth]


def separable_beatset(per_class: int = 500, seed: int = 0, noise: float = 0.05) -> BeatSet:
    """Four trivially separable window families, one bump location per class.

    Windows are non-negative like real preprocessed beats; a linear
    readout over the bump positions suffices to classify them.
    """
    rng = np.random.default_rng(seed)
    windows, labels = [], []
    for code in range(len(CLASSES)):
        start = 5 + code * 14
        for _ in range(per_class):
            w = rng.uniform(0.0, noise, WINDOW_LEN)
            w[start : start + 8] += 1.0 + rng.uniform(-0.1, 0.1)
            windows.append(w)
            labels.append(code)
    order = rng.permutation(len(labels))
    return BeatSet(np.stack(windows)[order], np.array(labels, dtype=np.int64)[order])


def write_signal_csv(path, samples) -> None:
    with open(path, "w", newline="\n") as fh:
        for i, v in enumerate(np.asarray(samples, dtype=np.float64)):
            fh.write(f"{i},{float(v)!r}\n")


def write_annotation_csv(path, indexed_labels) -> None:
    """`indexed_labels` is a sequence of (sample_index, symbol) pairs."""
    with open(path, "w", newline="\n") as fh:
        for idx, sym in indexed_labels:
            fh.write(f"{idx},{sym}\n")
