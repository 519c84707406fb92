"""Load exported ECG recordings, window labeled beats, split train/test.

Input files are plain-text CSV exports of PhysioNet records:

    signal file      one `index,voltage` line per sample
    annotation file  one `index,symbol` line per annotated beat

Lines starting with `#` are comments; LF and CRLF both accepted.
`load_annotations` returns an `(n, 2)` int64 array, one row per line:
the sample index, then the symbol's class code (`labels.SYMBOL_CODE`,
-1 outside the four classes). Beats are 61-sample windows of the
preprocessed signal centered on the annotated R-peak index
([index-30, index+30] inclusive), labeled with that code.
"""

from __future__ import annotations

import tokenize
import warnings
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import FilterSpec, preprocess
from .labels import CLASSES, SYMBOL_CODE

SAMPLING_RATE_HZ = 360.0  # MIT-BIH, the deployed rate
WINDOW_HALF = 30
WINDOW_LEN = 2 * WINDOW_HALF + 1
_MAX_INDEX = np.iinfo(np.int64).max
# What np.load raises on a damaged archive, seen by flipping each byte of
# a saved beats file in turn.
_ARCHIVE_ERRORS = (EOFError, NotImplementedError, OSError, RuntimeError, ValueError,
                   tokenize.TokenError, zipfile.BadZipFile, zlib.error)


class ParseError(ValueError):
    """Malformed input file; message carries path and line number."""


@dataclass
class BeatSet:
    """Labeled beat windows stored as parallel arrays.

    `labels` holds integer codes into `tinyecg.labels.CLASSES`.
    `skipped` counts coded annotations whose window fell outside the
    recording. Construction checks every array: finite `(n, 61)`
    windows of a real float or integer dtype, a 1-D integer array of one
    code in 0-3 per window, and a non-negative integer `skipped`.
    """

    windows: np.ndarray  # (n, 61) float64
    labels: np.ndarray  # (n,) int64
    skipped: int = 0

    def __post_init__(self):
        windows, labels, skipped = map(np.asarray, (self.windows, self.labels, self.skipped))
        if windows.dtype.kind not in "fiu":
            raise ValueError(f"beat windows must be real numbers, got {windows.dtype}")
        self.windows = windows.astype(np.float64, copy=False)
        if labels.ndim != 1 or labels.dtype.kind not in "iu":
            raise ValueError(f"labels must be a 1-D integer array, "
                             f"got {labels.dtype} {labels.shape}")
        if skipped.shape != () or skipped.dtype.kind not in "iu" or skipped < 0:
            raise ValueError(f"skipped must be a non-negative integer, got {self.skipped!r}")
        self.labels, self.skipped = labels.astype(np.int64, copy=False), int(skipped)
        if self.windows.ndim != 2 or self.windows.shape[1] != WINDOW_LEN:
            raise ValueError(f"beat windows must be (n, {WINDOW_LEN}), "
                             f"got {self.windows.shape}")
        if self.windows.shape[0] != self.labels.shape[0]:
            raise ValueError("windows and labels disagree in length")
        if not np.isfinite(self.windows).all():
            raise ValueError("beat windows hold non-finite values")
        if ((self.labels < 0) | (self.labels >= len(CLASSES))).any():
            raise ValueError(f"label codes outside 0-{len(CLASSES) - 1}")

    def __len__(self) -> int:
        return self.labels.size

    @property
    def counts(self) -> dict[str, int]:
        return {c: int(np.sum(self.labels == i)) for i, c in enumerate(CLASSES)}

    def save(self, path) -> None:
        # Stored, not deflated: zlib shrinks float64 windows by only about 6%,
        # and inflating them made each load several times slower.
        np.savez(path, windows=self.windows, labels=self.labels, skipped=self.skipped)

    @classmethod
    def load(cls, path) -> "BeatSet":
        """Read a `save`d file; ParseError names the path of an unreadable
        archive, a missing array, or arrays the constructor rejects."""
        try:
            with np.load(path) as data:
                windows, labels, skipped = data["windows"], data["labels"], data["skipped"]
        except FileNotFoundError:
            raise
        except KeyError as exc:
            raise ParseError(f"{path}: {exc.args[0]}") from None
        except _ARCHIVE_ERRORS as exc:
            raise ParseError(f"{path}: unreadable beats file: {exc!r}") from None
        try:
            return cls(windows, labels, skipped)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from None


def _rows(path) -> list[tuple[int, str, str]]:
    """Return (line_number, first_field, second_field) per line, skipping blanks/comments."""
    path = Path(path)
    out = []
    with open(path, "r", encoding="utf-8", newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected `a,b`, got {line!r}")
            out.append((lineno, parts[0].strip(), parts[1].strip()))
    return out


def load_signal(path) -> np.ndarray:
    """Parse an `index,value` export into float64 samples.

    Indices must count up by one from 0: a gap would shift every later
    annotation off its sample. Values must be finite.
    """
    rows = _rows(path)
    if not rows:
        raise ParseError(f"{Path(path)}: no samples found")
    values = np.empty(len(rows))
    prev = -1
    for pos, (lineno, a, b) in enumerate(rows):
        try:
            idx = int(a)
            values[pos] = float(b)
        except ValueError as exc:
            raise ParseError(f"{Path(path)}:{lineno}: {exc}") from None
        if idx != prev + 1:
            problem = "not increasing" if idx <= prev else "leaves a gap"
            raise ParseError(
                f"{Path(path)}:{lineno}: sample index {idx} {problem} (prev {prev})"
            )
        prev = idx
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        lineno, _, b = rows[bad[0]]
        raise ParseError(f"{Path(path)}:{lineno}: non-finite sample value {b!r}")
    return values


def load_annotations(path) -> np.ndarray:
    """Parse an `index,symbol` export into an `(n, 2)` int64 array.

    Each row holds the sample index, then the symbol's class code; a
    symbol outside the four classes codes as -1, which `extract_beats`
    drops.
    """
    rows = _rows(path)
    out = np.empty((len(rows), 2), dtype=np.int64)
    for pos, (lineno, a, b) in enumerate(rows):
        try:
            idx = int(a)
        except ValueError as exc:
            raise ParseError(f"{Path(path)}:{lineno}: {exc}") from None
        if not 0 <= idx <= _MAX_INDEX:
            raise ParseError(f"{Path(path)}:{lineno}: sample index {idx} out of range")
        if not b:
            raise ParseError(f"{Path(path)}:{lineno}: empty annotation symbol")
        out[pos] = idx, SYMBOL_CODE.get(b, -1)
    return out


def extract_beats(samples: np.ndarray, spec: FilterSpec,
                  annotations: np.ndarray) -> BeatSet:
    """Preprocess the whole recording once, at its own rate, then window
    each coded beat of a `load_annotations` array.

    Annotations coded -1 are dropped silently; coded ones whose
    61-sample window is not fully inside the recording are counted in
    `BeatSet.skipped`.
    """
    stream = preprocess(samples, spec)
    index, code = annotations[annotations[:, 1] >= 0].T
    inside = (index >= WINDOW_HALF) & (index < stream.size - WINDOW_HALF)
    rows = index[inside, None] + np.arange(-WINDOW_HALF, WINDOW_HALF + 1)
    return BeatSet(stream[rows], code[inside], index.size - rows.shape[0])


def merge(beat_sets: list[BeatSet]) -> BeatSet:
    """Concatenate per-record beat sets (records are preprocessed independently)."""
    if not beat_sets:
        return BeatSet(np.empty((0, WINDOW_LEN)), np.empty(0, np.int64))
    return BeatSet(
        np.concatenate([b.windows for b in beat_sets]),
        np.concatenate([b.labels for b in beat_sets]),
        sum(b.skipped for b in beat_sets),
    )


def split(beats: BeatSet, train_fraction: float, seed: int = 0) -> tuple[BeatSet, BeatSet]:
    """Stratified random split, deterministic per seed.

    Per class, round(n * train_fraction) beats go to train (clamped so
    both sides stay non-empty when the class has at least two members);
    classes with fewer than two members go entirely to train.
    """
    if not 0 < train_fraction < 1:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for code, cls in enumerate(CLASSES):
        members = np.flatnonzero(beats.labels == code)
        n = members.size
        if n == 0:
            continue
        if n < 2:
            warnings.warn(f"class {cls} has {n} beat(s); placing all in train")
            train_idx.append(members)
            continue
        n_train = int(np.floor(n * train_fraction + 0.5))
        n_train = min(max(n_train, 1), n - 1)
        perm = rng.permutation(n)
        train_idx.append(members[perm[:n_train]])
        test_idx.append(members[perm[n_train:]])

    def take(groups) -> BeatSet:
        idx = np.sort(np.concatenate([np.empty(0, np.intp), *groups]))
        return BeatSet(beats.windows[idx], beats.labels[idx])

    return take(train_idx), take(test_idx)


def summarize(beats: BeatSet) -> str:
    """Per-class count table in the train-test layout used by reports."""
    counts = beats.counts
    header = "  ".join(f"{c:>6}" for c in CLASSES) + f"  {'Total':>7}"
    row = "  ".join(f"{counts[c]:>6}" for c in CLASSES) + f"  {len(beats):>7}"
    lines = [header, row]
    if beats.skipped:
        lines.append(f"(skipped {beats.skipped} out-of-bounds annotation(s))")
    return "\n".join(lines)
