"""Load exported ECG recordings, window labeled beats, split train/test.

Input files are plain-text CSV exports of PhysioNet records:

    signal file      one `index,voltage` line per sample
    annotation file  one `index,symbol` line per annotated beat

Lines starting with `#` are comments; lines end at LF, CRLF or CR. A
clean signal export (`index,value` or empty lines only, indices 0, 1,
2, ... as plain integers, finite values) is parsed in one `np.loadtxt`
pass; any other file, and every annotation file, goes through a line
loop that judges each line in full before it reads the next, so a
ParseError names the first bad line in file order.
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
from math import isfinite
from pathlib import Path

import numpy as np

from .dsp import FilterSpec, preprocess
from .labels import CLASSES, SYMBOL_CODE

SAMPLING_RATE_HZ = 360.0  # MIT-BIH, the deployed rate
WINDOW_HALF = 30
WINDOW_LEN = 2 * WINDOW_HALF + 1
_MAX_INDEX = np.iinfo(np.int64).max
# Suffixes numpy's `_datasource` decompresses
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
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


def _rows(path):
    """Yield (line_number, first_field, second_field) per line, skipping
    blanks and comments. Lines end at LF, CRLF or CR, as in text mode; each
    is decoded with its end, so a byte that is not UTF-8 gets the reason a
    decode of the whole file gives."""
    path = Path(path)
    for lineno, raw in enumerate(path.read_bytes().splitlines(keepends=True), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: not UTF-8 text "
                             f"(byte 0x{raw[exc.start]:02x}: {exc.reason})") from None
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected `a,b`, got {line!r}")
        yield lineno, parts[0].strip(), parts[1].strip()


def _clean_signal(path) -> np.ndarray | None:
    """The samples of a clean export in one `np.loadtxt` pass, else None.

    `comments=None` and the int64 index column reject whitespace-only
    lines and indices such as `1.0`, `1e0` or `1_0`; a warning (an empty
    file, or an older numpy reading `1.0` into an int column) counts as a
    rejection too. A `#` byte, which no line can pass, rejects the file
    before the parse, so a trailing `# end` costs no `loadtxt` pass.
    `loadtxt` gets the file's absolute path, not an open file: it reads a
    path in bulk but iterates a file line by line, which took 20-25%
    longer on a 288,540-line export. Given a path, though, numpy opens it
    through its `_datasource`, which would fetch a relative name such as
    `http://host/x` as a URL (an absolute path cannot parse as one) and
    decompress a name ending in one of `_COMPRESSED`; such names go to the
    line loop, which reads every file as plain text.
    """
    path = Path(path).absolute()
    if path.name.lower().endswith(_COMPRESSED):
        return None
    with open(path, "rb") as fh:
        if any(b"#" in chunk for chunk in iter(lambda: fh.read(1 << 18), b"")):
            return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(path, delimiter=",", comments=None, ndmin=1, encoding="utf-8",
                               dtype=[("index", np.int64), ("value", np.float64)])
        except (ValueError, Warning):
            return None
    if (table.size and np.array_equal(table["index"], np.arange(table.size))
            and np.isfinite(table["value"]).all()):
        return np.ascontiguousarray(table["value"])
    return None


def load_signal(path) -> np.ndarray:
    """Parse an `index,value` export into float64 samples.

    Indices must count up by one from 0: a gap would shift every later
    annotation off its sample. Values must be finite. A clean export
    takes the one-pass parse, which numpy reads in bulk from the path;
    anything else, a comment or a whitespace-only line included, goes
    through the line loop, which judges each line in full before it reads
    the next, so a ParseError names the first bad line in file order. So
    does a file named like a compressed one (`.gz`, `.bz2`, `.xz`, `.lzma`,
    in any case), which numpy would decompress: every signal file is read
    as plain UTF-8 text.
    """
    samples = _clean_signal(path)
    if samples is not None:
        return samples
    name, values = Path(path), []
    for lineno, a, b in _rows(path):
        try:
            idx, value = int(a), float(b)
        except ValueError as exc:
            raise ParseError(f"{name}:{lineno}: {exc}") from None
        if idx != len(values):
            problem = "not increasing" if idx < len(values) else "leaves a gap"
            raise ParseError(
                f"{name}:{lineno}: sample index {idx} {problem} (prev {len(values) - 1})"
            )
        if not isfinite(value):
            raise ParseError(f"{name}:{lineno}: non-finite sample value {b!r}")
        values.append(value)
    if not values:
        raise ParseError(f"{name}: no samples found")
    return np.array(values)


def load_annotations(path) -> np.ndarray:
    """Parse an `index,symbol` export into an `(n, 2)` int64 array.

    Each row holds the sample index, then the symbol's class code; a
    symbol outside the four classes codes as -1, which `extract_beats`
    drops. A ParseError names the first bad line in file order.
    """
    name, rows = Path(path), []
    for lineno, a, b in _rows(path):
        try:
            idx = int(a)
        except ValueError as exc:
            raise ParseError(f"{name}:{lineno}: {exc}") from None
        if not 0 <= idx <= _MAX_INDEX:
            raise ParseError(f"{name}:{lineno}: sample index {idx} out of range")
        if not b:
            raise ParseError(f"{name}:{lineno}: empty annotation symbol")
        rows.append((idx, SYMBOL_CODE.get(b, -1)))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


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
