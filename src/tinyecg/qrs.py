"""Streaming R-peak detection over a bounded 150-sample buffer.

Classic Pan-Tompkins adaptive thresholding: running signal and noise
levels, threshold = noise + 0.25 * (signal - noise), and a 200 ms
refractory period. Levels initialize from the first two seconds of the
stream (max -> signal level, mean -> noise level), so recordings are
expected to contain beats from the start. The long search-back pass of
the full algorithm is omitted: the 150-sample buffer cannot hold enough
history to support it.

`RPeakDetector.push` is the live loop's one step: it feeds a sample
through `push_sample` and hands back each beat's 61-sample window on the
sample that completes it. `push_sample` is the ring's one writer;
`emit_window`, its one reader, alone maps an absolute index into the ring.
"""

from __future__ import annotations

from collections import deque
from itertools import islice

import numpy as np

from .dsp import FilterSpec, StreamingPreprocessor
from .ingest import WINDOW_HALF, WINDOW_LEN

BUFFER_CAPACITY = 150
REFRACTORY_S = 0.200
WARMUP_S = 2.0
LEVEL_GAIN = 0.125  # classic level update: l <- 0.125 p + 0.875 l
THRESHOLD_FRACTION = 0.25


class WindowLostError(RuntimeError):
    """The requested window scrolled out of the bounded buffer."""


class StreamBuffer:
    """Ring of the newest preprocessed samples; `head` is the absolute index of
    the newest. Its one writer, `RPeakDetector.push_sample`, appends to `ring`
    and advances `head`; its one reader, `emit_window`, slices `ring`."""

    __slots__ = ("ring", "head")

    def __init__(self, capacity: int):
        self.ring: deque[float] = deque(maxlen=capacity)
        self.head = -1


def emit_window(buffer: StreamBuffer, r_index: int) -> np.ndarray | None:
    """61-sample window centered on a detected peak, or None if not yet buffered.

    Raises WindowLostError when the window's first sample has already
    scrolled out of the ring (the beat is lost).
    """
    head = buffer.head
    if r_index + WINDOW_HALF > head:
        return None
    ring = buffer.ring
    oldest = head - len(ring) + 1
    lo = r_index - WINDOW_HALF - oldest
    if lo < 0:
        raise WindowLostError(
            f"window of peak {r_index} starts before the oldest buffered index {oldest}"
        )
    return np.fromiter(islice(ring, lo, lo + WINDOW_LEN), np.float64, WINDOW_LEN)


class RPeakDetector:
    """One instance per stream; feed raw samples, get beats.

    Detection happens one sample after a local maximum of the integrated
    signal: the fall confirms the peak, the sample before it (a plateau's
    newest). Peaks above threshold outside the refractory period are beats;
    sub-threshold peaks update the noise level; anything inside the
    refractory period is ignored outright.
    """

    def __init__(self, spec: FilterSpec):
        self.preprocessor = StreamingPreprocessor(spec)
        self.buffer = StreamBuffer(BUFFER_CAPACITY)
        # Running levels (set at the end of warm-up) and the last beat's index.
        self.signal_level = 0.0
        self.noise_level = 0.0
        self.last_peak_index: int | None = None
        self.refractory_samples = int(round(REFRACTORY_S * spec.sampling_rate_hz))
        self.warmup_samples = int(round(WARMUP_S * spec.sampling_rate_hz))
        # A running max and sum (8 bytes) set the levels; the 2 s of warm-up
        # samples themselves would need 2,880 B, more than the 2 KB SRAM.
        self._warm_max = float("-inf")
        self._warm_sum = 0.0
        self._prev = 0.0
        self._rising = False
        # Detected peaks whose window is not yet buffered, oldest first
        # (at most ceil(WINDOW_HALF / refractory_samples) of them).
        self._pending: deque[int] = deque()

    def push(self, raw: float) -> tuple[int, np.ndarray] | None:
        """Advance one raw sample; returns `(r_index, window)` for the beat
        whose 61-sample window this sample completes.

        Peaks are detected in index order, one sample after the peak, so
        their windows complete in that order and at most one per sample:
        only the oldest pending peak needs a check. A window is emitted on
        the sample that completes it, so `push` never loses a beat: only a
        caller polling `emit_window` later can meet WindowLostError.
        """
        r = self.push_sample(raw)
        pending = self._pending
        if r is not None:
            pending.append(r)
        if pending and pending[0] + WINDOW_HALF <= self.buffer.head:
            r = pending.popleft()
            return r, emit_window(self.buffer, r)
        return None

    def push_sample(self, raw: float) -> int | None:
        """Advance one raw sample; returns the peak's absolute index on detection."""
        y = self.preprocessor.push(raw)
        buffer = self.buffer
        buffer.ring.append(y)
        n = buffer.head = buffer.head + 1

        if n < self.warmup_samples:
            if y > self._warm_max:
                self._warm_max = y
            self._warm_sum += y
            if n == self.warmup_samples - 1:
                self.signal_level = self._warm_max
                self.noise_level = self._warm_sum / self.warmup_samples
                self._prev = y
            return None

        prev = self._prev
        if y > prev:
            self._rising = True
        elif y == prev:
            return None  # plateau: the fall that ends it confirms its newest sample
        elif self._rising:
            self._rising = False
            self._prev = y
            return self._on_peak(prev, n - 1)
        self._prev = y
        return None

    def _on_peak(self, peak: float, index: int) -> int | None:
        last = self.last_peak_index
        if last is not None and index - last < self.refractory_samples:
            return None
        threshold = self.noise_level + THRESHOLD_FRACTION * (self.signal_level - self.noise_level)
        if peak > threshold:
            self.signal_level = LEVEL_GAIN * peak + (1 - LEVEL_GAIN) * self.signal_level
            self.last_peak_index = index
            return index
        self.noise_level = LEVEL_GAIN * peak + (1 - LEVEL_GAIN) * self.noise_level
        return None
