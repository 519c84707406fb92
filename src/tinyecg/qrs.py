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
sample that completes it.
"""

from __future__ import annotations

from collections import deque
from itertools import islice

import numpy as np

from .dsp import FilterSpec, StreamingPreprocessor
from .ingest import WINDOW_HALF

BUFFER_CAPACITY = 150
REFRACTORY_S = 0.200
WARMUP_S = 2.0
LEVEL_GAIN = 0.125  # classic level update: l <- 0.125 p + 0.875 l
THRESHOLD_FRACTION = 0.25


class WindowLostError(RuntimeError):
    """The requested window scrolled out of the bounded buffer."""


class StreamBuffer:
    """Ring of the newest preprocessed samples, addressed by absolute index."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._ring: deque[float] = deque(maxlen=capacity)
        self.head = -1  # absolute index of the newest stored sample

    def push(self, value: float) -> None:
        self._ring.append(float(value))
        self.head += 1

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def tail(self) -> int:
        """Absolute index of the oldest stored sample."""
        return self.head - len(self._ring) + 1

    def window(self, start: int, end: int) -> np.ndarray:
        """Samples for absolute indices [start, end] inclusive."""
        if start < self.tail:
            raise WindowLostError(
                f"window start {start} older than buffer tail {self.tail}"
            )
        if end > self.head:
            raise IndexError(f"window end {end} beyond head {self.head}")
        lo, n = start - self.tail, end - start + 1
        return np.fromiter(islice(self._ring, lo, lo + n), np.float64, n)


def emit_window(buffer: StreamBuffer, r_index: int) -> np.ndarray | None:
    """61-sample window centered on a detected peak, or None if not yet buffered.

    `StreamBuffer.window` raises WindowLostError when the peak has already
    scrolled past the buffer capacity (the beat is lost).
    """
    if r_index + WINDOW_HALF > buffer.head:
        return None
    return buffer.window(r_index - WINDOW_HALF, r_index + WINDOW_HALF)


class RPeakDetector:
    """One instance per stream; feed raw samples, get beats.

    Detection happens one sample after a local maximum of the integrated
    signal (the fall confirms the peak). Peaks above threshold outside
    the refractory period are beats; sub-threshold peaks update the noise
    level; anything inside the refractory period is ignored outright.
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
        self._prev_index = -1
        self._rising = False
        # Detected peaks whose window is not yet buffered, oldest first
        # (at most ceil(WINDOW_HALF / refractory_samples) of them).
        self._pending: deque[int] = deque()

    def push(self, raw: float) -> tuple[int, np.ndarray] | None:
        """Advance one raw sample; returns `(r_index, window)` for the beat
        whose 61-sample window this sample completes.

        Peaks are detected in index order, one sample after the peak, so
        their windows complete in that order and at most one per sample:
        only the oldest pending peak needs a check. Raises WindowLostError
        if that window has already scrolled out of the buffer.
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
        self.buffer.push(y)
        n = self.buffer.head

        if n < self.warmup_samples:
            if y > self._warm_max:
                self._warm_max = y
            self._warm_sum += y
            if n == self.warmup_samples - 1:
                self.signal_level = self._warm_max
                self.noise_level = self._warm_sum / self.warmup_samples
                self._prev = y
                self._prev_index = n
                self._rising = False
            return None

        detected = None
        if y > self._prev:
            self._rising = True
        elif y == self._prev:
            self._prev_index = n  # plateau: keep tracking its newest sample
            return None
        else:
            if self._rising:
                detected = self._on_peak(self._prev, self._prev_index)
            self._rising = False
        self._prev = y
        self._prev_index = n
        return detected

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
