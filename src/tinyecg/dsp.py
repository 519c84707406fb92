"""Pan-Tompkins preprocessing chain: bandpass -> derivative -> square -> MWI.

The same chain runs in two shapes that take any non-empty input and reject
any non-finite sample: `preprocess` over a whole recording (training data)
and `StreamingPreprocessor`, one sample at a time (live detection). Every
stage is causal and length-preserving, so an R-peak index in the raw signal
addresses the same position in the output.

Only the batch `bandpass` (and so `preprocess`) loads scipy, for its
`lfilter`. The biquad itself is designed in numpy, so the live chain
(`StreamingPreprocessor`) never imports scipy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import isfinite

import numpy as np

LOW_CUT_HZ = 5.0
HIGH_CUT_HZ = 15.0
MWI_WINDOW = 15


@dataclass(frozen=True)
class FilterSpec:
    """Sampling rate of a recording, checked against the 5-15 Hz QRS passband."""

    sampling_rate_hz: float

    def __post_init__(self) -> None:
        if not (isfinite(self.sampling_rate_hz)
                and HIGH_CUT_HZ < self.sampling_rate_hz / 2):
            raise ValueError(
                f"the {LOW_CUT_HZ}-{HIGH_CUT_HZ} Hz passband needs a finite Nyquist rate"
                f" above {HIGH_CUT_HZ} Hz, got {self.sampling_rate_hz / 2}"
            )


def bandpass_coefficients(spec: FilterSpec) -> tuple[np.ndarray, np.ndarray]:
    """Second-order Butterworth bandpass (biquad) via the bilinear transform.

    The steps of scipy 1.17.1's `butter(1, [LOW_CUT_HZ, HIGH_CUT_HZ],
    btype="bandpass", fs=fs)`, in scipy's order and written in numpy, so
    `b` and `a` are the same bits as `butter`'s; the tests compare the two
    byte for byte over a grid of rates. Designing it without scipy keeps
    the live chain free of scipy's import time.
    """
    wn = np.array([LOW_CUT_HZ, HIGH_CUT_HZ]) / (spec.sampling_rate_hz / 2)
    w_lo, w_hi = 4.0 * np.tan(np.pi * wn / 2.0)  # prewarp 2·fs·tan(π·wn/fs) at fs = 2
    bw, wo = float(w_hi - w_lo), float(np.sqrt(w_lo * w_hi))
    # lp2bp_zpk of buttap(1) (one pole at -1, gain 1): two poles, a zero at
    # the origin and one at infinity, gain bw
    p_lp = -np.ones(1, complex) * bw / 2
    root = np.sqrt(p_lp**2 - wo**2)
    p = np.concatenate((p_lp + root, p_lp - root))
    # bilinear_zpk at fs = 2 maps the zeros to z = 1 and z = -1
    k = bw * np.real(4.0 / np.prod(4.0 - p))
    return k * np.array([1.0, 0.0, -1.0]), np.poly((4.0 + p) / (4.0 - p))


def bandpass(samples, spec: FilterSpec) -> np.ndarray:
    """Causal single-pass bandpass; rejects DC and powerline-range noise.

    Raises ValueError on an empty or non-finite input, naming the first bad
    index: `lfilter` would carry one NaN into every later sample."""
    from scipy.signal import lfilter  # loaded only when a recording is filtered in batch

    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("bandpass needs a non-empty sequence")
    if not np.isfinite(x).all():
        i = int(np.argmin(np.isfinite(x)))
        raise ValueError(f"non-finite sample {float(x[i])!r} at index {i}")
    b, a = bandpass_coefficients(spec)
    return lfilter(b, a, x)


def preprocess(samples, spec: FilterSpec) -> np.ndarray:
    """The whole chain in `StreamingPreprocessor.push`'s order: bandpass (y), the
    slope (2y[n] + y[n-1] - y[n-3] - 2y[n-4]) / 8 with taps before y[0] clamped to
    it, its square, and the trailing mean over MWI_WINDOW (shorter at the start)."""
    y = bandpass(samples, spec)
    pad = np.concatenate([np.full(4, y[0]), y])
    d = (2.0 * pad[4:] + pad[3:-1] - pad[1:-3] - 2.0 * pad[:-4]) / 8.0
    # y is freed only once d exists: freeing it before fragments glibc's heap
    # and raised a whole build's peak RSS by about 3 MB
    del pad, y
    energy = d * d
    del d
    sums = np.convolve(energy, np.ones(MWI_WINDOW))[: energy.size]
    return sums / np.minimum(np.arange(1, energy.size + 1), MWI_WINDOW)


class StreamingPreprocessor:
    """Sample-by-sample version of `preprocess` for live use.

    Feeding a recording one sample at a time produces the same values as
    the batch chain (up to float summation order in the trailing mean).
    Holds the biquad's coefficients, one state tuple (its two DF2T state
    values, then the derivative's last four bandpassed samples, newest
    first) read and written once per push, and the MWI window, all as
    Python floats: per-sample arithmetic on numpy scalars costs several
    times more. The window is summed afresh from its oldest sample on
    every push: a running add/subtract sum drifts from the batch chain.
    """

    __slots__ = ("_coef", "_state", "_mwi")

    def __init__(self, spec: FilterSpec):
        (b0, b1, b2), (_, a1, a2) = bandpass_coefficients(spec)  # a0 is 1
        self._coef = (float(b0), float(b1), float(b2), float(a1), float(a2))
        # The taps are None until the first sample, which fills all four.
        self._state: tuple = (0.0, 0.0, None, None, None, None)
        self._mwi: deque[float] = deque(maxlen=MWI_WINDOW)

    def push(self, raw: float) -> float:
        """Advance the chain by one raw sample; returns the integrated value.

        Raises ValueError on a non-finite sample and leaves the chain's
        state as it was, so one bad sample cannot poison later outputs.
        """
        x = float(raw)
        if not isfinite(x):
            raise ValueError(f"non-finite sample {x!r}")
        # Direct form II transposed, matching scipy.signal.lfilter.
        b0, b1, b2, a1, a2 = self._coef
        z0, z1, t0, t1, t2, t3 = self._state
        y = b0 * x + z0
        if t0 is None:
            t0 = t1 = t2 = t3 = y
        d = (2.0 * y + t0 - t2 - 2.0 * t3) / 8.0
        self._state = (b1 * x + z1 - a1 * y, b2 * x - a2 * y, y, t0, t1, t2)

        mwi = self._mwi
        mwi.append(d * d)
        return sum(mwi) / len(mwi)
