"""Pan-Tompkins preprocessing chain: bandpass -> derivative -> square -> MWI.

The same chain runs in two shapes that take any non-empty 1-D input and
reject any non-finite sample: `preprocess` over a whole recording (training
data) and `StreamingPreprocessor`, one sample at a time (live detection).
Every stage is causal and length-preserving, so an R-peak index in the raw
signal addresses the same position in the output.

The biquad is designed in numpy. Batch and live run one recursion, its
statements written out in Python in the same order, and sum the trailing
window oldest first, so the two shapes give the same bits at every length
(see `StreamingPreprocessor` for Python 3.12). Memory is bounded: `bandpass`
holds its output and one chunk of Python floats, `preprocess` at most three
recording-sized float64 arrays besides its input. numpy is the only
dependency.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import isfinite

import numpy as np

LOW_CUT_HZ = 5.0
HIGH_CUT_HZ = 15.0
MWI_WINDOW = 15
# Samples per Python-float chunk of `bandpass`'s input: a list over the whole
# recording would cost 32 B a sample, four times the output array.
_CHUNK = 4096


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
    byte for byte over a grid of rates. At every rate `b = b0·[1, 0, -1]`
    and `a0 = 1`, so `bandpass` and `StreamingPreprocessor` run on
    `(b0, a1, a2)` alone.
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


def _biquad(spec: FilterSpec) -> tuple[float, float, float]:
    """The nonzero taps `(b0, a1, a2)` of `bandpass_coefficients`, as Python floats."""
    (b0, _, _), (_, a1, a2) = bandpass_coefficients(spec)
    return float(b0), float(a1), float(a2)


def _df2t(x: np.ndarray, b0: float, a1: float, a2: float):
    """Yield the biquad's output for each sample of `x`, from zero state, in
    `StreamingPreprocessor.push`'s statements and order. `b0·x` is formed
    and made Python floats `_CHUNK` samples at a time; the state runs on
    across chunks, so the chunking cannot show in the bits."""
    z0 = z1 = 0.0
    for start in range(0, x.size, _CHUNK):
        for v in (b0 * x[start : start + _CHUNK]).tolist():
            y = v + z0
            z0 = z1 - a1 * y
            z1 = -v - a2 * y
            yield y


def bandpass(samples, spec: FilterSpec) -> np.ndarray:
    """Causal single-pass bandpass; rejects DC and powerline-range noise.

    Direct form II transposed, run sample by sample in Python floats on the
    statements `StreamingPreprocessor.push` runs, so a recording filtered in
    batch and one fed to the live chain give the same bits. Only `b0·x` is
    vectorized: an IEEE multiply rounds the same in numpy and in Python. It
    is formed `_CHUNK` (4,096) samples at a time, so beyond the output array
    the call holds at most one chunk as numpy floats and as Python floats.
    Raises ValueError on input that is not 1-D (naming its shape), empty
    or non-finite (naming the first bad index): one NaN would poison every
    later output.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"bandpass needs a 1-D sequence, got shape {x.shape}")
    if x.size == 0:
        raise ValueError("bandpass needs a non-empty sequence")
    if not np.isfinite(x).all():
        i = int(np.argmin(np.isfinite(x)))
        raise ValueError(f"non-finite sample {float(x[i])!r} at index {i}")
    return np.fromiter(_df2t(x, *_biquad(spec)), np.float64, x.size)


def preprocess(samples, spec: FilterSpec) -> np.ndarray:
    """The whole chain in `StreamingPreprocessor.push`'s order: bandpass (y), the
    slope (2y[n] + y[n-1] - y[n-3] - 2y[n-4]) / 8 with taps before y[0] clamped to
    it, its square, and the trailing mean over MWI_WINDOW (shorter at the start),
    summed oldest first as the live chain sums it.

    Every stage after the bandpass runs in place, so at most three
    recording-sized float64 buffers are alive at once: y, the slope (later
    the sums) and the energies, whose tail first holds 2y[n-4].
    """
    y = bandpass(samples, spec)
    n, lead = y.size, MWI_WINDOW - 1
    energy = np.empty(lead + n)
    tail = energy[lead:]
    np.multiply(y[:-4], 2.0, out=tail[4:])
    tail[:4] = 2.0 * y[0]
    d = np.multiply(y, 2.0)
    d[1:] += y[:-1]
    d[:1] += y[0]
    d[3:] -= y[:-3]
    d[:3] -= y[0]
    d -= tail
    d /= 8.0
    del y
    # the energies led by MWI_WINDOW - 1 zeros, added oldest first in place,
    # so no numpy internals pick the order; the first add, 0 + e, is e
    np.multiply(d, d, out=tail)
    energy[:lead] = 0.0
    sums = d
    sums[:] = energy[:n]
    for k in range(1, MWI_WINDOW):
        sums += energy[k : k + n]
    head = sums[:lead]
    head /= np.arange(1, head.size + 1)
    sums[lead:] /= MWI_WINDOW
    return sums


class StreamingPreprocessor:
    """Sample-by-sample version of `preprocess` for live use.

    Feeding a recording one sample at a time gives the same bits as the
    batch chain: the bandpass is `bandpass`'s recursion, statement for
    statement, and `sum()` adds the MWI window afresh on every push, oldest
    first, as `preprocess` does (a running add/subtract sum would drift).
    From Python 3.12 `sum()` of floats is compensated, so there the bits can
    differ. Holds the biquad's nonzero coefficients, one state tuple (its
    two DF2T state values, then the derivative's last four bandpassed
    samples, newest first) read and written once per push, and the MWI
    window, all as Python floats: per-sample arithmetic on numpy scalars
    costs several times more.
    """

    __slots__ = ("_coef", "_state", "_mwi")

    def __init__(self, spec: FilterSpec):
        self._coef = _biquad(spec)
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
        # Direct form II transposed, as `_df2t` runs it, less the taps
        # b = b0·[1, 0, -1] makes trivial: b1·x adds an exact zero and b2·x
        # is -(b0·x) exactly, so only the sign of an exact zero can differ
        # from the five-coefficient form, and the square removes it.
        b0, a1, a2 = self._coef
        z0, z1, t0, t1, t2, t3 = self._state
        bx = b0 * x
        y = bx + z0
        if t0 is None:
            t0 = t1 = t2 = t3 = y
        d = (2.0 * y + t0 - t2 - 2.0 * t3) / 8.0
        self._state = (z1 - a1 * y, -bx - a2 * y, y, t0, t1, t2)

        mwi = self._mwi
        mwi.append(d * d)
        return sum(mwi) / len(mwi)
