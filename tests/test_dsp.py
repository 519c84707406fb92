import math
import re
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from tinyecg.dsp import (
    HIGH_CUT_HZ,
    LOW_CUT_HZ,
    MWI_WINDOW,
    _CHUNK,
    FilterSpec,
    StreamingPreprocessor,
    bandpass,
    bandpass_coefficients,
    preprocess,
)

FS = 360.0


def steady_amplitude(y, fs=FS):
    """Peak amplitude over the last second, past the filter transient."""
    return float(np.max(np.abs(y[-int(fs):])))


class TestFilterSpec:
    def test_defaults(self):
        # every spec filters the paper's 5-15 Hz QRS band, and the numpy
        # design is butter's own, bit for bit (tobytes tells -0.0 from 0.0)
        assert (LOW_CUT_HZ, HIGH_CUT_HZ) == (5.0, 15.0)
        common = [128.0, 250.0, 360.0, 500.0, 1000.0]
        for fs in np.union1d(np.linspace(30.5, 4000.0, 1200), common):
            b, a = bandpass_coefficients(FilterSpec(fs))
            b_ref, a_ref = sps.butter(1, [5.0, 15.0], btype="bandpass", fs=fs)
            assert (b.dtype, a.dtype) == (b_ref.dtype, a_ref.dtype)
            assert (b.tobytes(), a.tobytes()) == (b_ref.tobytes(), a_ref.tobytes()), fs

    @given(fs=st.floats(30.0, 2000.0, exclude_min=True))
    @example(fs=31.0)
    @example(fs=360.0)
    @example(fs=1000.0)
    def test_bandpass_taps_are_b0_times_one_zero_minus_one(self, fs):
        # StreamingPreprocessor.push drops b1 and computes b2·x as -(b0·x)
        b, _ = bandpass_coefficients(FilterSpec(fs))
        assert b[1] == 0.0 and b[2] == -b[0]

    @pytest.mark.parametrize("fs", [30.0, 20.0, 0.0, math.inf, -math.inf, math.nan])
    def test_invalid_band_rejected(self, fs):
        # the 15 Hz upper cut must lie below a finite Nyquist rate
        with pytest.raises(ValueError, match="Nyquist"):
            FilterSpec(fs)

    def test_rate_just_above_twice_the_upper_cut_accepted(self):
        assert FilterSpec(31.0).sampling_rate_hz == 31.0


class TestBandpass:
    def test_dc_rejected(self, spec):
        y = bandpass(np.ones(int(4 * FS)), spec)
        assert steady_amplitude(y) < 1e-3

    def test_passband_10hz(self, spec):
        # oracle: the designed filter's own frequency response at 10 Hz
        b, a = bandpass_coefficients(spec)
        _, h = sps.freqz(b, a, worN=[10.0], fs=FS)
        assert abs(h[0]) >= 0.7
        t = np.arange(int(4 * FS)) / FS
        y = bandpass(np.sin(2 * np.pi * 10.0 * t), spec)
        measured = steady_amplitude(y)
        assert measured >= 0.7
        assert measured == pytest.approx(abs(h[0]), abs=0.02)

    def test_stopband_60hz(self, spec):
        b, a = bandpass_coefficients(spec)
        _, h = sps.freqz(b, a, worN=[60.0], fs=FS)
        assert abs(h[0]) <= 0.2
        t = np.arange(int(4 * FS)) / FS
        y = bandpass(np.sin(2 * np.pi * 60.0 * t), spec)
        assert steady_amplitude(y) <= 0.2

    def test_empty_rejected(self, spec):
        with pytest.raises(ValueError):
            bandpass([], spec)

    def test_length_preserved(self, spec, rng):
        x = rng.normal(size=777)
        assert bandpass(x, spec).shape == x.shape

    @pytest.mark.parametrize("shape", [(), (50, 1), (1, 50), (3, 50)])
    @pytest.mark.parametrize("chain", [bandpass, preprocess])
    def test_input_other_than_1d_rejected_naming_its_shape(self, spec, chain, shape):
        # a (50, 1) column was filtered row by row into 50 one-sample outputs
        with pytest.raises(ValueError, match=rf"1-D .*shape {re.escape(str(shape))}$"):
            chain(np.ones(shape), spec)

    def test_build_sized_recording_is_lfilters_bytes(self, spec):
        # 1,600 beats at 120 bpm, the benchmark's build recording: 288,540
        # samples, where every rounding of the recursion shows in the bytes
        from tinyecg.synthetic import labeled_recording

        x, _ = labeled_recording(["N", "S", "V", "F"] * 400, bpm=120.0, snr_db=25.0, seed=3)
        assert x.size == 288_540
        assert bandpass(x, spec).tobytes() == sps.lfilter(*bandpass_coefficients(spec), x).tobytes()

    def test_only_the_sign_of_a_zero_differs_from_lfilter(self):
        # lfilter adds the zero tap b1·x, and 0.0 + -0.0 is 0.0; the live chain
        # drops that tap (the square after it removes the sign), and so does
        # bandpass. Seen only below about 36 Hz, on subnormal inputs.
        spec, x = FilterSpec(31.0), np.array([5e-324, 0.0, 0.0, -0.0])
        got, ref = bandpass(x, spec), sps.lfilter(*bandpass_coefficients(spec), x)
        assert got.tobytes() != ref.tobytes()
        np.testing.assert_array_equal(got, ref)
        assert (np.signbit(got[-1]), np.signbit(ref[-1])) == (True, False)


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e6, -1e6]


@st.composite
def recordings(draw):
    """Up to 2,000 samples: noise at a drawn scale on a drawn DC offset, with
    runs of zeros, signed zeros, subnormals and the extremes mixed in."""
    n = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = draw(st.sampled_from([0.0, 1e-300, 1.0, 1e6])) * rng.standard_normal(n)
    x += draw(st.one_of(st.just(0.0), st.floats(-1e6, 1e6)))
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, n - 1))
        stop = draw(st.integers(start + 1, n))
        x[start:stop] = rng.choice(_SPECIAL[: draw(st.integers(1, len(_SPECIAL)))], stop - start)
    return x


@settings(max_examples=200, deadline=None)
@given(fs=st.floats(30.0, 2000.0, exclude_min=True), x=recordings())
@example(fs=31.0, x=np.array([5e-324, 0.0, 0.0, -0.0]))
@example(fs=360.0, x=np.random.default_rng(0).normal(size=2000))
@example(fs=1000.0, x=np.full(2000, -1e6))
def test_bandpass_is_the_live_biquad_and_lfilters_bits(fs, x):
    # batch and live run one recursion, so their bytes are equal, signed
    # zeros included; that recursion is lfilter's direct form II transposed
    # less the zero tap b1·x, so its bytes equal lfilter's wherever the
    # output is not an exact zero (test_only_the_sign_of_a_zero_differs_from_lfilter)
    spec = FilterSpec(fs)
    got, ref = bandpass(x, spec), sps.lfilter(*bandpass_coefficients(spec), x)
    stream, live = StreamingPreprocessor(spec), []
    for v in x:
        stream.push(v)
        live.append(stream._state[2])  # the newest bandpassed sample
    assert got.tobytes() == np.array(live).tobytes()
    assert got.dtype == ref.dtype == np.float64
    np.testing.assert_array_equal(got == 0, ref == 0)
    assert got[ref != 0].tobytes() == ref[ref != 0].tobytes()


class TestPreprocess:
    def test_zero_in_zero_out(self, spec):
        assert preprocess(np.zeros(100), spec) == pytest.approx(np.zeros(100))

    def test_nonnegative_output(self, spec, rng):
        out = preprocess(rng.normal(size=500), spec)
        assert (out >= 0).all()
        assert out.size == 500

    def test_quadratic_scaling(self, spec, rng):
        # the chain is linear up to the squaring stage, so 2x -> 4*output
        x = rng.normal(size=400)
        one = preprocess(x, spec)
        two = preprocess(2 * x, spec)
        np.testing.assert_allclose(two, 4 * one, rtol=1e-9)

    def test_synthetic_pulse_hump_near_pulse(self, spec):
        from tinyecg.synthetic import qrs_pulse

        x = np.zeros(720)
        center = 400
        p = qrs_pulse(11)
        x[center - 5 : center + 6] = p
        out = preprocess(x, spec)
        assert abs(int(np.argmax(out)) - center) <= 15


class TestStreamingPreprocessor:
    def test_matches_batch_exactly(self, spec, rng):
        x = rng.normal(size=1500)
        stream = StreamingPreprocessor(spec)
        got = np.array([stream.push(v) for v in x])
        assert got.tobytes() == preprocess(x, spec).tobytes()

    def test_matches_batch_on_pulse(self, spec):
        from tinyecg.synthetic import pulse_train

        x, _ = pulse_train(4, seed=1, snr_db=30.0)
        stream = StreamingPreprocessor(spec)
        got = np.array([stream.push(v) for v in x])
        assert got.tobytes() == preprocess(x, spec).tobytes()

    def test_matches_batch_on_long_recording(self, spec):
        # in raw ADC counts (MIT-BIH: 200 per mV, baseline 1024) over 46k
        # samples, a running add/subtract MWI sum drifts past the bound
        from tinyecg.synthetic import labeled_recording

        mv, _ = labeled_recording(["N", "S", "V", "F"] * 40, snr_db=25.0, seed=4)
        x = 200.0 * mv + 1024.0
        assert x.size >= 40_000
        stream = StreamingPreprocessor(spec)
        got = np.array([stream.push(v) for v in x])
        assert got.tobytes() == preprocess(x, spec).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected_without_state_change(self, spec, rng, bad):
        x = rng.normal(size=300)
        clean, probed = StreamingPreprocessor(spec), StreamingPreprocessor(spec)
        for v in x[:200]:
            clean.push(v)
            probed.push(v)
        with pytest.raises(ValueError, match="non-finite"):
            probed.push(bad)
        for v in x[200:]:
            assert probed.push(v) == clean.push(v)


def reference_stream(spec, samples) -> list[float]:
    """The live chain written out plainly, one sample at a time: a DF2T
    biquad, the 4-tap derivative clamped to the first output, and the MWI
    summed from its oldest sample."""
    (b0, b1, b2), (_, a1, a2) = bandpass_coefficients(spec)
    b0, b1, b2, a1, a2 = map(float, (b0, b1, b2, a1, a2))
    z0 = z1 = 0.0
    taps = None  # newest first
    mwi = deque(maxlen=MWI_WINDOW)
    out = []
    for raw in samples:
        x = float(raw)
        y = b0 * x + z0
        z0 = b1 * x + z1 - a1 * y
        z1 = b2 * x - a2 * y
        if taps is None:
            taps = [y, y, y, y]
        d = (2.0 * y + taps[0] - taps[2] - 2.0 * taps[3]) / 8.0
        taps = [y, *taps[:3]]
        mwi.append(d * d)
        out.append(sum(mwi) / len(mwi))
    return out


_noise = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=80)
_zeros = st.integers(1, 80).map(lambda n: [None] * n)


@settings(max_examples=200, deadline=None)
@given(
    fs=st.floats(30.5, 2000.0),
    offset=st.floats(-1000.0, 1000.0),
    segments=st.lists(st.one_of(_noise, _zeros), min_size=1, max_size=8),
)
# 4-14 samples: np.convolve summed this MWI newest first
@example(fs=31.0, offset=0.0, segments=[[1.5, 0.0, 0.0, -2.0]])
def test_stream_push_is_the_reference_loop_bit_for_bit(fs, offset, segments):
    # noise riding on a DC offset, broken by stretches of exact zeros; the
    # batch chain takes every length the stream takes, down to one sample,
    # and gives the same bits
    x = [0.0 if v is None else offset + v for segment in segments for v in segment]
    spec = FilterSpec(fs)
    stream = StreamingPreprocessor(spec)
    got = np.array([stream.push(v) for v in x])
    reference = np.array(reference_stream(spec, x))
    assert got.tobytes() == reference.tobytes()
    assert preprocess(x, spec).tobytes() == reference.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(st.floats(-1000.0, 1000.0), min_size=1, max_size=120),
    where=st.integers(0, 119),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_one_non_finite_sample_rejected_by_both_chains(x, where, bad):
    # the batch chain names the bad sample's index; the stream raises on it
    where %= len(x)
    x[where] = bad
    spec = FilterSpec(FS)
    with pytest.raises(ValueError, match=rf"non-finite sample .* at index {where}$"):
        preprocess(x, spec)
    stream = StreamingPreprocessor(spec)
    for v in x[:where]:
        stream.push(v)
    with pytest.raises(ValueError, match="non-finite"):
        stream.push(x[where])


def _build_recording():
    """1,600 beats at 120 bpm, the benchmark's build recording: 288,540 samples."""
    from tinyecg.synthetic import labeled_recording

    x, _ = labeled_recording(["N", "S", "V", "F"] * 400, bpm=120.0, snr_db=25.0, seed=3)
    assert x.size == 288_540
    return x


def _traced_peak(chain, x, spec):
    """The chain's output and the most bytes tracemalloc saw held during the
    call, the input not counted (it exists before tracing starts)."""
    tracemalloc.start()
    try:
        out = chain(x, spec)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    # A list of Python floats over the whole recording (32 B a sample) and
    # out-of-place stages held about five output-sized buffers at the peak.
    def test_bandpass_holds_little_beyond_its_output(self, spec):
        out, peak = _traced_peak(bandpass, _build_recording(), spec)
        assert peak <= 1.25 * out.nbytes

    def test_preprocess_holds_at_most_three_recording_sized_buffers(self, spec):
        x = _build_recording()
        _, peak = _traced_peak(preprocess, x, spec)
        assert peak <= 3.25 * 8 * x.size


@pytest.mark.parametrize("fs", [31.0, 360.0, 1000.0])
@pytest.mark.parametrize(
    "n", [*range(1, MWI_WINDOW), _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 5])
def test_batch_is_the_live_chain_across_chunk_boundaries(fs, n):
    # bandpass forms b0·x a chunk at a time with the state running on, and
    # preprocess divides its first MWI_WINDOW - 1 sums in place; neither may
    # show in the bytes. Raw ADC counts (200 per mV on a 1024 baseline).
    x = 1024.0 + 200.0 * np.random.default_rng(n).standard_normal(n)
    spec = FilterSpec(fs)
    stream, live_y, live_out = StreamingPreprocessor(spec), [], []
    for v in x:
        live_out.append(stream.push(v))
        live_y.append(stream._state[2])  # the newest bandpassed sample
    assert bandpass(x, spec).tobytes() == np.array(live_y).tobytes()
    assert preprocess(x, spec).tobytes() == np.array(live_out).tobytes()
