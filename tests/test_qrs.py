import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tinyecg.dsp import FilterSpec, preprocess
from tinyecg.ingest import WINDOW_HALF
from tinyecg.labels import CLASSES
from tinyecg.qrs import (
    BUFFER_CAPACITY,
    RPeakDetector,
    StreamBuffer,
    WindowLostError,
    emit_window,
)
from tinyecg.synthetic import labeled_recording, pulse_train, qrs_pulse

FS = 360.0


def run_detector(signal, spec=None):
    det = RPeakDetector(spec or FilterSpec(FS))
    hits = []
    for v in signal:
        r = det.push_sample(v)
        if r is not None:
            hits.append(r)
    return det, hits


def match_detections(detections, truth, tol=18):
    """Greedy one-to-one matching within +/- tol samples; returns (tp, fp, fn)."""
    unused = set(range(len(truth)))
    tp = 0
    for d in detections:
        best = None
        for i in unused:
            if abs(d - truth[i]) <= tol and (
                best is None or abs(d - truth[i]) < abs(d - truth[best])
            ):
                best = i
        if best is not None:
            unused.discard(best)
            tp += 1
    return tp, len(detections) - tp, len(truth) - tp


def fill(buf, values):
    """Write samples the way `RPeakDetector.push_sample` does: append to the
    ring, then advance the head."""
    for v in values:
        buf.ring.append(v)
        buf.head += 1


@given(
    capacity=st.integers(61, 400),
    extra=st.integers(0, 1000),
    late=st.integers(-10, 420),
)
@example(capacity=150, extra=1000, late=-1)  # one sample short: not yet buffered
@example(capacity=150, extra=1000, late=89)  # window starts at the oldest sample
@example(capacity=150, extra=1000, late=90)  # one sample older: lost
def test_emit_window_returns_pushed_values(capacity, extra, late):
    # past any number of wraparounds, the window of the peak whose window
    # completed `late` samples ago is exactly the values pushed at its
    # absolute indices, None before it completes, and lost once its first
    # sample has left the ring
    buf = StreamBuffer(capacity)
    pushed = [float(i) * 0.5 - 7.0 for i in range(capacity + extra)]
    fill(buf, pushed)
    r = buf.head - WINDOW_HALF - late
    oldest = buf.head - capacity + 1
    if late < 0:
        assert emit_window(buf, r) is None
    elif r - WINDOW_HALF < oldest:
        with pytest.raises(WindowLostError, match=rf"peak {r} .* index {oldest}$"):
            emit_window(buf, r)
    else:
        window = emit_window(buf, r)
        assert window.dtype == np.float64
        np.testing.assert_array_equal(window, pushed[r - WINDOW_HALF : r + WINDOW_HALF + 1])


class TestEmitWindow:
    def _filled(self, n, capacity=BUFFER_CAPACITY):
        buf = StreamBuffer(capacity)
        fill(buf, map(float, range(n)))
        return buf

    def test_exact_fit(self):
        buf = self._filled(61)
        window = emit_window(buf, 30)
        assert window.shape == (61,)
        np.testing.assert_array_equal(window, np.arange(61.0))

    def test_future_samples_not_ready(self):
        buf = self._filled(61)
        assert emit_window(buf, 31) is None  # needs sample 61, head is 60

    def test_scrolled_out_beat_lost(self):
        buf = self._filled(400)  # tail = 250
        with pytest.raises(WindowLostError):
            emit_window(buf, 200)


class TestThreshold:
    """`_on_peak` with levels 8 and 2: the threshold is 2 + 0.25 * (8 - 2) = 3.5."""

    def _detector(self):
        det = RPeakDetector(FilterSpec(FS))
        det.signal_level, det.noise_level = 8.0, 2.0
        return det

    def test_peak_above_threshold_is_a_beat(self):
        det, peak = self._detector(), np.nextafter(3.5, np.inf)
        assert det._on_peak(peak, 1000) == 1000
        assert det.signal_level == 0.125 * peak + 0.875 * 8.0
        assert det.noise_level == 2.0
        assert det.last_peak_index == 1000

    @pytest.mark.parametrize("peak", [np.nextafter(3.5, -np.inf), 3.5])
    def test_peak_not_above_threshold_moves_noise_level(self, peak):
        det = self._detector()
        assert det._on_peak(peak, 1000) is None
        assert det.noise_level == 0.125 * peak + 0.875 * 2.0
        assert det.signal_level == 8.0
        assert det.last_peak_index is None

    def test_peak_inside_refractory_period_changes_nothing(self):
        det = self._detector()
        det.last_peak_index = 1000
        last_inside = 1000 + det.refractory_samples - 1
        for peak in (1.0, 100.0):
            assert det._on_peak(peak, last_inside) is None
            assert (det.signal_level, det.noise_level, det.last_peak_index) == (8.0, 2.0, 1000)
        # one sample later the period is over
        assert det._on_peak(100.0, last_inside + 1) == last_inside + 1


class ScriptedPreprocessor:
    """Stands in for `StreamingPreprocessor`: each push returns the next
    scripted MWI value, whatever the raw sample."""

    def __init__(self, values):
        self._values = iter(values)

    def push(self, raw):
        return next(self._values)


class TestPeakIndex:
    """`push_sample` on scripted MWI values. Warm-up ends with both levels
    at 1.0 unless the test says otherwise, so any peak above 1.0 is a beat."""

    def _detections(self, after_warmup, warmup=None):
        """(sample index, reported peak index) for every detection."""
        det = RPeakDetector(FilterSpec(FS))
        w = det.warmup_samples
        det.preprocessor = ScriptedPreprocessor(
            ([1.0] * w if warmup is None else warmup) + after_warmup)
        hits = [(n, det.push_sample(0.0)) for n in range(w + len(after_warmup))]
        return w, [(n, r) for n, r in hits if r is not None]

    def test_rise_then_fall_reports_the_top_on_the_falling_sample(self):
        w, hits = self._detections([2.0, 3.0, 5.0, 4.0, 3.0])
        assert hits == [(w + 3, w + 2)]

    def test_plateau_reports_its_newest_sample(self):
        w, hits = self._detections([2.0, 5.0, 5.0, 5.0, 4.0, 3.0])
        assert hits == [(w + 4, w + 3)]

    def test_first_sample_after_warmup_never_detects(self):
        # warm-up rises to its last sample and the next one falls: a peak
        # well above threshold, but no rise was seen after warm-up
        rising = [float(i) for i in range(int(2 * FS))]
        w, hits = self._detections([0.0, 0.0], warmup=rising)
        assert hits == []
        # the same fall one sample later, after a rise, is a beat
        w, hits = self._detections([1000.0, 0.0], warmup=rising)
        assert hits == [(w + 1, w)]

    @pytest.mark.parametrize("gap_past_refractory, second_found", [(-1, False), (0, True)])
    def test_peak_inside_refractory_period_is_ignored(self, gap_past_refractory, second_found):
        refractory = RPeakDetector(FilterSpec(FS)).refractory_samples
        second = 1 + refractory + gap_past_refractory
        values = [1.0] * (second + 3)
        values[1] = values[second] = 5.0
        w, hits = self._detections(values)
        assert hits == [(w + 2, w + 1)] + [(w + second + 1, w + second)] * second_found


class TestRPeakDetector:
    def test_all_zero_stream_never_fires(self):
        _, hits = run_detector(np.zeros(int(10 * FS)))
        assert hits == []

    def test_clean_pulse_train_all_found(self):
        # beats after warmup: a silent warmup leaves the threshold at zero,
        # which a clean signal crosses on the first real hump
        signal, truth = pulse_train(10, bpm=75, fs=FS, start_s=2.5)
        _, hits = run_detector(signal)
        assert len(hits) >= 9
        tp, fp, _ = match_detections(hits, truth)
        assert fp == 0
        assert tp >= 9

    def test_localization_within_50ms(self):
        signal, truth = pulse_train(10, bpm=75, fs=FS, start_s=2.5)
        _, hits = run_detector(signal)
        tol = int(0.050 * FS)
        for h in hits:
            assert min(abs(h - t) for t in truth) <= tol

    def test_refractory_suppresses_close_pulse(self):
        # two pulses 40 samples apart (~111 ms): the second falls inside
        # the 200 ms refractory window and must not fire
        width = 11
        p = qrs_pulse(width)
        signal = np.zeros(int(6 * FS))
        first = int(3 * FS)
        for c in (first, first + 40):
            signal[c - width // 2 : c - width // 2 + width] += p
        # warmup needs beats: put a few regular ones early on
        for c in (200, 500, 800):
            signal[c - width // 2 : c - width // 2 + width] += p
        _, hits = run_detector(signal)
        near = [h for h in hits if abs(h - first) < 120]
        assert len(near) == 1

    def test_no_two_detections_within_refractory(self):
        signal, _ = pulse_train(50, bpm=180, fs=FS, snr_db=15.0, seed=7)
        det, hits = run_detector(signal)
        gaps = np.diff(hits)
        assert (gaps >= det.refractory_samples).all()

    def test_buffer_never_exceeds_capacity(self):
        signal, _ = pulse_train(5, fs=FS, snr_db=20.0)
        det = RPeakDetector(FilterSpec(FS))
        for v in signal:
            det.push_sample(v)
            assert len(det.buffer.ring) <= BUFFER_CAPACITY

    def test_levels_ordered_after_warmup(self):
        signal, _ = pulse_train(20, fs=FS, snr_db=20.0, seed=4)
        det, _ = run_detector(signal)
        assert det.signal_level >= det.noise_level >= 0.0

    @pytest.mark.parametrize("seed", [1, 4])
    def test_warmup_levels_are_max_and_mean(self, seed):
        # the first two seconds of preprocessed samples set the levels: the
        # signal level to their max, the noise level to their mean
        signal, _ = pulse_train(20, fs=FS, snr_db=20.0, seed=seed)
        det = RPeakDetector(FilterSpec(FS))
        for v in signal[: det.warmup_samples]:
            det.push_sample(v)
        warmup = preprocess(signal, FilterSpec(FS))[: det.warmup_samples]
        assert det.warmup_samples == 720
        assert det.signal_level == warmup.max()
        assert det.noise_level == pytest.approx(warmup.mean(), rel=1e-12)

    def test_noisy_train_f1(self):
        signal, truth = pulse_train(100, bpm=75, fs=FS, snr_db=20.0, seed=1)
        _, hits = run_detector(signal)
        tp, fp, fn = match_detections(hits, truth)
        f1 = 2 * tp / (2 * tp + fp + fn)
        assert f1 >= 0.95

    def test_detected_windows_are_emittable(self):
        signal, _ = pulse_train(8, fs=FS)
        det = RPeakDetector(FilterSpec(FS))
        windows = [beat[1] for beat in map(det.push, signal) if beat is not None]
        assert len(windows) >= 6
        for w in windows:
            assert w.shape == (61,)
            assert (w >= 0).all()


def polled_beats(samples, fs):
    """The loop `RPeakDetector.push` replaces: every sample, every pending
    peak is offered to `emit_window` (the loop perfbench replays)."""
    det = RPeakDetector(FilterSpec(fs))
    pending, beats = [], []
    for v in samples:
        r = det.push_sample(v)
        if r is not None:
            pending.append(r)
        waiting = []
        for r_index in pending:
            window = emit_window(det.buffer, r_index)  # raises WindowLostError on a loss
            if window is None:
                waiting.append(r_index)
            else:
                beats.append((r_index, window))
        pending = waiting
    return beats


@settings(max_examples=25, deadline=None)
@given(
    fs=st.floats(30.5, 1000.0),
    labels=st.lists(st.sampled_from(CLASSES), min_size=1, max_size=20),
    bpm=st.floats(40.0, 200.0),
    snr_db=st.floats(5.0, 40.0),
    seed=st.integers(0, 2**16),
)
@example(fs=31.0, labels=["N"] * 20, bpm=200.0, snr_db=30.0, seed=0)  # several peaks wait at once
def test_push_returns_the_polled_windows(fs, labels, bpm, snr_db, seed):
    samples, _ = labeled_recording(labels, bpm=bpm, fs=fs, snr_db=snr_db, seed=seed)
    det = RPeakDetector(FilterSpec(fs))
    beats = []
    for v in samples:
        beat = det.push(v)
        if beat is not None:
            assert det.buffer.head == beat[0] + WINDOW_HALF
            beats.append(beat)
    expected = polled_beats(samples, fs)
    assert [r for r, _ in beats] == [r for r, _ in expected]
    for (_, window), (_, oracle) in zip(beats, expected):
        assert window.dtype == oracle.dtype and window.tobytes() == oracle.tobytes()
