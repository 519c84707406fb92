import os
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyecg.dsp import FilterSpec, preprocess
from tinyecg.ingest import (
    BeatSet,
    ParseError,
    extract_beats,
    load_annotations,
    load_signal,
    merge,
    split,
)
from tinyecg.labels import AAMI_GROUPS, CLASSES, LABEL_INDEX, SYMBOL_CODE


def write(path, text):
    path.write_text(text)
    return path


def annotations(*pairs):
    """(index, class) pairs as `load_annotations` codes them; class None is -1."""
    rows = [(i, -1 if c is None else LABEL_INDEX[c]) for i, c in pairs]
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


class TestLoadSignal:
    def test_two_samples(self, tmp_path):
        p = write(tmp_path / "s.csv", "0,0.1\n1,0.2\n")
        samples = load_signal(p)
        assert samples.dtype == np.float64
        assert samples == pytest.approx([0.1, 0.2])

    def test_malformed_value_names_line(self, tmp_path):
        p = write(tmp_path / "s.csv", "0,abc\n")
        with pytest.raises(ParseError, match=r"s\.csv:1"):
            load_signal(p)

    def test_empty_file_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv", "")
        with pytest.raises(ParseError, match="no samples"):
            load_signal(p)

    def test_comments_and_crlf(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_bytes(b"# exported record\r\n0,1.0\r\n1,2.0\r\n\r\n")
        assert load_signal(p) == pytest.approx([1.0, 2.0])

    def test_non_monotonic_index_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv", "0,1.0\n0,2.0\n")
        with pytest.raises(ParseError, match="not increasing"):
            load_signal(p)

    def test_index_gap_rejected(self, tmp_path):
        # a skipped index would shift every later annotation by one sample
        p = write(tmp_path / "s.csv", "0,1.0\n1,2.0\n3,3.0\n")
        with pytest.raises(ParseError, match=r"s\.csv:3: .*gap"):
            load_signal(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        p = write(tmp_path / "s.csv", f"# header\n0,1.0\n1,{value}\n2,3.0\n")
        with pytest.raises(ParseError, match=r"s\.csv:3: non-finite"):
            load_signal(p)

    def test_wrong_field_count_rejected(self, tmp_path):
        p = write(tmp_path / "s.csv", "0,1.0,extra\n")
        with pytest.raises(ParseError, match=r"s\.csv:1"):
            load_signal(p)

    def test_sample_count_equals_line_count(self, tmp_path):
        # full-record-sized export: one sample per line, nothing dropped
        n = 650_000
        p = tmp_path / "big.csv"
        with open(p, "w") as fh:
            fh.writelines(f"{i},{(i % 7) * 0.01}\n" for i in range(n))
        assert len(load_signal(p)) == n


class TestLoadAnnotations:
    def test_kept_classes(self, tmp_path):
        p = write(tmp_path / "a.csv", "100,N\n300,V\n")
        anns = load_annotations(p)
        assert anns.dtype == np.int64
        np.testing.assert_array_equal(anns, annotations((100, "N"), (300, "V")))

    def test_paced_and_unknown_map_to_other(self, tmp_path):
        p = write(tmp_path / "a.csv", "250,Q\n260,/\n270,~\n")
        np.testing.assert_array_equal(load_annotations(p)[:, 1], [-1, -1, -1])

    def test_aami_grouping(self, tmp_path):
        p = write(tmp_path / "a.csv", "1,L\n2,R\n3,e\n4,j\n5,A\n6,a\n7,J\n8,S\n9,E\n10,F\n")
        codes = load_annotations(p)[:, 1]
        np.testing.assert_array_equal(codes, [LABEL_INDEX[c] for c in "NNNNSSSSVF"])

    def test_one_row_per_line(self, tmp_path):
        p = write(tmp_path / "a.csv", "# r\n5,N\n5,N\n7,Q\n\n9,V\n")
        assert len(load_annotations(p)) == 4

    def test_comment_only_file_gives_no_rows(self, tmp_path):
        p = write(tmp_path / "a.csv", "# no beats annotated\n\n")
        anns = load_annotations(p)
        assert anns.shape == (0, 2) and anns.dtype == np.int64

    def test_negative_index_rejected(self, tmp_path):
        p = write(tmp_path / "a.csv", "-5,N\n")
        with pytest.raises(ParseError):
            load_annotations(p)

    def test_index_beyond_int64_rejected(self, tmp_path):
        p = write(tmp_path / "a.csv", f"5,N\n{2**63},N\n")
        with pytest.raises(ParseError, match=r"a\.csv:2: .*out of range"):
            load_annotations(p)


class TestSymbolCode:
    def test_every_aami_symbol_codes_its_class(self):
        for cls, symbols in AAMI_GROUPS.items():
            for sym in symbols:
                assert SYMBOL_CODE[sym] == LABEL_INDEX[cls]
        assert len(SYMBOL_CODE) == sum(map(len, AAMI_GROUPS.values()))

    @pytest.mark.parametrize("symbol", list("/fQ~|+x![]\""))
    def test_non_beat_symbols_have_no_code(self, symbol, tmp_path):
        assert symbol not in SYMBOL_CODE
        p = write(tmp_path / "a.csv", f"100,{symbol}\n")
        np.testing.assert_array_equal(load_annotations(p), [[100, -1]])


def reference_extract(stream, anns):
    """The oracle: window each coded annotation in its own loop pass."""
    windows, labels, skipped = [], [], 0
    for idx, code in anns.tolist():
        if code < 0:
            continue
        if idx - 30 < 0 or idx + 30 >= stream.size:
            skipped += 1
            continue
        windows.append(stream[idx - 30 : idx + 31])
        labels.append(code)
    return np.reshape(windows, (-1, 61)), labels, skipped


@st.composite
def recordings(draw):
    """A random-length recording, and annotations that hit the window edges,
    code -1 and repeat indices."""
    n = draw(st.integers(5, 400))  # the derivative needs five samples
    edges = st.sampled_from([i for i in (0, 29, 30, n - 31, n - 30, n - 1, n) if i >= 0])
    rows = draw(st.lists(st.tuples(st.one_of(edges, st.integers(0, n + 40)),
                                   st.integers(-1, 3)), max_size=30))
    rows += rows[: draw(st.integers(0, len(rows)))]
    samples = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(-1, 1, n)
    return samples, np.array(rows, dtype=np.int64).reshape(-1, 2)


class TestExtractBeats:
    def _samples(self, n=200):
        return np.random.default_rng(0).uniform(-1, 1, n)

    def test_window_fits_exactly(self, spec):
        samples = np.random.default_rng(1).uniform(-1, 1, 61)
        out = extract_beats(samples, spec, annotations((30, "N")))
        assert len(out) == 1
        assert out.skipped == 0
        assert out.windows.shape == (1, 61)

    def test_window_underflow_skipped(self, spec):
        samples = np.random.default_rng(1).uniform(-1, 1, 61)
        out = extract_beats(samples, spec, annotations((29, "N")))
        assert len(out) == 0
        assert out.skipped == 1

    def test_window_overflow_skipped(self, spec):
        out = extract_beats(self._samples(100), spec, annotations((70, "V")))
        assert len(out) == 0 and out.skipped == 1

    def test_other_dropped_without_skip(self, spec):
        out = extract_beats(self._samples(), spec, annotations((100, None), (100, "N")))
        assert len(out) == 1 and out.skipped == 0

    def test_windows_match_whole_signal_preprocess(self, spec):
        samples = self._samples(300)
        out = extract_beats(samples, spec, annotations((150, "S")))
        expected = preprocess(samples, spec)[120:181]
        np.testing.assert_allclose(out.windows[0], expected)
        assert (out.windows[0] >= 0).all()
        assert np.isfinite(out.windows).all()

    def test_counts_accounting(self, spec):
        anns = annotations(
            (10, "N"),   # underflow
            (150, "N"),
            (160, "V"),
            (295, "F"),  # overflow
            (200, None),
        )
        out = extract_beats(self._samples(300), spec, anns)
        kept = np.count_nonzero(anns[:, 1] >= 0)
        assert len(out) + out.skipped == kept
        assert out.counts == {"N": 1, "S": 0, "V": 1, "F": 0}

    @given(recordings())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_annotation_loop(self, recording):
        samples, anns = recording
        spec = FilterSpec(360.0)
        windows, labels, skipped = reference_extract(preprocess(samples, spec), anns)
        out = extract_beats(samples, spec, anns)
        np.testing.assert_array_equal(out.windows, windows)
        assert out.labels.dtype == np.int64
        np.testing.assert_array_equal(out.labels, labels)
        assert out.skipped == skipped


def make_beatset(counts, seed=0):
    rng = np.random.default_rng(seed)
    windows, labels = [], []
    for code, n in enumerate(counts):
        for _ in range(n):
            windows.append(rng.uniform(0, 1, 61))
            labels.append(code)
    return BeatSet(np.array(windows).reshape(-1, 61), np.array(labels, dtype=np.int64))


class TestSplit:
    def test_exact_stratification(self):
        beats = make_beatset([10, 10, 10, 10])
        train, test = split(beats, 0.5, seed=0)
        assert train.counts == {c: 5 for c in CLASSES}
        assert test.counts == {c: 5 for c in CLASSES}

    def test_deterministic(self):
        beats = make_beatset([20, 8, 12, 6])
        a_train, a_test = split(beats, 0.7, seed=3)
        b_train, b_test = split(beats, 0.7, seed=3)
        np.testing.assert_array_equal(a_train.windows, b_train.windows)
        np.testing.assert_array_equal(a_test.labels, b_test.labels)

    def test_partition_property(self):
        beats = make_beatset([30, 11, 17, 5], seed=9)
        train, test = split(beats, 0.67, seed=1)
        assert len(train) + len(test) == len(beats)
        # every original window appears exactly once across the two sides
        combined = np.concatenate([train.windows, test.windows])
        assert (
            np.unique(combined, axis=0).shape == np.unique(beats.windows, axis=0).shape
        )
        for c in CLASSES:
            n = beats.counts[c]
            got = train.counts[c]
            assert abs(got - n * 0.67) <= 1

    def test_tiny_class_goes_to_train(self):
        beats = make_beatset([6, 1, 6, 6])
        with pytest.warns(UserWarning, match="class S"):
            train, test = split(beats, 0.5, seed=0)
        assert train.counts["S"] == 1
        assert test.counts["S"] == 0

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_bad_fraction_rejected(self, fraction):
        with pytest.raises(ValueError):
            split(make_beatset([4, 4, 4, 4]), fraction)

    @given(
        st.lists(st.integers(2, 40), min_size=4, max_size=4),
        st.floats(0.1, 0.9),
        st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_partition_invariants(self, counts, fraction, seed):
        beats = make_beatset(counts, seed=1)
        train, test = split(beats, fraction, seed=seed)
        assert len(train) + len(test) == len(beats)
        for code, n in enumerate(counts):
            cls = CLASSES[code]
            assert train.counts[cls] + test.counts[cls] == n
            assert abs(train.counts[cls] - n * fraction) <= 1


@pytest.mark.skipif(
    "TINYECG_MITBIH_BEATS" not in os.environ,
    reason="needs the full 48-record corpus ingested to beats.npz",
)
def test_full_corpus_class_counts():
    # expected totals for the complete standard corpus export
    beats = BeatSet.load(os.environ["TINYECG_MITBIH_BEATS"])
    assert beats.counts == {"N": 90631, "S": 2781, "V": 7236, "F": 803}
    assert len(beats) == 101451


class TestBeatSetRoundTrip:
    def test_save_load(self, tmp_path):
        beats = make_beatset([3, 2, 1, 4])
        beats.skipped = 7
        beats.save(tmp_path / "beats.npz")
        loaded = BeatSet.load(tmp_path / "beats.npz")
        np.testing.assert_array_equal(loaded.windows, beats.windows)
        np.testing.assert_array_equal(loaded.labels, beats.labels)
        assert loaded.skipped == 7
        with zipfile.ZipFile(tmp_path / "beats.npz") as archive:
            assert {m.compress_type for m in archive.infolist()} == {zipfile.ZIP_STORED}

    def test_compressed_file_still_loads(self, tmp_path):
        # beats files saved by earlier versions hold deflated members
        beats = make_beatset([3, 2, 1, 4])
        np.savez_compressed(tmp_path / "old.npz", windows=beats.windows,
                            labels=beats.labels, skipped=7)
        loaded = BeatSet.load(tmp_path / "old.npz")
        assert loaded.windows.tobytes() == beats.windows.tobytes()
        assert loaded.labels.tobytes() == beats.labels.tobytes()
        assert loaded.skipped == 7

    def test_empty_sets_keep_the_window_shape(self, spec):
        singletons = make_beatset([1, 1, 1, 1])
        with pytest.warns(UserWarning):
            _, no_test = split(singletons, 0.5)
        for empty in (extract_beats(np.zeros(61), spec, annotations((10, "N"))), merge([]),
                      no_test):
            assert empty.windows.shape == (0, 61) and empty.windows.dtype == np.float64
            assert empty.labels.shape == (0,) and empty.labels.dtype == np.int64

    def test_merge_accumulates(self):
        a = make_beatset([2, 0, 0, 0])
        b = make_beatset([0, 3, 0, 0], seed=5)
        a.skipped, b.skipped = 1, 2
        both = merge([a, b])
        assert both.counts == {"N": 2, "S": 3, "V": 0, "F": 0}
        assert both.skipped == 3


class TestBeatSetChecks:
    @pytest.mark.parametrize("labels", [np.array([0.7, 3.9]), np.array([[0], [3]]),
                                        np.array([True, False]), []])
    def test_labels_other_than_1d_integers_rejected(self, labels):
        # float codes used to load truncated ([0.7, 3.9] as [0, 3]) and a
        # (2, 1) array flattened, both without a word
        with pytest.raises(ValueError, match="labels must be a 1-D integer array"):
            BeatSet(np.zeros((len(labels), 61)), labels)

    @pytest.mark.parametrize("skipped", [-3, 2.7, np.array([1, 2]), True])
    def test_skipped_other_than_a_non_negative_integer_rejected(self, skipped):
        # -3 used to load and print "(skipped -3 ...)", and 2.7 became 2
        with pytest.raises(ValueError, match="skipped must be a non-negative integer"):
            BeatSet(np.zeros((2, 61)), np.array([0, 1]), skipped)

    def test_integer_skipped_kept_as_int(self):
        beats = BeatSet(np.zeros((2, 61)), np.array([0, 1], np.int32), np.int64(4))
        assert type(beats.skipped) is int and beats.skipped == 4
        assert beats.labels.dtype == np.int64

    def test_label_codes_outside_the_classes_rejected(self):
        # such beats used to count in `len` but in no class, and `split`
        # dropped them without a word
        with pytest.raises(ValueError, match="label codes outside 0-3"):
            BeatSet(np.zeros((6, 61)), [0, 0, 1, 1, 7, -1])

    @pytest.mark.parametrize("shape", [(61, 2), (2, 61, 1), (122,), (2, 60)])
    def test_windows_of_another_shape_rejected(self, shape):
        # a (61, 2) array used to be reshaped into two scrambled beats
        with pytest.raises(ValueError, match=r"must be \(n, 61\)"):
            BeatSet(np.zeros(shape), [0, 1])

    @pytest.mark.parametrize("dtype", ["M8[D]", "m8[s]", bool, [("mv", "f8")], complex])
    def test_windows_other_than_real_numbers_rejected(self, dtype):
        # datetime, timedelta, bool and single-field structured windows used
        # to be cast to float64 without a word, and complex ones lost their
        # imaginary part under only a ComplexWarning
        with pytest.raises(ValueError, match="beat windows must be real numbers"):
            BeatSet(np.ones((2, 61), dtype), [0, 1])

    @pytest.mark.parametrize("dtype", [np.float32, np.int16, np.uint8])
    def test_real_windows_stored_as_float64(self, dtype):
        beats = BeatSet(np.ones((2, 61), dtype), [0, 1])
        assert beats.windows.dtype == np.float64 and (beats.windows == 1.0).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_windows_rejected(self, bad):
        windows = np.zeros((2, 61))
        windows[1, 30] = bad
        with pytest.raises(ValueError, match="non-finite"):
            BeatSet(windows, [0, 1])
