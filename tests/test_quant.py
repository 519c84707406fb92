import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tinyecg.dsp import FilterSpec
from tinyecg.nn import (
    VARIANTS,
    dense,
    forward,
    layers,
    predict_labels,
    relu,
    sigmoid,
    softmax,
    standard_model,
)
from tinyecg.qrs import RPeakDetector
from tinyecg.quant import (
    BYTES_PER_SAMPLE,
    DegenerateRangeError,
    QuantParams,
    QuantizedModel,
    _temporary_layer,
    compute_qparams,
    dequantize,
    dequantize_model,
    flops_report,
    format_cost_report,
    forward_quantized_only,
    forward_temporary_dequantized,
    kernel_flops_report,
    memory_report,
    memory_report_from_shapes,
    predict_labels_quantized,
    quantize,
    quantize_model,
)

# Regression fixture from the reference sigmoid-sigmoid checkpoint: its
# largest parameter magnitude and four recorded code/value trips.
REFERENCE_MAX_ABS = 64.74442
REFERENCE_SCALE = 2 * REFERENCE_MAX_ABS / 254
REFERENCE_TRIPS = [
    # (real value, int8 code, dequantized value)
    (-56.74, -111, -56.59),
    (-1.58, -3, -1.53),
    (14.58, 29, 14.78),
    (-17.0, -33, -16.82),
]


def reference_qparams():
    return QuantParams(
        scale=REFERENCE_SCALE,
        zero_point=0,
        alpha=-REFERENCE_MAX_ABS,
        beta=REFERENCE_MAX_ABS,
        mode="symmetric",
    )


def model_with_params(values, variant="sigmoid-sigmoid"):
    """61->10->4 model whose first weights are `values`, rest tiny."""
    model = standard_model(variant, seed=0)
    for p in model.parameters:
        p *= 1e-3
    flat = model.w1.ravel()
    flat[: len(values)] = values
    return model


class TestComputeQparams:
    def test_reference_scale(self):
        model = model_with_params([REFERENCE_MAX_ABS, -12.0])
        q = compute_qparams(model, "symmetric")
        assert q.scale == pytest.approx(0.509799, abs=1e-6)
        assert q.zero_point == 0
        assert q.beta == REFERENCE_MAX_ABS and q.alpha == -REFERENCE_MAX_ABS

    def test_unit_range(self):
        model = model_with_params([1.0, -1.0, 0.3])
        q = compute_qparams(model, "symmetric")
        assert q.scale == pytest.approx(2 / 254)

    def test_asymmetric_zero_point(self):
        # params in [0, 10]: code -127 must dequantize back to 0.0
        model = model_with_params([10.0, 5.0])
        model.w1[:] = np.abs(model.w1)
        for p in model.parameters:
            p[...] = np.abs(p)
        q = compute_qparams(model, "asymmetric")
        assert q.scale == pytest.approx(10 / 254)
        assert q.zero_point == 127
        assert quantize(0.0, q) == -127
        assert dequantize(quantize(0.0, q), q) == pytest.approx(0.0)
        assert dequantize(quantize(10.0, q), q) == pytest.approx(10.0, abs=q.scale / 2)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="scale"):
            QuantParams(scale=scale, zero_point=0, alpha=-1.0, beta=1.0, mode="symmetric")

    def test_all_zero_model_rejected(self):
        model = standard_model("relu-sigmoid")
        for p in model.parameters:
            p[...] = 0.0
        with pytest.raises(DegenerateRangeError):
            compute_qparams(model)


class TestQuantizeDequantize:
    @pytest.mark.parametrize("x,code,approx", REFERENCE_TRIPS)
    def test_reference_trips(self, x, code, approx):
        q = reference_qparams()
        assert quantize(x, q) == code
        assert dequantize(code, q) == pytest.approx(approx, abs=0.01)

    def test_zero_maps_to_zero_exactly(self):
        q = reference_qparams()
        assert quantize(0.0, q) == 0
        assert dequantize(0, q) == 0.0

    def test_half_away_rounding(self):
        q = QuantParams(scale=1.0, zero_point=0, alpha=-127, beta=127, mode="symmetric")
        assert quantize(0.5, q) == 1
        assert quantize(-0.5, q) == -1
        assert quantize(1.5, q) == 2
        assert quantize(-2.5, q) == -3

    def test_clamping(self):
        q = QuantParams(scale=1.0, zero_point=0, alpha=-127, beta=127, mode="symmetric")
        assert quantize(500.0, q) == 127
        assert quantize(-500.0, q) == -127

    @given(st.floats(-64.74442, 64.74442, allow_nan=False))
    def test_roundtrip_bound(self, x):
        q = reference_qparams()
        assert abs(x - dequantize(quantize(x, q), q)) <= q.scale / 2

    @given(
        st.floats(-200, 200, allow_nan=False),
        st.floats(-200, 200, allow_nan=False),
    )
    def test_monotonic(self, x, y):
        q = reference_qparams()
        lo, hi = min(x, y), max(x, y)
        assert quantize(lo, q) <= quantize(hi, q)

    @given(st.floats(0.0, 1.0, allow_nan=False))
    def test_asymmetric_roundtrip_bound(self, frac):
        # skewed clip range [-2, 10]: zero point is nonzero, yet every
        # in-range value must still come back within half a step
        alpha, beta = -2.0, 10.0
        scale = (beta - alpha) / 254
        q = QuantParams(scale=scale, zero_point=round(alpha / scale) + 127,
                        alpha=alpha, beta=beta, mode="asymmetric")
        x = alpha + frac * (beta - alpha)
        assert abs(x - dequantize(quantize(x, q), q)) <= q.scale / 2 + 1e-12
        assert quantize(alpha, q) == -127
        assert quantize(beta, q) == 127

    def test_vectorized(self):
        q = reference_qparams()
        xs = np.array([-56.74, -1.58, 14.58, -17.0])
        np.testing.assert_array_equal(quantize(xs, q), [-111, -3, 29, -33])
        assert quantize(xs, q).dtype == np.int8


class TestQuantizeModel:
    def test_param_count_preserved(self):
        qm = quantize_model(standard_model("sigmoid-sigmoid", seed=1))
        assert qm.param_count == 664
        assert [w.shape for w in (qm.w1, qm.w2)] == [(61, 10), (10, 4)]

    def test_roundtrip_bound_every_parameter(self):
        model = standard_model("sigmoid-softmax", seed=2)
        model.w1 *= 30  # widen the range
        qm = quantize_model(model)
        s = qm.qparams.scale
        back = dequantize_model(qm)
        for orig, rec in zip(model.parameters, back.parameters):
            assert np.max(np.abs(orig - rec)) <= s / 2 + 1e-12

    def test_code_below_minimum_rejected(self):
        w1 = np.zeros((61, 10), dtype=np.int8)
        w1[0, 0] = -128  # representable in int8 but outside the code range
        with pytest.raises(ValueError, match="below"):
            QuantizedModel(
                w1, np.zeros(10), np.zeros((10, 4)), np.zeros(4),
                reference_qparams(), "sigmoid-sigmoid",
            )

    @pytest.mark.parametrize(
        "w2,b2,message",
        [(np.zeros((9, 4)), np.zeros(4), "widths disagree: 10 vs 9"),
         (np.zeros((10, 4)), np.zeros(3), "inconsistent layer shapes")],
        ids=["hidden-width", "bias-length"],
    )
    def test_inconsistent_shapes_rejected(self, w2, b2, message):
        # the int8 model runs the float model's shape checks
        with pytest.raises(ValueError, match=message):
            QuantizedModel(
                np.zeros((61, 10)), np.zeros(10), w2, b2,
                reference_qparams(), "sigmoid-sigmoid",
            )

    def test_exact_zeros_stored_as_zero(self):
        model = standard_model("sigmoid-sigmoid", seed=3)
        model.w1[0, :] = 0.0
        qm = quantize_model(model, "symmetric")
        assert (qm.w1[0, :] == 0).all()

    def test_symmetric_beats_asymmetric_quantized_only(self):
        # directional property: with raw int8 codes as weights, a nonzero
        # zero point shifts every code (real 0.0 no longer stored as 0)
        # and accuracy drops; the zero-preserving symmetric mapping holds up
        from tinyecg.synthetic import separable_beatset
        from tinyecg.train import TrainConfig, fit

        beats = separable_beatset(100, seed=5)
        model, _ = fit(
            beats, None, TrainConfig(epochs=600, variant="sigmoid-softmax", seed=5)
        )
        for p in model.parameters:
            p[p > 0] *= 0.5  # skew the trained range so asymmetric z != 0
        sym = quantize_model(model, "symmetric")
        asym = quantize_model(model, "asymmetric")
        assert sym.qparams.zero_point == 0
        assert asym.qparams.zero_point != 0
        acc_sym = np.mean(
            predict_labels_quantized(sym, beats.windows, temporary=False) == beats.labels
        )
        acc_asym = np.mean(
            predict_labels_quantized(asym, beats.windows, temporary=False) == beats.labels
        )
        assert acc_sym - acc_asym >= 0.1


class TestForwardTemporaryDequantized:
    def test_zero_model(self):
        qm = QuantizedModel(
            np.zeros((61, 10)), np.zeros(10), np.zeros((10, 4)), np.zeros(4),
            reference_qparams(), "sigmoid-sigmoid",
        )
        out = forward_temporary_dequantized(qm, np.zeros(61))
        assert out == pytest.approx([0.5] * 4)

    @pytest.mark.parametrize("variant", ["sigmoid-sigmoid", "relu-softmax"])
    def test_matches_fully_dequantized_oracle(self, variant, rng):
        for trial in range(20):
            qm = random_qmodel(rng, variant)
            beat = rng.uniform(0, 2, 61)
            got = forward_temporary_dequantized(qm, beat)
            oracle = forward(dequantize_model(qm), beat)
            np.testing.assert_allclose(got, oracle, atol=1e-6)

    def test_asymmetric_also_matches(self, rng):
        model = standard_model("relu-sigmoid", seed=9)
        model.b2 += 1.5
        qm = quantize_model(model, "asymmetric")
        beat = rng.uniform(0, 1, 61)
        np.testing.assert_allclose(
            forward_temporary_dequantized(qm, beat),
            forward(dequantize_model(qm), beat),
            atol=1e-6,
        )

    def test_shape_mismatch_rejected(self, rng):
        qm = random_qmodel(rng)
        with pytest.raises(ValueError):
            forward_temporary_dequantized(qm, np.zeros(60))

    @settings(deadline=None)
    @given(
        variant=st.sampled_from(sorted(VARIANTS)),
        zero_point=st.integers(-254, 254),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(variant="relu-softmax", zero_point=254, seed=0)
    @example(variant="relu-sigmoid", zero_point=-254, seed=0)
    def test_factored_kernel_matches_dequantized_values(self, variant, zero_point, seed):
        # rescaling once per output neuron, with the zero-point term
        # s*z*(sum(x) + 1), gives the per-parameter dequantized values,
        # and so does the deployed per-parameter route, `numpy_scalar_layer`.
        # The pre-activations are compared too, since a saturated sigmoid
        # hides their differences in the outputs; they reach about 5e7
        # here, so their bound is relative.
        rng = np.random.default_rng(seed)
        qm = random_qmodel(rng, variant, zero_point)
        beat = rng.uniform(0, 2, 61)
        dequantized = dequantize_model(qm)
        expected = forward(dequantized, beat)
        for got in (
            forward_temporary_dequantized(qm, beat),
            forward(qm, beat, numpy_scalar_layer, qm.qparams),
        ):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)
        for kernel in (_temporary_layer, numpy_scalar_layer):
            for (z, _), (z_ref, _) in zip(layers(qm, beat, kernel, qm.qparams),
                                          layers(dequantized, beat)):
                np.testing.assert_allclose(z, z_ref, rtol=1e-9, atol=1e-9)


class TestWalkRecord:
    @settings(deadline=None)
    @given(
        variant=st.sampled_from(sorted(VARIANTS)),
        route=st.sampled_from(["float", "codes", "factored", "per-parameter"]),
        zero_point=st.sampled_from([0, 254, -254]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_layer_is_its_activation_of_its_affine_map(
        self, variant, route, zero_point, seed
    ):
        # the walk records (z, a) per layer in every inference route: a is
        # the variant's activation of z, bit for bit, and the last a is
        # what `forward` returns
        rng = np.random.default_rng(seed)
        qm = random_qmodel(rng, variant, zero_point)
        model, kernel, args = {
            "float": (dequantize_model(qm), dense, ()),
            "codes": (qm, dense, ()),
            "factored": (qm, _temporary_layer, (qm.qparams,)),
            "per-parameter": (qm, numpy_scalar_layer, (qm.qparams,)),
        }[route]
        beat = rng.uniform(0, 2, 61)
        walk = layers(model, beat, kernel, *args)
        assert len(walk) == 2
        act = {"sigmoid": sigmoid, "relu": relu, "softmax": softmax}
        for (z, a), activation in zip(walk, VARIANTS[variant]):
            np.testing.assert_array_equal(a, act[activation](z))
        np.testing.assert_array_equal(walk[-1][1], forward(model, beat, kernel, *args))


def random_qmodel(rng, variant="sigmoid-sigmoid", zero_point=0) -> QuantizedModel:
    q = QuantParams(
        scale=float(rng.uniform(0.01, 1.0)),
        zero_point=zero_point,
        alpha=-10.0,
        beta=10.0,
        mode="symmetric" if zero_point == 0 else "asymmetric",
    )
    ints = lambda shape: rng.integers(-127, 128, size=shape).astype(np.int8)
    return QuantizedModel(
        ints((61, 10)), ints(10), ints((10, 4)), ints(4), q, variant
    )


class TestPredictLabels:
    @settings(deadline=None)
    @given(
        variant=st.sampled_from(sorted(VARIANTS)),
        zero_point=st.one_of(st.just(0), st.integers(-254, 254).filter(bool)),
        n_beats=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(variant="relu-softmax", zero_point=0, n_beats=0, seed=0)
    @example(variant="sigmoid-sigmoid", zero_point=37, n_beats=0, seed=0)
    # beat 22 is an exact two-way tie that the kernels break differently
    @example(variant="sigmoid-softmax", zero_point=0, n_beats=23, seed=7997)
    def test_match_per_beat_argmax(self, variant, zero_point, n_beats, seed):
        # labels for an array of windows equal each beat's argmax of the
        # same route in every mode, and no beats gives no labels, not an
        # error; tdq labels are the stream's per-beat labels on every beat,
        # ties included. Across routes (the factored kernel, the
        # dequantized float model) outputs agree only up to rounding, so
        # labels are compared only where the factored top two are > 1e-8
        # apart.
        rng = np.random.default_rng(seed)
        qm = random_qmodel(rng, variant, zero_point)
        model = dequantize_model(qm)
        windows = rng.uniform(0, 2, (n_beats, 61))

        def outputs(forward_fn, m, *args):
            return np.array([forward_fn(m, w, *args) for w in windows]).reshape(n_beats, 4)

        default = predict_labels(model, windows)
        tdq = predict_labels_quantized(qm, windows, temporary=True)
        quantized = predict_labels_quantized(qm, windows, temporary=False)
        for labels in (default, tdq, quantized):
            assert labels.dtype == np.int64 and labels.shape == (n_beats,)
        factored = outputs(forward_temporary_dequantized, qm)
        np.testing.assert_array_equal(default, outputs(forward, model).argmax(axis=1))
        np.testing.assert_array_equal(tdq, factored.argmax(axis=1))
        np.testing.assert_array_equal(
            quantized, outputs(forward_quantized_only, qm).argmax(axis=1)
        )
        top_two = np.sort(factored, axis=1)[:, -2:]
        clear = top_two[:, 1] - top_two[:, 0] > 1e-8
        np.testing.assert_array_equal(tdq[clear], default[clear])

    def test_seed_7997_tie_labels_as_the_stream(self):
        # on this exact N/S tie the deployed per-parameter route says S and
        # the factored kernel N; eval gives the stream's label
        qm, beat = seed_7997_tie()
        assert np.argmax(forward(qm, beat, numpy_scalar_layer, qm.qparams)) == 1
        stream_label = np.argmax(forward_temporary_dequantized(qm, beat))
        assert stream_label == 0
        labels = predict_labels_quantized(qm, [beat], temporary=True)
        np.testing.assert_array_equal(labels, [stream_label])


class TestBatchWalk:
    @settings(deadline=None)
    @given(
        variant=st.sampled_from(sorted(VARIANTS)),
        zero_point=st.one_of(st.just(0), st.integers(-254, 254).filter(bool)),
        n_beats=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(variant="sigmoid-softmax", zero_point=0, n_beats=23, seed=7997)
    @example(variant="sigmoid-softmax", zero_point=0, n_beats=30, seed=1751)
    @example(variant="relu-sigmoid", zero_point=-254, n_beats=30, seed=0)
    def test_batch_rows_equal_single_beats(self, variant, zero_point, n_beats, seed):
        # one walk serves a beat and a batch, in every mode. Each row of a
        # 2-D batch, the walk training runs, is that beat's own forward up
        # to summation order (numpy's matrix-matrix and matrix-vector
        # products add in different orders; 1e-12 failed for about 1 in
        # 2,600 draws, 1e-11 for none of 45,000). The labels of
        # `predict_labels*` are the per-beat argmax on every beat, ties
        # included, as the stream labels them
        rng = np.random.default_rng(seed)
        qm = random_qmodel(rng, variant, zero_point)
        model = dequantize_model(qm)
        windows = rng.uniform(0, 2, (n_beats, 61))
        for forward_fn, m, labels in (
            (forward, model, predict_labels(model, windows)),
            (forward_temporary_dequantized, qm,
             predict_labels_quantized(qm, windows, temporary=True)),
            (forward_quantized_only, qm, predict_labels_quantized(qm, windows, temporary=False)),
        ):
            batch = forward_fn(m, windows)
            per_beat = np.array([forward_fn(m, w) for w in windows]).reshape(n_beats, 4)
            assert batch.shape == (n_beats, 4)
            np.testing.assert_allclose(batch, per_beat, rtol=0, atol=1e-11)
            np.testing.assert_array_equal(labels, per_beat.argmax(axis=1))

    @settings(deadline=None)
    @given(
        variant=st.sampled_from(sorted(VARIANTS)),
        zero_point=st.one_of(st.just(0), st.integers(-254, 254).filter(bool)),
        n_beats=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(variant="sigmoid-softmax", zero_point=0, n_beats=23, seed=7997)
    @example(variant="sigmoid-softmax", zero_point=0, n_beats=30, seed=1751)
    @example(variant="relu-softmax", zero_point=201, n_beats=30, seed=0)
    def test_stacked_rows_are_per_beat_rows_bit_for_bit(self, variant, zero_point, n_beats,
                                                         seed):
        # the stack (n, 1, 61) that `predict_labels` walks runs each row as
        # the one-beat call's vector-matrix product: its rows are the
        # per-beat rows byte for byte in every mode, for windows taken as
        # slices of one array and for freshly allocated ones, as the stream
        # hands its kernel
        rng = np.random.default_rng(seed)
        qm = random_qmodel(rng, variant, zero_point)
        model = dequantize_model(qm)
        windows = rng.uniform(0, 2, (n_beats, 61))
        for forward_fn, m in (
            (forward, model),
            (forward_temporary_dequantized, qm),
            (forward_quantized_only, qm),
        ):
            stacked = forward_fn(m, windows[:, None, :])
            assert stacked.shape == (n_beats, 1, 4)
            for i, window in enumerate(windows):
                for beat in (window, np.array(list(window))):
                    assert stacked[i, 0].tobytes() == forward_fn(m, beat).tobytes()


def numpy_scalar_layer(x, w_q, b_q, q: QuantParams) -> np.ndarray:
    """The deployed kernel's per-parameter route on numpy scalars, the
    reference the factored kernel is compared with: each parameter is
    dequantized at its use and summed by `+=` in ascending k, as on the
    device."""
    fan_in, fan_out = w_q.shape
    s, z = q.scale, q.zero_point
    result = np.zeros(fan_out)
    for j in range(fan_out):
        acc = 0.0
        for k in range(fan_in):
            acc += x[k] * (s * (float(w_q[k, j]) + z))  # dequantized here, then dropped
        result[j] = acc + s * (float(b_q[j]) + z)
    return result


def seed_7997_tie():
    """`TestPredictLabels`' pinned beat: an exact two-way N/S tie."""
    rng = np.random.default_rng(7997)
    qm = random_qmodel(rng, "sigmoid-softmax", 0)
    return qm, rng.uniform(0, 2, (23, 61))[22]


class TestForwardQuantizedOnly:
    def test_codes_used_verbatim(self):
        # one unit weight on input 0, everything else zero: the raw code
        # value must appear unscaled in the preactivation
        w1 = np.zeros((61, 10), dtype=np.int8)
        w1[0, 0] = 50
        qm = QuantizedModel(
            w1, np.zeros(10), np.zeros((10, 4)), np.zeros(4),
            reference_qparams(), "relu-sigmoid",
        )
        beat = np.zeros(61)
        beat[0] = 1.0
        # hidden = relu([50, 0, ...]); output = sigmoid(0) = 0.5
        out = forward_quantized_only(qm, beat)
        assert out == pytest.approx([0.5] * 4)
        hidden_probe = QuantizedModel(
            w1, np.zeros(10), np.zeros((10, 4)), np.zeros(4),
            reference_qparams(), "relu-softmax",
        )
        assert forward_quantized_only(hidden_probe, beat) == pytest.approx([0.25] * 4)

    def test_zero_codes_match_zero_model(self, rng):
        qm = QuantizedModel(
            np.zeros((61, 10)), np.zeros(10), np.zeros((10, 4)), np.zeros(4),
            reference_qparams(), "sigmoid-sigmoid",
        )
        beat = rng.uniform(0, 1, 61)
        assert forward_quantized_only(qm, beat) == pytest.approx([0.5] * 4)


class TestCostReports:
    def test_flops_exact(self):
        report = flops_report([(61, 10), (10, 4)])
        assert report.layers == ((61, 10, 1230), (10, 4, 84))
        assert report.total == 1314

    def test_memory_exact(self, rng):
        report = memory_report(random_qmodel(rng))
        assert report.model_param_bytes == 664
        assert report.temp_dequant_bytes == 3
        assert report.temp_dequant_bytes_actual == 4
        assert report.model_bytes == 667
        assert report.buffer_bytes == 600
        assert report.total_bytes == 1267
        assert report.budget_bytes == 2048
        assert not report.over_budget

    def test_buffer_booked_is_the_detectors(self, rng):
        # the ledger and the streaming detector read one buffer size
        detector = RPeakDetector(FilterSpec(360.0))
        report = memory_report(random_qmodel(rng))
        assert report.buffer_bytes == detector.buffer.ring.maxlen * BYTES_PER_SAMPLE

    def test_over_budget_flagged(self):
        report = memory_report_from_shapes([(61, 128), (128, 64), (64, 4)])
        assert report.over_budget

    def test_kernel_flops_exact(self):
        # one rescale per output neuron on top of the booked count; a
        # nonzero zero point adds sum(x), its + 1, the product with z and
        # one add per output neuron
        shapes = [(61, 10), (10, 4)]
        symmetric = kernel_flops_report(shapes, 0)
        assert symmetric.layers == ((61, 10, 1240), (10, 4, 88))
        assert symmetric.total == 1328
        asymmetric = kernel_flops_report(shapes, 37)
        assert asymmetric.layers == ((61, 10, 1312), (10, 4, 103))
        assert asymmetric.total == 1415

    def test_report_text_contains_totals(self, rng):
        qm = random_qmodel(rng)
        text = format_cost_report(
            flops_report(qm.shapes), memory_report(qm), kernel_flops_report(qm.shapes, 0)
        )
        for token in ("1230", "84", "1314", "664", "667", "600", "1267", "2048"):
            assert token in text
        for token in ("1240", "88", "1328", "really takes 4"):
            assert token in text
        # each layer row ends with its parameter bytes, fan_in * fan_out + fan_out
        assert [int(row.split()[-1]) for row in text.splitlines()[1:3]] == [620, 44]
