import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tinyecg.labels import CLASSES
from tinyecg.modelio import load_model, load_qmodel, save_model, save_qmodel
from tinyecg.nn import (
    LAYER_SHAPES,
    VARIANTS,
    DenseModel,
    dense,
    flat_size,
    forward,
    glorot_init,
    predict_labels,
    relu,
    sigmoid,
    softmax,
    standard_model,
    unflatten,
)
from tinyecg.quant import _temporary_layer, dequantize_model, quantize_model
from tinyecg.synthetic import separable_beatset
from tinyecg.train import TrainConfig, distill, fit, prune_and_retrain

finite_vectors = st.lists(
    st.floats(-50, 50, allow_nan=False), min_size=1, max_size=10
).map(np.array)


def reference_forward(model, beat):
    """Independent oracle: plain Python loops and math.exp, no numpy path."""

    def act(name, vec):
        if name == "sigmoid":
            return [1.0 / (1.0 + math.exp(-v)) if v >= 0
                    else math.exp(v) / (1.0 + math.exp(v)) for v in vec]
        if name == "relu":
            return [max(0.0, v) for v in vec]
        m = max(vec)
        exps = [math.exp(v - m) for v in vec]
        total = sum(exps)
        return [e / total for e in exps]

    x = [float(v) for v in beat]
    for (w, b), activation in zip(((model.w1, model.b1), (model.w2, model.b2)),
                                  VARIANTS[model.variant]):
        fan_in, fan_out = w.shape
        z = []
        for j in range(fan_out):
            acc = float(b[j])
            for k in range(fan_in):
                acc += x[k] * float(w[k, j])
            z.append(acc)
        x = act(activation, z)
    return np.array(x)


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid([0.0]) == pytest.approx([0.5])

    def test_log3_is_three_quarters(self):
        # 1 / (1 + e^(-ln 3)) = 3/4
        assert sigmoid([math.log(3.0)]) == pytest.approx([0.75])

    def test_extreme_negative_no_overflow(self):
        out = sigmoid([-1000.0])
        assert 0.0 <= out[0] < 1e-300

    def test_extreme_positive_no_overflow(self):
        assert sigmoid([1000.0]) == pytest.approx([1.0])

    @given(st.lists(st.floats(-36, 36, allow_nan=False), min_size=1, max_size=10))
    def test_open_unit_interval(self, z):
        # float64 saturates to exactly 0/1 past |z| ~ 36.7; test inside that
        out = sigmoid(np.array(z))
        assert ((out > 0) & (out < 1)).all()

    @given(arrays(np.float64, array_shapes(min_dims=0, max_dims=3, max_side=12)))
    @example(np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0,
                       1e-320, -1e-320, 710.0, -710.0]))
    def test_bits_equal_masked_branches(self, z):
        # the two branches chosen with boolean masks, element by element
        ref = np.empty_like(z)
        pos = z >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        ref[~pos] = ez / (1.0 + ez)
        out = sigmoid(z)
        assert out.shape == z.shape
        np.testing.assert_array_equal(out.view(np.uint64), ref.view(np.uint64))


class TestRelu:
    @pytest.mark.parametrize("z,expected", [([-3.0], [0.0]), ([5.0], [5.0]),
                                            ([-1.0, 0.0, 2.0], [0.0, 0.0, 2.0])])
    def test_examples(self, z, expected):
        assert relu(z) == pytest.approx(expected)

    @given(finite_vectors)
    def test_nonnegative_and_idempotent(self, z):
        out = relu(z)
        assert (out >= 0).all()
        np.testing.assert_array_equal(relu(out), out)


class TestSoftmax:
    def test_uniform_for_equal_inputs(self):
        assert softmax([3.3, 3.3, 3.3, 3.3]) == pytest.approx([0.25] * 4)

    def test_log2_example(self):
        # e^(ln 2) / (e^(ln 2) + 1) = 2/3
        assert softmax([math.log(2.0), 0.0]) == pytest.approx([2 / 3, 1 / 3])

    def test_saturation_without_overflow(self):
        out = softmax([1000.0, 0.0])
        assert out == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax([])

    @pytest.mark.parametrize("shape", [(3, 0), ()])
    def test_no_classes_rejected(self, shape):
        with pytest.raises(ValueError, match="class"):
            softmax(np.zeros(shape))

    def test_empty_batch_accepted(self):
        # a batch of no rows has nothing to normalize, not no classes
        out = softmax(np.empty((0, 4)))
        assert out.shape == (0, 4)

    @given(finite_vectors)
    def test_sums_to_one(self, z):
        assert float(np.sum(softmax(z))) == pytest.approx(1.0, abs=1e-9)

    @given(st.integers(1, 12), st.sampled_from([(), (1,), (9,), (2, 3)]), st.data())
    def test_matches_two_pass_form(self, width, lead, data):
        # exact below 8 classes, where numpy sums the class axis left to
        # right as the whole-row adds do; pairwise from 8 up
        z = data.draw(arrays(np.float64, lead + (width,),
                             elements=st.floats(-700, 700, allow_subnormal=True)))
        e = np.exp(z - np.max(z, axis=-1, keepdims=True))
        ref = e / np.sum(e, axis=-1, keepdims=True)
        out = softmax(z)
        assert out.shape == z.shape and out.flags.c_contiguous
        if width < 8:
            np.testing.assert_array_equal(out, ref)
        else:
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-15)

    @given(finite_vectors, st.randoms(use_true_random=False))
    def test_permutation_equivariant(self, z, rnd):
        perm = list(range(len(z)))
        rnd.shuffle(perm)
        np.testing.assert_allclose(softmax(z)[perm], softmax(z[perm]), atol=1e-12)


class TestLayerForward:
    def test_zero_input_sigmoid(self):
        assert sigmoid(dense(np.zeros(3), np.zeros((3, 2)), np.zeros(2))) == pytest.approx(
            [0.5, 0.5]
        )

    def test_identity_relu(self):
        out = relu(dense(np.array([7.0]), np.array([[1.0]]), np.array([0.0])))
        assert out == pytest.approx([7.0])

    def test_hand_computed_2x2(self):
        # z = x @ W + b with x=[1,-1], W=[[1,2],[3,4]], b=[0.5,-0.5]
        #   z = [1-3+0.5, 2-4-0.5] = [-1.5, -2.5]
        w, b = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.5, -0.5])
        expected = [1 / (1 + math.exp(1.5)), 1 / (1 + math.exp(2.5))]
        assert sigmoid(dense(np.array([1.0, -1.0]), w, b)) == pytest.approx(expected)

    def test_shape_mismatch_rejected(self):
        model = DenseModel(
            np.zeros((3, 2)), np.zeros(2),
            np.zeros((2, 2)), np.zeros(2),
            "relu-sigmoid",
        )
        with pytest.raises(ValueError, match="shape"):
            forward(model, np.zeros(4))

    @pytest.mark.parametrize("shape", [(), (2, 3, 3), (5, 4), (3, 1), (0, 2)])
    def test_bad_batch_shapes_rejected(self, shape):
        # neither a beat (fan_in,), a batch (n, fan_in) nor a stack (n, 1, fan_in)
        model = DenseModel(np.zeros((3, 2)), np.zeros(2), np.zeros((2, 2)), np.zeros(2),
                           "relu-sigmoid")
        with pytest.raises(ValueError, match="shape"):
            forward(model, np.zeros(shape))

    @given(shape=array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4))
    @example(shape=())
    @example(shape=(2, 3, 3))
    @example(shape=(2, 1, 4))
    @example(shape=(0, 1, 2))
    @example(shape=(2, 1, 1, 3))
    @example(shape=(4, 1, 3))
    @example(shape=(0, 1, 3))
    def test_only_beat_batch_and_stack_shapes_walk(self, shape):
        # one beat (fan_in,), a batch (n, fan_in) or a stack (n, 1, fan_in),
        # nothing else; each is walked to its own shape with fan_out last
        model = DenseModel(np.zeros((3, 2)), np.zeros(2), np.zeros((2, 2)), np.zeros(2),
                           "relu-sigmoid")
        n = shape[:1]
        if shape in ((3,), n + (3,), n + (1, 3)):
            assert forward(model, np.zeros(shape)).shape == shape[:-1] + (2,)
        else:
            with pytest.raises(ValueError, match=re.escape(str(shape))):
                forward(model, np.zeros(shape))

    def test_batch_of_one_is_the_beat(self):
        model = standard_model("sigmoid-softmax", seed=2)
        beat = np.linspace(0, 1, 61)
        out = forward(model, beat[None, :])
        assert out.shape == (1, 4)
        np.testing.assert_allclose(out[0], forward(model, beat), rtol=0, atol=1e-12)

    def test_walker_applies_the_variant_activations(self):
        # the variant alone names each layer's activation: a kernel that
        # records its calls sees them in layer order, with the live pairs
        # and no activation, and the walker applies the variant's
        # activation to what the kernel returns
        model = standard_model("relu-softmax", seed=3)
        seen = []

        def kernel(x, w, b, *args):
            z = dense(x, w, b)
            seen.append((w is model.w1 or w is model.w2, args, x, z))
            return z

        out = forward(model, np.ones(61), kernel, "t")
        assert [(live, args) for live, args, _, _ in seen] == [(True, ("t",)), (True, ("t",))]
        (_, _, _, z1), (_, _, a1, z2) = seen
        np.testing.assert_array_equal(a1, relu(z1))
        np.testing.assert_array_equal(out, softmax(z2))
        np.testing.assert_array_equal(out, forward(model, np.ones(61)))


class TestDenseModel:
    def test_standard_shapes_and_count(self):
        model = standard_model("sigmoid-sigmoid")
        assert model.shapes == [(61, 10), (10, 4)]
        assert model.param_count == 664

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            DenseModel(
                np.zeros((2, 2)), np.zeros(2),
                np.zeros((2, 2)), np.zeros(2),
                "relu-relu",
            )

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="widths"):
            DenseModel(
                np.zeros((4, 3)), np.zeros(3),
                np.zeros((2, 2)), np.zeros(2),
                "relu-sigmoid",
            )


def _saved_and_loaded(model, tmp_path, save, load):
    save(model, tmp_path / "model.bin")
    return load(tmp_path / "model.bin")


TINY_CONFIG = TrainConfig(epochs=3, seed=0)
# every way a model is made, from a trained 61-10-4 `m` and a small beat set
CONSTRUCTION_ROUTES = {
    "DenseModel": lambda m, beats, tmp: DenseModel(m.w1, m.b1, m.w2, m.b2, m.variant),
    "glorot_init": lambda m, beats, tmp: glorot_init(LAYER_SHAPES, m.variant,
                                                     np.random.default_rng(1)),
    "quantize_model": lambda m, beats, tmp: quantize_model(m),
    "dequantize_model": lambda m, beats, tmp: dequantize_model(quantize_model(m)),
    "load_model": lambda m, beats, tmp: _saved_and_loaded(m, tmp, save_model, load_model),
    "load_qmodel": lambda m, beats, tmp: _saved_and_loaded(
        quantize_model(m), tmp, save_qmodel, load_qmodel),
    "fit": lambda m, beats, tmp: fit(beats, None, TINY_CONFIG, init_model=m)[0],
    "prune_and_retrain": lambda m, beats, tmp: prune_and_retrain(m, beats, TINY_CONFIG),
    "distill": lambda m, beats, tmp: distill(m, beats, TINY_CONFIG),
}


class TestFlatBuffer:
    def test_unflatten_lays_out_each_array_row_major_in_file_order(self):
        shapes = [(3, 2), (2, 4)]
        flat = np.arange(flat_size(shapes), dtype=np.float64)
        w1, b1, w2, b2 = unflatten(flat, shapes)
        np.testing.assert_array_equal(w1, [[0, 1], [2, 3], [4, 5]])
        np.testing.assert_array_equal(b1, [6, 7])
        np.testing.assert_array_equal(w2, np.arange(8, 16).reshape(2, 4))
        np.testing.assert_array_equal(b2, [16, 17, 18, 19])
        for view in (w1, b1, w2, b2):
            assert np.shares_memory(view, flat)

    @pytest.mark.parametrize("size", [663, 665])
    def test_unflatten_rejects_a_wrong_length(self, size):
        with pytest.raises(ValueError, match="expected 664 parameters"):
            unflatten(np.zeros(size), LAYER_SHAPES)

    @pytest.mark.parametrize("quantized", [False, True], ids=["float", "int8"])
    def test_rebinding_a_view_raises_and_in_place_writes_reach_the_file(
        self, quantized, tmp_path
    ):
        model, save, load = standard_model("relu-softmax", seed=3), save_model, load_model
        if quantized:
            model, save, load = quantize_model(model), save_qmodel, load_qmodel
        before = model.flat.tobytes()
        for name in ("w1", "b1", "w2", "b2", "flat"):
            with pytest.raises(AttributeError, match="write it in place"):
                setattr(model, name, np.zeros_like(getattr(model, name)))
        assert model.flat.tobytes() == before
        # augmented assignment rebinds a field to itself; slice writes never rebind
        model.w1 *= -1
        model.b2[1:] = 2
        model.w2 = model.w2
        copy = replace(model)
        assert copy.flat.tobytes() == model.flat.tobytes() != before
        save(model, tmp_path / "model")
        loaded = load(tmp_path / "model")
        assert loaded.flat.tobytes() == model.flat.tobytes()
        beat = np.linspace(0, 1, 61)
        kernel = (_temporary_layer, model.qparams) if quantized else ()
        np.testing.assert_array_equal(forward(loaded, beat, *kernel),
                                      forward(model, beat, *kernel))

    @pytest.mark.parametrize("route", CONSTRUCTION_ROUTES)
    def test_fields_are_views_of_an_owned_writable_flat(self, route, tmp_path):
        # a deepcopy parts each field from the buffer, and an uncopied
        # frombuffer leaves it read-only; both fail here
        beats = separable_beatset(per_class=10, seed=0)
        m, _ = fit(beats, None, TrainConfig(epochs=5, variant="relu-softmax", seed=0))
        before = m.flat.tobytes()
        model = CONSTRUCTION_ROUTES[route](m, beats, tmp_path)
        assert model.flat.flags.writeable and model.flat.flags.c_contiguous
        assert model.flat.shape == (model.param_count,)
        for field in (model.w1, model.b1, model.w2, model.b2):
            assert np.shares_memory(field, model.flat)
        assert not np.shares_memory(model.flat, m.flat)
        assert m.flat.tobytes() == before
        # a write through a field is a write to the buffer
        model.w2[0, 0] += 1
        assert model.flat[model.w1.size + model.b1.size] == model.w2[0, 0]


class TestModelForward:
    def test_zero_model_propagates_constants(self):
        model = standard_model("sigmoid-sigmoid")
        for p in model.parameters:
            p[...] = 0.0
        out = forward(model, np.zeros(61))
        # layer 1 emits all 0.5; with zero weights layer 2 sees z=0 -> 0.5
        assert out == pytest.approx([0.5] * 4)

    def test_softmax_variant_sums_to_one(self, rng):
        model = standard_model("relu-softmax", seed=5)
        out = forward(model, rng.uniform(0, 1, 61))
        assert float(out.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_sigmoid_outputs_unconstrained_sum(self, rng):
        model = standard_model("sigmoid-sigmoid", seed=5)
        out = forward(model, rng.uniform(0, 1, 61))
        assert ((out > 0) & (out < 1)).all()
        assert abs(float(out.sum()) - 1.0) > 1e-6  # no normalization constraint

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_matches_independent_reimplementation(self, variant, rng):
        model = standard_model(variant, seed=11)
        for _ in range(5):
            beat = rng.uniform(0, 2, 61)
            got = forward(model, beat)
            np.testing.assert_allclose(got, reference_forward(model, beat), atol=1e-6)


class TestPredict:
    def _fixed_output_model(self, out):
        # softmax-free: bias alone fixes layer-2 preactivation, weights zero
        return DenseModel(
            np.zeros((61, 10)), np.zeros(10),
            np.zeros((10, 4)), np.array(out, dtype=float),
            "relu-sigmoid",
        )

    @pytest.mark.parametrize(
        "out,expected",
        [
            ([0.9, 0.1, 0.2, 0.3], "N"),
            ([0.5, 0.5, 0.1, 0.1], "N"),  # tie resolves to lowest index
            ([0.1, 0.2, 0.8, 0.3], "V"),
        ],
    )
    def test_argmax_and_ties(self, out, expected):
        model = self._fixed_output_model(out)
        assert CLASSES[predict_labels(model, [np.zeros(61)])[0]] == expected

    def test_empty_batch_gives_no_labels(self):
        labels = predict_labels(standard_model("relu-softmax"), np.empty((0, 61)))
        assert labels.dtype == np.int64 and labels.shape == (0,)

    @pytest.mark.parametrize("shape", [(61,), (0,), (2, 1, 61), (3, 61, 1), (0, 1, 61),
                                       (5, 60), (0, 62), ()])
    def test_anything_but_a_batch_of_windows_rejected(self, shape):
        # one window, any 3-D array or a window of the wrong width is a
        # ValueError naming the shape given, not an IndexError
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            predict_labels(standard_model("relu-softmax"), np.zeros(shape))

    def test_invariant_under_increasing_transform(self, rng):
        model = standard_model("sigmoid-sigmoid", seed=2)
        for _ in range(20):
            beat = rng.uniform(0, 1, 61)
            out = forward(model, beat)
            base = int(np.argmax(out))
            for transform in (np.exp, np.tanh, lambda v: 3 * v + 1, np.sqrt):
                assert int(np.argmax(transform(out))) == base
        assert base == predict_labels(model, [beat])[0]
