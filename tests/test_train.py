import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tinyecg.train as train_module
from tinyecg.ingest import BeatSet
from tinyecg.metrics import confusion, scores
from tinyecg.nn import VARIANTS, forward, glorot_init, softmax, standard_model, unflatten
from tinyecg.quant import dequantize_model
from tinyecg.synthetic import separable_beatset
from tinyecg.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    TrainConfig,
    adam_step,
    backward,
    distill,
    distill_backward,
    distill_loss,
    evaluate,
    fit,
    fit_weights_only,
    forward_batch,
    mse_loss,
    one_hot,
    prune_and_retrain,
    prune_mask,
)

from test_quant import random_qmodel


def loss_of(model, x, y) -> float:
    return mse_loss(forward_batch(model, x)[3], y)


def finite_difference_grads(loss_fn, params, h=1e-4):
    """Central-difference gradient oracle over every scalar parameter."""
    grads = [np.zeros_like(p) for p in params]
    for p, g in zip(params, grads):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = p[i]
            p[i] = orig + h
            hi = loss_fn()
            p[i] = orig - h
            lo = loss_fn()
            p[i] = orig
            g[i] = (hi - lo) / (2 * h)
    return grads


def max_relative_error(analytic, numeric) -> float:
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestMseLoss:
    def test_zero_at_match(self, rng):
        y = rng.uniform(0, 1, (6, 4))
        assert mse_loss(y, y) == 0.0

    def test_quarter_for_zero_prediction(self):
        # one coordinate off by 1 across 4 outputs -> 1/4 per sample
        target = one_hot(np.array([0, 1, 2, 3, 1]))
        assert mse_loss(np.zeros((5, 4)), target) == pytest.approx(0.25)

    def test_matches_scalar_oracle(self, rng):
        pred = rng.uniform(0, 1, (7, 4))
        target = one_hot(rng.integers(0, 4, 7))
        # independent oracle: plain python accumulation
        total = 0.0
        count = 0
        for i in range(7):
            for j in range(4):
                total += (pred[i, j] - target[i, j]) ** 2
                count += 1
        assert mse_loss(pred, target) == pytest.approx(total / count, abs=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros((2, 4)), np.zeros((3, 4)))


class TestForwardBatch:
    @settings(deadline=None)
    @given(
        variant=st.sampled_from(sorted(VARIANTS)),
        n_rows=st.integers(1, 20),
        gain=st.floats(0.1, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_match_single_beat_walker(self, variant, n_rows, gain, seed):
        # the training forward and the inference walker apply the same
        # variant activations to the same parameters
        rng = np.random.default_rng(seed)
        model = glorot_init([(61, 10), (10, 4)], variant, rng)
        for p in model.parameters:
            p += gain * rng.normal(0, 1, p.shape)
        x = rng.uniform(-2, 2, (n_rows, 61))
        out = forward_batch(model, x)[3]
        for row, beat in zip(out, x):
            np.testing.assert_allclose(row, forward(model, beat), rtol=0, atol=1e-12)


class TestBackward:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_matches_finite_differences(self, variant, rng):
        model = glorot_init([(5, 3), (3, 4)], variant, rng)
        x = rng.normal(0, 1, (8, 5))
        y = one_hot(rng.integers(0, 4, 8))
        loss, analytic = backward(model, x, y)
        assert loss == loss_of(model, x, y)
        numeric = finite_difference_grads(lambda: loss_of(model, x, y), model.parameters)
        assert max_relative_error(unflatten(analytic, model.shapes), numeric) < 1e-4

    def test_zero_model_symmetric_batch_closed_form(self):
        # all params zero, sigmoid-sigmoid: every output is 0.5 and the
        # hidden layer is a constant 0.5, so
        #   d loss / d b2_j = mean_i 2 (0.5 - y_ij) / 4 * 0.25 = 1/32
        #   d loss / d w2_kj = 0.5 * (1/32) = 1/64
        # for a batch with each class appearing equally often.
        model = standard_model("sigmoid-sigmoid")
        for p in model.parameters:
            p[...] = 0.0
        x = np.random.default_rng(0).uniform(0, 1, (4, 61))
        y = one_hot(np.array([0, 1, 2, 3]))
        _, grads = backward(model, x, y)
        g_w1, g_b1, g_w2, g_b2 = unflatten(grads, model.shapes)
        assert g_b2 == pytest.approx(np.full(4, 1 / 32))
        assert g_w2 == pytest.approx(np.full((10, 4), 1 / 64))
        assert g_w1 == pytest.approx(np.zeros((61, 10)), abs=1e-15)

    def test_zero_gradient_at_interpolating_minimum(self, rng):
        # relu head with weights that reproduce the targets exactly
        model = glorot_init([(3, 2), (2, 4)], "relu-sigmoid", rng)
        x = rng.uniform(0.1, 1, (5, 3))
        y = forward_batch(model, x)[3]  # targets := model outputs
        _, grads = backward(model, x, y)
        assert float(np.max(np.abs(grads))) < 1e-8


def reference_adam_step(params, grads, m_list, v_list, t, lr):
    """Per-array Adam, one parameter array at a time: the bit-level oracle
    for the flat `adam_step` (same ops, same association, per element)."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    correct1 = 1.0 - b1**t
    correct2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, m_list, v_list):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = np.array([1.0, -2.0, 3.0])
        state = AdamState.for_params(params)
        before = params.copy()
        adam_step(params, np.zeros(3), state, lr=0.1)
        np.testing.assert_array_equal(params, before)
        assert state.t == 1

    def test_first_step_is_signed_lr(self):
        # t=1: m_hat = g, v_hat = g^2, update = -lr * g / (|g| + eps)
        g = np.array([0.3, -7.0, 0.001])
        params = np.zeros(3)
        state = AdamState.for_params(params)
        adam_step(params, g.copy(), state, lr=0.01)
        np.testing.assert_allclose(params, -0.01 * np.sign(g), rtol=1e-4)

    def test_constant_gradient_step_approaches_lr(self):
        g = np.array([2.5])
        params = np.zeros(1)
        state = AdamState.for_params(params)
        prev = params.copy()
        for _ in range(500):
            prev = params.copy()
            adam_step(params, g.copy(), state, lr=0.01)
        step = abs(float(params[0] - prev[0]))
        assert step == pytest.approx(0.01, rel=1e-3)

    @settings(deadline=None, max_examples=60)
    @given(
        widths=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)),
        steps=st.integers(1, 60),
        lr=st.floats(1e-5, 1.0),
        scale=st.floats(1e-6, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_flat_step_is_bit_equal_to_per_array_steps(self, widths, steps, lr, scale, seed):
        # one flat pass over the model's buffer against the per-array loop
        # on the same views' copies: parameters and moments agree bit for bit
        fan_in, hidden, fan_out = widths
        rng = np.random.default_rng(seed)
        model = glorot_init([(fan_in, hidden), (hidden, fan_out)], "relu-sigmoid", rng)
        state = AdamState.for_params(model.flat)
        ref_params = [p.copy() for p in model.parameters]
        ref_m = [np.zeros_like(p) for p in ref_params]
        ref_v = [np.zeros_like(p) for p in ref_params]
        for t in range(1, steps + 1):
            grads = scale * rng.standard_normal(model.flat.size)
            adam_step(model.flat, grads, state, lr)
            reference_adam_step(ref_params, unflatten(grads, model.shapes), ref_m, ref_v, t, lr)
        for got, want in ((model.parameters, ref_params),
                          (unflatten(state.m, model.shapes), ref_m),
                          (unflatten(state.v, model.shapes), ref_v)):
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
        assert state.t == steps


@pytest.fixture(scope="module")
def toy_beats():
    return separable_beatset(per_class=50, seed=0)


class TestFit:
    def test_separable_set_learned(self, toy_beats):
        config = TrainConfig(epochs=500, variant="sigmoid-sigmoid", seed=0)
        model, trace = fit(toy_beats, None, config)
        assert trace.train_accuracy >= 0.99
        assert trace.losses[-1] < trace.losses[0]
        assert len(trace.losses) == 500

    def test_deterministic_per_seed(self, toy_beats):
        config = TrainConfig(epochs=40, variant="relu-sigmoid", seed=11)
        a, trace_a = fit(toy_beats, None, config)
        b, trace_b = fit(toy_beats, None, config)
        for pa, pb in zip(a.parameters, b.parameters):
            np.testing.assert_array_equal(pa, pb)
        np.testing.assert_array_equal(trace_a.losses, trace_b.losses)

    def test_different_seed_differs(self, toy_beats):
        a, _ = fit(toy_beats, None, TrainConfig(epochs=10, seed=0))
        b, _ = fit(toy_beats, None, TrainConfig(epochs=10, seed=1))
        assert any((pa != pb).any() for pa, pb in zip(a.parameters, b.parameters))

    def test_missing_class_warns(self):
        beats = separable_beatset(per_class=10, seed=0)
        keep = beats.labels != 3
        trimmed = BeatSet(beats.windows[keep], beats.labels[keep])
        with pytest.warns(UserWarning, match="class"):
            fit(trimmed, None, TrainConfig(epochs=2))

    @pytest.mark.parametrize("epochs", [1, 7])
    def test_one_forward_per_step(self, toy_beats, monkeypatch, epochs):
        # one batched forward per Adam step; `evaluate` labels the train
        # and the test set with `nn.predict_labels`, not `forward_batch`
        calls = []
        monkeypatch.setattr(train_module, "forward_batch",
                            lambda *args: calls.append(args) or forward_batch(*args))
        fit(toy_beats, toy_beats, TrainConfig(epochs=epochs, seed=0))
        assert len(calls) == epochs

    def test_test_set_metrics_populated(self, toy_beats):
        train_set = toy_beats
        test_set = separable_beatset(per_class=20, seed=99)
        _, trace = fit(train_set, test_set, TrainConfig(epochs=300, seed=0))
        assert trace.test_accuracy >= 0.95
        assert 0 <= trace.test_macro_f1 <= 1

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf, 0.0, -0.001])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    def test_trace_csv(self, toy_beats, tmp_path):
        _, trace = fit(toy_beats, None, TrainConfig(epochs=3))
        trace.save_csv(tmp_path / "trace.csv")
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 4
        assert float(lines[1].split(",")[1]) == pytest.approx(trace.losses[0])


class TestEvaluate:
    def test_scores_the_labels_eval_gives(self):
        # beats 5, 10, 11 and 28 are N/S near-ties: the 2-D batch walk says S
        # and the per-beat call, the one `tinyecg eval` and the stream make,
        # says N; `evaluate` scores the per-beat labels, so train and eval agree
        rng = np.random.default_rng(1751)
        model = dequantize_model(random_qmodel(rng, "sigmoid-softmax", 0))
        windows = rng.uniform(0, 2, (30, 61))
        per_beat = np.array([np.argmax(forward(model, w)) for w in windows])
        ties = [5, 10, 11, 28]
        np.testing.assert_array_equal(per_beat[ties], 0)
        np.testing.assert_array_equal(forward(model, windows).argmax(axis=1)[ties], 1)
        accuracy, macro_f1 = evaluate(model, BeatSet(windows, per_beat))
        assert accuracy == 1.0
        assert macro_f1 == scores(confusion(per_beat, per_beat)).macro_f1


class TestPruning:
    def test_median_split_example(self):
        # groups are per layer and per parameter type: the 4-wide output
        # bias is its own group, so [1,-2,3,-4] loses its two smallest
        model = standard_model("sigmoid-sigmoid")
        model.b2[:] = [1.0, -2.0, 3.0, -4.0]
        mask = prune_mask(model)
        pruned = model.b2.copy()
        pruned[unflatten(mask, model.shapes)[3]] = 0.0
        assert pruned == pytest.approx([0.0, 0.0, 3.0, -4.0])

    def test_prunes_half_of_each_group(self, toy_beats):
        model, _ = fit(toy_beats, None, TrainConfig(epochs=30, seed=2))
        mask = prune_mask(model)
        for p, m in zip(model.parameters, unflatten(mask, model.shapes)):
            kept = p.size - int(m.sum())
            assert kept == int(np.ceil(p.size / 2))

    def test_retrained_model_keeps_zeros(self, toy_beats):
        config = TrainConfig(epochs=30, seed=3)
        model, _ = fit(toy_beats, None, config)
        mask = prune_mask(model)
        retrained = prune_and_retrain(model, toy_beats, config)
        for p, m in zip(retrained.parameters, unflatten(mask, model.shapes)):
            assert (p[m] == 0.0).all()
            assert (p[~m] != 0.0).any()


class TestWeightsOnly:
    def test_biases_exactly_zero(self, toy_beats):
        model, _ = fit_weights_only(toy_beats, None, TrainConfig(epochs=30, seed=4))
        assert (model.b1 == 0.0).all()
        assert (model.b2 == 0.0).all()
        # weights did train
        assert (model.w1 != 0.0).any()

    def test_trainable_parameter_count(self):
        model = standard_model("sigmoid-sigmoid")
        weights = model.w1.size + model.w2.size
        assert weights == 650  # 610 + 40


class TestDistillation:
    def test_student_parameter_count(self, toy_beats):
        teacher, _ = fit(
            toy_beats, None, TrainConfig(epochs=30, variant="sigmoid-softmax", seed=5)
        )
        student = distill(teacher, toy_beats, TrainConfig(epochs=10, seed=5))
        assert student.shapes == [(61, 4), (4, 4)]
        assert student.param_count == 61 * 4 + 4 + 4 * 4 + 4
        assert student.param_count == 268

    def test_identical_logits_zero_kl(self, rng):
        logits = rng.normal(0, 1, (6, 4))
        y = one_hot(rng.integers(0, 4, 6))
        full = distill_loss(logits, logits, y, temperature=10.0)
        ce_only = float(np.mean(-np.sum(y * np.log(softmax(logits)), axis=-1)))
        assert full == pytest.approx(0.1 * ce_only, abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        # the student takes the teacher's variant; softmax is applied to
        # both logit sets whatever it is
        for variant in sorted(VARIANTS):
            teacher = glorot_init([(5, 3), (3, 4)], variant, rng)
            student = glorot_init([(5, 4), (4, 4)], variant, rng)
            x = rng.normal(0, 1, (6, 5))
            y = one_hot(rng.integers(0, 4, 6))
            T = 10.0
            soft = softmax(forward_batch(teacher, x)[2] / T)
            loss, analytic = distill_backward(student, x, soft, y, T)

            def objective():
                return distill_loss(
                    forward_batch(teacher, x)[2], forward_batch(student, x)[2], y, T
                )

            assert loss == pytest.approx(objective(), rel=0, abs=1e-12), variant
            numeric = finite_difference_grads(objective, student.parameters, h=1e-5)
            assert max_relative_error(unflatten(analytic, student.shapes), numeric) < 1e-4, variant

    def test_student_learns_separable_set(self, toy_beats):
        teacher, _ = fit(
            toy_beats, None, TrainConfig(epochs=400, variant="sigmoid-softmax", seed=6)
        )
        student = distill(teacher, toy_beats, TrainConfig(epochs=400, seed=6))
        _, _, _, out = forward_batch(student, toy_beats.windows)
        acc = float(np.mean(np.argmax(out, axis=1) == toy_beats.labels))
        assert acc >= 0.9
