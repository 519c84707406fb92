"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criteria 7 and the full-data half of 9 need a real MIT-BIH beats file;
point TINYECG_MITBIH_BEATS at a beats.npz produced by `tinyecg ingest`
to enable them, otherwise they skip and criteria 1-6, 8 and the
structural half of 9 constitute acceptance.
"""

import os
import time

import numpy as np
import pytest

from tinyecg.ingest import BeatSet, split
from tinyecg.metrics import confusion, scores
from tinyecg.nn import VARIANTS, forward, glorot_init, unflatten
from tinyecg.quant import (
    QuantParams,
    QuantizedModel,
    dequantize,
    dequantize_model,
    flops_report,
    forward_temporary_dequantized,
    memory_report_from_shapes,
    predict_labels_quantized,
    quantize,
    quantize_model,
)
from tinyecg.synthetic import pulse_train, separable_beatset
from tinyecg.train import (
    TrainConfig,
    backward,
    distill,
    fit,
    fit_weights_only,
    forward_batch,
    mse_loss,
    one_hot,
    prune_mask,
)

MITBIH_BEATS = os.environ.get("TINYECG_MITBIH_BEATS")

needs_dataset = pytest.mark.skipif(
    not MITBIH_BEATS,
    reason="set TINYECG_MITBIH_BEATS to an ingested beats.npz to run full-scale checks",
)


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance {number}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start


def test_criterion_1_cost_model_exactness():
    with Stopwatch() as sw:
        flops = flops_report([(61, 10), (10, 4)])
        memory = memory_report_from_shapes([(61, 10), (10, 4)])
        ok = (
            flops.layers == ((61, 10, 1230), (10, 4, 84))
            and flops.total == 1314
            and memory.model_param_bytes == 664
            and memory.model_bytes == 667
            and memory.buffer_bytes == 600
            and memory.total_bytes == 1267
            and not memory.over_budget
        )
    verdict(1, "cost-model exactness", ok and sw.seconds < 1.0,
            f"1230/84/1314, 664/667/600/1267, {sw.seconds:.2f}s")


def test_criterion_2_quantization_fidelity():
    with Stopwatch() as sw:
        beta = 64.74442
        q = QuantParams(scale=2 * beta / 254, zero_point=0,
                        alpha=-beta, beta=beta, mode="symmetric")
        trips = [(-56.74, -111, -56.59), (-1.58, -3, -1.53),
                 (14.58, 29, 14.78), (-17.0, -33, -16.82)]
        trips_ok = all(
            quantize(x, q) == code and abs(dequantize(code, q) - approx) < 0.01
            for x, code, approx in trips
        )

        rng = np.random.default_rng(2024)
        xs = rng.uniform(q.alpha, q.beta, 100_000)
        codes = quantize(xs, q)
        back = dequantize(codes, q)
        roundtrip_ok = bool(np.max(np.abs(xs - back)) <= q.scale / 2 + 1e-12)
        order = np.argsort(xs)
        monotonic_ok = bool(np.all(np.diff(codes[order].astype(np.int64)) >= 0))
        zero_ok = quantize(0.0, q) == 0 and dequantize(0, q) == 0.0
        ok = trips_ok and roundtrip_ok and monotonic_ok and zero_ok
    verdict(2, "quantization fidelity", ok and sw.seconds < 5.0,
            f"4 trips + 1e5-value property suite, {sw.seconds:.2f}s")


def test_criterion_3_forward_pass_equivalence():
    with Stopwatch() as sw:
        rng = np.random.default_rng(7)
        variants = sorted(VARIANTS)
        worst = 0.0
        for trial in range(1000):
            qp = QuantParams(scale=float(rng.uniform(0.005, 0.8)), zero_point=0,
                             alpha=-100.0, beta=100.0, mode="symmetric")
            ints = lambda shape: rng.integers(-127, 128, shape).astype(np.int8)
            qm = QuantizedModel(
                ints((61, 10)), ints(10), ints((10, 4)), ints(4),
                qp, variants[trial % 4],
            )
            beat = rng.uniform(0, 2, 61)
            got = forward_temporary_dequantized(qm, beat)
            oracle = forward(dequantize_model(qm), beat)
            worst = max(worst, float(np.max(np.abs(got - oracle))))
        ok = worst < 1e-6
    verdict(3, "forward-pass equivalence", ok and sw.seconds < 10.0,
            f"max diff {worst:.2e} over 1000 fixtures, {sw.seconds:.1f}s")


def test_criterion_4_gradient_correctness():
    with Stopwatch() as sw:
        rng = np.random.default_rng(11)
        h = 1e-4
        worst = 0.0
        for variant in sorted(VARIANTS):
            model = glorot_init([(5, 3), (3, 4)], variant, rng)
            x = rng.normal(0, 1, (8, 5))
            y = one_hot(rng.integers(0, 4, 8))
            _, analytic = backward(model, x, y)
            for p, g in zip(model.parameters, unflatten(analytic, model.shapes)):
                it = np.nditer(p, flags=["multi_index"])
                for _ in it:
                    i = it.multi_index
                    orig = p[i]
                    p[i] = orig + h
                    hi = mse_loss(forward_batch(model, x)[3], y)
                    p[i] = orig - h
                    lo = mse_loss(forward_batch(model, x)[3], y)
                    p[i] = orig
                    fd = (hi - lo) / (2 * h)
                    denom = max(abs(fd), abs(float(g[i])), 1e-8)
                    worst = max(worst, abs(fd - float(g[i])) / denom)
        ok = worst < 1e-4
    verdict(4, "gradient correctness", ok and sw.seconds < 30.0,
            f"max rel err {worst:.2e} across 4 variants, {sw.seconds:.1f}s")


def test_criterion_5_metric_identities():
    with Stopwatch() as sw:
        rng = np.random.default_rng(5)
        identity_ok = True
        for _ in range(1000):
            counts = rng.integers(0, 400, (4, 4))
            if counts.sum() == 0:
                continue
            report = scores(counts)
            if abs(report.accuracy - report.weighted_recall) >= 1e-12:
                identity_ok = False
                break

        from test_metrics import REFERENCE_EVAL, reconstruct_confusion

        cm = reconstruct_confusion(
            REFERENCE_EVAL["support"], REFERENCE_EVAL["precision"], REFERENCE_EVAL["recall"]
        )
        report = scores(cm)
        published_ok = (
            np.allclose(report.f1, REFERENCE_EVAL["f1"], atol=5e-7)
            and abs(report.macro_f1 - REFERENCE_EVAL["macro_f1"]) < 5e-7
            and abs(report.accuracy - REFERENCE_EVAL["accuracy"]) < 5e-7
        )
        ok = identity_ok and published_ok
    verdict(5, "metric identities", ok and sw.seconds < 5.0,
            f"1e3 random matrices + published scores recomputed, {sw.seconds:.1f}s")


def test_criterion_6_desk_scale_training():
    with Stopwatch() as sw:
        beats = separable_beatset(per_class=500, seed=0)
        config = TrainConfig(epochs=2000, variant="sigmoid-sigmoid", seed=0)
        model_a, trace_a = fit(beats, None, config)
        model_b, trace_b = fit(beats, None, config)
        deterministic = all(
            np.array_equal(pa, pb)
            for pa, pb in zip(model_a.parameters, model_b.parameters)
        ) and np.array_equal(trace_a.losses, trace_b.losses)
        ok = trace_a.train_accuracy >= 0.99 and deterministic
    verdict(6, "desk-scale training sanity", ok and sw.seconds < 120.0,
            f"train acc {trace_a.train_accuracy:.4f}, deterministic, {sw.seconds:.0f}s")


def test_criterion_8_qrs_detection():
    with Stopwatch() as sw:
        from tinyecg.dsp import FilterSpec
        from tinyecg.qrs import RPeakDetector

        signal, truth = pulse_train(100, bpm=75, fs=360.0, snr_db=20.0, seed=1)
        detector = RPeakDetector(FilterSpec(360.0))
        hits = [r for r in (detector.push_sample(v) for v in signal) if r is not None]

        tol = int(0.050 * 360.0)
        unused = set(range(len(truth)))
        tp = 0
        for d in hits:
            best = None
            for i in unused:
                if abs(d - truth[i]) <= tol and (
                    best is None or abs(d - truth[i]) < abs(d - truth[best])
                ):
                    best = i
            if best is not None:
                unused.discard(best)
                tp += 1
        fp, fn = len(hits) - tp, len(truth) - tp
        f1 = 2 * tp / (2 * tp + fp + fn)
        ok = f1 >= 0.95
    verdict(8, "qrs detection", ok and sw.seconds < 10.0,
            f"F1 {f1:.3f} (tp {tp}, fp {fp}, fn {fn}) at +/-50 ms, {sw.seconds:.1f}s")


def test_criterion_9_compression_ablations_structure():
    with Stopwatch() as sw:
        beats = separable_beatset(per_class=50, seed=3)
        config = TrainConfig(epochs=200, variant="sigmoid-softmax", seed=3)
        base, _ = fit(beats, None, config)

        mask = prune_mask(base)
        halves_ok = all(
            (p.size - int(m.sum())) == int(np.ceil(p.size / 2))
            for p, m in zip(base.parameters, unflatten(mask, base.shapes))
        )

        student = distill(base, beats, TrainConfig(epochs=50, seed=3))
        student_ok = student.param_count == 268

        wo_model, _ = fit_weights_only(beats, None, TrainConfig(epochs=50, seed=3))
        biases_ok = (wo_model.b1 == 0).all() and (wo_model.b2 == 0).all()

        ok = halves_ok and student_ok and biases_ok
    verdict(9, "compression ablations (structural)", ok,
            f"half pruned per group, 268-param student, zero biases, {sw.seconds:.1f}s")


@needs_dataset
def test_criterion_7_full_scale_reproduction():
    beats = BeatSet.load(MITBIH_BEATS)
    train_set, test_set = split(beats, 67972 / 101451, seed=0)
    config = TrainConfig(variant="sigmoid-sigmoid", seed=0)
    model, trace = fit(train_set, test_set, config)
    acc_ok = trace.test_accuracy >= 0.955 and trace.test_macro_f1 >= 0.73

    qmodel = quantize_model(model)
    d_quant = predict_labels_quantized(qmodel, test_set.windows, temporary=False)
    d_temp = predict_labels_quantized(qmodel, test_set.windows, temporary=True)
    acc_quant = scores(confusion(test_set.labels, d_quant)).accuracy
    acc_temp = scores(confusion(test_set.labels, d_temp)).accuracy
    order_ok = (
        trace.test_accuracy >= acc_temp > acc_quant
        and (trace.test_accuracy - acc_quant) >= 0.015
    )
    verdict(
        7, "full-scale reproduction", acc_ok and order_ok,
        f"default {trace.test_accuracy:.4f} / temp {acc_temp:.4f} / quant {acc_quant:.4f},"
        f" macro-F1 {trace.test_macro_f1:.4f}",
    )


@needs_dataset
def test_criterion_9_compression_ablations_full_scale():
    from tinyecg.train import prune_and_retrain

    beats = BeatSet.load(MITBIH_BEATS)
    train_set, test_set = split(beats, 67972 / 101451, seed=0)
    config = TrainConfig(variant="sigmoid-softmax", seed=0)
    base, base_trace = fit(train_set, test_set, config)

    def accuracy(model):
        _, _, _, out = forward_batch(model, test_set.windows)
        return scores(confusion(test_set.labels, np.argmax(out, axis=1))).accuracy

    pruned = prune_and_retrain(base, train_set, config)
    student = distill(base, train_set, config)
    weights_only, _ = fit_weights_only(train_set, test_set, config)

    base_acc = base_trace.test_accuracy
    results = {
        "pruned": accuracy(pruned),
        "distilled": accuracy(student),
        "weights-only": accuracy(weights_only),
    }
    ok = all(acc < base_acc for acc in results.values())
    verdict(
        9, "compression ablations (full scale)", ok,
        f"base {base_acc:.4f} vs " + ", ".join(f"{k} {v:.4f}" for k, v in results.items()),
    )
