"""Tests of the benchmark itself: its checks, percentile rule, tracer and names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import workloads as wl
from tinyecg import cli, dsp, ingest, modelio, nn, quant, synthetic, train

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small trained float model, its quantized file and the beats file."""
    work = tmp_path_factory.mktemp("model")
    beats = synthetic.separable_beatset(per_class=60, seed=0)
    beats.save(work / "beats.npz")
    model, _ = train.fit(beats, None, train.TrainConfig(
        epochs=200, learning_rate=0.03, variant=wl.VARIANT))
    modelio.save_model(model, work / "model.tnm")
    modelio.save_qmodel(quant.quantize_model(model), work / "model.tnq")
    return work, model


def flip_one_code(src: Path, dst: Path) -> None:
    """Rewrite a .tnq with its largest output-layer code negated (valid CRC)."""
    qmodel = modelio.load_qmodel(src)
    k = np.unravel_index(np.argmax(np.abs(qmodel.w2)), qmodel.w2.shape)
    qmodel.w2[k] = -qmodel.w2[k]
    modelio.save_qmodel(qmodel, dst)


def tdq_report(model_path: Path, beats_path: Path, capsys) -> dict:
    capsys.readouterr()
    code = cli.main(["eval", "--model", str(model_path), "--beats", str(beats_path),
                     "--inference-mode", "temporary-dequantized", "--split", "test",
                     "--train-fraction", str(wl.TRAIN_FRACTION), "--seed", str(wl.CLI_SEED),
                     "--json"])
    assert code == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_eval_check_rejects_flipped_int8_code(trained, capsys):
    work, model = trained
    test = ingest.split(ingest.BeatSet.load(work / "beats.npz"), wl.TRAIN_FRACTION,
                        wl.CLI_SEED)[1]
    oracle = checks.oracle_model(model)
    assert checks.eval_report_matches(tdq_report(work / "model.tnq", work / "beats.npz",
                                                 capsys), oracle, test)
    flip_one_code(work / "model.tnq", work / "flipped.tnq")
    report = tdq_report(work / "flipped.tnq", work / "beats.npz", capsys)
    assert not checks.eval_report_matches(report, oracle, test)


def test_label_check_rejects_flipped_int8_code(trained):
    work, model = trained
    flip_one_code(work / "model.tnq", work / "flipped.tnq")
    windows = ingest.BeatSet.load(work / "beats.npz").windows
    oracle = checks.oracle_model(model)
    for path, should_fail in (("model.tnq", False), ("flipped.tnq", True)):
        qmodel = modelio.load_qmodel(work / path)
        labels = [int(np.argmax(quant.forward_temporary_dequantized(qmodel, w)))
                  for w in windows]
        assert checks.label_mismatches(labels, windows, oracle).any() == should_fail


def test_window_check_rejects_one_sample_shift(trained):
    work, _ = trained
    samples, _ = synthetic.pulse_train(20, bpm=75.0, snr_db=25.0, seed=3)
    reference = dsp.preprocess(samples, dsp.FilterSpec(wl.FS_HZ))
    rep = wl.replay(samples, modelio.load_qmodel(work / "model.tnq"))
    assert len(rep.r_indices) > 10
    assert not checks.window_mismatches(rep.r_indices, rep.windows, reference).any()
    shifted = [reference[r - 29 : r + 32] for r in rep.r_indices]
    assert checks.window_mismatches(rep.r_indices, shifted, reference).all()
    short = [reference[r - 30 : r + 30] for r in rep.r_indices]
    assert checks.window_mismatches(rep.r_indices, short, reference).all()
    # A recording in which nothing is detected has nothing to mismatch.
    assert checks.window_mismatches([], np.zeros((0, 61)), reference).size == 0


def test_cost_check_rejects_other_topology(trained):
    work, _ = trained
    assert checks.cost_matches(modelio.load_qmodel(work / "model.tnq"))
    wide = nn.glorot_init([(61, 11), (11, 4)], wl.VARIANT, np.random.default_rng(0))
    assert not checks.cost_matches(quant.quantize_model(wide))


def test_p99_needs_ten_samples_beyond_it():
    assert checks.tail_percentile(list(range(1000)), 99) == (pytest.approx(989.01), 10)
    assert checks.tail_percentile(list(range(999)), 99) is None
    assert checks.tail_percentile(list(range(20)), 50)[1] == 10
    assert checks.tail_percentile(list(range(19)), 50) is None
    assert checks.tail_percentile([], 50) is None


def test_every_beat_position_has_exact_class_shares():
    for workload in wl.WORKLOADS.values():
        counts = {c: share * workload.segments for c, share in workload.stream_mix.items()}
        assert all(k == round(k) for k in counts.values())
        rows = wl.segment_labels(workload, np.random.default_rng(0))
        assert len(rows) == workload.segments
        assert all(len(row) == workload.segment_beats for row in rows)
        for column in zip(*rows):
            assert {c: column.count(c) for c in counts} == counts


def test_detections_match_nearest_free_true_beat():
    matched = wl.match_truth([100, 400, 1000, 1001], [90, 380, 700, 1000], 54)
    assert matched.tolist() == [0, 1, 3, -1]


def test_self_time_is_span_minus_children(monkeypatch):
    monkeypatch.setattr(spans, "KEEP_PER_NAME", 1)
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    tracer.active = True
    tracer.begin_op("job")
    outer()
    outer()
    o, i = tracer.stats["job", "outer"], tracer.stats["job", "inner"]
    assert (o.calls, i.calls) == (2, 6)
    assert o.self_ns == o.total_ns - i.total_ns
    assert i.self_ns == i.total_ns
    kept = {name: (span_id, parent, op_id) for span_id, name, _, _, parent, op_id in tracer.spans}
    assert kept["inner"][1] == kept["outer"][0] and kept["outer"][1] is None
    assert kept["inner"][2] == kept["outer"][2] == tracer.op_id
    assert tracer.dropped == 6


def test_metric_names_and_units_match_benchmark_json():
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert declared == table
        assert all(NAME.fullmatch(name) for name in declared)
    assert set(BENCHMARK) >= {"command", "paths", "workloads"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)


def test_benchmark_json_fixes_the_training_variant():
    build = next(w for w in BENCHMARK["workloads"] if w["name"] == "build")
    assert wl.VARIANT in build["why"]
