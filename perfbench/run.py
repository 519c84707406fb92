"""tinyecg benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload build --seed 1 --seconds 30 --trace 0

Run from a checkout: the program under test is imported from `src/`.
With `--trace 0` the result carries the end-to-end metrics; with
`--trace 1` half the time runs untraced and half traced, and the result
carries the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; details, the machine record and (traced) the
spans go to `.bench_out/`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread: the job runs as one closed-loop caller with no extra
# threads, and one is at most nproc on any machine. Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# Build from the checkout's sources only, never from an installed copy.
if not (SRC / "tinyecg" / "__init__.py").is_file():
    sys.exit(f"error: no tinyecg sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tinyecg import ingest, modelio, quant  # noqa: E402
from tinyecg.ingest import WINDOW_LEN  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 9
WARMUP_PASSES = 1
# Timings are scaled to the speed at which the speed reference takes 1 ms.
REFERENCE_S = 1e-3
MIN_BUILD_PASSES = 2  # timed passes
# p99 is reported only with at least 10 samples beyond it.
MIN_LATENCY_SAMPLES = 1000
MATCH_TOLERANCE = 54  # 150 ms at 360 Hz

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "build_s": "s",
    "ingest_samples_per_s": "samples/s",
    "train_steps_per_s": "steps/s",
    "eval_default_beats_per_s": "beats/s",
    "eval_tdq_beats_per_s": "beats/s",
    "eval_quantized_beats_per_s": "beats/s",
    "eval_macro_f1": "fraction",
    "stream_samples_per_s": "samples/s",
    "beat_latency_us_p50": "us",
    "beat_latency_us_p99": "us",
    "stream_sensitivity": "fraction",
    "stream_ppv": "fraction",
    "stream_label_accuracy": "fraction",
}

PER_LAYER = {
    "ingest.load_signal_us_per_sample": "us/sample",
    "ingest.load_annotations_us_per_line": "us/line",
    "ingest.extract_beats_self_us_per_beat": "us/beat",
    "ingest.split_ms": "ms",
    "dsp.preprocess_us_per_sample": "us/sample",
    "dsp.stream_push_us_per_sample": "us/sample",
    "qrs.push_sample_self_us_per_sample": "us/sample",
    "qrs.emit_window_us_per_call": "us/call",
    "qrs.emit_window_calls_per_beat": "calls/beat",
    "qrs.emit_window_useful_ratio": "ratio",
    "qrs.beats_detected": "count",
    "qrs.beats_lost": "count",
    "train.fit_ms_per_step": "ms/step",
    "train.forward_batch_us_per_call": "us/call",
    "train.backward_us_per_call": "us/call",
    "train.adam_step_us_per_call": "us/call",
    "nn.predict_labels_us_per_beat": "us/beat",
    "quant.predict_labels_quantized_us_per_beat.tdq": "us/beat",
    "quant.predict_labels_quantized_us_per_beat.quantized": "us/beat",
    "quant.forward_tdq_us_per_call": "us/call",
    "quant.quantize_model_ms": "ms",
    "quant.flops_booked": "count",
    "quant.sram_bytes_booked": "count",
    "metrics.scores_us_per_call": "us/call",
    "modelio.save_ms": "ms",
    "modelio.load_ms": "ms",
    "cli.ingest.self_ms": "ms",
    "cli.train.self_ms": "ms",
    "cli.quantize.self_ms": "ms",
    "cli.eval.self_ms": "ms",
    "trace.build_s_ratio": "ratio",
    "trace.stream_seconds_ratio": "ratio",
}


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[what] += 1


@contextlib.contextmanager
def untraced(tracer):
    """Checks run with tracing paused so they do not count as program work."""
    if tracer is None:
        yield
        return
    active, tracer.active = tracer.active, False
    try:
        yield
    finally:
        tracer.active = active


def check_build(results, work: Path, tally: Tally):
    """Count each CLI call as an operation. Returns the held-out beat count
    (None if ingest failed) and the macro F1 of a passing
    temporary-dequantized eval (None if it did not pass)."""
    macro_f1 = None
    try:  # stale files are removed before each pass, so these are this pass's
        test = ingest.split(ingest.BeatSet.load(work / "beats.npz"),
                            wl.TRAIN_FRACTION, wl.CLI_SEED)[1]
    except Exception:  # no readable beats: ingest failed, and so do the evals
        test = None
    for r in results:
        ok = r.exit_code == 0
        try:
            if ok and r.kind == "quantize":
                ok = checks.cost_matches(modelio.load_qmodel(work / "model.tnq"))
            elif ok and r.kind == "eval.temporary-dequantized":
                report = json.loads(r.stdout.splitlines()[-1])
                oracle = checks.oracle_model(modelio.load_model(work / "model.tnm"))
                ok = checks.eval_report_matches(report, oracle, test)
                if ok:
                    macro_f1 = report["macro"]["f1"]
        except Exception:  # output the check cannot read fails it
            ok = False
        tally.add(ok, f"cli.{r.kind}" if r.exit_code == 0 else f"cli.{r.kind} exit {r.exit_code}")
    return (None if test is None else len(test)), macro_f1


class StreamCheck:
    """Verifies replays. A segment's first replay is checked against the
    batch chain and the oracle; every later replay of it must repeat the
    first exactly. Quality is pooled over the first replays."""

    def __init__(self, segments, oracle):
        self.segments = segments
        self.oracle = oracle
        self.first: dict[int, tuple] = {}

    def __call__(self, k: int, rep, tally: Tally) -> None:
        r = np.asarray(rep.r_indices, dtype=np.int64)
        labels = np.asarray(rep.labels, dtype=np.int64)
        windows = np.stack(rep.windows) if rep.windows else np.zeros((0, WINDOW_LEN))
        if k not in self.first:
            fail = checks.window_mismatches(r, windows, self.segments[k].reference)
            fail |= checks.label_mismatches(labels, windows, self.oracle)
            self.first[k] = (r, labels, windows, fail)
        else:
            r0, labels0, windows0, fail0 = self.first[k]
            m = min(len(r), len(r0))
            fail = np.ones(len(r), dtype=bool)
            same = (r[:m] == r0[:m]) & (labels[:m] == labels0[:m])
            same &= (windows[:m] == windows0[:m]).all(axis=1)
            fail[:m] = ~same | fail0[:m]
        for bad in fail:
            tally.add(not bad, "stream.beat check")
        for _ in range(rep.lost):
            tally.add(False, "stream.beat lost")

    def quality(self) -> dict:
        truths = detected = hits = correct = 0
        for k, (r, labels, _, _) in self.first.items():
            seg = self.segments[k]
            matched = wl.match_truth(r, seg.truth_index, MATCH_TOLERANCE)
            hit = matched >= 0
            truths += len(seg.truth_index)
            detected += len(r)
            hits += int(hit.sum())
            correct += int((labels[hit] == seg.truth_label[matched[hit]]).sum())
        return {
            "stream_sensitivity": hits / truths,
            "stream_ppv": hits / max(detected, 1),
            "stream_label_accuracy": correct / max(hits, 1),
        }


def at_reference(seconds: float, reference_s: float) -> float:
    """A wall time scaled to the reference speed (see README, "Steadiness")."""
    return seconds * REFERENCE_S / reference_s


def measure(workload, inputs, work: Path, seconds: float, tally: Tally, tracer=None,
            all_segments: bool = True):
    """Run offline-job passes and replays, interleaved, for `seconds`.

    The two parts alternate, each kept to its share of the time, so both
    sample the same stretch of the run. Replays cycle over the segments;
    with `all_segments` the run lasts until each has been replayed, as
    stream quality is pooled over all of them. Each unit (a CLI call, a
    replay) is timed at the reference speed, and each timing is the median
    over its units. Once an operation has failed, the run ends at
    `seconds`, and a metric it could not measure is None.
    """
    calls = wl.build_calls(inputs, work)
    segments = inputs.segments
    passes, raw_passes, replay_seconds, raw_replay_seconds, latencies = [], [], [], [], []
    spent = {"build": 0.0, "stream": 0.0}
    test_beats = macro_f1 = check = qmodel = None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        need_build = len(passes) < WARMUP_PASSES + MIN_BUILD_PASSES
        need_stream = len(latencies) < MIN_LATENCY_SAMPLES or (
            all_segments and len(replay_seconds) < len(segments))
        if elapsed >= seconds and (tally.failed or not (need_build or need_stream)):
            break
        if elapsed > 3 * seconds + 60:
            raise RuntimeError("the run cannot collect its minimum samples")
        if qmodel is None or (need_build if elapsed >= seconds else
                              spent["build"] < workload.build_share * sum(spent.values())):
            for output in wl.BUILD_OUTPUTS:  # a failed call must not find stale files
                (work / output).unlink(missing_ok=True)
            results = wl.run_build_job(calls, tracer)
            spent["build"] += sum(r.seconds for r in results)
            with untraced(tracer):
                beats, f1 = check_build(results, work, tally)
            test_beats = beats or test_beats
            macro_f1 = macro_f1 if f1 is None else f1
            if any(r.exit_code != 0 for r in results):
                continue
            passes.append({r.kind: at_reference(r.seconds, r.reference_s) for r in results})
            raw_passes.append(sum(r.seconds for r in results))
            if qmodel is None:  # the replays use the first pass's models
                try:
                    with untraced(tracer):
                        oracle = checks.oracle_model(modelio.load_model(work / "model.tnm"))
                        check = StreamCheck(segments, oracle)
                    if tracer is not None:
                        tracer.begin_op("stream.setup")
                    qmodel = modelio.load_qmodel(work / "model.tnq")
                except Exception:
                    tally.add(False, "stream.setup")
            continue
        k = len(replay_seconds) % len(segments)
        if tracer is not None:
            tracer.begin_op("stream.replay")
        before = wl.reference_seconds()
        try:
            rep = wl.replay(segments[k].samples, qmodel)
        except Exception:
            tally.add(False, "stream.replay raised")
            continue
        reference_s = (before + wl.reference_seconds()) / 2
        spent["stream"] += rep.seconds
        with untraced(tracer):
            check(k, rep, tally)
        raw_replay_seconds.append(rep.seconds / len(segments[k].samples))
        replay_seconds.append(at_reference(raw_replay_seconds[-1], reference_s))
        latencies += [at_reference(ns / 1e3, reference_s) for ns in rep.latencies_ns]

    med = statistics.median
    values = dict.fromkeys(END_TO_END)
    values["eval_macro_f1"] = macro_f1
    details = {"build_passes": 0, "held_out_beats": test_beats,
               "replays": len(replay_seconds), "latency_samples": len(latencies)}
    timed = passes[WARMUP_PASSES:]  # the first pass fills caches and is not timed
    if timed:
        build = {kind: med(p[kind] for p in timed) for kind in timed[0]}
        values["build_s"] = med(sum(p.values()) for p in timed)
        values["ingest_samples_per_s"] = inputs.build_samples / build["ingest"]
        values["train_steps_per_s"] = wl.TRAIN_STEPS / build["train"]
        for mode, name in (("default", "default"), ("temporary-dequantized", "tdq"),
                           ("quantized", "quantized")):
            values[f"eval_{name}_beats_per_s"] = test_beats / build[f"eval.{mode}"]
        details["build_passes"] = len(timed)
        details["wall_median_build_s"] = med(raw_passes[WARMUP_PASSES:])
    if replay_seconds:
        values["stream_samples_per_s"] = 1.0 / med(replay_seconds)
        values.update(check.quality())
        details["wall_median_stream_samples_per_s"] = 1.0 / med(raw_replay_seconds)
    for pct in (50, 99):
        found = checks.tail_percentile(latencies, pct)
        if found is not None:
            values[f"beat_latency_us_p{pct}"], details[f"latency_beyond_p{pct}"] = found
    return values, details


def setup_seconds(work: Path, fs_hz: float, tally: Tally):
    """Process start to ready: the median over fresh processes, in plain
    wall time (see README, "Steadiness"). Each process is an operation;
    returns None for the time once one fails."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(work / "model.tnm"),
             str(work / "model.tnq"), str(fs_hz)],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        tally.add(done.returncode == 0, f"setup probe exit {done.returncode}")
        if done.returncode != 0:
            return None, times
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times), times


def layer_metrics(tracer, plain: dict, traced: dict, qmodel) -> dict:
    """Per-layer metrics from the traced half's span aggregates; `plain` and
    `traced` are the two halves' end-to-end values, for the overhead."""
    replays = Counter(tracer.ops.values())["stream.replay"]

    def agg(names, op_prefix=""):
        """Summed stats of the spans `names` inside operations of that kind."""
        total = spans.Stat()
        for (kind, name), stat in tracer.stats.items():
            if name in names and kind.startswith(op_prefix):
                for field in spans.Stat.__slots__:
                    setattr(total, field, getattr(total, field) + getattr(stat, field))
        if total.calls == 0:
            raise RuntimeError(f"no traced call of {sorted(names)} in {op_prefix!r} operations")
        return total

    def ops(op_prefix):
        return sum(1 for kind in tracer.ops.values() if kind.startswith(op_prefix))

    us, ms = 1e3, 1e6
    signal, annotations = agg({"ingest.load_signal"}), agg({"ingest.load_annotations"})
    extract, split = agg({"ingest.extract_beats"}), agg({"ingest.split"})
    preprocess = agg({"dsp.preprocess"}, "cli.")
    stream_push = agg({"dsp.StreamingPreprocessor.push"}, "stream.replay")
    push_sample = agg({"qrs.RPeakDetector.push_sample"}, "stream.replay")
    emit = agg({"qrs.emit_window"}, "stream.replay")
    fit = agg({"train.fit"})
    predict = agg({"nn.predict_labels"}, "cli.eval.default")
    tdq = agg({"quant.predict_labels_quantized"}, "cli.eval.temporary-dequantized")
    quantized = agg({"quant.predict_labels_quantized"}, "cli.eval.quantized")
    forward = agg({"quant.forward_temporary_dequantized"}, "stream.replay")
    quantize = agg({"quant.quantize_model"}, "cli.quantize")
    scoring = agg({"metrics.confusion", "metrics.scores"}, "cli.eval.")
    saves = agg({"modelio.save_model", "modelio.save_qmodel", "modelio.save_json_mirror"})
    loads = agg({"modelio.load_model", "modelio.load_qmodel"})
    out = {
        "ingest.load_signal_us_per_sample": signal.total_ns / us / signal.items,
        "ingest.load_annotations_us_per_line": annotations.total_ns / us / annotations.items,
        "ingest.extract_beats_self_us_per_beat": extract.self_ns / us / extract.items,
        "ingest.split_ms": split.total_ns / ms / split.calls,
        "dsp.preprocess_us_per_sample": preprocess.total_ns / us / preprocess.items,
        "dsp.stream_push_us_per_sample": stream_push.total_ns / us / stream_push.calls,
        "qrs.push_sample_self_us_per_sample": push_sample.self_ns / us / push_sample.calls,
        "qrs.emit_window_us_per_call": emit.total_ns / us / emit.calls,
        "qrs.emit_window_calls_per_beat": emit.calls / emit.items,
        "qrs.emit_window_useful_ratio": emit.items / emit.calls,
        "qrs.beats_detected": push_sample.items / replays,
        "qrs.beats_lost": emit.errors / replays,
        "train.fit_ms_per_step": fit.total_ns / ms / fit.items,
    }
    for name in ("forward_batch", "backward", "adam_step"):
        stat = agg({f"train.{name}"}, "cli.train")
        out[f"train.{name}_us_per_call"] = stat.total_ns / us / stat.calls
    out.update({
        "nn.predict_labels_us_per_beat": predict.total_ns / us / predict.items,
        "quant.predict_labels_quantized_us_per_beat.tdq": tdq.total_ns / us / tdq.items,
        "quant.predict_labels_quantized_us_per_beat.quantized":
            quantized.total_ns / us / quantized.items,
        "quant.forward_tdq_us_per_call": forward.total_ns / us / forward.calls,
        "quant.quantize_model_ms": quantize.total_ns / ms / quantize.calls,
        "quant.flops_booked": quant.flops_report(qmodel.shapes).total,
        "quant.sram_bytes_booked": quant.memory_report(qmodel).total_bytes,
        # confusion + scores, per eval call
        "metrics.scores_us_per_call": scoring.total_ns / us / ops("cli.eval."),
        "modelio.save_ms": saves.total_ns / ms / saves.calls,
        "modelio.load_ms": loads.total_ns / ms / loads.calls,
    })
    # A CLI call's own time: its span minus the time in other layers.
    cli_names = {name for _, name in tracer.stats if name.startswith("cli.")}
    for sub in ("ingest", "train", "quantize", "eval"):
        own = agg(cli_names, f"cli.{sub}")
        out[f"cli.{sub}.self_ms"] = own.self_ns / ms / ops(f"cli.{sub}")
    out["trace.build_s_ratio"] = traced["build_s"] / plain["build_s"]
    out["trace.stream_seconds_ratio"] = (
        plain["stream_samples_per_s"] / traced["stream_samples_per_s"])
    return out


def machine_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{stem}-{os.getpid()}"
    work.mkdir()
    tally = Tally()
    try:
        inputs = wl.make_inputs(workload, args.seed, work)
        if args.trace:
            half = args.seconds / 2
            # Neither half reports stream quality, so neither replays every segment.
            plain, details = measure(workload, inputs, work, half, tally, all_segments=False)
            tracer = spans.Tracer()
            spans.install(tracer)
            tracer.active = True
            traced, _ = measure(workload, inputs, work, half, tally, tracer, all_segments=False)
            tracer.active = False
            tracer.write(OUT / f"{stem}.spans.jsonl")
            values, units = {}, PER_LAYER
            if not tally.failed:
                qmodel = modelio.load_qmodel(work / "model.tnq")
                values = layer_metrics(tracer, plain, traced, qmodel)
            details["untraced"], details["traced"] = plain, traced
        else:
            values, details = measure(workload, inputs, work, args.seconds, tally)
            values["setup_s"], details["setup_s_probes"] = setup_seconds(work, wl.FS_HZ, tally)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values.get(name), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(), "details": details,
              "failures": dict(tally.reasons), **result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    for name, unit in units.items():
        value = values.get(name)
        print(f"{name:<54}{'-' if value is None else format(value, '.6g'):>16} {unit}")
    print(json.dumps({"machine": record["machine"], "details": details,
                      "failures": record["failures"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
