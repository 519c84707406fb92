#!/usr/bin/env python3
"""Print one `<name> <sha256>` line per output family of the pipeline.

Two checkouts that print the same lines compute the same bits: the
bandpass biquad's coefficients over a grid of sampling rates, the batch
preprocessing chain's output at six rates (5, 61 and 5,000 samples, the
last an ECG riding on a DC offset of 1024), trained
parameters and loss curves (`fit`, `distill`, `prune_and_retrain`,
`fit_weights_only`) for all four variants, both
quantization modes, every forward (per beat and batched) and
`predict_labels*` in all three inference modes, saved
`.tnm`/`.tnq` bytes with their JSON mirrors, the loaders' error class and
message for every single-byte edit (the byte inverted, CRC recomputed) and
every truncation of a saved `.tnm` and `.tnq`, `tinyecg quantize`'s
stdout (text and `--json`), and the streaming detector's indices,
windows and labels over synthetic recordings with S, V and F beats.
Inputs come from `tinyecg.synthetic` and fixed seeds. Compare a change
against its parent commit with

    PYTHONPATH=<parent>/src python scripts/output_digest.py > parent.txt
    PYTHONPATH=src python scripts/output_digest.py > change.txt
    diff parent.txt change.txt
"""

import argparse
import contextlib
import hashlib
import io
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np

from tinyecg import cli, modelio, quant
from tinyecg.dsp import FilterSpec, bandpass_coefficients, preprocess
from tinyecg.ingest import extract_beats, load_annotations, load_signal, split
from tinyecg.nn import VARIANTS, forward, predict_labels, sigmoid, softmax, standard_model
from tinyecg.qrs import RPeakDetector
from tinyecg.synthetic import labeled_recording, write_annotation_csv, write_signal_csv
from tinyecg.train import (
    TrainConfig,
    distill,
    fit,
    fit_weights_only,
    forward_batch,
    prune_and_retrain,
)

FS = 360.0
SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-320, -1e-320, 710.0, -710.0]


def digest(*items) -> str:
    """sha256 over each item's dtype, shape and bytes."""
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, bytes):
            h.update(item)
            continue
        a = np.ascontiguousarray(item)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def model_digest(model, trace=None) -> str:
    items = list(model.parameters)
    if trace is not None:
        items += [trace.losses, [trace.train_accuracy, trace.test_accuracy,
                                 trace.train_macro_f1, trace.test_macro_f1]]
    return digest(*items)


def quantize_output(model_path: Path, mode: str, *flags: str) -> bytes:
    """`tinyecg quantize`'s exit code, stdout and written `.tnq` bytes."""
    out_path = model_path.with_suffix(f".cli.{mode}.tnq")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["quantize", "--model", str(model_path), "--mode", mode,
                         "--out", str(out_path), *flags])
    return f"{code}\n{stdout.getvalue()}".encode() + out_path.read_bytes()


def beat_labels(seed: int, n: int) -> list[str]:
    rng = np.random.default_rng(seed)
    return list(rng.choice(["N", "N", "N", "S", "V", "F"], size=n))


def training_beats(work: Path):
    """Labeled beats through the CSV ingest path, split 2:1."""
    signal, truth = labeled_recording(beat_labels(0, 300), bpm=90.0, snr_db=25.0)
    write_signal_csv(work / "train.csv", signal)
    write_annotation_csv(work / "train.ann.csv", truth)
    beats = extract_beats(load_signal(work / "train.csv"), FilterSpec(FS),
                          load_annotations(work / "train.ann.csv"))
    return split(beats, 0.67, seed=0)


def detect(seed: int):
    """`tinyecg stream`'s detection: indices, lost beats, final levels, windows.

    `lost` stays empty (a lost window raises); it is hashed so that the
    line matches checkouts whose stream loop counted lost beats.
    """
    samples, _ = labeled_recording(beat_labels(seed, 60), bpm=110.0, snr_db=25.0, seed=seed)
    detector = RPeakDetector(FilterSpec(FS))
    beats = [beat for beat in map(detector.push, samples) if beat is not None]
    detected = [r for r, _ in beats]
    levels = [detector.signal_level, detector.noise_level]
    return detected, [], levels, [w for _, w in beats]


def load_outcomes(path: Path, load) -> list[str]:
    """`load`'s outcome on every CRC-valid single-byte edit (the byte inverted)
    and every truncation of the file at `path`: "loaded", or the exception's
    class and message with the path replaced by `<path>`."""
    body = path.read_bytes()[:-4]
    edits = [body[:pos] + bytes([body[pos] ^ 0xFF]) + body[pos + 1:] for pos in range(len(body))]
    outcomes = []
    for edited in edits + [body[:cut] for cut in range(len(body))]:
        path.write_bytes(edited + struct.pack("<I", zlib.crc32(edited)))
        try:
            load(path)
            outcomes.append("loaded")
        except Exception as exc:  # the class is part of the outcome
            outcomes.append(f"{type(exc).__name__}: {str(exc).replace(str(path), '<path>')}")
    return outcomes


def lines(epochs: int, work: Path):
    rates = np.union1d(np.geomspace(30.5, 1e6, 400), [128.0, 250.0, FS, 500.0, 1000.0, 1e300])
    yield "dsp.bandpass_coefficients", digest(*(
        c for fs in rates for c in bandpass_coefficients(FilterSpec(fs))))
    noise = np.random.default_rng(2).normal(0, 1, 66)
    ecg, _ = labeled_recording(beat_labels(4, 20), bpm=90.0, snr_db=25.0, seed=4)
    recordings = [noise[:5], noise[5:], 1024.0 + 200.0 * ecg[:5000]]
    yield "dsp.preprocess", digest(*(
        preprocess(x, FilterSpec(fs)) for fs in [30.5, 128.0, 250.0, FS, 500.0, 1000.0]
        for x in recordings))

    rng = np.random.default_rng(1)
    z = np.concatenate([rng.normal(0, 30, 2000), SPECIAL])
    yield "nn.sigmoid", digest(sigmoid(z), sigmoid(z.reshape(-1, 1)))
    yield "nn.softmax", digest(*(softmax(rng.normal(0, 5, shape)) for shape in
                                 [(4,), (1, 4), (300, 4), (3, 5, 4), (50, 7), (20, 1)]))

    streams = [detect(seed) for seed in (5, 6, 7)]
    for seed, (detected, lost, levels, _) in zip((5, 6, 7), streams):
        yield f"qrs.RPeakDetector.seed{seed}", digest(detected, lost, levels)
    for seed, (*_, windows) in zip((5, 6, 7), streams):
        yield f"qrs.RPeakDetector.windows.seed{seed}", digest(*windows)

    train_set, test_set = training_beats(work)
    windows = test_set.windows
    yield "ingest.extract_beats", digest(train_set.windows, train_set.labels,
                                         windows, test_set.labels)
    for variant in sorted(VARIANTS):
        config = TrainConfig(epochs=epochs, learning_rate=0.01, batch_size=64,
                             seed=3, variant=variant)
        model, trace = fit(train_set, test_set, config)
        yield f"fit.{variant}", model_digest(model, trace)
        yield f"distill.{variant}", model_digest(distill(model, train_set, config))
        yield f"prune_and_retrain.{variant}", model_digest(
            prune_and_retrain(model, train_set, config))
        yield f"fit_weights_only.{variant}", model_digest(
            *fit_weights_only(train_set, test_set, config))

        yield f"forward_batch.{variant}", digest(*forward_batch(model, windows))
        # line names stay fixed so that a diff against older checkouts lines up
        yield f"model_forward.{variant}", digest(*(forward(model, w) for w in windows))
        yield f"model_forward.batch.{variant}", digest(forward(model, windows))
        yield f"predict_labels.{variant}", digest(predict_labels(model, windows))
        model_path = work / f"{variant}.tnm"
        modelio.save_model(model, model_path)
        modelio.save_json_mirror(model, work / f"{variant}.tnm.json")
        yield f"modelio.tnm.{variant}", digest(
            model_path.read_bytes(), (work / f"{variant}.tnm.json").read_bytes(),
            *modelio.load_model(model_path).parameters)

        for mode in ("symmetric", "asymmetric"):
            qmodel = quant.quantize_model(model, mode)
            qp = qmodel.qparams
            yield f"quantize.{mode}.{variant}", digest(
                *qmodel.parameters, [qp.scale, qp.alpha, qp.beta], [qp.zero_point],
                *quant.dequantize_model(qmodel).parameters)
            for fn in (quant.forward_temporary_dequantized, quant.forward_quantized_only):
                name = fn.__name__
                yield f"{name}.{mode}.{variant}", digest(*(fn(qmodel, w) for w in windows))
                yield f"{name}.batch.{mode}.{variant}", digest(fn(qmodel, windows))
            yield f"predict_labels_quantized.{mode}.{variant}", digest(
                quant.predict_labels_quantized(qmodel, windows[:40], temporary=True),
                quant.predict_labels_quantized(qmodel, windows, temporary=False))
            path = work / f"{variant}.{mode}.tnq"
            modelio.save_qmodel(qmodel, path)
            modelio.save_json_mirror(qmodel, work / f"{variant}.{mode}.tnq.json")
            yield f"modelio.tnq.{mode}.{variant}", digest(
                path.read_bytes(), (work / f"{variant}.{mode}.tnq.json").read_bytes(),
                *modelio.load_qmodel(path).parameters)
            yield f"cli.quantize.{mode}.{variant}", digest(
                quantize_output(model_path, mode), quantize_output(model_path, mode, "--json"))
            yield f"stream.labels.{mode}.{variant}", digest(*(
                [np.argmax(quant.forward_temporary_dequantized(qmodel, w)) for w in beats]
                for *_, beats in streams))

    model = standard_model("relu-softmax", seed=4)
    modelio.save_model(model, work / "edited.tnm")
    outcomes = load_outcomes(work / "edited.tnm", modelio.load_model)
    for mode in ("symmetric", "asymmetric"):
        modelio.save_qmodel(quant.quantize_model(model, mode), work / "edited.tnq")
        outcomes += load_outcomes(work / "edited.tnq", modelio.load_qmodel)
    yield "modelio.errors", digest("\n".join(outcomes).encode())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--epochs", type=int, default=40)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for name, value in lines(args.epochs, Path(tmp)):
            print(name, value)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
