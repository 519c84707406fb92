"""Command-line surface for the pipeline.

Subcommands: ingest, train, quantize, eval, stream. Exit codes are 0 on
success, 2 for usage errors (argparse), 3 for missing, unreadable,
unwritable or malformed files (a model file of the wrong kind included, and
a model with non-finite parameters, which `train` does not write), 4 for
a file that is not an intact model file (CRC, length, magic, version or
layer header), 5 when the quantized model blows the SRAM budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import metrics, modelio, quant
from .dsp import FilterSpec
from .ingest import (
    SAMPLING_RATE_HZ,
    WINDOW_LEN,
    BeatSet,
    ParseError,
    extract_beats,
    load_annotations,
    load_signal,
    merge,
    split,
    summarize,
)
from .labels import CLASSES
from .nn import VARIANTS, predict_labels
from .qrs import RPeakDetector
from .quant import predict_labels_quantized
from .train import TrainConfig, fit

EXIT_OK = 0
EXIT_INPUT = 3
EXIT_CHECKSUM = 4
EXIT_BUDGET = 5

INFERENCE_MODES = ("default", "quantized", "temporary-dequantized")
TRAIN_FRACTION = 0.67


def cmd_ingest(args) -> int:
    if len(args.signal) != len(args.annotations):
        raise ParseError("need one --annotations per --signal")
    spec = FilterSpec(args.sampling_rate)
    sets = []
    skipped_other = 0
    for sig_path, ann_path in zip(args.signal, args.annotations):
        samples = load_signal(sig_path)
        annotations = load_annotations(ann_path)
        skipped_other += np.count_nonzero(annotations[:, 1] < 0)
        sets.append(extract_beats(samples, spec, annotations))
    beats = merge(sets)
    beats.save(args.out)
    print(summarize(beats))
    if skipped_other:
        print(f"(dropped {skipped_other} annotation(s) outside the four classes)")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    beats = BeatSet.load(args.beats)
    train_set, test_set = split(beats, args.train_fraction, args.seed)
    config = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        seed=args.seed,
        variant=args.variant,
    )
    model, trace = fit(train_set, test_set, config)
    modelio.save_model(model, args.out)
    modelio.save_json_mirror(model, str(args.out) + ".json")
    if args.trace:
        trace.save_csv(args.trace)
    print(
        f"trained {args.variant} on {len(train_set)} beats "
        f"({len(test_set)} held out)"
    )
    print(
        f"final loss {trace.losses[-1]:.6f}  "
        f"train acc {trace.train_accuracy:.4f}  test acc {trace.test_accuracy:.4f}"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_quantize(args) -> int:
    model = modelio.load_model(args.model)
    qmodel = quant.quantize_model(model, args.mode)
    modelio.save_qmodel(qmodel, args.out)
    qp = qmodel.qparams
    flops = quant.flops_report(qmodel.shapes)
    kernel = quant.kernel_flops_report(qmodel.shapes, qp.zero_point)
    memory = quant.memory_report(qmodel)
    if args.json:
        print(json.dumps({
            "flops": asdict(flops), "kernel_flops": asdict(kernel), "memory": asdict(memory),
            "scale": qp.scale, "zero_point": qp.zero_point, "mode": qp.mode,
        }))
    else:
        print(quant.format_cost_report(flops, memory, kernel))
        print(f"scale {qp.scale!r}  zero point {qp.zero_point}  mode {qp.mode}")
        if qp.zero_point != 0:
            print("note: nonzero zero point; real 0.0 does not map to code 0")
    print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_BUDGET if memory.over_budget else EXIT_OK


def _select_split(beats: BeatSet, which: str, fraction: float, seed: int) -> BeatSet:
    if which == "all":
        return beats
    train_set, test_set = split(beats, fraction, seed)
    return train_set if which == "train" else test_set


def cmd_eval(args) -> int:
    beats = BeatSet.load(args.beats)
    beats = _select_split(beats, args.split, args.train_fraction, args.seed)
    if len(beats) == 0:
        raise ValueError("no beats to evaluate")
    if args.inference_mode == "default":
        predicted = predict_labels(modelio.load_model(args.model), beats.windows)
    else:
        predicted = predict_labels_quantized(
            modelio.load_qmodel(args.model), beats.windows,
            temporary=args.inference_mode == "temporary-dequantized",
        )

    report = metrics.scores(metrics.confusion(beats.labels, predicted))
    if args.json:
        print(json.dumps(metrics.report_to_dict(report)))
    else:
        print(metrics.format_report(report))
    return EXIT_OK


def cmd_stream(args) -> int:
    detector = RPeakDetector(FilterSpec(args.sampling_rate))
    qmodel = modelio.load_qmodel(args.qmodel)
    if qmodel.shapes[0][0] != WINDOW_LEN:
        raise ValueError(f"{args.qmodel}: model takes {qmodel.shapes[0][0]}-sample beats, "
                         f"the stream emits {WINDOW_LEN}-sample windows")
    events = 0
    for raw in load_signal(args.signal):
        beat = detector.push(raw)
        if beat is None:
            continue
        r_index, window = beat
        label = CLASSES[int(np.argmax(quant.forward_temporary_dequantized(qmodel, window)))]
        print(f"{r_index},{label}")
        if label != "N":
            print(f"ALERT,{r_index},{label}")
        events += 1
    print(f"# {events} beat(s) classified", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tinyecg",
        description="ECG beat detection, dense-net arrhythmia classification, "
        "int8 quantization and SRAM budgeting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="CSV recordings -> preprocessed labeled beats")
    p.add_argument("--signal", action="append", required=True,
                   help="signal CSV (`index,value`); repeatable per record")
    p.add_argument("--annotations", action="append", required=True,
                   help="annotation CSV (`index,symbol`); one per --signal")
    p.add_argument("--out", required=True, help="output beats file (.npz)")
    p.add_argument("--sampling-rate", type=float, default=SAMPLING_RATE_HZ)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train one model variant on a beats file")
    p.add_argument("--beats", required=True)
    p.add_argument("--variant", choices=sorted(VARIANTS), default=TrainConfig.variant)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--train-fraction", type=float, default=TRAIN_FRACTION)
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--trace", help="optional epoch,loss CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("quantize", help="float model -> int8 model + cost report")
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=quant.MODES, default="symmetric")
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("eval", help="score a model against a beats file")
    p.add_argument("--model", required=True, help="float or quantized model file")
    p.add_argument("--beats", required=True)
    p.add_argument("--inference-mode", choices=INFERENCE_MODES, default="default")
    p.add_argument("--split", choices=("all", "train", "test"), default="all")
    p.add_argument("--train-fraction", type=float, default=TRAIN_FRACTION)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stream", help="replay a recording through detection + classification")
    p.add_argument("--signal", required=True)
    p.add_argument("--qmodel", required=True, help="quantized model file")
    p.add_argument("--sampling-rate", type=float, default=SAMPLING_RATE_HZ)
    p.set_defaults(func=cmd_stream)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # a file missing, a directory, or no permission
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}",
              file=sys.stderr)
        return EXIT_INPUT
    except modelio.ChecksumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKSUM
    except ValueError as exc:  # ParseError and precondition violations
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
