#!/usr/bin/env python3
"""Full-scale run: train the selected variant, quantize, evaluate all
three inference modes on the held-out split, print the summary tables.

Expects a beats file built by `tinyecg ingest` from the full MIT-BIH
export (scripts/export_mitbih.py). With defaults this reproduces the
published operating point: ~0.97 test accuracy before quantization, a
drop of a few points in quantized-only mode, and most of it recovered
by temporary dequantization.

    python scripts/reproduce_full_scale.py --beats beats.npz
    python scripts/reproduce_full_scale.py --beats beats.npz --epochs 2000  # quick look
"""

import argparse
import time

from tinyecg.ingest import BeatSet, split, summarize
from tinyecg.metrics import confusion, format_report, scores
from tinyecg.nn import predict_labels
from tinyecg.quant import (
    flops_report,
    format_cost_report,
    kernel_flops_report,
    memory_report,
    predict_labels_quantized,
    quantize_model,
)
from tinyecg.train import TrainConfig, fit


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--beats", required=True)
    parser.add_argument("--variant", default="sigmoid-sigmoid")
    parser.add_argument("--epochs", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--train-fraction", type=float, default=67972 / 101451,
        help="default matches the published train/test sizes",
    )
    args = parser.parse_args()

    beats = BeatSet.load(args.beats)
    print("corpus:")
    print(summarize(beats))
    train_set, test_set = split(beats, args.train_fraction, args.seed)
    print(f"\nsplit: {len(train_set)} train / {len(test_set)} test")

    config = TrainConfig(epochs=args.epochs, seed=args.seed, variant=args.variant)
    t0 = time.perf_counter()
    model, trace = fit(train_set, test_set, config)
    print(f"\ntrained {args.variant} in {time.perf_counter() - t0:.0f}s")
    print(f"train accuracy {trace.train_accuracy:.4f}  macro-F1 {trace.train_macro_f1:.4f}")
    print(f"test  accuracy {trace.test_accuracy:.4f}  macro-F1 {trace.test_macro_f1:.4f}")

    qmodel = quantize_model(model)
    print("\ncost report:")
    kernel = kernel_flops_report(qmodel.shapes, qmodel.qparams.zero_point)
    print(format_cost_report(flops_report(qmodel.shapes), memory_report(qmodel), kernel))

    runs = {
        "default": predict_labels(model, test_set.windows),
        "temporary-dequantized": predict_labels_quantized(
            qmodel, test_set.windows, temporary=True
        ),
        "quantized-only": predict_labels_quantized(
            qmodel, test_set.windows, temporary=False
        ),
    }
    accuracies = {}
    for mode, predicted in runs.items():
        report = scores(confusion(test_set.labels, predicted))
        accuracies[mode] = report.accuracy
        print(f"\n=== {mode} ===")
        print(format_report(report))

    print("\nmode ordering: " + "  ".join(f"{m}={a:.4f}" for m, a in accuracies.items()))
    drop = accuracies["default"] - accuracies["quantized-only"]
    print(f"quantized-only drop: {drop * 100:.2f} points")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
