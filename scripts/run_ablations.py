#!/usr/bin/env python3
"""Compression ablations against a sigmoid-softmax base model: magnitude
pruning with retraining, distillation into a 61-4-4 student, and
weights-only training. Each is expected to land below the base model's
accuracy; the point of the table is how far below.

    python scripts/run_ablations.py --beats beats.npz
    python scripts/run_ablations.py --beats beats.npz --epochs 2000  # quick look
"""

import argparse
import time

from tinyecg.ingest import BeatSet, split
from tinyecg.train import (
    TrainConfig,
    distill,
    evaluate,
    fit,
    fit_weights_only,
    prune_and_retrain,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--beats", required=True)
    parser.add_argument("--epochs", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--train-fraction", type=float, default=67972 / 101451)
    args = parser.parse_args()

    beats = BeatSet.load(args.beats)
    train_set, test_set = split(beats, args.train_fraction, args.seed)
    config = TrainConfig(epochs=args.epochs, seed=args.seed, variant="sigmoid-softmax")

    results = {}
    t0 = time.perf_counter()
    base, _ = fit(train_set, test_set, config)
    results["base"] = evaluate(base, test_set)
    print(f"base trained ({time.perf_counter() - t0:.0f}s)")

    results["pruned"] = evaluate(prune_and_retrain(base, train_set, config), test_set)
    print("pruned + retrained")

    results["distilled"] = evaluate(distill(base, train_set, config), test_set)
    print("distilled (61-4-4 student)")

    wo, _ = fit_weights_only(train_set, test_set, config)
    results["weights-only"] = evaluate(wo, test_set)
    print("weights-only trained")

    print(f"\n{'model':<14}{'accuracy':>10}{'macro F1':>10}")
    for name, (acc, f1) in results.items():
        print(f"{name:<14}{acc:>10.4f}{f1:>10.4f}")

    base_acc = results["base"][0]
    below = [k for k, (acc, _) in results.items() if k != "base" and acc < base_acc]
    print(f"\nablations below base accuracy: {', '.join(below) or 'none'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
