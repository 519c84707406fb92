#!/usr/bin/env python3
"""No-data demo: synthesize recordings, then run every pipeline stage.

Generates a labeled training recording and a replay recording with
ventricular beats injected, ingests, trains briefly, quantizes, scores
all three inference modes, and streams the replay through live detection
with alert lines. Everything lands in --workdir (default ./demo_out).

    python scripts/demo_synthetic.py
"""

import argparse
from pathlib import Path

import numpy as np

from tinyecg.cli import main as cli
from tinyecg.synthetic import labeled_recording, write_annotation_csv, write_signal_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="demo_out")
    parser.add_argument("--epochs", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(args.seed)
    labels = list(rng.choice(["N", "N", "N", "V", "S", "F"], size=300))
    signal, truth = labeled_recording(labels, snr_db=25.0, seed=args.seed)
    write_signal_csv(work / "train.signal.csv", signal)
    write_annotation_csv(work / "train.annotations.csv", truth)

    replay, _ = labeled_recording(
        ["N", "N", "V", "N", "N", "N", "V", "N", "N", "N"],
        seed=args.seed + 1, start_s=2.5,
    )
    write_signal_csv(work / "replay.signal.csv", replay)

    steps = [
        ["ingest", "--signal", str(work / "train.signal.csv"),
         "--annotations", str(work / "train.annotations.csv"),
         "--out", str(work / "beats.npz")],
        ["train", "--beats", str(work / "beats.npz"),
         "--epochs", str(args.epochs), "--seed", str(args.seed),
         "--out", str(work / "model.tnn"), "--trace", str(work / "trace.csv")],
        ["quantize", "--model", str(work / "model.tnn"),
         "--out", str(work / "model.tnq")],
        ["eval", "--model", str(work / "model.tnn"),
         "--beats", str(work / "beats.npz"), "--split", "test"],
        ["eval", "--model", str(work / "model.tnq"),
         "--beats", str(work / "beats.npz"), "--split", "test",
         "--inference-mode", "temporary-dequantized"],
        ["eval", "--model", str(work / "model.tnq"),
         "--beats", str(work / "beats.npz"), "--split", "test",
         "--inference-mode", "quantized"],
        ["stream", "--signal", str(work / "replay.signal.csv"),
         "--qmodel", str(work / "model.tnq")],
    ]
    for step in steps:
        print(f"\n$ tinyecg {' '.join(step)}")
        code = cli(step)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
