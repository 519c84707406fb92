"""Set-up probe, run as a fresh process by the benchmark.

It imports tinyecg, loads the float and quantized model files and builds
the live detector, then prints the monotonic clock at the moment it is
ready. The parent subtracts its own reading taken just before it started
the process, so the difference runs from process start to ready.

    python3 perfbench/probe.py MODEL.tnm MODEL.tnq SAMPLING_RATE_HZ
"""

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tinyecg.cli  # noqa: E402,F401  (the whole package, as the CLI loads it)
from tinyecg import dsp, modelio, qrs  # noqa: E402


def main(argv) -> None:
    float_path, quant_path, rate = argv
    modelio.load_model(float_path)
    modelio.load_qmodel(quant_path)
    qrs.RPeakDetector(dsp.FilterSpec(float(rate)))
    print(repr(time.perf_counter()), flush=True)
    os._exit(0)  # interpreter teardown is not set-up; skip it


if __name__ == "__main__":
    main(sys.argv[1:])
