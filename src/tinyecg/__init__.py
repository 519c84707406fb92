"""Low-compute ECG arrhythmia pipeline.

Pan-Tompkins preprocessing and streaming R-peak detection feed a
61 -> 10 -> 4 dense classifier; post-training int8 quantization with
temporary dequantization keeps the deployed model inside a 2 KB SRAM
budget. This package is the host-side reference: data ingestion,
training, quantization, exact FLOPs/byte accounting and evaluation.
"""

from .dsp import FilterSpec, preprocess
from .ingest import (
    BeatSet,
    extract_beats,
    load_annotations,
    load_signal,
    split,
)
from .labels import CLASSES
from .metrics import confusion, scores
from .modelio import load_any, load_model, load_qmodel, save_model, save_qmodel
from .nn import DenseModel, forward, predict_labels, standard_model
from .qrs import RPeakDetector, StreamBuffer, emit_window
from .quant import (
    QuantizedModel,
    QuantParams,
    compute_qparams,
    dequantize,
    dequantize_model,
    flops_report,
    forward_quantized_only,
    forward_temporary_dequantized,
    memory_report,
    quantize,
    quantize_model,
)
from .train import (
    TrainConfig,
    TrainTrace,
    adam_step,
    backward,
    distill,
    fit,
    fit_weights_only,
    mse_loss,
    prune_and_retrain,
)

__version__ = "0.1.0"
