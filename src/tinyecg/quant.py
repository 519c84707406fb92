"""Int8 quantization, temporary-dequantization inference, cost accounting.

One global scale/zero-point pair covers all 664 parameters. Symmetric
mode clips to [-max|p|, +max|p|] so real zero lands exactly on integer
code 0; asymmetric mode uses the raw [min, max] range. `QuantizedModel`
holds the int8 codes in the float model's two-layer record
(`nn.TwoLayerModel`), so both share its shape checks and its one parameter
buffer, `flat`, which (de)quantizing a model maps in one call.

Every int8 inference, one beat or a batch, runs through `nn.forward`,
the walk float models and training use too; only the layer kernel (the
affine map) differs. The deployed kernel on the device keeps its
parameters int8-resident and scales each one back to a real value at its
moment of use, so the working set grows by a few bytes instead of 4x.
The host kernel `_temporary_layer` accumulates on the int8 codes instead
and rescales once per output neuron (Jacob et al. 2018). With one global
scale s and zero point z,
x @ s(W_q + z) + s(b_q + z) = s(x @ W_q + b_q + z(sum(x) + 1)), so the
two routes are equal in real arithmetic and differ only in rounding.
Only the host kernel runs here: the live stream calls it per beat, and
batch eval walks it once over the stacked beats, whose rows are the
per-beat scores bit for bit, so eval scores the label the stream gives.
`forward_quantized_only` instead feeds the raw integer codes to the float
kernel `nn.dense`, the cheapest (and least accurate) deployment mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .nn import DenseModel, TwoLayerModel, dense, flat_size, forward, predict_labels, unflatten
from .qrs import BUFFER_CAPACITY

INT8_MIN = -127
INT8_MAX = 127
# A .tnq file stores a mode as its index here.
MODES = ("symmetric", "asymmetric")

SRAM_BUDGET_BYTES = 2048
BYTES_PER_SAMPLE = 4
# The deployed accounting books 3 extra bytes for the one temporarily
# dequantized value; a 32-bit real actually occupies 4.
TEMP_DEQUANT_BYTES_REPORTED = 3
TEMP_DEQUANT_BYTES_ACTUAL = 4


class DegenerateRangeError(ValueError):
    """All parameters are zero; no finite scale exists."""


@dataclass(frozen=True)
class QuantParams:
    """Global affine mapping x = scale * (x_q + zero_point)."""

    scale: float
    zero_point: int
    alpha: float
    beta: float
    mode: str  # one of MODES

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")


@dataclass
class QuantizedModel(TwoLayerModel):
    """Int8 mirror of a DenseModel plus the shared quantization parameters."""

    qparams: QuantParams
    variant: str

    dtype: ClassVar[type] = np.int8

    def __post_init__(self):
        super().__post_init__()
        for name, arr in zip(("w1", "b1", "w2", "b2"), self.parameters):
            if arr.size and arr.min() < INT8_MIN:
                raise ValueError(f"{name} holds a code below {INT8_MIN}")


def compute_qparams(model: DenseModel, mode: str = "symmetric") -> QuantParams:
    """Derive the single global scale/zero-point from a trained model."""
    if mode == "symmetric":
        beta = float(np.max(np.abs(model.flat)))
        if beta == 0.0:
            raise DegenerateRangeError("all parameters are zero")
        alpha = -beta
    elif mode == "asymmetric":
        alpha, beta = float(np.min(model.flat)), float(np.max(model.flat))
        if beta == alpha:
            raise DegenerateRangeError("parameter range is a single point")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    scale = (beta - alpha) / (INT8_MAX - INT8_MIN)
    # Align alpha with code INT8_MIN under x = s*(x_q + z); symmetric
    # ranges make this exactly zero so real 0.0 maps to code 0.
    zero_point = int(round(alpha / scale)) - INT8_MIN
    return QuantParams(scale, zero_point, alpha, beta, mode)


def _round_half_away(v: np.ndarray) -> np.ndarray:
    return np.copysign(np.floor(np.abs(v) + 0.5), v)


def quantize(x, q: QuantParams):
    """Real -> int8 code: clamp(round(x / s) - z). Scalar in, scalar out."""
    v = _round_half_away(np.asarray(x, dtype=np.float64) / q.scale) - q.zero_point
    out = np.clip(v, INT8_MIN, INT8_MAX).astype(np.int8)
    return out if out.ndim else int(out)


def dequantize(x_q, q: QuantParams):
    """Int8 code -> real: s * (x_q + z)."""
    out = q.scale * (np.asarray(x_q, dtype=np.float64) + q.zero_point)
    return out if out.ndim else float(out)


def quantize_model(model: DenseModel, mode: str = "symmetric") -> QuantizedModel:
    q = compute_qparams(model, mode)
    return QuantizedModel(*unflatten(quantize(model.flat, q), model.shapes), q, model.variant)


def dequantize_model(qmodel: QuantizedModel) -> DenseModel:
    """Materialize the whole model back to reals (the non-temporary route)."""
    flat = dequantize(qmodel.flat, qmodel.qparams)
    return DenseModel(*unflatten(flat, qmodel.shapes), qmodel.variant)


def _temporary_layer(x, w_q, b_q, q: QuantParams) -> np.ndarray:
    """One dense layer's affine map on int8 codes, rescaled once per output.

    Computes the pre-activation s * (x @ W_q + b_q + z * (sum(x) + 1)),
    which equals x @ s(W_q + z) + s(b_q + z), the per-parameter
    dequantization of the deployed kernel, in real arithmetic; `x` is one
    beat, a batch or a stack of beats, summed per row. numpy casts the codes
    to floats inside each operation; no float copy of the weights outlives
    the call.
    """
    acc = x @ w_q
    acc += b_q
    if q.zero_point:
        acc += q.zero_point * (x.sum(axis=-1, keepdims=True) + 1.0)
    acc *= q.scale
    return acc


def forward_temporary_dequantized(qmodel: QuantizedModel, beat) -> np.ndarray:
    """Inference with int8-resident parameters, rescaled by the global scale;
    one beat or a batch, as `nn.forward`."""
    return forward(qmodel, beat, _temporary_layer, qmodel.qparams)


def forward_quantized_only(qmodel: QuantizedModel, beat) -> np.ndarray:
    """Inference reading the integer codes as real weights, with no rescaling."""
    return forward(qmodel, beat, dense)


def predict_labels_quantized(
    qmodel: QuantizedModel, windows, temporary: bool = True
) -> np.ndarray:
    """Predicted class codes for an array of windows, from `nn.predict_labels`.

    `temporary` runs `_temporary_layer`, the kernel the live stream calls per
    beat, on the stacked windows; each row's scores are that call's bit for
    bit, so both give every beat the same label."""
    kernel, args = (_temporary_layer, (qmodel.qparams,)) if temporary else (dense, ())
    return predict_labels(qmodel, windows, kernel, *args)


@dataclass(frozen=True)
class FlopsReport:
    """Per-layer floating point operations: 2*fan_in*fan_out + fan_out."""

    layers: tuple[tuple[int, int, int], ...]  # (fan_in, fan_out, flops)
    total: int


def flops_report(shapes) -> FlopsReport:
    layers = tuple(
        (fan_in, fan_out, 2 * fan_in * fan_out + fan_out) for fan_in, fan_out in shapes
    )
    return FlopsReport(layers, sum(f for _, _, f in layers))


def kernel_flops_report(shapes, zero_point: int) -> FlopsReport:
    """Operations the host kernel `_temporary_layer` performs, per layer:
    the kernel behind both `stream` and temporary-dequantized `eval`.

    The booked count plus one rescale per output neuron. A nonzero zero
    point adds the sum of the inputs (fan_in - 1 adds), its + 1 and its
    product with z, and one add per output neuron.
    """
    layers = tuple(
        (fan_in, fan_out, flops + fan_out + (fan_in + 1 + fan_out if zero_point else 0))
        for fan_in, fan_out, flops in flops_report(shapes).layers
    )
    return FlopsReport(layers, sum(f for _, _, f in layers))


@dataclass(frozen=True)
class MemoryReport:
    """SRAM accounting against the 2048-byte target budget."""

    model_param_bytes: int  # one byte per int8 parameter
    temp_dequant_bytes: int
    temp_dequant_bytes_actual: int
    model_bytes: int
    buffer_bytes: int
    total_bytes: int
    budget_bytes: int
    over_budget: bool


def memory_report_from_shapes(shapes) -> MemoryReport:
    """Book the int8 parameters, one temp value and the detector's sample buffer."""
    param_bytes = flat_size(shapes)
    model_bytes = param_bytes + TEMP_DEQUANT_BYTES_REPORTED
    buffer_bytes = BUFFER_CAPACITY * BYTES_PER_SAMPLE
    total = model_bytes + buffer_bytes
    return MemoryReport(
        model_param_bytes=param_bytes,
        temp_dequant_bytes=TEMP_DEQUANT_BYTES_REPORTED,
        temp_dequant_bytes_actual=TEMP_DEQUANT_BYTES_ACTUAL,
        model_bytes=model_bytes,
        buffer_bytes=buffer_bytes,
        total_bytes=total,
        budget_bytes=SRAM_BUDGET_BYTES,
        over_budget=total > SRAM_BUDGET_BYTES,
    )


def memory_report(qmodel: QuantizedModel) -> MemoryReport:
    return memory_report_from_shapes(qmodel.shapes)


def format_cost_report(flops: FlopsReport, memory: MemoryReport, kernel: FlopsReport) -> str:
    """Fixed-width table pairing per-layer FLOPs with parameter bytes.

    `flops` and the temp byte count are the deployed accounting's booked
    figures; `kernel` and the actual temp bytes stand beside them.
    """
    lines = [f"{'layer':<8}{'flops':>8}{'kernel flops':>14}{'param bytes':>14}"]
    for i, ((fan_in, fan_out, fl), (_, _, kfl)) in enumerate(zip(flops.layers, kernel.layers), 1):
        lines.append(f"{i:<8}{fl:>8}{kfl:>14}{fan_in * fan_out + fan_out:>14}")
    lines.append(
        f"{'total':<8}{flops.total:>8}{kernel.total:>14}{memory.model_param_bytes:>14}"
    )
    lines.append("")
    lines.append(f"{'component':<26}{'bytes':>8}")
    lines.append(
        f"{'model (params + temp)':<26}{memory.model_bytes:>8}"
        f"   ({memory.model_param_bytes} + {memory.temp_dequant_bytes};"
        f" a float32 temp really takes {memory.temp_dequant_bytes_actual})"
    )
    lines.append(
        f"{'sample buffer':<26}{memory.buffer_bytes:>8}"
        f"   ({memory.buffer_bytes // BYTES_PER_SAMPLE} x {BYTES_PER_SAMPLE})"
    )
    lines.append(f"{'total':<26}{memory.total_bytes:>8}")
    status = "OVER BUDGET" if memory.over_budget else "ok"
    lines.append(f"{'budget':<26}{memory.budget_bytes:>8}   ({status})")
    return "\n".join(lines)
