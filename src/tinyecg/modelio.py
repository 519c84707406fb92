"""Versioned binary model files plus a JSON mirror for inspection.

Float models:      magic TECG, version, variant tag, per-layer shape header,
                   row-major float64 parameters, CRC32.
Quantized models:  magic TECQ, version, variant tag, quantization parameters
                   (mode, scale, zero point, clip range), per-layer shape
                   header, int8 parameters, CRC32.

One writer (`_save`) and one reader (`_open`, then `_read_params`) serve both
formats; the parameters are the model's `flat` buffer. Round trips are
bit-exact. A file whose CRC, length, magic, version or layer header is wrong
(an activation other than the variant tag's, disagreeing widths) raises
`ChecksumError`; a model of the other kind, non-finite float parameters and
values the model classes reject raise `ValueError` naming the path, and
`save_model` refuses non-finite parameters before writing.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from .nn import ACTIVATIONS, VARIANTS, DenseModel, flat_size, unflatten
from .quant import MODES, QuantParams, QuantizedModel

MAGIC_FLOAT = b"TECG"
MAGIC_QUANT = b"TECQ"
FORMAT_VERSION = 1
_KIND = {MAGIC_FLOAT: "a float model (TECG)", MAGIC_QUANT: "an int8 model (TECQ)"}
_QPARAMS = "<Bdidd"  # mode index, scale, zero point, alpha, beta
_LAYER = "<IIB"  # fan_in, fan_out, activation index


class ChecksumError(ValueError):
    """Not an intact model file (CRC, length, magic, version or layer header)."""


def _save(model, path, magic: bytes, qparams_bytes: bytes, dtype) -> None:
    tag = model.variant.encode("ascii")
    body = magic + struct.pack("<BB", FORMAT_VERSION, len(tag)) + tag + qparams_bytes
    body += struct.pack("<B", 2)
    for (fan_in, fan_out), act in zip(model.shapes, VARIANTS[model.variant]):
        body += struct.pack(_LAYER, fan_in, fan_out, ACTIVATIONS.index(act))
    body += model.flat.astype(dtype, copy=False).tobytes()
    Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def _open(path, magic: bytes):
    """Check the file's length, CRC, magic and version; return `(take, variant)`:
    `take(fmt)` unpacks the body's next bytes, `take(None)` returns the rest."""
    blob = Path(path).read_bytes()
    if len(blob) < 10:
        raise ChecksumError(f"{path}: truncated file")
    body = memoryview(blob)[:-4]
    if zlib.crc32(body) != struct.unpack_from("<I", blob, len(body))[0]:
        raise ChecksumError(f"{path}: checksum mismatch")
    pos = 0

    def take(fmt):
        nonlocal pos
        if fmt is None:
            return body[pos:]
        start, pos = pos, pos + struct.calcsize(fmt)
        if pos > len(body):
            raise ChecksumError(f"{path}: truncated file")
        return struct.unpack_from(fmt, body, start)

    (found,) = take("4s")
    if found in _KIND and found != magic:
        raise ValueError(f"{path}: holds {_KIND[found]}, not {_KIND[magic]}")
    if found != magic:
        raise ChecksumError(f"{path}: bad magic, expected {magic!r}")
    version, taglen = take("<BB")
    if version != FORMAT_VERSION:
        raise ChecksumError(f"{path}: unsupported format version {version}")
    # a non-ASCII tag decodes to an unknown variant, which the header check rejects
    (tag,) = take(f"{taglen}s")
    return take, tag.decode("ascii", errors="replace")


def _read_params(take, variant: str, path, dtype) -> list[np.ndarray]:
    """W1, b1, W2, b2 as read-only `dtype` views of the file, after checking the
    variant tag, layer count, activations and widths, and the parameters' length."""
    if variant not in VARIANTS:
        raise ChecksumError(f"{path}: unknown variant tag {variant!r}")
    (n_layers,) = take("<B")
    if n_layers != 2:
        raise ChecksumError(f"{path}: expected 2 layers, found {n_layers}")
    shapes = []
    for i, act in enumerate(VARIANTS[variant], 1):
        fan_in, fan_out, act_idx = take(_LAYER)
        if act_idx >= len(ACTIVATIONS) or ACTIVATIONS[act_idx] != act:
            raise ChecksumError(
                f"{path}: layer {i} activation byte {act_idx} is not {act!r},"
                f" which variant {variant!r} applies"
            )
        shapes.append((fan_in, fan_out))
    (_, hidden), (fan_in, _) = shapes
    if hidden != fan_in:
        raise ChecksumError(f"{path}: layer widths disagree: {hidden} vs {fan_in}")
    dtype = np.dtype(dtype)
    rest, size = take(None), dtype.itemsize * flat_size(shapes)
    if len(rest) != size:
        raise ChecksumError(f"{path}: truncated file" if len(rest) < size
                            else f"{path}: {len(rest) - size} bytes after the last parameter")
    return unflatten(np.frombuffer(rest, dtype=dtype), shapes)


def _check_finite(params, path) -> None:
    for name, p in zip(("w1", "b1", "w2", "b2"), params):
        if not np.isfinite(p).all():
            raise ValueError(f"{path}: {name} holds a non-finite value")


def _built(path, make, *args, **kwargs):
    """`make(*args, **kwargs)`, its ValueError re-raised naming the file."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_model(model: DenseModel, path) -> None:
    _check_finite(model.parameters, path)
    _save(model, path, MAGIC_FLOAT, b"", "<f8")


def load_model(path) -> DenseModel:
    take, variant = _open(path, MAGIC_FLOAT)
    params = _read_params(take, variant, path, "<f8")
    _check_finite(params, path)
    return _built(path, DenseModel, *params, variant)


def save_qmodel(qmodel: QuantizedModel, path) -> None:
    qp = qmodel.qparams
    block = struct.pack(_QPARAMS, MODES.index(qp.mode), qp.scale, qp.zero_point,
                        qp.alpha, qp.beta)
    _save(qmodel, path, MAGIC_QUANT, block, np.int8)


def load_qmodel(path) -> QuantizedModel:
    take, variant = _open(path, MAGIC_QUANT)
    mode_flag, scale, zero_point, alpha, beta = take(_QPARAMS)
    if mode_flag >= len(MODES):
        raise ChecksumError(f"{path}: unknown quantization mode byte {mode_flag}")
    qp = _built(path, QuantParams, scale, zero_point, alpha, beta, MODES[mode_flag])
    return _built(path, QuantizedModel, *_read_params(take, variant, path, np.int8),
                  qparams=qp, variant=variant)


def model_to_json(model) -> dict:
    """The JSON mirror of a float or int8 model (which adds its quantization)."""
    doc = {"format": "tinyecg-dense", "version": FORMAT_VERSION, "variant": model.variant}
    if isinstance(model, QuantizedModel):
        qp = model.qparams
        doc.update(format="tinyecg-int8", mode=qp.mode, scale=qp.scale,
                   zero_point=qp.zero_point, alpha=qp.alpha, beta=qp.beta)
    doc["layers"] = [
        {"fan_in": w.shape[0], "fan_out": w.shape[1], "activation": activation,
         "weights": w.tolist(), "bias": b.tolist()}
        for (w, b), activation in zip(model.pairs, VARIANTS[model.variant])
    ]
    return doc


def save_json_mirror(model, path) -> None:
    Path(path).write_text(json.dumps(model_to_json(model), indent=2) + "\n")
