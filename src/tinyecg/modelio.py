"""Versioned binary model files plus a JSON mirror for inspection.

Float models:      magic TECG, variant tag, per-layer shape header,
                   row-major float64 parameters, CRC32.
Quantized models:  magic TECQ, variant tag, quantization parameters
                   (mode, scale, zero point, clip range), per-layer shape
                   header, int8 parameters, CRC32.

Both formats share one parameter codec: the same two layer headers
(shape and activation) followed by the model's `flat` buffer (W1, b1,
W2, b2 as `nn.unflatten` lays them out), as float64 or int8.
Round trips are bit-exact; a trailing CRC32 guards against truncation
and corruption. A CRC-valid file is still checked before any parameter
is read: each stored activation must be the one the variant tag names
(the only activation a loaded model carries), and layer 1's width must
be layer 2's input width. A CRC-valid model of the other kind, non-finite
float parameters and values the model classes reject raise `ValueError`
naming the path; a file of neither kind raises `ChecksumError`.
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


class ChecksumError(ValueError):
    """Stored CRC32 does not match the file contents."""


def _pack_header(magic: bytes, variant: str) -> bytes:
    tag = variant.encode("ascii")
    return magic + struct.pack("<BB", FORMAT_VERSION, len(tag)) + tag


def _pack_shapes(model) -> bytes:
    out = struct.pack("<B", 2)
    for (fan_in, fan_out), act in zip(model.shapes, VARIANTS[model.variant]):
        out += struct.pack("<IIB", fan_in, fan_out, ACTIVATIONS.index(act))
    return out


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise ChecksumError(f"{self.path}: truncated file")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _open_checked(path, magic: bytes) -> _Reader:
    blob = Path(path).read_bytes()
    if len(blob) < 10:
        raise ChecksumError(f"{path}: truncated file")
    body, stored = blob[:-4], struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(body) != stored:
        raise ChecksumError(f"{path}: checksum mismatch")
    rd = _Reader(body, path)
    found = rd.take(4)
    if found in _KIND and found != magic:
        raise ValueError(f"{path}: holds {_KIND[found]}, not {_KIND[magic]}")
    if found != magic:
        raise ChecksumError(f"{path}: bad magic, expected {magic!r}")
    version, taglen = rd.unpack("<BB")
    if version != FORMAT_VERSION:
        raise ChecksumError(f"{path}: unsupported format version {version}")
    # a non-ASCII tag decodes to an unknown variant, which the header check rejects
    rd.variant = rd.take(taglen).decode("ascii", errors="replace")
    return rd


def _read_params(rd: _Reader, dtype) -> list[np.ndarray]:
    """W1, b1, W2, b2 as read-only `dtype` views of the file, after checking the
    variant tag, the layer count, each stored activation and the layer widths."""
    if rd.variant not in VARIANTS:
        raise ChecksumError(f"{rd.path}: unknown variant tag {rd.variant!r}")
    (n_layers,) = rd.unpack("<B")
    if n_layers != 2:
        raise ChecksumError(f"{rd.path}: expected 2 layers, found {n_layers}")
    shapes = []
    for i, act in enumerate(VARIANTS[rd.variant], 1):
        fan_in, fan_out, act_idx = rd.unpack("<IIB")
        if act_idx >= len(ACTIVATIONS) or ACTIVATIONS[act_idx] != act:
            raise ChecksumError(
                f"{rd.path}: layer {i} activation byte {act_idx} is not {act!r},"
                f" which variant {rd.variant!r} applies"
            )
        shapes.append((fan_in, fan_out))
    (_, hidden), (fan_in, _) = shapes
    if hidden != fan_in:
        raise ChecksumError(f"{rd.path}: layer widths disagree: {hidden} vs {fan_in}")
    dtype = np.dtype(dtype)
    blob = rd.take(dtype.itemsize * flat_size(shapes))
    return unflatten(np.frombuffer(blob, dtype=dtype), shapes)


def _built(path, make, *args, **kwargs):
    """`make(*args, **kwargs)`, its ValueError re-raised naming the file."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _save(model, path, header: bytes, dtype) -> None:
    body = header + _pack_shapes(model) + model.flat.astype(dtype, copy=False).tobytes()
    Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def save_model(model: DenseModel, path) -> None:
    _save(model, path, _pack_header(MAGIC_FLOAT, model.variant), "<f8")


def load_model(path) -> DenseModel:
    rd = _open_checked(path, MAGIC_FLOAT)
    params = _read_params(rd, "<f8")
    for name, p in zip(("w1", "b1", "w2", "b2"), params):
        if not np.isfinite(p).all():
            raise ValueError(f"{path}: {name} holds a non-finite value")
    return _built(path, DenseModel, *params, rd.variant)


def save_qmodel(qmodel: QuantizedModel, path) -> None:
    qp = qmodel.qparams
    header = _pack_header(MAGIC_QUANT, qmodel.variant) + struct.pack(
        "<Bdidd", MODES.index(qp.mode), qp.scale, qp.zero_point, qp.alpha, qp.beta
    )
    _save(qmodel, path, header, np.int8)


def load_qmodel(path) -> QuantizedModel:
    rd = _open_checked(path, MAGIC_QUANT)
    mode_flag, scale, zero_point, alpha, beta = rd.unpack("<Bdidd")
    if mode_flag >= len(MODES):
        raise ChecksumError(f"{path}: unknown quantization mode byte {mode_flag}")
    qp = _built(path, QuantParams, scale, zero_point, alpha, beta, MODES[mode_flag])
    return _built(path, QuantizedModel, *_read_params(rd, np.int8), qparams=qp,
                  variant=rd.variant)


def model_to_json(model: DenseModel) -> dict:
    return {
        "format": "tinyecg-dense",
        "version": FORMAT_VERSION,
        "variant": model.variant,
        "layers": [
            {
                "fan_in": w.shape[0],
                "fan_out": w.shape[1],
                "activation": activation,
                "weights": w.tolist(),
                "bias": b.tolist(),
            }
            for (w, b), activation in zip(model.pairs, VARIANTS[model.variant])
        ],
    }


def qmodel_to_json(qmodel: QuantizedModel) -> dict:
    qp = qmodel.qparams
    return {
        "format": "tinyecg-int8",
        "version": FORMAT_VERSION,
        "variant": qmodel.variant,
        "mode": qp.mode,
        "scale": qp.scale,
        "zero_point": qp.zero_point,
        "alpha": qp.alpha,
        "beta": qp.beta,
        "layers": [
            {"weights": w.tolist(), "bias": b.tolist()}
            for w, b in qmodel.pairs
        ],
    }


def save_json_mirror(model_or_qmodel, path) -> None:
    to_json = (
        qmodel_to_json if isinstance(model_or_qmodel, QuantizedModel) else model_to_json
    )
    Path(path).write_text(json.dumps(to_json(model_or_qmodel), indent=2) + "\n")
