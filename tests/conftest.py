import struct
import zlib

import numpy as np
import pytest

from tinyecg.dsp import FilterSpec
from tinyecg.nn import ACTIVATIONS


@pytest.fixture
def spec():
    return FilterSpec(sampling_rate_hz=360.0)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def patch_checked_byte():
    """Set one byte of a model file's body and store a matching CRC32, so
    the file passes the checksum and only the loader's own checks remain."""

    def patch(path, pos: int, value: int) -> None:
        body = bytearray(path.read_bytes()[:-4])
        body[pos] = value
        path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))

    return patch


@pytest.fixture
def write_mismatched_model():
    """Write a CRC-valid relu-softmax model file whose layer headers say
    61x10 then 9x4. Every parameter byte those headers promise is present,
    so only a check of the layer widths can reject it."""

    def write(path, quantized: bool) -> None:
        tag = b"relu-softmax"
        body = (b"TECQ" if quantized else b"TECG") + struct.pack("<BB", 1, len(tag)) + tag
        if quantized:  # mode, scale, zero point, alpha, beta
            body += struct.pack("<Bdidd", 0, 0.01, 0, -1.27, 1.27)
        body += struct.pack("<B", 2)
        body += struct.pack("<IIB", 61, 10, ACTIVATIONS.index("relu"))
        body += struct.pack("<IIB", 9, 4, ACTIVATIONS.index("softmax"))
        n_params = 61 * 10 + 10 + 9 * 4 + 4
        body += np.zeros(n_params, np.int8 if quantized else "<f8").tobytes()
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))

    return write
