import struct
import zlib

import numpy as np
import pytest

from tinyecg.dsp import FilterSpec


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
