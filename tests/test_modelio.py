import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyecg.modelio import (
    ChecksumError,
    load_model,
    load_qmodel,
    model_to_json,
    save_json_mirror,
    save_model,
    save_qmodel,
)
from tinyecg.nn import ACTIVATIONS, glorot_init, standard_model
from tinyecg.quant import quantize_model

# bytes before the variant tag: magic, format version, tag length
TAG_START = 6
# a .tnq stores mode, scale, zero point, alpha and beta after the tag
QPARAM_BYTES = 29


def first_activation_byte(path, qparam_bytes: int = 0) -> int:
    """Offset of layer 1's activation byte: after the tag, the optional
    quantization parameters, the layer count and fan_in, fan_out."""
    taglen = path.read_bytes()[TAG_START - 1]
    return TAG_START + taglen + qparam_bytes + 1 + 8


# the deployed 61-10-4 classifier and the distilled 61-4-4 student
SHAPES = {"61-10-4": [(61, 10), (10, 4)], "61-4-4": [(61, 4), (4, 4)]}
each_shape = pytest.mark.parametrize("shapes", SHAPES.values(), ids=SHAPES.keys())


def model_of(shapes):
    return glorot_init(shapes, "relu-softmax", np.random.default_rng(4))


@pytest.fixture
def model():
    return standard_model("relu-softmax", seed=4)


@pytest.fixture
def qmodel(model):
    return quantize_model(model)


class TestFloatFormat:
    @each_shape
    def test_bit_exact_round_trip(self, shapes, tmp_path):
        model = model_of(shapes)
        path = tmp_path / "m.tnn"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.variant == model.variant
        for a, b in zip(loaded.parameters, model.parameters):
            np.testing.assert_array_equal(a, b)  # bitwise, not approx
        # a second save produces identical bytes
        path2 = tmp_path / "m2.tnn"
        save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_corruption_detected(self, model, tmp_path):
        path = tmp_path / "m.tnn"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError, match="checksum"):
            load_model(path)

    def test_truncation_detected(self, model, tmp_path):
        path = tmp_path / "m.tnn"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(ChecksumError):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", range(4), ids=["w1", "b1", "w2", "b2"])
    def test_non_finite_parameter_rejected(self, model, tmp_path, patch_checked_byte,
                                           index, value):
        # the CRC guards the bytes, not their meaning: a NaN model would
        # label every beat N. The writer refuses such a model, so write the
        # value's eight bytes over the parameter's first element in the file.
        path = tmp_path / "nan.tnn"
        save_model(model, path)
        start = path.stat().st_size - 4 - 8 * model.param_count
        start += 8 * sum(p.size for p in model.parameters[:index])
        for i, byte in enumerate(struct.pack("<d", value)):
            patch_checked_byte(path, start + i, byte)
        name = ("w1", "b1", "w2", "b2")[index]
        with pytest.raises(ValueError, match=f"nan.tnn: {name} holds a non-finite value") as exc:
            load_model(path)
        assert not isinstance(exc.value, ChecksumError)

    @pytest.mark.parametrize("index", range(4), ids=["w1", "b1", "w2", "b2"])
    def test_non_finite_save_refused(self, model, tmp_path, index):
        # the writer refuses what the reader rejects, before writing anything
        model.parameters[index].flat[-1] = np.inf
        path = tmp_path / "inf.tnn"
        name = ("w1", "b1", "w2", "b2")[index]
        with pytest.raises(ValueError, match=f"inf.tnn: {name} holds a non-finite value"):
            save_model(model, path)
        assert not path.exists()

    def test_wrong_magic_rejected(self, model, qmodel, tmp_path, patch_checked_byte):
        # a CRC-valid model of the other kind is unusable input naming both
        # kinds; a CRC-valid file whose magic names neither is a corrupt file
        for saved, save, load, held, wanted in [
            (qmodel, save_qmodel, load_model, "an int8 model", "a float model"),
            (model, save_model, load_qmodel, "a float model", "an int8 model"),
        ]:
            path = tmp_path / f"{save.__name__}.bin"
            save(saved, path)
            with pytest.raises(ValueError, match=f"holds {held} .*, not {wanted}") as exc:
                load(path)
            assert not isinstance(exc.value, ChecksumError)
            assert str(exc.value).startswith(f"{path}: ")
            patch_checked_byte(path, 3, ord("X"))
            with pytest.raises(ChecksumError, match="bad magic"):
                load(path)

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "junk"
        p.write_bytes(b"not a model at all")
        with pytest.raises(ChecksumError):
            load_model(p)


class TestLayerHeaderCheck:
    """A CRC-valid file whose stored activations disagree with its variant
    tag is rejected: the tag alone names the activations a model applies."""

    def test_out_of_range_activation_byte_rejected(self, model, tmp_path, patch_checked_byte):
        path = tmp_path / "m.tnn"
        save_model(model, path)
        patch_checked_byte(path, first_activation_byte(path), 7)
        with pytest.raises(ChecksumError, match="activation byte 7") as exc:
            load_model(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("suffix", ["tnn", "tnq"])
    def test_activation_disagreeing_with_variant_rejected(
        self, model, qmodel, tmp_path, patch_checked_byte, suffix
    ):
        # relu-softmax applies relu in layer 1; store sigmoid there instead
        path = tmp_path / f"m.{suffix}"
        if suffix == "tnn":
            save_model(model, path)
            pos, load = first_activation_byte(path), load_model
        else:
            save_qmodel(qmodel, path)
            pos, load = first_activation_byte(path, QPARAM_BYTES), load_qmodel
        assert path.read_bytes()[pos] == ACTIVATIONS.index("relu")
        patch_checked_byte(path, pos, ACTIVATIONS.index("sigmoid"))
        with pytest.raises(ChecksumError, match="'relu'"):
            load(path)

    @pytest.mark.parametrize("byte", [ord("i"), 0xFF])
    def test_unknown_variant_tag_rejected(self, model, tmp_path, patch_checked_byte, byte):
        # relu-softmax -> relu-softmix, or a non-ASCII byte in its place
        path = tmp_path / "m.tnn"
        save_model(model, path)
        pos = TAG_START + path.read_bytes()[TAG_START:].index(b"softmax") + 5
        patch_checked_byte(path, pos, byte)
        with pytest.raises(ChecksumError, match="unknown variant tag 'relu-softm.x'"):
            load_model(path)

    @pytest.mark.parametrize("mode_byte", [2, 255])
    def test_unknown_quantization_mode_rejected(
        self, qmodel, tmp_path, patch_checked_byte, mode_byte
    ):
        path = tmp_path / "q.tnq"
        save_qmodel(qmodel, path)
        patch_checked_byte(path, TAG_START + path.read_bytes()[TAG_START - 1], mode_byte)
        with pytest.raises(ChecksumError, match=f"mode byte {mode_byte}"):
            load_qmodel(path)


class TestLayerWidthCheck:
    """A CRC-valid file whose layer 1 width is not layer 2's input width, or
    whose widths promise fewer parameters than it holds, is rejected, in both
    formats."""

    @pytest.mark.parametrize("quantized", [False, True], ids=["tnn", "tnq"])
    def test_disagreeing_widths_rejected(self, tmp_path, write_mismatched_model, quantized):
        path = tmp_path / "m.bin"
        write_mismatched_model(path, quantized)
        with pytest.raises(ChecksumError, match="layer widths disagree: 10 vs 9"):
            (load_qmodel if quantized else load_model)(path)

    @pytest.mark.parametrize("quantized", [False, True], ids=["tnn", "tnq"])
    def test_header_promising_fewer_parameters_rejected(
        self, model, qmodel, tmp_path, patch_checked_byte, quantized
    ):
        # layer 2's fan_out 4 -> 3 leaves W2's last column and b2's last
        # value, 11 parameters, after the ones the header promises; it used
        # to load as a 61-10-3 model
        path = tmp_path / "m.bin"
        if quantized:
            save_qmodel(qmodel, path)
            pos, load, itemsize = first_activation_byte(path, QPARAM_BYTES), load_qmodel, 1
        else:
            save_model(model, path)
            pos, load, itemsize = first_activation_byte(path), load_model, 8
        fan_out_2 = pos + 1 + 4  # after layer 1's activation byte and layer 2's fan_in
        assert path.read_bytes()[fan_out_2] == 4
        patch_checked_byte(path, fan_out_2, 3)
        with pytest.raises(ChecksumError, match=f"{11 * itemsize} bytes after the last param"):
            load(path)


SAVED = ("m.tnm", "symmetric.tnq", "asymmetric.tnq")


@pytest.fixture(scope="module")
def saved_dir(tmp_path_factory):
    """A directory holding a saved .tnm and its symmetric and asymmetric .tnq."""
    work = tmp_path_factory.mktemp("saved")
    model = standard_model("relu-softmax", seed=4)
    save_model(model, work / "m.tnm")
    for mode in ("symmetric", "asymmetric"):
        save_qmodel(quantize_model(model, mode), work / f"{mode}.tnq")
    return work


class TestReaderProperty:
    """Every CRC-valid edit or truncation of a saved file either raises
    ChecksumError or ValueError, or loads a model whose re-save is the file."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_edited_file_raises_or_round_trips(self, saved_dir, data):
        name = data.draw(st.sampled_from(SAVED))
        body = bytearray((saved_dir / name).read_bytes()[:-4])
        # the headers fill the first 37 (.tnm) or 66 (.tnq) bytes
        position = st.one_of(st.integers(0, 80), st.integers(0, len(body) - 1))
        for pos, value in data.draw(st.lists(st.tuples(position, st.integers(0, 255)),
                                             max_size=3)):
            body[pos] = value
        body = body[: data.draw(st.none() | st.integers(0, len(body)))]
        path, resaved = saved_dir / f"edited.{name}", saved_dir / f"resaved.{name}"
        path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
        load, save = (load_model, save_model) if name == "m.tnm" else (load_qmodel, save_qmodel)
        try:
            loaded = load(path)
        except ValueError:  # ChecksumError is a ValueError
            return
        save(loaded, resaved)
        assert resaved.read_bytes() == path.read_bytes()


class TestQuantFormat:
    @each_shape
    def test_bit_exact_round_trip(self, shapes, tmp_path):
        qmodel = quantize_model(model_of(shapes))
        path = tmp_path / "q.tnq"
        save_qmodel(qmodel, path)
        loaded = load_qmodel(path)
        assert loaded.variant == qmodel.variant
        assert loaded.qparams == qmodel.qparams
        for a, b in zip(loaded.parameters, qmodel.parameters):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == np.int8

    def test_corruption_detected(self, qmodel, tmp_path):
        path = tmp_path / "q.tnq"
        save_qmodel(qmodel, path)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_qmodel(path)

    def test_code_below_int8_min_rejected_naming_path(self, qmodel, tmp_path,
                                                       patch_checked_byte):
        # a CRC-valid file whose first w1 code is -128, outside symmetric int8
        path = tmp_path / "q.tnq"
        save_qmodel(qmodel, path)
        patch_checked_byte(path, path.stat().st_size - 4 - qmodel.param_count, 0x80)
        with pytest.raises(ValueError, match="w1 holds a code below -127") as exc:
            load_qmodel(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_in_place_code_flip_changes_one_parameter_byte(self, qmodel, tmp_path):
        # negate the largest output-layer code through the loaded model's
        # w2 view, then re-save: only that byte and the CRC may change
        save_qmodel(qmodel, tmp_path / "q.tnq")
        loaded = load_qmodel(tmp_path / "q.tnq")
        k = np.unravel_index(np.argmax(np.abs(loaded.w2)), loaded.w2.shape)
        loaded.w2[k] = -loaded.w2[k]
        save_qmodel(loaded, tmp_path / "flipped.tnq")
        old = (tmp_path / "q.tnq").read_bytes()
        new = (tmp_path / "flipped.tnq").read_bytes()
        assert len(new) == len(old)
        w2_start = len(old) - 4 - loaded.param_count + loaded.w1.size + loaded.b1.size
        code = w2_start + np.ravel_multi_index(k, loaded.w2.shape)
        changed = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
        assert [i for i in changed if i < len(old) - 4] == [code]
        assert old[-4:] != new[-4:]
        assert np.frombuffer(new, np.int8)[code] == -np.frombuffer(old, np.int8)[code]
        assert load_qmodel(tmp_path / "flipped.tnq").w2[k] == loaded.w2[k]


class TestJsonMirror:
    def test_mirror_matches_binary(self, model, tmp_path):
        doc = model_to_json(model)
        assert doc["variant"] == "relu-softmax"
        assert [layer["activation"] for layer in doc["layers"]] == ["relu", "softmax"]
        np.testing.assert_allclose(doc["layers"][0]["weights"], model.w1)

        save_json_mirror(model, tmp_path / "m.json")
        parsed = json.loads((tmp_path / "m.json").read_text())
        assert parsed["layers"][1]["fan_out"] == 4

    def test_quantized_mirror(self, model, qmodel, tmp_path):
        save_json_mirror(qmodel, tmp_path / "q.json")
        parsed = json.loads((tmp_path / "q.json").read_text())
        assert parsed["format"] == "tinyecg-int8"
        assert parsed["mode"] == "symmetric"
        assert parsed["zero_point"] == 0
        assert np.array(parsed["layers"][0]["weights"]).shape == (61, 10)
        # each layer carries what the binary header stores, as the float mirror does
        float_layers = model_to_json(model)["layers"]
        for layer, float_layer, (w, b) in zip(parsed["layers"], float_layers, qmodel.pairs):
            for key in ("fan_in", "fan_out", "activation"):
                assert layer[key] == float_layer[key]
            assert layer["weights"] == w.tolist()
            assert layer["bias"] == b.tolist()
