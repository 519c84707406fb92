import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import tinyecg
from tinyecg import ingest
from tinyecg.cli import EXIT_BUDGET, EXIT_CHECKSUM, EXIT_INPUT, EXIT_OK, main
from tinyecg.ingest import BeatSet
from tinyecg.modelio import save_model, save_qmodel
from tinyecg.nn import DenseModel, glorot_init
from tinyecg.quant import quantize_model
from tinyecg.synthetic import (
    labeled_recording,
    write_annotation_csv,
    write_signal_csv,
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic recordings, ingested beats and a briefly trained model."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    labels = list(rng.choice(["N", "N", "N", "V", "S", "F"], size=120))
    sig, truth = labeled_recording(labels, snr_db=25.0, seed=1)
    write_signal_csv(root / "sig.csv", sig)
    write_annotation_csv(root / "ann.csv", truth)

    # clean replay recordings: beats start after warmup so all ten emit
    sig_n, _ = labeled_recording(["N"] * 10, seed=2, start_s=2.5)
    write_signal_csv(root / "stream_n.csv", sig_n)
    sig_v, _ = labeled_recording(
        ["N", "N", "V", "N", "N", "V", "N", "N", "N", "N"], seed=3, start_s=2.5,
    )
    write_signal_csv(root / "stream_v.csv", sig_v)

    assert main([
        "ingest", "--signal", str(root / "sig.csv"),
        "--annotations", str(root / "ann.csv"), "--out", str(root / "beats.npz"),
    ]) == EXIT_OK
    assert main([
        "train", "--beats", str(root / "beats.npz"), "--epochs", "800",
        "--seed", "0", "--out", str(root / "model.tnn"),
        "--trace", str(root / "trace.csv"),
    ]) == EXIT_OK
    assert main([
        "quantize", "--model", str(root / "model.tnn"), "--out", str(root / "model.tnq"),
    ]) == EXIT_OK
    return root


# Child processes import the tinyecg that this process imported.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(tinyecg.__file__).parents[1]))


class TestIngest:
    def test_summary_counts(self, workspace, capsys):
        main([
            "ingest", "--signal", str(workspace / "sig.csv"),
            "--annotations", str(workspace / "ann.csv"),
            "--out", str(workspace / "beats2.npz"),
        ])
        out = capsys.readouterr().out
        assert "Total" in out and "120" in out

    def test_missing_file_exit_code_names_path(self, workspace, capsys):
        code = main([
            "ingest", "--signal", str(workspace / "nope.csv"),
            "--annotations", str(workspace / "ann.csv"),
            "--out", str(workspace / "x.npz"),
        ])
        assert code == EXIT_INPUT
        assert "nope.csv" in capsys.readouterr().err

    def test_comment_only_annotations_write_an_empty_set(self, workspace, tmp_path, capsys):
        ann = tmp_path / "ann.csv"
        ann.write_text("# no beats annotated\n")
        assert main([
            "ingest", "--signal", str(workspace / "sig.csv"),
            "--annotations", str(ann), "--out", str(tmp_path / "empty.npz"),
        ]) == EXIT_OK
        assert "dropped" not in capsys.readouterr().out
        beats = BeatSet.load(tmp_path / "empty.npz")
        assert beats.windows.shape == (0, 61) and beats.labels.shape == (0,)
        assert beats.skipped == 0

    def test_uncoded_annotations_counted_as_dropped(self, workspace, tmp_path, capsys):
        ann = tmp_path / "ann.csv"
        ann.write_text("400,N\n500,Q\n600,/\n700,V\n")
        assert main([
            "ingest", "--signal", str(workspace / "sig.csv"),
            "--annotations", str(ann), "--out", str(tmp_path / "two.npz"),
        ]) == EXIT_OK
        assert "(dropped 2 annotation(s) outside the four classes)" in capsys.readouterr().out
        assert BeatSet.load(tmp_path / "two.npz").counts == {"N": 1, "S": 0, "V": 1, "F": 0}

    def test_malformed_file_exit_code(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,abc\n")
        code = main([
            "ingest", "--signal", str(bad),
            "--annotations", str(workspace / "ann.csv"),
            "--out", str(tmp_path / "x.npz"),
        ])
        assert code == EXIT_INPUT
        assert "bad.csv:1" in capsys.readouterr().err

    def test_signal_not_utf8_names_its_path(self, workspace, tmp_path, capsys):
        # with several records, the message must say which file is bad
        bad = tmp_path / "latin1.csv"
        bad.write_bytes((workspace / "sig.csv").read_bytes()[:40] + b"\xff\n")
        code = main([
            "ingest",
            "--signal", str(workspace / "sig.csv"), "--annotations", str(workspace / "ann.csv"),
            "--signal", str(bad), "--annotations", str(workspace / "ann.csv"),
            "--out", str(tmp_path / "x.npz"),
        ])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{bad}:" in err and "not UTF-8" in err

    def test_multiple_records_merged(self, workspace, tmp_path, capsys):
        code = main([
            "ingest",
            "--signal", str(workspace / "sig.csv"),
            "--annotations", str(workspace / "ann.csv"),
            "--signal", str(workspace / "sig.csv"),
            "--annotations", str(workspace / "ann.csv"),
            "--out", str(tmp_path / "double.npz"),
        ])
        assert code == EXIT_OK
        assert "240" in capsys.readouterr().out  # two copies of 120 beats

    def test_unpaired_signal_rejected(self, workspace, tmp_path, capsys):
        code = main([
            "ingest",
            "--signal", str(workspace / "sig.csv"),
            "--signal", str(workspace / "sig.csv"),
            "--annotations", str(workspace / "ann.csv"),
            "--out", str(tmp_path / "x.npz"),
        ])
        assert code == EXIT_INPUT

    def test_empty_annotations_clean_exit(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty_ann.csv"
        empty.write_text("# nothing here\n")
        code = main([
            "ingest", "--signal", str(workspace / "sig.csv"),
            "--annotations", str(empty), "--out", str(tmp_path / "none.npz"),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "0" in out

    def test_infinite_sampling_rate_rejected(self, workspace, tmp_path, capsys):
        # an infinite rate would design a dead filter (b = 0) that detects nothing
        code = main([
            "ingest", "--signal", str(workspace / "sig.csv"),
            "--annotations", str(workspace / "ann.csv"),
            "--out", str(tmp_path / "x.npz"), "--sampling-rate", "inf",
        ])
        assert code == EXIT_INPUT
        assert "Nyquist" in capsys.readouterr().err
        assert not (tmp_path / "x.npz").exists()


class TestTrain:
    def test_deterministic_model_file(self, workspace, tmp_path):
        args = [
            "train", "--beats", str(workspace / "beats.npz"),
            "--epochs", "25", "--seed", "7",
        ]
        assert main(args + ["--out", str(tmp_path / "a.tnn")]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "b.tnn")]) == EXIT_OK
        assert (tmp_path / "a.tnn").read_bytes() == (tmp_path / "b.tnn").read_bytes()

    def test_json_mirror_written(self, workspace):
        doc = json.loads((workspace / "model.tnn.json").read_text())
        assert doc["variant"] == "sigmoid-sigmoid"

    def test_trace_csv_format(self, workspace):
        lines = (workspace / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 801

    def test_unknown_variant_usage_error(self, workspace, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "train", "--beats", str(workspace / "beats.npz"),
                "--variant", "tanh-tanh", "--out", "x.tnn",
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        for variant in ("sigmoid-sigmoid", "relu-sigmoid", "relu-softmax", "sigmoid-softmax"):
            assert variant in err

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_rejected(self, workspace, tmp_path, capsys, lr):
        # it used to train a model made entirely of NaN and exit 0
        out = tmp_path / "lr.tnn"
        code = main([
            "train", "--beats", str(workspace / "beats.npz"), "--epochs", "3",
            "--learning-rate", lr, "--out", str(out),
        ])
        assert code == EXIT_INPUT
        assert "learning_rate" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_diverged_model_not_written(self, tmp_path, capsys):
        # a learning rate this large drives the weights to inf; the model file
        # would be one load_model rejects and its mirror would not be JSON
        from tinyecg.synthetic import separable_beatset

        separable_beatset(30).save(tmp_path / "sep.npz")
        out = tmp_path / "big.tnn"
        code = main([
            "train", "--beats", str(tmp_path / "sep.npz"), "--variant", "relu-softmax",
            "--epochs", "50", "--learning-rate", "1e300", "--out", str(out),
        ])
        assert code == EXIT_INPUT
        assert f"error: {out}: w1 holds a non-finite value" in capsys.readouterr().err
        assert not out.exists()
        assert not Path(f"{out}.json").exists()

    def test_output_path_a_directory_rejected(self, workspace, tmp_path, capsys):
        # it used to end in an IsADirectoryError traceback
        code = main([
            "train", "--beats", str(workspace / "beats.npz"), "--epochs", "2",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_INPUT
        assert f"{tmp_path}: Is a directory" in capsys.readouterr().err

    def test_softmax_variant_outputs_sum_to_one(self, workspace, tmp_path):
        out = tmp_path / "soft.tnn"
        assert main([
            "train", "--beats", str(workspace / "beats.npz"),
            "--variant", "relu-softmax", "--epochs", "10", "--out", str(out),
        ]) == EXIT_OK
        from tinyecg.modelio import load_model
        from tinyecg.nn import forward

        model = load_model(out)
        vec = forward(model, np.random.default_rng(1).uniform(0, 1, 61))
        assert float(vec.sum()) == pytest.approx(1.0, abs=1e-9)


class TestQuantize:
    def test_report_totals(self, workspace, capsys):
        main([
            "quantize", "--model", str(workspace / "model.tnn"),
            "--out", str(workspace / "q2.tnq"),
        ])
        out = capsys.readouterr().out
        for token in ("1230", "84", "1314", "664", "667", "600", "1267"):
            assert token in out

    def test_json_report(self, workspace, capsys):
        main([
            "quantize", "--model", str(workspace / "model.tnn"),
            "--out", str(workspace / "q3.tnq"), "--json",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert doc["flops"]["total"] == 1314
        assert doc["kernel_flops"]["total"] == 1328
        assert doc["kernel_flops"]["layers"] == [[61, 10, 1240], [10, 4, 88]]
        assert doc["memory"]["total_bytes"] == 1267
        assert doc["memory"]["temp_dequant_bytes"] == 3
        assert doc["memory"]["temp_dequant_bytes_actual"] == 4
        assert doc["zero_point"] == 0

    def test_json_field_lists(self, workspace, capsys):
        # the report objects' keys, in order, as the JSON has always carried them
        main([
            "quantize", "--model", str(workspace / "model.tnn"),
            "--out", str(workspace / "q4.tnq"), "--json",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["flops", "kernel_flops", "memory", "scale", "zero_point", "mode"]
        assert list(doc["flops"]) == ["layers", "total"]
        assert list(doc["kernel_flops"]) == ["layers", "total"]
        assert list(doc["memory"]) == [
            "model_param_bytes", "temp_dequant_bytes", "temp_dequant_bytes_actual",
            "model_bytes", "buffer_bytes", "total_bytes", "budget_bytes", "over_budget",
        ]

    def test_asymmetric_mode_notes_zero_point(self, workspace, tmp_path, capsys):
        main([
            "quantize", "--model", str(workspace / "model.tnn"),
            "--mode", "asymmetric", "--out", str(tmp_path / "a.tnq"),
        ])
        out = capsys.readouterr().out
        assert "mode asymmetric" in out

    def test_corrupt_model_checksum_exit(self, workspace, tmp_path, capsys):
        blob = bytearray((workspace / "model.tnn").read_bytes())
        blob[40] ^= 0xFF
        bad = tmp_path / "corrupt.tnn"
        bad.write_bytes(bytes(blob))
        code = main(["quantize", "--model", str(bad), "--out", str(tmp_path / "c.tnq")])
        assert code == EXIT_CHECKSUM

    def test_bad_activation_byte_checksum_exit(self, workspace, tmp_path, patch_checked_byte):
        # the CRC matches, but layer 1's activation byte names no activation
        bad = tmp_path / "bad_activation.tnn"
        bad.write_bytes((workspace / "model.tnn").read_bytes())
        # magic, version and tag length (6 bytes), the tag, the layer
        # count (1), then layer 1's fan_in and fan_out (8)
        taglen = bad.read_bytes()[5]
        patch_checked_byte(bad, 6 + taglen + 1 + 8, 7)
        code = main(["quantize", "--model", str(bad), "--out", str(tmp_path / "c.tnq")])
        assert code == EXIT_CHECKSUM

    def test_over_budget_exit_code(self, tmp_path):
        # an oversized topology cannot fit the 2 KB SRAM budget
        rng = np.random.default_rng(0)
        big = DenseModel(
            rng.normal(size=(61, 300)), np.zeros(300),
            rng.normal(size=(300, 4)), np.zeros(4),
            "sigmoid-sigmoid",
        )
        save_model(big, tmp_path / "big.tnn")
        code = main([
            "quantize", "--model", str(tmp_path / "big.tnn"),
            "--out", str(tmp_path / "big.tnq"),
        ])
        assert code == EXIT_BUDGET


def _truncated(path):
    BeatSet(np.zeros((4, 61)), np.zeros(4, dtype=np.int64)).save(path)
    path.write_bytes(path.read_bytes()[:100])


def _damaged_header(path):
    # a .npy member whose header dict is cut short
    header = b"{'descr': '<f8', "
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr(
            "windows.npy", b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header)


def _encrypted_flag(path):
    # bit 0 of the first member's general-purpose flag (in the central
    # directory) says it is encrypted: zipfile then asks for a password
    BeatSet(np.ones((8, 61)), np.arange(8) % 4).save(path)
    data = bytearray(path.read_bytes())
    data[data.index(b"PK\x01\x02") + 8] ^= 0x01
    path.write_bytes(bytes(data))


def _arrays(windows, labels, skipped=0):
    # written with np.savez: `BeatSet` itself refuses to hold these arrays
    return lambda path: np.savez(path, windows=windows, labels=labels, skipped=skipped)


BAD_BEATS_FILES = {
    "unreadable": _truncated,
    "encrypted-flag": _encrypted_flag,
    "damaged-header": _damaged_header,
    "missing-array": lambda path: np.savez(path, labels=np.zeros(4, np.int64), skipped=0),
    "non-finite": _arrays(np.full((8, 61), np.nan), np.arange(8) % 4),
    "label-codes": _arrays(np.ones((8, 61)), np.array([0, 1, 2, 3, 0, 1, 5, -1])),
    # 122 values that used to load as two scrambled beats
    "window-shape": _arrays(np.ones((61, 2)), np.array([0, 1])),
    "skipped-shape": _arrays(np.ones((4, 61)), np.arange(4), skipped=np.array([1, 2])),
    # each of these four used to load: labels truncated or flattened,
    # `skipped` negative or truncated
    "float-labels": _arrays(np.ones((2, 61)), np.array([0.7, 3.9])),
    "labels-shape": _arrays(np.ones((2, 61)), np.array([[0], [3]])),
    "negative-skipped": _arrays(np.ones((2, 61)), np.array([0, 3]), skipped=-3),
    "fractional-skipped": _arrays(np.ones((2, 61)), np.array([0, 3]), skipped=2.7),
    # windows that are not real numbers: the first four used to load cast
    # to float64 without a word, complex ones with the imaginary part dropped
    "datetime-windows": _arrays(np.ones((2, 61), "M8[D]"), np.array([0, 3])),
    "timedelta-windows": _arrays(np.ones((2, 61), "m8[s]"), np.array([0, 3])),
    "bool-windows": _arrays(np.ones((2, 61), bool), np.array([0, 3])),
    "structured-windows": _arrays(np.ones((2, 61), [("mv", "f8")]), np.array([0, 3])),
    "complex-windows": _arrays(np.full((2, 61), 1 + 2j), np.array([0, 3])),
}


@pytest.mark.parametrize("case", sorted(BAD_BEATS_FILES))
def test_bad_beats_file_rejected_naming_path(case, tmp_path, capsys):
    # each would otherwise crash with a traceback, train a NaN model, or
    # drop beats without a word
    path = tmp_path / f"{case}.npz"
    BAD_BEATS_FILES[case](path)
    code = main([
        "train", "--beats", str(path), "--epochs", "2", "--out", str(tmp_path / "m.tnn"),
    ])
    assert code == EXIT_INPUT
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "m.tnn").exists()


class TestEval:
    def test_three_modes_run(self, workspace, capsys):
        for mode, model in (
            ("default", "model.tnn"),
            ("quantized", "model.tnq"),
            ("temporary-dequantized", "model.tnq"),
        ):
            code = main([
                "eval", "--model", str(workspace / model),
                "--beats", str(workspace / "beats.npz"),
                "--inference-mode", mode,
            ])
            assert code == EXIT_OK
            out = capsys.readouterr().out
            assert "Accuracy" in out

    def test_json_report(self, workspace, capsys):
        main([
            "eval", "--model", str(workspace / "model.tnn"),
            "--beats", str(workspace / "beats.npz"), "--json",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["per_class"]) == {"N", "S", "V", "F"}
        assert 0 <= doc["accuracy"] <= 1

    def test_saturated_model_scores_perfectly(self, tmp_path, capsys):
        from tinyecg.synthetic import separable_beatset

        separable_beatset(per_class=40, seed=1).save(tmp_path / "easy.npz")
        assert main([
            "train", "--beats", str(tmp_path / "easy.npz"), "--epochs", "800",
            "--seed", "1", "--train-fraction", "0.8", "--out", str(tmp_path / "easy.tnn"),
        ]) == EXIT_OK
        capsys.readouterr()
        main([
            "eval", "--model", str(tmp_path / "easy.tnn"),
            "--beats", str(tmp_path / "easy.npz"), "--json",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert doc["accuracy"] == 1.0

    def test_split_selection_deterministic(self, workspace, capsys):
        outs = []
        for _ in range(2):
            main([
                "eval", "--model", str(workspace / "model.tnn"),
                "--beats", str(workspace / "beats.npz"),
                "--split", "test", "--seed", "0", "--json",
            ])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command, model, mode", [
        ("quantize", "model.tnq", None),
        ("eval", "model.tnq", "default"),
        ("eval", "model.tnn", "quantized"),
        ("eval", "model.tnn", "temporary-dequantized"),
        ("stream", "model.tnn", None),
    ], ids=["quantize", "default", "quantized", "temporary-dequantized", "stream"])
    def test_float_model_in_int8_mode_rejected(self, workspace, tmp_path, capsys,
                                               command, model, mode):
        # a model file of the other kind, float where int8 is needed or the
        # reverse, is unusable input in every command, with one message
        path = workspace / model
        args = {
            "quantize": ["--model", str(path), "--out", str(tmp_path / "q.tnq")],
            "eval": ["--model", str(path), "--beats", str(workspace / "beats.npz"),
                     "--inference-mode", mode],
            "stream": ["--qmodel", str(path), "--signal", str(workspace / "stream_v.csv")],
        }[command]
        code = main([command, *args])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        kinds = ["a float model (TECG)", "an int8 model (TECQ)"]
        held, wanted = kinds[::-1] if model == "model.tnq" else kinds
        assert f"error: {path}: holds {held}, not {wanted}\n" in captured.err

    def test_model_path_a_directory_rejected(self, workspace, tmp_path, capsys):
        # it used to end in an IsADirectoryError traceback
        code = main(["eval", "--model", str(tmp_path), "--beats", str(workspace / "beats.npz")])
        assert code == EXIT_INPUT
        assert f"{tmp_path}: Is a directory" in capsys.readouterr().err

    def test_empty_beats_file_rejected(self, workspace, tmp_path, capsys):
        from tinyecg.ingest import BeatSet

        BeatSet(np.empty((0, 61)), np.empty(0, dtype=np.int64)).save(
            tmp_path / "none.npz"
        )
        code = main([
            "eval", "--model", str(workspace / "model.tnn"),
            "--beats", str(tmp_path / "none.npz"),
        ])
        assert code == EXIT_INPUT
        assert "no beats" in capsys.readouterr().err

    def test_json_and_csv_together_usage_error(self, workspace, capsys):
        # eval has no CSV report: `--csv`, with or without `--json`, is a usage error
        with pytest.raises(SystemExit) as exc:
            main([
                "eval", "--model", str(workspace / "model.tnn"),
                "--beats", str(workspace / "beats.npz"), "--json", "--csv",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --csv" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "quantize"])
    def test_non_finite_model_rejected_naming_path(self, workspace, tmp_path, capsys,
                                                   patch_checked_byte, command):
        # a CRC-valid .tnm with a NaN parameter used to label every beat N
        # (eval) or fail converting NaN to an integer (quantize); save_model
        # refuses NaN, so set the top two bytes of w2's first float64 to F8 7F
        model = glorot_init([(61, 10), (10, 4)], "sigmoid-sigmoid", np.random.default_rng(0))
        path = tmp_path / "nan.tnn"
        save_model(model, path)
        w2_at = path.stat().st_size - 4 - 8 * (model.w2.size + model.b2.size)
        patch_checked_byte(path, w2_at + 6, 0xF8)
        patch_checked_byte(path, w2_at + 7, 0x7F)
        args = {"eval": ["--beats", str(workspace / "beats.npz")],
                "quantize": ["--out", str(tmp_path / "nan.tnq")]}[command]
        code = main([command, "--model", str(path), *args])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: w2 holds a non-finite value" in captured.err

    def test_misspelled_mode_usage_error(self, workspace):
        with pytest.raises(SystemExit) as exc:
            main([
                "eval", "--model", str(workspace / "model.tnn"),
                "--beats", str(workspace / "beats.npz"),
                "--inference-mode", "dequantized",
            ])
        assert exc.value.code == 2


class TestStream:
    def test_zero_signal_no_events(self, workspace, tmp_path, capsys):
        write_signal_csv(tmp_path / "zero.csv", np.zeros(2000))
        code = main([
            "stream", "--signal", str(tmp_path / "zero.csv"),
            "--qmodel", str(workspace / "model.tnq"),
        ])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_normal_recording_mostly_n(self, workspace, capsys):
        main([
            "stream", "--signal", str(workspace / "stream_n.csv"),
            "--qmodel", str(workspace / "model.tnq"),
        ])
        out = capsys.readouterr().out
        events = [l for l in out.splitlines() if l and not l.startswith("ALERT")]
        assert len(events) == 10
        n_count = sum(1 for e in events if e.endswith(",N"))
        assert n_count >= 9
        assert "ALERT" not in "".join(e for e in events)

    def test_ventricular_beats_alert(self, workspace, capsys):
        main([
            "stream", "--signal", str(workspace / "stream_v.csv"),
            "--qmodel", str(workspace / "model.tnq"),
        ])
        lines = capsys.readouterr().out.splitlines()
        alerts = [l for l in lines if l.startswith("ALERT")]
        assert len(alerts) == 2
        assert all(l.endswith(",V") for l in alerts)


    def test_same_events_from_clean_and_commented_exports(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        # one recording written twice: as exported (the one-pass parse) and
        # with a header line and CRLF ends (the line loop)
        loop_reads = []
        rows = ingest._rows
        monkeypatch.setattr(ingest, "_rows", lambda path: loop_reads.append(path) or rows(path))
        commented = tmp_path / "commented.csv"
        text = (workspace / "stream_v.csv").read_text()
        commented.write_bytes(("# header\n" + text).replace("\n", "\r\n").encode())
        stdout = []
        for signal in (workspace / "stream_v.csv", commented):
            assert main([
                "stream", "--signal", str(signal), "--qmodel", str(workspace / "model.tnq"),
            ]) == EXIT_OK
            stdout.append(capsys.readouterr().out.encode())
        assert loop_reads == [str(commented)]
        assert stdout[0] == stdout[1] and b"ALERT" in stdout[0]

    def test_signal_not_utf8_names_its_path(self, workspace, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"0,0.0\n1,\xb50.1\n")
        code = main(["stream", "--signal", str(bad), "--qmodel", str(workspace / "model.tnq")])
        assert code == EXIT_INPUT
        assert f"{bad}:2: not UTF-8" in capsys.readouterr().err

    def test_mismatched_layer_widths_checksum_exit(
        self, workspace, tmp_path, write_mismatched_model
    ):
        # a CRC-valid .tnq whose layer headers say 61x10 then 9x4 is
        # rejected at load, before the stream reads any sample
        bad = tmp_path / "mismatched.tnq"
        write_mismatched_model(bad, quantized=True)
        code = main([
            "stream", "--signal", str(workspace / "stream_n.csv"), "--qmodel", str(bad),
        ])
        assert code == EXIT_CHECKSUM

    def test_nan_scale_rejected_before_any_beat(self, workspace, tmp_path, capsys,
                                                patch_checked_byte):
        # a CRC-valid .tnq whose scale is NaN would label every beat N
        bad = tmp_path / "nan_scale.tnq"
        bad.write_bytes((workspace / "model.tnq").read_bytes())
        # magic, version and tag length (6 bytes), the tag, the mode byte,
        # then the little-endian float64 scale: its top two bytes F8 7F make a NaN
        scale_at = 6 + bad.read_bytes()[5] + 1
        patch_checked_byte(bad, scale_at + 6, 0xF8)
        patch_checked_byte(bad, scale_at + 7, 0x7F)
        code = main([
            "stream", "--signal", str(workspace / "stream_v.csv"), "--qmodel", str(bad),
        ])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {bad}: scale must be finite and positive, got nan" in captured.err

    def test_other_input_width_rejected_before_the_signal_is_read(self, tmp_path, capsys):
        # a valid .tnq of a 60-10-4 model: the width check names both widths
        # before the (here absent) signal file is opened
        narrow = glorot_init([(60, 10), (10, 4)], "sigmoid-sigmoid", np.random.default_rng(0))
        path = tmp_path / "narrow.tnq"
        save_qmodel(quantize_model(narrow), path)
        code = main([
            "stream", "--signal", str(tmp_path / "absent.csv"), "--qmodel", str(path),
        ])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(path) in err
        assert "60-sample beats" in err and "61-sample windows" in err

    def test_infinite_sampling_rate_rejected(self, workspace, capsys):
        code = main([
            "stream", "--signal", str(workspace / "stream_v.csv"),
            "--qmodel", str(workspace / "model.tnq"), "--sampling-rate", "inf",
        ])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Nyquist" in captured.err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tinyecg.cli", "--help"], capture_output=True, text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    for sub in ("ingest", "train", "quantize", "eval", "stream"):
        assert sub in proc.stdout


def test_one_sampling_rate():
    # the CLI's --sampling-rate default and the synthetic recordings' rate
    # are the one deployed rate defined in `ingest`
    import inspect

    from tinyecg import cli, ingest, synthetic

    assert cli.SAMPLING_RATE_HZ is ingest.SAMPLING_RATE_HZ == 360.0
    for fn in (synthetic.labeled_recording, synthetic.pulse_train):
        assert inspect.signature(fn).parameters["fs"].default is ingest.SAMPLING_RATE_HZ


# Run in a fresh interpreter: argv[1] is the workspace, and the rest name
# the CLI calls to make there. Prints whether scipy got loaded.
_SCIPY_PROBE = """
import contextlib, io, sys
from pathlib import Path

import numpy as np

import tinyecg
from tinyecg import cli, modelio
from tinyecg.dsp import FilterSpec
from tinyecg.qrs import RPeakDetector

work = Path(sys.argv[1])
calls = {
    "ingest": ["ingest", "--signal", work / "sig.csv", "--annotations", work / "ann.csv",
               "--out", work / "probe_beats.npz"],
    "train": ["train", "--beats", work / "beats.npz", "--epochs", "5",
              "--out", work / "probe.tnm"],
    "quantize": ["quantize", "--model", work / "probe.tnm", "--out", work / "probe.tnq"],
    "eval": ["eval", "--model", work / "probe.tnm", "--beats", work / "beats.npz"],
    "eval-tdq": ["eval", "--model", work / "probe.tnq", "--beats", work / "beats.npz",
                 "--inference-mode", "temporary-dequantized"],
    "stream": ["stream", "--signal", work / "stream_v.csv", "--qmodel", work / "probe.tnq"],
}
detector = RPeakDetector(FilterSpec(360.0))
for x in np.sin(np.arange(720) / 9.0):
    detector.push_sample(x)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main([str(a) for a in calls[name]]) for name in sys.argv[2:]]
modelio.load_model(work / "model.tnn")
modelio.load_qmodel(work / "model.tnq")
print(codes, "scipy" in sys.modules)
"""


def _scipy_loaded(work, *commands) -> bool:
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(work), *commands],
                          capture_output=True, text=True, check=True, env=CHILD_ENV)
    codes, loaded = proc.stdout.rsplit(" ", 1)
    assert codes == str([EXIT_OK] * len(commands)), proc.stderr
    return loaded.strip() == "True"


def test_live_path_never_loads_scipy(workspace):
    # the biquad is designed in numpy: a detector and every command but
    # ingest run without importing scipy
    assert not _scipy_loaded(workspace, "train", "quantize", "eval", "eval-tdq", "stream")


def test_batch_preprocessing_loads_scipy(workspace):
    # the same probe does see scipy once a recording is filtered in batch
    assert _scipy_loaded(workspace, "ingest")


@pytest.mark.parametrize("imports, modules", [
    ("tinyecg.qrs, tinyecg.quant", "dsp ingest labels nn qrs quant"),
    ("tinyecg.cli", "cli dsp ingest labels metrics modelio nn qrs quant train"),
])
def test_package_modules_loaded(imports, modules):
    # the package re-exports nothing, so the live path (detector and int8
    # kernel) loads no training, scoring or model-file code
    probe = (f"import sys, {imports}; "
             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'tinyecg'))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, check=True, env=CHILD_ENV)
    assert proc.stdout.split() == ["tinyecg", *(f"tinyecg.{m}" for m in modules.split())]
