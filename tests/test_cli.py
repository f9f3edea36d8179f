"""CLI subcommands, exit codes and resolved-config emission."""

import json
import shlex
import struct
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tfilm import cli, errors
from tfilm.cli import main, openblas_thread_calls
from tfilm.data import (
    RAW_MAGIC,
    RAW_VERSION,
    SignalAsset,
    read_csv_signal,
    read_rawf32,
    write_csv_signal,
    write_rawf32,
    zero_mask,
)
from tfilm.dsp import spline_upsample
from tfilm.model import ModelConfig, build_model, load_checkpoint, save_checkpoint
from tfilm.train import TrainConfig

from test_model import BAD_HEADERS, _header_bytes, _rewrite_header


@pytest.fixture()
def spec_file(tmp_path):
    spec = {"kind": "multisine", "length": 1024,
            "components": [{"freq": 0.05, "amp": 1.0, "phase": 0.0}]}
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    return p


def test_synth_writes_signal_and_config(tmp_path, spec_file):
    out = tmp_path / "sig.raw"
    assert main(["synth", "--spec", str(spec_file), "--seed", "3",
                 "--out", str(out)]) == 0
    asset = read_rawf32(out)
    assert asset.length == 1024
    resolved = json.loads((tmp_path / "sig.raw.config.json").read_text())
    assert resolved["subcommand"] == "synth"
    assert resolved["config"]["seed"] == 3


def test_synth_deterministic(tmp_path, spec_file):
    a, b = tmp_path / "a.raw", tmp_path / "b.raw"
    main(["synth", "--spec", str(spec_file), "--seed", "1", "--out", str(a)])
    main(["synth", "--spec", str(spec_file), "--seed", "1", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_degrade_r1_byte_equal_payload(tmp_path, spec_file):
    src = tmp_path / "sig.raw"
    main(["synth", "--spec", str(spec_file), "--seed", "0", "--out", str(src)])
    out = tmp_path / "same.raw"
    assert main(["degrade", "--in", str(src), "-r", "1",
                 "--out", str(out)]) == 0
    assert read_rawf32(out).samples.tobytes() == read_rawf32(src).samples.tobytes()


def test_degrade_halves(tmp_path, spec_file):
    src = tmp_path / "sig.raw"
    main(["synth", "--spec", str(spec_file), "--seed", "0", "--out", str(src)])
    out = tmp_path / "low.raw"
    main(["degrade", "--in", str(src), "-r", "2", "--out", str(out)])
    assert read_rawf32(out).length == 512


def test_missing_input_is_data_error(tmp_path):
    assert main(["degrade", "--in", str(tmp_path / "nope.raw"), "-r", "2",
                 "--out", str(tmp_path / "x.raw")]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_gradcheck_layers_passes(capsys):
    assert main(["gradcheck", "--module", "layers"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_threads_flag_and_env_set_blas_threads(tmp_path, spec_file, monkeypatch):
    calls = openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy ships no OpenBLAS with a thread-count call")
    get, put = calls
    before = get()
    target = 2 if before == 1 else 1
    monkeypatch.delenv("TFILM_THREADS", raising=False)
    synth = ["synth", "--spec", str(spec_file), "--out", str(tmp_path / "s.raw")]
    try:
        assert main(["--threads", str(target)] + synth) == 0
        assert get() == target
        put(before)
        monkeypatch.setenv("TFILM_THREADS", str(target))
        assert main(synth) == 0
        assert get() == target
        assert main(["--threads", "0"] + synth) == 1
    finally:
        put(before)


def test_thread_calls_found_under_numpy1_names():
    # numpy 1.x wheels drop the scipy_ prefix of numpy 2's bundled OpenBLAS
    state = {"n": 4}

    def get():
        return state["n"]

    def put(n):
        state["n"] = n

    for prefix in ("scipy_openblas_", "openblas_"):
        lib = SimpleNamespace(**{f"{prefix}get_num_threads64_": get,
                                 f"{prefix}set_num_threads64_": put})
        found_get, found_put = cli._thread_calls(lib)
        found_put(3)
        assert found_get() == 3
        state["n"] = 4
    assert cli._thread_calls(SimpleNamespace()) is None


def test_threads_without_blas_call_warns(tmp_path, spec_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "openblas_thread_calls", lambda: None)
    synth = ["synth", "--spec", str(spec_file), "--out", str(tmp_path / "s.raw")]
    assert main(["--threads", "1"] + synth) == 0
    assert "cannot set BLAS threads" in capsys.readouterr().err


def _train_tiny(tmp_path, spec_file, run_name="run"):
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    main(["synth", "--spec", str(spec_file), "--seed", "0",
          "--out", str(data / "sig.raw")])
    run_dir = tmp_path / run_name
    rc = main([
        "train", "--data", str(data), "--out", str(run_dir), "--seed", "1",
        "--set", "train.epochs=2", "--set", "model.depth=2", "--set", "model.max_filters=8",
        "--set", "model.tfilm_blocks=8", "--set", "model.patch_length=256",
    ])
    return rc, run_dir, data


def test_train_eval_upsample_pipeline(tmp_path, spec_file):
    rc, run_dir, data = _train_tiny(tmp_path, spec_file)
    assert rc == 0
    assert (run_dir / "best.ckpt").exists()
    assert (run_dir / "resolved_config.json").exists()

    report = tmp_path / "report.csv"
    assert main(["eval", "--ckpt", str(run_dir / "best.ckpt"),
                 "--data", str(data), "-r", "2", "--metrics", "snr",
                 "--out", str(report)]) == 0
    assert report.read_text().startswith("pair,")
    # eval cuts no patches: a file shorter than patch_length (256) scores too
    short = tmp_path / "short"
    short.mkdir()
    write_rawf32(short / "sig.raw", SignalAsset(np.sin(0.05 * np.arange(200))))
    assert main(["eval", "--ckpt", str(run_dir / "best.ckpt"),
                 "--data", str(short), "-r", "2", "--metrics", "snr",
                 "--out", str(report)]) == 0

    low = tmp_path / "low.raw"
    main(["degrade", "--in", str(data / "sig.raw"), "-r", "2",
          "--out", str(low)])
    sr = tmp_path / "sr.raw"
    assert main(["upsample", "--ckpt", str(run_dir / "best.ckpt"),
                 "--in", str(low), "-r", "2", "--out", str(sr)]) == 0
    assert read_rawf32(sr).length == 1024

    # one forward over the whole signal, the prediction eval scores; no
    # length is cut, not one that leaves a partial patch (600 -> 1200) nor
    # one shorter than a patch (100 -> 200)
    model = load_checkpoint(run_dir / "best.ckpt")
    for n in (600, 100):
        low = tmp_path / f"low{n}.raw"
        write_rawf32(low, SignalAsset(np.sin(0.3 * np.arange(n)), 8000.0))
        sr = tmp_path / f"sr{n}.raw"
        assert main(["upsample", "--ckpt", str(run_dir / "best.ckpt"),
                     "--in", str(low), "-r", "2", "--out", str(sr)]) == 0
        expected = model.infer(spline_upsample(read_rawf32(low).samples, 2))
        np.testing.assert_array_equal(read_rawf32(sr).samples[:, 0],
                                      expected.astype(np.float32))


def test_train_reruns_identically(tmp_path, spec_file):
    _, run_a, _ = _train_tiny(tmp_path, spec_file, "run_a")
    _, run_b, _ = _train_tiny(tmp_path, spec_file, "run_b")
    a = json.loads((run_a / "train_run.json").read_text())
    b = json.loads((run_b / "train_run.json").read_text())
    assert a["epoch_losses"] == b["epoch_losses"]
    assert (run_a / "best.ckpt").read_bytes() == (run_b / "best.ckpt").read_bytes()


# the keys `train` takes, each listed in the record it writes
TRAIN_KEYS = ({f"model.{f.name}" for f in fields(ModelConfig)}
              | {f"train.{k}" for k in ("epochs", "lr", "batch_size", "seed", "val_fraction")}
              | {"data.r", "data.stride"})


def test_train_record_lists_every_key_at_its_resolved_value(tmp_path, spec_file):
    _, run_dir, _ = _train_tiny(tmp_path, spec_file)
    record = json.loads((run_dir / "resolved_config.json").read_text())
    assert record["subcommand"] == "train"
    config = record["config"]
    assert set(config) == TRAIN_KEYS and len(config) == 15
    assert config["model.patch_length"] == 256 and config["model.depth"] == 2
    assert config["train.epochs"] == 2 and config["train.seed"] == 1
    assert config["train.lr"] == TrainConfig().lr
    assert config["model.dropout_rate"] == ModelConfig().dropout_rate
    assert config["data.r"] == 2 and config["data.stride"] == 128


def test_train_replays_its_record(tmp_path, spec_file):
    _, run_a, data = _train_tiny(tmp_path, spec_file, "run_a")
    run_b = tmp_path / "run_b"
    assert main(["train", "--config", str(run_a / "resolved_config.json"),
                 "--data", str(data), "--out", str(run_b)]) == 0
    a = json.loads((run_a / "train_run.json").read_text())
    b = json.loads((run_b / "train_run.json").read_text())
    assert a["epoch_losses"] == b["epoch_losses"]
    assert (run_a / "best.ckpt").read_bytes() == (run_b / "best.ckpt").read_bytes()
    assert ((run_a / "resolved_config.json").read_text()
            == (run_b / "resolved_config.json").read_text())


def test_model_patch_length_sets_the_training_windows(tmp_path, spec_file, monkeypatch):
    seen = []

    def spy(model, dataset, cfg):
        seen.append(dataset)
        return real_train(model, dataset, cfg)

    real_train = cli.train
    monkeypatch.setattr(cli, "train", spy)
    rc, _, _ = _train_tiny(tmp_path, spec_file)
    assert rc == 0
    (dataset,) = seen
    assert dataset.patch_length == 256 and dataset.stride == 128
    assert len(dataset) == 7   # offsets 0, 128, ..., 768 of 1024 samples
    assert all(x.shape[0] == y.shape[0] == 256 for x, y in dataset.pairs)


def _fail_build(*args, **kwargs):
    raise AssertionError("model built before the data was read")


def _train_on_empty_dir(tmp_path, *sets, argv=()):
    # --data and --out come last, so they win over any in argv
    empty = tmp_path / "empty"
    empty.mkdir(exist_ok=True)
    return main(["train", *argv, *(a for s in sets for a in ("--set", s)),
                 "--data", str(empty), "--out", str(tmp_path / "run")])


def test_train_reads_the_data_before_building_the_model(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_model", _fail_build)
    assert _train_on_empty_dir(tmp_path) == 2
    assert "no signal files" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["train.epoch", "data.strid", "data.patch_length",
                                 "model.dilation", "epochs"])
def test_train_unknown_key_is_usage_error(tmp_path, key, capsys):
    assert _train_on_empty_dir(tmp_path, f"{key}=2") == 1
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("content", ["[1, 2]", "3", '{"subcommand": "train"}'])
def test_train_config_without_a_mapping_of_keys_is_usage_error(tmp_path, content, capsys):
    config = tmp_path / "config.json"
    config.write_text(content)
    assert _train_on_empty_dir(tmp_path, argv=["--config", str(config)]) == 1
    assert "no mapping of keys" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["2.5", "true", '"16"'])
def test_train_wrong_train_value_type_is_usage_error(tmp_path, value, capsys):
    assert _train_on_empty_dir(tmp_path, f"train.epochs={value}") == 1
    assert "train.epochs must be int" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    "train.batch_size=0", "train.batch_size=-1", "data.stride=0", "data.stride=-5",
    "data.r=0", "train.epochs=-1", "train.seed=-1", "train.val_fraction=1.5", "train.val_fraction=1",
    "train.val_fraction=-0.1",
])
def test_train_out_of_range_setting_is_usage_error_before_any_read(tmp_path, setting, capsys):
    # the data directory is empty, so a check after the read would exit 2
    assert _train_on_empty_dir(tmp_path, setting) == 1
    assert setting.split("=")[0] in capsys.readouterr().err


def test_readme_train_example_keys_are_accepted(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [shlex.split(line, comments=True)[2:]
                for line in readme.replace("\\\n", " ").splitlines()
                if line.startswith("tfilm train") and "--set" in line]
    assert commands
    monkeypatch.setattr(cli, "build_model", _fail_build)
    for argv in commands:
        assert _train_on_empty_dir(tmp_path, argv=argv) == 2
        assert "no signal files" in capsys.readouterr().err


def test_impute_preserves_observed(tmp_path, spec_file):
    rc, run_dir, _ = _train_tiny(tmp_path, spec_file)
    # 600 samples end in a partial patch, whose masked samples are filled too
    for n in (512, 600):
        series = tmp_path / f"walk{n}.csv"
        x = np.cumsum(np.random.default_rng(0).normal(size=n)) * 0.02
        write_csv_signal(series, SignalAsset(x))
        out = tmp_path / f"filled{n}.csv"
        assert main(["impute", "--ckpt", str(run_dir / "best.ckpt"),
                     "--in", str(series), "--rate", "0.2", "--seed", "4",
                     "--out", str(out)]) == 0
        filled = read_csv_signal(out).samples[:, 0]
        _, mask = zero_mask(x, 0.2, seed=4)
        assert np.array_equal(filled[~mask], x[~mask])
        assert n == 512 or mask[512:].any()
        assert np.all(filled[512:][mask[512:]] != 0.0)


def test_train_unknown_model_key_is_usage_error(tmp_path, spec_file):
    data = tmp_path / "data"
    data.mkdir()
    main(["synth", "--spec", str(spec_file), "--out", str(data / "sig.raw")])
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                 "--set", "model.bogus=1"]) == 1


def test_train_fixed_model_key_off_its_value_is_usage_error(tmp_path, spec_file):
    data = tmp_path / "data"
    data.mkdir()
    main(["synth", "--spec", str(spec_file), "--out", str(data / "sig.raw")])
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                 "--set", "model.use_residual=false"]) == 1


def test_truncated_json_file_is_data_error(tmp_path, spec_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": ')
    assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "s.raw")]) == 2
    data = tmp_path / "data"
    data.mkdir()
    main(["synth", "--spec", str(spec_file), "--out", str(data / "sig.raw")])
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                 "--config", str(bad)]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("header", BAD_HEADERS)
def test_checkpoint_with_bad_config_is_data_error(tmp_path, header, capsys):
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, build_model(
        ModelConfig(depth=2, patch_length=64, max_filters=8, tfilm_blocks=4), seed=0))
    _rewrite_header(ckpt, _header_bytes(header))
    data = tmp_path / "data"
    data.mkdir()
    write_rawf32(data / "sig.raw", SignalAsset(np.sin(0.1 * np.arange(256))))
    series = tmp_path / "walk.csv"
    write_csv_signal(series, SignalAsset(np.cumsum(np.ones(128)) * 0.01))
    for argv in (
        ["upsample", "--in", str(data / "sig.raw"), "-r", "2", "--out", str(tmp_path / "up.raw")],
        ["impute", "--in", str(series), "--rate", "0.2", "--out", str(tmp_path / "f.csv")],
        ["eval", "--data", str(data), "--out", str(tmp_path / "report.csv")],
    ):
        assert main(argv + ["--ckpt", str(ckpt)]) == 2
        assert "data error: checkpoint config" in capsys.readouterr().err


@pytest.mark.parametrize("value", ['"2"', "2.5", "true"])
def test_train_wrong_model_value_type_is_usage_error(tmp_path, spec_file, value):
    data = tmp_path / "data"
    data.mkdir()
    main(["synth", "--spec", str(spec_file), "--out", str(data / "sig.raw")])
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                 "--set", f"model.depth={value}"]) == 1


@pytest.mark.parametrize("subcommand,length,fill", [
    pytest.param("eval", 1000, np.sin, id="eval-shorter-than-lsd-frame"),
    pytest.param("eval", 1001, np.sin, id="eval-length-not-divisible"),
    pytest.param("train", 1001, np.sin, id="train-length-not-divisible"),
    pytest.param("eval", 1000, np.zeros_like, id="eval-all-zero-target"),
    pytest.param("degrade", 3, None, id="degrade-csv-nan-cell"),
    pytest.param("degrade", 0, None, id="degrade-raw-no-samples"),
])
def test_unusable_signal_is_data_error(tmp_path, subcommand, length, fill, capsys):
    data = tmp_path / "data"
    data.mkdir()
    if subcommand == "degrade":
        src = tmp_path / ("sig.csv" if length else "sig.raw")
        if length:
            src.write_text("ch0\n1.0\nnan\n2.0\n")
        else:   # a RAWF32 header that declares 0 samples of 1 channel
            src.write_bytes(RAW_MAGIC + struct.pack("<HHIQ", RAW_VERSION, 1, 0, 0))
        argv = ["degrade", "--in", str(src), "-r", "2", "--out", str(tmp_path / "low.raw")]
    else:
        write_rawf32(data / "sig.raw", SignalAsset(fill(0.05 * np.arange(length))))
        if subcommand == "eval":
            ckpt = tmp_path / "m.ckpt"
            save_checkpoint(ckpt, build_model(ModelConfig(
                depth=2, patch_length=64, max_filters=8, tfilm_blocks=4), seed=0))
            argv = ["eval", "--ckpt", str(ckpt), "--data", str(data),
                    "--out", str(tmp_path / "report.csv")]
        else:
            argv = ["train", "--data", str(data), "--out", str(tmp_path / "run"),
                    "--set", "model.depth=2", "--set", "model.max_filters=8",
                    "--set", "model.tfilm_blocks=4", "--set", "model.patch_length=64"]
    assert main(argv) == 2
    assert "data error" in capsys.readouterr().err


def test_every_error_class_picks_one_exit_code():
    checks = {errors.NonScalarRoot, errors.NoTape, errors.NonDeterministicFunction,
              errors.ChannelsNotDivisible, errors.NonFiniteLoss}
    bases = {errors.TfilmError, errors.DataError, errors.UsageError}
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.TfilmError)
               and c not in bases]
    assert checks <= set(classes)
    for c in classes:
        kinds = [issubclass(c, errors.DataError), issubclass(c, errors.UsageError),
                 c in checks]
        assert kinds.count(True) == 1, c.__name__
