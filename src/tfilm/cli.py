"""Command line entry point.

Subcommands: synth, degrade, train, eval, upsample, impute, gradcheck.
Every run writes a resolved-config JSON next to its outputs so the exact
invocation can be replayed. Exit codes: 0 success, 1 usage error,
2 data/format error, 3 invariant or check failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import errors
from .checks import MODULES, run_gradchecks
from .data import (
    PatchDataset,
    SignalAsset,
    make_pairs,
    make_patches,
    read_csv_signal,
    read_rawf32,
    read_wav,
    synth_signal,
    write_csv_signal,
    write_rawf32,
    write_wav,
    zero_mask,
)
from .dsp import degrade, spline_upsample
from .experiments import impute_input
from .model import ModelConfig, build_model, check_field_type, load_checkpoint
from .train import TrainConfig, evaluate, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def openblas_thread_calls():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    when numpy ships no such library (another BLAS, or a system build)."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    if not libs:
        return None
    return _thread_calls(ctypes.CDLL(str(libs[0])))


def _thread_calls(lib):
    # numpy >= 2 wheels bundle scipy-openblas; numpy 1.x wheels name the
    # same ILP64 calls without the scipy_ prefix
    for prefix in ("scipy_openblas_", "openblas_"):
        get_name, set_name = f"{prefix}get_num_threads64_", f"{prefix}set_num_threads64_"
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, put = getattr(lib, get_name), getattr(lib, set_name)
            get.restype = ctypes.c_int
            get.argtypes = []
            put.restype = None
            put.argtypes = [ctypes.c_int]
            return get, put
    return None


def _set_threads(n):
    if n is None:
        n = os.environ.get("TFILM_THREADS")
    if n is None:
        return
    n = int(n)
    if n < 1:
        raise ValueError(f"thread count must be >= 1, got {n}")
    calls = openblas_thread_calls()
    if calls is None:
        # numpy has loaded its BLAS already, so the environment is too late
        print(f"warning: cannot set BLAS threads to {n}: numpy has no bundled "
              "OpenBLAS with a thread-count call", file=sys.stderr)
        return
    calls[1](n)


def _apply_overrides(config, pairs):
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        config[key.strip()] = value


def _emit_resolved(out_path, subcommand, config):
    """Reproducibility record: flags and config as actually used."""
    out = Path(out_path)
    target = out / "resolved_config.json" if out.is_dir() else (
        out.parent / (out.name + ".config.json"))
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(
        {"subcommand": subcommand, "config": config}, indent=2, sort_keys=True))


def _read_signal(path):
    p = Path(path)
    if p.suffix == ".wav":
        return read_wav(p)
    if p.suffix == ".csv":
        return read_csv_signal(p)
    return read_rawf32(p)


def _write_signal(path, asset):
    p = Path(path)
    if p.suffix == ".wav":
        write_wav(p, asset)
    elif p.suffix == ".csv":
        write_csv_signal(p, asset)
    else:
        write_rawf32(p, asset)


# --- subcommand bodies ----------------------------------------------------------


def _cmd_synth(args):
    spec = json.loads(Path(args.spec).read_text())
    asset = synth_signal(spec, seed=args.seed)
    _write_signal(args.out, asset)
    _emit_resolved(args.out, "synth", {"spec": spec, "seed": args.seed,
                                       "out": str(args.out)})
    return EXIT_OK


def _cmd_degrade(args):
    asset = _read_signal(getattr(args, "in"))
    low = degrade(asset.samples, args.r)
    out = low
    if args.upscale:
        out = spline_upsample(low, args.r)
    rate = asset.rate // args.r if not args.upscale and asset.rate else asset.rate
    _write_signal(args.out, SignalAsset(out, rate, {
        "source": str(getattr(args, "in")), "r": args.r, "upscale": args.upscale,
    }))
    _emit_resolved(args.out, "degrade", {
        "in": str(getattr(args, "in")), "r": args.r,
        "upscale": args.upscale, "out": str(args.out)})
    return EXIT_OK


def _load_dir_pairs(data_dir, r):
    files = sorted(p for p in Path(data_dir).iterdir()
                   if p.suffix in (".raw", ".wav", ".csv"))
    if not files:
        raise FileNotFoundError(f"no signal files in {data_dir}")
    return [make_pairs(_read_signal(f), r) for f in files]


# train.* keys name these TrainConfig fields, model.* keys any ModelConfig
# field; data.r is the decimation ratio (default 2) and data.stride the
# window stride (default half a patch)
_TRAIN_FIELDS = ("epochs", "lr", "batch_size", "seed", "val_fraction")
# the least value of each bounded key; train.val_fraction lies in [0, 1)
_LEAST = {"train.epochs": 0, "train.batch_size": 1, "train.seed": 0, "data.r": 1,
          "data.stride": 1}


def _train_settings(config, out_dir):
    """The ``ModelConfig``, ``TrainConfig`` and data.* values of flat dotted
    keys, each checked for name, type and range; defaults are the fields'."""
    kinds = {f"model.{f.name}": f.type for f in fields(ModelConfig)}
    kinds.update((f"train.{f.name}", f.type) for f in fields(TrainConfig)
                 if f.name in _TRAIN_FIELDS)
    kinds.update({"data.r": "int", "data.stride": "int"})
    groups = {"model": {}, "train": {}, "data": {"r": 2}}
    for key, value in config.items():
        if key not in kinds:
            raise errors.ConfigInvariantViolation(f"unknown train config key {key!r}")
        check_field_type(key, kinds[key], value)
        section, name = key.split(".", 1)
        groups[section][name] = value
    for key, least in _LEAST.items():
        if config.get(key, least) < least:
            raise errors.ConfigInvariantViolation(f"{key} must be >= {least}, got {config[key]}")
    if not 0 <= config.get("train.val_fraction", 0) < 1:
        raise errors.ConfigInvariantViolation(
            f"train.val_fraction must be in [0, 1), got {config['train.val_fraction']}")
    model_cfg = ModelConfig(**groups["model"])
    model_cfg.validate()
    return model_cfg, TrainConfig(**groups["train"], out_dir=out_dir), groups["data"]


def _cmd_train(args):
    config = json.loads(Path(args.config).read_text()) if args.config else {}
    if isinstance(config, dict) and config.get("subcommand") == "train":
        config = config.get("config")   # the record of a train run replays it
    if not isinstance(config, dict):
        raise errors.ConfigInvariantViolation("--config holds no mapping of keys")
    _apply_overrides(config, args.set)
    if args.seed is not None:
        config["train.seed"] = args.seed
    model_cfg, train_cfg, data = _train_settings(config, args.out)
    dataset = PatchDataset.concat(
        [make_patches(p, model_cfg.patch_length, data.get("stride"))
         for p in _load_dir_pairs(args.data, data["r"])], train_cfg.seed)
    record = {f"model.{k}": v for k, v in model_cfg.to_dict().items()}
    record.update((f"train.{k}", getattr(train_cfg, k)) for k in _TRAIN_FIELDS)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    _emit_resolved(args.out, "train", {**record, "data.r": data["r"],
                                       "data.stride": dataset.stride})
    run = train(build_model(model_cfg, seed=train_cfg.seed), dataset, train_cfg)
    if args.verbose:
        for e, (tl, vl) in enumerate(zip(run.epoch_losses, run.val_losses)):
            print(f"epoch {e:3d}  train {tl:.6e}  val {vl:.6e}")
    print(f"trained {run.steps} steps, best val loss {run.best_val_loss:.6e}")
    return EXIT_OK


def _cmd_eval(args):
    model = load_checkpoint(args.ckpt)
    r = args.r
    metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    report = evaluate(model, _load_dir_pairs(args.data, r), metrics=metrics)
    report.to_csv(args.out)
    _emit_resolved(args.out, "eval", {
        "ckpt": str(args.ckpt), "data": str(args.data), "r": r,
        "metrics": list(metrics), "out": str(args.out)})
    print(report.format_table())
    return EXIT_OK


def _cmd_upsample(args):
    model = load_checkpoint(args.ckpt)
    asset = _read_signal(getattr(args, "in"))
    out = model.infer(spline_upsample(asset.samples, args.r))[:, None]
    rate = asset.rate * args.r if asset.rate else 0
    _write_signal(args.out, SignalAsset(out, rate, {
        "source": str(getattr(args, "in")), "r": args.r, "ckpt": str(args.ckpt)}))
    _emit_resolved(args.out, "upsample", {
        "ckpt": str(args.ckpt), "in": str(getattr(args, "in")),
        "r": args.r, "out": str(args.out)})
    return EXIT_OK


def _cmd_impute(args):
    model = load_checkpoint(args.ckpt)
    asset = _read_signal(getattr(args, "in"))
    x = asset.samples[:, 0]
    masked, mask = zero_mask(x, args.rate, seed=args.seed)
    inp = impute_input(masked, mask)
    if model.cfg.input_channels == 1:
        inp = inp[:, 0:1]  # spline-filled series only, no mask channel
    out = model.infer(inp)
    out[~mask] = x[~mask]  # observed samples pass through untouched
    _write_signal(args.out, SignalAsset(out, asset.rate, {
        "source": str(getattr(args, "in")), "rate": args.rate,
        "seed": args.seed, "ckpt": str(args.ckpt)}))
    _emit_resolved(args.out, "impute", {
        "ckpt": str(args.ckpt), "in": str(getattr(args, "in")),
        "rate": args.rate, "seed": args.seed, "out": str(args.out)})
    return EXIT_OK


def _cmd_gradcheck(args):
    passed, results = run_gradchecks(args.module)
    for name, report in results:
        status = "PASS" if report.passed else "FAIL"
        print(f"{name:<24} {status}  max rel err {report.max_rel_error:.3e}")
        if args.verbose:
            for p in report.params:
                note = f" ({p.excluded} excluded)" if p.excluded else ""
                print(f"    {p.name}: {p.max_rel_error:.3e}{note}")
    return EXIT_OK if passed else EXIT_CHECK


# --- parser ---------------------------------------------------------------------


def _build_parser():
    parser = _Parser(prog="tfilm", description=__doc__)
    parser.add_argument("--threads", type=int, default=None,
                        help="BLAS worker threads (env TFILM_THREADS)")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic signal")
    p.add_argument("--spec", required=True, help="generator spec JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("degrade", help="low-pass and decimate a signal")
    p.add_argument("--in", required=True)
    p.add_argument("-r", type=int, required=True, help="decimation ratio")
    p.add_argument("--upscale", action="store_true",
                   help="spline re-expansion back to the original length")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_degrade)

    p = sub.add_parser("train", help="train a model on a directory of signals")
    p.add_argument("--config", help="JSON config with flat dotted keys, or the "
                   "resolved_config.json of a train run")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint against targets")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("-r", type=int, default=2)
    p.add_argument("--metrics", default="snr,lsd")
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("upsample", help="super-resolve a signal with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_upsample)

    p = sub.add_parser("impute", help="fill randomly zeroed samples")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_impute)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    p.add_argument("--module", default="all", choices=MODULES + ("all",))
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        _set_threads(args.threads)
        return args.func(args)
    # each error's class picks its exit code (see errors); data first, as
    # json.JSONDecodeError is a ValueError too
    except (OSError, json.JSONDecodeError, errors.DataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, errors.UsageError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except errors.TfilmError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
