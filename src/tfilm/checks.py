"""Pre-packaged gradient-check suites over every op the model runs,
the TFiLM layer end-to-end, and a miniature full model.

Shared by the test suite and the ``gradcheck`` CLI subcommand.
"""

from __future__ import annotations

import numpy as np

from .autodiff import finite_diff_check
from .layers import (
    conv1d,
    init_conv_params,
    init_lstm_params,
    lstm_scan,
    subpixel_shuffle,
)
from .model import ModelConfig, build_model
from .modulation import init_tfilm_params, tfilm_forward
from .tensor import Tensor
from .train import mse_loss

__all__ = ["run_gradchecks", "MODULES"]

MODULES = ("layers", "tfilm", "model")


def _sq(t):
    return (t * t).sum()


def _check(name, f, params, results, tol, h, max_coords=None):
    report = finite_diff_check(f, params, h=h, tol=tol, max_coords=max_coords)
    results.append((name, report))


def _layer_checks(results, tol, h):
    rng = np.random.default_rng(20240817)

    x = Tensor(rng.normal(size=(2, 16, 3)), requires_grad=True, name="x")
    p = init_conv_params(4, 3, 5, rng)
    _check("conv1d.same", lambda ps: _sq(conv1d(ps[0], p)),
           [x, p.weight, p.bias], results, tol, h)

    x = Tensor(rng.normal(size=(2, 20, 3)), requires_grad=True, name="x")
    p = init_conv_params(4, 3, 5, rng, stride=2, dilation=2)
    _check("conv1d.stride2.dilation2", lambda ps: _sq(conv1d(ps[0], p)),
           [x, p.weight, p.bias], results, tol, h)

    # long enough for tiles of 4 outputs: the stride-2, dilation-2 conv
    # keeps every other padded sample and spans 2 band blocks; the input is
    # spot-checked on a seeded subset of coordinates
    x = Tensor(rng.normal(size=(2, 256, 24)), requires_grad=True, name="x")
    p = init_conv_params(2, 24, 5, rng, stride=2, dilation=2)
    _check("conv1d.taps", lambda ps: _sq(conv1d(ps[0], p)),
           [x, p.weight, p.bias], results, tol, h, max_coords=60)

    # the bottleneck's stride 2 at dilation 1, read through 16-sample rows:
    # 257 outputs in tiles of 8, the last one ragged
    x = Tensor(rng.normal(size=(2, 514, 2)), requires_grad=True, name="x")
    p = init_conv_params(4, 2, 9, rng, stride=2, dilation=1)
    _check("conv1d.tiles", lambda ps: _sq(conv1d(ps[0], p)),
           [x, p.weight, p.bias], results, tol, h, max_coords=60)

    x = Tensor(rng.normal(size=(2, 6, 4)), requires_grad=True, name="x")
    _check("subpixel_shuffle", lambda ps: _sq(subpixel_shuffle(ps[0], 2)),
           [x], results, tol, h)

    for bidirectional in (False, True):
        lstm = init_lstm_params(3, 4, rng, bidirectional=bidirectional)
        x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True, name="x")
        _check("lstm_scan.bidirectional" if bidirectional else "lstm_scan",
               lambda ps: _sq(lstm_scan(ps[0], lstm)),
               [x] + lstm.tensors(), results, tol, h)

    # the frequency path: k 33 at C_in 65 over 256 outputs, 8 overlap-save
    # segments of 32 outputs, two input-channel chunks (the input takes
    # the product's real form)
    x = Tensor(rng.normal(size=(1, 256, 65)), requires_grad=True, name="x")
    p = init_conv_params(3, 65, 33, rng)
    _check("conv1d.freq", lambda ps: _sq(conv1d(ps[0], p)),
           [x, p.weight, p.bias], results, tol, h, max_coords=40)

    # the same at C_in 16, where the taps would run in tiles of 8 outputs:
    # one chunk (the weight takes the real form), two items sharing one
    # segment group
    x = Tensor(rng.normal(size=(2, 256, 16)), requires_grad=True, name="x")
    p = init_conv_params(3, 16, 33, rng)
    _check("conv1d.freq.batched", lambda ps: _sq(conv1d(ps[0], p)),
           [x, p.weight, p.bias], results, tol, h, max_coords=40)


def _tfilm_checks(results, tol, h, bidirectional=False):
    rng = np.random.default_rng(20240818)
    p = init_tfilm_params(3, 4, rng, bidirectional=bidirectional)
    # a zero projection hides the LSTM from the loss; randomize it
    p.proj_w.data = rng.normal(size=p.proj_w.shape) * 0.3
    p.proj_b.data = rng.normal(size=p.proj_b.shape) * 0.1
    x = Tensor(rng.normal(size=(2, 16, 3)), requires_grad=True, name="x")
    tag = "tfilm.bidirectional" if bidirectional else "tfilm"
    _check(tag, lambda ps: _sq(tfilm_forward(ps[0], p)),
           [x] + p.tensors(), results, tol, h)


def _model_checks(results, tol, h):
    cfg = ModelConfig(depth=2, patch_length=64, max_filters=8, tfilm_blocks=4,
                      dropout_rate=0.5)
    model = build_model(cfg, seed=7)
    # zero-init stages hide gradients; nudge the final conv off zero
    rng = np.random.default_rng(20240819)
    model.final.conv.weight.data = rng.normal(size=model.final.conv.weight.shape) * 0.1
    for stage in model.down + [model.bottleneck]:
        stage.tfilm.proj_w.data = rng.normal(size=stage.tfilm.proj_w.shape) * 0.1

    x = Tensor(rng.normal(size=(1, 64, 1)))
    target = Tensor(rng.normal(size=(1, 64, 1)))

    def f_model(ps):
        # train mode, since an eval forward records no tape: the fixed seed
        # and step keep the dropout mask constant, so f stays deterministic
        # and the check covers dropout's backward too. The small loss scale
        # keeps finite-difference roundoff (~eps*|f|/h) below the
        # comparison floor for near-zero gradients
        return mse_loss(model.forward(x, mode="train", dropout_seed=0, step=0),
                        target) * 1e-3

    params = []
    for name, p in model.named_params():
        p.name = name
        params.append(p)
    # large conv tensors are spot-checked on a seeded coordinate subset to
    # keep the whole suite inside its runtime budget
    report = finite_diff_check(f_model, params, h=h, tol=tol, max_coords=40)
    results.append(("model.mini.K2", report))


def run_gradchecks(module="all", tol=1e-4, h=1e-5):
    """Run the requested suite; returns (all_passed, [(name, GradReport)])."""
    if module not in MODULES + ("all",):
        raise ValueError(f"unknown gradcheck module {module!r}")
    results = []
    if module in ("all", "layers"):
        _layer_checks(results, tol, h)
    if module in ("all", "tfilm"):
        _tfilm_checks(results, tol, h, bidirectional=False)
        _tfilm_checks(results, tol, h, bidirectional=True)
    if module in ("all", "model"):
        _model_checks(results, tol, h)
    return all(r.passed for _, r in results), results
