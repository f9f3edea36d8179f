"""Fast unit coverage for the comparative-experiment helpers; the full
protocols themselves run under the slow acceptance tests."""

import numpy as np

import tfilm.experiments as experiments
from tfilm.data import zero_mask
from tfilm.experiments import impute_input, match_conv_filters, spline_impute
from tfilm.model import ModelConfig, build_model, count_params


def test_match_conv_filters_within_tolerance():
    full = ModelConfig(depth=2, patch_length=512, max_filters=16,
                       tfilm_blocks=8, dropout_rate=0.5)
    conv = match_conv_filters(full, tolerance=0.10)
    assert conv.use_tfilm is False
    assert conv.max_filters % 2 == 0
    n_full = count_params(build_model(full, 0))
    n_conv = count_params(build_model(conv, 0))
    assert abs(n_conv - n_full) / n_full <= 0.10


def test_match_conv_filters_builds_no_model(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(experiments, "build_model", refuse)
    full = ModelConfig(depth=2, patch_length=2048, max_filters=16, tfilm_blocks=32)
    conv = experiments.match_conv_filters(full)
    assert conv.param_count() == count_params(build_model(conv, 0))


def test_spline_impute_preserves_observed():
    rng = np.random.default_rng(0)
    x = np.cumsum(rng.normal(size=128))
    masked, mask = zero_mask(x, 0.25, seed=1)
    filled = spline_impute(masked, mask)
    assert np.array_equal(filled[~mask], x[~mask])
    assert np.all(filled[mask] != 0.0) or not mask.any()


def test_spline_impute_exact_on_cubic():
    # a cubic polynomial is in the spline's function class away from the
    # boundary, so interior gaps are recovered to near machine precision
    t = np.linspace(0, 1, 200)
    x = 2.0 * t ** 3 - t ** 2 + 0.5 * t
    mask = np.zeros(200, dtype=bool)
    mask[80:85] = True
    filled = spline_impute(np.where(mask, 0.0, x), mask)
    assert np.max(np.abs(filled - x)) < 1e-6


def test_impute_input_layout():
    rng = np.random.default_rng(2)
    x = np.cumsum(rng.normal(size=64))
    masked, mask = zero_mask(x, 0.2, seed=3)
    inp = impute_input(masked, mask)
    assert inp.shape == (64, 2)
    assert np.array_equal(inp[:, 1], mask.astype(np.float64))
    assert np.array_equal(inp[~mask, 0], x[~mask])
