"""Desk-scale comparative experiments.

Two protocols, each comparing the full model (with TFiLM), a
parameter-matched conv-only model, and the model-free spline baseline:

* super-resolution on a seeded corpus of amplitude-modulated multisine
  signals, scored by mean test SNR;
* missing-value imputation on random-walk series with samples zeroed
  uniformly at random, scored by held-out mean squared error.

These reproduce the ordinal claims (Full >= Conv >= Spline for SNR,
Full <= Conv <= Spline for L2), not any absolute number: the original
protocols need multi-hour training on large corpora.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import PatchDataset, make_pairs, make_patches, synth_signal, zero_mask
from .dsp import natural_cubic_spline
from .model import ModelConfig, build_model
from .train import TrainConfig, evaluate, train

__all__ = [
    "match_conv_filters",
    "spline_impute",
    "impute_input",
    "SuperResolutionResult",
    "make_sr_corpus",
    "run_super_resolution_comparison",
    "ImputationResult",
    "run_imputation_comparison",
]


def match_conv_filters(full_cfg: ModelConfig, tolerance: float = 0.10) -> ModelConfig:
    """Conv-only config whose parameter count is within ``tolerance`` of
    the full model's, found by widening the filter cap. The counts come
    from the configs; no model is built."""
    full_cfg.validate()
    target = full_cfg.param_count()
    best = None
    best_diff = None
    # even caps only: subpixel(2) halves the filter count after each up block
    start = full_cfg.max_filters + full_cfg.max_filters % 2
    for max_filters in range(start, full_cfg.max_filters * 4 + 1, 2):
        cfg = replace(full_cfg, use_tfilm=False, max_filters=max_filters)
        diff = abs(cfg.param_count() - target) / target
        if best_diff is None or diff < best_diff:
            best, best_diff = cfg, diff
        if diff <= tolerance / 4:
            break
    if best_diff > tolerance:
        raise ValueError(
            f"could not parameter-match conv-only model: best diff {best_diff:.2%}"
        )
    return best


# --- super-resolution ---------------------------------------------------------


def make_sr_corpus(n_signals=64, length=8192, seed=0):
    """Seeded multisine corpus with slow amplitude modulation.

    Component frequencies stay inside the decimation passband for r=2
    (cutoff 0.2 cycles/sample) so the task is well-posed, with the upper
    band chosen where spline interpolation degrades.
    """
    root = np.random.default_rng(np.random.SeedSequence((seed, 0xC0)))
    signals = []
    for i in range(n_signals):
        n_comp = int(root.integers(3, 7))
        components = []
        for _ in range(n_comp):
            components.append({
                "freq": float(root.uniform(0.01, 0.19)),
                "amp": float(root.uniform(0.4, 1.0)),
                "am_freq": float(root.uniform(1e-4, 1e-3)),
                "am_depth": float(root.uniform(0.3, 0.7)),
            })
        spec = {"kind": "multisine", "length": length, "components": components}
        signals.append(synth_signal(spec, seed=int(root.integers(0, 2 ** 31))))
    return signals


@dataclass
class SuperResolutionResult:
    seed: int
    snr_full: float
    snr_conv: float
    snr_spline: float
    params_full: int
    params_conv: int
    runs: dict = field(default_factory=dict)


def _train_on_pairs(cfg, pairs, patch_length, stride, seed, epochs, lr, batch_size,
                    out_dir=None, min_delta=0.0):
    model = build_model(cfg, seed=seed)
    dataset = PatchDataset.concat(
        [make_patches(p, patch_length, stride) for p in pairs], seed)
    run = train(model, dataset, TrainConfig(
        epochs=epochs, lr=lr, batch_size=batch_size, seed=seed,
        out_dir=out_dir, restore_best=True, restore_best_min_delta=min_delta,
    ))
    return model, run


def run_super_resolution_comparison(
    seed: int,
    n_signals=64,
    length=8192,
    r=2,
    depth=2,
    max_filters=16,
    tfilm_blocks=32,
    patch_length=2048,
    epochs=50,
    lr=3e-4,
    batch_size=16,
    n_test=48,
    out_dir=None,
) -> SuperResolutionResult:
    """Train full and conv-only models on the same corpus and compare
    mean test SNR against the spline baseline."""
    signals = make_sr_corpus(n_signals, length, seed=seed)
    pairs = [make_pairs(s, r) for s in signals]
    train_pairs = pairs[:-n_test]
    test_pairs = pairs[-n_test:]

    full_cfg = ModelConfig(
        depth=depth, patch_length=patch_length, max_filters=max_filters,
        tfilm_blocks=tfilm_blocks, dropout_rate=0.5,
    )
    conv_cfg = match_conv_filters(full_cfg)

    result = SuperResolutionResult(seed, 0.0, 0.0, 0.0,
                                   full_cfg.param_count(), conv_cfg.param_count())
    stride = patch_length
    eval_pairs = [(x.samples, y.samples) for x, y in test_pairs]

    full_model, run_full = _train_on_pairs(
        full_cfg, train_pairs, patch_length, stride, seed, epochs, lr, batch_size,
        out_dir=f"{out_dir}/full" if out_dir else None)
    report_full = evaluate(full_model, eval_pairs, metrics=("snr",))
    result.snr_full = report_full.aggregates["model"]["snr"]
    result.snr_spline = report_full.aggregates["spline"]["snr"]
    result.runs["full"] = run_full

    conv_model, run_conv = _train_on_pairs(
        conv_cfg, train_pairs, patch_length, stride, seed, epochs, lr, batch_size,
        out_dir=f"{out_dir}/conv" if out_dir else None)
    report_conv = evaluate(conv_model, eval_pairs, metrics=("snr",))
    result.snr_conv = report_conv.aggregates["model"]["snr"]
    result.runs["conv"] = run_conv
    return result


# --- imputation ---------------------------------------------------------------


def spline_impute(masked, mask):
    """Replace the masked samples of a 1-D series with a natural cubic
    spline through the observed ones; observed samples pass through
    untouched, and so does a series with fewer than 2 observed."""
    out = np.array(masked, dtype=np.float64)
    obs = ~np.asarray(mask)
    if obs.sum() >= 2:
        idx = np.arange(out.size)
        out[~obs] = natural_cubic_spline(idx[obs], out[obs])(idx[~obs])
    return out


@dataclass
class ImputationResult:
    seed: int
    rate: float
    l2_full: float
    l2_conv: float
    l2_spline: float


def impute_input(masked, mask):
    """Model input for imputation: spline-filled series plus the mask
    indicator. The residual connection then makes the untrained model
    coincide with the spline baseline, and training learns a correction."""
    filled = spline_impute(masked, mask)
    return np.stack([filled, mask.astype(np.float64)], axis=1)


def _impute_l2(model, masked, mask, original):
    pred = model.infer(impute_input(masked, mask))
    return float(np.mean((pred - original) ** 2))


def run_imputation_comparison(
    seed: int,
    rates=(0.1, 0.2, 0.3),
    n_series=32,
    length=2048,
    step_std=0.02,
    depth=2,
    max_filters=16,
    tfilm_blocks=16,
    patch_length=512,
    epochs=30,
    lr=3e-4,
    batch_size=16,
    n_test=8,
) -> list[ImputationResult]:
    """Zero-out imputation protocol: train on masked-in/original-out
    pairs per rate, score held-out series by mean squared error."""
    root = np.random.default_rng(np.random.SeedSequence((seed, 0x1A)))
    series = [
        synth_signal({"kind": "random-walk", "length": length,
                      "step_std": step_std}, seed=int(root.integers(0, 2 ** 31)))
        for _ in range(n_series)
    ]
    train_series = series[:-n_test]
    test_series = series[-n_test:]

    full_cfg = ModelConfig(
        depth=depth, input_channels=2, patch_length=patch_length,
        max_filters=max_filters, tfilm_blocks=tfilm_blocks, dropout_rate=0.5,
    )
    conv_cfg = match_conv_filters(full_cfg)

    results = []
    for rate in rates:
        mask_seed = int(root.integers(0, 2 ** 31))
        masked_train = [
            zero_mask(s.samples[:, 0], rate, seed=mask_seed + i)
            for i, s in enumerate(train_series)
        ]
        pairs = [
            (impute_input(m, mk), s.samples[:, 0:1])
            for (m, mk), s in zip(masked_train, train_series)
        ]
        masked_test = [
            zero_mask(s.samples[:, 0], rate, seed=mask_seed + 10000 + i)
            for i, s in enumerate(test_series)
        ]

        models = {}
        for tag, cfg in (("full", full_cfg), ("conv", conv_cfg)):
            # a new best must improve validation loss by 2% relative:
            # random-walk series carry enough noise that tiny dips below
            # the spline-equivalent starting point are not real gains
            model, _ = _train_on_pairs(
                cfg, pairs, patch_length, patch_length, seed, epochs, lr, batch_size,
                min_delta=0.02)
            models[tag] = model

        l2 = {"full": [], "conv": [], "spline": []}
        for (masked, mask), s in zip(masked_test, test_series):
            original = s.samples[:, 0]
            l2["full"].append(_impute_l2(models["full"], masked, mask, original))
            l2["conv"].append(_impute_l2(models["conv"], masked, mask, original))
            filled = spline_impute(masked, mask)
            l2["spline"].append(float(np.mean((filled - original) ** 2)))
        results.append(ImputationResult(
            seed, rate,
            float(np.mean(l2["full"])),
            float(np.mean(l2["conv"])),
            float(np.mean(l2["spline"])),
        ))
    return results
