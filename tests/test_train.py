"""Loss, optimizer, training loop determinism and evaluation."""

import json
import math

import numpy as np
import pytest

from tfilm.data import PatchDataset
from tfilm.errors import EmptyDataset, NonFiniteLoss, ShapeMismatch
from tfilm.model import ModelConfig, build_model, load_checkpoint
from tfilm.tensor import Tensor
from tfilm.train import (
    TrainConfig,
    adam_step,
    evaluate,
    init_adam,
    mse_loss,
    train,
)

MINI = ModelConfig(depth=2, patch_length=64, max_filters=8, tfilm_blocks=4,
                   dropout_rate=0.5)


def _dataset(n=12, t=64, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        y = rng.normal(size=(t, 1))
        x = y + rng.normal(size=(t, 1)) * 0.1
        pairs.append((x, y))
    return PatchDataset(pairs, t, t, list(range(0, n * t, t)), seed)


def test_mse_loss_value_and_shape_check():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.zeros((2, 3)))
    assert mse_loss(a, b).item() == 1.0
    with pytest.raises(ShapeMismatch):
        mse_loss(a, Tensor(np.zeros((3, 2))))


def test_adam_single_step_reference():
    p = Tensor(np.array([1.0]), requires_grad=True)
    g = np.array([0.5])
    state = init_adam([p], lr=0.1)
    adam_step([p], [g], state)
    # bias-corrected first step moves by ~lr against the gradient sign
    expected = 1.0 - 0.1 * 0.5 / (0.5 + 1e-8)
    np.testing.assert_allclose(p.data, [expected])
    assert state.t == 1


def test_adam_in_place_is_bit_equal_to_the_formula():
    rng = np.random.default_rng(0)
    p = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    data = p.data
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    state = init_adam([p], lr=lr, beta1=b1, beta2=b2, eps=eps)
    ref_p, m, v = p.data.copy(), np.zeros((4, 5)), np.zeros((4, 5))
    for t in range(1, 4):
        g = rng.normal(size=(4, 5))
        adam_step([p], [g], state)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        ref_p = ref_p - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.array_equal(p.data, ref_p)
        assert np.array_equal(state.m[0], m) and np.array_equal(state.v[0], v)
    assert p.data is data


def test_adam_shape_mismatch():
    p = Tensor(np.zeros(3), requires_grad=True)
    state = init_adam([p])
    with pytest.raises(ShapeMismatch):
        adam_step([p], [np.zeros(4)], state)


def test_train_reduces_loss():
    model = build_model(MINI, seed=0)
    run = train(model, _dataset(), TrainConfig(epochs=8, lr=1e-3, batch_size=4,
                                               seed=0, save_checkpoints=False))
    assert run.epoch_losses[-1] < run.epoch_losses[0]
    assert run.steps > 0 and len(run.epoch_losses) == 8


def test_train_deterministic_given_seed():
    h1 = train(build_model(MINI, seed=1), _dataset(),
               TrainConfig(epochs=3, seed=4, save_checkpoints=False))
    h2 = train(build_model(MINI, seed=1), _dataset(),
               TrainConfig(epochs=3, seed=4, save_checkpoints=False))
    assert h1.epoch_losses == h2.epoch_losses
    assert h1.val_losses == h2.val_losses


def test_train_seed_changes_history():
    h1 = train(build_model(MINI, seed=1), _dataset(),
               TrainConfig(epochs=2, seed=4, save_checkpoints=False))
    h2 = train(build_model(MINI, seed=1), _dataset(),
               TrainConfig(epochs=2, seed=5, save_checkpoints=False))
    assert h1.epoch_losses != h2.epoch_losses


def test_train_empty_dataset():
    with pytest.raises(EmptyDataset):
        train(build_model(MINI, seed=0),
              PatchDataset([], 64, 64, [], 0), TrainConfig(epochs=1))


def test_train_nonfinite_loss_attaches_run():
    model = build_model(MINI, seed=0)
    model.final.conv.weight.data[:] = 1e200  # force overflow
    with pytest.raises(NonFiniteLoss) as info, np.errstate(all="ignore"):
        train(model, _dataset(), TrainConfig(epochs=1, save_checkpoints=False))
    assert info.value.run.aborted


def test_train_writes_artifacts(tmp_path):
    model = build_model(MINI, seed=0)
    run = train(model, _dataset(), TrainConfig(
        epochs=2, seed=0, out_dir=str(tmp_path)))
    assert (tmp_path / "train_run.json").exists()
    assert (tmp_path / "epoch_000.ckpt").exists()
    assert run.best_checkpoint is not None
    loaded = load_checkpoint(run.best_checkpoint)
    assert loaded.cfg == MINI
    record = json.loads((tmp_path / "train_run.json").read_text())
    assert record["epoch_losses"] == run.epoch_losses


def test_restore_best_never_worse_than_init():
    # huge lr wrecks training; restore_best must fall back to the identity
    model = build_model(MINI, seed=0)
    ds = _dataset()
    cfg = TrainConfig(epochs=3, lr=10.0, seed=0, save_checkpoints=False,
                      restore_best=True)
    run = train(model, ds, cfg)
    x = Tensor(np.stack([p[0] for p in ds.pairs]))
    y = Tensor(np.stack([p[1] for p in ds.pairs]))
    final = mse_loss(model.forward(x, mode="eval"), y).item()
    assert final <= run.init_val_loss * 1.2


def test_evaluate_identity_model_matches_spline_column():
    model = build_model(MINI, seed=0)  # exact identity at init
    rng = np.random.default_rng(0)
    pairs = [(rng.normal(size=(64, 1)), rng.normal(size=(64, 1)))
             for _ in range(3)]
    report = evaluate(model, pairs, metrics=("snr", "l2"), lsd_frame=64)
    for row in report.rows:
        assert row["model"]["snr"] == row["spline"]["snr"]
        assert row["model"]["l2"] == row["spline"]["l2"]


def test_evaluate_runs_lengths_the_forward_would_reject():
    # 300 is no multiple of MINI's length unit (16): infer pads and crops
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(300, 1)), rng.normal(size=(300, 1))
    report = evaluate(build_model(MINI, seed=0), [(x, y)], metrics=("snr", "l2"))
    assert report.rows[0]["model"] == report.rows[0]["spline"]


def test_evaluate_excludes_infinite_snr():
    x = np.ones((32, 1))
    report = evaluate(None, [(x, x.copy())], metrics=("snr",), lsd_frame=32)
    assert report.excluded_infinite == 2
    assert math.isinf(report.aggregates["model"]["snr"])


def test_evaluate_csv_and_table(tmp_path):
    rng = np.random.default_rng(1)
    pairs = [(rng.normal(size=(64, 1)), rng.normal(size=(64, 1)))]
    report = evaluate(None, pairs, metrics=("l2",))
    table = report.format_table()
    assert "spline" in table and "model" in table
    out = tmp_path / "r.csv"
    report.to_csv(out)
    assert out.read_text().startswith("pair,")
