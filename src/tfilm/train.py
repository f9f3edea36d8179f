"""MSE objective, ADAM optimizer, training loop and evaluation harness.

Training is deterministic under (config, seed): shuffling, dropout masks
and the validation split all derive from the one seed. A checkpoint is
written after every epoch plus a ``best.ckpt`` tracking the lowest
validation loss.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .dsp import lsd, snr
from .errors import EmptyDataset, NonFiniteLoss, ShapeMismatch
from .model import Model, save_checkpoint
from .tensor import Tensor

__all__ = [
    "mse_loss",
    "AdamState",
    "init_adam",
    "adam_step",
    "TrainConfig",
    "TrainRun",
    "train",
    "EvalReport",
    "evaluate",
]


def mse_loss(y_hat: Tensor, y: Tensor) -> Tensor:
    """Mean over all elements of the squared difference."""
    if y_hat.shape != y.shape:
        raise ShapeMismatch("mse_loss", y_hat.shape, y.shape)
    d = y_hat - y
    return (d * d).mean()


# --- ADAM ---------------------------------------------------------------------


@dataclass
class AdamState:
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def init_adam(params, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8) -> AdamState:
    return AdamState(
        lr=lr, beta1=beta1, beta2=beta2, eps=eps, t=0,
        m=[np.zeros_like(p.data) for p in params],
        v=[np.zeros_like(p.data) for p in params],
    )


def adam_step(params, grads, state: AdamState) -> AdamState:
    """Standard bias-corrected update; mutates parameter data and state.

    ``m``, ``v`` and ``p.data`` are updated in place, in the operation
    order of ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
    ``p = p - lr*m_hat / (sqrt(v_hat) + eps)``, so the result is bit-equal
    to that formula.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeMismatch("adam_step", (len(params),), (len(grads),))
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1 - b1 ** state.t, 1 - b2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeMismatch("adam_step", g.shape, p.data.shape)
        tmp = np.multiply(1 - b1, g)
        m *= b1
        m += tmp
        np.multiply(1 - b2, g, out=tmp)
        tmp *= g
        v *= b2
        v += tmp
        step = np.divide(m, c1)
        step *= state.lr
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += state.eps
        step /= tmp
        p.data -= step
    return state


# --- training loop ------------------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int = 50
    lr: float = 3e-4
    batch_size: int = 16
    seed: int = 0
    val_fraction: float = 0.1
    out_dir: str | None = None
    save_checkpoints: bool = True
    restore_best: bool = False
    # relative val-loss improvement required before a new best is recorded;
    # keeps noise-level dips from displacing the current best parameters
    restore_best_min_delta: float = 0.0


@dataclass
class TrainRun:
    """Record of one training session; serializes to JSON."""

    config: dict
    epoch_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)
    checkpoint_paths: list = field(default_factory=list)
    best_checkpoint: str | None = None
    best_val_loss: float = math.inf
    init_val_loss: float | None = None
    steps: int = 0
    aborted: bool = False

    def to_json(self):
        return json.dumps(asdict(self), indent=2)

    def save(self, path):
        Path(path).write_text(self.to_json())


def _val_split(n_patches, offsets, fraction):
    """Deterministic split by a multiplicative hash of (index, offset)."""
    val = []
    for i in range(n_patches):
        offset = offsets[i] if i < len(offsets) else i
        key = ((i * 1000003 + offset) * 2654435761) % (2 ** 32)
        val.append(key / 2 ** 32 < fraction)
    return np.asarray(val, dtype=bool)


def train(model: Model, dataset, cfg: TrainConfig) -> TrainRun:
    """Train with per-epoch shuffling and checkpointing.

    Raises NonFiniteLoss as soon as a batch loss stops being finite; any
    checkpoints already written stay on disk and the partial history is
    attached to the exception as ``.run``.
    """
    if len(dataset) == 0:
        raise EmptyDataset("no patches to train on")
    run = TrainRun(config={**asdict(cfg), "model_seed": model.seed,
                           "model": model.cfg.to_dict()})
    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    is_val = _val_split(len(dataset), dataset.offsets, cfg.val_fraction)
    train_idx = np.flatnonzero(~is_val)
    val_idx = np.flatnonzero(is_val)
    if train_idx.size == 0:
        train_idx = np.arange(len(dataset))
        val_idx = np.array([], dtype=int)

    params = model.params()
    state = init_adam(params, lr=cfg.lr)
    step = 0
    best_params = None

    def batch_tensors(indices):
        xs = np.stack([dataset.pairs[i][0] for i in indices])
        ys = np.stack([dataset.pairs[i][1] for i in indices])
        return Tensor(xs), Tensor(ys[:, :, 0:1] if ys.ndim == 3 else ys)

    if cfg.restore_best and val_idx.size:
        # the untrained model is a candidate too (it may be an exact
        # identity on the residual path)
        x, y = batch_tensors(val_idx)
        run.init_val_loss = mse_loss(model.forward(x, mode="eval"), y).item()
        run.best_val_loss = run.init_val_loss
        best_params = [p.data.copy(order="K") for p in params]

    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = train_idx.copy()
        np.random.default_rng((cfg.seed, epoch)).shuffle(order)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, order.size, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            x, y = batch_tensors(idx)
            model.zero_grads()
            pred = model.forward(x, mode="train", dropout_seed=cfg.seed, step=step)
            loss = mse_loss(pred, y)
            value = loss.item()
            if not math.isfinite(value):
                run.aborted = True
                exc = NonFiniteLoss(f"loss became {value} at step {step}")
                exc.run = run
                raise exc
            loss.backward()
            adam_step(params, [p.grad for p in params], state)
            epoch_loss += value
            n_batches += 1
            step += 1
        run.steps = step
        run.epoch_losses.append(epoch_loss / max(n_batches, 1))

        if val_idx.size:
            x, y = batch_tensors(val_idx)
            val_loss = mse_loss(model.forward(x, mode="eval"), y).item()
        else:
            val_loss = run.epoch_losses[-1]
        run.val_losses.append(val_loss)
        run.epoch_seconds.append(time.perf_counter() - t0)

        improved = val_loss < run.best_val_loss * (1.0 - cfg.restore_best_min_delta)
        if improved:
            run.best_val_loss = val_loss
            if cfg.restore_best:
                best_params = [p.data.copy(order="K") for p in params]
        if out_dir and cfg.save_checkpoints:
            path = out_dir / f"epoch_{epoch:03d}.ckpt"
            save_checkpoint(path, model)
            run.checkpoint_paths.append(str(path))
            if improved:
                best = out_dir / "best.ckpt"
                save_checkpoint(best, model)
                run.best_checkpoint = str(best)

    if cfg.restore_best and best_params is not None:
        # the copies kept each array's memory order: conv weights stay tap-major
        for p, data in zip(params, best_params):
            p.data = data

    if out_dir:
        run.save(out_dir / "train_run.json")
    return run


# --- evaluation ---------------------------------------------------------------


@dataclass
class EvalReport:
    """Per-pair and aggregate metrics for a model next to the spline
    baseline (the model-free column: the pre-upscaled input itself)."""

    metrics: tuple
    rows: list = field(default_factory=list)   # dicts: {column: {metric: value}}
    aggregates: dict = field(default_factory=dict)
    excluded_infinite: int = 0

    def format_table(self):
        cols = ["spline", "model"]
        lines = ["pair  " + "  ".join(f"{c}.{m:<6}" for c in cols for m in self.metrics)]
        for i, row in enumerate(self.rows):
            vals = [row[c][m] for c in cols for m in self.metrics]
            lines.append(f"{i:<4}  " + "  ".join(f"{v:12.5f}" for v in vals))
        lines.append(
            "mean  " + "  ".join(
                f"{self.aggregates[c][m]:12.5f}" for c in cols for m in self.metrics
            )
        )
        if self.excluded_infinite:
            lines.append(f"(excluded {self.excluded_infinite} infinite SNR values)")
        return "\n".join(lines)

    def to_csv(self, path):
        import csv as _csv
        cols = ["spline", "model"]
        with open(path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["pair"] + [f"{c}_{m}" for c in cols for m in self.metrics])
            for i, row in enumerate(self.rows):
                writer.writerow([i] + [row[c][m] for c in cols for m in self.metrics])
            writer.writerow(
                ["mean"] + [self.aggregates[c][m] for c in cols for m in self.metrics]
            )


def _metric(name, approx, reference, lsd_frame):
    if name == "snr":
        return snr(approx, reference)
    if name == "lsd":
        return lsd(approx, reference, frame_length=lsd_frame)
    if name == "l2":
        return float(np.mean((np.asarray(approx) - np.asarray(reference)) ** 2))
    raise ValueError(f"unknown metric {name!r}")


def evaluate(model: Model | None, pairs, metrics=("snr", "lsd", "l2"),
             lsd_frame: int = 8192) -> EvalReport:
    """Score model outputs and the spline baseline against the targets.

    ``pairs`` is a list of (x, y) arrays or SignalAssets where x is the
    model input (already spline-expanded), predicted through
    :meth:`Model.infer`, so any length works. Infinite SNR values are
    excluded from the aggregate, with a count reported.
    """
    report = EvalReport(metrics=tuple(metrics))
    sums = {c: {m: 0.0 for m in metrics} for c in ("spline", "model")}
    counts = {c: {m: 0 for m in metrics} for c in ("spline", "model")}
    for x, y in pairs:
        xa = x.samples if hasattr(x, "samples") else np.asarray(x, dtype=np.float64)
        ya = y.samples if hasattr(y, "samples") else np.asarray(y, dtype=np.float64)
        if xa.ndim == 1:
            xa = xa[:, None]
        if ya.ndim == 1:
            ya = ya[:, None]
        target = ya[:, 0]
        pred = model.infer(xa) if model is not None else xa[:, 0]
        row = {}
        for col, approx in (("spline", xa[:, 0]), ("model", pred)):
            row[col] = {}
            for m in metrics:
                v = _metric(m, approx, target, lsd_frame)
                row[col][m] = v
                if math.isinf(v):
                    report.excluded_infinite += 1
                else:
                    sums[col][m] += v
                    counts[col][m] += 1
        report.rows.append(row)
    report.aggregates = {
        c: {m: (sums[c][m] / counts[c][m]) if counts[c][m] else math.inf
            for m in metrics}
        for c in ("spline", "model")
    }
    return report
