"""Temporal feature-wise linear modulation.

The layer splits (T, C) activations into T/B contiguous blocks, max-pools
each block down to one C-vector, runs an LSTM over the pooled block
sequence, projects each hidden state to a per-block affine pair
(gamma_b, beta_b), and applies gamma_b * F + beta_b within each block.

The projection is zero-initialized with gamma = 1 + projection, so a
freshly built layer is exactly the identity map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonDivisibleLength, ShapeMismatch
from .layers import LstmParams, init_lstm_params, lstm_scan
from .tensor import Tensor, no_grad

__all__ = [
    "TfilmLayerParams",
    "init_tfilm_params",
    "tfilm_forward",
    "tfilm_causality_probe",
]


@dataclass
class TfilmLayerParams:
    """One TFiLM layer: block length, LSTM normalizer and affine projection.

    The projection maps the LSTM output (width H, or 2H when
    bidirectional) to 2C values per block: the first C become gamma - 1,
    the last C become beta.
    """

    block_len: int
    channels: int
    lstm: LstmParams
    proj_w: Tensor  # (2C, H) or (2C, 2H)
    proj_b: Tensor  # (2C,)

    @property
    def bidirectional(self):
        return self.lstm.bidirectional

    def tensors(self):
        return self.lstm.tensors() + [self.proj_w, self.proj_b]


def init_tfilm_params(channels, block_len, rng, bidirectional=False):
    """LSTM hidden size equals the channel count; projection starts at zero.
    ``rng=None`` allocates the LSTM weights without drawing."""
    lstm = init_lstm_params(channels, channels, rng, bidirectional=bidirectional)
    h_out = 2 * channels if bidirectional else channels
    return TfilmLayerParams(
        block_len=block_len,
        channels=channels,
        lstm=lstm,
        proj_w=Tensor(np.zeros((2 * channels, h_out)), requires_grad=True),
        proj_b=Tensor(np.zeros(2 * channels), requires_grad=True),
    )


def _normalizers(blocks: Tensor, p: TfilmLayerParams):
    """Per-block (gamma, beta), each (N, num_blocks, C), from pooled blocks."""
    n, num_blocks, _, c = blocks.shape
    pooled = blocks.max(axis=2)                       # (N, nB, C)
    hidden = lstm_scan(pooled, p.lstm)                # (N, nB, H or 2H)
    h_out = hidden.shape[2]
    flat = hidden.reshape(n * num_blocks, h_out)
    proj = flat @ p.proj_w.transpose((1, 0))
    proj = proj + p.proj_b.reshape(1, -1).broadcast_to(proj.shape)
    proj = proj.reshape(n, num_blocks, 2 * c)
    gamma = proj[:, :, :c] + 1.0
    beta = proj[:, :, c:]
    return gamma, beta


def tfilm_forward(f: Tensor, p: TfilmLayerParams) -> Tensor:
    """Apply the layer to (T, C) or batched (N, T, C) activations."""
    squeeze = f.ndim == 2
    if squeeze:
        f = f.reshape(1, *f.shape)
    if f.ndim != 3:
        raise ShapeMismatch("tfilm_forward", f.shape, ("N", "T", "C"))
    n, t, c = f.shape
    if c != p.channels:
        raise ShapeMismatch("tfilm_forward", f.shape, ("N", "T", p.channels))
    b = p.block_len
    if b < 1 or t % b != 0:
        raise NonDivisibleLength(f"time dimension {t} not divisible by block length {b}")
    num_blocks = t // b

    blocks = f.reshape(n, num_blocks, b, c)
    gamma, beta = _normalizers(blocks, p)
    gamma = gamma.reshape(n, num_blocks, 1, c).broadcast_to(blocks.shape)
    beta = beta.reshape(n, num_blocks, 1, c).broadcast_to(blocks.shape)
    out = (gamma * blocks + beta).reshape(n, t, c)
    return out.reshape(t, c) if squeeze else out


def tfilm_causality_probe(f: Tensor, p: TfilmLayerParams, block_index: int,
                          delta: float = 0.5):
    """Perturb only block ``block_index`` and report the earliest output
    block that changes.

    With a unidirectional LSTM the recurrence is causal, so blocks before
    ``block_index`` stay bit-identical and the probe returns
    ``block_index``. With a bidirectional LSTM earlier blocks may change.
    Returns None if no output block is affected.
    """
    squeeze = f.ndim == 2
    data = f.data if not squeeze else f.data[None]
    n, t, c = data.shape
    b = p.block_len
    num_blocks = t // b
    if not 0 <= block_index < num_blocks:
        raise IndexError(f"block index {block_index} out of range 0..{num_blocks - 1}")

    perturbed = data.copy()
    perturbed[:, block_index * b:(block_index + 1) * b, :] += delta
    with no_grad():
        baseline = tfilm_forward(Tensor(data), p).data
        probed = tfilm_forward(Tensor(perturbed), p).data

    diff = (baseline != probed).reshape(n, num_blocks, b, c).any(axis=(0, 2, 3))
    affected = np.flatnonzero(diff)
    return int(affected[0]) if affected.size else None
