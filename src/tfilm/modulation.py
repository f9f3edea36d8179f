"""Temporal feature-wise linear modulation.

The layer splits (T, C) activations into T/B contiguous blocks, max-pools
each block down to one C-vector, runs an LSTM over the pooled block
sequence, projects each hidden state to a per-block affine pair
(gamma_b, beta_b), and applies gamma_b * F + beta_b within each block.

The projection is zero-initialized with gamma = 1 + projection, so a
freshly built layer is exactly the identity map.

On the tape the layer is three ops: the block max-pool, whose backward
takes each block's argmax; the LSTM scan (see :func:`tfilm.layers.lstm_scan`);
and the modulation, which projects the hidden states and applies the
affine map with per-block gamma and beta broadcast in place, never
materialized at the size of F. Its backward writes the one full-size
gradient F gets, and the pool's backward adds into it at the argmax.
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


def _block_max(f: Tensor, block_len: int) -> Tensor:
    """Max of each block of (N, T, C) activations, (N, T / B, C).

    The forward takes only the maxima. The argmax, where ties pick the
    earliest index, is taken in the backward, so an eval forward, which
    records no backward, never computes it. The backward adds the pooled
    gradient into ``f.grad`` at the argmax, in place. The pooled values
    reach the output only through :func:`_modulate`, whose backward runs
    first and leaves an array of this sweep in ``f.grad``, so no full-size
    zero array is written.
    """
    n, t, c = f.shape
    blocks = f.data.reshape(n, t // block_len, block_len, c)

    def backward(g):
        arg = np.argmax(blocks, axis=2)
        # where each pooled value sits in f: sample, time step, channel
        where = (np.arange(n)[:, None, None],
                 arg + np.arange(0, t, block_len)[:, None],
                 np.arange(c))
        f.grad[where] += g

    return Tensor._from_op(blocks.max(axis=2), (f,), backward)


def _modulate(f: Tensor, hidden: Tensor, p: TfilmLayerParams) -> Tensor:
    """gamma_b * F + beta_b within each block, as one tape node.

    (gamma - 1, beta) = hidden @ proj_w.T + proj_b per block. Neither
    gamma nor beta is broadcast to the size of ``f``; the backward sums
    the output gradient over each block for dgamma and dbeta.
    """
    n, t, c = f.shape
    num_blocks = t // p.block_len
    blocks = f.data.reshape(n, num_blocks, p.block_len, c)
    flat = hidden.data.reshape(n * num_blocks, hidden.shape[2])
    w = p.proj_w.data
    proj = (flat @ w.T + p.proj_b.data).reshape(n, num_blocks, 2 * c)
    gamma = proj[:, :, :c] + 1.0
    beta = proj[:, :, c:]
    out = blocks * gamma[:, :, None]
    out += beta[:, :, None]

    def backward(g):
        g = g.reshape(blocks.shape)
        # one full-size buffer: g * blocks for dgamma, then dblocks
        buf = np.multiply(g, blocks)
        dproj = np.concatenate([buf.sum(axis=2), g.sum(axis=2)], axis=2)
        dproj = dproj.reshape(n * num_blocks, 2 * c)
        if p.proj_w.requires_grad:
            p.proj_w.accumulate_grad(dproj.T @ flat)
        if p.proj_b.requires_grad:
            p.proj_b.accumulate_grad(dproj.sum(axis=0))
        if hidden.requires_grad:
            hidden.accumulate_grad((dproj @ w).reshape(hidden.shape))
        if f.requires_grad:
            np.multiply(g, gamma[:, :, None], out=buf)
            f.accumulate_grad(buf.reshape(n, t, c))

    return Tensor._from_op(out.reshape(n, t, c), (f, hidden, p.proj_w, p.proj_b),
                           backward)


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

    hidden = lstm_scan(_block_max(f, b), p.lstm)      # (N, nB, H or 2H)
    out = _modulate(f, hidden, p)
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
