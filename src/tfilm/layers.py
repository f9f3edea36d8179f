"""1D neural-network building blocks: convolution, LSTM, subpixel
shuffle and dropout.

Inputs are batched (N, T, C) tensors throughout. Convolution uses the
cross-correlation convention (no kernel flip). Same-padding pads
(k_eff - 1) // 2 samples on the left and the remainder on the right,
with k_eff = (k - 1) * dilation + 1, which keeps output lengths at
ceil(T / stride).

Convolution is a sum of GEMMs over blocks of consecutive taps, read as
strided views of the padded input (the multi-GEMM form of Lavin & Gray
2016): no im2col buffer over all k taps is built, and the backward
keeps only the padded input and the weights. Conv weights are stored
tap-major (see :class:`Conv1dParams`), so each block's weights are a
view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    ChannelMismatch,
    ChannelsNotDivisible,
    InvalidRate,
    KernelLargerThanInput,
    ShapeMismatch,
)
from .tensor import Tensor, _sigmoid, concat

__all__ = [
    "Conv1dParams",
    "LstmParams",
    "conv1d",
    "lstm_step",
    "lstm_scan",
    "subpixel_shuffle",
    "dropout",
    "init_conv_params",
    "init_lstm_params",
]


# --- convolution --------------------------------------------------------------


@dataclass
class Conv1dParams:
    """Weights and geometry of one 1D convolution.

    weight has shape (out_channels, in_channels, kernel_len);
    bias has shape (out_channels,).

    The weight is the one exception to row-major tensor data: it is
    stored tap-major (Fortran order), so ``weight.data.T`` is a
    C-contiguous (kernel_len, in_channels, out_channels) array whose tap
    blocks are the (g*in_channels, out_channels) matrices conv1d's GEMMs
    read, and its gradient has the same layout. Only the memory order
    differs; shape, indexing and values are those of the row-major
    array. A weight rebound to a row-major array still works: conv1d
    copies it tap-major once per call.
    """

    weight: Tensor
    bias: Tensor
    stride: int = 1
    dilation: int = 1
    padding: str = "same"  # "same" | "valid"

    @property
    def out_channels(self):
        return self.weight.shape[0]

    @property
    def in_channels(self):
        return self.weight.shape[1]

    @property
    def kernel_len(self):
        return self.weight.shape[2]

    @property
    def effective_kernel(self):
        return (self.kernel_len - 1) * self.dilation + 1


# output channels per draw of init_conv_params: the draws follow the
# row-major order of (C_out, C_in, k), so each chunk's temporary is a
# slab of this many channels rather than a second whole weight
_INIT_CHUNK = 16


def init_conv_params(out_channels, in_channels, kernel_len, rng,
                     stride=1, dilation=1, padding="same", zero=False):
    """Uniform init scaled by 1/sqrt(fan-in); ``zero=True`` for identity-at-init
    output stages; ``rng=None`` allocates the weight without drawing (for
    loaders that fill it). The weight is tap-major (see
    :class:`Conv1dParams`) and holds the same values as one row-major
    ``rng.uniform`` draw of shape (C_out, C_in, k)."""
    shape = (kernel_len, in_channels, out_channels)
    w = (np.zeros(shape) if zero else np.empty(shape)).T
    if not zero and rng is not None:
        bound = 1.0 / math.sqrt(in_channels * kernel_len)
        for o0 in range(0, out_channels, _INIT_CHUNK):
            o1 = min(o0 + _INIT_CHUNK, out_channels)
            w[o0:o1] = rng.uniform(-bound, bound, size=(o1 - o0, in_channels, kernel_len))
    weight = Tensor(0.0, requires_grad=True)
    weight.data = w     # the constructor would copy it row-major
    return Conv1dParams(
        weight=weight,
        bias=Tensor(np.zeros(out_channels), requires_grad=True),
        stride=stride,
        dilation=dilation,
        padding=padding,
    )


# A block joins the fewest consecutive taps whose columns number at least
# _BLOCK_COLUMNS and hold at least _BLOCK_ELEMS values (N * T' * g * C_in).
# Measured on 2 cores with OpenBLAS 0.3.31, per forward (+ backward):
# - columns: the six conv layers of the SR model (N=16, T up to 2048) took
#   28-29 ms with 16, which gives one tap per GEMM from C_in = 16 up, and
#   41-46 ms with 32 or 64 (2- to 4-tap blocks): once C_in fills a GEMM's
#   inner dimension, joining taps only adds a copy. At C_in = 1 (k=65) one
#   tap per GEMM took 20 ms, 16-tap blocks 2 ms.
# - values: on short inputs a GEMM's call overhead outweighs its work; the
#   six conv layers of the imputation model (N=1, T up to 512) took 630-660
#   us with the column rule alone and 435 us with 16384, which leaves every
#   layer of the SR and paper-scale models at the column rule.
_BLOCK_COLUMNS = 16
_BLOCK_ELEMS = 16384


def conv1d(x: Tensor, p: Conv1dParams) -> Tensor:
    """Batched 1D cross-correlation with stride/dilation and same|valid padding.

    out = bias + sum over blocks of cols_blk @ W_blk. A block is g
    consecutive taps: its columns are the strided views
    ``xpad[:, j*d : j*d+span : stride, :]`` of its taps, joined along
    channels only when g > 1, and W_blk is its (g*C_in, C_out) slice of
    the weights, a view when the weight is tap-major. g is the fewest
    taps whose columns number at least 16 and hold at least 16384 values
    (``_BLOCK_COLUMNS``, ``_BLOCK_ELEMS``), at most k: in the SR and
    paper-scale models, 16-tap blocks at C_in = 1 and one tap per GEMM
    from C_in = 16 up; on short inputs, up to all k taps, which is
    im2col. The backward closure keeps only the padded input and the
    weights: it rebuilds each block's columns for dW_blk = cols^T g, and
    adds g W_blk^T into the gradient of the padded input at the taps'
    shifted strided slices. The weight gradient is tap-major.
    """
    if x.ndim != 3:
        raise ShapeMismatch("conv1d", x.shape, ("N", "T", "C"))
    n, t, c = x.shape
    if c != p.in_channels:
        raise ChannelMismatch(
            f"conv1d: input has {c} channels, params expect {p.in_channels}"
        )
    k = p.kernel_len
    k_eff = p.effective_kernel
    stride = p.stride
    if p.padding == "valid":
        if k_eff > t:
            raise KernelLargerThanInput(
                f"effective kernel {k_eff} exceeds input length {t}"
            )
        pad_l = pad_r = 0
        t_out = (t - k_eff) // stride + 1
    elif p.padding == "same":
        t_out = -(-t // stride)
        total = max(0, (t_out - 1) * stride + k_eff - t)
        pad_l = min((k_eff - 1) // 2, total)
        pad_r = total - pad_l
    else:
        raise ValueError(f"unknown padding mode {p.padding!r}")

    xpad = np.pad(x.data, ((0, 0), (pad_l, pad_r), (0, 0)))
    cout = p.out_channels
    dilation = p.dilation
    span = (t_out - 1) * stride + 1
    g = min(k, max(-(-_BLOCK_COLUMNS // c),
                   -(-_BLOCK_ELEMS // max(1, n * t_out * c))))
    blocks = [(j0, min(j0 + g, k)) for j0 in range(0, k, g)]

    # (N, T', k, C), a read-only view of xpad: taps[:, :, j] is
    # xpad[:, j*d : j*d+span : stride], the columns of tap j
    sn, st, sc = xpad.strides
    taps = as_strided(xpad, (n, t_out, k, c), (sn, stride * st, dilation * st, sc),
                      writeable=False)

    def block_cols(j0, j1):
        # (N, T', (j1-j0)*C): a view for one tap, a copy joining several
        return taps[:, :, j0:j1].reshape(n, t_out, (j1 - j0) * c)

    w, b = p.weight, p.bias
    # (k, C, C_out): a view of a tap-major weight, one copy of a row-major one
    wt = np.ascontiguousarray(w.data.T)

    def block_weights(j0, j1):
        # ((j1-j0)*C, C_out), rows in the order of the block's columns
        return wt[j0:j1].reshape((j1 - j0) * c, cout)

    out = np.empty((n, t_out, cout))
    out[...] = b.data
    for j0, j1 in blocks:
        out += block_cols(j0, j1) @ block_weights(j0, j1)

    def backward(g_out):
        g2 = g_out.reshape(n * t_out, cout)
        if b.requires_grad:
            b.accumulate_grad(g2.sum(axis=0))
        dw_taps = np.empty((k, c, cout)) if w.requires_grad else None
        dxpad = np.zeros_like(xpad) if x.requires_grad else None
        for j0, j1 in blocks:
            if dw_taps is not None:
                # one GEMM per batch item over T', summed: a single GEMM over
                # N*T' rows with only g*C x C_out outputs runs far slower
                cols = block_cols(j0, j1)
                dw = np.matmul(cols.transpose(0, 2, 1), g_out).sum(axis=0)
                dw_taps[j0:j1] = dw.reshape(j1 - j0, c, cout)
            if dxpad is not None:
                dcols = (g2 @ block_weights(j0, j1).T).reshape(n, t_out, j1 - j0, c)
                for i, j in enumerate(range(j0, j1)):
                    dxpad[:, j * dilation: j * dilation + span: stride] += dcols[:, :, i]
        if dw_taps is not None:
            w.accumulate_grad(dw_taps.T)    # tap-major, like the weight
        if dxpad is not None:
            x.accumulate_grad(dxpad[:, pad_l: xpad.shape[1] - pad_r or None, :])

    return Tensor._from_op(out, (x, w, b), backward)


# --- LSTM ---------------------------------------------------------------------


# the gate tensors of one LstmParams cell, in parameter and checkpoint order
_LSTM_TENSOR_NAMES = ("w_i", "w_f", "w_o", "w_g", "u_i", "u_f", "u_o", "u_g",
                      "b_i", "b_f", "b_o", "b_g")


@dataclass
class LstmParams:
    """Single-direction LSTM cell weights (gate order: input, forget, output, cell).

    ``reverse`` holds the weights of the backward scan when bidirectional.
    """

    input_size: int
    hidden_size: int
    w_i: Tensor
    w_f: Tensor
    w_o: Tensor
    w_g: Tensor
    u_i: Tensor
    u_f: Tensor
    u_o: Tensor
    u_g: Tensor
    b_i: Tensor
    b_f: Tensor
    b_o: Tensor
    b_g: Tensor
    reverse: Optional["LstmParams"] = None

    @property
    def bidirectional(self):
        return self.reverse is not None

    def named_tensors(self):
        """(name, tensor) pairs: the 12 gate tensors, then the reverse
        cell's under ``rev.``."""
        out = [(nm, getattr(self, nm)) for nm in _LSTM_TENSOR_NAMES]
        if self.reverse is not None:
            out += [(f"rev.{nm}", t) for nm, t in self.reverse.named_tensors()]
        return out

    def tensors(self):
        return [t for _, t in self.named_tensors()]


def _init_lstm_cell(input_size, hidden_size, rng):
    bound = 1.0 / math.sqrt(hidden_size)

    def draw(*shape):
        values = np.empty(shape) if rng is None else rng.uniform(-bound, bound, size=shape)
        return Tensor(values, requires_grad=True)

    p = LstmParams(
        input_size=input_size,
        hidden_size=hidden_size,
        w_i=draw(hidden_size, input_size), w_f=draw(hidden_size, input_size),
        w_o=draw(hidden_size, input_size), w_g=draw(hidden_size, input_size),
        u_i=draw(hidden_size, hidden_size), u_f=draw(hidden_size, hidden_size),
        u_o=draw(hidden_size, hidden_size), u_g=draw(hidden_size, hidden_size),
        b_i=draw(hidden_size), b_f=draw(hidden_size), b_o=draw(hidden_size),
        b_g=draw(hidden_size),
    )
    # forget-gate bias offset stabilizes early training
    p.b_f.data = p.b_f.data + 1.0
    return p


def init_lstm_params(input_size, hidden_size, rng, bidirectional=False):
    """Uniform init scaled by 1/sqrt(hidden_size); ``rng=None`` allocates
    the weights without drawing."""
    p = _init_lstm_cell(input_size, hidden_size, rng)
    if bidirectional:
        p.reverse = _init_lstm_cell(input_size, hidden_size, rng)
    return p


def _gate(x, h, w, u, b):
    n = x.shape[0]
    pre = x @ w.transpose((1, 0)) + h @ u.transpose((1, 0))
    return pre + b.reshape(1, -1).broadcast_to((n, b.shape[0]))


def lstm_step(x_t: Tensor, h: Tensor, c: Tensor, p: LstmParams):
    """One LSTM cell step on a batch: x_t (N, D), h and c (N, H).

    Returns (out, h', c') with out == h'. Built from elementary tape ops;
    :func:`lstm_scan` computes the same recurrence as one op per direction.
    """
    if x_t.ndim != 2 or x_t.shape[1] != p.input_size:
        raise ShapeMismatch("lstm_step", x_t.shape, ("N", p.input_size))
    if h.shape != (x_t.shape[0], p.hidden_size):
        raise ShapeMismatch("lstm_step", h.shape, (x_t.shape[0], p.hidden_size))
    i = _gate(x_t, h, p.w_i, p.u_i, p.b_i).sigmoid()
    f = _gate(x_t, h, p.w_f, p.u_f, p.b_f).sigmoid()
    o = _gate(x_t, h, p.w_o, p.u_o, p.b_o).sigmoid()
    g = _gate(x_t, h, p.w_g, p.u_g, p.b_g).tanh()
    c_new = f * c + i * g
    h_new = o * c_new.tanh()
    return h_new, h_new, c_new


def _scan_one_direction(xs: Tensor, p: LstmParams, reverse: bool) -> Tensor:
    """One direction of the scan as a single tape op.

    The gate tensors are stacked in gate order i, f, o, g into W (4H, D),
    U (4H, H) and b (4H): the input projection of all steps is one GEMM
    and each step adds one ``h @ U.T``. The backward runs BPTT in reverse
    step order into dpre (N, S, 4H), the gradient of the gate
    pre-activations, then forms dW, dU, db and dx with one GEMM or sum
    each over all steps.
    """
    n, steps, d = xs.shape
    hd = p.hidden_size
    ws = (p.w_i, p.w_f, p.w_o, p.w_g)
    us = (p.u_i, p.u_f, p.u_o, p.u_g)
    bs = (p.b_i, p.b_f, p.b_o, p.b_g)
    w = np.concatenate([t.data for t in ws])
    u = np.concatenate([t.data for t in us])
    b = np.concatenate([t.data for t in bs])
    x2 = xs.data.reshape(n * steps, d)
    xw = (x2 @ w.T + b).reshape(n, steps, 4 * hd)

    act = np.empty((n, steps, 4, hd))    # sigmoid of i, f, o; tanh of g
    c_all = np.empty((n, steps, hd))
    tanh_c = np.empty((n, steps, hd))
    out = np.empty((n, steps, hd))
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    h = np.zeros((n, hd))
    c = np.zeros((n, hd))
    for s in order:
        pre = (xw[:, s] + h @ u.T).reshape(n, 4, hd)
        a = act[:, s]
        a[:, :3] = _sigmoid(pre[:, :3])
        np.tanh(pre[:, 3], out=a[:, 3])
        c = a[:, 1] * c + a[:, 0] * a[:, 3]
        c_all[:, s] = c
        np.tanh(c, out=tanh_c[:, s])
        h = np.multiply(a[:, 2], tanh_c[:, s], out=out[:, s])

    def backward(grad):
        # state entering each step: zero before the first step of the scan
        h_prev = np.zeros_like(out)
        c_prev = np.zeros_like(c_all)
        if reverse:
            h_prev[:, :-1], c_prev[:, :-1] = out[:, 1:], c_all[:, 1:]
        else:
            h_prev[:, 1:], c_prev[:, 1:] = out[:, :-1], c_all[:, :-1]
        i, f, o, g = (act[:, :, k] for k in range(4))
        # dpre of i, f and g is dc times these factors, dpre of o is dh times
        # its factor; dc picks up dh * o * tanh'(c)
        local = np.stack([g, c_prev, tanh_c, i], axis=2)
        local[:, :, :3] *= act[:, :, :3] * (1.0 - act[:, :, :3])
        local[:, :, 3] *= 1.0 - g * g
        dc_dh = o * (1.0 - tanh_c * tanh_c)
        dpre = np.empty((n, steps, 4, hd))
        dh = np.zeros((n, hd))
        dc = np.zeros((n, hd))
        for s in reversed(order):
            dh = grad[:, s] + dh
            dc = dc + dh * dc_dh[:, s]
            dp = dpre[:, s]
            np.multiply(local[:, s], dc[:, None, :], out=dp)
            np.multiply(local[:, s, 2], dh, out=dp[:, 2])
            dc = dc * f[:, s]
            dh = dp.reshape(n, 4 * hd) @ u

        dpre2 = dpre.reshape(n * steps, 4 * hd)
        grads = (dpre2.T @ x2, dpre2.T @ h_prev.reshape(n * steps, hd),
                 dpre2.sum(axis=0))
        for tensors, stacked in zip((ws, us, bs), grads):
            for t, part in zip(tensors, np.split(stacked, 4)):
                if t.requires_grad:
                    t.accumulate_grad(part)
        if xs.requires_grad:
            xs.accumulate_grad((dpre2 @ w).reshape(n, steps, d))

    return Tensor._from_op(out, (xs,) + ws + us + bs, backward)


def lstm_scan(xs: Tensor, p: LstmParams) -> Tensor:
    """Run the LSTM over axis 1 of (N, S, D), starting from zero state.

    Returns (N, S, H), or (N, S, 2H) with forward/backward outputs
    concatenated when ``p.bidirectional``. Each direction is one tape
    node whose backward is hand-written BPTT, so the tape does not grow
    with S.
    """
    if xs.ndim != 3 or xs.shape[2] != p.input_size:
        raise ShapeMismatch("lstm_scan", xs.shape, ("N", "S", p.input_size))
    fwd = _scan_one_direction(xs, p, reverse=False)
    if not p.bidirectional:
        return fwd
    bwd = _scan_one_direction(xs, p.reverse, reverse=True)
    return concat([fwd, bwd], axis=2)


# --- rearrangement and dropout ------------------------------------------------


def subpixel_shuffle(x: Tensor, r: int) -> Tensor:
    """Trade channel depth for time: (N, T, C) -> (N, r*T, C/r).

    out[n, t*r + p, c] == x[n, t, c*r + p]; a bijective rearrangement.
    """
    if x.ndim != 3:
        raise ShapeMismatch("subpixel_shuffle", x.shape, ("N", "T", "C"))
    n, t, c = x.shape
    if r < 1 or c % r != 0:
        raise ChannelsNotDivisible(f"{c} channels not divisible by factor {r}")
    if r == 1:
        return x
    return x.reshape(n, t, c // r, r).transpose((0, 1, 3, 2)).reshape(n, t * r, c // r)


def dropout(x: Tensor, rate: float, rng=None, mode: str = "train") -> Tensor:
    """Inverted dropout: kept elements scaled by 1/(1-rate). Identity in eval mode."""
    if not 0.0 <= rate < 1.0:
        raise InvalidRate(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "eval" or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs a seeded generator")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * Tensor(mask)
