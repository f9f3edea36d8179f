"""1D neural-network building blocks: convolution, LSTM, subpixel
shuffle and dropout.

Inputs are batched (N, T, C) tensors throughout. Convolution uses the
cross-correlation convention (no kernel flip). Same-padding pads
(k_eff - 1) // 2 samples on the left and the remainder on the right,
with k_eff = (k - 1) * dilation + 1, which keeps output lengths at
ceil(T / stride).

Convolution runs over tiles of L consecutive outputs. Each tile is a
sum of a few GEMMs between zero-copy rows of the padded input and
blocks of the banded (block-Toeplitz) weight matrix, with the N items
of a batch in one row space (see :func:`conv1d`). Wide inputs take
L = 1, where the blocks are the taps themselves (the multi-GEMM form of
Lavin & Gray 2016). No im2col buffer is built, and the backward keeps
only the padded input. Conv weights are stored tap-major (see
:class:`Conv1dParams`), so each tap's weights are a view.

Long kernels (k >= 33) over long inputs at L = 1 run their forward in
the frequency domain instead (overlap-save, as in Mathieu, Henaff &
LeCun 2014): per DFT bin one GEMM over all input channels, with the
DFTs themselves as GEMMs against cos/sin matrices. The backward is the
direct one either way.
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
    C-contiguous (kernel_len, in_channels, out_channels) array whose taps
    are the (in_channels, out_channels) matrices that conv1d's GEMMs read
    at L = 1 and that its Toeplitz blocks are built from, and its
    gradient has the same layout. Only the memory order
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


# Outputs per tile: the largest power of two L with L*s*C_in (the GEMM's
# inner dimension) at most _TILE_COLUMNS, L at most _TILE_MAX, and at
# least _TILE_ROWS GEMM rows (N*T'/L) left. So L = 1 from C_in = 65 on
# (33 at stride 2 and odd dilation), which is every layer of the
# paper-scale model after down1. Measured on 2 cores with OpenBLAS
# 0.3.31, forward + backward per layer of the SR model (N=16, patch 2048),
# in ms, with the L these constants give in brackets:
# - C_in 1, k 65, T' 1024: 15.0 at L=2, 5.1 at 8, 3.6 at 32, 4.0 at 64,
#   7.2 at 128 (32): past 32 the band's zeros cost more than the wider
#   GEMM saves. The paper-scale first layer (N=1, T' 4096, forward only)
#   took 72.3 at L=1, 3.5 at 16, 2.6 at 32, 3.2 at 64 and 8.8 at 128.
# - C_in 16, k 33: 10.2 / 6.9 / 6.1 / 6.6 / 7.9 at L = 2 / 4 / 8 / 16 / 32
#   (8); stride 2 at dilation 1, k 9: 1.9 / 1.7 / 2.3 at L = 2 / 4 / 8 (4).
# - C_in 24, k 65: 25.3 / 19.0 / 16.0 / 15.0 at L = 2 / 4 / 8 / 16 (4).
# - L that are not powers of two ran slower than both neighbours
#   (C_in 16: 7.5 at L=10, 6.7 at 12).
# The whole SR training step (forward + backward, median of 15) took
# 69 ms with these constants, 67 ms with 192 columns (L = 8 at C_in 24,
# but L = 2 from C_in 65 to 96), 71 ms with 256 columns or with L up to
# 64, and 79 ms with 64 columns. On short inputs a GEMM's call overhead
# dominates: the imputation model's layers (N=1, T' 64-512, forward)
# ran fastest with 32-128 rows per GEMM.
_TILE_COLUMNS = 128
_TILE_MAX = 32
_TILE_ROWS = 64


def _tile_len(cols, rows):
    """Outputs per tile for ``cols`` = s*C_in buffer columns per output and
    ``rows`` = N*T' outputs."""
    tile = 1
    while (2 * tile * cols <= _TILE_COLUMNS and 2 * tile <= _TILE_MAX
           and rows >= 2 * tile * _TILE_ROWS):
        tile *= 2
    return tile


# The frequency path (see _freq_conv) takes the buffer reads at stride 1
# and dilation 1 at L = 1 with k >= _FREQ_MIN_KERNEL and
# T' >= _FREQ_MIN_SPAN * P outputs per item. It transforms the weight
# _FREQ_CHANNELS input channels at a time and the segments _FREQ_GROUP
# outputs at a time, so no temporary grows with T'. Measured on 2 cores
# with OpenBLAS 0.3.31, one eval forward of a layer at N=1, min of 3-15,
# direct GEMMs -> frequency path in ms:
# - k 65, C 512 -> 256 (P 128; up4 of the paper-scale model at T' 2048):
#   T' 128: 34 -> 53, 256: 62 -> 52, 512: 153 -> 70, 1024: 229 -> 86,
#   2048: 429 -> 126.
# - k 33, C 768 -> 512 (P 64; up3 at T' 1024): T' 64: 23 -> 45,
#   128: 42 -> 63, 256: 69 -> 63, 512: 140 -> 78, 1024: 270 -> 119.
# - k 33, C 128 -> 256 (P 64; down2 on its kept samples at T' 2048):
#   T' 128: 5.3 -> 4.9, 256: 9.6 -> 8.6, 512: 17 -> 10, 1024: 29 -> 15,
#   2048: 71 -> 35. At C 80 -> 80: T' 128: 1.0 -> 1.1, 256: 2.0 -> 1.6.
# - k 17 (P 32), medians of 9, C 768 -> 512: T' 128: 25 -> 31,
#   256: 46 -> 38, 512 (up2): 90 -> 64; C 256 -> 512 at T' 1024 (down3):
#   61 -> 35. k 9 (P 16) lost at every layer that has it (0.6-0.9x).
# So k 33 and 65 lose at T' <= 2P and win from 4P on; k 17 wins only
# from 8P on, so one threshold in units of P would not cover it, and it
# stays on the taps. Chunks of 32, 64, 128 and 256 input channels took
# 157 / 130 / 135 / 130 ms at up4 and 169 / 153 / 139 / 155 ms at up3
# (repeats spread by about 10%). Groups of 512, 1024 and 2048 outputs
# took 251 / 170 / 135 ms at up4 (medians of 7): each group
# re-transforms the weight, and a group's Z grows with it.
_FREQ_MIN_KERNEL = 33
_FREQ_MIN_SPAN = 4
_FREQ_CHANNELS = 64
_FREQ_GROUP = 2048


def _freq_segment_len(k, tile, s, d, t_out):
    """Padded segment length P of the frequency path, or 0 where the
    direct GEMMs run: P = 2^ceil(log2(2k - 2)), so that each segment gives
    B = P - k + 1 >= P/2 outputs."""
    if tile != 1 or s != 1 or d != 1 or k < _FREQ_MIN_KERNEL:
        return 0
    seg = 1 << (2 * k - 3).bit_length()
    return seg if t_out >= _FREQ_MIN_SPAN * seg else 0


def _dft_matrices(seg, k):
    """Real-DFT matrices for segments of ``seg`` samples and ``k`` taps,
    over the F = seg/2 + 1 bins f of cos and -sin of 2*pi*f*m/seg:

    - ``fwd`` (2F, seg): rows [Re; Im] of the DFT of a segment;
    - ``taps`` (2F, k): rows (f, Re/Im) of the DFT of the taps;
    - ``inv`` (B, 2F): the first B = seg - k + 1 samples of the inverse
      DFT of a spectrum stored as rows (f, Re/Im).
    """
    bins = np.arange(seg // 2 + 1)[:, None]

    def cos_sin(m):
        # the angle's index reduced mod seg first, for exact periodicity
        angle = (2 * np.pi / seg) * ((bins * m) % seg)
        return np.cos(angle), -np.sin(angle)

    c, s = cos_sin(np.arange(seg))
    fwd = np.concatenate([c, s])
    taps = np.stack(cos_sin(np.arange(k)), axis=1).reshape(-1, k)
    # bins 0 and seg/2 count once, the others twice (with their mirrors)
    scale = np.full((len(bins), 1), 2.0 / seg)
    scale[[0, -1]] = 1.0 / seg
    c, s = cos_sin(np.arange(seg - k + 1))
    inv = np.stack([scale * c, scale * s], axis=1).reshape(-1, seg - k + 1).T.copy()
    return fwd, taps, inv


def _freq_conv(buf, wt, t_out, seg):
    """y[i, t] = sum_j buf[i, t + j] @ wt[j] for t < t_out, by overlap-save.

    ``buf`` is the (N, T_b, C) padded input with T_b >= t_out + k - 1 and
    ``wt`` the (k, C, C_out) taps. Segment g of an item is its padded
    samples [g*B, g*B + seg), whose circular cross-correlation with the
    taps is exact at its first B = seg - k + 1 outputs. Per bin f, with
    X = Xr + i*Xi the segments' spectra and W = Wr + i*Wi the taps',
    Z = X * conj(W) is one real GEMM::

        [Zr; Zi] = [[Xr, Xi], [Xi, -Xr]] @ [Wr; Wi]

    All three transforms are GEMMs with cos/sin matrices: the weight
    has k nonzero taps in seg samples and the segments are short, where a
    GEMM outruns np.fft. The segments go in groups of _FREQ_GROUP outputs
    and the channels in chunks of _FREQ_CHANNELS whose taps are
    re-transformed per group, so that no temporary grows with T'.
    """
    n, t_b, c = buf.shape
    k, _, cout = wt.shape
    blen = seg - k + 1
    bins = seg // 2 + 1
    fwd, taps, inv = _dft_matrices(seg, k)
    n_seg = -(-t_out // blen)
    per_group = min(n_seg, max(1, _FREQ_GROUP // blen))
    chunk = min(c, _FREQ_CHANNELS)
    isz = buf.itemsize
    out = np.empty((n, t_out, cout))
    # flat scratch, sized for the largest group and chunk and reused:
    # views of its prefixes hold each group's Z and the product of one
    # chunk that is added to it, each chunk's spectra and its taps'
    zbuf = np.empty(2 * bins * 2 * per_group * cout)
    xbuf = np.empty(bins * 4 * per_group * chunk)
    wbuf = np.empty(2 * bins * chunk * cout)
    for i in range(n):
        item = buf[i]
        segs = as_strided(item, (n_seg, seg, c), (blen * c * isz, c * isz, isz))
        for g0 in range(0, n_seg, per_group):
            g1 = min(g0 + per_group, n_seg)
            g = g1 - g0
            # the last segment may run past the buffer: its DFT reads
            # only the rows there are, as if the rest were zeros
            full = g1 if (g1 - 1) * blen + seg <= t_b else g1 - 1
            tail = item[full * blen:]
            z, prod = zbuf[:2 * bins * 2 * g * cout].reshape(2, bins, 2 * g, cout)
            for c0 in range(0, c, chunk):
                w = min(chunk, c - c0)
                # (bins, [Re-row, Im-row], g, [Re, Im], w): each bin's
                # [[Xr, Xi], [Xi, -Xr]]
                xs = xbuf[:bins * 4 * g * w].reshape(bins, 2, g, 2, w)
                for part, rows in ((0, fwd[:bins]), (1, fwd[bins:])):
                    dst = xs[:, 0, :, part].transpose(1, 0, 2)
                    np.matmul(rows, segs[g0:full, :, c0:c0 + w], out=dst[:full - g0])
                    if full < g1:
                        np.matmul(rows[:, :len(tail)], tail[:, c0:c0 + w], out=dst[-1])
                xs[:, 1, :, 0] = xs[:, 0, :, 1]
                np.negative(xs[:, 0, :, 0], out=xs[:, 1, :, 1])
                ws = wbuf[:2 * bins * w * cout].reshape(2 * bins, w * cout)
                np.matmul(taps, wt[:, c0:c0 + w].reshape(k, w * cout), out=ws)
                np.matmul(xs.reshape(bins, 2 * g, 2 * w), ws.reshape(bins, 2 * w, cout),
                          out=prod if c0 else z)
                if c0:
                    z += prod
            # (g, 2F, C_out) view of Z, whose rows are (f, Re/Im)
            zs = z.reshape(2 * bins, g, cout).transpose(1, 0, 2)
            t0, t1 = g0 * blen, min(g1 * blen, t_out)
            whole = (t1 - t0) // blen
            np.matmul(inv, zs[:whole], out=out[i, t0:t0 + whole * blen].reshape(whole, blen, cout))
            if whole < g:
                out[i, t0 + whole * blen:t1] = inv[:t1 - t0 - whole * blen] @ zs[whole]
    return out


def conv1d(x: Tensor, p: Conv1dParams) -> Tensor:
    """Batched 1D cross-correlation with stride/dilation and same|valid padding.

    The output is cut into tiles of L consecutive outputs. The padded
    input is one (N, T_b, C) buffer, and its rows of L*s consecutive
    samples form a zero-copy (rows, L*s*C) matrix X, the N items one
    after the other in one row space. Output tile i is the sum over m of
    X[i + m] @ T_m, where T_m is the (L*s*C, L*C_out) block m of the
    banded Toeplitz matrix of the weights; there are
    M = ceil(((L-1)*s + k_eff) / (L*s)) of them, so a layer takes M
    two-dimensional GEMMs over all items instead of k thin ones. The zero
    padding at the end of each item keeps the items apart: the tiles that
    straddle two items are computed and dropped.

    L follows C_in and N * T' (see ``_tile_len``): the largest power of
    two up to 32 with L*s*C_in at most 128 columns that leaves at least
    64 GEMM rows. From C_in = 65 on L = 1, where the blocks are the k
    taps themselves: one GEMM per tap, reading a view of the tap-major
    weight and strided rows of the buffer, with no weight copy.

    When d % s == 0 (the stride-2, dilation-2 down convs) every tap reads
    only every s-th padded sample, so the buffer keeps only those and the
    conv runs at stride 1 and dilation d/s.

    Where the buffer is read at stride 1 and dilation 1 at L = 1, with
    k >= 33 and T' >= 4P per item (P = 2^ceil(log2(2k - 2)); see
    ``_freq_segment_len``), the forward runs by overlap-save in the
    frequency domain instead (see ``_freq_conv``). Its per-bin products
    take about 4*C_in*C_out multiply-adds per output, against k*C_in*C_out
    for the taps, and the transforms about P*(k*C_in*C_out/2048 + 2*C_in
    + C_out), the first term for the weight's, redone per 2048 outputs:
    1.8-3.3x faster at the paper-scale model's down2, up3 and up4, slower
    on short inputs or kernels (the sweep is beside ``_FREQ_MIN_KERNEL``).
    The choice follows the geometry alone, never the grad mode, so train
    and eval forwards stay bit-equal.

    The backward closure keeps the buffer and rebuilds the blocks. The
    input gradient is G @ T_m^T, overlap-added at each tile shift;
    dT_m = X[. + m]^T G, and the weight gradient sums the diagonals of
    the band that the dT_m form. It is tap-major, like the weight.
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
        pad_l = 0
        t_out = (t - k_eff) // stride + 1
    elif p.padding == "same":
        t_out = -(-t // stride)
        total = max(0, (t_out - 1) * stride + k_eff - t)
        pad_l = min((k_eff - 1) // 2, total)
    else:
        raise ValueError(f"unknown padding mode {p.padding!r}")

    cout = p.out_channels
    # keep every sub-th padded sample; s and d are then the buffer's
    sub = stride if p.dilation % stride == 0 else 1
    s, d = stride // sub, p.dilation // sub
    tile = _tile_len(s * c, n * t_out)
    step = tile * s                     # buffer samples per tile
    if tile == 1:                       # a block per tap
        width = 1
        offsets = range(0, k * d, d)
    else:
        width = step
        offsets = range(0, (tile - 1) * s + (k - 1) * d + 1, width)
    n_tiles = -(-t_out // tile)
    first = -(-pad_l // sub)            # buffer index of the first kept sample
    x0 = first * sub - pad_l            # and its index in x
    kept = len(range(x0, t, sub))
    # tiles per item: its n_tiles, then the ones that straddle into the next
    per_item = max(n_tiles - 1 + -(-(offsets[-1] + width) // step),
                   -(-(first + kept) // step))
    rows = max(0, (n - 1) * per_item + n_tiles)
    buf = np.zeros((n, per_item * step, c))
    buf[:, first:first + kept] = x.data[:, x0::sub]

    def windows(a):
        # (offsets[-1] + 1, rows, width*C) view of a buffer-shaped array:
        # [o, i] holds the width samples from i*step + o on
        isz = a.itemsize
        return as_strided(a, (offsets[-1] + 1, rows, width * c),
                          (c * isz, step * c * isz, isz))

    w, b = p.weight, p.bias
    # (k, C, C_out): a view of a tap-major weight, one copy of a row-major one
    wt = np.ascontiguousarray(w.data.T)

    def diagonals(band):
        # (k, L, C, C_out) view of a (M*width, C, L, C_out) band: [j, l] is
        # where output l of a tile meets tap j, at sample l*s + j*d
        bp, bc, bl, bo = band.strides
        return as_strided(band, (k, tile, c, cout), (d * bp, s * bp + bl, bc, bo))

    def blocks():
        # (M, width*C, L*C_out): the taps when L = 1, else the banded
        # Toeplitz blocks, rebuilt by the backward rather than kept
        if tile == 1:
            return wt
        band = np.zeros((len(offsets) * width, c, tile, cout))
        diagonals(band)[...] = wt[:, None]
        return band.reshape(len(offsets), width * c, tile * cout)

    xw = windows(buf)
    seg = _freq_segment_len(k, tile, s, d, t_out)
    if seg:
        out = _freq_conv(buf, wt, t_out, seg)
        out += b.data
    else:
        blks = blocks()
        y = np.empty((n * per_item, tile * cout))
        head = y[:rows]
        np.matmul(xw[0], blks[0], out=head)
        for o, blk in zip(offsets[1:], blks[1:]):
            head += xw[o] @ blk
        out = y.reshape(n, per_item * tile, cout)[:, :t_out] + b.data

    def backward(g_out):
        if b.requires_grad:
            b.accumulate_grad(g_out.sum(axis=(0, 1)))
        dy = np.zeros((n, per_item * tile, cout))
        dy[:, :t_out] = g_out
        dy = dy.reshape(n * per_item, tile * cout)[:rows]
        blks = blocks()
        if w.requires_grad:
            dw = np.empty(blks.shape)
            for o, dblk in zip(offsets, dw):
                np.matmul(xw[o].T, dy, out=dblk)
            if tile > 1:    # tap j sums its L diagonal entries
                dw = diagonals(dw.reshape(len(offsets) * width, c, tile, cout)).sum(axis=1)
            w.accumulate_grad(dw.T)         # tap-major, like the weight
        if x.requires_grad:
            dbuf = np.zeros_like(buf)
            dxw = windows(dbuf)
            for o, blk in zip(offsets, blks):
                dxw[o] += dy @ blk.T
            dx = dbuf[:, first:first + kept]
            if sub > 1:     # spread the kept samples back over x
                dx, kept_dx = np.zeros(x.shape), dx
                dx[:, x0::sub] = kept_dx
            x.accumulate_grad(dx)

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
