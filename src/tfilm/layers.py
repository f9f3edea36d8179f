"""1D neural-network building blocks: convolution, LSTM, subpixel
shuffle and dropout.

Inputs are batched (N, T, C) tensors throughout. Convolution uses the
cross-correlation convention (no kernel flip) and "same" padding, the
only mode: (k_eff - 1) // 2 samples on the left and the remainder on
the right, with k_eff = (k - 1) * dilation + 1, which keeps output
lengths at ceil(T / stride) for every kernel and input length.

Convolution runs over tiles of L consecutive outputs. Each tile is a
sum of a few GEMMs between zero-copy rows of the padded input and
blocks of the banded (block-Toeplitz) weight matrix, with the N items
of a batch in one row space (see :func:`conv1d`). Wide inputs take
L = 1, where the blocks are the taps themselves (the multi-GEMM form of
Lavin & Gray 2016). No im2col buffer is built, and the backward keeps
only the padded input. Conv weights are stored tap-major (see
:class:`Conv1dParams`), so each tap's weights are a view.

Long kernels (k >= 17) over long inputs of at least 4 channels, read
at stride 1 and dilation 1, run in the frequency domain instead, at any
tile length and batch size (overlap-save, as in Mathieu, Henaff & LeCun
2014): per DFT bin one GEMM over all input channels, with the DFTs
themselves as GEMMs against cos/sin matrices. Their backward is the
exact adjoint of those GEMMs, so it too runs in the frequency domain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    ChannelMismatch,
    ChannelsNotDivisible,
    InvalidRate,
    ShapeMismatch,
)
from .tensor import Tensor, concat

__all__ = [
    "Conv1dParams",
    "LstmParams",
    "conv1d",
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
                     stride=1, dilation=1, zero=False):
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


# The frequency path (see _FreqPlan) takes the buffer reads at stride 1
# and dilation 1 with k >= _FREQ_MIN_KERNEL, C_in >= _FREQ_MIN_CHANNELS
# and T' >= _FREQ_MIN_OUTPUTS outputs per item, at any tile length L and
# batch size. It transforms the weight _FREQ_CHANNELS input channels at a
# time and the segments _FREQ_GROUP outputs at a time, so no temporary
# grows with T'. Measured on 2 cores
# with OpenBLAS 0.3.31, medians of 7-9 alternating runs, direct GEMMs ->
# frequency path in ms:
# - Forward and backward at N=16, C_out 16 (the SR model's geometry):
#   k 65, C_in 24 (up2): T' 256: 18.1 -> 12.4, 512: 34.2 -> 21.5. k 33,
#   C_in 16: T' 128: 3.6 -> 2.7, 256 (up1): 6.3 -> 4.8, 512 (down2, on
#   its kept samples): 12.2 -> 9.3. k 17, C_in 16: T' 256: 3.7 -> 4.0,
#   512: 9.1 -> 7.8. k 9: 5.5 -> 7.3. k 65 at T' 1024 by C_in: 1
#   (down1, at L = 32): 8.5 -> 12.0, 2: 10.7 -> 12.2, 3: 13.1 -> 14.2,
#   4: 15.2 -> 13.0.
# - Eval forward at N=1 (the paper-scale model): k 65, C 512 -> 256
#   (up4): T' 256: 62 -> 53, 2048: 430 -> 117; forward and backward at
#   T' 2048: 1593 -> 490. k 33, C 768 -> 512 (up3, T' 1024): 315 -> 140;
#   C 128 -> 256 (down2, T' 2048): 93 -> 35. k 17, C 768 -> 512: T' 128:
#   23 -> 29, 256: 34 -> 36, 512 (up2): 68 -> 48; C 256 -> 512 (down3,
#   T' 1024): 49 -> 36, forward and backward 275 -> 163. k 9, C 512 ->
#   512, T' 512: 31 -> 32.
# So k 33 and 65 win from T' = 2P on at these widths (2P is 128 at
# k 33, where up3's width still loses at N=1: 41 -> 65; k 65 at N=1,
# C 512 -> 256, T' 384: 70 -> 59), k 17 breaks even at T' = 256 and wins
# from 512 on, and k 9 and inputs of 1 to 3 channels (where the taps run
# wide tiles) lose. The product's real form goes on the weight at one
# input-channel chunk and on the input past that (see _FreqPlan). At one
# chunk the input form took the SR model's down2 / up1 / up2 (forward
# and backward) from 5.1 / 2.6 / 9.0 to 6.6 / 3.4 / 14.2, and its
# training step from 53.5 to 59.4 (slower in 18 of 20 alternating runs);
# past one chunk, with the weight taking it per group and chunk, up3 and
# up4 ran about 1.6x slower. Chunks of 32, 64 and 128 input channels
# took 164 / 149 / 166 ms at up3; with groups of 1024, 2048 and 8192
# outputs the SR training step ran 1.28x, 1.28x and 1.24x faster than on
# the tap GEMMs.
_FREQ_MIN_KERNEL = 17
_FREQ_MIN_CHANNELS = 4
_FREQ_MIN_OUTPUTS = 256
_FREQ_CHANNELS = 64
_FREQ_GROUP = 2048


def _freq_segment_len(k, c, s, d, t_out):
    """Padded segment length P of the frequency path, or 0 where the
    direct GEMMs run: P = 2^ceil(log2(2k - 2)), so that the first P/2
    outputs of each segment are exact."""
    if (s != 1 or d != 1 or k < _FREQ_MIN_KERNEL or c < _FREQ_MIN_CHANNELS
            or t_out < _FREQ_MIN_OUTPUTS):
        return 0
    return 1 << (2 * k - 3).bit_length()


@functools.lru_cache(maxsize=32)
def _dft_matrices(seg, k):
    """Real-DFT matrices for segments of ``seg`` samples and ``k`` taps,
    over the F = seg/2 + 1 bins f of cos and -sin of 2*pi*f*m/seg, all
    with rows or columns (f, Re/Im). With B = seg/2:

    - ``half`` (2F, B): the DFT of B samples followed by B zeros. B
      samples in the second half instead have the same DFT times (-1)^f;
    - ``taps`` (2F, k): the DFT of the taps;
    - ``inv`` (B, 2F): the first B samples of the inverse DFT.

    Cached per (seg, k) (a model has a few kernel lengths), so the arrays
    are read-only.
    """
    bins = np.arange(seg // 2 + 1)[:, None]

    def cos_sin(m):
        # the angle's index reduced mod seg first, for exact periodicity
        angle = (2 * np.pi / seg) * ((bins * m) % seg)
        return np.stack([np.cos(angle), -np.sin(angle)], axis=1).reshape(-1, len(m))

    half = cos_sin(np.arange(seg // 2))
    taps = cos_sin(np.arange(k))
    # bins 0 and seg/2 count once, the others twice (with their mirrors)
    scale = np.full(2 * len(bins), 2.0 / seg)
    scale[[0, 1, -2, -1]] = 1.0 / seg
    inv = (scale[:, None] * half).T
    for a in (half, taps, inv):
        a.flags.writeable = False
    return half, taps, inv


def _freq_groups(n, n_seg, per_group):
    """Segment groups (i0, i1, j0, j1): segments [j0, j1) of items
    [i0, i1), either whole items or a run of one item's segments, at most
    ``per_group`` segments (or one whole item) each."""
    if n_seg <= per_group:
        m = per_group // n_seg
        return [(i, min(i + m, n), 0, n_seg) for i in range(0, n, m)]
    return [(i, i + 1, j, min(j + per_group, n_seg))
            for i in range(n) for j in range(0, n_seg, per_group)]


def _alternate(a, b, out):
    """out = a + (-1)^f * b, for bins f on axis -3."""
    np.add(a[..., 0::2, :, :], b[..., 0::2, :, :], out=out[..., 0::2, :, :])
    np.subtract(a[..., 1::2, :, :], b[..., 1::2, :, :], out=out[..., 1::2, :, :])


class _FreqPlan:
    """Geometry, matrices and reused scratch of one frequency-path call.

    ``buf`` is the (N, (n_seg + 1) * B, C) padded input with B = seg/2:
    segment g of an item is its half-blocks g and g + 1 of B samples, and
    its circular cross-correlation with the k <= B + 1 taps is exact at
    its first B outputs. With Y_j = Yr + i*Yi the spectrum of half-block
    j (zero-padded to seg samples) and W = Wr + i*Wi the taps', the
    products P_j = Y_j * conj(W) take one real GEMM per bin f over all
    half-blocks of a group, with the real form of the complex product on
    the weight's side or on the input's::

        [Pr, Pi] = [Yr, Yi] @ [[Wr, -Wi], [Wi, Wr]]
        [Pr; Pi] = [[Yr, Yi], [Yi, -Yr]] @ [Wr; Wi]

    The first copies the weight's spectra into 4*F*C*C_out entries, the
    second each half-block's into 2*F*C. With one input-channel chunk
    the weight takes the first, once per call, which ran faster than the
    second at the SR model's layers. With several it would take it per
    group and chunk, which costs more than the input's copies at every
    paper-scale layer, so the input takes the second. The sweep beside
    ``_FREQ_MIN_KERNEL`` has both measurements.

    Segment g's product is Z_g = P_g + (-1)^f * P_{g+1}, so each
    half-block is transformed and multiplied once, not twice.
    """

    def __init__(self, buf, wt, seg):
        self.n, t_b, self.c = buf.shape
        self.k, _, self.cout = wt.shape
        self.blen = seg // 2
        self.bins = seg // 2 + 1
        self.n_seg = t_b // self.blen - 1
        self.half, self.taps, self.inv = _dft_matrices(seg, self.k)
        # (N, n_seg + 1, B, C) half-blocks
        self.blocks = buf.reshape(self.n, self.n_seg + 1, self.blen, self.c)
        self.wt = wt
        self.groups = _freq_groups(self.n, self.n_seg, max(1, _FREQ_GROUP // self.blen))
        chunk = min(self.c, _FREQ_CHANNELS)
        self.chunks = [(c0, min(chunk, self.c - c0)) for c0 in range(0, self.c, chunk)]
        self.w4 = None
        if len(self.chunks) == 1:
            ws = self.weight_spectra(0, self.c).reshape(self.bins, 2, self.c, self.cout)
            w4 = np.empty((self.bins, 2, self.c, 2, self.cout))
            w4[:, 0, :, 0] = w4[:, 1, :, 1] = ws[:, 0]
            w4[:, 1, :, 0] = ws[:, 1]
            np.negative(ws[:, 1], out=w4[:, 0, :, 1])
            self.w4 = w4.reshape(self.bins, 2 * self.c, 2 * self.cout)
        hb = max((i1 - i0) * (j1 - j0 + 1) for i0, i1, j0, j1 in self.groups)
        # flat scratch, sized for the largest group and chunk and reused
        self.xbuf = np.empty((2 if self.w4 is not None else 4) * self.bins * hb * chunk)
        self.pbuf = np.empty(2 * hb * 2 * self.bins * self.cout)

    def weight_spectra(self, c0, w):
        """(F, 2w, C_out) [Wr; Wi] of input channels [c0, c0 + w)."""
        ws = self.taps @ self.wt[:, c0:c0 + w].reshape(self.k, w * self.cout)
        return ws.reshape(self.bins, 2 * w, self.cout)

    def spectra(self, group, c0, w):
        """The real form of a group's half-blocks' spectra at input
        channels [c0, c0 + w), in reused scratch: (ni, nh, F, 2w)
        [Yr, Yi] where the weight takes the real form, else
        (F, 2, ni, nh, 2w) [[Yr, Yi], [Yi, -Yr]]."""
        i0, i1, j0, j1 = group
        blocks = self.blocks[i0:i1, j0:j1 + 1, :, c0:c0 + w]
        ni, nh = blocks.shape[:2]
        if self.w4 is not None:
            ys = self.xbuf[:ni * nh * 2 * self.bins * w].reshape(ni, nh, 2 * self.bins, w)
            np.matmul(self.half, blocks, out=ys)
            return ys.reshape(ni, nh, self.bins, 2 * w)
        xs = self.xbuf[:self.bins * 4 * ni * nh * w].reshape(self.bins, 2, ni, nh, 2, w)
        for part in (0, 1):     # the Re and the Im rows
            np.matmul(self.half[part::2], blocks, out=xs[:, 0, :, :, part].transpose(1, 2, 0, 3))
        xs[:, 1, :, :, 0] = xs[:, 0, :, :, 1]
        np.negative(xs[:, 0, :, :, 0], out=xs[:, 1, :, :, 1])
        return xs.reshape(self.bins, 2, ni, nh, 2 * w)

    def products(self, group):
        """Two flat scratch arrays, each the size of a group's half-block
        products, and an (ni, nh, F, 2, C_out) view of the first."""
        i0, i1, j0, j1 = group
        ni, nh = i1 - i0, j1 - j0 + 1
        size = ni * nh * 2 * self.bins * self.cout
        p = self.pbuf[:size]
        if self.w4 is not None:
            view = p.reshape(ni, nh, self.bins, 2, self.cout)
        else:
            view = p.reshape(self.bins, 2, ni, nh, self.cout).transpose(2, 3, 0, 1, 4)
        return p, view, self.pbuf[size:2 * size]

    def multiply(self, ys, ws, out):
        """The products of the spectra ``ys`` of :meth:`spectra` and the
        weight's ``ws`` into ``out``, the memory of :meth:`products`."""
        if self.w4 is not None:
            ni, nh, f, w2 = ys.shape
            np.matmul(ys.reshape(-1, f, w2).swapaxes(0, 1), self.w4,
                      out=out.reshape(-1, f, 2 * self.cout).swapaxes(0, 1))
        else:
            np.matmul(ys.reshape(self.bins, -1, ys.shape[-1]), ws,
                      out=out.reshape(self.bins, -1, self.cout))

    def multiply_grads(self, ys, ws, dp, want_w, want_x):
        """The adjoint of :meth:`multiply` at the products' gradient
        ``dp``: the (2F, w*C_out) [dWr; dWi] (or None), and the
        (ni, nh, 2F, w) d[Yr, Yi] (or None), rows (f, Re/Im)."""
        dws = dy = None
        if self.w4 is not None:
            ni, nh, f, w2 = ys.shape
            y_bins = ys.reshape(-1, f, w2).swapaxes(0, 1)
            dp_bins = dp.reshape(-1, f, 2 * self.cout).swapaxes(0, 1)
            if want_w:
                m = np.matmul(y_bins.transpose(0, 2, 1), dp_bins)
                m = m.reshape(f, 2, w2 // 2, 2, self.cout)
                dws = np.empty((f, 2, w2 // 2, self.cout))
                np.add(m[:, 0, :, 0], m[:, 1, :, 1], out=dws[:, 0])
                np.subtract(m[:, 1, :, 0], m[:, 0, :, 1], out=dws[:, 1])
            if want_x:
                # ys's scratch takes d[Yr, Yi]
                np.matmul(dp_bins, self.w4.transpose(0, 2, 1), out=y_bins)
                dy = ys.reshape(ni, nh, 2 * f, w2 // 2)
        else:
            f, _, ni, nh, w2 = ys.shape
            xs = ys.reshape(f, -1, w2)
            dp2 = dp.reshape(f, -1, self.cout)
            if want_w:
                dws = np.matmul(xs.transpose(0, 2, 1), dp2)
            if want_x:
                # xs's scratch takes d[[Yr, Yi], [Yi, -Yr]]
                d = np.matmul(dp2, ws.transpose(0, 2, 1), out=xs)
                d = d.reshape(f, 2, ni, nh, 2, w2 // 2)
                dy = np.empty((ni, nh, f, 2, w2 // 2))
                np.subtract(d[:, 0, :, :, 0], d[:, 1, :, :, 1], out=dy[:, :, :, 0].transpose(2, 0, 1, 3))
                np.add(d[:, 0, :, :, 1], d[:, 1, :, :, 0], out=dy[:, :, :, 1].transpose(2, 0, 1, 3))
                dy = dy.reshape(ni, nh, 2 * f, w2 // 2)
        return None if dws is None else dws.reshape(2 * self.bins, -1), dy


def _freq_conv(buf, wt, t_out, seg):
    """y[i, t] = sum_j buf[i, t + j] @ wt[j] for t < t_out, by overlap-save.

    ``buf`` is the (N, (n_seg + 1) * B, C) padded input, B = seg/2 and
    n_seg = ceil(t_out / B), and ``wt`` the (k, C, C_out) taps, k <= B + 1.
    See :class:`_FreqPlan` for the maths. All three transforms are GEMMs
    with cos/sin matrices: the weight has k nonzero taps in seg samples
    and the half-blocks are short, where a GEMM outruns np.fft. The N
    items share one row space of segments, which go in groups of
    _FREQ_GROUP outputs; the input channels go in chunks of
    _FREQ_CHANNELS, whose taps are re-transformed per group past one
    chunk, so that no temporary grows with T'.
    """
    plan = _FreqPlan(buf, wt, seg)
    n, blen, cout, bins = plan.n, plan.blen, plan.cout, plan.bins
    y = np.empty((n, plan.n_seg * blen, cout))
    segs_out = y.reshape(n, plan.n_seg, blen, cout)
    for group in plan.groups:
        i0, i1, j0, j1 = group
        p, pv, prod = plan.products(group)
        for c0, w in plan.chunks:
            ws = None if plan.w4 is not None else plan.weight_spectra(c0, w)
            plan.multiply(plan.spectra(group, c0, w), ws, prod if c0 else p)
            if c0:
                p += prod
        # Z in the second scratch, (ni, nj, F, 2, C_out)
        z = prod[:(i1 - i0) * (j1 - j0) * 2 * bins * cout].reshape(i1 - i0, j1 - j0, bins, 2, cout)
        _alternate(pv[:, :-1], pv[:, 1:], z)
        np.matmul(plan.inv, z.reshape(i1 - i0, j1 - j0, 2 * bins, cout), out=segs_out[i0:i1, j0:j1])
    return y[:, :t_out]


def _freq_conv_grads(buf, wt, g_out, seg, want_w=True, want_x=True):
    """Gradients (dwt, dbuf) of sum(g_out * _freq_conv(buf, wt, t_out,
    seg)), the exact adjoint of its steps; either is None where not
    wanted. Per group, dZ = inv^T g (a ragged last segment against the
    first rows of inv only) and dP_j = dZ_j + (-1)^f dZ_{j-1}; per chunk,
    with the half-blocks' spectra recomputed from ``buf``, the adjoint of
    the product (:meth:`_FreqPlan.multiply_grads`) gives [dWr; dWi],
    taken back to the taps by taps^T, and d[Yr, Yi], taken back to the
    samples by half^T.
    """
    plan = _FreqPlan(buf, wt, seg)
    n, blen, cout, bins, k = plan.n, plan.blen, plan.cout, plan.bins, plan.k
    t_out = g_out.shape[1]
    whole, ragged = divmod(t_out, blen)     # whole segments, ragged outputs
    g_segs = g_out[:, :whole * blen].reshape(n, whole, blen, cout)
    dwt = np.zeros(wt.shape) if want_w else None
    # with one chunk, the weight gradient's spectra add up over the
    # groups and go back to the taps once (a taps^T GEMM per group made
    # the SR training step about 2% slower)
    dws_sum = np.zeros((2 * bins, plan.c * cout)) if want_w and len(plan.chunks) == 1 else None
    dbuf = np.zeros(buf.shape) if want_x else None
    dblocks = None if dbuf is None else dbuf.reshape(plan.blocks.shape)
    for group in plan.groups:
        i0, i1, j0, j1 = group
        ni, nj = i1 - i0, j1 - j0
        dp, dpv, dz = plan.products(group)
        dz = dz[:ni * nj * 2 * bins * cout].reshape(ni, nj, bins, 2, cout)
        dz_rows = dz.reshape(ni, nj, 2 * bins, cout)
        jw = min(j1, whole)
        np.matmul(plan.inv.T, g_segs[i0:i1, j0:jw], out=dz_rows[:, :jw - j0])
        if jw < j1:
            np.matmul(plan.inv[:ragged].T, g_out[i0:i1, whole * blen:], out=dz_rows[:, -1])
        dpv[:, 0] = dz[:, 0]
        _alternate(dz[:, 1:], dz[:, :-1], dpv[:, 1:-1])
        dpv[:, -1, 0::2] = dz[:, -1, 0::2]
        np.negative(dz[:, -1, 1::2], out=dpv[:, -1, 1::2])
        for c0, w in plan.chunks:
            ws = None if plan.w4 is not None else plan.weight_spectra(c0, w)
            dws, dy = plan.multiply_grads(plan.spectra(group, c0, w), ws, dp, want_w, want_x)
            if dws_sum is not None:
                dws_sum += dws
            elif dws is not None:
                dwt[:, c0:c0 + w] += (plan.taps.T @ dws).reshape(k, w, cout)
            if dy is not None:
                dblocks[i0:i1, j0:j1 + 1, :, c0:c0 + w] += np.matmul(plan.half.T, dy)
    if dws_sum is not None:
        dwt[...] = (plan.taps.T @ dws_sum).reshape(k, plan.c, cout)
    return dwt, dbuf


def conv1d(x: Tensor, p: Conv1dParams) -> Tensor:
    """Batched 1D cross-correlation with stride/dilation and same padding.

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

    Where the buffer is read at stride 1 and dilation 1, with k >= 17,
    C_in >= 4 and T' >= 256 per item (see ``_freq_segment_len``), the
    conv runs by overlap-save in the frequency domain instead, forward
    and backward, whatever L the taps would take (see ``_FreqPlan``). Its
    per-bin products take about 4*C_in*C_out multiply-adds per output,
    against k*C_in*C_out for the taps, and the transforms about
    P*(C_in + C_out) plus the weight's, 2*k*C_in*C_out per 2048 outputs
    (per call at C_in <= 64); the backward does the adjoint of each step,
    and transforms the input again. The sweep beside ``_FREQ_MIN_KERNEL``
    has the layers it wins and loses at. The choice follows the geometry
    alone, never the grad mode, so train and eval forwards stay
    bit-equal.

    The backward closure keeps the buffer. On the tap GEMMs it rebuilds
    the blocks; the input gradient is G @ T_m^T, overlap-added at each
    tile shift; dT_m = X[. + m]^T G, and the weight gradient sums the
    diagonals of the band that the dT_m form. It is tap-major, like the
    weight, on either path.
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
    t_out = -(-t // stride)
    total = max(0, (t_out - 1) * stride + k_eff - t)
    pad_l = min((k_eff - 1) // 2, total)

    cout = p.out_channels
    # keep every sub-th padded sample; s and d are then the buffer's
    sub = stride if p.dilation % stride == 0 else 1
    s, d = stride // sub, p.dilation // sub
    first = -(-pad_l // sub)            # buffer index of the first kept sample
    x0 = first * sub - pad_l            # and its index in x
    kept = len(range(x0, t, sub))
    w, b = p.weight, p.bias
    # (k, C, C_out): a view of a tap-major weight, one copy of a row-major one
    wt = np.ascontiguousarray(w.data.T)

    seg = _freq_segment_len(k, c, s, d, t_out)
    if seg:
        # whole segments: n_seg + 1 half-blocks of seg/2 samples per item,
        # which hold the t_out + k - 1 samples the outputs read
        buf = np.zeros((n, (-(-t_out // (seg // 2)) + 1) * (seg // 2), c))
        buf[:, first:first + kept] = x.data[:, x0::sub]
        out = _freq_conv(buf, wt, t_out, seg)
        out += b.data
    else:
        tile = _tile_len(s * c, n * t_out)
        step = tile * s                     # buffer samples per tile
        if tile == 1:                       # a block per tap
            width = 1
            offsets = range(0, k * d, d)
        else:
            width = step
            offsets = range(0, (tile - 1) * s + (k - 1) * d + 1, width)
        n_tiles = -(-t_out // tile)
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
        blks = blocks()
        y = np.empty((n * per_item, tile * cout))
        head = y[:rows]
        np.matmul(xw[0], blks[0], out=head)
        for o, blk in zip(offsets[1:], blks[1:]):
            head += xw[o] @ blk
        out = y.reshape(n, per_item * tile, cout)[:, :t_out] + b.data

    def tap_grads(g_out):
        # the direct path's (dw, dbuf), None where not wanted
        dy = np.zeros((n, per_item * tile, cout))
        dy[:, :t_out] = g_out
        dy = dy.reshape(n * per_item, tile * cout)[:rows]
        blks = blocks()
        dw = dbuf = None
        if w.requires_grad:
            dw = np.empty(blks.shape)
            for o, dblk in zip(offsets, dw):
                np.matmul(xw[o].T, dy, out=dblk)
            if tile > 1:    # tap j sums its L diagonal entries
                dw = diagonals(dw.reshape(len(offsets) * width, c, tile, cout)).sum(axis=1)
        if x.requires_grad:
            dbuf = np.zeros_like(buf)
            dxw = windows(dbuf)
            for o, blk in zip(offsets, blks):
                dxw[o] += dy @ blk.T
        return dw, dbuf

    def backward(g_out):
        if b.requires_grad:
            b.accumulate_grad(g_out.sum(axis=(0, 1)))
        if seg:
            dw, dbuf = _freq_conv_grads(buf, wt, g_out, seg, w.requires_grad, x.requires_grad)
        else:
            dw, dbuf = tap_grads(g_out)
        if dw is not None:
            w.accumulate_grad(dw.T)         # tap-major, like the weight
        if dbuf is not None:
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


def _scan_one_direction(xs: Tensor, p: LstmParams, reverse: bool) -> Tensor:
    """One direction of the scan as a single tape op.

    The gate tensors are stacked in gate order i, f, o, g into W (4H, D),
    U (4H, H) and b (4H): the input projection of all steps is one GEMM
    into the pre-activation buffer, and each step adds one ``h @ U.T``
    into its row of it. The sigmoid gates use sigmoid(z) =
    (1 + tanh(z / 2)) / 2, so each step takes one ``tanh`` over all 4H
    pre-activations in place and finishes i, f and o as ``0.5 * t + 0.5``.
    The halving is folded into the stacked i, f and o rows of W, U and b;
    a power-of-two scale is exact, so the buffer holds exactly half of the
    unhalved pre-activations (barring subnormals). The
    gates agree with the exp form 1 / (1 + exp(-z)) to a few 1e-16
    absolute, and the form cannot overflow.

    The backward runs BPTT in reverse step order into dpre (N, S, 4H), the
    gradient of the unhalved pre-activations, reading the gates from the
    same buffer, then forms dW, dU, db and dx with one GEMM or sum each
    over all steps, against W and U stacked again without the halving.
    """
    n, steps, d = xs.shape
    hd = p.hidden_size
    ws = (p.w_i, p.w_f, p.w_o, p.w_g)
    us = (p.u_i, p.u_f, p.u_o, p.u_g)
    bs = (p.b_i, p.b_f, p.b_o, p.b_g)
    half = np.repeat((0.5, 0.5, 0.5, 1.0), hd)
    w = np.concatenate([t.data for t in ws]) * half[:, None]
    u_t = (np.concatenate([t.data for t in us]) * half[:, None]).T
    b = np.concatenate([t.data for t in bs]) * half
    x2 = xs.data.reshape(n * steps, d)
    # pre-activations, then the gates in place: sigmoid of i, f, o; tanh of g
    act = (x2 @ w.T + b).reshape(n, steps, 4 * hd)
    c_all = np.empty((n, steps, hd))
    tanh_c = np.empty((n, steps, hd))
    out = np.empty((n, steps, hd))
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    gi, gf, go, gg = (slice(k * hd, (k + 1) * hd) for k in range(4))
    h = np.zeros((n, hd))
    c = np.zeros((n, hd))
    for s in order:
        a = act[:, s]
        a += h @ u_t
        np.tanh(a, out=a)
        sig = a[:, :3 * hd]
        sig *= 0.5
        sig += 0.5
        c = np.multiply(a[:, gf], c, out=c_all[:, s])
        c += a[:, gi] * a[:, gg]
        tc = np.tanh(c, out=tanh_c[:, s])
        h = np.multiply(a[:, go], tc, out=out[:, s])
    act = act.reshape(n, steps, 4, hd)

    def backward(grad):
        w = np.concatenate([t.data for t in ws])
        u = np.concatenate([t.data for t in us])
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
