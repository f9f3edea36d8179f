"""Signal processing: cubic-spline resampling, Chebyshev type-I
decimation filters, STFT, and the SNR / log-spectral distance metrics.

The degradation pipeline mirrors standard decimation practice: an order-8
Chebyshev type-I low-pass (0.05 dB ripple, cutoff 0.8/r of Nyquist)
followed by keeping every r-th sample. SNR is reported in dB (base-10
log); LSD uses the natural log of the power spectrum.

Neither kernel loops over samples in Python: the spline's tridiagonal
system is solved by cyclic reduction, and the filter runs as cascaded
second-order sections, each in blocks of samples (one GEMM per section
plus a state carry from block to block).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    InvalidCutoff,
    InvalidRate,
    InvalidRipple,
    LengthMismatch,
    TooShort,
    ZeroReference,
)

__all__ = [
    "IirFilter",
    "Spectrogram",
    "natural_cubic_spline",
    "spline_upsample",
    "cheby1_design",
    "iir_apply",
    "degrade",
    "stft",
    "snr",
    "lsd",
]

# additive floor inside the log so silent bins stay finite
EPS_SPEC = 1e-10


# --- cubic splines ------------------------------------------------------------


def _solve_tridiagonal(off, diag, rhs):
    """Solve the symmetric tridiagonal system with diagonal ``diag`` (m,),
    off-diagonal ``off`` (m-1,) and right-hand side ``rhs`` (m, k) by
    cyclic reduction (Hockney 1965).

    Each level eliminates the even-indexed unknowns from the odd-indexed
    equations, halving the system in whole-array operations; back
    substitution then recovers the even unknowns level by level. Stable
    without pivoting for diagonally dominant systems, such as the spline's.
    """
    levels = []
    e, b, d = off[:, None], diag[:, None], rhs
    while b.shape[0] > 1:
        size = b.shape[0]
        if size % 2 == 0:
            # a decoupled extra unknown (equal to 0) makes the count odd
            e = np.concatenate([e, np.zeros((1, 1))])
            b = np.concatenate([b, np.ones((1, 1))])
            d = np.concatenate([d, np.zeros((1, d.shape[1]))])
        levels.append((size, e, b, d))
        # odd equation i takes alpha * equation i-1 and gamma * equation i+1
        alpha = -e[0::2] / b[0:-1:2]
        gamma = -e[1::2] / b[2::2]
        b, d, e = (
            b[1::2] + alpha * e[0::2] + gamma * e[1::2],
            d[1::2] + alpha * d[0:-1:2] + gamma * d[2::2],
            gamma[:-1] * e[2::2],
        )
    sol = d / b
    for size, e, b, d in reversed(levels):
        acc = d[0::2].copy()
        acc[1:] -= e[1::2] * sol
        acc[:-1] -= e[0::2] * sol
        full = np.empty_like(d)
        full[0::2] = acc / b[0::2]
        full[1::2] = sol
        sol = full[:size]
    return sol


def natural_cubic_spline(knots_x, knots_y):
    """Natural cubic spline interpolant through (knots_x, knots_y).

    ``knots_y`` is (n,) or (n, k); the k columns share the knots and are
    solved together. Returns a callable evaluating the spline at arbitrary
    points (for (n, k) knots, a (q,) query gives (q, k)); queries outside
    the knot range extrapolate the boundary cubic segment. Exact on linear
    data (all second derivatives are zero).
    """
    x = np.asarray(knots_x, dtype=np.float64)
    y = np.asarray(knots_y, dtype=np.float64)
    n = x.size
    if n < 2:
        raise TooShort("spline needs at least 2 knots")
    if np.any(np.diff(x) <= 0):
        raise ValueError("knots must be strictly increasing")
    h = np.diff(x)
    cols = y.reshape(n, -1)
    m = np.zeros_like(cols)  # second derivatives; natural BCs pin both ends at 0
    if n > 2:
        # tridiagonal system over the interior knots
        slope = np.diff(cols, axis=0) / h[:, None]
        m[1:-1] = _solve_tridiagonal(h[1:-1], 2.0 * (h[:-1] + h[1:]),
                                     6.0 * (slope[1:] - slope[:-1]))
    m = m.reshape(y.shape)
    expand = (...,) + (None,) * (y.ndim - 1)

    def evaluate(q):
        q = np.asarray(q, dtype=np.float64)
        seg = np.clip(np.searchsorted(x, q, side="right") - 1, 0, n - 2)
        x0, x1, q = x[seg][expand], x[seg + 1][expand], q[expand]
        hs = x1 - x0
        a = (x1 - q) / hs
        b = (q - x0) / hs
        return (
            a * y[seg]
            + b * y[seg + 1]
            + ((a ** 3 - a) * m[seg] + (b ** 3 - b) * m[seg + 1]) * hs ** 2 / 6.0
        )

    return evaluate


def spline_upsample(x, r: int):
    """Expand a signal by integer factor r with a natural cubic spline.

    Input samples sit on the grid 0, r, 2r, ...; the output is the spline
    evaluated at 0..r*len(x)-1, so the final r-1 samples extrapolate the
    last cubic segment. Accepts (T,) or (T, k) arrays.
    """
    x = np.asarray(x, dtype=np.float64)
    if r < 1 or int(r) != r:
        raise InvalidRate("ratio must be a positive integer")
    r = int(r)
    if x.shape[0] < 4:
        raise TooShort(f"need at least 4 samples, got {x.shape[0]}")
    if r == 1:
        return x.copy()
    t = x.shape[0]
    return natural_cubic_spline(np.arange(t) * r, x)(np.arange(t * r))


# --- IIR filter design --------------------------------------------------------


@dataclass
class IirFilter:
    """Digital IIR filter as a cascade of second-order sections: row j of
    ``sos`` is (b0, b1, b2, 1, a1, a2) of section j, applied in row order.
    ``b`` and ``a`` give the whole cascade as one transfer function."""

    sos: np.ndarray
    order: int
    ripple_db: float = 0.0
    cutoff: float = 0.0  # fraction of Nyquist

    @property
    def b(self):
        return reduce(np.convolve, self.sos[:, :3])[: self.order + 1]

    @property
    def a(self):
        return reduce(np.convolve, self.sos[:, 3:])[: self.order + 1]

    def poles(self):
        return np.roots(self.a)

    def is_stable(self):
        return bool(np.all(np.abs(self.poles()) < 1.0))


def cheby1_design(order: int = 8, ripple_db: float = 0.05,
                  cutoff: float = 0.5) -> IirFilter:
    """Chebyshev type-I low-pass via the bilinear transform.

    ``cutoff`` is the passband edge as a fraction of Nyquist. The analog
    prototype places poles on an ellipse from eps = sqrt(10^(r/10) - 1);
    the cutoff is pre-warped before the bilinear map, which sends every
    zero to z = -1. Each conjugate pole pair (and the real pole of an odd
    order) becomes one section with unit gain at DC, ordered so that the
    poles nearest the unit circle come last; the first section carries
    the remaining gain.
    """
    if not 0.0 < cutoff < 1.0:
        raise InvalidCutoff(f"cutoff must be in (0, 1), got {cutoff}")
    if ripple_db <= 0.0:
        raise InvalidRipple(f"ripple must be positive, got {ripple_db}")
    if order < 1:
        raise ValueError("order must be >= 1")

    eps = math.sqrt(10.0 ** (0.1 * ripple_db) - 1.0)
    mu = math.asinh(1.0 / eps) / order
    k = np.arange(1, order + 1)
    theta = math.pi * (2.0 * k - 1.0) / (2.0 * order)
    poles = -math.sinh(mu) * np.sin(theta) + 1j * math.cosh(mu) * np.cos(theta)
    gain = np.prod(-poles).real
    if order % 2 == 0:
        gain /= math.sqrt(1.0 + eps * eps)

    # pre-warped low-pass transform, then bilinear at fs = 2
    fs = 2.0
    warped = 2.0 * fs * math.tan(math.pi * cutoff / fs)
    poles = poles * warped
    gain *= warped ** order

    fs2 = 2.0 * fs
    z_poles = (fs2 + poles) / (fs2 - poles)
    gain = gain / np.prod(fs2 - poles).real

    # poles k and order+1-k are conjugates; k = 1 lies nearest the circle
    pairs = z_poles[: order // 2][::-1]
    a_rows = np.stack([np.ones(pairs.size), -2.0 * pairs.real, np.abs(pairs) ** 2], axis=1)
    b_rows = np.tile([1.0, 2.0, 1.0], (pairs.size, 1))
    if order % 2:
        a_rows = np.vstack([[1.0, -z_poles[order // 2].real, 0.0], a_rows])
        b_rows = np.vstack([[1.0, 1.0, 0.0], b_rows])
    dc = a_rows.sum(axis=1) / b_rows.sum(axis=1)
    b_rows *= dc[:, None]
    b_rows[0] *= gain / np.prod(dc)
    return IirFilter(sos=np.hstack([b_rows, a_rows]), order=order,
                     ripple_db=ripple_db, cutoff=cutoff)


# Block length L of iir_apply: per section, a (T/L, L) x (L, L) GEMM plus
# a Python loop over the T/L blocks. Order-8 filter at r=2 on 2 cores
# (numpy 2.4.6, OpenBLAS), T=8192 (T=65536): L=32 1.5 (11.6) ms, 64 0.84
# (6.3) ms, 128 0.72 (3.9) ms, 256 1.15 (3.3) ms, 512 4.7 (5.2) ms.
IIR_BLOCK = 128


def _matrix_powers(a, n):
    """a^0 .. a^(n-1) of a square matrix, stacked, by doubling."""
    out = np.empty((n,) + a.shape, dtype=a.dtype)
    out[0] = np.eye(a.shape[0])
    done = 1
    while done < n:
        step = min(done, n - done)
        out[done:done + step] = out[:step] @ (out[done - 1] @ a)
        done += step
    return out


def _section_blocks(section, blocks):
    """One second-order section over (k, nb, L) blocks of k signals laid
    end to end, from zero state.

    In state-space form (transposed direct form II: s' = A s + B x,
    y = s[0] + b0 x) a block's output is its zero-state response, a
    Toeplitz product with the impulse response, plus the response to the
    state it starts in; the state moves on by A^L plus the block's
    zero-state end state.
    """
    b0, b1, b2, _, a1, a2 = section
    trans = np.array([[-a1, 1.0], [-a2, 0.0]], dtype=np.longdouble)
    inp = np.array([b1 - a1 * b0, b2 - a2 * b0])
    length = blocks.shape[-1]
    # The set-up is O(L^2), so it runs in extended precision where the
    # platform has it: A is far from normal when the poles nearly coincide
    # (low cutoffs), and float64 doubling loses up to 2.5e-12 relative in
    # its powers at r=32.
    powers = _matrix_powers(trans, length + 1)
    from_state = powers[:length, 0, :]  # output j from the start state: row 0 of A^j
    to_state = powers[length - 1::-1] @ inp  # end state from input j: A^(L-1-j) B
    impulse = np.concatenate([[b0], from_state[:-1] @ inp])
    from_state, to_state, impulse, carry = (
        v.astype(np.float64) for v in (from_state, to_state, impulse, powers[length].T))
    lag = np.subtract.outer(np.arange(length), np.arange(length))
    toeplitz = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0)
    out = blocks @ toeplitz.T
    ends = blocks @ to_state
    starts = np.zeros_like(ends)
    for i in range(1, blocks.shape[1]):
        starts[:, i] = starts[:, i - 1] @ carry + ends[:, i - 1]
    out += starts @ from_state.T
    return out


def iir_apply(filt: IirFilter, x):
    """Run the filter over the first axis, section by section, zero
    initial state. Accepts (T,) or (T, k).

    Every section runs in blocks of ``IIR_BLOCK`` samples, all columns at
    once: one GEMM gives each block's zero-state output, and a loop over
    the blocks carries the two-number state (see ``_section_blocks``).
    Exact up to the reassociation of sums.
    """
    x = np.asarray(x, dtype=np.float64)
    t = x.shape[0]
    cols = (x[:, None] if x.ndim == 1 else x).T
    n_blocks = -(-t // IIR_BLOCK)
    # causal, so the zeros padding the last block change no output before T
    blocks = np.zeros((cols.shape[0], n_blocks * IIR_BLOCK))
    blocks[:, :t] = cols
    blocks = blocks.reshape(cols.shape[0], n_blocks, IIR_BLOCK)
    for section in filt.sos:
        blocks = _section_blocks(section, blocks)
    y = blocks.reshape(cols.shape[0], -1)[:, :t].T
    return np.ascontiguousarray(y.reshape(x.shape))


def degrade(x, r: int):
    """Low-pass then keep every r-th sample; identity for r == 1."""
    x = np.asarray(x, dtype=np.float64)
    if r < 1 or int(r) != r:
        raise InvalidRate("ratio must be a positive integer")
    r = int(r)
    if r == 1:
        return x.copy()
    filt = cheby1_design(order=8, ripple_db=0.05, cutoff=0.8 / r)
    return iir_apply(filt, x)[::r]


# --- spectra and metrics ------------------------------------------------------


@dataclass
class Spectrogram:
    """One-sided STFT: frames x (frame_length/2 + 1) complex bins."""

    values: np.ndarray
    frame_length: int
    hop: int
    window: str = "hann"

    @property
    def num_frames(self):
        return self.values.shape[0]


def _window(name, n):
    if name == "hann":
        # periodic Hann, the spectral-analysis convention
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    if name == "rect":
        return np.ones(n)
    raise ValueError(f"unknown window {name!r}")


def stft(x, frame_length: int = 8192, hop: int | None = None,
         window: str = "hann") -> Spectrogram:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("stft expects a single-channel signal")
    if hop is None:
        hop = frame_length // 2
    if x.size < frame_length:
        raise TooShort(
            f"signal length {x.size} shorter than frame {frame_length}"
        )
    w = _window(window, frame_length)
    n_frames = (x.size - frame_length) // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(x, frame_length)[::hop]
    frames = frames[:n_frames]
    return Spectrogram(np.fft.rfft(frames * w, axis=1), frame_length, hop, window)


def snr(approx, reference) -> float:
    """Signal-to-noise ratio 10*log10(|y|^2 / |x-y|^2) in dB.

    Returns +inf when approx equals reference exactly.
    """
    x = np.asarray(approx, dtype=np.float64).ravel()
    y = np.asarray(reference, dtype=np.float64).ravel()
    if x.size != y.size:
        raise LengthMismatch(f"lengths differ: {x.size} vs {y.size}")
    ref_energy = float(np.sum(y * y))
    if ref_energy == 0.0:
        raise ZeroReference("reference signal is identically zero")
    err_energy = float(np.sum((x - y) ** 2))
    if err_energy == 0.0:
        return math.inf
    return 10.0 * math.log10(ref_energy / err_energy)


def lsd(approx, reference, frame_length: int = 8192, hop: int | None = None,
        window: str = "hann") -> float:
    """Log-spectral distance: RMS over bins of the natural-log power
    spectra difference, averaged over frames."""
    sx = stft(np.asarray(approx, dtype=np.float64).ravel(),
              frame_length, hop, window)
    sy = stft(np.asarray(reference, dtype=np.float64).ravel(),
              frame_length, hop, window)
    lx = np.log(np.abs(sx.values) ** 2 + EPS_SPEC)
    ly = np.log(np.abs(sy.values) ** 2 + EPS_SPEC)
    per_frame = np.sqrt(np.mean((lx - ly) ** 2, axis=1))
    return float(np.mean(per_frame))
