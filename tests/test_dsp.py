"""Splines, Chebyshev design, filtering, STFT and metrics.

The Chebyshev coefficient arrays below are frozen reference values from
an independent filter-design oracle, pasted as literals.
"""

import math

import numpy as np
import pytest

from tfilm import dsp
from tfilm.dsp import (
    EPS_SPEC,
    IIR_BLOCK,
    cheby1_design,
    degrade,
    iir_apply,
    lsd,
    natural_cubic_spline,
    snr,
    spline_upsample,
    stft,
)
from tfilm.errors import (
    InvalidCutoff,
    InvalidRate,
    InvalidRipple,
    LengthMismatch,
    TooShort,
    ZeroReference,
)

# order 8, 0.05 dB ripple, cutoff 0.4 (r=2) and 0.2 (r=4) in Nyquist units
B_R2 = [0.0006987370772841416, 0.005589896618273133, 0.019564638163955966,
        0.03912927632791193, 0.04891159540988991, 0.03912927632791193,
        0.019564638163955966, 0.005589896618273133, 0.0006987370772841416]
A_R2 = [1.0, -3.159100504614808, 5.967108107202708, -7.519348642687463,
        6.827184931315479, -4.482072321959029, 2.070876731225458,
        -0.6163275358434664, 0.09158859355707848]
B_R4 = [4.035929289347816e-06, 3.228743431478253e-05, 0.00011300602010173884,
        0.0002260120402034777, 0.0002825150502543471, 0.0002260120402034777,
        0.00011300602010173884, 3.228743431478253e-05, 4.035929289347816e-06]
A_R4 = [1.0, -6.097112958371417, 16.934600476036056, -27.866038271992032,
        29.63045373349599, -20.809092318786664, 9.414279089931338,
        -2.506737807064883, 0.3006872193662449]


def _assert_close(got, want, rel):
    """Max absolute difference within ``rel`` of the reference's max."""
    assert got.shape == want.shape
    if want.size:
        assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


# --- loop oracles: the per-sample code the vectorized kernels replaced ---------


def _thomas_solve(off, diag, rhs):
    """Symmetric tridiagonal solve by the Thomas algorithm, one row at a time."""
    diag = diag.astype(np.float64)
    rhs = rhs.astype(np.float64)
    for i in range(1, diag.size):
        w = off[i - 1] / diag[i - 1]
        diag[i] -= w * off[i - 1]
        rhs[i] -= w * rhs[i - 1]
    sol = np.zeros_like(rhs)
    sol[-1] = rhs[-1] / diag[-1]
    for i in range(diag.size - 2, -1, -1):
        sol[i] = (rhs[i] - off[i] * sol[i + 1]) / diag[i]
    return sol


def _thomas_spline(xs, ys, q):
    """Natural cubic spline through (xs, ys) at q, with the Thomas solve."""
    h = np.diff(xs)
    m = np.zeros(xs.size)
    if xs.size > 2:
        rhs = 6.0 * ((ys[2:] - ys[1:-1]) / h[1:] - (ys[1:-1] - ys[:-2]) / h[:-1])
        m[1:-1] = _thomas_solve(h[1:-1], 2.0 * (h[:-1] + h[1:]), rhs)
    seg = np.clip(np.searchsorted(xs, q, side="right") - 1, 0, xs.size - 2)
    x0, x1 = xs[seg], xs[seg + 1]
    a = (x1 - q) / (x1 - x0)
    b = (q - x0) / (x1 - x0)
    return (a * ys[seg] + b * ys[seg + 1]
            + ((a ** 3 - a) * m[seg] + (b ** 3 - b) * m[seg + 1]) * (x1 - x0) ** 2 / 6.0)


def _direct_form_loop(b, a, x):
    """Transposed direct form II, one sample at a time, from zero state."""
    z = np.zeros(b.size - 1, dtype=x.dtype)
    y = np.empty_like(x)
    for i, xn in enumerate(x):
        yn = b[0] * xn + z[0]
        z[:-1] = z[1:] + b[1:-1] * xn - a[1:-1] * yn
        z[-1] = b[-1] * xn - a[-1] * yn
        y[i] = yn
    return y


def _sections_loop(filt, x, dtype=np.float64):
    """The per-sample loop over each section of ``filt`` in turn, in
    ``dtype``. Run on the whole order-8 ``b``/``a`` instead, the loop
    differs from the cascade by up to 9e-12 relative at r=4: the rounding
    of the order-8 coefficients alone moves the filter that far."""
    y = np.asarray(x, dtype=dtype)
    for row in filt.sos.astype(dtype):
        y = _direct_form_loop(row[:3], row[3:], y)
    return y


# --- splines ------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 41))
def test_solve_tridiagonal_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    h = rng.uniform(0.5, 2.0, size=n + 1)
    off, diag = h[1:-1], 2.0 * (h[:-1] + h[1:])
    rhs = rng.normal(size=(n, 3))
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    _assert_close(dsp._solve_tridiagonal(off, diag, rhs),
                  np.linalg.solve(dense, rhs), 1e-13)


def test_solve_tridiagonal_spline_system_at_13k_unknowns():
    # the spline system of impute-infer's 16384-sample series with 20% of
    # it masked; a dense solve would need a 1.4 GB matrix, so the banded
    # residual and the Thomas loop are the references
    rng = np.random.default_rng(8)
    xs = np.flatnonzero(rng.random(16384) >= 0.2).astype(np.float64)
    h = np.diff(xs)
    off, diag = h[1:-1], 2.0 * (h[:-1] + h[1:])
    rhs = rng.normal(size=(xs.size - 2, 1))
    sol = dsp._solve_tridiagonal(off, diag, rhs)
    assert 12_000 < sol.shape[0] < 14_000
    residual = diag[:, None] * sol
    residual[:-1] += off[:, None] * sol[1:]
    residual[1:] += off[:, None] * sol[:-1]
    _assert_close(residual, rhs, 1e-14)
    _assert_close(sol, _thomas_solve(off, diag, rhs), 1e-13)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 13_000])
def test_spline_matches_thomas_oracle(n):
    rng = np.random.default_rng(n)
    xs = np.cumsum(rng.uniform(0.2, 3.0, size=n))
    ys = np.cumsum(rng.normal(size=n))
    q = np.linspace(xs[0] - 1.0, xs[-1] + 1.0, 3 * n + 7)
    _assert_close(natural_cubic_spline(xs, ys)(q), _thomas_spline(xs, ys, q), 1e-12)


def test_spline_columns_solved_together_match_each_column():
    x = np.random.default_rng(9).normal(size=(300, 3))
    up = spline_upsample(x, 3)
    assert up.shape == (900, 3)
    for c in range(3):
        _assert_close(up[:, c], _thomas_spline(np.arange(300.0) * 3, x[:, c],
                                               np.arange(900.0)), 1e-12)


def test_spline_exact_on_linear_data():
    xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    ys = 2.0 * xs + 1.0
    interp = natural_cubic_spline(xs, ys)
    q = np.linspace(0.0, 4.0, 37)
    np.testing.assert_allclose(interp(q), 2.0 * q + 1.0, atol=1e-12)


def test_spline_interpolates_knots_exactly():
    rng = np.random.default_rng(0)
    xs = np.sort(rng.uniform(0, 10, size=12))
    ys = rng.normal(size=12)
    interp = natural_cubic_spline(xs, ys)
    np.testing.assert_allclose(interp(xs), ys, atol=1e-10)


def test_spline_upsample_sine_accuracy():
    t = np.arange(256)
    x = np.sin(2 * np.pi * 0.02 * t)
    up = spline_upsample(x[::2], 2)
    err = np.max(np.abs(up[: x.size] - x))
    assert err < 1e-2


def test_spline_upsample_length_and_grid():
    x = np.arange(10.0)
    up = spline_upsample(x, 2)
    assert up.shape[0] == 20
    # original samples land on the coarse grid points
    np.testing.assert_allclose(up[::2], x, atol=1e-10)


def test_spline_upsample_too_short():
    with pytest.raises(TooShort):
        spline_upsample(np.array([1.0, 2.0]), 2)


# --- Chebyshev design ---------------------------------------------------------


def test_cheby1_matches_frozen_oracle_r2():
    filt = cheby1_design(8, 0.05, 0.4)
    np.testing.assert_allclose(filt.b, B_R2, rtol=0, atol=1e-6)
    np.testing.assert_allclose(filt.a, A_R2, rtol=0, atol=1e-6)


def test_cheby1_matches_frozen_oracle_r4():
    filt = cheby1_design(8, 0.05, 0.2)
    np.testing.assert_allclose(filt.b, B_R4, rtol=0, atol=1e-6)
    np.testing.assert_allclose(filt.a, A_R4, rtol=0, atol=1e-6)


def test_cheby1_passband_ripple_bounds():
    filt = cheby1_design(8, 0.05, 0.4)
    w = np.linspace(0, 0.4 * np.pi, 1024)
    z = np.exp(1j * w)
    h = np.polyval(filt.b[::-1], 1 / z) / np.polyval(filt.a[::-1], 1 / z)
    mag = np.abs(h)
    floor = 10 ** (-0.05 / 20)
    assert np.all(mag <= 1.0 + 1e-9)
    assert np.all(mag >= floor - 1e-9)


def test_cheby1_is_stable():
    assert cheby1_design(8, 0.05, 0.4).is_stable()


def test_cheby1_rejects_bad_inputs():
    with pytest.raises(InvalidCutoff):
        cheby1_design(8, 0.05, 1.5)
    with pytest.raises(InvalidCutoff):
        cheby1_design(8, 0.05, 0.0)
    with pytest.raises(InvalidRipple):
        cheby1_design(8, -1.0, 0.4)


def test_iir_apply_matches_direct_recursion():
    rng = np.random.default_rng(1)
    x = rng.normal(size=64)
    filt = cheby1_design(4, 0.05, 0.4)
    out = iir_apply(filt, x)
    ref = np.zeros(64)
    for n in range(64):
        acc = 0.0
        for i, bi in enumerate(filt.b):
            if n - i >= 0:
                acc += bi * x[n - i]
        for j, aj in enumerate(filt.a[1:], start=1):
            if n - j >= 0:
                acc -= aj * ref[n - j]
        ref[n] = acc
    np.testing.assert_allclose(out.ravel(), ref, atol=1e-9)


BLOCK_EDGE_LENGTHS = [0, 1, IIR_BLOCK - 1, IIR_BLOCK, IIR_BLOCK + 1, 3 * IIR_BLOCK + 5]


@pytest.mark.parametrize("r", [2, 4])
@pytest.mark.parametrize("length", BLOCK_EDGE_LENGTHS)
def test_iir_apply_matches_per_sample_loop(r, length):
    filt = cheby1_design(8, 0.05, 0.8 / r)
    x = np.random.default_rng(length).normal(size=length)
    _assert_close(iir_apply(filt, x), _sections_loop(filt, x), 1e-12)


@pytest.mark.parametrize("r", [2, 4])
def test_iir_apply_columns_match_per_sample_loop(r):
    filt = cheby1_design(8, 0.05, 0.8 / r)
    x = np.random.default_rng(10).normal(size=(3 * IIR_BLOCK + 5, 3))
    out = iir_apply(filt, x)
    assert out.shape == x.shape
    for c in range(3):
        _assert_close(out[:, c], _sections_loop(filt, x[:, c]), 1e-12)


@pytest.mark.parametrize("r", [8, 16, 32])
def test_iir_apply_matches_extended_precision_at_low_cutoffs(r):
    # the poles crowd towards z = 1 as the cutoff falls; the loop in
    # float64 on the order-8 b/a is 7e-10, 2e-7 and 7e-5 off here
    filt = cheby1_design(8, 0.05, 0.8 / r)
    x = np.random.default_rng(r).normal(size=2000)
    ref = _sections_loop(filt, x, np.longdouble)
    _assert_close(iir_apply(filt, x), ref.astype(np.float64), 1e-12)


def test_sections_form_the_transfer_function():
    for order in (1, 4, 5, 8):
        filt = cheby1_design(order, 0.05, 0.3)
        assert filt.sos.shape == ((order + 1) // 2, 6)
        assert filt.b.shape == filt.a.shape == (order + 1,)
        assert filt.a[0] == 1.0 and filt.is_stable()
        # every zero at z = -1, so b is binomial; DC gain 1, or the ripple
        # floor for an even order
        binomial = np.array([math.comb(order, k) for k in range(order + 1)])
        np.testing.assert_allclose(filt.b / filt.b[0], binomial, rtol=1e-12)
        assert abs(filt.b.sum() / filt.a.sum() - (1.0 if order % 2 else 10 ** (-0.05 / 20))) < 1e-12


# --- degrade ------------------------------------------------------------------


def test_degrade_halves_length():
    x = np.random.default_rng(2).normal(size=256)
    assert degrade(x, 2).shape[0] == 128


def test_degrade_attenuates_high_frequency():
    t = np.arange(2048)
    hi = np.sin(2 * np.pi * 0.45 * t)
    lo = np.sin(2 * np.pi * 0.02 * t)
    hi_energy = np.sum(degrade(hi, 2) ** 2) / np.sum(hi[::2] ** 2)
    lo_energy = np.sum(degrade(lo, 2) ** 2) / np.sum(lo[::2] ** 2)
    assert hi_energy < 1e-3
    assert lo_energy > 0.9


def test_degrade_rejects_bad_ratio():
    with pytest.raises(InvalidRate):
        degrade(np.zeros(16), 0)


def test_degrade_r1_is_near_identity_filter():
    # r=1 applies no filter: degrade returns an equal copy
    x = np.random.default_rng(3).normal(size=64)
    out = degrade(x, 1)
    assert np.array_equal(out, x) and out is not x


# --- STFT ---------------------------------------------------------------------


def test_stft_matches_direct_dft():
    rng = np.random.default_rng(4)
    x = rng.normal(size=64)
    spec = stft(x, frame_length=16, hop=8, window="rect")
    frame0 = x[:16]
    k = np.arange(9)
    n = np.arange(16)
    ref = np.exp(-2j * np.pi * np.outer(k, n) / 16) @ frame0
    np.testing.assert_allclose(spec.values[0], ref, atol=1e-10)


def test_stft_frame_count():
    spec = stft(np.zeros(100), frame_length=32, hop=16)
    assert spec.num_frames == (100 - 32) // 16 + 1


def test_stft_tone_concentrates_energy():
    t = np.arange(512)
    x = np.sin(2 * np.pi * (8 / 64) * t)
    spec = stft(x, frame_length=64, hop=32, window="rect")
    mags = np.abs(spec.values[0])
    assert np.argmax(mags) == 8


def test_stft_too_short():
    with pytest.raises(TooShort):
        stft(np.zeros(10), frame_length=32)


# --- metrics ------------------------------------------------------------------


def test_snr_zero_db_case():
    y = np.array([1.0, 0.0, 0.0, 0.0])
    x = np.array([1.0, 1.0, 0.0, 0.0])  # error energy equals ref energy
    assert abs(snr(x, y)) < 1e-9


def test_snr_3db_case():
    y = np.array([1.0, 1.0])
    x = np.array([0.0, 1.0])  # ratio 2 -> 10*log10(2)
    assert abs(snr(x, y) - 10 * math.log10(2.0)) < 1e-9


def test_snr_exact_match_is_infinite():
    x = np.array([1.0, 2.0])
    assert snr(x, x) == math.inf


def test_snr_errors():
    with pytest.raises(LengthMismatch):
        snr(np.zeros(3), np.zeros(4))
    with pytest.raises(ZeroReference):
        snr(np.ones(4), np.zeros(4))


def test_lsd_self_is_zero():
    x = np.random.default_rng(5).normal(size=256)
    assert lsd(x, x, frame_length=64) == 0.0


def test_lsd_constant_ratio_is_ln4():
    # doubling amplitude scales power by 4: LSD = ln 4 everywhere
    x = np.random.default_rng(6).normal(size=256) * 100.0
    val = lsd(2 * x, x, frame_length=64, window="rect")
    assert abs(val - math.log(4.0)) < 1e-6


def test_lsd_eps_keeps_silence_finite():
    x = np.zeros(128)
    y = np.random.default_rng(7).normal(size=128)
    assert math.isfinite(lsd(x, y, frame_length=64))
    assert EPS_SPEC > 0
