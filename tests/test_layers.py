"""Convolution, LSTM, subpixel shuffle and dropout."""

import tracemalloc

import numpy as np
import pytest

import tfilm.layers as layers
from tfilm.errors import (
    ChannelMismatch,
    ChannelsNotDivisible,
    KernelLargerThanInput,
)
from tfilm.layers import (
    _tile_len,
    conv1d,
    dropout,
    init_conv_params,
    init_lstm_params,
    lstm_scan,
    lstm_step,
    subpixel_shuffle,
)
from tfilm.tensor import Tensor, concat

RNG = lambda: np.random.default_rng(42)


# --- conv1d -------------------------------------------------------------------


def _naive_conv(x, w, b, stride, dilation, padding):
    n, t, cin = x.shape
    cout, _, k = w.shape
    k_eff = (k - 1) * dilation + 1
    if padding == "same":
        left = (k_eff - 1) // 2
        right = k_eff - 1 - left
        x = np.pad(x, ((0, 0), (left, right), (0, 0)))
        t = x.shape[1]
    t_out = (t - k_eff) // stride + 1
    out = np.zeros((n, t_out, cout))
    for nn in range(n):
        for ti in range(t_out):
            for co in range(cout):
                acc = b[co]
                for j in range(k):
                    acc += np.dot(x[nn, ti * stride + j * dilation], w[co, :, j])
                out[nn, ti, co] = acc
    return out


def _naive_conv_grads(x, w, stride, dilation, padding, g):
    """Gradients of sum(g * conv(x)) by the loops of _naive_conv."""
    n, t, cin = x.shape
    cout, _, k = w.shape
    k_eff = (k - 1) * dilation + 1
    left = (k_eff - 1) // 2 if padding == "same" else 0
    right = k_eff - 1 - left if padding == "same" else 0
    xp = np.pad(x, ((0, 0), (left, right), (0, 0)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for nn in range(n):
        for ti in range(g.shape[1]):
            for j in range(k):
                pos = ti * stride + j * dilation
                dw[:, :, j] += np.outer(g[nn, ti], xp[nn, pos])
                dxp[nn, pos] += w[:, :, j].T @ g[nn, ti]
    return dxp[:, left:left + t], dw, g.sum(axis=(0, 1))


@pytest.mark.parametrize("stride,dilation,padding,cin,k,t,tile", [
    pytest.param(1, 1, "valid", 3, 5, 12, 1, id="1-1-valid"),
    pytest.param(2, 1, "valid", 3, 5, 12, 1, id="2-1-valid"),
    pytest.param(1, 2, "valid", 3, 5, 12, 1, id="1-2-valid"),
    pytest.param(1, 1, "same", 3, 5, 12, 1, id="1-1-same"),
    pytest.param(2, 2, "same", 3, 5, 12, 1, id="2-2-same"),
    pytest.param(2, 2, "same", 1, 9, 12, 1, id="2-2-same-cin1-k9"),
    pytest.param(2, 2, "same", 24, 5, 256, 4, id="2-2-same-cin24-k5"),
    pytest.param(1, 1, "same", 64, 3, 128, 2, id="1-1-same-cin64-k3"),
    # tiles of L outputs with a ragged last tile (T' % L != 0); the kernel
    # spans M = ceil(((L-1)*s + k_eff) / (L*s)) tiles, 2 to 17 here
    pytest.param(1, 1, "same", 1, 33, 300, 8, id="tiles-cin1-k33"),
    pytest.param(1, 1, "same", 1, 65, 300, 8, id="tiles-cin1-k65"),
    pytest.param(2, 2, "same", 2, 33, 600, 8, id="tiles-cin2-k33-down"),
    pytest.param(2, 2, "same", 2, 65, 600, 8, id="tiles-cin2-k65-down"),
    pytest.param(1, 1, "same", 24, 33, 202, 4, id="tiles-cin24-k33"),
    pytest.param(1, 1, "same", 24, 65, 202, 4, id="tiles-cin24-k65"),
    pytest.param(1, 1, "same", 2, 9, 71, 2, id="tiles-k9-spans-5"),
    # the bottleneck: stride 2 at dilation 1, read through L*s-sample rows
    pytest.param(2, 1, "same", 16, 9, 522, 4, id="tiles-2-1-bottleneck"),
    pytest.param(1, 2, "valid", 2, 9, 150, 4, id="tiles-1-2-valid"),
])
def test_conv1d_matches_naive(stride, dilation, padding, cin, k, t, tile, request):
    rng = RNG()
    x = Tensor(rng.normal(size=(2, t, cin)), requires_grad=True)
    p = init_conv_params(4, cin, k, rng, stride=stride, dilation=dilation,
                         padding=padding)
    p.bias.data = rng.normal(size=4)
    out = conv1d(x, p)
    # the case runs the tile length it names, and a tiles- case a ragged
    # last tile
    buffer_stride = 1 if dilation % stride == 0 else stride
    assert _tile_len(buffer_stride * cin, 2 * out.shape[1]) == tile
    if request.node.callspec.id.startswith("tiles-"):
        assert out.shape[1] % tile
    ref = _naive_conv(x.data, p.weight.data, p.bias.data, stride, dilation, padding)
    np.testing.assert_allclose(out.data, ref, atol=1e-12)

    g = rng.normal(size=out.shape)
    (out * Tensor(g)).sum().backward()
    dx, dw, db = _naive_conv_grads(x.data, p.weight.data, stride, dilation,
                                   padding, g)
    np.testing.assert_allclose(x.grad, dx, atol=1e-12)
    np.testing.assert_allclose(p.weight.grad, dw, atol=1e-12)
    np.testing.assert_allclose(p.bias.grad, db, atol=1e-12)


def test_conv1d_keeps_no_column_buffer():
    # the output's backward holds the padded input, not k copies of it
    rng = RNG()
    p = init_conv_params(32, 32, 33, rng)
    x = Tensor(rng.normal(size=(2, 1024, 32)), requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = conv1d(x, p)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= 3 * (x.data.nbytes + out.data.nbytes)


def test_conv1d_batch_items_do_not_mix():
    # the items share one row space of tiles: a batch of 3 equals 3 calls
    # of 1, for the values and all three gradients
    rng = RNG()
    p = init_conv_params(4, 2, 33, rng, stride=2, dilation=2)
    p.bias.data = rng.normal(size=4)
    xs = rng.normal(size=(3, 600, 2)) * np.array([1.0, 1e3, 1.0])[:, None, None]
    g = rng.normal(size=(3, 300, 4))

    def run(x_data, g_out):
        x = Tensor(x_data, requires_grad=True)
        p.weight.grad = p.bias.grad = None
        out = conv1d(x, p)
        (out * Tensor(g_out)).sum().backward()
        return out.data, x.grad, p.weight.grad, p.bias.grad

    batch = run(xs, g)
    single = [run(xs[i:i + 1], g[i:i + 1]) for i in range(3)]
    for i in range(3):
        for a, b in zip(batch[:2], single[i][:2]):
            np.testing.assert_allclose(a[i:i + 1], b, rtol=1e-12, atol=1e-12)
    for j in (2, 3):
        np.testing.assert_allclose(batch[j], sum(s[j] for s in single),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n,t", [(300, 3), (2, 0)], ids=["shorter-than-a-tile", "empty"])
def test_conv1d_output_shorter_than_a_tile(n, t):
    rng = RNG()
    x = Tensor(rng.normal(size=(n, t, 1)), requires_grad=True)
    p = init_conv_params(4, 1, 9, rng)
    p.bias.data = rng.normal(size=4)
    out = conv1d(x, p)
    assert out.shape == (n, t, 4)
    if t:
        assert _tile_len(1, n * t) > t
    np.testing.assert_allclose(out.data, _naive_conv(x.data, p.weight.data, p.bias.data,
                                                     1, 1, "same"), atol=1e-12)
    g = rng.normal(size=out.shape)
    (out * Tensor(g)).sum().backward()
    dx, dw, db = _naive_conv_grads(x.data, p.weight.data, 1, 1, "same", g)
    np.testing.assert_allclose(x.grad, dx, atol=1e-12)
    np.testing.assert_allclose(p.weight.grad, dw, atol=1e-12)
    np.testing.assert_allclose(p.bias.grad, db, atol=1e-12)


@pytest.mark.parametrize("stride,dilation", [(1, 1), (2, 1)])
def test_conv1d_wide_input_holds_no_weight_copy(stride, dilation):
    # at C_in >= 65 a tile is one output: the GEMMs read the tap-major
    # weight itself, and the backward holds only the padded input
    rng = RNG()
    p = init_conv_params(256, 256, 9, rng, stride=stride, dilation=dilation)
    x = Tensor(rng.normal(size=(2, 256, 256)), requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = conv1d(x, p)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    # padded by k_eff - 1 samples, plus up to one to a whole stride
    padded = x.data.nbytes * (256 + p.effective_kernel) // 256
    slack = 16384
    assert held <= padded + out.data.nbytes + slack
    # at the peak the GEMM result, one GEMM product and the output are
    # alive; a weight copy, even a passing one, exceeds the bound
    assert peak <= padded + 3 * out.data.nbytes + slack
    assert 2 * out.data.nbytes + slack < p.weight.data.nbytes


def _direct_conv1d(x, p, monkeypatch):
    """conv1d with the frequency path switched off."""
    with monkeypatch.context() as m:
        m.setattr(layers, "_FREQ_MIN_SPAN", 10**9)
        return conv1d(x, p)


@pytest.mark.parametrize("n,t,cin,cout,k", [
    pytest.param(1, 2048, 70, 4, 65, id="n1-k65-whole-segments"),
    # 34 segments of 32 and a ragged 35th; 130 input channels are two
    # whole chunks and a ragged third
    pytest.param(3, 1100, 130, 5, 33, id="n3-k33-ragged"),
    # 66 segments of 64 in 3 groups, the last segment ragged
    pytest.param(1, 4200, 66, 3, 65, id="n1-k65-groups"),
    # one segment, shorter than its 64 samples
    pytest.param(3, 20, 65, 2, 33, id="n3-k33-one-short-segment"),
])
def test_freq_conv_matches_direct(n, t, cin, cout, k, monkeypatch):
    rng = RNG()
    x = Tensor(rng.normal(size=(n, t, cin)))
    p = init_conv_params(cout, cin, k, rng)
    p.bias.data = rng.normal(size=cout)
    seg = 1 << (2 * k - 3).bit_length()
    # the buffer conv1d pads for "same": (k - 1) // 2 zeros on the left
    pad = (k - 1) // 2
    buf = np.zeros((n, t + k - 1, cin))
    buf[:, pad:pad + t] = x.data
    got = layers._freq_conv(buf, p.weight.data.T, t, seg)
    want = _direct_conv1d(x, p, monkeypatch).data - p.bias.data
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_freq_conv_scratch_does_not_grow_with_length():
    # segments go in groups of 2048 outputs, so 4x the outputs take the
    # same scratch on top of the output
    rng = RNG()
    wt = rng.normal(size=(33, 80, 16))
    scratch = []
    for t in (4096, 16384):
        buf = rng.normal(size=(1, t + 32, 80))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = layers._freq_conv(buf, wt, t, 64)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        scratch.append(peak - out.nbytes)
    assert abs(scratch[1] - scratch[0]) <= 16384


def _spy_freq(monkeypatch):
    """Record (k, C_in, C_out, T') of each call of the frequency path."""
    calls = []
    real = layers._freq_conv

    def spy(buf, wt, t_out, seg):
        calls.append(wt.shape + (t_out,))
        return real(buf, wt, t_out, seg)

    monkeypatch.setattr(layers, "_freq_conv", spy)
    return calls


def test_freq_conv_of_zero_weights_is_exactly_zero(monkeypatch):
    # the identity at init rests on zero weights giving zero outputs
    rng = RNG()
    buf = rng.normal(size=(2, 1100 + 32, 70))
    assert not layers._freq_conv(buf, np.zeros((33, 70, 6)), 1100, 64).any()
    p = init_conv_params(6, 70, 33, rng, zero=True)
    p.bias.data = np.arange(6.0)
    calls = _spy_freq(monkeypatch)
    out = conv1d(Tensor(buf[:, :1024]), p)
    assert calls == [(33, 70, 6, 1024)]
    assert np.array_equal(out.data, np.broadcast_to(np.arange(6.0), out.shape))


@pytest.mark.parametrize("stride,dilation,k,t", [
    pytest.param(1, 1, 65, 512, id="s1-k65-at-4P"),
    # the down convs' stride 2 at dilation 2: a stride-1 read of the kept
    # samples, as at down2 of the paper-scale model
    pytest.param(2, 2, 33, 1030, id="down2-like-kept-samples"),
])
def test_conv1d_frequency_path_matches_direct_with_direct_gradients(
        stride, dilation, k, t, monkeypatch):
    rng = RNG()
    x = Tensor(rng.normal(size=(2, t, 80)), requires_grad=True)
    p = init_conv_params(7, 80, k, rng, stride=stride, dilation=dilation)
    p.bias.data = rng.normal(size=7)
    g = rng.normal(size=(2, -(-t // stride), 7))
    calls = _spy_freq(monkeypatch)
    results = []
    for conv in (conv1d, lambda x, p: _direct_conv1d(x, p, monkeypatch)):
        x.grad = p.weight.grad = p.bias.grad = None
        out = conv(x, p)
        (out * Tensor(g)).sum().backward()
        results.append((out.data, x.grad, p.weight.grad, p.bias.grad))
    assert calls == [(k, 80, 7, g.shape[1])]
    (y, *grads), (y_direct, *grads_direct) = results
    assert np.abs(y - y_direct).max() <= 1e-12 * np.abs(y_direct).max()
    # the backward is the direct one, whichever forward ran
    for a, b in zip(grads, grads_direct):
        assert np.array_equal(a, b)


def test_frequency_path_needs_long_kernels_and_outputs():
    # P = 64 at k 33 and 128 at k 65; T' from 4P on
    assert layers._freq_segment_len(33, 1, 1, 1, 256) == 64
    assert layers._freq_segment_len(65, 1, 1, 1, 512) == 128
    assert layers._freq_segment_len(65, 1, 1, 1, 511) == 0
    assert layers._freq_segment_len(17, 1, 1, 1, 4096) == 0
    for tile, s, d in ((2, 1, 1), (1, 2, 1), (1, 1, 2)):
        assert layers._freq_segment_len(65, tile, s, d, 4096) == 0


def test_conv1d_same_stride1_preserves_length():
    rng = RNG()
    p = init_conv_params(2, 1, 9, rng, stride=1, padding="same")
    out = conv1d(Tensor(rng.normal(size=(1, 40, 1))), p)
    assert out.shape == (1, 40, 2)


def test_conv1d_same_stride2_halves_length():
    rng = RNG()
    p = init_conv_params(2, 1, 9, rng, stride=2, padding="same")
    out = conv1d(Tensor(rng.normal(size=(1, 40, 1))), p)
    assert out.shape == (1, 20, 2)


def test_conv1d_channel_mismatch():
    rng = RNG()
    p = init_conv_params(2, 3, 3, rng)
    with pytest.raises(ChannelMismatch):
        conv1d(Tensor(rng.normal(size=(1, 10, 2))), p)


def test_conv1d_kernel_larger_than_input():
    rng = RNG()
    p = init_conv_params(2, 1, 9, rng, padding="valid")
    with pytest.raises(KernelLargerThanInput):
        conv1d(Tensor(rng.normal(size=(1, 4, 1))), p)


def _is_tap_major(a):
    return a.T.flags.c_contiguous


def test_conv_weight_is_tap_major_with_row_major_draw_values():
    p = init_conv_params(40, 3, 5, RNG())
    assert _is_tap_major(p.weight.data) and p.weight.shape == (40, 3, 5)
    bound = 1.0 / np.sqrt(3 * 5)
    want = RNG().uniform(-bound, bound, size=(40, 3, 5))
    assert np.array_equal(p.weight.data, want)
    # no rng: allocated, nothing drawn
    assert _is_tap_major(init_conv_params(4, 3, 5, None).weight.data)


@pytest.mark.parametrize("cin,t", [(1, 64), (24, 256)], ids=["cin1", "cin24"])
def test_conv1d_bit_equal_on_tap_major_and_row_major_weights(cin, t):
    rng = RNG()
    x_data = rng.normal(size=(2, t, cin))
    g = None
    results = []
    for order in ("F", "C"):
        p = init_conv_params(6, cin, 9, RNG(), stride=2, dilation=2)
        p.weight.data = np.array(p.weight.data, order=order)
        p.bias.data = np.arange(6.0)
        x = Tensor(x_data, requires_grad=True)
        out = conv1d(x, p)
        if g is None:
            g = rng.normal(size=out.shape)
        (out * Tensor(g)).sum().backward()
        results.append((out.data, x.grad, p.weight.grad, p.bias.grad))
        assert _is_tap_major(p.weight.grad)
    for a, b in zip(*results):
        assert np.array_equal(a, b)


def test_conv_zero_init():
    rng = RNG()
    p = init_conv_params(2, 1, 3, rng, zero=True)
    assert np.all(p.weight.data == 0.0) and np.all(p.bias.data == 0.0)


# --- lstm ---------------------------------------------------------------------


def test_lstm_step_reference():
    """One step against a direct numpy transcription of the gate equations."""
    rng = RNG()
    p = init_lstm_params(3, 4, rng)
    x = rng.normal(size=(2, 3))
    h = rng.normal(size=(2, 4))
    c = rng.normal(size=(2, 4))
    out, h2, c2 = lstm_step(Tensor(x), Tensor(h), Tensor(c), p)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    i = sig(x @ p.w_i.data.T + h @ p.u_i.data.T + p.b_i.data)
    f = sig(x @ p.w_f.data.T + h @ p.u_f.data.T + p.b_f.data)
    o = sig(x @ p.w_o.data.T + h @ p.u_o.data.T + p.b_o.data)
    g = np.tanh(x @ p.w_g.data.T + h @ p.u_g.data.T + p.b_g.data)
    c_ref = f * c + i * g
    h_ref = o * np.tanh(c_ref)
    np.testing.assert_allclose(c2.data, c_ref, atol=1e-12)
    np.testing.assert_allclose(h2.data, h_ref, atol=1e-12)
    np.testing.assert_allclose(out.data, h_ref, atol=1e-12)


def test_lstm_forget_bias_offset():
    p = init_lstm_params(2, 3, RNG())
    bound = 1.0 / np.sqrt(3)
    assert np.all(p.b_f.data > 1.0 - bound) and np.all(p.b_f.data < 1.0 + bound)


def _stepwise_direction(xs, p, reverse):
    n, steps, _ = xs.shape
    h = Tensor(np.zeros((n, p.hidden_size)))
    c = Tensor(np.zeros((n, p.hidden_size)))
    outs = [None] * steps
    for s in (range(steps - 1, -1, -1) if reverse else range(steps)):
        out, h, c = lstm_step(xs[:, s, :], h, c, p)
        outs[s] = out.reshape(n, 1, p.hidden_size)
    return concat(outs, axis=1)


def _stepwise_scan(xs, p):
    """Reference scan built from per-step tape ops."""
    fwd = _stepwise_direction(xs, p, reverse=False)
    if not p.bidirectional:
        return fwd
    return concat([fwd, _stepwise_direction(xs, p.reverse, reverse=True)], axis=2)


def test_lstm_scan_matches_stepwise():
    """Outputs and gradients of the fused scan against the per-step tape."""
    for bidirectional in (False, True):
        for steps in (1, 5):
            rng = RNG()
            p = init_lstm_params(2, 3, rng, bidirectional=bidirectional)
            xs = Tensor(rng.normal(size=(2, steps, 2)), requires_grad=True)
            weight = Tensor(rng.normal(size=(2, steps, 6 if bidirectional else 3)))
            leaves = [xs] + p.tensors()
            results = []
            for scan in (lstm_scan, _stepwise_scan):
                for t in leaves:
                    t.zero_grad()
                out = scan(xs, p)
                (out * weight).sum().backward()
                results.append((out.data, [t.grad for t in leaves]))
            (fused, fused_grads), (ref, ref_grads) = results
            np.testing.assert_allclose(fused, ref, atol=1e-12)
            assert len(fused_grads) == len(ref_grads) == 13 + 12 * bidirectional
            for a, b in zip(fused_grads, ref_grads):
                np.testing.assert_allclose(a, b, atol=1e-12)


def test_bidirectional_scan_concatenates_reverse():
    rng = RNG()
    p = init_lstm_params(2, 3, rng, bidirectional=True)
    xs = rng.normal(size=(1, 4, 2))
    out = lstm_scan(Tensor(xs), p)
    assert out.shape == (1, 4, 6)
    # reverse half equals a forward scan over the time-flipped input, flipped back
    assert p.bidirectional and not p.reverse.bidirectional
    rev_ref = lstm_scan(Tensor(xs[:, ::-1, :].copy()), p.reverse)
    np.testing.assert_allclose(out.data[:, :, 3:], rev_ref.data[:, ::-1, :],
                               atol=1e-12)


# --- subpixel / dropout -------------------------------------------------------


def test_subpixel_shuffle_interleaves():
    x = np.arange(12.0).reshape(1, 3, 4)
    out = subpixel_shuffle(Tensor(x), 2)
    assert out.shape == (1, 6, 2)
    # out[t*r + s, j] = x[t, j*r + s]: sub-samples interleave channel groups
    np.testing.assert_array_equal(out.data[0, 0], x[0, 0, 0::2])
    np.testing.assert_array_equal(out.data[0, 1], x[0, 0, 1::2])
    np.testing.assert_array_equal(out.data[0, 2], x[0, 1, 0::2])


def test_subpixel_requires_divisible_channels():
    with pytest.raises(ChannelsNotDivisible):
        subpixel_shuffle(Tensor(np.zeros((1, 4, 3))), 2)


def test_dropout_eval_is_identity():
    x = Tensor(np.ones((2, 4)))
    out = dropout(x, 0.5, mode="eval")
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_train_is_inverted_scale():
    x = Tensor(np.ones((1, 1000)))
    out = dropout(x, 0.5, rng=np.random.default_rng(0), mode="train")
    kept = out.data[out.data != 0.0]
    np.testing.assert_allclose(kept, 2.0)
    assert 350 < kept.size < 650


def test_dropout_zero_rate_identity():
    x = Tensor(np.ones((3,)))
    out = dropout(x, 0.0, rng=np.random.default_rng(0), mode="train")
    np.testing.assert_array_equal(out.data, x.data)
