"""Convolution, LSTM, subpixel shuffle and dropout."""

import itertools
import tracemalloc

import numpy as np
import pytest

import tfilm.layers as layers
from tfilm.errors import (
    ChannelMismatch,
    ChannelsNotDivisible,
)
from tfilm.layers import (
    _tile_len,
    conv1d,
    dropout,
    init_conv_params,
    init_lstm_params,
    lstm_scan,
    subpixel_shuffle,
)
from tfilm.tensor import Tensor

RNG = lambda: np.random.default_rng(42)


# --- conv1d -------------------------------------------------------------------


def _naive_conv(x, w, b, stride, dilation):
    n, _, cin = x.shape
    cout, _, k = w.shape
    k_eff = (k - 1) * dilation + 1
    left = (k_eff - 1) // 2
    x = np.pad(x, ((0, 0), (left, k_eff - 1 - left), (0, 0)))
    t_out = (x.shape[1] - k_eff) // stride + 1
    out = np.zeros((n, t_out, cout))
    for nn in range(n):
        for ti in range(t_out):
            for co in range(cout):
                acc = b[co]
                for j in range(k):
                    acc += np.dot(x[nn, ti * stride + j * dilation], w[co, :, j])
                out[nn, ti, co] = acc
    return out


def _naive_conv_grads(x, w, stride, dilation, g):
    """Gradients of sum(g * conv(x)) by the loops of _naive_conv, each
    step over all items at once."""
    n, t, cin = x.shape
    cout, _, k = w.shape
    k_eff = (k - 1) * dilation + 1
    left = (k_eff - 1) // 2
    xp = np.pad(x, ((0, 0), (left, k_eff - 1 - left), (0, 0)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for ti in range(g.shape[1]):
        for j in range(k):
            pos = ti * stride + j * dilation
            dw[:, :, j] += g[:, ti].T @ xp[:, pos]
            dxp[:, pos] += g[:, ti] @ w[:, :, j]
    return dxp[:, left:left + t], dw, g.sum(axis=(0, 1))


# 1-2 and tiles-1-2 are the cases that read their buffer at dilation 2;
# the 2-2 ones keep every other padded sample and read it at dilation 1
@pytest.mark.parametrize("stride,dilation,cin,k,t,tile", [
    pytest.param(2, 1, 3, 5, 12, 1, id="2-1-same"),
    pytest.param(1, 2, 3, 5, 12, 1, id="1-2-same"),
    pytest.param(1, 1, 3, 5, 12, 1, id="1-1-same"),
    pytest.param(2, 2, 3, 5, 12, 1, id="2-2-same"),
    pytest.param(2, 2, 1, 9, 12, 1, id="2-2-same-cin1-k9"),
    pytest.param(2, 2, 24, 5, 256, 4, id="2-2-same-cin24-k5"),
    pytest.param(1, 1, 64, 3, 128, 2, id="1-1-same-cin64-k3"),
    # tiles of L outputs with a ragged last tile (T' % L != 0); the kernel
    # spans M = ceil(((L-1)*s + k_eff) / (L*s)) tiles, 2 to 17 here
    pytest.param(1, 1, 1, 33, 300, 8, id="tiles-cin1-k33"),
    pytest.param(1, 1, 1, 65, 300, 8, id="tiles-cin1-k65"),
    pytest.param(2, 2, 2, 33, 600, 8, id="tiles-cin2-k33-down"),
    pytest.param(2, 2, 2, 65, 600, 8, id="tiles-cin2-k65-down"),
    pytest.param(1, 1, 24, 33, 202, 4, id="tiles-cin24-k33"),
    pytest.param(1, 1, 24, 65, 202, 4, id="tiles-cin24-k65"),
    pytest.param(1, 1, 2, 9, 71, 2, id="tiles-k9-spans-5"),
    # the bottleneck: stride 2 at dilation 1, read through L*s-sample rows
    pytest.param(2, 1, 16, 9, 522, 4, id="tiles-2-1-bottleneck"),
    pytest.param(1, 2, 2, 9, 150, 4, id="tiles-1-2-same"),
])
def test_conv1d_matches_naive(stride, dilation, cin, k, t, tile, request):
    rng = RNG()
    x = Tensor(rng.normal(size=(2, t, cin)), requires_grad=True)
    p = init_conv_params(4, cin, k, rng, stride=stride, dilation=dilation)
    p.bias.data = rng.normal(size=4)
    out = conv1d(x, p)
    # the case runs the tile length it names, and a tiles- case a ragged
    # last tile
    buffer_stride = 1 if dilation % stride == 0 else stride
    assert _tile_len(buffer_stride * cin, 2 * out.shape[1]) == tile
    if request.node.callspec.id.startswith("tiles-"):
        assert out.shape[1] % tile
    ref = _naive_conv(x.data, p.weight.data, p.bias.data, stride, dilation)
    np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-12)

    g = rng.normal(size=out.shape)
    (out * Tensor(g)).sum().backward()
    dx, dw, db = _naive_conv_grads(x.data, p.weight.data, stride, dilation, g)
    np.testing.assert_allclose(x.grad, dx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(p.weight.grad, dw, rtol=0, atol=1e-12)
    np.testing.assert_allclose(p.bias.grad, db, rtol=0, atol=1e-12)


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
                                                     1, 1), rtol=0, atol=1e-12)
    g = rng.normal(size=out.shape)
    (out * Tensor(g)).sum().backward()
    dx, dw, db = _naive_conv_grads(x.data, p.weight.data, 1, 1, g)
    np.testing.assert_allclose(x.grad, dx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(p.weight.grad, dw, rtol=0, atol=1e-12)
    np.testing.assert_allclose(p.bias.grad, db, rtol=0, atol=1e-12)


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
        m.setattr(layers, "_FREQ_MIN_OUTPUTS", 10**9)
        return conv1d(x, p)


def _freq_buffer(x, k, seg):
    """The buffer conv1d pads for a "same" conv on the frequency path:
    (k - 1) // 2 zeros on the left, then zeros up to n_seg + 1 half-blocks
    of seg/2 samples."""
    n, t, c = x.shape
    blen = seg // 2
    buf = np.zeros((n, (-(-t // blen) + 1) * blen, c))
    buf[:, (k - 1) // 2:(k - 1) // 2 + t] = x
    return buf


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("n,t,cin,cout,k", [
    pytest.param(1, 2048, 70, 4, 65, id="n1-k65-whole-segments"),
    # 34 segments of 32 and a ragged 35th; 130 input channels are two
    # whole chunks and a ragged third
    pytest.param(3, 1100, 130, 5, 33, id="n3-k33-ragged"),
    # 66 segments of 64 in 3 groups, the last segment ragged
    pytest.param(1, 4200, 66, 3, 65, id="n1-k65-groups"),
    # one segment, shorter than its 32 outputs
    pytest.param(3, 20, 65, 2, 33, id="n3-k33-one-short-segment"),
])
def test_freq_conv_matches_direct(n, t, cin, cout, k, monkeypatch):
    rng = RNG()
    x = Tensor(rng.normal(size=(n, t, cin)))
    p = init_conv_params(cout, cin, k, rng)
    p.bias.data = rng.normal(size=cout)
    seg = 1 << (2 * k - 3).bit_length()
    got = layers._freq_conv(_freq_buffer(x.data, k, seg), p.weight.data.T, t, seg)
    want = _direct_conv1d(x, p, monkeypatch).data - p.bias.data
    assert got.shape == want.shape
    assert _rel_err(got, want) <= 1e-12


def _max_traced(f):
    """f()'s result and the peak of memory it allocated, over what was
    allocated before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = f()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_freq_conv_scratch_does_not_grow_with_length():
    # segments go in groups of 2048 outputs, so 4x the outputs take the
    # same scratch on top of the output, in the forward and the backward,
    # with the real form on the input (80 channels, two chunks) or on the
    # weight (16 channels, one chunk), with whole segments of 32 outputs
    # or a ragged last one
    rng = RNG()
    for cin in (80, 16):
        wt = rng.normal(size=(33, cin, 16))
        for lengths in ((4096, 16384), (4100, 16388)):
            scratch = []
            for t in lengths:
                buf = rng.normal(size=(1, (-(-t // 32) + 1) * 32, cin))
                g = rng.normal(size=(1, t, 16))
                out, peak = _max_traced(lambda: layers._freq_conv(buf, wt, t, 64))
                (dwt, dbuf), peak_grads = _max_traced(
                    lambda: layers._freq_conv_grads(buf, wt, g, 64))
                scratch.append((peak - out.base.nbytes,
                                peak_grads - dwt.nbytes - dbuf.nbytes))
            for small, large in zip(*scratch):
                assert abs(large - small) <= 16384, (cin, lengths, scratch)


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
    # the identity at init rests on zero weights giving zero outputs, and
    # zero input gradients, with the real form on either side
    rng = RNG()
    for cin in (70, 8):
        buf = rng.normal(size=(2, 1024 + 32, cin))
        assert not layers._freq_conv(buf, np.zeros((33, cin, 6)), 1024, 64).any()
        p = init_conv_params(6, cin, 33, rng, zero=True)
        p.bias.data = np.arange(6.0)
        calls = _spy_freq(monkeypatch)
        x = Tensor(buf[:, :1024], requires_grad=True)
        out = conv1d(x, p)
        assert calls == [(33, cin, 6, 1024)]
        assert np.array_equal(out.data, np.broadcast_to(np.arange(6.0), out.shape))
        (out * Tensor(rng.normal(size=out.shape))).sum().backward()
        assert not x.grad.any()
        assert p.weight.grad.any()


@pytest.mark.parametrize("n,t,cin,cout,k,stride,dilation", [
    pytest.param(2, 512, 80, 7, 65, 1, 1, id="s1-k65-at-4P"),
    # the down convs' stride 2 at dilation 2: a stride-1 read of the kept
    # samples, as at down2 of the paper-scale model
    pytest.param(2, 1030, 80, 7, 33, 2, 2, id="down2-like-kept-samples"),
    # a ragged last segment of each of 3 items (1100 = 34*32 + 12)
    pytest.param(3, 1100, 20, 5, 33, 1, 1, id="n3-ragged"),
    # 130 input channels: two whole chunks of 64 and a ragged third
    pytest.param(2, 300, 130, 3, 33, 1, 1, id="cin130-chunks"),
    # k 17: 263 segments of 16 outputs in 3 groups (128, 128 and 7), at
    # one chunk and at two
    pytest.param(1, 4200, 6, 3, 17, 1, 1, id="groups-one-chunk"),
    pytest.param(1, 4200, 66, 3, 17, 1, 1, id="groups-two-chunks"),
    # up2 of the super-resolution model in a training batch
    pytest.param(16, 512, 24, 16, 65, 1, 1, id="sr-up2-n16"),
])
def test_conv1d_frequency_path_matches_naive_and_direct(
        n, t, cin, cout, k, stride, dilation, monkeypatch):
    rng = RNG()
    x = Tensor(rng.normal(size=(n, t, cin)), requires_grad=True)
    p = init_conv_params(cout, cin, k, rng, stride=stride, dilation=dilation)
    p.bias.data = rng.normal(size=cout)
    g = rng.normal(size=(n, -(-t // stride), cout))
    calls = _spy_freq(monkeypatch)
    results = []
    for conv in (conv1d, lambda x, p: _direct_conv1d(x, p, monkeypatch)):
        x.grad = p.weight.grad = p.bias.grad = None
        out = conv(x, p)
        (out * Tensor(g)).sum().backward()
        results.append((out.data, x.grad, p.weight.grad, p.bias.grad))
    assert calls == [(k, cin, cout, g.shape[1])]
    (y, *grads), (y_direct, *grads_direct) = results
    assert _rel_err(y, y_direct) <= 1e-12
    naive = _naive_conv_grads(x.data, p.weight.data, stride, dilation, g)
    for got, direct, want in zip(grads, grads_direct, naive):
        assert _rel_err(got, want) <= 1e-12
        assert _rel_err(got, direct) <= 1e-12
    # tap-major, like the weight
    assert p.weight.grad.flags.f_contiguous


def test_conv1d_frequency_path_batch_equals_items(monkeypatch):
    # the items of a batch share the segment groups (4 items of 8
    # segments each here) but not their outputs or input gradients
    rng = RNG()
    x = rng.normal(size=(6, 512, 12))
    p = init_conv_params(5, 12, 65, rng)
    g = rng.normal(size=(6, 512, 5))
    calls = _spy_freq(monkeypatch)
    per_item = []
    for xs, gs in [(x, g)] + [(x[i:i + 1], g[i:i + 1]) for i in range(6)]:
        xt = Tensor(xs, requires_grad=True)
        p.weight.grad = p.bias.grad = None
        out = conv1d(xt, p)
        (out * Tensor(gs)).sum().backward()
        per_item.append((out.data, xt.grad, p.weight.grad))
    assert len(calls) == 7
    (y, dx, dw), items = per_item[0], per_item[1:]
    assert _rel_err(y, np.concatenate([r[0] for r in items])) <= 1e-12
    assert _rel_err(dx, np.concatenate([r[1] for r in items])) <= 1e-12
    assert _rel_err(dw, sum(r[2] for r in items)) <= 1e-12


def test_frequency_path_needs_long_kernels_and_outputs():
    # P = 32 at k 17, 64 at k 33 and 128 at k 65; T' from 256 on
    assert layers._freq_segment_len(33, 16, 1, 1, 256) == 64
    assert layers._freq_segment_len(33, 16, 1, 1, 255) == 0
    assert layers._freq_segment_len(65, 16, 1, 1, 256) == 128
    assert layers._freq_segment_len(65, 16, 1, 1, 255) == 0
    assert layers._freq_segment_len(17, 16, 1, 1, 256) == 32
    assert layers._freq_segment_len(17, 16, 1, 1, 255) == 0
    assert layers._freq_segment_len(9, 512, 1, 1, 4096) == 0
    # from 4 input channels on
    assert layers._freq_segment_len(65, 4, 1, 1, 4096) == 128
    assert layers._freq_segment_len(65, 3, 1, 1, 4096) == 0
    for s, d in ((2, 1), (1, 2)):
        assert layers._freq_segment_len(65, 16, s, d, 4096) == 0


def test_conv1d_same_stride1_preserves_length():
    rng = RNG()
    p = init_conv_params(2, 1, 9, rng, stride=1)
    out = conv1d(Tensor(rng.normal(size=(1, 40, 1))), p)
    assert out.shape == (1, 40, 2)


def test_conv1d_same_stride2_halves_length():
    rng = RNG()
    p = init_conv_params(2, 1, 9, rng, stride=2)
    out = conv1d(Tensor(rng.normal(size=(1, 40, 1))), p)
    assert out.shape == (1, 20, 2)


def test_conv1d_channel_mismatch():
    rng = RNG()
    p = init_conv_params(2, 3, 3, rng)
    with pytest.raises(ChannelMismatch):
        conv1d(Tensor(rng.normal(size=(1, 10, 2))), p)


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


def test_lstm_forget_bias_offset():
    p = init_lstm_params(2, 3, RNG())
    bound = 1.0 / np.sqrt(3)
    assert np.all(p.b_f.data > 1.0 - bound) and np.all(p.b_f.data < 1.0 + bound)


def _stepwise_direction(x, p, reverse, g):
    """One direction of the LSTM in numpy, gate by gate and step by step,
    and its textbook BPTT for the output gradient ``g``. Returns the
    output, dx and the gate tensors' gradients by name."""
    n, steps, _ = x.shape
    w = {k: getattr(p, f"w_{k}").data for k in "ifog"}
    u = {k: getattr(p, f"u_{k}").data for k in "ifog"}
    b = {k: getattr(p, f"b_{k}").data for k in "ifog"}
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    h, c = np.zeros((n, p.hidden_size)), np.zeros((n, p.hidden_size))
    out, saved = np.empty((n, steps, p.hidden_size)), {}
    for s in order:
        pre = {k: x[:, s] @ w[k].T + h @ u[k].T + b[k] for k in "ifog"}
        a = {k: 1.0 / (1.0 + np.exp(-pre[k])) for k in "ifo"}
        a["g"] = np.tanh(pre["g"])
        h_prev, c_prev = h, c
        c = a["f"] * c + a["i"] * a["g"]
        h = out[:, s] = a["o"] * np.tanh(c)
        saved[s] = (h_prev, c_prev, np.tanh(c), a)
    grads = {f"{m}_{k}": np.zeros_like(getattr(p, f"{m}_{k}").data)
             for m in "wub" for k in "ifog"}
    dx = np.zeros_like(x)
    dh_next, dc_next = np.zeros_like(h), np.zeros_like(c)
    for s in reversed(order):
        h_prev, c_prev, tanh_c, a = saved[s]
        dh = g[:, s] + dh_next
        dc = dc_next + dh * a["o"] * (1.0 - tanh_c ** 2)
        dpre = {"i": dc * a["g"] * a["i"] * (1.0 - a["i"]),
                "f": dc * c_prev * a["f"] * (1.0 - a["f"]),
                "o": dh * tanh_c * a["o"] * (1.0 - a["o"]),
                "g": dc * a["i"] * (1.0 - a["g"] ** 2)}
        dc_next, dh_next = dc * a["f"], 0.0
        for k, d in dpre.items():
            grads[f"w_{k}"] += d.T @ x[:, s]
            grads[f"u_{k}"] += d.T @ h_prev
            grads[f"b_{k}"] += d.sum(axis=0)
            dx[:, s] += d @ w[k]
            dh_next = dh_next + d @ u[k]
    return out, dx, grads


def _stepwise_scan(x, p, g):
    """Output, dx and the gradients of ``p.tensors()`` of the scan, from
    :func:`_stepwise_direction` over each direction."""
    out, dx, grads = _stepwise_direction(x, p, False, g[:, :, :p.hidden_size])
    if p.bidirectional:
        rev = _stepwise_direction(x, p.reverse, True, g[:, :, p.hidden_size:])
        out = np.concatenate([out, rev[0]], axis=2)
        dx = dx + rev[1]
        grads.update((f"rev.{nm}", v) for nm, v in rev[2].items())
    return out, dx, [grads[nm] for nm, _ in p.named_tensors()]


def _scaled_lstm(rng, bidirectional, steps, reach):
    """Input and cell weights; at a ``reach`` the input and W are scaled
    by sqrt(k) and U and b by k, so that the largest first-step gate
    pre-activation x @ W.T + b of the forward cell is ``reach`` in
    magnitude."""
    p = init_lstm_params(2, 3, rng, bidirectional=bidirectional)
    x = rng.normal(size=(2, steps, 2))
    if reach is None:
        return p, x
    k = reach / max(np.abs(x @ getattr(p, f"w_{gate}").data.T
                           + getattr(p, f"b_{gate}").data).max() for gate in "ifog")
    for nm, t in p.named_tensors():
        t.data = t.data * (np.sqrt(k) if nm.split(".")[-1][0] == "w" else k)
    return p, x * np.sqrt(k)


def test_lstm_scan_matches_stepwise():
    """Outputs and gradients of the fused scan against the numpy steps; at
    a ``reach`` the gate pre-activations run into the tails, where the exp
    form overflows and the scan must raise no floating-point error."""
    for reach, bidirectional, steps in itertools.product(
            (None, 40.0, 800.0), (False, True), (1, 5)):
        rng = RNG()
        p, x = _scaled_lstm(rng, bidirectional, steps, reach)
        weight = rng.normal(size=(2, steps, 6 if bidirectional else 3))
        xs = Tensor(x, requires_grad=True)
        with np.errstate(all="raise"):
            out = lstm_scan(xs, p)
            (out * Tensor(weight)).sum().backward()
        with np.errstate(over="ignore"):
            ref, ref_dx, ref_grads = _stepwise_scan(x, p, weight)
        np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(xs.grad, ref_dx, rtol=0, atol=1e-12)
        assert len(ref_grads) == 12 + 12 * bidirectional
        for t, want in zip(p.tensors(), ref_grads):
            np.testing.assert_allclose(t.grad, want, rtol=0, atol=1e-12)


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
                               rtol=0, atol=1e-12)


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
