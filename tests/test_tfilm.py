"""TFiLM layer algebra: identity at init, shapes, causality, and the fused
tape ops against a numpy reference."""

import numpy as np
import pytest

from tfilm.errors import NonDivisibleLength, ShapeMismatch
from tfilm.layers import lstm_scan
from tfilm.modulation import (
    init_tfilm_params,
    tfilm_causality_probe,
    tfilm_forward,
)
from tfilm.tensor import Tensor


def _params(channels, block_len, seed=0, bidirectional=False):
    return init_tfilm_params(channels, block_len,
                             np.random.default_rng(seed),
                             bidirectional=bidirectional)


def _vjp(out, g):
    """Backward of sum(g * out) from ``out``, a tensor on the tape."""
    (out * Tensor(g)).sum().backward()


def _numpy_reference(x, p, weights):
    """The layer and its adjoint in numpy, in the order of the old
    composition from generic tape ops: max over each block, the scan, a
    projection to (gamma, beta), both broadcast to the size of ``x``. Only
    the scan, which is under test in its own right, runs on the tape.
    Returns the output and the gradients of sum(weights * output)."""
    for t in p.tensors():
        t.grad = None
    squeeze = x.ndim == 2
    if squeeze:
        x, weights = x[None], weights[None]
    n, t, c = x.shape
    num_blocks = t // p.block_len
    blocks = x.reshape(n, num_blocks, p.block_len, c)
    arg = np.argmax(blocks, axis=2)
    pooled = Tensor(np.max(blocks, axis=2), requires_grad=True)
    hidden = lstm_scan(pooled, p.lstm)
    flat = hidden.data.reshape(n * num_blocks, hidden.shape[2])
    proj = (flat @ p.proj_w.data.T + p.proj_b.data).reshape(n, num_blocks, 2 * c)
    gamma = proj[:, :, None, :c] + 1.0
    beta = proj[:, :, None, c:]
    out = (gamma * blocks + beta).reshape(n, t, c)

    g = weights.reshape(blocks.shape)
    dproj = np.concatenate([(g * blocks).sum(axis=2), g.sum(axis=2)], axis=2)
    dproj = dproj.reshape(n * num_blocks, 2 * c)
    _vjp(hidden, (dproj @ p.proj_w.data).reshape(hidden.shape))
    dpool = np.zeros_like(blocks)
    np.put_along_axis(dpool, arg[:, :, None], pooled.grad[:, :, None], axis=2)
    dx = (g * gamma + dpool).reshape(n, t, c)
    if squeeze:
        out, dx = out[0], dx[0]
    grads = {"x": dx}
    grads.update((nm, w.grad) for nm, w in p.lstm.named_tensors())
    grads["proj_w"] = (flat.T @ dproj).T
    grads["proj_b"] = dproj.sum(axis=0)
    return out, grads


def _output_and_grads(x, p, weights):
    """Output of the layer and the gradients of sum(weights * output) with
    respect to the input and each parameter tensor."""
    for t in p.tensors():
        t.grad = None
    xt = Tensor(x, requires_grad=True)
    out = tfilm_forward(xt, p)
    _vjp(out, weights)
    names = ["x"] + [nm for nm, _ in p.lstm.named_tensors()] + ["proj_w", "proj_b"]
    return out.data, dict(zip(names, [xt.grad] + [t.grad for t in p.tensors()]))


def _assert_matches_reference(x, p, seed):
    weights = np.random.default_rng(seed).normal(size=x.shape)
    out, grads = _output_and_grads(x, p, weights)
    ref_out, ref_grads = _numpy_reference(x, p, weights)
    assert np.array_equal(out, ref_out)
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert g is not None, name
        assert np.array_equal(g, ref_grads[name]), name


@pytest.mark.parametrize("bidirectional", [False, True])
@pytest.mark.parametrize("shape", [(1, 32, 3), (3, 32, 3), (32, 3)],
                         ids=["N1", "N3", "squeezed"])
def test_forward_and_grads_bit_equal_to_composition(shape, bidirectional):
    rng = np.random.default_rng(11)
    p = _params(3, 4, seed=12, bidirectional=bidirectional)
    p.proj_w.data = rng.normal(size=p.proj_w.shape) * 0.3
    p.proj_b.data = rng.normal(size=p.proj_b.shape) * 0.1
    _assert_matches_reference(rng.normal(size=shape), p, seed=13)


def test_pool_ties_route_to_earliest_index():
    """After a ReLU a block can be all zero or repeat its maximum; the
    pooled gradient goes to the first maximal sample, the one np.argmax
    picks."""
    rng = np.random.default_rng(14)
    p = _params(2, 4, seed=15)
    p.proj_w.data = rng.normal(size=p.proj_w.shape) * 0.3
    x = np.maximum(rng.normal(size=(2, 16, 2)), 0.0)
    x[0, 0:4, :] = 0.0                   # an all-zero block
    x[1, 4:8, 0] = [0.5, 2.0, 1.0, 2.0]  # a maximum at two indices
    x[1, 8:12, 1] = 3.0                  # a constant block
    _assert_matches_reference(x, p, seed=16)

    # with no output gradient on those blocks, their input gradient comes
    # only through the pool, and lands on the earliest maximum alone
    weights = rng.normal(size=x.shape)
    weights[0, 0:4] = 0.0
    weights[1, 4:12] = 0.0
    dx = _output_and_grads(x, p, weights)[1]["x"]
    assert np.all(dx[0, 0] != 0.0) and not dx[0, 1:4].any()
    assert dx[1, 5, 0] != 0.0 and not dx[1, [4, 6, 7], 0].any()
    assert dx[1, 8, 1] != 0.0 and not dx[1, 9:12, 1].any()


def test_identity_at_init_exact():
    rng = np.random.default_rng(5)
    p = _params(3, 4)
    x = Tensor(rng.normal(size=(16, 3)))
    out = tfilm_forward(x, p)
    # zero projection gives gamma = 1, beta = 0: output must be bit-exact
    assert np.array_equal(out.data, x.data)
    assert np.max(np.abs(out.data - x.data)) == 0.0


def test_identity_holds_batched():
    rng = np.random.default_rng(6)
    p = _params(2, 8)
    x = Tensor(rng.normal(size=(3, 32, 2)))
    assert np.array_equal(tfilm_forward(x, p).data, x.data)


def test_shape_trace_8_by_2():
    """(T=8, C=2) with B=2: four blocks, output shape preserved."""
    rng = np.random.default_rng(7)
    p = _params(2, 2, seed=1)
    p.proj_w.data = rng.normal(size=p.proj_w.shape)
    x = Tensor(rng.normal(size=(8, 2)))
    out = tfilm_forward(x, p)
    assert out.shape == (8, 2)


def test_affine_modulation_is_per_block():
    """Force a known gamma/beta via the projection bias and check blocks."""
    p = _params(1, 4, seed=2)
    # zero the LSTM contribution, set gamma-1 = 0.5 and beta = 0.25 via bias
    p.proj_w.data[:] = 0.0
    p.proj_b.data[:] = [0.5, 0.25]
    x = Tensor(np.ones((8, 1)))
    out = tfilm_forward(x, p)
    np.testing.assert_allclose(out.data, 1.5 * 1.0 + 0.25)


def test_rejects_non_divisible_length():
    p = _params(2, 4)
    with pytest.raises(NonDivisibleLength):
        tfilm_forward(Tensor(np.zeros((10, 2))), p)


def test_rejects_channel_mismatch():
    p = _params(2, 4)
    with pytest.raises(ShapeMismatch):
        tfilm_forward(Tensor(np.zeros((8, 3))), p)


def test_causality_unidirectional():
    rng = np.random.default_rng(8)
    p = _params(3, 4, seed=3)
    p.proj_w.data = rng.normal(size=p.proj_w.shape) * 0.5
    x = Tensor(rng.normal(size=(32, 3)))
    for block in (0, 3, 7):
        assert tfilm_causality_probe(x, p, block) == block


def test_causality_bidirectional_leaks_backward():
    rng = np.random.default_rng(9)
    p = _params(3, 4, seed=4, bidirectional=True)
    p.proj_w.data = rng.normal(size=p.proj_w.shape) * 0.5
    x = Tensor(rng.normal(size=(32, 3)))
    assert tfilm_causality_probe(x, p, 7) < 7


def test_probe_block_index_out_of_range():
    p = _params(2, 4)
    with pytest.raises(IndexError):
        tfilm_causality_probe(Tensor(np.zeros((8, 2))), p, 5)
