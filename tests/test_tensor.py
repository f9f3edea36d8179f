"""Tensor arithmetic, shape ops and the reverse-mode tape."""

import numpy as np
import pytest

from tfilm.errors import NonDivisibleLength, NonScalarRoot, NoTape, ShapeMismatch
from tfilm.tensor import (
    BlockTensor,
    Tensor,
    concat,
    no_grad,
    reshape_from_blocks,
    reshape_to_blocks,
    sigmoid,
)


def test_construction_promotes_to_float64():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.shape == (2, 2)


def test_scalar_item():
    assert Tensor(3.5).item() == 3.5


def test_add_mul_forward():
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0, 4.0])
    np.testing.assert_array_equal((a + b).data, [4.0, 6.0])
    np.testing.assert_array_equal((a * b).data, [3.0, 8.0])
    np.testing.assert_array_equal((a - b).data, [-2.0, -2.0])


def test_backward_through_chain():
    x = Tensor([2.0, 3.0], requires_grad=True)
    y = ((x * x) + x).sum()
    y.backward()
    np.testing.assert_allclose(x.grad, [5.0, 7.0])


def test_backward_requires_scalar_root():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(NonScalarRoot):
        (x * 2.0).backward()


def test_grad_accumulates_across_uses():
    x = Tensor([1.0], requires_grad=True)
    y = (x + x + x).sum()
    y.backward()
    np.testing.assert_allclose(x.grad, [3.0])


def test_zero_grad():
    x = Tensor([1.0], requires_grad=True)
    (x * 2.0).sum().backward()
    assert x.grad is not None
    x.zero_grad()
    assert x.grad is None


def test_matmul_forward_backward():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    out = a @ b
    np.testing.assert_allclose(out.data, a.data @ b.data)
    out.sum().backward()
    np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T)
    np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 2)))


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))


def test_reshape_transpose_roundtrip_gradient():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    y = x.reshape(3, 2).transpose((1, 0)).sum()
    y.backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_broadcast_backward_sums_expanded_axes():
    x = Tensor(np.ones((1, 3)), requires_grad=True)
    y = x.broadcast_to((4, 3)).sum()
    y.backward()
    np.testing.assert_array_equal(x.grad, np.full((1, 3), 4.0))


def test_getitem_backward_scatters():
    x = Tensor(np.arange(5.0), requires_grad=True)
    y = x[1:4].sum()
    y.backward()
    np.testing.assert_array_equal(x.grad, [0, 1, 1, 1, 0])


def test_sum_mean_axis():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    np.testing.assert_array_equal(x.sum(axis=0).data, [3.0, 5.0, 7.0])
    np.testing.assert_allclose(x.mean(axis=1).data, [1.0, 4.0])


def test_max_first_argmax_tie():
    x = Tensor([[2.0, 2.0, 1.0]], requires_grad=True)
    x.max(axis=1).sum().backward()
    # gradient flows only to the first of the tied maxima
    np.testing.assert_array_equal(x.grad, [[1.0, 0.0, 0.0]])


@pytest.mark.parametrize("axis", [0, 1, 2, -1])
def test_max_backward_bit_equal_to_scatter_add(axis):
    # the scatter-add formula the assignment replaced, on data with ties
    rng = np.random.default_rng(11)
    data = rng.integers(0, 3, size=(3, 4, 5)).astype(np.float64)
    g = rng.normal(size=np.delete(data.shape, axis % 3))
    x = Tensor(data, requires_grad=True)
    (x.max(axis=axis) * Tensor(g)).sum().backward()
    arg = np.argmax(data, axis=axis)
    idx = list(np.indices(arg.shape))
    idx.insert(axis % 3, arg)
    ref = np.zeros_like(data)
    np.add.at(ref, tuple(idx), g)
    assert x.grad.tobytes() == ref.tobytes()


def test_relu_subgradient_zero_at_kink():
    x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
    x.relu().sum().backward()
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


def test_sigmoid_tanh_values():
    x = Tensor([0.0])
    np.testing.assert_allclose(x.sigmoid().data, [0.5])
    np.testing.assert_allclose(x.tanh().data, [0.0])


def test_sigmoid_bit_identical_to_piecewise_formula():
    x = np.concatenate([np.random.default_rng(3).normal(scale=8.0, size=1000),
                        [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0]])
    ref = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    assert Tensor(x).sigmoid().data.tobytes() == ref.tobytes()
    assert sigmoid(x).tobytes() == ref.tobytes()


def test_concat_backward_splits():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    out = concat([a, b], axis=1)
    assert out.shape == (2, 5)
    (out * 2.0).sum().backward()
    np.testing.assert_array_equal(a.grad, np.full((2, 2), 2.0))
    np.testing.assert_array_equal(b.grad, np.full((2, 3), 2.0))


def test_pass_through_gradients_are_copied():
    # add hands one gradient array to both parents, sub and reshape,
    # transpose and concat pass it or a view of it on: no two tensors'
    # gradients may share memory
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    s = a + b
    r = s.reshape(3, 2)
    t = r.transpose((1, 0))
    d = a - b
    cat = concat([t, d], axis=1)
    loss = (cat * cat).sum()
    loss.backward()
    grads = [x.grad for x in (a, b, s, r, t, d, cat, loss)]
    for i, g in enumerate(grads):
        for h in grads[i + 1:]:
            assert not np.shares_memory(g, h)
    # permutations keep the sum of squares: 2(a+b) + 2(a-b) and 2(a+b) - 2(a-b)
    np.testing.assert_allclose(a.grad, 4.0 * a.data)
    np.testing.assert_allclose(b.grad, 4.0 * b.data)


def test_div_by_scalar():
    x = Tensor([2.0], requires_grad=True)
    (x * x * x / 2.0).sum().backward()
    np.testing.assert_allclose(x.grad, [6.0])


# --- block reshape ------------------------------------------------------------


def test_block_roundtrip_bit_exact():
    rng = np.random.default_rng(1)
    f = Tensor(rng.normal(size=(12, 3)))
    blocks = reshape_to_blocks(f, 4)
    assert isinstance(blocks, BlockTensor)
    assert (blocks.num_blocks, blocks.block_len, blocks.channels) == (3, 4, 3)
    back = reshape_from_blocks(blocks)
    assert np.array_equal(back.data, f.data)


def test_block_reshape_rejects_non_divisible():
    with pytest.raises(NonDivisibleLength):
        reshape_to_blocks(Tensor(np.zeros((10, 2))), 4)


def test_backward_without_tape_raises():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with no_grad():
        loss = (w * w).sum()
    with pytest.raises(NoTape):
        loss.backward()
    with pytest.raises(NoTape):
        (Tensor([1.0, 2.0]) * 3.0).sum().backward()
    assert w.grad is None
