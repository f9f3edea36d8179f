"""Tensor arithmetic, shape ops and the reverse-mode tape."""

import inspect

import numpy as np
import pytest

from tfilm.errors import NonDivisibleLength, NonScalarRoot, NoTape
from tfilm.model import ModelConfig, build_model
from tfilm.tensor import (
    BlockTensor,
    Tensor,
    concat,
    no_grad,
    reshape_from_blocks,
    reshape_to_blocks,
)
from tfilm.train import mse_loss


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


def test_reshape_transpose_roundtrip_gradient():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    y = x.reshape(3, 2).transpose((1, 0)).sum()
    y.backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_getitem_backward_scatters():
    x = Tensor(np.arange(5.0), requires_grad=True)
    y = x[1:4].sum()
    y.backward()
    np.testing.assert_array_equal(x.grad, [0, 1, 1, 1, 0])


def test_sum_mean_axis():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    np.testing.assert_array_equal(x.sum(axis=0).data, [3.0, 5.0, 7.0])
    np.testing.assert_allclose(x.mean(axis=1).data, [1.0, 4.0])


def test_relu_subgradient_zero_at_kink():
    x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
    x.relu().sum().backward()
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


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


# not ops: construction, display and the tape's own machinery
_BOOKKEEPING = {"__init__", "__repr__", "item", "backward", "zero_grad",
                "accumulate_grad", "_from_op", "_binary"}


def test_every_tensor_op_runs_in_the_model(monkeypatch):
    """A train step of the mini K=2 model, dropout on, and an eval ``infer``
    on a length that is not a whole unit call every op of ``Tensor``."""
    ops = [name for name, attr in vars(Tensor).items()
           if inspect.isfunction(attr) and name not in _BOOKKEEPING]
    called = set()

    def counted(name, fn):
        def op(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return op

    for name in ops:
        monkeypatch.setattr(Tensor, name, counted(name, vars(Tensor)[name]))
    cfg = ModelConfig(depth=2, patch_length=64, max_filters=8, tfilm_blocks=4,
                      dropout_rate=0.5)
    model = build_model(cfg, seed=7)
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(1, 64, 1)))
    y = Tensor(rng.normal(size=(1, 64, 1)))
    mse_loss(model.forward(x, mode="train", dropout_seed=0, step=0), y).backward()
    model.infer(rng.normal(size=(cfg.length_unit() + 3, 1)))
    assert sorted(set(ops) - called) == []
