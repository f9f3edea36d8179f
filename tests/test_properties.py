"""Property-based invariants over the tensor and DSP layers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tfilm.dsp import snr, stft
from tfilm.layers import subpixel_shuffle
from tfilm.tensor import Tensor, concat

FLOATS = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                   allow_infinity=False, width=64)


def _arr(shape):
    return arrays(np.float64, shape, elements=FLOATS)


@given(
    arrays(np.float64, array_shapes(min_dims=1, max_dims=4, min_side=1,
                                    max_side=5), elements=FLOATS)
)
@settings(max_examples=60, deadline=None)
def test_reshape_roundtrip(data):
    t = Tensor(data)
    flat = t.reshape(data.size)
    back = flat.reshape(*data.shape)
    assert np.array_equal(back.data, data)


@given(_arr((2, 3)), _arr((2, 4)), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_concat_slice_recovers(a, b, start):
    out = concat([Tensor(a), Tensor(b)], axis=1)
    assert np.array_equal(out.data[:, :3], a)
    assert np.array_equal(out.data[:, 3:], b)


@given(_arr((2, 5, 6)))
@settings(max_examples=40, deadline=None)
def test_subpixel_is_a_bijection(x):
    out = subpixel_shuffle(Tensor(x), 2).data
    assert out.shape == (2, 10, 3)
    assert sorted(out.ravel().tolist()) == sorted(x.ravel().tolist())


@given(_arr((64,)), st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=40, deadline=None)
def test_snr_scale_invariant(y, scale):
    if np.sum(y * y) < 1e-6:
        return
    x = y + 0.1
    base = snr(x, y)
    scaled = snr(scale * x, scale * y)
    assert abs(base - scaled) < 1e-6


@given(_arr((128,)), _arr((128,)))
@settings(max_examples=30, deadline=None)
def test_stft_linearity(a, b):
    sa = stft(a, frame_length=32, hop=16).values
    sb = stft(b, frame_length=32, hop=16).values
    sab = stft(a + b, frame_length=32, hop=16).values
    scale = max(np.max(np.abs(sab)), 1.0)
    assert np.max(np.abs(sab - (sa + sb))) / scale < 1e-10
