"""Synthetic generators, pairing, masking and file formats."""

import numpy as np
import pytest

from tfilm.data import (
    PatchDataset,
    SignalAsset,
    make_pairs,
    make_patches,
    read_csv_signal,
    read_rawf32,
    read_wav,
    synth_signal,
    write_csv_signal,
    write_rawf32,
    write_wav,
    zero_mask,
)
from tfilm.errors import (
    BadMagic,
    InvalidRate,
    InvalidSpec,
    NonDivisibleLength,
    NonFiniteSamples,
    PatchTooLong,
    ShapeMismatch,
    TruncatedFile,
)


def test_asset_promotes_1d():
    a = SignalAsset(np.zeros(8))
    assert a.samples.shape == (8, 1)
    assert a.length == 8 and a.channels == 1


def test_asset_rejects_non_finite():
    with pytest.raises(NonFiniteSamples):
        SignalAsset(np.array([1.0, np.nan]))


def test_spec_of_an_empty_signal_is_invalid_spec():
    # the asset's data error, raised from a spec, is the spec's usage error
    with pytest.raises(ShapeMismatch):
        SignalAsset(np.zeros((0, 1)))
    with pytest.raises(InvalidSpec):
        synth_signal({"kind": "multisine", "length": 0,
                      "components": [{"freq": 0.1}]}, 0)


def test_synth_deterministic():
    spec = {"kind": "multisine", "length": 128,
            "components": [{"freq": 0.1}]}
    a = synth_signal(spec, seed=7)
    b = synth_signal(spec, seed=7)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, synth_signal(spec, seed=8).samples)


def test_multisine_single_tone_spectrum():
    spec = {"kind": "multisine", "length": 256,
            "components": [{"freq": 16 / 256, "amp": 1.0, "phase": 0.0}]}
    x = synth_signal(spec, seed=0).samples[:, 0]
    mags = np.abs(np.fft.rfft(x))
    assert np.argmax(mags) == 16


def test_multisine_needs_components():
    with pytest.raises(InvalidSpec):
        synth_signal({"kind": "multisine", "length": 64, "components": []}, 0)


def test_unknown_kind_rejected():
    with pytest.raises(InvalidSpec):
        synth_signal({"kind": "sawtooth", "length": 64}, 0)


def test_random_walk_starts_at_start():
    spec = {"kind": "random-walk", "length": 64, "step_std": 0.1, "start": 2.5}
    x = synth_signal(spec, seed=1).samples[:, 0]
    assert x[0] == 2.5


def test_chirp_builds():
    spec = {"kind": "chirp", "length": 128, "f0": 0.01, "f1": 0.2, "phase": 0.0}
    x = synth_signal(spec, seed=0)
    assert x.length == 128


def test_make_pairs_alignment_and_provenance():
    spec = {"kind": "multisine", "length": 256,
            "components": [{"freq": 0.05, "phase": 0.0}]}
    y = synth_signal(spec, seed=0)
    x, y2 = make_pairs(y, 2)
    assert y2 is y
    assert x.length == y.length
    assert x.provenance["degradation"]["ratio"] == 2


def test_make_pairs_rejects_non_divisible():
    y = SignalAsset(np.random.default_rng(0).normal(size=9))
    with pytest.raises(NonDivisibleLength):
        make_pairs(y, 2)


def test_make_patches_offsets_and_default_stride():
    x = SignalAsset(np.arange(64.0))
    ds = make_patches((x, x), patch_length=16)
    assert ds.stride == 8
    assert ds.offsets == list(range(0, 49, 8))
    np.testing.assert_array_equal(ds.pairs[1][0][:, 0], np.arange(8.0, 24.0))


def test_patch_dataset_concat_keeps_order_offsets_and_stride():
    a, b = SignalAsset(np.arange(64.0)), SignalAsset(np.arange(100.0, 140.0))
    parts = [make_patches((a, a), patch_length=16), make_patches((b, b), patch_length=16)]
    merged = PatchDataset.concat(parts, seed=5)
    assert (merged.patch_length, merged.stride, merged.seed) == (16, 8, 5)
    assert merged.offsets == parts[0].offsets + parts[1].offsets
    assert len(merged) == len(parts[0]) + len(parts[1])
    np.testing.assert_array_equal(merged.pairs[len(parts[0])][0], parts[1].pairs[0][0])


def test_make_patches_too_long():
    x = SignalAsset(np.zeros(8))
    with pytest.raises(PatchTooLong):
        make_patches((x, x), patch_length=16)


def test_zero_mask_exact_on_observed():
    rng = np.random.default_rng(2)
    x = rng.normal(size=1000)
    masked, mask = zero_mask(x, 0.3, seed=5)
    assert np.all(masked[mask] == 0.0)
    assert np.array_equal(masked[~mask], x[~mask])
    assert 0.2 < mask.mean() < 0.4


def test_zero_mask_deterministic():
    x = np.ones(100)
    m1, k1 = zero_mask(x, 0.2, seed=9)
    m2, k2 = zero_mask(x, 0.2, seed=9)
    assert np.array_equal(m1, m2) and np.array_equal(k1, k2)


def test_zero_mask_invalid_rate():
    with pytest.raises(InvalidRate):
        zero_mask(np.ones(4), 1.5, seed=0)


# --- file formats -------------------------------------------------------------


def test_rawf32_roundtrip(tmp_path):
    asset = SignalAsset(np.random.default_rng(3).normal(size=(50, 2)),
                        rate=16000, provenance={"origin": "test"})
    p = tmp_path / "sig.raw"
    write_rawf32(p, asset)
    back = read_rawf32(p)
    assert back.rate == 16000
    assert back.provenance == {"origin": "test"}
    # storage is float32
    np.testing.assert_allclose(back.samples, asset.samples, atol=1e-6)


def test_rawf32_bad_magic(tmp_path):
    p = tmp_path / "x.raw"
    p.write_bytes(b"JUNKxxxxxxxxxxxxxxxxxxxx")
    with pytest.raises(BadMagic):
        read_rawf32(p)


def test_rawf32_truncated(tmp_path):
    asset = SignalAsset(np.zeros(32), rate=8000)
    p = tmp_path / "x.raw"
    write_rawf32(p, asset)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(TruncatedFile):
        read_rawf32(p)


def test_wav_roundtrip_quantized(tmp_path):
    x = np.sin(2 * np.pi * 0.01 * np.arange(200)) * 0.5
    p = tmp_path / "x.wav"
    write_wav(p, SignalAsset(x, rate=16000))
    back = read_wav(p)
    assert back.rate == 16000
    np.testing.assert_allclose(back.samples[:, 0], x, atol=1.0 / 32768)


def test_csv_roundtrip_exact(tmp_path):
    x = np.random.default_rng(4).normal(size=(30, 2))
    p = tmp_path / "x.csv"
    write_csv_signal(p, SignalAsset(x, rate=10))
    back = read_csv_signal(p)
    # repr-precision floats survive the text round trip exactly
    assert np.array_equal(back.samples, x)
