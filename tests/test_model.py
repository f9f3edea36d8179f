"""Model assembly, architecture formulas, forward pass and checkpoints."""

import json
import os
import struct
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from tfilm.errors import (
    BadCheckpointConfig,
    BadMagic,
    ConfigInvariantViolation,
    LengthInvariantViolation,
    NonDivisibleLength,
    ShapeMismatch,
    TruncatedFile,
)
import tfilm.model as tmodel
from tfilm.model import (
    ModelConfig,
    build_model,
    count_params,
    load_checkpoint,
    save_checkpoint,
)
from tfilm.tensor import Tensor
from tfilm.train import mse_loss

from test_layers import _spy_freq

MINI = ModelConfig(depth=2, patch_length=64, max_filters=8, tfilm_blocks=4,
                   dropout_rate=0.5)
# the criterion-6 super-resolution config
SR = ModelConfig(depth=2, patch_length=2048, max_filters=16, tfilm_blocks=32,
                 dropout_rate=0.5)


def _perturbed(cfg, seed):
    """A model whose zero-initialized tensors are moved off zero, so it is
    not the identity and every parameter shapes the output. The values are
    written in place, in the layouts build_model gives the tensors."""
    model = build_model(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for p in model.params():
        if not p.data.any():
            p.data[...] = rng.normal(size=p.shape) * 0.1
    return model


def test_default_architecture_formulas():
    cfg = ModelConfig()
    assert [cfg.down_filters(d) for d in (1, 2, 3, 4)] == [128, 256, 512, 512]
    assert [cfg.down_kernel(d) for d in (1, 2, 3, 4)] == [65, 33, 17, 9]
    assert [cfg.up_filters(u) for u in (1, 2, 3, 4)] == [512, 512, 512, 256]
    assert [cfg.up_kernel(u) for u in (1, 2, 3, 4)] == [9, 17, 33, 65]
    assert cfg.bottleneck_filters() == 512


def test_tfilm_block_count_is_32_at_every_depth():
    cfg = ModelConfig()
    for t in cfg.time_dims():
        assert t % cfg.tfilm_blocks == 0
        assert cfg.tfilm_block_len(t) == t // 32


def test_validate_rejects_bad_patch_length():
    with pytest.raises(ConfigInvariantViolation):
        ModelConfig(depth=4, patch_length=1000).validate()


def test_validate_rejects_bad_dropout():
    with pytest.raises(ConfigInvariantViolation):
        ModelConfig(dropout_rate=1.0).validate()


def test_config_dict_roundtrip():
    cfg = ModelConfig(depth=3, max_filters=64)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


# keys that older headers hold: the retired pool fields, then the
# architecture choices the network now fixes, at their fixed values
OLD_HEADER_KEYS = {"pool_extent": 2, "pool_stride": 2, "dilation": 2,
                   "down_dropout": 0.0, "up_dropout": 0, "use_skip_stacking": True,
                   "use_residual": True}


def test_from_dict_ignores_retired_pool_keys():
    assert len(fields(ModelConfig)) == 8
    assert not set(OLD_HEADER_KEYS) & {f.name for f in fields(ModelConfig)}
    assert ModelConfig.from_dict({**MINI.to_dict(), **OLD_HEADER_KEYS}) == MINI


@pytest.mark.parametrize("d", [{"depth": 2, "bogus": 1}, [1, 2], "depth"])
def test_from_dict_rejects_unknown_keys_and_non_mappings(d):
    with pytest.raises(ConfigInvariantViolation):
        ModelConfig.from_dict(d)


@pytest.mark.parametrize("name, value", [
    ("depth", "2"), ("depth", 2.0), ("depth", True), ("patch_length", None),
    ("dropout_rate", "0.5"), ("dropout_rate", False),
    ("use_tfilm", 1), ("use_tfilm", "true"),
])
def test_from_dict_rejects_wrong_value_types(name, value):
    with pytest.raises(ConfigInvariantViolation, match=name):
        ModelConfig.from_dict({**MINI.to_dict(), name: value})


def test_from_dict_float_field_takes_int():
    assert ModelConfig.from_dict({**MINI.to_dict(), "dropout_rate": 0}).dropout_rate == 0


def test_validate_rejects_zero_tfilm_blocks():
    with pytest.raises(ConfigInvariantViolation):
        replace(MINI, tfilm_blocks=0).validate()


# the imputation config: random-walk values and their mask as two channels
IMPUTATION = ModelConfig(depth=2, input_channels=2, patch_length=512, max_filters=16,
                         tfilm_blocks=8, dropout_rate=0.5)


@pytest.mark.parametrize("cfg", [
    SR, IMPUTATION,
    ModelConfig(depth=4, patch_length=1024, max_filters=64),
    replace(SR, bidirectional=True),
    replace(SR, use_tfilm=False),
    ModelConfig(depth=0, patch_length=64, max_filters=7, tfilm_blocks=4),  # odd cap
], ids=["sr", "imputation", "K4", "bidirectional", "conv-only", "odd-cap"])
def test_param_count_equals_built_model(cfg):
    assert cfg.param_count() == count_params(build_model(cfg, seed=0))


def test_param_count_of_the_paper_model():
    # allocated without drawing or touching its 47.3M parameters
    cfg = ModelConfig()
    assert cfg.param_count() == count_params(tmodel._assemble(cfg, None, 0)) == 47_279_618


def test_validate_bounds_the_parameter_count():
    cfg = replace(MINI, depth=12, patch_length=2 ** 15, max_filters=2 ** 20)
    assert cfg.param_count() > tmodel.MAX_PARAMS
    with pytest.raises(ConfigInvariantViolation, match="parameters exceed"):
        cfg.validate()
    ModelConfig().validate()  # the paper-scale model is well inside


def test_identity_at_init():
    model = build_model(MINI, seed=0)
    x = np.random.default_rng(0).normal(size=(2, 64, 1))
    out = model.forward(Tensor(x), mode="eval")
    # zero-init final conv + additive residual: exact identity
    assert np.array_equal(out.data, x)


def test_forward_preserves_length():
    model = build_model(MINI, seed=1)
    out = model.forward(Tensor(np.zeros((1, 64, 1))), mode="eval")
    assert out.shape == (1, 64, 1)


def test_forward_rejects_wrong_length():
    model = build_model(MINI, seed=0)
    with pytest.raises(LengthInvariantViolation):
        model.forward(Tensor(np.zeros((1, 44, 1))), mode="eval")


@pytest.mark.parametrize("cfg", [MINI, SR, replace(MINI, use_tfilm=False)])
def test_forward_accepts_exactly_the_multiples_of_length_unit(cfg, monkeypatch):
    model = build_model(cfg, seed=0)
    unit = cfg.length_unit()
    assert unit % 2 ** (cfg.depth + 1) == 0
    for t in (unit, 3 * unit):
        assert model.forward(Tensor(np.zeros((1, t, 1)))).shape == (1, t, 1)
    for t in (unit // 2, unit + 2 ** (cfg.depth + 1), 2 * unit + 1):
        if t % unit:
            with pytest.raises(LengthInvariantViolation):
                model.forward(Tensor(np.zeros((1, t, 1))))


def test_length_unit_is_tight_for_tfilm():
    # a multiple of 2^(K+1) that is not one of the unit breaks a TFiLM
    # layer's blocks once the model's own check is out of the way
    model = build_model(MINI, seed=0)
    t = MINI.length_unit() + 2 ** (MINI.depth + 1)
    model._check_length = lambda t: None
    with pytest.raises(NonDivisibleLength):
        model.forward(Tensor(np.zeros((1, t, 1))))


def test_infer_on_valid_length_equals_forward():
    model = _perturbed(MINI, seed=3)
    x = np.random.default_rng(3).normal(size=(4 * MINI.length_unit(), 1))
    expected = model.forward(Tensor(x[None]), mode="eval").data[0, :, 0]
    assert np.array_equal(model.infer(x), expected)


def test_infer_zero_pads_on_the_right_and_crops():
    model = _perturbed(MINI, seed=3)
    x = np.random.default_rng(4).normal(size=(50, 1))
    padded = np.concatenate([x, np.zeros((14, 1))])
    expected = model.forward(Tensor(padded[None]), mode="eval").data[0, :50, 0]
    assert np.array_equal(model.infer(x), expected)


def test_infer_runs_every_length():
    # the model is the identity at init, on the zero-padded tail too
    model = build_model(MINI, seed=0)
    x = np.random.default_rng(5).normal(size=(2 * MINI.length_unit() + 1, 1))
    for t in range(1, x.shape[0] + 1):
        assert np.array_equal(model.infer(x[:t]), x[:t, 0])


def test_infer_on_empty_and_short_series():
    # 0 samples run a forward over a (1, 0, C) batch, whose convs have no
    # output rows; 5 samples are zero-padded to one length unit
    model = _perturbed(MINI, seed=3)
    assert model.infer(np.zeros((0, 1))).shape == (0,)
    x = np.random.default_rng(6).normal(size=(5, 1))
    out = model.infer(x)
    assert out.shape == (5,) and np.all(np.isfinite(out))
    padded = np.concatenate([x, np.zeros((MINI.length_unit() - 5, 1))])
    assert np.array_equal(out, model.forward(Tensor(padded[None]), mode="eval").data[0, :5, 0])


@pytest.mark.parametrize("shape", [(64, 2), (64,), (1, 64, 1)])
def test_infer_rejects_wrong_shape(shape):
    with pytest.raises(ShapeMismatch):
        build_model(MINI, seed=0).infer(np.zeros(shape))


def test_build_deterministic():
    a = build_model(MINI, seed=3)
    b = build_model(MINI, seed=3)
    for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)


def test_different_seeds_differ():
    a = build_model(MINI, seed=3)
    b = build_model(MINI, seed=4)
    assert any(not np.array_equal(pa.data, pb.data)
               for (_, pa), (_, pb) in zip(a.named_params(), b.named_params()))


def test_dropout_deterministic_per_step():
    model = build_model(MINI, seed=0)
    # the zero-init final conv hides upstream dropout; move it off zero
    model.final.conv.weight.data = np.random.default_rng(3).normal(
        size=model.final.conv.weight.shape) * 0.1
    x = Tensor(np.random.default_rng(1).normal(size=(1, 64, 1)))
    a = model.forward(x, mode="train", dropout_seed=5, step=0).data
    b = model.forward(x, mode="train", dropout_seed=5, step=0).data
    c = model.forward(x, mode="train", dropout_seed=5, step=1).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_conv_only_variant_builds():
    cfg = ModelConfig(depth=2, patch_length=64, max_filters=8, tfilm_blocks=4,
                      use_tfilm=False)
    model = build_model(cfg, seed=0)
    assert count_params(model) < count_params(build_model(MINI, seed=0))
    out = model.forward(Tensor(np.zeros((1, 64, 1))), mode="eval")
    assert out.shape == (1, 64, 1)


def test_bidirectional_variant_builds():
    cfg = ModelConfig(depth=2, patch_length=64, max_filters=8, tfilm_blocks=4,
                      bidirectional=True)
    model = build_model(cfg, seed=0)
    x = np.random.default_rng(2).normal(size=(1, 64, 1))
    assert np.array_equal(model.forward(Tensor(x), mode="eval").data, x)


# --- checkpoints --------------------------------------------------------------


def test_checkpoint_roundtrip_idempotent(tmp_path):
    model = build_model(MINI, seed=9)
    # move params off the float32-exact lattice
    rng = np.random.default_rng(0)
    for _, p in model.named_params():
        p.data = p.data + rng.normal(size=p.data.shape) * 1e-3
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    path2 = tmp_path / "m2.ckpt"
    save_checkpoint(path2, loaded)
    loaded2 = load_checkpoint(path2)
    # storage is float32: one round trip quantizes, a second is exact
    for (_, pa), (_, pb) in zip(loaded.named_params(), loaded2.named_params()):
        assert np.array_equal(pa.data, pb.data)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_preserves_config(tmp_path):
    model = build_model(MINI, seed=2)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.cfg == MINI


def _conv_weights(model):
    return [p for name, p in model.named_params() if name.endswith(".conv.weight")]


def test_conv_weights_tap_major_after_build_and_load(tmp_path):
    model = _perturbed(MINI, seed=4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    for m in (build_model(MINI, seed=4), load_checkpoint(path)):
        weights = _conv_weights(m)
        assert len(weights) == 2 * MINI.depth + 2
        assert all(w.data.T.flags.c_contiguous for w in weights)


def test_checkpoint_bytes_do_not_depend_on_weight_layout(tmp_path):
    model = _perturbed(MINI, seed=4)
    weight = model.final.conv.weight
    weight.data = np.ascontiguousarray(weight.data)     # rebound row-major
    assert weight.data.flags.c_contiguous and not weight.data.flags.f_contiguous
    save_checkpoint(tmp_path / "a.ckpt", model)
    for w in _conv_weights(model):
        w.data = np.asfortranarray(w.data)
    save_checkpoint(tmp_path / "b.ckpt", model)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_save_checkpoint_replaces_rather_than_truncates(tmp_path):
    # a second name for the old file keeps its bytes: the old file was
    # unlinked, not truncated and rewritten
    path, old = tmp_path / "m.ckpt", tmp_path / "old.ckpt"
    save_checkpoint(path, build_model(MINI, seed=1))
    before = path.read_bytes()
    os.link(path, old)
    save_checkpoint(path, build_model(MINI, seed=2))
    assert old.read_bytes() == before
    assert path.read_bytes() != before


def test_load_checkpoint_draws_nothing(tmp_path, monkeypatch):
    model = _perturbed(MINI, seed=5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint built or drew an initialization")

    monkeypatch.setattr(tmodel, "build_model", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    loaded = load_checkpoint(path)
    for a, b in zip(loaded.params(), model.params()):
        assert np.array_equal(a.data, b.data.astype(np.float32).astype(np.float64))


V1_FIXTURE = Path(__file__).parent / "data" / "checkpoint_v1.tflm"


def _v1_fixture_model():
    """The model that data/checkpoint_v1.tflm was saved from by the version-1
    writer (row-major records): every tensor moved off its init by noise."""
    cfg = ModelConfig(depth=1, patch_length=32, max_filters=4, tfilm_blocks=4)
    model = build_model(cfg, seed=3)
    rng = np.random.default_rng(2019)
    for p in model.params():
        p.data = p.data + rng.normal(0.0, 0.1, p.shape)
    return model


def test_v1_checkpoint_loads_bit_equal(tmp_path):
    assert V1_FIXTURE.read_bytes()[4:6] == b"\x01\x00"
    loaded = load_checkpoint(V1_FIXTURE)
    source = _v1_fixture_model()
    assert loaded.cfg == source.cfg
    for (name, a), b in zip(loaded.named_params(), source.params()):
        assert np.array_equal(a.data, b.data.astype(np.float32).astype(np.float64)), name
    assert all(w.data.T.flags.c_contiguous for w in _conv_weights(loaded))
    # re-saved as the current version, the values survive unchanged
    path = tmp_path / "v2.ckpt"
    save_checkpoint(path, loaded)
    assert path.read_bytes()[4:6] == b"\x02\x00"
    for a, b in zip(load_checkpoint(path).params(), loaded.params()):
        assert np.array_equal(a.data, b.data)


def _rewrite_header(path, header):
    """Replace the config JSON of the checkpoint at ``path`` by ``header``."""
    data = path.read_bytes()
    (n,) = struct.unpack("<I", data[6:10])
    path.write_bytes(data[:6] + struct.pack("<I", len(header)) + header + data[10 + n:])


def test_checkpoint_header_with_retired_pool_keys_loads_bit_equal(tmp_path):
    # older headers carry the retired pool keys and the fixed architecture keys
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, _perturbed(MINI, seed=6))
    before = load_checkpoint(path)
    _rewrite_header(path, json.dumps({**MINI.to_dict(), **OLD_HEADER_KEYS}).encode())
    loaded = load_checkpoint(path)
    assert loaded.cfg == MINI
    for a, b in zip(loaded.params(), before.params()):
        assert np.array_equal(a.data, b.data)


# stored configs that must not load: JSON values, then raw header bytes
BAD_HEADERS = [
    {**MINI.to_dict(), "bogus": 1},         # unknown key
    [2, 64],                                # not a mapping
    {**MINI.to_dict(), "depth": "2"},       # wrong type
    {**MINI.to_dict(), "patch_length": 60},  # fails validate
    {**MINI.to_dict(), "max_filters": 0},   # sizes below 1
    {**MINI.to_dict(), "input_channels": 0},
    {**MINI.to_dict(), "max_filters": -2},
    {**MINI.to_dict(), "dilation": 0},      # fixed keys off their values
    {**MINI.to_dict(), "use_residual": False},
    {**MINI.to_dict(), "depth": 12, "patch_length": 2 ** 15,  # 3e12 parameters
     "max_filters": 2 ** 20},
    {**MINI.to_dict(), "input_channels": 2 ** 40},
    {**MINI.to_dict(), "depth": 10 ** 9},   # 2^(K+1) would be a 125 MB int
    pytest.param(b'{"depth": 2', id="not-json"),
    pytest.param(b"\xff\xfe", id="not-utf8"),
]


def _header_bytes(header):
    return header if isinstance(header, bytes) else json.dumps(header).encode()


@pytest.mark.parametrize("header", BAD_HEADERS)
def test_checkpoint_header_with_bad_config_is_typed_error(tmp_path, header):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_model(MINI, seed=0))
    _rewrite_header(path, _header_bytes(header))
    with pytest.raises(BadCheckpointConfig):
        load_checkpoint(path)


@pytest.mark.parametrize("header, match", [
    # 3e12 parameters would ask for 24 TB
    ({"depth": 12, "patch_length": 2 ** 15, "max_filters": 2 ** 20}, "parameters exceed"),
    # 2^(K+1) alone would be a 125 MB int
    ({"depth": 10 ** 9}, "shorter than"),
], ids=["params", "depth"])
def test_hostile_header_fails_before_allocating(tmp_path, monkeypatch, header, match):
    # the config is rejected from its shapes, and the network is never
    # assembled
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_model(MINI, seed=0))
    _rewrite_header(path, json.dumps({**MINI.to_dict(), **header}).encode())

    def refuse(*args):
        raise AssertionError("the network was assembled")

    monkeypatch.setattr(tmodel, "_assemble", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(BadCheckpointConfig, match=match):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(BadMagic):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    model = build_model(MINI, seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(TruncatedFile):
        load_checkpoint(path)


def _reachable(out):
    """Every tensor reachable from ``out`` through the tape, leaves included."""
    seen, stack = {}, [out]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return list(seen.values())


def _tape_nodes(out):
    """Op nodes reachable from ``out``; leaves are not counted."""
    return sum(1 for t in _reachable(out) if t._parents)


def test_train_forward_tape_stays_small():
    # each TFiLM layer is three nodes (pool, scan, modulate) and each LSTM
    # scan direction one; per-step ops would add about 35 nodes for each of
    # the 32 steps of each TFiLM layer
    cfg = ModelConfig(depth=2, patch_length=256, max_filters=16, tfilm_blocks=32)
    model = build_model(cfg, seed=0)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 256, 1)))
    assert _tape_nodes(model.forward(x, mode="train")) <= 33
    # the same layers built from generic tape ops took 84 nodes at SR
    model = build_model(SR, seed=0)
    x = Tensor(np.random.default_rng(0).normal(size=(1, 2048, 1)))
    assert _tape_nodes(model.forward(x, mode="train")) < 84


def test_training_step_gradients_share_no_memory():
    model = _perturbed(SR, seed=0)
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(2, 2048, 1)))
    y = Tensor(rng.normal(size=(2, 2048, 1)))
    loss = mse_loss(model.forward(x, mode="train", dropout_seed=0, step=0), y)
    tensors = _reachable(loss)
    loss.backward()
    grads = [t.grad for t in tensors if t.grad is not None]
    assert len(grads) > len(model.params())
    for i, g in enumerate(grads):
        for h in grads[i + 1:]:
            assert not np.shares_memory(g, h)


def test_training_step_gradients_keep_parameter_layout():
    # ADAM updates each parameter with moments laid out like its gradient;
    # the zero-initialized tensors are moved off zero in place, in the
    # layouts build_model gave them
    model = build_model(SR, seed=0)
    rng = np.random.default_rng(1)
    for p in model.params():
        if not p.data.any():
            p.data[...] = rng.normal(size=p.shape) * 0.1
    x = Tensor(rng.normal(size=(2, 2048, 1)))
    y = Tensor(rng.normal(size=(2, 2048, 1)))
    mse_loss(model.forward(x, mode="train", dropout_seed=0, step=0), y).backward()
    conv_weights = {id(s.conv.weight) for s in model.down + model.up
                    + [model.bottleneck, model.final]}
    for name, p in model.named_params():
        fortran = id(p) in conv_weights
        assert p.data.flags.f_contiguous if fortran else p.data.flags.c_contiguous, name
        assert p.grad.flags.f_contiguous if fortran else p.grad.flags.c_contiguous, name


# --- tape-free eval -------------------------------------------------------------


def test_eval_forward_is_bit_equal_to_train_without_dropout():
    cfg = ModelConfig(depth=2, patch_length=64, max_filters=8, tfilm_blocks=4,
                      dropout_rate=0.0)
    model = _perturbed(cfg, seed=4)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 64, 1)))
    out = model.forward(x, mode="eval").data
    assert not np.array_equal(out, x.data)
    assert np.array_equal(out, model.forward(x, mode="train").data)


def test_eval_forward_is_bit_equal_to_train_on_the_frequency_path(monkeypatch):
    # up1 is k 65 at C_in 80 over T' 512 = 4P: its forward runs in the
    # frequency domain, in train and eval mode alike
    cfg = ModelConfig(depth=1, patch_length=2048, max_filters=80, tfilm_blocks=32,
                      dropout_rate=0.0)
    model = _perturbed(cfg, seed=4)
    calls = _spy_freq(monkeypatch)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 2048, 1)))
    out = model.forward(x, mode="eval").data
    assert calls == [(65, 80, 80, 512)]
    assert not np.array_equal(out, x.data)
    assert np.array_equal(out, model.forward(x, mode="train").data)
    assert len(calls) == 2


def test_frequency_path_runs_the_long_convs_over_long_inputs(monkeypatch):
    calls = _spy_freq(monkeypatch)
    # the SR config: down2 on its kept samples, up1 and up2; down1 has one
    # input channel and the rest k 9
    build_model(SR, seed=0).forward(Tensor(np.zeros((1, 2048, 1))))
    assert calls == [(33, 16, 16, 512), (33, 16, 16, 256), (65, 24, 16, 512)]
    # the imputation config: every output run is too short
    calls.clear()
    cfg = ModelConfig(depth=2, input_channels=2, patch_length=512, max_filters=16,
                      tfilm_blocks=16)
    build_model(cfg, seed=0).forward(Tensor(np.zeros((1, 512, 2))))
    assert calls == []
    # the paper-scale K=4 model at T=8192: every conv but down1 (one
    # input channel) and the k 9 ones
    calls.clear()
    cfg = ModelConfig()
    build_model(cfg, seed=0).forward(Tensor(np.zeros((1, cfg.patch_length, 1))))
    assert calls == [(33, 128, 256, 2048), (17, 256, 512, 1024), (17, 768, 512, 512),
                     (33, 768, 512, 1024), (65, 512, 256, 2048)]


def test_eval_forward_records_no_tape():
    model = _perturbed(MINI, seed=0)
    out = model.forward(Tensor(np.ones((1, 64, 1))), mode="eval")
    assert out._parents == ()
    assert out.requires_grad is False
    assert _tape_nodes(model.forward(Tensor(np.ones((1, 64, 1))), mode="train")) > 0


def test_failed_eval_forward_restores_recording():
    model = build_model(MINI, seed=0)
    with pytest.raises(LengthInvariantViolation):
        model.forward(Tensor(np.zeros((1, 44, 1))), mode="eval")
    out = model.forward(Tensor(np.ones((1, 64, 1))), mode="train")
    assert out.requires_grad and out._parents
    out.sum().backward()
    assert model.final.conv.weight.grad is not None


def test_eval_forward_holds_only_its_output():
    model = _perturbed(SR, seed=0)
    x = Tensor(np.random.default_rng(0).normal(size=(4, 2048, 1)))
    model.forward(x, mode="eval")  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = model.forward(x, mode="eval")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # a recorded tape holds about 11 MB here; the output is 64 KiB
    assert held <= out.data.nbytes + 16 * 1024
