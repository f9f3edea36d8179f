"""The time-series super-resolution network.

K downsampling blocks (stride-2 conv with dilation 2 -> relu -> TFiLM),
a bottleneck (stride-2 conv -> dropout -> relu -> TFiLM), K upsampling
blocks (conv -> relu -> subpixel x2 -> stacked skip connection), and a
final stage (zero-initialized conv -> subpixel x2 -> additive residual).
Dropout runs at the bottleneck only. With the final conv at zero, a
freshly built model is exactly the identity on channel 0 of its input.

Filter counts and kernel lengths follow the downsampling/upsampling
formulas min(2^(6+k), 512) / max(2^(7-k)+1, 9) and their upsampling
counterparts, optionally capped by ``max_filters`` for desk-scale runs.
"""

from __future__ import annotations

import contextlib
import json
import operator
import os
import struct
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import (
    BadCheckpointConfig,
    BadMagic,
    ConfigInvariantViolation,
    LengthInvariantViolation,
    ShapeMismatch,
    TruncatedFile,
)
from .layers import Conv1dParams, conv1d, dropout, init_conv_params, subpixel_shuffle
from .modulation import TfilmLayerParams, init_tfilm_params, tfilm_forward
from .tensor import Tensor, concat, no_grad

__all__ = [
    "ModelConfig",
    "check_field_type",
    "Model",
    "build_model",
    "count_params",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = b"TFLM"
# version 2 stores conv weights tap-major (see _record_array); version 1
# files, row-major throughout, still load
CHECKPOINT_VERSION = 2
# config fields that the forward pass never read, dropped from ModelConfig;
# from_dict ignores them in older headers
_RETIRED_KEYS = frozenset({"pool_extent", "pool_stride"})
# architecture choices that were fields before the network fixed them; older
# headers hold them, and from_dict takes each only at its fixed value
_FIXED_KEYS = {"dilation": 2, "down_dropout": 0.0, "up_dropout": 0.0,
               "use_skip_stacking": True, "use_residual": True}
# the most parameters a config may have: 2 GiB of float64, 5.7 times the
# paper-scale K=4 model's 47.3M; validate rejects more before anything is
# allocated
MAX_PARAMS = 2 ** 28
# the value types from_dict takes for each field type: a float field takes
# an int too, and bool (an int subclass) fits only a bool field
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool}


def check_field_type(name, kind, value):
    """Raise ``ConfigInvariantViolation`` unless ``value`` fits a config
    field ``name`` of type ``kind`` (see ``_FIELD_TYPES``)."""
    if isinstance(value, bool) != (kind == "bool") or not isinstance(
            value, _FIELD_TYPES[kind]):
        raise ConfigInvariantViolation(f"{name} must be {kind}, got {value!r}")


class StageShape(NamedTuple):
    """The conv of one stage and, where the stage has one, its TFiLM layer
    over the conv's output channels."""

    name: str
    out_channels: int
    in_channels: int
    kernel: int
    stride: int = 1
    dilation: int = 1
    block_len: int = 0  # TFiLM block length; 0 for a stage without TFiLM


@dataclass
class ModelConfig:
    """Architecture hyper-parameters; defaults match the K=4 audio setup."""

    depth: int = 4                # number of down/up blocks (K)
    input_channels: int = 1
    patch_length: int = 8192
    tfilm_blocks: int = 32        # number of blocks per TFiLM layer (T_l / B_l)
    dropout_rate: float = 0.5     # bottleneck dropout
    max_filters: int = 512
    use_tfilm: bool = True
    bidirectional: bool = False

    # -- architecture formulas -------------------------------------------------

    def down_filters(self, d):
        return min(2 ** (6 + d), self.max_filters)

    def down_kernel(self, d):
        return max(2 ** (7 - d) + 1, 9)

    def up_filters(self, u):
        return min(2 ** (7 + (self.depth - u + 1)), self.max_filters)

    def up_kernel(self, u):
        return max(2 ** (7 - (self.depth - u + 1)) + 1, 9)

    def bottleneck_filters(self):
        return min(512, self.max_filters)

    def tfilm_block_len(self, time_dim):
        return time_dim // self.tfilm_blocks

    def time_dims(self):
        """Time extent entering each TFiLM site: after down blocks 1..K,
        then after the bottleneck conv."""
        return [self.patch_length // 2 ** d for d in range(1, self.depth + 2)]

    def length_unit(self):
        """The network accepts exactly the input lengths that are multiples
        of this: with TFiLM, those whose extent at every TFiLM site is a
        whole number of blocks (``validate`` makes it a multiple of
        2^(K+1)); without, those the K+1 stride-2 stages halve evenly."""
        if self.use_tfilm:
            return self.patch_length // self.tfilm_blocks
        return 2 ** (self.depth + 1)

    def stages(self):
        """The shape of every stage in forward order: down1..downK,
        bottleneck, up1..upK, final. After up1, which reads the
        bottleneck's output, each conv reads the previous up block's
        output, whose channels subpixel(2) halved, stacked with the skip
        of the down block at the same scale."""
        time_dims = self.time_dims()

        def block_len(t):
            return self.tfilm_block_len(t) if self.use_tfilm else 0

        shapes = []
        channels = self.input_channels
        for d in range(1, self.depth + 1):
            shapes.append(StageShape(f"down{d}", self.down_filters(d), channels,
                                     self.down_kernel(d), 2, 2, block_len(time_dims[d - 1])))
            channels = self.down_filters(d)
        shapes.append(StageShape("bottleneck", self.bottleneck_filters(), channels, 9, 2, 1,
                                 block_len(time_dims[self.depth])))
        channels = self.bottleneck_filters()
        for u in range(1, self.depth + 1):
            shapes.append(StageShape(f"up{u}", self.up_filters(u), channels, self.up_kernel(u)))
            channels = self.up_filters(u) // 2 + shapes[self.depth - u].out_channels
        shapes.append(StageShape("final", 2, channels, 9))
        return shapes

    def param_count(self):
        """The number of parameters of the network, from the stage shapes
        alone: equal to ``count_params(build_model(self))``."""
        cells = 2 if self.bidirectional else 1
        total = 0
        for s in self.stages():
            total += s.out_channels * (s.in_channels * s.kernel + 1)
            if s.block_len:
                c = s.out_channels
                # W, U and b of 4 gates per LSTM cell, then proj_w and proj_b
                total += cells * 4 * c * (2 * c + 1) + 2 * c * (cells * c + 1)
        return total

    def validate(self):
        """Raise ``ConfigInvariantViolation`` unless the network can be
        built: sizes of at least 1, lengths that every stage halves into
        whole TFiLM blocks, even up-block filter counts and at most
        ``MAX_PARAMS`` parameters. Each check is cheap, also on hostile
        values, and none allocates the network."""
        if self.depth < 0:
            raise ConfigInvariantViolation("depth must be >= 0")
        for name in ("input_channels", "tfilm_blocks", "max_filters"):
            if getattr(self, name) < 1:
                raise ConfigInvariantViolation(f"{name} must be >= 1")
        # patch_length >= 2^(K+1), checked without forming 2^(K+1): this bounds
        # the depth before any power of two is taken
        if operator.index(self.patch_length).bit_length() < self.depth + 2:
            raise ConfigInvariantViolation(
                f"patch_length {self.patch_length} is shorter than 2^(K+1) at K = {self.depth}")
        div = 2 ** (self.depth + 1)
        if self.patch_length % div != 0:
            raise ConfigInvariantViolation(
                f"patch_length {self.patch_length} not divisible by 2^(K+1) = {div}"
            )
        for t in self.time_dims():
            if t % self.tfilm_blocks != 0 or t // self.tfilm_blocks < 1:
                raise ConfigInvariantViolation(
                    f"TFiLM block length {t}/{self.tfilm_blocks} is not a "
                    "positive integer"
                )
        for u in range(1, self.depth + 1):
            if self.up_filters(u) % 2 != 0:
                raise ConfigInvariantViolation(
                    f"upsampling block {u} has odd filter count "
                    f"{self.up_filters(u)}; subpixel(2) needs an even count"
                )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigInvariantViolation("dropout_rate must be in [0, 1)")
        n_params = self.param_count()
        if n_params > MAX_PARAMS:
            raise ConfigInvariantViolation(
                f"{n_params} parameters exceed the bound of {MAX_PARAMS}")

    def to_dict(self):
        return asdict(self)

    @staticmethod
    def from_dict(d):
        """The config of a dict of field values; ignores the retired keys
        (``_RETIRED_KEYS``), takes the fixed keys (``_FIXED_KEYS``) at their
        fixed values only, and rejects any other unknown key and any value
        of the wrong type (see ``check_field_type``)."""
        if not isinstance(d, dict):
            raise ConfigInvariantViolation(
                f"model config must be a mapping, got {type(d).__name__}")
        kinds = {f.name: f.type for f in fields(ModelConfig)}
        kinds.update((k, type(v).__name__) for k, v in _FIXED_KEYS.items())
        unknown = set(d) - set(kinds) - _RETIRED_KEYS
        if unknown:
            raise ConfigInvariantViolation(
                f"unknown model config keys: {', '.join(sorted(unknown))}")
        values = {k: v for k, v in d.items() if k not in _RETIRED_KEYS}
        for name, value in values.items():
            check_field_type(f"model config {name}", kinds[name], value)
            if name in _FIXED_KEYS and value != _FIXED_KEYS[name]:
                raise ConfigInvariantViolation(
                    f"model config {name} is fixed at {_FIXED_KEYS[name]!r}, "
                    f"got {value!r}")
        return ModelConfig(**{k: v for k, v in values.items() if k not in _FIXED_KEYS})


@dataclass
class _Stage:
    name: str
    conv: Conv1dParams
    tfilm: TfilmLayerParams | None = None


class Model:
    """Built network: ordered stages plus the skip/residual wiring."""

    def __init__(self, cfg, down, bottleneck, up, final, seed):
        self.cfg = cfg
        self.down = down            # list[_Stage]
        self.bottleneck = bottleneck
        self.up = up                # list[_Stage]
        self.final = final
        self.seed = seed

    # -- parameters -------------------------------------------------------------

    def named_params(self):
        out = []

        def add_conv(prefix, p):
            out.append((f"{prefix}.weight", p.weight))
            out.append((f"{prefix}.bias", p.bias))

        def add_tfilm(prefix, p):
            out.extend((f"{prefix}.lstm.{nm}", t) for nm, t in p.lstm.named_tensors())
            out.append((f"{prefix}.proj_w", p.proj_w))
            out.append((f"{prefix}.proj_b", p.proj_b))

        for stage in self.down + [self.bottleneck] + self.up + [self.final]:
            add_conv(f"{stage.name}.conv", stage.conv)
            if stage.tfilm is not None:
                add_tfilm(f"{stage.name}.tfilm", stage.tfilm)
        return out

    def params(self):
        return [p for _, p in self.named_params()]

    def zero_grads(self):
        for p in self.params():
            p.zero_grad()

    # -- forward ----------------------------------------------------------------

    def _check_length(self, t):
        unit = self.cfg.length_unit()
        if t % unit != 0:
            raise LengthInvariantViolation(
                f"input length {t} is not a multiple of {unit}")

    def forward(self, x: Tensor, mode="eval", dropout_seed=0, step=0) -> Tensor:
        """Map (N, T, k) inputs to (N, T, 1) outputs.

        An eval forward records no tape (see :func:`tfilm.tensor.no_grad`):
        its output has no parents and backward reaches no parameter.
        """
        with no_grad() if mode == "eval" else contextlib.nullcontext():
            return self._forward(x, mode, dropout_seed, step)

    def _forward(self, x, mode, dropout_seed, step):
        if x.ndim != 3:
            raise ShapeMismatch("forward", x.shape, ("N", "T", "k"))
        n, t, c = x.shape
        if c != self.cfg.input_channels:
            raise ShapeMismatch("forward", x.shape, ("N", t, self.cfg.input_channels))
        self._check_length(t)

        skips = []
        h = x
        for stage in self.down:
            h = conv1d(h, stage.conv).relu()
            if stage.tfilm is not None:
                h = tfilm_forward(h, stage.tfilm)
            skips.append(h)

        stage = self.bottleneck
        h = conv1d(h, stage.conv)
        rate = self.cfg.dropout_rate
        if rate > 0.0:
            # the mask key numbers the bottleneck K + 1, after down1..downK
            rng = np.random.default_rng((dropout_seed, self.cfg.depth + 1, step))
            h = dropout(h, rate, rng=rng, mode=mode)
        h = h.relu()
        if stage.tfilm is not None:
            h = tfilm_forward(h, stage.tfilm)

        for stage, skip in zip(self.up, reversed(skips)):
            h = subpixel_shuffle(conv1d(h, stage.conv).relu(), 2)
            h = concat([h, skip], axis=2)

        h = subpixel_shuffle(conv1d(h, self.final.conv), 2)
        return h + x[:, :, 0:1]

    def infer(self, x) -> np.ndarray:
        """Channel 0 of one eval forward over a whole (T, C) series.

        The series is zero-padded on the right to the next multiple of
        ``cfg.length_unit()``, so any length runs, and the output is
        cropped back to T samples. On a valid length nothing is padded and
        the result equals ``forward(...).data[0, :, 0]``. Memory grows
        with T: there is no windowing.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.cfg.input_channels:
            raise ShapeMismatch("infer", x.shape, ("T", self.cfg.input_channels))
        t = x.shape[0]
        padded = np.pad(x, ((0, -t % self.cfg.length_unit()), (0, 0)))
        return self.forward(Tensor(padded[None]), mode="eval").data[0, :t, 0]


def build_model(cfg: ModelConfig, seed: int = 0) -> Model:
    """Deterministically construct and initialize the network."""
    cfg.validate()
    return _assemble(cfg, np.random.default_rng(np.random.SeedSequence(seed)), seed)


def _assemble(cfg, rng, seed):
    """The network of a validated ``cfg`` with its initialization drawn from
    ``rng``, stage by stage in the order of ``cfg.stages()``; ``rng=None``
    allocates the drawn tensors without drawing, for a loader that
    overwrites every parameter."""
    stages = []
    for s in cfg.stages():
        # the final conv starts at zero, which makes the model the identity
        conv = init_conv_params(s.out_channels, s.in_channels, s.kernel, rng,
                                stride=s.stride, dilation=s.dilation,
                                zero=s.name == "final")
        tf = None
        if s.block_len:
            tf = init_tfilm_params(s.out_channels, s.block_len, rng,
                                   bidirectional=cfg.bidirectional)
        stages.append(_Stage(s.name, conv, tf))
    k = cfg.depth
    return Model(cfg, stages[:k], stages[k], stages[k + 1:-1], stages[-1], seed)


def count_params(model: Model) -> int:
    return sum(p.size for p in model.params())


# --- checkpoint serialization ---------------------------------------------------


def _canonical_config_json(cfg: ModelConfig) -> bytes:
    return json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":")).encode()


def _record_array(name, data, version):
    """The array whose row-major float32 values the record of parameter
    ``name`` holds: from version 2 on, a conv weight's (k, C_in, C_out)
    transpose, which is contiguous in its tap-major memory; otherwise
    ``data`` itself. The record's shape field is always ``data.shape``."""
    return data.T if version >= 2 and name.endswith(".conv.weight") else data


def save_checkpoint(path, model: Model):
    """Binary checkpoint: magic, version, config JSON, then named float32
    parameter records (name, rank, shape, values in the order of
    :func:`_record_array`). A file already at ``path`` is unlinked, not
    truncated: on ext4 (``auto_da_alloc``) truncating a file starts its
    writeback, and the next overwrite waits for it; on a 2-core machine's
    ext4 disk that took about 3 s for a 190 MB paper-scale checkpoint,
    against 0.02 s for a new file."""
    named = model.named_params()
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<H", CHECKPOINT_VERSION))
        cfg_json = _canonical_config_json(model.cfg)
        fh.write(struct.pack("<I", len(cfg_json)))
        fh.write(cfg_json)
        fh.write(struct.pack("<I", len(named)))
        for name, p in named:
            nm = name.encode()
            fh.write(struct.pack("<H", len(nm)))
            fh.write(nm)
            fh.write(struct.pack("<B", p.ndim))
            for extent in p.shape:
                fh.write(struct.pack("<I", extent))
            record = _record_array(name, p.data, CHECKPOINT_VERSION)
            fh.write(np.ascontiguousarray(record, dtype="<f4"))


def _read_exact(fh, n):
    buf = fh.read(n)
    if len(buf) != n:
        raise TruncatedFile(f"expected {n} bytes, got {len(buf)}")
    return buf


def load_checkpoint(path) -> Model:
    """Rebuild the model from a checkpoint of version 1 or 2; verifies
    magic, version and that stored parameter names/shapes agree with the
    stored config. The parameters are allocated without a random init and
    filled from the records. A stored config that does not parse or is not
    a valid ``ModelConfig`` raises ``BadCheckpointConfig``."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != CHECKPOINT_MAGIC:
            raise BadMagic("not a TFLM checkpoint")
        (version,) = struct.unpack("<H", _read_exact(fh, 2))
        if version not in (1, CHECKPOINT_VERSION):
            raise BadMagic(f"unsupported checkpoint version {version}")
        (cfg_len,) = struct.unpack("<I", _read_exact(fh, 4))
        header = _read_exact(fh, cfg_len)
        try:
            cfg = ModelConfig.from_dict(json.loads(header.decode()))
            cfg.validate()
        except (ValueError, ConfigInvariantViolation) as exc:
            raise BadCheckpointConfig(f"checkpoint config: {exc}") from exc
        model = _assemble(cfg, None, seed=0)
        expected = dict(model.named_params())
        (n_params,) = struct.unpack("<I", _read_exact(fh, 4))
        if n_params != len(expected):
            raise ShapeMismatch("checkpoint", (n_params,), (len(expected),))
        seen = set()
        for _ in range(n_params):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
            name = _read_exact(fh, name_len).decode()
            if name not in expected:
                raise BadMagic(f"unknown parameter {name!r} in checkpoint")
            (rank,) = struct.unpack("<B", _read_exact(fh, 1))
            shape = tuple(
                struct.unpack("<I", _read_exact(fh, 4))[0] for _ in range(rank)
            )
            p = expected[name]
            if shape != p.shape:
                raise ShapeMismatch(f"checkpoint param {name}", shape, p.shape)
            count = int(np.prod(shape)) if shape else 1
            raw = _read_exact(fh, 4 * count)
            # into the allocated array; float32 -> float64 is exact
            dst = _record_array(name, p.data, version)
            dst[...] = np.frombuffer(raw, dtype="<f4").reshape(dst.shape)
            seen.add(name)
        if seen != set(expected):
            raise TruncatedFile("checkpoint missing parameters")
    return model
