"""Signal assets, synthetic generators, patch extraction, zero-masking,
and file formats (RAWF32 container, 16-bit PCM WAV, CSV).

Synthetic signals stand in for large audio corpora at desk scale:
band-limited multisine mixtures (optionally amplitude-modulated) for
super-resolution, and random walks for the imputation protocol.
"""

from __future__ import annotations

import csv
import json
import struct
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    DataError,
    InvalidRate,
    InvalidSpec,
    NonDivisibleLength,
    NonFiniteSamples,
    PatchTooLong,
    ShapeMismatch,
    TruncatedFile,
    UnsupportedWavEncoding,
)
from .dsp import degrade, spline_upsample

__all__ = [
    "SignalAsset",
    "PatchDataset",
    "synth_signal",
    "make_pairs",
    "make_patches",
    "zero_mask",
    "write_rawf32",
    "read_rawf32",
    "write_wav",
    "read_wav",
    "write_csv_signal",
    "read_csv_signal",
]

RAW_MAGIC = b"TFS1"
RAW_VERSION = 1


@dataclass
class SignalAsset:
    """A k-channel time series with sample rate and provenance metadata.

    ``samples`` has shape (T, k); rate 0 marks an abstract series with no
    physical sampling rate.
    """

    samples: np.ndarray
    rate: float = 0.0
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ShapeMismatch("SignalAsset", arr.shape, ("T >= 1", "k"))
        if not np.all(np.isfinite(arr)):
            raise NonFiniteSamples("samples contain non-finite values")
        self.samples = arr

    @property
    def length(self):
        return self.samples.shape[0]

    @property
    def channels(self):
        return self.samples.shape[1]


@dataclass
class PatchDataset:
    """Aligned (source, target) windows cut from one or more signal pairs."""

    pairs: list          # list of (x_patch, y_patch) float64 arrays
    patch_length: int
    stride: int
    offsets: list = field(default_factory=list)
    seed: int = 0

    def __len__(self):
        return len(self.pairs)

    @staticmethod
    def concat(datasets, seed=0):
        """The patches and offsets of ``datasets`` in order, as one dataset
        with the patch length and stride of the first, which all share."""
        first = datasets[0]
        return PatchDataset([p for d in datasets for p in d.pairs], first.patch_length,
                            first.stride, [o for d in datasets for o in d.offsets], seed)


# --- synthetic generators -----------------------------------------------------


def _gen_multisine(spec, rng, noisy=False):
    length = int(spec["length"])
    rate = float(spec.get("rate", 0.0))
    channels = int(spec.get("channels", 1))
    components = spec.get("components")
    if not components:
        raise InvalidSpec("multisine spec needs a non-empty components list")
    t = np.arange(length)
    out = np.zeros((length, channels))
    for c in range(channels):
        for comp in components:
            freq = float(comp["freq"])  # cycles/sample when rate == 0, else Hz
            cps = freq / rate if rate > 0 else freq
            amp = float(comp.get("amp", 1.0))
            phase = comp.get("phase")
            phase = rng.uniform(0, 2 * np.pi) if phase is None else float(phase)
            wave_ = amp * np.sin(2 * np.pi * cps * t + phase)
            am_depth = float(comp.get("am_depth", 0.0))
            if am_depth > 0.0:
                am_cps = float(comp["am_freq"]) / rate if rate > 0 else float(comp["am_freq"])
                am_phase = rng.uniform(0, 2 * np.pi)
                wave_ = wave_ * (1.0 + am_depth * np.sin(2 * np.pi * am_cps * t + am_phase))
            out[:, c] += wave_
    if noisy:
        out += float(spec.get("noise_std", 0.0)) * rng.standard_normal(out.shape)
    return out, rate


def _gen_chirp(spec, rng):
    length = int(spec["length"])
    rate = float(spec.get("rate", 0.0))
    f0 = float(spec["f0"]) / (rate if rate > 0 else 1.0)
    f1 = float(spec["f1"]) / (rate if rate > 0 else 1.0)
    amp = float(spec.get("amp", 1.0))
    phase = spec.get("phase")
    phase = rng.uniform(0, 2 * np.pi) if phase is None else float(phase)
    t = np.arange(length)
    inst = f0 + (f1 - f0) * t / max(length - 1, 1)
    return (amp * np.sin(2 * np.pi * np.cumsum(inst) + phase))[:, None], rate


def _gen_random_walk(spec, rng):
    length = int(spec["length"])
    channels = int(spec.get("channels", 1))
    step_std = float(spec.get("step_std", 1.0))
    start = float(spec.get("start", 0.0))
    steps = step_std * rng.standard_normal((length, channels))
    steps[0] = 0.0
    return start + np.cumsum(steps, axis=0), float(spec.get("rate", 0.0))


def synth_signal(spec: dict, seed: int) -> SignalAsset:
    """Deterministic synthetic signal from a generator description.

    Supported kinds: ``multisine``, ``noisy-multisine``, ``chirp``,
    ``random-walk``. The same (spec, seed) always yields bit-identical
    samples.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidSpec("spec must be a dict with a 'kind' field")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    kind = spec["kind"]
    try:
        if kind == "multisine":
            samples, rate = _gen_multisine(spec, rng)
        elif kind == "noisy-multisine":
            samples, rate = _gen_multisine(spec, rng, noisy=True)
        elif kind == "chirp":
            samples, rate = _gen_chirp(spec, rng)
        elif kind == "random-walk":
            samples, rate = _gen_random_walk(spec, rng)
        else:
            raise InvalidSpec(f"unknown generator kind {kind!r}")
        return SignalAsset(samples, rate, {"generator": spec, "seed": seed})
    except KeyError as exc:
        raise InvalidSpec(f"spec missing field {exc}") from exc
    except DataError as exc:    # the spec, not a file, made the bad samples
        raise InvalidSpec(f"spec gives no valid signal: {exc}") from exc


# --- pairing and patching -----------------------------------------------------


def make_pairs(y: SignalAsset, r: int):
    """Degrade then spline-reexpand a target signal, keeping alignment.

    Returns (x, y) where x = spline_upsample(degrade(y, r), r) has the
    same length and channel count as y.
    """
    if r < 1:
        raise ValueError("ratio must be >= 1")
    if y.length % r != 0:
        raise NonDivisibleLength(f"length {y.length} not divisible by ratio {r}")
    if r == 1:
        x_samples = y.samples.copy()
    else:
        x_samples = spline_upsample(degrade(y.samples, r), r)
    prov = dict(y.provenance)
    prov["degradation"] = {
        "ratio": r, "filter": "cheby1", "order": 8,
        "ripple_db": 0.05, "cutoff": 0.8 / r if r > 1 else 1.0,
        "upscaling": "natural-cubic-spline",
    }
    return SignalAsset(x_samples, y.rate, prov), y


def make_patches(pair, patch_length: int = 8192, stride: int | None = None,
                 seed: int = 0) -> PatchDataset:
    """Cut aligned windows at offsets 0, stride, 2*stride, ..."""
    x, y = pair
    xs = x.samples if isinstance(x, SignalAsset) else np.asarray(x, dtype=np.float64)
    ys = y.samples if isinstance(y, SignalAsset) else np.asarray(y, dtype=np.float64)
    if xs.shape[0] != ys.shape[0]:
        raise ValueError("source/target lengths differ")
    t = xs.shape[0]
    if patch_length > t:
        raise PatchTooLong(f"patch {patch_length} longer than signal {t}")
    if stride is None:
        stride = patch_length // 2
    offsets = list(range(0, t - patch_length + 1, stride))
    pairs = [
        (xs[o:o + patch_length].copy(), ys[o:o + patch_length].copy())
        for o in offsets
    ]
    return PatchDataset(pairs, patch_length, stride, offsets, seed)


def zero_mask(x, rate: float, seed: int):
    """Zero each sample independently with probability ``rate``.

    Returns (masked, mask) where mask is True at zeroed positions;
    unmasked positions are bit-identical to the input.
    """
    if not 0.0 <= rate <= 1.0:
        raise InvalidRate(f"mask rate must be in [0, 1], got {rate}")
    arr = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    mask = rng.random(arr.shape) < rate
    masked = np.where(mask, 0.0, arr)
    return masked, mask


# --- file formats -------------------------------------------------------------


def _write_sidecar(path, asset):
    if asset.provenance:
        Path(str(path) + ".json").write_text(
            json.dumps(asset.provenance, indent=2, default=str)
        )


def _read_sidecar(path):
    sidecar = Path(str(path) + ".json")
    if sidecar.exists():
        return json.loads(sidecar.read_text())
    return {}


def write_rawf32(path, asset: SignalAsset):
    """RAWF32 container: magic, version, channels, rate, count, f32 LE
    samples interleaved by channel. Provenance goes to a JSON sidecar."""
    with open(path, "wb") as fh:
        fh.write(RAW_MAGIC)
        fh.write(struct.pack("<HHIQ", RAW_VERSION, asset.channels,
                             int(round(asset.rate)), asset.length))
        fh.write(np.asarray(asset.samples, dtype="<f4").tobytes())
    _write_sidecar(path, asset)


def read_rawf32(path) -> SignalAsset:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != RAW_MAGIC:
            raise BadMagic(f"bad magic {magic!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise TruncatedFile("truncated RAWF32 header")
        version, channels, rate, count = struct.unpack("<HHIQ", header)
        if version != RAW_VERSION:
            raise BadMagic(f"unsupported RAWF32 version {version}")
        raw = fh.read(4 * count * channels)
        if len(raw) != 4 * count * channels:
            raise TruncatedFile("truncated RAWF32 payload")
        samples = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        samples = samples.reshape(count, channels)
    return SignalAsset(samples, float(rate), _read_sidecar(path))


def write_wav(path, asset: SignalAsset):
    """16-bit PCM WAV, mono or stereo; samples clipped to [-1, 1)."""
    if asset.channels > 2:
        raise UnsupportedWavEncoding("WAV writer supports mono/stereo only")
    pcm = np.clip(np.round(asset.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(asset.channels)
        fh.setsampwidth(2)
        fh.setframerate(int(round(asset.rate)) or 1)
        fh.writeframes(pcm.tobytes())
    _write_sidecar(path, asset)


def read_wav(path) -> SignalAsset:
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getsampwidth() != 2:
                raise UnsupportedWavEncoding(
                    f"only 16-bit PCM supported, got {8 * fh.getsampwidth()}-bit"
                )
            channels = fh.getnchannels()
            if channels > 2:
                raise UnsupportedWavEncoding("only mono/stereo supported")
            rate = fh.getframerate()
            n = fh.getnframes()
            raw = fh.readframes(n)
    except wave.Error as exc:
        raise BadMagic(f"not a readable WAV file: {exc}") from exc
    if len(raw) != 2 * n * channels:
        raise TruncatedFile("truncated WAV payload")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return SignalAsset(samples.reshape(n, channels), float(rate),
                       _read_sidecar(path))


def write_csv_signal(path, asset: SignalAsset):
    """One column per channel, repr-precision floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"ch{i}" for i in range(asset.channels)])
        for row in asset.samples:
            writer.writerow([repr(float(v)) for v in row])
    _write_sidecar(path, asset)


def read_csv_signal(path) -> SignalAsset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise TruncatedFile("empty CSV file")
        rows = []
        for row in reader:
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise BadMagic(f"non-numeric CSV cell: {exc}") from exc
    if not rows:
        raise TruncatedFile("CSV has a header but no samples")
    return SignalAsset(np.asarray(rows), 0.0, _read_sidecar(path))
