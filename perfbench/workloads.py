"""The benchmark workloads.

A workload builds its inputs from the seed in ``setup`` and then repeats
one fixed unit of work: one ``train()`` call from the same starting
parameters, or one pass of per-patch eval forwards over the same signal.
Units of one run therefore produce identical results, which the checks
use, also across the set-ups that a run repeats between units. Models
are fixed (seeded by ``MODEL_SEED``); only the data follows the
workload seed.

Every workload drives the package through its public functions, looked
up as module attributes at call time so that the traced run sees the
calls.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass

import numpy as np

import tfilm.data as tdata
import tfilm.dsp as tdsp
import tfilm.experiments as texp
import tfilm.model as tmodel
import tfilm.train as ttrain
from tfilm.errors import TfilmError
from tfilm.tensor import Tensor

MODEL_SEED = 0
PERTURB_SEED = 1
PERTURB_STD = 1e-3
REFERENCE_SEED = 19090662   # fixed inputs of the reference cases
# tolerance of the reference comparisons: loose enough for float64
# reassociation (about 1e-13 here), tight enough for any real change
RTOL, ATOL = 1e-6, 1e-9


class Checks:
    """Output checks. Each one is an attempted operation; a failed check
    is recorded and the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    def close(self, got, want, what):
        got = np.asarray(got, dtype=np.float64)
        want = np.asarray(want, dtype=np.float64)
        ok = got.shape == want.shape and np.allclose(got, want, rtol=RTOL, atol=ATOL)
        return self.expect(ok, what)


@dataclass
class Unit:
    seconds: float     # wall time of the timed work
    samples: int       # input samples trained on, or output samples produced
    latencies: list    # per-epoch (training) or per-patch forward (inference) seconds


def perturb(model):
    """Give the zero-initialized tensors (final conv, biases, TFiLM
    projections) small seeded values, so the model is not the identity."""
    rng = np.random.default_rng(PERTURB_SEED)
    for p in model.params():
        if not p.data.any():
            p.data = rng.normal(0.0, PERTURB_STD, p.shape)


def digest(model):
    """Per-tensor sum and sum of squares of the parameters."""
    ps = model.params()
    return {"param_sum": [float(p.data.sum()) for p in ps],
            "param_sumsq": [float((p.data * p.data).sum()) for p in ps]}


def matches_checkpoint(model, path):
    """Whether ``path`` loads back to ``model``'s config and float32 parameters."""
    try:
        loaded = tmodel.load_checkpoint(path)
    except (TfilmError, OSError, ValueError):
        return False
    return loaded.cfg == model.cfg and all(
        np.array_equal(a.data, b.data.astype(np.float32).astype(np.float64))
        for a, b in zip(loaded.params(), model.params())
    )


def fixed_multisine(length, seed):
    """Five in-band components (r=2 keeps 0.2 cycles/sample) with slow
    amplitude modulation; the seed draws the phases, so the spectrum and
    the task's difficulty are the same for every seed."""
    components = [
        {"freq": f, "amp": a, "am_freq": 5e-4, "am_depth": 0.5}
        for f, a in ((0.013, 1.0), (0.037, 0.8), (0.071, 0.6), (0.113, 0.5), (0.167, 0.4))
    ]
    spec = {"kind": "multisine", "length": length, "components": components}
    return tdata.synth_signal(spec, seed=seed).samples[:, 0]


class Workload:
    SIZES = {}

    def __init__(self, name, seed, size, tmp):
        self.name = name
        self.seed = seed
        self.size = size
        self.p = self.SIZES[size]
        self.tmp = tmp
        self.init_ckpt = tmp / "init.ckpt"
        self.model = None
        # the first unit's result, which later units must reproduce; kept
        # across set-ups, which rebuild the same inputs and model
        self.first = None

    def model_config(self):
        raise NotImplementedError

    def warm_up(self):
        pass

    def checkpointed_model(self, perturbed):
        """Build, save and load the model: training and inference both
        start from a model as a user loads it."""
        model = tmodel.build_model(self.model_config(), seed=MODEL_SEED)
        if perturbed:
            perturb(model)
        tmodel.save_checkpoint(self.init_ckpt, model)
        del model
        return tmodel.load_checkpoint(self.init_ckpt)


# --- training -------------------------------------------------------------------


class SrTrain(Workload):
    """The criterion-6 training config: conv1d-bound steps. One unit is
    one ``train()`` call from the initial checkpoint."""

    # train_patches: patches the validation split leaves for training at
    # these offsets; each epoch is then whole batches
    SIZES = {
        "full": dict(n_signals=5, length=8192, patch=2048, train_patches=16,
                     batch=16, epochs=2, ref_len=2048),
        "tiny": dict(n_signals=4, length=1024, patch=256, train_patches=13,
                     batch=13, epochs=1, ref_len=256),
    }
    REF_STEPS = 3   # one step per epoch; t > 1 exercises ADAM's moments

    def model_config(self):
        return tmodel.ModelConfig(depth=2, patch_length=self.p["patch"], max_filters=16,
                                  tfilm_blocks=32, dropout_rate=0.5)

    def train_config(self, out_dir):
        return ttrain.TrainConfig(epochs=self.p["epochs"], batch_size=self.p["batch"],
                                  seed=self.seed, out_dir=out_dir, restore_best=True)

    def setup(self):
        self.model = self.trained = None
        p = self.p
        signals = texp.make_sr_corpus(p["n_signals"], p["length"], seed=self.seed)
        parts = [tdata.make_patches(tdata.make_pairs(s, 2), p["patch"], p["patch"])
                 for s in signals]
        self.dataset = tdata.PatchDataset(
            [pair for d in parts for pair in d.pairs], p["patch"], p["patch"],
            [o for d in parts for o in d.offsets], self.seed,
        )
        self.model = self.checkpointed_model(perturbed=False)

    def prepare(self):
        """Every unit starts from the initial checkpoint."""
        if self.model is None:
            self.trained = None
            self.model = tmodel.load_checkpoint(self.init_ckpt)

    def unit(self, checks):
        out_dir = self.tmp / "run"
        shutil.rmtree(out_dir, ignore_errors=True)
        cfg = self.train_config(str(out_dir))
        t0 = time.perf_counter()
        try:
            run = ttrain.train(self.model, self.dataset, cfg)
        finally:
            seconds = time.perf_counter() - t0
            self.trained, self.model = self.model, None

        losses = run.epoch_losses
        steps = cfg.epochs * -(-self.p["train_patches"] // cfg.batch_size)
        checks.expect(len(losses) == cfg.epochs and run.steps == steps,
                      "train: one loss per epoch, expected step count")
        checks.expect(all(math.isfinite(v) for v in losses), "train: losses finite")
        checks.expect(all(np.isfinite(p.data).all() for p in self.trained.params()),
                      "train: parameters finite")
        if self.first is None:
            self.first = losses
        else:
            checks.expect(losses == self.first, "train: losses equal across units")
        self.run = run
        samples = run.steps * cfg.batch_size * self.p["patch"]
        return Unit(seconds, samples, list(run.epoch_seconds))

    def finish(self, checks):
        """Check the last written checkpoint; return the last epoch's loss
        as a share of the spline baseline's MSE on the dataset."""
        # with restore_best the final parameters are the best ones when a
        # best was recorded, else the initial ones
        path = self.run.best_checkpoint or self.init_ckpt
        checks.expect(matches_checkpoint(self.trained, path),
                      "train: written checkpoint loads back to the parameters")
        self.trained = None
        # the spline baseline is the model input itself
        baseline = np.mean([np.mean((x[:, 0] - y[:, 0]) ** 2) for x, y in self.dataset.pairs])
        return self.run.epoch_losses[-1] / float(baseline)

    def reference_case(self, checks):
        """Gradients, then REF_STEPS training steps, from the perturbed
        initial checkpoint on a fixed patch.

        The unperturbed model's final conv is zero, so no gradient would
        reach the layers before it; perturbed, every layer's backward and
        ADAM's moments (over several steps) shape the recorded values.
        """
        model = tmodel.load_checkpoint(self.init_ckpt)
        perturb(model)
        signal = texp.make_sr_corpus(1, self.p["ref_len"], seed=REFERENCE_SEED)[0]
        x, y = tdata.make_pairs(signal, 2)
        n = self.p["ref_len"]

        model.zero_grads()
        pred = model.forward(Tensor(x.samples[None]), mode="train", dropout_seed=0, step=0)
        ttrain.mse_loss(pred, Tensor(y.samples[None, :, :1])).backward()
        grads = [p.grad for p in model.params()]
        checks.expect(all(g is not None and g.any() for g in grads),
                      "reference: every parameter gets a non-zero gradient")
        # logs, so that the comparison is relative: the LSTM weights'
        # gradients are about 1e-8, below ATOL
        grad_log_norm = [float(np.log(np.linalg.norm(g))) if g is not None and g.any()
                         else 0.0 for g in grads]
        model.zero_grads()

        before = [p.data.copy() for p in model.params()]
        dataset = tdata.PatchDataset([(x.samples, y.samples)], n, n, [0], 0)
        run = ttrain.train(model, dataset, ttrain.TrainConfig(
            epochs=self.REF_STEPS, batch_size=1, val_fraction=0.0, save_checkpoints=False))
        checks.expect(all(not np.array_equal(a, p.data) for a, p in zip(before, model.params())),
                      "reference: training moves every parameter")
        return {"loss": run.epoch_losses, "grad_log_norm": grad_log_norm, **digest(model)}

    def tape_output(self):
        """A train-mode forward on the first batch."""
        model = tmodel.load_checkpoint(self.init_ckpt)
        batch = self.dataset.pairs[:self.p["batch"]]
        x = Tensor(np.stack([px for px, _ in batch]))
        return model.forward(x, mode="train", dropout_seed=0, step=0)


# --- inference ------------------------------------------------------------------


class InferWorkload(Workload):
    """One unit is one pass over the seeded signal: the spline step, then
    one eval forward per patch with N=1."""

    def setup(self):
        self.model = None
        self.target = self.make_signal()
        self.model = self.checkpointed_model(perturbed=True)

    def make_signal(self):
        raise NotImplementedError

    def model_input(self):
        """The (T, k) model input of the whole signal (the spline step)."""
        raise NotImplementedError

    def prepare(self):
        pass

    def forward(self, x):
        return self.model.forward(Tensor(x[None]), mode="eval")

    def warm_up(self):
        """One untimed forward, so first-touch costs stay out of the timings."""
        patch = self.model.cfg.patch_length
        self.forward(self.model_input()[:patch])

    def unit(self, checks):
        patch = self.model.cfg.patch_length
        outs, shapes, latencies = [], [], []
        t0 = time.perf_counter()
        x = self.model_input()
        for start in range(0, x.shape[0], patch):
            t = time.perf_counter()
            y = self.forward(x[start:start + patch])
            latencies.append(time.perf_counter() - t)
            shapes.append(y.shape)
            outs.append(y.data[0, :, 0])
            del y
        seconds = time.perf_counter() - t0

        for shape, out in zip(shapes, outs):
            checks.expect(shape == (1, patch, 1) and np.isfinite(out).all(),
                          "infer: patch output finite with shape (1, T, 1)")
        output = np.concatenate(outs)
        if self.first is None:
            self.first = output
        else:
            checks.expect(np.array_equal(output, self.first),
                          "infer: outputs equal across passes")
        self.output = output
        return Unit(seconds, output.size, latencies)

    def finish(self, checks):
        """Check the model changed its input; return the output's MSE
        against the clean signal as a share of the spline baseline's."""
        spline = self.model_input()[:, 0]
        checks.expect(not np.array_equal(self.output, spline),
                      "infer: perturbed model is not the identity")
        return float(np.mean((self.output - self.target) ** 2)
                     / np.mean((spline - self.target) ** 2))

    def reference_case(self, checks):
        return {"output": self.forward(self.reference_input()).data[0, :, 0].tolist()}

    def tape_output(self):
        return self.forward(self.model_input()[:self.model.cfg.patch_length])


class ImputeInfer(InferWorkload):
    """Imputation config on a long masked random walk: small GEMMs, so
    per-op tape overhead of the LSTM scans dominates."""

    SIZES = {"full": dict(patches=32, ref_len=64), "tiny": dict(patches=4, ref_len=64)}
    RATE = 0.2

    def model_config(self):
        return tmodel.ModelConfig(depth=2, input_channels=2, patch_length=512,
                                  max_filters=16, tfilm_blocks=16, dropout_rate=0.5)

    def walk(self, patches, length, seed):
        """One random walk per patch, joined: the level of one long walk
        drifts with the seed, and the perturbed model's error with it."""
        spec = {"kind": "random-walk", "length": length, "step_std": 0.02}
        series = np.concatenate([tdata.synth_signal(spec, seed=seed * 1000 + i).samples[:, 0]
                                 for i in range(patches)])
        return series, tdata.zero_mask(series, self.RATE, seed=seed)

    def make_signal(self):
        series, (self.masked, self.mask) = self.walk(self.p["patches"], 512, self.seed)
        return series

    @staticmethod
    def impute_input(masked, mask):
        filled = texp.spline_impute(masked, mask)
        return np.stack([filled, mask.astype(np.float64)], axis=1)

    def model_input(self):
        return self.impute_input(self.masked, self.mask)

    def reference_input(self):
        _, (masked, mask) = self.walk(1, self.p["ref_len"], REFERENCE_SEED)
        return self.impute_input(masked, mask)


class PaperUpsample(InferWorkload):
    """The paper-scale K=4 model at T=8192, one patch per pass: inference
    at large GEMMs."""

    SIZES = {
        "full": dict(max_filters=512, patch=8192, ref_len=256),
        "tiny": dict(max_filters=16, patch=1024, ref_len=256),
    }

    def model_config(self):
        return tmodel.ModelConfig(patch_length=self.p["patch"],
                                  max_filters=self.p["max_filters"])

    def make_signal(self):
        target = fixed_multisine(self.p["patch"], self.seed)
        self.low = tdsp.degrade(target, 2)
        return target

    def model_input(self):
        return tdsp.spline_upsample(self.low, 2)[:, None]

    def reference_input(self):
        low = tdsp.degrade(fixed_multisine(self.p["ref_len"], REFERENCE_SEED), 2)
        return tdsp.spline_upsample(low, 2)[:, None]


WORKLOADS = {
    "sr-train": SrTrain,
    "impute-infer": ImputeInfer,
    "paper-upsample": PaperUpsample,
}
