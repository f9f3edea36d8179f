"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the ``tfilm`` modules at the names
their callers look up (``tfilm.model.conv1d`` is the name ``Model.forward``
calls, ``tfilm.data.degrade`` the one ``make_pairs`` calls, and so on), so
no file of the package changes. Each call becomes one span
``[name, start, end, parent]`` kept in a list; the list is written out
when the run ends. A span's self time is its duration minus the
durations of its direct children: the program is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

import tfilm.data
import tfilm.dsp
import tfilm.experiments
import tfilm.model
import tfilm.modulation
import tfilm.train
from tfilm.model import Model
from tfilm.tensor import Tensor

# (owner, attribute, span name). Several names of one function share a
# span name: ``spline_upsample`` is looked up in ``tfilm.data`` by
# ``make_pairs`` and in ``tfilm.dsp`` by the benchmark.
TARGETS = [
    (Model, "forward", "model.forward"),   # span named model.forward_<mode>
    (tfilm.model, "conv1d", "layers.conv1d"),
    (tfilm.model, "subpixel_shuffle", "layers.subpixel_shuffle"),
    (tfilm.model, "tfilm_forward", "modulation.tfilm_forward"),
    (tfilm.modulation, "lstm_scan", "layers.lstm_scan"),
    (Tensor, "backward", "tensor.backward"),
    (tfilm.train, "train", "train.train"),
    (tfilm.train, "mse_loss", "train.mse_loss"),
    (tfilm.train, "init_adam", "train.init_adam"),
    (tfilm.train, "adam_step", "train.adam_step"),
    (tfilm.train, "save_checkpoint", "model.save_checkpoint"),
    (tfilm.model, "save_checkpoint", "model.save_checkpoint"),
    (tfilm.model, "load_checkpoint", "model.load_checkpoint"),
    (tfilm.model, "build_model", "model.build_model"),
    (tfilm.data, "make_pairs", "data.make_pairs"),
    (tfilm.experiments, "spline_impute", "experiments.spline_impute"),
    (tfilm.data, "degrade", "dsp.degrade"),
    (tfilm.dsp, "degrade", "dsp.degrade"),
    (tfilm.data, "spline_upsample", "dsp.spline_upsample"),
    (tfilm.dsp, "spline_upsample", "dsp.spline_upsample"),
]

# Spans the benchmark itself opens around its phases.
SETUP, UNIT = "bench.setup", "bench.unit"

# per-layer metric -> (span name, phase root, statistic); times are
# seconds per set-up for the set-up phase and per unit of work otherwise
LAYER_METRICS = {
    "layers.conv1d_s": ("layers.conv1d", UNIT, "total"),
    "layers.conv1d_calls": ("layers.conv1d", UNIT, "calls"),
    "layers.lstm_scan_s": ("layers.lstm_scan", UNIT, "total"),
    "modulation.tfilm_forward_s": ("modulation.tfilm_forward", UNIT, "total"),
    "modulation.tfilm_self_s": ("modulation.tfilm_forward", UNIT, "self"),
    "tensor.backward_s": ("tensor.backward", UNIT, "total"),
    "train.adam_step_s": ("train.adam_step", UNIT, "total"),
    "model.save_checkpoint_s": ("model.save_checkpoint", UNIT, "total"),
    "model.forward_train_s": ("model.forward_train", UNIT, "total"),
    "model.forward_eval_s": ("model.forward_eval", UNIT, "total"),
    "train.mse_loss_s": ("train.mse_loss", UNIT, "total"),
    "data.make_pairs_s": ("data.make_pairs", SETUP, "total"),
    "dsp.degrade_s": ("dsp.degrade", SETUP, "total"),
    "model.load_checkpoint_s": ("model.load_checkpoint", SETUP, "total"),
    "model.build_model_s": ("model.build_model", SETUP, "total"),
    "dsp.spline_upsample_s": ("dsp.spline_upsample", UNIT, "total"),
    "experiments.spline_impute_s": ("experiments.spline_impute", UNIT, "total"),
}


def conv1d_flops(p, out):
    """Multiply-adds of one conv1d call, counted as 2 flops each."""
    n, t_out, c_out = out.shape
    return 2 * n * t_out * p.kernel_len * p.in_channels * c_out


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.counts = Counter()  # work counted at the same boundaries
        self._open = []
        self._saved = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name):
        if name == "model.forward":
            @functools.wraps(fn)
            def forward(model, x, mode="eval", *args, **kwargs):
                with self.span(f"model.forward_{mode}"):
                    return fn(model, x, mode, *args, **kwargs)
            return forward
        if name == "layers.conv1d":
            @functools.wraps(fn)
            def conv1d(x, p):
                with self.span(name):
                    out = fn(x, p)
                root = self.spans[self._open[0]][0] if self._open else None
                self.counts[f"{root}/layers.conv1d_flops"] += conv1d_flops(p, out)
                return out
            return conv1d

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self):
        """Replace every target with its traced wrapper."""
        if self._saved:
            return
        for owner, attr, name in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def remove(self):
        """Put the original functions back."""
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def write(self, path):
        path.write_text(json.dumps({"spans": self.spans, "counts": dict(self.counts)}))

    # -- derived numbers -------------------------------------------------------

    def _roots(self):
        """Name of the outermost span above each span."""
        roots = []
        for name, _, _, parent in self.spans:
            roots.append(name if parent is None else roots[parent])
        return roots

    def self_times(self):
        """Duration minus the durations of direct children, per span."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_metrics(self):
        """Per-layer seconds and counts, per set-up and per unit of work."""
        roots = self._roots()
        own = self.self_times()
        phases = Counter(name for name, _, _, parent in self.spans if parent is None)
        sums = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            sums[(name, roots[i], "total")] += end - start
            sums[(name, roots[i], "self")] += own[i]
            sums[(name, roots[i], "calls")] += 1
        out = {}
        for metric, (name, phase, stat) in LAYER_METRICS.items():
            out[metric] = sums[(name, phase, stat)] / max(phases[phase], 1)
        conv_s = sums[("layers.conv1d", UNIT, "total")]
        flops = self.counts[f"{UNIT}/layers.conv1d_flops"]
        out["layers.conv1d_gflops"] = flops / conv_s / 1e9 if conv_s else 0.0
        # time inside units that no named layer span covers: the self time
        # of the unit spans and of train() itself
        unit_s = sums[(UNIT, UNIT, "total")]
        gap = sums[(UNIT, UNIT, "self")] + sums[("train.train", UNIT, "self")]
        out["unattributed_share"] = gap / unit_s if unit_s else 0.0
        return out


def tape_stats(out):
    """Op nodes reachable from ``out`` and the bytes their values hold.

    Leaves (inputs and parameters) are not counted: they live without the
    tape. This reads the graph through ``Tensor._parents``, the only way
    the tape exposes its structure.
    """
    seen = set()
    stack = [out]
    nodes = 0
    nbytes = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._parents:
            nodes += 1
            nbytes += t.data.nbytes
            stack.extend(t._parents)
    return nodes, nbytes
