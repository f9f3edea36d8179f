"""Gradient verification by central finite differences.

The tape in :mod:`tfilm.tensor` produces analytic gradients; this module
provides the independent numeric check used throughout the test suite.
Coordinates sitting on a kink (relu at 0, ties of a max) are detected by
comparing the two one-sided difference quotients and are excluded from
the comparison rather than reported as failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonDeterministicFunction
from .tensor import no_grad

__all__ = ["GradReport", "ParamReport", "finite_diff_check", "zero_grads"]

_REL_FLOOR = 1e-8
# one-sided slopes disagreeing by more than this (relative) flag a kink
_KINK_TOL = 1e-2


def zero_grads(params):
    for p in params:
        p.zero_grad()


@dataclass
class ParamReport:
    name: str
    max_rel_error: float
    excluded: int


@dataclass
class GradReport:
    """Outcome of one finite-difference comparison.

    ``max_rel_error`` is max over all non-excluded coordinates of
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """

    passed: bool
    max_rel_error: float
    h: float
    tol: float
    params: list[ParamReport] = field(default_factory=list)

    def __str__(self):
        lines = [
            f"gradcheck {'PASS' if self.passed else 'FAIL'} "
            f"(max rel err {self.max_rel_error:.3e}, h={self.h:g}, tol={self.tol:g})"
        ]
        for p in self.params:
            note = f", {p.excluded} excluded" if p.excluded else ""
            lines.append(f"  {p.name}: {p.max_rel_error:.3e}{note}")
        return "\n".join(lines)


def _central(f, params, data, i, h, base):
    orig = data[i]
    with no_grad():
        data[i] = orig + h
        f_plus = f(params).item()
        data[i] = orig - h
        f_minus = f(params).item()
    data[i] = orig
    d_plus = (f_plus - base) / h
    d_minus = (base - f_minus) / h
    return (f_plus - f_minus) / (2.0 * h), d_plus, d_minus


def finite_diff_check(f, params, h=1e-5, tol=1e-4, max_coords=None, seed=0):
    """Compare analytic gradients of ``f(params)`` against central differences.

    Coordinates are excluded (not failed) when they sit on a
    non-differentiable point. Two detectors cover this: the one-sided
    slopes disagreeing (exact relu kinks or max ties), and a refinement pass
    that re-checks failing coordinates at h/5 — a kink crossed inside the
    original stencil leaves the smaller stencil and the error collapses,
    while a genuine gradient bug persists at any step size.

    Args:
        f: callable taking the parameter list and returning a scalar Tensor.
           Must be deterministic and must record a tape, so not a model's
           eval forward: run train mode with a fixed dropout seed and step.
        params: leaf Tensors with ``requires_grad=True``; their ``.data``
           is perturbed in place and restored, in any memory order.
        h: perturbation step.
        tol: pass threshold on the relative error.
        max_coords: if set, check at most this many coordinates per
           parameter (seeded random subset of row-major flat indices);
           used for large models.

    Raises:
        NonDeterministicFunction: two forward passes at identical
            parameters returned different values.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    # only the analytic pass below records a tape
    with no_grad():
        base = f(params).item()
        again = f(params).item()
    if base != again:
        raise NonDeterministicFunction(
            f"f returned {base!r} then {again!r} at identical params"
        )

    zero_grads(params)
    loss = f(params)
    loss.backward()
    analytic = [
        np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params
    ]
    zero_grads(params)

    pick_rng = np.random.default_rng(seed)
    report = GradReport(passed=True, max_rel_error=0.0, h=h, tol=tol)
    for k, p in enumerate(params):
        if max_coords is not None and p.size > max_coords:
            coords = pick_rng.choice(p.size, size=max_coords, replace=False)
        else:
            coords = range(p.size)
        max_err = 0.0
        excluded = 0
        for flat_i in coords:
            # a logical index: reshape(-1) would copy non-row-major data
            i = np.unravel_index(flat_i, p.shape)
            numeric, d_plus, d_minus = _central(f, params, p.data, i, h, base)
            if abs(d_plus - d_minus) > _KINK_TOL * max(abs(d_plus), abs(d_minus), 1.0):
                excluded += 1
                continue
            a = analytic[k][i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), _REL_FLOOR)
            if rel >= tol:
                # refine: kink artifacts vanish at a smaller step
                numeric, _, _ = _central(f, params, p.data, i, h / 5.0, base)
                rel_small = abs(a - numeric) / max(abs(a), abs(numeric), _REL_FLOOR)
                if rel_small < tol and rel_small < 0.2 * rel:
                    excluded += 1
                    continue
                rel = min(rel, rel_small)
            max_err = max(max_err, rel)
        name = p.name or f"param{k}"
        report.params.append(ParamReport(name, max_err, excluded))
        report.max_rel_error = max(report.max_rel_error, max_err)
    report.passed = report.max_rel_error < tol
    return report
