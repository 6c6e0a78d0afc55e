"""Pointwise adaptive denoising and prediction, plus the theoretical risk formulas.

The estimator is fully data driven: given a setup ``(rho, T)`` (plus a lag
``kappa`` for prediction) it fits the min-max filter on a window around the
anchor and applies it at the anchor. :func:`denoise_point` covers both modes:
a setup without a lag filters, and one with a lag ``kappa`` predicts, which
is the same fit with a one-sided support. Both modes build their instances
with the one builder :func:`gridfilt.solver.build_instance`, which reads the
mode from the lag.
:func:`denoise_batch` makes the same fits at one anchor of several
observation fields, solved as one batch. The noise level never enters the
fit; it only appears in :func:`risk_bound`, which evaluates the theoretical
guarantee

    rmse <= c(d) rho^3 (theta + sigma rho sqrt(ln(2T+1) + 1)) (2T+1)^{-d/2},
    c(d) = 3 (2^d + 2^{3d-1}),

valid whenever the signal admits an order-T certificate with parameters
``(theta, rho)`` on a horizon L >= 3T around the anchor.
``theta_stat`` computes the data-dependent noise statistic driving the
pathwise error bound (the sup, over window shifts, of the shifted noise
window's transform maxima).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ParamError
from .fields import Box, Field, convolve, dft_windows
from .solver import (
    Instance,
    SolveResult,
    build_instance,
    solve,
    solve_batch,
)

__all__ = [
    "DenoiseSetup",
    "Estimate",
    "denoise_point",
    "denoise_batch",
    "risk_bound",
    "theta_stat",
    "risk_constant",
]


@dataclass(frozen=True)
class DenoiseSetup:
    """Estimator setup: finite norm budget ``rho >= 1``, order ``T``, and for
    prediction a lag ``0 <= kappa <= T``; ``kappa=None`` means filtering."""

    rho: float
    T: int
    kappa: int | None = None

    def __post_init__(self):
        if not 1 <= self.rho < math.inf:
            raise ParamError(f"rho must be finite and >= 1, got {self.rho}")
        if self.T < 0:
            raise ParamError("T must be nonnegative")
        if self.kappa is not None and not 0 <= self.kappa <= self.T:
            raise ParamError(f"prediction needs 0 <= kappa <= T, got "
                             f"kappa={self.kappa}, T={self.T}")


@dataclass(frozen=True)
class Estimate:
    """Estimated signal value at an anchor; ``solve`` is None for T = 0."""

    value: complex
    solve: SolveResult | None


def denoise_point(y: Field, t: Sequence[int], setup: DenoiseSetup,
                  tol: float = 1e-6, max_iter: int = 20000) -> Estimate:
    """Adaptive estimate of the signal at ``t``, filtering or prediction.

    Filtering reads ``y`` on ``{|tau - t| <= 4T}``. Prediction reads only
    ``{kappa <= t_j - tau_j <= 4T}``, so the fitted filter and hence the
    estimate depend only on observations preceding the anchor by at least
    ``kappa`` in every coordinate. T = 0 returns the observation itself,
    which must be finite; otherwise the fitted filter is applied at the
    anchor. A fit that misses its budget is returned too, with its certified
    gap and ``solve.converged`` false.
    """
    t = tuple(int(x) for x in t)
    if setup.T == 0:
        return _observation(y, t)
    inst = build_instance(y, t, setup.T, setup.rho, setup.kappa)
    return _estimate(inst, solve(inst, tol=tol, max_iter=max_iter))


def denoise_batch(ys: Sequence[Field], t: Sequence[int], setup: DenoiseSetup,
                  tol: float = 1e-6, max_iter: int = 20000) -> list[Estimate]:
    """:func:`denoise_point` at one anchor of several observation fields.

    The fits share a geometry and are solved as one batch. Estimate ``k``
    is bit-identical to ``denoise_point(ys[k], t, setup)``, converged or
    not. The fields are checked in order, so an error is the first failing
    field's.
    """
    t = tuple(int(x) for x in t)
    if setup.T == 0:
        return [_observation(y, t) for y in ys]
    insts = [build_instance(y, t, setup.T, setup.rho, setup.kappa) for y in ys]
    results = solve_batch(insts, tol=tol, max_iter=max_iter)
    return [_estimate(inst, res) for inst, res in zip(insts, results)]


def _observation(y: Field, t: tuple[int, ...]) -> Estimate:
    """The T = 0 estimate: the observation at the anchor, checked finite."""
    value = y.value(t)
    if not np.isfinite(value):
        raise DomainError(f"observation at {t} is not finite: {value}")
    return Estimate(value, None)


def _estimate(inst: Instance, res: SolveResult) -> Estimate:
    """Apply the fitted filter at the anchor."""
    t = inst.t
    return Estimate(convolve(res.phi, inst.y_win, Box(t, t)).value(t), res)


def risk_constant(d: int) -> float:
    """The dimension constant ``c(d) = 3 (2^d + 2^{3d-1})``."""
    if d < 1:
        raise ParamError("dimension must be positive")
    return 3.0 * (2 ** d + 2 ** (3 * d - 1))


def risk_bound(d: int, T: int, rho: float, theta: float, sigma: float) -> float:
    """Mean-square-error bound for a ``(theta, rho)``-certified signal."""
    if not (T >= 0 and theta >= 0 and sigma >= 0 and 1 <= rho < math.inf):
        raise ParamError("need T, theta, sigma >= 0 and 1 <= rho < inf, got "
                         f"T={T}, theta={theta}, sigma={sigma}, rho={rho}")
    return (risk_constant(d) * rho ** 3
            * (theta + sigma * rho * math.sqrt(math.log(2 * T + 1) + 1))
            * (2 * T + 1) ** (-d / 2))


def theta_stat(e: Field, t: Sequence[int], T: int) -> float:
    """Sup over shifts ``|tau| <= 2T`` of the shifted window transform maxima of ``e``.

    This is the un-normalized noise statistic of the pathwise bound (the
    caller divides by sigma if the normalized version is wanted). Reads ``e``
    on ``{|tau - t| <= 4T}``.
    """
    t = tuple(int(x) for x in t)
    if T < 0:
        raise ParamError("T must be nonnegative")
    need = Box.cube(e.d, 4 * T, t)
    if not e.box.contains_box(need):
        raise DomainError(f"noise field must cover {need}, got {e.box}")
    return float(_shift_maxima(e.data[need.slices_in(e.box)], T, e.d))


def _shift_maxima(data: np.ndarray, T: int, d: int) -> np.ndarray:
    """:func:`theta_stat` of each field of a stack: the trailing ``d`` axes
    hold the values on ``{|tau - t| <= 4T}``, the leading axes index the
    stack. One stacked transform of every shifted window of every field;
    memory is (4T+1)^{2d} per field, as for the solver's dense operator."""
    W = 2 * T
    windows = np.lib.stride_tricks.sliding_window_view(
        data, (2 * W + 1,) * d, axis=tuple(range(-d, 0)))
    spectra = np.abs(dft_windows(windows, W, d))
    return spectra.reshape(spectra.shape[:data.ndim - d] + (-1,)).max(axis=-1)
