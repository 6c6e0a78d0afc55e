"""The min-max filter fitting program behind the adaptive estimators.

For an anchor ``t``, window order ``W = 2 T`` and observations ``y``, solve

    minimize   | F_W [ (1 - phi(D)) y  recentered at t ] |_inf
    over       phi supported on the admissible set S
    subject to | F_W phi |_1  <=  2^{d/2} rho^2 (2T+1)^{-d/2}

where S is the centered cube ``{|nu| <= W}`` for filtering and the one-sided
cube ``{kappa <= nu_j <= W}`` for prediction. In the prediction case the
residual is evaluated on the causal offsets ``{-W <= tau_j <= -kappa}`` only
(zero elsewhere in the transform window), so the whole program reads just the
observations ``{kappa <= t_j - tau_j <= 4T}`` preceding the anchor.

Method: after the unitary change of variables ``Phi = F_W phi`` the program is
a complex l1-ball constrained Chebyshev fit ``min ||b - A Phi||_inf``; it is
solved by a primal-dual (saddle point) first-order iteration with exact
closed-form projections, plus ergodic restarts. Every iterate yields a
feasible filter and a certified dual lower bound, so the reported optimality
gap is unconditional. The solve is deterministic: identical instances produce
bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, ParamError
from .fields import (
    FILTERING,
    PREDICTION,
    Box,
    Field,
    Filter,
    Spectrum,
    _dft_matrix,
    _nonzero_outside,
    convolve,
    dft_window,
)

__all__ = [
    "Instance",
    "SolveResult",
    "build_filtering_instance",
    "build_prediction_instance",
    "objective",
    "solve",
    "dual_lower_bound",
    "project_l1_ball",
]


@dataclass(frozen=True)
class Instance:
    """Problem data for one anchor point.

    ``T_alg`` is the setup order; the residual transform window is
    ``W = 2 T_alg``. ``y_win`` holds exactly the observations the program may
    read. ``l1_bound`` is the spectral l1 budget ``2^{d/2} rho^2
    (2 T_alg + 1)^{-d/2}``.
    """

    mode: str
    d: int
    t: tuple[int, ...]
    T_alg: int
    rho: float
    kappa: int | None
    y_win: Field
    l1_bound: float

    @property
    def W(self) -> int:
        return 2 * self.T_alg

    @property
    def support_box(self) -> Box:
        if self.mode == FILTERING:
            return Box.cube(self.d, self.W)
        return Box.one_sided_cube(self.d, self.kappa, self.W)

    def residual_offsets(self) -> Box:
        """Offsets tau (relative to t) where the residual is evaluated."""
        if self.mode == FILTERING:
            return Box.cube(self.d, self.W)
        return Box((-self.W,) * self.d, (-self.kappa,) * self.d)


@dataclass(frozen=True)
class SolveResult:
    """Feasible filter with certified objective value and dual lower bound."""

    phi: Filter
    objective: float
    dual_bound: float
    gap: float
    iterations: int
    converged: bool
    dual_u: Spectrum


def build_filtering_instance(y: Field, t: Sequence[int], T_alg: int,
                             rho: float) -> Instance:
    """Instance of the two-sided program at anchor ``t``.

    Requires ``rho >= 1``, ``T_alg >= 1`` and finite observations on
    ``{|tau - t| <= 4 T_alg}``.
    """
    return _build_instance(FILTERING, y, t, T_alg, rho, None)


def build_prediction_instance(y: Field, t: Sequence[int], T_alg: int,
                              kappa: int, rho: float) -> Instance:
    """Instance of the one-sided (causal) program at anchor ``t``.

    The admissible supports are ``{kappa <= nu_j <= 2 T_alg}`` and the
    program reads only ``{kappa <= t_j - tau_j <= 4 T_alg}``, where the
    observations must be finite.
    """
    return _build_instance(PREDICTION, y, t, T_alg, rho, kappa)


def _build_instance(mode: str, y: Field, t: Sequence[int], T_alg: int,
                    rho: float, kappa: int | None) -> Instance:
    """Check the parameters, the coverage and the finiteness of the read set."""
    t = tuple(int(x) for x in t)
    if rho < 1:
        raise ParamError(f"rho must be >= 1, got {rho}")
    if T_alg < 1:
        raise ParamError(f"T_alg must be >= 1, got {T_alg}")
    if mode == PREDICTION:
        if not 0 <= kappa <= 2 * T_alg:
            raise ParamError(f"need 0 <= kappa <= 2*T_alg, got kappa={kappa}")
        kappa = int(kappa)
    d = y.d
    if len(t) != d:
        raise ParamError("anchor dimension mismatch")
    reach = -kappa if mode == PREDICTION else 4 * T_alg
    need = Box(tuple(tj - 4 * T_alg for tj in t), tuple(tj + reach for tj in t))
    if not y.box.contains_box(need):
        raise DomainError(f"observations must cover {need}, got {y.box}")
    y_win = y.restrict(need)
    finite = np.isfinite(y_win.data)
    if not finite.all():
        tau = tuple(int(i) + l for i, l in zip(np.argwhere(~finite)[0], need.lo))
        raise DomainError(f"observation at {tau} is not finite: {y_win.value(tau)}")
    bound = 2 ** (d / 2) * rho ** 2 * (2 * T_alg + 1) ** (-d / 2)
    return Instance(mode, d, t, T_alg, float(rho), kappa, y_win, bound)


# --------------------------------------------------------------------------
# residual evaluation (reference path, used by `objective` and the tests)
# --------------------------------------------------------------------------


def _check_support(inst: Instance, phi: Filter) -> None:
    supp = inst.support_box
    tau = _nonzero_outside(phi.field, supp)
    if tau is not None:
        raise DomainError(
            f"filter has a nonzero coefficient at {tau}, outside the "
            f"admissible support {supp}")


def _residual_window(inst: Instance, phi: Filter | None) -> np.ndarray:
    """Recentred residual values on the transform window, truncation applied."""
    W, d, t = inst.W, inst.d, inst.t
    offsets = inst.residual_offsets()
    eval_box = offsets.translate(t)
    y_vals = inst.y_win.restrict(eval_box).data
    if phi is not None:
        filtered = convolve(phi, inst.y_win, eval_box)
        resid = y_vals - filtered.data
    else:
        resid = y_vals
    window = np.zeros((2 * W + 1,) * d, dtype=np.complex128)
    sl = tuple(slice(lo + W, hi + W + 1) for lo, hi in zip(offsets.lo, offsets.hi))
    window[sl] = resid
    return window


def objective(inst: Instance, phi: Filter) -> float:
    """Exact objective ``J(phi)``: sup of the residual window transform moduli.

    ``phi`` must vanish outside the instance's admissible support.
    """
    _check_support(inst, phi)
    return float(np.abs(dft_window(_residual_window(inst, phi), inst.W)).max())


# --------------------------------------------------------------------------
# dense operator in spectrum coordinates
# --------------------------------------------------------------------------


class _Operator:
    """Materialized maps of the saddle problem for one instance.

    ``A`` maps the spectrum vector ``Phi = F_W phi`` to the spectrum of the
    (truncated) window of ``phi(D) y`` recentered at the anchor; ``b`` is the
    spectrum of the recentered observation window. ``off_rows`` holds the rows
    of the inverse transform at spatial slots outside the admissible support
    (empty for filtering); they enforce the support constraint through an
    extra dual block.
    """

    def __init__(self, inst: Instance):
        W, d, t = inst.W, inst.d, inst.t
        n_side = 2 * W + 1
        n = n_side ** d
        self.n = n
        self.inst = inst

        self.b = dft_window(_residual_window(inst, None), W).ravel()

        offsets = inst.residual_offsets()
        supp = inst.support_box
        g = inst.y_win
        window_sl = tuple(slice(lo + W, hi + W + 1)
                          for lo, hi in zip(offsets.lo, offsets.hi))
        A_spatial = np.zeros((n, n), dtype=np.complex128)
        supp_mask = np.zeros((n_side,) * d, dtype=bool)
        for idx in np.ndindex(*supp.shape):
            nu = tuple(l + i for l, i in zip(supp.lo, idx))
            supp_mask[tuple(v + W for v in nu)] = True
            src = Box(tuple(el + tj - vj for el, tj, vj in zip(offsets.lo, t, nu)),
                      tuple(eh + tj - vj for eh, tj, vj in zip(offsets.hi, t, nu)))
            col_window = np.zeros((n_side,) * d, dtype=np.complex128)
            col_window[window_sl] = g.data[src.slices_in(g.box)]
            col = dft_window(col_window, W).ravel()
            A_spatial[:, np.ravel_multi_index(tuple(v + W for v in nu),
                                              (n_side,) * d)] = col
        self.supp_mask = supp_mask.ravel()

        F1 = _dft_matrix(W) / math.sqrt(n_side)
        F = F1
        for _ in range(d - 1):
            F = np.kron(F, F1)
        self.F = F                      # spatial -> spectrum (unitary)
        self.Finv = F.conj().T          # spectrum -> spatial
        self.A = A_spatial @ self.Finv  # spectrum -> spectrum
        off = ~self.supp_mask
        self.off_rows = self.Finv[off, :] if off.any() else None

    def op_norm(self, iters: int = 150) -> float:
        """Deterministic power-iteration estimate of ||A|| (with margin)."""
        v = np.full(self.n, 1.0 + 0.5j) + np.linspace(0, 1, self.n)
        v /= np.linalg.norm(v)
        AH = self.A.conj().T
        lam = 0.0
        for _ in range(iters):
            w = AH @ (self.A @ v)
            lam = np.linalg.norm(w)
            if lam == 0:
                return 0.0
            v = w / lam
        return math.sqrt(lam) * 1.05

    def feasible_filter(self, Phi: np.ndarray) -> tuple[Filter, np.ndarray]:
        """Project an iterate to an exactly feasible filter (support + l1)."""
        inst = self.inst
        n_side = 2 * inst.W + 1
        phi_sp = self.Finv @ Phi
        phi_sp = np.where(self.supp_mask, phi_sp, 0.0)
        PhiF = self.F @ phi_sp
        l1 = np.abs(PhiF).sum()
        if l1 > inst.l1_bound and l1 > 0:
            scale = inst.l1_bound / l1
            phi_sp = phi_sp * scale
            PhiF = PhiF * scale
        grid = phi_sp.reshape((n_side,) * inst.d)
        if inst.mode == FILTERING:
            filt = Filter.two_sided(inst.d, inst.W, grid)
        else:
            supp = inst.support_box
            window_box = Box.cube(inst.d, inst.W)
            coeffs = grid[supp.slices_in(window_box)]
            filt = Filter.one_sided(inst.d, inst.kappa, inst.W, coeffs)
        return filt, PhiF


def project_l1_ball(z: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of a complex vector onto ``{x : ||x||_1 <= radius}``.

    Moduli are soft-thresholded against the exact simplex threshold (sort
    based); phases are preserved. Deterministic.
    """
    if radius < 0:
        raise ParamError("radius must be nonnegative")
    a = np.abs(z)
    total = a.sum()
    if total <= radius:
        return z.copy()
    if radius == 0:
        return np.zeros_like(z)
    srt = np.sort(a)[::-1]
    cum = np.cumsum(srt)
    k = np.arange(1, len(srt) + 1)
    thresh = (cum - radius) / k
    last = np.nonzero(srt > thresh)[0][-1]
    lam = thresh[last]
    shrunk = np.maximum(a - lam, 0.0)
    out = np.zeros_like(z)
    nz = a > 0
    out[nz] = z[nz] * (shrunk[nz] / a[nz])
    return out


def dual_lower_bound(inst: Instance, u: Spectrum) -> float:
    """Certified lower bound on the optimum from an admissible dual vector.

    For any ``u`` with ``|u|_1 <= 1`` the value ``Re<u, b> - l1_bound *
    ||A^H u||_inf`` is a valid lower bound (weak duality; for prediction
    instances it bounds the support-relaxed program, hence also the optimum).
    """
    if u.T != inst.W or u.d != inst.d:
        raise ParamError("dual vector must live on the instance's window grid")
    uv = u.values.ravel()
    if np.abs(uv).sum() > 1 + 1e-12:
        raise ParamError("dual vector must have l1 norm <= 1")
    op = _Operator(inst)
    return float(np.real(np.vdot(uv, op.b))
                 - inst.l1_bound * np.abs(op.A.conj().T @ uv).max())


def _pdhg(op: _Operator, tol: float, max_iter: int, check_every: int,
          restart_len: int) -> tuple[Filter, float, float, int, np.ndarray]:
    inst = op.inst
    c = inst.l1_bound
    A, b, off = op.A, op.b, op.off_rows
    n = op.n
    if np.abs(b).max() == 0:
        # zero residual window at phi = 0: the optimum is 0
        filt, _ = op.feasible_filter(np.zeros(n, dtype=np.complex128))
        return filt, 0.0, 0.0, 0, np.zeros(n, dtype=np.complex128)
    LK = math.sqrt(op.op_norm() ** 2 + (0.0 if off is None else 1.0))
    step = 0.99 / LK
    AH = A.conj().T
    offH = off.conj().T if off is not None else None

    Phi = np.zeros(n, dtype=np.complex128)
    Phib = Phi.copy()
    u = np.zeros(n, dtype=np.complex128)
    w = np.zeros(off.shape[0], dtype=np.complex128) if off is not None else None
    u_sum = np.zeros_like(u)
    w_sum = np.zeros_like(w) if w is not None else None
    Phi_sum = np.zeros_like(Phi)
    n_avg = 0
    last_restart_gap = math.inf

    best_J = math.inf
    best_filter = None
    best_D = -math.inf
    best_u = u.copy()

    def dual_value(uu, ww):
        grad = AH @ uu
        if ww is not None and offH is not None:
            grad = grad + offH @ ww
        return float(-np.real(np.vdot(uu, b)) - c * np.abs(grad).max())

    it = 0
    while it < max_iter:
        it += 1
        u = project_l1_ball(u + step * (A @ Phib - b), 1.0)
        if w is not None:
            w = w + step * (off @ Phib)
        grad = AH @ u
        if w is not None:
            grad = grad + offH @ w
        Phi_new = project_l1_ball(Phi - step * grad, c)
        Phib = 2 * Phi_new - Phi
        Phi = Phi_new
        u_sum += u
        Phi_sum += Phi
        if w is not None:
            w_sum += w
        n_avg += 1

        if it % check_every == 0 or it == max_iter:
            filt, PhiF = op.feasible_filter(Phi)
            J = float(np.abs(b - A @ PhiF).max())
            if J < best_J:
                best_J = J
                best_filter = filt
            for uu, ww in ((u, w),
                           (u_sum / n_avg, w_sum / n_avg if w is not None else None)):
                dd = dual_value(uu, ww)
                if dd > best_D:
                    best_D = dd
                    best_u = np.array(uu, copy=True)
            gap = best_J - best_D
            if gap <= tol:
                break
            if n_avg >= restart_len and gap <= 0.5 * last_restart_gap:
                # ergodic restart: continue from the averaged primal-dual pair
                Phi = project_l1_ball(Phi_sum / n_avg, c)
                Phib = Phi.copy()
                u = project_l1_ball(u_sum / n_avg, 1.0)
                if w is not None:
                    w = w_sum / n_avg
                    w_sum[:] = 0
                u_sum[:] = 0
                Phi_sum[:] = 0
                n_avg = 0
                last_restart_gap = gap

    if best_filter is None:
        best_filter, PhiF = op.feasible_filter(Phi)
        best_J = float(np.abs(b - A @ PhiF).max())
        best_D = min(best_D, best_J)
    return best_filter, best_J, best_D, it, best_u


def solve(inst: Instance, tol: float = 1e-6, max_iter: int = 20000,
          check_every: int = 25, restart_len: int = 100) -> SolveResult:
    """Solve the instance to an absolute duality gap of ``tol``.

    Returns a feasible filter together with the certified gap. Raises
    ``ConvergenceError`` (carrying the best result found) if the gap still
    exceeds ``tol`` after ``max_iter`` iterations. Deterministic.
    """
    if tol <= 0:
        raise ParamError("tol must be positive")
    op = _Operator(inst)
    filt, J, D, iters, u_best = _pdhg(op, tol, max_iter, check_every, restart_len)
    D = min(D, J)  # weak duality holds; guard roundoff in reported gap
    gap = J - D
    W = inst.W
    result = SolveResult(
        phi=filt, objective=J, dual_bound=D, gap=gap, iterations=iters,
        converged=bool(gap <= tol),
        dual_u=Spectrum(W, inst.d, (-u_best).reshape((2 * W + 1,) * inst.d)))
    if not result.converged:
        raise ConvergenceError(
            f"duality gap {gap:.3e} above tolerance {tol:.3e} "
            f"after {iters} iterations", result=result)
    return result
