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

Instances that share a window geometry (mode, dimension, order and lag) and
an l1 budget are solved as one batch (:func:`solve_batch`): one geometry, one
stacked transform of all shifted observation windows for the operators, one
iteration loop over the stacked ``(B, n)`` iterates with row-wise l1
projections. Each instance keeps its own step size, restart state, best
iterate and stopping check, and leaves the batch at the check that certifies
it. Every transform and product is the BLAS call a lone solve makes, so each
result is bit-identical to solving its instance alone; :func:`solve` is the
batch of one.
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
    dft_windows,
)

__all__ = [
    "Instance",
    "SolveResult",
    "build_filtering_instance",
    "build_prediction_instance",
    "objective",
    "solve",
    "solve_batch",
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
# residual evaluation (reference path, used by `objective`)
# --------------------------------------------------------------------------


def _check_support(inst: Instance, phi: Filter) -> None:
    supp = inst.support_box
    tau = _nonzero_outside(phi.field, supp)
    if tau is not None:
        raise DomainError(
            f"filter has a nonzero coefficient at {tau}, outside the "
            f"admissible support {supp}")


def _residual_window(inst: Instance, phi: Filter) -> np.ndarray:
    """Recentred residual values on the transform window, truncation applied."""
    W, d, t = inst.W, inst.d, inst.t
    offsets = inst.residual_offsets()
    eval_box = offsets.translate(t)
    resid = (inst.y_win.restrict(eval_box).data
             - convolve(phi, inst.y_win, eval_box).data)
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


class _Geometry:
    """The maps every instance of a batch shares, built from one instance.

    ``F`` maps spatial coefficients on the window to their spectrum
    (unitary), ``Finv = F^H`` maps back. ``supp_mask`` marks the window slots
    of the admissible support; ``off_rows``, the rows of ``Finv`` at the
    other slots (None for filtering), enforce the support constraint through
    an extra dual block.
    """

    def __init__(self, inst: Instance):
        W, d = inst.W, inst.d
        self.W, self.d = W, d
        self.window = Box.cube(d, W)
        self.supp, self.resid = inst.support_box, inst.residual_offsets()
        supp_mask = np.zeros(self.window.shape, dtype=bool)
        supp_mask[self.supp.slices_in(self.window)] = True
        self.supp_mask = supp_mask.ravel()
        self.n = supp_mask.size

        F1 = _dft_matrix(W) / math.sqrt(2 * W + 1)
        F = F1
        for _ in range(d - 1):
            F = np.kron(F, F1)
        self.F = F                      # spatial -> spectrum (unitary)
        self.Finv = F.conj().T          # spectrum -> spatial
        off = ~self.supp_mask
        self.off_rows = self.Finv[off, :] if off.any() else None

    def operators(self, insts: Sequence[Instance]) -> tuple[np.ndarray, np.ndarray]:
        """Stacked ``A`` ``(B, n, n)`` and ``b`` ``(B, n)`` of the instances.

        ``A`` maps the spectrum ``Phi = F_W phi`` to the spectrum of the
        (truncated) window of ``phi(D) y`` recentered at the anchor. Column
        ``nu`` of ``A F`` is the transform of the residual window of the
        observations shifted by ``nu``, and ``b`` the one at shift 0.
        """
        W, d, B, window = self.W, self.d, len(insts), self.window
        # window slot tau + W at shift nu reads y_win at (W - nu) + (tau + W):
        # the sliding window of y_win that starts at W - nu
        views = np.lib.stride_tricks.sliding_window_view(
            np.stack([inst.y_win.data for inst in insts]), self.resid.shape,
            axis=tuple(range(1, d + 1)))
        windows = np.zeros(views.shape[:d + 1] + window.shape, dtype=np.complex128)
        windows[(Ellipsis,) + self.resid.slices_in(window)] = views
        spectra = dft_windows(windows, W, d)
        del windows
        b = spectra[(slice(None),) + (W,) * d].reshape(B, -1).copy()
        # the support ends at nu = W, whose window starts at 0
        cols = spectra[(slice(None),) + tuple(slice(W - lo, None, -1)
                                              for lo in self.supp.lo)]
        A_spatial = np.zeros((B,) + window.shape * 2, dtype=np.complex128)
        A_spatial[(slice(None),) * (d + 1) + self.supp.slices_in(window)] = (
            np.moveaxis(cols, range(-d, 0), range(1, d + 1)))
        del spectra, cols
        return np.matmul(A_spatial.reshape(B, self.n, self.n), self.Finv), b

    def feasible_filters(self, Phi: np.ndarray,
                         radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Project iterates (rows) to exactly feasible filters: support, then l1.

        Returns the spatial coefficients on the window and their spectra.
        """
        phi_sp = _matvec(self.Finv, Phi)
        phi_sp = np.where(self.supp_mask, phi_sp, 0.0)
        PhiF = _matvec(self.F, phi_sp)
        l1 = np.abs(PhiF).sum(axis=1)
        over = (l1 > radius) & (l1 > 0)
        if over.any():
            scale = (radius / l1[over])[:, None]
            phi_sp[over] = phi_sp[over] * scale
            PhiF[over] = PhiF[over] * scale
        return phi_sp, PhiF


def _op_norms(A: np.ndarray, AH: np.ndarray, iters: int = 150) -> np.ndarray:
    """Deterministic power-iteration estimates of each ``||A[k]||`` (with margin).

    A row's norm is the dot of its real part plus that of its imaginary
    part, the value ``np.linalg.norm`` gives the row alone, so each estimate
    is bit-identical to a lone power iteration's. A row whose iterate hits
    zero stays zero and estimates 0.
    """
    B, n = A.shape[:2]
    v = np.full(n, 1.0 + 0.5j) + np.linspace(0, 1, n)
    v /= np.linalg.norm(v)
    v = np.tile(v, (B, 1))
    lam = np.zeros(B)
    for _ in range(iters):
        w = _matvec(AH, _matvec(A, v))
        lam = np.sqrt(np.vecdot(w.real, w.real) + np.vecdot(w.imag, w.imag))
        v = w / np.where(lam == 0, 1.0, lam)[:, None]
    return np.sqrt(lam) * 1.05


def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``M[k] @ x[k]`` for each row ``k`` (``M`` one matrix or a stack).

    ``np.matmul`` against a column makes the BLAS matrix-vector call of
    ``M @ v``; ``x @ M.T`` or ``einsum`` would sum in another order.
    """
    return np.matmul(M, x[..., None])[..., 0]


def _filter(inst: Instance, phi_sp: np.ndarray) -> Filter:
    """The instance's filter from spatial coefficients on the window."""
    grid = phi_sp.reshape((2 * inst.W + 1,) * inst.d)
    if inst.mode == FILTERING:
        return Filter.two_sided(inst.d, inst.W, grid)
    coeffs = grid[inst.support_box.slices_in(Box.cube(inst.d, inst.W))]
    return Filter.one_sided(inst.d, inst.kappa, inst.W, coeffs)


def project_l1_ball(z: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of complex vectors onto ``{x : ||x||_1 <= radius}``.

    ``z`` is one vector or a stack of them (rows of a 2-d array), each
    projected on its own. Moduli are soft-thresholded against the exact
    simplex threshold (sort based); phases are preserved. A row comes out
    bit for bit as it would alone. Deterministic.
    """
    if radius < 0:
        raise ParamError("radius must be nonnegative")
    rows = z.reshape(-1, z.shape[-1])
    a = np.abs(rows)
    inside = a.sum(axis=1) <= radius
    n_inside = np.count_nonzero(inside)
    if n_inside == len(inside):
        return z.copy()
    B, n = a.shape
    srt = np.sort(a, axis=1)[:, ::-1]
    thresh = (srt.cumsum(axis=1) - radius) / np.arange(1, n + 1)
    # last index where the sorted modulus exceeds its threshold
    last = (n - 1) - (srt > thresh)[:, ::-1].argmax(axis=1)
    shrunk = np.maximum(a - thresh[np.arange(B), last][:, None], 0.0)
    if radius == 0:
        out = np.zeros_like(rows)
    elif np.count_nonzero(a) == a.size:
        out = rows * (shrunk / a)
    else:
        out = np.zeros_like(rows)
        nz = a > 0
        out[nz] = rows[nz] * (shrunk[nz] / a[nz])
    if n_inside:
        out[inside] = rows[inside]
    return out.reshape(z.shape)


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
    (A,), (b,) = _Geometry(inst).operators([inst])
    return float(np.real(np.vdot(uv, b))
                 - inst.l1_bound * np.abs(A.conj().T @ uv).max())


def _pdhg(geo: _Geometry, A: np.ndarray, b: np.ndarray, c: float, tol: float,
          max_iter: int, check_every: int,
          restart_len: int) -> list[tuple[np.ndarray, float, float, int, np.ndarray]]:
    """PDHG on the stacked operators ``A``, ``b`` of one geometry and l1 budget ``c``.

    Returns, per instance: the spatial coefficients of the best feasible
    filter, its objective, the best dual value, the iteration count and the
    dual vector attaining that value.
    """
    n, off = geo.n, geo.off_rows
    offH = off.conj().T if off is not None else None
    zero = np.abs(b).max(axis=1) == 0
    # a zero residual window at phi = 0: the optimum is 0
    out = [(np.zeros(n, dtype=np.complex128), 0.0, 0.0, 0,
            np.zeros(n, dtype=np.complex128)) if z else None for z in zero]
    rows = np.flatnonzero(~zero)   # input position of each stacked row
    A, b = A[rows], b[rows]
    # A^H of each row is a transposed view, the layout a lone solve multiplies
    # with; a C-ordered copy would make BLAS sum in another order
    A_conj = A.conj()
    AH = A_conj.transpose(0, 2, 1)
    extra = 0.0 if off is None else 1.0
    step = np.array([0.99 / math.sqrt(float(s) ** 2 + extra)
                     for s in _op_norms(A, AH)])[:, None]

    B = len(rows)
    Phi = np.zeros((B, n), dtype=np.complex128)
    Phib = Phi.copy()
    u = np.zeros((B, n), dtype=np.complex128)
    w = np.zeros((B, off.shape[0]), dtype=np.complex128) if off is not None else None
    u_sum = np.zeros_like(u)
    w_sum = np.zeros_like(w) if w is not None else None
    Phi_sum = np.zeros_like(Phi)
    restart_it = np.zeros(B, dtype=np.int64)   # iterates averaged: it - restart_it
    last_restart_gap = np.full(B, math.inf)

    best_J = np.full(B, math.inf)
    best_phi = np.zeros((B, n), dtype=np.complex128)
    best_D = np.full(B, -math.inf)
    best_u = np.zeros((B, n), dtype=np.complex128)

    it = 0
    while rows.size:
        it += 1
        u = project_l1_ball(u + step * (_matvec(A, Phib) - b), 1.0)
        if w is not None:
            w = w + step * _matvec(off, Phib)
        grad = _matvec(AH, u)
        if w is not None:
            grad = grad + _matvec(offH, w)
        Phi_new = project_l1_ball(Phi - step * grad, c)
        Phib = 2 * Phi_new - Phi
        Phi = Phi_new
        u_sum += u
        Phi_sum += Phi
        if w is not None:
            w_sum += w

        if it % check_every == 0 or it == max_iter:
            n_avg = it - restart_it
            phi_sp, PhiF = geo.feasible_filters(Phi, c)
            J = np.abs(b - _matvec(A, PhiF)).max(axis=1)
            better = J < best_J
            best_J[better] = J[better]
            best_phi[better] = phi_sp[better]
            avg = n_avg[:, None]
            w_avg = w_sum / avg if w is not None else None
            for uu, ww in ((u, w), (u_sum / avg, w_avg)):
                grad = _matvec(AH, uu)
                if ww is not None:
                    grad = grad + _matvec(offH, ww)
                dots = np.array([np.vdot(x, y) for x, y in zip(uu, b)])
                dd = -np.real(dots) - c * np.abs(grad).max(axis=1)
                better = dd > best_D
                best_D[better] = dd[better]
                best_u[better] = uu[better]
            gap = best_J - best_D
            converged = gap <= tol
            restart = (~converged & (n_avg >= restart_len)
                       & (gap <= 0.5 * last_restart_gap))
            if restart.any():
                # ergodic restart: continue from the averaged primal-dual pair
                avg = n_avg[restart, None]
                Phi[restart] = project_l1_ball(Phi_sum[restart] / avg, c)
                Phib[restart] = Phi[restart]
                u[restart] = project_l1_ball(u_sum[restart] / avg, 1.0)
                if w is not None:
                    w[restart] = w_sum[restart] / avg
                    w_sum[restart] = 0
                u_sum[restart] = 0
                Phi_sum[restart] = 0
                restart_it[restart] = it
                last_restart_gap[restart] = gap[restart]

            done = converged | (it == max_iter)
            if done.any():
                for j in np.flatnonzero(done):
                    out[rows[j]] = (best_phi[j].copy(), float(best_J[j]),
                                    float(best_D[j]), it, best_u[j].copy())
                # compact only now: indexing the stacks every iteration costs
                # more than the products on large windows
                keep = ~done
                (rows, A, A_conj, b, step, Phi, Phib, u, u_sum, Phi_sum,
                 restart_it, last_restart_gap, best_J, best_phi, best_D, best_u) = (
                    x[keep] for x in (
                        rows, A, A_conj, b, step, Phi, Phib, u, u_sum, Phi_sum,
                        restart_it, last_restart_gap, best_J, best_phi, best_D,
                        best_u))
                AH = A_conj.transpose(0, 2, 1)
                if w is not None:
                    w, w_sum = w[keep], w_sum[keep]
    return out


def solve_batch(instances: Sequence[Instance], tol: float = 1e-6,
                max_iter: int = 20000, check_every: int = 25,
                restart_len: int = 100) -> list[SolveResult]:
    """Solve instances that share geometry and l1 budget, each to a gap of ``tol``.

    Returns one result per instance, in order, each bit-identical to what
    solving that instance alone gives. An instance that misses the budget is
    returned with ``converged`` false rather than raised. Raises
    ``ParamError`` for an empty batch or for instances that differ in mode,
    dimension, order, lag or l1 budget. Deterministic.
    """
    if tol <= 0:
        raise ParamError("tol must be positive")
    if max_iter < 1:
        raise ParamError("max_iter must be positive")
    if check_every < 1:
        raise ParamError("check_every must be positive")
    if not instances:
        raise ParamError("a batch needs at least one instance")
    kinds = {(inst.mode, inst.d, inst.T_alg, inst.kappa, inst.l1_bound)
             for inst in instances}
    if len(kinds) > 1:
        raise ParamError("instances of a batch must share one geometry and l1 "
                         f"budget (mode, d, T_alg, kappa, l1_bound), got "
                         f"{sorted(kinds, key=str)}")
    geo = _Geometry(instances[0])
    # the operators are passed on, not held here, so that _pdhg's compaction
    # frees the rows of solved instances
    fits = _pdhg(geo, *geo.operators(instances), instances[0].l1_bound, tol,
                 max_iter, check_every, restart_len)
    results = []
    for inst, (phi_sp, J, D, iters, u_best) in zip(instances, fits):
        D = min(D, J)  # weak duality holds; guard roundoff in reported gap
        gap = J - D
        W = inst.W
        results.append(SolveResult(
            phi=_filter(inst, phi_sp), objective=J, dual_bound=D, gap=gap,
            iterations=iters, converged=bool(gap <= tol),
            dual_u=Spectrum(W, inst.d, (-u_best).reshape((2 * W + 1,) * inst.d))))
    return results


def solve(inst: Instance, tol: float = 1e-6, max_iter: int = 20000,
          check_every: int = 25, restart_len: int = 100) -> SolveResult:
    """Solve the instance to an absolute duality gap of ``tol``.

    Returns a feasible filter together with the certified gap. Raises
    ``ConvergenceError`` (carrying the best result found) if the gap still
    exceeds ``tol`` after ``max_iter`` iterations. Deterministic; the batch
    of one of :func:`solve_batch`.
    """
    (result,) = solve_batch([inst], tol, max_iter, check_every, restart_len)
    if not result.converged:
        raise ConvergenceError(
            f"duality gap {result.gap:.3e} above tolerance {tol:.3e} "
            f"after {result.iterations} iterations", result=result)
    return result
