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

One builder, :func:`build_instance`, makes the instance of either mode: the
lag ``kappa`` is the mode, None for filtering. It checks the parameters and
keeps only the observations of the read set (:func:`program_boxes`) that
:func:`read_observations`, the one check of a read set, reads; the T = 0
estimate, ``estimators.theta_stat`` and the CLI's pre-checks read through it
too. ``fields.Box.support`` alone checks the lag, ``0 <= kappa <= W``.

Method: after the unitary change of variables ``Phi = F_W phi`` the program is
a complex l1-ball constrained Chebyshev fit ``min ||b - A Phi||_inf``, and the
support constraint ``F_W^H Phi = 0`` off S is more rows of one operator ``K``
(none for filtering), scaled by an estimate of ``||A||`` so that ``K`` scales
with the data.
``F_W`` and ``F_W^H`` are applied axis by axis (``fields.dft_windows``,
``fields.idft_windows``).

Before iterating, ``K`` is equilibrated in place to ``K~ = D_r K D_c``, with
the alpha = 1 diagonal preconditioner of Pock & Chambolle ("Diagonal
preconditioning for first order primal-dual algorithms in convex
optimization", ICCV 2011), which PDLP (Applegate et al., NeurIPS 2021) also
applies: each row's (column's) l1 sum over the largest row (column) sum of
its instance, to the power -1/2, rounded to a power of two. Without it one
large entry of ``K``, such as a plane wave's frequency bin, sets the one step
size for every direction. The iteration runs in the scaled variables
``Phi / dc`` and ``y / dr``, where the two l1 balls become the weighted balls
``sum dc |x| <= c`` and ``sum dr |v| <= 1``, projected on exactly by
:func:`project_l1_ball`: Newton's method on the active set, with no sort,
which each ball starts from the set its last projection ended with, so one
pass usually both finds and confirms the threshold. Each ball keeps, with
that set, its weights' squares and the set's sum of them, so a pass that
confirms the set recomputes neither. The factors are powers of two so that
``K = D_r^-1 K~ D_c^-1`` holds exactly and dividing a product with ``K~`` by
them is exact: the objective of each feasible filter and the dual bound
``D(u, w)`` come out as the unscaled operator gives them, bit for bit, while
``K~`` is the one stored matrix.

In filtering (no support rows) ``K = F_W Y F_W^H``, where the Toeplitz
residual map ``Y`` has ``J Y^T J = Y`` for the index reversal ``J``, and
``F_W`` is symmetric with ``J F_W = F_W^H``: so ``K`` is complex symmetric,
``K^T = K``, to roundoff. Its column scales are then its row scales, ``dc =
dr``, which keeps ``K~`` symmetric, and the iteration forms ``K~^H y`` as
``conj(K~ conj(y))``, a matrix-vector product. The checks' dual bounds, the
norm estimates and all of prediction form it exactly, as ``conj(conj(y)
K~)``.

Both modes are one saddle point problem, solved by reflected restarted
Halpern PDHG (Lu & Yang, "Restarted Halpern PDHG for linear programming",
2024). With ``P`` one
primal-dual step with exact closed-form projections, the iterate
``z = (Phi, y)`` moves to ``z0 + (k+1)/(k+2) (2 P(z) - z - z0)`` at the k-th
iteration after a restart, and restarts at ``P(z)``, its new anchor ``z0``,
when its fixed-point residual ``||z - P(z)||`` has fallen enough since the
last restart. The primal and dual steps are ``eta / omega``
and ``eta omega`` with ``eta = 0.99 / s``, where ``s`` is the Lanczos
estimate of ``||K~||`` (:func:`_norm_estimate`). That estimate is a lower
bound on the norm, but one exact to roundoff (a relative error of order
1e-14, far inside the 1% that 0.99 leaves), so the product of the steps
times ``||K~||^2`` stays below 1, as PDHG's convergence needs; the primal
weight ``omega``
starts at 1 and is set at every restart to how far the dual moved over how
far the primal moved since the last anchor (the adaptive primal weight of
PDLP, Applegate et al., NeurIPS 2021), and the residual is measured in the
norm it weights. The iteration is thus exactly equivariant under
power-of-two scaling of the data (which leaves the diagonal scales as they
are). Every check turns ``P(z)`` into a
feasible filter (:meth:`_Geometry.feasible_filters`: in prediction by an
inverse transform, zeroed off the support, and a transform back; in
filtering, where that round trip is the identity, with no transform, the
filter's coefficients coming from one inverse transform when the solve
ends) and the certified dual lower bound ``D(u, w)`` of the true
program at the dual iterate ``(u, w)`` (see :func:`dual_lower_bound`), or
in prediction ``D(u, 0)`` where that is larger, so the reported optimality
gap is unconditional. The check alone decides convergence (best objective
less best dual value at most ``tol``), and a result keeps its verdict. The
dual pair ``(dual_u, dual_w)`` of a result is two fields on the window
``{|nu| <= W}``. The solve is deterministic: identical instances produce
bit-identical results.

Instances that share a window geometry (dimension, order and lag) and
an l1 budget are solved as one batch (:func:`solve_batch`): one geometry,
stacked transforms of the shifted observation windows for the operators, one
iteration loop over the stacked ``(B, n)`` iterates with row-wise l1
projections. Each instance keeps its own support row scale, diagonal
scales, step sizes, primal weight, Halpern anchor, restart state, best
iterate and stopping check, and leaves the batch at the check that
certifies it. Every transform
and product is the BLAS call a lone solve makes, so each result is
bit-identical to solving its instance alone; :func:`solve` is the batch of
one. Both stop after ``MAX_ITER`` iterations, the one budget (only tests and
tracing pass another). A batch whose stacked operators would exceed
``SOLVE_BATCH_BYTES`` is solved as consecutive sub-batches that fit, which
for the same reason changes no result. The same budget bounds the build: a
sub-batch's ``K`` is made and equilibrated in place, a slab of about a 32nd
of the budget at a time, so building ``K`` holds ``K`` and a few slabs, and
no bit depends on the slabs either. No matrix is factored: both norms, of
``A`` and of ``K~``, come from products with ``K``, so beside ``K`` a solve
holds vectors and at most 64 Lanczos vectors an instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, ParamError
from .fields import (
    Box,
    Field,
    Filter,
    _nonzero_outside,
    convolve,
    dft_window,
    dft_windows,
    idft_windows,
)

__all__ = [
    "Instance",
    "SolveResult",
    "build_instance",
    "read_observations",
    "program_boxes",
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
    ``W = 2 T_alg``. ``kappa`` is the lag of a prediction instance and None
    for filtering. ``y_win`` holds exactly the observations the program may
    read; ``l1_bound`` is the spectral l1 budget ``2^{d/2} rho^2 (2 T_alg +
    1)^{-d/2}``. Only these are stored: the dimension comes from the anchor,
    and ``support_box`` and ``residual_box``, the admissible support and the
    residual offsets, from :func:`program_boxes` of ``(t, T_alg, kappa)``, so
    they always agree with the lag.
    """

    t: tuple[int, ...]
    T_alg: int
    kappa: int | None
    y_win: Field
    l1_bound: float

    @property
    def d(self) -> int:
        return len(self.t)

    @property
    def W(self) -> int:
        return 2 * self.T_alg

    @property
    def support_box(self) -> Box:
        return program_boxes(self.t, self.T_alg, self.kappa)[1]

    @property
    def residual_box(self) -> Box:
        return program_boxes(self.t, self.T_alg, self.kappa)[2]

    @property
    def mode(self) -> str:
        """``"filtering"`` or ``"prediction"``, read from the lag."""
        return "filtering" if self.kappa is None else "prediction"


@dataclass(frozen=True)
class SolveResult:
    """Feasible filter with certified objective value and dual lower bound,
    which ``(dual_u, dual_w)`` attains in :func:`dual_lower_bound`."""

    phi: Filter
    objective: float
    dual_bound: float
    iterations: int
    converged: bool
    dual_u: Field
    dual_w: Field

    @property
    def gap(self) -> float:
        return self.objective - self.dual_bound


def program_boxes(t: Sequence[int], T_alg: int,
                  kappa: int | None = None) -> tuple[Box, Box, Box]:
    """The read set, the admissible support and the residual offsets at ``t``
    (see the module docstring), of prediction with a lag ``kappa`` and of
    filtering without; ``Box.support`` checks the lag (``0 <= kappa <= W``)."""
    d, W = len(t), 2 * T_alg
    support = Box.support(d, W, kappa)
    if kappa is None:
        reach, resid = 2 * W, support
    else:
        reach, resid = -kappa, Box((-W,) * d, (-kappa,) * d)
    read = Box(tuple(tj - 2 * W for tj in t), tuple(tj + reach for tj in t))
    return read, support, resid


def read_observations(y: Field, t: Sequence[int], T_alg: int,
                      kappa: int | None = None) -> Field:
    """``y`` on the read set of :func:`program_boxes` (``{t}`` at ``T_alg =
    0``), checked in this order: the anchor's dimension and the lag
    (``ParamError``), then coverage and finiteness (``DomainError``)."""
    t = tuple(int(x) for x in t)
    if len(t) != y.d:
        raise ParamError("anchor dimension mismatch")
    need = program_boxes(t, T_alg, kappa)[0]
    if not y.box.contains_box(need):
        raise DomainError(f"observations must cover {need}, got {y.box}")
    y_win = y.restrict(need)
    finite = np.isfinite(y_win.data)
    if not finite.all():
        tau = tuple(int(i) + l for i, l in zip(np.argwhere(~finite)[0], need.lo))
        raise DomainError(f"observation at {tau} is not finite: {y_win.value(tau)}")
    return y_win


# a norm bound's rule is 1 <= rho <= _RHO_MAX: rho ** 3, the highest power
# the program raises rho to, is then finite. The risk bound's product
# c(d) rho^3 (theta + sigma rho ...) grows as sigma rho^4 and may still
# overflow; estimators._oracle_bound refuses that case.
_RHO_MAX = 5.6e102


def _rho_ok(rho: float) -> bool:
    return 1 <= rho <= _RHO_MAX


def _rho_arg(rho: float) -> None:
    if not _rho_ok(rho):
        raise ParamError(f"rho must be finite and >= 1, at most {_RHO_MAX:g}, got {rho}")


def _tol_arg(tol: float) -> None:
    if not 0 < tol < math.inf:  # an infinite tol would pass any gap
        raise ParamError(f"tol must be positive and finite, got {tol}")


def build_instance(y: Field, t: Sequence[int], T_alg: int, rho: float,
                   kappa: int | None = None) -> Instance:
    """Instance of the program at anchor ``t``: two-sided (filtering)
    without a lag, one-sided (prediction) with a lag ``kappa``.

    Requires ``rho`` to pass :func:`_rho_arg` and ``T_alg >= 1``, then reads the
    observations through :func:`read_observations`: ``{|tau - t| <= 4
    T_alg}`` for filtering and ``{kappa <= t_j - tau_j <= 4 T_alg}`` for
    prediction.
    """
    t = tuple(int(x) for x in t)
    _rho_arg(rho)
    if T_alg < 1:
        raise ParamError(f"T_alg must be >= 1, got {T_alg}")
    kappa = None if kappa is None else int(kappa)
    bound = 2 ** (y.d / 2) * rho ** 2 * (2 * T_alg + 1) ** (-y.d / 2)
    return Instance(t, T_alg, kappa, read_observations(y, t, T_alg, kappa), bound)


# The older name, kept out of __all__: perfbench/tracing.py (TARGETS) and
# perfbench/verify.py name it, and ROADMAP item 7 drops it once the tracer
# moves. The tracer rebinds every name bound to this one function, so it
# times every build_instance call.
build_filtering_instance = build_instance


# --------------------------------------------------------------------------
# residual evaluation (reference path, used by `objective`)
# --------------------------------------------------------------------------


def objective(inst: Instance, phi: Filter) -> float:
    """Exact objective ``J(phi)``: sup of the residual window transform moduli.

    ``phi`` must vanish outside the instance's admissible support.
    """
    supp, offsets, W = inst.support_box, inst.residual_box, inst.W
    tau = _nonzero_outside(phi.field, supp)
    if tau is not None:
        raise DomainError(f"filter has a nonzero coefficient at {tau}, outside "
                          f"the admissible support {supp}")
    # the recentred residual on the transform window, truncation applied
    eval_box = offsets.translate(inst.t)
    window = np.zeros((2 * W + 1,) * inst.d, dtype=np.complex128)
    window[offsets.slices_in(Box.cube(inst.d, W))] = (
        inst.y_win.restrict(eval_box).data - convolve(phi, inst.y_win, eval_box).data)
    return float(np.abs(dft_window(window, W)).max())


# --------------------------------------------------------------------------
# dense operator in spectrum coordinates
# --------------------------------------------------------------------------


class _Geometry:
    """The window geometry every instance of a batch shares, built from one
    instance. ``off`` lists the window slots off the admissible support (none
    for filtering); the transforms between spatial coefficients on the window
    and their spectra are the per-axis ones of :func:`dft_windows` and
    :func:`idft_windows`.
    """

    def __init__(self, inst: Instance):
        W, d = inst.W, inst.d
        self.W, self.d = W, d
        self.window = Box.cube(d, W)
        self.supp, self.resid = inst.support_box, inst.residual_box
        supp_mask = np.zeros(self.window.shape, dtype=bool)
        supp_mask[self.supp.slices_in(self.window)] = True
        self.off = np.flatnonzero(~supp_mask)
        self.n = supp_mask.size

    def operators(self, insts: Sequence[Instance]) -> tuple[np.ndarray, np.ndarray]:
        """Stacked ``K`` ``(B, n + m, n)`` and ``b`` ``(B, n + m)`` of the instances.

        ``K = [A; F_W^H off the support]``. ``A`` maps the spectrum ``Phi =
        F_W phi`` to the spectrum of the (truncated) window of ``phi(D) y``
        recentered at the anchor. Column ``nu`` of ``A F_W`` is the transform
        of the residual window of the observations shifted by ``nu``, and
        ``b`` the one at shift 0, padded with zeros.

        ``K`` is built in place, a slab (:func:`_slabs`) at a time. A slab
        only cuts the stack axes of a transform, so each window and row gets
        the product of one stacked transform: no bit depends on the slabs.
        """
        W, d, B, window = self.W, self.d, len(insts), self.window
        n, m = self.n, len(self.off)
        # window slot tau + W at shift nu reads y_win at (W - nu) + (tau + W):
        # the sliding window of y_win that starts at W - nu
        views = np.lib.stride_tricks.sliding_window_view(
            np.stack([inst.y_win.data for inst in insts]), self.resid.shape,
            axis=tuple(range(1, d + 1)))
        b = self._spectra(views[(slice(None),) + (W,) * d])
        b = np.pad(b.reshape(B, n), ((0, 0), (0, m)))
        # the support shifts, in nu order: views, not copies
        shifted = views[(slice(None),) + tuple(
            slice(W - lo, None, -1) for lo in self.supp.lo)]
        # first the spatial operator K_spatial, in place: the spectra at the
        # support slots, a slab of instances or of the first support axis at
        # a time, then the one-hot rows off the support
        K = np.zeros((B, n + m, n), dtype=np.complex128)
        K_spatial = K.reshape((B, n + m) + window.shape)
        first, *rest = self.supp.slices_in(window)
        for k, s in _slabs(B, self.supp.shape[0],
                           math.prod(self.supp.shape[1:]) * n * 16):
            spectra = self._spectra(shifted[k, s])
            slots = range(first.start, first.stop)[s]
            K_spatial[(k, slice(n), slice(slots.start, slots.stop), *rest)] = (
                np.moveaxis(spectra, range(-d, 0), range(1, d + 1)).reshape(
                    (len(spectra), n) + spectra.shape[1:1 + d]))
        K[:, n + np.arange(m), self.off] = 1.0
        # then K = K_spatial F_W^H, and F_W is symmetric: each row of K is the
        # inverse transform of that row of K_spatial
        for k, s in _slabs(B, n + m, n * 16):
            rows = K[k, s]
            K[k, s] = idft_windows(rows.reshape(rows.shape[:2] + window.shape),
                                   W, d).reshape(rows.shape)
        return K, b

    def _spectra(self, views: np.ndarray) -> np.ndarray:
        """Transforms of observation windows (the trailing ``d`` axes of
        ``views``), zero-padded from the residual offsets to the window."""
        windows = np.zeros(views.shape[:-self.d] + self.window.shape,
                           dtype=np.complex128)
        windows[(Ellipsis,) + self.resid.slices_in(self.window)] = views
        return dft_windows(windows, self.W, self.d)

    def feasible_filters(self, Phi: np.ndarray,
                         radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Map iterates (rows) to exactly feasible filters: zero the spatial
        coefficients off the support, then scale each row by ``radius /
        max(l1, radius)``, which is exactly 1 for a row inside the l1 ball.

        Returns the filters' spectra and the filters as a solve keeps them
        (:meth:`spatial` gives their coefficients on the window): the
        spectra themselves when no slot is off the support, where zeroing
        is the identity and no transform is made; the spatial coefficients
        otherwise.
        """
        if not self.off.size:
            scale = (radius / np.maximum(np.abs(Phi).sum(axis=1), radius))[:, None]
            PhiF = Phi * scale
            return PhiF, PhiF
        B, shape = len(Phi), (len(Phi),) + self.window.shape
        phi_sp = idft_windows(Phi.reshape(shape), self.W, self.d).reshape(B, self.n)
        phi_sp[:, self.off] = 0.0
        PhiF = dft_windows(phi_sp.reshape(shape), self.W, self.d).reshape(B, self.n)
        l1 = np.abs(PhiF).sum(axis=1)
        scale = (radius / np.maximum(l1, radius))[:, None]
        return PhiF * scale, phi_sp * scale

    def spatial(self, kept: np.ndarray) -> np.ndarray:
        """The spatial coefficients on the window of filters (rows) kept as
        :meth:`feasible_filters` returns them."""
        if self.off.size:
            return kept.copy()
        B = len(kept)
        return idft_windows(kept.reshape((B,) + self.window.shape),
                            self.W, self.d).reshape(B, self.n)


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of complex ``x``."""
    return np.vecdot(x, x).real


def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``M[k] @ x[k]`` for each row ``k`` of a stack of matrices.

    ``np.matmul`` against a column makes for each row the BLAS
    matrix-vector call of a lone ``M[k] @ x[k]``, so a row of a batch comes
    out as it would alone; ``einsum`` would sum in another order.
    """
    return np.matmul(M, x[..., None])[..., 0]


def _rmatvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``M[k]^H @ x[k]`` for each row ``k``, as ``conj(conj(x[k]) @ M[k])``:
    a vector-matrix BLAS call on ``M`` itself, so no conjugate copy of ``M``
    is kept, and row by row as in :func:`_matvec`."""
    return np.conj(np.matmul(np.conj(x)[..., None, :], M)[..., 0, :])


# The Lanczos norm estimate: at most NORM_STEPS steps, and a row stops when its
# estimate rises by at most a factor 1 + NORM_SETTLE in a step
NORM_STEPS, NORM_SETTLE = 64, 1e-12


def _norm_estimate(M: np.ndarray) -> np.ndarray:
    """The spectral norm of each matrix of the stack ``M``, from below and
    exact to roundoff, from products with ``M`` alone.

    The square root of the top Ritz value of the Lanczos process on ``M^H
    M``, which is Golub & Kahan's bidiagonalisation of ``M`` (SIAM J. Numer.
    Anal. 1965): a Rayleigh quotient of ``M^H M``, so above the norm by
    roundoff at most. Every row starts from one fixed-seed complex Gaussian vector, each new
    vector is reorthogonalised against all before it, twice, and a row runs
    at most ``min(n, NORM_STEPS)`` steps. It keeps its estimate once the
    estimate rises by at most a factor ``1 + NORM_SETTLE`` in a step, or
    once the Krylov space is invariant to roundoff. Products go through
    :func:`_matvec` and :func:`_rmatvec` and the Ritz values through the
    row-wise ``eigvalsh``, so a row comes out bit for bit as it would alone,
    and a power-of-two multiple of ``M`` gives exactly that multiple. 0 for
    a zero matrix.
    """
    B, _, n = M.shape
    steps = min(n, NORM_STEPS)
    real, imag = np.random.default_rng(0).standard_normal((2, n))
    start = real + 1j * imag
    # the Lanczos vectors: room for 8, doubled as needed. The estimate seldom
    # takes more than 16 steps, and room for min(n, NORM_STEPS) would be the
    # size of A at small n (it raised the d = 1 bench's peak RSS)
    V = np.zeros((B, min(steps, 8), n), dtype=np.complex128)
    V[:, 0] = start / math.sqrt(_sq_norms(start))
    # the tridiagonal V^H M^H M V: its diagonal and subdiagonal
    diag, sub = np.zeros((B, steps)), np.zeros((B, steps))
    est, live = np.zeros(B), np.ones(B, dtype=bool)
    for j in range(steps):
        u = _matvec(M, V[:, j])
        diag[:, j] = _sq_norms(u)
        w = _rmatvec(M, u)
        Vj = V[:, :j + 1]
        for _ in range(2):   # w -= Vj Vj^H w, with conj(Vj^H w) = Vj conj(w)
            h = np.conj(_matvec(Vj, np.conj(w)))
            w -= np.matmul(h[:, None, :], Vj)[:, 0]
        beta = np.sqrt(_sq_norms(w))
        # the top Ritz value; eigvalsh reads the lower triangle only
        T = np.zeros((np.count_nonzero(live), j + 1, j + 1))
        i = np.arange(j + 1)
        T[:, i, i] = diag[live, :j + 1]
        T[:, i[1:], i[:-1]] = sub[live, :j]
        theta = np.linalg.eigvalsh(T)[:, -1]
        rose = np.sqrt(theta) > est[live] * (1 + NORM_SETTLE)
        est[live] = np.sqrt(theta)
        live[live] = rose & (beta[live] > np.finfo(float).eps * theta)
        if j + 1 == steps or not live.any():
            return est
        if j + 1 == V.shape[1]:
            V = np.concatenate([V, np.zeros_like(V[:, :steps - j - 1])], axis=1)
        sub[live, j] = beta[live]
        V[live, j + 1] = w[live] / beta[live, None]


def _filter(inst: Instance, phi_sp: np.ndarray) -> Filter:
    """The instance's filter from spatial coefficients on the window."""
    grid = phi_sp.reshape((2 * inst.W + 1,) * inst.d)
    supp = inst.support_box
    return Filter(Field(supp, grid[supp.slices_in(Box.cube(inst.d, inst.W))]),
                  inst.W, inst.kappa)


class _Ball:
    """What one l1 ball of :func:`_pdhg` keeps from one projection to the
    next: its weights' squares ``ww``, the active set ``A`` its last
    projection ended with, and that set's ``sum_A w^2`` per row, ``ww_A``
    (None until a projection has confirmed a set). Indexing takes rows, as
    a compaction does. A plain class: a dataclass would cost the import
    about 0.4 ms."""

    __slots__ = ("ww", "A", "ww_A")

    def __init__(self, ww: np.ndarray, A: np.ndarray, ww_A: np.ndarray | None = None):
        self.ww, self.A, self.ww_A = ww, A, ww_A

    @classmethod
    def of(cls, weights: np.ndarray) -> _Ball:
        """The ball of these weights (rows), every entry active."""
        return cls(weights * weights, np.ones(weights.shape, dtype=bool))

    def __getitem__(self, keep) -> _Ball:
        return _Ball(self.ww[keep], self.A[keep],
                     None if self.ww_A is None else self.ww_A[keep])


def project_l1_ball(z: np.ndarray, radius: float, weights: np.ndarray,
                    active: np.ndarray | _Ball | None = None) -> np.ndarray:
    """Euclidean projection of complex vectors onto the weighted l1 ball
    ``{x : sum_j w_j |x_j| <= radius}``.

    ``z`` is one vector or a stack of them (rows of a 2-d array), each
    projected on its own; ``weights``, positive, has the shape of ``z``.
    Moduli are shrunk to ``max(|z_j| - lam w_j, 0)`` and phases are
    preserved; a row inside the ball comes back unchanged, and radius 0
    gives zeros.

    The threshold ``lam`` comes from Newton's method on the active set: from
    a set ``A``, ``lam = (sum_A w |z| - radius) / sum_A w^2``, then ``A <-
    {|z_j| / w_j > lam}``, until ``A`` stops changing, which makes ``lam``
    exact. From any nonempty ``A`` the first ``lam`` is at most the exact
    one, and from there ``lam`` rises and ``A`` shrinks, so a row of ``n``
    entries takes at most ``n + 1`` passes. ``active``, a bool array of
    ``z``'s shape, is the start set; it is updated in place to the final set
    of each row outside the ball, so a caller that projects nearby points
    keeps it from call to call, and one pass usually both computes ``lam``
    and confirms it. None, and a row with no entry set, start from all
    entries. The result depends on the final set alone, not on the start,
    and a row comes out bit for bit as it would alone. Deterministic.

    ``active`` may instead be a ball's kept state (``_Ball``, for a 2-d
    ``z`` of its rows and ``weights`` of its weights): the start set is its
    set, and a set that its last projection confirmed needs neither its
    ``sum_A w^2`` again nor the check for an empty set, so a projection
    whose set does not change makes one pass with neither. The result is
    bit for bit that of the bool start set ``active.A``.
    """
    if not radius >= 0:
        raise ParamError(f"radius must be nonnegative, got {radius}")
    rows = z.reshape(-1, z.shape[-1])
    B, n = rows.shape
    a = np.abs(rows)
    w = weights.reshape(B, n)
    wa = a * w
    inside = wa.sum(axis=1) <= radius
    n_inside = np.count_nonzero(inside)
    if n_inside == len(inside):
        return z.copy()
    if radius == 0:
        out = np.zeros_like(rows)
    else:
        if isinstance(active, _Ball):
            ball = active
        else:   # a view: the set is updated in place
            ball = _Ball(w * w, np.ones((B, n), dtype=bool) if active is None
                         else active.reshape(B, n))
        ww, A, ww_A = ball.ww, ball.A, ball.ww_A
        for _ in range(n + 1):
            if ww_A is None:
                ww_A = (ww * A).sum(axis=1)
                if not ww_A.all():   # a row with no entry set starts from all
                    A[ww_A == 0] = True
                    ww_A = (ww * A).sum(axis=1)
            lam = ((wa * A).sum(axis=1) - radius) / ww_A
            lam_w = lam[:, None] * w
            new = a > lam_w
            if not (new != A).any():
                break
            # roundoff leaves no entry above lam when the radius is below
            # the roundoff of the row's largest ratio: such a row keeps its
            # set and its lam, which shrinks every entry to zero
            stuck = ~new.any(axis=1)
            new[stuck] = A[stuck]
            A[...] = new
            ww_A = None
        ball.ww_A = ww_A
        shrunk = np.maximum(a - lam_w, 0.0)
        if np.count_nonzero(a) == a.size:
            out = rows * (shrunk / a)
        else:
            out = np.zeros_like(rows)
            nz = a > 0
            out[nz] = rows[nz] * (shrunk[nz] / a[nz])
    if n_inside:
        out[inside] = rows[inside]
    return out.reshape(z.shape)


def _dual_values(K: np.ndarray, b: np.ndarray, y: np.ndarray, c: float,
                 dc: np.ndarray | float) -> np.ndarray:
    """``-Re<y, b> - c ||K^H y / dc||_inf`` of each row of ``y``, for ``K``
    with columns scaled by ``dc``: a lower bound on the optimum when the
    row's first ``n`` entries lie in the unit l1 ball."""
    return -np.vecdot(y, b).real - c * np.abs(_rmatvec(K, y) / dc).max(axis=1)


def dual_lower_bound(inst: Instance, u: Field, w: Field | None = None) -> float:
    """Certified lower bound on the optimum from an admissible dual pair.

    Both are fields on the window ``{|nu| <= W}``. ``u`` lives on the
    residual window's spectrum, exponent vector ``n`` at the point ``n``
    (grid point ``mu_j = exp(2*pi*i*n_j/(2W+1))``), and needs ``|u|_1 <=
    1``; ``w``, the support multiplier, vanishes on the admissible support
    (zero if omitted). Then ``Re<u, b> - l1_bound ||A^H u + F_W w||_inf``
    is a lower bound (weak duality); a solve's ``(dual_u, dual_w)`` attains
    its ``dual_bound``.
    """
    geo = _Geometry(inst)
    if w is None:
        w = Field(geo.window, np.zeros(geo.window.shape))
    if u.box != geo.window or w.box != geo.window:
        raise ParamError(f"dual fields must live on the window {geo.window}")
    if np.abs(u.data).sum() > 1 + 1e-12:
        raise ParamError("dual vector must have l1 norm <= 1")
    if np.any(w.restrict(geo.supp).data != 0):
        raise ParamError("support multiplier must vanish on the admissible "
                         f"support {geo.supp}")
    (K,), (b,) = geo.operators([inst])
    y = -np.concatenate([u.data.ravel(), w.data.ravel()[geo.off]])
    return float(_dual_values(K[None], b[None], y[None], inst.l1_bound, 1.0)[0])


def _pow2_scales(sums: np.ndarray) -> np.ndarray:
    """``(sums / their row-wise max)^(-1/2)``, each rounded to the nearest
    power of two (in the exponent); 1 for a zero sum. Every row of ``sums``
    needs a positive entry."""
    rel = sums / sums.max(axis=1, keepdims=True)
    log2 = np.zeros(sums.shape)
    np.log2(rel, out=log2, where=rel > 0)
    return np.ldexp(1.0, np.rint(-0.5 * log2).astype(np.int64))


# Restart rule of the Halpern iteration. Each instance compares its
# fixed-point residual r = ||z - P(z)|| at a check with r at its last restart,
# and restarts when r has fallen to SUFFICIENT of it, or to NECESSARY of it
# and is rising, or when its current epoch is longer than ARTIFICIAL of all
# iterations so far (so the first check always restarts).
SUFFICIENT, NECESSARY, ARTIFICIAL = 0.2, 0.8, 0.36
# Iterations between checks, which certify the gap and decide restarts.
CHECK_EVERY = 25
# A restart keeps the primal weight when the primal or the dual moved at most
# this far since the last anchor. The iterates do not scale with the data, so
# neither does this floor.
OMEGA_FLOOR = 1e-10


def _pdhg(geo: _Geometry, K: np.ndarray, b: np.ndarray, c: float, tol: float,
          max_iter: int) -> list[tuple[np.ndarray, float, float, int, bool,
                                       np.ndarray]]:
    """Reflected restarted Halpern PDHG on the stacked operators ``K``, ``b``
    of one geometry and l1 budget ``c``.

    The dual ``y = (u, w)`` has an entry per row of ``K``; its prox projects
    ``u``, the first ``n``, onto the unit l1 ball. The iteration runs on the
    equilibrated ``D_r K D_c`` (see the module docstring), which replaces
    ``K`` in place. Its step and the scale of the support rows are
    estimates of norms by :func:`_norm_estimate`, which factors no matrix.
    A square ``K`` (filtering) takes ``D_c = D_r`` and each iteration's
    ``K~^H y`` as ``conj(K~ conj(y))``; the two balls keep their state
    (``_Ball``) through the iterations and through compaction.
    Returns, per instance: the spatial coefficients of the best feasible
    filter, its objective, the best dual value, the iteration count, whether
    the gap reached ``tol`` and the dual vector attaining the best dual
    value.
    """
    n = geo.n
    zero = np.abs(b).max(axis=1) == 0
    # a zero residual window at phi = 0: the optimum is 0
    out = [(np.zeros(n, dtype=np.complex128), 0.0, 0.0, 0, True,
            np.zeros(b.shape[1], dtype=np.complex128)) if z else None for z in zero]
    rows = np.flatnonzero(~zero)   # input position of each stacked row
    if rows.size < len(zero):      # indexing copies; K is scaled in place below
        K, b = K[rows], b[rows]
    B = len(rows)
    # the support rows scaled by alpha, the estimate of ||A|| (1 for an A of
    # zero), so that K, and with it the iteration, scales with the data; the
    # multiplier of the unscaled rows is alpha times that of the scaled ones
    m = K.shape[1] - n
    alpha = np.ones(B)
    if m:
        alpha = _norm_estimate(K[:, :n])
        alpha[alpha == 0] = 1.0
        K[:, n:] *= alpha[:, None, None]
    # equilibrate: K <- D_r K D_c, b <- D_r b, in place; the primal is
    # Phi / dc and the dual y / dr from here on. A square K (filtering) is
    # complex symmetric to roundoff (module docstring): its column sums are
    # its row sums, and dc = dr keeps K~ symmetric
    row_sums, col_sums = np.empty(K.shape[:2]), np.zeros((B, n))
    for k, s in _slabs(B, K.shape[1], n * 8):   # |K| a slab at a time
        a = np.abs(K[k, s])
        row_sums[k, s] = a.sum(axis=2)
        # row by row from zero, the order of a whole column's sum(axis=0):
        # adding the sums of slabs would round differently
        if m:
            for i in range(a.shape[1]):
                col_sums[k] += a[:, i]
    dr = _pow2_scales(row_sums)
    dc = _pow2_scales(col_sums) if m else dr
    K *= dr[:, :, None]
    K *= dc[:, None, :]
    b *= dr
    step = (0.99 / _norm_estimate(K))[:, None]
    # the primal weight omega: primal step step / omega, dual step step * omega
    omega = np.ones(B)
    tau, sigma = step, step

    Phi = np.zeros((B, n), dtype=np.complex128)
    y = np.zeros_like(b)
    # the two l1 balls keep their state from one projection to the next: the
    # iterates move little, so their active sets seldom change
    ball_Phi, ball_y = _Ball.of(dc), _Ball.of(dr[:, :n])
    Phi0, y0 = Phi.copy(), y.copy()            # the anchor z0 of the epoch
    restart_it = np.zeros(B, dtype=np.int64)   # the epoch began after it
    r_restart = np.full(B, math.inf)
    r_last = np.full(B, math.inf)

    best_J = np.full(B, math.inf)
    best_phi = np.zeros((B, n), dtype=np.complex128)
    best_D = np.full(B, -math.inf)
    best_y = np.zeros_like(y)

    it = 0
    while rows.size:
        it += 1
        # P(z) = (Phi+, y+), one PDHG step from z = (Phi, y); R = 2 Phi+ - Phi
        # is both its extrapolated point and the reflection of Phi. The
        # primal step Phi - tau K^H y is formed in the buffer of K^H y; a
        # symmetric K~ gives it as conj(K~ conj(y)), BLAS's faster kernel
        if m:
            g = _rmatvec(K, y)
        else:
            g = _matvec(K, np.conj(y))
            np.conjugate(g, out=g)
        g *= tau
        np.subtract(Phi, g, out=g)
        Phi_plus = project_l1_ball(g, c, dc, ball_Phi)
        R = 2 * Phi_plus
        R -= Phi
        y_plus = _matvec(K, R)
        y_plus -= b
        y_plus *= sigma
        y_plus += y
        if m:
            y_plus[:, :n] = project_l1_ball(y_plus[:, :n], 1.0, dr[:, :n], ball_y)
        else:
            y_plus = project_l1_ball(y_plus, 1.0, dr, ball_y)

        check = it % CHECK_EVERY == 0 or it == max_iter
        if check:
            # J and D of the unscaled program: dividing the products by the
            # powers of two dr and dc gives them bit for bit
            PhiF, filters = geo.feasible_filters(Phi_plus * dc, c)
            J = (np.abs(b[:, :n] - _matvec(K[:, :n], PhiF / dc))
                 / dr[:, :n]).max(axis=1)
            better = J < best_J
            best_J[better] = J[better]
            best_phi[better] = filters[better]
            D = _dual_values(K, b, y_plus, c, dc)
            y_cert = y_plus
            if m:
                # D(u, 0), the bound of the support relaxation, can exceed
                # D(u, w) while the multiplier w is still far off
                y_u = y_plus.copy()
                y_u[:, n:] = 0.0
                D_u = _dual_values(K, b, y_u, c, dc)
                relaxed = D_u > D
                D = np.where(relaxed, D_u, D)
                y_cert = np.where(relaxed[:, None], y_u, y_plus)
            better = D > best_D
            best_D[better] = D[better]
            best_y[better] = y_cert[better]
            converged = best_J - best_D <= tol
            # the fixed-point residual in the norm the primal weight sets
            r = np.sqrt(omega * _sq_norms(Phi - Phi_plus)
                        + _sq_norms(y - y_plus) / omega)
            restart = ((r <= SUFFICIENT * r_restart)
                       | ((r <= NECESSARY * r_restart) & (r > r_last))
                       | (it - restart_it > ARTIFICIAL * it))
            r_last = r

        # z <- z0 + w (2 P(z) - z - z0), written over R and y, where the k-th
        # iteration of an epoch has w = (k + 1)/(k + 2); computed here, as a
        # table of max_iter weights would raise the solve's peak memory
        e = it - restart_it
        w = (e / (e + 1.0))[:, None]
        R -= Phi0
        R *= w
        R += Phi0
        Phi = R
        y -= y_plus
        y -= y_plus
        y += y0
        y *= -w
        y += y0

        if check:
            # the primal weight of the new epoch: how far the dual moved over
            # how far the primal moved since the last anchor
            dPhi = np.sqrt(_sq_norms(Phi_plus - Phi0))
            dy = np.sqrt(_sq_norms(y_plus - y0))
            move = restart & (dPhi > OMEGA_FLOOR) & (dy > OMEGA_FLOOR)
            if move.any():
                omega[move] = dy[move] / dPhi[move]
                tau, sigma = step / omega[:, None], step * omega[:, None]
            # a new epoch, anchored at P(z)
            Phi[restart] = Phi0[restart] = Phi_plus[restart]
            y[restart] = y0[restart] = y_plus[restart]
            r_restart[restart] = r[restart]
            restart_it[restart] = it
            done = converged | (it == max_iter)
            if done.any():
                for j in np.flatnonzero(done):
                    y_best = best_y[j] * dr[j]
                    y_best[n:] *= alpha[j]
                    out[rows[j]] = (geo.spatial(best_phi[j:j + 1])[0],
                                    float(best_J[j]), float(best_D[j]), it,
                                    bool(converged[j]), y_best)
                # compact only now: indexing the stacks every iteration costs
                # more than the products on large windows
                keep = ~done
                # K's kept rows move forward in place, so no second K is
                # built; its prefix is C-contiguous, as the copy would be
                kept = np.flatnonzero(keep)
                for i, j in enumerate(kept):
                    if i != j:
                        K[i] = K[j]
                K = K[:len(kept)]
                (rows, b, alpha, dr, dc, step, omega, tau, sigma, Phi, y,
                 Phi0, y0, ball_Phi, ball_y, restart_it, r_restart, r_last,
                 best_J, best_phi, best_D, best_y) = (
                    x[keep] for x in (
                        rows, b, alpha, dr, dc, step, omega, tau, sigma, Phi,
                        y, Phi0, y0, ball_Phi, ball_y, restart_it, r_restart,
                        r_last, best_J, best_phi, best_D, best_y))
    return out


# The iteration budget of every solve. At tol 1e-5 the bench_default.yaml
# trials stop within 4,650 iterations, and the measured d = 2 cases 8,100.
MAX_ITER = 20000

# The byte budget of one sub-batch's stacked operator K. It splits no batch
# of the d = 1 bench configs (n <= 33: 17 KiB an instance), and holds 6
# instances at d = 2, T = 4 (n = 289: 1.3 MiB an instance). A 32nd of it
# bounds each slab that builds and equilibrates K (see _slabs).
SOLVE_BATCH_BYTES = 8 << 20


def _slabs(B: int, count: int, item_bytes: int) -> Iterator[tuple[slice, slice]]:
    """Slabs ``(instances, indices)`` that cover ``range(B) x range(count)``
    in order, ``item_bytes`` a pair: as many whole instances as fit
    ``SOLVE_BATCH_BYTES // 32``, or, when one does not, one instance and as
    many of its indices as fit (one at least)."""
    budget = SOLVE_BATCH_BYTES // 32
    per = budget // (count * item_bytes)
    if per:
        for lo in range(0, B, per):
            yield slice(lo, lo + per), slice(None)
        return
    size = max(1, budget // item_bytes)
    for k in range(B):
        for lo in range(0, count, size):
            yield slice(k, k + 1), slice(lo, lo + size)


def solve_batch(instances: Sequence[Instance], tol: float = 1e-6,
                max_iter: int = MAX_ITER) -> list[SolveResult]:
    """Solve instances that share geometry and l1 budget, each to a gap of ``tol``.

    Runs reflected restarted Halpern PDHG (see the module docstring) for at
    most ``max_iter`` iterations, and certifies the gap and decides restarts
    every ``CHECK_EVERY`` iterations and at the last. Each instance has its
    own primal weight, adapted at its restarts, its own diagonal scales, and
    in prediction its own scale ``||A||`` of the support rows; ``dual_w`` is
    the multiplier of the unscaled rows. Returns one result per instance, in
    order, each bit-identical to what solving that instance alone gives. An
    instance that misses the budget is returned with its certified gap and
    ``converged`` false. Raises ``ParamError`` for a tolerance that is not
    positive and finite (NaN included), a budget ``max_iter`` that is not an
    integer >= 1, an empty batch, or instances that differ in dimension,
    order, lag (None for filtering) or l1 budget. Deterministic.

    The instances are built and iterated in consecutive sub-batches of as
    many instances (one at least) as have their stacked ``K``, ``(n + m) n``
    complex entries each, fit in ``SOLVE_BATCH_BYTES``; so memory does not
    grow with the batch, and no result changes. Each ``K`` is built and
    equilibrated in its own array, slab by slab (:func:`_slabs`), so the
    budget bounds the build as well as its result, again with no bit changed.
    """
    _tol_arg(tol)
    # the loop stops at it == max_iter, which no other number ever equals
    if (isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer))
            or max_iter < 1):
        raise ParamError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if not instances:
        raise ParamError("a batch needs at least one instance")
    kinds = {(inst.d, inst.T_alg, inst.kappa, inst.l1_bound) for inst in instances}
    if len(kinds) > 1:
        raise ParamError("instances of a batch must share one geometry and l1 "
                         f"budget (d, T_alg, kappa, l1_bound), got "
                         f"{sorted(kinds, key=str)}")
    geo = _Geometry(instances[0])
    size = max(1, SOLVE_BATCH_BYTES // ((geo.n + len(geo.off)) * geo.n * 16))
    fits = []
    for lo in range(0, len(instances), size):
        # the operators are passed on, not held here: _pdhg scales and
        # compacts K in place, and frees b's rows of solved instances
        fits += _pdhg(geo, *geo.operators(instances[lo:lo + size]),
                      instances[0].l1_bound, tol, max_iter)
    n, shape = geo.n, geo.window.shape
    results = []
    for inst, (phi_sp, J, D, iters, converged, y_best) in zip(instances, fits):
        w = np.zeros(n, dtype=np.complex128)
        w[geo.off] = -y_best[n:]
        results.append(SolveResult(
            phi=_filter(inst, phi_sp), objective=J,
            # weak duality holds; guard roundoff in the reported gap
            dual_bound=min(D, J), iterations=iters, converged=converged,
            dual_u=Field(geo.window, (-y_best[:n]).reshape(shape)),
            dual_w=Field(geo.window, w.reshape(shape))))
    return results


def solve(inst: Instance, tol: float = 1e-6, max_iter: int = MAX_ITER) -> SolveResult:
    """Solve the instance to an absolute duality gap of ``tol``: the batch of
    one of :func:`solve_batch`.

    Returns a feasible filter with its certified gap whether or not the gap
    reached ``tol`` within ``max_iter`` iterations; ``converged`` tells
    which. Deterministic.
    """
    return solve_batch([inst], tol, max_iter)[0]
