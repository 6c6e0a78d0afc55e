"""Signal families and the certificate filters that reproduce them.

A *certificate* for a signal class is a family of filters ``q^(T)``, one per
window order ``T``, with small l2 norm (``|q^(T)|_2 <= rho (2T+1)^{-d/2}``)
that reproduces every signal of the class up to a mean-square error of
``theta (2T+1)^{-d/2}``. Every construction here holds on all of Z^d, so no
horizon is stored, and reproduces its class exactly (theta 0). Prediction
certificates are the same with a lag ``kappa``, one-sided (causal) supports
``{kappa <= tau_j <= T}`` and a minimal usable order ``T_0``; a
certificate's filters carry its lag, and filtering certificates and their
filters carry none.

The module provides the basic constructive families

* single exponentials ``e^{omega tau}`` (two-sided and causal variants),
* spans of exponentials with prescribed per-axis frequency sets,
* exponential polynomials, algebraic ones included, via minimum-norm
  moment-matching weights,
* discrete harmonic fields of a regular difference operator, reproduced by a
  Chebyshev polynomial of the operator; a regular operator is its stencil
  filter (:func:`make_regular_operator`), so the polynomial is a sum of
  filter products,

and the calculus that combines certificates: linear combinations, modulation,
lifting to higher dimension, and tensor products. A certificate is the one
public source of its filters: the builders of the first three families are
private, take only arguments that their certificate has checked, and are
called only by certificates. The harmonic filter, which no certificate wraps,
is built by :func:`harmonic_filter`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, ParamError, RegularityError
from .fields import (
    Box,
    Field,
    Filter,
    convolve,
    filter_product,
    filter_tensor,
    rebox_filter,
)
from .solver import _rho_arg

__all__ = [
    "ExpPolynomial",
    "Certificate",
    "eval_exp_poly",
    "exp_certificate_1d",
    "poly_certificate_1d",
    "simple_exp_certificate",
    "predictor_exp_certificate",
    "exp_poly_certificate",
    "combine_certificates",
    "modulate_certificate",
    "lift_certificate",
    "tensor_certificate",
    "make_regular_operator",
    "harmonic_filter",
    "random_discrete_harmonic",
    "reproduction_residual",
]


# --------------------------------------------------------------------------
# exponential polynomials
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpPolynomial:
    """Finite sum of monomials ``c * tau^alpha * exp(omega . tau)`` on Z^d.

    ``terms`` is a tuple of ``(c, alpha, omega)`` with complex coefficient
    ``c``, nonnegative integer multi-index ``alpha`` and complex frequency
    vector ``omega``, all of length d.
    """

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ParamError("an exponential polynomial needs at least one term")
        norm_terms = []
        d = None
        for c, alpha, omega in self.terms:
            alpha = tuple(int(a) for a in alpha)
            omega = tuple(complex(w) for w in omega)
            if d is None:
                d = len(alpha)
            if len(alpha) != d or len(omega) != d:
                raise ParamError("all terms must share one dimension")
            if any(a < 0 for a in alpha):
                raise ParamError("multi-indices must be nonnegative")
            norm_terms.append((complex(c), alpha, omega))
        object.__setattr__(self, "terms", tuple(norm_terms))

    @property
    def d(self) -> int:
        return len(self.terms[0][1])

    def max_degrees(self) -> tuple[int, ...]:
        return tuple(max(t[1][j] for t in self.terms) for j in range(self.d))

    def freq_sets(self) -> tuple[tuple[complex, ...], ...]:
        """Per-axis sets of distinct partial frequencies (exact equality)."""
        out = []
        for j in range(self.d):
            seen = []
            for _, _, omega in self.terms:
                if omega[j] not in seen:
                    seen.append(omega[j])
            out.append(tuple(seen))
        return tuple(out)


def eval_exp_poly(p: ExpPolynomial, box: Box) -> Field:
    """Evaluate an exponential polynomial on a box."""
    if box.d != p.d:
        raise ParamError("dimension mismatch between polynomial and box")
    axes = [np.arange(lo, hi + 1, dtype=float) for lo, hi in zip(box.lo, box.hi)]
    out = np.zeros(box.shape, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for c, alpha, omega in p.terms:
            term = np.full(box.shape, c, dtype=np.complex128)
            for j, ax in enumerate(axes):
                shape = (1,) * j + (-1,) + (1,) * (p.d - 1 - j)
                factor = ax ** alpha[j] if alpha[j] else np.ones_like(ax)
                term = term * (factor * np.exp(omega[j] * ax)).reshape(shape)
            out += term
    if not np.all(np.isfinite(out)):
        raise OverflowError("exponential polynomial overflows double range on this box")
    return Field(box, out)


# --------------------------------------------------------------------------
# the certificates' filter builders: each takes only arguments that its
# certificate has checked, and only the certificates call them
# --------------------------------------------------------------------------


def _exp_filter_1d(omega: complex, T: int) -> Filter:
    """Order-T filter reproducing ``s_tau = exp(omega tau)`` exactly (d=1).

    Averages T+1 rescaled samples on the stable side: lags ``-k`` with
    weights ``exp(-k omega)/(T+1)`` when ``Re omega >= 0``, mirrored
    otherwise. ``|q|_2 <= (T+1)^{-1/2} <= sqrt(2) (2T+1)^{-1/2}``, with
    equality for purely imaginary frequencies.
    """
    coeffs = np.zeros(2 * T + 1, dtype=np.complex128)
    k = np.arange(T + 1)
    if omega.real >= 0:
        # support on lags {0, -1, ..., -T}
        coeffs[T - k] = np.exp(-omega * k) / (T + 1)
    else:
        coeffs[T + k] = np.exp(omega * k) / (T + 1)
    return Filter.two_sided(1, T, coeffs)


def _one_minus(q: Filter) -> Filter:
    """The filter 1 - q in the Laurent algebra; one-sided with lag 0 when q
    is one-sided, as the 1 sits at the origin."""
    kappa = None if q.kappa is None else 0
    box = Box.support(q.d, q.order, kappa)
    data = np.zeros(box.shape, dtype=np.complex128)
    data[q.field.box.slices_in(box)] = -q.field.data
    data[tuple(-l for l in box.lo)] += 1.0
    return Filter(Field(box, data), q.order, kappa)


def _annihilator_combination(factors: Sequence[Filter]) -> Filter:
    """q with 1 - q = prod_j (1 - q_j); reproduces whatever every q_j reproduces."""
    prod = reduce(filter_product, [_one_minus(q) for q in factors])
    return _one_minus(prod)


def _simple_exp_filter(freq_sets: tuple[tuple[complex, ...], ...], T: int) -> Filter:
    """Filter reproducing every span of exponentials with the given partial frequencies.

    ``freq_sets`` holds one nonempty set of distinct complex frequencies per
    axis, and ``T`` is at least the largest set size. Per axis, the N_j
    single-frequency filters of order ``floor(T/N_j)`` are combined through
    the product construction, and the axes are tensored.
    """
    axis_filters = []
    for fs in freq_sets:
        T_factor = T // len(fs)
        axis_filters.append(
            _annihilator_combination([_exp_filter_1d(w, T_factor) for w in fs]))
    return reduce(filter_tensor, axis_filters)


def _exp_poly_filter(freq_sets: Sequence[Sequence[complex]],
                     degrees: Sequence[int], T: int) -> Filter:
    """Minimum-l2 order-T filter reproducing every ``tau^k exp(omega tau)`` with,
    on each axis j, ``omega`` in ``freq_sets[j]`` and ``k <= degrees[j]``.

    Per axis, one least-squares solve of the moment system ``sum_{|nu| <= T}
    q_nu (nu/T)^k exp(-omega nu) = delta_{k,0}`` for every such ``omega`` and
    ``k``; the axes are tensored, and the tensor of minimum-norm solutions is
    the minimum-norm solution of the tensor system. Below the order where
    some axis's moments outnumber its ``2T+1`` taps, the impulse, which
    reproduces every class, is returned.
    """
    if any(2 * T + 1 < len(fs) * (m + 1) for fs, m in zip(freq_sets, degrees)):
        return Filter.impulse(len(freq_sets))
    nu = np.arange(-T, T + 1)
    t = nu / max(T, 1)
    axis_filters = []
    for fs, m in zip(freq_sets, degrees):
        k = np.arange(m + 1)
        A = np.concatenate([t ** k[:, None] * np.exp(-w * nu) for w in fs])
        b = np.tile(k == 0, len(fs)).astype(np.complex128)
        q, *_ = np.linalg.lstsq(A, b, rcond=None)
        axis_filters.append(Filter.two_sided(1, T, q))
    return reduce(filter_tensor, axis_filters)


def _predictor_exp_filter(omega: complex, T: int, kappa: int) -> Filter:
    """Causal filter reproducing a quasi-stable exponential ``exp(omega tau)``.

    Support ``{kappa..T}`` with weights ``exp(k omega)/(T - kappa + 1)``;
    ``Re omega <= 0`` and ``0 <= kappa <= T``, which its certificate checks.
    """
    k = np.arange(kappa, T + 1)
    coeffs = np.exp(omega * k) / (T - kappa + 1)
    return Filter.one_sided(1, kappa, T, coeffs)


# --------------------------------------------------------------------------
# certificates
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """A family ``T -> q^(T)`` of filters certifying a signal class.

    ``theta`` bounds the reproduction error (times ``(2T+1)^{d/2}``), ``rho``
    the filter l2 norm (same scaling). Every construction holds on all of
    Z^d, so no horizon is stored. Prediction certificates carry the lag
    ``kappa``, which each of their filters carries too, and the minimal order
    ``T0``; a filtering certificate has ``kappa=None`` and two-sided filters.
    """

    d: int
    theta: float
    rho: float
    make: Callable[[int], Filter]
    kappa: int | None = None
    T0: int = 0

    def __post_init__(self):
        _rho_arg(self.rho)
        if not self.theta >= 0:
            raise ParamError(f"certificate theta must be >= 0, got {self.theta}")
        if self.kappa is not None and self.kappa < 0:
            raise ParamError(f"certificate lag must be >= 0, got {self.kappa}")
        if self.T0 < 0:
            raise ParamError(f"certificate minimal order must be >= 0, got {self.T0}")

    def filter(self, T: int) -> Filter:
        """The order-T certificate filter; ``ParamError`` below the minimal
        order ``T0``."""
        if T < self.T0:
            raise ParamError(f"order {T} outside the certificate's usable range "
                             f"[{self.T0}, inf]")
        q = self.make(T)
        if q.order > T:
            raise ParamError(f"constructed filter has order {q.order} > {T}")
        if q.kappa != self.kappa:
            raise ParamError(f"constructed filter has lag {q.kappa}, the "
                             f"certificate {self.kappa}")
        return q


def exp_certificate_1d(omega: complex) -> Certificate:
    """Certificate for the univariate exponential ``exp(omega tau)``: theta 0, rho sqrt(2)."""
    omega = complex(omega)
    return Certificate(1, 0.0, math.sqrt(2), lambda T: _exp_filter_1d(omega, T))


def poly_certificate_1d(m: int) -> Certificate:
    """Certificate for univariate polynomials of degree <= m: theta 0, rho 16m.

    The filters are the minimum-norm moment-matching weights at frequency 0,
    and the impulse while ``2T+1 < m+1``.
    """
    if m < 0:
        raise ParamError("degree must be nonnegative")
    rho = 16.0 * m if m >= 1 else 1.0
    return Certificate(1, 0.0, rho, lambda T: _exp_poly_filter(((0j,),), (m,), T))


def _rho_simple(sizes: Sequence[int]) -> float:
    return float(np.prod([math.sqrt(2 * N - 1) * 2 ** (1.5 * N) for N in sizes]))


def simple_exp_certificate(freq_sets: Sequence[Sequence[complex]]) -> Certificate:
    """Certificate for spans of exponentials with the given per-axis frequency sets.

    ``freq_sets`` needs at least one axis, and each axis a nonempty set
    without repeats. Below the largest set size, the filter is the impulse.
    """
    freq_sets = tuple(tuple(complex(w) for w in fs) for fs in freq_sets)
    if not freq_sets:
        raise ParamError("need at least one axis")
    for j, fs in enumerate(freq_sets):
        if not fs:
            raise ParamError(f"frequency set for axis {j} is empty")
        if len(set(fs)) != len(fs):
            raise ParamError(f"frequency set for axis {j} has repeats")
    sizes = [len(fs) for fs in freq_sets]
    d = len(freq_sets)
    need = max(sizes)

    def make(T: int) -> Filter:
        if T < need:
            return Filter.impulse(d)
        return _simple_exp_filter(freq_sets, T)

    return Certificate(d, 0.0, _rho_simple(sizes), make)


def predictor_exp_certificate(omega: complex, kappa: int) -> Certificate:
    """Causal certificate for a quasi-stable exponential, lag ``kappa``."""
    omega = complex(omega)
    if omega.real > 0:
        raise ParamError(f"quasi-stability requires Re(omega) <= 0, got {omega}")
    rho = 2.0 * math.sqrt(max(2, 2 * kappa + 1))
    return Certificate(1, 0.0, rho, lambda T: _predictor_exp_filter(omega, T, kappa),
                       kappa=kappa, T0=kappa)


def exp_poly_certificate(p: ExpPolynomial) -> Certificate:
    """Certificate for a general exponential polynomial, from its frequency structure.

    A sum of pure exponentials (every degree 0) gets the simple-exponential
    certificate of its frequency sets. Otherwise, with ``M_j`` distinct
    partial frequencies and largest degree ``m_j`` on axis j, the filter is
    the minimum-norm one reproducing every ``tau^k exp(omega tau)`` with
    ``k <= m_j`` per axis, and ``rho`` is the simple-exponential one for
    ``N_j = M_j (m_j + 1)`` frequencies per axis. That ``rho`` bounds it:
    splitting each frequency into ``m_j + 1`` copies ``h`` apart gives
    order-T simple-exponential filters within that bound for every ``h``,
    which converge, as ``h -> 0``, to a filter that reproduces this class
    (the pseudo-inverse is continuous at full rank); the impulse reproduces
    it too, and the minimum-norm filter is no longer than either. The
    filters depend only on the frequency sets and degrees, not on the
    coefficients.
    """
    degrees, freq_sets = p.max_degrees(), p.freq_sets()
    if not any(degrees):
        return simple_exp_certificate(freq_sets)
    rho = _rho_simple([len(fs) * (m + 1) for fs, m in zip(freq_sets, degrees)])
    return Certificate(p.d, 0.0, rho, lambda T: _exp_poly_filter(freq_sets, degrees, T))


def combine_certificates(certs: Sequence[Certificate],
                         lambdas: Sequence[complex]) -> Certificate:
    """Certificate for ``sum_j lambda_j s_j`` given certificates for each s_j.

    Uses the product construction ``1 - q = prod_j (1 - q_j)`` with per-factor
    order ``floor(T/m)``. Parameter updates: ``rho+ = (2m-1)^{d/2} 2^m
    rho_1...rho_m`` and the matching ``theta+``; for predictors the lag is
    the minimum and ``T0+ = m max_j T0_j``. The filters do not depend on the
    coefficients.
    """
    certs = list(certs)
    lambdas = [complex(l) for l in lambdas]
    if not certs:
        raise ParamError("need at least one certificate")
    if len(lambdas) != len(certs):
        raise ParamError("one coefficient per certificate")
    m = len(certs)
    d, causal = certs[0].d, certs[0].kappa is not None
    if any(c.d != d or (c.kappa is not None) != causal for c in certs):
        raise ParamError("certificates must share their dimension, and either "
                         "all have a lag or none")
    if m == 1:
        c0 = certs[0]
        return replace(c0, theta=abs(lambdas[0]) * c0.theta)
    rho_prod = float(np.prod([c.rho for c in certs]))
    factor = (2 * m - 1) ** (d / 2)
    rho_plus = factor * 2 ** m * rho_prod
    theta_plus = factor * 2 ** (m - 1) * rho_prod * sum(
        c.theta * abs(l) / c.rho for c, l in zip(certs, lambdas))
    kappa_plus = min(c.kappa for c in certs) if causal else None
    T0_plus = m * max(c.T0 for c in certs)

    def make(T_plus: int) -> Filter:
        T = T_plus // m
        q = _annihilator_combination([c.make(T) for c in certs])
        if causal:
            q = rebox_filter(q, q.order, kappa_plus)
        return q

    return Certificate(d, theta_plus, rho_plus, make,
                       kappa=kappa_plus, T0=T0_plus)


def modulate_certificate(cert: Certificate, omega: Sequence[float]) -> Certificate:
    """Certificate for the modulated class ``exp(i(omega.tau + phase)) s_tau``.

    The filters are modulated coefficient-wise; all parameters are unchanged
    (the l2 norm is modulation invariant). A constant ``phase`` only rotates
    the signal, so one certificate serves every phase.
    """
    omega = tuple(float(w) for w in omega)
    if len(omega) != cert.d:
        raise ParamError("frequency vector dimension mismatch")
    return replace(cert, make=lambda T: cert.make(T).modulate(omega))


def _exact_arg(*certs: Certificate) -> None:
    if any(c.theta != 0 for c in certs):
        raise ParamError("lifts and tensor products require exact certificates "
                         "(theta = 0)")


def lift_certificate(cert: Certificate, d_plus: int) -> Certificate:
    """View a d-dimensional certificate as one in dimension ``d_plus > d``.

    New axes get uniform averaging factors ((2T+1)^{-1} two-sided, or the
    causal uniform window for predictors); ``rho`` is unchanged for filtering
    and picks up ``max(2, 2 kappa + 1)^{(d+-d)/2}`` per the causal window
    shape for prediction. Like a tensor product, a lift needs ``theta = 0``.
    """
    extra = d_plus - cert.d
    if extra <= 0:
        raise ParamError("d_plus must exceed the certificate dimension")
    _exact_arg(cert)
    if cert.kappa is None:
        rho_plus = cert.rho

        def axis_factor(T: int) -> Filter:
            return Filter.two_sided(1, T, np.full(2 * T + 1, 1.0 / (2 * T + 1)))
    else:
        rho_plus = max(2, 2 * cert.kappa + 1) ** (extra / 2) * cert.rho

        def axis_factor(T: int) -> Filter:
            return _predictor_exp_filter(0j, T, cert.kappa)

    def make(T: int) -> Filter:
        q = cert.make(T)
        for _ in range(extra):
            q = filter_tensor(q, axis_factor(T))
        return q

    return Certificate(d_plus, 0.0, rho_plus, make,
                       kappa=cert.kappa, T0=max(cert.T0, cert.kappa or 0))


def tensor_certificate(a: Certificate, b: Certificate) -> Certificate:
    """Certificate for the tensor product ``s'_{tau'} s''_{tau''}`` (exact inputs only)."""
    _exact_arg(a, b)
    if a.kappa != b.kappa:
        raise ParamError("tensor products require equal lags, or none")
    return Certificate(
        a.d + b.d, 0.0, a.rho * b.rho, lambda T: filter_tensor(a.make(T), b.make(T)),
        kappa=a.kappa, T0=max(a.T0, b.T0))


# --------------------------------------------------------------------------
# regular difference operators and discrete harmonic fields
# --------------------------------------------------------------------------


def make_regular_operator(offsets: Sequence[Sequence[int]],
                          weights: Sequence[complex]) -> Filter:
    """The stencil ``(D f)_tau = sum_l w_l f_{tau - alpha(l)}`` as a filter:
    two-sided on the cube of its largest reach, ``q_{alpha(l)} = w_l``.

    Raises ``RegularityError`` naming the violated condition (R.1, R.2), and
    ``ParamError`` for a repeated offset, which the stencil would sum into
    another operator than the one checked.
    """
    offsets = tuple(tuple(int(a) for a in off) for off in offsets)
    weights = tuple(complex(w) for w in weights)
    if not offsets or len(offsets) != len(weights):
        raise ParamError("need matching, nonempty offsets and weights")
    d = len(offsets[0])
    if any(len(off) != d for off in offsets):
        raise ParamError("offsets must share one dimension")
    if len(set(offsets)) != len(offsets):
        raise ParamError(f"offsets repeat: {offsets}")
    offs, mods = np.array(offsets), np.array([abs(w) for w in weights])
    if np.any(mods == 0):
        raise RegularityError("R.2", "all weights must be nonzero")
    if np.linalg.matrix_rank(offs.astype(float)) < d:
        raise RegularityError("R.1", "offsets do not span R^d")
    if mods.sum() > 1 + 1e-12:
        raise RegularityError("R.2a", f"weight moduli sum to {mods.sum():.6g} > 1")
    mean_off = mods @ offs
    reach = int(np.abs(offs).max())
    if np.abs(mean_off).max() > 1e-12 * max(1.0, reach):
        raise RegularityError("R.2b", f"modulus-weighted mean offset {mean_off} != 0")
    data = np.zeros((2 * reach + 1,) * d, dtype=np.complex128)
    data[tuple((offs + reach).T)] = weights
    return Filter.two_sided(d, reach, data)


def four_neighbor_averaging(d: int = 2) -> Filter:
    """The 2d-point nearest-neighbor averaging operator (discrete harmonicity)."""
    offsets, weights = [], []
    for j in range(d):
        for eps in (+1, -1):
            off = [0] * d
            off[j] = eps
            offsets.append(tuple(off))
            weights.append(1.0 / (2 * d))
    return make_regular_operator(offsets, weights)


def _filter_sum(d: int, terms: Sequence[tuple[float, Filter]]) -> Filter:
    """``sum s q`` over the ``(s, q)`` of ``terms``, two-sided on the cube of
    the largest order."""
    order = max(q.order for _, q in terms)
    return Filter.two_sided(d, order, sum(s * q.pad_to_cube(order).data
                                          for s, q in terms))


def harmonic_filter(D: Filter, n: int, c24: int = 1) -> Filter:
    """Filter reproducing the discrete harmonic fields of a regular operator
    ``D`` (the stencil filter of :func:`make_regular_operator`).

    Builds the polynomial ``R_n = (P_n Q^{c24 n})^d`` with ``P_n = (1 -
    T_n)/(n^2 (1 - z))`` (T_n Chebyshev) and ``Q = (1+z)/2``, then substitutes
    the stencil: ``q = R_n(D)``. ``R_n(1) = 1``, so ``q`` reproduces every
    field fixed by ``D`` at points whose iterated stencil reads stay inside
    the data box. ``c24`` trades support size against the filter norm.

    ``R_n`` is kept in the Chebyshev basis, where all its coefficients are
    positive (``n^2 P_n`` is the Fejer kernel ``n + 2 sum_{k<n} (n - k)
    T_k``), and ``R_n(D)`` is evaluated by the Clenshaw recurrence: the
    monomial coefficients alternate in sign and grow like ``2^n``, which
    lost about six digits at ``n = 20``.
    """
    if n < 1:
        raise ParamError("degree parameter n must be >= 1")
    if c24 < 1:
        raise ParamError("c24 must be a positive integer")
    # imported here, as it adds about 6 ms to every start of the program
    from numpy.polynomial import chebyshev

    p_n = np.concatenate(([n], 2.0 * np.arange(n - 1, 0, -1))) / float(n * n)
    q_pow = chebyshev.chebpow([0.5, 0.5], c24 * n, maxpower=None)
    r_n = chebyshev.chebpow(chebyshev.chebmul(p_n, q_pow), D.d, maxpower=None)
    # b_k = r_k + 2 D b_{k+1} - b_{k+2} down from b_K = r_K and b_{K+1} = 0,
    # then R_n(D) = r_0 + D b_1 - b_2
    one = Filter.impulse(D.d)
    b1, b2 = _filter_sum(D.d, ((r_n[-1], one),)), _filter_sum(D.d, ((0.0, one),))
    for c in r_n[-2:0:-1]:
        b1, b2 = _filter_sum(D.d, ((2.0, filter_product(D, b1)),
                                   (-1.0, b2), (c, one))), b1
    return _filter_sum(D.d, ((1.0, filter_product(D, b1)), (-1.0, b2),
                             (r_n[0], one)))


def harmonic_interior(D: Filter, box: Box) -> Box:
    """Points of ``box`` whose stencil reads stay inside ``box``; the
    stencil's taps are its nonzero coefficients."""
    offs = np.argwhere(D.field.data != 0) + np.array(D.field.box.lo)
    lo = tuple(l + int(offs[:, j].max()) for j, l in enumerate(box.lo))
    hi = tuple(h + int(offs[:, j].min()) for j, h in enumerate(box.hi))
    if any(l > h for l, h in zip(lo, hi)):
        raise ParamError(f"box {box} has no interior for this stencil")
    return Box(lo, hi)


# step budget and damping of the Jacobi iteration of random_discrete_harmonic
JACOBI_MAX_ITER, JACOBI_DAMPING = 200_000, 0.9


def random_discrete_harmonic(D: Filter, box: Box, boundary: Field,
                             tol: float = 1e-10) -> Field:
    """Solve the discrete Dirichlet problem ``f = D f`` on the interior of ``box``.

    Boundary values (all points of ``box`` outside the stencil interior) are
    read from ``boundary``. Damped Jacobi iteration, matrix-free; raises
    ``ConvergenceError`` if the interior residual does not reach ``tol``
    within ``JACOBI_MAX_ITER`` steps, and ``ParamError`` for an operator of
    another dimension than the box.
    """
    if D.d != box.d:
        raise ParamError(f"a {D.d}-d operator for a {box.d}-d box")
    interior = harmonic_interior(D, box)
    # the stencil lives on a cube of its largest reach; on an axis of
    # shorter reach its extra taps are zero and read zeros around the box
    r = D.order
    grid = Box(tuple(min(b, i - r) for b, i in zip(box.lo, interior.lo)),
               tuple(max(b, i + r) for b, i in zip(box.hi, interior.hi)))
    data = np.zeros(grid.shape, dtype=np.complex128)
    mask = np.zeros(box.shape, dtype=bool)
    mask[interior.slices_in(box)] = True
    # the boundary frame holds the box's corners, so it is covered exactly
    # when the whole box is
    data[box.slices_in(grid)][~mask] = boundary.restrict(box).data[~mask]
    f = Field(grid, data)
    sl = interior.slices_in(grid)
    for _ in range(JACOBI_MAX_ITER):
        Df = convolve(D, f, interior)
        new = f.data.copy()
        new[sl] = (1 - JACOBI_DAMPING) * f.data[sl] + JACOBI_DAMPING * Df.data
        resid = np.abs(Df.data - f.data[sl]).max()
        f = Field(grid, new)
        if resid <= tol:
            return f.restrict(box)
    raise ConvergenceError(
        f"Jacobi iteration did not reach residual {tol} in {JACOBI_MAX_ITER} steps")


def reproduction_residual(q: Filter, s: Field, eval_box: Box) -> float:
    """Max pointwise error ``|s - q(D)s|`` on an evaluation box."""
    out = convolve(q, s, eval_box)
    return float(np.abs(out.data - s.restrict(eval_box).data).max())
