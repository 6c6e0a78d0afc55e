"""Complex fields on boxes of the integer grid, filters, and the finite Fourier transform.

A ``Field`` is a dense complex-valued function on an axis-aligned box in Z^d,
stored row-major. A ``Filter`` of order ``T`` is a field of coefficients on
its support box (:meth:`Box.support`): the centered cube ``{|tau| <= T}``
(two-sided, for filtering) or, when it carries a lag ``kappa``, the one-sided
cube ``{kappa <= tau_j <= T}`` (for prediction). The lag alone tells the two
apart; ``kappa=None`` means two-sided. A filter acts on fields by convolution,

    (q(D) x)_t = sum_tau  q_tau * x_{t - tau}.

The transform used throughout is the unitary Fourier transform on the odd
symmetric window ``{|tau| <= T}``, evaluated on the grid of (2T+1)-th roots
of unity indexed by exponents ``n in {-T..T}``:

    (F_T x)(mu_n) = (2T+1)^{-d/2} * sum_{|tau|<=T} x_tau * mu_n^tau,
    mu_n = exp(2*pi*i*n/(2T+1)).

A spectrum is itself a ``Field``, on ``Box.cube(d, T)``: the value at
exponent ``n`` sits at the point ``n``.

The starred seminorm ``|q|*_{T,p}`` of a filter, the l_p norm of the
transform values of its zero-extended coefficients, is
:meth:`Filter.star_norm`.

Reading a field outside its box is an error (``DomainError``), never silent
zero padding. Filters, by contrast, are genuinely zero off their support;
``Filter.pad_to_cube`` makes that extension explicit when a filter has to be
viewed as a field on a larger window.

All objects are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ParamError

__all__ = [
    "Box",
    "Field",
    "Filter",
    "convolve",
    "filter_product",
    "filter_tensor",
    "rebox_filter",
    "write_zdf",
    "read_zdf",
]

ZDF_MAGIC = b"ZDF1"

_PNORMS = (1, 2, math.inf)


def _as_int_tuple(v: Iterable[int], d: int | None = None) -> tuple[int, ...]:
    t = tuple(int(x) for x in v)
    if d is not None and len(t) != d:
        raise ParamError(f"expected a length-{d} integer vector, got {t}")
    return t


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``{tau : lo_j <= tau_j <= hi_j}`` in Z^d."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_int_tuple(self.lo))
        object.__setattr__(self, "hi", _as_int_tuple(self.hi, len(self.lo)))
        if len(self.lo) == 0:
            raise ParamError("dimension must be positive")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ParamError(f"empty box: lo={self.lo}, hi={self.hi}")

    @classmethod
    def cube(cls, d: int, T: int, center: Sequence[int] | None = None) -> "Box":
        """Centered cube ``{|tau - center| <= T}`` (center defaults to 0)."""
        if T < 0:
            raise ParamError("cube order must be nonnegative")
        c = _as_int_tuple(center, d) if center is not None else (0,) * d
        return cls(tuple(ci - T for ci in c), tuple(ci + T for ci in c))

    @classmethod
    def support(cls, d: int, T: int, kappa: int | None = None) -> "Box":
        """Support of an order-T filter: the centered cube ``{|tau| <= T}``,
        or with a lag ``kappa`` the one-sided cube ``{kappa <= tau_j <= T}``,
        which needs ``0 <= kappa <= T``."""
        if kappa is None:
            return cls.cube(d, T)
        if not 0 <= kappa <= T:
            raise ParamError(f"need 0 <= kappa <= T, got kappa={kappa}, T={T}")
        return cls((kappa,) * d, (T,) * d)

    @property
    def d(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def contains_point(self, tau: Sequence[int]) -> bool:
        tau = _as_int_tuple(tau, self.d)
        return all(l <= t <= h for l, t, h in zip(self.lo, tau, self.hi))

    def contains_box(self, other: "Box") -> bool:
        if other.d != self.d:
            return False
        return all(sl <= ol and oh <= sh for sl, ol, oh, sh
                   in zip(self.lo, other.lo, other.hi, self.hi))

    def translate(self, v: Sequence[int]) -> "Box":
        v = _as_int_tuple(v, self.d)
        return Box(tuple(l + vi for l, vi in zip(self.lo, v)),
                   tuple(h + vi for h, vi in zip(self.hi, v)))

    def slices_in(self, parent: "Box") -> tuple[slice, ...]:
        """Index slices of this box inside ``parent``'s storage."""
        if not parent.contains_box(self):
            raise DomainError(f"box {self} not contained in {parent}")
        return tuple(slice(l - pl, h - pl + 1)
                     for l, h, pl in zip(self.lo, self.hi, parent.lo))

    def __repr__(self):
        return f"Box(lo={self.lo}, hi={self.hi})"


@dataclass(frozen=True, eq=False)
class Field:
    """Dense complex field on a box, stored row-major."""

    box: Box
    data: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(
            np.asarray(self.data, dtype=np.complex128).reshape(self.box.shape))
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def d(self) -> int:
        return self.box.d

    def value(self, tau: Sequence[int]) -> complex:
        tau = _as_int_tuple(tau, self.d)
        if not self.box.contains_point(tau):
            raise DomainError(f"point {tau} outside {self.box}")
        idx = tuple(t - l for t, l in zip(tau, self.box.lo))
        return complex(self.data[idx])

    def restrict(self, box: Box) -> "Field":
        """Sub-field on ``box`` (must be contained in this field's box)."""
        return Field(box, self.data[box.slices_in(self.box)])

    def __add__(self, other: "Field") -> "Field":
        if self.box != other.box:
            raise DomainError("field addition requires identical boxes")
        return Field(self.box, self.data + other.data)

    def __repr__(self):
        return f"Field(box={self.box})"


@dataclass(frozen=True, eq=False)
class Filter:
    """Filter coefficients of a declared order on the support box of its lag.

    Without a lag (``kappa=None``) a filter is two-sided and lives on the
    centered cube ``{|tau| <= order}``; with one it is one-sided, lives on
    ``{kappa <= tau_j <= order}`` and may only be applied causally.
    """

    field: Field
    order: int
    kappa: int | None = None

    def __post_init__(self):
        expected = Box.support(self.field.d, self.order, self.kappa)
        if self.field.box != expected:
            raise ParamError(
                f"filter of order {self.order} and lag {self.kappa} must live "
                f"on {expected}, got {self.field.box}")

    @classmethod
    def two_sided(cls, d: int, T: int, coeffs) -> "Filter":
        return cls(Field(Box.cube(d, T), coeffs), T)

    @classmethod
    def one_sided(cls, d: int, kappa: int, T: int, coeffs) -> "Filter":
        return cls(Field(Box.support(d, T, kappa), coeffs), T, kappa)

    @classmethod
    def impulse(cls, d: int) -> "Filter":
        return cls.two_sided(d, 0, np.ones((1,) * d))

    @property
    def d(self) -> int:
        return self.field.d

    def pad_to_cube(self, T: int) -> Field:
        """Zero-extend the coefficients to the centered cube of order T."""
        box = Box.cube(self.d, T)
        if not box.contains_box(self.field.box):
            raise DomainError(
                f"filter support {self.field.box} exceeds the cube of order {T}")
        out = np.zeros(box.shape, dtype=np.complex128)
        out[self.field.box.slices_in(box)] = self.field.data
        return Field(box, out)

    def l2(self) -> float:
        return float(np.linalg.norm(self.field.data.ravel(), 2))

    def star_norm(self, T: int, p) -> float:
        """Starred seminorm of the zero-extended coefficients on window T."""
        return _lp(dft_window(self.pad_to_cube(T).data, T), p)

    def modulate(self, omega: Sequence[float]) -> "Filter":
        """Coefficient-wise modulation q_tau -> exp(i omega.tau) q_tau."""
        omega = tuple(float(w) for w in omega)
        if len(omega) != self.d:
            raise ParamError(f"expected a length-{self.d} frequency vector")
        box = self.field.box
        phase = np.zeros(box.shape)
        for j in range(self.d):
            axis = np.arange(box.lo[j], box.hi[j] + 1) * omega[j]
            phase = phase + axis.reshape((-1,) + (1,) * (self.d - 1 - j))
        return Filter(Field(box, self.field.data * np.exp(1j * phase)),
                      self.order, self.kappa)

    def __repr__(self):
        lag = "" if self.kappa is None else f", kappa={self.kappa}"
        return f"Filter(order={self.order}{lag}, d={self.d})"


def _lp(arr: np.ndarray, p) -> float:
    if p not in _PNORMS:
        raise ParamError(f"p must be one of 1, 2, inf; got {p}")
    mags = np.abs(np.asarray(arr).ravel())
    if p == 1:
        return float(mags.sum())
    if p == 2:
        return float(np.sqrt((mags ** 2).sum()))
    return float(mags.max()) if mags.size else 0.0


def convolve(q: Filter, x: Field, eval_box: Box) -> Field:
    """Filter output ``(q(D) x)_t = sum_tau q_tau x_{t-tau}`` on ``eval_box``.

    Every read ``t - tau`` with ``t`` in ``eval_box`` and ``tau`` in the
    filter support must lie inside ``x.box``; otherwise ``DomainError`` is
    raised (observation windows are never silently zero padded).
    """
    if q.d != x.d or eval_box.d != x.d:
        raise DomainError("dimension mismatch between filter, field and eval box")
    qbox = q.field.box
    need = Box(tuple(el - qh for el, qh in zip(eval_box.lo, qbox.hi)),
               tuple(eh - ql for eh, ql in zip(eval_box.hi, qbox.lo)))
    if not x.box.contains_box(need):
        raise DomainError(
            f"convolution on {eval_box} with support {qbox} reads {need}, "
            f"but the field only covers {x.box}")
    # window i of the reads holds x at need.lo + i + j; the tap at tau reads
    # it at j = qbox.hi - tau, so the filter enters flipped on every axis
    windows = np.lib.stride_tricks.sliding_window_view(
        x.data[need.slices_in(x.box)], qbox.shape)
    flipped = q.field.data[(slice(None, None, -1),) * q.d]
    out = windows.reshape(eval_box.shape + (-1,)) @ flipped.reshape(-1)
    return Field(eval_box, out.astype(np.complex128, copy=False))


@functools.lru_cache(maxsize=128)
def _dft_matrix(T: int) -> np.ndarray:
    """Per-axis transform matrix M[k, m] = omega^{(k-T)(m-T)}, omega = e^{2 pi i/(2T+1)}."""
    n = np.arange(-T, T + 1)
    M = np.exp(2j * np.pi * np.outer(n, n) / (2 * T + 1))
    M.flags.writeable = False
    return M


def _apply_axes(arr: np.ndarray, M: np.ndarray, d: int) -> np.ndarray:
    """``M`` applied along each of the trailing ``d`` axes of ``arr``, whose
    leading axes index a stack of windows. Per axis, one ``np.matmul`` makes
    for each window the product ``tensordot`` makes for it alone."""
    lead = arr.ndim - d
    out = arr
    for axis in range(lead, arr.ndim):
        moved = np.moveaxis(out, axis, lead)
        shape = moved.shape
        out = np.matmul(M, moved.reshape(shape[:lead + 1] + (-1,))).reshape(shape)
        out = np.moveaxis(out, lead, axis)
    return out


def dft_windows(windows: np.ndarray, T: int, d: int) -> np.ndarray:
    """:func:`dft_window` of each window of a stack: the trailing ``d`` axes
    hold a window, the leading axes index the stack."""
    out = _apply_axes(np.asarray(windows, dtype=np.complex128), _dft_matrix(T), d)
    out *= (2 * T + 1) ** (-d / 2)
    return out


def idft_windows(values: np.ndarray, T: int, d: int) -> np.ndarray:
    """Inverse transform of each spectrum of a stack, laid out as in
    :func:`dft_windows`."""
    out = _apply_axes(np.asarray(values, dtype=np.complex128),
                      np.conj(_dft_matrix(T)), d)
    out *= (2 * T + 1) ** (-d / 2)
    return out


def dft_window(window: np.ndarray, T: int) -> np.ndarray:
    """Transform of a (2T+1)^d window array (direct per-axis summation)."""
    return dft_windows(window, T, window.ndim)


def _product_lag(a: Filter, b: Filter) -> int | None:
    if a.kappa is not None and b.kappa is not None:
        return a.kappa + b.kappa
    # a mixed product stays one-sided only when the two-sided factor is a
    # scalar at the origin; otherwise the support straddles zero
    one, other = (a, b) if b.kappa is None else (b, a)
    if one.kappa is not None and other.order == 0:
        return one.kappa
    return None


def filter_product(a: Filter, b: Filter) -> Filter:
    """Coefficient-wise Laurent multiplication; orders add.

    The larger factor, zero-extended by the reach of the smaller one, is
    filtered by the smaller one with :func:`convolve`. The product is
    one-sided when both factors are (lags add), or when one is and the other
    is a two-sided filter of order 0; otherwise it is two-sided. Satisfies
    ``|ab|_p <= |a|_1 |b|_p``.
    """
    if a.d != b.d:
        raise ParamError("filter product requires equal dimensions")
    small, big = (a, b) if a.field.box.size <= b.field.box.size else (b, a)
    sbox, gbox = small.field.box, big.field.box
    box = Box(tuple(sl + gl for sl, gl in zip(sbox.lo, gbox.lo)),
              tuple(sh + gh for sh, gh in zip(sbox.hi, gbox.hi)))
    reads = Box(tuple(l - sh for l, sh in zip(box.lo, sbox.hi)),
                tuple(h - sl for h, sl in zip(box.hi, sbox.lo)))
    padded = np.zeros(reads.shape, dtype=np.complex128)
    padded[gbox.slices_in(reads)] = big.field.data
    out = convolve(small, Field(reads, padded), box)
    order, kappa = a.order + b.order, _product_lag(a, b)
    target = Box.support(a.d, order, kappa)
    full = np.zeros(target.shape, dtype=np.complex128)
    full[box.slices_in(target)] = out.data
    return Filter(Field(target, full), order, kappa)


def filter_tensor(a: Filter, b: Filter) -> Filter:
    """Tensor product filter ``q_{(tau', tau'')} = a_{tau'} b_{tau''}``.

    The l2 norm multiplies exactly. The result lives on the enclosing cube of
    order ``max(ord a, ord b)`` (zero padded where one factor is shorter).
    """
    if (a.kappa is None) != (b.kappa is None):
        raise ParamError("tensor product of a one-sided and a two-sided filter "
                         "is not defined")
    order = max(a.order, b.order)
    kappa = None if a.kappa is None else min(a.kappa, b.kappa)
    target = Box.support(a.d + b.d, order, kappa)
    prod = np.multiply.outer(a.field.data, b.field.data)
    inner = Box(a.field.box.lo + b.field.box.lo, a.field.box.hi + b.field.box.hi)
    full = np.zeros(target.shape, dtype=np.complex128)
    full[inner.slices_in(target)] = prod
    return Filter(Field(target, full), order, kappa)


def rebox_filter(q: Filter, order: int, kappa: int | None = None) -> Filter:
    """Re-declare a filter's order and lag, checking no nonzero coefficient is lost.

    Used to tighten e.g. a lag-0 one-sided product whose actual support starts
    at a larger lag.
    """
    target = Box.support(q.d, order, kappa)
    tau = _nonzero_outside(q.field, target)
    if tau is not None:
        raise ParamError(f"nonzero coefficient at {tau} outside target box {target}")
    nz = np.nonzero(q.field.data)
    at = tuple(i + sl - tl for i, sl, tl in zip(nz, q.field.box.lo, target.lo))
    out = np.zeros(target.shape, dtype=np.complex128)
    out[at] = q.field.data[nz]
    return Filter(Field(target, out), order, kappa)


def _nonzero_outside(x: Field, box: Box) -> tuple[int, ...] | None:
    """First nonzero point of ``x`` outside ``box``, in row-major order, or None."""
    points = np.argwhere(x.data != 0) + np.array(x.box.lo)
    if len(points) == 0:
        return None
    _as_int_tuple(points[0], box.d)  # dimension mismatch: ParamError, as Box.contains_point
    outside = ~np.all((points >= box.lo) & (points <= box.hi), axis=1)
    if not outside.any():
        return None
    return tuple(int(v) for v in points[outside.argmax()])


def write_zdf(x: Field, path) -> None:
    """Write a field in the ZDF1 binary format.

    Layout (little endian): magic ``ZDF1``, u32 d, then d pairs (i64 lo_j,
    i64 hi_j), then the row-major values as (f64 re, f64 im) pairs.
    """
    box = x.box
    with open(path, "wb") as fh:
        fh.write(ZDF_MAGIC)
        fh.write(struct.pack("<I", box.d))
        for lo, hi in zip(box.lo, box.hi):
            fh.write(struct.pack("<qq", lo, hi))
        fh.write(np.ascontiguousarray(x.data, dtype="<c16").tobytes())


def read_zdf(path) -> Field:
    """Read a field written by :func:`write_zdf`; ``ValueError`` if malformed."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != ZDF_MAGIC:
        raise ValueError(f"not a ZDF1 file: magic {raw[:4]!r}")
    d = struct.unpack_from("<I", raw, 4)[0] if len(raw) >= 8 else None
    if d is None or len(raw) < 8 + 16 * d:
        raise ValueError("truncated ZDF1 header")
    lohi = struct.unpack_from(f"<{2 * d}q", raw, 8)
    box = Box(lohi[0::2], lohi[1::2])
    if len(raw) < 8 + 16 * d + 16 * box.size:
        raise ValueError("truncated ZDF1 payload")
    data = np.frombuffer(raw, dtype="<c16", count=box.size, offset=8 + 16 * d)
    return Field(box, data.reshape(box.shape))
