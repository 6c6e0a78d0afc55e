"""Independent brute-force oracles used to cross-check the solver.

Everything here is built from the field layer's definitions only: the
objective matrix comes from shifting/windowing observation fields and
transforming them with `dft_window`, the (weighted) l1-ball projection uses
bisection on the soft threshold (not the solver's sort construction), and the
minimization is plain projected subgradient descent from many random starts.
``points`` lists a box's grid points, ``translate`` relabels a field,
``coeff`` reads a filter coefficient by its grid point, zero off the support,
``nonzero_outside_loop`` is the point-by-point form of the support check,
``theta_stat_loop`` computes the noise statistic one shifted window at a time,
``theta_moment_loop`` runs the theta-moment check one trial at a time,
``convolve_loop`` applies a filter one coefficient at a time,
``gaussian_max_one_shot`` draws all trials of the Gaussian-maximum check at once,
``project_l1_sort`` is the sort-based l1 projection of a single vector,
``project_l1_weighted_sort`` the sort-based weighted projection of a stack,
``dft_window_tensordot`` transforms one window with one ``tensordot`` per axis,
``dense_dft`` is the transform of a whole window as one Kronecker matrix,
``spectral_norm`` is the largest singular value of each matrix of a stack, by
SVD,
``laurent_product_loop`` multiplies two filters one pair of taps at a time,
and ``harmonic_filter_exact`` builds a harmonic filter in exact rational
arithmetic.
"""

import math
from fractions import Fraction

import numpy as np

from gridfilt.fields import Box, dft_window, Field, Filter, _dft_matrix
from gridfilt.harness import (
    THETA_MOMENT_D,
    GaussianMaxReport,
    NoiseSpec,
    ThetaMomentReport,
    derive_seed,
    sample_noise,
)
from gridfilt.solver import Instance


def points(box: Box) -> list:
    """The grid points of ``box`` in row-major order."""
    return [tuple(l + i for l, i in zip(box.lo, idx)) for idx in np.ndindex(*box.shape)]


def translate(x: Field, v) -> Field:
    """``x`` translated by ``v``: the value at ``tau`` is ``x`` at ``tau - v``."""
    return Field(x.box.translate(v), x.data)


def coeff(q: Filter, tau) -> complex:
    """Coefficient of ``q`` at ``tau`` (zero off the support box)."""
    if not q.field.box.contains_point(tau):
        return 0.0 + 0.0j
    return q.field.value(tau)


def nonzero_outside_loop(x: Field, box: Box):
    """Point-by-point reference: first nonzero point of ``x`` outside ``box``."""
    for tau in points(x.box):
        if x.value(tau) != 0 and not box.contains_point(tau):
            return tau
    return None


def theta_stat_loop(e: Field, t, T: int) -> float:
    """Reference ``theta_stat``: one window transform per shift ``|tau| <= 2T``."""
    W = 2 * T
    best = 0.0
    for tau in points(Box.cube(e.d, W)):
        center = tuple(tj + vj for tj, vj in zip(t, tau))
        window = e.restrict(Box.cube(e.d, W, center)).data
        best = max(best, float(np.abs(dft_window(window, W)).max()))
    return best


def theta_moment_loop(T: int, sigma: float, trials: int,
                      seed: int = 0) -> ThetaMomentReport:
    """Reference ``check_theta_moment``: one noise field and one
    :func:`theta_stat_loop` per trial."""
    d = THETA_MOMENT_D
    box = Box.cube(d, 4 * T)
    vals = np.array([
        theta_stat_loop(sample_noise(box, NoiseSpec(sigma, derive_seed(seed, i))),
                        (0,) * d, T) ** 2
        for i in range(trials)])
    return ThetaMomentReport(
        d=d, T=T, sigma=sigma, trials=trials, mean_sq=float(vals.mean()),
        se=float(vals.std(ddof=1)) / math.sqrt(trials),
        bound=sigma ** 2 * (4 * d * math.log(4 * T + 1) + 2))


def convolve_loop(q: Filter, x: Field, eval_box: Box) -> Field:
    """Reference ``convolve``: one shifted slice of ``x`` per nonzero tap,
    accumulated in the filter's row-major order (reads must be covered)."""
    qbox = q.field.box
    out = np.zeros(eval_box.shape, dtype=np.complex128)
    for idx in np.ndindex(*qbox.shape):
        c = q.field.data[idx]
        if c == 0:
            continue
        tau = tuple(l + i for l, i in zip(qbox.lo, idx))
        src = Box(tuple(el - tj for el, tj in zip(eval_box.lo, tau)),
                  tuple(eh - tj for eh, tj in zip(eval_box.hi, tau)))
        out += c * x.data[src.slices_in(x.box)]
    return Field(eval_box, out)


def gaussian_max_one_shot(N: int, trials: int, seed: int = 0,
                          tail_u=(1.0, 2.0, 3.0)) -> GaussianMaxReport:
    """Reference ``check_gaussian_max``: every trial drawn in one array."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    draws = rng.standard_normal((trials, 2, N))
    max_mag = np.abs(draws[:, 0, :] + 1j * draws[:, 1, :]).max(axis=1)
    max_sq = max_mag ** 2
    shift = math.sqrt(2 * math.log(N))
    freqs, ses = [], []
    for u in tail_u:
        p = float((max_mag > u + shift).astype(float).mean())
        freqs.append(p)
        ses.append(math.sqrt(max(p * (1 - p), 1e-12) / trials))
    return GaussianMaxReport(
        N=N, trials=trials, mean_max_sq=float(max_sq.mean()),
        se_max_sq=float(max_sq.std(ddof=1)) / math.sqrt(trials),
        bound_mean=2 * math.log(N) + 2, tail_u=tuple(tail_u),
        tail_freq=tuple(freqs),
        tail_bound=tuple(math.exp(-u * u / 2) for u in tail_u),
        tail_se=tuple(ses))


def dft_window_tensordot(window: np.ndarray, T: int, M: np.ndarray) -> np.ndarray:
    """Reference window transform: ``M`` applied along each axis of one window
    by ``tensordot``, then the unitary scale (``M`` the per-axis matrix of the
    transform or of its inverse)."""
    out = np.asarray(window, dtype=complex)
    for axis in range(out.ndim):
        out = np.moveaxis(np.tensordot(M, out, axes=([1], [axis])), 0, axis)
    return out * (2 * T + 1) ** (-out.ndim / 2)


def dense_dft(T: int, d: int) -> np.ndarray:
    """The unitary window transform as one ``(2T+1)^d`` square matrix acting on
    row-major flattened windows: the Kronecker power of the per-axis matrix."""
    F1 = _dft_matrix(T) / math.sqrt(2 * T + 1)
    F = F1
    for _ in range(d - 1):
        F = np.kron(F, F1)
    return F


def spectral_norm(M: np.ndarray) -> np.ndarray:
    """The largest singular value of each matrix of the stack ``M``, from a
    full SVD: the exact norm the solver's Lanczos estimate is checked
    against."""
    return np.linalg.svd(M, compute_uv=False)[..., 0]


def laurent_product_loop(a: Filter, b: Filter) -> Field:
    """Reference ``filter_product``: the Laurent product ``sum a_s b_t z^(s+t)``,
    accumulated one pair of taps at a time on the sum of the support boxes."""
    abox, bbox = a.field.box, b.field.box
    box = Box(tuple(x + y for x, y in zip(abox.lo, bbox.lo)),
              tuple(x + y for x, y in zip(abox.hi, bbox.hi)))
    out = np.zeros(box.shape, dtype=np.complex128)
    for s in points(abox):
        for t in points(bbox):
            idx = tuple(si + ti - l for si, ti, l in zip(s, t, box.lo))
            out[idx] += a.field.value(s) * b.field.value(t)
    return Field(box, out)


def project_l1_sort(z: np.ndarray, radius: float) -> np.ndarray:
    """Sort-based l1-ball projection of one complex vector, one step at a time.

    The reference for the solver's row-wise projection, which must give each
    row bit for bit what this gives it alone.
    """
    a = np.abs(z)
    if a.sum() <= radius:
        return z.copy()
    if radius == 0:
        return np.zeros_like(z)
    srt = np.sort(a)[::-1]
    thresh = (np.cumsum(srt) - radius) / np.arange(1, len(srt) + 1)
    lam = thresh[np.nonzero(srt > thresh)[0][-1]]
    shrunk = np.maximum(a - lam, 0.0)
    out = np.zeros_like(z)
    nz = a > 0
    out[nz] = z[nz] * (shrunk[nz] / a[nz])
    return out


def project_l1_weighted_sort(z: np.ndarray, radius: float,
                             weights: np.ndarray) -> np.ndarray:
    """Sort-based projection of each row of ``z`` onto the weighted l1 ball
    ``sum w |x| <= radius``: the exact threshold is read off the cumulative
    sums of ``w |z|`` and ``w^2`` over the entries by decreasing ``|z| / w``.

    The reference for the solver's active-set projection, which sums the
    same entries in index order, so the two agree to roundoff.
    """
    rows = np.atleast_2d(z)
    B, n = rows.shape
    a = np.abs(rows)
    w = np.atleast_2d(weights)
    wa = a * w
    order = np.argsort(a / w, axis=1)[:, ::-1]
    srt, swa, sww = (np.take_along_axis(x, order, axis=1) for x in (a / w, wa, w * w))
    thresh = (np.cumsum(swa, axis=1) - radius) / np.cumsum(sww, axis=1)
    # the last sorted entry above its threshold
    last = (n - 1) - np.argmax((srt > thresh)[:, ::-1], axis=1)
    lam = thresh[np.arange(B), last]
    shrunk = np.maximum(a - lam[:, None] * w, 0.0)
    out = np.zeros_like(rows)
    nz = a > 0
    out[nz] = rows[nz] * (shrunk[nz] / a[nz])
    inside = wa.sum(axis=1) <= radius
    out[inside] = rows[inside]
    if radius == 0:
        out[~inside] = 0.0
    return out.reshape(z.shape)


def project_l1_bisect(z: np.ndarray, radius: float, iters: int = 80,
                      weights: np.ndarray | None = None) -> np.ndarray:
    """Complex projection onto the weighted l1 ball ``sum w |x| <= radius``
    (unit weights if None) via bisection on the shrink threshold ``lam``:
    moduli become ``max(|z| - lam w, 0)``.

    Works row-wise on 2-d input (one vector per row).
    """
    z = np.atleast_2d(z)
    a = np.abs(z)
    w = np.ones(a.shape) if weights is None else np.atleast_2d(weights)
    lo = np.zeros(len(z))
    hi = (a / w).max(axis=1)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        over = (w * np.maximum(a - mid[:, None] * w, 0.0)).sum(axis=1) > radius
        lo = np.where(over, mid, lo)
        hi = np.where(over, hi, mid)
    lam = 0.5 * (lo + hi)
    lam = np.where((w * a).sum(axis=1) <= radius, 0.0, lam)
    shrunk = np.maximum(a - lam[:, None] * w, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(a > 0, z * (shrunk / np.where(a > 0, a, 1.0)), 0.0)
    return out if out.shape[0] > 1 else out[0]


def design_matrix(inst: Instance) -> tuple[np.ndarray, np.ndarray, list]:
    """(G, b, support points): residual spectrum of phi is b - G x.

    Column ``j`` is the window transform of the observations shifted by the
    j-th admissible support offset; ``x`` are the spatial filter coefficients
    on the support, in the iteration order of ``support points``.
    """
    W, d, t = inst.W, inst.d, inst.t
    offsets = inst.residual_box
    n = (2 * W + 1) ** d

    def window_spectrum(values_box: Box, values: np.ndarray) -> np.ndarray:
        window = np.zeros((2 * W + 1,) * d, dtype=complex)
        sl = tuple(slice(lo + W, hi + W + 1)
                   for lo, hi in zip(offsets.lo, offsets.hi))
        window[sl] = values
        return dft_window(window, W).ravel()

    eval_box = offsets.translate(t)
    b = window_spectrum(eval_box, inst.y_win.restrict(eval_box).data)
    support = points(inst.support_box)
    cols = []
    for nu in support:
        shifted_box = Box(tuple(l - v for l, v in zip(eval_box.lo, nu)),
                          tuple(h - v for h, v in zip(eval_box.hi, nu)))
        cols.append(window_spectrum(shifted_box,
                                    inst.y_win.restrict(shifted_box).data))
    return np.array(cols).T, b, support


def subgradient_minimize(inst: Instance, starts: int = 50, iters: int = 8000,
                         seed: int = 0, halve_every: int = 400) -> float:
    """Long-run projected subgradient descent from many random starts.

    Filter coefficients are parametrized spatially on the admissible support
    and projected onto the spectral l1 ball through the window transform:
    exactly on the full window (filtering); on a one-sided support
    (prediction) approximately, then scaled into the ball, so every iterate
    is feasible and the result is an upper bound on the optimum.
    Steps follow the Polyak rule against a slack level below the running best
    (the slack halves on a fixed schedule), which is what makes the plain
    subgradient iteration reach ~1e-5 accuracy in a few thousand steps. All
    starts are advanced together as one batch. Returns the best objective
    value seen.
    """
    G, b, support = design_matrix(inst)
    c = inst.l1_bound
    nsup = len(support)
    W, d = inst.W, inst.d
    n_side = 2 * W + 1

    # unitary map between support coefficients (embedded in the window) and
    # spectrum coordinates, built column by column from dft_window
    emb = np.zeros((n_side ** d, nsup), dtype=complex)
    for j, nu in enumerate(support):
        window = np.zeros((n_side,) * d, dtype=complex)
        window[tuple(v + W for v in nu)] = 1.0
        emb[:, j] = dft_window(window, W).ravel()

    def project(X: np.ndarray) -> np.ndarray:
        P = project_l1_bisect(X @ emb.T, c) @ np.conj(emb)
        if nsup == n_side ** d:
            return P   # emb is unitary: the projection is exact
        # on a proper support the map back can leave the ball; scaling into
        # it keeps every iterate feasible, so the result stays an upper bound
        l1 = np.abs(P @ emb.T).sum(axis=1)
        return P * np.minimum(1.0, c / np.maximum(l1, 1e-300))[:, None]

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((starts, nsup)) + 1j * rng.standard_normal((starts, nsup))
    X = project(X)
    rows = np.arange(starts)
    f_best = np.full(starts, math.inf)
    delta = None
    for k in range(iters):
        R = b[None, :] - X @ G.T
        mags = np.abs(R)
        f = mags.max(axis=1)
        f_best = np.minimum(f_best, f)
        if delta is None:
            delta = np.maximum(0.5 * f_best, 1e-12)
        if k % halve_every == halve_every - 1:
            delta = delta / 2
        idx = mags.argmax(axis=1)
        top = R[rows, idx]
        safe = np.where(f > 0, f, 1.0)
        Gsel = np.conj(G[idx, :])
        grad = -Gsel * (top / safe)[:, None]
        gnorm2 = np.maximum((np.abs(grad) ** 2).sum(axis=1), 1e-30)
        level = np.maximum(f - (f_best - delta), 0.0)
        step = level / gnorm2
        X = project(X - step[:, None] * grad)
    R = b[None, :] - X @ G.T
    f_best = np.minimum(f_best, np.abs(R).max(axis=1))
    return float(f_best.min())


def harmonic_filter_exact(D, n: int, c24: int = 1) -> np.ndarray:
    """Coefficients of ``harmonic_filter(D, n, c24)`` on its cube, computed in
    exact rational arithmetic and then rounded once to float.

    ``R_n = (P_n Q^{c24 n})^d`` is expanded in the monomial basis with
    ``T_n`` from its integer recurrence, and ``R_n(D)`` is evaluated by Horner
    over Python integers. ``D`` is a stencil filter; its taps are its
    nonzero coefficients, which must be real.
    """
    t_prev, t = [1], [0, 1]
    for _ in range(n - 1):
        nxt = [0] + [2 * a for a in t]
        for i, a in enumerate(t_prev):
            nxt[i] -= a
        t_prev, t = t, nxt
    one_minus = [-a for a in t]
    one_minus[0] += 1
    # 1 - T_n = (1 - z) sum_j (sum_{i <= j} (1 - T_n)_i) z^j
    quot = [sum(one_minus[:j + 1]) for j in range(len(one_minus) - 1)]
    m = c24 * n
    q_pow = [Fraction(math.comb(m, i), 2 ** m) for i in range(m + 1)]

    def mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    s_n = mul([Fraction(x, n * n) for x in quot], q_pow)
    r = [Fraction(1)]
    for _ in range(D.d):
        r = mul(r, s_n)
    # integers: R(D) = sum_k r_k (S / L)^k with S = L D, r_k = p_k / Q
    Q = math.lcm(*(x.denominator for x in r))
    p = [int(x * Q) for x in r]
    nonzero = np.argwhere(D.field.data != 0)
    coeffs = [complex(D.field.data[tuple(i)]) for i in nonzero]
    assert all(w.imag == 0 for w in coeffs)
    weights = [Fraction(w.real) for w in coeffs]
    L = math.lcm(*(w.denominator for w in weights))
    offsets = [tuple(int(a) for a in i + np.array(D.field.box.lo)) for i in nonzero]
    taps = [(off, int(w * L)) for off, w in zip(offsets, weights)]
    reach = max(max(abs(a) for a in off) for off in offsets)
    K = len(p) - 1
    acc = np.full((1,) * D.d, p[K], dtype=object)
    for k in range(K - 1, -1, -1):
        order = (acc.shape[0] - 1) // 2 + reach
        nxt = np.zeros((2 * order + 1,) * D.d, dtype=object)
        for off, s in taps:
            sl = tuple(slice(reach + o, reach + o + acc.shape[0]) for o in off)
            nxt[sl] += s * acc
        nxt[(order,) * D.d] += p[k] * L ** (K - k)
        acc = nxt
    den = Q * L ** K
    return np.array([int(h) / den for h in acc.ravel()]).reshape(acc.shape)
