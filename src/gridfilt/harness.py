"""Reproducible Monte Carlo experiments verifying the oracle inequalities.

Noise is complex Gaussian: real and imaginary parts of each sample are
independent N(0, sigma^2). Streams are generated with numpy's counter-based
Philox engine keyed by the trial seed and consumed in one
``standard_normal((2,) + box.shape)`` draw (slot 0 real parts, slot 1
imaginary parts, row-major), so a seed pins the field bit-for-bit. Per-trial
seeds derive from the master seed through the splitmix64 mix documented in
:func:`derive_seed`; every trial is therefore independently replayable.

A trial compares the adaptive estimate against the certificate ("oracle")
filter applied to the same noisy data, records both estimates, the solver gap
and the realized noise statistic; aggregation reports RMSEs with
normal-approximation confidence half-widths and the theoretical risk bound.
An experiment names its certificate and its order ``T`` alone: the estimator
runs at the certificate's ``rho`` and lag, the setup
``DenoiseSetup(cert.rho, T, cert.kappa)``, so the oracle filter always lies
in the estimator's admissible set.

The trials of one experiment share a window geometry, so their filter fits
are solved as one batch (:func:`gridfilt.solver.solve_batch`). Batching does
not change a bit of any trial: :func:`run_trial` replays one trial on its own
and records exactly what :func:`monte_carlo` recorded for it. Every fit runs
under the solver's budget ``MAX_ITER``.

Working memory does not grow with the trial counts; only the per-trial data
(noise fields, observations, results) does. The solver builds and iterates a
large batch in sub-batches whose operators fit in
``solver.SOLVE_BATCH_BYTES``, and builds each sub-batch's operator in place,
in slabs of a 32nd of that budget, so the build holds little more than the
operator it makes. The statistical checks
(:func:`check_gaussian_max`, :func:`check_theta_moment`) draw and reduce
their trials in chunks of about ``CHECK_CHUNK_BYTES``. ``gridfilt bench``
draws the Gaussian maxima on a worker thread while its experiments run, so
the draws' buffers, and the 8 bytes a trial of each N's maxima, are held
next to the experiments' arrays rather than after them. None of these
changes a bit: Philox fills its stream in order, and every stacked transform
and batched solve gives each row what it gives that row alone.

The module only computes and writes no files; :mod:`gridfilt.cli` owns every
output layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ParamError
from .estimators import (
    DenoiseSetup,
    _oracle_bound,
    _shift_maxima,
    denoise_batch,
    risk_bound,
    theta_stat,
)
from .fields import Box, Field, convolve
from .signals import Certificate

__all__ = [
    "NoiseSpec",
    "TrialRecord",
    "ExperimentStats",
    "GaussianMaxReport",
    "ThetaMomentReport",
    "derive_seed",
    "sample_noise",
    "run_trial",
    "monte_carlo",
    "check_gaussian_max",
    "check_theta_moment",
    "pathwise_violations",
]

_MASK = (1 << 64) - 1
Z_95 = 1.96  # normal-approximation 95% quantile used in all half-widths


def _seed_arg(seed: int) -> None:
    if not 0 <= seed < 2 ** 128:  # the keys Philox takes
        raise ParamError(f"seed must be in [0, 2**128), got {seed}")


def _sigma_arg(sigma: float) -> None:
    if not 0 <= sigma < math.inf:
        raise ParamError(f"sigma must be nonnegative and finite, got {sigma}")


def _trials_arg(trials: int) -> None:
    if trials < 1:
        raise ParamError("need at least one trial")


@dataclass(frozen=True)
class NoiseSpec:
    """Noise level, finite and nonnegative, and generator seed, a Philox key
    in ``[0, 2**128)``; equal seeds give identical fields."""

    sigma: float
    seed: int

    def __post_init__(self):
        _sigma_arg(self.sigma)
        _seed_arg(self.seed)


def derive_seed(master: int, index: int) -> int:
    """Per-trial seed: splitmix64 of ``master + index * golden`` (documented).

    z = master + index * 0x9E3779B97F4A7C15 (mod 2^64), then
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
    z ^= z >> 27; z *= 0x94D049BB133111EB;
    z ^= z >> 31.
    """
    z = (master + index * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def sample_noise(box: Box, spec: NoiseSpec) -> Field:
    """Complex Gaussian field on ``box``; Re and Im parts i.i.d. N(0, sigma^2).
    ``OverflowError``, and no warning, where sigma times a draw overflows."""
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    draws = rng.standard_normal((2,) + box.shape)
    try:
        with np.errstate(over="raise"):
            return Field(box, spec.sigma * (draws[0] + 1j * draws[1]))
    except FloatingPointError as exc:
        raise OverflowError(f"noise of sigma {spec.sigma} overflows on {box}") from exc


@dataclass(frozen=True)
class TrialRecord:
    """One trial: adaptive and oracle estimates and their squared errors."""

    anchor: tuple[int, ...]
    seed: int
    truth: complex
    estimate: complex
    oracle_estimate: complex
    solver_gap: float
    theta_stat: float

    @property
    def sq_err_adaptive(self) -> float:
        return abs(self.estimate - self.truth) ** 2

    @property
    def sq_err_oracle(self) -> float:
        return abs(self.oracle_estimate - self.truth) ** 2


def run_trial(s: Field, cert: Certificate, t: Sequence[int], T: int,
              noise: NoiseSpec, tol: float = 1e-5) -> TrialRecord:
    """Run one seeded trial on signal ``s``: estimate, oracle, errors.

    The estimator fits an order-``T`` filter at the certificate's ``rho``
    and lag, and the oracle estimate applies the certificate's order-T
    filter to the same noisy observations. This is the batch of one of
    :func:`monte_carlo`, so it replays any of its trials bit for bit. A fit
    that misses its budget is recorded with its certified gap, so
    ``solver_gap > tol``.
    """
    return _run_trials(s, cert, t, T, [noise], tol)[0]


def _run_trials(s: Field, cert: Certificate, t: Sequence[int], T: int,
                noises: Sequence[NoiseSpec], tol: float) -> list[TrialRecord]:
    """Trials on ``s``, one per noise spec, with their fits solved as one
    batch; a bad ``T`` is refused before any noise is drawn."""
    t = tuple(int(x) for x in t)
    setup = DenoiseSetup(rho=cert.rho, T=T, kappa=cert.kappa)
    q = cert.filter(T)
    noise_fields = [sample_noise(s.box, noise) for noise in noises]
    ys = [s + e for e in noise_fields]
    estimates = denoise_batch(ys, t, setup, tol=tol)
    truth = s.value(t)
    return [TrialRecord(anchor=t, seed=noise.seed, truth=truth, estimate=est.value,
                        oracle_estimate=convolve(q, y, Box(t, t)).value(t),
                        solver_gap=0.0 if est.solve is None else est.solve.gap,
                        theta_stat=theta_stat(e, t, T))
            for noise, e, y, est in zip(noises, noise_fields, ys, estimates)]


@dataclass(frozen=True)
class ExperimentStats:
    """Aggregate of one experiment configuration; its fields, in order, are
    the columns of the stats CSV (``cli.STATS_COLUMNS``)."""

    label: str
    d: int
    T: int
    rho: float
    theta: float
    sigma: float
    trials: int
    master_seed: int
    rmse_adaptive: float
    hw_adaptive: float
    rmse_oracle: float
    hw_oracle: float
    bound: float
    ratio: float
    max_solver_gap: float
    pathwise_violations: int


def _rmse_with_halfwidth(sq_errors: np.ndarray) -> tuple[float, float]:
    n = len(sq_errors)
    mse = float(sq_errors.mean())
    rmse = math.sqrt(mse)
    if n < 2 or rmse == 0:
        return rmse, 0.0
    hw_mse = Z_95 * float(sq_errors.std(ddof=1)) / math.sqrt(n)
    return rmse, hw_mse / (2 * rmse)  # delta method sqrt'(mse) = 1/(2 rmse)


def pathwise_violations(records: Sequence[TrialRecord], d: int, T: int,
                        rho: float, theta: float) -> int:
    """Count trials violating the per-realization error bound.

    The bound is ``c(d) rho^3 [theta + rho * Theta] (2T+1)^{-d/2}`` with
    ``Theta`` the trial's realized noise statistic.
    """
    return sum(abs(r.estimate - r.truth)
               > _oracle_bound(d, T, rho, theta, rho * r.theta_stat)
               for r in records)


def monte_carlo(s: Field, cert: Certificate, t: Sequence[int], T: int,
                sigma: float, trials: int, master_seed: int, label: str = "",
                tol: float = 1e-5) -> tuple[ExperimentStats, list[TrialRecord]]:
    """Independent-seed trials of one configuration, aggregated.

    Each trial fits an order-``T`` filter at the certificate's ``rho`` and
    lag (see :func:`run_trial`). Seeds are ``derive_seed(master_seed, i)``,
    and all trials' fits are solved as one batch. A set-up failure
    (``DomainError``, ``ParamError``) is raised again as its own type,
    naming trial 0 and its seed. A fit that misses the iteration budget is
    recorded with its certified gap, so ``solver_gap > tol`` flags it and
    ``max_solver_gap`` covers it. The reported bound evaluates
    :func:`risk_bound` at the certificate's ``(theta, rho)``.
    """
    _trials_arg(trials)
    name = label or "experiment"
    seeds = [derive_seed(master_seed, i) for i in range(trials)]
    try:
        records = _run_trials(s, cert, t, T,
                              [NoiseSpec(sigma, seed) for seed in seeds], tol)
    except (DomainError, ParamError) as exc:
        # every trial reads the same box of the same signal, so what stops
        # one trial stops the first
        raise type(exc)(f"trial 0 (seed {seeds[0]}) of {name} failed: {exc}") from exc
    sq_a = np.array([r.sq_err_adaptive for r in records])
    sq_o = np.array([r.sq_err_oracle for r in records])
    rmse_a, hw_a = _rmse_with_halfwidth(sq_a)
    rmse_o, hw_o = _rmse_with_halfwidth(sq_o)
    bound = risk_bound(s.d, T, cert.rho, cert.theta, sigma)
    stats = ExperimentStats(
        label=label,
        d=s.d,
        T=T,
        rho=cert.rho,
        theta=cert.theta,
        sigma=sigma,
        trials=trials,
        master_seed=master_seed,
        rmse_adaptive=rmse_a,
        hw_adaptive=hw_a,
        rmse_oracle=rmse_o,
        hw_oracle=hw_o,
        bound=bound,
        ratio=rmse_a / bound if bound > 0 else math.inf,
        max_solver_gap=max((r.solver_gap for r in records), default=0.0),
        pathwise_violations=pathwise_violations(records, s.d, T,
                                                cert.rho, cert.theta),
    )
    return stats, records


@dataclass(frozen=True)
class GaussianMaxReport:
    """Empirical maxima of N standard complex Gaussians vs. the theory."""

    N: int
    trials: int
    mean_max_sq: float
    se_max_sq: float
    bound_mean: float          # 2 ln N + 2
    tail_u: tuple[float, ...]
    tail_freq: tuple[float, ...]
    tail_bound: tuple[float, ...]  # exp(-u^2/2)
    tail_se: tuple[float, ...]

    @property
    def mean_ok(self) -> bool:
        return self.mean_max_sq <= self.bound_mean + 3 * self.se_max_sq

    @property
    def tails_ok(self) -> bool:
        return all(f <= b + 3 * se for f, b, se in
                   zip(self.tail_freq, self.tail_bound, self.tail_se))


# the byte budget of a statistical check's working arrays: it draws and
# reduces its trials in chunks that fit
CHECK_CHUNK_BYTES = 1 << 20
# the offsets u of the Gaussian-maximum check's tail probabilities
GAUSSIAN_MAX_TAIL_U = (1.0, 2.0, 3.0)


def _gaussian_max_args(N: int, trials: int) -> None:
    if N < 1 or trials < 2:
        raise ParamError(f"the Gaussian-maximum check needs N >= 1 and trials >= 2, "
                         f"got N={N}, trials={trials}")


def _gaussian_max_chunk(N: int) -> int:
    """Trials per chunk of the Gaussian-maximum check: 40 bytes per variable
    and trial, for its two float draws, its complex value and its modulus."""
    return max(1, CHECK_CHUNK_BYTES // (40 * N))


def check_gaussian_max(N: int, trials: int, seed: int = 0) -> GaussianMaxReport:
    """Empirical check of the Gaussian maximum bounds.

    For N standard complex Gaussians: ``E max |f_j|^2 <= 2 ln N + 2`` and
    ``P{max |f_j| > u + sqrt(2 ln N)} <= exp(-u^2/2)`` for each ``u`` of
    ``GAUSSIAN_MAX_TAIL_U``. The standard errors need at least two trials;
    the seed is a Philox key, in ``[0, 2**128)``.

    Each of the four comparisons (the mean and three tails) is one-sided at
    3 standard errors. Where a bound is attained, as all four are at N = 1,
    each fails by chance with probability about 0.135%, so a correct program
    fails this check on at most about 0.54% of seeds (2 of the master seeds
    0..599 at N = 1).

    The check is its two halves: :func:`_gaussian_maxima` draws the trials'
    maxima, in chunks through preallocated buffers of about
    ``CHECK_CHUNK_BYTES``, and :func:`_gaussian_max_report` reduces them.
    ``gridfilt bench`` calls the halves itself, the draws on a worker thread.

    Checks with one seed and different ``N`` are not independent draws: the
    ``2 N trials`` normals of a check are the start of the one Philox stream
    of its key, so with the bench's ``seed=master_seed`` for every ``N`` the
    10,000 trials at N = 1 read exactly the first 20,000 normals that the
    check at N = 256 reads, and those at N = 16 a longer prefix of them.
    """
    _gaussian_max_args(N, trials)
    _seed_arg(seed)
    return _gaussian_max_report(N, _gaussian_maxima(N, trials, seed))


def _gaussian_maxima(N: int, trials: int, seed: int) -> np.ndarray:
    """The largest modulus of N standard complex Gaussians, per trial.

    numpy fills and reduces these arrays without holding the GIL, and the
    function calls nothing that the benchmark's tracer wraps, so it may run
    on a thread of its own.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    # Philox fills the stream in order, so drawing the trials chunk by chunk
    # gives every trial the values of one (trials, 2, N) draw
    rows = min(trials, _gaussian_max_chunk(N))
    draws = np.empty((rows, 2, N))
    z = np.empty((rows, N), dtype=np.complex128)
    mag = np.empty((rows, N))
    max_mag = np.empty(trials)
    for lo in range(0, trials, rows):
        k = min(rows, trials - lo)
        rng.standard_normal(out=draws[:k])
        z[:k].real = draws[:k, 0]
        z[:k].imag = draws[:k, 1]
        np.abs(z[:k], out=mag[:k])
        mag[:k].max(axis=1, out=max_mag[lo:lo + k])
    return max_mag


def _gaussian_max_report(N: int, max_mag: np.ndarray) -> GaussianMaxReport:
    """The check's report on the per-trial maxima ``max_mag`` of N
    Gaussians."""
    trials = len(max_mag)
    max_sq = max_mag ** 2
    shift = math.sqrt(2 * math.log(N))
    freqs, ses = [], []
    for u in GAUSSIAN_MAX_TAIL_U:
        hits = (max_mag > u + shift).astype(float)
        p = float(hits.mean())
        freqs.append(p)
        ses.append(math.sqrt(max(p * (1 - p), 1e-12) / trials))
    return GaussianMaxReport(
        N=N,
        trials=trials,
        mean_max_sq=float(max_sq.mean()),
        se_max_sq=float(max_sq.std(ddof=1)) / math.sqrt(trials),
        bound_mean=2 * math.log(N) + 2,
        tail_u=GAUSSIAN_MAX_TAIL_U,
        tail_freq=tuple(freqs),
        tail_bound=tuple(math.exp(-u * u / 2) for u in GAUSSIAN_MAX_TAIL_U),
        tail_se=tuple(ses),
    )


@dataclass(frozen=True)
class ThetaMomentReport:
    """Empirical second moment of the noise statistic vs. its bound."""

    d: int
    T: int
    sigma: float
    trials: int
    mean_sq: float
    se: float
    bound: float  # sigma^2 (4 d ln(4T+1) + 2)

    @property
    def ok(self) -> bool:
        return self.mean_sq <= self.bound + 3 * self.se


def _theta_order_arg(T: int) -> None:
    if T < 0:
        raise ParamError(f"the order must be nonnegative, got {T}")


def _theta_moment_args(trials: int) -> None:
    if trials < 2:
        raise ParamError(f"the theta-moment check needs trials >= 2, got {trials}")


# the dimension of the theta-moment check's noise fields
THETA_MOMENT_D = 1


def _theta_moment_chunk(T: int) -> int:
    """Trials per chunk of the theta-moment check: per trial, its noise
    field and at most 40 bytes per entry of its (4T+1)^d shifted windows of
    (4T+1)^d values (the spectra, their moduli and any copy the per-axis
    transform makes)."""
    d = THETA_MOMENT_D
    return max(1, CHECK_CHUNK_BYTES // (40 * (4 * T + 1) ** (2 * d)
                                        + 16 * (8 * T + 1) ** d))


def check_theta_moment(T: int, sigma: float, trials: int,
                       seed: int = 0) -> ThetaMomentReport:
    """Monte Carlo check of ``E[Theta_T^2] <= sigma^2 (4 d ln(4T+1) + 2)``,
    ``d = THETA_MOMENT_D``. The standard error needs at least two trials.
    The trials are drawn and transformed in chunks of about
    ``CHECK_CHUNK_BYTES``."""
    _theta_order_arg(T)
    _theta_moment_args(trials)
    d = THETA_MOMENT_D
    box = Box.cube(d, 4 * T)
    rows = _theta_moment_chunk(T)
    vals = np.empty(trials)
    for lo in range(0, trials, rows):
        noise = np.stack([
            sample_noise(box, NoiseSpec(sigma, derive_seed(seed, i))).data
            for i in range(lo, min(lo + rows, trials))])
        vals[lo:lo + len(noise)] = _shift_maxima(noise, T, d) ** 2
    return ThetaMomentReport(
        d=d, T=T, sigma=sigma, trials=trials,
        mean_sq=float(vals.mean()),
        se=float(vals.std(ddof=1)) / math.sqrt(trials),
        bound=sigma ** 2 * (4 * d * math.log(4 * T + 1) + 2),
    )
