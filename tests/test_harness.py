"""Noise generation, trial mechanics and the statistical checks."""

import functools
import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from gridfilt import Box, DomainError, Field, ParamError
from gridfilt.cli import STATS_COLUMNS, TRIAL_COLUMNS, _trial_rows, _write_csv
from gridfilt.estimators import DenoiseSetup, denoise_point, theta_stat
from gridfilt.harness import (
    CHECK_CHUNK_BYTES,
    NoiseSpec,
    TrialRecord,
    _gaussian_max_chunk,
    _theta_moment_chunk,
    check_gaussian_max,
    check_theta_moment,
    derive_seed,
    monte_carlo,
    pathwise_violations,
    run_trial,
    sample_noise,
)
from gridfilt.signals import exp_certificate_1d

from oracles import gaussian_max_one_shot, theta_moment_loop


def test_noise_zero_sigma():
    f = sample_noise(Box((-3,), (3,)), NoiseSpec(0.0, 99))
    assert np.all(f.data == 0)


def test_noise_deterministic_per_seed():
    a = sample_noise(Box.cube(2, 4), NoiseSpec(0.3, 1234))
    b = sample_noise(Box.cube(2, 4), NoiseSpec(0.3, 1234))
    c = sample_noise(Box.cube(2, 4), NoiseSpec(0.3, 1235))
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_noise_moments():
    f = sample_noise(Box((0,), (99_999,)), NoiseSpec(0.5, 7))
    for part in (f.data.real, f.data.imag):
        assert abs(part.mean()) < 4 * 0.5 / math.sqrt(100_000)
        assert abs(part.var() - 0.25) < 0.05 * 0.25
    # real and imaginary parts uncorrelated
    corr = np.corrcoef(f.data.real, f.data.imag)[0, 1]
    assert abs(corr) < 0.02


def test_derive_seed_spread():
    seeds = [derive_seed(42, i) for i in range(1000)]
    assert len(set(seeds)) == 1000
    assert all(0 <= s < 2 ** 64 for s in seeds)


def test_run_trial_noiseless_exact():
    box = Box((-8,), (8,))
    s = Field(box, np.full(17, 1.0 + 2.0j))
    cert = exp_certificate_1d(0.0)
    rec = run_trial(s, cert, (0,), DenoiseSetup(rho=cert.rho, T=2),
                    NoiseSpec(0.0, 5), tol=1e-9)
    assert rec.sq_err_adaptive < 1e-14
    assert rec.sq_err_oracle < 1e-28
    assert rec.theta_stat == 0.0


def test_run_trial_theta_matches_recomputation():
    box = Box((-8,), (8,))
    s = Field(box, np.ones(17, dtype=complex))
    cert = exp_certificate_1d(0.0)
    spec = NoiseSpec(0.2, 31337)
    rec = run_trial(s, cert, (0,), DenoiseSetup(rho=cert.rho, T=2), spec)
    e = sample_noise(box, spec)
    assert rec.theta_stat == theta_stat(e, (0,), 2)


def test_oracle_error_decomposition():
    # E|s_t - (q(D)y)_t|^2 = 2 sigma^2 |q|_2^2 + |s_t - (q(D)s)_t|^2; for an
    # exact certificate the deterministic part vanishes
    box = Box((-8,), (8,))
    s = Field(box, np.full(17, 1.0 + 0j))
    cert = exp_certificate_1d(0.0)
    setup = DenoiseSetup(rho=cert.rho, T=2)
    sigma, trials = 0.4, 400
    errs = []
    for i in range(trials):
        rec = run_trial(s, cert, (0,), setup, NoiseSpec(sigma, derive_seed(17, i)),
                        tol=1e-3)
        errs.append(rec.sq_err_oracle)
    errs = np.array(errs)
    q = cert.filter(2)
    expected = 2 * sigma ** 2 * q.l2() ** 2
    se = errs.std(ddof=1) / math.sqrt(trials)
    assert abs(errs.mean() - expected) <= 3 * se


def test_monte_carlo_single_trial_degenerate():
    box = Box((-8,), (8,))
    s = Field(box, np.full(17, 2.0 + 0j))
    cert = exp_certificate_1d(0.0)
    stats, records = monte_carlo(s, cert, (0,), DenoiseSetup(rho=cert.rho, T=2),
                                 sigma=0.1, trials=1, master_seed=9, label="one")
    assert len(records) == 1
    assert stats.rmse_adaptive == pytest.approx(math.sqrt(records[0].sq_err_adaptive))
    assert stats.hw_adaptive == 0.0
    assert stats.pathwise_violations == 0


def test_pathwise_violations_counts_errors_above_the_bound():
    # c(1) rho^3 (theta + rho Theta) (2T+1)^{-1/2} at rho = 2, theta = 0.5,
    # T = 2: the trial's bound scales with its noise statistic Theta
    def record(error, stat):
        return TrialRecord((0,), 0, 1.0, 1.0 + error, 1.0, 0.0, stat)

    def bound(stat):
        return 18.0 * 8.0 * (0.5 + 2.0 * stat) * 5 ** -0.5

    records = [record(0.0, 0.0), record(bound(0.0) * 0.99, 0.0),
               record(bound(0.0) * 1.01, 0.0), record(bound(0.0) * 1.01, 0.1),
               record(bound(0.1) * 1.01, 0.1), record(-bound(0.0) * 1.01, 0.0)]
    assert pathwise_violations(records, 1, 2, 2.0, 0.5) == 3


def test_monte_carlo_rejects_zero_trials():
    box = Box((-8,), (8,))
    s = Field(box, np.ones(17, dtype=complex))
    with pytest.raises(ParamError):
        monte_carlo(s, exp_certificate_1d(0.0), (0,),
                    DenoiseSetup(rho=math.sqrt(2), T=2), 0.1, 0, 1)


def test_monte_carlo_names_failing_seed():
    # anchor outside the coverage makes every trial fail
    box = Box((-8,), (8,))
    s = Field(box, np.ones(17, dtype=complex))
    with pytest.raises(DomainError, match="seed"):
        monte_carlo(s, exp_certificate_1d(0.0), (4,),
                    DenoiseSetup(rho=math.sqrt(2), T=2), 0.1, 2, 1)


def budget_of_50(monkeypatch):
    """Every fit of the estimators stops after at most 50 iterations."""
    from gridfilt import estimators

    for name in ("solve", "solve_batch"):
        monkeypatch.setattr(estimators, name, functools.partial(
            getattr(estimators, name), max_iter=50))


def test_monte_carlo_budget_miss_records_certified_gap(monkeypatch):
    # 50 iterations cannot certify a 1e-5 gap on noisy data: the first trial
    # is recorded under its seed with the gap its solve certified
    budget_of_50(monkeypatch)
    box = Box((-8,), (8,))
    s = Field(box, np.ones(17, dtype=complex))
    cert = exp_certificate_1d(0.0)
    setup = DenoiseSetup(rho=cert.rho, T=2)
    stats, records = monte_carlo(s, cert, (0,), setup, 0.1, 3, 15,
                                 label="const")
    seed = derive_seed(15, 0)
    assert records[0].seed == seed and records[0].solver_gap > 1e-5
    alone = denoise_point(s + sample_noise(box, NoiseSpec(0.1, seed)), (0,),
                          setup, tol=1e-5).solve
    assert alone.iterations == 50 and not alone.converged
    assert records[0].solver_gap == alone.gap


def test_monte_carlo_names_every_unconverged_trial(monkeypatch):
    budget_of_50(monkeypatch)
    box = Box((-8,), (8,))
    s = Field(box, np.ones(17, dtype=complex))
    cert = exp_certificate_1d(0.0)
    setup = DenoiseSetup(rho=cert.rho, T=2)
    stats, records = monte_carlo(s, cert, (0,), setup, 0.1, 3, 15,
                                 label="const")
    gaps = []
    for i, r in enumerate(records):
        seed = derive_seed(15, i)
        alone = run_trial(s, cert, (0,), setup, NoiseSpec(0.1, seed))
        gaps.append(alone.solver_gap)
        assert r.seed == seed and r.solver_gap == alone.solver_gap > 1e-5
    assert len(records) == 3
    assert stats.max_solver_gap == max(gaps)


def test_monte_carlo_records_equal_run_trial():
    box = Box((-16,), (16,))
    tt = np.arange(-16, 17)
    s = Field(box, np.exp(0.9j * tt))
    cert = exp_certificate_1d(0.9j)
    setup = DenoiseSetup(rho=cert.rho, T=4)
    _, records = monte_carlo(s, cert, (0,), setup, 0.1, 6, 2024, tol=1e-4)
    for i, rec in enumerate(records):
        alone = run_trial(s, cert, (0,), setup, NoiseSpec(0.1, derive_seed(2024, i)),
                          tol=1e-4)
        assert rec == alone


def test_monte_carlo_reproducible():
    box = Box((-8,), (8,))
    s = Field(box, np.full(17, 1.0 + 1.0j))
    cert = exp_certificate_1d(0.0)
    args = (s, cert, (0,), DenoiseSetup(rho=cert.rho, T=2), 0.1, 5, 77)
    s1, r1 = monte_carlo(*args)
    s2, r2 = monte_carlo(*args)
    assert s1 == s2
    assert all(a == b for a, b in zip(r1, r2))


def test_gaussian_max_single_variable():
    # N = 1: E|f|^2 = 2 exactly, and the bound 2 ln 1 + 2 = 2 is the equality case
    rep = check_gaussian_max(1, 20000, seed=3)
    assert rep.bound_mean == 2.0
    assert abs(rep.mean_max_sq - 2.0) <= 3 * rep.se_max_sq
    assert rep.tails_ok


def test_gaussian_max_n16():
    rep = check_gaussian_max(16, 20000, seed=4)
    assert rep.bound_mean == pytest.approx(2 * math.log(16) + 2)
    assert rep.mean_ok and rep.tails_ok


@pytest.mark.parametrize("N", [1, 16, 256])
def test_gaussian_max_chunks_match_one_shot_draw(N):
    # the trials are drawn chunk by chunk; a last, partial chunk included,
    # the report is the one-shot draw's bit for bit
    trials = 2 * _gaussian_max_chunk(N) + 37
    assert check_gaussian_max(N, trials, seed=N) == \
        gaussian_max_one_shot(N, trials, seed=N)
    assert check_gaussian_max(N, 5, seed=2) == gaussian_max_one_shot(N, 5, seed=2)


def test_theta_moment_check():
    rep = check_theta_moment(T=2, sigma=0.7, trials=300, seed=11)
    assert rep.ok
    assert rep.bound == pytest.approx(0.49 * (4 * math.log(9) + 2))


@pytest.mark.parametrize("T,trials", [(0, 5), (2, 37), (4, 120),
                                      (4, 2 * _theta_moment_chunk(4) + 7)])
def test_theta_moment_matches_per_trial_loop(T, trials):
    # the trials are transformed as stacked chunks, the last case over two
    # full chunks and a partial one; the report is the per-trial loop's bit
    # for bit
    assert check_theta_moment(T, 0.3, trials, seed=T) == \
        theta_moment_loop(T, 0.3, trials, seed=T)


def _peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("check,args", [(check_gaussian_max, (256,)),
                                        (check_theta_moment, (4, 0.1))])
def test_check_memory_bounded_by_chunk_budget(check, args):
    # the working arrays stay within the chunk budget whatever the trial
    # count; only the per-trial results, a few floats each, grow with it
    check(*args, 1000)   # numpy's first-call allocations are not the check's
    few, many = (_peak_bytes(check, *args, trials) for trials in (1000, 10000))
    assert many <= 2 * CHECK_CHUNK_BYTES
    assert many - few <= 6 * 8 * (10000 - 1000)


@pytest.mark.parametrize("trials", [1, 0])
def test_checks_need_two_trials(trials):
    # one trial has no standard error (NaN), zero trials no mean
    with pytest.raises(ParamError, match="trials >= 2"):
        check_gaussian_max(16, trials)
    with pytest.raises(ParamError, match="trials >= 2"):
        check_theta_moment(T=2, sigma=0.7, trials=trials)


@pytest.mark.parametrize("seed", [-1, 2 ** 128])
def test_seed_outside_philox_keys_rejected(seed):
    with pytest.raises(ParamError, match=r"seed must be in \[0, 2\*\*128\)"):
        NoiseSpec(0.1, seed)
    with pytest.raises(ParamError, match=r"seed must be in \[0, 2\*\*128\)"):
        check_gaussian_max(16, 10, seed=seed)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.1])
def test_noise_level_must_be_finite_and_nonnegative(sigma):
    with pytest.raises(ParamError, match="sigma must be nonnegative and finite"):
        NoiseSpec(sigma, 1)


def test_largest_philox_key_accepted():
    f = sample_noise(Box((0,), (3,)), NoiseSpec(1.0, 2 ** 128 - 1))
    assert np.all(np.isfinite(f.data))
    assert check_gaussian_max(16, 10, seed=2 ** 128 - 1).trials == 10


def test_stats_csv_columns(tmp_path):
    # the documented column order: the ExperimentStats fields, in order
    box = Box((-8,), (8,))
    cert = exp_certificate_1d(0.0)
    stats, _ = monte_carlo(Field(box, np.ones(17, dtype=complex)), cert, (0,),
                           DenoiseSetup(rho=cert.rho, T=2), 0.1, 2, 5, label="c")
    p = tmp_path / "stats.csv"
    _write_csv(p, STATS_COLUMNS, map(astuple, [stats]))
    header, row = p.read_text().splitlines()
    assert header == ("label,d,T,rho,theta,sigma,trials,master_seed,"
                      "rmse_adaptive,hw_adaptive,rmse_oracle,hw_oracle,bound,"
                      "ratio,max_solver_gap,pathwise_violations")
    assert row.startswith("c,1,2,1.4142135623730951,0,0.10000000000000001,2,5,")


def test_trials_csv_layout(tmp_path):
    box = Box((-8,), (8,))
    s = Field(box, np.full(17, 1.0 + 0j))
    cert = exp_certificate_1d(0.0)
    _, records = monte_carlo(s, cert, (0,), DenoiseSetup(rho=cert.rho, T=2),
                             0.1, 3, 123, label="csv")
    p = tmp_path / "trials.csv"
    _write_csv(p, TRIAL_COLUMNS, _trial_rows(records), "master_seed=123")
    lines = p.read_text().splitlines()
    assert lines[0] == "# master_seed=123"
    assert lines[1].startswith("trial,seed,anchor,re_truth")
    assert len(lines) == 2 + 3
    # byte-identical on rewrite
    p2 = tmp_path / "trials2.csv"
    _write_csv(p2, TRIAL_COLUMNS, _trial_rows(records), "master_seed=123")
    assert p.read_bytes() == p2.read_bytes()
