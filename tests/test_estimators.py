"""Adaptive estimators: worked cases, equivariances, risk formulas."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from gridfilt import Box, DomainError, Field, Filter, ParamError
from gridfilt.estimators import (
    DenoiseSetup,
    denoise_batch,
    denoise_point,
    risk_bound,
    risk_constant,
    theta_stat,
)
from gridfilt.signals import (
    exp_certificate_1d,
    predictor_exp_certificate,
    predictor_exp_filter,
)
from gridfilt.solver import _RHO_MAX, build_instance, objective

from oracles import theta_stat_loop, translate

RNG = np.random.default_rng(5150)


def const_field(box: Box, c) -> Field:
    return Field(box, np.full(box.shape, c, dtype=complex))


# ---------------------------------------------------------------- setups


def test_setup_validation():
    with pytest.raises(ParamError):
        DenoiseSetup(rho=0.5, T=1)
    with pytest.raises(ParamError):
        DenoiseSetup(rho=1.0, T=2, kappa=3)
    with pytest.raises(ParamError):
        DenoiseSetup(rho=1.0, T=2, kappa=-1)
    DenoiseSetup(rho=1.0, T=2, kappa=2)


@pytest.mark.parametrize("rho", [math.nan, math.inf, 1e110])
def test_setup_rejects_non_finite_rho(rho):
    with pytest.raises(ParamError, match="rho must be finite"):
        DenoiseSetup(rho=rho, T=1)


# entry points that take a lag, each at order 4: build_instance's is the
# window order 2 T_alg
LAG_ENTRIES = {
    "DenoiseSetup": lambda kappa: DenoiseSetup(rho=1.0, T=4, kappa=kappa),
    "build_instance": lambda kappa: build_instance(
        const_field(Box.cube(1, 16), 1.0), (0,), 2, 1.0, kappa),
    "Filter.one_sided": lambda kappa: Filter.one_sided(1, kappa, 4, np.ones(1)),
    "predictor_exp_filter": lambda kappa: predictor_exp_filter(0.0, 4, kappa),
}


@pytest.mark.parametrize("kappa", [5, -1])
@pytest.mark.parametrize("entry", sorted(LAG_ENTRIES))
def test_out_of_range_lag_gets_the_one_message(entry, kappa):
    # Box.support alone tests 0 <= kappa <= T
    with pytest.raises(ParamError) as info:
        LAG_ENTRIES[entry](kappa)
    assert str(info.value) == f"need 0 <= kappa <= T, got kappa={kappa}, T=4"


# ---------------------------------------------------------------- denoise


def test_denoise_T0_rejects_non_finite_observation():
    data = np.ones(9, dtype=complex)
    data[4 + 2] = np.nan
    y = Field(Box((-4,), (4,)), data)
    setup = DenoiseSetup(rho=1.0, T=0)
    with pytest.raises(DomainError, match=r"\(2,\) is not finite"):
        denoise_point(y, (2,), setup)
    with pytest.raises(DomainError, match=r"\(2,\) is not finite"):
        denoise_batch([y], (2,), setup)
    assert denoise_point(y, (1,), setup).value == 1.0


@pytest.mark.parametrize("kappa", [None, 0])
def test_denoise_T0_reads_the_anchor_alone(kappa):
    # the T = 0 read set is the anchor: its neighbours may be anything, and
    # an anchor outside the field is a coverage error like any short read set
    y = Field(Box((-2,), (2,)), np.array([np.nan, 1, 2, 3, np.inf], dtype=complex))
    setup = DenoiseSetup(rho=1.0, T=0, kappa=kappa)
    assert denoise_point(y, (0,), setup).value == 2.0
    assert [e.value for e in denoise_batch([y, y], (1,), setup)] == [3.0, 3.0]
    with pytest.raises(DomainError, match=r"must cover Box\(lo=\(3,\)"):
        denoise_point(y, (3,), setup)
    with pytest.raises(DomainError, match="observations must cover"):
        denoise_batch([y], (3,), setup)


def test_denoise_T0_returns_observation():
    y = Field(Box((-2,), (2,)), RNG.standard_normal(5) + 1j * RNG.standard_normal(5))
    est = denoise_point(y, (1,), DenoiseSetup(rho=1.0, T=0))
    assert est.value == y.value((1,))
    assert est.solve is None


def test_denoise_point_budget_miss_equals_batch_of_one(monkeypatch):
    # a fit that misses its budget is returned flagged, as the batch returns it
    from gridfilt import estimators

    for name in ("solve", "solve_batch"):
        monkeypatch.setattr(estimators, name, functools.partial(
            getattr(estimators, name), max_iter=50))
    y = Field(Box((-16,), (16,)), 1.0 + 0.1 * (RNG.standard_normal(33)
                                             + 1j * RNG.standard_normal(33)))
    setup = DenoiseSetup(rho=math.sqrt(2), T=4)
    est = denoise_point(y, (0,), setup, tol=1e-12)
    (ref,) = denoise_batch([y], (0,), setup, tol=1e-12)
    assert not est.solve.converged and est.solve.iterations == 50
    assert est.value == ref.value
    assert (est.solve.objective, est.solve.dual_bound, est.solve.gap) == \
        (ref.solve.objective, ref.solve.dual_bound, ref.solve.gap)
    assert np.array_equal(est.solve.phi.field.data, ref.solve.phi.field.data)


def test_denoise_noiseless_constant():
    c = 0.8 - 0.3j
    y = const_field(Box((-4,), (4,)), c)
    est = denoise_point(y, (0,), DenoiseSetup(rho=1.0, T=1), tol=1e-9)
    assert abs(est.value - c) < 1e-7
    assert est.solve.objective <= 1e-9


def test_denoise_noiseless_exponential_sweep():
    omega = 0.7j
    t_axis = np.arange(-33, 34)
    y = Field(Box((-33,), (33,)), np.exp(omega * t_axis))
    for T in (1, 2, 4, 8):
        est = denoise_point(y, (0,), DenoiseSetup(rho=math.sqrt(2), T=T), tol=1e-9)
        assert abs(est.value - 1.0) < 1e-6


def test_denoise_translation_equivariance():
    y = Field(Box((-20,), (20,)),
              RNG.standard_normal(41) + 1j * RNG.standard_normal(41))
    setup = DenoiseSetup(rho=math.sqrt(2), T=2)
    e0 = denoise_point(y, (3,), setup)
    e1 = denoise_point(translate(y, (-9,)), (-6,), setup)
    assert abs(e0.value - e1.value) < 1e-12


def test_denoise_modulation_equivariance():
    # structural identity: modulating data and filter by a grid frequency
    # permutes the spectrum, so the objective is invariant...
    T_alg = 2
    W = 2 * T_alg
    omega = 2 * np.pi * 3 / (2 * W + 1)
    t_axis = np.arange(-8, 9)
    y = Field(Box((-8,), (8,)),
              RNG.standard_normal(17) + 1j * RNG.standard_normal(17))
    ymod = Field(y.box, y.data * np.exp(1j * omega * t_axis))
    inst = build_instance(y, (0,), T_alg, math.sqrt(2))
    inst_mod = build_instance(ymod, (0,), T_alg, math.sqrt(2))
    for _ in range(10):
        phi = Filter.two_sided(1, W, RNG.standard_normal(9) + 1j * RNG.standard_normal(9))
        assert objective(inst_mod, phi.modulate((omega,))) == \
            pytest.approx(objective(inst, phi), rel=1e-12)
        assert phi.modulate((omega,)).star_norm(W, 1) == \
            pytest.approx(phi.star_norm(W, 1), rel=1e-12)
    # ... and on a noiseless signal both estimates are exact, so the
    # estimate itself is equivariant to solver tolerance
    c = 1.5 + 0.5j
    yc = const_field(Box((-7,), (9,)), c)
    ycm = Field(yc.box, yc.data * np.exp(1j * omega * np.arange(-7, 10)))
    setup = DenoiseSetup(rho=math.sqrt(2), T=T_alg)
    e_plain = denoise_point(yc, (1,), setup, tol=1e-9)
    e_mod = denoise_point(ycm, (1,), setup, tol=1e-9)
    assert abs(e_mod.value - np.exp(1j * omega * 1) * e_plain.value) < 1e-6


# ---------------------------------------------------------------- predict


def test_predict_constant_kappa_sweep():
    y = const_field(Box((-33,), (0,)), 2.0 - 1.0j)
    for kappa in (0, 1, 2):
        cert = predictor_exp_certificate(0.0, kappa)
        setup = DenoiseSetup(rho=cert.rho, T=max(kappa, 2), kappa=kappa)
        est = denoise_point(y, (0,), setup, tol=1e-9)
        assert abs(est.value - (2.0 - 1.0j)) < 1e-6


def test_predict_oscillating_exponential():
    omega = 0.9j
    t_axis = np.arange(-40, 1)
    y = Field(Box((-40,), (0,)), np.exp(omega * t_axis))
    cert = predictor_exp_certificate(omega, 1)
    setup = DenoiseSetup(rho=cert.rho, T=4, kappa=1)
    est = denoise_point(y, (0,), setup, tol=1e-9)
    assert abs(est.value - 1.0) < 1e-6


def test_predict_causal_read_set():
    rng = np.random.default_rng(424242)
    omega = -0.1 + 0.5j
    t_axis = np.arange(-33, 3)
    base = np.exp(omega * t_axis) + 0.3 * (rng.standard_normal(36)
                                           + 1j * rng.standard_normal(36))
    y1 = Field(Box((-33,), (2,)), base)
    pert = base.copy()
    pert[-3:] += np.array([5.0, -3.0j, 11.0])  # tau in {0, 1, 2}: t - tau < kappa
    y2 = Field(Box((-33,), (2,)), pert)
    cert = predictor_exp_certificate(omega, 1)
    setup = DenoiseSetup(rho=cert.rho, T=4, kappa=1)
    e1 = denoise_point(y1, (0,), setup)
    e2 = denoise_point(y2, (0,), setup)
    assert e1.value == e2.value


def test_denoise_rejects_non_finite_window():
    # T = 4, d = 1: the program reads {|tau| <= 16}, and a NaN at tau = 4 used
    # to reach the l1 projection and fail there with an IndexError
    data = np.ones(33, dtype=complex)
    data[16 + 4] = np.nan
    y = Field(Box((-16,), (16,)), data)
    with pytest.raises(DomainError, match=r"\(4,\)"):
        denoise_point(y, (0,), DenoiseSetup(rho=math.sqrt(2), T=4))


def test_predict_ignores_non_finite_outside_read_set():
    # with kappa = 1 prediction at t = 0 reads only tau <= -1; an infinite
    # value at the anchor itself is never read
    data = np.full(34, 2.0 - 1.0j)
    data[-1] = np.inf
    y = Field(Box((-33,), (0,)), data)
    setup = DenoiseSetup(rho=predictor_exp_certificate(0.0, 1).rho, T=2, kappa=1)
    est = denoise_point(y, (0,), setup, tol=1e-9)
    assert abs(est.value - (2.0 - 1.0j)) < 1e-6
    # one step later the anchor's value is in the read set
    with pytest.raises(DomainError, match=r"\(0,\)"):
        denoise_point(y, (1,), setup)


# ---------------------------------------------------------------- risk formulas


def test_risk_constant_values():
    assert risk_constant(1) == 18.0
    assert risk_constant(2) == 108.0


def test_risk_bound_values():
    assert risk_bound(1, 4, 1.0, 0.0, 0.0) == 0.0
    expected = 18.0 * 2 ** 1.5 * (0.1 * math.sqrt(2) * math.sqrt(math.log(17) + 1)) / math.sqrt(17)
    assert risk_bound(1, 8, math.sqrt(2), 0.0, 0.1) == pytest.approx(expected)
    with pytest.raises(ParamError):
        risk_bound(1, 4, 0.5, 0.0, 0.1)


def test_rho_rule_ends_at_rho_max():
    # rho ** 3 is the highest power the program takes: the setup, the
    # instance, the certificate and risk_bound take _RHO_MAX, whose cube is
    # finite, and refuse the next float with a ParamError
    y = Field(Box((-8,), (8,)), np.ones(17, dtype=complex))
    assert math.isfinite(_RHO_MAX ** 3)
    DenoiseSetup(rho=_RHO_MAX, T=1)
    dataclasses.replace(exp_certificate_1d(0.5j), rho=_RHO_MAX)
    assert math.isfinite(build_instance(y, (0,), 1, _RHO_MAX).l1_bound)
    risk_bound(1, 4, _RHO_MAX, 0.0, 0.1)
    rho = math.nextafter(_RHO_MAX, math.inf)
    for make in (lambda: DenoiseSetup(rho=rho, T=1),
                 lambda: build_instance(y, (0,), 1, rho),
                 lambda: dataclasses.replace(exp_certificate_1d(0.5j), rho=rho)):
        with pytest.raises(ParamError, match="rho must be finite and >= 1, at most"):
            make()
    with pytest.raises(ParamError, match="need T, theta, sigma >= 0"):
        risk_bound(1, 4, rho, 0.0, 0.1)


@pytest.mark.parametrize("T,rho,theta,sigma", [
    (2, math.nan, 0.0, 0.1), (2, 2.0, math.nan, 0.1), (2, 2.0, 0.0, math.nan),
    (2, math.inf, 0.0, 0.1), (2, 1e110, 0.0, 0.1), (-1, 2.0, 0.0, 0.1)])
def test_risk_bound_rejects_nan_and_out_of_range(T, rho, theta, sigma):
    # a NaN bound would pass the bench's check rmse > bound silently
    with pytest.raises(ParamError, match="need T, theta, sigma >= 0"):
        risk_bound(1, T, rho, theta, sigma)


# ---------------------------------------------------------------- theta statistic


def test_theta_stat_zero():
    e = Field(Box((-8,), (8,)), np.zeros(17))
    assert theta_stat(e, (0,), 2) == 0.0


def test_theta_stat_impulse():
    T = 2
    data = np.zeros(8 * T + 1)
    data[4 * T] = 1.0  # impulse at the anchor
    e = Field(Box((-4 * T,), (4 * T,)), data)
    # every shifted window containing the impulse has a flat spectrum of
    # modulus (4T+1)^{-1/2}
    assert theta_stat(e, (0,), T) == pytest.approx((4 * T + 1) ** -0.5)


def test_theta_stat_matches_loop_oracle():
    rng = np.random.default_rng(8)
    for T in (0, 1, 2, 4, 8):
        box = Box((-4 * T - 2,), (4 * T + 3,))
        for _ in range(5):
            e = Field(box, rng.standard_normal(box.shape)
                      + 1j * rng.standard_normal(box.shape))
            assert theta_stat(e, (1,), T) == theta_stat_loop(e, (1,), T)
    for T in (1, 2):
        box = Box.cube(2, 4 * T + 1)
        e = Field(box, rng.standard_normal(box.shape)
                  + 1j * rng.standard_normal(box.shape))
        assert theta_stat(e, (1, -1), T) == theta_stat_loop(e, (1, -1), T)


def test_theta_stat_coverage():
    e = Field(Box((-4,), (4,)), np.zeros(9))
    with pytest.raises(DomainError, match=r"observations must cover "
                       r"Box\(lo=\(-8,\), hi=\(8,\)\)"):
        theta_stat(e, (0,), 2)


def test_theta_stat_moment_bound_small_mc():
    T, sigma, trials = 2, 0.7, 200
    rng = np.random.default_rng(33)
    vals = []
    for _ in range(trials):
        box = Box((-4 * T,), (4 * T,))
        e = Field(box, sigma * (rng.standard_normal(box.shape)
                                + 1j * rng.standard_normal(box.shape)))
        vals.append(theta_stat(e, (0,), T) ** 2)
    vals = np.array(vals)
    bound = sigma ** 2 * (4 * math.log(4 * T + 1) + 2)
    assert vals.mean() <= bound + 3 * vals.std(ddof=1) / math.sqrt(trials)
