"""Signal generators, certificate filters and the certificate calculus."""

import dataclasses
import math

import numpy as np
import pytest

from gridfilt import Box, DomainError, Field, ParamError, RegularityError, filter_tensor
from gridfilt.signals import (
    Certificate,
    ExpPolynomial,
    combine_certificates,
    eval_exp_poly,
    exp_certificate_1d,
    exp_filter_1d,
    exp_poly_certificate,
    four_neighbor_averaging,
    harmonic_filter,
    harmonic_interior,
    lift_certificate,
    make_regular_operator,
    modulate_certificate,
    poly_certificate_1d,
    poly_filter_1d,
    predictor_exp_certificate,
    predictor_exp_filter,
    random_discrete_harmonic,
    reproduction_residual,
    simple_exp_certificate,
    simple_exp_filter,
    tensor_certificate,
)

from oracles import coeff, harmonic_filter_exact

RNG = np.random.default_rng(77002)


def exp_field_1d(omega, radius):
    t = np.arange(-radius, radius + 1)
    return Field(Box((-radius,), (radius,)), np.exp(complex(omega) * t))


# ---------------------------------------------------------------- eval_exp_poly


def test_eval_constant():
    p = ExpPolynomial(((1.0, (0, 0), (0.0, 0.0)),))
    f = eval_exp_poly(p, Box.cube(2, 2))
    assert np.allclose(f.data, 1.0)


def test_eval_alternating():
    p = ExpPolynomial(((1.0, (0,), (1j * np.pi,)),))
    f = eval_exp_poly(p, Box((-3,), (3,)))
    assert np.allclose(f.data, [(-1.0) ** t for t in range(-3, 4)])


def test_eval_linear():
    p = ExpPolynomial(((1.0, (1,), (0.0,)),))
    f = eval_exp_poly(p, Box((-3,), (3,)))
    assert np.allclose(f.data, np.arange(-3, 4))


def test_eval_overflow():
    p = ExpPolynomial(((1.0, (0,), (50.0,)),))
    with pytest.raises(OverflowError):
        eval_exp_poly(p, Box((-100,), (100,)))


# ---------------------------------------------------------------- exp filters


def test_exp_filter_zero_freq_coeffs():
    q = exp_filter_1d(0.0, 2)
    assert coeff(q, (0,)) == pytest.approx(1 / 3)
    assert coeff(q, (-1,)) == pytest.approx(1 / 3)
    assert coeff(q, (-2,)) == pytest.approx(1 / 3)
    assert coeff(q, (1,)) == 0 and coeff(q, (2,)) == 0


def test_exp_filter_pi_freq():
    q = exp_filter_1d(1j * np.pi, 1)
    assert abs(coeff(q, (0,)) - 0.5) < 1e-15
    assert abs(coeff(q, (-1,)) + 0.5) < 1e-12
    s = exp_field_1d(1j * np.pi, 8)
    assert reproduction_residual(q, s, Box((-5,), (5,))) < 1e-14


@pytest.mark.parametrize("omega", [0.0, 1.3j, -2.0j, 0.4 + 1.0j, -0.7 - 0.3j])
def test_exp_filter_reproduces_and_norm(omega):
    for T in (1, 3, 9):
        q = exp_filter_1d(omega, T)
        s = exp_field_1d(omega, 3 * T + 4)
        res = reproduction_residual(q, s, Box((-4,), (4,)))
        scale = np.abs(s.data).max()  # roundoff scales with the values read
        assert res <= 1e-12 * max(scale, 1.0)
        assert q.l2() <= (T + 1) ** -0.5 + 1e-15
        if complex(omega).real == 0:
            assert q.l2() == pytest.approx((T + 1) ** -0.5)
        assert q.l2() <= math.sqrt(2) * (2 * T + 1) ** -0.5 + 1e-15


# ---------------------------------------------------------------- simple exp


def test_simple_exp_single_freq_is_tensor():
    qa = simple_exp_filter([(0.5j,), (1.0j,)], 3)
    qb = filter_tensor(exp_filter_1d(0.5j, 3), exp_filter_1d(1.0j, 3))
    assert np.array_equal(qa.field.data, qb.field.data)


def test_simple_exp_two_freqs():
    q = simple_exp_filter([(0.0, 1j * np.pi)], 4)
    t = np.arange(-16, 17)
    for a, b in ((1.0, 0.0), (0.0, 1.0), (0.7, -0.3 + 1j)):
        s = Field(Box((-16,), (16,)), a + b * (-1.0 + 0j) ** np.abs(t) * np.sign(0 * t + 1))
        s = Field(Box((-16,), (16,)), a + b * np.exp(1j * np.pi * t))
        assert reproduction_residual(q, s, Box((-8,), (8,))) < 1e-10


def test_simple_exp_random_span():
    freqs = (0.3j, -1.1j, 0.1 + 0.2j)
    q = simple_exp_filter([freqs], 9)
    t = np.arange(-30, 31)
    coeffs = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
    s = Field(Box((-30,), (30,)),
              sum(c * np.exp(w * t) for c, w in zip(coeffs, freqs)))
    scale = np.abs(s.data).max()
    assert reproduction_residual(q, s, Box((-10,), (10,))) < 1e-9 * scale


def test_simple_exp_budget_error():
    with pytest.raises(ParamError):
        simple_exp_filter([(0.0, 1.0j, 2.0j)], 2)


# ---------------------------------------------------------------- poly filters


def test_poly_filter_m1_t1():
    q = poly_filter_1d(1, 1)
    assert np.allclose(q.field.data, 1 / 3)
    assert q.l2() == pytest.approx(3 ** -0.5)


def test_poly_filter_m2_t1():
    q = poly_filter_1d(2, 1)
    assert np.allclose(q.field.data, [0.0, 1.0, 0.0], atol=1e-12)


def test_poly_filter_reproduces():
    for m, T in ((1, 2), (2, 4), (3, 8), (4, 11)):
        q = poly_filter_1d(m, T)
        t = np.arange(-3 * T - 2, 3 * T + 3)
        coeffs = RNG.standard_normal(m + 1)
        s = Field(Box((t[0],), (t[-1],)),
                  sum(c * t.astype(float) ** i for i, c in enumerate(coeffs)))
        scale = np.abs(s.data).max()
        assert reproduction_residual(q, s, Box((-T,), (T,))) < 1e-9 * scale


def test_poly_filter_norm_bound_sweep():
    for m in range(1, 5):
        for T in (max(1, (m + 1) // 2), 2, 4, 8, 16, 32, 64):
            if 2 * T + 1 < m + 1:
                continue
            q = poly_filter_1d(m, T)
            assert q.l2() <= 16 * m * (2 * T + 1) ** -0.5 * (1 + 1e-12)


def test_poly_filter_infeasible():
    with pytest.raises(ParamError):
        poly_filter_1d(3, 1)


# ---------------------------------------------------------------- predictors


def test_predictor_constant():
    q = predictor_exp_filter(0.0, 2, 1)
    assert q.kappa == 1
    assert np.allclose(q.field.data, 0.5)
    s = Field(Box((-8,), (8,)), np.ones(17, dtype=complex))
    assert reproduction_residual(q, s, Box((-5,), (5,))) < 1e-15


def test_predictor_unit_modulus_norm():
    for omega0 in (0.4, -2.0):
        for T, kappa in ((3, 0), (5, 2)):
            q = predictor_exp_filter(1j * omega0, T, kappa)
            assert q.l2() == pytest.approx((T - kappa + 1) ** -0.5)


def test_predictor_rejects_unstable():
    with pytest.raises(ParamError):
        predictor_exp_filter(0.1, 4, 1)


# ---------------------------------------------------------------- certificate calculus


def check_certificate(cert: Certificate, signal: Field, Ts, eval_radius: int,
                      anchor=None):
    """Reproduction and norm contract of an exact certificate on a test field."""
    d = cert.d
    anchor = anchor or (0,) * d
    scale = max(1.0, float(np.abs(signal.data).max()))
    for T in Ts:
        q = cert.filter(T)
        ev = Box.cube(d, eval_radius, anchor)
        res = reproduction_residual(q, signal, ev)
        assert res <= cert.theta * (2 * T + 1) ** (-d / 2) + 1e-9 * scale
        assert q.l2() <= cert.rho * (2 * T + 1) ** (-d / 2) * (1 + 1e-9)


def test_combine_single_passthrough():
    c = exp_certificate_1d(0.5j)
    c1 = combine_certificates([c], [1.0])
    assert c1.rho == c.rho and c1.theta == 0.0
    assert np.array_equal(c1.filter(4).field.data, c.filter(4).field.data)


def test_combine_single_keeps_every_other_field():
    c = dataclasses.replace(predictor_exp_certificate(-0.1 + 0.5j, 1), theta=0.25)
    c1 = combine_certificates([c], [2 - 1j])
    assert c1.theta == abs(2 - 1j) * c.theta
    for f in dataclasses.fields(Certificate):
        if f.name != "theta":
            assert getattr(c1, f.name) == getattr(c, f.name), f.name


@pytest.mark.parametrize("rho", [math.nan, math.inf, 1e110])
def test_certificate_rejects_non_finite_rho(rho):
    with pytest.raises(ParamError, match="rho must be finite"):
        dataclasses.replace(exp_certificate_1d(0.5j), rho=rho)


@pytest.mark.parametrize("theta", [math.nan, -0.5])
def test_certificate_rejects_nan_or_negative_theta(theta):
    with pytest.raises(ParamError, match="theta must be >= 0"):
        dataclasses.replace(exp_certificate_1d(0.5j), theta=theta)


def test_predictor_certificate_rejects_negative_lag():
    # the certificate's own check, which predictor_exp_certificate relies on
    with pytest.raises(ParamError, match="certificate lag must be >= 0, got -1"):
        predictor_exp_certificate(-0.1, -1)


@pytest.mark.parametrize("T", [-1, 1])
def test_certificate_filter_outside_usable_range(T):
    # one check, T >= T0: a negative order and one below T0; a certificate
    # holds on all of Z^d, so its range has no upper end
    cert = predictor_exp_certificate(0.3j, 2)
    with pytest.raises(ParamError, match=rf"order {T} outside the certificate's "
                                         r"usable range \[2, inf\]"):
        cert.filter(T)


def test_certificate_rejects_negative_minimal_order():
    # with T0 >= 0, the usable range holds no negative order
    with pytest.raises(ParamError, match="minimal order must be >= 0"):
        dataclasses.replace(exp_certificate_1d(0.5j), T0=-1)


def test_certificate_lag_is_its_filters_lag():
    # a lag makes a prediction certificate, whose filters must carry it: a
    # certificate of two-sided filters cannot have one
    lagged = dataclasses.replace(exp_certificate_1d(0.4j), kappa=2)
    with pytest.raises(ParamError, match="lag None, the certificate 2"):
        lagged.filter(3)
    with pytest.raises(ParamError):
        lift_certificate(lagged, 2).filter(3)


# a filtering and a prediction pair of 1-d certificates
CERTIFICATE_PAIRS = {
    "filtering": (exp_certificate_1d(0.4j), exp_certificate_1d(-1.2j)),
    "prediction": (predictor_exp_certificate(-0.3 + 0.5j, 1),
                   predictor_exp_certificate(-0.1, 1)),
}
CALCULUS = {
    "combine": lambda a, b: combine_certificates([a, b], [1.0, -0.5j]),
    "modulate": lambda a, b: modulate_certificate(a, (0.9,)),
    "lift": lambda a, b: lift_certificate(a, 2),
    "tensor": tensor_certificate,
}


@pytest.mark.parametrize("op", CALCULUS)
@pytest.mark.parametrize("mode", CERTIFICATE_PAIRS)
def test_calculus_filters_are_one_sided_exactly_with_a_lag(mode, op):
    cert = CALCULUS[op](*CERTIFICATE_PAIRS[mode])
    assert (cert.kappa is None) == (mode == "filtering")
    for T in (cert.T0 + 2, cert.T0 + 5):
        q = cert.filter(T)
        assert q.kappa == cert.kappa
        assert q.field.box == Box.support(cert.d, q.order, cert.kappa)


def test_calculus_rejects_mixed_lags():
    filtering, predictor = exp_certificate_1d(0.4j), predictor_exp_certificate(-0.3, 1)
    with pytest.raises(ParamError, match="all have a lag or none"):
        combine_certificates([filtering, predictor], [1.0, 1.0])
    for a, b in ((filtering, predictor), (predictor, predictor_exp_certificate(-0.3, 2))):
        with pytest.raises(ParamError, match="equal lags"):
            tensor_certificate(a, b)


def test_combine_two_exponentials():
    w1, w2 = 0.4j, -1.2j
    comb = combine_certificates([exp_certificate_1d(w1), exp_certificate_1d(w2)],
                                [1.5, -0.5j])
    assert comb.rho == pytest.approx(math.sqrt(3) * 4 * 2)
    assert comb.theta == 0.0
    t = np.arange(-40, 41)
    s = Field(Box((-40,), (40,)), 1.5 * np.exp(w1 * t) - 0.5j * np.exp(w2 * t))
    check_certificate(comb, s, Ts=(2, 4, 8, 12), eval_radius=6)


def test_combine_filters_independent_of_coefficients():
    certs = [exp_certificate_1d(0.4j), exp_certificate_1d(-1.2j)]
    f1 = combine_certificates(certs, [1.0, 1.0]).filter(6)
    f2 = combine_certificates(certs, [99.0, -3j]).filter(6)
    assert np.array_equal(f1.field.data, f2.field.data)


def test_modulate_certificate():
    c = exp_certificate_1d(0.0)
    cm = modulate_certificate(c, (0.9,))
    q0, qm = c.filter(5), cm.filter(5)
    assert qm.l2() == pytest.approx(q0.l2())
    s = exp_field_1d(0.9j, 25)
    assert reproduction_residual(qm, s, Box((-10,), (10,))) < 1e-12
    # omega = 0 leaves the coefficients unchanged
    assert np.array_equal(modulate_certificate(c, (0.0,)).filter(5).field.data,
                          q0.field.data)


def test_lift_certificate():
    c = exp_certificate_1d(0.7j)
    lifted = lift_certificate(c, 3)
    assert lifted.theta == 0.0 and lifted.rho == c.rho
    T = 3
    q = lifted.filter(T)
    base = c.filter(T)
    assert q.l2() == pytest.approx((2 * T + 1) ** -1.0 * base.l2())
    assert q.l2() <= lifted.rho * (2 * T + 1) ** (-3 / 2) * (1 + 1e-9)
    t = np.arange(-12, 13)
    cyl = np.exp(0.7j * t)[:, None, None] * np.ones((1, 25, 25))
    s = Field(Box.cube(3, 12), cyl)
    assert reproduction_residual(q, s, Box.cube(3, 9)) < 1e-12


def test_lift_prediction_certificate():
    c = predictor_exp_certificate(-0.3, 1)
    lifted = lift_certificate(c, 2)
    assert lifted.rho == pytest.approx(math.sqrt(3) * c.rho)
    q = lifted.filter(4)
    assert q.kappa == 1
    assert q.l2() <= lifted.rho * (2 * 4 + 1) ** -1.0 * (1 + 1e-9)


def test_tensor_certificate():
    a, b = exp_certificate_1d(0.8j), exp_certificate_1d(-0.5j)
    ct = tensor_certificate(a, b)
    assert ct.rho == pytest.approx(a.rho * b.rho)
    T = 4
    q = ct.filter(T)
    assert q.l2() == pytest.approx(a.filter(T).l2() * b.filter(T).l2())
    t = np.arange(-14, 15)
    s = Field(Box.cube(2, 14), np.exp(0.8j * t)[:, None] * np.exp(-0.5j * t)[None, :])
    assert reproduction_residual(q, s, Box.cube(2, 10)) < 1e-10


def test_tensor_requires_exact():
    inexact = Certificate(1, 0.5, 2.0, lambda T: exp_filter_1d(0, T))
    with pytest.raises(ParamError):
        tensor_certificate(inexact, exp_certificate_1d(0.0))


def test_lift_and_tensor_refuse_theta_through_one_rule():
    inexact = dataclasses.replace(exp_certificate_1d(0.5j), theta=0.5)
    messages = set()
    for build in (lambda: lift_certificate(inexact, 2),
                  lambda: tensor_certificate(inexact, exp_certificate_1d(0.0)),
                  lambda: tensor_certificate(exp_certificate_1d(0.0), inexact)):
        with pytest.raises(ParamError) as exc:
            build()
        messages.add(str(exc.value))
    assert messages == {"lifts and tensor products require exact certificates "
                        "(theta = 0)"}


# each argument rule is stated once, so a certificate and its filter builder
# refuse a bad argument with one message, and the certificate refuses it when
# it is built: (certificate, filter builder, message)
SHARED_RULES = {
    "unstable": (lambda: predictor_exp_certificate(0.1, 1),
                 lambda: predictor_exp_filter(0.1, 4, 1),
                 "quasi-stability requires Re(omega) <= 0, got (0.1+0j)"),
    "negative_degree": (lambda: poly_certificate_1d(-1), lambda: poly_filter_1d(-1, 4),
                        "degree must be nonnegative"),
    "no_axis": (lambda: simple_exp_certificate([]), lambda: simple_exp_filter([], 4),
                "need at least one axis"),
    "empty_set": (lambda: simple_exp_certificate([[0.3j], []]),
                  lambda: simple_exp_filter([[0.3j], []], 4),
                  "frequency set for axis 1 is empty"),
    "repeats": (lambda: simple_exp_certificate([[0.3j, 0.3j]]),
                lambda: simple_exp_filter([[0.3j, 0.3j]], 4),
                "frequency set for axis 0 has repeats"),
}


@pytest.mark.parametrize("case", sorted(SHARED_RULES))
def test_certificate_and_builder_share_each_rule(case):
    make_cert, make_filter, message = SHARED_RULES[case]
    for build in (make_cert, make_filter):
        with pytest.raises(ParamError) as exc:
            build()
        assert str(exc.value) == message


def test_exp_poly_certificate_exact_and_shared_filters():
    p1 = ExpPolynomial(((2.0, (0,), (0.5j,)), (1.0, (0,), (-0.3j,))))
    p2 = ExpPolynomial(((-1j, (0,), (0.5j,)), (5.0, (0,), (-0.3j,))))
    c1, c2 = exp_poly_certificate(p1), exp_poly_certificate(p2)
    assert c1.exact and c2.exact
    assert np.array_equal(c1.filter(8).field.data, c2.filter(8).field.data)
    s = eval_exp_poly(p1, Box((-30,), (30,)))
    check_certificate(c1, s, Ts=(4, 8, 16), eval_radius=6)


def test_exp_poly_certificate_epsilon_degrades_gracefully():
    p = ExpPolynomial(((1.0, (1,), (0.0,)),))  # s_tau = tau
    s = eval_exp_poly(p, Box((-40,), (40,)))
    res = {}
    for eps in (1e-2, 1e-3):
        cert = exp_poly_certificate(p, epsilon=eps)
        assert not cert.exact
        res[eps] = reproduction_residual(cert.filter(12), s, Box((-8,), (8,)))
    assert res[1e-3] < res[1e-2]
    assert res[1e-3] < 0.05 * np.abs(s.restrict(Box.cube(1, 8)).data).max()


# ---------------------------------------------------------------- regular operators


def test_four_neighbor_is_regular():
    D = four_neighbor_averaging(2)
    taps = np.argwhere(D.field.data != 0) + np.array(D.field.box.lo)
    assert sorted(map(tuple, taps.tolist())) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert np.abs(D.field.data).sum() == pytest.approx(1.0)


def test_regular_operator_is_its_stencil_filter():
    # q_{alpha(l)} = w_l, two-sided on the cube of the largest reach
    offsets, weights = [(2, 0), (-2, 0), (0, 1), (0, -1)], [0.1, 0.1, 0.3j, 0.3]
    D = make_regular_operator(offsets, weights)
    assert (D.order, D.kappa, D.d) == (2, None, 2)
    expected = np.zeros((5, 5), dtype=complex)
    for (a, b), w in zip(offsets, weights):
        expected[a + 2, b + 2] = w
    assert np.array_equal(D.field.data, expected)


def test_repeated_offsets_rejected():
    # the stencil would sum the repeats into an operator of the second axis
    # alone, which breaks R.1, while the list passes every check
    with pytest.raises(ParamError, match="repeat"):
        make_regular_operator([(1, 0), (1, 0), (-1, 0), (-1, 0), (0, 1), (0, -1)],
                              [0.1, -0.1, 0.1, -0.1, 0.3, 0.3])


def test_dirichlet_operator_of_another_dimension_rejected():
    D = make_regular_operator([(1,), (-1,)], [0.5, 0.5])
    box = Box.cube(2, 4)
    with pytest.raises(ParamError, match="a 1-d operator for a 2-d box"):
        random_discrete_harmonic(D, box, Field(box, np.ones(box.shape)))


def test_regularity_violations():
    with pytest.raises(RegularityError) as e:
        make_regular_operator([(1, 0), (-1, 0), (0, 1), (0, -1)],
                              [0.5, 0.5, 0.25, 0.25])
    assert e.value.condition == "R.2a"
    with pytest.raises(RegularityError) as e:
        make_regular_operator([(1, 0), (-1, 0), (2, 0)], [0.3, 0.3, 0.2])
    assert e.value.condition == "R.1"
    with pytest.raises(RegularityError) as e:
        make_regular_operator([(1, 0), (0, 1)], [0.5, 0.5])
    assert e.value.condition == "R.2b"
    with pytest.raises(RegularityError) as e:
        make_regular_operator([(1, 0), (-1, 0), (0, 1), (0, -1)],
                              [0.5, 0.5, 0.0, 0.0])
    assert e.value.condition == "R.2"


# ---------------------------------------------------------------- harmonic filters


def saddle_field(radius):
    x = np.arange(-radius, radius + 1)
    return Field(Box.cube(2, radius),
                 (x[:, None] ** 2 - x[None, :] ** 2).astype(complex))


def test_harmonic_filter_n1_is_averaging_power():
    D = four_neighbor_averaging(2)
    q = harmonic_filter(D, 1, c24=1)
    # P_1 = 1, S_1 = Q, R_1 = Q^2 = (1 + 2 D + D^2)/4; at the origin the
    # identity gives 1/4 and the 4 two-step round trips of D^2 give 1/16
    assert q.order == 2
    assert coeff(q, (0, 0)) == pytest.approx(0.25 + 1 / 16)
    assert coeff(q, (1, 0)) == pytest.approx(0.5 / 4)


def test_harmonic_filter_reproduces_saddle():
    D = four_neighbor_averaging(2)
    s = saddle_field(24)
    for n in (1, 2, 3):
        q = harmonic_filter(D, n)
        ev = Box.cube(2, 24 - q.order)
        assert reproduction_residual(q, s, ev) < 1e-10 * np.abs(s.data).max()


def test_harmonic_filter_norm_recorded():
    D = four_neighbor_averaging(2)
    records = []
    for n in range(1, 6):
        q = harmonic_filter(D, n)
        records.append(q.l2() * (2 * q.order + 1))
    assert all(np.isfinite(records))


@pytest.mark.parametrize("n,c24", [(5, 2), (20, 1)])
def test_harmonic_filter_matches_exact_rational_reference(n, c24):
    # the monomial expansion lost about six digits at n = 20
    D = four_neighbor_averaging(2)
    q = harmonic_filter(D, n, c24)
    exact = harmonic_filter_exact(D, n, c24)
    assert q.field.data.shape == exact.shape
    assert np.abs(q.field.data - exact).max() <= 1e-13 * np.abs(exact).max()


def test_harmonic_filter_coefficients_sum_to_one():
    D = four_neighbor_averaging(2)
    for n in (1, 2, 4):
        q = harmonic_filter(D, n)
        assert q.field.data.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------- Dirichlet solver


def test_dirichlet_constant_boundary():
    D = four_neighbor_averaging(2)
    box = Box.cube(2, 5)
    bnd = Field(box, np.full(box.shape, 2.5 - 1j))
    sol = random_discrete_harmonic(D, box, bnd, tol=1e-12)
    assert np.abs(sol.data - (2.5 - 1j)).max() < 1e-10


def test_dirichlet_recovers_saddle():
    D = four_neighbor_averaging(2)
    box = Box.cube(2, 8)
    s = saddle_field(8)
    sol = random_discrete_harmonic(D, box, s, tol=1e-13)
    assert np.abs(sol.data - s.data).max() < 1e-10 * np.abs(s.data).max()


def test_dirichlet_linearity():
    D = four_neighbor_averaging(2)
    box = Box.cube(2, 4)
    g1 = Field(box, RNG.standard_normal(box.shape))
    g2 = Field(box, RNG.standard_normal(box.shape))
    a, b = 2.0, -0.5 + 1j
    s12 = random_discrete_harmonic(D, box, Field(box, a * g1.data + b * g2.data),
                                   tol=1e-13)
    s1 = random_discrete_harmonic(D, box, g1, tol=1e-13)
    s2 = random_discrete_harmonic(D, box, g2, tol=1e-13)
    assert np.abs(s12.data - (a * s1.data + b * s2.data)).max() < 1e-9


def test_dirichlet_boundary_must_cover_box():
    D = four_neighbor_averaging(2)
    box = Box.cube(2, 4)
    short = Box((-4, -4), (4, 3))
    with pytest.raises(DomainError):
        random_discrete_harmonic(D, box, Field(short, np.ones(short.shape)))


def test_dirichlet_stencil_of_unequal_reach():
    # reach 2 on the first axis and 1 on the second: the cube-padded stencil
    # reads past the box on the second axis, where its taps are zero
    offsets, weights = [(2, 0), (-2, 0), (0, 1), (0, -1)], [0.25] * 4
    D = make_regular_operator(offsets, weights)
    box = Box.cube(2, 5)
    sol = random_discrete_harmonic(D, box, Field(box, RNG.standard_normal(box.shape)),
                                   tol=1e-10)
    assert sol.box == box
    inner = harmonic_interior(D, box)
    Df = sum(w * sol.restrict(inner.translate(tuple(-a for a in off))).data
             for off, w in zip(offsets, weights))
    assert np.abs(Df - sol.restrict(inner).data).max() <= 1e-10


def test_harmonic_interior():
    D = four_neighbor_averaging(2)
    inner = harmonic_interior(D, Box.cube(2, 3))
    assert inner == Box.cube(2, 2)
