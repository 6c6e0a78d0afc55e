"""Signal generators, certificate filters and the certificate calculus."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridfilt import (
    Box,
    DomainError,
    Field,
    Filter,
    ParamError,
    RegularityError,
    filter_tensor,
)
from gridfilt.signals import (
    Certificate,
    ExpPolynomial,
    combine_certificates,
    eval_exp_poly,
    exp_certificate_1d,
    exp_poly_certificate,
    four_neighbor_averaging,
    harmonic_filter,
    harmonic_interior,
    lift_certificate,
    make_regular_operator,
    modulate_certificate,
    poly_certificate_1d,
    predictor_exp_certificate,
    random_discrete_harmonic,
    reproduction_residual,
    simple_exp_certificate,
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
    q = exp_certificate_1d(0.0).filter(2)
    assert coeff(q, (0,)) == pytest.approx(1 / 3)
    assert coeff(q, (-1,)) == pytest.approx(1 / 3)
    assert coeff(q, (-2,)) == pytest.approx(1 / 3)
    assert coeff(q, (1,)) == 0 and coeff(q, (2,)) == 0


def test_exp_filter_pi_freq():
    q = exp_certificate_1d(1j * np.pi).filter(1)
    assert abs(coeff(q, (0,)) - 0.5) < 1e-15
    assert abs(coeff(q, (-1,)) + 0.5) < 1e-12
    s = exp_field_1d(1j * np.pi, 8)
    assert reproduction_residual(q, s, Box((-5,), (5,))) < 1e-14


@pytest.mark.parametrize("omega", [0.0, 1.3j, -2.0j, 0.4 + 1.0j, -0.7 - 0.3j])
def test_exp_filter_reproduces_and_norm(omega):
    for T in (1, 3, 9):
        q = exp_certificate_1d(omega).filter(T)
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
    qa = simple_exp_certificate([(0.5j,), (1.0j,)]).filter(3)
    qb = filter_tensor(exp_certificate_1d(0.5j).filter(3),
                       exp_certificate_1d(1.0j).filter(3))
    assert np.array_equal(qa.field.data, qb.field.data)


def test_simple_exp_two_freqs():
    q = simple_exp_certificate([(0.0, 1j * np.pi)]).filter(4)
    t = np.arange(-16, 17)
    for a, b in ((1.0, 0.0), (0.0, 1.0), (0.7, -0.3 + 1j)):
        s = Field(Box((-16,), (16,)), a + b * (-1.0 + 0j) ** np.abs(t) * np.sign(0 * t + 1))
        s = Field(Box((-16,), (16,)), a + b * np.exp(1j * np.pi * t))
        assert reproduction_residual(q, s, Box((-8,), (8,))) < 1e-10


def test_simple_exp_random_span():
    freqs = (0.3j, -1.1j, 0.1 + 0.2j)
    q = simple_exp_certificate([freqs]).filter(9)
    t = np.arange(-30, 31)
    coeffs = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
    s = Field(Box((-30,), (30,)),
              sum(c * np.exp(w * t) for c, w in zip(coeffs, freqs)))
    scale = np.abs(s.data).max()
    assert reproduction_residual(q, s, Box((-10,), (10,))) < 1e-9 * scale


def test_simple_exp_filter_is_the_impulse_below_the_largest_set_size():
    # below 3, the three-frequency axis cannot budget an order of at least 1
    # per factor
    cert = simple_exp_certificate([(0.0, 1.0j, 2.0j), (0.5j,)])
    impulse = Filter.impulse(2)
    for T in range(3):
        q = cert.filter(T)
        assert q.order == 0
        assert np.array_equal(q.field.data, impulse.field.data)
    assert cert.filter(3).order == 3


# ---------------------------------------------------------------- poly filters


def test_poly_filter_m1_t1():
    q = poly_certificate_1d(1).filter(1)
    assert np.allclose(q.field.data, 1 / 3)
    assert q.l2() == pytest.approx(3 ** -0.5)


def test_poly_filter_m2_t1():
    q = poly_certificate_1d(2).filter(1)
    assert np.allclose(q.field.data, [0.0, 1.0, 0.0], atol=1e-12)


def test_poly_filter_reproduces():
    for m, T in ((1, 2), (2, 4), (3, 8), (4, 11)):
        q = poly_certificate_1d(m).filter(T)
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
            q = poly_certificate_1d(m).filter(T)
            assert q.l2() <= 16 * m * (2 * T + 1) ** -0.5 * (1 + 1e-12)


def test_poly_filter_is_the_impulse_below_2T_plus_1_equal_m_plus_1():
    impulse = Filter.impulse(1)
    for m in range(1, 6):
        cert = poly_certificate_1d(m)
        for T in range(m // 2 + 2):
            q = cert.filter(T)
            if 2 * T + 1 < m + 1:
                assert q.order == 0
                assert np.array_equal(q.field.data, impulse.field.data)
            else:  # from 2T+1 = m+1 on, the moment system is solved
                assert q.order == T and T > 0
                s = Field(Box.cube(1, 2 * T), np.arange(-2 * T, 2 * T + 1.0) ** m)
                assert reproduction_residual(q, s, Box.cube(1, T)) < 1e-9 * (2 * T) ** m


# ---------------------------------------------------------------- predictors


def test_predictor_constant():
    q = predictor_exp_certificate(0.0, 1).filter(2)
    assert q.kappa == 1
    assert np.allclose(q.field.data, 0.5)
    s = Field(Box((-8,), (8,)), np.ones(17, dtype=complex))
    assert reproduction_residual(q, s, Box((-5,), (5,))) < 1e-15


def test_predictor_unit_modulus_norm():
    for omega0 in (0.4, -2.0):
        for T, kappa in ((3, 0), (5, 2)):
            q = predictor_exp_certificate(1j * omega0, kappa).filter(T)
            assert q.l2() == pytest.approx((T - kappa + 1) ** -0.5)


def test_predictor_rejects_unstable():
    with pytest.raises(ParamError):
        predictor_exp_certificate(0.1, 1)


# ---------------------------------------------------------------- certificate calculus


def check_certificate(cert: Certificate, signal: Field, Ts, eval_radius: int,
                      anchor=None, rel_tol=1e-9):
    """Reproduction and norm contract of a certificate on a test field, the
    residual to ``rel_tol`` times the field's largest modulus (at least 1)."""
    d = cert.d
    anchor = anchor or (0,) * d
    scale = max(1.0, float(np.abs(signal.data).max()))
    for T in Ts:
        q = cert.filter(T)
        ev = Box.cube(d, eval_radius, anchor)
        res = reproduction_residual(q, signal, ev)
        assert res <= cert.theta * (2 * T + 1) ** (-d / 2) + rel_tol * scale
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
    inexact = Certificate(1, 0.5, 2.0, exp_certificate_1d(0.0).make)
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


# each argument rule is stated once, in the certificate's constructor, so a
# bad argument is refused when the certificate is built; its filter builder
# takes only checked arguments: (certificate, message)
SHARED_RULES = {
    "unstable": (lambda: predictor_exp_certificate(0.1, 1),
                 "quasi-stability requires Re(omega) <= 0, got (0.1+0j)"),
    "negative_degree": (lambda: poly_certificate_1d(-1),
                        "degree must be nonnegative"),
    "no_axis": (lambda: simple_exp_certificate([]), "need at least one axis"),
    "empty_set": (lambda: simple_exp_certificate([[0.3j], []]),
                  "frequency set for axis 1 is empty"),
    "repeats": (lambda: simple_exp_certificate([[0.3j, 0.3j]]),
                "frequency set for axis 0 has repeats"),
}


@pytest.mark.parametrize("case", sorted(SHARED_RULES))
def test_certificate_and_builder_share_each_rule(case):
    make_cert, message = SHARED_RULES[case]
    with pytest.raises(ParamError) as exc:
        make_cert()
    assert str(exc.value) == message


def test_exp_poly_certificate_exact_and_shared_filters():
    p1 = ExpPolynomial(((2.0, (0,), (0.5j,)), (1.0, (0,), (-0.3j,))))
    p2 = ExpPolynomial(((-1j, (0,), (0.5j,)), (5.0, (0,), (-0.3j,))))
    c1, c2 = exp_poly_certificate(p1), exp_poly_certificate(p2)
    assert np.array_equal(c1.filter(8).field.data, c2.filter(8).field.data)
    s = eval_exp_poly(p1, Box((-30,), (30,)))
    check_certificate(c1, s, Ts=(4, 8, 16), eval_radius=6)


# classes with polynomial factors, each reproduced to roundoff by the
# minimum-norm filter under its declared rho
POLY_FACTOR_CLASSES = (
    ((1.0, (1,), (0.9j,)), (0.5, (0,), (0.3j,))),
    ((1.0, (2,), (0.4j,)),),
    ((1.0, (1,), (-0.05 + 0.7j,)), (0.7 - 0.2j, (0,), (-1.1j,))),
    ((1.0, (1, 1), (0.4j, 0.25j)),),
)


def test_exp_poly_certificate_reproduces_polynomial_factors():
    for terms in POLY_FACTOR_CLASSES:
        p = ExpPolynomial(terms)
        s = eval_exp_poly(p, Box.cube(p.d, 64))
        check_certificate(exp_poly_certificate(p), s, Ts=(2, 4, 8, 16),
                          eval_radius=48, rel_tol=1e-12)


# field-d2's signal in perfbench/workloads.py, and a d=1 sum of two frequencies
PURE_SUMS = (
    ((1.0, (0, 0), (0.4j, 0.25j)),),
    ((1.0, (0,), (0.5j,)), (0.5 - 0.3j, (0,), (-1.2j,))),
)


@pytest.mark.parametrize("terms", PURE_SUMS, ids=("field_d2", "two_frequencies"))
def test_exp_poly_certificate_of_a_pure_sum_is_the_simple_exp_one(terms):
    # the benchmark's denoise input reads this certificate's rho
    p = ExpPolynomial(terms)
    cert, simple = exp_poly_certificate(p), simple_exp_certificate(p.freq_sets())
    assert cert.rho == simple.rho
    for T in (2, 4, 8):
        assert np.array_equal(cert.filter(T).field.data, simple.filter(T).field.data)


# ---------------------------------------------------------------- the calculus at random

# partial frequencies: imaginary parts 0.37 apart in (-pi, pi), so no two of
# one set come close, not even modulo 2 pi
_IM = st.integers(-6, 6).map(lambda k: 0.37 * k)
_RE = st.sampled_from((-0.1, -0.05, 0.0, 0.05, 0.1))
_COEFF = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0)


@st.composite
def _certificate_trees(draw, d, kappa, depth):
    """A certificate of dimension ``d`` and lag ``kappa`` from the calculus,
    nested at most ``depth`` deep (a lag in d=2 needs a lift or a tensor),
    and the terms of a random member of its class: the nodes act on the
    member's terms as on the class."""
    kinds = []
    if kappa is None:
        kinds += ["exp", "poly"] * (d == 1) + ["simple_exp", "exp_poly"]
    elif d == 1:
        kinds.append("predictor_exp")
    if depth > 0:
        kinds += ["combine", "modulate"]
    if d == 2 and (depth > 0 or kappa is not None):
        kinds += ["lift", "tensor"]
    kind = draw(st.sampled_from(kinds))
    if kind in ("exp", "predictor_exp"):
        w = complex(draw(_RE), draw(_IM))
        if kind == "exp":
            cert = exp_certificate_1d(w)
        else:
            w = complex(-abs(w.real), w.imag)  # quasi-stable
            cert = predictor_exp_certificate(w, kappa)
        return cert, ((draw(_COEFF), (0,), (w,)),)
    if kind == "poly":
        m = draw(st.integers(0, 3))
        return poly_certificate_1d(m), tuple((draw(_COEFF), (k,), (0j,))
                                             for k in range(m + 1))
    if kind == "simple_exp":
        sets = [[complex(draw(_RE), im)
                 for im in draw(st.lists(_IM, min_size=1, max_size=2, unique=True))]
                for _ in range(d)]
        cert, degrees = simple_exp_certificate(sets), (0,) * d
    elif kind == "exp_poly":  # with a polynomial factor on each term's first axis
        p = ExpPolynomial(tuple(
            (1.0, tuple(draw(st.integers(j == 0, 2)) for j in range(d)),
             tuple(complex(draw(_RE), draw(_IM)) for _ in range(d)))
            for _ in range(draw(st.integers(1, 2)))))
        cert, sets, degrees = exp_poly_certificate(p), p.freq_sets(), p.max_degrees()
    if kind in ("simple_exp", "exp_poly"):
        # every monomial of the class: per axis, tau^k exp(omega tau) with
        # omega in the axis's set and k up to its degree
        axes = [[(k, w) for w in fs for k in range(m + 1)]
                for fs, m in zip(sets, degrees)]
        return cert, tuple((draw(_COEFF), tuple(k for k, _ in mono),
                            tuple(w for _, w in mono))
                           for mono in itertools.product(*axes))
    sub = max(depth - 1, 0)
    if kind == "combine":
        parts = [draw(_certificate_trees(d, kappa, sub)) for _ in range(2)]
        lambdas = [draw(_COEFF) for _ in parts]
        return combine_certificates([c for c, _ in parts], lambdas), tuple(
            (l * c, a, w) for l, (_, terms) in zip(lambdas, parts)
            for c, a, w in terms)
    if kind == "modulate":
        base, terms = draw(_certificate_trees(d, kappa, sub))
        omega = [draw(st.floats(-3.0, 3.0)) for _ in range(d)]
        return modulate_certificate(base, omega), tuple(
            (c, a, tuple(w + 1j * o for w, o in zip(ws, omega))) for c, a, ws in terms)
    if kind == "lift":
        base, terms = draw(_certificate_trees(1, kappa, sub))
        return lift_certificate(base, 2), tuple((c, a + (0,), w + (0j,))
                                                for c, a, w in terms)
    (a, a_terms), (b, b_terms) = (draw(_certificate_trees(1, kappa, sub))
                                  for _ in range(2))
    return tensor_certificate(a, b), tuple(
        (c1 * c2, a1 + a2, w1 + w2) for c1, a1, w1 in a_terms for c2, a2, w2 in b_terms)


@st.composite
def _calculus_cases(draw):
    d, kappa = draw(st.integers(1, 2)), draw(st.none() | st.integers(0, 2))
    cert, terms = draw(_certificate_trees(d, kappa, draw(st.integers(0, 2))))
    return cert, ExpPolynomial(terms), tuple(draw(st.integers(-3, 3)) for _ in range(d))


@given(case=_calculus_cases())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_certificate_calculus_at_random(case):
    # every order from T0 to 8: the norm bound, the order and lag, and
    # reproduction of a member of the class on a cube about the anchor
    cert, member, anchor = case
    d = cert.d
    s = eval_exp_poly(member, Box.cube(d, 13))  # |anchor| + cube + order
    scale = max(1.0, float(np.abs(s.data).max()))
    for T in range(cert.T0, 9):
        q = cert.filter(T)
        assert q.order <= T and q.kappa == cert.kappa
        assert q.l2() <= cert.rho * (2 * T + 1) ** (-d / 2) * (1 + 1e-9)
        assert reproduction_residual(q, s, Box.cube(d, 2, anchor)) <= 1e-12 * scale


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


# one of each symmetric pair of offsets within reach 2
HALF_OFFSETS = [(a, b) for a in range(3) for b in range(-2, 3) if (a, b) > (0, 0)]


@st.composite
def _harmonic_cases(draw):
    """A random d=2 regular operator: symmetric offset pairs within reach 1
    or 2 that span R^2, with positive weights whose moduli sum to 0.9 to 1; and a
    random complex boundary's seed, and the filter's n and c24."""
    reach = draw(st.sampled_from((1, 2)))
    pairs = draw(st.lists(st.sampled_from([off for off in HALF_OFFSETS
                                           if max(map(abs, off)) <= reach]),
                          min_size=2, max_size=4, unique=True))
    assume(np.linalg.matrix_rank(np.array(pairs, dtype=float)) == 2)
    w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=len(pairs),
                               max_size=len(pairs))))
    w *= draw(st.floats(0.9, 1.0)) / (2 * w.sum())
    offsets = [off for a, b in pairs for off in ((a, b), (-a, -b))]
    D = make_regular_operator(offsets, np.repeat(w, 2))
    return (D, draw(st.integers(0, 2 ** 32 - 1)), draw(st.sampled_from((1, 2))),
            draw(st.sampled_from((1, 2))))


@given(case=_harmonic_cases())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_harmonic_filter_reproduces_random_harmonic_fields(case):
    # q = R_n(D) reproduces a field fixed by D wherever the iterated stencil
    # reads of R_n's powers of D stay in the interior, that is on the cube
    # whose points t keep t +- (order(q) - reach(D)) inside it. The field
    # solves f = D f there only to the Jacobi tolerance tol, so |D^k f - f|
    # <= k tol; for n <= 2 the monomial coefficients of R_n are positive and
    # sum to 1, so the residual is at most deg(R_n) tol
    D, seed, n, c24 = case
    q = harmonic_filter(D, n, c24)
    box = Box.cube(2, 10)
    radius = min(harmonic_interior(D, box).hi) - (q.order - D.order)
    assume(radius >= 0)
    rng = np.random.default_rng(seed)
    boundary = Field(box, rng.standard_normal(box.shape)
                     + 1j * rng.standard_normal(box.shape))
    s = random_discrete_harmonic(D, box, boundary, tol=1e-10)
    assert reproduction_residual(q, s, Box.cube(2, radius)) <= \
        q.order // D.order * 1e-10


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
