"""Min-max solver: instance building, optimality, duality, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfilt import (
    Box,
    DomainError,
    Field,
    Filter,
    ParamError,
    convolve,
    filter_product,
)
from gridfilt.fields import dft_window, idft_windows
from gridfilt.harness import NoiseSpec, sample_noise
from gridfilt.signals import (
    ExpPolynomial,
    eval_exp_poly,
    exp_certificate_1d,
    exp_poly_certificate,
    predictor_exp_certificate,
)
from gridfilt.solver import (
    CHECK_EVERY,
    _Geometry,
    build_instance,
    dual_lower_bound,
    objective,
    project_l1_ball,
    solve,
    solve_batch,
)

from oracles import (
    dense_dft,
    design_matrix,
    points,
    project_l1_bisect,
    project_l1_sort,
    subgradient_minimize,
    translate,
)

RNG = np.random.default_rng(90210)


def noisy_field(box: Box, sigma=1.0, mean=0.0, rng=RNG) -> Field:
    data = mean + sigma * (rng.standard_normal(box.shape)
                           + 1j * rng.standard_normal(box.shape))
    return Field(box, data)


def estimate_at(phi: Filter, y: Field, t) -> complex:
    return convolve(phi, y, Box(t, t)).value(t)


# ---------------------------------------------------------------- l1 projection


def test_project_l1_inside_ball_unchanged():
    z = np.array([0.1 + 0.2j, -0.05j])
    out = project_l1_ball(z, 1.0)
    assert np.array_equal(out, z)


def test_project_l1_shrinks_to_radius():
    for _ in range(50):
        z = RNG.standard_normal(12) + 1j * RNG.standard_normal(12)
        out = project_l1_ball(z, 0.7)
        assert np.abs(out).sum() <= 0.7 * (1 + 1e-12)
        # optimality: the projection is the closest ball point (spot check
        # against a few perturbations that stay feasible)
        for _ in range(10):
            p = project_l1_ball(out + 0.01 * (RNG.standard_normal(12)
                                              + 1j * RNG.standard_normal(12)), 0.7)
            assert np.linalg.norm(z - out) <= np.linalg.norm(z - p) + 1e-9


def test_project_l1_phases_preserved():
    z = np.array([3.0 * np.exp(1j * 0.3), 2.0 * np.exp(-1j * 2.0), 0.0])
    out = project_l1_ball(z, 1.0)
    nz = np.abs(out) > 0
    assert np.allclose(np.angle(out[nz]), np.angle(z[nz]))


def test_project_l1_rowwise_matches_single_vector():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    z[1] *= 0.01          # inside the ball
    z[2] = 0              # zero row
    z[3, :4] = 0          # zero entries
    for radius in (0.7, 0.0):
        out = project_l1_ball(z, radius)
        for k in range(len(z)):
            assert np.array_equal(out[k], project_l1_sort(z[k], radius))
            assert np.array_equal(out[k], project_l1_ball(z[k], radius))
    assert np.array_equal(project_l1_ball(z[1:3], 0.7), z[1:3])
    with pytest.raises(ParamError):
        project_l1_ball(z, -1.0)


@pytest.mark.parametrize("weights", ["unit", "pow2", "uniform"])
def test_project_l1_weighted_matches_bisection_oracle(weights):
    rng = np.random.default_rng(11)
    B, n = 12, 15
    z = rng.standard_normal((B, n)) + 1j * rng.standard_normal((B, n))
    z[0] *= 1e-3          # inside the ball
    z[1] = 0              # zero row
    z[2, ::3] = 0         # zero moduli
    z[3] *= 100.0         # far outside
    w = {"unit": np.ones((B, n)),
         "pow2": np.ldexp(1.0, rng.integers(-3, 4, (B, n))),
         "uniform": rng.uniform(0.1, 3.0, (B, n))}[weights]
    for radius in (0.0, 0.3, 2.0):
        out = project_l1_ball(z, radius, w)
        ref = project_l1_bisect(z, radius, weights=w)
        assert np.abs(out - ref).max() <= 1e-12 * max(1.0, np.abs(z).max())
        assert np.all((w * np.abs(out)).sum(axis=1) <= radius * (1 + 1e-12))
        inside = (w * np.abs(z)).sum(axis=1) <= radius
        assert np.array_equal(out[inside], z[inside])
        for k in range(B):
            assert np.array_equal(out[k], project_l1_ball(z[k], radius, w[k]))


def test_project_l1_unit_weights_bit_for_bit():
    rng = np.random.default_rng(12)
    z = rng.standard_normal((8, 21)) + 1j * rng.standard_normal((8, 21))
    z[1, :5] = 0
    z[2] *= 1e-3
    for radius in (0.0, 0.5, 3.0):
        out = project_l1_ball(z, radius, np.ones(z.shape))
        assert np.array_equal(out, project_l1_ball(z, radius))
        for k in range(len(z)):
            assert np.array_equal(out[k], project_l1_sort(z[k], radius))


# ---------------------------------------------------------------- instances


def test_l1_bound_value():
    y = noisy_field(Box((-32,), (32,)))
    inst = build_instance(y, (0,), 8, 2.0)
    assert inst.l1_bound == pytest.approx(math.sqrt(2) * 4 / math.sqrt(17))


def test_instance_param_errors():
    y = noisy_field(Box((-8,), (8,)))
    with pytest.raises(ParamError):
        build_instance(y, (0,), 2, 0.5)
    with pytest.raises(ParamError):
        build_instance(y, (0,), 0, 1.0)
    with pytest.raises(DomainError):
        build_instance(y, (2,), 2, 1.0)  # needs [-6, 10]
    with pytest.raises(ParamError):
        build_instance(y, (0,), 1, 1.0, 3)  # kappa > 2 T_alg
    with pytest.raises(DomainError):
        build_instance(noisy_field(Box((-3,), (0,))), (0,), 1, 1.0, 0)


@pytest.mark.parametrize("rho", [math.nan, math.inf])
def test_instance_rejects_non_finite_rho(rho):
    y = Field(Box((-8,), (8,)), np.ones(17, dtype=complex))
    with pytest.raises(ParamError, match="rho must be finite"):
        build_instance(y, (0,), 2, rho)
    with pytest.raises(ParamError, match="rho must be finite"):
        build_instance(y, (0,), 1, rho, 1)


def test_prediction_kappa0_support():
    y = noisy_field(Box((-8,), (0,)))
    inst = build_instance(y, (0,), 2, 1.0, 0)
    assert inst.support_box == Box((0,), (4,))
    assert inst.residual_box == Box((-4,), (0,))
    assert inst.y_win.box == Box((-8,), (0,))


# ---------------------------------------------------------------- objective


def test_objective_of_zero_filter_is_window_sup():
    y = noisy_field(Box((-8,), (8,)))
    inst = build_instance(y, (0,), 2, 1.0)
    zero = Filter.two_sided(1, 4, np.zeros(9))
    expected = float(np.abs(dft_window(y.restrict(Box.cube(1, 4)).data, 4)).max())
    assert objective(inst, zero) == pytest.approx(expected, rel=1e-12)


def test_objective_constant_averaging_zero():
    y = Field(Box((-8,), (8,)), np.full(17, -1.5 + 2j))
    inst = build_instance(y, (0,), 1, 1.0)
    avg = Filter.two_sided(1, 2, np.full(5, 0.2))
    # the full averaging filter is feasible at rho = 1 and kills the residual
    assert avg.star_norm(2, 1) == pytest.approx(5 ** -0.5)
    assert avg.star_norm(2, 1) <= inst.l1_bound
    assert objective(inst, avg) < 1e-13
    res = solve(inst, tol=1e-9)
    assert res.objective <= 1e-9


def test_objective_convexity():
    y = noisy_field(Box((-8,), (8,)))
    inst = build_instance(y, (0,), 2, 1.0)
    for _ in range(20):
        p1 = Filter.two_sided(1, 4, RNG.standard_normal(9) + 1j * RNG.standard_normal(9))
        p2 = Filter.two_sided(1, 4, RNG.standard_normal(9) + 1j * RNG.standard_normal(9))
        mid = Filter.two_sided(1, 4, 0.5 * (p1.field.data + p2.field.data))
        assert objective(inst, mid) <= \
            0.5 * objective(inst, p1) + 0.5 * objective(inst, p2) + 1e-12


def test_objective_support_violation():
    y = noisy_field(Box((-8,), (0,)))
    inst = build_instance(y, (0,), 2, 1.0, 1)
    bad = Filter.two_sided(1, 4, np.ones(9))
    with pytest.raises(DomainError):
        objective(inst, bad)


# ---------------------------------------------------------------- solve


def test_solve_zero_observations():
    y = Field(Box((-8,), (8,)), np.zeros(17))
    res = solve(build_instance(y, (0,), 2, 1.0))
    assert res.objective == 0.0 and res.dual_bound == 0.0 and res.gap == 0.0
    assert np.all(res.phi.field.data == 0)


def test_solve_feasibility_and_gap():
    for d, T_alg in ((1, 1), (1, 3), (2, 1)):
        y = noisy_field(Box.cube(d, 4 * T_alg))
        inst = build_instance(y, (0,) * d, T_alg, math.sqrt(2))
        res = solve(inst, tol=1e-7)
        assert res.phi.star_norm(inst.W, 1) <= inst.l1_bound * (1 + 1e-9)
        assert res.gap <= 1e-7
        assert res.dual_bound <= res.objective + 1e-12
        assert objective(inst, res.phi) == pytest.approx(res.objective, abs=1e-12)


def test_solve_dominates_references():
    cert = exp_certificate_1d(0.0)
    for trial in range(5):
        y = noisy_field(Box((-8,), (8,)), sigma=0.3, mean=1.0)
        inst = build_instance(y, (0,), 2, math.sqrt(2))
        res = solve(inst, tol=1e-7)
        q = cert.filter(2)
        r = filter_product(q, q)
        assert r.star_norm(4, 1) <= inst.l1_bound * (1 + 1e-12)
        assert res.objective <= objective(inst, r) + 1e-7
        for _ in range(20):
            raw = RNG.standard_normal(9) + 1j * RNG.standard_normal(9)
            spec = Field(Box.cube(1, 4), project_l1_ball(
                np.fft.fft(np.zeros(9)) + raw, inst.l1_bound))
            ref = Filter.two_sided(1, 4, idft_windows(spec.data, 4, 1))
            assert ref.star_norm(4, 1) <= inst.l1_bound * (1 + 1e-9)
            assert res.objective <= objective(inst, ref) + 1e-7


def test_solve_matches_subgradient_oracle():
    for trial in range(3):
        y = noisy_field(Box((-4,), (4,)), sigma=1.0, mean=0.5 * trial)
        inst = build_instance(y, (0,), 1, 1.0)
        res = solve(inst, tol=1e-8)
        oracle = subgradient_minimize(inst, starts=50, iters=8000, seed=trial)
        assert abs(res.objective - oracle) < 1e-4
        assert res.objective <= oracle + 1e-8  # solver certifies optimality


def test_solve_shift_covariance():
    y = noisy_field(Box((-20,), (20,)))
    t = (5,)
    inst_t = build_instance(y, t, 2, math.sqrt(2))
    inst_0 = build_instance(translate(y, (-5,)), (0,), 2, math.sqrt(2))
    r_t, r_0 = solve(inst_t), solve(inst_0)
    assert np.array_equal(r_t.phi.field.data, r_0.phi.field.data)
    assert r_t.objective == r_0.objective


def test_solve_deterministic():
    y = noisy_field(Box.cube(2, 8))
    inst = build_instance(y, (0, 0), 2, 1.0)
    r1, r2 = solve(inst), solve(inst)
    assert np.array_equal(r1.phi.field.data, r2.phi.field.data)
    assert (r1.objective, r1.dual_bound, r1.gap, r1.iterations) == \
        (r2.objective, r2.dual_bound, r2.gap, r2.iterations)


def test_solve_budget_miss_returns_flagged_result():
    y = noisy_field(Box((-16,), (16,)), sigma=0.1, mean=1.0)
    inst = build_instance(y, (0,), 4, math.sqrt(2))
    res = solve(inst, tol=1e-12, max_iter=50)
    assert not res.converged and res.iterations == 50 and res.gap > 1e-12
    assert res.phi.star_norm(inst.W, 1) <= inst.l1_bound * (1 + 1e-9)


def test_converged_is_the_gap_rule_for_every_stop_kind():
    # one batch holds an instance that converges inside its budget, one that
    # misses it and a zero residual window; each flag is the stopping rule's
    # verdict on the gap, and the gap the difference of the two bounds
    rng = np.random.default_rng(1)
    box = Box.cube(1, 8)
    ys = [Field(box, 1.0 + sigma * (rng.standard_normal(17)
                                    + 1j * rng.standard_normal(17)))
          for sigma in (0.01, 1.0)] + [Field(box, np.zeros(17))]
    insts = [build_instance(y, (0,), 2, math.sqrt(2)) for y in ys]
    tol, max_iter = 1e-3, 100
    converged, missed, zero = solve_batch(insts, tol=tol, max_iter=max_iter)
    assert converged.converged and converged.iterations < max_iter
    assert not missed.converged and missed.iterations == max_iter
    assert zero.converged and zero.iterations == 0
    for res in (converged, missed, zero):
        assert res.converged == (res.gap <= tol)
        assert res.gap == res.objective - res.dual_bound


# ---------------------------------------------------------------- duality


def test_dual_bound_zero_vector():
    y = noisy_field(Box((-8,), (8,)))
    inst = build_instance(y, (0,), 2, 1.0)
    u0 = Field(Box.cube(1, 4), np.zeros(9))
    assert dual_lower_bound(inst, u0) == 0.0


def test_dual_bound_rejects_large_u():
    y = noisy_field(Box((-8,), (8,)))
    inst = build_instance(y, (0,), 2, 1.0)
    with pytest.raises(ParamError):
        dual_lower_bound(inst, Field(Box.cube(1, 4), np.ones(9)))


def test_dual_bound_weak_duality_random():
    y = noisy_field(Box((-8,), (8,)))
    inst = build_instance(y, (0,), 2, 1.0)
    opt = solve(inst, tol=1e-8).objective
    for _ in range(25):
        raw = RNG.standard_normal(9) + 1j * RNG.standard_normal(9)
        u = Field(Box.cube(1, 4), project_l1_ball(raw, 1.0))
        assert dual_lower_bound(inst, u) <= opt + 1e-8


def test_dual_bound_at_solver_iterate_is_tight():
    y = noisy_field(Box((-8,), (8,)), sigma=0.5, mean=1.0)
    inst = build_instance(y, (0,), 2, math.sqrt(2))
    res = solve(inst, tol=1e-7)
    assert dual_lower_bound(inst, res.dual_u) >= res.objective - 1e-6
    assert np.all(res.dual_w.data == 0)
    assert dual_lower_bound(inst, res.dual_u, res.dual_w) == \
        pytest.approx(res.dual_bound, rel=1e-12)


@pytest.mark.parametrize("d,T,max_iter", [(1, 2, 50), (1, 4, 20000), (2, 1, 20000)])
def test_filtering_dual_pair_reproduces_reported_bound_exactly(d, T, max_iter):
    # the solver evaluates D on its equilibrated operator; the power-of-two
    # scales make that the unscaled program's bound bit for bit
    rng = np.random.default_rng(40 + d + T)
    y = _field(rng, Box.cube(d, 4 * T), 0.3, 1.0)
    inst = build_instance(y, (0,) * d, T, math.sqrt(2))
    res = solve(inst, tol=1e-7, max_iter=max_iter)
    assert res.dual_bound < res.objective
    assert dual_lower_bound(inst, res.dual_u, res.dual_w) == res.dual_bound


def _prediction_instance(d, T, kappa, seed, rho=2.0):
    rng = np.random.default_rng(seed)
    box = Box((-4 * T,) * d, (-kappa,) * d)
    return build_instance(_field(rng, box, 0.5, 1.0), (0,) * d, T, rho, kappa)


@pytest.mark.parametrize("d,T,kappa", [(1, 2, 0), (1, 2, 1), (1, 4, 1),
                                       (2, 1, 0), (2, 1, 1)])
def test_prediction_dual_pair_reproduces_reported_bound(d, T, kappa):
    # converged or not, the returned (u, w) certifies the reported bound of
    # the true program, not of the support relaxation
    inst = _prediction_instance(d, T, kappa, 31 + 10 * d + kappa)
    for max_iter in (50, 20000):
        res = solve_batch([inst], tol=1e-7, max_iter=max_iter)[0]
        assert res.dual_w.box == Box.cube(d, inst.W)
        assert np.all(res.dual_w.restrict(inst.support_box).data == 0)
        assert dual_lower_bound(inst, res.dual_u, res.dual_w) == \
            pytest.approx(res.dual_bound, rel=1e-12)
        assert dual_lower_bound(inst, res.dual_u) <= res.dual_bound + 1e-12
    assert res.converged


def test_prediction_weak_duality_against_oracle():
    inst = _prediction_instance(1, 1, 1, 8, rho=1.0)
    res = solve(inst, tol=1e-8)
    # the multiplier matters here: the relaxed bound is far below the optimum
    assert dual_lower_bound(inst, res.dual_u) < res.dual_bound - 0.01
    # the oracle minimises over feasible filters only: an upper bound on the
    # optimum, whatever its accuracy
    upper = subgradient_minimize(inst, starts=20, iters=3000)
    assert res.dual_bound <= upper + 1e-12
    assert upper <= res.objective + 1e-4
    assert dual_lower_bound(inst, res.dual_u, res.dual_w) <= upper + 1e-12
    rng = np.random.default_rng(9)
    n = 2 * inst.W + 1
    off = np.ones(n, dtype=bool)
    off[inst.support_box.slices_in(res.dual_w.box)] = False
    for scale in (0.01, 0.1, 1.0):
        for _ in range(10):
            u = Field(Box.cube(1, inst.W), project_l1_ball(
                res.dual_u.data + scale * (rng.standard_normal(n)
                                             + 1j * rng.standard_normal(n)), 1.0))
            w = res.dual_w.data + scale * off * (rng.standard_normal(n)
                                                 + 1j * rng.standard_normal(n))
            assert dual_lower_bound(inst, u, Field(res.dual_w.box, w)) <= upper + 1e-12
    for s in np.linspace(0.0, 2.0, 9):
        w = Field(res.dual_w.box, s * res.dual_w.data)
        assert dual_lower_bound(inst, res.dual_u, w) <= upper + 1e-12


def test_dual_bound_rejects_multiplier_on_support():
    inst = _prediction_instance(1, 2, 1, 5)
    u = Field(Box.cube(1, inst.W), np.zeros(2 * inst.W + 1))
    window = Box.cube(1, inst.W)
    w = np.zeros(2 * inst.W + 1, dtype=complex)
    w[0] = 1.0                   # nu = -W, off the support
    assert dual_lower_bound(inst, u, Field(window, w)) <= 0.0
    w[inst.W + inst.kappa] = 1e-3   # nu = kappa, on the support
    with pytest.raises(ParamError, match="vanish"):
        dual_lower_bound(inst, u, Field(window, w))
    small = Box.cube(1, inst.W - 1)   # not the window
    with pytest.raises(ParamError, match="window"):
        dual_lower_bound(inst, u, Field(small, np.zeros(small.shape)))
    with pytest.raises(ParamError, match="window"):
        dual_lower_bound(inst, Field(small, np.zeros(small.shape)))


def test_dual_bound_nonpositive_when_optimum_zero():
    y = Field(Box((-8,), (8,)), np.full(17, 4.2 + 0j))
    inst = build_instance(y, (0,), 1, 1.0)
    for _ in range(10):
        raw = RNG.standard_normal(5) + 1j * RNG.standard_normal(5)
        u = Field(Box.cube(1, 2), project_l1_ball(raw, 1.0))
        assert dual_lower_bound(inst, u) <= 1e-12


# ---------------------------------------------------------------- covariance


def _covariance_instance(mode, seed, factor=1.0):
    """A small instance of either mode on seeded data times ``factor``."""
    rng = np.random.default_rng(seed)
    box = Box((-8,), (8 if mode == "filtering" else 0,))
    y = _field(rng, box, 0.5, 1.0)
    y = Field(box, y.data * complex(factor))
    if mode == "filtering":
        return build_instance(y, (0,), 2, math.sqrt(2))
    return build_instance(y, (0,), 2, 2.0, 1)


def _certified_intervals_overlap(lo_a, hi_a, lo_b, hi_b, scale):
    # [lo, hi] of each solve holds the optimum; they hold the same value
    assert max(lo_a, lo_b) <= min(hi_a, hi_b) + 1e-12 * max(1.0, scale)


@pytest.mark.parametrize("mode", ["filtering", "prediction"])
@given(seed=st.integers(0, 2 ** 16),
       c=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1))
@settings(max_examples=10, deadline=None, derandomize=True)
def test_solve_scale_covariance(mode, seed, c):
    # J*(c y) = |c| J*(y): the certified intervals [D, J] of the two solves,
    # the first scaled by |c|, overlap
    r0 = solve(_covariance_instance(mode, seed), tol=1e-7)
    r1 = solve(_covariance_instance(mode, seed, c), tol=1e-7)
    _certified_intervals_overlap(r1.dual_bound, r1.objective, abs(c) * r0.dual_bound,
                                 abs(c) * r0.objective, abs(c))


@pytest.mark.parametrize("mode", ["filtering", "prediction"])
@given(seed=st.integers(0, 2 ** 16), alpha=st.floats(0.0, 2 * math.pi))
@settings(max_examples=10, deadline=None, derandomize=True)
def test_solve_phase_covariance(mode, seed, alpha):
    # J*(e^{i alpha} y) = J*(y)
    r0 = solve(_covariance_instance(mode, seed), tol=1e-7)
    r1 = solve(_covariance_instance(mode, seed, np.exp(1j * alpha)), tol=1e-7)
    _certified_intervals_overlap(r1.dual_bound, r1.objective, r0.dual_bound,
                                 r0.objective, 1.0)


@pytest.mark.parametrize("mode", ["filtering", "prediction"])
def test_solve_power_of_two_equivariance(mode):
    # scaling the data and the tolerance by a power of two scales K, b and
    # every step exactly: the same iterates, J and D scaled exactly
    rng = np.random.default_rng(7)
    if mode == "filtering":
        y = _field(rng, Box((-8,), (8,)), 0.5, 1.0)
        make = lambda y: build_instance(y, (0,), 2, math.sqrt(2))
    else:
        y = _field(rng, Box((-8,), (0,)), 0.5, 1.0)
        make = lambda y: build_instance(y, (0,), 2, 2.0, 1)
    k = 2.0 ** -20
    r0 = solve(make(y), tol=1e-7)
    r1 = solve(make(Field(y.box, k * y.data)), tol=k * 1e-7)
    assert r0.converged and r0.iterations > 2 * CHECK_EVERY
    assert r1.iterations == r0.iterations
    assert np.array_equal(r1.phi.field.data, r0.phi.field.data)
    assert (r1.objective, r1.dual_bound) == (k * r0.objective, k * r0.dual_bound)
    assert np.array_equal(r1.dual_u.data, r0.dual_u.data)
    assert np.array_equal(r1.dual_w.data, k * r0.dual_w.data)


def test_prediction_iterations_do_not_depend_on_data_scale():
    # the support rows of the operator scale with the data, so small data
    # converges as fast as data of size 1
    iterations = []
    for s in (1.0, 1e-3, 1e-6):
        y = _field(np.random.default_rng(5), Box((-8,), (0,)), s, s)
        res = solve(build_instance(y, (0,), 2, 2.0, 1), tol=1e-6 * s)
        assert res.converged
        iterations.append(res.iterations)
    assert len(set(iterations)) == 1


def test_two_dimensional_instances_converge_within_default_budget():
    # a plane wave with noise 0.1, denoised with T = 4 (n = 289), and a
    # noisy plane wave predicted with T = 3 and lag 1
    poly = ExpPolynomial(((1.0, (0, 0), (0.4j, 0.25j)),))
    box = Box((-16, -16), (17, 17))
    y = eval_exp_poly(poly, box) + sample_noise(box, NoiseSpec(0.1, 1))
    inst = build_instance(y, (0, 0), 4, exp_poly_certificate(poly).rho)
    assert solve(inst, tol=1e-5).converged
    rng = np.random.default_rng(0)
    box = Box((-12, -12), (0, 0))
    theta = rng.uniform(-1, 1, 2)
    tau = np.stack(np.meshgrid(*(np.arange(-12, 1),) * 2, indexing="ij"))
    wave = np.exp(1j * np.tensordot(theta, tau, axes=1))
    y = Field(box, wave + 0.1 * (rng.standard_normal(box.shape)
                                 + 1j * rng.standard_normal(box.shape)))
    inst = build_instance(y, (0, 0), 3, 2.0, 1)
    assert solve(inst, tol=1e-5).converged


def test_plane_wave_filtering_converges_within_8000_iterations():
    # one spectral bin, the plane wave's, dominates this operator's norm;
    # equilibrating the operator keeps it from setting every step
    poly = ExpPolynomial(((1.0, (0, 0), (0.4j, 0.25j)),))
    box = Box((-16, -16), (17, 17))
    y = eval_exp_poly(poly, box) + sample_noise(box, NoiseSpec(0.1, 2))
    inst = build_instance(y, (0, 0), 4, exp_poly_certificate(poly).rho)
    res = solve(inst, tol=1e-5, max_iter=8000)
    assert res.converged and res.gap <= 1e-5


# ---------------------------------------------------------------- prediction


def test_prediction_constant_exact():
    rho = predictor_exp_certificate(0.0, 1).rho
    y = Field(Box((-8,), (0,)), np.full(9, 3.0 + 1j))
    inst = build_instance(y, (0,), 1, rho, 1)
    res = solve(inst, tol=1e-9)
    assert res.objective <= 1e-9
    est = estimate_at(res.phi, y, (0,))
    assert abs(est - (3.0 + 1j)) < 1e-7


def test_prediction_data_only_shift_zero_reads():
    # y is nonzero only at tau = -1, which shift 0 reads and no support shift
    # does: A = 0, the optimum is J(0) with phi = 0
    data = np.zeros(9, dtype=complex)
    data[7] = 1.0 - 2.0j
    inst = build_instance(Field(Box((-8,), (0,)), data), (0,), 2, 2.0, 1)
    res = solve(inst, tol=1e-9)
    assert res.converged and np.all(res.phi.field.data == 0)
    assert res.objective == pytest.approx(objective(inst, res.phi), rel=1e-12)


def test_prediction_reads_only_causal_slab():
    cert = predictor_exp_certificate(0.6j, 2)
    t = np.arange(-20, 1)
    base = np.exp(0.6j * t) + 0.05 * (RNG.standard_normal(21)
                                      + 1j * RNG.standard_normal(21))
    y1 = Field(Box((-20,), (0,)), base)
    pert = base.copy()
    pert[-1] += 13.0   # tau = 0: t - tau = 0 < kappa
    pert[-2] -= 7.0j   # tau = -1: t - tau = 1 < kappa
    y2 = Field(Box((-20,), (0,)), pert)
    i1 = build_instance(y1, (0,), 2, cert.rho, 2)
    i2 = build_instance(y2, (0,), 2, cert.rho, 2)
    r1, r2 = solve(i1, tol=1e-8), solve(i2, tol=1e-8)
    assert np.array_equal(r1.phi.field.data, r2.phi.field.data)


def test_prediction_one_sided_result_support():
    y = noisy_field(Box((-16,), (-1,)), mean=1.0, sigma=0.2)
    inst = build_instance(y, (0,), 2, 2.0, 1)
    res = solve(inst, tol=1e-6)
    assert res.phi.kappa == 1
    assert res.phi.field.box == Box((1,), (4,))


# ---------------------------------------------------------------- batches


def _field(rng, box, sigma, mean):
    return Field(box, mean + sigma * (rng.standard_normal(box.shape)
                                      + 1j * rng.standard_normal(box.shape)))


@pytest.mark.parametrize("mode", ["filtering", "prediction"])
def test_solve_batch_matches_solve_bit_for_bit(mode):
    # a batch whose instances stop at different checks: at the first check
    # (data of size 1e-7, whose gap there is below the absolute tolerance),
    # after restarts, at zero residual (no iteration), and at the budget;
    # prediction exercises the support rows of the operator
    rng = np.random.default_rng(5)
    if mode == "filtering":
        box = Box((-8,), (8,))
        ys = [Field(box, np.full(17, 2.0 - 1j)), _field(rng, box, 0.3, 1.0),
              Field(box, np.zeros(17)), _field(rng, box, 1.0, 0.0),
              _field(rng, box, 0.05, 1.0), _field(rng, box, 1.0, 0.5),
              _field(rng, box, 1e-7, 1e-7)]
        insts = [build_instance(y, (0,), 2, math.sqrt(2)) for y in ys]
    else:
        box = Box((-8,), (0,))
        ys = [Field(box, np.full(9, 3.0 + 1j)), _field(rng, box, 0.2, 1.0),
              Field(box, np.zeros(9)), _field(rng, box, 1.0, 0.0),
              _field(rng, box, 0.05, 1.0), _field(rng, box, 1e-7, 1e-7)]
        insts = [build_instance(y, (0,), 2, 2.0, 1) for y in ys]
    # every filtering instance converges within 300 iterations
    max_iter = 200 if mode == "filtering" else 1000
    kwargs = dict(tol=1e-6, max_iter=max_iter)
    batch = solve_batch(insts, **kwargs)
    iterations = {r.iterations for r in batch}
    assert 0 in iterations and 25 in iterations and len(iterations) >= 4
    assert any(r.converged and r.iterations > 100 for r in batch)  # restarted
    assert any(not r.converged and r.iterations == max_iter for r in batch)
    for inst, r in zip(insts, batch):
        alone = solve(inst, **kwargs)
        assert (r.objective, r.dual_bound, r.gap, r.iterations, r.converged) == \
            (alone.objective, alone.dual_bound, alone.gap, alone.iterations,
             alone.converged)
        assert r.phi.field.box == alone.phi.field.box
        assert np.array_equal(r.phi.field.data, alone.phi.field.data)
        assert np.array_equal(r.dual_u.data, alone.dual_u.data)
        assert np.array_equal(r.dual_w.data, alone.dual_w.data)


@pytest.mark.parametrize("mode", ["filtering", "prediction"])
def test_solve_batch_splits_by_operator_bytes(mode, monkeypatch):
    # with room for the operators of two instances, a batch of five is built
    # and iterated as 2 + 2 + 1; every result is still the lone solve's
    from gridfilt import solver

    rng = np.random.default_rng(8)
    if mode == "filtering":
        box = Box((-8,), (8,))
        insts = [build_instance(_field(rng, box, 0.3, 1.0), (0,), 2,
                                math.sqrt(2)) for _ in range(5)]
    else:
        box = Box((-8,), (0,))
        insts = [build_instance(_field(rng, box, 0.3, 1.0), (0,), 2, 2.0, 1)
                 for _ in range(5)]
    geo = _Geometry(insts[0])
    cap = 2 * (geo.n + len(geo.off)) * geo.n * 16 + 16
    monkeypatch.setattr(solver, "SOLVE_BATCH_BYTES", cap)
    sizes = []
    operators = _Geometry.operators

    def spy(self, batch):
        K, b = operators(self, batch)
        assert K.nbytes <= cap
        sizes.append(len(K))
        return K, b

    monkeypatch.setattr(_Geometry, "operators", spy)
    batch = solve_batch(insts, tol=1e-6, max_iter=300)
    assert sizes == [2, 2, 1]
    for inst, r in zip(insts, batch):
        alone = solve(inst, tol=1e-6, max_iter=300)
        assert (r.objective, r.dual_bound, r.gap, r.iterations, r.converged) == \
            (alone.objective, alone.dual_bound, alone.gap, alone.iterations,
             alone.converged)
        assert np.array_equal(r.phi.field.data, alone.phi.field.data)
        assert np.array_equal(r.dual_u.data, alone.dual_u.data)
        assert np.array_equal(r.dual_w.data, alone.dual_w.data)


def test_solve_batch_rejects_empty_and_mixed_batches():
    y = noisy_field(Box((-16,), (16,)))
    with pytest.raises(ParamError):
        solve_batch([])
    with pytest.raises(ParamError, match="geometry"):
        solve_batch([build_instance(y, (0,), 2, 1.0),
                     build_instance(y, (0,), 3, 1.0)])
    with pytest.raises(ParamError, match="geometry"):
        solve_batch([build_instance(y, (0,), 2, 1.0),
                     build_instance(y, (0,), 2, 1.0, 1)])
    with pytest.raises(ParamError, match="l1 budget"):
        solve_batch([build_instance(y, (0,), 2, 1.0),
                     build_instance(y, (0,), 2, 2.0)])


def test_solve_rejects_non_positive_or_nan_tol():
    inst = build_instance(noisy_field(Box((-8,), (8,))), (0,), 2, 1.0)
    for tol in (0.0, -1e-6, float("nan")):
        with pytest.raises(ParamError, match="tol"):
            solve(inst, tol=tol)
        with pytest.raises(ParamError, match="tol"):
            solve_batch([inst], tol=tol, max_iter=200)


# ---------------------------------------------------------------- operator build


def _operator_batch(mode, d, T, kappa):
    """Three instances of one geometry whose observation boxes are exactly
    their read sets, so the windows reach the edges of the box."""
    rng = np.random.default_rng(12 + d)
    t = (1,) * d
    if mode == "filtering":
        box = Box.cube(d, 4 * T, t)
        return [build_instance(_field(rng, box, 1.0, 0.3), t, T, 1.5)
                for _ in range(3)]
    box = Box(tuple(tj - 4 * T for tj in t), tuple(tj - kappa for tj in t))
    return [build_instance(_field(rng, box, 1.0, 0.3), t, T, 1.5, kappa)
            for _ in range(3)]


# prediction at both ends of the lag range, kappa = 0 and kappa = 2T
OPERATOR_CASES = [("filtering", 1, 2, None), ("prediction", 1, 2, 0),
                  ("prediction", 1, 2, 4), ("filtering", 2, 1, None),
                  ("prediction", 2, 1, 0), ("prediction", 2, 1, 2)]


@pytest.mark.parametrize("mode,d,T,kappa", OPERATOR_CASES)
def test_batch_operators_match_each_instance_alone(mode, d, T, kappa):
    insts = _operator_batch(mode, d, T, kappa)
    K, b = _Geometry(insts[0]).operators(insts)
    norms = np.linalg.norm(K, 2, axis=(1, 2))
    for k, inst in enumerate(insts):
        K1, b1 = _Geometry(inst).operators([inst])
        assert np.array_equal(K[k], K1[0]) and np.array_equal(b[k], b1[0])
        assert norms[k] == np.linalg.norm(K1, 2, axis=(1, 2))[0]


@pytest.mark.parametrize("mode,d,T,kappa", OPERATOR_CASES)
def test_operator_columns_match_design_matrix(mode, d, T, kappa):
    insts = _operator_batch(mode, d, T, kappa)
    geo = _Geometry(insts[0])
    K, b = geo.operators(insts)
    W = insts[0].W
    n = (2 * W + 1) ** d
    off = [np.ravel_multi_index(tuple(v + W for v in nu), (2 * W + 1,) * d)
           for nu in points(Box.cube(d, W))
           if not insts[0].support_box.contains_point(nu)]
    # K is A over the rows of F^H at the window slots off the support, b
    # padded with zeros; K is built by per-axis transforms, so its rows match
    # the dense Kronecker F to roundoff
    F = dense_dft(W, d)
    assert K.shape == (3, n + len(off), n) and b.shape == (3, n + len(off))
    for k, inst in enumerate(insts):
        assert np.abs(K[k, n:] - F.conj().T[off]).max(initial=0.0) <= 1e-15
        assert np.all(b[k, n:] == 0)
        G, b_ref, support = design_matrix(inst)
        A_spatial = K[k, :n] @ F
        cols = [np.ravel_multi_index(tuple(v + W for v in nu), (2 * W + 1,) * d)
                for nu in support]
        scale = np.abs(G).max()
        assert np.abs(A_spatial[:, cols] - G).max() <= 1e-12 * scale
        A_spatial[:, cols] = 0
        assert np.abs(A_spatial).max() <= 1e-12 * scale
        assert np.abs(b[k, :n] - b_ref).max() <= 1e-12 * scale
