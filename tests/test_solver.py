"""Min-max solver: instance building, optimality, duality, determinism."""

import math
import tracemalloc
import warnings

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
from gridfilt.harness import NoiseSpec, derive_seed, sample_noise
from gridfilt.signals import (
    ExpPolynomial,
    eval_exp_poly,
    exp_certificate_1d,
    exp_poly_certificate,
    predictor_exp_certificate,
)
from gridfilt.solver import (
    CHECK_EVERY,
    SOLVE_BATCH_BYTES,
    _Geometry,
    _norm_estimate,
    build_instance,
    dual_lower_bound,
    objective,
    project_l1_ball,
    read_observations,
    solve,
    solve_batch,
)

from oracles import (
    dense_dft,
    design_matrix,
    points,
    project_l1_bisect,
    project_l1_sort,
    project_l1_weighted_sort,
    spectral_norm,
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
    out = project_l1_ball(z, 1.0, np.ones(z.shape))
    assert np.array_equal(out, z)


def test_project_l1_shrinks_to_radius():
    for _ in range(50):
        z = RNG.standard_normal(12) + 1j * RNG.standard_normal(12)
        out = project_l1_ball(z, 0.7, np.ones(12))
        assert np.abs(out).sum() <= 0.7 * (1 + 1e-12)
        # optimality: the projection is the closest ball point (spot check
        # against a few perturbations that stay feasible)
        for _ in range(10):
            p = project_l1_ball(out + 0.01 * (RNG.standard_normal(12)
                                              + 1j * RNG.standard_normal(12)),
                                0.7, np.ones(12))
            assert np.linalg.norm(z - out) <= np.linalg.norm(z - p) + 1e-9


def test_project_l1_phases_preserved():
    z = np.array([3.0 * np.exp(1j * 0.3), 2.0 * np.exp(-1j * 2.0), 0.0])
    out = project_l1_ball(z, 1.0, np.ones(z.shape))
    nz = np.abs(out) > 0
    assert np.allclose(np.angle(out[nz]), np.angle(z[nz]))


def test_project_l1_rowwise_matches_single_vector():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    z[1] *= 0.01          # inside the ball
    z[2] = 0              # zero row
    z[3, :4] = 0          # zero entries
    w = np.ones(z.shape)
    for radius in (0.7, 0.0):
        out = project_l1_ball(z, radius, w)
        for k in range(len(z)):
            assert np.array_equal(out[k], project_l1_sort(z[k], radius))
            assert np.array_equal(out[k], project_l1_ball(z[k], radius, w[k]))
    assert np.array_equal(project_l1_ball(z[1:3], 0.7, w[1:3]), z[1:3])
    with pytest.raises(ParamError):
        project_l1_ball(z, -1.0, w)


@pytest.mark.parametrize("radius", [float("nan"), -math.inf, -1e-300])
def test_project_l1_rejects_radius_not_nonnegative(radius):
    # a NaN radius fails every comparison, so it must not pass as "not
    # negative": it would make every row NaN
    z = np.array([[3.0 + 1j, -2.0j], [0.1, 0.0]])
    with pytest.raises(ParamError, match="radius must be nonnegative"):
        project_l1_ball(z, radius, np.ones(z.shape))


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


def _start_sets(rng, z, radius, w):
    """The start sets a warm projection may get: all entries, none, random
    ones, and the set a call on a nearby point leaves."""
    B, n = z.shape
    near = z + 0.01 * (rng.standard_normal((B, n)) + 1j * rng.standard_normal((B, n)))
    left = np.ones((B, n), dtype=bool)
    project_l1_ball(near, radius, w, left)
    return {"all": np.ones((B, n), dtype=bool), "none": np.zeros((B, n), dtype=bool),
            "random": rng.random((B, n)) < 0.5, "previous call": left}


@pytest.mark.parametrize("weights", ["unit", "pow2", "uniform"])
def test_project_l1_warm_start_gives_the_cold_result(weights):
    # the start set changes the passes, never the result: each start ends at
    # the cold result, which is the sort oracle's and the bisection's to
    # roundoff, and leaves each row's final set, the entries kept nonzero
    rng = np.random.default_rng(27)
    B, n = 12, 15
    z = rng.standard_normal((B, n)) + 1j * rng.standard_normal((B, n))
    z[0] *= 1e-3          # inside the ball
    z[1] = 0              # zero row
    z[2, ::3] = 0         # zero moduli
    z[3] *= 100.0         # far outside
    w = {"unit": np.ones((B, n)),
         "pow2": np.ldexp(1.0, rng.integers(-3, 4, (B, n))),
         "uniform": rng.uniform(0.1, 3.0, (B, n))}[weights]
    scale = np.abs(z).max()
    for radius in (0.0, 0.3, 2.0):
        cold = project_l1_ball(z, radius, w)
        assert np.abs(cold - project_l1_weighted_sort(z, radius, w)).max() <= 1e-15 * scale
        outside = (w * np.abs(z)).sum(axis=1) > radius
        for name, start in _start_sets(rng, z, radius, w).items():
            starts = start.copy()
            with warnings.catch_warnings():
                warnings.simplefilter("error")   # an empty start is no 0/0
                out = project_l1_ball(z, radius, w, start)
            assert np.abs(out - cold).max() <= 1e-15 * scale, name
            ref = project_l1_bisect(z, radius, weights=w)
            assert np.abs(out - ref).max() <= 1e-12 * max(1.0, scale), name
            if radius > 0:
                assert np.array_equal(start[outside], out[outside] != 0), name
            for k in range(B):
                alone = starts[k].copy()
                assert np.array_equal(out[k], project_l1_ball(z[k], radius, w[k], alone))
                if radius > 0 and outside[k]:
                    assert np.array_equal(alone, start[k])


def test_project_l1_radius_below_the_roundoff_of_a_row():
    # lam = (|z_0| - radius) / 1 rounds to |z_0|, so no entry is above it:
    # the row shrinks to zero, inside the ball, where the sort's last
    # threshold above its entry would be the one of the whole row
    z = np.array([1.0 + 0j, 0.5])
    out = project_l1_ball(z, 1e-17, np.ones(2))
    assert np.abs(out).sum() <= 1e-17
    assert np.abs(out - project_l1_bisect(z, 1e-17)).max() <= 1e-12


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


def test_read_observations_checks_dimension_then_coverage_then_finiteness():
    data = np.ones(9, dtype=complex)
    data[4 + 4] = np.nan
    y = Field(Box((-4,), (4,)), data)
    with pytest.raises(ParamError, match="anchor dimension mismatch"):
        read_observations(y, (9, 9), 1)    # uncovered too
    with pytest.raises(DomainError, match="observations must cover"):
        read_observations(y, (1,), 1)      # reads [-3, 5], the NaN too
    with pytest.raises(DomainError, match=r"observation at \(4,\) is not finite"):
        read_observations(y, (0,), 1)
    # T_alg = 0 reads the anchor alone, in either mode
    for kappa in (None, 0):
        assert read_observations(y, (3,), 0, kappa).box == Box((3,), (3,))
        with pytest.raises(DomainError, match=r"\(4,\) is not finite"):
            read_observations(y, (4,), 0, kappa)
        with pytest.raises(DomainError, match="observations must cover"):
            read_observations(y, (5,), 0, kappa)
    # prediction with a lag reads only what precedes the anchor by it
    read = read_observations(y, (4,), 1, 1)
    assert read.box == Box((0,), (3,)) and np.array_equal(read.data, data[4:8])


@pytest.mark.parametrize("rho", [math.nan, math.inf, 1e110])
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
                np.fft.fft(np.zeros(9)) + raw, inst.l1_bound, np.ones(9)))
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
        u = Field(Box.cube(1, 4), project_l1_ball(raw, 1.0, np.ones(raw.shape)))
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
                                             + 1j * rng.standard_normal(n)),
                1.0, np.ones(n)))
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
        u = Field(Box.cube(1, 2), project_l1_ball(raw, 1.0, np.ones(raw.shape)))
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
    # and iterated as 2 + 2 + 1, and each K is built and equilibrated a
    # window or a row at a time (a 32nd of the cap is less than either);
    # every result is still the lone solve's at the default budget
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
    alone = [solve(inst, tol=1e-6, max_iter=300) for inst in insts]
    geo = _Geometry(insts[0])
    cap = 2 * (geo.n + len(geo.off)) * geo.n * 16 + 16
    assert cap // 32 < geo.n * 16
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
    for r, one in zip(batch, alone):
        assert (r.objective, r.dual_bound, r.gap, r.iterations, r.converged) == \
            (one.objective, one.dual_bound, one.gap, one.iterations,
             one.converged)
        assert np.array_equal(r.phi.field.data, one.phi.field.data)
        assert np.array_equal(r.dual_u.data, one.dual_u.data)
        assert np.array_equal(r.dual_w.data, one.dual_w.data)


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
    # an infinite tol would certify any gap
    for tol in (0.0, -1e-6, float("nan"), math.inf):
        with pytest.raises(ParamError, match="tol"):
            solve(inst, tol=tol)
        with pytest.raises(ParamError, match="tol"):
            solve_batch([inst], tol=tol, max_iter=200)


@pytest.mark.parametrize("max_iter", [30.5, float("nan"), 0, -1, True])
def test_solve_rejects_a_budget_not_a_positive_integer(max_iter):
    # the loop stops at an iteration count equal to the budget, which no
    # fractional or NaN budget ever is
    inst = build_instance(noisy_field(Box((-8,), (8,))), (0,), 2, 1.0)
    with pytest.raises(ParamError, match="max_iter must be an integer >= 1"):
        solve_batch([inst], tol=1e-300, max_iter=max_iter)


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
    geo = _Geometry(insts[0])
    K, b = geo.operators(insts)
    # the norm estimates of K and of A, its first n rows, row by row as well
    norms = [_norm_estimate(M) for M in (K, K[:, :geo.n])]
    for k, inst in enumerate(insts):
        K1, b1 = _Geometry(inst).operators([inst])
        assert np.array_equal(K[k], K1[0]) and np.array_equal(b[k], b1[0])
        assert [x[k] for x in norms] == [_norm_estimate(M)[0]
                                         for M in (K1, K1[:, :geo.n])]


@pytest.mark.parametrize("mode,d,T,kappa", OPERATOR_CASES)
def test_operators_built_in_slabs_are_bit_identical(mode, d, T, kappa,
                                                    monkeypatch):
    # a budget of 32 bytes leaves 1 byte a slab: K is built one index of the
    # first support axis (a row of shifted windows) and then one row at a time
    from gridfilt import solver

    insts = _operator_batch(mode, d, T, kappa)
    geo = _Geometry(insts[0])
    K, b = geo.operators(insts)
    assert 3 * K[0].nbytes <= SOLVE_BATCH_BYTES // 32   # one slab by default
    monkeypatch.setattr(solver, "SOLVE_BATCH_BYTES", 32)
    K1, b1 = geo.operators(insts)
    assert K1.tobytes() == K.tobytes() and b1.tobytes() == b.tobytes()


def test_operator_build_memory_bounded_by_slab_budget():
    # d = 2, T = 4 (n = 289): K is 1.3 MiB, five slabs (256 KiB each), and
    # the build holds K, b and a few slabs; one that transforms whole stacks
    # at once holds about 3 K, or K + 10 slabs, and fails this
    inst = _operator_batch("filtering", 2, 4, None)[0]
    geo = _Geometry(inst)
    K, b = geo.operators([inst])   # numpy's first-call allocations are not the build's
    assert K.nbytes > 4 * (SOLVE_BATCH_BYTES // 32)
    tracemalloc.start()
    try:
        geo.operators([inst])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= K.nbytes + b.nbytes + 8 * (SOLVE_BATCH_BYTES // 32)


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


# ---------------------------------------------------------------- step size


def _norm_calls(insts):
    """Every matrix a solve of ``insts`` takes a norm of, with its estimate:
    in prediction ``A`` (the support row scale) and then ``K~`` (the step),
    in filtering ``K~`` alone."""
    from gridfilt import solver

    calls, real = [], solver._norm_estimate

    def spy(M):
        est = real(M)
        calls.append((M.copy(), est.copy()))
        return est

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_norm_estimate", spy)
        solve_batch(insts, tol=1e-3, max_iter=1)
    return calls


def _plane_wave_instance():
    # the plane wave's frequency bin dominates K; K~ is its equilibrated form
    poly = ExpPolynomial(((1.0, (0, 0), (0.4j, 0.25j)),))
    box = Box((-16, -16), (17, 17))
    y = eval_exp_poly(poly, box) + sample_noise(box, NoiseSpec(0.1, 2))
    return [build_instance(y, (0, 0), 4, exp_poly_certificate(poly).rho)]


def _lag_one_instance():
    # d = 1, T = 4, kappa = 1: a power iteration from the all-ones vector
    # sits about half below the norm of this K~
    box = Box((-16,), (-1,))
    y = Field(box, np.ones(16)) + sample_noise(box, NoiseSpec(0.1, 5))
    return [build_instance(y, (0,), 4, math.sqrt(2), 1)]


def _constant_T4_batch():
    # the 48 trials of the bench's constant-T4 experiment, solved as one batch
    box = Box((-16,), (16,))
    s = Field(box, np.ones(33))
    rho = exp_certificate_1d(0.0).rho
    return [build_instance(s + sample_noise(box, NoiseSpec(0.1, derive_seed(20240811, i))),
                           (0,), 4, rho) for i in range(48)]


# d = 1 and 2, filtering, and prediction at kappa = 0, 1 and 2T
NORM_OPERATOR_CASES = OPERATOR_CASES + [("prediction", 1, 2, 1),
                                        ("prediction", 2, 1, 1),
                                        ("filtering", 2, 2, None)]
NORM_INSTANCES = {"plane-wave-d2-T4": _plane_wave_instance,
                  "lag-one-d1-T4": _lag_one_instance,
                  "constant-T4-batch": _constant_T4_batch}


@pytest.mark.parametrize("case", NORM_OPERATOR_CASES + list(NORM_INSTANCES),
                         ids=lambda c: "-".join(map(str, c)) if isinstance(c, tuple) else c)
def test_norm_estimate_is_the_norm_from_below(case):
    # the Lanczos estimate is a lower bound on the norm, exact to roundoff, so
    # 0.99 / estimate is a valid step; power-of-two multiples are exact
    insts = _operator_batch(*case) if isinstance(case, tuple) else NORM_INSTANCES[case]()
    calls = _norm_calls(insts)
    assert len(calls) == (1 if insts[0].kappa is None else 2)
    for M, est in calls:
        exact = spectral_norm(M)
        assert np.all(est >= (1 - 1e-9) * exact), (est / exact - 1).min()
        assert np.all(est <= (1 + 1e-12) * exact), (est / exact - 1).max()
        assert np.array_equal(_norm_estimate(2.0 ** -20 * M), 2.0 ** -20 * est)


def test_norm_estimate_needs_its_random_start():
    # from the all-ones vector a power iteration stalls well below the norm of
    # this K~; the fixed Gaussian start of the estimate does not
    K = _norm_calls(_lag_one_instance())[-1][0]
    exact = spectral_norm(K)[0]
    x = np.ones(K.shape[-1], dtype=complex)
    for _ in range(20):
        x = K[0].conj().T @ (K[0] @ x)
        x /= np.linalg.norm(x)
    assert np.linalg.norm(K[0] @ x) < 0.6 * exact
    assert _norm_estimate(K)[0] >= (1 - 1e-9) * exact


def test_norm_estimate_of_a_zero_support_operator():
    # y is nonzero only at tau = -1, which no support shift reads: A = 0 has
    # the estimate 0, the support rows keep the scale alpha = 1, and the
    # solve converges with no 0/0
    data = np.zeros(9, dtype=complex)
    data[7] = 1.0 - 2.0j
    inst = build_instance(Field(Box((-8,), (0,)), data), (0,), 2, 2.0, 1)
    (A, alpha), (K, est) = _norm_calls([inst])
    assert not A.any() and alpha.tolist() == [0.0]
    n = A.shape[1]
    assert np.all(np.isfinite(est)) and est[0] >= (1 - 1e-9) * spectral_norm(K)[0]
    # the support rows of K~ are dense F_W^H rows times alpha = 1,
    # equilibrated: an alpha of 0 would zero them, one of 1/0 make them inf
    assert np.all(np.abs(K[0, n:]) > 0) and np.all(np.isfinite(K))
    assert solve(inst, tol=1e-9).converged


def test_solves_factor_no_matrix(monkeypatch):
    # the support row scale and the step come from products with K alone:
    # every SVD entry point numpy has raises, and both modes still solve
    def refuse(*args, **kwargs):
        raise AssertionError("a solve computed an SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    for name in ("svd", "svd_f", "svd_s"):
        monkeypatch.setattr(np.linalg._umath_linalg, name, refuse)
    with pytest.raises(AssertionError, match="SVD"):
        np.linalg.norm(np.eye(2), 2)
    y = noisy_field(Box((-16,), (16,)), mean=1.0, sigma=0.1)
    for kappa in (None, 1):
        inst = build_instance(y, (0,), 2, 2.0, kappa)
        assert solve(inst, tol=1e-5).converged


# ---------------------------------------------------------------- iteration counts


# The iteration counts of three deterministic solves, pinned: a change that
# moves one changes the iterates beyond roundoff, whatever it does to the
# outputs' digits.


def test_iterations_of_a_d2_filtering_solve():
    # the plane wave of the d = 2 benchmark workload, noise seed 1, anchor (0, 0)
    poly = ExpPolynomial(((1.0, (0, 0), (0.4j, 0.25j)),))
    box = Box((-16, -16), (17, 17))
    y = eval_exp_poly(poly, box) + sample_noise(box, NoiseSpec(0.1, 1))
    res = solve(build_instance(y, (0, 0), 4, exp_poly_certificate(poly).rho), tol=1e-5)
    assert res.converged and res.iterations == 3900


def test_iterations_of_a_d2_prediction_solve():
    poly = ExpPolynomial(((1.0, (0, 0), (0.4j, 0.25j)),))
    box = Box((-16, -16), (17, 17))
    y = eval_exp_poly(poly, box) + sample_noise(box, NoiseSpec(0.1, 1))
    inst = build_instance(y, (0, 0), 2, exp_poly_certificate(poly).rho, 1)
    res = solve(inst, tol=1e-5)
    assert res.converged and res.iterations == 1175


def test_iterations_of_a_d1_batch():
    # 48 noisy copies of a constant, as a bench experiment solves them
    box = Box((-16,), (16,))
    s = eval_exp_poly(ExpPolynomial(((1.0, (0,), (0j,)),)), box)
    rho = exp_certificate_1d(0j).rho
    insts = [build_instance(s + sample_noise(box, NoiseSpec(0.1, seed)), (0,), 4, rho)
             for seed in range(48)]
    iterations = [r.iterations for r in solve_batch(insts, tol=1e-5) if r.converged]
    assert (len(iterations), sum(iterations), max(iterations)) == (48, 7950, 375)
