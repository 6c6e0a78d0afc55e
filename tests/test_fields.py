"""Field, filter and transform layer: worked examples plus norm identities."""

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
    dft,
    filter_product,
    filter_tensor,
    idft,
    norm,
    read_zdf,
    shift,
    star_norm,
    write_zdf,
)
from gridfilt.fields import (
    _dft_matrix,
    _nonzero_outside,
    dft_window,
    dft_windows,
    idft_windows,
    rebox_filter,
)

from oracles import (
    coeff,
    convolve_loop,
    dft_window_tensordot,
    laurent_product_loop,
    nonzero_outside_loop,
)

RNG = np.random.default_rng(20240811)


def random_field(box: Box, rng=RNG) -> Field:
    re = rng.standard_normal(box.shape)
    im = rng.standard_normal(box.shape)
    return Field(box, re + 1j * im)


# ---------------------------------------------------------------- shift


def test_shift_identity():
    x = random_field(Box((-3,), (3,)))
    y = shift(x, (0,))
    assert y.box == x.box
    assert np.array_equal(y.data, x.data)


def test_shift_relabels():
    x = Field(Box((0,), (2,)), np.array([1.0, 2.0, 3.0]))
    y = shift(x, (1,))
    assert y.box == Box((1,), (3,))
    assert y.value((1,)) == 1.0 and y.value((3,)) == 3.0


def test_shift_inverse():
    x = random_field(Box((-2, 0), (2, 3)))
    y = shift(shift(x, (5, -7)), (-5, 7))
    assert y.box == x.box
    assert np.array_equal(y.data, x.data)


@given(v=st.lists(st.integers(-50, 50), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_shift_semantics(v):
    d = len(v)
    x = random_field(Box.cube(d, 2))
    y = shift(x, v)
    # (shift(x, v))_tau = x_{tau - v}
    tau = tuple(vi + 1 for vi in v)
    assert y.value(tau) == x.value((1,) * d)


# ---------------------------------------------------------------- convolve


def test_convolve_impulse_is_identity():
    x = random_field(Box((-4,), (4,)))
    out = convolve(Filter.impulse(1), x, Box((-2,), (2,)))
    assert np.allclose(out.data, x.restrict(Box((-2,), (2,))).data)


def test_convolve_two_term_alternating():
    # q = (1 + e^{-i pi} z^{-1})/2 reproduces x_tau = (-1)^tau:
    # (q x)_t = (x_t - x_{t+1})/2 = ((-1)^t - (-1)^{t+1})/2 = (-1)^t
    q = Filter.two_sided(1, 1, [0.5 * np.exp(-1j * np.pi), 0.5, 0.0])
    box = Box((-6,), (6,))
    x = Field(box, np.array([(-1.0) ** t for t in range(-6, 7)]))
    ev = Box((-5,), (5,))
    out = convolve(q, x, ev)
    assert np.allclose(out.data, x.restrict(ev).data, atol=1e-15)


def test_convolve_averaging_preserves_constants():
    q = Filter.two_sided(1, 2, np.full(5, 0.2))
    x = Field(Box((-5,), (5,)), np.full(11, 3.5 - 1.25j))
    out = convolve(q, x, Box((-3,), (3,)))
    assert np.allclose(out.data, 3.5 - 1.25j)


def test_convolve_window_check():
    x = random_field(Box((-2,), (2,)))
    q = Filter.two_sided(1, 1, [1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        convolve(q, x, Box((-2,), (2,)))
    # shrinking the eval box makes the reads fit
    convolve(q, x, Box((-1,), (1,)))


def test_convolve_matches_direct_sum_2d():
    q = Filter.two_sided(2, 1, RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3)))
    x = random_field(Box((-4, -4), (4, 4)))
    ev = Box((-2, -1), (1, 3))
    out = convolve(q, x, ev)
    for t in ev.points():
        ref = sum(coeff(q, tau) * x.value((t[0] - tau[0], t[1] - tau[1]))
                  for tau in Box.cube(2, 1).points())
        assert abs(out.value(t) - ref) < 1e-12


@pytest.mark.parametrize("d,T,kind", [(1, 4, "two-sided"), (1, 16, "two-sided"),
                                       (1, 4, "one-sided"), (2, 2, "two-sided"),
                                       (2, 2, "one-sided")])
def test_convolve_matches_coefficient_loop(d, T, kind):
    # real and complex fields, an eval box larger than a point, zero taps
    rng = np.random.default_rng(7 + d * T)
    shape = (2 * T + 1 if kind == "two-sided" else T,) * d
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs[(0,) * d] = 0
    q = (Filter.two_sided(d, T, coeffs) if kind == "two-sided"
         else Filter.one_sided(d, 1, T, coeffs))
    ev = Box((-2,) * d, (1,) * d)
    box = Box.cube(d, T + 3)
    for x in (random_field(box), Field(box, rng.standard_normal(box.shape))):
        out, ref = convolve(q, x, ev), convolve_loop(q, x, ev)
        assert out.box == ev and out.data.dtype == np.complex128
        assert np.abs(out.data - ref.data).max() <= 1e-12 * np.abs(ref.data).max()


# ---------------------------------------------------------------- dft / idft


def test_dft_impulse_flat():
    for T in (1, 3):
        for d in (1, 2):
            x = Field(Box.cube(d, T), Field.zeros(Box.cube(d, T)).data)
            data = np.zeros((2 * T + 1,) * d, dtype=complex)
            data[(T,) * d] = 1.0
            x = Field(Box.cube(d, T), data)
            S = dft(x, T)
            assert np.allclose(S.values, (2 * T + 1) ** (-d / 2))


def test_dft_constant_is_spike():
    T = 3
    x = Field(Box.cube(1, T), np.ones(2 * T + 1))
    S = dft(x, T)
    assert abs(S.value((0,)) - math.sqrt(2 * T + 1)) < 1e-12
    off = [S.value((n,)) for n in range(-T, T + 1) if n != 0]
    assert max(abs(v) for v in off) < 1e-12


def test_dft_idft_roundtrip():
    for d, T in ((1, 4), (2, 2), (3, 1)):
        x = random_field(Box.cube(d, T))
        back = idft(dft(x, T))
        rel = np.abs(back.data - x.data).max() / np.abs(x.data).max()
        assert rel < 1e-12


def test_dft_coverage_error():
    x = random_field(Box((-1,), (1,)))
    with pytest.raises(DomainError):
        dft(x, 2)


def test_stacked_transform_matches_tensordot_per_window():
    # each window of a stack, contiguous or a strided view, transforms (and
    # inverse transforms) bit for bit as the per-axis tensordot transforms it
    # alone
    for d, T in ((1, 1), (1, 8), (2, 1), (2, 4), (3, 1), (3, 2)):
        N = 2 * T + 1
        for lead in ((), (3,), (2, 3)):
            shape = lead + (N,) * d
            w = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
            stack = dft_windows(w, T, d)
            inv_stack = idft_windows(w, T, d)
            for idx in np.ndindex(*lead):
                ref = dft_window_tensordot(w[idx], T, _dft_matrix(T))
                assert np.array_equal(stack[idx], ref)
                assert np.array_equal(dft_window(w[idx], T), ref)
                inv = dft_window_tensordot(w[idx], T, np.conj(_dft_matrix(T)))
                assert np.array_equal(inv_stack[idx], inv)
        data = RNG.standard_normal((2 * N - 1,) * d) + 0j
        views = np.lib.stride_tricks.sliding_window_view(data, (N,) * d)
        stack = dft_windows(views, T, d)
        for idx in np.ndindex(*(N,) * d):
            assert np.array_equal(stack[idx],
                                  dft_window_tensordot(views[idx], T, _dft_matrix(T)))


# ---------------------------------------------------------------- norms


def test_impulse_norms():
    padded = Filter.impulse(1).pad_to_cube(3)
    for p in (1, 2, math.inf):
        assert norm(padded, 3, p) == 1.0
        assert abs(star_norm(padded, 3, 2) - 1.0) < 1e-12


def test_parseval_equality():
    for d, T in ((1, 5), (2, 3)):
        x = random_field(Box.cube(d, T))
        assert abs(norm(x, T, 2) - star_norm(x, T, 2)) < 1e-10 * norm(x, T, 2)


def test_constant_star_norms():
    x = Field(Box.cube(1, 2), np.ones(5))
    assert abs(star_norm(x, 2, 1) - math.sqrt(5)) < 1e-12
    assert abs(star_norm(x, 2, math.inf) - math.sqrt(5)) < 1e-12


def test_inner_product_parseval_and_holder():
    T, d = 4, 1
    for _ in range(50):
        a = random_field(Box.cube(d, T))
        b = random_field(Box.cube(d, T))
        lhs = np.vdot(b.window(T), a.window(T))  # sum a conj(b)
        Sa, Sb = dft(a, T), dft(b, T)
        rhs = np.vdot(Sb.values, Sa.values)
        assert abs(lhs - rhs) <= 1e-10 * norm(a, T, 2) * norm(b, T, 2)
        plain = (a.window(T) * b.window(T)).sum()
        assert abs(plain) <= star_norm(a, T, 1) * star_norm(b, T, math.inf) * (1 + 1e-12)


def test_norm_comparison_exponents():
    # |r|*_{T,p} <= (2T+1)^{d[(1/p-1/2)+ + (1/2-1/q)+]} |r|_{T,q}
    def inv(p):
        return 0.0 if p == math.inf else 1.0 / p

    for d, T in ((1, 3), (2, 2)):
        for _ in range(20):
            r = random_field(Box.cube(d, T))
            for p in (1, 2, math.inf):
                for q in (1, 2, math.inf):
                    expo = d * (max(inv(p) - 0.5, 0.0) + max(0.5 - inv(q), 0.0))
                    bound = (2 * T + 1) ** expo * norm(r, T, q)
                    assert star_norm(r, T, p) <= bound * (1 + 1e-12)


def test_convolution_norm_bounds():
    for _ in range(20):
        a = Filter.two_sided(1, 2, RNG.standard_normal(5) + 1j * RNG.standard_normal(5))
        b = Filter.two_sided(1, 3, RNG.standard_normal(7) + 1j * RNG.standard_normal(7))
        ab = filter_product(a, b)
        Tfull = ab.order
        for p in (1, 2, math.inf):
            # |ab|_p <= |a|_1 |b|_p
            assert norm(ab.pad_to_cube(Tfull), Tfull, p) <= \
                a.l1() * norm(b.pad_to_cube(b.order), b.order, p) * (1 + 1e-12)
            # ord a + ord b <= T  =>  |ab|*_{T,p} <= |a|_1 |b|*_{T,p}
            T = a.order + b.order + 1
            assert ab.star_norm(T, p) <= a.l1() * b.star_norm(T, p) * (1 + 1e-12)


# ---------------------------------------------------------------- filter algebra


def test_product_with_impulse():
    b = Filter.two_sided(1, 2, RNG.standard_normal(5))
    prod = filter_product(Filter.impulse(1), b)
    assert prod.order == 2
    assert np.allclose(prod.field.data, b.field.data)


def test_product_polynomial_identity():
    one_minus_z = Filter.two_sided(1, 1, [0.0, 1.0, -1.0])
    one_plus_z = Filter.two_sided(1, 1, [0.0, 1.0, 1.0])
    prod = filter_product(one_minus_z, one_plus_z)
    assert np.allclose(prod.field.data, [0.0, 0.0, 1.0, 0.0, -1.0])


def test_squared_certificate_spectral_l1():
    # r = (q*)^2 with q* = (z^{-1}+1+z)/3: |r|*_{2T,1} <= 2^{1/2} rho^2 (2T+1)^{-1/2}
    # where rho = (2T+1)^{1/2} |q*|_2 and T = 1. Direct evaluation gives sqrt(5)/3.
    q = Filter.two_sided(1, 1, np.full(3, 1.0 / 3.0))
    r = filter_product(q, q)
    got = r.star_norm(2, 1)
    assert abs(got - math.sqrt(5) / 3) < 1e-12
    rho_hat = math.sqrt(3) * q.l2()
    assert got <= math.sqrt(2) * rho_hat ** 2 / math.sqrt(3) * (1 + 1e-12)


def test_one_sided_product_lags_add():
    a = Filter.one_sided(1, 1, 2, [1.0, 2.0])
    b = Filter.one_sided(1, 2, 3, [3.0, 1.0])
    ab = filter_product(a, b)
    assert ab.kappa == 3 and ab.order == 5
    assert coeff(ab, (3,)) == 3.0 and coeff(ab, (5,)) == 2.0


def _random_filter(d, order, kappa=None):
    box = Box.support(d, order, kappa)
    coeffs = RNG.standard_normal(box.shape) + 1j * RNG.standard_normal(box.shape)
    return Filter(Field(box, coeffs), order, kappa)


# factors (order, kappa) and the product's (kappa, order); None is two-sided
PRODUCT_CASES = [
    ((2, None), (3, None), (None, 5)),
    ((2, 1), (3, 0), (1, 5)),
    ((4, 2), (1, None), (None, 5)),
    ((3, None), (1, 1), (None, 4)),
    ((0, None), (3, 2), (2, 3)),
    ((2, 0), (0, None), (0, 2)),
]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("fa,fb,expected", PRODUCT_CASES)
def test_filter_product_matches_laurent_loop(d, fa, fb, expected):
    a, b = _random_filter(d, *fa), _random_filter(d, *fb)
    ab = filter_product(a, b)
    assert (ab.kappa, ab.order) == expected
    ref = laurent_product_loop(a, b)
    scale = np.abs(ref.data).max()
    for tau in ab.field.box.points():
        assert abs(coeff(ab, tau) - (ref.value(tau) if ref.box.contains_point(tau)
                                     else 0)) <= 1e-15 * scale


def test_rebox_filter_checks_support():
    q = Filter.one_sided(1, 0, 3, [0.0, 0.0, 1.0, 0.5])
    tight = rebox_filter(q, 3, kappa=2)
    assert tight.kappa == 2
    with pytest.raises(ParamError):
        rebox_filter(q, 3, kappa=3)


def test_support_check_matches_loop_reference():
    for _ in range(40):
        d = int(RNG.integers(1, 3))
        box = Box(tuple(RNG.integers(-3, 1, d)), tuple(RNG.integers(0, 4, d)))
        x = Field(box, RNG.standard_normal(box.shape) * (RNG.random(box.shape) < 0.3))
        target = Box.support(d, int(RNG.integers(2, 4)), int(RNG.integers(0, 2)))
        assert _nonzero_outside(x, target) == nonzero_outside_loop(x, target)
        # a lag-0 one-sided filter whose coefficients vanish below lag kappa
        kappa = int(RNG.integers(0, 3))
        q = Filter.one_sided(d, 0, 3, RNG.standard_normal((4,) * d))
        q = Filter.one_sided(d, 0, 3, q.field.data * np.all(
            np.indices((4,) * d) >= kappa, axis=0))
        tight = rebox_filter(q, 3, kappa=kappa)
        for tau in tight.field.box.points():
            assert tight.field.value(tau) == q.field.value(tau)


def test_tensor_impulses():
    t = filter_tensor(Filter.impulse(1), Filter.impulse(2))
    assert t.d == 3 and t.order == 0
    assert coeff(t, (0, 0, 0)) == 1.0


def test_tensor_averaging():
    avg = Filter.two_sided(1, 1, np.full(3, 1.0 / 3.0))
    t = filter_tensor(avg, avg)
    assert np.allclose(t.field.data, np.full((3, 3), 1.0 / 9.0))


def test_tensor_l2_multiplies():
    for _ in range(20):
        a = Filter.two_sided(1, 2, RNG.standard_normal(5) + 1j * RNG.standard_normal(5))
        b = Filter.two_sided(2, 1, RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3)))
        t = filter_tensor(a, b)
        assert abs(t.l2() - a.l2() * b.l2()) < 1e-12 * max(1.0, a.l2() * b.l2())


# ---------------------------------------------------------------- ZDF1 format


def test_zdf_golden_bytes(tmp_path):
    x = Field(Box((-1, 0), (0, 1)), np.array([[1.0, 2.0], [3.0 + 4.0j, -1.0j]]))
    path = tmp_path / "x.zdf"
    write_zdf(x, path)
    raw = path.read_bytes()
    expected = b"ZDF1"
    expected += (2).to_bytes(4, "little")
    for lo, hi in ((-1, 0), (0, 1)):
        expected += int(lo).to_bytes(8, "little", signed=True)
        expected += int(hi).to_bytes(8, "little", signed=True)
    import struct

    for z in (1.0, 2.0, 3.0 + 4.0j, -1.0j):
        expected += struct.pack("<dd", z.real, z.imag)
    assert raw == expected


def test_zdf_roundtrip(tmp_path):
    x = random_field(Box((-3, 2, -1), (1, 4, 1)))
    path = tmp_path / "r.zdf"
    write_zdf(x, path)
    y = read_zdf(path)
    assert y.box == x.box
    assert np.array_equal(y.data, x.data)


def test_zdf_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.zdf"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError):
        read_zdf(path)


def test_zdf_rejects_truncated_header(tmp_path):
    path = tmp_path / "x.zdf"
    write_zdf(random_field(Box((-1, 0), (0, 1))), path)
    raw = path.read_bytes()
    # cut inside the dimension field, and inside the second axis' bounds
    for cut in (6, 4 + 4 + 16 + 3):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="truncated ZDF1 header"):
            read_zdf(path)


# ---------------------------------------------------------------- immutability


def test_fields_are_immutable():
    x = random_field(Box((-1,), (1,)))
    with pytest.raises(ValueError):
        x.data[0] = 0.0
