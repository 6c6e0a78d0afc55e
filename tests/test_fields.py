"""Field, filter and transform layer: worked examples plus norm identities."""

import math

import numpy as np
import pytest

from gridfilt import (
    Box,
    DomainError,
    Field,
    Filter,
    ParamError,
    convolve,
    filter_product,
    filter_tensor,
    read_zdf,
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
    points,
)

RNG = np.random.default_rng(20240811)


def random_field(box: Box, rng=RNG) -> Field:
    re = rng.standard_normal(box.shape)
    im = rng.standard_normal(box.shape)
    return Field(box, re + 1j * im)


def test_field_sum_overflow_raises_without_a_warning():
    # the project's pytest settings turn a numpy RuntimeWarning into an error,
    # so this passes only if the overflow raises before any warning
    box = Box.cube(1, 2)
    big = Field(box, np.full(5, 1.7e308 + 1.7e308j))
    with pytest.raises(OverflowError, match="field sum overflows on"):
        big + big
    assert np.array_equal((big + Field(box, -big.data)).data, np.zeros(5))


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
    for t in points(ev):
        ref = sum(coeff(q, tau) * x.value((t[0] - tau[0], t[1] - tau[1]))
                  for tau in points(Box.cube(2, 1)))
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


# ---------------------------------------------------------------- window transform


def test_dft_impulse_flat():
    for T in (1, 3):
        for d in (1, 2):
            data = np.zeros((2 * T + 1,) * d, dtype=complex)
            data[(T,) * d] = 1.0
            assert np.allclose(dft_window(data, T), (2 * T + 1) ** (-d / 2))


def test_dft_constant_is_spike():
    T = 3
    # slot n + T holds exponent n
    S = dft_window(np.ones(2 * T + 1), T)
    assert abs(S[T] - math.sqrt(2 * T + 1)) < 1e-12
    assert np.abs(np.delete(S, T)).max() < 1e-12


def test_dft_idft_roundtrip():
    for d, T in ((1, 4), (2, 2), (3, 1)):
        x = random_field(Box.cube(d, T))
        back = idft_windows(dft_window(x.data, T), T, d)
        rel = np.abs(back - x.data).max() / np.abs(x.data).max()
        assert rel < 1e-12


def test_dft_coverage_error():
    # a window is read off a field by restricting it to the window's cube
    x = random_field(Box((-1,), (1,)))
    with pytest.raises(DomainError):
        dft_window(x.restrict(Box.cube(1, 2)).data, 2)


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


def lp(q: Filter, p) -> float:
    """Spatial l_p norm of a filter's coefficients."""
    return float(np.linalg.norm(q.field.data.ravel(), p))


def random_filter(d: int, T: int) -> Filter:
    return Filter(random_field(Box.cube(d, T)), T)


def test_impulse_norms():
    padded = Filter(Filter.impulse(1).pad_to_cube(3), 3)
    for p in (1, 2, math.inf):
        assert lp(padded, p) == 1.0
    assert abs(Filter.impulse(1).star_norm(3, 2) - 1.0) < 1e-12


def test_parseval_equality():
    for d, T in ((1, 5), (2, 3)):
        x = random_filter(d, T)
        assert abs(lp(x, 2) - x.star_norm(T, 2)) < 1e-10 * lp(x, 2)


def test_constant_star_norms():
    x = Filter.two_sided(1, 2, np.ones(5))
    assert abs(x.star_norm(2, 1) - math.sqrt(5)) < 1e-12
    assert abs(x.star_norm(2, math.inf) - math.sqrt(5)) < 1e-12


def test_inner_product_parseval_and_holder():
    T, d = 4, 1
    for _ in range(50):
        a, b = random_filter(d, T), random_filter(d, T)
        lhs = np.vdot(b.field.data, a.field.data)  # sum a conj(b)
        rhs = np.vdot(dft_window(b.field.data, T), dft_window(a.field.data, T))
        assert abs(lhs - rhs) <= 1e-10 * lp(a, 2) * lp(b, 2)
        plain = (a.field.data * b.field.data).sum()
        assert abs(plain) <= a.star_norm(T, 1) * b.star_norm(T, math.inf) * (1 + 1e-12)


def test_norm_comparison_exponents():
    # |r|*_{T,p} <= (2T+1)^{d[(1/p-1/2)+ + (1/2-1/q)+]} |r|_{T,q}
    def inv(p):
        return 0.0 if p == math.inf else 1.0 / p

    for d, T in ((1, 3), (2, 2)):
        for _ in range(20):
            r = random_filter(d, T)
            for p in (1, 2, math.inf):
                for q in (1, 2, math.inf):
                    expo = d * (max(inv(p) - 0.5, 0.0) + max(0.5 - inv(q), 0.0))
                    bound = (2 * T + 1) ** expo * lp(r, q)
                    assert r.star_norm(T, p) <= bound * (1 + 1e-12)


def test_convolution_norm_bounds():
    for _ in range(20):
        a = Filter.two_sided(1, 2, RNG.standard_normal(5) + 1j * RNG.standard_normal(5))
        b = Filter.two_sided(1, 3, RNG.standard_normal(7) + 1j * RNG.standard_normal(7))
        ab = filter_product(a, b)
        for p in (1, 2, math.inf):
            # |ab|_p <= |a|_1 |b|_p
            assert lp(ab, p) <= lp(a, 1) * lp(b, p) * (1 + 1e-12)
            # ord a + ord b <= T  =>  |ab|*_{T,p} <= |a|_1 |b|*_{T,p}
            T = a.order + b.order + 1
            assert ab.star_norm(T, p) <= lp(a, 1) * b.star_norm(T, p) * (1 + 1e-12)


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
    for tau in points(ab.field.box):
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
        for tau in points(tight.field.box):
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


@pytest.mark.parametrize("change,message", [
    (lambda raw: raw[:-1], "ZDF1 payload of 63 bytes, but the box"),
    (lambda raw: raw + b"\x00" * 32, "ZDF1 payload of 96 bytes, but the box"),
])
def test_zdf_rejects_payload_not_the_size_of_its_box(tmp_path, change, message):
    # the header's box holds 4 values of 16 bytes: a shorter or longer payload
    # is malformed, never cut or padded without a word
    path = tmp_path / "x.zdf"
    write_zdf(random_field(Box((-1, 0), (0, 1))), path)
    path.write_bytes(change(path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        read_zdf(path)


# ---------------------------------------------------------------- immutability


def test_fields_are_immutable():
    x = random_field(Box((-1,), (1,)))
    with pytest.raises(ValueError):
        x.data[0] = 0.0
