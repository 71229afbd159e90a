"""Series arithmetic: evaluation, differentiation, convolution."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from volterra.errors import DomainError
from volterra.series import (DIVERGENT_SAMPLE, TaylorSeries, antiderivative, cauchy_product,
                             check_derivative_consistency, derivative, evaluate_on_rings,
                             evaluate_polynomial, is_divergent)
from volterra.spaces import _values


def coeff_lists(max_degree=24):
    scalar = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)
    return st.lists(scalar, min_size=1, max_size=max_degree + 1)


def combination(a, f, g):
    """``a f + g`` as a series, from the coefficient arrays padded to one length."""
    n = max(f.degree, g.degree)
    return TaylorSeries(a * np.pad(f.array, (0, n - f.degree)) + np.pad(g.array, (0, n - g.degree)))


def test_eval_linear():
    f = TaylorSeries((1, 1))
    assert f(0.5) == pytest.approx(1.5)


def test_eval_zero_case():
    f = TaylorSeries((0, 0, 1))
    assert f(0.0) == 0


def test_eval_closed_form_matches_geometric_partial_sums():
    # oracle: partial sums of the geometric series at degree 60
    z = 0.5
    oracle = sum(z ** n for n in range(61))
    assert abs(_values(lambda w: 1.0 / (1.0 - w), z) - 2.0) < 1e-12
    assert abs(oracle - 2.0) < 1e-12


def test_overflow_comes_back_tagged_not_raised():
    out = _values(lambda w: np.full_like(w, 1e305), 0.1)
    assert is_divergent(out)
    assert out == DIVERGENT_SAMPLE


# -- whole-array arithmetic against the per-coefficient expressions -----------
#
# The series arithmetic runs on ``TaylorSeries.array``; these are the Python
# expressions it replaced, kept as the reference.  Results must agree bit for
# bit, signed zeros included.

def old_coeffs(cs):
    return tuple(complex(c) for c in cs) or (0j,)


def old_derivative(cs):
    return tuple((n + 1) * cs[n + 1] for n in range(len(cs) - 1)) or (0j,)


def old_antiderivative(cs):
    return (0j,) + tuple(cs[n] / (n + 1) for n in range(len(cs)))


def old_cauchy(f_cs, g_cs, out_degree):
    return old_coeffs(np.convolve(np.asarray(f_cs), np.asarray(g_cs))[: out_degree + 1])


def bits(cs):
    return np.array(cs, dtype=complex).view(np.uint64).tolist()


@st.composite
def coeff_tuples(draw, max_size=600):
    """Coefficients of length 1..max_size mixing normal numbers, signed zeros
    and subnormals in each part; numpy draws the bulk so long inputs are cheap."""
    n = draw(st.integers(1, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    normal = rng.normal(scale=3.0, size=(n, 2))
    subnormal = rng.integers(-2 ** 52 + 1, 2 ** 52, size=(n, 2)) * 5e-324
    zero = np.where(rng.random((n, 2)) < 0.5, 0.0, -0.0)
    parts = np.choose(rng.integers(0, 3, size=(n, 2)), [normal, subnormal, zero])
    return tuple(complex(a, b) for a, b in parts)


def test_series_array_is_read_only_and_equals_coeffs():
    f = TaylorSeries((1, 2.5, -0.0, 3 - 1j, np.complex128(5e-324j)))
    assert isinstance(f.coeffs, tuple) and all(type(c) is complex for c in f.coeffs)
    assert bits(f.array) == bits(old_coeffs((1, 2.5, -0.0, 3 - 1j, 5e-324j)))
    assert f.array.dtype == complex and f.array.shape == (5,)
    assert not f.array.flags.writeable
    with pytest.raises(ValueError):
        f.array[0] = 7
    assert TaylorSeries(()).coeffs == (0j,) and bits(TaylorSeries(()).array) == bits((0j,))
    # a series built from an array owns a copy
    src = np.array([1 + 1j, 2 + 0j])
    g = TaylorSeries(src)
    src[0] = 0
    assert g.coeffs == (1 + 1j, 2 + 0j) and g.array[0] == 1 + 1j
    assert g == TaylorSeries((1 + 1j, 2)) and hash(g) == hash(TaylorSeries((1 + 1j, 2)))
    with pytest.raises(ValueError):
        TaylorSeries([[1, 2], [3, 4]])


@settings(max_examples=60, deadline=None)
@given(coeff_tuples(), coeff_tuples(), st.booleans(), st.booleans(), st.data())
def test_array_arithmetic_is_bit_identical_to_the_python_expressions(cs1, cs2, t1, t2, data):
    f, g = TaylorSeries(cs1, t1), TaylorSeries(cs2, t2)
    assert bits(f.coeffs) == bits(f.array) == bits(old_coeffs(cs1))
    d, a = derivative(f), antiderivative(f)
    assert bits(d.coeffs) == bits(old_derivative(cs1)) and d.truncated is t1
    assert bits(a.coeffs) == bits(old_antiderivative(cs1)) and a.truncated is t1
    full = f.degree + g.degree
    out_degree = data.draw(st.integers(0, full))
    p = cauchy_product(f, g, out_degree)
    assert bits(p.coeffs) == bits(old_cauchy(cs1, cs2, out_degree))
    assert p.truncated is (t1 or t2 or out_degree < full)
    for piece in (d, a, p):
        assert bits(piece.array) == bits(piece.coeffs) and not piece.array.flags.writeable


def test_derivative_power_rule():
    assert derivative(TaylorSeries((0, 0, 1))).coeffs == (0j, 2 + 0j)


def test_derivative_constant_is_zero():
    assert derivative(TaylorSeries((7,))).coeffs == (0j,)


def test_derivative_term_by_term_oracle():
    # 1 + 3z + 5z^3: oracle differentiates term by term
    f = TaylorSeries((1, 3, 0, 5))
    oracle = tuple((n + 1) * f.coeffs[n + 1] for n in range(f.degree))
    assert derivative(f).coeffs == oracle == (3 + 0j, 0j, 15 + 0j)


def test_antiderivative_base_cases():
    assert antiderivative(TaylorSeries((1,))).coeffs == (0j, 1 + 0j)
    assert antiderivative(TaylorSeries((0, 2))).coeffs == (0j, 0j, 1 + 0j)


def test_antiderivative_inverts_derivative_example():
    f = TaylorSeries((3, 0, 15))
    assert antiderivative(f).coeffs == (0j, 3 + 0j, 0j, 5 + 0j)
    assert derivative(antiderivative(f)).coeffs == f.coeffs


@settings(max_examples=60, deadline=None)
@given(coeff_lists(max_degree=200))
@example([0j, 0j, 2.225073858507203e-309 + 0j])
def test_derivative_of_antiderivative_is_identity(cs):
    # round-trip c -> c/(n+1) -> *(n+1) is correctly rounded twice, per
    # component.  For normal numbers each component comes back within one ulp
    # (bit-exact only when n+1 is a power of two).  In the subnormal range the
    # quotient's rounding error is absolute, up to 2^-1075, and the product
    # scales it by n+1, hence the absolute term.
    f = TaylorSeries(tuple(cs))
    back = derivative(antiderivative(f))
    for n, (a, b) in enumerate(zip(back.coeffs, f.coeffs)):
        for got, want in ((a.real, b.real), (a.imag, b.imag)):
            assert got == pytest.approx(want, rel=2.0 ** -51, abs=(n + 1) * 2.0 ** -1074)


def test_cauchy_difference_of_squares():
    out = cauchy_product(TaylorSeries((1, 1)), TaylorSeries((1, -1)), 2)
    assert out.coeffs == (1 + 0j, 0j, -1 + 0j)


def test_cauchy_annihilator():
    out = cauchy_product(TaylorSeries((2, 3, 4)), TaylorSeries((0,)))
    assert all(c == 0 for c in out.coeffs)


def test_cauchy_direct_convolution_oracle():
    f, g = TaylorSeries((1, 1, 1)), TaylorSeries((1, 1))
    out = cauchy_product(f, g, 3)
    oracle = [sum(f.coefficient(k) * g.coefficient(n - k) for k in range(n + 1))
              for n in range(4)]
    assert list(out.coeffs) == oracle == [1, 2, 2, 1]


def test_cauchy_truncation_flag_and_precondition():
    f, g = TaylorSeries((1, 1)), TaylorSeries((1, 1))
    assert cauchy_product(f, g, 1).truncated
    assert not cauchy_product(f, g, 2).truncated
    with pytest.raises(ValueError):
        cauchy_product(f, g, 3)


@settings(max_examples=40, deadline=None)
@given(coeff_lists(), coeff_lists())
def test_cauchy_commutative(cs1, cs2):
    f, g = TaylorSeries(tuple(cs1)), TaylorSeries(tuple(cs2))
    a, b = cauchy_product(f, g), cauchy_product(g, f)
    scale = max(1.0, max(abs(c) for c in a.coeffs))
    assert all(abs(x - y) <= 1e-14 * scale for x, y in zip(a.coeffs, b.coeffs))


@settings(max_examples=40, deadline=None)
@given(coeff_lists(max_degree=10), coeff_lists(max_degree=10), coeff_lists(max_degree=10),
       st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
def test_cauchy_bilinear(cs1, cs2, cs3, scalar):
    f, g, h = (TaylorSeries(tuple(c)) for c in (cs1, cs2, cs3))
    lhs = cauchy_product(f, combination(scalar, h, g))
    rhs_g, rhs_h = cauchy_product(f, g), cauchy_product(f, h)
    deg = lhs.degree
    scale = max(1.0, max(abs(c) for c in lhs.coeffs))
    for n in range(deg + 1):
        want = rhs_g.coefficient(n) + scalar * rhs_h.coefficient(n)
        assert abs(lhs.coefficient(n) - want) <= 1e-12 * scale


def test_derivative_consistency_check_accepts_and_rejects():
    def f(z):
        return 1.0 / (1.0 - z)
    assert check_derivative_consistency(f, lambda z: (1.0 - z) ** -2.0) < 1e-6
    with pytest.raises(DomainError):
        check_derivative_consistency(f, lambda z: 1.1 * (1.0 - z) ** -2.0)


def test_horner_matches_numpy_polyval():
    rng = np.random.default_rng(7)
    cs = rng.normal(size=30) + 1j * rng.normal(size=30)
    f = TaylorSeries(tuple(cs))
    zs = 0.9 * np.exp(1j * np.linspace(0, 2 * np.pi, 17))
    mine = f(zs)
    ref = np.polyval(cs[::-1], zs)
    assert np.max(np.abs(mine - ref)) < 1e-12


# -- evaluation on grid rings ---------------------------------------------------

def horner_sweep(cs, radii, n_angles):
    """Reference: plain Horner at every point ``r e^{2 pi i j / n_angles}``."""
    zs = np.asarray(radii)[:, None] * np.exp(2j * np.pi * np.arange(n_angles) / n_angles)
    acc = np.zeros_like(zs)
    for c in reversed(cs):
        acc = acc * zs + c
    return acc


RING_ANGLES = 64


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([1, RING_ANGLES - 1, RING_ANGLES, RING_ANGLES + 1,
                                   4 * RING_ANGLES + 1]),
       st.lists(st.floats(0.0, 1.0), max_size=4))
def test_rings_match_horner_sweep(data, degree_plus_one, extra_radii):
    scalar = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)
    cs = data.draw(st.lists(scalar, min_size=degree_plus_one, max_size=degree_plus_one))
    radii = np.array([0.0, 1.0] + extra_radii)
    got = evaluate_on_rings(cs, radii, RING_ANGLES)
    want = horner_sweep(cs, radii, RING_ANGLES)
    assert got.shape == (len(radii), RING_ANGLES)
    # error relative to sum |c_n| r^n; the absolute floor covers subnormal rounding
    scale = np.abs(np.asarray(cs)) @ radii[None, :] ** np.arange(len(cs))[:, None]
    assert np.all(np.abs(got - want) <= 1e-13 * scale[:, None] + 1e-300)


def old_broadcast_rings(cs, radii, n_angles):
    """The ring sweep with ``w = r^N`` broadcast to every ring point, as a
    complex ``(R, N)`` array, and the ``r^m`` table built per call."""
    c = np.asarray(cs, dtype=complex)
    blocks = np.zeros(-(-len(c) // n_angles) * n_angles, dtype=complex)
    blocks[:len(c)] = c
    r = np.asarray(radii, dtype=float)[:, None]
    w = np.broadcast_to(r ** n_angles, (len(r), n_angles))
    sums = evaluate_polynomial(blocks.reshape(-1, n_angles), w)
    with np.errstate(invalid="ignore", over="ignore"):
        vals = np.fft.ifft(sums * r ** np.arange(n_angles), axis=1, norm="forward")
    bad = is_divergent(vals)
    vals[bad] = DIVERGENT_SAMPLE
    return vals


@settings(max_examples=40, deadline=None)
@given(coeff_tuples(5 * RING_ANGLES), st.lists(st.floats(0.0, 1.0), max_size=4))
def test_rings_are_bit_identical_to_the_broadcast_sweep(cs, extra_radii):
    radii = np.array([0.0, 1.0] + extra_radii)
    got = evaluate_on_rings(TaylorSeries(cs).array, radii, RING_ANGLES)
    assert bits(got) == bits(old_broadcast_rings(cs, radii, RING_ANGLES))
    # the memoised r^m table is shared and read-only: a second sweep agrees
    assert bits(evaluate_on_rings(cs, radii, RING_ANGLES)) == bits(got)


def test_ring_whose_block_sum_overflows_is_tagged_whole():
    # at r = 1 the folded block sums (20 * 1e299) pass the clamp, although
    # every point but z = 1 has the value 0; at r = 1/2 they stay below it
    cs = (1e299,) * (20 * RING_ANGLES)
    vals = evaluate_on_rings(cs, [0.5, 1.0], RING_ANGLES)
    assert np.all(vals[1] == DIVERGENT_SAMPLE)
    assert not np.any(is_divergent(vals[0]))


@pytest.mark.parametrize("length", [1, RING_ANGLES, RING_ANGLES + 1, 4 * RING_ANGLES + 1])
def test_stacked_rows_equal_each_row_alone(length):
    # one Horner and one FFT call cover the whole (P, D) stack; each row must
    # come out exactly as swept alone, an overflowing row included
    rng = np.random.default_rng(length)
    stack = rng.normal(size=(5, length)) + 1j * rng.normal(size=(5, length))
    stack[1, ::3] = -0.0
    stack[3] = 1e308
    radii = np.array([0.0, 0.3, 0.9, 1.0 - 2.0 ** -20, 1.0])
    got = evaluate_on_rings(stack, radii, RING_ANGLES)
    assert got.shape == (5, len(radii), RING_ANGLES)
    for row, want in zip(got, stack):
        assert bits(row) == bits(evaluate_on_rings(want, radii, RING_ANGLES))
    assert np.all(got[3, -1] == DIVERGENT_SAMPLE)


def test_array_coefficients_equal_each_column_alone():
    rng = np.random.default_rng(11)
    cs = rng.normal(size=(40, 5)) + 1j * rng.normal(size=(40, 5))
    zs = 0.97 * np.exp(1j * np.linspace(0.0, 6.0, 9))[:, None]
    out = evaluate_polynomial(cs, zs)
    assert out.shape == (9, 5)
    for p in range(5):
        assert np.array_equal(out[:, p], evaluate_polynomial(cs[:, p], zs[:, 0]))
