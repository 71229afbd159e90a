"""Coefficient-level behavior of the two integral operators."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volterra.operators import (OperatorKind, apply_operator, apply_sg, apply_tg,
                                product_rule_residual)
from volterra.series import TaylorSeries, cauchy_product

from test_series import (bits, coeff_tuples, combination, old_antiderivative, old_cauchy,
                         old_derivative)


def series(max_degree=20):
    scalar = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
    return st.lists(scalar, min_size=1, max_size=max_degree + 1).map(
        lambda cs: TaylorSeries(tuple(cs)))


def test_tg_classical_volterra_on_constants():
    out = apply_tg(TaylorSeries((0, 1)), TaylorSeries((1,)))
    assert out.coeffs == (0j, 1 + 0j)


def test_tg_square_symbol():
    out = apply_tg(TaylorSeries((0, 0, 1)), TaylorSeries((1,)))
    assert out.coeffs == (0j, 0j, 1 + 0j)
    out = apply_tg(TaylorSeries((0, 0, 1)), TaylorSeries((0, 1)))
    assert out.coefficient(3) == pytest.approx(2.0 / 3.0)


def test_sg_kills_constants():
    out = apply_sg(TaylorSeries((0, 1)), TaylorSeries((5,)))
    assert all(c == 0 for c in out.coeffs)


def test_sg_identity_pair():
    out = apply_sg(TaylorSeries((0, 1)), TaylorSeries((0, 1)))
    assert out.coefficient(2) == pytest.approx(0.5)


def test_sg_with_unit_symbol_recenters():
    f = TaylorSeries((2, 3, 0, 7))
    out = apply_sg(TaylorSeries((1,)), f)
    assert out.coefficient(0) == 0
    for n in range(1, f.degree + 1):
        assert out.coefficient(n) == pytest.approx(f.coefficient(n))


def test_images_vanish_at_zero_exactly():
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = TaylorSeries(tuple(rng.normal(size=9) + 1j * rng.normal(size=9)))
        g = TaylorSeries(tuple(rng.normal(size=7) + 1j * rng.normal(size=7)))
        assert apply_tg(g, f).coefficient(0) == 0
        assert apply_sg(g, f).coefficient(0) == 0


@settings(max_examples=30, deadline=None)
@given(series(10), series(10), series(10),
       st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
def test_linearity_in_f(g, f1, f2, a):
    for op in (apply_tg, apply_sg):
        lhs = op(g, combination(a, f1, f2))
        r1, r2 = op(g, f1), op(g, f2)
        scale = max(1.0, max(abs(c) for c in lhs.coeffs))
        for n in range(lhs.degree + 1):
            want = a * r1.coefficient(n) + r2.coefficient(n)
            assert abs(lhs.coefficient(n) - want) <= 1e-12 * scale


def test_product_rule_hand_example():
    # f = 1+z, g = z at z = 0.5: both sides equal 0.75
    f, g = TaylorSeries((1, 1)), TaylorSeries((0, 1))
    assert product_rule_residual(g, f, 0.5) < 1e-14
    lhs = apply_tg(g, f)(0.5) + apply_sg(g, f)(0.5)
    assert lhs == pytest.approx(0.75)


def test_product_rule_random_degree_20():
    rng = np.random.default_rng(11)
    z = 0.9 * cmath.exp(1j * cmath.pi / 3)
    for _ in range(20):
        f = TaylorSeries(tuple(rng.normal(size=21) + 1j * rng.normal(size=21)))
        g = TaylorSeries(tuple(rng.normal(size=21) + 1j * rng.normal(size=21)))
        assert product_rule_residual(g, f, z) < 1e-10


def test_zero_symbol_annihilates():
    f = TaylorSeries((1, 2, 3))
    assert all(c == 0 for c in apply_tg(TaylorSeries((0,)), f).coeffs)
    assert product_rule_residual(TaylorSeries((0,)), f, 0.3) == 0


def direct_tg_coefficient(f, g, n):
    """Independent summation oracle for the nth image coefficient."""
    if n == 0:
        return 0j
    return sum(f.coefficient(k) * (n - k) * g.coefficient(n - k)
               for k in range(n)) / n


@settings(max_examples=30, deadline=None)
@given(series(16), series(16))
def test_tg_coefficient_formula(f, g):
    image = apply_tg(g, f)
    for n in range(image.degree + 1):
        want = direct_tg_coefficient(f, g, n)
        scale = max(1.0, abs(want))
        assert abs(image.coefficient(n) - want) <= 1e-13 * scale


def test_apply_operator_dispatch():
    f, g = TaylorSeries((1, 1)), TaylorSeries((0, 1))
    assert apply_operator(OperatorKind.Tg, g, f).coeffs == apply_tg(g, f).coeffs
    assert apply_operator(OperatorKind.Sg, g, f).coeffs == apply_sg(g, f).coeffs


def test_intermediate_product_is_not_inflated():
    # image degree = deg f + deg g for T_g (product truncated to deg f + deg g')
    f, g = TaylorSeries((1,) * 5), TaylorSeries((1,) * 7)
    assert apply_tg(g, f).degree == f.degree + g.degree
    assert not apply_tg(g, f).truncated
    assert cauchy_product(f, g.derivative()).degree == f.degree + g.degree - 1


def old_apply(kind, g_cs, f_cs):
    """The images by the per-coefficient expressions the array code replaced."""
    if kind is OperatorKind.Tg:
        g_cs = old_derivative(g_cs)
    else:
        f_cs = old_derivative(f_cs)
    return old_antiderivative(old_cauchy(f_cs, g_cs, len(f_cs) + len(g_cs) - 2))


@settings(max_examples=60, deadline=None)
@given(coeff_tuples(), coeff_tuples(), st.booleans(), st.booleans())
def test_images_are_bit_identical_to_the_python_expressions(g_cs, f_cs, tg, tf):
    g, f = TaylorSeries(g_cs, tg), TaylorSeries(f_cs, tf)
    for kind, op in ((OperatorKind.Tg, apply_tg), (OperatorKind.Sg, apply_sg)):
        image = op(g, f)
        assert bits(image.coeffs) == bits(old_apply(kind, g_cs, f_cs))
        assert bits(image.array) == bits(image.coeffs)
        assert image.truncated is (tg or tf)
