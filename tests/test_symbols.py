"""Registry symbols: evaluator consistency, Taylor data, metadata sanity."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volterra.errors import UnknownSymbolError
from volterra.series import check_derivative_consistency, derivative
from volterra.spaces import DEFAULT_GRID
from volterra.symbols import (DEFAULT_DEGREE, LACUNARY_K, get_symbol, ground_truth_table,
                              registry, symbol_names)


class SymbolZeroDerivative(ArithmeticError):
    """g' vanishes on the sampling grid, so the log-derivative quotient is meaningless."""


def log_deriv_bloch_seminorm(g, grid=DEFAULT_GRID) -> float:
    """Grid surrogate ``sup (1-|z|^2) |g''(z)/g'(z)|`` for log(g') lying in the Bloch space.

    ``g`` is any object with vectorized ``deriv``/``deriv2`` evaluators (e.g. a
    registry symbol).  Raises SymbolZeroDerivative as soon as ``|g'|`` drops
    below 1e-12 at a grid node: the quotient says nothing about Bloch
    membership across an interior zero of g', so the flag must be recorded as
    unknown rather than trusting a blown-up number.
    """
    s = grid.one_minus_r()
    radii = 1.0 - s
    thetas = grid.angles()
    w = s * (2.0 - s)
    best = 0.0
    for i, r in enumerate(radii):
        zs = r * np.exp(1j * thetas)
        d1 = np.asarray(g.deriv(zs))
        if np.any(np.abs(d1) < 1e-12):
            raise SymbolZeroDerivative(f"|g'| < 1e-12 at radius {r:.6f}")
        q = np.abs(np.asarray(g.deriv2(zs)) / d1)
        best = max(best, float(w[i] * np.max(q)))
    return best


REQUIRED = {"zero", "one", "identity", "monomial", "log", "koebe1", "koebe2",
            "koebe3", "affine", "cayley", "lacunary"}


def test_registry_contains_required_symbols():
    assert REQUIRED <= set(symbol_names())


def test_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        get_symbol("nope")


def test_identity_has_unit_derivative():
    g = get_symbol("identity")
    zs = 0.3 * np.exp(1j * np.linspace(0, 6, 7))
    assert np.allclose(g.deriv(zs), 1.0)


# the pole symbols, g' = (1-z)^-p: each order and g(0) written out here
POLES = {"log": (1, 0.0), "koebe1": (1, 0.0), "koebe2": (2, 0.0), "koebe3": (3, 0.0),
         "cayley": (2, 1.0)}


@pytest.mark.parametrize("name", sorted(POLES))
def test_pole_taylor_coefficients_are_binomial(name):
    """``g(0) + int_0^z (1-w)^-p dw`` has the coefficients ``C(n+p-2, p-1)/n``
    for ``n >= 1``: ``1/n`` at ``p = 1``, 1 at ``p = 2``, ``(n+1)/2`` at
    ``p = 3``; each is the rounding of that rational."""
    p, at_zero = POLES[name]
    g = get_symbol(name)
    assert g.taylor_coeff(0) == at_zero
    for n in range(1, 4097):
        assert g.taylor_coeff(n) == math.comb(n + p - 2, p - 1) / n, n
    if p == 1:  # partial sums converge to the closed form: -log(1-0.5) = log 2
        assert g.taylor(200)(0.5) == pytest.approx(math.log(2.0), abs=1e-12)


def _pole_oracle(p, at_zero, r=None, s=None):
    """``g(0) + int_0^r (1-t)^-p dt`` and ``(1-r)^-p`` at 400 digits, at the
    exact ``r`` or the exact ``s = 1 - r``, whichever is given."""
    import mpmath
    with mpmath.workdps(400):
        s = mpmath.mpf(s) if r is None else 1 - mpmath.mpf(r)
        value = -mpmath.log(s) if p == 1 else (s ** (1 - p) - 1) / (p - 1)
        return float(at_zero + value), float(s ** -p)


@pytest.mark.parametrize("name", sorted(POLES))
def test_pole_moduli_are_their_order(name):
    """``abs_eval`` and ``abs_deriv`` of a pole symbol within 4 units of
    ``2^-53`` relative of a 400-digit ``g(0) + int_0^r (1-t)^-p dt`` and
    ``(1-r)^-p``, from 1e-300 up to ``1 - 2^-40``.  The point is the exact one
    of ``r`` and ``s``: ``s`` where it is drawn (``r = 1 - s`` then rounds),
    ``r`` otherwise.  log's ``|g|`` read 0 below ``r = 1e-16`` from
    ``|log(s^2)/2|``, since ``s`` rounds to 1 there."""
    p, at_zero = POLES[name]
    g = get_symbol(name)
    rng = np.random.default_rng(24)
    s_drawn = 2.0 ** -rng.uniform(0.0, 40.0, 200)
    r_drawn = np.concatenate([10.0 ** -rng.uniform(0.0, 300.0, 200), rng.uniform(0.0, 1.0, 100)])
    for r, s, from_s in ((1.0 - s_drawn, s_drawn, True), (r_drawn, 1.0 - r_drawn, False)):
        values, derivs = g.abs_eval(r, s), g.abs_deriv(r, s)
        for ri, si, value, deriv in zip(r, s, values, derivs):
            point = {"s": si} if from_s else {"r": ri}
            want_value, want_deriv = _pole_oracle(p, at_zero, **point)
            assert abs(value - want_value) <= 4.0 * 2.0 ** -53 * want_value, (ri, si)
            assert abs(deriv - want_deriv) <= 4.0 * 2.0 ** -53 * want_deriv, (ri, si)


@pytest.mark.parametrize("name", ["log", "koebe1"])
@pytest.mark.parametrize("r", [1e-6, 1e-9])
def test_log_closed_form_is_relative_near_zero(name, r):
    """The closed form ``-log(1-z)`` of the ``p = 1`` poles within 4 units of
    ``2^-52`` relative of 60 digits near ``z = 0``.  NumPy's complex
    ``log1p(w)`` is ``log(1 + w)``, which read 5.6e-12 relative high at
    ``r = 1e-6``."""
    import mpmath
    g = get_symbol(name)
    for theta in (0.0, 0.7, 0.5 * math.pi, 2.0, math.pi, 4.5):
        z = complex(r * np.exp(1j * theta))
        with mpmath.workdps(60):
            want = complex(-mpmath.log(1 - mpmath.mpc(z.real, z.imag)))
        assert abs(complex(g.eval(z)) - want) <= 4.0 * EPS * abs(want), theta


def test_cayley_value():
    assert complex(get_symbol("cayley").eval(0.5 + 0j)) == pytest.approx(2.0)


def test_lacunary_structure():
    g = get_symbol("lacunary")
    exps = {2 ** k for k in range(LACUNARY_K + 1)}
    for n in range(2 ** LACUNARY_K + 1):
        assert g.taylor_coeff(n) == (1 if n in exps else 0)
    # derivative evaluators agree with the coefficient data
    z = 0.37 * np.exp(0.9j)
    series = g.taylor(2 ** LACUNARY_K)
    assert complex(g.eval(z)) == pytest.approx(complex(series(z)), abs=1e-12)


@pytest.mark.parametrize("name", sorted(REQUIRED))
def test_evaluator_derivative_consistency(name):
    g = get_symbol(name)
    # g -> g' and g' -> g'' on the fixed probe grid of the series module
    assert check_derivative_consistency(g.eval, g.deriv) <= 1e-6
    assert check_derivative_consistency(g.deriv, g.deriv2) <= 1e-6


# bounds on sum_{n > 256} |c_n| r^n at r = 0.9, the dropped tail of g.taylor(256) on
# |z| <= 0.9; it is 0 for the polynomials, which the series holds whole
_GEOM_TAIL_256 = 0.9 ** 257 / (1.0 - 0.9)
TAIL_AT_0_9 = {"log": _GEOM_TAIL_256 / 257, "koebe1": _GEOM_TAIL_256 / 257,
               "koebe2": _GEOM_TAIL_256, "cayley": _GEOM_TAIL_256,
               "koebe3": 0.5 * 258 * 0.9 ** 257 / (1.0 - 0.9) ** 2}


@pytest.mark.parametrize("name", sorted(REQUIRED))
def test_taylor_partial_sums_converge_inside(name):
    g = get_symbol(name)
    series = g.taylor(256)
    for z in (0.5 + 0j, 0.9 * np.exp(2.1j)):
        err = abs(complex(g.eval(np.asarray(z))) - complex(series(z)))
        assert err <= max(TAIL_AT_0_9.get(name, 0.0), 1e-12)


# -- the polynomial symbols, built from their coefficient tables ---------------

POLYNOMIALS = ("zero", "one", "identity", "monomial", "affine", "lacunary")


@pytest.mark.parametrize("name", POLYNOMIALS)
def test_polynomial_closed_forms_are_its_taylor_series(name):
    """``g``, ``g'`` and ``g''`` of a polynomial symbol are its Taylor series
    and that series' derivatives, bit for bit, inside, on and outside the
    unit circle."""
    g = get_symbol(name)
    series = g.taylor(DEFAULT_DEGREE)
    rng = np.random.default_rng(7)
    zs = np.concatenate([rng.uniform(0.0, 1.0, 64) * np.exp(2j * np.pi * rng.uniform(size=64)),
                         np.exp(2j * np.pi * np.arange(16) / 16), [0j, 1.01, -0.3 + 1e-9j]])
    for f, h in ((g.eval, series), (g.deriv, derivative(series)),
                 (g.deriv2, derivative(derivative(series)))):
        assert np.asarray(f(zs)).tobytes() == np.asarray(h(zs)).tobytes()
        assert complex(f(0.4 - 0.2j)) == complex(h(0.4 - 0.2j))


def _exact_sum(terms, r):
    return sum((c * Fraction(float(r)) ** n for n, c in terms), Fraction(0))


@pytest.mark.parametrize("name", POLYNOMIALS)
def test_polynomial_moduli_are_their_coefficient_sums(name):
    """``abs_eval`` and ``abs_deriv`` of a polynomial symbol against
    ``sum |c_n| r^n`` and ``sum n |c_n| r^(n-1)``, summed exactly in fractions
    of the float radii.  The allowance is the forward error bound of powers
    formed from repeated squares and a sum of ``T`` nonnegative terms:
    ``(N + T - 1) u`` relative at degree ``N``, with ``u = 2^-53``.  That is at
    most 2 ulps for every polynomial but lacunary, whose powers of degree up to
    256 double a square's rounding at each of eight squarings."""
    g = get_symbol(name)
    mags = [(n, Fraction(abs(g.taylor_coeff(n)))) for n in range(DEFAULT_DEGREE + 1)]
    mags = [(n, c) for n, c in mags if c]
    rng = np.random.default_rng(11)
    s = np.concatenate([2.0 ** -rng.uniform(0.0, 40.0, 200), rng.uniform(0.0, 1.0, 100),
                        2.0 ** -np.arange(41.0)])
    r = 1.0 - s
    for form, terms in ((g.abs_eval, mags), (g.abs_deriv, [(n - 1, n * c) for n, c in mags if n])):
        got = form(r, s)
        m = max((n for n, _ in terms), default=0) + len(terms) - 1
        allowance = Fraction(m, 2 ** 53 - m)  # gamma_m = m u / (1 - m u)
        for ri, value in zip(r, got):
            want = _exact_sum(terms, ri)
            assert abs(Fraction(float(value)) - want) <= allowance * want, (form, ri)


def test_zero_symbol_evaluators_vanish():
    g = get_symbol("zero")
    assert g.metadata.is_zero
    zs = 0.8 * np.exp(1j * np.linspace(0, 6, 13))
    assert np.all(g.eval(zs) == 0)
    assert np.all(g.deriv(zs) == 0)
    assert np.all(g.deriv2(zs) == 0)


def test_bloch_flags_match_numeric_surrogate():
    # declared log g' Bloch membership is sanity-checked by the grid quotient
    for name in ("identity", "log", "koebe2", "koebe3", "affine", "cayley"):
        g = get_symbol(name)
        assert g.metadata.log_deriv_bloch is True
        assert log_deriv_bloch_seminorm(g) < 10.0
    # the quotient is inapplicable across an interior zero of g'
    assert get_symbol("monomial").metadata.log_deriv_bloch is False
    with pytest.raises(SymbolZeroDerivative):
        log_deriv_bloch_seminorm(get_symbol("monomial"))
    assert get_symbol("lacunary").metadata.log_deriv_bloch is None


def test_ground_truth_table_shape():
    rows = ground_truth_table()
    assert len(rows) >= 10
    for row in rows:
        assert row.boundedness in ("Bounded", "Unbounded")
        assert row.compactness in ("Compact", "NotCompact")
        assert row.justification
        assert get_symbol(row.symbol)


def test_rotated_symbol_consistency():
    g = get_symbol("cayley").rotated(0.7)
    assert check_derivative_consistency(g.eval, g.deriv) <= 1e-6
    w = np.exp(0.7j)
    z = 0.4 * np.exp(0.2j)
    assert complex(g.eval(z)) == pytest.approx(1.0 / (1.0 - w * z))
    # taylor coefficients rotate by e^{i n phi}
    base = get_symbol("cayley")
    for n in range(5):
        assert g.taylor_coeff(n) == pytest.approx(base.taylor_coeff(n) * w ** n)
    assert g.metadata == base.metadata


def test_registry_order_is_deterministic():
    assert [s.name for s in registry()] == symbol_names()


@pytest.mark.parametrize("name", symbol_names())
def test_one_modulus_one_rounding(name):
    """A modulus rounds the same whatever the shape of its radii: a scalar, a
    flat array, a column (the profile and the ray maximiser) or a
    ``(cells, nodes)`` block (the cell integrator) give the same bits, so a
    ladder, its profile and the interior sweep read one function."""
    g = get_symbol(name)
    s = 2.0 ** -np.linspace(0.05, 40.0, 40 * 16).reshape(40, 16)
    r = 1.0 - s
    for form in (g.abs_eval, g.abs_deriv):
        block = np.asarray(form(r, s), dtype=float)
        assert block.shape == r.shape
        flat = np.asarray(form(r.ravel(), s.ravel()), dtype=float)
        column = np.asarray(form(r.reshape(-1, 1), s.reshape(-1, 1)), dtype=float)
        scalars = np.array([float(form(ri, si)) for ri, si in zip(r.ravel(), s.ravel())])
        for got in (flat, column.ravel(), scalars):
            assert got.tobytes() == block.ravel().tobytes()


# -- the declared peak rays ----------------------------------------------------

PEAK_DEGREE = 4096
EPS = np.finfo(float).eps


@pytest.mark.parametrize("name", symbol_names())
def test_rotation_by_the_peak_has_nonnegative_coefficients(name):
    """The classifier trusts ``peak`` for every angular sup: it holds because
    ``g(e^{i peak} z)`` has real, nonnegative Taylor coefficients, so that
    ``|g^(j)(r e^{i theta})| <= |g^(j)(r e^{i peak})|``.  The rotation rounds
    ``e^{i n peak}`` by about ``n`` ulps."""
    g = get_symbol(name)
    assert g.peak is not None and g.rotation == 0.0
    c = np.asarray(g.rotated(g.peak).taylor(PEAK_DEGREE).coeffs)
    tol = 4.0 * EPS * np.arange(1, len(c) + 1) * np.abs(c)
    assert np.all(np.abs(c.imag) <= tol)
    assert np.all(c.real >= -tol)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(symbol_names()),
       st.lists(st.floats(-10.0, 10.0, allow_nan=False), max_size=2),
       st.floats(0.0, 1.0 - 2.0 ** -30), st.floats(-10.0, 10.0, allow_nan=False))
def test_moduli_never_exceed_their_value_on_the_peak_ray(name, rotations, r, theta):
    """The closed forms at any angle never exceed the profiles on the peak ray.

    A closed form reads ``|g|`` at its rounding of ``z``, up to a few ulps
    off the circle, so the profile is read 8 ulps further out; the margin is
    2^12 ulps of the larger of the value and 1, since lacunary's closed forms
    are Horner sums of degree up to 256 and its profiles multiply repeated
    squares, either of which multiplies its rounding by up to 2^8, and near
    ``z = 0`` the values underflow (monomial's ``z^2 / 2`` at ``r = 5e-324``)."""
    g = get_symbol(name)
    for phi in rotations:
        g = g.rotated(phi)
    z = r * np.exp(1j * theta)
    out = r * (1.0 + 8.0 * EPS)
    for f, form in ((g.eval, g.abs_eval), (g.deriv, g.abs_deriv)):
        at = abs(complex(f(z)))
        peak = float(form(out, 1.0 - out))
        assert at <= peak + 4096.0 * EPS * max(peak, 1.0)
