"""Registry symbols: evaluator consistency, Taylor data, metadata sanity."""

import math

import numpy as np
import pytest

from volterra.errors import SymbolZeroDerivative, UnknownSymbolError
from volterra.series import check_derivative_consistency
from volterra.spaces import log_deriv_bloch_seminorm
from volterra.symbols import (LACUNARY_K, get_symbol, ground_truth_table, registry,
                              symbol_names)

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


def test_log_taylor_coefficients_are_harmonic():
    g = get_symbol("log")
    for n in range(1, 30):
        assert g.taylor_coeff(n) == pytest.approx(1.0 / n)
    assert g.taylor_coeff(0) == 0
    # partial sums converge to the closed form: -log(1-0.5) = log 2
    assert g.taylor(200)(0.5) == pytest.approx(math.log(2.0), abs=1e-12)


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


@pytest.mark.parametrize("name", sorted(REQUIRED))
def test_taylor_partial_sums_converge_inside(name):
    g = get_symbol(name)
    series = g.taylor(256)
    for z in (0.5 + 0j, 0.9 * np.exp(2.1j)):
        err = abs(complex(g.eval(np.asarray(z))) - complex(series(z)))
        bound = g.tail_bound(256, 0.9) if g.tail_bound else 1e-8
        assert err <= max(bound, 1e-12)


@pytest.mark.parametrize("name", ["log", "cayley", "koebe3"])
def test_series_extension_stays_within_tail_bound(name):
    g = get_symbol(name)
    n = 256
    short, long = g.taylor(n), g.taylor(n + 50)
    for z in (0.99 + 0j, 0.99 * np.exp(1.3j)):
        diff = abs(complex(short(z)) - complex(long(z)))
        assert diff < g.tail_bound(n, 0.99)


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


def test_lacunary_grid_forms_equal_the_unmemoised_products():
    # on a grid the lacunary forms read their cos/sin(n theta) tables from a
    # memo shared by all rows; every row must equal the products formed afresh
    from volterra.symbols import _modulus, _phase_tables
    n = np.array(sorted(2.0 ** k for k in range(LACUNARY_K + 1)))
    g = get_symbol("lacunary").rotated(0.3)
    theta = (2.0 * np.pi * np.arange(512) / 512)[None, :]
    for s in (2.0 ** -np.arange(0, 40, 3.0), np.array([0.5])):
        r = 1.0 - s
        for form, a, p in ((g.abs_eval, np.ones(len(n)), n),
                           (g.abs_deriv, n, np.maximum(n - 1.0, 0.0))):
            rp = a * r[:, None] ** p
            ph = ((theta + 0.3)[..., None] * n)[0].T
            want = _modulus(rp @ np.cos(ph), rp @ np.sin(ph))
            got = form(r[:, None], s[:, None], theta)
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    tables = _phase_tables((theta + 0.3).tobytes(), n.tobytes())
    assert not any(t.flags.writeable for t in tables)
