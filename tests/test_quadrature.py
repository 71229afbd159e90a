"""Single-angle radial integrals on the rung-aligned mesh: closed-form accuracy
within the evaluation budget."""

import math

import numpy as np
import pytest

from volterra import criteria
from volterra.criteria import (DEFAULT_LADDER, LadderConfig, _radial_quad, radial_integral,
                               sg_radial_integral)
from volterra.errors import HypothesisError
from volterra.symbols import get_symbol, symbol_names


@pytest.mark.parametrize("t", [1.0 - 2.0 ** -10, 0.9, 0.99, 0.3])
def test_cells_cover_and_nest_down_to_the_end_point(monkeypatch, t):
    real = criteria._cell_nodes
    cells = []

    def spy(s_lo, s_hi, *args):
        cells.append((s_lo, s_hi))
        return real(s_lo, s_hi, *args)
    monkeypatch.setattr(criteria, "_cell_nodes", spy)
    radial_integral(get_symbol("identity"), alpha=0.0, theta=0.4, t=t)
    cells = list(dict.fromkeys(cells))
    for (lo1, hi1), (lo2, hi2) in zip(cells, cells[1:]):
        assert lo1 == hi2  # contiguous toward the boundary
    for j, (lo, hi) in enumerate(cells):
        assert hi == 2.0 ** -j and lo == max(2.0 ** -(j + 1), 1.0 - t)  # inside rung cell j
    assert cells[-1][0] == 1.0 - t


def test_unit_integrand():
    res = radial_integral(get_symbol("identity"), alpha=0.0, theta=1.3, t=0.9)
    assert res.value == pytest.approx(0.9, abs=1e-10)
    assert res.converged


def test_log_symbol_along_singular_ray():
    # int_0^t dr/(1-r) = -log(1-t)
    res = radial_integral(get_symbol("log"), alpha=0.0, theta=0.0, t=0.99)
    assert res.value == pytest.approx(math.log(100.0), abs=1e-5)
    assert res.evals <= 10_000


def test_log_symbol_opposite_ray_to_boundary():
    # int_0^1 dr/(1+r) = log 2, evaluated at the deepest rung
    t = 1.0 - 2.0 ** -40
    res = radial_integral(get_symbol("log"), alpha=0.0, theta=math.pi, t=t)
    assert res.value == pytest.approx(math.log(2.0), abs=1e-5)
    assert res.evals <= 10_000


def test_companion_integral_constant_symbol():
    # int_0^0.5 dr/(1-r^2)^2 = r/(2(1-r^2)) + (1/4) log((1+r)/(1-r)) at 0.5
    oracle = 0.5 / (2 * 0.75) + 0.25 * math.log(3.0)
    res = sg_radial_integral(get_symbol("one"), alpha=1.0, theta=0.7, t=0.5)
    assert res.value == pytest.approx(oracle, abs=1e-5)


def test_companion_integral_affine_diverges_slowly():
    # int_0^t dr/((1-r)(1+r)^2) ~ (1/4) log(1/(1-t)) near the boundary
    res = sg_radial_integral(get_symbol("affine"), alpha=1.0, theta=0.0, t=1.0 - 1e-4)
    assert res.value > 2.0
    res2 = sg_radial_integral(get_symbol("affine"), alpha=1.0, theta=0.0, t=1.0 - 1e-6)
    assert res2.value > res.value + 1.0  # log-like growth continues


def test_companion_integral_zero_symbol():
    res = sg_radial_integral(get_symbol("zero"), alpha=1.0, theta=0.0, t=0.999)
    assert res.value == 0.0


def test_companion_integral_requires_positive_alpha():
    with pytest.raises(HypothesisError):
        sg_radial_integral(get_symbol("one"), alpha=0.0, theta=0.0, t=0.5)


def test_t_zero_and_validation():
    assert radial_integral(get_symbol("log"), 0.0, 0.0, 0.0).value == 0.0
    with pytest.raises(ValueError):
        radial_integral(get_symbol("log"), 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        radial_integral(get_symbol("log"), -1.0, 0.0, 0.5)


def test_adaptive_engine_resolves_kinks():
    # |sin(8 pi r)| has 8 kinks in [0,1); piecewise closed form as oracle
    def f(r, s, theta):
        return np.abs(np.sin(8.0 * np.pi * r))

    t = 0.9375  # 7.5 half-periods exactly
    # 7 full half-arches of area 2/(8 pi) plus a half piece of area 1/(8 pi)
    oracle = 7.0 * 2.0 / (8.0 * np.pi) + 1.0 / (8.0 * np.pi)
    res = _radial_quad(f, 0.0, 0.0, t, None)
    assert res.value == pytest.approx(oracle, rel=1e-6)
    assert res.converged


def test_error_estimate_is_honest_on_smooth_integrand():
    def f(r, s, theta):
        return np.exp(r)

    res = _radial_quad(f, 0.0, 0.0, 0.75, None)
    true = math.exp(0.75) - 1.0
    assert abs(res.value - true) <= max(res.error * 10.0, 1e-12)


def test_budget_exhaustion_reports_not_raises():
    # oscillatory enough to bust a tiny panel budget on the single cell [0, 1/2]
    def f(r, s, theta):
        return np.abs(np.sin(200.0 * np.pi * r))

    cfg = LadderConfig(max_panels=4, cell_rel_tol=1e-12)
    res = _radial_quad(f, 0.0, 0.0, 0.5, cfg)
    assert not res.converged
    assert res.evals == 16 * (1 + 2 + 4)  # one, two, then four panels of 16 nodes


@pytest.mark.parametrize("name", symbol_names())
def test_single_angle_integral_equals_the_engine_prefix(name):
    """One integrator: the single-angle integral up to rung t_k equals the
    ladder engine's prefix at the same grid angle, up to the engine's own
    tolerance, which is relative to the largest total over all angles."""
    g = get_symbol(name)
    for alpha in (0.0, 0.5, 1.0):
        engine = criteria._LadderEngine(g.abs_deriv, alpha, 0.0, DEFAULT_LADDER)
        for k in (3, 10, 25, 40):
            for j in (0, 37, 256, 400):
                theta = engine.angles_all[j]
                res = radial_integral(g, alpha, theta, 1.0 - 2.0 ** -k, DEFAULT_LADDER)
                assert res.value == pytest.approx(engine.prefix_all[k, j], rel=1e-6, abs=0.0), \
                    (alpha, k, theta)
