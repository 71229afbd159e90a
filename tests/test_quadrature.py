"""Radial integrals at one angle on the rung-aligned mesh: the cell integrator
over the rung cells clipped at ``s = 1 - t`` hits closed forms within the
evaluation budget."""

import math

import numpy as np
import pytest

from volterra import criteria
from volterra.criteria import DEFAULT_LADDER, _integrate_cells, _rung_cells, sg_boundedness
from volterra.errors import HypothesisError
from volterra.spaces import SpacePair
from volterra.symbols import get_symbol, symbol_names


def _radial(absmat, weight_exponent, theta, t):
    """``int_0^t absmat(r, s, theta) (1-r^2)^-weight_exponent dr`` at one angle:
    the value, the cell mesh and the number of integrand samples taken."""
    samples = []

    def counting(r, s, th):
        samples.append(np.broadcast(r, s, th).size)
        return absmat(r, s, th)
    mesh = _integrate_cells(counting, weight_exponent, _rung_cells(1.0 - t), np.array([theta]))
    return float(np.sum(mesh.rows)), mesh, sum(samples)


@pytest.mark.parametrize("t", [1.0 - 2.0 ** -10, 0.9, 0.99, 0.3])
def test_cells_cover_and_nest_down_to_the_end_point(monkeypatch, t):
    real = criteria._cell_nodes
    cells = []

    def spy(s_lo, s_hi, *args):
        # one call takes a batch of cells at one panel count
        cells.extend(zip(np.asarray(s_lo).tolist(), np.asarray(s_hi).tolist()))
        return real(s_lo, s_hi, *args)
    monkeypatch.setattr(criteria, "_cell_nodes", spy)
    _radial(get_symbol("identity").abs_deriv, 0.0, 0.4, t)
    cells = list(dict.fromkeys(cells))
    for (lo1, hi1), (lo2, hi2) in zip(cells, cells[1:]):
        assert lo1 == hi2  # contiguous toward the boundary
    for j, (lo, hi) in enumerate(cells):
        assert hi == 2.0 ** -j and lo == max(2.0 ** -(j + 1), 1.0 - t)  # inside rung cell j
    assert cells[-1][0] == 1.0 - t


def test_unit_integrand():
    value, mesh, _ = _radial(get_symbol("identity").abs_deriv, 0.0, 1.3, 0.9)
    assert value == pytest.approx(0.9, abs=1e-10)
    assert np.all(mesh.accurate)


def test_log_symbol_along_singular_ray():
    # int_0^t dr/(1-r) = -log(1-t)
    value, _, samples = _radial(get_symbol("log").abs_deriv, 0.0, 0.0, 0.99)
    assert value == pytest.approx(math.log(100.0), abs=1e-5)
    assert samples <= 10_000


def test_log_symbol_opposite_ray_to_boundary():
    # int_0^1 dr/(1+r) = log 2, evaluated at the deepest rung
    value, _, samples = _radial(get_symbol("log").abs_deriv, 0.0, math.pi, 1.0 - 2.0 ** -40)
    assert value == pytest.approx(math.log(2.0), abs=1e-5)
    assert samples <= 10_000


def test_companion_integral_constant_symbol():
    # int_0^0.5 dr/(1-r^2)^2 = r/(2(1-r^2)) + (1/4) log((1+r)/(1-r)) at 0.5
    oracle = 0.5 / (2 * 0.75) + 0.25 * math.log(3.0)
    value, _, _ = _radial(get_symbol("one").abs_eval, 2.0, 0.7, 0.5)
    assert value == pytest.approx(oracle, abs=1e-5)


def test_companion_integral_affine_diverges_slowly():
    # int_0^t dr/((1-r)(1+r)^2) ~ (1/4) log(1/(1-t)) near the boundary
    absmat = get_symbol("affine").abs_eval
    value, _, _ = _radial(absmat, 2.0, 0.0, 1.0 - 1e-4)
    assert value > 2.0
    value2, _, _ = _radial(absmat, 2.0, 0.0, 1.0 - 1e-6)
    assert value2 > value + 1.0  # log-like growth continues


def test_companion_integral_zero_symbol():
    value, _, _ = _radial(get_symbol("zero").abs_eval, 2.0, 0.0, 0.999)
    assert value == 0.0


def test_companion_integral_requires_positive_alpha():
    with pytest.raises(HypothesisError):
        sg_boundedness(get_symbol("one"), SpacePair(0.0, 0.5))


def test_t_zero_is_an_empty_sum():
    assert _rung_cells(1.0) == []
    value, _, samples = _radial(get_symbol("log").abs_deriv, 0.0, 0.0, 0.0)
    assert value == 0.0 and samples == 0


def test_adaptive_engine_resolves_kinks():
    # |sin(8 pi r)| has 8 kinks in [0,1); piecewise closed form as oracle
    def f(r, s, theta):
        return np.abs(np.sin(8.0 * np.pi * r))

    t = 0.9375  # 7.5 half-periods exactly
    # 7 full half-arches of area 2/(8 pi) plus a half piece of area 1/(8 pi)
    oracle = 7.0 * 2.0 / (8.0 * np.pi) + 1.0 / (8.0 * np.pi)
    value, mesh, _ = _radial(f, 0.0, 0.0, t)
    assert value == pytest.approx(oracle, rel=1e-6)
    assert np.all(mesh.accurate)


def test_error_estimate_is_honest_on_smooth_integrand():
    def f(r, s, theta):
        return np.exp(r)

    value, mesh, _ = _radial(f, 0.0, 0.0, 0.75)
    true = math.exp(0.75) - 1.0
    assert abs(value - true) <= max(float(np.sum(mesh.errs)) * 10.0, 1e-12)


def test_budget_exhaustion_reports_not_raises(monkeypatch):
    # oscillatory enough to bust a tiny panel budget on the single cell [0, 1/2]
    def f(r, s, theta):
        return np.abs(np.sin(200.0 * np.pi * r))

    monkeypatch.setattr(criteria, "MAX_PANELS", 4)
    monkeypatch.setattr(criteria, "CELL_REL_TOL", 1e-12)
    _, mesh, samples = _radial(f, 0.0, 0.0, 0.5)
    assert not np.any(mesh.accurate)
    assert samples == 16 * (1 + 2 + 4)  # one, two, then four panels of 16 nodes


@pytest.mark.parametrize("name", symbol_names())
def test_single_angle_integral_equals_the_engine_prefix(name):
    """One integrator: the integral up to rung t_k on the peak ray equals the
    ladder engine's prefix there, up to the engine's own tolerance, which is
    relative to the largest total."""
    g = get_symbol(name)
    for alpha in (0.0, 0.5, 1.0):
        engine = criteria._LadderEngine(g.abs_deriv, alpha, 0.0, DEFAULT_LADDER, g.peak_ray)
        for k in (3, 10, 25, 40):
            value, _, _ = _radial(g.abs_deriv, alpha, g.peak_ray, 1.0 - 2.0 ** -k)
            assert value == pytest.approx(engine.prefix[k], rel=1e-6, abs=0.0), (alpha, k)


def _cells_reference(absmat, weight_exponent, cells, thetas):
    """The cell integrator one cell at a time: ``(rows, clamped, panels)``."""
    from volterra.series import OVERFLOW_CLAMP
    use_log = weight_exponent >= criteria.LOG_SUBSTITUTION_ALPHA

    def row(cell, panels):
        r, s, w = (a[0] for a in criteria._cell_nodes([cell[0]], [cell[1]], panels,
                                                      criteria.NODES_PER_CELL, use_log))
        vals = np.broadcast_to(absmat(r[:, None], s[:, None], thetas[None, :]),
                               (len(r), len(thetas)))
        if weight_exponent != 0.0:
            w = w * (s * (2.0 - s)) ** -weight_exponent
        bad = ~np.isfinite(vals) | (vals > OVERFLOW_CLAMP)
        return w @ np.where(bad, OVERFLOW_CLAMP, vals), bool(np.any(bad))

    rows, errs, clamped, panels = [], [], [], []
    for cell in cells:
        (coarse, c1), (fine, c2) = row(cell, 1), row(cell, 2)
        rows.append(fine)
        errs.append(float(np.max(np.abs(fine - coarse))))
        clamped.append(c1 or c2)
        panels.append(2)
    for _ in range(6):
        scale = max(float(np.max(np.sum(rows, axis=0))), 1.0)
        bad = [j for j in range(len(cells))
               if errs[j] > criteria.CELL_REL_TOL * scale and panels[j] < criteria.MAX_PANELS]
        if not bad:
            break
        for j in bad:
            panels[j] *= 2
            new, cl = row(cells[j], panels[j])
            errs[j] = float(np.max(np.abs(new - rows[j])))
            rows[j] = new
            clamped[j] |= cl
    return np.array(rows), np.array(clamped), panels


def _steep_pole(r, s, theta):
    from volterra.symbols import _dist
    with np.errstate(over="ignore", divide="ignore"):
        return _dist(r, s, theta) ** -60.0


GRID_64 = 2.0 * np.pi * np.arange(64) / 64


@pytest.mark.parametrize("absmat, weight_exponent, thetas", [
    pytest.param(get_symbol("log").abs_deriv, 0.0, np.array([0.0]), id="log-ray"),
    pytest.param(get_symbol("koebe3").abs_eval, 2.0, np.array([0.0]), id="koebe3-ray-log-nodes"),
    pytest.param(get_symbol("cayley").abs_deriv, 0.5, GRID_64, id="cayley-grid"),
    pytest.param(get_symbol("lacunary").abs_deriv, 0.5, GRID_64, id="lacunary-grid"),
    pytest.param(lambda r, s, t: np.abs(np.sin(8.0 * np.pi * r)), 0.0, np.array([0.3, 1.1]),
                 id="kinks-broadcast"),
    pytest.param(_steep_pole, 0.5, GRID_64, id="steep-pole-clamped"),
])
def test_batched_cells_match_the_one_cell_reference(absmat, weight_exponent, thetas):
    """One integrand call per panel count sums the same nodes as one call per
    cell: rows within a few ulps (the sums run in another order), the same
    clamps and the same panel counts."""
    cells = _rung_cells(2.0 ** -DEFAULT_LADDER.k_max)
    mesh = _integrate_cells(absmat, weight_exponent, cells, thetas)
    rows, clamped, panels = _cells_reference(absmat, weight_exponent, cells, thetas)
    np.testing.assert_allclose(mesh.rows, rows, rtol=1e-13, atol=0.0)
    assert np.array_equal(mesh.clamped, clamped)
    assert mesh.panels.tolist() == panels
