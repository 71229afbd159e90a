"""Weighted sup-norms, Bloch norms and grid behavior."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volterra.errors import DomainError, SymbolZeroDerivative
from volterra.series import TaylorSeries
from volterra.spaces import (DEFAULT_GRID, RING_GROUP, DiskGrid, SpacePair, bloch_norm,
                             golden_max, log_deriv_bloch_seminorm, weighted_sup_details,
                             weighted_sup_norm, weighted_sup_norms)
from volterra.symbols import get_symbol

from test_series import combination

def cayley(z):
    return 1.0 / (1.0 - z)


def brute_force_weighted_sup(f, alpha, n_r=400, n_t=720):
    """Independent dense-sampling oracle, no grading or refinement."""
    best = 0.0
    for r in np.linspace(0.0, 0.999, n_r):
        zs = r * np.exp(2j * np.pi * np.arange(n_t) / n_t)
        w = (1.0 - r * r) ** alpha
        best = max(best, w * float(np.max(np.abs(f(zs)))))
    return best


def test_constant_alpha_zero():
    assert weighted_sup_norm(TaylorSeries((1,)), 0.0) == pytest.approx(1.0)


def test_constant_alpha_one_attained_at_origin():
    detail = weighted_sup_details(TaylorSeries((1,)), 1.0)
    assert detail.value == pytest.approx(1.0)
    assert abs(detail.argmax) == pytest.approx(0.0)


def test_cayley_weighted_norm_is_two():
    # (1-r^2)/|1-r e^{i t}| is maximized along the positive reals: (1+r) -> 2
    value = weighted_sup_norm(cayley, 1.0)
    assert value == pytest.approx(2.0, abs=1e-3)
    assert brute_force_weighted_sup(cayley, 1.0) <= value + 1e-9


def test_bloch_norm_constant():
    assert bloch_norm(TaylorSeries((3 - 4j,))) == pytest.approx(5.0)


def test_bloch_norm_identity_and_shifted():
    # |f(0)| + sup (1-|z|^2)|f'|: the identity gives 0 + 1, adding a constant 1 gives 2
    assert bloch_norm(TaylorSeries((0, 1))) == pytest.approx(1.0)
    assert bloch_norm(TaylorSeries((1, 1))) == pytest.approx(2.0)


def test_bloch_norm_log():
    assert bloch_norm(lambda z: -np.log1p(-z), lambda z: 1.0 / (1.0 - z)) == \
        pytest.approx(2.0, abs=1e-3)


def test_log_deriv_bloch_seminorm_examples():
    assert log_deriv_bloch_seminorm(get_symbol("identity")) == pytest.approx(0.0)
    assert log_deriv_bloch_seminorm(get_symbol("log")) == pytest.approx(2.0, abs=1e-3)


def test_log_deriv_bloch_seminorm_rejects_interior_zero_of_gprime():
    # g = z^2/2 has g'(0) = 0: the quotient surrogate must refuse, not diverge
    with pytest.raises(SymbolZeroDerivative):
        log_deriv_bloch_seminorm(get_symbol("monomial"))


def poly_handles(max_degree=12):
    scalar = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
    return st.lists(scalar, min_size=1, max_size=max_degree + 1).map(
        lambda cs: TaylorSeries(tuple(cs)))


# refinement off: the pure grid max is exactly positively homogeneous, while
# golden-section refinement carries ~1e-10 positional noise at interior maxima
SMALL_GRID = DiskGrid(radial_k=80, n_angles=64, refine_top=0, outer_rungs=3)


@settings(max_examples=25, deadline=None)
@given(poly_handles(), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_monotone_in_alpha(f, a1, a2):
    lo, hi = min(a1, a2), max(a1, a2)
    n_lo = weighted_sup_norm(f, lo, SMALL_GRID)
    n_hi = weighted_sup_norm(f, hi, SMALL_GRID)
    assert n_hi <= n_lo * (1 + 1e-12) + 1e-12


@settings(max_examples=25, deadline=None)
@given(poly_handles(), st.floats(0.0, 2.0),
       st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0,
                          allow_nan=False, allow_infinity=False))
def test_homogeneity(f, alpha, c):
    base = weighted_sup_norm(f, alpha, SMALL_GRID)
    scaled = weighted_sup_norm(TaylorSeries(c * f.array), alpha, SMALL_GRID)
    assert scaled == pytest.approx(abs(c) * base, rel=1e-12, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(poly_handles(), poly_handles(), st.floats(0.0, 2.0))
def test_triangle_inequality(f, g, alpha):
    lhs = weighted_sup_norm(combination(1.0, f, g), alpha, SMALL_GRID)
    rhs = weighted_sup_norm(f, alpha, SMALL_GRID) + weighted_sup_norm(g, alpha, SMALL_GRID)
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


def test_refinement_never_decreases():
    raw = DiskGrid(radial_k=96, n_angles=128, refine_top=0)
    refined = DiskGrid(radial_k=96, n_angles=128, refine_top=3)
    # rotate so the boundary peak falls between grid angles
    def rotated_cayley(z):
        return 1.0 / (1.0 - np.exp(-0.01j) * z)
    v0 = weighted_sup_norm(rotated_cayley, 1.0, raw)
    v1 = weighted_sup_norm(rotated_cayley, 1.0, refined)
    assert v1 >= v0
    assert v1 == pytest.approx(2.0, abs=1e-3)


def test_divergent_norm_is_tagged():
    # a pole strong enough to overflow the clamp near the boundary: the sweep
    # must come back tagged divergent instead of raising
    detail = weighted_sup_details(lambda z: (1.0 - z) ** -60.0, 0.0)
    assert detail.divergent
    assert detail.clamped_samples > 0
    assert detail.value == float("inf")


@pytest.mark.parametrize("cs", [(1e299,) * 200, (1e308,) * 1100],
                         ids=["values-overflow", "block-sum-overflows"])
def test_overflowing_series_is_tagged_divergent(cs):
    detail = weighted_sup_details(TaylorSeries(cs), 0.0)
    assert detail.value == float("inf")
    assert detail.divergent
    assert detail.clamped_samples > 0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 300, 511, 512, 513, 700]),
       st.floats(0.0, 2.0))
def test_series_sup_never_below_reference_sweep(seed, size, alpha):
    # reference: numpy's Horner at every DEFAULT_GRID point (plus the boundary
    # ring at alpha = 0), weighted; the ring sweep agrees with it to rounding,
    # and refinement can only raise the value
    rng = np.random.default_rng(seed)
    cs = (rng.normal(size=size) + 1j * rng.normal(size=size)) / np.arange(1, size + 1)
    s = DEFAULT_GRID.one_minus_r()
    if alpha == 0.0:
        s = np.append(s, 0.0)
    zs = (1.0 - s)[:, None] * np.exp(1j * DEFAULT_GRID.angles())[None, :]
    ref = np.max((s * (2.0 - s))[:, None] ** alpha * np.abs(np.polyval(cs[::-1], zs)))
    assert weighted_sup_norm(TaylorSeries(tuple(cs)), alpha) >= ref * (1.0 - 1e-13)


SWEEP_GRID = DiskGrid(radial_k=80, n_angles=64, refine_top=0, outer_rungs=4)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
def test_stacked_norms_equal_each_sweep_alone(alpha):
    # block counts mixed (lengths 1, N, N + 1, 4N + 1 at N = 64), more series
    # than one group holds, and a series whose block sums overflow; alpha = 0
    # adds the boundary ring
    n = SWEEP_GRID.n_angles
    rng = np.random.default_rng(7)
    lengths = [1, n, n + 1, 4 * n + 1] * (RING_GROUP // 2 + 1)
    fs = [TaylorSeries((rng.normal(size=d) + 1j * rng.normal(size=d)) / np.arange(1, d + 1))
          for d in lengths]
    fs.insert(3, TaylorSeries((1e308,) * (4 * n + 1)))
    assert len(fs) > 2 * RING_GROUP
    got = weighted_sup_norms(fs, alpha, SWEEP_GRID)
    want = np.array([weighted_sup_details(f, alpha, SWEEP_GRID).value for f in fs])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert got[3] == float("inf") and np.all(np.isfinite(np.delete(got, 3)))
    assert weighted_sup_norms([], alpha, SWEEP_GRID).shape == (0,)


def test_stacked_norms_need_a_grid_without_refinement():
    with pytest.raises(ValueError, match="refine_top"):
        weighted_sup_norms([TaylorSeries((1,))], 0.0, DEFAULT_GRID)
    with pytest.raises(ValueError):
        weighted_sup_norms([TaylorSeries((1,))], -1.0, SWEEP_GRID)


def test_bloch_norm_needs_a_derivative_evaluator():
    with pytest.raises(DomainError):
        bloch_norm(cayley)


def test_homogeneity_survives_refinement_on_boundary_peak():
    g = DiskGrid(radial_k=96, n_angles=128, refine_top=3)
    base = weighted_sup_norm(cayley, 1.0, g)
    assert weighted_sup_norm(lambda z: 2.5 / (1.0 - z), 1.0, g) == \
        pytest.approx(2.5 * base, rel=1e-9)


def test_grid_validation():
    with pytest.raises(ValueError):
        DiskGrid(radial_k=40)  # outermost node short of 1 - 1e-6
    with pytest.raises(ValueError):
        DiskGrid(n_angles=32)
    with pytest.raises(ValueError):
        SpacePair(-0.5, 0.0)


@pytest.mark.parametrize("alpha, beta", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 1.0),
                                         (1.0, np.inf), (-0.5, 0.0)])
def test_space_pair_rejects_non_finite_or_negative_exponents(alpha, beta):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        SpacePair(alpha, beta)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -0.5])
def test_weighted_sup_rejects_non_finite_or_negative_alpha(alpha):
    # a NaN or infinite weight made every sample NaN or 0, and the sweep
    # reported a meaningless number instead of failing
    with pytest.raises(ValueError, match="finite and nonnegative"):
        weighted_sup_details(cayley, alpha)


def test_grid_nodes_structure():
    g = DEFAULT_GRID
    r = g.radii()
    assert r[0] == 0.0
    assert np.all(np.diff(r) > 0)
    assert r[-1] >= 1.0 - 1e-6
    assert len(g.angles()) == g.n_angles


def test_series_boundary_ring_only_at_alpha_zero():
    # a polynomial's sup-norm is attained on |z| = 1; the boundary ring pins it
    # up to the rounding of e^{i theta} powers
    f = TaylorSeries((0,) * 64 + (1,))
    assert weighted_sup_norm(f, 0.0) == pytest.approx(1.0, abs=1e-13)
    assert weighted_sup_norm(f, 0.5) < 1.0


# -- the golden-section kernel -------------------------------------------------

def test_golden_max_batch_equals_each_bracket_searched_alone():
    def fn(x):
        return np.sin(3.0 * x) * np.exp(-0.2 * x)
    lo = np.array([0.0, 1.5, -2.0, 0.4, 2.0])
    hi = np.array([1.0, 2.5, -1.0, 0.6, 2.0])  # the last bracket is a point
    t, v = golden_max(fn, lo, hi, 50)
    for i in range(len(lo)):
        ti, vi = golden_max(fn, lo[i:i + 1], hi[i:i + 1], 50)
        assert (ti[0], vi[0]) == (t[i], v[i])


def test_golden_max_finds_unimodal_maximum():
    # a kink pins the position, a smooth peak the value (its position is only
    # resolved to about sqrt(eps) by value comparisons)
    t, v = golden_max(lambda x: -np.abs(x - 0.3), [0.0], [1.0], 80)
    assert abs(t[0] - 0.3) <= 1e-12
    assert abs(v[0]) <= 1e-12
    t, v = golden_max(lambda x: np.cos(x - 0.7), [0.0], [2.0], 80)
    assert abs(v[0] - 1.0) <= 1e-12
    assert abs(t[0] - 0.7) <= 1e-7
