"""Weighted sup-norms, Bloch norms and grid behavior."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from volterra.errors import DomainError
from volterra import spaces
from volterra.estimation import ESTIMATION_GRID, build_battery
from volterra.operators import OperatorKind, apply_operator
from volterra.series import OVERFLOW_CLAMP, TaylorSeries, _ring_powers, evaluate_on_rings
from volterra.symbols import DEFAULT_DEGREE
from volterra.spaces import (DEFAULT_GRID, RING_GROUP, DiskGrid, SpacePair, bloch_norm,
                             weighted_sup_details, weighted_sup_norm, weighted_sup_norms)
from volterra.symbols import get_symbol

from test_criteria import RUNG_ORACLE_POLES
from test_series import combination
from test_symbols import SymbolZeroDerivative, log_deriv_bloch_seminorm

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


# a small grid keeps the property tests fast
SMALL_GRID = DiskGrid(radial_k=80, n_angles=64, outer_rungs=3)


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
    # the ray maximiser's zoom passes only add samples to those on the radii of
    # DEFAULT_GRID: on the ray of log, whose weighted modulus peaks between
    # two grid radii, its value is above the grid's and never below a dense
    # scan of 10^5 radii
    fn = get_symbol("log").abs_eval
    s = DEFAULT_GRID.one_minus_r()
    on_grid = np.max(spaces.radial_weight(s, 1.0) * fn(1.0 - s, s))
    r = np.linspace(0.0, 0.999, 100_001)
    dense = np.max(spaces.radial_weight(1.0 - r, 1.0) * fn(r, 1.0 - r))
    value = spaces.ray_max(fn, 1.0)[0]
    assert value > on_grid
    assert value >= dense * (1.0 - 1e-15)


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


SWEEP_GRID = DiskGrid(radial_k=80, n_angles=64, outer_rungs=4)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
def test_stacked_norms_equal_each_sweep_alone(monkeypatch, alpha):
    # block counts mixed (lengths 1, N, N + 1, 4N + 1 at N = 64), a series
    # whose block sums overflow, and more ring rows of one block count than
    # one evaluator call holds: rows at the clamp in 1-norm are swept on
    # every ring; alpha = 0 adds the boundary ring
    n = SWEEP_GRID.n_angles
    rng = np.random.default_rng(7)
    lengths = [1, n, n + 1, 4 * n + 1] * 3
    fs = [TaylorSeries((rng.normal(size=d) + 1j * rng.normal(size=d)) / np.arange(1, d + 1))
          for d in lengths]
    fs.insert(3, TaylorSeries((1e308,) * (4 * n + 1)))
    for _ in range(RING_GROUP // SWEEP_GRID.radial_k + 1):
        c = np.exp(2j * np.pi * rng.random(4 * n + 1))
        fs.append(TaylorSeries(c * (OVERFLOW_CLAMP / np.sum(np.abs(c)))))
    calls = []
    sweep = spaces._ring_sweep

    def spy(coeffs, radii, *args):
        calls.append((coeffs.shape[-1], len(radii)))
        return sweep(coeffs, radii, *args)
    monkeypatch.setattr(spaces, "_ring_sweep", spy)
    got = weighted_sup_norms(fs, alpha, SWEEP_GRID)
    assert max(k for _, k in calls) <= RING_GROUP
    assert sum(k for d, k in calls if d == 5 * n) > RING_GROUP
    want = np.array([weighted_sup_details(f, alpha, SWEEP_GRID).value for f in fs])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert got[3] == float("inf") and np.all(np.isfinite(np.delete(got, 3)))
    assert weighted_sup_norms([], alpha, SWEEP_GRID).shape == (0,)


# -- ring maxima of series with real, nonnegative coefficients ------------------

def _grid_path_norm(f, alpha, grid):
    """The sweep of every grid angle on every ring, forced for any series."""
    radii, weights = spaces._rings(grid, alpha, alpha == 0.0)
    return float(np.max(spaces._ring_sweep(f.array, radii, weights, grid.n_angles)))


def _spy_on_grid_path(monkeypatch):
    """Record every ring row, a coefficient row and its radius, that reaches
    the grid path."""
    swept, sweep = [], spaces._ring_sweep

    def spy(coeffs, radii, *args):
        swept.extend(zip(np.broadcast_to(coeffs, np.shape(radii) + coeffs.shape[-1:]), radii))
        return sweep(coeffs, radii, *args)
    monkeypatch.setattr(spaces, "_ring_sweep", spy)
    return swept


def _rings_swept(swept, f):
    """The radii on which the ring rows of ``swept`` evaluated ``f``, padded
    with zero blocks or not."""
    return [r for row, r in swept
            if row[:len(f.array)].tobytes() == f.array.tobytes() and not np.any(row[len(f.array):])]


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
def test_nonnegative_ring_maxima_match_the_grid_path(monkeypatch, alpha):
    # lengths 1, N, N + 1 and 4N + 1 (block counts 1, 1, 2, 5); alpha = 0 adds
    # the boundary ring, where the maximum is the coefficient sum
    n = SWEEP_GRID.n_angles
    rng = np.random.default_rng(12)
    fs = [TaylorSeries(rng.random(d) / np.arange(1, d + 1)) for d in (1, n, n + 1, 4 * n + 1)]
    want = [_grid_path_norm(f, alpha, SWEEP_GRID) for f in fs]
    swept = _spy_on_grid_path(monkeypatch)
    got = weighted_sup_norms(fs, alpha, SWEEP_GRID)
    for f, value, ref in zip(fs, got, want):
        assert abs(value - ref) <= 1e-13 * ref
        assert weighted_sup_details(f, alpha, SWEEP_GRID).value == value
    assert swept == []


@pytest.mark.parametrize("odd", [-1e-3, 0.5j, np.nan])
def test_one_negative_complex_or_nan_coefficient_takes_the_grid_path(monkeypatch, odd):
    # a negative zero is >= 0: the row with it never reaches the grid path
    good = TaylorSeries((1.0, -0.0, 0.25, 2.0))
    mixed = TaylorSeries((1.0, 0.5, odd, 2.0))
    swept = _spy_on_grid_path(monkeypatch)
    radii, _ = spaces._rings(SWEEP_GRID, 0.5, False)
    weighted_sup_norms([good, mixed, good], 0.5, SWEEP_GRID)
    in_norms = len(swept)
    weighted_sup_details(good, 0.5, SWEEP_GRID)
    assert len(swept) == in_norms
    weighted_sup_details(mixed, 0.5, SWEEP_GRID)
    # the stacked sweep reaches at least the ring of largest majorant; the
    # single sweep reaches every ring
    assert 1 <= in_norms <= len(radii) and len(swept) == in_norms + len(radii)
    assert len(_rings_swept(swept, mixed)) == len(swept)
    assert _rings_swept(swept[in_norms:], mixed) == radii.tolist()


@pytest.mark.parametrize("coeffs", [(1e308,) * (4 * SWEEP_GRID.n_angles + 1), (1e299,) * 200])
def test_overflowing_nonnegative_series_reads_inf(monkeypatch, coeffs):
    f = TaylorSeries(coeffs)
    swept = _spy_on_grid_path(monkeypatch)
    for alpha in (0.0, 0.5):
        assert weighted_sup_norms([f], alpha, SWEEP_GRID)[0] == np.inf
        detail = weighted_sup_details(f, alpha, SWEEP_GRID)
        assert detail.value == np.inf
        assert detail.divergent and detail.clamped_samples > 0
    assert swept == []


# -- ring sweeps pruned by the ring majorants -------------------------------------

def stacked_full_sweep(series, alpha, grid):
    """Reference: the sweep before pruning.  A series with real, nonnegative
    coefficients is read at ``theta = 0``; every other series is swept on
    every ring, four series per stack of one block count."""
    radii, weights = spaces._rings(grid, alpha, alpha == 0.0)
    n = grid.n_angles
    out, rest = np.empty(len(series)), []
    for k, f in enumerate(series):
        c = f.array
        if np.any(c.imag) or not np.all(c.real >= 0.0):
            rest.append(k)
            continue
        powers = _ring_powers(radii.tobytes(), -(-len(c) // n) * n)[:, :len(c)]
        with np.errstate(invalid="ignore", over="ignore"):
            v = powers @ c.real
        out[k] = np.max(np.where(v <= OVERFLOW_CLAMP, v, np.inf) * weights)
    blocks = {k: -(-len(series[k].array) // n) for k in rest}
    for q, run in itertools.groupby(sorted(rest, key=blocks.get), key=blocks.get):
        run = list(run)
        for i in range(0, len(run), 4):
            group = run[i:i + 4]
            stack = np.zeros((len(group), q * n), dtype=complex)
            for row, k in enumerate(group):
                stack[row, :len(series[k].array)] = series[k].array
            with np.errstate(invalid="ignore", over="ignore"):
                mags = np.abs(evaluate_on_rings(stack[:, None, :], radii, n))
            mags *= weights[:, None]
            out[group] = np.max(mags, axis=(1, 2))
    return out


@st.composite
def sweep_rows(draw):
    """A coefficient row for SWEEP_GRID: mixed block counts, and coefficients
    with random phases, rotated or plain nonnegative, with one negative
    coefficient, a NaN, signed zeros, subnormal, with 1-norm just above or
    below the pruning's clamp guard, or with a block sum past the clamp."""
    n = SWEEP_GRID.n_angles
    d = draw(st.sampled_from([1, 2, n - 1, n, n + 1, 2 * n + 3, 4 * n + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mags = rng.random(d) / np.arange(1, d + 1) ** rng.uniform(0.0, 2.0)
    phases = mags * np.exp(2j * np.pi * rng.random(d))
    kind = draw(st.sampled_from(["phases", "rotated", "nonnegative", "negative", "nan",
                                 "zeros", "subnormal", "below clamp", "above clamp",
                                 "block sum"]))
    if kind == "rotated":
        return mags * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)) * np.arange(d))
    if kind == "nonnegative":
        return mags + 0j
    if kind == "negative":
        mags[rng.integers(d)] = -draw(st.sampled_from([1e-3, 1.0, 1e3]))
        return mags + 0j
    if kind == "nan":
        phases[rng.integers(d)] = draw(st.sampled_from([np.nan, complex(0.0, np.nan)]))
    elif kind == "zeros":
        signs = rng.choice([0.0, -0.0], size=(2, d))
        zero = rng.random(d) < 0.7
        phases[zero] = signs[0, zero] + 1j * signs[1, zero]
        if draw(st.booleans()):
            phases = phases.real + 0j * signs[1]
    elif kind == "subnormal":
        phases = (rng.integers(-4, 5, d) + 1j * rng.integers(-4, 5, d)) * 5e-324
    elif kind in ("below clamp", "above clamp"):
        shift = -1e-6 if kind == "below clamp" else 1e-6
        target = OVERFLOW_CLAMP * (1.0 - spaces.PRUNE_MARGIN) * (1.0 + shift)
        phases *= target / np.sum(np.abs(phases))
    elif kind == "block sum" and d >= n:
        phases[n - 1] = 1e305
    return phases


@settings(max_examples=60, deadline=None)
@given(st.lists(sweep_rows(), min_size=1, max_size=8), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]))
@example([np.array((1e299,) * 200 + (-1.0,), dtype=complex)], 2.0)
@example([np.r_[np.zeros(SWEEP_GRID.n_angles - 1), 1e305, -np.ones(SWEEP_GRID.n_angles)]
          + 0j], 0.5)
# rounding in the subnormal range puts a sample of this row above its ring's
# majorant; the test's absolute slack keeps that ring
@example([np.array([1 + 3j, 4 - 3j, -2 - 4j, -1 - 1j]) * 5e-324], 0.5)
def test_pruned_sweep_equals_the_full_sweep(rows, alpha):
    fs = [TaylorSeries(c) for c in rows]
    got = weighted_sup_norms(fs, alpha, SWEEP_GRID)
    want = stacked_full_sweep(fs, alpha, SWEEP_GRID)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_only_rows_that_need_it_reach_the_evaluator(monkeypatch):
    # a nonnegative row never; a row at the clamp in 1-norm, and one with a
    # NaN, on every ring; a row with random phases on some rings
    n = SWEEP_GRID.n_angles
    rng = np.random.default_rng(3)
    nonnegative = TaylorSeries(rng.random(2 * n + 1))
    phases = rng.random(2 * n + 1) * np.exp(2j * np.pi * rng.random(2 * n + 1))
    at_clamp = TaylorSeries(phases * (OVERFLOW_CLAMP / np.sum(np.abs(phases))))
    nan = TaylorSeries(np.where(np.arange(2 * n + 1) == 5, np.nan, phases))
    fs = [nonnegative, TaylorSeries(phases), at_clamp, nan, nonnegative]
    swept = _spy_on_grid_path(monkeypatch)
    for alpha in (0.0, 0.5, 2.0):
        radii, _ = spaces._rings(SWEEP_GRID, alpha, alpha == 0.0)
        swept.clear()
        weighted_sup_norms(fs, alpha, SWEEP_GRID)
        assert _rings_swept(swept, nonnegative) == []
        assert sorted(_rings_swept(swept, at_clamp)) == radii.tolist()
        assert sorted(_rings_swept(swept, nan)) == radii.tolist()
        assert 1 <= len(_rings_swept(swept, fs[1])) < len(radii)
        assert len(swept) == 2 * len(radii) + len(_rings_swept(swept, fs[1]))


def _stack_case(name):
    n = SWEEP_GRID.n_angles
    rng = np.random.default_rng(17)
    phases = rng.random(n + 1) * np.exp(2j * np.pi * rng.random(n + 1))
    if name == "empty":
        return []
    if name == "all exact":
        return [TaylorSeries(rng.random(d) / np.arange(1, d + 1))
                for d in (1, n, n + 1, 4 * n + 1)]
    if name == "nan":
        nan = np.where(np.arange(n + 1) == 3, np.nan, phases)
        return [TaylorSeries(phases), TaylorSeries(nan), TaylorSeries(np.abs(phases))]
    # 12 rows of one length among rows of other lengths, exact or not
    rows = [rng.random(d) * np.exp(2j * np.pi * rng.random(d) * (k % 3 > 0))
            for k, d in enumerate([2 * n + 3] * 12 + [1, n - 1, n, 2 * n + 2, 4 * n + 1])]
    return [TaylorSeries(rows[k] / np.arange(1, len(rows[k]) + 1)) for k in rng.permutation(17)]


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("case", ["empty", "all exact", "nan", "one length many times"])
def test_stacked_pass_edge_cases(monkeypatch, case, alpha):
    # each value as weighted_sup_details reads its series alone; an all-exact
    # stack never reaches the ring sweep, and a NaN row reaches it on every ring
    fs = _stack_case(case)
    want = np.array([weighted_sup_details(f, alpha, SWEEP_GRID).value for f in fs])
    calls, sweep = [], spaces._ring_sweep
    monkeypatch.setattr(spaces, "_ring_sweep", lambda *args: calls.append(1) or sweep(*args))
    got = weighted_sup_norms(fs, alpha, SWEEP_GRID)
    assert got.shape == (len(fs),)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    if case == "all exact":
        assert calls == []
    if case == "nan":
        swept = _spy_on_grid_path(monkeypatch)
        weighted_sup_norms(fs, alpha, SWEEP_GRID)
        radii, _ = spaces._rings(SWEEP_GRID, alpha, alpha == 0.0)
        assert sorted(_rings_swept(swept, fs[1])) == radii.tolist()
        assert _rings_swept(swept, fs[2]) == []


def test_a_report_battery_sweeps_few_ring_rows(monkeypatch):
    # the T_g battery of cayley from H-infinity_0 to H-infinity_1, a default
    # report row: at most 15 % of the ring rows of a full sweep
    battery = build_battery(0.0, DEFAULT_DEGREE)
    g = get_symbol("cayley").taylor(DEFAULT_DEGREE)
    images = [apply_operator(OperatorKind.Tg, g, entry.series) for entry in battery.entries]
    radii, _ = spaces._rings(ESTIMATION_GRID, 1.0, False)
    full = len(radii) * sum(bool(np.any(f.array.imag) or not np.all(f.array.real >= 0.0))
                            for f in images)
    swept = _spy_on_grid_path(monkeypatch)
    weighted_sup_norms(images, 1.0, ESTIMATION_GRID)
    assert full > 0 and len(swept) <= 0.15 * full


def test_stacked_norms_reject_a_negative_alpha():
    with pytest.raises(ValueError, match="finite and nonnegative"):
        weighted_sup_norms([TaylorSeries((1,))], -1.0, SWEEP_GRID)


def test_bloch_norm_needs_a_derivative_evaluator():
    with pytest.raises(DomainError):
        bloch_norm(cayley)


def test_homogeneity_survives_refinement_on_boundary_peak():
    # cayley's weighted ray profile (1 - r^2) / (1 - r) = 1 + r rises to the
    # boundary; scaling it moves none of the zoom passes' brackets
    base = spaces.ray_max(lambda r, s: np.abs(cayley(r)), 1.0)[0]
    assert spaces.ray_max(lambda r, s: np.abs(2.5 / (1.0 - r)), 1.0)[0] == \
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
    r = 1.0 - g.one_minus_r()
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


# -- the ray maximiser -----------------------------------------------------------

def test_ray_max_batch_equals_each_column_alone():
    # columns r^a / (s + b): interior peaks, a boundary rise, near-poles
    a = np.array([0.0, 1.0, 7.0, 40.0, 3.0])
    b = np.array([1.0, 0.5, 2.0, 0.01, 1e-9])
    for exponent in (0.0, 0.5, 2.0):
        batch = spaces.ray_max(lambda r, s: r ** a / (s + b), exponent)
        assert batch.shape == a.shape
        for k in range(len(a)):
            alone = spaces.ray_max(lambda r, s: r ** a[k:k + 1] / (s + b[k:k + 1]), exponent)
            assert alone[0] == batch[k]


def _within_ray_slack(got, want, exponent):
    """``got``, a ray maximum of ``(s(2-s))^exponent h(s)``, against its exact
    value ``want``: 4 ulps for the maximiser, plus the rounding of the sampled
    objective itself, at most ``(2 exponent + 3) u`` relative (``u = 2^-53``):
    ``2u`` in ``s(2-s)``, which the power multiplies by ``exponent``, then one
    rounding each for the power, for ``h`` and for the product.  At
    ``exponent = 6.7`` the float objective of a cubic pole exceeds its exact
    maximum by up to 7 ulps near the peak (a dense scan), so no sampling
    maximiser stays within 4 ulps there."""
    slack = 4.0 * np.spacing(want) + (2.0 * exponent + 3.0) * 2.0 ** -53 * want
    return abs(got - want) <= slack


def test_ray_argmax_radius_attains_the_max():
    # each column's radius is a sample that reads the column's maximum
    a = np.array([0.0, 1.0, 7.0, 40.0])
    b = np.array([1.0, 0.5, 2.0, 0.01])

    def fn(r, s):
        return r ** a / (s + b)
    for exponent in (0.0, 0.5, 2.0):
        value, radius = spaces.ray_argmax(fn, exponent)
        assert np.array_equal(value, spaces.ray_max(fn, exponent))
        at = spaces.radial_weight(1.0 - radius, exponent) * fn(radius, 1.0 - radius)
        np.testing.assert_allclose(at, value, rtol=1e-15, atol=0.0)


def test_ray_max_finds_a_closed_form_maximum():
    # (1-r^2)^2 / (1-r) = (1-r)(1+r)^2 peaks at r = 1/3 with value 32/27
    value = spaces.ray_max(lambda r, s: 1.0 / s, 2.0)
    assert _within_ray_slack(value[0], 32.0 / 27.0, 2.0)


@pytest.mark.parametrize("name", sorted(RUNG_ORACLE_POLES))
def test_ray_max_matches_an_mpmath_oracle_on_peak_rays(name):
    """On the peak ray ``|g'| = s^-p`` (``RUNG_ORACLE_POLES``), so for
    ``e > p`` the profile ``(s(2-s))^e s^-p`` peaks at
    ``s* = 2(e-p)/(2e-p)``; its value there at 50 digits is the oracle."""
    import mpmath
    g, p = get_symbol(name), RUNG_ORACLE_POLES[name]
    for e in (p + 0.5, p + 1.0, p + 2.0, p + 3.7):
        with mpmath.workdps(50):
            em, pm = mpmath.mpf(e), mpmath.mpf(p)
            s = 2 * (em - pm) / (2 * em - pm)
            want = float((s * (2 - s)) ** em * s ** -pm)
        got = spaces.ray_max(g.abs_deriv, e)[0]
        assert _within_ray_slack(got, want, e), (e, got, want)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 3.7])
def test_ray_max_matches_the_monomial_norm_at_50_digits(alpha):
    # the battery's r^n, against the closed form of monomial_norm evaluated
    # in mpmath: max_r r^n (1 - r^2)^alpha at r^2 = n/(n + 2 alpha)
    import mpmath
    from volterra.estimation import MONOMIAL_POWERS
    for n in MONOMIAL_POWERS:
        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            want = float((n / (n + 2 * a)) ** (mpmath.mpf(n) / 2) * (2 * a / (n + 2 * a)) ** a)
        got = spaces.ray_max(lambda r, s: r ** n, alpha)[0]
        assert _within_ray_slack(got, want, alpha), (n, got, want)


@pytest.mark.parametrize("columns", [1, 14])
def test_ray_max_calls_its_objective_once_per_pass(columns):
    # the grid, then one call per zoom pass over every column's bracket
    shapes = []

    def fn(r, s):
        shapes.append(np.broadcast_shapes(np.shape(r), (columns,)))
        return r * (1.0 + np.arange(columns))
    spaces.ray_max(fn, 1.0)
    assert len(shapes) == 1 + spaces.ZOOM_PASSES
    assert shapes[1:] == [(spaces.ZOOM_POINTS, columns)] * spaces.ZOOM_PASSES


def test_ray_max_reads_a_pole_and_nan_as_inf():
    # r = 1/2 is a grid radius (s = 2^-1); the zoom passes can only raise the
    # grid's inf sample there
    assert spaces.ray_max(lambda r, s: np.abs(1.0 / (r - 0.5)), 1.0)[0] == np.inf
    assert spaces.ray_max(lambda r, s: np.where(r == 0.5, np.nan, r), 0.0)[0] == np.inf
    # a divergent column does not leak into its neighbours
    poles = np.array([0.5, 2.0])
    both = spaces.ray_max(lambda r, s: np.abs(1.0 / (r - poles)), 1.0)
    assert both[0] == np.inf
    assert both[1] == spaces.ray_max(lambda r, s: np.abs(1.0 / (r - poles[1:])), 1.0)[0] < 1.0


def test_ray_max_never_samples_the_boundary():
    seen = []

    def radii(r, s):
        seen.append(np.array(r, dtype=float).ravel())
        return r
    inside = spaces.ray_max(radii, 0.0)[0]
    assert 1.0 not in np.concatenate(seen)
    assert inside < 1.0 and inside == 1.0 - DEFAULT_GRID.one_minus_r()[-1]
