"""Empirical norm bounds, batteries, and weakly-null probes."""

import numpy as np
import pytest

from volterra.errors import HypothesisError
from volterra.estimation import (ESTIMATION_GRID, BatteryEntry, _radial_max, build_battery,
                                 compactness_probe, lower_bound_details, monomial_norm,
                                 tg_min_upper_bound, tg_upper_bound)
from volterra.operators import OperatorKind, apply_operator
from volterra.series import TaylorSeries, derivative, evaluate_polynomial
from volterra.spaces import SpacePair, weighted_sup_norm, weighted_sup_norms
from volterra.symbols import DEFAULT_DEGREE, get_symbol, ground_truth_table, registry

T, S = OperatorKind.Tg, OperatorKind.Sg


def test_monomial_norm_against_dense_scan():
    rs = np.linspace(0.0, 0.999999, 200001)
    for n, alpha in [(1, 1.0), (4, 0.5), (16, 2.0), (64, 1.0)]:
        scan = float(np.max(rs ** n * (1.0 - rs * rs) ** alpha))
        assert monomial_norm(n, alpha) == pytest.approx(scan, rel=1e-8)
    assert monomial_norm(7, 0.0) == 1.0
    assert monomial_norm(0, 3.0) == 1.0


def test_battery_structure():
    b0 = build_battery(0.0, degree=64)
    labels = [e.label for e in b0.entries]
    assert "const" in labels
    assert any(lab.startswith("monomial:") for lab in labels)
    assert any(lab.startswith("peak:") for lab in labels)
    assert all(e.norm_alpha > 0 for e in b0.entries)
    assert all(e.series.degree <= 64 for e in b0.entries)
    b1 = build_battery(1.0, degree=64)
    assert any(e.label.startswith("rotational:") for e in b1.entries)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 3.0])
def test_batched_radial_max_equals_each_row_alone(alpha):
    rng = np.random.default_rng(5)
    rows = rng.random((9, 65)) * 0.9 ** np.arange(65)
    rows[0] = 0.0
    batch = _radial_max(rows, alpha)
    assert batch.shape == (9,)
    for row, value in zip(rows, batch):
        assert _radial_max(row[None, :], alpha)[0] == value


def _radial_max_reference(mag_rows, alpha):
    """``_radial_max`` as it was written with its own mesh: 241 radii
    ``1 - 2^(-k/8)`` (and ``r = 1`` at alpha = 0), a matrix-vector product per
    row, then 60 golden-section steps."""
    from volterra.series import evaluate_polynomial
    from volterra.spaces import golden_max
    s = 2.0 ** (-np.arange(0, 241) / 8.0)
    r = 1.0 - s
    if alpha == 0.0:
        r, s = np.append(r, 1.0), np.append(s, 0.0)
    w = (s * (2.0 - s)) ** alpha if alpha else np.ones_like(s)
    powers = np.vander(r, mag_rows.shape[1], increasing=True)
    prof = w[:, None] * np.column_stack([powers @ row for row in mag_rows])
    i = np.argmax(prof, axis=0)

    def f(x):
        sx = 1.0 - x
        wx = (sx * (2.0 - sx)) ** alpha if alpha else 1.0
        return wx * evaluate_polynomial(mag_rows.T, x).real
    _, peak = golden_max(f, r[np.maximum(i - 1, 0)], r[np.minimum(i + 1, len(r) - 1)], 60)
    return np.maximum(np.max(prof, axis=0), peak)


@pytest.mark.parametrize("alpha", sorted({r.alpha for r in ground_truth_table() if r.alpha > 0}
                                         | {0.5, 1.0, 2.0}))
def test_radial_max_agrees_with_its_own_mesh_reference(monkeypatch, alpha):
    """The rows the default battery measures, within 2e-15 relative of the
    former dedicated mesh."""
    from volterra import estimation
    rows = []

    def spy(mag_rows, a):
        rows.append(mag_rows)
        return _radial_max(mag_rows, a)
    monkeypatch.setattr(estimation, "_radial_max", spy)
    build_battery(alpha)
    (mag_rows,) = rows
    got, want = _radial_max(mag_rows, alpha), _radial_max_reference(mag_rows, alpha)
    np.testing.assert_allclose(got, want, rtol=2e-15, atol=0.0)


def test_radial_max_evaluates_once_per_pass(monkeypatch):
    # the grid, then one Horner evaluation over all rows per zoom pass
    from volterra import estimation, spaces
    calls = []

    def spy(coeffs, z):
        calls.append(np.shape(z))
        return evaluate_polynomial(coeffs, z)
    monkeypatch.setattr(estimation, "evaluate_polynomial", spy)
    build_battery(1.0)
    assert len(calls) == 1 + spaces.ZOOM_PASSES == 7
    # the 8 rotational and 6 peak-kernel rows in every pass
    assert calls[1:] == [(spaces.ZOOM_POINTS, 14)] * spaces.ZOOM_PASSES


@pytest.mark.parametrize("degree", [8, 9, 16, 64, 256, 1000])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 3.7])
def test_rotational_family_equals_the_per_coefficient_loop(monkeypatch, alpha, degree):
    """The rotational entries and the magnitude rows their source norms are
    read from, uint64-equal to the loop ``c_m w^m`` and ``abs`` per entry."""
    import math
    from volterra import estimation
    rows = []

    def spy(mag_rows, a):
        rows.append(mag_rows)
        return _radial_max(mag_rows, a)
    monkeypatch.setattr(estimation, "_radial_max", spy)
    battery = build_battery(alpha, degree)
    c = estimation._binom_series(alpha, degree // 2)
    want = []
    for j in range(estimation.THETA_FAMILY_COUNT):
        theta = math.pi * j / estimation.THETA_FAMILY_COUNT
        w = complex(math.cos(-2.0 * theta), math.sin(-2.0 * theta))
        cs = [0j] * (degree + 1)
        for m in range(degree // 2 + 1):
            cs[2 * m] = c[m] * w ** m
        want.append(cs)
    got = [e.series.array for e in battery.entries if e.label.startswith("rotational:")]
    assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))
    mags = np.array([[abs(v) for v in cs] for cs in want])
    assert np.array_equal(rows[0][:len(want)].view(np.uint64), mags.view(np.uint64))


def test_battery_entry_validation():
    with pytest.raises(ValueError):
        BatteryEntry("bad", TaylorSeries((1,)), 0.0)


def test_lower_bound_identity_is_exactly_one():
    # T_g 1 = z has sup-norm 1, read as the coefficient sum on the boundary ring
    detail = lower_bound_details(get_symbol("identity"), T, SpacePair(0, 0))
    assert detail.value == 1.0


def test_battery_for_another_alpha_is_refused():
    # its source norms belong to alpha = 2: against them T_g of the identity
    # from H-infinity_0 read 0.5996, above its norm max r(1 - r^2) = 2/(3 sqrt 3)
    with pytest.raises(ValueError, match="alpha"):
        lower_bound_details(get_symbol("identity"), T, SpacePair(0, 1), build_battery(2.0))
    detail = lower_bound_details(get_symbol("identity"), T, SpacePair(0, 1), build_battery(0.0))
    assert detail.value <= 2.0 / (3.0 * np.sqrt(3.0)) * (1.0 + 1e-12)


def test_lower_bound_zero_symbol():
    assert lower_bound_details(get_symbol("zero"), T, SpacePair(0, 0)).value == 0.0
    assert lower_bound_details(get_symbol("zero"), S, SpacePair(1, 0)).value == 0.0


def test_lower_bound_monomial_symbol():
    # T_g 1 = z^2/2 has unweighted sup-norm 1/2
    detail = lower_bound_details(get_symbol("monomial"), T, SpacePair(0, 0))
    assert detail.value == pytest.approx(0.5, abs=1e-6)
    assert detail.best_label == "const"


def _battery_ratios(g, op, pair, battery):
    """``(label, ratio)`` of each battery entry: the stacked image norm
    ``weighted_sup_norms`` over the entry's source norm, in battery order."""
    g_series = g.taylor(DEFAULT_DEGREE)
    dg = derivative(g_series)
    images = [apply_operator(op, g_series, e.series, dg) for e in battery.entries]
    nums = weighted_sup_norms(images, pair.beta, ESTIMATION_GRID)
    return [(e.label, float(num) / e.norm_alpha) for e, num in zip(battery.entries, nums)]


def _assert_lower_bound_is_their_max(detail, ratios):
    # the witness is the first entry of largest ratio; none when every ratio is 0
    values = [ratio for _, ratio in ratios]
    best = max(values)
    assert detail.value == best
    assert detail.best_label == (ratios[values.index(best)][0] if best > 0.0 else "")


_FIRST_CASES = [
    ("cayley", T, 1.0, 2.0),   # T_g with alpha > 0: the rotational and peak battery
    ("affine", S, 1.0, 1.0),
    ("lacunary", T, 0.0, 0.0),  # beta = 0: the boundary ring
]


@pytest.mark.parametrize("name, op, alpha, beta", _FIRST_CASES + [
    case for case in ((spec.name, op, alpha, beta) for spec in registry() for op in (T, S)
                      for alpha, beta in ((0.0, 0.0), (1.0, 2.0)))
    if case not in _FIRST_CASES])
def test_stacked_estimates_equal_the_per_image_sweeps(name, op, alpha, beta):
    # the probe's shift-built images against the convolution's, image by image
    g, pair = get_symbol(name), SpacePair(alpha, beta)
    g_series = g.taylor(DEFAULT_DEGREE)

    def norm(f):
        return weighted_sup_norm(apply_operator(op, g_series, f), beta, ESTIMATION_GRID)

    battery = build_battery(alpha)
    ratios = _battery_ratios(g, op, pair, battery)
    assert ratios == [(e.label, norm(e.series) / e.norm_alpha) for e in battery.entries]
    _assert_lower_bound_is_their_max(lower_bound_details(g, op, pair, battery), ratios)
    trace = compactness_probe(g, op, pair)
    assert trace.values == tuple(norm(TaylorSeries((0,) * n + (1,))) / monomial_norm(n, alpha)
                                 for n in trace.indices)


def test_upper_bound_split_identity():
    pair = SpacePair(0, 0)
    # the tail-refined split makes the bound the full criterion sup for any cut
    for t0 in (0.875, 1.0 - 2.0 ** -10, 1.0 - 2.0 ** -30):
        assert tg_upper_bound(get_symbol("identity"), pair, t0) == \
            pytest.approx(1.0, abs=1e-3)
    best, t_best = tg_min_upper_bound(get_symbol("identity"), pair)
    assert best == pytest.approx(1.0, abs=1e-3)


def test_upper_bound_needs_bounded_ladder():
    with pytest.raises(HypothesisError):
        tg_upper_bound(get_symbol("log"), SpacePair(0, 0), 0.875)


def test_upper_bound_requires_schedule_rung():
    with pytest.raises(ValueError):
        tg_upper_bound(get_symbol("identity"), SpacePair(0, 0), 0.8)


@pytest.mark.parametrize("t0", [-np.inf, np.inf, np.nan, 0.0, -0.0, 1.0, -1.0, 2.0])
def test_upper_bound_rejects_cut_radius_outside_the_unit_interval(t0):
    # t0 = -inf took the log of an infinite 1 - t0 and raised OverflowError
    with pytest.raises(ValueError, match=r"t0 must lie in \(0, 1\)"):
        tg_upper_bound(get_symbol("identity"), SpacePair(0, 0), t0)


def test_sandwich_on_bounded_rows():
    cases = [("identity", 0, 0), ("monomial", 0, 0), ("log", 0, 1), ("cayley", 0, 1)]
    for name, a, b in cases:
        pair = SpacePair(a, b)
        lo = lower_bound_details(get_symbol(name), T, pair).value
        up, _ = tg_min_upper_bound(get_symbol(name), pair)
        assert lo <= up + 1e-6, name


def test_probe_closed_form_identity():
    trace = compactness_probe(get_symbol("identity"), T, SpacePair(0, 0), n_max=32)
    for n, v in zip(trace.indices, trace.values):
        assert v == pytest.approx(1.0 / (n + 1), abs=1e-6)
    assert trace.decay_exponent < 0


def test_probe_unit_symbol_constant_trace():
    trace = compactness_probe(get_symbol("one"), S, SpacePair(0, 0), n_max=32)
    assert all(v == pytest.approx(1.0, abs=1e-6) for v in trace.values)
    assert abs(trace.decay_exponent) < 0.01


def test_probe_zero_symbol():
    trace = compactness_probe(get_symbol("zero"), T, SpacePair(0, 0), n_max=16)
    assert all(v == 0.0 for v in trace.values)
    assert trace.decay_exponent == 0.0


def test_probe_validation():
    with pytest.raises(ValueError):
        compactness_probe(get_symbol("identity"), T, SpacePair(0, 0), n_max=8)


def test_not_compact_rows_keep_probe_mass():
    # traces for non-compact cases never fall below a tenth of their start
    for name, op, a, b in [("one", S, 0, 0), ("cayley", S, 0, 1)]:
        trace = compactness_probe(get_symbol(name), op, SpacePair(a, b), n_max=64)
        assert trace.final_value >= 0.1 * trace.values[0]


def test_compact_rows_decay():
    # low-degree and boundary-singular symbols: the probe horizon suffices
    for name, a, b in [("identity", 0, 0), ("monomial", 0, 0), ("log", 0, 1)]:
        trace = compactness_probe(get_symbol(name), OperatorKind.Tg, SpacePair(a, b),
                                  n_max=128)
        assert trace.decay_exponent < 0
        assert trace.final_value < 1e-2
    # the gap-series symbol is compact but its operator concentrates on degrees
    # up to 256, so decay shows as a trend long before the 1e-2 threshold
    trace = compactness_probe(get_symbol("lacunary"), OperatorKind.Tg, SpacePair(0, 0),
                              n_max=128)
    assert trace.decay_exponent < 0
    assert trace.final_value < 0.5 * trace.values[0]


def test_weak_null_premise():
    for alpha in (0.0, 1.0):
        # max_{|z| <= 1/2} |z^n| / ||z^n||: the normalized monomials the probes
        # send through the operator tend to 0 uniformly on compact sets
        sups = [0.5 ** n / monomial_norm(n, alpha) for n in (4, 8, 16, 32, 64)]
        assert all(b < a for a, b in zip(sups, sups[1:]))
        assert sups[-1] < 1e-9


def test_peaking_growth_witnesses_power_divergence():
    # (affine, Sg, 1 -> 0) diverges like 1/(1-t): the boundary-peaking ratios
    # must keep growing through the last three rungs
    g, pair = get_symbol("affine"), SpacePair(1, 0)
    ratios = _battery_ratios(g, S, pair, build_battery(1.0))
    _assert_lower_bound_is_their_max(lower_bound_details(g, S, pair), ratios)
    per_rung = {}
    for label, ratio in ratios:
        if label.startswith("peak:"):
            rung = int(label.split(":")[1])
            per_rung[rung] = max(per_rung.get(rung, 0.0), ratio)
    rungs = sorted(per_rung)
    last3 = [per_rung[j] for j in rungs[-3:]]
    assert last3[1] >= 1.10 * last3[0]
    assert last3[2] >= 1.10 * last3[1]
