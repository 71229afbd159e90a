"""Empirical norm bounds, batteries, and weakly-null probes."""

import numpy as np
import pytest

from volterra.errors import HypothesisError
from volterra.estimation import (ESTIMATION_GRID, BatteryEntry, _radial_max, build_battery,
                                 compactness_probe, lower_bound_details, monomial_norm,
                                 tg_min_upper_bound, tg_upper_bound)
from volterra.operators import OperatorKind, apply_operator
from volterra.series import TaylorSeries
from volterra.spaces import SpacePair, weighted_sup_norm
from volterra.symbols import DEFAULT_DEGREE, get_symbol

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


def test_battery_entry_validation():
    with pytest.raises(ValueError):
        BatteryEntry("bad", TaylorSeries((1,)), 0.0)


def test_lower_bound_identity_is_exactly_one():
    detail = lower_bound_details(get_symbol("identity"), T, SpacePair(0, 0))
    assert detail.value == pytest.approx(1.0, abs=1e-3)
    assert detail.value >= 1.0 - 1e-12


def test_lower_bound_zero_symbol():
    assert lower_bound_details(get_symbol("zero"), T, SpacePair(0, 0)).value == 0.0
    assert lower_bound_details(get_symbol("zero"), S, SpacePair(1, 0)).value == 0.0


def test_lower_bound_monomial_symbol():
    # T_g 1 = z^2/2 has unweighted sup-norm 1/2
    detail = lower_bound_details(get_symbol("monomial"), T, SpacePair(0, 0))
    assert detail.value == pytest.approx(0.5, abs=1e-6)
    assert detail.best_label == "const"


@pytest.mark.parametrize("name, op, alpha, beta", [
    ("cayley", T, 1.0, 2.0),   # T_g with alpha > 0: the rotational and peak battery
    ("affine", S, 1.0, 1.0),
    ("lacunary", T, 0.0, 0.0),  # beta = 0: the boundary ring
])
def test_stacked_estimates_equal_the_per_image_sweeps(name, op, alpha, beta):
    g, pair = get_symbol(name), SpacePair(alpha, beta)
    g_series = g.taylor(DEFAULT_DEGREE)

    def norm(f):
        return weighted_sup_norm(apply_operator(op, g_series, f), beta, ESTIMATION_GRID)

    battery = build_battery(alpha)
    lower = lower_bound_details(g, op, pair, battery)
    assert lower.ratios == tuple((e.label, norm(e.series) / e.norm_alpha)
                                 for e in battery.entries)
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
    detail = lower_bound_details(get_symbol("affine"), S, SpacePair(1, 0))
    per_rung = {}
    for label, ratio in detail.ratios:
        if label.startswith("peak:"):
            rung = int(label.split(":")[1])
            per_rung[rung] = max(per_rung.get(rung, 0.0), ratio)
    rungs = sorted(per_rung)
    last3 = [per_rung[j] for j in rungs[-3:]]
    assert last3[1] >= 1.10 * last3[0]
    assert last3[2] >= 1.10 * last3[1]
