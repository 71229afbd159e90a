"""Empirical norm bounds, batteries, and weakly-null probes."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volterra import estimation
from volterra.errors import HypothesisError
from volterra.estimation import (ESTIMATION_GRID, MONOMIAL_POWERS, THETA_FAMILY_COUNT,
                                 BatteryEntry, build_battery, compactness_probe, estimate_row,
                                 lower_bound_details, monomial_norm, tg_min_upper_bound,
                                 tg_upper_bound)
from volterra.operators import OperatorKind, apply_operator
from volterra.series import TaylorSeries, derivative
from volterra.spaces import SpacePair, weighted_sup_norm, weighted_sup_norms
from volterra.symbols import (DEFAULT_DEGREE, SymbolSpec, get_symbol, ground_truth_table,
                              registry, symbol_names)

T, S = OperatorKind.Tg, OperatorKind.Sg


def test_monomial_norm_against_dense_scan():
    rs = np.linspace(0.0, 0.999999, 200001)
    for n, alpha in [(1, 1.0), (4, 0.5), (16, 2.0), (64, 1.0)]:
        scan = float(np.max(rs ** n * (1.0 - rs * rs) ** alpha))
        assert monomial_norm(n, alpha) == pytest.approx(scan, rel=1e-8)
    assert monomial_norm(7, 0.0) == 1.0
    assert monomial_norm(0, 3.0) == 1.0


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 3.7])
def test_monomial_norm_never_reads_low(alpha):
    """Against the closed form at 50 digits for every n <= 1024: never below
    it, and above it by at most its stated rounding bound and the round-up,
    (6 alpha + 5)u + (6 alpha + 11)u < (12 alpha + 16) ulps."""
    import mpmath
    a = mpmath.mpf(alpha)
    for n in range(1, 1025):
        with mpmath.workdps(50):
            want = (n / (n + 2 * a)) ** (mpmath.mpf(n) / 2) * (2 * a / (n + 2 * a)) ** a
            ulps = float((mpmath.mpf(monomial_norm(n, alpha)) - want) / math.ulp(float(want)))
        assert 0.0 <= ulps <= 12.0 * alpha + 16.0, (n, ulps)


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


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_battery_families_are_the_rotations_of_one_base(alpha):
    """Every rotational and peak entry is in exactly one family, in battery
    order; a family's labels differ only in their last field, and its members'
    coefficient moduli agree to rounding."""
    battery = build_battery(alpha, degree=64)
    grouped = [battery.entries[i] for family in battery.families for i in family]
    assert [e.label for e in grouped] == [e.label for e in battery.entries
                                          if e.label.startswith(("rotational:", "peak:"))]
    for family in battery.families:
        members = [battery.entries[i] for i in family]
        assert len({e.label.rsplit(":", 1)[0] for e in members}) == 1
        for e in members:
            assert np.allclose(np.abs(e.series.array), np.abs(members[0].series.array),
                               rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("degree", [8, 9, 16, 64, 256, 1000])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 3.7])
def test_rotational_family_equals_the_per_coefficient_loop(alpha, degree):
    """The rotational entries, uint64-equal to the loop ``c_m w^m`` per entry."""
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


@pytest.mark.parametrize("degree", [8, 64, 256, 4096])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 3.7])
def test_family_members_have_source_norm_at_most_one(alpha, degree):
    """Schwarz-Pick: every rotational and peak member's weighted norm is at
    most the source norm 1 that the battery gives it, up to rounding."""
    battery = build_battery(alpha, degree)
    members = [battery.entries[i] for family in battery.families for i in family]
    assert len(members) == THETA_FAMILY_COUNT + 24
    assert all(e.norm_alpha == 1.0 for e in members)
    norms = weighted_sup_norms([e.series for e in members], alpha, ESTIMATION_GRID)
    assert np.all(norms <= 1.0 + 1e-12), float(np.max(norms))


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


def _battery_ratios(g, op, pair, battery, degree=DEFAULT_DEGREE):
    """``(label, ratio)`` of each battery entry: the stacked image norm
    ``weighted_sup_norms`` over the entry's source norm, in battery order."""
    g_series = g.taylor(degree)
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


def _user_symbol(coeffs):
    series = TaylorSeries(coeffs)
    return SymbolSpec(name="user", eval=series, deriv=derivative(series),
                      deriv2=derivative(derivative(series)), taylor_coeff=series.coefficient,
                      peak=None)


@functools.lru_cache(maxsize=None)
def _battery(alpha, degree):
    return build_battery(alpha, degree)


_USER_SYMBOLS = st.builds(
    lambda parts, e: _user_symbol([10.0 ** e * complex(a, b) for a, b in parts]),
    st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=21),
    st.floats(-3.0, 3.0))
_ROTATED_SYMBOLS = st.builds(lambda name, phi: get_symbol(name).rotated(phi),
                             st.sampled_from(symbol_names()), st.floats(0.0, 2.0 * math.pi))


@settings(max_examples=100, deadline=None)
@given(st.one_of(_USER_SYMBOLS, _ROTATED_SYMBOLS), st.sampled_from([T, S]),
       st.sampled_from([0.0, 0.25, 1.0, 3.7]), st.floats(0.0, 3.0), st.sampled_from([8, 64]))
def test_pruned_lower_bound_is_the_whole_battery_max(g, op, alpha, beta, degree):
    """The families that the magnitude images prune cannot hold the largest
    ratio: value and witness are those of every entry measured."""
    battery, pair = _battery(alpha, degree), SpacePair(alpha, beta)
    _assert_lower_bound_is_their_max(lower_bound_details(g, op, pair, battery, degree),
                                     _battery_ratios(g, op, pair, battery, degree))


@settings(max_examples=100, deadline=None)
@given(st.one_of(_USER_SYMBOLS, _ROTATED_SYMBOLS), st.sampled_from([T, S]),
       st.sampled_from([0.0, 0.25, 1.0, 3.7]), st.floats(0.0, 3.0), st.sampled_from([8, 64]),
       st.sampled_from([16, 64]))
def test_one_pass_equals_the_separate_estimates(g, op, alpha, beta, degree, n_max):
    """The row's shared pass, whose monomial entries read the probe's image
    norms, gives the lower bound and the probe trace of the public functions
    called alone, bit for bit."""
    battery, pair = _battery(alpha, degree), SpacePair(alpha, beta)
    lower, trace = estimate_row(g.taylor(degree), op, pair, battery, n_max)
    alone = lower_bound_details(g, op, pair, battery, degree)
    assert (lower.value.hex(), lower.best_label) == (alone.value.hex(), alone.best_label)
    want = compactness_probe(g, op, pair, n_max, degree)
    assert trace == want
    assert np.array_equal(np.array(trace.values).view(np.uint64),
                          np.array(want.values).view(np.uint64))
    assert trace.decay_exponent.hex() == want.decay_exponent.hex()


def test_a_report_builds_each_row_series_and_image_once(monkeypatch):
    """A default serial report builds one Taylor series per row, and applies
    the operator only to const, the families' magnitude images and the members
    of the families that can win: the monomial entries are the probe's."""
    from volterra.report import ReportConfig, build_report
    counts = {"apply_operator": 0, "taylor": 0}

    def apply_spy(*args):
        counts["apply_operator"] += 1
        return apply_operator(*args)
    taylor = SymbolSpec.taylor

    def taylor_spy(self, *args):
        counts["taylor"] += 1
        return taylor(self, *args)
    monkeypatch.setenv("VOLTERRA_WORKERS", "1")
    monkeypatch.setattr(estimation, "apply_operator", apply_spy)
    monkeypatch.setattr(SymbolSpec, "taylor", taylor_spy)
    doc = build_report(ReportConfig())
    assert len(doc["rows"]) == 14
    assert counts == {"apply_operator": 114, "taylor": 14}


def _lower_bound_and_built(monkeypatch, name, op, alpha, beta):
    """The lower bound of a registry row and the labels of the battery entries
    whose images it built."""
    battery, built = build_battery(alpha), []

    def spy(kind, g, f, dg=None):
        built.append(f)
        return apply_operator(kind, g, f, dg)
    monkeypatch.setattr(estimation, "apply_operator", spy)
    detail = lower_bound_details(get_symbol(name), op, SpacePair(alpha, beta), battery)
    return detail, {e.label for e in battery.entries if any(f is e.series for f in built)}


@pytest.mark.parametrize("name, beta", [("identity", 0.0), ("cayley", 1.0)])
def test_t_g_rows_build_no_family_member(monkeypatch, name, beta):
    detail, built = _lower_bound_and_built(monkeypatch, name, T, 0.0, beta)
    assert detail.best_label == "const"
    assert built == {"const"} | {f"monomial:{n}" for n in MONOMIAL_POWERS}


def test_the_witness_family_is_built(monkeypatch):
    detail, built = _lower_bound_and_built(monkeypatch, "affine", S, 1.0, 0.0)
    assert detail.best_label == "rotational:0"
    assert {f"rotational:{j}" for j in range(THETA_FAMILY_COUNT)} <= built


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
