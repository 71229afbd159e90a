"""Criterion ladders, pointwise profiles, and the merged classifier."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volterra.criteria import (DEFAULT_LADDER, K_MIN, LadderConfig, VerdictTag,
                               classify, pointwise_compactness, sg_boundedness, sg_pointwise,
                               sg_zero_symbol_compactness, tg_boundedness,
                               tg_pointwise, tg_tail_compactness)
from volterra.errors import HypothesisError
from volterra.operators import OperatorKind
from volterra.spaces import SpacePair
from volterra.symbols import (LACUNARY_K, SymbolMetadata, SymbolSpec, get_symbol,
                              symbol_names)

T, S = OperatorKind.Tg, OperatorKind.Sg
CFG = DEFAULT_LADDER


def _pair(a, b):
    return SpacePair(a, b)


# -- boundedness ladders -----------------------------------------------------

def test_identity_ladder_bounded_value_one():
    out = tg_boundedness(get_symbol("identity"), _pair(0, 0), CFG)
    assert out.verdict.tag is VerdictTag.BOUNDED
    assert out.verdict.value == pytest.approx(1.0, abs=1e-6)
    # closed form: L(t_k) = t_k
    ks = CFG.rung_ks()
    for t, v in zip(1.0 - 2.0 ** -ks.astype(float), out.engine.values[ks]):
        assert v == pytest.approx(t, abs=1e-10)


def test_log_ladder_unbounded_linear_growth():
    out = tg_boundedness(get_symbol("log"), _pair(0, 0), CFG)
    assert out.verdict.tag is VerdictTag.UNBOUNDED
    # closed form: L(t_k) = k log 2 at theta = 0
    ks = CFG.rung_ks()
    for k, v in zip(ks, out.engine.values[ks]):
        assert v == pytest.approx(k * math.log(2.0), rel=1e-6)


def test_log_ladder_weighted_target_decays_to_bounded():
    out = tg_boundedness(get_symbol("log"), _pair(0, 1), CFG)
    assert out.verdict.tag is VerdictTag.BOUNDED
    # decaying ladder: limsup 0, criterion constant = rung max
    assert out.verdict.value == pytest.approx(max(out.engine.values[CFG.rung_ks()]), abs=0)


def test_ladder_monotone_at_beta_zero():
    for name in ("identity", "monomial", "lacunary"):
        out = tg_boundedness(get_symbol(name), _pair(0, 0), CFG)
        vals = out.engine.values[CFG.rung_ks()]
        assert np.all(np.diff(vals) >= -1e-12 * np.maximum(vals[:-1], 1.0))


def test_sg_ladder_needs_positive_alpha():
    with pytest.raises(HypothesisError):
        sg_boundedness(get_symbol("affine"), _pair(0.0, 1.0), CFG)


def test_sg_ladder_affine_unweighted_target_diverges():
    out = sg_boundedness(get_symbol("affine"), _pair(1, 0), CFG)
    assert out.verdict.tag is VerdictTag.UNBOUNDED


def test_sg_ladder_zero_symbol():
    out = sg_boundedness(get_symbol("zero"), _pair(1, 0), CFG)
    assert out.verdict.tag is VerdictTag.BOUNDED
    assert out.verdict.value == 0.0


# -- tail compactness ---------------------------------------------------------

def test_tail_identity_compact():
    v = tg_tail_compactness(get_symbol("identity"), _pair(0, 0), CFG)
    assert v.tag is VerdictTag.COMPACT


def test_tail_log_weighted_compact():
    v = tg_tail_compactness(get_symbol("log"), _pair(0, 1), CFG)
    assert v.tag is VerdictTag.COMPACT


def test_tail_constant_symbol_trivially_compact():
    v = tg_tail_compactness(get_symbol("one"), _pair(0, 0), CFG)
    assert v.tag is VerdictTag.COMPACT


def test_tail_cayley_weighted_not_compact():
    v = tg_tail_compactness(get_symbol("cayley"), _pair(0, 1), CFG)
    assert v.tag is VerdictTag.NOT_COMPACT


def test_tail_monotone_in_inner_cut():
    out = tg_boundedness(get_symbol("cayley"), _pair(0, 1), CFG)
    k = CFG.k_max
    sups = out.engine.tail_sup(np.arange(K_MIN, k), [k])[:, 0]
    assert all(b <= a + 1e-12 for a, b in zip(sups, sups[1:]))



@pytest.mark.parametrize("rotated", [True, False])
def test_tail_and_split_bound_arrays_equal_the_rung_loops(rotated):
    # reference: the per-rung loops the arrays replaced; every product and max
    # is the same, so the bits are too
    g = get_symbol("cayley")
    out = tg_boundedness(g.rotated(0.9) if rotated else g, _pair(0, 1), CFG)
    eng, k_max = out.engine, CFG.k_max
    w, pre = eng.rung_weight, eng.prefix
    ms, ks = np.arange(K_MIN, k_max - 5), np.arange(k_max - 5, k_max + 1)
    want = [[float(w[k] * (pre[k] - pre[m])) for k in ks] for m in ms]
    assert eng.tail_sup(ms, ks).tolist() == want
    for k0 in range(K_MIN, k_max + 1):
        m_part = max(float(w[j] * pre[j + 1]) for j in range(k0))
        n_part = max((float(w[k] * (pre[k + 1] - pre[k0])) for k in range(k0, k_max)),
                     default=None)
        assert eng.split_bound(k0) == (m_part if n_part is None else m_part + n_part)

# -- pointwise criteria --------------------------------------------------------

def test_pointwise_tg_identity():
    v = tg_pointwise(get_symbol("identity"), _pair(0, 1), CFG)
    assert v.tag is VerdictTag.BOUNDED
    assert v.value == pytest.approx(1.0, abs=1e-6)  # sup (1-|z|^2)^2 at origin


def test_pointwise_tg_log_interior_maximum():
    v = tg_pointwise(get_symbol("log"), _pair(0, 1), CFG)
    assert v.tag is VerdictTag.BOUNDED
    # sup (1-|z|^2)^2/|1-z| = sup (1+r)^2 (1-r) = 32/27 at r = 1/3
    assert v.value == pytest.approx(32.0 / 27.0, abs=1e-4)


def test_pointwise_tg_cubic_pole_unbounded():
    v = tg_pointwise(get_symbol("koebe3"), _pair(0, 1), CFG)
    assert v.tag is VerdictTag.UNBOUNDED


def test_pointwise_requires_beta_positive():
    with pytest.raises(HypothesisError):
        tg_pointwise(get_symbol("identity"), _pair(0, 0), CFG)
    with pytest.raises(HypothesisError):
        sg_pointwise(get_symbol("identity"), _pair(0, 0), CFG)


def test_pointwise_sg_cayley_value_two():
    v = sg_pointwise(get_symbol("cayley"), _pair(0, 1), CFG)
    assert v.tag is VerdictTag.BOUNDED
    assert v.value == pytest.approx(2.0, abs=1e-3)


def test_pointwise_sg_polynomial_bounded():
    v = sg_pointwise(get_symbol("affine"), _pair(0, 1), CFG)
    assert v.tag is VerdictTag.BOUNDED


def test_pointwise_sg_double_pole_unbounded():
    # symbol g = 1/(1-z)^2 built inline: not in the registry
    dbl = SymbolSpec(
        name="cayley2-test",
        eval=lambda z: (1.0 - np.asarray(z, dtype=complex)) ** -2.0,
        deriv=lambda z: 2.0 * (1.0 - np.asarray(z, dtype=complex)) ** -3.0,
        deriv2=lambda z: 6.0 * (1.0 - np.asarray(z, dtype=complex)) ** -4.0,
        taylor_coeff=lambda n: complex(n + 1),
        peak=0.0,
        metadata=SymbolMetadata(univalent=False),
    )
    v = sg_pointwise(dbl, _pair(0, 1), CFG)
    assert v.tag is VerdictTag.UNBOUNDED


def test_pointwise_compactness_examples():
    assert pointwise_compactness(get_symbol("identity"), _pair(0, 1), T, CFG).tag \
        is VerdictTag.COMPACT
    assert pointwise_compactness(get_symbol("cayley"), _pair(0, 1), S, CFG).tag \
        is VerdictTag.NOT_COMPACT
    assert pointwise_compactness(get_symbol("affine"), _pair(0, 1), S, CFG).tag \
        is VerdictTag.COMPACT


def test_pointwise_compactness_beta_zero_redirects():
    with pytest.raises(HypothesisError):
        pointwise_compactness(get_symbol("identity"), _pair(0, 0), T, CFG)
    with pytest.raises(HypothesisError):
        pointwise_compactness(get_symbol("identity"), _pair(0, 0), S, CFG)


def test_zero_symbol_rule():
    assert sg_zero_symbol_compactness(get_symbol("zero")).tag is VerdictTag.COMPACT
    assert sg_zero_symbol_compactness(get_symbol("identity")).tag is VerdictTag.NOT_COMPACT
    tiny = SymbolSpec(
        name="tiny-test",
        eval=lambda z: 1e-9 * np.asarray(z, dtype=complex),
        deriv=lambda z: np.full_like(np.asarray(z, dtype=complex), 1e-9),
        deriv2=lambda z: np.zeros_like(np.asarray(z, dtype=complex)),
        taylor_coeff=lambda n: 1e-9 if n == 1 else 0j,
        peak=0.0,
    )
    assert sg_zero_symbol_compactness(tiny).tag is VerdictTag.NOT_COMPACT


# -- unweighted full integral ---------------------------------------------------

def test_full_integral_agrees_with_ladder_limit():
    # at alpha = beta = 0 the ladder is nondecreasing and its last reliable rung
    # is sup_theta int_0^1 |g'|: 1, 1/2, sum 2^k = 9 (at theta = 0), 0 and 0
    full = {"identity": 1.0, "monomial": 0.5, "lacunary": 9.0, "one": 0.0, "zero": 0.0}
    for name, want in full.items():
        out = tg_boundedness(get_symbol(name), _pair(0, 0), CFG)
        assert out.verdict.tag is VerdictTag.BOUNDED
        ks = CFG.rung_ks()
        reliable = out.engine.values[ks][out.engine.reliable[ks]]
        assert abs(reliable[-1] - want) <= 1e-4, name


# -- classify: merging, forwarding, agreement ------------------------------------

def test_classify_weighted_log_all_criteria_agree():
    rep = classify(get_symbol("log"), T, _pair(0, 1), CFG)
    assert rep.boundedness.tag is VerdictTag.BOUNDED
    assert rep.compactness.tag is VerdictTag.COMPACT
    assert rep.cross_check_agreement
    evidence = rep.boundedness.evidence + rep.compactness.evidence
    assert "tg-radial-ladder" in evidence
    assert "tg-pointwise-sup" in evidence
    assert "tg-tail-ladder" in evidence
    assert "tg-pointwise-vanishing" in evidence


def test_classify_sg_unweighted_forwards():
    rep = classify(get_symbol("identity"), S, _pair(0, 0), CFG)
    assert rep.boundedness.tag is VerdictTag.BOUNDED
    assert "unweighted-forwarding" in rep.boundedness.evidence
    assert rep.compactness.tag is VerdictTag.NOT_COMPACT


def test_classify_sg_cayley_bounded_not_compact():
    rep = classify(get_symbol("cayley"), S, _pair(0, 1), CFG)
    assert rep.boundedness.tag is VerdictTag.BOUNDED
    assert rep.boundedness.value == pytest.approx(2.0, abs=1e-3)
    assert rep.compactness.tag is VerdictTag.NOT_COMPACT


def test_classify_never_compact_and_unbounded():
    cases = [("log", T, 0, 0), ("log", T, 0, 1), ("koebe3", T, 0, 1),
             ("cayley", S, 0, 1), ("affine", S, 1, 0), ("zero", S, 1, 0)]
    for name, op, a, b in cases:
        rep = classify(get_symbol(name), op, _pair(a, b), CFG)
        assert not (rep.compactness.tag is VerdictTag.COMPACT
                    and rep.boundedness.tag is VerdictTag.UNBOUNDED)


def test_classify_lacunary_is_sufficiency_only():
    rep = classify(get_symbol("lacunary"), T, _pair(0, 0), CFG)
    assert rep.boundedness.tag is VerdictTag.BOUNDED
    assert "sufficient-only" in rep.boundedness.evidence
    assert any("one-sided" in n for n in rep.notes)


def test_classify_log_sg_pointwise_decides_despite_oneside_ladder():
    # log g is not Bloch for this symbol, so the divergent companion ladder
    # cannot claim unboundedness; the pointwise criterion still settles it
    rep = classify(get_symbol("log"), S, _pair(1, 1), CFG)
    assert rep.boundedness.tag is VerdictTag.UNBOUNDED
    assert "sg-pointwise-sup" in rep.boundedness.evidence


@pytest.mark.parametrize("op, alpha, beta", [(T, 0, 0), (S, 0, 0), (S, 1, 0), (T, 1, 1),
                                             (S, 0, 1)])
def test_classify_refuses_a_symbol_without_a_peak(op, alpha, beta):
    """Every criterion reads its angular sup on the peak ray, so a symbol that
    declares none is refused on every path, never classified on a guess."""
    g = replace(get_symbol("cayley"), peak=None)
    with pytest.raises(HypothesisError, match="no peak ray"):
        classify(g, op, _pair(alpha, beta))


def test_classify_starved_schedule_goes_inconclusive():
    starved = LadderConfig(k_max=6)
    rep = classify(get_symbol("identity"), T, _pair(0, 0), starved)
    assert not (rep.boundedness.decided and rep.compactness.decided)
    assert (rep.boundedness.reason or rep.compactness.reason)


def test_rotation_invariance_of_verdicts():
    phi = 0.37
    # unbounded case: needle moves off the angular grid
    base = classify(get_symbol("log"), T, _pair(0, 0))
    rot = classify(get_symbol("log").rotated(phi), T, _pair(0, 0))
    assert rot.boundedness.tag is base.boundedness.tag is VerdictTag.UNBOUNDED
    # bounded case with a pinned value
    base = classify(get_symbol("cayley"), S, _pair(0, 1))
    rot = classify(get_symbol("cayley").rotated(phi), S, _pair(0, 1))
    assert rot.boundedness.tag is base.boundedness.tag
    assert rot.compactness.tag is base.compactness.tag
    # the sup is taken on the symbol's peak ray, which rotates with it
    assert rot.boundedness.value == pytest.approx(base.boundedness.value, rel=1e-12, abs=0.0)


def _polar_cases():
    from volterra.symbols import registry
    return [(g.name, which) for g in registry() for which in ("deriv", "eval")
            if getattr(g, f"polar_{which}") is not None]


def _abs(g, which):
    return g.abs_deriv if which == "deriv" else g.abs_eval


def _modulus_sum(name, which, r):
    """``sum |terms|`` of the polynomial g, or of g', at the radii ``r``."""
    c = np.abs(np.asarray(get_symbol(name).taylor().coeffs))
    n = np.arange(len(c))
    if which == "deriv":
        c, n = (n * c)[1:], n[1:] - 1
    return np.sum(c * np.asarray(r, dtype=float)[:, None] ** n, axis=1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_polar_cases()),
       st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=3),
       st.lists(st.floats(0.05, 0.99), min_size=1, max_size=8),
       st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=8))
def test_polar_form_of_rotated_symbol_matches_its_evaluator(case, angles, radii, thetas):
    """The boundary-stable polar |g'| or |g| of a composed rotation equals the
    absolute value of the rotated symbol's own evaluator, off the pole.  The
    polar path read only the first rotation of a composition, and only to the
    six digits kept in the symbol's name."""
    name, which = case
    g = get_symbol(name)
    for phi in angles:
        g = g.rotated(phi)
    assert g.rotation == pytest.approx(sum(angles), abs=1e-12)
    r = np.asarray(radii)[:, None]
    t = np.asarray(thetas)[None, :]
    polar = _abs(g, which)(r, 1.0 - r, t)
    direct = np.abs((g.deriv if which == "deriv" else g.eval)(r * np.exp(1j * t)))
    atol = np.full(len(radii), 1e-300)
    if name == "lacunary":
        # both lacunary evaluators are ill-conditioned where the terms cancel,
        # and the polar form's phases n (theta + rotation) multiply the rounding
        # of that sum by up to 2^8: bound the difference by the modulus sum
        atol = 1e-12 * _modulus_sum(name, which, radii)
    for polar_row, direct_row, floor in zip(polar, direct, atol):
        np.testing.assert_allclose(polar_row, direct_row, rtol=1e-12, atol=floor)


ORACLE_S = (2.0 ** -40, 2.0 ** -20, 2.0 ** -6, 0.5, 0.999)  # r from 1 - 2^-40 down to 1e-3
ORACLE_THETAS = (0.0, 1e-9, 2.0 ** -20, 0.7, math.pi / 3, 2.0, math.pi, 4.0, 5.5,
                 2.0 * math.pi - 1e-6)


def _oracle(name, which, r, phi):
    """``|g(r e^{i phi})|`` or ``|g'|`` at 50 digits."""
    import mpmath
    with mpmath.workdps(50):
        z = mpmath.mpf(r) * mpmath.expj(mpmath.mpf(phi))
        if name == "log":
            return float(abs(mpmath.log(1 - z)))
        exponents = [2 ** k for k in range(LACUNARY_K + 1)]
        if which == "eval":
            return float(abs(sum(z ** n for n in exponents)))
        return float(abs(sum(n * z ** (n - 1) for n in exponents)))


@pytest.mark.parametrize("rotations", [(), (2.1,), (2.1, -7.4, 9.9), (10.0, 10.0, 10.0)])
@pytest.mark.parametrize("name, which", [("lacunary", "deriv"), ("lacunary", "eval"),
                                         ("log", "eval")])
def test_polar_forms_match_an_mpmath_oracle(name, which, rotations):
    """At the angle ``theta + rotation`` that the polar form is given, on the
    engine's grid shape (r a column, theta a row) and elementwise: lacunary
    within 1e-13 of the modulus sum ``sum |terms|``, log within 1e-13 relative
    (``log |1-z|^2`` near 0 carries the rounding of ``|1-z|^2`` near 1, about
    ``eps / r`` relative at r = 1e-3)."""
    g = get_symbol(name)
    for phi in rotations:
        g = g.rotated(phi)
    s = np.array(ORACLE_S)[:, None]
    r, t = 1.0 - s, np.array(ORACLE_THETAS)[None, :]
    form = _abs(g, which)
    grid = form(r, s, t)
    flat = form(*(np.broadcast_to(a, grid.shape).ravel() for a in (r, s, t))).reshape(grid.shape)
    want = np.array([[_oracle(name, which, ri, ti + g.rotation) for ti in t[0]] for ri in r[:, 0]])
    if name == "log":
        bound = 1e-13 * want
    else:
        bound = 1e-13 * _modulus_sum(name, which, r[:, 0])[:, None]
    for got in (grid, flat):
        assert np.all(np.abs(got - want) <= bound)


# |g'| on the peak ray as a power s^-p of s = 1 - r: identity and affine (whose
# ray is theta = pi) have |g'| = 1, log 1/s, cayley 1/s^2 and koebe3 1/s^3
RUNG_ORACLE_POLES = {"identity": 0, "affine": 0, "log": 1, "cayley": 2, "koebe3": 3}


@functools.lru_cache(maxsize=None)
def _rung_oracle(p, alpha, k_max=40):
    """The rungs ``int_0^{1-2^-k} s^-p (1-r^2)^-alpha dr``, k = 0..k_max, as
    mpmath.quad integrals over the dyadic cells ``s in [2^-(j+1), 2^-j]``,
    summed at 20 digits.  Each cell is integrated in ``u = -log s``, where it
    has width log 2 and its integrand ``s^(1-p) (s(2-s))^-alpha`` is analytic
    well beyond it; the quadrature's own error estimate must be below 1e-18."""
    import mpmath
    with mpmath.workdps(20):
        a, ln2 = mpmath.mpf(alpha), mpmath.log(2)

        def integrand(u):
            s = mpmath.exp(-u)
            return s ** (1 - p) * (s * (2 - s)) ** -a

        total, rungs = mpmath.mpf(0), [0.0]
        for j in range(k_max):
            cell, err = mpmath.quad(integrand, [j * ln2, (j + 1) * ln2],
                                    method="gauss-legendre", maxdegree=5, error=True)
            assert err <= 1e-18 * cell
            total += cell
            rungs.append(float(total))
    return np.array(rungs)


@pytest.mark.parametrize("name", sorted(RUNG_ORACLE_POLES))
def test_ladder_rungs_match_an_mpmath_oracle(name):
    """Every rung k = 1..40 of the beta = 0 ladder on the peak ray,
    ``int_0^{1-2^-k} |g'(r)| (1-r^2)^-alpha dr``, within 1e-13 relative of the
    mpmath cell sums, at alpha in {0, 0.5, 1, 2}: the rung values, not only the
    verdicts they lead to, are checked (the worst seen is 6.4e-15, koebe3 at
    alpha = 2)."""
    from volterra.criteria import _ladder_engine
    g = get_symbol(name)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        got = _ladder_engine(g, "deriv", alpha, 0.0, CFG).values[1:]
        want = _rung_oracle(RUNG_ORACLE_POLES[name], alpha)[1:]
        rel = np.abs(got - want) / want
        assert np.all(rel <= 1e-13), (alpha, float(np.max(rel)))


def _boom(z):
    raise AssertionError("a closed form was evaluated")


GRID_64 = 2.0 * np.pi * np.arange(64) / 64


def _grid_ladder(g, which, weight, beta, cfg):
    """The ladder read as a max over the 64 angles of ``GRID_64``, each angle's
    integrals summed from the cell integrator's rows."""
    from volterra.criteria import _abs_fun, _integrate_cells, _rung_cells
    from volterra.spaces import radial_weight
    mesh = _integrate_cells(_abs_fun(g, which), weight, _rung_cells(2.0 ** -cfg.k_max), GRID_64)
    prefix = np.concatenate([np.zeros((1, len(GRID_64))), np.cumsum(mesh.rows, axis=0)])
    w = radial_weight(2.0 ** -np.arange(cfg.k_max + 1, dtype=float), beta)
    return np.max(w[:, None] * prefix, axis=1)


@pytest.mark.parametrize("phi", [0.0, 2.7])
def test_lacunary_grid_criteria_never_call_the_closed_forms(phi):
    """On an angle grid, which the cell integrator keeps as an axis: lacunary's
    ladder rows are read only through its polar forms, by their
    ``(R, K) @ (K, N)`` table path."""
    real = get_symbol("lacunary").rotated(phi)
    guarded = replace(get_symbol("lacunary"), eval=_boom, deriv=_boom).rotated(phi)
    for which, weight, beta in (("deriv", 0.5, 1.0), ("eval", 1.5, 0.5)):
        assert np.array_equal(_grid_ladder(guarded, which, weight, beta, CFG),
                              _grid_ladder(real, which, weight, beta, CFG))


def _golden_scalar(fn, lo, hi, iters):
    # the classic one-bracket golden-section loop, kept here as a reference
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = fn(d)
    return (c, fc) if fc >= fd else (d, fd)


def _ray_sup_reference(absmat, ray, exponent):
    """The interior sweep along a peak ray as it was written before the shared
    ray maximiser: the radii of ``DEFAULT_GRID``, then 40 golden-section steps
    between the neighbours of the best one; non-finite samples read as inf."""
    from volterra.spaces import DEFAULT_GRID

    def weighted(r, s):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v = (s * (2.0 - s)) ** exponent * absmat(r, s, ray)
        return np.where(np.isfinite(v), v, np.inf)
    s = DEFAULT_GRID.one_minus_r()
    r = 1.0 - s
    vals = weighted(r, s)
    i = int(np.argmax(vals))
    lo, hi = (r[i - 1] if i > 0 else 0.0), r[min(i + 1, len(r) - 1)]
    _, best = _golden_scalar(lambda rr: float(weighted(rr, 1.0 - rr)), lo, hi, 40)
    return max(float(vals[i]), best)


@pytest.mark.parametrize("name", symbol_names())
def test_interior_ray_sweep_is_never_below_the_reference(name):
    """The zoom passes against the golden-section search they replaced: never
    below it, and at most 4 ulps above it (0 to 2 ulps seen)."""
    from volterra.criteria import _pointwise_value
    g = get_symbol(name)
    for which in ("deriv", "eval"):
        for exponent in (0.0, 0.5, 1.0, 2.0):
            want = max(0.0, _ray_sup_reference(_abs(g, which), g.peak_ray, exponent))
            got = _pointwise_value(g, which, exponent, 0.0)
            assert got == want or want < got <= want + 4.0 * np.spacing(want), (which, exponent)


@pytest.mark.parametrize("phi", [0.0, 2.7])
def test_lacunary_peak_criteria_never_call_the_closed_forms(phi):
    """On the peak ray: the ladder engine, the pointwise profile and the
    interior sweep along the ray read lacunary only through its polar forms."""
    from volterra.criteria import _ladder_engine, _pointwise_profile, _pointwise_value
    real = get_symbol("lacunary").rotated(phi)
    guarded = replace(get_symbol("lacunary"), eval=_boom, deriv=_boom).rotated(phi)
    for which, weight, beta in (("deriv", 0.5, 1.0), ("eval", 1.5, 0.5)):
        engine = _ladder_engine(guarded, which, weight, beta, CFG)
        assert np.array_equal(engine.values,
                              _ladder_engine(real, which, weight, beta, CFG).values)
        profile = _pointwise_profile(guarded, which, beta + 1.0 - weight, CFG)
        assert np.array_equal(profile[1],
                              _pointwise_profile(real, which, beta + 1.0 - weight, CFG)[1])
        exponent = beta + 1.0 - weight
        assert (_pointwise_value(guarded, which, exponent, 0.0)
                == _pointwise_value(real, which, exponent, 0.0))


@pytest.mark.parametrize("phi", [0.0, 0.9])
@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("name", symbol_names())
def test_grid_engine_never_exceeds_the_peak_engine(name, beta, phi):
    """A wrong peak would read a sup below the true one.  The integrals at every
    angle of a 64-angle grid are lower bounds for the sup, so the grid ladder
    must never exceed the engine on the ray by more than a few ulps, on any
    rung.  (It may read far below it: on 64 angles lacunary's grid misses its
    needle at rotation 0.9.)"""
    from volterra.criteria import _ladder_engine
    g = get_symbol(name).rotated(phi)
    for which, weight in (("deriv", 0.5), ("eval", 1.5)):
        peak = _ladder_engine(g, which, weight, beta, CFG).values
        grid = _grid_ladder(g, which, weight, beta, CFG)
        assert np.all(grid <= peak * (1.0 + 8.0 * np.finfo(float).eps))


def _user_copy(g, name):
    # a user-built symbol: the functions of ``g`` without its polar forms
    return SymbolSpec(name=name, eval=g.eval, deriv=g.deriv, deriv2=g.deriv2,
                      taylor_coeff=g.taylor_coeff, peak=g.peak, metadata=g.metadata)


def test_user_symbol_named_log_is_evaluated_by_its_own_functions():
    """The identity under the name ``log``: the classifier must read the
    symbol's functions, not a polar form looked up by its name."""
    g = _user_copy(get_symbol("identity"), "log")
    rep = classify(g, T, _pair(0, 0))
    assert rep.boundedness.tag is VerdictTag.BOUNDED
    assert rep.boundedness.value == pytest.approx(1.0, abs=1e-6)
    assert rep.compactness.tag is VerdictTag.COMPACT


@pytest.mark.parametrize("phi", [0.0, 0.8])
def test_symbol_without_polar_forms_uses_its_evaluators(phi):
    g = _user_copy(get_symbol("cayley"), "cayley").rotated(phi)
    assert g.polar_eval is None and g.polar_deriv is None
    r = np.array([0.0, 0.3, 0.9, 0.999])[:, None]
    t = np.linspace(-math.pi, math.pi, 7)[None, :]
    z = r * np.exp(1j * t)
    assert np.array_equal(g.abs_deriv(r, 1.0 - r, t), np.abs(g.deriv(z)))
    assert np.array_equal(g.abs_eval(r, 1.0 - r, t), np.abs(g.eval(z)))


@pytest.mark.parametrize("phi", [0.0, 2.1])
def test_koebe1_is_log_under_another_name(phi):
    k, g = get_symbol("koebe1").rotated(phi), get_symbol("log").rotated(phi)
    r = np.array([0.0, 0.5, 1.0 - 2.0 ** -30])[:, None]
    t = np.linspace(0.0, 2.0 * math.pi, 9)[None, :]
    assert np.array_equal(k.abs_eval(r, 1.0 - r, t), g.abs_eval(r, 1.0 - r, t))
    assert np.array_equal(k.abs_deriv(r, 1.0 - r, t), g.abs_deriv(r, 1.0 - r, t))
    assert k.name.startswith("koebe1") and k.metadata != g.metadata


# -- metamorphic properties of the classifier ----------------------------------

WEIGHTS = (0.0, 0.5, 1.0, 2.0)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(symbol_names()),
       st.sampled_from([T, S]), st.sampled_from(WEIGHTS), st.sampled_from(WEIGHTS),
       st.lists(st.sampled_from(WEIGHTS), min_size=2, max_size=2, unique=True).map(sorted),
       st.floats(0.0, 2.0 * math.pi))
def test_metamorphic_properties(name, op, alpha, alpha_other, betas, phi):
    """What the theory guarantees at the default ladder configuration: decided
    tags do not depend on a rotation of the symbol; Bounded (Compact) into
    ``H^inf_beta`` stays Bounded (Compact) into ``H^inf_beta'`` for beta < beta',
    and from ``H^inf_alpha`` stays Bounded (Compact) from ``H^inf_alpha'`` for
    alpha' < alpha; no cell is Compact and Unbounded; an Inconclusive verdict
    says why.  The decided values do not depend on a rotation either, since
    every sup is read on the rotated peak ray."""
    beta, beta_up = betas
    g = get_symbol(name)
    base = classify(g, op, _pair(alpha, beta))
    rotated = classify(g.rotated(phi), op, _pair(alpha, beta))
    wider = classify(g, op, _pair(alpha, beta_up))
    reps = [base, rotated, wider]
    if alpha_other != alpha:
        other = classify(g, op, _pair(alpha_other, beta))
        reps.append(other)
        # the smaller source space H^inf_alpha' sits inside H^inf_alpha
        smaller, larger = (other, base) if alpha_other < alpha else (base, other)
        if larger.boundedness.tag is VerdictTag.BOUNDED:
            assert smaller.boundedness.tag is VerdictTag.BOUNDED
        if larger.compactness.tag is VerdictTag.COMPACT:
            assert smaller.compactness.tag is VerdictTag.COMPACT
    for rep in reps:
        assert not (rep.compactness.tag is VerdictTag.COMPACT
                    and rep.boundedness.tag is VerdictTag.UNBOUNDED)
        for v in (rep.boundedness, rep.compactness):
            assert v.decided or v.reason
    for a, b in ((base.boundedness, rotated.boundedness),
                 (base.compactness, rotated.compactness)):
        if a.decided and b.decided:
            assert a.tag is b.tag
            if a.value is not None:
                assert b.value == pytest.approx(a.value, rel=1e-12, abs=0.0)
    if base.boundedness.tag is VerdictTag.BOUNDED:
        assert wider.boundedness.tag is VerdictTag.BOUNDED
    if base.compactness.tag is VerdictTag.COMPACT:
        assert wider.compactness.tag is VerdictTag.COMPACT


def test_verdict_requires_reason_when_inconclusive():
    from volterra.criteria import Verdict
    with pytest.raises(ValueError):
        Verdict(VerdictTag.INCONCLUSIVE)


# -- the batched pointwise profile -------------------------------------------

def _profile_reference(g, which, exponent, cfg):
    """The pointwise profile one rung at a time, each radius a scalar on the
    peak ray (the polar forms' elementwise path)."""
    from volterra.series import OVERFLOW_CLAMP
    absfun = _abs(g, which)
    s = 2.0 ** -cfg.rung_ks().astype(float)
    sup = np.array([float(absfun(1.0 - si, si, g.peak_ray)) for si in s])
    sup = np.where(~np.isfinite(sup) | (sup > OVERFLOW_CLAMP), OVERFLOW_CLAMP, sup)
    return (s * (2.0 - s)) ** exponent * sup


@pytest.mark.parametrize("name", ["zero", "one", "identity", "monomial", "log", "koebe1",
                                  "koebe2", "koebe3", "affine", "cayley", "lacunary"])
def test_batched_profile_matches_scalar_reference(name):
    """The profile takes every rung in one call, a column of radii against the
    one-angle row; the rungs taken one at a time agree."""
    from volterra.criteria import _pointwise_profile
    cfg = LadderConfig(k_max=24)
    g = get_symbol(name).rotated(0.9)
    for which, exponent in (("deriv", 1.5), ("eval", 0.5)):
        _, profile, _ = _pointwise_profile(g, which, exponent, cfg)
        ref = _profile_reference(g, which, exponent, cfg)
        np.testing.assert_allclose(profile, ref, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("name", symbol_names())
def test_peak_profile_is_the_ray_value(name):
    """The profile is the weighted modulus on the peak ray: a rotated symbol's
    equals its unrotated base's, and it never reads below the weighted modulus
    at any angle of a 64-angle grid."""
    from volterra.criteria import _pointwise_profile
    cfg = LadderConfig(k_max=24)
    base = get_symbol(name)
    g = base.rotated(0.9)
    s = 2.0 ** -cfg.rung_ks().astype(float)
    for which, exponent in (("deriv", 1.5), ("eval", 0.5)):
        _, profile, _ = _pointwise_profile(g, which, exponent, cfg)
        at_ray = _abs(g, which)((1.0 - s)[:, None], s[:, None], np.array([[g.peak_ray]]))
        ray = (s * (2.0 - s)) ** exponent * at_ray[:, 0]
        np.testing.assert_array_equal(profile, ray)
        np.testing.assert_allclose(profile, _pointwise_profile(base, which, exponent, cfg)[1],
                                   rtol=1e-15, atol=0.0)
        grid = _abs(g, which)((1.0 - s)[:, None], s[:, None], GRID_64[None, :])
        assert np.all(profile >= (s * (2.0 - s)) ** exponent * np.max(grid, axis=1)
                      * (1.0 - 1e-15))


@pytest.mark.parametrize("op", [T, S])
def test_classify_builds_the_pointwise_profile_once(monkeypatch, op):
    from volterra import criteria
    real = criteria._pointwise_profile
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(criteria, "_pointwise_profile", counting)
    rep = classify(get_symbol("cayley"), op, _pair(1, 2), CFG)
    assert len(calls) == 1
    assert any(e.endswith("pointwise-sup") for e in rep.boundedness.evidence)
    assert any(e.endswith("pointwise-vanishing") for e in rep.compactness.evidence)


# -- the cell rows behind the ladder engine ------------------------------------

ENGINE_CFG = LadderConfig(k_max=24)


def _steep_pole(r, s, theta):
    # |1 - z|^-60 overflows near the pole, so the deep cells are clamped
    from volterra.symbols import _dist
    with np.errstate(over="ignore", divide="ignore"):
        return _dist(r, s, theta) ** -60.0


def _engine_cases():
    """Integrands of the registry symbols with their peak rays, and a clamped
    steep pole: ``(absmat, exponent, clamped, ray)``."""
    from volterra.symbols import registry
    cases = []
    for g in registry():
        cases += [pytest.param(_abs(g, which), exponent, False, g.peak_ray,
                               id=f"{g.name}-{which}-{exponent}")
                  for which in ("deriv", "eval") for exponent in (0.0, 0.5, 2.0)]
    return cases + [pytest.param(_steep_pole, 0.5, True, 0.0, id="steep-pole-clamped")]


def _sampled_cells(monkeypatch, absmat, exponent, thetas, ray=None):
    """The cell rows over the rung cells of ``ENGINE_CFG`` at the angle row
    ``thetas``, taken by the ladder engine on ``ray`` when it is given, else by
    the cell integrator alone: the mesh, the engine (or None), the integrand
    samples taken at exactly ``thetas`` and the cells x panels of every
    ``_cell_nodes`` call."""
    from volterra import criteria
    samples, panels, meshes = [], [], []

    def counting(r, s, theta):
        vals = absmat(r, s, theta)
        if np.shape(theta) == (1, len(thetas)) and np.array_equal(theta[0], thetas):
            samples.append(np.broadcast_to(vals, np.broadcast(r, theta).shape))
        return vals

    real_nodes, real_cells = criteria._cell_nodes, criteria._integrate_cells

    def nodes_spy(s_lo, s_hi, n_panels, *args):
        panels.append(len(s_lo) * n_panels)
        return real_nodes(s_lo, s_hi, n_panels, *args)

    def cells_spy(*args):
        meshes.append(real_cells(*args))
        return meshes[-1]
    monkeypatch.setattr(criteria, "_cell_nodes", nodes_spy)
    monkeypatch.setattr(criteria, "_integrate_cells", cells_spy)
    engine = None
    if ray is None:
        cells = criteria._rung_cells(2.0 ** -ENGINE_CFG.k_max)
        criteria._integrate_cells(counting, exponent, cells, thetas)
    else:
        engine = criteria._LadderEngine(counting, exponent, 0.5, ENGINE_CFG, ray)
    monkeypatch.undo()
    return meshes[0], engine, samples, panels


def _check_cell_rows(mesh, absmat, exponent, samples, panels, thetas, clamped):
    """The integrand is sampled only by the adaptive cell rows, and each row
    equals a fresh evaluation at its cell's final nodes."""
    from volterra import criteria
    from volterra.series import OVERFLOW_CLAMP
    from volterra.spaces import radial_weight
    taken = sum(v.size for v in samples)
    assert taken == sum(criteria.NODES_PER_CELL * p * len(thetas) for p in panels)
    seen_clamp = any(np.any(~np.isfinite(v) | (v > OVERFLOW_CLAMP)) for v in samples)
    assert bool(np.any(mesh.clamped)) == seen_clamp == clamped
    assert bool(np.all(~mesh.clamped & mesh.accurate)) != clamped
    use_log = exponent >= criteria.LOG_SUBSTITUTION_ALPHA
    cells = criteria._rung_cells(2.0 ** -ENGINE_CFG.k_max)
    for (lo, hi), p, row in zip(cells, mesh.panels.tolist(), mesh.rows):
        r, s, w = (a[0] for a in criteria._cell_nodes([lo], [hi], p, criteria.NODES_PER_CELL,
                                                      use_log))
        vals = np.broadcast_to(absmat(r[:, None], s[:, None], thetas[None, :]),
                               (len(r), len(thetas)))
        vals = np.where(~np.isfinite(vals) | (vals > OVERFLOW_CLAMP), OVERFLOW_CLAMP, vals)
        np.testing.assert_allclose(row, (w * radial_weight(s, -exponent)) @ vals,
                                   rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("absmat, exponent, clamped, ray", _engine_cases())
def test_engine_samples_grid_angles_only_in_cell_rows(monkeypatch, absmat, exponent, clamped,
                                                      ray):
    """The cell integrator under the engine keeps an angle axis: on the
    64-angle grid ``GRID_64`` it samples the integrand only in the adaptive
    cell rows, and each row equals a fresh evaluation at the final nodes.
    ``_cell_nodes`` takes a batch of cells at one panel count, so a call counts
    cells x panels."""
    mesh, _, samples, panels = _sampled_cells(monkeypatch, absmat, exponent, GRID_64)
    _check_cell_rows(mesh, absmat, exponent, samples, panels, GRID_64, clamped)


@pytest.mark.parametrize("absmat, exponent, clamped, ray", _engine_cases())
def test_peak_engine_samples_the_ray_only_in_cell_rows(monkeypatch, absmat, exponent, clamped,
                                                       ray):
    """The ladder engine on the peak ray: one angle, every cell taken at one
    panel count shares one integrand call, and the prefixes are the
    cumulative cell rows."""
    thetas = np.array([ray])
    mesh, engine, samples, panels = _sampled_cells(monkeypatch, absmat, exponent, thetas, ray)
    assert len(samples) == len(panels)
    _check_cell_rows(mesh, absmat, exponent, samples, panels, thetas, clamped)
    assert engine.clamped == clamped
    reliable = engine.reliable
    assert reliable[0] and np.all(reliable[1:] <= reliable[:-1])
    assert bool(np.all(reliable)) != clamped
    assert np.array_equal(engine.prefix, np.concatenate([[0.0], np.cumsum(mesh.rows[:, 0])]))
