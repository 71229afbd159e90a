"""Criterion ladders, pointwise profiles, and the merged classifier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volterra.criteria import (K_MIN, REFINE_ITERS, REFINE_TOP, LadderConfig, VerdictTag,
                               classify, pointwise_compactness, sg_boundedness, sg_pointwise,
                               sg_zero_symbol_compactness, tg_boundedness,
                               tg_pointwise, tg_tail_compactness)
from volterra.errors import HypothesisError
from volterra.operators import OperatorKind
from volterra.spaces import SpacePair
from volterra.symbols import (LACUNARY_K, SymbolMetadata, SymbolSpec, get_symbol,
                              symbol_names)

T, S = OperatorKind.Tg, OperatorKind.Sg

# smaller angular grid keeps property-style sweeps fast; library symbols peak
# on grid angles so the verdicts are unchanged
FAST = LadderConfig(n_angles=64)


def _pair(a, b):
    return SpacePair(a, b)


# -- boundedness ladders -----------------------------------------------------

def test_identity_ladder_bounded_value_one():
    out = tg_boundedness(get_symbol("identity"), _pair(0, 0), FAST)
    assert out.verdict.tag is VerdictTag.BOUNDED
    assert out.verdict.value == pytest.approx(1.0, abs=1e-6)
    # closed form: L(t_k) = t_k
    ks = FAST.rung_ks()
    for t, v in zip(1.0 - 2.0 ** -ks.astype(float), out.engine.values[ks]):
        assert v == pytest.approx(t, abs=1e-10)


def test_log_ladder_unbounded_linear_growth():
    out = tg_boundedness(get_symbol("log"), _pair(0, 0), FAST)
    assert out.verdict.tag is VerdictTag.UNBOUNDED
    # closed form: L(t_k) = k log 2 at theta = 0
    ks = FAST.rung_ks()
    for k, v in zip(ks, out.engine.values[ks]):
        assert v == pytest.approx(k * math.log(2.0), rel=1e-6)


def test_log_ladder_weighted_target_decays_to_bounded():
    out = tg_boundedness(get_symbol("log"), _pair(0, 1), FAST)
    assert out.verdict.tag is VerdictTag.BOUNDED
    # decaying ladder: limsup 0, criterion constant = rung max
    assert out.verdict.value == pytest.approx(max(out.engine.values[FAST.rung_ks()]), abs=0)


def test_ladder_monotone_at_beta_zero():
    for name in ("identity", "monomial", "lacunary"):
        out = tg_boundedness(get_symbol(name), _pair(0, 0), FAST)
        vals = out.engine.values[FAST.rung_ks()]
        assert np.all(np.diff(vals) >= -1e-12 * np.maximum(vals[:-1], 1.0))


def test_sg_ladder_needs_positive_alpha():
    with pytest.raises(HypothesisError):
        sg_boundedness(get_symbol("affine"), _pair(0.0, 1.0), FAST)


def test_sg_ladder_affine_unweighted_target_diverges():
    out = sg_boundedness(get_symbol("affine"), _pair(1, 0), FAST)
    assert out.verdict.tag is VerdictTag.UNBOUNDED


def test_sg_ladder_zero_symbol():
    out = sg_boundedness(get_symbol("zero"), _pair(1, 0), FAST)
    assert out.verdict.tag is VerdictTag.BOUNDED
    assert out.verdict.value == 0.0


# -- tail compactness ---------------------------------------------------------

def test_tail_identity_compact():
    v = tg_tail_compactness(get_symbol("identity"), _pair(0, 0), FAST)
    assert v.tag is VerdictTag.COMPACT


def test_tail_log_weighted_compact():
    v = tg_tail_compactness(get_symbol("log"), _pair(0, 1), FAST)
    assert v.tag is VerdictTag.COMPACT


def test_tail_constant_symbol_trivially_compact():
    v = tg_tail_compactness(get_symbol("one"), _pair(0, 0), FAST)
    assert v.tag is VerdictTag.COMPACT


def test_tail_cayley_weighted_not_compact():
    v = tg_tail_compactness(get_symbol("cayley"), _pair(0, 1), FAST)
    assert v.tag is VerdictTag.NOT_COMPACT


def test_tail_monotone_in_inner_cut():
    out = tg_boundedness(get_symbol("cayley"), _pair(0, 1), FAST)
    k = FAST.k_max
    sups = [out.engine.tail_sup(m, k) for m in range(K_MIN, k)]
    assert all(b <= a + 1e-12 for a, b in zip(sups, sups[1:]))


# -- pointwise criteria --------------------------------------------------------

def test_pointwise_tg_identity():
    v = tg_pointwise(get_symbol("identity"), _pair(0, 1), FAST)
    assert v.tag is VerdictTag.BOUNDED
    assert v.value == pytest.approx(1.0, abs=1e-6)  # sup (1-|z|^2)^2 at origin


def test_pointwise_tg_log_interior_maximum():
    v = tg_pointwise(get_symbol("log"), _pair(0, 1), FAST)
    assert v.tag is VerdictTag.BOUNDED
    # sup (1-|z|^2)^2/|1-z| = sup (1+r)^2 (1-r) = 32/27 at r = 1/3
    assert v.value == pytest.approx(32.0 / 27.0, abs=1e-4)


def test_pointwise_tg_cubic_pole_unbounded():
    v = tg_pointwise(get_symbol("koebe3"), _pair(0, 1), FAST)
    assert v.tag is VerdictTag.UNBOUNDED


def test_pointwise_requires_beta_positive():
    with pytest.raises(HypothesisError):
        tg_pointwise(get_symbol("identity"), _pair(0, 0), FAST)
    with pytest.raises(HypothesisError):
        sg_pointwise(get_symbol("identity"), _pair(0, 0), FAST)


def test_pointwise_sg_cayley_value_two():
    v = sg_pointwise(get_symbol("cayley"), _pair(0, 1), FAST)
    assert v.tag is VerdictTag.BOUNDED
    assert v.value == pytest.approx(2.0, abs=1e-3)


def test_pointwise_sg_polynomial_bounded():
    v = sg_pointwise(get_symbol("affine"), _pair(0, 1), FAST)
    assert v.tag is VerdictTag.BOUNDED


def test_pointwise_sg_double_pole_unbounded():
    # symbol g = 1/(1-z)^2 built inline: not in the registry
    dbl = SymbolSpec(
        name="cayley2-test",
        eval=lambda z: (1.0 - np.asarray(z, dtype=complex)) ** -2.0,
        deriv=lambda z: 2.0 * (1.0 - np.asarray(z, dtype=complex)) ** -3.0,
        deriv2=lambda z: 6.0 * (1.0 - np.asarray(z, dtype=complex)) ** -4.0,
        taylor_coeff=lambda n: complex(n + 1),
        metadata=SymbolMetadata(univalent=False),
    )
    v = sg_pointwise(dbl, _pair(0, 1), FAST)
    assert v.tag is VerdictTag.UNBOUNDED


def test_pointwise_compactness_examples():
    assert pointwise_compactness(get_symbol("identity"), _pair(0, 1), T, FAST).tag \
        is VerdictTag.COMPACT
    assert pointwise_compactness(get_symbol("cayley"), _pair(0, 1), S, FAST).tag \
        is VerdictTag.NOT_COMPACT
    assert pointwise_compactness(get_symbol("affine"), _pair(0, 1), S, FAST).tag \
        is VerdictTag.COMPACT


def test_pointwise_compactness_beta_zero_redirects():
    with pytest.raises(HypothesisError):
        pointwise_compactness(get_symbol("identity"), _pair(0, 0), T, FAST)
    with pytest.raises(HypothesisError):
        pointwise_compactness(get_symbol("identity"), _pair(0, 0), S, FAST)


def test_zero_symbol_rule():
    assert sg_zero_symbol_compactness(get_symbol("zero")).tag is VerdictTag.COMPACT
    assert sg_zero_symbol_compactness(get_symbol("identity")).tag is VerdictTag.NOT_COMPACT
    tiny = SymbolSpec(
        name="tiny-test",
        eval=lambda z: 1e-9 * np.asarray(z, dtype=complex),
        deriv=lambda z: np.full_like(np.asarray(z, dtype=complex), 1e-9),
        deriv2=lambda z: np.zeros_like(np.asarray(z, dtype=complex)),
        taylor_coeff=lambda n: 1e-9 if n == 1 else 0j,
    )
    assert sg_zero_symbol_compactness(tiny).tag is VerdictTag.NOT_COMPACT


# -- unweighted full integral ---------------------------------------------------

def test_full_integral_agrees_with_ladder_limit():
    # at alpha = beta = 0 the ladder is nondecreasing and its last reliable rung
    # is sup_theta int_0^1 |g'|: 1, 1/2, sum 2^k = 9 (at theta = 0), 0 and 0
    full = {"identity": 1.0, "monomial": 0.5, "lacunary": 9.0, "one": 0.0, "zero": 0.0}
    for name, want in full.items():
        out = tg_boundedness(get_symbol(name), _pair(0, 0), FAST)
        assert out.verdict.tag is VerdictTag.BOUNDED
        ks = FAST.rung_ks()
        reliable = out.engine.values[ks][out.engine.reliable[ks]]
        assert abs(reliable[-1] - want) <= 1e-4, name


# -- classify: merging, forwarding, agreement ------------------------------------

def test_classify_weighted_log_all_criteria_agree():
    rep = classify(get_symbol("log"), T, _pair(0, 1), FAST)
    assert rep.boundedness.tag is VerdictTag.BOUNDED
    assert rep.compactness.tag is VerdictTag.COMPACT
    assert rep.cross_check_agreement
    evidence = rep.boundedness.evidence + rep.compactness.evidence
    assert "tg-radial-ladder" in evidence
    assert "tg-pointwise-sup" in evidence
    assert "tg-tail-ladder" in evidence
    assert "tg-pointwise-vanishing" in evidence


def test_classify_sg_unweighted_forwards():
    rep = classify(get_symbol("identity"), S, _pair(0, 0), FAST)
    assert rep.boundedness.tag is VerdictTag.BOUNDED
    assert "unweighted-forwarding" in rep.boundedness.evidence
    assert rep.compactness.tag is VerdictTag.NOT_COMPACT


def test_classify_sg_cayley_bounded_not_compact():
    rep = classify(get_symbol("cayley"), S, _pair(0, 1), FAST)
    assert rep.boundedness.tag is VerdictTag.BOUNDED
    assert rep.boundedness.value == pytest.approx(2.0, abs=1e-3)
    assert rep.compactness.tag is VerdictTag.NOT_COMPACT


def test_classify_never_compact_and_unbounded():
    cases = [("log", T, 0, 0), ("log", T, 0, 1), ("koebe3", T, 0, 1),
             ("cayley", S, 0, 1), ("affine", S, 1, 0), ("zero", S, 1, 0)]
    for name, op, a, b in cases:
        rep = classify(get_symbol(name), op, _pair(a, b), FAST)
        assert not (rep.compactness.tag is VerdictTag.COMPACT
                    and rep.boundedness.tag is VerdictTag.UNBOUNDED)


def test_classify_lacunary_is_sufficiency_only():
    rep = classify(get_symbol("lacunary"), T, _pair(0, 0), FAST)
    assert rep.boundedness.tag is VerdictTag.BOUNDED
    assert "sufficient-only" in rep.boundedness.evidence
    assert any("one-sided" in n for n in rep.notes)


def test_classify_log_sg_pointwise_decides_despite_oneside_ladder():
    # log g is not Bloch for this symbol, so the divergent companion ladder
    # cannot claim unboundedness; the pointwise criterion still settles it
    rep = classify(get_symbol("log"), S, _pair(1, 1), FAST)
    assert rep.boundedness.tag is VerdictTag.UNBOUNDED
    assert "sg-pointwise-sup" in rep.boundedness.evidence


def test_classify_starved_schedule_goes_inconclusive():
    starved = LadderConfig(k_max=6, n_angles=64)
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
    assert rot.boundedness.value == pytest.approx(base.boundedness.value, abs=1e-4)


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


@pytest.mark.parametrize("phi", [0.0, 2.7])
def test_lacunary_grid_criteria_never_call_the_closed_forms(phi):
    """The ladder engine (grid rows, off-grid prefixes, golden refinement) and
    the pointwise profile read lacunary only through its polar forms."""
    from dataclasses import replace
    from volterra.criteria import _ladder_engine, _pointwise_profile

    def boom(z):
        raise AssertionError("a closed form was evaluated")
    real = get_symbol("lacunary").rotated(phi)
    guarded = replace(get_symbol("lacunary"), eval=boom, deriv=boom).rotated(phi)
    for which, weight, beta in (("deriv", 0.5, 1.0), ("eval", 1.5, 0.5)):
        engine = _ladder_engine(guarded, which, weight, beta, FAST)
        assert np.array_equal(engine.values,
                              _ladder_engine(real, which, weight, beta, FAST).values)
        assert len(engine.angles_all) > FAST.n_angles  # refined angles were added
        profile = _pointwise_profile(guarded, which, beta + 1.0 - weight, FAST)
        assert np.array_equal(profile[1],
                              _pointwise_profile(real, which, beta + 1.0 - weight, FAST)[1])


def _user_copy(g, name):
    # a user-built symbol: the functions of ``g`` without its polar forms
    return SymbolSpec(name=name, eval=g.eval, deriv=g.deriv, deriv2=g.deriv2,
                      taylor_coeff=g.taylor_coeff, metadata=g.metadata)


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
    says why."""
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
    if base.boundedness.tag is VerdictTag.BOUNDED:
        assert wider.boundedness.tag is VerdictTag.BOUNDED
    if base.compactness.tag is VerdictTag.COMPACT:
        assert wider.compactness.tag is VerdictTag.COMPACT


def test_verdict_requires_reason_when_inconclusive():
    from volterra.criteria import Verdict
    with pytest.raises(ValueError):
        Verdict(VerdictTag.INCONCLUSIVE)


# -- the batched pointwise profile -------------------------------------------

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


def _profile_reference(g, which, exponent, cfg):
    """The pointwise profile refined one rung and one bracket at a time."""
    from volterra.series import OVERFLOW_CLAMP
    absfun = _abs(g, which)
    s = 2.0 ** -cfg.rung_ks().astype(float)
    r = 1.0 - s
    thetas = 2.0 * np.pi * np.arange(cfg.n_angles) / cfg.n_angles
    vals = absfun(r[:, None], s[:, None], thetas[None, :])
    vals = np.where(~np.isfinite(vals) | (vals > OVERFLOW_CLAMP), OVERFLOW_CLAMP, vals)
    sup = np.max(vals, axis=1)
    dtheta = 2.0 * np.pi / cfg.n_angles
    for i in range(len(s)):
        for j in np.argsort(-vals[i], kind="stable")[:REFINE_TOP]:
            def obj(th, _i=i):
                v = float(absfun(r[_i], s[_i], th))
                return v if math.isfinite(v) else OVERFLOW_CLAMP
            _, best = _golden_scalar(obj, thetas[j] - dtheta, thetas[j] + dtheta,
                                     REFINE_ITERS)
            sup[i] = max(sup[i], best)
    return (s * (2.0 - s)) ** exponent * sup


@pytest.mark.parametrize("name", ["zero", "one", "identity", "monomial", "log", "koebe1",
                                  "koebe2", "koebe3", "affine", "cayley", "lacunary"])
def test_batched_profile_matches_scalar_reference(name):
    from volterra.criteria import _pointwise_profile
    cfg = LadderConfig(k_max=24, n_angles=64)
    g = get_symbol(name).rotated(0.9)
    for which, exponent in (("deriv", 1.5), ("eval", 0.5)):
        _, profile, _ = _pointwise_profile(g, which, exponent, cfg)
        ref = _profile_reference(g, which, exponent, cfg)
        np.testing.assert_allclose(profile, ref, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("op", [T, S])
def test_classify_builds_the_pointwise_profile_once(monkeypatch, op):
    from volterra import criteria
    real = criteria._pointwise_profile
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(criteria, "_pointwise_profile", counting)
    rep = classify(get_symbol("cayley"), op, _pair(1, 2), FAST)
    assert len(calls) == 1
    assert any(e.endswith("pointwise-sup") for e in rep.boundedness.evidence)
    assert any(e.endswith("pointwise-vanishing") for e in rep.compactness.evidence)


# -- the ladder engine's grid-angle prefixes ---------------------------------

ENGINE_CFG = LadderConfig(k_max=24, n_angles=64)


def _steep_pole(r, s, theta):
    # |1 - z|^-60 overflows near the pole, so the deep cells are clamped
    from volterra.symbols import _dist
    with np.errstate(over="ignore", divide="ignore"):
        return _dist(r, s, theta) ** -60.0


def _engine_cases():
    from volterra.symbols import registry
    cases = [pytest.param(_abs(g, which), exponent, False,
                          id=f"{g.name}-{which}-{exponent}")
             for g in registry() for which in ("deriv", "eval") for exponent in (0.0, 0.5, 2.0)]
    return cases + [pytest.param(_steep_pole, 0.5, True, id="steep-pole-clamped")]


@pytest.mark.parametrize("absmat, exponent, clamped", _engine_cases())
def test_engine_samples_grid_angles_only_in_cell_rows(monkeypatch, absmat, exponent, clamped):
    """The grid-angle prefixes are the cumulative cell rows: the integrand is
    sampled at the grid angles only by the adaptive cell rows, and the prefixes
    equal a fresh evaluation at the final nodes."""
    from volterra import criteria
    from volterra.series import OVERFLOW_CLAMP
    cfg = ENGINE_CFG
    thetas = 2.0 * np.pi * np.arange(cfg.n_angles) / cfg.n_angles
    grid_samples, panels = [], []

    def counting(r, s, theta):
        vals = absmat(r, s, theta)
        if np.shape(theta) == (1, cfg.n_angles) and np.array_equal(theta[0], thetas):
            grid_samples.append(np.broadcast_to(vals, np.broadcast(r, theta).shape))
        return vals

    real_nodes = criteria._cell_nodes

    def nodes_spy(s_lo, s_hi, n_panels, *args):
        panels.append(n_panels)
        return real_nodes(s_lo, s_hi, n_panels, *args)
    monkeypatch.setattr(criteria, "_cell_nodes", nodes_spy)
    engine = criteria._LadderEngine(counting, exponent, 0.5, cfg)

    taken = sum(v.size for v in grid_samples)
    assert taken == sum(criteria.NODES_PER_CELL * p * cfg.n_angles for p in panels)
    seen_clamp = any(np.any(~np.isfinite(v) | (v > OVERFLOW_CLAMP)) for v in grid_samples)
    assert engine.clamped == seen_clamp == clamped
    reliable = engine.reliable
    assert reliable[0] and np.all(reliable[1:] <= reliable[:-1])
    assert bool(np.all(reliable)) != clamped
    np.testing.assert_allclose(engine.prefix_all[:, : cfg.n_angles], engine._prefix_at(thetas),
                               rtol=1e-14, atol=0.0)
