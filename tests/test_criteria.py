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
    # the finite ladder's extrapolated limit, not its last rung 1 - 2^-40
    assert out.verdict.value == pytest.approx(1.0, abs=1e-12)
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


@pytest.mark.parametrize("rotated", [True, False])
def test_split_bound_equals_the_rung_loops(rotated):
    # reference: the per-rung loops the arrays replaced; every product and max
    # is the same, so the bits are too
    g = get_symbol("cayley")
    out = tg_boundedness(g.rotated(0.9) if rotated else g, _pair(0, 1), CFG)
    eng, k_max = out.engine, CFG.k_max
    w, pre = eng.rung_weight, eng.prefix
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


def test_inconclusive_verdicts_keep_their_diagnostics():
    """An undecided verdict still says what it measured: lacunary's one-sided
    T_g tail at (1, 0) records the rung and increment exponents with their
    margins (constant increments: log growth), and a one-sided S_g ladder its
    criterion and largest rung."""
    c = classify(get_symbol("lacunary"), T, _pair(1, 0)).compactness
    assert c.tag is VerdictTag.INCONCLUSIVE
    assert c.diagnostics["criterion"] == "tg-tail-ladder"
    assert "non-compactness needs log g'" in c.reason
    assert abs(c.diagnostics["exponent"]) <= c.diagnostics["margin"]
    assert abs(c.diagnostics["increment_exponent"]) <= c.diagnostics["increment_margin"]
    b = classify(get_symbol("identity"), S, _pair(1, 0)).boundedness
    assert b.tag is VerdictTag.INCONCLUSIVE
    assert b.diagnostics["criterion"] == "sg-radial-ladder"
    assert b.diagnostics["max_value"] > 1e8


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
    # the sup is taken on the symbol's peak ray, where a rotated symbol's
    # moduli are its base's
    assert rot.boundedness.value == base.boundedness.value


BASE_WEIGHTS = (0.0, 0.5, 1.0, 2.0)


@pytest.mark.parametrize("name", symbol_names())
def test_rotated_symbol_classifies_as_its_base(name):
    """Every field of a rotated registry symbol's report but its name equals
    its base's, diagnostics included, on every weight pair of the classify
    grid and under a composed rotation: its moduli on its own peak ray are the
    base's profiles, so nothing the classifier reads depends on the angle."""
    base_g = get_symbol(name)
    rot_g = base_g.rotated(2.4).rotated(-7.9)
    for op in (T, S):
        for alpha in BASE_WEIGHTS:
            for beta in BASE_WEIGHTS:
                base = classify(base_g, op, _pair(alpha, beta))
                rot = classify(rot_g, op, _pair(alpha, beta))
                assert rot.symbol != base.symbol
                assert replace(rot, symbol=base.symbol) == base, (op, alpha, beta)


def _polar_cases():
    from volterra.symbols import registry
    return [(g.name, which) for g in registry() for which in ("deriv", "eval")
            if getattr(g, f"ray_{which}") is not None]


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
       st.lists(st.floats(0.05, 0.99), min_size=1, max_size=8))
def test_polar_form_of_rotated_symbol_matches_its_evaluator(case, angles, radii):
    """The boundary-stable profile |g'| or |g| of a composed rotation equals
    the absolute value of the rotated symbol's own evaluator on its peak ray,
    off the pole.  The rotation must compose: an earlier path read only the
    first rotation of a composition, and only to the six digits kept in the
    symbol's name."""
    name, which = case
    g = get_symbol(name)
    for phi in angles:
        g = g.rotated(phi)
    assert g.rotation == pytest.approx(sum(angles), abs=1e-12)
    r = np.asarray(radii)
    profile = _abs(g, which)(r, 1.0 - r)
    direct = np.abs((g.deriv if which == "deriv" else g.eval)(r * np.exp(1j * g.peak_ray)))
    # the evaluators round the rotated point; lacunary's powers multiply that
    # rounding by up to 2^8
    np.testing.assert_allclose(profile, direct, rtol=1e-12, atol=1e-300)


ORACLE_S = (2.0 ** -40, 2.0 ** -20, 2.0 ** -6, 0.5, 0.999)  # r from 1 - 2^-40 down to 1e-3


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
    """The profiles on the peak ray, which a rotation leaves as they are, for
    a column of radii and a flat row: lacunary within 1e-13 of the modulus sum
    ``sum |terms|``, log within 1e-13 relative, from ``r = 1 - 2^-40`` down
    to ``r = 1e-3``."""
    g = get_symbol(name)
    for phi in rotations:
        g = g.rotated(phi)
    s = np.array(ORACLE_S)
    r = 1.0 - s
    form = _abs(g, which)
    column = form(r[:, None], s[:, None])[:, 0]
    flat = form(r, s)
    want = np.array([_oracle(name, which, ri, g.peak) for ri in r])
    if name == "log":
        bound = 1e-13 * want
    else:
        bound = 1e-13 * _modulus_sum(name, which, r)
    for got in (column, flat):
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


def _closed_form(g, which, theta):
    """``(r, s) -> |h(r e^{i theta})|`` read through the closed form ``g.deriv``
    (``which`` "deriv") or ``g.eval``."""
    f = g.deriv if which == "deriv" else g.eval

    def absmat(r, s):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return np.abs(f(r * np.exp(1j * theta)))
    return absmat


def _grid_ladder(g, which, weight, beta, cfg, thetas=GRID_64):
    """The ladder read as a max over the angles ``thetas``, each angle's
    integrals taken by the cell integrator on the closed forms."""
    from volterra.criteria import _integrate_cells, _rung_cells
    from volterra.spaces import radial_weight
    cells = _rung_cells(2.0 ** -cfg.k_max)
    rows = np.array([_integrate_cells(_closed_form(g, which, t), weight, cells).rows
                     for t in thetas])
    prefix = np.concatenate([np.zeros((1, len(thetas))), np.cumsum(rows.T, axis=0)])
    w = radial_weight(2.0 ** -np.arange(cfg.k_max + 1, dtype=float), beta)
    return np.max(w[:, None] * prefix, axis=1)


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


def _ray_sup_reference(absmat, exponent):
    """The interior sweep along a peak ray as it was written before the shared
    ray maximiser: the radii of ``DEFAULT_GRID``, then 40 golden-section steps
    between the neighbours of the best one; non-finite samples read as inf."""
    from volterra.spaces import DEFAULT_GRID

    def weighted(r, s):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v = (s * (2.0 - s)) ** exponent * absmat(r, s)
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
            want = max(0.0, _ray_sup_reference(_abs(g, which), exponent))
            got = _pointwise_value(_abs(g, which), exponent, 0.0)
            assert got == want or want < got <= want + 4.0 * np.spacing(want), (which, exponent)


@pytest.mark.parametrize("phi", [0.0, 2.7])
def test_lacunary_peak_criteria_never_call_the_closed_forms(phi):
    """On the peak ray: the ladder engine, the pointwise profile and the
    interior sweep along the ray read lacunary only through its profiles."""
    from volterra.criteria import _ladder_engine, _pointwise_profile, _pointwise_value
    real = get_symbol("lacunary").rotated(phi)
    guarded = replace(get_symbol("lacunary"), eval=_boom, deriv=_boom).rotated(phi)
    for which, weight, beta in (("deriv", 0.5, 1.0), ("eval", 1.5, 0.5)):
        engine = _ladder_engine(guarded, which, weight, beta, CFG)
        assert np.array_equal(engine.values,
                              _ladder_engine(real, which, weight, beta, CFG).values)
        exponent = beta + 1.0 - weight
        profile = _pointwise_profile(_abs(guarded, which), exponent, CFG)
        assert np.array_equal(profile[1], _pointwise_profile(_abs(real, which), exponent, CFG)[1])
        assert (_pointwise_value(_abs(guarded, which), exponent, 0.0)
                == _pointwise_value(_abs(real, which), exponent, 0.0))


@pytest.mark.parametrize("phi", [0.0, 0.9])
@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("name", symbol_names())
def test_grid_engine_never_exceeds_the_peak_engine(name, beta, phi):
    """A wrong peak would read a sup below the true one.  The integrals at every
    angle of a 64-angle grid are lower bounds for the sup, so the grid ladder
    must never exceed the ladder on the peak ray by more than a few ulps, on
    any rung.  Both read the closed forms, so both round alike: near the
    boundary a node's ``1 - r`` carries the rounding of ``r``, which the
    profiles avoid.  (The grid may read far below the ray: on 64 angles
    lacunary's grid misses its needle at rotation 0.9.)"""
    g = get_symbol(name).rotated(phi)
    for which, weight in (("deriv", 0.5), ("eval", 1.5)):
        peak = _grid_ladder(g, which, weight, beta, CFG, thetas=[g.peak_ray])
        grid = _grid_ladder(g, which, weight, beta, CFG)
        assert np.all(grid <= peak * (1.0 + 8.0 * np.finfo(float).eps))


def _user_copy(g, name):
    # a user-built symbol: the functions of ``g`` without its profiles
    return SymbolSpec(name=name, eval=g.eval, deriv=g.deriv, deriv2=g.deriv2,
                      taylor_coeff=g.taylor_coeff, peak=g.peak, metadata=g.metadata)


def test_user_symbol_named_log_is_evaluated_by_its_own_functions():
    """The identity under the name ``log``: the classifier must read the
    symbol's functions, not a profile looked up by its name."""
    g = _user_copy(get_symbol("identity"), "log")
    rep = classify(g, T, _pair(0, 0))
    assert rep.boundedness.tag is VerdictTag.BOUNDED
    assert rep.boundedness.value == pytest.approx(1.0, abs=1e-6)
    assert rep.compactness.tag is VerdictTag.COMPACT


@pytest.mark.parametrize("phi", [0.0, 0.8])
def test_symbol_without_polar_forms_uses_its_evaluators(phi):
    """A symbol without profiles reads its closed forms on its peak ray."""
    g = _user_copy(get_symbol("cayley"), "cayley").rotated(phi)
    assert g.ray_eval is None and g.ray_deriv is None
    r = np.array([0.0, 0.3, 0.9, 0.999])[:, None]
    z = r * np.exp(1j * g.peak_ray)
    assert np.array_equal(g.abs_deriv(r, 1.0 - r), np.abs(g.deriv(z)))
    assert np.array_equal(g.abs_eval(r, 1.0 - r), np.abs(g.eval(z)))


@pytest.mark.parametrize("phi", [0.0, 2.1])
def test_koebe1_is_log_under_another_name(phi):
    k, g = get_symbol("koebe1").rotated(phi), get_symbol("log").rotated(phi)
    r = np.array([0.0, 0.5, 1.0 - 2.0 ** -30])[:, None]
    assert np.array_equal(k.abs_eval(r, 1.0 - r), g.abs_eval(r, 1.0 - r))
    assert np.array_equal(k.abs_deriv(r, 1.0 - r), g.abs_deriv(r, 1.0 - r))
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
    every sup is read on the rotated peak ray, where the moduli are the base's."""
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
            assert b.value == a.value
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
    peak ray."""
    from volterra.series import OVERFLOW_CLAMP
    absfun = _abs(g, which)
    s = 2.0 ** -cfg.rung_ks().astype(float)
    sup = np.array([float(absfun(1.0 - si, si)) for si in s])
    sup = np.where(~np.isfinite(sup) | (sup > OVERFLOW_CLAMP), OVERFLOW_CLAMP, sup)
    return (s * (2.0 - s)) ** exponent * sup


@pytest.mark.parametrize("name", ["zero", "one", "identity", "monomial", "log", "koebe1",
                                  "koebe2", "koebe3", "affine", "cayley", "lacunary"])
def test_batched_profile_matches_scalar_reference(name):
    """The profile takes every rung in one call; the rungs taken one at a time
    agree bit for bit, since a modulus rounds every shape of radii alike."""
    from volterra.criteria import _pointwise_profile
    cfg = LadderConfig(k_max=24)
    g = get_symbol(name).rotated(0.9)
    for which, exponent in (("deriv", 1.5), ("eval", 0.5)):
        _, profile = _pointwise_profile(_abs(g, which), exponent, cfg)
        np.testing.assert_array_equal(profile, _profile_reference(g, which, exponent, cfg))


@pytest.mark.parametrize("name", symbol_names())
def test_peak_profile_is_the_ray_value(name):
    """The profile is the weighted modulus on the peak ray: a rotated symbol's
    equals its unrotated base's, and it never reads below the weighted modulus
    that the closed forms give at any angle of a 64-angle grid."""
    from volterra.criteria import _pointwise_profile
    cfg = LadderConfig(k_max=24)
    base = get_symbol(name)
    g = base.rotated(0.9)
    s = 2.0 ** -cfg.rung_ks().astype(float)
    weight = s * (2.0 - s)
    for which, exponent in (("deriv", 1.5), ("eval", 0.5)):
        _, profile = _pointwise_profile(_abs(g, which), exponent, cfg)
        np.testing.assert_array_equal(profile, weight ** exponent * _abs(g, which)(1.0 - s, s))
        np.testing.assert_array_equal(profile,
                                      _pointwise_profile(_abs(base, which), exponent, cfg)[1])
        grid = np.array([_closed_form(g, which, t)(1.0 - s, s) for t in GRID_64])
        assert np.all(profile >= weight ** exponent * np.max(grid, axis=0) * (1.0 - 1e-15))


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


def _steep_pole(theta):
    """``|1 - r e^{i theta}|^-60``, from ``|1-z|^2 = s^2 + 4 r sin^2(theta/2)``:
    at ``theta = 0`` it overflows near the pole, so the deep cells are clamped."""
    h = math.sin(0.5 * theta) ** 2

    def absmat(r, s):
        with np.errstate(over="ignore", divide="ignore"):
            return (s * s + 4.0 * r * h) ** -30.0
    return absmat


def _engine_cases():
    """The registry symbols' moduli and a steep pole: ``(symbol, which,
    exponent, clamped)``, the pole's symbol None; only the pole on its ray is
    clamped."""
    from volterra.symbols import registry
    cases = []
    for g in registry():
        cases += [pytest.param(g, which, exponent, False, id=f"{g.name}-{which}-{exponent}")
                  for which in ("deriv", "eval") for exponent in (0.0, 0.5, 2.0)]
    return cases + [pytest.param(None, None, 0.5, True, id="steep-pole-clamped")]


def _sampled_cells(monkeypatch, absmat, exponent, engine=False):
    """The cell rows over the rung cells of ``ENGINE_CFG``, taken by the ladder
    engine when ``engine``, else by the cell integrator alone: the mesh, the
    engine (or None), the integrand samples and the cells x panels of every
    ``_cell_nodes`` call."""
    from volterra import criteria
    samples, panels, meshes = [], [], []

    def counting(r, s):
        vals = absmat(r, s)
        samples.append(np.broadcast_to(vals, np.shape(r)))
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
    built = None
    if engine:
        built = criteria._LadderEngine(counting, exponent, 0.5, ENGINE_CFG)
    else:
        criteria._integrate_cells(counting, exponent, criteria._rung_cells(2.0 ** -ENGINE_CFG.k_max))
    monkeypatch.undo()
    return meshes[0], built, samples, panels


def _check_cell_rows(mesh, absmat, exponent, samples, panels, clamped):
    """The integrand is sampled only by the adaptive cell rows, and each row
    equals a fresh evaluation at its cell's final nodes."""
    from volterra import criteria
    from volterra.series import OVERFLOW_CLAMP
    from volterra.spaces import radial_weight
    taken = sum(v.size for v in samples)
    assert taken == sum(criteria.NODES_PER_CELL * p for p in panels)
    seen_clamp = any(np.any(~np.isfinite(v) | (v > OVERFLOW_CLAMP)) for v in samples)
    assert bool(np.any(mesh.clamped)) == seen_clamp == clamped
    assert bool(np.all(~mesh.clamped & mesh.accurate)) != clamped
    use_log = exponent >= criteria.LOG_SUBSTITUTION_ALPHA
    cells = criteria._rung_cells(2.0 ** -ENGINE_CFG.k_max)
    for (lo, hi), p, row in zip(cells, mesh.panels.tolist(), mesh.rows):
        r, s, w = (a[0] for a in criteria._cell_nodes([lo], [hi], p, criteria.NODES_PER_CELL,
                                                      use_log))
        vals = np.broadcast_to(absmat(r, s), r.shape)
        vals = np.where(~np.isfinite(vals) | (vals > OVERFLOW_CLAMP), OVERFLOW_CLAMP, vals)
        np.testing.assert_allclose(row, (w * radial_weight(s, -exponent)) @ vals,
                                   rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("g, which, exponent, clamped", _engine_cases())
def test_engine_samples_grid_angles_only_in_cell_rows(monkeypatch, g, which, exponent, clamped):
    """The cell integrator alone, at four angles of the 64-angle grid
    ``GRID_64`` (the symbol's closed forms, or the pole turned by the angle):
    it samples the integrand only in the adaptive cell rows, and each row
    equals a fresh evaluation at the final nodes.  ``_cell_nodes`` takes a
    batch of cells at one panel count, so a call counts cells x panels."""
    for theta in GRID_64[::16]:
        absmat = _steep_pole(theta) if g is None else _closed_form(g, which, theta)
        mesh, _, samples, panels = _sampled_cells(monkeypatch, absmat, exponent)
        _check_cell_rows(mesh, absmat, exponent, samples, panels, clamped and theta == 0.0)


@pytest.mark.parametrize("g, which, exponent, clamped", _engine_cases())
def test_peak_engine_samples_the_ray_only_in_cell_rows(monkeypatch, g, which, exponent, clamped):
    """The ladder engine on the peak ray: every cell taken at one panel count
    shares one integrand call, and the prefixes are the cumulative cell rows."""
    absmat = _steep_pole(0.0) if g is None else _abs(g, which)
    mesh, engine, samples, panels = _sampled_cells(monkeypatch, absmat, exponent, engine=True)
    assert len(samples) == len(panels)
    _check_cell_rows(mesh, absmat, exponent, samples, panels, clamped)
    assert engine.clamped == clamped
    reliable = engine.reliable
    assert reliable[0] and np.all(reliable[1:] <= reliable[:-1])
    assert bool(np.all(reliable)) != clamped
    assert np.array_equal(engine.prefix, np.concatenate([[0.0], np.cumsum(mesh.rows)]))


# -- the rung-exponent rule ------------------------------------------------------

def _rung_sequence(f):
    ks = CFG.rung_ks()
    return ks, np.array([f(float(k)) for k in ks])


@pytest.mark.parametrize("f, kind, limit", [
    (lambda k: 0.0, "zero", 0.0),
    (lambda k: 3.0, "finite", 3.0),
    (lambda k: 3.0 - 2.0 ** -k, "finite", 3.0),
    (lambda k: 3.0 + 5.0 * 2.0 ** (-0.5 * k), "finite", 3.0),
    (lambda k: 2.0 ** (-0.01 * k), "vanishing", 0.0),
    (lambda k: k * 2.0 ** -k, "vanishing", 0.0),
    (lambda k: 2.0 ** (0.01 * k), "infinite", None),
    (lambda k: 0.7 * k + 2.0, "infinite", None),
    # a c/k drift of the increments' exponent: log growth and a convergent
    # sequence whose increments fall like 1/k^2 cannot be told apart
    (lambda k: math.log(k), "undecided", None),
    (lambda k: 5.0 - 1.0 / k, "undecided", None),
    # increments that fall by less than half across the window
    (lambda k: 1.0 - 2.0 ** (-0.1 * k), "undecided", None),
])
def test_rung_limit_reads_model_sequences(f, kind, limit):
    from volterra.criteria import _rung_limit
    ks, values = _rung_sequence(f)
    got = _rung_limit(ks, values, 0.0)
    assert got.kind == kind, got
    if limit is not None:
        assert got.value == pytest.approx(limit, rel=1e-12, abs=1e-300)


def test_rung_limit_reads_a_clamped_or_short_sequence():
    from volterra.criteria import READ_RUNGS, _rung_limit
    ks, values = _rung_sequence(lambda k: 1.0)
    assert _rung_limit(ks, values, 0.0, clamped=True).kind == "infinite"
    short = _rung_limit(ks[:READ_RUNGS - 1], values[:READ_RUNGS - 1], 0.0)
    assert short.kind == "undecided"
    assert short.diagnostics["reliable_rungs"] == READ_RUNGS - 1


@pytest.mark.parametrize("power", [1, 2])
def test_log_type_integrands_are_inconclusive(power):
    """``int ds/(s log(e/s))`` diverges and ``int ds/(s log^2(e/s))``
    converges; on any finite window both show increments whose exponent
    drifts to 0 like ``c/k``, so both ladders and both tails are Inconclusive."""
    from volterra.criteria import _LadderEngine

    def integrand(r, s):
        return 1.0 / (s * np.log(np.e / s) ** power)
    engine = _LadderEngine(integrand, 0.0, 0.0, CFG)
    assert engine.limit.kind == "undecided"
    assert tg_boundedness(None, _pair(0, 0), CFG, engine).verdict.tag is VerdictTag.INCONCLUSIVE
    assert tg_tail_compactness(None, _pair(0, 0), CFG, engine).tag is VerdictTag.INCONCLUSIVE


def _real_pole(p):
    """``g = ((1-z)^(1-p) - 1)/(p - 1)`` (``log 1/(1-z)`` at p = 1), so
    ``g' = (1-z)^-p``, for real ``p > 0``: on the peak ray 0 its moduli are
    ``s^-p`` and ``F = L expm1((p-1) L)/((p-1) L)`` with ``L = log1p(r/s)``.
    ``log g' = -p log(1-z)`` is Bloch; ``g(0) = 0`` leaves ``log g`` singular."""
    def ray_eval(r, s):
        L = np.log1p(r / s)
        return L if p == 1 else L * np.expm1((p - 1) * L) / ((p - 1) * L)

    def power(z, q):
        return (1.0 - np.asarray(z, dtype=complex)) ** q
    return SymbolSpec(name=f"pole{p:g}", deriv=lambda z: power(z, -p),
                      eval=lambda z: (-np.log(power(z, 1.0)) if p == 1
                                      else (power(z, 1.0 - p) - 1.0) / (p - 1.0)),
                      deriv2=lambda z: p * power(z, -p - 1.0),
                      taylor_coeff=lambda n: 0j, peak=0.0,
                      metadata=SymbolMetadata(log_deriv_bloch=True, log_symbol_bloch=False),
                      ray_eval=ray_eval, ray_deriv=lambda r, s: s ** -float(p))


SWEEP_OFFSETS = (0.0, 1e-3, 0.01, 0.02, 0.05, 0.1, 0.2)


def _regime_cells():
    """``(op, alpha, beta, p, offset, (boundedness, compactness))`` for
    ``g' = (1-z)^-p`` with ``p`` at each regime threshold plus or minus each
    offset, and the tags the characterization gives (``s = 1 - r`` on the peak
    ray, where ``|g'| = s^-p`` and ``|g| ~ s^(1-p)/(p-1)`` for p > 1):

    * T_g at beta = 0, alpha in {0, 1/4, 1/2}: bounded iff compact iff
      ``int_0^1 |g'(r)| (1-r^2)^-alpha dr < infinity`` (log g' Bloch makes the
      condition necessary), that is iff ``p + alpha < 1``;
    * T_g at beta in {1/2, 1}: bounded iff ``sup (1-|z|^2)^(beta+1-alpha) |g'|``
      is finite, ``p <= beta + 1 - alpha``; compact iff that weighted modulus
      vanishes at the boundary, ``p < beta + 1 - alpha``;
    * S_g at beta in {1/2, 1, 2}, alpha in {0, 1/2, 1}, p > 1: bounded iff
      ``sup (1-|z|^2)^(beta-alpha) |g|`` is finite, ``p - 1 <= beta - alpha``;
      compact iff it vanishes, ``p - 1 < beta - alpha``.
    """
    for alpha in (0.0, 0.25, 0.5):
        for beta in (0.0, 0.5, 1.0):
            edge = 1.0 - alpha if beta == 0 else beta + 1.0 - alpha
            for offset in SWEEP_OFFSETS:
                for p in sorted({edge - offset, edge + offset}):
                    if beta == 0:
                        tags = ("Bounded", "Compact") if p < edge else ("Unbounded", "NotCompact")
                    else:
                        tags = ("Bounded" if p <= edge else "Unbounded",
                                "Compact" if p < edge else "NotCompact")
                    yield T, alpha, beta, p, offset, tags
    for alpha in (0.0, 0.5, 1.0):
        for beta in (0.5, 1.0, 2.0):
            edge = 1.0 + beta - alpha
            for offset in SWEEP_OFFSETS:
                for p in sorted({edge - offset, edge + offset}):
                    if p > 1.0:
                        yield S, alpha, beta, p, offset, (
                            "Bounded" if p <= edge else "Unbounded",
                            "Compact" if p < edge else "NotCompact")


def _wrong_tags(g, op, alpha, beta, tags):
    rep = classify(g, op, _pair(alpha, beta))
    got = (rep.boundedness.tag.value, rep.compactness.tag.value)
    wrong = [(op.value, alpha, beta, g.name, have, want)
             for have, want in zip(got, tags) if have not in (want, "Inconclusive")]
    return wrong, got


def test_regime_sweep_of_real_order_poles_has_no_wrong_tag():
    """No decided tag contradicts the characterization on any of the 207
    cells near a regime boundary, and every cell 0.2 from its boundary is
    decided."""
    cells = list(_regime_cells())
    assert len(cells) == 207
    wrong, undecided_far = [], []
    for op, alpha, beta, p, offset, tags in cells:
        bad, got = _wrong_tags(_real_pole(p), op, alpha, beta, tags)
        wrong += bad
        if offset == 0.2 and "Inconclusive" in got:
            undecided_far.append((op.value, alpha, beta, p))
    assert wrong == []
    assert undecided_far == []


@pytest.mark.parametrize("gap", [0.5, 0.05])
def test_pole_mixtures_get_the_right_tag_or_inconclusive(gap):
    """``g' = (1-z)^-p + (1-z)^-(p - gap)`` behaves like its stronger pole p
    at the boundary, so it takes p's tags; a close second power may hide the
    limit beyond the window, which must read Inconclusive, never wrong."""
    wrong = []
    for op, alpha, beta, p, _, tags in _regime_cells():
        if p - gap <= 0:
            continue
        g1, g2 = _real_pole(p), _real_pole(p - gap)
        mix = replace(g1, name=f"mix{p:g}",
                      ray_eval=lambda r, s, a=g1, b=g2: a.abs_eval(r, s) + b.abs_eval(r, s),
                      ray_deriv=lambda r, s, a=g1, b=g2: a.abs_deriv(r, s) + b.abs_deriv(r, s))
        wrong += _wrong_tags(mix, op, alpha, beta, tags)[0]
    assert wrong == []


def _scaled(g, c):
    return replace(g, name=f"{c:g}*{g.name}",
                   ray_eval=lambda r, s: c * g.abs_eval(r, s),
                   ray_deriv=lambda r, s: c * g.abs_deriv(r, s))


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3, 1e6])
def test_scaling_the_symbol_keeps_every_tag_and_scales_every_value(c):
    """``||Op_{cg}|| = c ||Op_g||``: scaling the symbol changes no tag over the
    registry (but zero) x {T_g, S_g} x the weight grid, and every decided
    nonzero value scales by c."""
    for name in symbol_names():
        if name == "zero":
            continue
        g = get_symbol(name)
        for op in (T, S):
            for alpha in BASE_WEIGHTS:
                for beta in BASE_WEIGHTS:
                    base = classify(g, op, _pair(alpha, beta))
                    rep = classify(_scaled(g, c), op, _pair(alpha, beta))
                    for b, v in ((base.boundedness, rep.boundedness),
                                 (base.compactness, rep.compactness)):
                        assert v.tag is b.tag, (name, op, alpha, beta)
                        if b.decided and b.value:
                            assert v.value == pytest.approx(c * b.value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("op, alpha, beta, reads", [
    (T, 0.0, 0.0, 1), (T, 0.5, 1.0, 2), (S, 1.0, 0.0, 1), (S, 0.5, 1.0, 2), (S, 0.0, 1.0, 1)])
def test_classify_reads_each_sequence_once(monkeypatch, op, alpha, beta, reads):
    """The ladder's reading serves boundedness and the T_g tail, the profile's
    the pointwise sup and vanishing claims: one rule call per sequence."""
    from volterra import criteria
    real, calls = criteria._rung_limit, []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(criteria, "_rung_limit", counting)
    classify(get_symbol("cayley"), op, _pair(alpha, beta))
    assert len(calls) == reads
