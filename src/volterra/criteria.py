"""Boundedness and compactness criteria for the two operators.

Everything here reduces to radial ladders and weighted boundary profiles.
For a weight pair (alpha, beta) the boundedness ladder is

    L(t_k) = (1 - t_k^2)^beta * sup_theta  int_0^{t_k} |g'(r e^{i theta})| / (1-r^2)^alpha dr

evaluated on the geometric schedule ``t_k = 1 - 2^{-k}``.  On that schedule a
logarithmic divergence of the integral turns into linear growth of L against k
and a power divergence into exponential growth, so the finite/infinite decision
is made by regressing ``log L`` against ``k`` over the last reliable rungs
(the slope rule).  Compactness replaces the integral by its tail between two
schedule points, and the pointwise criteria replace it by a weighted modulus of
g or g' on boundary rungs.  Every radial integral runs on one adaptive mesh
whose cells are aligned with the rung schedule (:func:`_integrate_cells`), so
every prefix integral is a partial sum.  Moduli come from the symbol's own
:meth:`~volterra.symbols.SymbolSpec.abs_deriv` and ``abs_eval``, and every
weight ``(1-r^2)^e`` from :func:`~volterra.spaces.radial_weight`.

Every criterion is an angular sup.  Every symbol declares a peak
(:attr:`~volterra.symbols.SymbolSpec.peak`): ``|g|`` and ``|g'|`` are largest
on one ray at every radius, so each sup is read on that ray alone, by the
ladder integrals, the boundary profile and the interior sweep along it (the
package's one ray maximiser, :func:`~volterra.spaces.ray_max`).  A symbol
whose peak is None is refused with a HypothesisError.

A decision is never forced: when the slope lands between the thresholds the
verdict is Inconclusive with the slope recorded, since no numerical scheme can
tell a finite limsup from sufficiently slow divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import HypothesisError
from .quadrature import gauss_legendre
from .series import OVERFLOW_CLAMP
from .spaces import SpacePair, radial_weight, ray_max
# bound here only for perfbench's tracer, which wraps criteria.weighted_sup_details
from .spaces import weighted_sup_details  # noqa: F401
from .symbols import SymbolSpec
from .operators import OperatorKind


class VerdictTag(Enum):
    BOUNDED = "Bounded"
    UNBOUNDED = "Unbounded"
    COMPACT = "Compact"
    NOT_COMPACT = "NotCompact"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Verdict:
    tag: VerdictTag
    value: Optional[float] = None
    evidence: tuple = ()
    reason: Optional[str] = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tag is VerdictTag.INCONCLUSIVE and not self.reason:
            raise ValueError("an Inconclusive verdict must carry a reason")

    @property
    def decided(self) -> bool:
        return self.tag is not VerdictTag.INCONCLUSIVE


# the slope rule: regression window (rungs), log-slope thresholds, the relative
# rung change of a plateau and the value that reads divergent outright
WINDOW = 8
SLOPE_UP = 0.02
SLOPE_DOWN = -0.02
FLAT_TOL = 1e-3
DIVERGENCE_THRESHOLD = 1e8
# the tail and vanishing-limit rules: inner rungs of the tail rule, the trail
# of the trend rule, and the Compact / NotCompact thresholds
TAIL_WINDOW = 5
TREND_WINDOW = 5
COMPACT_TOL = 1e-3
NOT_COMPACT_FACTOR = 10.0
# the cell integrator: Gauss-Legendre nodes per panel, the weight exponent
# from which nodes are placed in -log(1 - r), the change (relative to the
# largest angle total) that doubles a cell's panels, and the panel cap
NODES_PER_CELL = 16
LOG_SUBSTITUTION_ALPHA = 0.5
CELL_REL_TOL = 1e-9
MAX_PANELS = 64
# integrand samples per call of the cell integrator: a peak ray's 40 rung cells
# take one call even at MAX_PANELS (40,960 samples); a row of many angles
# takes fewer cells per call, since unbounded blocks (5 MB on 512 angles)
# measured slower
BLOCK_SAMPLES = 1 << 16
# the schedule's first classified rung
K_MIN = 3


@dataclass(frozen=True)
class LadderConfig:
    k_max: int = 40

    def __post_init__(self):
        if self.k_max <= K_MIN:
            raise ValueError(f"need k_max > {K_MIN}")

    def rung_ks(self) -> np.ndarray:
        return np.arange(K_MIN, self.k_max + 1)


DEFAULT_LADDER = LadderConfig()


@dataclass(frozen=True)
class CriterionReport:
    symbol: str
    operator: OperatorKind
    alpha: float
    beta: float
    boundedness: Verdict
    compactness: Verdict
    cross_check_agreement: bool
    notes: tuple = ()
    # the T_g ladder engine classify built for this (symbol, pair, cfg), kept
    # so the split upper bound reuses it; None when no T_g ladder ran
    tg_engine: Optional["_LadderEngine"] = field(default=None, repr=False, compare=False)


# ---------------------------------------------------------------------------
# the adaptive cell integrator
# ---------------------------------------------------------------------------

def _cell_nodes(s_lo, s_hi, panels: int, n: int, use_log: bool):
    """Gauss-Legendre nodes ``(r, s, w)``, each shaped ``(cells, panels * n)``,
    on ``panels`` equal panels of every cell ``s = 1 - r in [s_lo[i], s_hi[i]]``,
    ``n`` nodes per panel.

    The integrands blow up (at worst polynomially) as r -> 1: the weight
    ``(1-r^2)^-alpha`` sits on top of boundary poles of the symbol.  The rung
    cells halve the distance to 1 cell by cell, so the integrand varies by a
    bounded factor within each cell and a few panels converge fast.  Nodes are
    placed in s (or in ``u = -log s`` once the weight exponent makes the
    substitution pay off), which keeps ``1 - r`` exact at nodes arbitrarily
    close to the boundary.
    """
    x, w = gauss_legendre(n)
    s_lo, s_hi = np.asarray(s_lo, dtype=float), np.asarray(s_hi, dtype=float)
    lo, hi = (-np.log(s_hi), -np.log(s_lo)) if use_log else (s_lo, s_hi)
    edges = np.linspace(lo, hi, panels + 1, axis=-1)
    mid, half = 0.5 * (edges[:, :-1] + edges[:, 1:]), 0.5 * (edges[:, 1:] - edges[:, :-1])
    u = (mid[..., None] + half[..., None] * x).reshape(len(s_lo), -1)
    hw = (half[..., None] * w).reshape(len(s_lo), -1)
    if not use_log:
        return 1.0 - u, u, hw
    s = np.exp(-u)
    return 1.0 - s, s, hw * s


class _Cells(NamedTuple):
    rows: np.ndarray      # (cells, angles) integrals of the weighted integrand
    errs: np.ndarray      # change at each cell's last panel doubling, max over angles
    accurate: np.ndarray  # errs within 100 * CELL_REL_TOL of the largest angle total
    clamped: np.ndarray   # a sample of the cell was clamped
    panels: np.ndarray    # each cell's final panel count


def _integrate_cells(absmat: Callable, weight_exponent: float, cells,
                     thetas: np.ndarray) -> _Cells:
    """Integrals of ``absmat(r, s, theta) (s(2-s))^-weight_exponent dr`` over the
    cells ``(s_lo, s_hi)``, per angle.

    The ladder engine passes the rung cells and its peak ray; an integral up to
    any ``t`` at one angle is the sum of the rows over ``_rung_cells(1 - t)``.
    Each cell is taken with one and two panels; a cell whose change exceeds
    ``CELL_REL_TOL`` of the largest angle total doubles its panels, at most six
    times and up to ``MAX_PANELS``.  All cells taken at one panel count share
    one ``absmat`` call on their stacked nodes (a column of radii against the
    row of angles), whose ``(cells, nodes, angles)`` block is summed per cell.
    Samples that are not finite or exceed ``OVERFLOW_CLAMP`` are clamped to it.
    """
    use_log = weight_exponent >= LOG_SUBSTITUTION_ALPHA
    thetas = np.asarray(thetas, dtype=float)
    bounds = np.asarray(cells, dtype=float).reshape(-1, 2)
    n_cells, n_angles = len(bounds), len(thetas)

    def block(idx, panels):
        # the rows of the cells idx at one panel count and whether each was
        # clamped; an absmat call takes one cell or up to BLOCK_SAMPLES samples
        step = max(1, BLOCK_SAMPLES // (panels * NODES_PER_CELL * n_angles))
        out, hit = np.empty((len(idx), n_angles)), np.empty(len(idx), dtype=bool)
        for i in range(0, len(idx), step):
            part = idx[i:i + step]
            r, s, w = _cell_nodes(bounds[part, 0], bounds[part, 1], panels, NODES_PER_CELL,
                                  use_log)
            vals = absmat(r.reshape(-1, 1), s.reshape(-1, 1), thetas[None, :])
            vals = np.broadcast_to(vals, (r.size, n_angles)).reshape(r.shape + (n_angles,))
            w = w * radial_weight(s, -weight_exponent)
            bad = ~np.isfinite(vals) | (vals > OVERFLOW_CLAMP)
            hit[i:i + step] = np.any(bad, axis=(1, 2))
            if np.any(hit[i:i + step]):
                vals = np.where(bad, OVERFLOW_CLAMP, vals)
            out[i:i + step] = (w[:, None, :] @ vals)[:, 0, :]
        return out, hit

    every = np.arange(n_cells)
    coarse, clamped = block(every, 1)
    rows, fine_clamped = block(every, 2)
    errs = np.max(np.abs(rows - coarse), axis=1)
    clamped |= fine_clamped
    panels = np.full(n_cells, 2, dtype=int)
    for _ in range(6):
        scale = max(float(np.max(np.sum(rows, axis=0))), 1.0)
        bad = (errs > CELL_REL_TOL * scale) & (panels < MAX_PANELS)
        if not np.any(bad):
            break
        for p in np.unique(panels[bad]):
            idx = np.flatnonzero(bad & (panels == p))
            new, cl = block(idx, 2 * int(p))
            errs[idx] = np.max(np.abs(new - rows[idx]), axis=1)
            rows[idx] = new
            clamped[idx] |= cl
            panels[idx] = 2 * p
    scale = max(float(np.max(np.sum(rows, axis=0))), 1.0)
    return _Cells(rows, errs, errs <= 100.0 * CELL_REL_TOL * scale, clamped, panels)


def _rung_cells(s_end: float) -> list:
    """The rung cells ``[2^{-j-1}, 2^{-j}]`` covering ``s in [s_end, 1]``, the
    last one clipped at ``s_end``."""
    cells, j = [], 0
    while 2.0 ** -j > s_end:
        cells.append((max(2.0 ** -(j + 1), s_end), 2.0 ** -j))
        j += 1
    return cells


# ---------------------------------------------------------------------------
# the shared ladder engine
# ---------------------------------------------------------------------------

class _LadderEngine:
    """Rung-aligned quadrature mesh shared by every integral criterion.

    Cell j covers ``s in [2^{-j-1}, 2^{-j}]``, so the integral up to rung t_k is
    the prefix sum of the first k cells and the tail between two rungs is a
    prefix difference.  The integrals run along the peak ray ``ray`` of a
    symbol (:attr:`~volterra.symbols.SymbolSpec.peak_ray`), on which the
    integrand is largest at every radius, so each angular sup is exact and a
    beta = 0 ladder exactly monotone.  ``absmat`` is ``(r, s, theta) -> |h|``,
    broadcasting, such as a symbol's ``abs_deriv``.
    """

    def __init__(self, absmat: Callable, weight_exponent: float, beta: float,
                 cfg: LadderConfig, ray: float):
        self.cfg = cfg
        mesh = _integrate_cells(absmat, weight_exponent, _rung_cells(2.0 ** -cfg.k_max),
                                np.array([ray], dtype=float))
        self.clamped = bool(np.any(mesh.clamped))
        # reliability of the prefix through cell j: every earlier cell clean
        ok = ~mesh.clamped & mesh.accurate
        self.reliable = np.concatenate([[True], np.cumprod(ok).astype(bool)])
        # the integrals up to each rung k = 0..k_max, rung 0 the empty sum
        self.prefix = np.concatenate([[0.0], np.cumsum(mesh.rows[:, 0])])
        sk = 2.0 ** -np.arange(cfg.k_max + 1, dtype=float)
        self.rung_weight = radial_weight(sk, beta)
        with np.errstate(over="ignore", invalid="ignore"):
            self.values = self.rung_weight * self.prefix

    # -- derived quantities -----------------------------------------------

    def tail_sup(self, ms, ks) -> np.ndarray:
        """The weighted tail integral between rungs m < k, as a
        ``(len(ms), len(ks))`` array over outer rungs ``ms`` and inner rungs ``ks``."""
        return self.rung_weight[ks] * (self.prefix[ks][None, :] - self.prefix[ms][:, None])

    def split_bound(self, k0: int) -> float:
        """Upper bound M + N from splitting the radius range at rung k0.

        Between consecutive rungs the weight decreases while the integral
        increases, so the sup over the whole cell ``R in (t_j, t_{j+1}]`` is at
        most ``weight(t_j) * integral(t_{j+1})``; maximizing these cell bounds
        covers the continuous sup, not just the rung values.  The tail piece
        beyond the cut rung is handled the same way with prefix differences.
        """
        k_max, w, prefix = self.cfg.k_max, self.rung_weight, self.prefix
        m_part = float(np.max(w[:k0] * prefix[1:k0 + 1]))
        if k0 >= k_max:
            return m_part
        tails = prefix[k0 + 1:k_max + 1] - prefix[k0]
        return m_part + float(np.max(w[k0:k_max] * tails))


def _abs_fun(symbol: SymbolSpec, which: str) -> Callable:
    """The symbol's broadcasting ``(r, s, theta) -> |g'|`` or ``|g|``."""
    return symbol.abs_deriv if which == "deriv" else symbol.abs_eval


def _ladder_engine(symbol: SymbolSpec, which: str, weight_exponent: float,
                   beta: float, cfg: LadderConfig) -> _LadderEngine:
    return _LadderEngine(_abs_fun(symbol, which), weight_exponent, beta, cfg, symbol.peak_ray)


# ---------------------------------------------------------------------------
# slope rule and tail rule
# ---------------------------------------------------------------------------

def _slope_classify(ks, values, reliable, criterion: str):
    """Finite/infinite classification of a rung sequence.

    Returns a Verdict tagged Bounded/Unbounded/Inconclusive.  A plateau of the
    values (relative change below ``FLAT_TOL``) or steady decay reads Bounded;
    log-slope above ``SLOPE_UP`` or any value over the divergence threshold
    reads Unbounded; anything else is left open.
    """
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    rel = np.asarray(reliable, dtype=bool) & np.isfinite(values)
    diag = {"criterion": criterion, "reliable_rungs": int(np.count_nonzero(rel))}
    if np.count_nonzero(rel) < 3:
        return Verdict(VerdictTag.INCONCLUSIVE, reason="fewer than 3 reliable rungs",
                       evidence=(criterion,), diagnostics=diag)
    kk, vv = ks[rel], values[rel]
    vmax = float(np.max(vv))
    if vmax > DIVERGENCE_THRESHOLD:
        diag["max_value"] = vmax
        return Verdict(VerdictTag.UNBOUNDED, evidence=(criterion, "divergence-threshold"),
                       diagnostics=diag)
    if vmax <= 1e-12:
        return Verdict(VerdictTag.BOUNDED, value=vmax, evidence=(criterion, "identically-small"),
                       diagnostics=diag)
    w = min(WINDOW, len(vv))
    kw, vw = kk[-w:], vv[-w:]
    logs = np.log(np.maximum(vw, 1e-300))
    slope = float(np.polyfit(kw, logs, 1)[0])
    prev = np.maximum(np.abs(vw[:-1]), 1e-300)
    rel_change = float(np.max(np.abs(np.diff(vw)) / prev))
    diag.update(slope=slope, rel_change=rel_change, max_value=vmax)
    if rel_change < FLAT_TOL:
        return Verdict(VerdictTag.BOUNDED, value=vmax, evidence=(criterion, "slope-rule"),
                       diagnostics=diag)
    if w < WINDOW:
        # a slope measured on a short window cannot tell transient growth of a
        # converging ladder from real divergence; refuse rather than guess
        return Verdict(VerdictTag.INCONCLUSIVE,
                       reason=f"only {w} reliable rungs, the slope rule needs {WINDOW}",
                       evidence=(criterion,), diagnostics=diag)
    if slope > SLOPE_UP:
        return Verdict(VerdictTag.UNBOUNDED, evidence=(criterion, "slope-rule"), diagnostics=diag)
    if slope < SLOPE_DOWN:
        # steady decay: the limsup is zero, the criterion constant is the rung max
        return Verdict(VerdictTag.BOUNDED, value=vmax, evidence=(criterion, "decaying-ladder"),
                       diagnostics=diag)
    return Verdict(VerdictTag.INCONCLUSIVE,
                   reason=f"slope {slope:.4f} between thresholds "
                          f"({SLOPE_DOWN}, {SLOPE_UP}) with rung change {rel_change:.2e}",
                   evidence=(criterion,), diagnostics=diag)


def _tail_classify(engine: _LadderEngine, criterion: str) -> Verdict:
    """Double-limit tail rule: inner limsup over t1 per fixed t2, outer limit over t2."""
    cfg = engine.cfg
    ks = np.arange(1, cfg.k_max + 1)
    rel_ks = [int(k) for k in ks if engine.reliable[k]]
    if len(rel_ks) < TAIL_WINDOW + 3:
        return Verdict(VerdictTag.INCONCLUSIVE, reason="too few reliable rungs for the tail rule",
                       evidence=(criterion,))
    inner_ks = rel_ks[-TAIL_WINDOW:]
    outer_ms = [m for m in rel_ks if K_MIN <= m < inner_ks[0]]
    if len(outer_ms) < 3:
        return Verdict(VerdictTag.INCONCLUSIVE, reason="tail window leaves no outer rungs",
                       evidence=(criterion,))
    # every inner rung lies beyond every outer one
    outer = np.max(engine.tail_sup(outer_ms, inner_ks), axis=1)
    diag = {"criterion": criterion, "outer_first": float(outer[0]), "outer_last": float(outer[-1])}
    return _trend_classify(outer, criterion, diag, "tail limit estimate", "tail_limit")


def _trend_classify(seq, criterion: str, diag: dict, what: str,
                    limit_key: Optional[str] = None) -> Verdict:
    """Vanishing-limit rule on the last ``TREND_WINDOW`` values of ``seq``: Compact
    below ``COMPACT_TOL`` on a nonincreasing trail, NotCompact on a plateau or a
    rise above ``NOT_COMPACT_FACTOR * COMPACT_TOL``."""
    tw = min(TREND_WINDOW, len(seq))
    trail = seq[-tw:]
    last = float(trail[-1])
    nonincreasing = bool(np.all(np.diff(trail) <= 1e-12 + 1e-9 * np.abs(trail[:-1])))
    if last < COMPACT_TOL and nonincreasing:
        tag = VerdictTag.COMPACT
    else:
        plateau = bool(np.max(np.abs(np.diff(trail))) <= 0.25 * max(abs(last), 1e-300))
        if not (last > NOT_COMPACT_FACTOR * COMPACT_TOL
                and (plateau or trail[-1] >= trail[0])):
            return Verdict(VerdictTag.INCONCLUSIVE,
                           reason=f"{what} {last:.3e} between thresholds",
                           evidence=(criterion,), diagnostics=diag)
        tag = VerdictTag.NOT_COMPACT
    if limit_key is not None:
        diag[limit_key] = last
    return Verdict(tag, value=last, evidence=(criterion,), diagnostics=diag)


# ---------------------------------------------------------------------------
# integral (ladder) criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LadderOutcome:
    verdict: Verdict
    engine: _LadderEngine


def tg_boundedness(g: SymbolSpec, pair: SpacePair,
                   cfg: Optional[LadderConfig] = None,
                   engine: Optional[_LadderEngine] = None) -> LadderOutcome:
    """Boundedness ladder for the operator ``f -> int f g'``."""
    cfg = cfg or DEFAULT_LADDER
    engine = engine or _ladder_engine(g, "deriv", pair.alpha, pair.beta, cfg)
    ks = cfg.rung_ks()
    verdict = _slope_classify(ks, engine.values[ks], engine.reliable[ks], "tg-radial-ladder")
    return LadderOutcome(verdict, engine)


def sg_boundedness(g: SymbolSpec, pair: SpacePair,
                   cfg: Optional[LadderConfig] = None,
                   engine: Optional[_LadderEngine] = None) -> LadderOutcome:
    """Boundedness ladder for ``f -> int f' g`` (source exponent must be positive)."""
    if pair.alpha <= 0:
        raise HypothesisError("the companion-operator ladder needs alpha > 0; "
                              "use the forwarded criterion at alpha = beta = 0")
    cfg = cfg or DEFAULT_LADDER
    engine = engine or _ladder_engine(g, "eval", pair.alpha + 1.0, pair.beta, cfg)
    ks = cfg.rung_ks()
    verdict = _slope_classify(ks, engine.values[ks], engine.reliable[ks], "sg-radial-ladder")
    return LadderOutcome(verdict, engine)


def tg_tail_compactness(g: SymbolSpec, pair: SpacePair,
                        cfg: Optional[LadderConfig] = None,
                        engine: Optional[_LadderEngine] = None) -> Verdict:
    """Tail-ladder compactness rule for ``f -> int f g'``."""
    cfg = cfg or DEFAULT_LADDER
    engine = engine or _ladder_engine(g, "deriv", pair.alpha, pair.beta, cfg)
    return _tail_classify(engine, "tg-tail-ladder")


# ---------------------------------------------------------------------------
# pointwise criteria
# ---------------------------------------------------------------------------

def _pointwise_form(operator: OperatorKind, pair: SpacePair):
    """``(which, exponent)`` of the weighted modulus in the pointwise criteria."""
    if operator is OperatorKind.Tg:
        return "deriv", pair.beta + 1.0 - pair.alpha
    return "eval", pair.beta - pair.alpha


def _pointwise_profile(g: SymbolSpec, which: str, exponent: float, cfg: LadderConfig):
    """Weighted boundary profile ``(s(2-s))^exponent sup_theta |h(t_k e^{i theta})|``,
    the sup read on the symbol's peak ray, all rungs in one call (a column of
    radii against the one-angle row)."""
    ks = cfg.rung_ks()
    s = 2.0 ** -ks.astype(float)
    theta = np.array([[g.peak_ray]], dtype=float)
    vals = _abs_fun(g, which)((1.0 - s)[:, None], s[:, None], theta)[:, 0]
    bad = ~np.isfinite(vals) | (vals > OVERFLOW_CLAMP)
    clamped = bool(np.any(bad))
    if clamped:
        # clamped samples read as "as large as representable": they can only
        # push the profile over the divergence threshold, never hide growth
        vals = np.where(bad, OVERFLOW_CLAMP, vals)
    with np.errstate(over="ignore"):
        profile = radial_weight(s, exponent) * vals
    return ks, profile, clamped


def _pointwise_value(g: SymbolSpec, which: str, exponent: float, profile_max: float) -> float:
    """Sup over the whole disk: boundary rungs plus an interior sweep when the
    weight exponent is nonnegative (interior maxima exist only then).  The
    sweep runs along the symbol's peak ray, by the ray maximiser
    :func:`~volterra.spaces.ray_max` that the battery's norms share."""
    if exponent < 0:
        return profile_max
    absmat, ray = _abs_fun(g, which), g.peak_ray
    return max(profile_max, float(ray_max(lambda r, s: absmat(r, s, ray), exponent)[0]))


def _pointwise_sup(g: SymbolSpec, pair: SpacePair, operator: OperatorKind,
                   cfg: Optional[LadderConfig], profile) -> Verdict:
    if pair.beta <= 0:
        kind = "derivative" if operator is OperatorKind.Tg else "symbol"
        raise HypothesisError(f"the pointwise {kind} criterion applies only for beta > 0")
    cfg = cfg or DEFAULT_LADDER
    which, exponent = _pointwise_form(operator, pair)
    if profile is None:
        profile = _pointwise_profile(g, which, exponent, cfg)
    ks, values, _ = profile
    criterion = f"{operator.value.lower()}-pointwise-sup"
    verdict = _slope_classify(ks, values, np.ones(len(ks), dtype=bool), criterion)
    if verdict.tag is VerdictTag.BOUNDED:
        value = _pointwise_value(g, which, exponent, float(np.max(values)))
        verdict = Verdict(VerdictTag.BOUNDED, value=value, evidence=verdict.evidence,
                          diagnostics=verdict.diagnostics)
    return verdict


def tg_pointwise(g: SymbolSpec, pair: SpacePair,
                 cfg: Optional[LadderConfig] = None, profile=None) -> Verdict:
    """Weighted-derivative sup criterion ``sup (1-|z|^2)^(beta+1-alpha) |g'|`` (beta > 0);
    ``profile`` may be the :func:`_pointwise_profile` already built for it."""
    return _pointwise_sup(g, pair, OperatorKind.Tg, cfg, profile)


def sg_pointwise(g: SymbolSpec, pair: SpacePair,
                 cfg: Optional[LadderConfig] = None, profile=None) -> Verdict:
    """Weighted-symbol sup criterion ``sup (1-|z|^2)^(beta-alpha) |g|`` (beta > 0);
    ``profile`` is as in :func:`tg_pointwise`."""
    return _pointwise_sup(g, pair, OperatorKind.Sg, cfg, profile)


def pointwise_compactness(g: SymbolSpec, pair: SpacePair, operator: OperatorKind,
                          cfg: Optional[LadderConfig] = None, profile=None) -> Verdict:
    """Vanishing weighted modulus at the boundary (beta > 0): outer-rung maxima
    must fall below tolerance with a decreasing trend; ``profile`` is as in
    :func:`tg_pointwise`."""
    if pair.beta <= 0:
        if operator is OperatorKind.Sg:
            raise HypothesisError("for an unweighted target use the zero-symbol rule")
        raise HypothesisError("the pointwise compactness criterion applies only for beta > 0")
    cfg = cfg or DEFAULT_LADDER
    if profile is None:
        profile = _pointwise_profile(g, *_pointwise_form(operator, pair), cfg)
    _, values, _ = profile
    criterion = f"{operator.value.lower()}-pointwise-vanishing"
    diag = {"criterion": criterion, "profile_last": float(values[-1]),
            "profile_max": float(np.max(values))}
    return _trend_classify(values, criterion, diag, "boundary profile")


def sg_zero_symbol_compactness(g: SymbolSpec) -> Verdict:
    """Into an unweighted target the companion operator is compact only for g = 0.
    Short of metadata, ``|g|`` is sampled on its peak ray, which holds its max
    on every circle."""
    if g.metadata.is_zero:
        return Verdict(VerdictTag.COMPACT, value=0.0, evidence=("zero-symbol-rule",))
    rs = np.linspace(0.05, 0.95, 19)
    if float(np.max(g.abs_eval(rs, 1.0 - rs, g.peak_ray))) < 1e-14:
        return Verdict(VerdictTag.COMPACT, value=0.0, evidence=("zero-symbol-rule",))
    return Verdict(VerdictTag.NOT_COMPACT, evidence=("zero-symbol-rule",),
                   diagnostics={"criterion": "zero-symbol-rule"})


# ---------------------------------------------------------------------------
# verdict merging and the classifier
# ---------------------------------------------------------------------------

def _necessity(g: SymbolSpec, operator: OperatorKind):
    """Whether the necessity half of the operator's ladder criterion is known
    to hold for ``g``, and the function whose Bloch membership it needs: log g'
    for T_g (univalent symbols have it) or log g for S_g."""
    meta = g.metadata
    if operator is OperatorKind.Tg:
        return meta.log_deriv_bloch is True or meta.univalent, "log g'"
    return meta.log_symbol_bloch is True, "log g"


def _merge(claims, missing_reason: str):
    decided = [c for c in claims if c.decided]
    if not decided:
        reasons = "; ".join(c.reason or "no applicable criterion" for c in claims) or missing_reason
        return Verdict(VerdictTag.INCONCLUSIVE, reason=reasons,
                       evidence=tuple(e for c in claims for e in c.evidence)), True
    tags = {c.tag for c in decided}
    if len(tags) > 1:
        detail = ", ".join(f"{c.evidence[0] if c.evidence else '?'}={c.tag.value}" for c in decided)
        return Verdict(VerdictTag.INCONCLUSIVE,
                       reason=f"applicable criteria disagree ({detail}); numerical fault",
                       evidence=tuple(e for c in decided for e in c.evidence)), False
    value = next((c.value for c in decided if c.value is not None), None)
    evidence = tuple(e for c in decided for e in c.evidence)
    diags = {}
    for c in decided:
        diags.update(c.diagnostics)
    return Verdict(decided[0].tag, value=value, evidence=evidence, diagnostics=diags), True


def _sufficiency_only(verdict: Verdict, necessity, tail: bool = False) -> Verdict:
    """Keep a divergent ladder (a tail that does not vanish) from claiming
    unboundedness (non-compactness) when the necessity hypothesis is not known
    to hold; a decided ladder verdict is labelled "iff" or "sufficient-only"."""
    ok, fn = necessity
    negative, finding = ((VerdictTag.NOT_COMPACT, "tail does not vanish, but non-compactness")
                         if tail else (VerdictTag.UNBOUNDED, "ladder divergent, but unboundedness"))
    if verdict.tag is negative and not ok:
        return Verdict(VerdictTag.INCONCLUSIVE,
                       reason=f"{finding} needs {fn} in the Bloch space",
                       evidence=verdict.evidence + ("sufficient-only",),
                       diagnostics=verdict.diagnostics)
    if tail or not verdict.decided:
        return verdict
    return Verdict(verdict.tag, verdict.value,
                   evidence=verdict.evidence + ("iff" if ok else "sufficient-only",),
                   diagnostics=verdict.diagnostics)


def classify(g: SymbolSpec, operator: OperatorKind, pair: SpacePair,
             cfg: Optional[LadderConfig] = None) -> CriterionReport:
    """Run every criterion whose hypotheses hold and merge the verdicts.

    Both operators take one path.  The boundedness claims are the operator's
    ladder and, for beta > 0, the pointwise sup; at alpha = beta = 0 the S_g
    verdict is the T_g ladder's, forwarded unmerged.  The compactness claims
    are, in order: Unbounded implies NotCompact, the T_g tail, the zero-symbol
    rule for S_g at beta = 0 and the pointwise vanishing rule for beta > 0.
    Two applicable criteria that decide differently downgrade the verdict to
    Inconclusive: the theory proves they agree, so disagreement flags a
    numerical fault rather than a property of the symbol.  Each ladder engine
    and the pointwise profile are built once and shared by the criteria that
    read them.
    """
    cfg = cfg or DEFAULT_LADDER
    tg = operator is OperatorKind.Tg
    forwarded = not tg and pair.alpha == 0.0 and pair.beta == 0.0
    necessity = _necessity(g, OperatorKind.Tg if forwarded else operator)
    notes, bound_claims, tg_engine = [], [], None
    profile = None
    if pair.beta > 0:
        profile = _pointwise_profile(g, *_pointwise_form(operator, pair), cfg)

    outcome = None
    if tg or forwarded:
        outcome = tg_boundedness(g, pair, cfg)
        tg_engine = outcome.engine
    elif pair.alpha > 0.0:
        outcome = sg_boundedness(g, pair, cfg)
    if outcome is not None:
        bound_claims.append(_sufficiency_only(outcome.verdict, necessity))
        if forwarded:
            notes.append("unweighted companion verdict forwarded from the T_g criterion")
        elif not necessity[0]:
            notes.append(f"{'' if tg else 'companion '}ladder evidence is one-sided: "
                         f"{necessity[1]} Bloch membership unknown")
    if pair.beta > 0:
        pointwise = tg_pointwise if tg else sg_pointwise
        bound_claims.append(pointwise(g, pair, cfg, profile=profile))
    if forwarded:
        ladder = bound_claims[0]
        boundedness = replace(ladder, evidence=ladder.evidence + ("unweighted-forwarding",))
        agree_b = True
    else:
        boundedness, agree_b = _merge(bound_claims, "no boundedness criterion applied")

    compact_claims = []
    if boundedness.tag is VerdictTag.UNBOUNDED:
        compact_claims.append(Verdict(VerdictTag.NOT_COMPACT,
                                      evidence=("compactness-implies-boundedness",)))
    if tg:
        tail = tg_tail_compactness(g, pair, cfg, tg_engine)
        compact_claims.append(_sufficiency_only(tail, necessity, tail=True))
    elif pair.beta == 0.0:
        compact_claims.append(sg_zero_symbol_compactness(g))
    if pair.beta > 0:
        compact_claims.append(pointwise_compactness(g, pair, operator, cfg, profile=profile))
    compactness, agree_c = _merge(compact_claims, "no compactness criterion applied")

    # compact operators are bounded; reconcile the two verdicts
    if compactness.tag is VerdictTag.COMPACT and boundedness.tag is VerdictTag.UNBOUNDED:
        reason = "compactness and boundedness criteria contradict; numerical fault"
        boundedness = Verdict(VerdictTag.INCONCLUSIVE, reason=reason,
                              evidence=boundedness.evidence)
        compactness = Verdict(VerdictTag.INCONCLUSIVE, reason=reason,
                              evidence=compactness.evidence)
        agree_b = agree_c = False
    elif compactness.tag is VerdictTag.COMPACT and not boundedness.decided:
        boundedness = Verdict(VerdictTag.BOUNDED, value=boundedness.value,
                              evidence=compactness.evidence + ("implied-by-compactness",))

    return CriterionReport(
        symbol=g.name, operator=operator, alpha=pair.alpha, beta=pair.beta,
        boundedness=boundedness, compactness=compactness,
        cross_check_agreement=bool(agree_b and agree_c),
        notes=tuple(notes),
        tg_engine=tg_engine,
    )
