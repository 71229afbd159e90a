"""Boundedness and compactness criteria for the two operators.

Everything here reduces to rung sequences: radial ladders and weighted
boundary profiles.  For a weight pair (alpha, beta) the boundedness ladder is

    L(t_k) = (1 - t_k^2)^beta * sup_theta  int_0^{t_k} |g'(r e^{i theta})| / (1-r^2)^alpha dr

on the geometric schedule ``t_k = 1 - 2^{-k}``, where a power-type boundary
behaviour becomes a geometric sequence.  One rule (:func:`_rung_limit`) reads
every sequence's limit from the exponents of the sequence and of its
increments.  Boundedness is "not infinite"; the T_g tail is the ladder's own
limit, and the pointwise criteria are compact iff the weighted modulus of g or
g' vanishes.  Every radial integral runs on one adaptive mesh aligned with the
rungs (:func:`_integrate_cells`), so every prefix integral is a partial sum.
Every criterion is an angular sup, read on the symbol's peak ray
(:attr:`~volterra.symbols.SymbolSpec.peak`, where ``|g|`` and ``|g'|`` are
largest at every radius; a symbol without one is refused with a
HypothesisError) from its moduli ``abs_deriv`` and ``abs_eval``, with every
weight from :func:`~volterra.spaces.radial_weight`.  A decision is never
forced: no numerical scheme tells a finite limit from slow enough divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
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


# the rung-exponent rule (:func:`_rung_limit`): the rungs it reads, and the
# rounding of a rung value beyond its quadrature error, relative to it (4 ulps:
# two consecutive prefix sums differ by their cell's row to within an ulp)
READ_RUNGS = 8
ROUNDING = 2.0 ** -50
# the cell integrator: Gauss-Legendre nodes per panel, the weight exponent
# from which nodes are placed in -log(1 - r), the change (relative to the
# total over all cells) that doubles a cell's panels, and the panel cap
NODES_PER_CELL = 16
LOG_SUBSTITUTION_ALPHA = 0.5
CELL_REL_TOL = 1e-9
MAX_PANELS = 64
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
    u = (mid[..., None] + half[..., None] * x).reshape(len(s_lo), panels * n)
    hw = (half[..., None] * w).reshape(len(s_lo), panels * n)
    if not use_log:
        return 1.0 - u, u, hw
    s = np.exp(-u)
    return 1.0 - s, s, hw * s


class _Cells(NamedTuple):
    rows: np.ndarray      # each cell's integral of the weighted integrand
    errs: np.ndarray      # change at each cell's last panel doubling
    accurate: np.ndarray  # errs within 100 * CELL_REL_TOL of the total
    clamped: np.ndarray   # a sample of the cell was clamped
    panels: np.ndarray    # each cell's final panel count


def _integrate_cells(absmat: Callable, weight_exponent: float, cells) -> _Cells:
    """Integrals of ``absmat(r, s) (s(2-s))^-weight_exponent dr`` over the
    cells ``(s_lo, s_hi)``; an integral up to any ``t`` is the sum of the rows
    over ``_rung_cells(1 - t)``.

    Each cell is taken with one and two panels; a cell whose change exceeds
    ``CELL_REL_TOL`` of the total doubles its panels, at most six times and up
    to ``MAX_PANELS``.  All cells at one panel count share one ``absmat`` call
    on their ``(cells, nodes)`` radii, at most 40 x 64 x 16 on the rung cells.
    Samples that are not finite or exceed ``OVERFLOW_CLAMP`` are clamped to it.
    """
    use_log = weight_exponent >= LOG_SUBSTITUTION_ALPHA
    bounds = np.asarray(cells, dtype=float).reshape(-1, 2)

    def block(idx, panels):
        # the rows of the cells idx at one panel count and whether each was clamped
        r, s, w = _cell_nodes(bounds[idx, 0], bounds[idx, 1], panels, NODES_PER_CELL, use_log)
        vals = np.broadcast_to(absmat(r, s), r.shape)
        w = w * radial_weight(s, -weight_exponent)
        bad = ~np.isfinite(vals) | (vals > OVERFLOW_CLAMP)
        hit = np.any(bad, axis=1)
        if np.any(hit):
            vals = np.where(bad, OVERFLOW_CLAMP, vals)
        # one product per cell: np.sum or einsum would round differently
        return (w[:, None, :] @ vals[:, :, None])[:, 0, 0], hit

    every = np.arange(len(bounds))
    coarse, clamped = block(every, 1)
    rows, fine_clamped = block(every, 2)
    errs = np.abs(rows - coarse)
    clamped |= fine_clamped
    panels = np.full(len(bounds), 2, dtype=int)
    for _ in range(6):
        scale = max(float(np.sum(rows)), 1.0)
        bad = (errs > CELL_REL_TOL * scale) & (panels < MAX_PANELS)
        if not np.any(bad):
            break
        for p in np.unique(panels[bad]):
            idx = np.flatnonzero(bad & (panels == p))
            new, cl = block(idx, 2 * int(p))
            errs[idx] = np.abs(new - rows[idx])
            rows[idx] = new
            clamped[idx] |= cl
            panels[idx] = 2 * p
    scale = max(float(np.sum(rows)), 1.0)
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
    prefix difference.  ``absmat`` is ``(r, s) -> |h|`` on the peak ray of a
    symbol, such as its ``abs_deriv``; the integrand is largest there at every
    radius, so each angular sup is exact and a beta = 0 ladder exactly
    monotone.
    """

    def __init__(self, absmat: Callable, weight_exponent: float, beta: float,
                 cfg: LadderConfig):
        self.cfg = cfg
        mesh = _integrate_cells(absmat, weight_exponent, _rung_cells(2.0 ** -cfg.k_max))
        self.clamped = bool(np.any(mesh.clamped))
        # reliability of the prefix through cell j: every earlier cell clean
        ok = ~mesh.clamped & mesh.accurate
        self.reliable = np.concatenate([[True], np.cumprod(ok).astype(bool)])
        # the integrals up to each rung k = 0..k_max, rung 0 the empty sum
        self.prefix = np.concatenate([[0.0], np.cumsum(mesh.rows)])
        # each prefix's quadrature error: the sum of its cells' errs
        self.prefix_errs = np.concatenate([[0.0], np.cumsum(mesh.errs)])
        sk = 2.0 ** -np.arange(cfg.k_max + 1, dtype=float)
        self.rung_weight = radial_weight(sk, beta)
        with np.errstate(over="ignore", invalid="ignore"):
            self.values = self.rung_weight * self.prefix

    @cached_property
    def limit(self) -> "Limit":
        """The rung-exponent rule's reading of the ladder on its reliable rungs,
        taken once and shared by the boundedness and the tail claims."""
        ks = self.cfg.rung_ks()
        ks = ks[self.reliable[ks]]
        return _rung_limit(ks, self.values[ks], self.rung_weight[ks] * self.prefix_errs[ks],
                           self.clamped)

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


def _ladder_engine(symbol: SymbolSpec, which: str, weight_exponent: float,
                   beta: float, cfg: LadderConfig) -> _LadderEngine:
    """The engine of ``|g'|`` (``which`` "deriv") or ``|g|`` on the symbol's peak ray."""
    absmat = symbol.abs_deriv if which == "deriv" else symbol.abs_eval
    return _LadderEngine(absmat, weight_exponent, beta, cfg)


# ---------------------------------------------------------------------------
# the rung-exponent rule
# ---------------------------------------------------------------------------

class Limit(NamedTuple):
    """``kind`` zero, vanishing, finite, infinite or undecided; ``value`` the limit or None."""
    kind: str
    value: Optional[float]
    diagnostics: dict


def _exponent(x, err, k0: int):
    """``(e, m)``: the exponent of the window ``x`` (first value at rung ``k0``;
    values sunk into noise end it, and a window all noise has vanished:
    ``(inf, 0)``) and its margin, or None when the signs differ or only one or
    two values stand above noise.  ``e`` and ``e1`` are the means of
    ``log2(x_k / x_{k+1})`` over the later and the earlier half, centred on
    rungs ``m2 > m1``; ``m = 2 m1/(m2 - m1) |e1 - e|`` plus the error of ``e``,
    at most ``-log2((1 - r_i)(1 - r_{i+h}))/h`` for values ``x (1 +- r)``."""
    quiet = np.abs(x) <= 4.0 * err  # noise: sign and size say nothing
    n = int(np.argmax(quiet)) if np.any(quiet) else len(x)
    if n == 0:
        return np.inf, 0.0
    if n < 3 or not np.all(quiet[n:]) or not (np.all(x[:n] > 0) or np.all(x[:n] < 0)):
        return None
    r, h, i = err[:n] / np.abs(x[:n]), (n - 1) // 2, n - 1 - (n - 1) // 2
    e1, e = float(np.log2(x[0] / x[h]) / h), float(np.log2(x[i] / x[n - 1]) / h)
    error = float(-np.log2((1.0 - r[i]) * (1.0 - r[n - 1])) / h)
    return e, 2.0 * (k0 + h / 2) / i * abs(e1 - e) + error


def _rung_limit(ks, values, errors, clamped: bool = False) -> Limit:
    """The limit of a rung sequence ``V_k`` on ``t_k = 1 - 2^-k`` (``ks``
    consecutive) from its last ``READ_RUNGS`` values, each uncertain by its
    quadrature error ``errors`` plus ``ROUNDING`` of itself.

    Power-type boundary behaviour makes V geometric, so the rule reads the
    exponent ``eps`` of V and ``delta`` of its increments dV, each against its
    own margin m (:func:`_exponent`).  ``eps > m`` is vanishing, values all
    noise zero.  ``eps < -m``, a clamped sample, or positive increments that
    grow (``delta < -m``) or stay constant (log growth: their own increments
    settle, with under half of them left to change) are infinite.  ``|eps| <= m``
    with ``delta > m`` is finite, with limit ``V_K + dV_K rho/(1 - rho)``,
    ``rho = 2^-delta``.  The rest is undecided.

    The margin is a multiple of the window's drift plus the error: a log factor
    makes exponents drift like ``c/k``, and ``int ds/(s log(e/s))`` diverges
    while ``int ds/(s log^2(e/s))`` converges, yet both one's increments have
    exponents drifting to 0 like ``c/k``; no finite window tells them apart.
    Half-window means of a drift ``c/(k + a)`` are near ``c/(m1 + a)`` and
    ``c/(m2 + a)``, the later ``(m1 + a)/(m2 - m1)`` times their difference, so
    the multiple ``2 m1/(m2 - m1)`` holds every such drift with ``0 <= a <= m1``
    inside the margin, while a power-type sequence's exponents settle like
    ``2^-k``.  A geometric tail is extrapolated only past a window over which
    it at least halves: a slower one lies mostly beyond, where a second power
    may take over."""
    values = np.asarray(values, dtype=float)
    diag = {"reliable_rungs": len(values), "max_value": float(np.max(values, initial=0.0))}
    err = np.broadcast_to(errors, values.shape) + ROUNDING * np.abs(values)
    if clamped or len(values) and np.all(np.abs(values) <= 4.0 * err):
        return Limit("infinite", None, diag) if clamped else Limit("zero", 0.0, diag)
    if len(values) < READ_RUNGS:
        return Limit("undecided", None, diag)
    v, err, k0 = values[-READ_RUNGS:], err[-READ_RUNGS:], int(ks[-READ_RUNGS])
    if (read := _exponent(v, err, k0)) is None:
        return Limit("undecided", None, diag)
    diag.update(exponent=read[0], margin=read[1])
    if abs(read[0]) > read[1]:
        return Limit("vanishing", 0.0, diag) if read[0] > 0 else Limit("infinite", None, diag)
    dv, dv_err = np.diff(v), err[:-1] + err[1:]
    if (read := _exponent(dv, dv_err, k0 + 1)) is None:
        return Limit("undecided", None, diag)
    delta, margin = read
    diag.update(increment_exponent=delta, increment_margin=margin)
    if delta > margin and delta * (READ_RUNGS - 2) >= 1.0:
        diag["limit"] = limit = float(v[-1] + dv[-1] / (2.0 ** delta - 1.0))
        return Limit("finite", limit, diag)
    if delta <= margin and dv[-1] > 0:
        d2, d2_err = np.diff(dv), dv_err[:-1] + dv_err[1:]
        if delta < -margin or ((read := _exponent(d2, d2_err, k0 + 2)) and read[0] > read[1]
                               and read[0] * (READ_RUNGS - 3) >= 1.0
                               and abs(d2[-1] / (2.0 ** read[0] - 1.0)) < 0.5 * dv[-1]):
            return Limit("infinite", None, diag)
    return Limit("undecided", None, diag)


_EVIDENCE = {"zero": "identically-zero", "vanishing": "vanishing-limit",
             "finite": "finite-limit", "infinite": "infinite-limit"}


def _verdict(limit: Limit, criterion: str, compact: Optional[tuple] = None) -> Verdict:
    """A reading's boundedness claim, or its compactness claim when ``compact``
    names the kinds that read Compact.  Boundedness fails only for an infinite
    sequence and takes the larger of the largest rung value and a finite limit;
    compactness takes the limit of what must vanish."""
    diag = {"criterion": criterion, **limit.diagnostics}
    if limit.kind == "undecided":
        measured = ", ".join(f"{k} {v:.3g}" for k, v in limit.diagnostics.items())
        return Verdict(VerdictTag.INCONCLUSIVE, evidence=(criterion,), diagnostics=diag,
                       reason=f"the rung-exponent rule reads no limit ({measured})")
    if compact is not None:
        tag = VerdictTag.COMPACT if limit.kind in compact else VerdictTag.NOT_COMPACT
        return Verdict(tag, 0.0 if limit.kind in compact else limit.value, (criterion,),
                       diagnostics=diag)
    evidence = (criterion, _EVIDENCE[limit.kind])
    if limit.kind == "infinite":
        return Verdict(VerdictTag.UNBOUNDED, evidence=evidence, diagnostics=diag)
    return Verdict(VerdictTag.BOUNDED, max(diag["max_value"], limit.value), evidence,
                   diagnostics=diag)


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
    return LadderOutcome(_verdict(engine.limit, "tg-radial-ladder"), engine)


def sg_boundedness(g: SymbolSpec, pair: SpacePair,
                   cfg: Optional[LadderConfig] = None,
                   engine: Optional[_LadderEngine] = None) -> LadderOutcome:
    """Boundedness ladder for ``f -> int f' g`` (source exponent must be positive)."""
    if pair.alpha <= 0:
        raise HypothesisError("the companion-operator ladder needs alpha > 0; "
                              "use the forwarded criterion at alpha = beta = 0")
    cfg = cfg or DEFAULT_LADDER
    engine = engine or _ladder_engine(g, "eval", pair.alpha + 1.0, pair.beta, cfg)
    return LadderOutcome(_verdict(engine.limit, "sg-radial-ladder"), engine)


def tg_tail_compactness(g: SymbolSpec, pair: SpacePair,
                        cfg: Optional[LadderConfig] = None,
                        engine: Optional[_LadderEngine] = None) -> Verdict:
    """Tail-ladder compactness rule for ``f -> int f g'``, read from the
    ladder's own limit.  At beta = 0 the weight is 1 and the tail ``int_m^1``
    tends to 0 iff the integral converges: compact iff the ladder is finite.
    At beta > 0 the tail at ``R -> 1`` is ``lim V - lim w_R prefix_m = lim V``
    for every m, since ``w_R -> 0``: compact iff the ladder vanishes."""
    cfg = cfg or DEFAULT_LADDER
    engine = engine or _ladder_engine(g, "deriv", pair.alpha, pair.beta, cfg)
    return _verdict(engine.limit, "tg-tail-ladder",
                    ("zero", "vanishing", "finite") if pair.beta == 0 else ("zero", "vanishing"))


# ---------------------------------------------------------------------------
# pointwise criteria
# ---------------------------------------------------------------------------

def _pointwise_form(g: SymbolSpec, operator: OperatorKind, pair: SpacePair):
    """``(absmat, exponent)`` of the weighted modulus in the pointwise criteria."""
    if operator is OperatorKind.Tg:
        return g.abs_deriv, pair.beta + 1.0 - pair.alpha
    return g.abs_eval, pair.beta - pair.alpha


class _Profile(tuple):
    """``(ks, values)`` of a boundary profile; ``limit`` is read once, when it is built."""
    limit: Limit


def _pointwise_profile(absmat: Callable, exponent: float, cfg: LadderConfig) -> _Profile:
    """Weighted boundary profile ``(s(2-s))^exponent |h|`` at the rungs
    ``t_k = 1 - 2^-k`` of a peak-ray modulus ``absmat``, all rungs in one call."""
    ks = cfg.rung_ks()
    s = 2.0 ** -ks.astype(float)
    vals = absmat(1.0 - s, s)
    # a clamped sample reads the profile infinite
    bad = ~np.isfinite(vals) | (vals > OVERFLOW_CLAMP)
    vals = np.where(bad, OVERFLOW_CLAMP, vals)
    with np.errstate(over="ignore"):
        profile = _Profile((ks, radial_weight(s, exponent) * vals))
    profile.limit = _rung_limit(ks, profile[1], 0.0, bool(np.any(bad)))
    return profile


def profile_sup(absmat: Callable, exponent: float):
    """The weighted boundary profile's reading of ``sup (1-r^2)^exponent |h|``
    for the peak-ray modulus ``absmat``, and the rung radius of its largest
    value: inf when the profile reads infinite, else the larger of that value
    and a finite limit."""
    ks, values = profile = _pointwise_profile(absmat, exponent, DEFAULT_LADDER)
    v = _verdict(profile.limit, "boundary-profile")
    top = np.inf if v.tag is VerdictTag.UNBOUNDED else v.value if v.decided else np.max(values)
    return float(top), 1.0 - 2.0 ** -float(ks[int(np.argmax(values))])


def _pointwise_value(absmat: Callable, exponent: float, profile_max: float) -> float:
    """Sup over the whole disk: boundary rungs plus an interior sweep when the
    weight exponent is nonnegative (interior maxima exist only then).  The
    sweep runs along the symbol's peak ray, by the ray maximiser
    :func:`~volterra.spaces.ray_max`."""
    if exponent < 0:
        return profile_max
    return max(profile_max, float(ray_max(absmat, exponent)[0]))


def _pointwise_sup(g: SymbolSpec, pair: SpacePair, operator: OperatorKind,
                   cfg: Optional[LadderConfig], profile) -> Verdict:
    if pair.beta <= 0:
        kind = "derivative" if operator is OperatorKind.Tg else "symbol"
        raise HypothesisError(f"the pointwise {kind} criterion applies only for beta > 0")
    absmat, exponent = _pointwise_form(g, operator, pair)
    profile = profile or _pointwise_profile(absmat, exponent, cfg or DEFAULT_LADDER)
    verdict = _verdict(profile.limit, f"{operator.value.lower()}-pointwise-sup")
    if verdict.tag is VerdictTag.BOUNDED:
        verdict = replace(verdict, value=_pointwise_value(absmat, exponent, verdict.value))
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
    """Vanishing weighted modulus at the boundary (beta > 0): compact iff the
    boundary profile vanishes; ``profile`` is as in :func:`tg_pointwise`."""
    if pair.beta <= 0:
        if operator is OperatorKind.Sg:
            raise HypothesisError("for an unweighted target use the zero-symbol rule")
        raise HypothesisError("the pointwise compactness criterion applies only for beta > 0")
    profile = profile or _pointwise_profile(*_pointwise_form(g, operator, pair),
                                            cfg or DEFAULT_LADDER)
    return _verdict(profile.limit, f"{operator.value.lower()}-pointwise-vanishing",
                    ("zero", "vanishing"))


def sg_zero_symbol_compactness(g: SymbolSpec) -> Verdict:
    """Into an unweighted target the companion operator is compact only for g = 0.
    Short of metadata, ``|g|`` is sampled on its peak ray, which holds its max
    on every circle; an analytic g that vanishes on a segment is 0, and any
    nonzero sample, however small, rules g = 0 out at every scale."""
    rs = np.linspace(0.05, 0.95, 19)
    if g.metadata.is_zero or not np.any(g.abs_eval(rs, 1.0 - rs)):
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
    """One verdict with the diagnostics of the decided claims, or of all when none decides."""
    decided = [c for c in claims if c.decided]
    diags = {}
    for c in decided or claims:
        diags.update(c.diagnostics)
    if not decided:
        reasons = "; ".join(c.reason or "no applicable criterion" for c in claims) or missing_reason
        return Verdict(VerdictTag.INCONCLUSIVE, reason=reasons, diagnostics=diags,
                       evidence=tuple(e for c in claims for e in c.evidence)), True
    tags = {c.tag for c in decided}
    if len(tags) > 1:
        detail = ", ".join(f"{c.evidence[0] if c.evidence else '?'}={c.tag.value}" for c in decided)
        return Verdict(VerdictTag.INCONCLUSIVE,
                       reason=f"applicable criteria disagree ({detail}); numerical fault",
                       evidence=tuple(e for c in decided for e in c.evidence),
                       diagnostics=diags), False
    value = next((c.value for c in decided if c.value is not None), None)
    evidence = tuple(e for c in decided for e in c.evidence)
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
        profile = _pointwise_profile(*_pointwise_form(g, operator, pair), cfg)

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
