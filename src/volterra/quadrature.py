"""Radial quadrature on [0, t] with geometric grading toward the boundary.

Integrands here blow up (at worst polynomially) as r -> 1, with the weight
``(1-r^2)^(-alpha)`` on top of boundary poles of the symbol.  The mesh halves
the distance to 1 cell by cell, so the integrand varies by a bounded factor
within each cell and a 16-node Gauss-Legendre panel per cell converges fast.
Cells are parametrized by ``s = 1 - r`` (or by ``u = -log(1-r)`` once alpha is
large enough for the substitution to pay off), which keeps ``1 - r`` exact at
nodes arbitrarily close to the boundary.

Integrand callables receive ``(r, s)`` with ``s = 1 - r`` carried exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .series import OVERFLOW_CLAMP


@dataclass(frozen=True)
class QuadratureConfig:
    nodes_per_cell: int = 16
    rel_tol: float = 1e-6
    max_evals: int = 10_000
    # switch to u = -log(1-r) when the weight exponent reaches this value
    log_substitution_alpha: float = 0.5


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True)
class QuadResult:
    """Value of a radial integral with an error estimate and diagnostics."""

    value: float
    error: float
    evals: int
    clamped: bool = False
    converged: bool = True

    def __float__(self) -> float:
        return self.value


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """Nodes and weights of the n-point rule on [-1, 1], memoised and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def graded_s_cells(s_end: float, max_cells: int = 60):
    """Cells ``[s_lo, s_hi]`` in s = 1 - r covering r in [0, 1 - s_end].

    Boundaries are the powers of two above ``s_end``; the innermost cell is
    clipped at ``s_end``.
    """
    if not (0.0 < s_end <= 1.0):
        raise ValueError("s_end must lie in (0, 1]")
    cells = []
    hi = 1.0
    j = 0
    while hi / 2.0 > s_end and j < max_cells:
        cells.append((hi / 2.0, hi))
        hi /= 2.0
        j += 1
    if s_end < hi:
        cells.append((s_end, hi))
    return cells


def _panel_nodes(s_lo: float, s_hi: float, n: int, use_log: bool):
    """Nodes and r-space weights for one Gauss-Legendre panel on an s-interval."""
    x, w = gauss_legendre(n)
    if use_log:
        u_lo, u_hi = -math.log(s_hi), -math.log(s_lo)
        mid, half = 0.5 * (u_lo + u_hi), 0.5 * (u_hi - u_lo)
        u = mid + half * x
        s = np.exp(-u)
        wr = half * w * s  # dr = s du
    else:
        mid, half = 0.5 * (s_lo + s_hi), 0.5 * (s_hi - s_lo)
        s = mid + half * x
        wr = half * w  # dr = -ds, orientation absorbed
    r = 1.0 - s
    return r, s, wr


def _segment_value(f: Callable, s_lo, s_hi, n, use_log):
    r, s, wr = _panel_nodes(s_lo, s_hi, n, use_log)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(f(r, s), dtype=float)
    clamped = bool(np.any(~np.isfinite(vals)) or np.any(vals > OVERFLOW_CLAMP))
    if clamped:
        vals = np.where(np.isfinite(vals), np.minimum(vals, OVERFLOW_CLAMP), OVERFLOW_CLAMP)
    return float(np.dot(wr, vals)), len(r), clamped


def integrate_radial(f: Callable, s_end: float, alpha: float = 0.0,
                     cfg: Optional[QuadratureConfig] = None) -> QuadResult:
    """Adaptive integral of ``f(r, s) dr`` over ``r in [0, 1 - s_end]``.

    Each graded cell is estimated with one panel and re-estimated with two; the
    difference drives worst-first bisection until the total estimated error is
    within ``rel_tol`` of the value or the node budget runs out.  A busted
    budget is reported via ``converged=False``, not raised: the caller marks the
    rung unreliable and moves on.
    """
    cfg = cfg or DEFAULT_QUADRATURE
    use_log = alpha >= cfg.log_substitution_alpha
    n = cfg.nodes_per_cell
    evals = 0
    clamped = False

    # segment record: (error, s_lo, s_hi, fine_value)
    segments = []
    for s_lo, s_hi in graded_s_cells(s_end):
        coarse, ne1, c1 = _segment_value(f, s_lo, s_hi, n, use_log)
        fine, ne2, c2 = _split_value(f, s_lo, s_hi, n, use_log)
        evals += ne1 + ne2
        clamped |= c1 or c2
        segments.append([abs(fine - coarse), s_lo, s_hi, fine])

    while True:
        total = sum(seg[3] for seg in segments)
        err = sum(seg[0] for seg in segments)
        scale = max(abs(total), 1e-300)
        if err <= cfg.rel_tol * scale:
            return QuadResult(total, err, evals, clamped, True)
        if evals >= cfg.max_evals:
            return QuadResult(total, err, evals, clamped, False)
        worst = max(range(len(segments)), key=lambda i: segments[i][0])
        _, s_lo, s_hi, _ = segments[worst]
        s_mid = math.sqrt(s_lo * s_hi) if use_log else 0.5 * (s_lo + s_hi)
        new = []
        for lo, hi in ((s_lo, s_mid), (s_mid, s_hi)):
            coarse, ne1, c1 = _segment_value(f, lo, hi, n, use_log)
            fine, ne2, c2 = _split_value(f, lo, hi, n, use_log)
            evals += ne1 + ne2
            clamped |= c1 or c2
            new.append([abs(fine - coarse), lo, hi, fine])
        segments[worst: worst + 1] = new


def _split_value(f, s_lo, s_hi, n, use_log):
    if use_log:
        s_mid = math.sqrt(s_lo * s_hi)
    else:
        s_mid = 0.5 * (s_lo + s_hi)
    v1, n1, c1 = _segment_value(f, s_lo, s_mid, n, use_log)
    v2, n2, c2 = _segment_value(f, s_mid, s_hi, n, use_log)
    return v1 + v2, n1 + n2, c1 or c2
