"""Registry of canonical symbols g with closed forms, Taylor coefficients and metadata.

The analytic facts recorded here (univalence, Bloch membership of log g' or
log g) are hypotheses consumed by the classifier, not computed quantities:
they are declared with a one-line justification and sanity-checked numerically
where the grid surrogate applies.  ``None`` means unknown.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import UnknownSymbolError
from .operators import OperatorKind
from .series import TaylorSeries

DEFAULT_DEGREE = 256

# exponents of the lacunary partial sum z^(2^k), k = 0..LACUNARY_K
LACUNARY_K = 8


@dataclass(frozen=True)
class SymbolMetadata:
    is_zero: bool = False
    univalent: bool = False
    log_deriv_bloch: Optional[bool] = None   # log(g') in the Bloch space
    log_symbol_bloch: Optional[bool] = None  # log(g) in the Bloch space
    note: str = ""


@dataclass(frozen=True)
class SymbolSpec:
    """A named symbol with vectorized evaluators for g, g', g''.

    :meth:`taylor` gives the degree-``N`` partial sum of the exact symbol;
    nothing bounds or records the dropped tail, so what is computed from that
    series describes the partial sum.

    ``polar_eval`` and ``polar_deriv`` are optional boundary-stable forms
    ``(r, s, theta) -> |g|, |g'|`` of the unrotated symbol at ``r e^{i theta}``,
    with ``s = 1 - r`` carried exactly; :meth:`abs_eval` and :meth:`abs_deriv`
    use them when present and the closed forms otherwise.

    ``peak`` is an unrotated angle on which ``|g|`` and ``|g'|`` are largest on
    every circle ``|z| = r``, or None when none is known.  A symbol whose Taylor
    coefficients are real and nonnegative peaks at 0, since then
    ``|g^(j)(r e^{i theta})| <= g^(j)(r)``; every registry symbol is of that
    kind after the rotation by its peak.  :meth:`rotated` keeps the field, and
    :attr:`peak_ray` is the angle ``peak - rotation`` of the rotated symbol.
    The classifier takes every angular sup of a symbol with a peak on that one
    ray, and sweeps a grid of angles for a symbol without one.
    """

    name: str
    eval: Callable
    deriv: Callable
    deriv2: Callable
    taylor_coeff: Callable  # n -> complex coefficient of z^n
    metadata: SymbolMetadata = field(default_factory=SymbolMetadata)
    rotation: float = 0.0  # total angle of rotated(); the polar forms shift theta by it
    polar_eval: Optional[Callable] = None
    polar_deriv: Optional[Callable] = None
    peak: Optional[float] = None

    @property
    def peak_ray(self) -> Optional[float]:
        """The angle at which :meth:`abs_eval` and :meth:`abs_deriv` take their
        sup over every circle, ``peak - rotation``; None without a peak."""
        return None if self.peak is None else self.peak - self.rotation

    def abs_eval(self, r, s, theta):
        """``|g(r e^{i theta})|``, broadcasting ``r``, ``s`` and ``theta``."""
        return self._abs(self.polar_eval, self.eval, r, s, theta)

    def abs_deriv(self, r, s, theta):
        """``|g'(r e^{i theta})|``, broadcasting like :meth:`abs_eval`."""
        return self._abs(self.polar_deriv, self.deriv, r, s, theta)

    def _abs(self, polar, f, r, s, theta):
        if polar is not None:
            return polar(r, s, theta + self.rotation)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return np.abs(f(r * np.exp(1j * theta)))

    def taylor(self, degree: int = DEFAULT_DEGREE) -> TaylorSeries:
        return TaylorSeries(tuple(self.taylor_coeff(n) for n in range(degree + 1)))

    def rotated(self, phi: float) -> "SymbolSpec":
        """The symbol ``z -> g(e^{i phi} z)``; metadata, polar forms and peak
        survive rotation, the polar forms shifted by the summed angle."""
        w = complex(math.cos(phi), math.sin(phi))
        return replace(
            self,
            name=f"{self.name}~rot{phi:.6g}",
            eval=lambda z, _f=self.eval: _f(w * np.asarray(z, dtype=complex)),
            deriv=lambda z, _f=self.deriv: w * _f(w * np.asarray(z, dtype=complex)),
            deriv2=lambda z, _f=self.deriv2: w * w * _f(w * np.asarray(z, dtype=complex)),
            taylor_coeff=lambda n, _c=self.taylor_coeff: (w ** n) * _c(n),
            rotation=self.rotation + phi,
        )


def _dist(r, s, theta):
    # |1 - r e^{i theta}| via |1-z|^2 = s^2 + 4 r sin^2(theta/2), stable for s -> 0
    half = np.sin(0.5 * theta)
    return np.sqrt(s * s + 4.0 * r * half * half)


def _modulus(x, y):
    # |x + iy|; np.hypot guards against an overflow that the parts passed here,
    # all far below 1e150, cannot reach, at several times the cost
    return np.sqrt(x * x + y * y)


def _log_abs(r, s, theta):
    """``|log(1 - r e^{i theta})|`` in real arithmetic.

    Near the boundary the naive ``1 - z`` loses all significant digits; the
    identities ``Re(1-z) = s + 2 r sin^2(theta/2)`` and
    ``|1-z|^2 = s^2 + 4 r sin^2(theta/2)`` do not.
    """
    half = np.sin(0.5 * theta)
    h2 = 2.0 * r * half * half
    return _modulus(0.5 * np.log(s * s + 2.0 * h2), np.arctan2(-r * np.sin(theta), s + h2))


def _koebe3_abs(r, s, theta):
    # g = z(2 - z) / (2(1-z)^2), with Re(2-z) = 1 + s + 2 r sin^2(theta/2)
    half = np.sin(0.5 * theta)
    h2 = 2.0 * r * half * half
    return r * _modulus(1.0 + s + h2, r * np.sin(theta)) / (2.0 * (s * s + 2.0 * h2))


def _term_forms(terms: dict):
    """Polar forms ``(|g|, |g'|)`` of the polynomial ``sum c_n z^n`` with real
    coefficients, from its nonzero terms ``{n: c_n}`` alone.

    ``|g'|`` drops the unimodular factor ``e^{-i theta}`` of every term, so both
    forms are ``|sum_n a_n r^p_n e^{i n theta}|``: for power-of-two exponents
    each phase ``n theta`` is exact, and the error does not grow with
    ``|theta|``.  On a grid (``r`` a column, ``theta`` a row), as the ladder
    engine and the pointwise profile pass them, the sum over the K terms is one
    ``(R, K) @ (K, N)`` product for each of its real and imaginary parts; a
    broadcast ``(R, N, K)`` sum is slower than the closed form there, so it only
    serves other shapes, such as the elementwise golden-section refinement.
    """
    n = np.array(sorted(terms), dtype=float)
    c = np.array([terms[m] for m in sorted(terms)], dtype=float)

    def form(a, p):
        def polar(r, s, theta):
            r, theta = np.asarray(r, dtype=float), np.asarray(theta, dtype=float)
            rp = a * r[..., None] ** p
            if r.ndim == theta.ndim == 2 and r.shape[1] == 1 and theta.shape[0] == 1:
                cos_ph, sin_ph = _phase_tables(theta.tobytes(), n.tobytes())
                return _modulus(rp[:, 0] @ cos_ph, rp[:, 0] @ sin_ph)
            ph = theta[..., None] * n
            return _modulus(np.sum(rp * np.cos(ph), axis=-1), np.sum(rp * np.sin(ph), axis=-1))
        return polar

    return form(c, n), form(n * c, np.maximum(n - 1.0, 0.0))


@functools.lru_cache(maxsize=8)
def _phase_tables(theta: bytes, n: bytes) -> tuple:
    """The ``(K, N)`` tables ``cos(n_k theta_j)`` and ``sin(n_k theta_j)`` of
    float64 angle-row and exponent bytes; memoised, read-only.  All rows of a
    ladder engine share one angle row."""
    ph = (np.frombuffer(theta)[:, None] * np.frombuffer(n)).T
    tables = np.cos(ph), np.sin(ph)
    for t in tables:
        t.flags.writeable = False
    return tables


def _const(value):
    return lambda r, s, t: np.full(np.broadcast(r, t).shape, value)


def _radial(h):
    return lambda r, s, t: np.broadcast_to(h(r), np.broadcast(r, t).shape).copy()


def _c(z):
    return np.asarray(z, dtype=complex)


def _zero(z):
    return np.zeros_like(_c(z))


def _lacunary_eval(z):
    # sum of z^(2^k) by repeated squaring
    z = _c(z)
    out = np.zeros_like(z)
    p = z
    for _ in range(LACUNARY_K + 1):
        out = out + p
        p = p * p
    return out


def _lacunary_deriv(z):
    # z^(2^k - 1) satisfies p_{k+1} = p_k^2 * z
    z = _c(z)
    out = np.zeros_like(z)
    p = np.ones_like(z)
    coef = 1.0
    for _ in range(LACUNARY_K + 1):
        out = out + coef * p
        coef *= 2.0
        p = p * p * z
    return out


def _lacunary_deriv2(z):
    # z^(2^k - 2) = (z^(2^(k-1) - 1))^2 for k >= 1
    z = _c(z)
    out = np.zeros_like(z)
    m = np.ones_like(z)  # z^(2^(k-1) - 1), starting at k = 1
    for k in range(1, LACUNARY_K + 1):
        e = float(2 ** k)
        out = out + e * (e - 1.0) * m * m
        m = m * m * z
    return out


_LACUNARY_EXPONENTS = {2 ** k for k in range(LACUNARY_K + 1)}


def _build_registry():
    syms = []

    syms.append(SymbolSpec(
        name="zero",
        eval=_zero, deriv=_zero, deriv2=_zero,
        taylor_coeff=lambda n: 0j,
        metadata=SymbolMetadata(is_zero=True, note="both operators vanish"),
        polar_eval=_const(0.0), polar_deriv=_const(0.0),
        peak=0.0,
    ))

    syms.append(SymbolSpec(
        name="one",
        eval=lambda z: np.ones_like(_c(z)), deriv=_zero, deriv2=_zero,
        taylor_coeff=lambda n: 1 + 0j if n == 0 else 0j,
        metadata=SymbolMetadata(log_symbol_bloch=True,
                                note="T_g vanishes; S_g f = f - f(0)"),
        polar_eval=_const(1.0), polar_deriv=_const(0.0),
        peak=0.0,
    ))

    syms.append(SymbolSpec(
        name="identity",
        eval=lambda z: _c(z), deriv=lambda z: np.ones_like(_c(z)), deriv2=_zero,
        taylor_coeff=lambda n: 1 + 0j if n == 1 else 0j,
        metadata=SymbolMetadata(univalent=True, log_deriv_bloch=True,
                                log_symbol_bloch=False,
                                note="log g' = 0; log g singular at the interior zero"),
        polar_eval=_radial(lambda r: r), polar_deriv=_const(1.0),
        peak=0.0,
    ))

    syms.append(SymbolSpec(
        name="monomial",
        eval=lambda z: 0.5 * _c(z) ** 2, deriv=lambda z: _c(z),
        deriv2=lambda z: np.ones_like(_c(z)),
        taylor_coeff=lambda n: 0.5 + 0j if n == 2 else 0j,
        metadata=SymbolMetadata(univalent=False, log_deriv_bloch=False,
                                log_symbol_bloch=False,
                                note="g' = z vanishes at 0, so the log-derivative quotient blows up there"),
        polar_eval=_radial(lambda r: 0.5 * r * r), polar_deriv=_radial(lambda r: r),
        peak=0.0,
    ))

    def _log_eval(z):
        return -np.log1p(-_c(z))

    log = SymbolSpec(
        name="log",
        eval=_log_eval,
        deriv=lambda z: 1.0 / (1.0 - _c(z)),
        deriv2=lambda z: (1.0 - _c(z)) ** -2.0,
        taylor_coeff=lambda n: 0j if n == 0 else complex(1.0 / n),
        metadata=SymbolMetadata(univalent=True, log_deriv_bloch=True,
                                log_symbol_bloch=False,
                                note="conformal onto a half-plane image; g(0) = 0 kills log g"),
        polar_eval=_log_abs,
        polar_deriv=lambda r, s, t: 1.0 / _dist(r, s, t),
        peak=0.0,
    )
    syms.append(log)

    # koebe1 is log under another name: the derivative family (1-z)^(-s) at s = 1
    syms.append(replace(log, name="koebe1", metadata=SymbolMetadata(
        univalent=True, log_deriv_bloch=True, log_symbol_bloch=False)))

    syms.append(SymbolSpec(
        name="koebe2",
        eval=lambda z: _c(z) / (1.0 - _c(z)),
        deriv=lambda z: (1.0 - _c(z)) ** -2.0,
        deriv2=lambda z: 2.0 * (1.0 - _c(z)) ** -3.0,
        taylor_coeff=lambda n: 0j if n == 0 else 1 + 0j,
        metadata=SymbolMetadata(univalent=True, log_deriv_bloch=True, log_symbol_bloch=False,
                                note="Moebius; g(0) = 0 kills log g"),
        polar_eval=lambda r, s, t: r / _dist(r, s, t),
        polar_deriv=lambda r, s, t: _dist(r, s, t) ** -2.0,
        peak=0.0,
    ))

    syms.append(SymbolSpec(
        name="koebe3",
        eval=lambda z: 0.5 * ((1.0 - _c(z)) ** -2.0 - 1.0),
        deriv=lambda z: (1.0 - _c(z)) ** -3.0,
        deriv2=lambda z: 3.0 * (1.0 - _c(z)) ** -4.0,
        taylor_coeff=lambda n: 0j if n == 0 else complex(0.5 * (n + 1)),
        metadata=SymbolMetadata(univalent=True, log_deriv_bloch=True, log_symbol_bloch=False),
        polar_eval=_koebe3_abs,
        polar_deriv=lambda r, s, t: _dist(r, s, t) ** -3.0,
        peak=0.0,
    ))

    syms.append(SymbolSpec(
        name="affine",
        eval=lambda z: 1.0 - _c(z),
        deriv=lambda z: -np.ones_like(_c(z)),
        deriv2=_zero,
        taylor_coeff=lambda n: (1 + 0j, -1 + 0j)[n] if n <= 1 else 0j,
        metadata=SymbolMetadata(univalent=True, log_deriv_bloch=True, log_symbol_bloch=True,
                                note="log g = log(1-z) has derivative -1/(1-z), Bloch"),
        polar_eval=_dist, polar_deriv=_const(1.0),
        peak=math.pi,  # |1 - z| = |1 + r e^{i (theta - pi)}|; |g'| = 1
    ))

    syms.append(SymbolSpec(
        name="cayley",
        eval=lambda z: 1.0 / (1.0 - _c(z)),
        deriv=lambda z: (1.0 - _c(z)) ** -2.0,
        deriv2=lambda z: 2.0 * (1.0 - _c(z)) ** -3.0,
        taylor_coeff=lambda n: 1 + 0j,
        metadata=SymbolMetadata(univalent=True, log_deriv_bloch=True, log_symbol_bloch=True,
                                note="Moebius, zero-free; log g = -log(1-z), Bloch"),
        polar_eval=lambda r, s, t: 1.0 / _dist(r, s, t),
        polar_deriv=lambda r, s, t: _dist(r, s, t) ** -2.0,
        peak=0.0,
    ))

    lacunary_abs, lacunary_abs_deriv = _term_forms({n: 1.0 for n in _LACUNARY_EXPONENTS})
    syms.append(SymbolSpec(
        name="lacunary",
        eval=_lacunary_eval, deriv=_lacunary_deriv, deriv2=_lacunary_deriv2,
        taylor_coeff=lambda n: 1 + 0j if n in _LACUNARY_EXPONENTS else 0j,
        metadata=SymbolMetadata(univalent=False, log_deriv_bloch=None, log_symbol_bloch=None,
                                note="gap-series partial sum; Bloch flags left unknown on purpose"),
        polar_eval=lacunary_abs, polar_deriv=lacunary_abs_deriv,
        peak=0.0,
    ))

    return {s.name: s for s in syms}


_REGISTRY = _build_registry()


def registry() -> list:
    """All library symbols in a fixed order."""
    return list(_REGISTRY.values())


def get_symbol(name: str) -> SymbolSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownSymbolError(name) from None


def symbol_names() -> list:
    return list(_REGISTRY.keys())


@dataclass(frozen=True)
class GroundTruthRow:
    """Expected classification of one (symbol, operator, alpha, beta) cell."""

    symbol: str
    operator: OperatorKind
    alpha: float
    beta: float
    boundedness: str            # "Bounded" or "Unbounded"
    compactness: str            # "Compact" or "NotCompact"
    value: Optional[float] = None
    value_tol: Optional[float] = None
    justification: str = ""


def ground_truth_table() -> list:
    """Closed-form expected verdicts used as the acceptance gate."""
    T, S = OperatorKind.Tg, OperatorKind.Sg
    return [
        GroundTruthRow("identity", T, 0, 0, "Bounded", "Compact", 1.0, 1e-4,
                       "sup_theta int_0^t dr = t -> 1; tail t1 - t2 -> 0"),
        GroundTruthRow("log", T, 0, 0, "Unbounded", "NotCompact", None, None,
                       "int_0^t dr/(1-r) = log(1/(1-t)) diverges at theta=0"),
        GroundTruthRow("log", T, 0, 1, "Bounded", "Compact", None, None,
                       "(1-t^2) log(1/(1-t)) -> 0"),
        GroundTruthRow("koebe3", T, 0, 1, "Unbounded", "NotCompact", None, None,
                       "(1-t^2) ((1-t)^-2 - 1)/2 grows like 2^k on the rung schedule"),
        GroundTruthRow("cayley", T, 0, 1, "Bounded", "NotCompact", 2.0, 1e-3,
                       "(1-t^2)(1/(1-t) - 1) = t(1+t) -> 2; weighted |g'| -> 4 not 0"),
        GroundTruthRow("monomial", T, 0, 0, "Bounded", "Compact", 0.5, 1e-4,
                       "sup_theta int_0^t r dr = t^2/2 -> 1/2"),
        GroundTruthRow("lacunary", T, 0, 0, "Bounded", "Compact", float(LACUNARY_K + 1), 1e-3,
                       "int_0^1 g'(r) dr = K+1 terms of size 1; polynomial tail vanishes"),
        GroundTruthRow("cayley", S, 0, 1, "Bounded", "NotCompact", 2.0, 1e-3,
                       "sup (1-|z|^2)/|1-z| = 2; radial limit 2 != 0"),
        GroundTruthRow("affine", S, 1, 0, "Unbounded", "NotCompact", None, None,
                       "int |1-re^{i pi}|/(1-r^2)^2 dr ~ (1/2)/(1-t) diverges"),
        GroundTruthRow("affine", S, 1, 1, "Bounded", "NotCompact", None, None,
                       "sup |1-z| = 2 finite; sup_{|z|=r} |1-z| = 1+r -> 2 != 0"),
        GroundTruthRow("zero", S, 1, 0, "Bounded", "Compact", 0.0, 1e-9,
                       "zero symbol: zero operator, compact"),
        GroundTruthRow("identity", S, 0, 0, "Bounded", "NotCompact", 1.0, 1e-4,
                       "unweighted target: S_g verdict forwarded from T_g; g != 0 blocks compactness"),
        GroundTruthRow("one", S, 0, 0, "Bounded", "NotCompact", 0.0, 1e-9,
                       "g' = 0 so the forwarded ladder vanishes; S_1 f = f - f(0) is not compact"),
        GroundTruthRow("log", S, 1, 1, "Unbounded", "NotCompact", None, None,
                       "sup (1-|z|^2)^0 |log(1/(1-z))| = infinity"),
    ]
