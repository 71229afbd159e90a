"""Registry of canonical symbols g with closed forms, Taylor coefficients and metadata.

The analytic facts recorded here (univalence, Bloch membership of log g' or
log g) are hypotheses consumed by the classifier, not computed quantities:
they are declared with a one-line justification and sanity-checked numerically
where the grid surrogate applies.  ``None`` means unknown.

The classifier reads ``|g|`` and ``|g'|`` only on each symbol's peak ray, where
a registry symbol gives them as profiles in ``r`` and ``s = 1 - r``: elementwise
real expressions, accurate up to the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import HypothesisError, UnknownSymbolError
from .operators import OperatorKind
from .series import TaylorSeries, derivative

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

    ``ray_eval`` and ``ray_deriv`` are optional boundary-stable profiles
    ``(r, s) -> |g|, |g'|`` on the peak ray, with ``s = 1 - r`` carried exactly;
    :meth:`abs_eval` and :meth:`abs_deriv` use them when present and the closed
    forms on the peak ray otherwise.  A polynomial registry symbol is built
    from its coefficient table alone: its closed forms are its Taylor series
    and that series' derivatives, and its profiles ``sum |c_n| r^n`` and
    ``sum n |c_n| r^(n-1)``.  A pole symbol is built from its order ``p`` and
    ``g(0)`` alone: ``g' = (1-z)^-p``, and one expression gives its closed form
    and its profile ``|g|``.

    ``peak`` is a required unrotated angle on which ``|g|``, ``|g'|`` and
    ``|g''|`` are largest on every circle ``|z| = r``.  A symbol whose Taylor
    coefficients are real and nonnegative peaks at 0, since then
    ``|g^(j)(r e^{i theta})| <= g^(j)(r)``; every registry symbol is of that
    kind after the rotation by its peak.  :meth:`rotated` keeps the field and
    the profiles, since a rotated symbol's moduli on its peak ray are its
    base's; :attr:`peak_ray` is the angle ``peak - rotation`` of the rotated
    symbol.  The classifier and the ``norm`` command take every angular sup on
    that one ray; a symbol whose peak is None has no angular sup they can read.
    """

    name: str
    eval: Callable
    deriv: Callable
    deriv2: Callable
    taylor_coeff: Callable  # n -> complex coefficient of z^n
    peak: float
    metadata: SymbolMetadata = field(default_factory=SymbolMetadata)
    rotation: float = 0.0  # total angle of rotated()
    ray_eval: Optional[Callable] = None
    ray_deriv: Optional[Callable] = None

    @property
    def peak_ray(self) -> float:
        """The angle at which :meth:`abs_eval` and :meth:`abs_deriv` take their
        sup over every circle, ``peak - rotation``; HypothesisError when the
        peak is None."""
        if self.peak is None:
            raise HypothesisError(f"symbol {self.name!r} declares no peak ray, "
                                  "on which every angular sup is read")
        return self.peak - self.rotation

    def abs_eval(self, r, s):
        """``|g|`` at the radii ``r`` (``s = 1 - r``) of the peak ray."""
        return self._abs(self.ray_eval, self.eval, r, s)

    def abs_deriv(self, r, s):
        """``|g'|`` on the peak ray, like :meth:`abs_eval`."""
        return self._abs(self.ray_deriv, self.deriv, r, s)

    def _abs(self, ray, f, r, s):
        theta = self.peak_ray  # refuses a symbol that declares no peak
        # arrays even for scalars: NumPy's scalar power rounds unlike its arrays'
        r, s = np.asarray(r, dtype=float), np.asarray(s, dtype=float)
        if ray is not None:
            return ray(r, s)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return np.abs(f(r * np.exp(1j * theta)))

    def taylor(self, degree: int = DEFAULT_DEGREE) -> TaylorSeries:
        return TaylorSeries(tuple(self.taylor_coeff(n) for n in range(degree + 1)))

    def rotated(self, phi: float) -> "SymbolSpec":
        """The symbol ``z -> g(e^{i phi} z)``; metadata, peak and profiles
        survive rotation."""
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


def _c(z):
    return np.asarray(z, dtype=complex)


def _power_sum(terms):
    """The profile ``(r, s) -> sum c r^n`` over ``terms``, pairs ``(n, c)`` with
    ``c >= 0``, summed from the highest power down.  Each ``r^n`` is a product
    of repeated squares of ``r``, which rounds every shape of radii alike
    (NumPy's ``**`` rounds a one-element array unlike a longer one); the
    products are planned once, so a power shared by two terms is formed once.
    A constant term is added last, or broadcast to the shape of ``r`` alone."""
    plan, index = [], {1: 0}  # index[n]: the position of r^n among a call's values

    def power(n):
        if n not in index:
            top = 1 << (n.bit_length() - 1)
            plan.append((power(top // 2), power(top // 2)) if n == top
                        else (power(n - top), power(top)))
            index[n] = len(plan)
        return index[n]
    terms = [(power(n) if n else None, c) for n, c in sorted(terms, reverse=True)]

    def ray(r, s):
        values = [r]
        for i, j in plan:
            values.append(values[i] * values[j])
        (k, c), *rest = terms
        if k is None:  # a constant alone
            return np.full(np.shape(r), c)
        out = c * values[k]
        for k, c in rest:
            out = out + (c if k is None else c * values[k])
        return out
    return ray


def _polynomial(name, terms, peak, metadata):
    """The symbol ``sum c_n z^n`` of the table ``terms = {n: c_n}``: its closed
    forms are its Taylor series and that series' derivatives, and its moduli
    on the peak ray are ``sum |c_n| r^n`` and ``sum n |c_n| r^(n-1)``, exact
    because the rotation by ``peak`` has nonnegative coefficients."""
    series = TaylorSeries([terms.get(n, 0.0) for n in range(max(terms) + 1)])
    mags = [(n, abs(c)) for n, c in terms.items()]
    return SymbolSpec(
        name=name, eval=series, deriv=derivative(series),
        deriv2=derivative(derivative(series)), taylor_coeff=series.coefficient,
        peak=peak, metadata=metadata, ray_eval=_power_sum(mags),
        ray_deriv=_power_sum([(n - 1, n * c) for n, c in mags if n] or [(0, 0.0)]),
    )


def _log1p(w):
    """``log(1 + w)``.  NumPy's complex ``log1p`` is ``log(1 + w)`` as written,
    so near ``w = 0`` it rounds in absolute terms; Kahan's ``log(u) w / (u - 1)``
    with ``u = 1 + w`` cancels the rounding of ``u``.  Below ``|w| = 2^-52``
    it is ``w``, within an ulp, since ``u - 1`` may be too small to divide by.
    Real arguments keep NumPy's ``log1p``."""
    if not np.iscomplexobj(w):
        return np.log1p(w)
    u = 1.0 + w
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        return np.where(np.abs(w) < 2.0 ** -52, w, np.log(u) * (w / (u - 1.0)))[()]


def _pole(name, p, metadata, at_zero=0.0):
    """The symbol ``g(0) + int_0^z (1-w)^-p dw`` of order ``p >= 1``, with
    ``g(0) = at_zero``.  One expression ``g(0) + F(x, s)`` in ``x`` and
    ``s = 1 - x`` is its closed form at ``x = z`` and its modulus on the peak
    ray 0 at ``x = r``; ``g' = (1-z)^-p``, ``g'' = p (1-z)^-(p+1)`` and the
    coefficients ``C(n+p-2, p-1)/n`` are all nonnegative."""
    def value(x, s):
        # F = log1p(x/s) at p = 1, else x (1 + s + ... + s^(p-2)) / ((p-1) s^(p-1)):
        # no cancellation at either end of the radius
        if p == 1:
            f = _log1p(x / s)
        elif p == 2:
            f = x / s
        else:
            ones, power = 1.0 + s, s * s
            for _ in range(p - 3):
                ones, power = 1.0 + s * ones, power * s
            f = x * ones / ((p - 1.0) * power)
        return f + at_zero if at_zero else f

    return SymbolSpec(
        name=name, eval=lambda z: value(_c(z), 1.0 - _c(z)),
        deriv=lambda z: (1.0 - _c(z)) ** -float(p),
        deriv2=lambda z: p * (1.0 - _c(z)) ** -(p + 1.0),
        taylor_coeff=lambda n: complex(math.comb(n + p - 2, p - 1) / n if n else at_zero),
        peak=0.0, metadata=metadata, ray_eval=value,
        ray_deriv=lambda r, s: s ** -float(p),
    )


def _build_registry():
    syms = []

    syms.append(_polynomial("zero", {0: 0.0}, 0.0, SymbolMetadata(
        is_zero=True, note="both operators vanish")))

    syms.append(_polynomial("one", {0: 1.0}, 0.0, SymbolMetadata(
        log_symbol_bloch=True, note="T_g vanishes; S_g f = f - f(0)")))

    syms.append(_polynomial("identity", {1: 1.0}, 0.0, SymbolMetadata(
        univalent=True, log_deriv_bloch=True, log_symbol_bloch=False,
        note="log g' = 0; log g singular at the interior zero")))

    syms.append(_polynomial("monomial", {2: 0.5}, 0.0, SymbolMetadata(
        univalent=False, log_deriv_bloch=False, log_symbol_bloch=False,
        note="g' = z vanishes at 0, so the log-derivative quotient blows up there")))

    syms.append(_pole("log", 1, SymbolMetadata(
        univalent=True, log_deriv_bloch=True, log_symbol_bloch=False,
        note="conformal onto a half-plane image; g(0) = 0 kills log g")))

    syms.append(_pole("koebe1", 1, SymbolMetadata(
        univalent=True, log_deriv_bloch=True, log_symbol_bloch=False)))

    syms.append(_pole("koebe2", 2, SymbolMetadata(
        univalent=True, log_deriv_bloch=True, log_symbol_bloch=False,
        note="Moebius; g(0) = 0 kills log g")))

    syms.append(_pole("koebe3", 3, SymbolMetadata(
        univalent=True, log_deriv_bloch=True, log_symbol_bloch=False)))

    # |1 - z| = |1 + r e^{i (theta - pi)}|: the peak ray is pi
    syms.append(_polynomial("affine", {0: 1.0, 1: -1.0}, math.pi, SymbolMetadata(
        univalent=True, log_deriv_bloch=True, log_symbol_bloch=True,
        note="log g = log(1-z) has derivative -1/(1-z), Bloch")))

    syms.append(_pole("cayley", 2, SymbolMetadata(
        univalent=True, log_deriv_bloch=True, log_symbol_bloch=True,
        note="Moebius, zero-free; log g = -log(1-z), Bloch"), at_zero=1.0))

    syms.append(_polynomial("lacunary", {2 ** k: 1.0 for k in range(LACUNARY_K + 1)}, 0.0,
                            SymbolMetadata(univalent=False, log_deriv_bloch=None,
                                           log_symbol_bloch=None,
                                           note="gap-series partial sum; Bloch flags left "
                                                "unknown on purpose")))

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
