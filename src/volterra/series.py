"""Truncated Taylor series of analytic functions on the disk.

Coefficients are double-precision complex throughout.  A series keeps its
coefficients ``c[0] + c[1] z + ... + c[N] z^N`` as an immutable tuple and as one
read-only complex array; derivatives, antiderivatives and Cauchy products run on
the array, rounded exactly like the per-coefficient Python expressions.  Every
operation that can drop tail terms records the fact in the ``truncated`` flag of
its result instead of failing silently.

Polynomials are evaluated by one Horner loop, :func:`evaluate_polynomial`.  On the
rings of a polar grid, :func:`evaluate_on_rings` folds the coefficients modulo the
angle count, so a ring costs a few Horner steps on short vectors plus one FFT.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError

# Magnitudes above this are treated as divergent samples, not numbers.  Criterion
# sweeps must survive boundary poles, so overflow is tagged rather than raised.
OVERFLOW_CLAMP = 1e300

# Marker substituted for divergent samples.
DIVERGENT_SAMPLE = complex(math.inf, 0.0)


def is_divergent(value) -> np.ndarray | bool:
    """True where a sample overflowed the clamp or is non-finite."""
    v = np.asarray(value)
    with np.errstate(invalid="ignore", over="ignore"):
        mag = np.abs(v)
    out = ~(mag <= OVERFLOW_CLAMP)  # NaN compares False
    return bool(out) if out.ndim == 0 else out


def _clamp(values):
    """Replace divergent samples by the tagged infinite marker."""
    bad = is_divergent(values)
    if np.ndim(values) == 0:
        return DIVERGENT_SAMPLE if bad else complex(values)
    if np.any(bad):
        values = np.array(values, copy=True)
        values[bad] = DIVERGENT_SAMPLE
    return values


@dataclass(frozen=True)
class TaylorSeries:
    """Finite Taylor polynomial ``sum coeffs[n] z^n``.

    ``coeffs`` (numbers or a 1-D array; empty means the zero series) is kept as
    a tuple of Python complex numbers and once more as the read-only ``array``.
    ``truncated`` is set when the series is the result of an operation that
    discarded tail coefficients.
    """

    coeffs: tuple
    truncated: bool = False
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.coeffs if len(self.coeffs) else (0j,), dtype=complex)
        if arr.ndim != 1:
            raise ValueError("Taylor coefficients must be a flat sequence of numbers")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "coeffs", tuple(arr.tolist()))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        return evaluate_polynomial(self.coeffs, z)

    def derivative(self) -> "TaylorSeries":
        return derivative(self)

    def antiderivative(self) -> "TaylorSeries":
        return antiderivative(self)

    def coefficient(self, n: int) -> complex:
        return self.coeffs[n] if 0 <= n <= self.degree else 0j


def evaluate_polynomial(coeffs: Sequence, z):
    """Horner evaluation of ``sum coeffs[n] z^n``; overflow is clamp-tagged.

    Each coefficient is a number or an array that broadcasts against ``z``; the
    result has the broadcast shape, so a ``(D, P)`` array of coefficients
    evaluates ``P`` polynomials at once.
    """
    zs = np.asarray(z, dtype=complex)
    acc = np.full(np.broadcast_shapes(zs.shape, np.shape(coeffs[-1])), coeffs[-1],
                  dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        # in place: a fresh temporary per step costs more than the step on a ring grid
        for c in reversed(coeffs[:-1]):
            acc *= zs
            acc += c
    out = _clamp(acc)
    if np.ndim(z) == 0 and np.ndim(out) != 0:
        return complex(out)
    return out


def evaluate_on_rings(coeffs, radii, n_angles: int) -> np.ndarray:
    """Values at ``r e^{2 pi i j / N}`` for each radius ``r`` and ``j < N = n_angles``;
    overflow is clamp-tagged.

    ``coeffs`` is one row of coefficients, giving values shaped
    ``(len(radii), N)``, or a ``(P, D)`` stack of rows, giving ``(P, len(radii), N)``.
    With the coefficients folded modulo ``N``,
    ``p(r e^{2 pi i j/N}) = sum_m a_m(r) e^{2 pi i j m/N}`` and
    ``a_m(r) = r^m sum_q c[m + qN] (r^N)^q``.  The block sums are one Horner in
    ``w = r^N`` over length-``N`` vectors, for all rows at once; each ring is
    then one inverse FFT, and one call transforms the whole stack.  A ring
    whose block sum overflows is tagged divergent as a whole: the FFT spreads
    the clamped infinite term over every angle.
    """
    c = np.asarray(coeffs, dtype=complex)
    rows = c.reshape(-1, c.shape[-1])
    q = -(-rows.shape[1] // n_angles)
    padded = np.zeros((len(rows), q * n_angles), dtype=complex)
    padded[:, :rows.shape[1]] = rows
    blocks = np.ascontiguousarray(padded.reshape(len(rows), q, 1, n_angles).transpose(1, 0, 2, 3))
    r = np.asarray(radii, dtype=float)
    # coefficients shaped (q, P, 1, N) against one w per ring, shaped (R, 1):
    # the Horner broadcasts them to (P, R, N)
    sums = evaluate_polynomial(blocks, (r ** n_angles)[:, None])
    with np.errstate(invalid="ignore", over="ignore"):
        sums *= _ring_powers(r.tobytes(), n_angles)
        vals = np.fft.ifft(sums, axis=-1, norm="forward")
    return _clamp(vals).reshape(c.shape[:-1] + vals.shape[1:])


@functools.lru_cache(maxsize=8)
def _ring_powers(radii: bytes, n_angles: int) -> np.ndarray:
    """The ``(R, N)`` table ``r^m``, ``m < N``, of float64 radii bytes; memoised, read-only."""
    table = np.frombuffer(radii)[:, None] ** np.arange(n_angles)
    table.flags.writeable = False
    return table


def derivative(f: TaylorSeries) -> TaylorSeries:
    """Term-by-term derivative; degree drops by one (minimum 0)."""
    # complex times (n + 1 + 0j), rounded like Python's ``(n + 1) * c``
    return TaylorSeries(np.arange(1, f.degree + 1) * f.array[1:], f.truncated)


def antiderivative(f: TaylorSeries) -> TaylorSeries:
    """Antiderivative vanishing at 0; degree rises by one."""
    # Python's ``c / (n + 1)`` divides each part by n + 1 after adding the other
    # part times the zero ratio (which fixes a zero's sign); NumPy's complex
    # division would multiply by a reciprocal and round differently
    k, c = np.arange(1.0, f.degree + 2), f.array
    cs = np.zeros(f.degree + 2, dtype=complex)
    cs.real[1:] = (c.real + c.imag * 0.0) / k
    cs.imag[1:] = (c.imag - c.real * 0.0) / k
    return TaylorSeries(cs, f.truncated)


def cauchy_product(f: TaylorSeries, g: TaylorSeries, out_degree: Optional[int] = None) -> TaylorSeries:
    """Coefficient convolution of two series, truncated to ``out_degree``.

    ``out_degree`` defaults to the full product degree and may not exceed it.
    A result shorter than the full product is flagged ``truncated``.
    """
    full = f.degree + g.degree
    if out_degree is None:
        out_degree = full
    if out_degree > full:
        raise ValueError(f"out_degree {out_degree} exceeds product degree {full}")
    conv = np.convolve(f.array, g.array)[: out_degree + 1]
    return TaylorSeries(conv, f.truncated or g.truncated or out_degree < full)


def check_derivative_consistency(fn: Callable, dfn: Callable, h: float = 1e-5,
                                 tol: float = 1e-6, radius: float = 0.5,
                                 n_points: int = 24) -> float:
    """Max central-difference residual of the derivative evaluator ``dfn`` of the
    vectorised ``fn`` on a fixed probe grid.

    The grid is ``n_points`` points on two circles of radius ``radius`` and
    ``radius/2``.  Returns the worst residual; raises DomainError above ``tol``.
    """
    worst = 0.0
    for r in (radius, radius / 2.0):
        thetas = 2.0 * np.pi * np.arange(n_points) / n_points
        zs = r * np.exp(1j * thetas)
        fd = (np.asarray(fn(zs + h)) - np.asarray(fn(zs - h))) / (2.0 * h)
        resid = np.max(np.abs(fd - np.asarray(dfn(zs))))
        worst = max(worst, float(resid))
    if worst > tol:
        raise DomainError(f"derivative evaluator inconsistent: residual {worst:.3e} > {tol:.1e}")
    return worst
