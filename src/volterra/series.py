"""Truncated Taylor series of analytic functions on the disk.

Coefficients are double-precision complex throughout.  A series keeps its
coefficients ``c[0] + c[1] z + ... + c[N] z^N`` as one read-only complex array,
and as an immutable tuple built on first read; derivatives, antiderivatives and
Cauchy products run on the array, rounded exactly like the per-coefficient
Python expressions.

Polynomials are evaluated by one Horner loop, :func:`evaluate_polynomial`.  On the
rings of a polar grid, :func:`evaluate_on_rings` folds the coefficients modulo the
angle count, so a ring costs a few Horner steps on short vectors plus one FFT;
it takes ring rows, one coefficient row per ring, so a caller can sweep each
series on only the rings it needs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
    the read-only ``array``, and read back as a tuple of Python complex numbers,
    built from the array on first read.
    """

    coeffs: tuple
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.coeffs if len(self.coeffs) else (0j,), dtype=complex)
        if arr.ndim != 1:
            raise ValueError("Taylor coefficients must be a flat sequence of numbers")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)
        # the tuple is left to __getattr__: the sweeps read only the array
        object.__delattr__(self, "coeffs")

    def __getattr__(self, name):
        # reached only while ``coeffs`` is unset; ==, hash and repr read it too
        if name != "coeffs":
            raise AttributeError(name)
        coeffs = tuple(self.array.tolist())
        object.__setattr__(self, "coeffs", coeffs)
        return coeffs

    @property
    def degree(self) -> int:
        return len(self.array) - 1

    def __call__(self, z):
        return evaluate_polynomial(self.coeffs, z)

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
    """Values at ``r e^{2 pi i j / N}`` for ``j < N = n_angles`` on ring rows;
    overflow is clamp-tagged.

    Coefficient rows, shaped ``(..., D)``, broadcast against ``radii``: one row
    against ``R`` radii gives ``(R, N)``, and a ``(K, D)`` stack against ``K``
    radii evaluates row ``k`` on ring ``radii[k]``, giving ``(K, N)``.  With the
    coefficients folded modulo ``N``,
    ``p(r e^{2 pi i j/N}) = sum_m a_m(r) e^{2 pi i j m/N}`` and
    ``a_m(r) = r^m sum_q c[m + qN] (r^N)^q``.  The block sums are one Horner in
    ``w = r^N`` over length-``N`` vectors, for all ring rows at once; each ring
    is then one inverse FFT, and one call transforms them all.  A ring whose
    block sum overflows is tagged divergent as a whole: the FFT spreads the
    clamped infinite term over every angle.
    """
    c = np.asarray(coeffs, dtype=complex)
    r = np.asarray(radii, dtype=float)
    lead, d = c.shape[:-1], c.shape[-1]
    q = -(-d // n_angles)
    if d < q * n_angles:
        c = np.concatenate((c, np.zeros(lead + (q * n_angles - d,), dtype=complex)), axis=-1)
    # a view with the q blocks first, each shaped (..., N)
    blocks = np.moveaxis(c.reshape(lead + (q, n_angles)), -2, 0)
    sums = evaluate_polynomial(blocks, (r ** n_angles)[..., None])
    with np.errstate(invalid="ignore", over="ignore"):
        sums *= r[..., None] ** np.arange(n_angles)
        vals = np.fft.ifft(sums, axis=-1, norm="forward")
    return _clamp(vals)


@functools.lru_cache(maxsize=16)
def _ring_powers(radii: bytes, n_cols: int) -> np.ndarray:
    """The ``(R, n_cols)`` table ``r^m``, ``m < n_cols``, of float64 radii bytes;
    memoised, read-only.  The ring majorants and the ring maxima of a
    nonnegative series take ``q N`` columns for ``q`` blocks."""
    table = np.frombuffer(radii)[:, None] ** np.arange(n_cols)
    table.flags.writeable = False
    return table


def derivative(f: TaylorSeries) -> TaylorSeries:
    """Term-by-term derivative; degree drops by one (minimum 0)."""
    # complex times (n + 1 + 0j), rounded like Python's ``(n + 1) * c``
    return TaylorSeries(np.arange(1, f.degree + 1) * f.array[1:])


def _divide_by_index(c: np.ndarray, k):
    """The real and imaginary parts of ``c / k`` for complex ``c`` and real
    ``k``, rounded like Python's ``c / k``: each part is divided by ``k`` after
    adding the other part times the zero ratio (which fixes a zero's sign);
    NumPy's complex division would multiply by a reciprocal and round
    differently."""
    return (c.real + c.imag * 0.0) / k, (c.imag - c.real * 0.0) / k


def antiderivative(f: TaylorSeries) -> TaylorSeries:
    """Antiderivative vanishing at 0; degree rises by one."""
    cs = np.zeros(f.degree + 2, dtype=complex)
    cs.real[1:], cs.imag[1:] = _divide_by_index(f.array, np.arange(1.0, f.degree + 2))
    return TaylorSeries(cs)


def cauchy_product(f: TaylorSeries, g: TaylorSeries) -> TaylorSeries:
    """Coefficient convolution of two series, of degree ``f.degree + g.degree``."""
    return TaylorSeries(np.convolve(f.array, g.array))


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
