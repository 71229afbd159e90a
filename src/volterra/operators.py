"""The two integral operators, applied exactly at the coefficient level.

For a symbol g, ``T_g f = integral of f g'`` and ``S_g f = integral of f' g``
(both from 0).  Acting on truncated series these are exact coefficient
operations: convolve, then antidifferentiate (:func:`image_array`, float or
complex alike); on the monomials ``z^n`` the product is a shifted copy of ``g'``
or ``n g`` (:func:`monomial_images`).  The integration-by-parts identity
``T_g f + S_g f = f g - f(0) g(0)`` is exact for polynomials and is a test oracle.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

import numpy as np

from .series import TaylorSeries, _antiderivative, _derivative, _divide_by_index, derivative
from .series import cauchy_product  # noqa: F401  (bound only for perfbench's tracer)


class OperatorKind(Enum):
    Tg = "Tg"
    Sg = "Sg"


def image_array(kind: OperatorKind, g: np.ndarray, f: np.ndarray, dg=None) -> np.ndarray:
    """:func:`apply_operator` on float or complex coefficient arrays."""
    if kind is OperatorKind.Tg:
        return _antiderivative(np.convolve(f, _derivative(g) if dg is None else dg))
    return _antiderivative(np.convolve(_derivative(f), g))


def apply_tg(g: TaylorSeries, f: TaylorSeries, dg: Optional[TaylorSeries] = None) -> TaylorSeries:
    """``(T_g f)(z) = integral_0^z f g'``; the result vanishes at 0.  ``dg`` is
    ``derivative(g)`` when the caller has derived it already."""
    return apply_operator(OperatorKind.Tg, g, f, dg)


def apply_sg(g: TaylorSeries, f: TaylorSeries) -> TaylorSeries:
    """``(S_g f)(z) = integral_0^z f' g``; the result vanishes at 0."""
    return apply_operator(OperatorKind.Sg, g, f)


def apply_operator(kind: OperatorKind, g: TaylorSeries, f: TaylorSeries,
                   dg: Optional[TaylorSeries] = None) -> TaylorSeries:
    """``T_g f`` or ``S_g f``; ``dg`` is as in :func:`apply_tg`."""
    return TaylorSeries(image_array(kind, g.array, f.array, None if dg is None else dg.array))


def monomial_images(kind: OperatorKind, g: TaylorSeries, n_max: int,
                    dg: Optional[TaylorSeries] = None) -> list:
    """The coefficient rows of ``apply_operator(kind, g, z^n)``, ``n = 1..n_max``
    (``n_max >= 1``), as views of one zero-padded block, float when ``g'`` (T_g)
    or ``g`` (S_g) is real, built with no convolution: ``z^n g'`` is ``g'``
    shifted by ``n`` and ``(z^n)' g`` is ``n g`` shifted by ``n - 1``, then
    coefficient ``m`` is divided by ``m``.  Only a zero coefficient may differ
    in its sign from the image's.  ``dg`` is as in :func:`apply_tg`."""
    ns = np.arange(1, n_max + 1)
    kernel = ((derivative(g) if dg is None else dg) if kind is OperatorKind.Tg else g).array
    kernel = kernel if np.any(kernel.imag) else kernel.real
    kernel, shifts = ((kernel[None, :], ns + 1) if kind is OperatorKind.Tg
                      else (ns[:, None] * kernel, ns))
    width = kernel.shape[1]
    block = np.zeros((n_max, shifts[0] + n_max - 1 + width), dtype=kernel.dtype)
    # row k starts at column shifts[0] + k: rows one element further apart
    skewed = np.lib.stride_tricks.as_strided(block.reshape(-1)[shifts[0]:], (n_max, width),
                                             (block.strides[0] + block.itemsize, block.itemsize))
    skewed[...] = _divide_by_index(kernel, shifts[:, None] + np.arange(width, dtype=float))
    return [row[:end] for row, end in zip(block, (shifts + width).tolist())]
