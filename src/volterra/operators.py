"""The two integral operators, applied exactly at the coefficient level.

For a symbol g, ``T_g f = integral of f g'`` and ``S_g f = integral of f' g``
(both from 0).  Acting on truncated series these are exact coefficient
operations: convolve, then antidifferentiate; on the monomials ``z^n`` the
product is a shifted copy of ``g'`` or ``n g`` (:func:`monomial_images`).  The
integration-by-parts identity ``T_g f + S_g f = f g - f(0) g(0)`` is exact for
polynomials and is used as a test oracle.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

import numpy as np

from .series import TaylorSeries, _divide_by_index, antiderivative, cauchy_product, derivative


class OperatorKind(Enum):
    Tg = "Tg"
    Sg = "Sg"


def apply_tg(g: TaylorSeries, f: TaylorSeries, dg: Optional[TaylorSeries] = None) -> TaylorSeries:
    """``(T_g f)(z) = integral_0^z f g'``; the result vanishes at 0.  ``dg`` is
    ``derivative(g)`` when the caller has derived it already."""
    return antiderivative(cauchy_product(f, derivative(g) if dg is None else dg))


def apply_sg(g: TaylorSeries, f: TaylorSeries) -> TaylorSeries:
    """``(S_g f)(z) = integral_0^z f' g``; the result vanishes at 0."""
    df = derivative(f)
    return antiderivative(cauchy_product(df, g))


def apply_operator(kind: OperatorKind, g: TaylorSeries, f: TaylorSeries,
                   dg: Optional[TaylorSeries] = None) -> TaylorSeries:
    """``T_g f`` or ``S_g f``; ``dg`` goes to :func:`apply_tg`."""
    return apply_tg(g, f, dg) if kind is OperatorKind.Tg else apply_sg(g, f)


def monomial_images(kind: OperatorKind, g: TaylorSeries, n_max: int,
                    dg: Optional[TaylorSeries] = None) -> list:
    """``apply_operator(kind, g, z^n)`` for ``n = 1..n_max``, with no convolution:
    ``z^n g'`` is ``g'`` shifted by ``n`` and ``(z^n)' g`` is ``n g`` shifted by
    ``n - 1``; coefficient ``m`` is then divided by ``m`` as in
    :func:`~volterra.series.antiderivative`.  The values are those of
    :func:`apply_operator`; only a zero coefficient may differ in its sign.
    ``dg`` is as in :func:`apply_tg`."""
    ns = np.arange(1, n_max + 1)
    kernel, shifts = (((derivative(g) if dg is None else dg).array[None, :], ns + 1)
                      if kind is OperatorKind.Tg
                      else (ns[:, None] * g.array, ns))
    re, im = _divide_by_index(kernel, shifts[:, None] + np.arange(kernel.shape[1], dtype=float))
    images = []
    for s, re_row, im_row in zip(shifts.tolist(), re, im):
        cs = np.zeros(s + len(re_row), dtype=complex)
        cs.real[s:], cs.imag[s:] = re_row, im_row
        images.append(TaylorSeries(cs))
    return images
