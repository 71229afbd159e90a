"""The two integral operators, applied exactly at the coefficient level.

For a symbol g, ``T_g f = integral of f g'`` and ``S_g f = integral of f' g``
(both from 0).  Acting on truncated series these are exact coefficient
operations: convolve, then antidifferentiate.  The integration-by-parts
identity ``T_g f + S_g f = f g - f(0) g(0)`` is exact for polynomials and is
used as a test oracle.
"""

from __future__ import annotations

from enum import Enum

from .series import TaylorSeries, antiderivative, cauchy_product, derivative


class OperatorKind(Enum):
    Tg = "Tg"
    Sg = "Sg"


def apply_tg(g: TaylorSeries, f: TaylorSeries) -> TaylorSeries:
    """``(T_g f)(z) = integral_0^z f g'``; the result vanishes at 0."""
    dg = derivative(g)
    return antiderivative(cauchy_product(f, dg))


def apply_sg(g: TaylorSeries, f: TaylorSeries) -> TaylorSeries:
    """``(S_g f)(z) = integral_0^z f' g``; the result vanishes at 0."""
    df = derivative(f)
    return antiderivative(cauchy_product(df, g))


def apply_operator(kind: OperatorKind, g: TaylorSeries, f: TaylorSeries) -> TaylorSeries:
    return apply_tg(g, f) if kind is OperatorKind.Tg else apply_sg(g, f)

