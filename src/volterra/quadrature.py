"""The Gauss-Legendre rule behind every radial integral (see ``criteria``)."""

from __future__ import annotations

import functools

import numpy as np


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """Nodes and weights of the n-point rule on [-1, 1], memoised and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w
