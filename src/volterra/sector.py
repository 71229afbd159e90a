"""Conformal map of a circular sector onto the unit disk, with its density bound.

The sector with vertex at 0, radius 1, aperture eta and bisector angle theta is
mapped onto the disk by an explicit chain: rotate the bisector onto the positive
reals, apply the power ``w -> i w^(pi/eta)`` (upper half-disk), then the
standard half-disk-to-half-plane map ``w -> -(w + 1/w)/2``, the Cayley map, and
finally the disk automorphism that sends the image of the half-radius bisector
point to 0 and the image of the vertex to ``e^{i theta}``.  Both normalizations
are solved in closed form, so no root finding is involved, and the derivative
comes from the chain rule.

The quantity of interest downstream is the scaled density ratio
``|z| |psi'(z)| / (1 - |psi(z)|^2)``, which stays bounded on the half-radius
subsector of any strictly smaller aperture.  ``1 - |psi|^2`` is computed through
``Im w3`` and the automorphism identity rather than by subtraction, so the
ratio keeps full precision arbitrarily close to the vertex.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConstructionError, DomainError

# 2-D Kronecker (R2) sequence constants: 1/g and 1/g^2 for the plastic number g
_R2_A1 = 0.7548776662466927
_R2_A2 = 0.5698402909980532

# radial span of the low-discrepancy sample: 0.5 down to 0.5e-6
_RADIAL_DECADES = math.log(1e6)


@dataclass(frozen=True)
class SectorParams:
    """Open unit-radius sector ``0 < |z| < 1``, ``|arg z - theta| < eta/2``."""

    eta: float
    theta: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.eta < math.pi):
            raise ValueError("aperture eta must lie in (0, pi)")
        if not (0.0 <= self.theta < 2.0 * math.pi):
            raise ValueError("bisector angle theta must lie in [0, 2 pi)")

    def contains(self, z: complex) -> bool:
        az = abs(z)
        if not (0.0 < az < 1.0):
            return False
        d = (np.angle(z) - self.theta + math.pi) % (2.0 * math.pi) - math.pi
        return abs(d) < 0.5 * self.eta


@dataclass(frozen=True)
class SectorMap:
    """The normalized conformal map psi with its closed-form derivative."""

    params: SectorParams
    psi: Callable
    dpsi: Callable
    one_minus_abs2: Callable     # stable 1 - |psi|^2
    center_residual: float       # |psi| at the half-radius bisector point
    vertex_solve_residual: float  # |normalized vertex image - e^{i theta}|

    def vertex_residuals(self, eps_values=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6)):
        """|psi(eps e^{i theta}) - e^{i theta}| along the bisector."""
        w = np.exp(1j * self.params.theta)
        return [float(abs(self.psi(e * w) - w)) for e in eps_values]


def _chain(z, theta: float, p: float):
    w1 = np.exp(-1j * theta) * np.asarray(z, dtype=complex)
    w2 = 1j * w1 ** p
    w3 = -(w2 + 1.0 / w2) / 2.0
    w4 = (w3 - 1j) / (w3 + 1j)
    return w1, w2, w3, w4


def _chain_deriv(w1, w2, w3, theta: float, p: float):
    d1 = np.exp(-1j * theta)
    d2 = 1j * p * w1 ** (p - 1.0) * d1
    d3 = -(1.0 - 1.0 / (w2 * w2)) / 2.0 * d2
    d4 = 2j / ((w3 + 1j) ** 2) * d3
    return d4


def build_sector_map(params: SectorParams) -> SectorMap:
    """Construct the normalized map; fails if the normalization residual is off
    or, at small apertures, the half-radius point's image is lost to underflow."""
    theta, p = params.theta, math.pi / params.eta
    bis = complex(math.cos(theta), math.sin(theta))

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, _, _, a = _chain(0.5 * bis, theta, p)
    a = complex(a)
    if not cmath.isfinite(a) or a == 1.0:
        raise ConstructionError(f"aperture {params.eta:g} too small: the half-radius "
                                f"point's image {a} is not finite or is the vertex image")
    # vertex: w2 -> 0 forces w3 -> infinity, hence w4 -> 1 along the chain
    b = (1.0 - a) / (1.0 - a.conjugate())
    rho = bis / b

    def psi(z):
        _, _, _, w4 = _chain(z, theta, p)
        return rho * (w4 - a) / (1.0 - a.conjugate() * w4)

    def dpsi(z):
        w1, w2, w3, w4 = _chain(z, theta, p)
        d4 = _chain_deriv(w1, w2, w3, theta, p)
        return rho * (1.0 - abs(a) ** 2) / (1.0 - a.conjugate() * w4) ** 2 * d4

    def one_minus_abs2(z):
        _, _, w3, w4 = _chain(z, theta, p)
        inner = 4.0 * np.imag(w3) / np.abs(w3 + 1j) ** 2
        return (1.0 - abs(a) ** 2) * inner / np.abs(1.0 - a.conjugate() * w4) ** 2

    center_residual = float(abs(psi(0.5 * bis)))
    # the vertex maps through the chain to 1; its normalized image must be the
    # bisector direction on the circle
    vertex_residual = float(abs(rho * (1.0 - a) / (1.0 - a.conjugate()) - bis))
    if center_residual > 1e-10 or vertex_residual > 1e-10:
        raise ConstructionError(
            f"normalization residuals {center_residual:.3e}/{vertex_residual:.3e}")
    return SectorMap(params=params, psi=psi, dpsi=dpsi, one_minus_abs2=one_minus_abs2,
                     center_residual=center_residual,
                     vertex_solve_residual=vertex_residual)


def density_ratio(smap: SectorMap, z: complex) -> float:
    """``|z| |psi'(z)| / (1 - |psi(z)|^2)`` at a sector point (vectorized)."""
    zs = np.asarray(z, dtype=complex)
    if zs.ndim == 0:
        if not smap.params.contains(complex(zs)):
            raise DomainError(f"{complex(zs)} lies outside the open sector")
        return float(np.abs(zs) * np.abs(smap.dpsi(zs)) / smap.one_minus_abs2(zs))
    return np.abs(zs) * np.abs(smap.dpsi(zs)) / smap.one_minus_abs2(zs)


def sector_sample(gamma: float, theta: float, n: int) -> np.ndarray:
    """Deterministic low-discrepancy sample of the half-radius sector.

    Prefixes are nested: the first m points of ``sector_sample(..., n)`` equal
    ``sector_sample(..., m)``, which makes sampled maxima monotone in n.  The
    radial coordinate is log-uniform down to 0.5e-6 so the vertex region is
    well covered.
    """
    i = np.arange(1, n + 1, dtype=float)
    x = np.mod(0.5 + i * _R2_A1, 1.0)
    y = np.mod(0.5 + i * _R2_A2, 1.0)
    radii = 0.5 * np.exp(-_RADIAL_DECADES * x)
    angles = theta + (y - 0.5) * gamma
    return radii * np.exp(1j * angles)


def estimate_density_bound(gamma: float, eta: float, n_samples: int,
                           theta: float = 0.0) -> float:
    """Empirical max of the density ratio over the half-radius gamma-subsector.

    Requires ``0 < gamma < eta < pi``.  Nondecreasing in ``n_samples`` by
    construction of the nested sample.  Raises ConstructionError when the
    ratio is not finite at some sample (``np.max`` propagates NaN), as happens
    near the vertex at small apertures.
    """
    if not (0.0 < gamma < eta < math.pi):
        raise ValueError("need 0 < gamma < eta < pi")
    smap = build_sector_map(SectorParams(eta=eta, theta=theta))
    zs = sector_sample(gamma, theta, n_samples)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bound = float(np.max(density_ratio(smap, zs)))
    if not math.isfinite(bound):
        raise ConstructionError(f"density ratio not finite on the sample at aperture {eta:g}")
    return bound
