"""Conformal map of a circular sector onto the unit disk, with its density bound.

The sector with vertex 0, radius 1, aperture eta and bisector angle theta is
mapped onto the disk by an explicit chain: rotate the bisector onto the positive
reals, apply ``w -> i w^p`` with ``p = pi/eta`` (upper half-disk), then
``w -> -(w + 1/w)/2`` (upper half-plane), the Cayley map, and the disk
automorphism sending the half-radius bisector point to 0 and the vertex to
``e^{i theta}``; both normalizations are solved in closed form.

The scaled density ratio ``|z| |psi'(z)| / (1 - |psi(z)|^2)`` is unchanged by
the last two maps, which are hyperbolic isometries, so it is
``|z| |w3'(z)| / (2 Im w3)`` at the half-plane point ``w3``.  With
``z e^{-i theta} = r e^{i phi}``, ``u = r^p`` and ``psi = p phi``, one has
``Im w3 = cos(psi) (1 - u^2) / (2u)`` and ``|z| |w3'| = p |1 + u^2 e^{2i psi}| / (2u)``:

    ratio = (p/2) sqrt(sec^2 psi + t^2),  t = 2u / (1 - u^2) = 1 / sinh(-p log r),

evaluated in real arithmetic.  It increases in ``u`` and ``|psi|``, so its sup
over the half-radius gamma-subsector is the corner value at ``u = 2^-p``,
``psi = p gamma / 2``.
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
        d = (np.angle(z) - self.theta + math.pi) % (2.0 * math.pi) - math.pi
        return 0.0 < abs(z) < 1.0 and abs(d) < 0.5 * self.eta


@dataclass(frozen=True)
class SectorMap:
    """The normalized conformal map psi with its normalization residuals."""

    params: SectorParams
    psi: Callable
    center_residual: float       # |psi| at the half-radius bisector point
    vertex_solve_residual: float  # |normalized vertex image - e^{i theta}|

    def vertex_residuals(self, eps_values=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6)):
        """|psi(eps e^{i theta}) - e^{i theta}| along the bisector."""
        w = np.exp(1j * self.params.theta)
        return [float(abs(self.psi(e * w) - w)) for e in eps_values]


def _chain(z, theta: float, p: float):
    w2 = 1j * (np.exp(-1j * theta) * np.asarray(z, dtype=complex)) ** p
    # w4 = (w3 - i)/(w3 + i) through v = 1/w3, which stays finite near the
    # vertex, where w2 is subnormal and 1/w2 would overflow
    v = -2.0 * w2 / (w2 * w2 + 1.0)
    return (1.0 - 1j * v) / (1.0 + 1j * v)


def build_sector_map(params: SectorParams) -> SectorMap:
    """Construct the normalized map; fails if the normalization residual is off
    or, at small apertures, the half-radius point's image is lost to underflow."""
    theta, p = params.theta, math.pi / params.eta
    bis = complex(math.cos(theta), math.sin(theta))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = complex(_chain(0.5 * bis, theta, p))
    if not cmath.isfinite(a) or a == 1.0:
        raise ConstructionError(f"aperture {params.eta:g} too small: the half-radius "
                                f"point's image {a} is not finite or is the vertex image")
    # vertex: w2 -> 0 forces w3 -> infinity, hence w4 -> 1 along the chain
    rho = bis / ((1.0 - a) / (1.0 - a.conjugate()))

    def psi(z):
        w4 = _chain(z, theta, p)
        return rho * (w4 - a) / (1.0 - a.conjugate() * w4)

    center_residual = float(abs(psi(0.5 * bis)))
    # the chain sends the vertex to 1, whose normalized image must be e^{i theta}
    vertex_residual = float(abs(rho * (1.0 - a) / (1.0 - a.conjugate()) - bis))
    if center_residual > 1e-10 or vertex_residual > 1e-10:
        raise ConstructionError(
            f"normalization residuals {center_residual:.3e}/{vertex_residual:.3e}")
    return SectorMap(params=params, psi=psi, center_residual=center_residual,
                     vertex_solve_residual=vertex_residual)


def _ratio_squared(s, psi):
    """``(2/p)^2`` times the squared density ratio at ``s = -p log r``, ``psi = p phi``."""
    with np.errstate(over="ignore"):
        tan, t = np.tan(psi), 1.0 / np.sinh(s)
    return 1.0 + (tan * tan + t * t)


def density_ratio(smap: SectorMap, z: complex) -> float:
    """``|z| |psi'(z)| / (1 - |psi(z)|^2)`` at a sector point (vectorized)."""
    zs = np.asarray(z, dtype=complex)
    if zs.ndim == 0 and not smap.params.contains(complex(zs)):
        raise DomainError(f"{complex(zs)} lies outside the open sector")
    p = math.pi / smap.params.eta
    phi = np.angle(np.exp(-1j * smap.params.theta) * zs)
    ratio = 0.5 * p * np.sqrt(_ratio_squared(-p * np.log(np.abs(zs)), p * phi))
    return float(ratio) if zs.ndim == 0 else ratio


def density_bound(gamma: float, eta: float) -> float:
    """Exact sup of the density ratio over the half-radius gamma-subsector."""
    if not (0.0 < gamma < eta < math.pi):
        raise ValueError("need 0 < gamma < eta < pi")
    p = math.pi / eta
    return 0.5 * p * math.sqrt(_ratio_squared(p * math.log(2.0), 0.5 * p * gamma))


def _polar_sample(gamma: float, n: int):
    """Depths ``log(0.5/r)`` and bisector offsets of the first n R2 points."""
    i = np.arange(1, n + 1, dtype=float)
    x, y = 0.5 + i * _R2_A1, 0.5 + i * _R2_A2
    x -= np.floor(x)  # mod 1, exactly
    y -= np.floor(y)
    return _RADIAL_DECADES * x, (y - 0.5) * gamma


def sector_sample(gamma: float, theta: float, n: int) -> np.ndarray:
    """Deterministic low-discrepancy sample of the half-radius sector: nested
    (the first m of n points are the m-point sample, so sampled maxima are
    monotone in n), with radii log-uniform down to 0.5e-6 near the vertex."""
    depth, phi = _polar_sample(gamma, n)
    return 0.5 * np.exp(-depth) * np.exp(1j * (theta + phi))


def estimate_density_bound(gamma: float, eta: float, n_samples: int,
                           theta: float = 0.0) -> float:
    """Empirical max of the density ratio over the half-radius gamma-subsector.

    Requires ``0 < gamma < eta < pi``.  Nondecreasing in ``n_samples`` (nested
    sample) and bit-identical for every ``theta``: the closed form runs on the
    polar sample.  Only the maximiser is rotated into the sector, where
    :func:`density_ratio` must agree (and raises DomainError off the sector).
    """
    if not (0.0 < gamma < eta < math.pi):
        raise ValueError("need 0 < gamma < eta < pi")
    smap = build_sector_map(SectorParams(eta=eta, theta=theta))
    p = math.pi / eta
    depth, phi = _polar_sample(gamma, n_samples)
    squared = _ratio_squared(p * (math.log(2.0) + depth), p * phi)
    k = int(np.argmax(squared))
    bound = 0.5 * p * math.sqrt(squared[k])
    check = density_ratio(smap, 0.5 * math.exp(-depth[k]) * cmath.exp(1j * (theta + phi[k])))
    # rotating rounds the angle; the ratio's relative sensitivity to it is <= p |tan psi|
    slack = 1e-12 * (1.0 + p * abs(math.tan(p * phi[k]))) * bound
    if not (math.isfinite(bound) and abs(check - bound) <= slack):
        raise ConstructionError(f"density ratio {bound!r} at aperture {eta:g} is not "
                                f"finite or disagrees with its sector point ({check!r})")
    return bound
