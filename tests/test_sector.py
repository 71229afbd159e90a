"""Sector-to-disk conformal map: normalization, equivariance, density bound."""

import math
import warnings

import numpy as np
import pytest

from volterra.errors import ConstructionError, DomainError
from volterra.sector import (SectorParams, build_sector_map, density_bound, density_ratio,
                             estimate_density_bound, sector_sample)

ETA = math.pi / 2

# regression values from the dense low-discrepancy oracle (nested R2 sample,
# log-uniform radii down to 0.5e-6), frozen at build time
FROZEN_BOUNDS = {
    (math.pi / 4, math.pi / 2): (1.4766707331991435, 1.498155508390842, 1.5047189250477215),
    (math.pi / 3, 2 * math.pi / 3): (1.1887535811396384, 1.2101274771086368, 1.2168195017105308),
}


def interior_sample(params, n=100):
    rs = np.linspace(0.1, 0.45, 10)
    angs = params.theta + np.linspace(-0.4, 0.4, n // 10) * params.eta
    return np.array([r * np.exp(1j * a) for r in rs for a in angs])


def test_params_validation():
    with pytest.raises(ValueError):
        SectorParams(eta=0.0)
    with pytest.raises(ValueError):
        SectorParams(eta=math.pi)
    with pytest.raises(ValueError):
        SectorParams(eta=1.0, theta=7.0)


def test_contains():
    p = SectorParams(eta=ETA, theta=0.3)
    assert p.contains(0.2 * np.exp(0.3j))
    assert not p.contains(0.0)
    assert not p.contains(1.2 * np.exp(0.3j))
    assert not p.contains(0.2 * np.exp(1j * (0.3 + ETA)))


@pytest.mark.parametrize("eta,theta", [(ETA, 0.0), (2 * math.pi / 3, 1.1), (1.0, 5.5)])
def test_normalization(eta, theta):
    m = build_sector_map(SectorParams(eta=eta, theta=theta))
    assert m.center_residual <= 1e-10
    residuals = m.vertex_residuals()
    # monotone approach to the vertex image, within 1e-3 at eps = 1e-6
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] < 1e-3


def test_rotation_equivariance():
    theta = 0.9
    m0 = build_sector_map(SectorParams(eta=ETA, theta=0.0))
    mt = build_sector_map(SectorParams(eta=ETA, theta=theta))
    w = np.exp(1j * theta)
    zs = w * interior_sample(SectorParams(eta=ETA, theta=0.0))
    dev = np.max(np.abs(mt.psi(zs) - w * m0.psi(zs / w)))
    assert dev < 1e-10


def scaled_density_by_differences(m, zs, h=1e-6):
    """``|z| |psi'| / (1 - |psi|^2)`` with psi' by a central difference."""
    fd = (m.psi(zs + h) - m.psi(zs - h)) / (2.0 * h)
    return np.abs(zs) * np.abs(fd) / (1.0 - np.abs(m.psi(zs)) ** 2)


def test_conformality_spot_check():
    # central differences of the map at h = 1e-6 must reproduce the closed-form
    # density on a 100-point interior sample
    for theta in (0.0, 1.1):
        m = build_sector_map(SectorParams(eta=ETA, theta=theta))
        zs = interior_sample(m.params)
        assert np.max(np.abs(scaled_density_by_differences(m, zs)
                             - density_ratio(m, zs))) < 1e-6


def test_image_containment_and_boundary_proximity():
    m = build_sector_map(SectorParams(eta=ETA))
    inside = np.concatenate([interior_sample(m.params), sector_sample(ETA * 0.98, 0.0, 500)])
    assert np.all(np.abs(m.psi(inside)) < 1.0)
    dens = density_ratio(m, inside)
    assert np.all(np.isfinite(dens) & (dens > 0.0))
    # samples within 1e-4 of the boundary arc (and of one straight edge)
    arc = 0.9999 * np.exp(1j * np.linspace(-0.48, 0.48, 9) * ETA)
    edge = np.linspace(0.1, 0.95, 9) * np.exp(1j * (ETA / 2 - 1e-4))
    assert np.min(np.abs(m.psi(arc))) > 0.999
    assert np.min(np.abs(m.psi(edge))) > 0.999


def test_density_positive_schwarz_pick():
    m = build_sector_map(SectorParams(eta=ETA))
    zs = interior_sample(m.params)
    assert np.all(np.abs(m.psi(zs)) < 1.0)
    assert np.all(density_ratio(m, zs) > 0.0)


def test_density_ratio_at_center_point():
    m = build_sector_map(SectorParams(eta=ETA))
    z = 0.5 + 0j
    # psi vanishes there, so the ratio is |z| |psi'(z)| = |psi'(0.5)| / 2
    assert abs(m.psi(z)) < 1e-10
    assert density_ratio(m, z) == pytest.approx(scaled_density_by_differences(m, z), rel=1e-8)


def test_density_ratio_rotation_invariant():
    theta = 2.2
    m0 = build_sector_map(SectorParams(eta=ETA, theta=0.0))
    mt = build_sector_map(SectorParams(eta=ETA, theta=theta))
    for z in (0.3 * np.exp(0.1j), 0.01 * np.exp(-0.2j)):
        a = density_ratio(m0, z)
        b = density_ratio(mt, z * np.exp(1j * theta))
        assert b == pytest.approx(a, rel=1e-10)


def test_density_ratio_outside_sector_raises():
    m = build_sector_map(SectorParams(eta=ETA))
    with pytest.raises(DomainError):
        density_ratio(m, -0.5 + 0j)


def test_estimate_monotone_and_frozen():
    for (gamma, eta), frozen in FROZEN_BOUNDS.items():
        ests = [estimate_density_bound(gamma, eta, n) for n in (10 ** 3, 10 ** 4, 10 ** 5)]
        assert ests[0] <= ests[1] <= ests[2]
        for got, want in zip(ests, frozen):
            assert got == pytest.approx(want, rel=1e-9)


def test_estimate_requires_nested_apertures():
    with pytest.raises(ValueError):
        estimate_density_bound(1.0, 1.0, 100)
    with pytest.raises(ValueError):
        estimate_density_bound(2.0, 1.0, 100)


def test_vertex_region_does_not_blow_up():
    # the 1/|z| growth of the unscaled density is absorbed by the |z| factor:
    # pushing samples far below the standard radial span stays within the bound
    gamma = math.pi / 4
    cap = FROZEN_BOUNDS[(gamma, ETA)][-1] + 1e-2
    m = build_sector_map(SectorParams(eta=ETA))
    deep = np.array([1e-7, 1e-9, 1e-11, 1e-12]) * np.exp(1j * 0.2)
    assert np.all(density_ratio(m, deep) <= cap)


def test_sample_is_nested():
    a = sector_sample(1.0, 0.0, 100)
    b = sector_sample(1.0, 0.0, 1000)
    assert np.allclose(a, b[:100], rtol=0, atol=0)


def test_small_aperture_fails_loudly_in_the_map():
    # at eta = 0.04 the half-radius point rounds to the vertex image 1
    with pytest.raises(ConstructionError):
        build_sector_map(SectorParams(eta=0.04))
    with pytest.raises(ConstructionError):
        estimate_density_bound(0.02, 0.04, 1000)


def test_small_aperture_fails_loudly_in_the_density_bound():
    # at eta = 0.1 the map builds, and the closed form, unlike the complex
    # chain it replaced, does not underflow near the vertex
    build_sector_map(SectorParams(eta=0.1))
    est = estimate_density_bound(0.05, 0.1, 1000)
    assert math.isfinite(est)
    assert est <= density_bound(0.05, 0.1)
    assert est == pytest.approx(22.2037, rel=1e-5)


def test_vertex_approach_is_finite_where_the_half_plane_point_overflows():
    # at eta = 0.06, w2 is subnormal at 1e-6 on the bisector: 1/w2 overflows,
    # so the chain must reach w4 through 1/w3, which does not
    m = build_sector_map(SectorParams(eta=0.06))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residuals = m.vertex_residuals()
    assert all(math.isfinite(r) for r in residuals)
    assert residuals[-1] < 1e-3


def test_lemma2_near_the_smallest_aperture_is_a_clean_run(capsys):
    from volterra.cli import main
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["lemma2", "--gamma", "0.0599", "--eta", "0.06"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "vertex approach residual at 1e-6: 0.000e+00" in out
    assert "status: ok" in out


@pytest.mark.parametrize("eta", [0.04, 0.1])
def test_lemma2_small_aperture_exits_one(capsys, eta):
    # eta = 0.04 fails in the map; eta = 0.1 is a clean run since the density
    # is evaluated in closed form
    from volterra.cli import main
    code = main(["lemma2", "--gamma", str(eta / 2), "--eta", str(eta)])
    out, err = capsys.readouterr()
    if eta == 0.04:
        assert code == 1
        assert err.startswith("error:")
    else:
        assert code == 0
        assert "status: ok" in out


def chain_density_mp(z, theta, eta):
    """``|z| |psi'(z)| / (1 - |psi(z)|^2)`` through the full map chain, at 60 digits.

    ``1 - |psi|^2`` is taken from the Cayley and automorphism identities, since
    it is far below 10^-60 near the vertex at small apertures.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        p, rot = mp.pi / mp.mpf(eta), mp.expj(-mp.mpf(theta))

        def chain(w):
            w1 = rot * w
            w2 = 1j * w1 ** p
            w3 = -(w2 + 1 / w2) / 2
            return w1, w2, w3, (w3 - 1j) / (w3 + 1j)

        bis = mp.expj(mp.mpf(theta))
        a = chain(bis / 2)[3]
        rho = bis * (1 - mp.conj(a)) / (1 - a)
        zz = mp.mpc(z.real, z.imag)
        w1, w2, w3, w4 = chain(zz)
        dw3 = -(1 - 1 / w2 ** 2) / 2 * 1j * p * w1 ** (p - 1) * rot
        dpsi = rho * (1 - abs(a) ** 2) / (1 - mp.conj(a) * w4) ** 2 * 2j / (w3 + 1j) ** 2 * dw3
        one_minus = (1 - abs(a) ** 2) * 4 * mp.im(w3) / abs(w3 + 1j) ** 2 \
            / abs(1 - mp.conj(a) * w4) ** 2
        return abs(zz) * abs(dpsi) / one_minus


@pytest.mark.parametrize("eta", [0.1, math.pi / 4, math.pi / 2, 2.5])
def test_density_ratio_matches_mpmath_chain(eta):
    # at the vertex scale, on the bisector, 10 % of the aperture inside either
    # edge and 5 % of the radius inside the arc.  The rounding of |z| and of
    # the rotated angle, amplified by 1/(1 - |z|) and p |tan psi|, reads up to
    # 4.2e-15 here (ulp-level input errors); closer to the boundary it alone
    # would exceed 1e-14
    theta = 1.3
    m = build_sector_map(SectorParams(eta=eta, theta=theta))
    for r in (1e-6, 0.5, 0.95):
        for offset in (0.0, -0.4 * eta, 0.4 * eta):
            z = complex(r * np.exp(1j * (theta + offset)))
            want = chain_density_mp(z, theta, eta)
            assert abs(density_ratio(m, z) - want) <= 1e-14 * want, (r, offset)


def test_exact_bound_is_approached_from_below_at_the_corner():
    gamma, eta = math.pi / 4, math.pi / 2
    m = build_sector_map(SectorParams(eta=eta))
    exact = density_bound(gamma, eta)
    gaps = 10.0 ** -np.arange(1, 9)
    corner = 0.5 * (1 - gaps) * np.exp(0.5j * gamma * (1 - gaps))
    dens = density_ratio(m, corner)
    assert np.all(np.diff(dens) > 0.0)
    assert np.all(dens < exact)
    assert dens[-1] == pytest.approx(exact, rel=1e-7)
    assert estimate_density_bound(gamma, eta, 10 ** 5) < exact


def test_density_bound_value_and_domain():
    assert density_bound(0.785, 1.571) == pytest.approx(1.5106193, abs=5e-8)
    assert density_bound(0.05, 0.1) == pytest.approx(22.2144, abs=5e-5)
    with pytest.raises(ValueError):
        density_bound(1.0, 1.0)


@pytest.mark.parametrize("theta", [0.4, 2.0, 3.9, 6.1])
def test_estimate_is_bit_identical_under_rotation(theta):
    for gamma, eta in FROZEN_BOUNDS:
        assert estimate_density_bound(gamma, eta, 10 ** 4, theta=theta) == \
            estimate_density_bound(gamma, eta, 10 ** 4)
