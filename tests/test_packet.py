import math

import numpy as np
import pytest

from zbwsim.expectation import _drift_spinors, momentum_grid
from zbwsim.packet import (
    K,
    DegenerateDenominatorError,
    GaussianProfile,
    ImaginaryEnergyError,
    KFactors,
    LandauLevel,
    MomentumPoint,
    exact_packet_coefficients,
    k_factors,
    landau_energy,
    packet_norm_constant,
    weak_field_frequencies,
)
from zbwsim.units import DimensionlessParams

K_FREE = KFactors(k1=0.5, k2=0.5)


def test_gaussian_profile_peak_value():
    g = GaussianProfile(pi0=1.0)
    # (2/pi)^{3/4} at the origin
    assert g.value(0.0) == pytest.approx((2.0 / math.pi) ** 0.75, rel=1e-12)
    assert g.value(1.0) == pytest.approx((2.0 / math.pi) ** 0.75 * math.exp(-1.0), rel=1e-12)


def test_gaussian_profile_l2_normalization():
    """int f^2 d^3pi = 1, checked on the shared quadrature grid."""
    g = GaussianProfile.for_packet_width(100.0)
    pi_m, _, w_m = momentum_grid(g.pi0)
    total = 2.0 * math.pi * np.sum(w_m * g.value(pi_m) ** 2)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_k_factors_values_and_ordering():
    k = k_factors(DimensionlessParams(epsilon=-1e-3))
    # Omega = -epsilon = +1e-3
    assert k.k1 == pytest.approx(1.0 / 1.999, rel=1e-12)
    assert k.k2 == pytest.approx(1.0 / 2.001, rel=1e-12)
    assert k.k2 < K < k.k1
    k0 = k_factors(DimensionlessParams(epsilon=0.0))
    assert k0.k1 == k0.k2 == K == 0.5


def _spinors_at(params, phi):
    """The (pos_up, neg_up, neg_down) spinors of the packet at azimuth phi, (3, nu, nt, 4)."""
    c0, c1, _ = _drift_spinors(params)
    return c0 + c1 * np.exp(1j * phi)


def test_drift_spinors_sum_to_localized_state():
    """The three columns add up to the localized spin-up state f (1, 0, 0, 0).

    The negative-energy columns cancel the lower components of pos_up exactly,
    so each column's momentum dependence is tied to the others'.
    """
    g = GaussianProfile.for_packet_width(10.0)
    pi_m, _, _ = momentum_grid(g.pi0)
    for epsilon in (0.0, -1e-2):
        c = _spinors_at(DimensionlessParams(epsilon=epsilon, r0_over_lambda=10.0), 2.0)
        total = c.sum(axis=0)
        np.testing.assert_allclose(total[..., 0], g.value(pi_m), rtol=1e-15, atol=0.0)
        assert np.max(np.abs(total[..., 1:])) <= 1e-15 * np.max(np.abs(c))


def test_spinor_trivial_momentum():
    """pos_up / f has upper half (1, 0) and a lower half of size K pi on every node.

    So it goes to the rest spinor (1, 0, 0, 0) as pi -> 0, linearly in pi.
    """
    for epsilon in (0.0, -1e-2):
        params = DimensionlessParams(epsilon=epsilon, r0_over_lambda=10.0)
        g = GaussianProfile.for_packet_width(params.r0_over_lambda)
        pi_m, _, _ = momentum_grid(g.pi0)
        u = _spinors_at(params, 0.7)[0] / g.value(pi_m)[..., None]
        assert np.max(np.abs(u[..., 0] - 1.0)) <= 1e-15 and np.all(u[..., 1] == 0.0)
        lower = np.linalg.norm(u[..., 2:], axis=-1)
        np.testing.assert_allclose(lower, K * pi_m, rtol=1e-14, atol=0.0)


def test_spinor_axial_momentum():
    """In free space pos_up / f = (1, 0, pi_z/2, pi_+/2) and neg_up / f = (0, 0, -pi_z/2, 0).

    Along the axis (pi_z = 1) pos_up / f is (1, 0, 0.5, 0).
    """
    params = DimensionlessParams(epsilon=0.0, r0_over_lambda=10.0)
    g = GaussianProfile.for_packet_width(params.r0_over_lambda)
    pi_m, th_m, _ = momentum_grid(g.pi0)
    phi = 0.7
    c = _spinors_at(params, phi) / g.value(pi_m)[..., None]
    pz, pp = pi_m * np.cos(th_m), pi_m * np.sin(th_m) * np.exp(1j * phi)
    one, zero = np.ones_like(pz), np.zeros_like(pz)
    np.testing.assert_allclose(c[0], np.stack([one, zero, 0.5 * pz, 0.5 * pp], axis=-1),
                               rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(c[1], np.stack([zero, zero, -0.5 * pz, zero], axis=-1),
                               rtol=1e-14, atol=0.0)


def test_pos_up_column_solves_free_dirac_equation():
    """pos_up / f is the positive-energy spin-up Dirac spinor to first order in K pi.

    With u = (chi, eta), (alpha.pi + beta) u = (chi + sigma.pi eta, sigma.pi chi - eta)
    must equal E u, E = sqrt(1 + pi^2).  The K = 1/2 spinor leaves a residual
    of pi (E - 1) / 2 ~ pi^3 / 4 in the lower half; a wrong lower component
    would leave O(pi).  At pi -> 0 this is the rest spinor (1, 0, 0, 0).
    """
    params = DimensionlessParams(epsilon=-1e-3, r0_over_lambda=10.0)
    g = GaussianProfile.for_packet_width(params.r0_over_lambda)
    pi_m, th_m, _ = momentum_grid(g.pi0)
    phi = 0.7
    u = _spinors_at(params, phi)[0] / g.value(pi_m)[..., None]
    assert np.max(np.abs(u[..., 0] - 1.0)) <= 1e-15 and np.all(u[..., 1] == 0.0)
    pz, pp = pi_m * np.cos(th_m), pi_m * np.sin(th_m) * np.exp(1j * phi)
    a, b, c, d = np.moveaxis(u, -1, 0)
    hu = np.stack([a + pz * c + pp.conj() * d, b + pp * c - pz * d,
                   pz * a + pp.conj() * b - c, pp * a - pz * b - d], axis=-1)
    energy = np.sqrt(1.0 + pi_m**2)[..., None]
    residual = np.linalg.norm(hu - energy * u, axis=-1)
    assert np.all(residual <= 0.3 * pi_m**3)


def test_opposite_energy_spinors_orthogonal_at_zero_field():
    """pos_up is orthogonal to both negative-energy columns to first order in K pi."""
    params = DimensionlessParams(epsilon=0.0, r0_over_lambda=10.0)
    g = GaussianProfile.for_packet_width(params.r0_over_lambda)
    pi_m, _, _ = momentum_grid(g.pi0)
    f2 = g.value(pi_m) ** 2
    for phi in (0.0, 1.1, 4.0):
        pos, neg_up, neg_down = _spinors_at(params, phi)
        for neg in (neg_up, neg_down):
            overlap = np.abs(np.sum(pos.conj() * neg, axis=-1))
            assert np.all(overlap <= (0.5 * pi_m) ** 2 * f2 * (1.0 + 1e-12))


def test_exact_coefficients_equal_k_gives_zero_b():
    k = KFactors(k1=0.5, k2=0.5)
    p = MomentumPoint(0.2, 1.1, 0.4)
    co = exact_packet_coefficients(p, k)
    assert co.b == 0.0


def test_exact_coefficients_zero_momentum():
    co = exact_packet_coefficients(MomentumPoint(0.0, 0.0, 0.0), K_FREE)
    assert co.a == pytest.approx(1.0)
    assert co.c == 0.0 and co.d == 0.0


def test_exact_coefficients_degenerate_denominator():
    """K1 = -K2 = 1 at pi = 1 in the plane: Gamma = (1 - rho^2)^2 rounds to exactly 0."""
    with pytest.raises(DegenerateDenominatorError, match="Gamma"):
        exact_packet_coefficients(MomentumPoint(1.0, math.pi / 2, 0.0), KFactors(1.0, -1.0))


def test_exact_coefficients_small_b_bound():
    k = KFactors(k1=0.49975, k2=0.50025)
    p = MomentumPoint(0.1, 0.0, 0.0)  # pi_z = 0.1, pi_pm = 0
    co = exact_packet_coefficients(p, k)
    assert abs(co.b) <= 1e-4


def test_exact_coefficients_rough_limit():
    """With K1 = K2 = K the exact weights reduce to the packet's spinors on the grid.

    At zero field the exact a, c and d are the pos_up upper, neg_up and
    neg_down amplitudes of :func:`_drift_spinors` over (1 + K^2 pi^2) times the
    profile value g(pi), and b vanishes.
    """
    params = DimensionlessParams(epsilon=0.0, r0_over_lambda=100.0)
    g = GaussianProfile.for_packet_width(params.r0_over_lambda)
    pi_m, th_m, _ = momentum_grid(g.pi0)
    phi = 2.0
    c = _spinors_at(params, phi)
    for node in ((20, 17), (48, 40), (70, 5)):
        p = MomentumPoint(pi_m[node], th_m[node], phi)
        co = exact_packet_coefficients(p, k_factors(params))
        denom = (1.0 + 0.25 * p.pi**2) * g.value(p.pi)
        assert co.a == pytest.approx(c[(0,) + node + (0,)].real / denom, rel=1e-12)
        assert co.b == 0.0
        assert co.c == pytest.approx(c[(1,) + node + (2,)] / denom, rel=1e-12)
        assert co.d == pytest.approx(c[(2,) + node + (3,)] / denom, rel=1e-12)


def test_exact_coefficient_deviation_scales_linearly_in_epsilon():
    """|exact(eps) - exact(0)| is first order in epsilon (log-log slope 1)."""
    p = MomentumPoint(0.03, 0.9, 1.3)
    base = exact_packet_coefficients(p, k_factors(DimensionlessParams(epsilon=0.0)))
    eps_list = [-1e-2, -1e-3, -1e-4]
    devs = []
    for eps in eps_list:
        co = exact_packet_coefficients(p, k_factors(DimensionlessParams(epsilon=eps)))
        devs.append(
            abs(co.a - base.a) + abs(co.b - base.b) + abs(co.c - base.c) + abs(co.d - base.d)
        )
    slope = np.polyfit(np.log(np.abs(eps_list)), np.log(devs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)


def test_packet_norm_constant():
    g = GaussianProfile.for_packet_width(100.0)
    n = packet_norm_constant(g)
    assert n == pytest.approx(math.sqrt(1.0 + 1.5 * 0.25 * g.pi0**2), rel=1e-14)


def test_landau_rest_energy():
    assert landau_energy(LandauLevel(n=0, l=0, p_z=0.0, s_z=0.5, ceb=0.0)) == 1.0
    # lowest aligned level stays at the rest energy for any B
    assert landau_energy(LandauLevel(n=3, l=3, p_z=0.0, s_z=0.5, ceb=0.7)) == 1.0


def test_landau_example_value():
    e = landau_energy(LandauLevel(n=1, l=-1, p_z=0.0, s_z=-0.5, ceb=0.01))
    assert e == pytest.approx(math.sqrt(1.04), rel=1e-12)


def test_landau_monotone_in_level_index():
    prev = 0.0
    for term in range(0, 9, 2):  # n - l + 1 - 2 s_z for n = term, l = 0 invalid when odd
        e = landau_energy(LandauLevel(n=term, l=-term, p_z=0.0, s_z=0.5, ceb=0.05))
        assert e >= prev
        prev = e


def test_landau_validation():
    with pytest.raises(ValueError):
        LandauLevel(n=-1, l=0, p_z=0.0, s_z=0.5, ceb=0.0)
    with pytest.raises(ValueError):
        LandauLevel(n=2, l=1, p_z=0.0, s_z=0.5, ceb=0.0)  # parity mismatch
    with pytest.raises(ValueError):
        LandauLevel(n=1, l=-1, p_z=0.0, s_z=0.3, ceb=0.0)
    with pytest.raises(ImaginaryEnergyError):
        landau_energy(LandauLevel(n=1, l=-1, p_z=0.0, s_z=-0.5, ceb=-0.5))
    for p_z, ceb in ((0.0, math.nan), (math.inf, 0.01), (math.nan, 0.01), (0.0, -math.inf)):
        with pytest.raises(ValueError):
            LandauLevel(n=0, l=0, p_z=p_z, s_z=0.5, ceb=ceb)
    with pytest.raises(OverflowError):
        landau_energy(LandauLevel(n=0, l=0, p_z=0.0, s_z=-0.5, ceb=1e308))


def test_weak_field_frequencies():
    assert weak_field_frequencies(DimensionlessParams(epsilon=0.0)) == (1.0, -1.0)
    up = weak_field_frequencies(DimensionlessParams(epsilon=-1e-3, spin="up"))
    assert up[0] == pytest.approx(1.001) and up[1] == pytest.approx(-0.999)
    dn = weak_field_frequencies(DimensionlessParams(epsilon=-1e-3, spin="down"))
    assert dn[0] == pytest.approx(0.999) and dn[1] == pytest.approx(-1.001)
