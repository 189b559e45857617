import math

import numpy as np
import pytest

from zbwsim.expectation import momentum_grid
from zbwsim.packet import (
    GaussianProfile,
    HAmplitudes,
    ImaginaryEnergyError,
    KFactors,
    LandauLevel,
    MomentumPoint,
    build_spinor,
    exact_packet_coefficients,
    gaussian_profile_value,
    k_factors,
    landau_energy,
    packet_norm_constant,
    reduced_packet_amplitudes,
    weak_field_frequencies,
)
from zbwsim.units import DimensionlessParams

K_FREE = KFactors(k1=0.5, k2=0.5)


def test_gaussian_profile_peak_value():
    g = GaussianProfile(pi0=1.0)
    # (2/pi)^{3/4} at the origin
    assert gaussian_profile_value(MomentumPoint(0.0, 0.0, 0.0), g) == pytest.approx(
        (2.0 / math.pi) ** 0.75, rel=1e-12
    )
    assert gaussian_profile_value(MomentumPoint(1.0, 0.0, 0.0), g) == pytest.approx(
        (2.0 / math.pi) ** 0.75 * math.exp(-1.0), rel=1e-12
    )


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
    assert k.k2 < k.k < k.k1
    k0 = k_factors(DimensionlessParams(epsilon=0.0))
    assert k0.k1 == k0.k2 == k0.k == 0.5


def test_spinor_trivial_momentum():
    sp = build_spinor(MomentumPoint(0.0, 0.0, 0.0), "up", "positive", K_FREE)
    assert np.allclose(sp.components, [1, 0, 0, 0])


def test_spinor_axial_momentum():
    p = MomentumPoint(1.0, 0.0, 0.0)  # pi_z = 1
    sp = build_spinor(p, "up", "positive", K_FREE)
    assert np.allclose(sp.components, [1, 0, 0.5, 0])


def test_spinor_planar_negative_down():
    p = MomentumPoint(1.0, math.pi / 2.0, 0.0)  # pi_x = 1
    sp = build_spinor(p, "down", "negative", K_FREE)
    assert np.allclose(sp.components, [-0.5, 0, 0, 1], atol=1e-15)


def test_opposite_energy_spinors_orthogonal_at_zero_field():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = MomentumPoint(rng.uniform(0, 0.3), rng.uniform(0, math.pi),
                          rng.uniform(0, 2 * math.pi))
        for s_pos in ("up", "down"):
            for s_neg in ("up", "down"):
                a = build_spinor(p, s_pos, "positive", K_FREE).components
                b = build_spinor(p, s_neg, "negative", K_FREE).components
                # orthogonality holds to first order in K*pi
                assert abs(np.vdot(a, b)) <= 1e-10 + (0.5 * p.pi) ** 2 * 1.01


def test_exact_coefficients_equal_k_gives_zero_b():
    k = KFactors(k1=0.5, k2=0.5)
    p = MomentumPoint(0.2, 1.1, 0.4)
    co = exact_packet_coefficients(p, k)
    assert co.b == 0.0


def test_exact_coefficients_zero_momentum():
    co = exact_packet_coefficients(MomentumPoint(0.0, 0.0, 0.0), K_FREE, f=1.0)
    assert co.a == pytest.approx(1.0)
    assert co.c == 0.0 and co.d == 0.0
    assert co.gamma == pytest.approx(1.0)


def test_exact_coefficients_small_b_bound():
    k = KFactors(k1=0.49975, k2=0.50025)
    p = MomentumPoint(0.1, 0.0, 0.0)  # pi_z = 0.1, pi_pm = 0
    co = exact_packet_coefficients(p, k, f=1.0)
    assert abs(co.b) <= 1e-4


def test_exact_coefficients_rough_limit():
    """With equal h and K1 = K2 = K the exact weights reduce to the rough set."""
    g = GaussianProfile(pi0=0.02)
    p = MomentumPoint(0.015, 0.8, 2.0)
    f = gaussian_profile_value(p, g)
    co = exact_packet_coefficients(p, K_FREE, HAmplitudes(), f=f)
    rough = reduced_packet_amplitudes(p, g, K_FREE)
    # rough a/c/d are the first-order terms of the exact rational functions
    denom = 1.0 + 0.25 * p.pi**2
    assert co.a == pytest.approx(f / denom, rel=1e-12)
    assert co.c == pytest.approx((rough["neg_up"][2]).real / denom, rel=1e-12)
    assert complex(co.d) == pytest.approx(complex(rough["neg_down"][3]) / denom, rel=1e-12)


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
    n = packet_norm_constant(g, K_FREE)
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
