import math

import numpy as np
import pytest

from zbwsim.expectation import (
    ALPHA,
    amplitude_coefficients,
    amplitude_coefficients_quadrature,
    azimuthal_position_integral,
    bilinear_factors,
    drift_velocity,
    extract_frequency,
    magnetic_moment_expectation,
    packet_normalization,
    position_expectation,
    quantum_trajectory,
    shifted_frequency,
    spin_interpretation,
)
from zbwsim import fitting
from zbwsim.fitting import FitFailureError, fit_frequencies, fit_sinusoid
from zbwsim.packet import GaussianProfile, KFactors, MomentumPoint, reduced_packet_amplitudes
from zbwsim.units import DimensionlessParams

K_FREE = KFactors(k1=0.5, k2=0.5)


# ---------------------------------------------------------------- bilinears

def test_bilinear_factors_axial_node():
    g = GaussianProfile(pi0=1.0)
    p = MomentumPoint(1.0, 0.0, 0.0)
    bf = bilinear_factors(p, g)
    f2 = g.value(1.0) ** 2
    assert bf.l1[0] == 0.0 and bf.l1[1] == 0.0
    assert bf.l2[2] == pytest.approx(-f2 / 2.0, rel=1e-12)


def test_bilinear_factors_equatorial_node():
    g = GaussianProfile(pi0=1.0)
    p = MomentumPoint(1.0, math.pi / 2.0, 0.3)
    bf = bilinear_factors(p, g)
    f2 = g.value(1.0) ** 2
    assert bf.l1[0] == pytest.approx(-0.5 * f2, rel=1e-12)
    assert bf.l1[0] == bf.l1[1]
    assert bf.l2[2] == pytest.approx(0.0, abs=1e-16)
    assert np.allclose(bf.phase, [0.3, 0.3 + math.pi / 2.0, 0.0])


def test_bilinear_factors_match_raw_spinor_bilinears():
    """Independent oracle: recompute l1/l2 from C_+^dag alpha C_- directly."""
    g = GaussianProfile(pi0=0.5)
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = MomentumPoint(rng.uniform(0.01, 1.0), rng.uniform(0.1, 3.0),
                          rng.uniform(0.0, 2 * math.pi))
        amps = reduced_packet_amplitudes(p, g, K_FREE)
        pos = amps["pos_up"]
        bf = bilinear_factors(p, g)
        # keep only the leading order in K*pi of the positive column
        pos0 = np.array([pos[0], 0, 0, 0])
        for neg, (weight, phase) in (
            (amps["neg_down"], (bf.l1[0], bf.phase[0])),  # planar, x channel
            (amps["neg_up"], (bf.l2[2], 0.0)),            # axial, z channel
        ):
            axis = 0 if neg is amps["neg_down"] else 2
            raw = np.vdot(pos0, ALPHA[axis] @ neg) + np.vdot(neg, ALPHA[axis] @ pos0)
            expected = 2.0 * weight * (math.cos(phase) if axis == 0 else 1.0)
            assert raw.real == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------- amplitude coefficients

def test_amplitude_closed_form_value():
    p = DimensionlessParams(epsilon=0.0, r0_over_lambda=100.0)
    planar, axial = amplitude_coefficients(p)
    assert planar.value == pytest.approx(-((8 * math.pi) ** -0.5) / 100.0, rel=1e-12)
    assert planar.value == pytest.approx(-1.9947e-3, rel=1e-4)
    assert axial.value == 0.0


def test_amplitude_up_down_ratio():
    up, _ = amplitude_coefficients(DimensionlessParams(epsilon=-1e-3, spin="up"))
    down, _ = amplitude_coefficients(DimensionlessParams(epsilon=-1e-3, spin="down"))
    # (1 - omega_c/omega_zbw) / (1 + omega_c/omega_zbw) at omega_c = 2e-3
    assert up.value / down.value == pytest.approx(0.999 / 1.001, rel=1e-12)


@pytest.mark.parametrize("r0", [10.0, 100.0, 1000.0])
@pytest.mark.parametrize("spin", ["up", "down"])
def test_amplitude_closed_form_vs_quadrature(r0, spin):
    p = DimensionlessParams(epsilon=-1e-3, spin=spin, r0_over_lambda=r0)
    planar, _ = amplitude_coefficients(p)
    i_quad, j_quad = amplitude_coefficients_quadrature(p)
    assert i_quad == pytest.approx(planar.value, rel=1e-6)
    assert abs(j_quad) <= 1e-10


# ------------------------------------------------------------- trajectories

def test_position_at_time_zero():
    p = DimensionlessParams(epsilon=-1e-3, spin="up", phi0=0.0)
    r = position_expectation(p, 0.0)
    assert np.allclose(r, [0.0, -0.5, 0.0], atol=1e-15)


def test_fitted_frequency_spin_up_electron():
    p = DimensionlessParams(epsilon=-1e-3, spin="up", charge="electron")
    fit = extract_frequency(quantum_trajectory(p, t_max=200.0))
    assert fit.omega == pytest.approx(2.002, rel=1e-9)
    # long spans keep uniform sampling within the rounding of dt * arange(n)
    long_run = quantum_trajectory(p, t_max=1e4)
    assert len(long_run.times) == round(1e4 / (math.pi / 100.0)) + 1


def test_fitted_frequency_spin_down_positron():
    p = DimensionlessParams(epsilon=-1e-3, spin="down", charge="positron")
    fit = extract_frequency(quantum_trajectory(p, t_max=200.0))
    assert fit.omega == pytest.approx(2.002, rel=1e-9)


def test_shift_antisymmetry_from_fits():
    for charge in ("electron", "positron"):
        for spin, sgn in (("up", 1.0), ("down", -1.0)):
            p = DimensionlessParams(epsilon=-1e-3, spin=spin, charge=charge)
            s = sgn * (1.0 if charge == "electron" else -1.0)
            fit = extract_frequency(quantum_trajectory(p))
            assert fit.omega == pytest.approx(2.0 + s * 2e-3, rel=1e-6)


def test_free_limit():
    p = DimensionlessParams(epsilon=0.0)
    fit = extract_frequency(quantum_trajectory(p))
    assert fit.omega == pytest.approx(2.0, abs=1e-9)
    assert fit.amplitude == pytest.approx(0.5, abs=1e-9)


def test_phase_enters_with_spin_sign():
    up = position_expectation(DimensionlessParams(epsilon=0.0, spin="up", phi0=0.4), 0.0)
    down = position_expectation(DimensionlessParams(epsilon=0.0, spin="down", phi0=0.4), 0.0)
    assert up[0] == pytest.approx(0.5 * math.sin(0.4))
    assert down[0] == pytest.approx(-0.5 * math.sin(0.4))


# ------------------------------------------------------------------ fitting

def test_fit_sinusoid_self_consistency():
    t = np.arange(0, 50, 0.01)
    fit = fit_sinusoid(t, np.sin(2.0 * t))
    assert fit.omega == pytest.approx(2.0, abs=1e-8)
    t = np.linspace(-50.0, 0.0, 5001)  # times ending at 0 still scale the trend columns
    assert fit_sinusoid(t, np.sin(2.0 * t)).omega == pytest.approx(2.0, abs=1e-8)


def test_fit_sinusoid_shifted_tone():
    t = np.arange(0, 200, 0.03)
    fit = fit_sinusoid(t, 0.7 * np.sin(2.002 * t + 0.3) + 0.1)
    assert fit.omega == pytest.approx(2.002, rel=1e-6)
    assert fit.phase == pytest.approx(0.3, abs=1e-5)
    assert fit.amplitude == pytest.approx(0.7, rel=1e-6)
    assert fit.offset == pytest.approx(0.1, abs=1e-8)


def test_fit_sinusoid_rejects_two_tone():
    t = np.arange(0, 100, 0.01)
    y = np.sin(2.0 * t) + 0.8 * np.sin(3.1 * t)
    with pytest.raises(FitFailureError):
        fit_sinusoid(t, y)


def test_fit_sinusoid_sampling_guards(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("sampling must be checked before fitting")

    monkeypatch.setattr(fitting, "least_squares", no_fit)
    with pytest.raises(ValueError):
        fit_sinusoid(np.arange(0, 100, 4.0), np.sin(2.0 * np.arange(0, 100, 4.0)))
    t = np.arange(0, 100, 0.4)  # 7.85 samples per period of omega=2
    with pytest.raises(ValueError, match="8 samples per period"):
        fit_sinusoid(t, np.sin(2.0 * t))
    t = np.arange(0, 4, 0.01)  # just over one period of omega=2
    with pytest.raises(ValueError, match="3 periods"):
        fit_sinusoid(t, np.sin(2.0 * t))
    with pytest.raises(ValueError, match="at least 8 samples"):
        fit_sinusoid(np.zeros(1), np.zeros(1))


def test_fit_frequencies_residual_gate():
    t = np.arange(0, 100, 0.01)
    y = np.sin(2.0 * t) + 0.8 * np.sin(3.1 * t)
    fit = fit_frequencies(t, y, [2.0, 3.1])
    assert fit.freqs == pytest.approx([2.0, 3.1], rel=1e-12)
    with pytest.raises(FitFailureError):
        fit_frequencies(t, y, [2.0])


def test_fit_frequencies_sampling_guards():
    t = np.arange(0, 100, 0.01)
    with pytest.raises(ValueError, match="uniform"):
        fit_frequencies(t**1.01, np.sin(2.0 * t), [2.0])
    with pytest.raises(ValueError, match="at least 8 samples"):
        fit_frequencies(t[:7], np.sin(2.0 * t[:7]), [2.0])


# ---------------------------------------------------------- magnetic moment

def test_magnetic_moment_initial_and_average():
    p = DimensionlessParams(epsilon=-1e-3, spin="up")
    assert np.allclose(magnetic_moment_expectation(p, 0.0), 0.0)
    omega = 2.002
    t = np.linspace(0.0, 2 * math.pi / omega, 20001)
    mu = magnetic_moment_expectation(p, t)[:, 2]
    avg = np.trapezoid(mu, t) / (t[-1] - t[0])
    assert avg == pytest.approx(-0.5, abs=1e-8)


def test_magnetic_moment_down_frequency():
    p = DimensionlessParams(epsilon=-1e-3, spin="down")
    t = np.arange(0, 300, 0.02)
    mu = magnetic_moment_expectation(p, t)[:, 2]
    fit = fit_sinusoid(t, mu)
    assert fit.omega == pytest.approx(1.998, rel=1e-6)
    assert np.all(mu >= -1e-15)  # spin-down moment stays nonnegative


# ------------------------------------------------------- spin interpretation

def test_spin_interpretation_free_limit():
    for mode in ("variable_spin", "fixed_spin"):
        si = spin_interpretation(DimensionlessParams(epsilon=0.0), mode)
        assert (si.r_zbw, si.v_zbw, si.s_zbw, si.g) == (0.5, 1.0, 0.5, 2.0)


def test_spin_interpretation_variable():
    si = spin_interpretation(DimensionlessParams(epsilon=-1e-3, spin="up"), "variable_spin")
    assert si.v_zbw == pytest.approx(1.0 - 1e-6, abs=1e-15)
    assert si.s_zbw == pytest.approx(0.5 * (1.0 - 1e-3), abs=1e-15)
    assert si.g == pytest.approx(2.0 * (1.0 + 1e-3), abs=1e-15)


def test_spin_interpretation_fixed():
    si = spin_interpretation(DimensionlessParams(epsilon=-1e-3, spin="up"), "fixed_spin")
    assert si.s_zbw == 0.5
    assert si.zeta == pytest.approx(1.0 + 5e-4, abs=1e-15)


def test_variable_spin_product_invariance():
    """r_zbw * omega_shifted = 1 - eps^2 for both spins."""
    for spin in ("up", "down"):
        p = DimensionlessParams(epsilon=-3e-3, spin=spin)
        si = spin_interpretation(p, "variable_spin")
        assert si.r_zbw * shifted_frequency(p) == pytest.approx(
            1.0 - p.epsilon**2, abs=1e-12
        )


# --------------------------------------------------------------- invariants

def test_azimuthal_cancellation():
    p = DimensionlessParams(epsilon=-1e-3, spin="up")
    for t in (0.0, 1.7, 13.0):
        assert np.max(np.abs(azimuthal_position_integral(p, t))) <= 1e-10


def test_drift_velocity_vanishes():
    p = DimensionlessParams(epsilon=-1e-3, r0_over_lambda=100.0)
    assert np.max(np.abs(drift_velocity(p))) <= 1e-8


def test_packet_normalization_quadrature():
    for eps in (0.0, -1e-3, -1e-2):
        assert packet_normalization(DimensionlessParams(epsilon=eps)) == pytest.approx(
            1.0, abs=1e-8
        )
