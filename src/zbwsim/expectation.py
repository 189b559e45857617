"""Expectation-value observables of the localized packet.

Builds <r>(t) for a fixed azimuthal Fourier component, the closed-form
oscillation weights with their quadrature cross-checks, the magnetic-moment
expectation, and the classical spin-interpretation quantities.  The shifted
planar frequency is omega_zbw + s * omega_c with s = +1 for (electron, up)
and (positron, down), s = -1 otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fitting import FitFailureError, SinusoidFit, fit_sinusoid
from .packet import (
    GaussianProfile,
    KFactors,
    MomentumPoint,
    gaussian_profile_value,
    k_factors,
    packet_norm_constant,
    reduced_packet_amplitudes,
)
from .units import LAMBDA_C, OMEGA_ZBW, DimensionlessParams, cyclotron_frequency, step_count

PI = math.pi
TWO_PI = 2.0 * PI

# Default quadrature grid: Gauss-Legendre, 64 polar nodes on [0, pi] and 96
# radial nodes on u = pi/pi0 in [0, 8]; the Gaussian weight is below 1e-27
# beyond u = 8.
N_THETA = 64
N_U = 96
U_MAX = 8.0


@dataclass(frozen=True)
class OscillatorTerm:
    """One Fourier contribution: amplitude * sin(omega t + phase), per component."""

    amplitude: np.ndarray  # (3,)
    omega: float
    phase: np.ndarray      # (3,)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    positions: np.ndarray  # (N, 3)
    params: DimensionlessParams


@dataclass(frozen=True)
class BilinearFactors:
    l1: np.ndarray     # (3,) weight density
    l2: np.ndarray     # (3,)
    phase: np.ndarray  # (3,)


@dataclass(frozen=True)
class AmplitudeCoefficient:
    value: float
    spin: str
    kind: str  # "planar" | "axial"


def momentum_grid(pi0: float, n_theta: int = N_THETA, n_u: int = N_U, u_max: float = U_MAX):
    """(pi, theta, weight) meshes for d^3pi = pi^2 sin(theta) dpi dtheta dphi.

    The weight includes pi^2 sin(theta) and the radial/polar Gauss-Legendre
    weights, but not the 2*pi azimuthal factor.
    """
    xu, wu = np.polynomial.legendre.leggauss(n_u)
    u = 0.5 * u_max * (xu + 1.0)
    wu = 0.5 * u_max * wu * pi0  # dpi = pi0 du
    xt, wt = np.polynomial.legendre.leggauss(n_theta)
    theta = 0.5 * PI * (xt + 1.0)
    wt = 0.5 * PI * wt
    pi_m, th_m = np.meshgrid(pi0 * u, theta, indexing="ij")
    w_m = np.outer(wu, wt) * pi_m**2 * np.sin(th_m)
    return pi_m, th_m, w_m


def bilinear_factors(p: MomentumPoint, g: GaussianProfile) -> BilinearFactors:
    """First-order interference weight densities at one momentum node."""
    f2 = gaussian_profile_value(p, g) ** 2
    planar = -f2 * p.pi * math.sin(p.theta) / 2.0
    axial = -f2 * p.pi * math.cos(p.theta) / 2.0
    return BilinearFactors(
        l1=np.array([planar, planar, 0.0]),
        l2=np.array([0.0, 0.0, axial]),
        phase=np.array([p.phi, p.phi + PI / 2.0, 0.0]),
    )


def amplitude_coefficients(
    params: DimensionlessParams,
) -> tuple[AmplitudeCoefficient, AmplitudeCoefficient]:
    """Closed-form planar weight I and axial weight J (identically zero)."""
    ratio = cyclotron_frequency(params) / OMEGA_ZBW
    sign = params.spin_sign  # planar weight carries (1 -/+ omega_c/omega_zbw)
    value = -((8.0 * PI) ** -0.5) * (LAMBDA_C / params.r0_over_lambda) * (1.0 - sign * ratio)
    return (
        AmplitudeCoefficient(value=value, spin=params.spin, kind="planar"),
        AmplitudeCoefficient(value=0.0, spin=params.spin, kind="axial"),
    )


def amplitude_coefficients_quadrature(params: DimensionlessParams) -> tuple[float, float]:
    """Direct 2-D quadrature of the defining (pi, theta) double integrals."""
    g = GaussianProfile.for_packet_width(params.r0_over_lambda)
    pi_m, th_m, _ = momentum_grid(g.pi0)
    # radial/polar weights without the pi^2 sin(theta) volume factor
    xu, wu = np.polynomial.legendre.leggauss(N_U)
    wu = 0.5 * U_MAX * wu * g.pi0
    xt, wt = np.polynomial.legendre.leggauss(N_THETA)
    wt = 0.5 * PI * wt
    w2 = np.outer(wu, wt)
    f2 = g.value(pi_m) ** 2
    ratio = cyclotron_frequency(params) / OMEGA_ZBW
    sign = params.spin_sign
    i_val = -2.0 * (1.0 - sign * ratio) * float(
        np.sum(w2 * f2 / 2.0 * pi_m**3 * np.sin(th_m) ** 2)
    )
    j_val = -PI * float(np.sum(w2 * f2 / 2.0 * pi_m**3 * np.sin(2.0 * th_m)))
    return i_val, j_val


def shifted_frequency(params: DimensionlessParams) -> float:
    """Planar rotation frequency omega_zbw + s * omega_c."""
    s = params.spin_sign * params.charge_sign
    return OMEGA_ZBW + s * cyclotron_frequency(params)


def oscillator_terms(params: DimensionlessParams) -> list[OscillatorTerm]:
    """Fourier terms of <r>(t) at the fixed azimuth phi0.

    Only the planar rotation contributes: the axial weight J vanishes.
    """
    omega = shifted_frequency(params)
    phase0 = params.spin_sign * params.phi0  # spin-down enters with -phi
    planar = OscillatorTerm(
        amplitude=np.array([LAMBDA_C / 2.0, LAMBDA_C / 2.0, 0.0]),
        omega=omega,
        phase=np.array([phase0, phase0 - PI / 2.0, 0.0]),
    )
    return [planar]


def position_expectation(params: DimensionlessParams, t: float | np.ndarray) -> np.ndarray:
    """<r>(t) in Compton-wavelength units; shape (3,) or (N, 3)."""
    ts = np.asarray(t, dtype=float)
    out = np.zeros(ts.shape + (3,))
    for term in oscillator_terms(params):
        out += term.amplitude * np.sin(term.omega * ts[..., None] + term.phase)
    return out


def quantum_trajectory(params: DimensionlessParams, t_max: float | None = None,
                       dt: float | None = None) -> Trajectory:
    """Uniformly sampled <r>(t); defaults to 100 periods at 100 samples each."""
    if dt is None:
        dt = TWO_PI / (100.0 * OMEGA_ZBW)
    if t_max is None:
        t_max = 100.0 * TWO_PI / OMEGA_ZBW
    times = dt * np.arange(step_count(t_max, dt, "t_max") + 1)
    return Trajectory(times=times, positions=position_expectation(params, times), params=params)


def extract_frequency(traj: Trajectory) -> SinusoidFit:
    """Single-sinusoid fit of the trajectory's x component."""
    return fit_sinusoid(traj.times, traj.positions[:, 0])


def magnetic_moment_expectation(params: DimensionlessParams, t: float | np.ndarray) -> np.ndarray:
    """<mu>(t) in units of |e| lambda_c; only the z component survives."""
    ts = np.asarray(t, dtype=float)
    omega = OMEGA_ZBW + params.spin_sign * cyclotron_frequency(params)
    mu_z = -params.spin_sign * 0.5 * (1.0 - np.cos(omega * ts))
    out = np.zeros(ts.shape + (3,))
    out[..., 2] = mu_z
    return out


@dataclass(frozen=True)
class SpinInterpretation:
    r_zbw: float
    v_zbw: float
    s_zbw: float
    g: float
    zeta: float


def spin_interpretation(params: DimensionlessParams, mode: str) -> SpinInterpretation:
    """Classical circle radius/speed/angular momentum implied by the shifted frequency.

    variable_spin lets s float with the radius; fixed_spin pins s = 1/2 and
    rescales the circulation speed by zeta = 1 -/+ eps/2 instead.
    """
    eps = params.epsilon
    sgn = params.spin_sign  # upper sign of the +/- stacks below is spin up
    if mode == "variable_spin":
        return SpinInterpretation(
            r_zbw=0.5 * (1.0 + sgn * eps),
            v_zbw=1.0 - eps**2,
            s_zbw=0.5 * (1.0 + sgn * eps),
            g=2.0 * (1.0 - sgn * eps),
            zeta=1.0,
        )
    if mode == "fixed_spin":
        zeta = 1.0 - sgn * eps / 2.0
        return SpinInterpretation(
            r_zbw=0.5 * (1.0 + sgn * eps / 2.0),
            v_zbw=zeta,
            s_zbw=0.5,
            g=2.0,
            zeta=zeta,
        )
    raise ValueError(f"mode must be 'variable_spin' or 'fixed_spin', got {mode!r}")


def azimuthal_position_integral(
    params: DimensionlessParams, t: float, n_phi: int = 256
) -> np.ndarray:
    """Planar <r> integrand integrated over the full azimuth; cancels to zero."""
    phis = TWO_PI * np.arange(n_phi) / n_phi
    omega = shifted_frequency(params)
    arg = omega * t + params.spin_sign * phis
    x = 0.5 * np.sin(arg)
    y = -0.5 * np.cos(arg)
    w = TWO_PI / n_phi
    return np.array([w * x.sum(), w * y.sum(), 0.0])


# Dirac alpha matrices (2x2 block off-diagonal Pauli structure)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ALPHA = [
    np.block([[np.zeros((2, 2)), s], [s, np.zeros((2, 2))]]) for s in (_SX, _SY, _SZ)
]


def _alpha_bilinear(spinors: np.ndarray) -> np.ndarray:
    """Re(c^dag alpha_i c) for an array of 4-spinors (..., 4); returns (..., 3)."""
    a, b, c, d = (spinors[..., i] for i in range(4))
    bx = 2.0 * np.real(np.conj(a) * d + np.conj(b) * c)
    by = 2.0 * (np.imag(np.conj(a) * d) + np.imag(np.conj(c) * b))
    bz = 2.0 * (np.real(np.conj(a) * c) - np.real(np.conj(b) * d))
    return np.stack([bx, by, bz], axis=-1)


def drift_velocity(params: DimensionlessParams, n_phi: int = 64) -> np.ndarray:
    """Linear drift term of <r-dot>; vanishes for the localized initial state."""
    g = GaussianProfile.for_packet_width(params.r0_over_lambda)
    k = k_factors(params)
    pi_m, th_m, w_m = momentum_grid(g.pi0)
    phis = TWO_PI * np.arange(n_phi) / n_phi
    f = g.value(pi_m)[..., None] + 0.0 * phis
    pz = (pi_m * np.cos(th_m))[..., None] + 0.0 * phis
    pp = (pi_m * np.sin(th_m))[..., None] * np.exp(1j * phis)
    zero = np.zeros_like(pp)
    kk = k.k
    spinors = np.stack(
        [
            np.stack([f + 0j, zero, kk * pz * f + 0j, kk * pp * f], axis=-1),  # pos_up
            np.stack([zero, zero, -kk * pz * f + 0j, zero], axis=-1),          # neg_up
            np.stack([zero, zero, zero, -kk * pp * f], axis=-1),               # neg_down
        ]
    )
    dens = _alpha_bilinear(spinors).sum(axis=0)  # (nu, nt, nphi, 3)
    w = w_m[..., None, None] * (TWO_PI / n_phi)
    return np.sum(w * dens, axis=(0, 1, 2))


def packet_normalization(params: DimensionlessParams) -> float:
    """Quadrature check of the joint amplitude normalization (should be 1)."""
    g = GaussianProfile.for_packet_width(params.r0_over_lambda)
    k = k_factors(params)
    pi_m, th_m, w_m = momentum_grid(g.pi0)
    norm = packet_norm_constant(g, k)
    f2 = g.value(pi_m) ** 2
    dens = f2 * (1.0 + 2.0 * k.k**2 * pi_m**2) / norm**2
    return TWO_PI * float(np.sum(w_m * dens))


__all__ = [
    "AmplitudeCoefficient",
    "BilinearFactors",
    "FitFailureError",
    "OscillatorTerm",
    "SpinInterpretation",
    "Trajectory",
    "amplitude_coefficients",
    "amplitude_coefficients_quadrature",
    "azimuthal_position_integral",
    "bilinear_factors",
    "drift_velocity",
    "extract_frequency",
    "magnetic_moment_expectation",
    "momentum_grid",
    "oscillator_terms",
    "packet_normalization",
    "position_expectation",
    "quantum_trajectory",
    "shifted_frequency",
    "spin_interpretation",
]
