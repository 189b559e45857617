"""Expectation-value observables of the localized packet.

Builds <r>(t) at a fixed azimuth phi0, the closed-form planar and axial
weights I and J with their quadrature cross-checks, the magnetic-moment
expectation, and the classical spin-interpretation quantities.  The (pi, theta)
quadrature mesh is built once, at pi0 = 1, and scaled to each packet width by
:func:`momentum_grid`.  The packet's spinors are built as real arrays on it
by :func:`_drift_spinors`.  The Dirac alpha matrices are stated once, as
``_ALPHA``: :func:`_alpha_pair` pairs two spinors through them, and
:func:`drift_velocity` contracts them with the spinors' one 4x4 moment matrix,
the azimuth integrated exactly.
The shifted planar frequency is omega_zbw + s * omega_c with s = +1 for
(electron, up) and (positron, down), s = -1 otherwise.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fitting import SinusoidFit, read_tone
from .packet import K, GaussianProfile, packet_norm_constant
from .units import (LAMBDA_C, OMEGA_ZBW, TWO_PI, DimensionlessParams, cyclotron_frequency,
                    step_count)

# The quadrature grid: Gauss-Legendre, 64 polar nodes on [0, pi] and 96
# radial nodes on u = pi/pi0 in [0, 8]; the Gaussian weight is below 1e-27
# beyond u = 8.
N_THETA = 64
N_U = 96
U_MAX = 8.0

# Dirac alpha matrices, (3, 4, 4): the Pauli matrices in the off-diagonal 2x2 blocks
_ALPHA = np.zeros((3, 4, 4), dtype=complex)
_ALPHA[:, :2, 2:] = _ALPHA[:, 2:, :2] = [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
_ALPHA.flags.writeable = False


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    positions: np.ndarray  # (N, 3)


@dataclass(frozen=True)
class AmplitudeCoefficient:
    value: float


@functools.cache
def _unit_mesh() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (u, theta, weight) meshes of the grid above at pi0 = 1, built on first use."""
    xu, wu = np.polynomial.legendre.leggauss(N_U)
    xt, wt = np.polynomial.legendre.leggauss(N_THETA)
    u, theta = np.meshgrid(0.5 * U_MAX * (xu + 1.0), 0.5 * math.pi * (xt + 1.0), indexing="ij")
    w = np.outer(0.5 * U_MAX * wu, 0.5 * math.pi * wt) * u**2 * np.sin(theta)
    for mesh in (u, theta, w):
        mesh.flags.writeable = False
    return u, theta, w


def momentum_grid(pi0: float):
    """(pi, theta, weight) meshes for d^3pi = pi^2 sin(theta) dpi dtheta dphi on the grid above.

    The weight includes pi^2 sin(theta) and the radial/polar Gauss-Legendre
    weights, but not the 2*pi azimuthal factor.  pi = pi0 u scales the cached
    unit mesh, so the weight scales as pi0^3; theta is the cached read-only mesh.
    """
    u, theta, w = _unit_mesh()
    return pi0 * u, theta, pi0**3 * w


def amplitude_coefficients(
    params: DimensionlessParams,
) -> tuple[AmplitudeCoefficient, AmplitudeCoefficient]:
    """Closed-form planar weight I and axial weight J (identically zero)."""
    ratio = cyclotron_frequency(params) / OMEGA_ZBW
    sign = params.spin_sign  # planar weight carries (1 -/+ omega_c/omega_zbw)
    value = -((8.0 * math.pi) ** -0.5) * (LAMBDA_C / params.r0_over_lambda) * (1.0 - sign * ratio)
    return AmplitudeCoefficient(value=value), AmplitudeCoefficient(value=0.0)


def amplitude_coefficients_quadrature(params: DimensionlessParams) -> tuple[float, float]:
    """Direct 2-D quadrature of the defining (pi, theta) double integrals."""
    g = GaussianProfile.for_packet_width(params.r0_over_lambda)
    pi_m, th_m, w_m = momentum_grid(g.pi0)
    f2 = g.value(pi_m) ** 2
    ratio = cyclotron_frequency(params) / OMEGA_ZBW
    sign = params.spin_sign
    # the integrands carry pi^3 sin^2(theta) and pi^3 sin(2 theta); w_m holds pi^2 sin(theta)
    i_val = -2.0 * (1.0 - sign * ratio) * float(np.sum(w_m * f2 / 2.0 * pi_m * np.sin(th_m)))
    j_val = -math.pi * float(np.sum(w_m * f2 * pi_m * np.cos(th_m)))
    return i_val, j_val


def shifted_frequency(params: DimensionlessParams) -> float:
    """Planar rotation frequency omega_zbw + s * omega_c."""
    s = params.spin_sign * params.charge_sign
    return OMEGA_ZBW + s * cyclotron_frequency(params)


def position_expectation(params: DimensionlessParams, t: float | np.ndarray) -> np.ndarray:
    """<r>(t) at the fixed azimuth phi0 in Compton-wavelength units; shape (3,) or (N, 3).

    Only the planar rotation contributes, since the axial weight J vanishes,
    so only the x and y columns are evaluated and z stays +0.0, also at a
    NaN t.  The planar columns are added onto zeros, which turns a -0.0
    into 0.0.
    """
    ts = np.asarray(t, dtype=float)
    phase0 = params.spin_sign * params.phi0  # spin-down enters with -phi
    phase = np.array([phase0, phase0 - math.pi / 2.0])
    out = np.zeros(ts.shape + (3,))
    out[..., :2] += LAMBDA_C / 2.0 * np.sin(shifted_frequency(params) * ts[..., None] + phase)
    return out


def quantum_trajectory(params: DimensionlessParams, t_max: float | None = None,
                       dt: float | None = None) -> Trajectory:
    """Uniformly sampled <r>(t); defaults to 100 periods at 100 samples each."""
    if dt is None:
        dt = TWO_PI / (100.0 * OMEGA_ZBW)
    if t_max is None:
        t_max = 100.0 * TWO_PI / OMEGA_ZBW
    times = dt * np.arange(step_count(t_max, dt, "t_max") + 1)
    return Trajectory(times=times, positions=position_expectation(params, times))


def extract_frequency(traj: Trajectory) -> SinusoidFit:
    """The x component's single tone, read by :func:`zbwsim.fitting.read_tone`."""
    return read_tone(traj.times, traj.positions[:, 0])


def magnetic_moment_expectation(params: DimensionlessParams, t: float | np.ndarray) -> np.ndarray:
    """<mu>(t) in units of |e| lambda_c; only the z component survives.

    mu_z trembles at the packet's own planar frequency, :func:`shifted_frequency`,
    for either charge.  Its sign, -spin_sign for every cell, is the electron's;
    for positrons the sign is unverified.
    """
    ts = np.asarray(t, dtype=float)
    mu_z = -params.spin_sign * 0.5 * (1.0 - np.cos(shifted_frequency(params) * ts))
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


def _alpha_pair(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Complex c1^dag alpha_i c2 for arrays of 4-spinors (..., 4); returns (..., 3)."""
    c1 = np.conj(c1)
    return np.stack([np.einsum("...a,...a->...", c1 @ alpha, c2) for alpha in _ALPHA], axis=-1)


def _drift_spinors(params: DimensionlessParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unnormalized spinors c0 + c1 e^{i phi} of pos_up, neg_up, neg_down on the (pi, theta) grid.

    The first-order amplitudes of the spin-up localized packet with profile f:
    pos_up = f (1, 0, K pi_z, K pi_+), neg_up = f (0, 0, -K pi_z, 0) and
    neg_down = f (0, 0, 0, -K pi_+), which sum to f (1, 0, 0, 0).  Only
    pi_+ = pi sin(theta) e^{i phi} carries the azimuth, as the separate factor
    on c1, so c0 and c1 are real.  Returns c0 and c1, each a float
    (3, nu, nt, 4) array, and the :func:`momentum_grid` weights.
    """
    g = GaussianProfile.for_packet_width(params.r0_over_lambda)
    pi_m, th_m, w_m = momentum_grid(g.pi0)
    f = g.value(pi_m)
    kz = K * pi_m * np.cos(th_m) * f
    kp = K * pi_m * np.sin(th_m) * f
    c0 = np.zeros((3,) + f.shape + (4,))
    c1 = np.zeros_like(c0)
    c0[0, ..., 0] = f
    c0[0, ..., 2] = kz
    c0[1, ..., 2] = -kz
    c1[0, ..., 3] = kp
    c1[2, ..., 3] = -kp
    return c0, c1, w_m


def drift_velocity(params: DimensionlessParams) -> np.ndarray:
    """Linear drift term of <r-dot> over the whole azimuth; vanishes for the localized state.

    Each spinor is c = c0 + c1 e^{i phi} with c0 and c1 real (:func:`_drift_spinors`).
    The cross terms of c^dag alpha c carry e^{+-i phi} and integrate to zero
    over the azimuth, so the drift is 2 pi Re(alpha : M), alpha:M =
    sum_ab alpha_ab M_ab, with M = sum w (c0 c0^T + c1 c1^T) one real 4x4
    moment matrix over the three spinors and the (pi, theta) grid.  Returns (3,).

    For the packet, c0 fills components 0 and 2 and c1 only component 3, so
    c1 reaches only M_33, on alpha's zero diagonal blocks, and the drift is
    (0, 0, 4 pi sum w f K pi cos(theta) f): x and y are exactly 0.0, and z is
    the cos(theta) moment that J also integrates, which cancels over the
    grid's theta nodes, symmetric about pi/2.  The packet's drift therefore
    checks neither c1 nor the planar entries of alpha.
    """
    c0, c1, w_m = _drift_spinors(params)
    w = np.broadcast_to(w_m, c0.shape[:-1]).reshape(-1, 1)
    a, b = c0.reshape(-1, 4), c1.reshape(-1, 4)
    moment = a.T @ (w * a) + b.T @ (w * b)
    return TWO_PI * (_ALPHA.real.reshape(3, 16) @ moment.reshape(16))


def packet_normalization(params: DimensionlessParams) -> float:
    """Quadrature check of the joint amplitude normalization (should be 1)."""
    g = GaussianProfile.for_packet_width(params.r0_over_lambda)
    pi_m, th_m, w_m = momentum_grid(g.pi0)
    norm = packet_norm_constant(g)
    f2 = g.value(pi_m) ** 2
    dens = f2 * (1.0 + 2.0 * K**2 * pi_m**2) / norm**2
    return TWO_PI * float(np.sum(w_m * dens))


__all__ = [
    "AmplitudeCoefficient",
    "SpinInterpretation",
    "Trajectory",
    "amplitude_coefficients",
    "amplitude_coefficients_quadrature",
    "drift_velocity",
    "extract_frequency",
    "magnetic_moment_expectation",
    "momentum_grid",
    "packet_normalization",
    "position_expectation",
    "quantum_trajectory",
    "shifted_frequency",
    "spin_interpretation",
]
