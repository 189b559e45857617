"""Momentum-space ingredients of a Gaussian packet in a uniform B field.

The Gaussian momentum profile, the K factors that replace the free-particle
1/(E + mc^2) kinematics, the exact packet-weight coefficients at one momentum
node, the packet's joint norm, the weak-field phase rates and the Landau
energy spectrum.  The packet's spinors themselves are built on the
quadrature grid, in :func:`zbwsim.expectation._drift_spinors`; momenta are
commuting numbers here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import DimensionlessParams

K = 0.5  # the field-free kinematic factor 1/(E + m) at rest, which the packet's spinors use


class DegenerateDenominatorError(ValueError):
    """The packet-coefficient denominator vanished at a momentum node."""


class ImaginaryEnergyError(ValueError):
    """Landau E^2 came out negative for the requested quantum numbers."""


@dataclass(frozen=True)
class MomentumPoint:
    """Spherical momentum node (pi, theta, phi)."""

    pi: float
    theta: float
    phi: float


@dataclass(frozen=True)
class GaussianProfile:
    """Gaussian momentum profile of width pi0 = 2 hbar / r0 (natural units)."""

    pi0: float

    @classmethod
    def for_packet_width(cls, r0_over_lambda: float) -> "GaussianProfile":
        return cls(pi0=2.0 / r0_over_lambda)

    def value(self, pi: float | np.ndarray) -> float | np.ndarray:
        return (2.0 / (math.pi * self.pi0**2)) ** 0.75 * np.exp(-((np.asarray(pi) / self.pi0) ** 2))


@dataclass(frozen=True)
class KFactors:
    """Kinematic factors K1 = 1/(2 - Omega) and K2 = 1/(2 + Omega); at Omega = 0 both are K."""

    k1: float
    k2: float


def k_factors(params: DimensionlessParams) -> KFactors:
    omega_half = -params.epsilon  # Omega = omega_c / 2
    return KFactors(k1=1.0 / (2.0 - omega_half), k2=1.0 / (2.0 + omega_half))


@dataclass(frozen=True)
class PacketCoefficients:
    """Exact packet weights, already divided by their common denominator Gamma."""

    a: complex
    b: complex
    c: complex
    d: complex


def exact_packet_coefficients(p: MomentumPoint, k: KFactors) -> PacketCoefficients:
    """Exact rational packet weights for the spin-up localized initial state.

    The weights are per unit profile value f, which scales all four.  Momenta
    are commuting numbers, pi_z = pi cos(theta) and pi_+ = pi_x + i pi_y; with
    equal K factors the weights collapse to the rough ones (1, 0, -K pi_z,
    -K pi_+) up to the shared 1/(1 + K^2 pi^2) denominator.
    """
    k1, k2 = k.k1, k.k2
    pz = p.pi * math.cos(p.theta)
    pp = p.pi * math.sin(p.theta) * complex(math.cos(p.phi), math.sin(p.phi))
    rho2 = abs(pp) ** 2  # pi_+ pi_- as commuting numbers

    gamma = (
        1.0
        + (k1**2 + k2**2) * pz**2
        + k1**2 * k2**2 * pz**4
        + 2.0 * k1**2 * k2**2 * pz**2 * rho2
        + 2.0 * k1 * k2 * rho2
        + k1**2 * k2**2 * rho2**2
    )
    if abs(gamma) < 1e-300:
        raise DegenerateDenominatorError(f"|Gamma| = {abs(gamma):g} at pi = {p}")

    a = (1.0 + k1**2 * pz**2 + k1 * k2 * rho2) / gamma
    b = pz * pp * (k1 * k2 - k2**2) / gamma
    c = -k2 * pz * (1.0 + k1**2 * (pz**2 + rho2)) / gamma
    d = -k2 * pp * (1.0 + k1 * k2 * (pz**2 + rho2)) / gamma
    return PacketCoefficients(a=a, b=complex(b), c=complex(c), d=complex(d))


def packet_norm_constant(g: GaussianProfile) -> float:
    """sqrt of the joint norm of the reduced amplitudes, integrated analytically.

    sum |C|^2 = f^2 (1 + 2 K^2 pi^2) with K = :data:`K`, and <pi^2> = 3 pi0^2 / 4 under f^2.
    """
    return math.sqrt(1.0 + 1.5 * K**2 * g.pi0**2)


@dataclass(frozen=True)
class LandauLevel:
    n: int
    l: int
    p_z: float
    s_z: float
    ceb: float  # the product c*e*B in natural energy-squared units

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be a nonnegative integer")
        if not (-self.n <= self.l <= self.n and (self.n - self.l) % 2 == 0):
            raise ValueError(f"l must lie in {{-n, -n+2, ..., n}}, got l={self.l} for n={self.n}")
        if self.s_z not in (0.5, -0.5):
            raise ValueError("s_z must be +1/2 or -1/2")
        if not (math.isfinite(self.p_z) and math.isfinite(self.ceb)):
            raise ValueError(f"p_z = {self.p_z:g} and ceb = {self.ceb:g} must be finite")


def landau_energy(level: LandauLevel) -> float:
    """Positive branch of E^2 = m^2 + p_z^2 + ceB (n - l + 1 - 2 s_z)."""
    e_sq = 1.0 + level.p_z * level.p_z + level.ceb * (level.n - level.l + 1.0 - 2.0 * level.s_z)
    if e_sq < 0.0:
        raise ImaginaryEnergyError(f"E^2 = {e_sq:g} < 0")
    if not math.isfinite(e_sq):  # inf, or NaN from inf - inf
        raise OverflowError("E^2 overflows")
    return math.sqrt(e_sq)


def weak_field_frequencies(params: DimensionlessParams) -> tuple[float, float]:
    """Phase rates (positive-energy, negative-energy) of the packet components.

    Positive-energy components evolve as exp[-i (omega + Omega sigma) t] and
    negative-energy ones as exp[+i (omega - Omega sigma) t]; returned as the
    signed angular rates (omega + Omega sigma, -(omega - Omega sigma)) with
    omega = 1, Omega = -epsilon, sigma = +/-1 by spin.
    """
    omega_half = -params.epsilon
    sigma = params.spin_sign
    return (1.0 + omega_half * sigma, -(1.0 - omega_half * sigma))
