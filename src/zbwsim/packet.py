"""Momentum-space four-spinor amplitudes for a Gaussian packet in a uniform B field.

Pure pointwise evaluation: the Gaussian momentum profile, the K factors that
replace the free-particle 1/(E + mc^2) kinematics, the four spinor columns,
the exact packet-weight coefficients with their rough (weak-field,
non-relativistic) reductions, and the Landau energy spectrum.  Quadrature
grids live in :mod:`zbwsim.expectation`; momenta are commuting numbers here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .units import OMEGA_ZBW, DimensionlessParams

PI = math.pi


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

    def cartesian(self) -> np.ndarray:
        st = math.sin(self.theta)
        return self.pi * np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )

    @property
    def pi_plus(self) -> complex:
        """pi_x + i pi_y."""
        return self.pi * math.sin(self.theta) * complex(math.cos(self.phi), math.sin(self.phi))

    @property
    def pi_minus(self) -> complex:
        return self.pi_plus.conjugate()

    @property
    def pi_z(self) -> float:
        return self.pi * math.cos(self.theta)


@dataclass(frozen=True)
class GaussianProfile:
    """Gaussian momentum profile of width pi0 = 2 hbar / r0 (natural units)."""

    pi0: float

    @classmethod
    def for_packet_width(cls, r0_over_lambda: float) -> "GaussianProfile":
        return cls(pi0=2.0 / r0_over_lambda)

    def value(self, pi: float | np.ndarray) -> float | np.ndarray:
        return (2.0 / (PI * self.pi0**2)) ** 0.75 * np.exp(-((np.asarray(pi) / self.pi0) ** 2))


def gaussian_profile_value(p: MomentumPoint, g: GaussianProfile) -> float:
    if p.pi < 0.0:
        raise ValueError("momentum magnitude must be nonnegative")
    return float(g.value(p.pi))


@dataclass(frozen=True)
class KFactors:
    """Kinematic factors K1 = 1/(2 - Omega), K2 = 1/(2 + Omega), K = 1/2."""

    k1: float
    k2: float
    k: float = 0.5


def k_factors(params: DimensionlessParams) -> KFactors:
    omega_half = -params.epsilon  # Omega = omega_c / 2
    return KFactors(k1=1.0 / (2.0 - omega_half), k2=1.0 / (2.0 + omega_half))


@dataclass(frozen=True)
class SpinorAmplitude:
    components: np.ndarray  # complex, length 4
    energy_sign: str        # "positive" | "negative"
    spin: str               # "up" | "down"
    at: MomentumPoint


def build_spinor(p: MomentumPoint, spin: str, energy_sign: str, k: KFactors) -> SpinorAmplitude:
    """Unit-leading-coefficient spinor column for the given spin/energy label."""
    pz, pp, pm = p.pi_z, p.pi_plus, p.pi_minus
    if energy_sign == "positive" and spin == "up":
        comps = [1.0, 0.0, k.k2 * pz, k.k2 * pp]
    elif energy_sign == "positive" and spin == "down":
        comps = [0.0, 1.0, k.k1 * pm, -k.k1 * pz]
    elif energy_sign == "negative" and spin == "up":
        comps = [-k.k1 * pz, -k.k1 * pp, 1.0, 0.0]
    elif energy_sign == "negative" and spin == "down":
        comps = [-k.k2 * pm, k.k2 * pz, 0.0, 1.0]
    else:
        raise ValueError(f"bad labels: spin={spin!r}, energy_sign={energy_sign!r}")
    return SpinorAmplitude(
        components=np.array(comps, dtype=complex), energy_sign=energy_sign, spin=spin, at=p
    )


@dataclass(frozen=True)
class HAmplitudes:
    """Scalar stand-ins for the transverse oscillator amplitudes, one per label."""

    up_pos: float = 1.0
    up_neg: float = 1.0
    down_pos: float = 1.0
    down_neg: float = 1.0


@dataclass(frozen=True)
class PacketCoefficients:
    """Exact packet weights and their common denominator."""

    a: complex
    b: complex
    c: complex
    d: complex
    gamma: complex


def exact_packet_coefficients(
    p: MomentumPoint,
    k: KFactors,
    h: HAmplitudes = HAmplitudes(),
    f: float = 1.0,
) -> PacketCoefficients:
    """Exact rational packet weights for the spin-up localized initial state.

    Momenta are treated as commuting numbers; with equal K factors and equal
    h amplitudes these collapse to the rough weights (f, 0, -K pi_z f,
    -K pi_+ f) up to the shared 1/(1 + K^2 pi^2) denominator.
    """
    hup, hun, hdp, hdn = h.up_pos, h.up_neg, h.down_pos, h.down_neg
    k1, k2 = k.k1, k.k2
    pz, pp = p.pi_z, p.pi_plus
    rho2 = abs(pp) ** 2  # pi_+ pi_- as commuting numbers
    hprod = hup * hun * hdp * hdn

    gamma = hprod * (
        1.0
        + (k1**2 + k2**2) * pz**2
        + k1**2 * k2**2 * pz**4
        + 2.0 * k1**2 * k2**2 * pz**2 * rho2
        + 2.0 * k1 * k2 * rho2
        + k1**2 * k2**2 * rho2**2
    )
    if abs(gamma) < 1e-300:
        raise DegenerateDenominatorError(f"|Gamma| = {abs(gamma):g} at pi = {p}")

    a = hun * hdp * hdn * (1.0 + k1**2 * pz**2 + k1 * k2 * rho2) / gamma * f
    b = hup * hun * hdn * pz * pp * (k1 * k2 - k2**2) / gamma * f
    c = -hup * hdp * hdn * k2 * pz * (1.0 + k1**2 * (pz**2 + rho2)) / gamma * f
    d = -hup * hdp * hun * k2 * pp * (1.0 + k1 * k2 * (pz**2 + rho2)) / gamma * f
    return PacketCoefficients(a=a, b=complex(b), c=complex(c), d=complex(d), gamma=complex(gamma))


def reduced_packet_amplitudes(
    p: MomentumPoint, g: GaussianProfile, k: KFactors
) -> dict[str, np.ndarray]:
    """First-order packet amplitudes for the spin-up localized initial state.

    Only three labels survive the rough reduction: the positive-energy spin-up
    column and the two negative-energy columns that carry the interference.
    """
    f = gaussian_profile_value(p, g)
    pz, pp = p.pi_z, p.pi_plus
    kk = k.k
    return {
        "pos_up": f * np.array([1.0, 0.0, kk * pz, kk * pp], dtype=complex),
        "neg_up": f * np.array([0.0, 0.0, -kk * pz, 0.0], dtype=complex),
        "neg_down": f * np.array([0.0, 0.0, 0.0, -kk * pp], dtype=complex),
    }


def packet_norm_constant(g: GaussianProfile, k: KFactors) -> float:
    """sqrt of the joint norm of the reduced amplitudes, integrated analytically.

    sum |C|^2 = f^2 (1 + 2 K^2 pi^2) and <pi^2> = 3 pi0^2 / 4 under f^2.
    """
    return math.sqrt(1.0 + 1.5 * k.k**2 * g.pi0**2)


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
    e_sq = 1.0 + level.p_z**2 + level.ceb * (level.n - level.l + 1.0 - 2.0 * level.s_z)
    if e_sq < 0.0:
        raise ImaginaryEnergyError(f"E^2 = {e_sq:g} < 0")
    if e_sq == math.inf:
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
