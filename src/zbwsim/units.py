"""Natural-unit conventions, dimensionless field parameterization, SI conversion.

Everything downstream works in natural units hbar = c = m = 1, in which the
trembling-motion angular frequency is exactly 2 and the reduced Compton
wavelength is exactly 1.  The single dimensionless field parameter is

    epsilon = -omega_c / omega_zbw,

negative for a physical magnetic field along +z with the electron's charge
convention.  SI tesla values appear only at the conversion boundary.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

OMEGA_ZBW = 2.0   # 2 m c^2 / hbar
LAMBDA_C = 1.0    # hbar / (m c)

# CODATA 2018
_E_CHARGE = 1.602176634e-19     # C
_HBAR = 1.054571817e-34         # J s
_M_E = 9.1093837015e-31         # kg
_C = 2.99792458e8               # m / s

# |epsilon| per tesla: (e B / m) / (2 m c^2 / hbar)
_EPSILON_PER_TESLA = _E_CHARGE * _HBAR / (2.0 * _M_E**2 * _C**2)

EPSILON_MAX = 0.1        # weak-field validity bound
R0_MIN = 10.0            # packet width must stay well above the Compton scale
R0_MAX = 1e12            # the quadratures match their closed forms to 1e-14 up to 1e100

SPINS = ("up", "down")
CHARGES = ("electron", "positron")

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DimensionlessParams:
    """Single source of truth for a simulation configuration."""

    epsilon: float
    spin: str = "up"
    charge: str = "electron"
    r0_over_lambda: float = 100.0
    phi0: float = 0.0

    def __post_init__(self) -> None:
        if self.spin not in SPINS:
            raise ValueError(f"spin must be one of {SPINS}, got {self.spin!r}")
        if self.charge not in CHARGES:
            raise ValueError(f"charge must be one of {CHARGES}, got {self.charge!r}")
        if not abs(self.epsilon) < EPSILON_MAX:
            raise ValueError(
                f"|epsilon| = {abs(self.epsilon):g} outside weak-field regime (< {EPSILON_MAX})"
            )
        if not R0_MIN <= self.r0_over_lambda <= R0_MAX:  # NaN fails too
            raise ValueError(
                f"r0_over_lambda = {self.r0_over_lambda:g} must lie in [{R0_MIN:g}, {R0_MAX:g}]"
            )
        if not math.isfinite(self.phi0):
            raise ValueError(f"phi0 = {self.phi0:g} must be finite")
        object.__setattr__(self, "phi0", self.phi0 % TWO_PI)

    @property
    def spin_sign(self) -> float:
        """+1 for spin up, -1 for spin down."""
        return 1.0 if self.spin == "up" else -1.0

    @property
    def charge_sign(self) -> float:
        """+1 for electron, -1 for positron (shift-formula label, not e itself)."""
        return 1.0 if self.charge == "electron" else -1.0


def epsilon_from_tesla(b: float) -> float:
    """Dimensionless epsilon for a lab-frame flux density b in tesla.

    epsilon = -omega_c / omega_zbw = -(e B / m) / (2 m c^2 / hbar), which is
    -mu_B B / (m c^2) via the Bohr magneton.
    """
    if not b >= 0.0:  # NaN fails too
        raise ValueError(f"B = {b:g} T must be nonnegative")
    eps = -_EPSILON_PER_TESLA * b
    if abs(eps) >= EPSILON_MAX:
        raise ValueError(
            f"B = {b:g} T gives |epsilon| = {abs(eps):g}, outside the validated regime"
        )
    return eps


def cyclotron_frequency(params: DimensionlessParams) -> float:
    """omega_c = -epsilon * omega_zbw in natural units; >= 0 for epsilon <= 0."""
    return -params.epsilon * OMEGA_ZBW


def physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not report them."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def step_count(span: float, dt: float, span_name: str, values: int) -> int:
    """Number of dt steps that cover [0, span], after checking both.

    values is how many float64 values the caller allocates per sample.
    Raises ValueError unless dt > 0 and span >= 0 are finite, OverflowError
    when no array of that many float64 samples has a size, and MemoryError
    when the caller's arrays would exceed physical memory, before any exists.
    """
    if not (math.isfinite(dt) and math.isfinite(span)) or dt <= 0.0 or span < 0.0:
        raise ValueError(f"need finite dt > 0 and {span_name} >= 0, got dt = {dt:g}, "
                         f"{span_name} = {span:g}")
    steps = span / dt
    if not steps < sys.maxsize / 8:
        raise OverflowError(f"{span_name} / dt = {span:g} / {dt:g} = {steps:g} steps, "
                            "more than a float64 array can hold")
    n = int(round(steps))
    need, have = 8 * values * (n + 1), physical_memory()
    if need > have:
        raise MemoryError(f"{span_name} / dt = {span:g} / {dt:g} needs {need:,} bytes "
                          f"for its {n + 1:,} samples, more than the {have:,} bytes "
                          "of physical memory")
    return n
