"""Zitterbewegung frequency shifts of an electron/positron in a uniform B field.

Two treatments of the same physical question — how the trembling-motion
frequency 2mc^2/hbar shifts in a weak uniform magnetic field — implemented
side by side: Dirac wave-packet expectation values (:mod:`zbwsim.expectation`)
and the classical spinning-particle model (:mod:`zbwsim.bz`), with the
CP-symmetry comparison in :mod:`zbwsim.symmetry`.
"""
from .units import (
    LAMBDA_C,
    OMEGA_ZBW,
    DimensionlessParams,
    cyclotron_frequency,
    epsilon_from_tesla,
)

__version__ = "0.1.0"

__all__ = [
    "LAMBDA_C",
    "OMEGA_ZBW",
    "DimensionlessParams",
    "cyclotron_frequency",
    "epsilon_from_tesla",
    "__version__",
]
