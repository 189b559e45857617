"""Frequency-shift tables, CP-antisymmetry verdicts, and the cross-approach report.

A shift is always Delta_omega = omega_measured - omega_reference with the
reference +omega_zbw for particles and -omega_zbw for antiparticles.  Every
table is four (charge, spin) cells, and each approach states one cell rule:
- quantum: the wave-packet expectation values' shift s * omega_c, with
  s = +1 for (electron, up) and (positron, down), s = -1 otherwise;
- classical: the signed fast modes of the same-spin run, the positive one
  against +omega_zbw for the particle cell and the negative one against
  -omega_zbw for the antiparticle cell (the model has no separate
  antiparticle simulation protocol).  The modes are the characteristic-cubic
  roots (exact or rough), or, in the fitted table, fits to integrated
  trajectories.
CP antisymmetry is operationalized as sign flip of the shift under spin flip
and under particle/antiparticle exchange.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .bz import characteristic_cubic, perturbative_roots, solve_cubic_exact, spectral_frequencies
from .expectation import extract_frequency, quantum_trajectory
from .units import OMEGA_ZBW, CHARGES, SPINS, DimensionlessParams, cyclotron_frequency

ZERO_SHIFT = 4.0 * math.ulp(OMEGA_ZBW)  # largest |shift| that is rounding of omega - omega_zbw

CELL_ORDER = (
    ("electron", "up"),
    ("electron", "down"),
    ("positron", "up"),
    ("positron", "down"),
)


@dataclass(frozen=True)
class ShiftCell:
    charge: str
    spin: str
    delta_omega: float


@dataclass(frozen=True)
class ShiftTable:
    approach: str
    epsilon: float
    cells: tuple[ShiftCell, ...]

    def cell(self, charge: str, spin: str) -> ShiftCell:
        for c in self.cells:
            if c.charge == charge and c.spin == spin:
                return c
        raise KeyError((charge, spin))


@dataclass(frozen=True)
class CPReport:
    spin_flip_antisymmetric: bool
    charge_conjugation_antisymmetric: bool
    asymmetry_ratio: float  # |Delta(up)| / |Delta(down)| on the electron rows
    verdict: str            # "cp_respected" | "cp_violated"


def _table(approach: str, params: DimensionlessParams, shift) -> ShiftTable:
    """The four-cell table whose (charge, spin) cell is shift(params at that charge and spin)."""
    cells = tuple(ShiftCell(ch, sp, shift(replace(params, charge=ch, spin=sp)))
                  for ch, sp in CELL_ORDER)
    return ShiftTable(approach=approach, epsilon=params.epsilon, cells=cells)


def _fast_mode_shift(p: DimensionlessParams, positive: float, negative: float) -> float:
    """A classical cell from the signed fast modes of its same-spin run.

    Particle cells read the positive fast mode against +omega_zbw;
    antiparticle cells read the negative fast mode against -omega_zbw.
    """
    return positive - OMEGA_ZBW if p.charge == "electron" else negative + OMEGA_ZBW


def _cubic_shift(p: DimensionlessParams, roots) -> float:
    return _fast_mode_shift(p, roots.omega2, roots.omega3)


# approach -> cell shift; quantum is shifted_frequency(p) - OMEGA_ZBW, exactly,
# and its + 0.0 turns -0.0 at epsilon = 0 into 0.0
_CELL_SHIFTS = {
    "quantum": lambda p: p.spin_sign * p.charge_sign * cyclotron_frequency(p) + 0.0,
    "classical_accurate": lambda p: _cubic_shift(p, solve_cubic_exact(characteristic_cubic(p))),
    "classical_rough": lambda p: _cubic_shift(p, perturbative_roots(p, "rough")),
}
APPROACHES = tuple(_CELL_SHIFTS)


def shift_table(approach: str, params: DimensionlessParams) -> ShiftTable:
    """Four-cell (charge x spin) shift table for one approach.

    classical_accurate uses the exact cubic roots rather than the quadratic
    expansion, so its cells are exact up to floating point.
    """
    if approach not in _CELL_SHIFTS:
        raise ValueError(f"approach must be one of {APPROACHES}, got {approach!r}")
    return _table(approach, params, _CELL_SHIFTS[approach])


def cp_check(table: ShiftTable, rel_tol: float = 1e-9) -> CPReport:
    """Test the two sign-flip antisymmetries of a complete shift table.

    A table whose every shift lies within ZERO_SHIFT, the rounding of
    omega - omega_zbw, is the zero table (epsilon = 0) and degenerate: both
    antisymmetries hold trivially and the asymmetry ratio is reported as 1.
    """
    scale = max(abs(c.delta_omega) for c in table.cells)
    if scale <= ZERO_SHIFT:
        return CPReport(True, True, 1.0, "cp_respected")
    tol = rel_tol * scale

    spin_ok = all(
        abs(table.cell(ch, "up").delta_omega + table.cell(ch, "down").delta_omega) <= tol
        for ch in CHARGES
    )
    charge_ok = all(
        abs(table.cell("electron", s).delta_omega + table.cell("positron", s).delta_omega) <= tol
        for s in SPINS
    )
    up = abs(table.cell("electron", "up").delta_omega)
    down = abs(table.cell("electron", "down").delta_omega)
    ratio = up / down if down > 0.0 else float("inf")
    verdict = "cp_respected" if (spin_ok and charge_ok) else "cp_violated"
    return CPReport(spin_ok, charge_ok, ratio, verdict)


def fitted_quantum_table(params: DimensionlessParams) -> ShiftTable:
    """Quantum shift table recovered from fitted simulated trajectories."""
    return _table("quantum", params,
                  lambda p: extract_frequency(quantum_trajectory(p)).omega - OMEGA_ZBW)


def fitted_classical_table(
    params: DimensionlessParams, tau_max: float = 1000.0, dt: float = 0.02
) -> ShiftTable:
    """Classical shift table from spectral fits of integrated trajectories.

    One batched integration of the two field runs (spin up, spin down) on
    the dt grid is needed: each run's fitted fast pair, signed (+, -), gives
    its particle and antiparticle cells by the cubic tables' rule.  The fits
    (:func:`spectral_frequencies`) take their seeds from the trajectory
    alone, never from the cubic whose roots the table is checked against,
    and fit all three modes at every epsilon.
    """
    fits = dict(zip(SPINS, spectral_frequencies(params, tau_max=tau_max, dt=dt)))
    return _table("classical_accurate", params, lambda p: _fast_mode_shift(
        p, fits[p.spin].freqs[-2], -fits[p.spin].freqs[-1]))


def table_as_dict(table: ShiftTable, report: CPReport) -> dict:
    """JSON-ready form of one table plus its CP verdict."""
    return {
        "epsilon": table.epsilon,
        "approach": table.approach,
        "cells": [
            {"charge": c.charge, "spin": c.spin, "delta_omega": c.delta_omega}
            for c in table.cells
        ],
        "cp": {"verdict": report.verdict, "asymmetry_ratio": report.asymmetry_ratio},
    }


def discrepancy_report(
    params: DimensionlessParams, include_trajectories: bool = True
) -> dict:
    """Per-cell quantum-vs-classical comparison with CP verdicts.

    Formula-level shifts are always included; with include_trajectories the
    same numbers are re-derived end to end (expectation-value trajectories
    fitted for the quantum column, integrated classical runs spectrally
    fitted for the classical column) as a cross-check.
    """
    quantum = shift_table("quantum", params)
    classical = shift_table("classical_accurate", params)
    rows = []
    for charge, spin in CELL_ORDER:
        q = quantum.cell(charge, spin).delta_omega
        c = classical.cell(charge, spin).delta_omega
        # relative to the quantum prediction, the baseline being contested
        if q != 0.0:
            rel = abs(q - c) / abs(q)
        else:
            rel = 0.0 if c == 0.0 else float("inf")
        rows.append(
            {
                "charge": charge,
                "spin": spin,
                "quantum_shift": q,
                "classical_shift": c,
                "absolute_disagreement": abs(q - c),
                "relative_disagreement": rel,
            }
        )
    classical_cp = cp_check(classical)
    out = {
        "epsilon": params.epsilon,
        "cells": rows,
        "cp": {
            "quantum": cp_check(quantum).verdict,
            "classical_accurate": classical_cp.verdict,
            "asymmetry_ratio": classical_cp.asymmetry_ratio,
        },
    }
    if include_trajectories:
        fq = fitted_quantum_table(params)
        fc = fitted_classical_table(params)
        out["fitted"] = {
            "quantum": table_as_dict(fq, cp_check(fq, rel_tol=1e-4)),
            "classical_accurate": table_as_dict(fc, cp_check(fc, rel_tol=1e-4)),
        }
    return out
