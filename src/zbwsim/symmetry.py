"""Frequency-shift tables, CP-antisymmetry verdicts, and the cross-approach report.

A shift is always Delta_omega = omega_measured - omega_reference with the
reference +omega_zbw for particles and -omega_zbw for antiparticles.  The
quantum table comes from the wave-packet expectation values; the classical
tables come from the characteristic-cubic roots, with the antiparticle rows
read off the negative fast root of the same-spin run (the model has no
separate antiparticle simulation protocol).  CP antisymmetry is
operationalized as sign flip of the shift under spin flip and under
particle/antiparticle exchange.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .bz import characteristic_cubic, perturbative_roots, solve_cubic_exact, spectral_frequencies
from .expectation import extract_frequency, quantum_trajectory
from .units import OMEGA_ZBW, CHARGES, SPINS, DimensionlessParams, cyclotron_frequency

APPROACHES = ("quantum", "classical_accurate", "classical_rough")

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


def _classical_shift(params: DimensionlessParams, scheme: str) -> float:
    """Shift for one table cell from the cubic roots of the same-spin run.

    Particle rows use the positive fast root against +omega_zbw; antiparticle
    rows use the negative fast root against -omega_zbw.
    """
    if scheme == "exact":
        roots = solve_cubic_exact(characteristic_cubic(params))
    else:
        roots = perturbative_roots(params, scheme)
    if params.charge == "electron":
        return roots.omega2 - OMEGA_ZBW
    return roots.omega3 - (-OMEGA_ZBW)


def shift_table(approach: str, params: DimensionlessParams) -> ShiftTable:
    """Four-cell (charge x spin) shift table for one approach.

    classical_accurate uses the exact cubic roots rather than the quadratic
    expansion, so its cells are exact up to floating point.
    """
    if approach not in APPROACHES:
        raise ValueError(f"approach must be one of {APPROACHES}, got {approach!r}")
    cells = []
    for charge, spin in CELL_ORDER:
        p = replace(params, charge=charge, spin=spin)
        if approach == "quantum":
            # shifted_frequency(p) - OMEGA_ZBW, exactly; + 0.0 turns -0.0 at epsilon = 0 into 0.0
            delta = p.spin_sign * p.charge_sign * cyclotron_frequency(p) + 0.0
        elif approach == "classical_accurate":
            delta = _classical_shift(p, "exact")
        else:
            delta = _classical_shift(p, "rough")
        cells.append(ShiftCell(charge=charge, spin=spin, delta_omega=delta))
    return ShiftTable(approach=approach, epsilon=params.epsilon, cells=tuple(cells))


def cp_check(table: ShiftTable, rel_tol: float = 1e-9) -> CPReport:
    """Test the two sign-flip antisymmetries of a complete shift table.

    The all-zero table (epsilon = 0) is degenerate: both antisymmetries hold
    trivially and the asymmetry ratio is reported as 1.
    """
    scale = max(abs(c.delta_omega) for c in table.cells)
    if scale == 0.0:
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
    cells = []
    for charge, spin in CELL_ORDER:
        p = replace(params, charge=charge, spin=spin)
        traj = quantum_trajectory(p)
        cells.append(
            ShiftCell(charge=charge, spin=spin,
                      delta_omega=extract_frequency(traj).omega - OMEGA_ZBW)
        )
    return ShiftTable(approach="quantum", epsilon=params.epsilon, cells=tuple(cells))


def fitted_classical_table(
    params: DimensionlessParams, tau_max: float = 1000.0, dt: float = 0.02
) -> ShiftTable:
    """Classical shift table from spectral fits of integrated trajectories.

    One batched integration of the two field runs (spin up, spin down) is
    needed: each run supplies the particle cell from its positive fast mode
    and the antiparticle cell from its negative one.  When the span is too
    short to resolve the slow cyclotron-like mode, only the two fast modes
    are fitted and the slow one is absorbed into a polynomial trend.
    """
    fitted: dict[tuple[str, str], float] = {}
    for spin, fit in zip(SPINS, spectral_frequencies(params, tau_max=tau_max, dt=dt)):
        w2, w3 = fit.freqs[-2:]
        fitted[("electron", spin)] = w2 - OMEGA_ZBW
        fitted[("positron", spin)] = OMEGA_ZBW - w3
    cells = tuple(
        ShiftCell(charge=ch, spin=sp, delta_omega=fitted[(ch, sp)]) for ch, sp in CELL_ORDER
    )
    return ShiftTable(approach="classical_accurate", epsilon=params.epsilon, cells=cells)


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
    out = {
        "epsilon": params.epsilon,
        "cells": rows,
        "cp": {
            "quantum": cp_check(quantum).verdict,
            "classical_accurate": cp_check(classical).verdict,
            "asymmetry_ratio": cp_check(classical).asymmetry_ratio,
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
