import numpy as np
import pytest

from zbwsim import symmetry
from zbwsim.units import DimensionlessParams

EPS = -1e-3
P = DimensionlessParams(epsilon=EPS)


def _col(table):
    return [table.cell(ch, sp).delta_omega for ch, sp in symmetry.CELL_ORDER]


def test_quantum_table_values():
    col = _col(symmetry.shift_table("quantum", P))
    omega_c = -2.0 * EPS
    assert col == pytest.approx([omega_c, -omega_c, -omega_c, omega_c], rel=1e-12)


def test_classical_accurate_table_values():
    col = _col(symmetry.shift_table("classical_accurate", P))
    # exact roots: shifts -4eps - 6eps^2 (up cells) and +2eps + O(eps^3)
    assert col[0] == pytest.approx(-4.0 * EPS, rel=2e-3)
    assert col[1] == pytest.approx(2.0 * EPS, rel=2e-3)
    assert col[2] == pytest.approx(2.0 * EPS, rel=2e-3)
    assert col[3] == pytest.approx(-4.0 * EPS, rel=2e-3)


def test_classical_rough_table_values():
    col = _col(symmetry.shift_table("classical_rough", P))
    assert col == pytest.approx([-3.0 * EPS, 3.0 * EPS, 3.0 * EPS, -3.0 * EPS], rel=1e-12)


def test_zero_field_tables_are_zero():
    p0 = DimensionlessParams(epsilon=0.0)
    for approach in symmetry.APPROACHES:
        assert _col(symmetry.shift_table(approach, p0)) == pytest.approx([0.0] * 4, abs=1e-15)


def test_cp_verdict_quantum():
    rep = symmetry.cp_check(symmetry.shift_table("quantum", P))
    assert rep.verdict == "cp_respected"
    assert rep.spin_flip_antisymmetric and rep.charge_conjugation_antisymmetric
    assert rep.asymmetry_ratio == pytest.approx(1.0, abs=1e-6)
    # the cells are exactly +-omega_c, so no field is too weak for the verdict
    for eps in [*-np.logspace(-2, -12, 21), -8e-17]:
        rep = symmetry.cp_check(
            symmetry.shift_table("quantum", DimensionlessParams(epsilon=float(eps))))
        assert rep.verdict == "cp_respected" and rep.asymmetry_ratio == 1.0, eps


def test_cp_verdict_classical_accurate():
    rep = symmetry.cp_check(symmetry.shift_table("classical_accurate", P))
    assert rep.verdict == "cp_violated"
    assert not rep.spin_flip_antisymmetric
    assert rep.asymmetry_ratio == pytest.approx(2.0, abs=1e-2)


def test_cp_degenerate_table():
    rep = symmetry.cp_check(symmetry.shift_table("quantum", DimensionlessParams(epsilon=0.0)))
    assert rep.verdict == "cp_respected"
    assert rep.asymmetry_ratio == 1.0


def test_rough_table_antisymmetric_but_wrong():
    """The first-order table respects CP yet misses the exact shifts at O(eps)."""
    rough = symmetry.shift_table("classical_rough", P)
    assert symmetry.cp_check(rough).verdict == "cp_respected"
    exact = symmetry.shift_table("classical_accurate", P)
    for ch, sp in symmetry.CELL_ORDER:
        gap = abs(rough.cell(ch, sp).delta_omega - exact.cell(ch, sp).delta_omega)
        assert gap >= 0.4 * abs(EPS) * 2.0  # first-order disagreement, not noise


def test_fitted_quantum_table_matches_formula():
    fitted = symmetry.fitted_quantum_table(P)
    formula = symmetry.shift_table("quantum", P)
    for ch, sp in symmetry.CELL_ORDER:
        assert fitted.cell(ch, sp).delta_omega == pytest.approx(
            formula.cell(ch, sp).delta_omega, rel=1e-6
        )
    assert symmetry.cp_check(fitted, rel_tol=1e-4).verdict == "cp_respected"


def test_discrepancy_report_formula_level():
    report = symmetry.discrepancy_report(P, include_trajectories=False)
    assert report["epsilon"] == EPS
    cells = {(c["charge"], c["spin"]): c for c in report["cells"]}
    up = cells[("electron", "up")]
    # +2e-3 quantum vs +4e-3 classical: relative disagreement ~1 of the larger
    assert up["relative_disagreement"] == pytest.approx(1.0, abs=0.01)
    down = cells[("electron", "down")]
    assert down["relative_disagreement"] <= 1e-2  # the two approaches coincide here
    assert report["cp"]["quantum"] == "cp_respected"
    assert report["cp"]["classical_accurate"] == "cp_violated"


def test_discrepancy_report_zero_field():
    report = symmetry.discrepancy_report(
        DimensionlessParams(epsilon=0.0), include_trajectories=False
    )
    for c in report["cells"]:
        assert c["absolute_disagreement"] == 0.0
        assert c["relative_disagreement"] == 0.0


def test_table_as_dict_schema():
    table = symmetry.shift_table("quantum", P)
    d = symmetry.table_as_dict(table, symmetry.cp_check(table))
    assert set(d) == {"epsilon", "approach", "cells", "cp"}
    assert len(d["cells"]) == 4
    assert set(d["cells"][0]) == {"charge", "spin", "delta_omega"}
    assert set(d["cp"]) == {"verdict", "asymmetry_ratio"}


def test_unknown_approach_rejected():
    with pytest.raises(ValueError):
        symmetry.shift_table("semiclassical", P)
