import math

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
    # a zero table may come out one ulp of omega_zbw off 0, as the fitted positron cells do
    ulp = math.ulp(2.0)
    cells = tuple(symmetry.ShiftCell(ch, sp, d) for (ch, sp), d in
                  zip(symmetry.CELL_ORDER, (0.0, 0.0, -ulp, -ulp)))
    rep = symmetry.cp_check(symmetry.ShiftTable("classical_accurate", 0.0, cells))
    assert (rep.verdict, rep.asymmetry_ratio) == ("cp_respected", 1.0)
    fitted = symmetry.fitted_classical_table(DimensionlessParams(epsilon=0.0), tau_max=200.0)
    rep = symmetry.cp_check(fitted, rel_tol=1e-4)
    assert (rep.verdict, rep.asymmetry_ratio) == ("cp_respected", 1.0)


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


def test_fitted_classical_table_too_short_raises():
    """tau_max = 1 leaves the fit 4 strided samples, too few for its 3 modes: a
    ValueError that names the count, not a 2-mode fit that fails to unpack."""
    with pytest.raises(ValueError, match="series of 4 samples"):
        symmetry.fitted_classical_table(P, tau_max=1.0, dt=0.02)


def test_fitted_classical_table_holds_at_a_laboratory_field():
    """At epsilon = -1e-9 (about 9 T) the fitted electron shifts keep the cubic's ratio of 2.

    The fast modes differ by 2|epsilon| = 2e-9 in |omega| alone, which a fit
    of the real v_x cannot resolve over tau = 1000 (it gave a ratio of 0.988);
    in w = v_x + i v_y they sit near +2 and -2.
    """
    table = symmetry.fitted_classical_table(DimensionlessParams(epsilon=-1e-9),
                                            tau_max=1000.0, dt=0.02)
    assert symmetry.cp_check(table).asymmetry_ratio == pytest.approx(2.0, abs=1e-3)


@pytest.mark.parametrize("tau_max", [200.0, 1000.0])
@pytest.mark.parametrize("eps", [-1e-9, -1.13e-9, -1e-8, -1e-7, -1e-6])
def test_fitted_classical_table_follows_the_cubic_at_weak_fields(eps, tau_max):
    """Every fitted cell lies within 2e-6 of the cubic's, and the ratio is 2 +- 1e-5.

    A fit of the real v_x missed by up to 0.65 of the shift (ratio 0.988) at
    epsilon = -1e-9 over tau = 1000.
    """
    params = DimensionlessParams(epsilon=eps)
    fitted = symmetry.fitted_classical_table(params, tau_max=tau_max)
    cubic = symmetry.shift_table("classical_accurate", params)
    for ch, sp in symmetry.CELL_ORDER:
        want = cubic.cell(ch, sp).delta_omega
        assert abs(fitted.cell(ch, sp).delta_omega - want) <= 2e-6 * abs(want), (ch, sp)
    assert symmetry.cp_check(fitted).asymmetry_ratio == pytest.approx(2.0, abs=1e-5)


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
