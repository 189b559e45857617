import math

import pytest
from scipy import constants

from zbwsim.units import (
    EPSILON_MAX,
    LAMBDA_C,
    OMEGA_ZBW,
    R0_MAX,
    DimensionlessParams,
    cyclotron_frequency,
    epsilon_from_tesla,
)


def test_natural_unit_constants():
    assert OMEGA_ZBW == 2.0
    assert LAMBDA_C == 1.0


def test_epsilon_per_tesla_against_bohr_magneton():
    # independent route: |epsilon| = mu_B * B / (m c^2)
    mu_b = constants.physical_constants["Bohr magneton"][0]
    rest = constants.m_e * constants.c**2
    expected = -mu_b * 1.0 / rest
    got = epsilon_from_tesla(1.0)
    assert got == pytest.approx(expected, rel=1e-9)
    assert got == pytest.approx(-1.13275e-10, rel=1e-4)


def test_epsilon_linearity_in_b():
    e1 = epsilon_from_tesla(1.0)
    assert epsilon_from_tesla(7.0) == pytest.approx(7.0 * e1, rel=1e-12)


def test_epsilon_sign_conventions():
    assert epsilon_from_tesla(1.0) < 0.0
    for b in (-1.0, math.nan):
        with pytest.raises(ValueError, match="must be nonnegative"):
            epsilon_from_tesla(b)


def test_cyclotron_frequency():
    p = DimensionlessParams(epsilon=-1e-3)
    assert cyclotron_frequency(p) == pytest.approx(2e-3, rel=1e-15)
    assert cyclotron_frequency(DimensionlessParams(epsilon=0.0)) == 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        DimensionlessParams(epsilon=-0.5)
    with pytest.raises(ValueError):
        DimensionlessParams(epsilon=-1e-3, spin="sideways")
    with pytest.raises(ValueError):
        DimensionlessParams(epsilon=-1e-3, charge="muon")
    with pytest.raises(ValueError):
        DimensionlessParams(epsilon=-1e-3, r0_over_lambda=1.0)
    # above R0_MAX the quadratures overflow (1e150) or divide by zero (1e300)
    assert DimensionlessParams(epsilon=-1e-3, r0_over_lambda=R0_MAX).r0_over_lambda == R0_MAX
    for r0 in (2.0 * R0_MAX, 1e300, math.inf):
        with pytest.raises(ValueError, match="r0_over_lambda"):
            DimensionlessParams(epsilon=-1e-3, r0_over_lambda=r0)
    # non-finite values fail every comparison, so they need their own check
    with pytest.raises(ValueError):
        DimensionlessParams(epsilon=-1e-3, r0_over_lambda=math.nan)
    with pytest.raises(ValueError):
        DimensionlessParams(epsilon=-1e-3, phi0=math.nan)
    # boundary is exclusive
    with pytest.raises(ValueError):
        DimensionlessParams(epsilon=-EPSILON_MAX)


def test_phi0_wrapping():
    p = DimensionlessParams(epsilon=-1e-3, phi0=5.0 * math.pi)
    assert p.phi0 == pytest.approx(math.pi, abs=1e-12)


def test_sign_properties():
    assert DimensionlessParams(epsilon=0.0, spin="up").spin_sign == 1.0
    assert DimensionlessParams(epsilon=0.0, spin="down").spin_sign == -1.0
    assert DimensionlessParams(epsilon=0.0, charge="positron").charge_sign == -1.0
