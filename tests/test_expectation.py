import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zbwsim
from zbwsim import expectation
from zbwsim.expectation import (
    _alpha_pair,
    _drift_spinors,
    amplitude_coefficients,
    amplitude_coefficients_quadrature,
    drift_velocity,
    extract_frequency,
    magnetic_moment_expectation,
    momentum_grid,
    packet_normalization,
    position_expectation,
    quantum_trajectory,
    shifted_frequency,
    spin_interpretation,
)
from zbwsim import fitting
from zbwsim.fitting import FitFailureError, fit_frequencies, fit_sinusoid, pencil_frequencies
from zbwsim.packet import K, GaussianProfile, packet_norm_constant
from zbwsim.units import OMEGA_ZBW, DimensionlessParams, cyclotron_frequency

# Dirac alpha matrices: the Pauli matrices in the off-diagonal 2x2 blocks
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ALPHA = [np.block([[np.zeros((2, 2)), s], [s, np.zeros((2, 2))]]) for s in (_SX, _SY, _SZ)]


# ------------------------------------------------------------- pair weights

def _pair_weight(c0, c1, w_m, phi, label):
    """Sum over the (pi, theta) grid of w_m c_pos^dag alpha c_label at the azimuth phi."""
    c = c0 + c1 * np.exp(1j * phi)
    return np.sum(w_m[..., None] * _alpha_pair(c[0], c[label]), axis=(0, 1))


def test_pair_weights_match_planar_amplitude():
    """The packet's pos_up x neg_down weight is the planar amplitude I; the axial one is 0.

    With the spinors of :func:`_drift_spinors` at phi0, the pair weight W has
    |W_x| = |W_y| = |I| / (2 (1 - s omega_c / omega_zbw)), I from the closed
    form, to a relative 1e-12; the pos_up x neg_up weight is J, which vanishes.
    """
    grid = itertools.product((-1e-2, -1e-3, -1e-4), (10.0, 100.0, 1000.0), ("up", "down"),
                             (0.0, 1.1))
    for eps, r0, spin, phi0 in grid:
        p = DimensionlessParams(epsilon=eps, spin=spin, r0_over_lambda=r0, phi0=phi0)
        c0, c1, w_m = _drift_spinors(p)
        planar = _pair_weight(c0, c1, w_m, p.phi0, 2)
        axial = _pair_weight(c0, c1, w_m, p.phi0, 1)
        i_val = amplitude_coefficients(p)[0].value
        expected = abs(i_val) / (2.0 * (1.0 - p.spin_sign * cyclotron_frequency(p) / OMEGA_ZBW))
        assert np.abs(np.abs(planar[:2]) / expected - 1.0).max() <= 1e-12, (eps, r0, spin, phi0)
        assert np.abs(axial).max() <= 1e-12 * expected, (eps, r0, spin, phi0)


def _node_bilinears(params, phi):
    """pos_up^dag alpha neg_up and pos_up^dag alpha neg_down on every grid node at phi."""
    c0, c1, _ = _drift_spinors(params)
    c = c0 + c1 * np.exp(1j * phi)
    return _alpha_pair(c[0], c[1]), _alpha_pair(c[0], c[2])


def _grid_f2(params):
    g = GaussianProfile.for_packet_width(params.r0_over_lambda)
    pi_m, th_m, _ = momentum_grid(g.pi0)
    return pi_m, th_m, g.value(pi_m) ** 2


def test_bilinear_factors_axial_node():
    """The pos_up x neg_up bilinear is (0, 0, -K pi_z f^2) on every node: axial only.

    Towards the axis it reaches -K pi f^2 (-f^2/2 at pi = 1 in free space);
    odd in cos(theta), it integrates to the axial weight J = 0.
    """
    for eps in (0.0, -1e-3):
        p = DimensionlessParams(epsilon=eps, r0_over_lambda=10.0)
        pi_m, th_m, f2 = _grid_f2(p)
        expected = -K * pi_m * np.cos(th_m) * f2
        for phi in (0.0, 1.1):
            axial, _ = _node_bilinears(p, phi)
            assert np.all(axial[..., :2] == 0.0)
            assert np.abs(axial[..., 2] - expected).max() <= 1e-15 * np.abs(expected).max()


def test_bilinear_factors_equatorial_node():
    """The pos_up x neg_down bilinear is -K pi sin(theta) f^2 e^{i phi} (1, -i, 0) on every node.

    It is planar with |x| = |y| and turns with the azimuth; on the equator at
    pi = 1 in free space its size is f^2/2.
    """
    for eps in (0.0, -1e-3):
        p = DimensionlessParams(epsilon=eps, r0_over_lambda=10.0)
        pi_m, th_m, f2 = _grid_f2(p)
        for phi in (0.0, 1.1, 4.0):
            _, planar = _node_bilinears(p, phi)
            x = -K * pi_m * np.sin(th_m) * f2 * np.exp(1j * phi)
            scale = np.abs(x).max()
            assert np.abs(planar[..., 0] - x).max() <= 1e-15 * scale
            assert np.abs(planar[..., 1] + 1j * x).max() <= 1e-15 * scale
            assert np.all(planar[..., 2] == 0.0)


def test_bilinear_factors_match_raw_spinor_bilinears():
    """Independent oracle: C_+^dag alpha C_- by 4x4 matrix products on the packet spinors.

    Both pairs, every grid node, three azimuths, with the full pos_up column.
    """
    p = DimensionlessParams(epsilon=-1e-3, r0_over_lambda=10.0)
    c0, c1, _ = _drift_spinors(p)
    for phi in (0.0, 1.1, 4.0):
        c = c0 + c1 * np.exp(1j * phi)
        for label in (1, 2):
            raw = np.einsum("uti,kij,utj->utk", c[0].conj(), np.array(ALPHA), c[label])
            assert np.abs(raw).max() > 1e-6
            assert np.abs(_alpha_pair(c[0], c[label]) - raw).max() <= 1e-15 * np.abs(raw).max()


# ---------------------------------------------------- amplitude coefficients

def test_amplitude_closed_form_value():
    p = DimensionlessParams(epsilon=0.0, r0_over_lambda=100.0)
    planar, axial = amplitude_coefficients(p)
    assert planar.value == pytest.approx(-((8 * math.pi) ** -0.5) / 100.0, rel=1e-12)
    assert planar.value == pytest.approx(-1.9947e-3, rel=1e-4)
    assert axial.value == 0.0


def test_amplitude_up_down_ratio():
    up, _ = amplitude_coefficients(DimensionlessParams(epsilon=-1e-3, spin="up"))
    down, _ = amplitude_coefficients(DimensionlessParams(epsilon=-1e-3, spin="down"))
    # (1 - omega_c/omega_zbw) / (1 + omega_c/omega_zbw) at omega_c = 2e-3
    assert up.value / down.value == pytest.approx(0.999 / 1.001, rel=1e-12)


@pytest.mark.parametrize("r0", [10.0, 100.0, 1000.0])
@pytest.mark.parametrize("spin", ["up", "down"])
def test_amplitude_closed_form_vs_quadrature(r0, spin):
    p = DimensionlessParams(epsilon=-1e-3, spin=spin, r0_over_lambda=r0)
    planar, _ = amplitude_coefficients(p)
    i_quad, j_quad = amplitude_coefficients_quadrature(p)
    assert i_quad == pytest.approx(planar.value, rel=1e-6)
    assert abs(j_quad) <= 1e-10


# ------------------------------------------------------------- trajectories

def test_position_at_time_zero():
    p = DimensionlessParams(epsilon=-1e-3, spin="up", phi0=0.0)
    r = position_expectation(p, 0.0)
    assert np.allclose(r, [0.0, -0.5, 0.0], atol=1e-15)


def _position_three_columns(params, t):
    """<r>(t) as a sine over all three columns, z with amplitude 0, added onto zeros."""
    ts = np.asarray(t, dtype=float)
    phase0 = params.spin_sign * params.phi0
    amplitude = np.array([0.5, 0.5, 0.0])
    phase = np.array([phase0, phase0 - math.pi / 2.0, 0.0])
    out = np.zeros(ts.shape + (3,))
    out += amplitude * np.sin(shifted_frequency(params) * ts[..., None] + phase)
    return out


@pytest.mark.parametrize("charge", ["electron", "positron"])
@pytest.mark.parametrize("spin", ["up", "down"])
@pytest.mark.parametrize("phi0", [0.0, 2.5])
def test_position_expectation_evaluates_only_the_planar_columns(charge, spin, phi0):
    """The planar-only <r>(t) equals the three-column sine bit for bit; z is +0.0.

    Scalar t, the default trajectory's 10,001 times and a short array; at a
    NaN t the planar columns are NaN and z stays +0.0.
    """
    p = DimensionlessParams(epsilon=-1e-3, spin=spin, charge=charge, phi0=phi0)
    for t in (0.0, 1.7, np.linspace(0.0, 50.0, 7), quantum_trajectory(p).times):
        r = position_expectation(p, t)
        assert np.array_equal(r, _position_three_columns(p, t))
        assert np.all(np.copysign(1.0, r[..., 2]) == 1.0) and np.all(r[..., 2] == 0.0)
    r = position_expectation(p, math.nan)
    assert np.all(np.isnan(r[:2])) and math.copysign(1.0, r[2]) == 1.0 and r[2] == 0.0


def test_fitted_frequency_spin_up_electron():
    p = DimensionlessParams(epsilon=-1e-3, spin="up", charge="electron")
    fit = extract_frequency(quantum_trajectory(p, t_max=200.0))
    assert fit.omega == pytest.approx(2.002, rel=1e-9)
    # long spans keep uniform sampling within the rounding of dt * arange(n)
    long_run = quantum_trajectory(p, t_max=1e4)
    assert len(long_run.times) == round(1e4 / (math.pi / 100.0)) + 1


def test_fitted_frequency_spin_down_positron():
    p = DimensionlessParams(epsilon=-1e-3, spin="down", charge="positron")
    fit = extract_frequency(quantum_trajectory(p, t_max=200.0))
    assert fit.omega == pytest.approx(2.002, rel=1e-9)


def test_shift_antisymmetry_from_fits():
    for charge in ("electron", "positron"):
        for spin, sgn in (("up", 1.0), ("down", -1.0)):
            p = DimensionlessParams(epsilon=-1e-3, spin=spin, charge=charge)
            s = sgn * (1.0 if charge == "electron" else -1.0)
            fit = extract_frequency(quantum_trajectory(p))
            assert fit.omega == pytest.approx(2.0 + s * 2e-3, rel=1e-6)


def test_free_limit():
    p = DimensionlessParams(epsilon=0.0)
    fit = extract_frequency(quantum_trajectory(p))
    assert fit.omega == pytest.approx(2.0, abs=1e-9)
    assert fit.amplitude == pytest.approx(0.5, abs=1e-9)


def test_extract_frequency_reads_ten_samples_per_period(monkeypatch):
    seen = []

    def spy(times, values):
        seen.append((times, values))
        return fit_sinusoid(times, values)

    monkeypatch.setattr(fitting, "fit_sinusoid", spy)
    traj = quantum_trajectory(DimensionlessParams(epsilon=-1e-3))
    extract_frequency(traj)
    (times, values), = seen
    assert len(traj.times) == 10_001 and len(times) == len(values) == 1_001
    assert (times[0], times[-1]) == (traj.times[0], traj.times[-1])  # both ends kept


def test_extract_frequency_empty_trajectory_raises_value_error():
    """An empty trajectory has no spacing to read; the fit's sample-count check reports it."""
    empty = expectation.Trajectory(times=np.zeros(0), positions=np.zeros((0, 3)))
    with pytest.raises(ValueError, match="at least 8 samples"):
        extract_frequency(empty)


def test_extract_frequency_stride_search_is_bounded_by_the_interval_count():
    """At dt = 1e-9 the stride search began at FIT_STEP / dt = 3e8 and took seconds."""
    short = expectation.Trajectory(times=1e-9 * np.arange(101), positions=np.zeros((101, 3)))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="at least 8 samples"):
        extract_frequency(short)
    assert time.perf_counter() - start < 0.5


def test_strided_fit_matches_the_full_grid():
    """Every cell fits the same omega on every tenth sample as on all of them."""
    for eps, spin, charge, r0 in itertools.product(
            (-1e-9, -1e-6, -1e-4, -1e-3, -1e-2, -0.09), ("up", "down"),
            ("electron", "positron"), (10.0, 100.0, 1000.0)):
        p = DimensionlessParams(epsilon=eps, spin=spin, charge=charge, r0_over_lambda=r0)
        traj = quantum_trajectory(p)
        full = fit_sinusoid(traj.times, traj.positions[:, 0])
        assert abs(extract_frequency(traj).omega - full.omega) <= 1e-12, (eps, spin, charge, r0)


def test_phase_enters_with_spin_sign():
    up = position_expectation(DimensionlessParams(epsilon=0.0, spin="up", phi0=0.4), 0.0)
    down = position_expectation(DimensionlessParams(epsilon=0.0, spin="down", phi0=0.4), 0.0)
    assert up[0] == pytest.approx(0.5 * math.sin(0.4))
    assert down[0] == pytest.approx(-0.5 * math.sin(0.4))


# ------------------------------------------------------------------ fitting

def test_read_modes_stride_need_not_divide_the_interval_count(monkeypatch):
    """The classical reader takes every int(FIT_STEP / dt)-th sample: 999 intervals at
    dt = 0.015 give stride 20 and 50 samples, where the divisor rule would take 9."""
    seen = []

    def spy(values, dt):
        seen.append((len(values), dt))
        return pencil_frequencies(values, dt)

    monkeypatch.setattr(fitting, "pencil_frequencies", spy)
    t = 0.015 * np.arange(1000)
    fit = fitting.read_modes(t, np.exp(-2.0j * t) + 0.5 * np.exp(2.1j * t))
    assert seen == [(50, pytest.approx(0.3, rel=1e-12))]
    assert fit.freqs[1:] == pytest.approx([2.0, 2.1], rel=1e-9) and math.isnan(fit.freqs[0])


def test_read_modes_needs_a_fast_pair():
    """A single complex tone has no fast pair: FitFailureError, not a failed unpacking."""
    t = 0.05 * np.arange(2000)
    with pytest.raises(FitFailureError, match="fast pair"):
        fitting.read_modes(t, np.exp(-2.0j * t))


def test_fit_sinusoid_self_consistency():
    t = np.arange(0, 50, 0.01)
    fit = fit_sinusoid(t, np.sin(2.0 * t))
    assert fit.omega == pytest.approx(2.0, abs=1e-8)
    t = np.linspace(-50.0, 0.0, 5001)  # times ending at 0 still scale the trend columns
    assert fit_sinusoid(t, np.sin(2.0 * t)).omega == pytest.approx(2.0, abs=1e-8)


def test_fit_sinusoid_shifted_tone():
    t = np.arange(0, 200, 0.03)
    fit = fit_sinusoid(t, 0.7 * np.sin(2.002 * t + 0.3) + 0.1)
    assert fit.omega == pytest.approx(2.002, rel=1e-6)
    assert fit.amplitude == pytest.approx(0.7, rel=1e-6)


def test_fit_sinusoid_rejects_two_tone():
    t = np.arange(0, 100, 0.01)
    y = np.sin(2.0 * t) + 0.8 * np.sin(3.1 * t)
    with pytest.raises(FitFailureError):
        fit_sinusoid(t, y)


def test_fit_sinusoid_sampling_guards(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("sampling must be checked before fitting")

    monkeypatch.setattr(fitting, "_gated_amplitudes", no_fit)
    with pytest.raises(ValueError):
        fit_sinusoid(np.arange(0, 100, 4.0), np.sin(2.0 * np.arange(0, 100, 4.0)))
    t = np.arange(0, 100, 0.4)  # 7.85 samples per period of omega=2
    with pytest.raises(ValueError, match="8 samples per period"):
        fit_sinusoid(t, np.sin(2.0 * t))
    t = np.arange(0, 4, 0.01)  # just over one period of omega=2
    with pytest.raises(ValueError, match="3 periods"):
        fit_sinusoid(t, np.sin(2.0 * t))
    with pytest.raises(ValueError, match="at least 8 samples"):
        fit_sinusoid(np.zeros(1), np.zeros(1))
    t = np.arange(0, 100, 0.01)
    y = np.sin(2.0 * t)
    y[5] = math.nan
    with pytest.raises(ValueError, match="values must be finite"):
        fit_sinusoid(t, y)


def test_pencil_recovers_signed_modes():
    """Three complex modes e^{-i omega_k t} with known signs, as in w = v_x + i v_y.

    Conjugating the singular vectors would flip every sign, and after the
    cells' |omega| an error of exactly 2|epsilon| would remain.
    """
    h = 0.3
    t = h * np.arange(4000)
    omega = np.array([-2.0001, 4e-4, 1.9997])
    w = np.exp(-1j * np.outer(t, omega)) @ np.array([0.4 - 0.1j, 0.02, 1.0 + 0.3j])
    assert np.max(np.abs(np.sort(pencil_frequencies(w, h)) - omega)) <= 1e-12


def test_pencil_rank_follows_the_data():
    """A tone with no offset has two modes; a fixed order 3 would add a noise mode."""
    t = np.arange(0, 100, 0.01)
    assert np.sort(pencil_frequencies(np.sin(2.0 * t), 0.01)) == pytest.approx([-2.0, 2.0],
                                                                               rel=1e-10)
    assert np.abs(pencil_frequencies(np.sin(2.0 * t) + 0.3, 0.01)).min() <= 1e-10
    assert pencil_frequencies(np.zeros_like(t), 0.01).size == 0


def _tall_singular_values(y):
    window = min(fitting.PENCIL_WINDOW, len(y) // 2)
    hankel = np.lib.stride_tricks.sliding_window_view(y, window + 1)
    return np.linalg.svd(hankel, compute_uv=False)


def test_pencil_factors_the_hankel_matrix_once(monkeypatch):
    """The SVD of the square R factor gives the tall Hankel matrix's singular values and rank."""
    seen = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        out = svd(a, *args, **kwargs)
        seen.append((a.shape, out[1]))
        return out

    monkeypatch.setattr(np.linalg, "svd", spy)
    h = 0.3
    t = h * np.arange(4000)
    omega = np.array([-2.0001, 4e-4, 1.9997])
    w = np.exp(-1j * np.outer(t, omega)) @ np.array([0.4 - 0.1j, 0.02, 1.0 + 0.3j])
    pencil_frequencies(w, h)
    (shape, s), = seen
    assert shape == (13, 13)
    tall = _tall_singular_values(w)
    assert np.max(np.abs(s[:3] - tall[:3]) / tall[:3]) <= 1e-12
    assert fitting.PENCIL_RTOL == 1e-9
    t = np.arange(0, 100, 0.01)
    for y, rank in ((np.sin(2.0 * t), 2), (np.zeros_like(t), 0), (np.full_like(t, 0.7), 1)):
        seen.clear()
        assert pencil_frequencies(y, 0.01).size == rank
        tall = _tall_singular_values(y)
        assert np.count_nonzero(tall > fitting.PENCIL_RTOL * tall[0]) == rank
        assert np.count_nonzero(seen[0][1] > fitting.PENCIL_RTOL * seen[0][1][0]) == rank


def test_pencil_input_guards():
    """An empty or non-finite series raises ValueError, not an error from inside numpy."""
    with pytest.raises(ValueError, match="non-empty 1-D series"):
        pencil_frequencies(np.array([]), 0.3)
    y = np.exp(-2j * 0.3 * np.arange(40))
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        y[17] = bad
        with pytest.raises(ValueError, match="values must be finite: 1 are not, .* at sample 17"):
            pencil_frequencies(y, 0.3)
    # dt = 0 gave +-inf, NaN gave NaN, -0.3 flipped every sign, inf gave 0 and
    # a subnormal dt overflowed to +-inf
    for dt in (0.0, math.nan, -0.3, math.inf, 1e-320):
        with pytest.raises(ValueError, match="dt must be finite and at least 2.22507e-308"):
            pencil_frequencies(np.exp(-2j * 0.3 * np.arange(40)), dt)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.floats(-1e3, 1e3, allow_subnormal=False), st.floats(0.0, 5.0),
       st.floats(-1e3, 1e3, allow_subnormal=False))
@example(0.0, 2.0, 0.0)  # the zero series
@example(0.0, 2.0, 1.5)  # a constant
@example(3.0, 0.0, 0.0)  # sin(0 t + phi), a constant again
def test_fit_sinusoid_contract(amplitude, omega, offset):
    """A constant series raises ValueError; anything else fits or raises a fit error."""
    t = np.arange(0, 60, 0.05)
    y = amplitude * np.sin(omega * t + 0.3) + offset
    if np.ptp(y) == 0.0:
        with pytest.raises(ValueError, match="no tone"):
            fit_sinusoid(t, y)
        return
    try:
        fit = fit_sinusoid(t, y)
    except (ValueError, FitFailureError):
        return
    assert np.isfinite([fit.omega, fit.amplitude, fit.residual_rms]).all()


def _fit_layer_call(name, values, dt, seed):
    """The numbers one fit-layer call returns for values sampled every dt from t = 0."""
    t = dt * np.arange(len(values))
    if name == "pencil_frequencies":
        return pencil_frequencies(values, dt)
    if name == "fit_frequencies":
        fit = fit_frequencies(t, values, [seed])
        return np.append(fit.freqs, fit.residual_rms)
    if name == "read_modes":  # the slow mode is NaN where the pencil finds only the fast pair
        fit = fitting.read_modes(t, values)
        slow = 0.0 if math.isnan(fit.freqs[0]) else fit.freqs[0]
        return np.append(fit.freqs[1:], [slow, fit.residual_rms])
    if name == "fit_sinusoid":
        fit = fit_sinusoid(t, values)
    elif name == "read_tone":
        fit = fitting.read_tone(t, values)
    else:
        positions = np.column_stack([values, np.zeros_like(values), np.zeros_like(values)])
        fit = extract_frequency(expectation.Trajectory(times=t, positions=positions))
    return np.array([fit.omega, fit.amplitude, fit.residual_rms])


@pytest.mark.parametrize("name", ["pencil_frequencies", "fit_sinusoid", "fit_frequencies",
                                  "extract_frequency", "read_modes", "read_tone"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 2000), dt=st.floats(1e-3, 1.0), amplitude=st.floats(-1e3, 1e3),
       omega=st.floats(0.0, 5.0), offset=st.floats(-1e3, 1e3), seed=st.floats(-10.0, 10.0),
       nan_at=st.none() | st.integers(0, 2000))
@example(n=2000, dt=0.05, amplitude=0.0, omega=2.0, offset=0.0, seed=2.0,
         nan_at=None)  # the zero series with seed [2.0]
@example(n=2000, dt=0.05, amplitude=1.0, omega=2.0, offset=0.0, seed=0.05,
         nan_at=None)  # sin 2t with seed 0.05
@example(n=2000, dt=0.05, amplitude=1.0, omega=2.0, offset=0.0, seed=2.0,
         nan_at=5)  # a NaN value
@example(n=30, dt=0.05, amplitude=1.0, omega=2.0, offset=0.0, seed=2.0,
         nan_at=None)  # a short series
@example(n=2000, dt=0.0, amplitude=1.0, omega=2.0, offset=0.0, seed=2.0, nan_at=None)
@example(n=2000, dt=-0.3, amplitude=1.0, omega=2.0, offset=0.0, seed=2.0, nan_at=None)
@example(n=0, dt=0.05, amplitude=1.0, omega=2.0, offset=0.0, seed=2.0,
         nan_at=None)  # the empty series, and the empty trajectory
@example(n=101, dt=1e-9, amplitude=1.0, omega=2.0, offset=0.0, seed=2.0,
         nan_at=None)  # the stride search started at 3e8
@example(n=2000, dt=1e-320, amplitude=1.0, omega=2.0, offset=0.0, seed=2.0, nan_at=None)
@example(n=17, dt=0.5, amplitude=148.0, omega=0.5, offset=0.0, seed=4.3366063933048743e-97,
         nan_at=None)  # the refinement's first step overflowed
def test_fit_layer_contract(name, n, dt, amplitude, omega, offset, seed, nan_at):
    """Every fit-layer call returns finite numbers or raises ValueError or FitFailureError."""
    values = amplitude * np.sin(omega * dt * np.arange(n)) + offset
    if nan_at is not None and nan_at < n:
        values[nan_at] = math.nan
    try:
        out = _fit_layer_call(name, values, dt, seed)
    except (ValueError, FitFailureError):
        return
    assert np.isfinite(out).all()


def test_fit_frequencies_residual_gate():
    t = np.arange(0, 100, 0.01)
    y = np.sin(2.0 * t) + 0.8 * np.sin(3.1 * t)
    fit = fit_frequencies(t, y, [2.0, 3.1])
    assert fit.freqs == pytest.approx([2.0, 3.1], rel=1e-12)
    with pytest.raises(FitFailureError):
        fit_frequencies(t, y, [2.0])
    # a series with no tone: amplitude 0 and residual 0 used to pass as 0 <= 0.01 x 0
    with pytest.raises(FitFailureError, match="no tone"):
        fit_frequencies(t, np.zeros_like(t), [2.0])
    # a seed far below the tone drifts to omega ~ 1e-5, whose huge amplitude
    # cancels the constant column; the residual is the whole signal
    with pytest.raises(FitFailureError, match="centred data"):
        fit_frequencies(t, np.sin(2.0 * t), [0.05])


def test_fit_frequencies_sampling_guards():
    t = np.arange(0, 100, 0.01)
    with pytest.raises(ValueError, match="uniform"):
        fit_frequencies(t**1.01, np.sin(2.0 * t), [2.0])
    with pytest.raises(ValueError, match="at least 8 samples"):
        fit_frequencies(t[:7], np.sin(2.0 * t[:7]), [2.0])
    y = np.sin(2.0 * t)
    y[-1] = math.inf
    with pytest.raises(ValueError, match="values must be finite"):
        fit_frequencies(t, y, [2.0])
    y[-1] = 0.0
    with pytest.raises(ValueError, match="non-empty 1-D list of frequency seeds"):
        fit_frequencies(t, y, [])
    for seeds in ([math.nan], [math.inf], [2.0, -math.inf]):
        with pytest.raises(ValueError, match=f"seeds must be finite: 1 are not, the first "
                                             f"{seeds[-1]} at seed {len(seeds) - 1}"):
            fit_frequencies(t, y, seeds)


# ---------------------------------------------------------- magnetic moment

def test_magnetic_moment_initial_and_average():
    p = DimensionlessParams(epsilon=-1e-3, spin="up")
    assert np.allclose(magnetic_moment_expectation(p, 0.0), 0.0)
    omega = 2.002
    t = np.linspace(0.0, 2 * math.pi / omega, 20001)
    mu = magnetic_moment_expectation(p, t)[:, 2]
    avg = np.trapezoid(mu, t) / (t[-1] - t[0])
    assert avg == pytest.approx(-0.5, abs=1e-8)


def test_magnetic_moment_down_frequency():
    p = DimensionlessParams(epsilon=-1e-3, spin="down")
    t = np.arange(0, 300, 0.02)
    mu = magnetic_moment_expectation(p, t)[:, 2]
    fit = fit_sinusoid(t, mu)
    assert fit.omega == pytest.approx(1.998, rel=1e-6)
    assert np.all(mu >= -1e-15)  # spin-down moment stays nonnegative


@pytest.mark.parametrize("spin", ["up", "down"])
@pytest.mark.parametrize("charge", ["electron", "positron"])
def test_magnetic_moment_trembles_with_the_packet(spin, charge):
    """mu_z's fitted frequency is the packet's shifted frequency in every cell."""
    p = DimensionlessParams(epsilon=-1e-3, spin=spin, charge=charge)
    t = np.arange(0, 300, 0.02)
    fit = fit_sinusoid(t, magnetic_moment_expectation(p, t)[:, 2])
    assert fit.omega == pytest.approx(shifted_frequency(p), rel=1e-6)


# ------------------------------------------------------- spin interpretation

def test_spin_interpretation_free_limit():
    for mode in ("variable_spin", "fixed_spin"):
        si = spin_interpretation(DimensionlessParams(epsilon=0.0), mode)
        assert (si.r_zbw, si.v_zbw, si.s_zbw, si.g) == (0.5, 1.0, 0.5, 2.0)


def test_spin_interpretation_variable():
    si = spin_interpretation(DimensionlessParams(epsilon=-1e-3, spin="up"), "variable_spin")
    assert si.v_zbw == pytest.approx(1.0 - 1e-6, abs=1e-15)
    assert si.s_zbw == pytest.approx(0.5 * (1.0 - 1e-3), abs=1e-15)
    assert si.g == pytest.approx(2.0 * (1.0 + 1e-3), abs=1e-15)


def test_spin_interpretation_fixed():
    si = spin_interpretation(DimensionlessParams(epsilon=-1e-3, spin="up"), "fixed_spin")
    assert si.s_zbw == 0.5
    assert si.zeta == pytest.approx(1.0 + 5e-4, abs=1e-15)


def test_variable_spin_product_invariance():
    """r_zbw * omega_shifted = 1 - eps^2 for both spins."""
    for spin in ("up", "down"):
        p = DimensionlessParams(epsilon=-3e-3, spin=spin)
        si = spin_interpretation(p, "variable_spin")
        assert si.r_zbw * shifted_frequency(p) == pytest.approx(
            1.0 - p.epsilon**2, abs=1e-12
        )


# --------------------------------------------------------------- invariants

def test_azimuthal_cancellation():
    """The planar pair weight turns with the azimuth, so the full azimuth cancels it.

    A packet with no fixed azimuth therefore has no planar <r> at any time.
    """
    p = DimensionlessParams(epsilon=-1e-3, spin="up")
    c0, c1, w_m = _drift_spinors(p)
    n_phi = 64
    weights = [_pair_weight(c0, c1, w_m, 2.0 * math.pi * k / n_phi, 2) for k in range(n_phi)]
    one = np.abs(weights[0][:2]).min()
    assert one > 1e-4
    assert np.abs((2.0 * math.pi / n_phi) * np.sum(weights, axis=0)).max() <= 1e-12 * one


def test_drift_velocity_vanishes():
    p = DimensionlessParams(epsilon=-1e-3, r0_over_lambda=100.0)
    assert np.max(np.abs(drift_velocity(p))) <= 1e-8


@pytest.mark.parametrize("r0", [10.0, 100.0])
@pytest.mark.parametrize("spin", ["up", "down"])
def test_drift_spinors_carry_the_packet_norm(r0, spin):
    """The drift's spinors have c^dag c summing to the packet normalization.

    Every drift term vanishes by symmetry whatever the spinor amplitudes, so
    the drift test alone cannot see a wrong amplitude; this density can.
    """
    p = DimensionlessParams(epsilon=-1e-3, spin=spin, r0_over_lambda=r0)
    c0, c1, w_m = _drift_spinors(p)
    n_phi = 64
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    c = c0[..., None, :] + c1[..., None, :] * np.exp(1j * phis)[:, None]
    dens = np.sum(np.abs(c) ** 2, axis=(0, -1))  # (nu, nt, nphi), summed over labels
    total = (2.0 * math.pi / n_phi) * np.sum(w_m[..., None] * dens)
    g = GaussianProfile.for_packet_width(r0)
    norm = packet_norm_constant(g)
    assert total / norm**2 == pytest.approx(packet_normalization(p), abs=1e-12)


def _random_spinors(rng, shape):
    return rng.normal(size=shape + (4,)) + 1j * rng.normal(size=shape + (4,))


def test_alpha_pair_matches_alpha_matrices():
    rng = np.random.default_rng(5)
    c1, c2 = _random_spinors(rng, (20,)), _random_spinors(rng, (20,))
    pair = _alpha_pair(c1, c2)
    for n in range(20):
        for i in range(3):
            assert pair[n, i] == pytest.approx(np.vdot(c1[n], ALPHA[i] @ c2[n]), abs=1e-13)


def _drift_reference(params, n_phi):
    """The drift as a full (label, pi, theta, phi, spinor) array summed over n_phi azimuth nodes."""
    g = GaussianProfile.for_packet_width(params.r0_over_lambda)
    pi_m, th_m, w_m = momentum_grid(g.pi0)
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    f = g.value(pi_m)[..., None] + 0.0 * phis
    pz = (pi_m * np.cos(th_m))[..., None] + 0.0 * phis
    pp = (pi_m * np.sin(th_m))[..., None] * np.exp(1j * phis)
    zero = np.zeros_like(pp)
    spinors = np.stack(
        [
            np.stack([f + 0j, zero, K * pz * f + 0j, K * pp * f], axis=-1),  # pos_up
            np.stack([zero, zero, -K * pz * f + 0j, zero], axis=-1),         # neg_up
            np.stack([zero, zero, zero, -K * pp * f], axis=-1),              # neg_down
        ]
    )
    dens = _alpha_pair(spinors, spinors).real.sum(axis=0)  # (nu, nt, nphi, 3)
    w = w_m[..., None, None] * (2.0 * math.pi / n_phi)
    return np.sum(w * dens, axis=(0, 1, 2))


@pytest.mark.parametrize("r0", [10.0, 100.0, 1000.0])
@pytest.mark.parametrize("spin", ["up", "down"])
@pytest.mark.parametrize("charge", ["electron", "positron"])
def test_drift_velocity_matches_azimuth_grid(r0, spin, charge):
    """The exact azimuth integral equals the node sums at n_phi = 2, 3 and 64.

    The bilinear holds only e^{0} and e^{+-i phi} terms, so any n_phi >= 2
    integrates it exactly; on each node the e^{i phi} cross term is large,
    so the node sums check that it cancels, not only the moment matrix.
    """
    p = DimensionlessParams(epsilon=-1e-3, spin=spin, charge=charge, r0_over_lambda=r0)
    drift = drift_velocity(p)
    for n_phi in (2, 3, 64):
        assert np.max(np.abs(drift - _drift_reference(p, n_phi))) <= 1e-15, n_phi


def test_packet_drift_has_no_planar_terms():
    """The packet's drift is exactly 0.0 along x and y.

    Its moment matrix pairs only spinor components (0, 2) and (3, 3), where
    Re(alpha_x) and Re(alpha_y) are zero, so no rounding enters x or y.
    """
    for eps, r0, spin, charge in itertools.product(
            (0.0, -1e-3, -0.099), (10.0, 100.0, 1e6), ("up", "down"), ("electron", "positron")):
        p = DimensionlessParams(epsilon=eps, spin=spin, charge=charge, r0_over_lambda=r0)
        assert drift_velocity(p)[:2].tolist() == [0.0, 0.0], p


def test_drift_velocity_integrates_any_spinors_exactly(monkeypatch):
    """On random real c0, c1 and weights, the drift equals the azimuth node sums.

    The packet's drift vanishes by symmetry, so only spinors whose drift does
    not vanish check the moment matrix and the dropped cross terms.
    """
    rng = np.random.default_rng(6)
    c0, c1 = rng.normal(size=(2, 3, 5, 4, 4))
    w = rng.uniform(0.5, 1.5, size=(5, 4))
    monkeypatch.setattr(expectation, "_drift_spinors", lambda params: (c0, c1, w))
    drift = drift_velocity(DimensionlessParams(epsilon=-1e-3))
    assert np.abs(drift).max() > 1.0
    for n_phi in (2, 3, 64):
        phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
        c = c0[..., None, :] + c1[..., None, :] * np.exp(1j * phis)[:, None]
        dens = np.einsum("lutpi,kij,lutpj->utk", c.conj(), np.array(ALPHA), c).real
        brute = (2.0 * math.pi / n_phi) * np.einsum("ut,utk->k", w, dens)
        np.testing.assert_allclose(drift, brute, rtol=0.0, atol=1e-12 * np.abs(brute).max())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.floats(1.0, 12.0), st.floats(-0.099, 0.0), st.sampled_from(("up", "down")),
       st.sampled_from(("electron", "positron")), st.floats(0.0, 2.0 * math.pi))
@example(1.0, -0.099, "up", "electron", 0.0)     # the narrowest packet in the strongest field
@example(12.0, 0.0, "down", "positron", 2.5)     # the widest packet in free space
@example(12.0, -0.099, "down", "electron", 0.0)
def test_quadrature_contract(log_r0, epsilon, spin, charge, phi0):
    """Over r0 in [10, 1e12] and every epsilon, the quadratures meet the benchmark's gates.

    I within a relative 1e-6 of the closed form, |J| <= 1e-10,
    |norm - 1| <= 1e-9 and |drift| <= 1e-10.
    """
    p = DimensionlessParams(epsilon=epsilon, spin=spin, charge=charge,
                            r0_over_lambda=10.0**log_r0, phi0=phi0)
    i_val, j_val = amplitude_coefficients_quadrature(p)
    closed = amplitude_coefficients(p)[0].value
    assert abs(i_val - closed) <= 1e-6 * abs(closed)
    assert abs(j_val) <= 1e-10
    assert abs(packet_normalization(p) - 1.0) <= 1e-9
    assert np.max(np.abs(drift_velocity(p))) <= 1e-10


def test_unit_mesh_is_shared_and_read_only():
    """The Gauss-Legendre mesh at pi0 = 1 is built once; every grid shares its read-only theta."""
    mesh = expectation._unit_mesh()
    assert all(a is b for a, b in zip(expectation._unit_mesh(), mesh))
    assert momentum_grid(0.01)[1] is mesh[1]
    for arr in mesh:
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0


def _grid_per_call(pi0):
    """The (pi, theta, weight) meshes built directly at pi0 from fresh Gauss-Legendre nodes."""
    xu, wu = np.polynomial.legendre.leggauss(expectation.N_U)
    xt, wt = np.polynomial.legendre.leggauss(expectation.N_THETA)
    pi_m, th_m = np.meshgrid(0.5 * expectation.U_MAX * (xu + 1.0) * pi0,
                             0.5 * math.pi * (xt + 1.0), indexing="ij")
    w_m = np.outer(0.5 * expectation.U_MAX * wu * pi0, 0.5 * math.pi * wt)
    return pi_m, th_m, w_m * pi_m**2 * np.sin(th_m)


def test_unit_mesh_changes_no_quadrature(monkeypatch):
    """The scaled unit mesh is the grid built at pi0 to rounding, and caching moves no quadrature."""
    for pi0 in (0.1, 1e-2, 1e-12):
        for cached, direct in zip(momentum_grid(pi0), _grid_per_call(pi0)):
            np.testing.assert_allclose(cached, direct, rtol=1e-15, atol=0.0)
    params = [DimensionlessParams(epsilon=eps, spin=spin, r0_over_lambda=r0)
              for eps, spin, r0 in ((-1e-3, "up", 100.0), (-1e-2, "down", 10.0))]

    def quadratures():
        return [(amplitude_coefficients_quadrature(p), packet_normalization(p),
                 drift_velocity(p).tolist()) for p in params]

    cached = quadratures()
    monkeypatch.setattr(expectation, "_unit_mesh", expectation._unit_mesh.__wrapped__)
    assert quadratures() == cached


def test_unit_mesh_fills_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(Path(zbwsim.__file__).parents[1]))
    code = ("import zbwsim.cli, zbwsim.expectation as e; "
            "print(e._unit_mesh.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "0"


def test_packet_normalization_quadrature():
    for eps in (0.0, -1e-3, -1e-2):
        assert packet_normalization(DimensionlessParams(epsilon=eps)) == pytest.approx(
            1.0, abs=1e-8
        )
