import math
from dataclasses import replace

import numpy as np
import pytest

from zbwsim import bz, symmetry
from zbwsim.units import DimensionlessParams

G = np.array([1.0, -1.0, -1.0, -1.0])


def _free_params():
    return DimensionlessParams(epsilon=0.0)


def test_rhs_position_and_momentum():
    params = DimensionlessParams(epsilon=-1e-2)
    eb = 2.0 * params.epsilon
    y = bz.make_initial_state(params)
    dot = bz.bz_rhs(y, bz.linear_part(eb))
    assert np.allclose(dot[0:4], y[8:12])
    # initial velocity is along x; pi-dot = e F v picks up the y equation
    assert dot[4] == 0.0 and dot[7] == 0.0
    assert dot[6] == pytest.approx(-eb * y[9])


def test_rhs_velocity_from_spin():
    y = bz.make_initial_state(DimensionlessParams(epsilon=0.0))
    dot = bz.bz_rhs(y, bz.linear_part(0.0))
    # rest-frame pi with S^{12} only: v-dot = 4 S pi_low = 0
    assert np.allclose(dot[8:12], 0.0)
    # S-dot = pi (x) v - v (x) pi couples time and space rows only
    s_dot = dot[12:28].reshape(4, 4)
    assert s_dot[1, 2] == 0.0
    assert s_dot[0, 1] == pytest.approx(y[4] * y[9])


def _rhs_reference(y, eb):
    """Component-wise right-hand side of one flat state, the reference for bz_rhs."""
    v, pi, s = y[8:12], y[4:8], y[12:28].reshape(4, 4)
    out = np.empty(28)
    out[0:4] = v
    out[4:8] = 0.0, eb * v[2], -eb * v[1], 0.0
    out[8:12] = 4.0 * (s @ (pi * G))
    sd = np.outer(pi, v)
    out[12:28] = (sd - sd.T).ravel()
    return out


def test_rhs_matches_componentwise_reference():
    rng = np.random.default_rng(11)
    eb = -0.13
    lin = bz.linear_part(eb)
    for shape in ((28,), (3, 28)):
        y = rng.standard_normal(shape)
        # fixed from the dtype: a few roundings of products of two state entries
        tol = 16.0 * np.finfo(y.dtype).eps * (1.0 + np.max(np.abs(y))) ** 2
        dot = bz.bz_rhs(y, lin)
        assert dot.shape == shape
        assert np.max(np.abs(dot - np.apply_along_axis(_rhs_reference, -1, y, eb))) <= tol


def test_batched_integration_matches_single_runs():
    p = DimensionlessParams(epsilon=-1e-2)
    starts = [bz.make_initial_state(replace(p, spin=spin)) for spin in ("up", "down")]
    batch = bz.integrate(np.stack(starts), p, 20.0, 0.02)  # 1000 steps
    assert batch.v.shape == (1001, 2, 4) and batch.S.shape == (1001, 2, 4, 4)
    for k, y0 in enumerate(starts):
        single = bz.integrate(y0, p, 20.0, 0.02)
        assert single.v.shape == (1001, 4) and single.S.shape == (1001, 4, 4)
        for name in ("x", "pi", "v", "S"):
            diff = getattr(batch, name)[:, k] - getattr(single, name)
            assert np.max(np.abs(diff)) <= 1e-13, name


def test_fitted_table_integrates_once_per_epsilon(monkeypatch):
    starts = []
    integrate = bz.integrate

    def counting(state0, *args, **kwargs):
        starts.append(np.shape(state0))
        return integrate(state0, *args, **kwargs)

    monkeypatch.setattr(bz, "integrate", counting)
    for eps in (-1e-2, -2e-2):
        symmetry.fitted_classical_table(DimensionlessParams(epsilon=eps), tau_max=20.0, dt=0.02)
    assert starts == [(2, 28), (2, 28)]


def test_initial_state_constants_of_motion():
    """pi.v = m and pi^2 - e F.S = pi^2 + 2 e B S^{12} = m^2 along the whole run."""
    for eps in (-1e-2, -1e-3):
        for spin in ("up", "down"):
            params = DimensionlessParams(epsilon=eps, spin=spin)
            traj = bz.integrate(bz.make_initial_state(params), params, 100.0, 0.02)
            assert traj.S[0, 1, 2] == 0.5 * params.spin_sign
            pi_v = np.einsum("ni,i,ni->n", traj.pi, G, traj.v)
            pi_sq = np.einsum("ni,i,ni->n", traj.pi, G, traj.pi)
            eb = 2.0 * eps
            mass_shell = pi_sq + 2.0 * eb * traj.S[:, 1, 2]
            assert np.max(np.abs(pi_v - 1.0)) <= 1e-9
            assert np.max(np.abs(mass_shell - 1.0)) <= 1e-9


def _free_run(tau_max, dt):
    params = _free_params()
    traj = bz.integrate(bz.make_initial_state(params), params, tau_max, dt)
    pi0, v0, s0 = traj.pi[0], traj.v[0], traj.S[0]
    a0 = 4.0 * (s0 @ (G * pi0))
    return traj, bz.free_solution(v0, a0, pi0, traj.tau)


def test_free_integration_matches_analytic():
    traj, ana = _free_run(20.0 * math.pi, 0.003)
    assert np.max(np.abs(traj.v - ana)) <= 1e-8


def test_integrator_fourth_order_convergence():
    def max_err(dt):
        traj, ana = _free_run(10.0, dt)
        return np.max(np.abs(traj.v - ana))

    factor = max_err(0.02) / max_err(0.01)
    assert 12.0 <= factor <= 20.0


def test_spin_antisymmetry_preserved():
    params = DimensionlessParams(epsilon=-1e-2)
    traj = bz.integrate(bz.make_initial_state(params), params, 50.0, 0.01)
    asym = np.max(np.abs(traj.S + np.transpose(traj.S, (0, 2, 1))))
    assert asym <= 1e-12


def test_integration_blowup_guard():
    params = DimensionlessParams(epsilon=-1e-3)
    bad = 1e3 * bz.make_initial_state(params)  # x(0) = 0, so only pi, v, S grow
    with pytest.raises(bz.IntegrationUnstableError):
        bz.integrate(bad, params, 50.0, 0.01)


def test_dt_guard():
    params = _free_params()
    for dt in (0.5, 0.0, -0.01, math.nan):
        with pytest.raises(ValueError):
            bz.integrate(bz.make_initial_state(params), params, 10.0, dt)
        with pytest.raises(ValueError):
            bz.integrate_reduced(bz.reduced_initial_state(params), params, 10.0, dt)
    for tau_max in (-1.0, math.inf):
        with pytest.raises(ValueError):
            bz.integrate(bz.make_initial_state(params), params, tau_max, 0.01)


# ------------------------------------------------------------------- cubic

def test_cubic_coefficient_forms_agree():
    # the constructor asserts raw-vs-dimensionless agreement to 1e-12
    for eps in (-1e-2, -1e-3, -1e-4):
        for spin in ("up", "down"):
            c = bz.characteristic_cubic(DimensionlessParams(epsilon=eps, spin=spin))
            assert c.c1 == c.c1_raw and c.c0 == c.c0_raw


def test_cubic_free_limit():
    c = bz.characteristic_cubic(DimensionlessParams(epsilon=0.0))
    r = bz.solve_cubic_exact(c)
    assert r.omega1 == pytest.approx(0.0, abs=1e-15)
    assert r.omega2 == pytest.approx(2.0, abs=1e-12)
    assert r.omega3 == pytest.approx(-2.0, abs=1e-12)


def _bisect_root(c, lo, hi, tol=1e-14):
    f = lambda w: w**3 + c.c1 * w + c.c0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_exact_roots_against_bisection_oracle():
    p = DimensionlessParams(epsilon=-1e-3, spin="up")
    c = bz.characteristic_cubic(p)
    r = bz.solve_cubic_exact(c)
    assert r.omega1 == pytest.approx(_bisect_root(c, -0.1, 0.1), abs=1e-12)
    assert r.omega2 == pytest.approx(_bisect_root(c, 1.5, 2.5), abs=1e-12)
    assert r.omega3 == pytest.approx(_bisect_root(c, -2.5, -1.5), abs=1e-12)


def test_vieta_identities_random_epsilon():
    rng = np.random.default_rng(3)
    for _ in range(100):
        eps = -(10.0 ** rng.uniform(-5, -1.1))
        spin = rng.choice(["up", "down"])
        c = bz.characteristic_cubic(DimensionlessParams(epsilon=eps, spin=spin))
        r = bz.solve_cubic_exact(c)
        w = r.as_array()
        assert w.sum() == pytest.approx(0.0, abs=1e-10 * np.abs(w).max())
        pair = w[0] * w[1] + w[0] * w[2] + w[1] * w[2]
        assert pair == pytest.approx(c.c1, rel=1e-10)
        assert w.prod() == pytest.approx(-c.c0, rel=1e-10)


def test_complex_roots_error():
    # c1 > 0 makes the cubic monotone with a single real root
    c = bz.CubicCoefficients(c3=1.0, c1=4.0, c0=0.1, c1_raw=4.0, c0_raw=0.1)
    with pytest.raises(bz.ComplexRootsError):
        bz.solve_cubic_exact(c)


def test_accurate_roots_examples():
    p = DimensionlessParams(epsilon=-1e-3, spin="up")
    r = bz.perturbative_roots(p, "accurate")
    assert r.omega2 == pytest.approx(2.0 * (1.0 + 2e-3), rel=1e-12)
    assert r.omega3 == pytest.approx(-2.0 * (1.0 + 1e-3), rel=1e-12)
    d = bz.perturbative_roots(DimensionlessParams(epsilon=-1e-3, spin="down"), "accurate")
    assert d.omega2 == pytest.approx(2.0 * (1.0 - 1e-3), rel=1e-12)
    assert d.omega3 == pytest.approx(-2.0 * (1.0 - 2e-3), rel=1e-12)


def test_accurate_roots_quadratic_deviation():
    for eps in (-1e-2, -1e-3, -1e-4):
        for spin in ("up", "down"):
            p = DimensionlessParams(epsilon=eps, spin=spin)
            exact = bz.solve_cubic_exact(bz.characteristic_cubic(p)).as_array()
            acc = bz.perturbative_roots(p, "accurate").as_array()
            assert np.max(np.abs(acc - exact)) <= 5.0 * eps**2 * 2.0


def test_rough_roots_first_order_deviation():
    """Deviation of the rough omega2 from exact is (0.5 +- 0.05)|eps|*omega_zbw."""
    for eps in (-1e-2, -1e-3, -1e-4):
        for spin in ("up", "down"):
            p = DimensionlessParams(epsilon=eps, spin=spin)
            exact = bz.solve_cubic_exact(bz.characteristic_cubic(p))
            rough = bz.perturbative_roots(p, "rough")
            dev = abs(rough.omega2 - exact.omega2) / (abs(eps) * 2.0)
            assert 0.45 <= dev <= 0.55


def test_rough_slow_root_sign_mismatch():
    """The first-order slow-root formula has the opposite sign to the exact root."""
    p = DimensionlessParams(epsilon=-1e-3, spin="up")
    exact = bz.solve_cubic_exact(bz.characteristic_cubic(p))
    rough = bz.perturbative_roots(p, "rough")
    assert exact.omega1 < 0.0 < rough.omega1
    assert abs(abs(rough.omega1) - abs(exact.omega1)) <= 10.0 * p.epsilon**2


# ---------------------------------------------------------- reduced system

def test_reduced_free_rotation():
    """At eps = 0 the reduced system is plain circular Zbw at frequency 2."""
    p = DimensionlessParams(epsilon=0.0)
    tau, states = bz.integrate_reduced(bz.reduced_initial_state(p), p, 10.0, 0.002)
    assert np.max(np.abs(states[:, 0] - np.cos(2.0 * tau))) <= 1e-9


def test_full_vs_reduced_vx():
    p = DimensionlessParams(epsilon=-1e-4)
    tau_max = 10.0 * math.pi  # 10 Zbw periods
    dt = 0.002
    full = bz.integrate(bz.make_initial_state(p), p, tau_max, dt)
    _, reduced = bz.integrate_reduced(bz.reduced_initial_state(p), p, tau_max, dt)
    assert np.max(np.abs(full.v[:, 1] - reduced[:, 0])) <= 1e-6


def test_spectral_smoke():
    p = DimensionlessParams(epsilon=-1e-2)
    fits = bz.spectral_frequencies(p, tau_max=200.0, dt=0.02)  # fast modes + trend
    assert len(fits) == 2
    for spin, fit in zip(("up", "down"), fits):
        exact = bz.solve_cubic_exact(bz.characteristic_cubic(replace(p, spin=spin)))
        assert fit.freqs[0] == pytest.approx(exact.omega2, rel=1e-4)
        assert fit.freqs[1] == pytest.approx(abs(exact.omega3), rel=1e-4)
