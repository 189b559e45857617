"""Acceptance suite: one test per headline claim, one printed verdict line each.

Run with -s to see the verdict lines; each test also asserts, so the suite
fails loudly if a claim stops holding.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from zbwsim import bz, symmetry
from zbwsim.expectation import (
    amplitude_coefficients,
    amplitude_coefficients_quadrature,
    extract_frequency,
    magnetic_moment_expectation,
    quantum_trajectory,
    shifted_frequency,
    spin_interpretation,
)
from zbwsim.fitting import fit_sinusoid
from zbwsim.packet import MomentumPoint, exact_packet_coefficients, k_factors
from zbwsim.units import DimensionlessParams

G = np.array([1.0, -1.0, -1.0, -1.0])
CELLS = (("electron", "up"), ("electron", "down"), ("positron", "up"), ("positron", "down"))


def _verdict(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, text


def test_criterion_1_quantum_shift_reproduction():
    worst_rel, worst_time = 0.0, 0.0
    for eps in (-1e-2, -1e-3, -1e-4):
        for charge, spin in CELLS:
            p = DimensionlessParams(epsilon=eps, spin=spin, charge=charge)
            t0 = time.perf_counter()
            fit = extract_frequency(quantum_trajectory(p))
            elapsed = time.perf_counter() - t0
            rel = abs(fit.omega - shifted_frequency(p)) / shifted_frequency(p)
            worst_rel = max(worst_rel, rel)
            worst_time = max(worst_time, elapsed)
    _verdict(
        1,
        worst_rel <= 1e-6 and worst_time < 5.0,
        f"fitted quantum shifts, worst rel err {worst_rel:.2e} (<=1e-6), "
        f"slowest case {worst_time:.2f}s (<5s)",
    )


def test_criterion_2_amplitude_coefficients():
    worst_i, worst_j = 0.0, 0.0
    for r0 in (10.0, 100.0, 1000.0):
        for spin in ("up", "down"):
            p = DimensionlessParams(epsilon=-1e-3, spin=spin, r0_over_lambda=r0)
            planar, _ = amplitude_coefficients(p)
            i_quad, j_quad = amplitude_coefficients_quadrature(p)
            worst_i = max(worst_i, abs(i_quad - planar.value) / abs(planar.value))
            worst_j = max(worst_j, abs(j_quad))
    _verdict(
        2,
        worst_i <= 1e-6 and worst_j <= 1e-10,
        f"closed-form I vs quadrature rel err {worst_i:.2e} (<=1e-6), |J| {worst_j:.2e} (<=1e-10)",
    )


def test_criterion_3_magnetic_moment():
    worst_avg, worst_freq = 0.0, 0.0
    for spin, target in (("up", -0.5), ("down", 0.5)):
        p = DimensionlessParams(epsilon=-1e-3, spin=spin)
        omega_ref = shifted_frequency(p)
        t = np.linspace(0.0, 2.0 * math.pi / omega_ref, 40001)
        mu = magnetic_moment_expectation(p, t)[:, 2]
        avg = np.trapezoid(mu, t) / (t[-1] - t[0])
        worst_avg = max(worst_avg, abs(avg - target))
        tf = np.arange(0.0, 300.0, 0.02)
        fit = fit_sinusoid(tf, magnetic_moment_expectation(p, tf)[:, 2])
        worst_freq = max(worst_freq, abs(fit.omega - omega_ref) / omega_ref)
    _verdict(
        3,
        worst_avg <= 1e-8 and worst_freq <= 1e-6,
        f"mu_z average err {worst_avg:.2e} (<=1e-8), frequency rel err {worst_freq:.2e} (<=1e-6)",
    )


def test_criterion_4_cubic_roots():
    t0 = time.perf_counter()
    worst_vieta, worst_acc, rough_devs = 0.0, 0.0, []
    for eps in (-1e-2, -1e-3, -1e-4):
        for spin in ("up", "down"):
            p = DimensionlessParams(epsilon=eps, spin=spin)
            c = bz.characteristic_cubic(p)
            r = bz.solve_cubic_exact(c)
            w = r.as_array()
            worst_vieta = max(
                worst_vieta,
                abs(w.sum()) / np.abs(w).max(),
                abs((w[0] * w[1] + w[0] * w[2] + w[1] * w[2]) - c.c1) / abs(c.c1),
                abs(w.prod() + c.c0) / abs(c.c0),
            )
            acc = bz.perturbative_roots(p, "accurate").as_array()
            worst_acc = max(worst_acc, np.max(np.abs(acc - w)) / (5.0 * eps**2 * 2.0))
            rough = bz.perturbative_roots(p, "rough")
            rough_devs.append(abs(rough.omega2 - r.omega2) / (abs(eps) * 2.0))
    elapsed = time.perf_counter() - t0
    rough_ok = all(0.45 <= d <= 0.55 for d in rough_devs)
    _verdict(
        4,
        worst_vieta <= 1e-10 and worst_acc <= 1.0 and rough_ok and elapsed < 1.0,
        f"Vieta rel err {worst_vieta:.2e} (<=1e-10), accurate dev/(5 eps^2 w) "
        f"{worst_acc:.2f} (<=1), rough omega2 dev in [{min(rough_devs):.3f}, "
        f"{max(rough_devs):.3f}] (0.5+-0.05), {elapsed:.2f}s (<1s)",
    )


def test_criterion_5_classical_dynamics_consistency():
    # (a) free-particle RK4 vs analytic over 20 Zbw periods
    p0 = DimensionlessParams(epsilon=0.0)
    traj = bz.integrate(bz.make_initial_state(p0), p0, 20.0 * math.pi, 0.003)
    pi0, v0, s0 = traj.pi[0], traj.v[0], traj.S[0]
    a0 = 4.0 * (s0 @ (G * pi0))
    free_err = float(np.max(np.abs(traj.v - bz.free_solution(v0, a0, pi0, traj.tau))))

    # (b) uniform-B spectral frequencies vs exact cubic roots
    p = DimensionlessParams(epsilon=-5e-3)
    fits = bz.spectral_frequencies(p, tau_max=2000.0, dt=0.02)  # all three modes, both spins
    spec_err = 0.0
    for spin, fit in zip(("up", "down"), fits):
        exact = np.abs(bz.solve_cubic_exact(
            bz.characteristic_cubic(replace(p, spin=spin))).as_array())
        spec_err = max(spec_err, float(np.max(np.abs(fit.freqs - exact) / exact)))

    # (c) full nonlinear system vs reduced third-order system on v_x
    p2 = DimensionlessParams(epsilon=-1e-4)
    full = bz.integrate(bz.make_initial_state(p2), p2, 10.0 * math.pi, 0.002)
    _, red = bz.integrate_reduced(bz.reduced_initial_state(p2), p2, 10.0 * math.pi, 0.002)
    vx_err = float(np.max(np.abs(full.v[:, 1] - red[:, 0])))

    _verdict(
        5,
        free_err <= 1e-8 and spec_err <= 1e-4 and vx_err <= 1e-6,
        f"free-run err {free_err:.2e} (<=1e-8), spectral-vs-roots rel err {spec_err:.2e} "
        f"(<=1e-4), full-vs-reduced v_x err {vx_err:.2e} (<=1e-6)",
    )


def test_criterion_6_cp_verdicts():
    p = DimensionlessParams(epsilon=-1e-4)
    q_rep = symmetry.cp_check(symmetry.shift_table("quantum", p))
    # trajectory-fitted classical table; the slow mode is unresolvable at this
    # epsilon and is absorbed into a trend, so only fast modes are fitted
    c_rep = symmetry.cp_check(
        symmetry.fitted_classical_table(p, tau_max=4000.0, dt=0.015), rel_tol=1e-4
    )
    _verdict(
        6,
        q_rep.verdict == "cp_respected"
        and abs(q_rep.asymmetry_ratio - 1.0) <= 1e-6
        and c_rep.verdict == "cp_violated"
        and abs(c_rep.asymmetry_ratio - 2.0) <= 1e-3,
        f"quantum {q_rep.verdict}, ratio {q_rep.asymmetry_ratio:.8f} (1+-1e-6); "
        f"classical fitted {c_rep.verdict}, ratio {c_rep.asymmetry_ratio:.6f} (2+-1e-3)",
    )


def test_criterion_7_spin_interpretation_identities():
    worst = 0.0
    for eps in (-1e-2, -1e-3, -1e-4):
        for spin, sgn in (("up", 1.0), ("down", -1.0)):
            p = DimensionlessParams(epsilon=eps, spin=spin)
            var = spin_interpretation(p, "variable_spin")
            fix = spin_interpretation(p, "fixed_spin")
            worst = max(
                worst,
                abs(var.v_zbw - (1.0 - eps**2)),
                abs(var.s_zbw - 0.5 * (1.0 + sgn * eps)),
                abs(fix.zeta - (1.0 - sgn * eps / 2.0)),
                abs(fix.s_zbw - 0.5),
            )
    _verdict(7, worst <= 1e-12, f"spin-interpretation identities, worst err {worst:.2e} (<=1e-12)")


def test_criterion_8_zero_field_reductions():
    p = DimensionlessParams(epsilon=0.0)
    fit = extract_frequency(quantum_trajectory(p))
    freq_err = abs(fit.omega - 2.0)
    radius_err = abs(fit.amplitude - 0.5)
    roots = bz.solve_cubic_exact(bz.characteristic_cubic(p)).as_array()
    root_err = float(np.max(np.abs(roots - np.array([0.0, 2.0, -2.0]))))
    shift_err = max(
        abs(c.delta_omega)
        for ap in symmetry.APPROACHES
        for c in symmetry.shift_table(ap, p).cells
    )
    traj = bz.integrate(bz.make_initial_state(p), p, 40.0, 0.005)
    bz_fit = fit_sinusoid(traj.tau, traj.v[:, 1])
    bz_err = abs(bz_fit.omega - 2.0)
    _verdict(
        8,
        max(freq_err, radius_err, root_err, shift_err, bz_err) <= 1e-9,
        f"eps=0: quantum freq err {freq_err:.2e}, radius err {radius_err:.2e}, "
        f"root err {root_err:.2e}, shifts {shift_err:.2e}, classical freq err "
        f"{bz_err:.2e} (all <=1e-9)",
    )


def test_criterion_9_exact_coefficients_epsilon_scaling():
    """Deviation of the exact packet weights from their eps = 0 values is O(eps)."""
    nodes = [
        MomentumPoint(0.02, 0.7, 0.5),
        MomentumPoint(0.05, 1.9, 2.8),
        MomentumPoint(0.01, 2.6, 4.1),
    ]
    k0 = k_factors(DimensionlessParams(epsilon=0.0))
    base = [exact_packet_coefficients(p, k0) for p in nodes]
    eps_list = (-1e-2, -1e-3, -1e-4)
    devs = []
    for eps in eps_list:
        k = k_factors(DimensionlessParams(epsilon=eps))
        d = 0.0
        for p, b in zip(nodes, base):
            co = exact_packet_coefficients(p, k)
            d += (abs(co.a - b.a) + abs(co.b - b.b) + abs(co.c - b.c) + abs(co.d - b.d))
        devs.append(d)
    slope = float(np.polyfit(np.log(np.abs(eps_list)), np.log(devs), 1)[0])
    _verdict(9, abs(slope - 1.0) <= 0.1, f"log-log slope {slope:.3f} (1 +- 0.1)")
