"""Classical spinning-particle dynamics in a uniform magnetic field.

Integrates the coupled (x, pi, v, S) first-order system with fixed-step RK4,
solves the characteristic cubic for the planar rotation frequencies exactly
and perturbatively, and extracts mode frequencies from simulated v_x(tau).

A phase point is one flat vector of 28 floats: y[0:4] = x, y[4:8] = pi,
y[8:12] = v and y[12:28] = S^{mu nu} in row-major order.  One private RK4
driver integrates both the full system (:func:`integrate`, right-hand side
:func:`bz_rhs`) and its constant-spin reduction (:func:`integrate_reduced`,
the linear system y' = A y in v_x, v_y and their first two derivatives).

Conventions: metric (+,-,-,-), proper-time derivatives, units with
hbar = c = m = 1 and the spinor coupling constant set to -1.  The field
enters only through e*B = 2*epsilon (electron: e = -1, B = -2*epsilon > 0
for physical epsilon < 0), and s_z is identified with S^{12}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fitting import FrequencyFit, fit_frequencies
from .units import OMEGA_ZBW, DimensionlessParams

TWO_PI = 2.0 * math.pi
_G = np.array([1.0, -1.0, -1.0, -1.0])  # metric signature diag
DT_MAX = TWO_PI / (50.0 * OMEGA_ZBW)    # at least 50 steps per trembling period
BLOWUP = 1e6                            # largest |state component| an integration may reach


class IntegrationUnstableError(RuntimeError):
    """A state component exceeded the blow-up guard during integration."""


class ComplexRootsError(ValueError):
    """Characteristic cubic discriminant was not positive."""


def _eb(params: DimensionlessParams) -> float:
    """e*B in the electron convention: e = -1, B = -2*epsilon."""
    return 2.0 * params.epsilon


def bz_rhs(y: np.ndarray, eb: float) -> np.ndarray:
    """Proper-time derivative of the flat state y at field strength e*B = eb."""
    v = y[8:12]
    s = y[12:28].reshape(4, 4)
    pi = y[4:8]
    out = np.empty(28)
    out[0:4] = v
    # e * F^{mu nu} v_nu for the z-directed field
    out[4] = 0.0
    out[5] = eb * v[2]   # e F^{12} v_2 = e (-B)(-v_y)
    out[6] = -eb * v[1]  # e F^{21} v_1 = e B (-v_x)
    out[7] = 0.0
    out[8:12] = 4.0 * (s @ (pi * _G))
    sd = np.outer(pi, v)
    out[12:28] = (sd - sd.T).ravel()
    return out


def make_initial_state(params: DimensionlessParams) -> np.ndarray:
    """Rest-frame polarized start that excites all three rotation modes.

    S^{12}(0) = s_z, boost components zero; pi(0) is timelike with
    pi^2 = m^2 - 2 e B s_z and v^0(0) = m / pi^0(0), so the constants of
    motion assumed by the characteristic-cubic reduction (pi.v = m and
    pi^2 - e F.S = m^2) hold exactly along the trajectory.
    """
    s_z = 0.5 * params.spin_sign
    pi0 = math.sqrt(1.0 - 2.0 * _eb(params) * s_z)
    y = np.zeros(28)
    y[4] = pi0                # pi = (pi0, 0, 0, 0)
    y[8:10] = 1.0 / pi0, 1.0  # v = (1 / pi0, 1, 0, 0)
    y[18], y[21] = s_z, -s_z  # S^{12} = -S^{21} = s_z
    return y


@dataclass(frozen=True)
class BZTrajectory:
    """An integrated run; x, pi, v and S are views into one (N, 28) state array."""

    tau: np.ndarray
    x: np.ndarray   # (N, 4)
    pi: np.ndarray  # (N, 4)
    v: np.ndarray   # (N, 4)
    S: np.ndarray   # (N, 4, 4)


def _rk4(rhs, y0: np.ndarray, tau_max: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Classic fixed-step RK4 of y' = rhs(y) over [0, tau_max]; returns (tau, states)."""
    if not (math.isfinite(dt) and math.isfinite(tau_max)) or dt <= 0.0 or tau_max < 0.0:
        raise ValueError(f"need finite dt > 0 and tau_max >= 0, got dt = {dt:g}, "
                         f"tau_max = {tau_max:g}")
    if dt > DT_MAX:
        raise ValueError(f"dt = {dt:g} too coarse (need <= {DT_MAX:g})")
    n = int(round(tau_max / dt))
    tau = dt * np.arange(n + 1)
    out = np.empty((n + 1, len(y0)))
    y = np.asarray(y0, dtype=float)
    out[0] = y
    half, sixth = 0.5 * dt, dt / 6.0
    for i in range(n):
        k1 = rhs(y)
        k2 = rhs(y + half * k1)
        k3 = rhs(y + half * k2)
        k4 = rhs(y + dt * k3)
        y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if np.max(np.abs(y)) > BLOWUP:
            raise IntegrationUnstableError(f"state blew up at tau = {tau[i + 1]:g}")
        out[i + 1] = y
    return tau, out


def integrate(
    state0: np.ndarray, params: DimensionlessParams, tau_max: float, dt: float
) -> BZTrajectory:
    """Full (x, pi, v, S) system from the flat state0 over [0, tau_max]."""
    eb = _eb(params)
    tau, ys = _rk4(lambda y: bz_rhs(y, eb), state0, tau_max, dt)
    return BZTrajectory(tau=tau, x=ys[:, 0:4], pi=ys[:, 4:8], v=ys[:, 8:12],
                        S=ys[:, 12:28].reshape(-1, 4, 4))


def free_solution(
    v0: np.ndarray, a0: np.ndarray, p: np.ndarray, tau: float | np.ndarray, m: float = 1.0
) -> np.ndarray:
    """Field-free 4-velocity: drift plus trembling at omega_zbw."""
    tau = np.asarray(tau, dtype=float)
    drift = np.asarray(p) / m
    osc = np.asarray(v0) - drift
    return (
        drift
        + osc * np.cos(OMEGA_ZBW * tau)[..., None]
        + (np.asarray(a0) / (2.0 * m)) * np.sin(OMEGA_ZBW * tau)[..., None]
    )


@dataclass(frozen=True)
class CubicCoefficients:
    """omega^3 + c1*omega + c0 = 0 (no quadratic term by construction)."""

    c3: float
    c1: float
    c0: float
    c1_raw: float
    c0_raw: float


def characteristic_cubic(params: DimensionlessParams) -> CubicCoefficients:
    """Coefficients in both the raw (m, e*B, s_z) and dimensionless forms."""
    eps = params.epsilon
    sgn = params.spin_sign
    c1 = -(OMEGA_ZBW**2) * (1.0 - sgn * 3.0 * eps)
    c0 = eps * OMEGA_ZBW**3
    eb = _eb(params)
    s_z = 0.5 * sgn
    c1_raw = -4.0 * (1.0 - 3.0 * s_z * eb)
    c0_raw = 4.0 * eb
    if abs(c1 - c1_raw) > 1e-12 * abs(c1) or abs(c0 - c0_raw) > 1e-12 * max(abs(c0), 1e-30):
        raise AssertionError("raw and dimensionless cubic coefficients disagree")
    return CubicCoefficients(c3=1.0, c1=c1, c0=c0, c1_raw=c1_raw, c0_raw=c0_raw)


@dataclass(frozen=True)
class RootSet:
    omega1: float
    omega2: float
    omega3: float
    method: str  # "exact" | "rough" | "accurate"

    def as_array(self) -> np.ndarray:
        return np.array([self.omega1, self.omega2, self.omega3])


def solve_cubic_exact(c: CubicCoefficients) -> RootSet:
    """Trigonometric solution of the depressed cubic, one Newton polish per root.

    Roots are sorted by magnitude; the two fast roots keep the (positive,
    negative) order of the field-free pair (0, +2, -2).
    """
    p, q = c.c1, c.c0
    disc = -4.0 * p**3 - 27.0 * q**2
    if disc <= 0.0:
        raise ComplexRootsError(f"discriminant {disc:g} <= 0")
    r = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q / (p * r)
    arg = min(1.0, max(-1.0, arg))
    acos = math.acos(arg)
    roots = [r * math.cos((acos - TWO_PI * k) / 3.0) for k in range(3)]
    for i, w in enumerate(roots):
        fw = w**3 + p * w + q
        dfw = 3.0 * w**2 + p
        roots[i] = w - fw / dfw
    roots.sort(key=abs)
    w1, wa, wb = roots
    w2, w3 = (wa, wb) if wa > 0 else (wb, wa)
    return RootSet(omega1=w1, omega2=w2, omega3=w3, method="exact")


def perturbative_roots(params: DimensionlessParams, scheme: str) -> RootSet:
    """First-order ("rough") and improved ("accurate") root approximations."""
    eps = params.epsilon
    sgn = params.spin_sign
    omega_c = -2.0 * eps
    if scheme == "rough":
        return RootSet(
            omega1=omega_c * (1.0 + sgn * 3.0 * eps),
            omega2=OMEGA_ZBW * (1.0 - sgn * 1.5 * eps),
            omega3=-OMEGA_ZBW * (1.0 - sgn * 1.5 * eps),
            method="rough",
        )
    if scheme == "accurate":
        exact = solve_cubic_exact(characteristic_cubic(params))
        if params.spin == "up":
            w2 = OMEGA_ZBW * (1.0 - 2.0 * eps)
            w3 = -OMEGA_ZBW * (1.0 - eps)
        else:
            w2 = OMEGA_ZBW * (1.0 + eps)
            w3 = -OMEGA_ZBW * (1.0 + 2.0 * eps)
        return RootSet(omega1=exact.omega1, omega2=w2, omega3=w3, method="accurate")
    raise ValueError(f"scheme must be 'rough' or 'accurate', got {scheme!r}")


def reduced_initial_state(params: DimensionlessParams) -> np.ndarray:
    """Reduced-system start matching :func:`make_initial_state` exactly."""
    c = characteristic_cubic(params)
    return np.array([1.0, 0.0, 0.0, 0.0, c.c1, 0.0])


def integrate_reduced(
    state0: np.ndarray, params: DimensionlessParams, tau_max: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 on the reduced linear system; returns (tau, states (N, 6)).

    The state is (vx, vy, ax, ay, jx, jy), v_x and v_y with their first and
    second derivatives, and the cubic coefficients close it at third order.
    """
    c = characteristic_cubic(params)
    a = np.zeros((6, 6))
    a[0:4, 2:6] = np.eye(4)
    a[4, 1], a[4, 2] = c.c0, c.c1   # jx' = c1 ax + c0 vy
    a[5, 0], a[5, 3] = -c.c0, c.c1  # jy' = c1 ay - c0 vx
    return _rk4(a.dot, state0, tau_max, dt)


def spectral_frequencies(params: DimensionlessParams, tau_max: float, dt: float) -> FrequencyFit:
    """Integrate a field run and fit its v_x spectrum against the cubic modes.

    A span of at least 2.5 slow cyclotron-like periods fits |omega1|, omega2,
    |omega3| plus a constant.  A shorter one, as very small |epsilon| needs,
    fits only the two trembling modes and absorbs the unresolved slow mode in
    a cubic trend.  Either way freqs[-2:] are omega2 and |omega3|.
    """
    traj = integrate(make_initial_state(params), params, tau_max, dt)
    exact = solve_cubic_exact(characteristic_cubic(params))
    slow_period = TWO_PI / max(2.0 * abs(params.epsilon), 1e-30)
    if tau_max >= 2.5 * slow_period:
        seeds, trend = np.abs(exact.as_array()), 0
    else:
        seeds, trend = np.array([exact.omega2, abs(exact.omega3)]), 3
    return fit_frequencies(traj.tau, traj.v[:, 1], seeds, trend_degree=trend)
