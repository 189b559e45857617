"""Classical spinning-particle dynamics in a uniform magnetic field.

Integrates the coupled (x, pi, v, S) first-order system with fixed-step RK4,
solves the characteristic cubic for the planar rotation frequencies exactly
and perturbatively, and extracts mode frequencies from simulated v_x(tau).

A phase point is one flat vector of 28 floats: y[0:4] = x, y[4:8] = pi,
y[8:12] = v and y[12:28] = S^{mu nu} in row-major order; a batch of runs is
a (B, 28) array.  The right-hand side :func:`bz_rhs` is one constant bilinear
form, y L + (y_I * y_J) Q, with only L depending on the field.  One private
RK4 driver integrates both the full system (:func:`integrate`, any leading
batch shape) and its constant-spin reduction (:func:`integrate_reduced`, the
linear system y' = A y in v_x, v_y and their first two derivatives).

Conventions: metric (+,-,-,-), proper-time derivatives, units with
hbar = c = m = 1 and the spinor coupling constant set to -1.  The field
enters only through e*B = 2*epsilon (electron: e = -1, B = -2*epsilon > 0
for physical epsilon < 0), and s_z is identified with S^{12}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fitting import FrequencyFit, fit_frequencies
from .units import OMEGA_ZBW, SPINS, DimensionlessParams, step_count

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


def _bilinear_terms() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs (I, J) and weights Q of the quadratic part of the right-hand side.

    v'^a = 4 S^{ab} G_bb pi^b takes the 16 products S^{ab} pi^b; S'^{ab} =
    pi^a v^b - pi^b v^a takes the 12 products pi^a v^b with a != b, each
    entering S'^{ab} with +1 and S'^{ba} with -1.  Every weight is a signed
    power of two, so each term is its rounded product times an exact factor.
    """
    pairs = [(a, b) for a in range(4) for b in range(4)]
    off = [(a, b) for a, b in pairs if a != b]
    i = [12 + 4 * a + b for a, b in pairs] + [4 + a for a, _ in off]
    j = [4 + b for _, b in pairs] + [8 + b for _, b in off]
    q = np.zeros((len(i), 28))
    for k, (a, b) in enumerate(pairs):
        q[k, 8 + a] = 4.0 * _G[b]
    for k, (a, b) in enumerate(off, start=len(pairs)):
        q[k, 12 + 4 * a + b], q[k, 12 + 4 * b + a] = 1.0, -1.0
    return np.array(i), np.array(j), q


_I, _J, _Q = _bilinear_terms()


def linear_part(eb: float) -> np.ndarray:
    """The 28x28 matrix L of the linear terms x' = v and pi' = e F v (row = source)."""
    lin = np.zeros((28, 28))
    lin[8:12, 0:4] = np.eye(4)
    # e F^{mu nu} v_nu for the z-directed field: pi'^1 = e (-B)(-v_y), pi'^2 = e B (-v_x)
    lin[10, 5] = eb
    lin[9, 6] = -eb
    return lin


def bz_rhs(y: np.ndarray, lin: np.ndarray) -> np.ndarray:
    """Proper-time derivative of flat states y of shape (..., 28).

    lin is :func:`linear_part` at the run's e*B; the rest is the constant
    bilinear form of :func:`_bilinear_terms`.
    """
    return y @ lin + (y[..., _I] * y[..., _J]) @ _Q


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
    """An integrated run; x, pi, v and S are views into one (N, ..., 28) state array.

    A single start of shape (28,) gives x, pi, v of shape (N, 4) and S of
    shape (N, 4, 4); a batch of shape (B, 28) gives (N, B, 4) and (N, B, 4, 4).
    """

    tau: np.ndarray
    x: np.ndarray
    pi: np.ndarray
    v: np.ndarray
    S: np.ndarray


def _rk4(rhs, y0: np.ndarray, tau_max: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Classic fixed-step RK4 of y' = rhs(y) over [0, tau_max]; returns (tau, states).

    y0 may carry leading batch axes; the states have shape (n + 1,) + y0.shape.
    """
    if dt > DT_MAX:
        raise ValueError(f"dt = {dt:g} too coarse (need <= {DT_MAX:g})")
    n = step_count(tau_max, dt, "tau_max")
    tau = dt * np.arange(n + 1)
    y = np.asarray(y0, dtype=float)
    out = np.empty((n + 1,) + y.shape)
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
    """Full (x, pi, v, S) system from flat state0 of shape (28,) or (B, 28) over [0, tau_max]."""
    lin = linear_part(_eb(params))
    tau, ys = _rk4(lambda y: bz_rhs(y, lin), state0, tau_max, dt)
    return BZTrajectory(tau=tau, x=ys[..., 0:4], pi=ys[..., 4:8], v=ys[..., 8:12],
                        S=ys[..., 12:28].reshape(ys.shape[:-1] + (4, 4)))


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


def spectral_frequencies(
    params: DimensionlessParams, tau_max: float, dt: float
) -> tuple[FrequencyFit, ...]:
    """Integrate both spins' field runs in one batch and fit each v_x spectrum.

    Returns one fit per spin, in SPINS order.  A span of at least 2.5 slow
    cyclotron-like periods fits |omega1|, omega2, |omega3| plus a constant.
    A shorter one, as very small |epsilon| needs, fits only the two trembling
    modes and absorbs the unresolved slow mode in a cubic trend.  Either way
    freqs[-2:] are omega2 and |omega3|.
    """
    runs = [replace(params, spin=spin) for spin in SPINS]
    traj = integrate(np.stack([make_initial_state(p) for p in runs]), params, tau_max, dt)
    slow_period = TWO_PI / max(2.0 * abs(params.epsilon), 1e-30)
    fits = []
    for k, p in enumerate(runs):
        exact = solve_cubic_exact(characteristic_cubic(p))
        if tau_max >= 2.5 * slow_period:
            seeds, trend = np.abs(exact.as_array()), 0
        else:
            seeds, trend = np.array([exact.omega2, abs(exact.omega3)]), 3
        fits.append(fit_frequencies(traj.tau, traj.v[:, k, 1], seeds, trend_degree=trend))
    return tuple(fits)
