"""Classical spinning-particle dynamics in a uniform magnetic field.

Integrates the coupled (x, pi, v, S) first-order system with a high-order
Taylor method and dense output, solves the characteristic cubic for the
planar rotation frequencies exactly and perturbatively, and extracts mode
frequencies from simulated trajectories: :func:`spectral_frequencies` hands
v_x + i v_y to :func:`zbwsim.fitting.read_modes`, which thins it and reads its
signed modes off the data, never off the cubic whose roots they check.

A phase point is one flat vector of 28 floats: y[0:4] = x, y[4:8] = pi,
y[8:12] = v and y[12:28] = S^{mu nu} in row-major order; a batch of runs is
a (B, 28) array.  Integration appends a constant 1.0 to each phase point,
so the whole right-hand side is one quadratic form (z_I * z_J) Q in the 29
slots, computed as the first coefficient of :func:`_recursion`'s series: the
products S pi and pi v give v' and S', the products v * 1 give x' = v and
pi' = e F v, and only the two e*B weights of Q depend on the field.
:func:`integrate` (any leading batch shape) expands the state in Taylor
blocks to order TAYLOR_ORDER by a Cauchy-product recursion on a workspace
built once per run (:func:`_recursion`: an order costs a vecdot and a dot),
takes each block's length from the series' last two coefficients, and
yields every sample it covers on the caller's grid tau = dt * arange(n + 1)
from one matmul.  The number of blocks follows the dynamics, not dt, and
DT_MAX bounds the sampling (at least 50 samples per trembling period), not
accuracy.
The constant-spin reduction (:func:`integrate_reduced`) is linear and solved
exactly, as three modes over the characteristic cubic's roots.

Conventions: metric (+,-,-,-), proper-time derivatives, units with
hbar = c = m = 1 and the spinor coupling constant set to -1.  The field
enters only through e*B = 2*epsilon (electron: e = -1, B = -2*epsilon > 0
for physical epsilon < 0), and s_z is identified with S^{12}.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .fitting import FrequencyFit, read_modes
from .units import OMEGA_ZBW, SPINS, TWO_PI, DimensionlessParams, step_count

_G = np.array([1.0, -1.0, -1.0, -1.0])  # metric signature diag
DT_MAX = TWO_PI / (50.0 * OMEGA_ZBW)    # sampling bound: at least 50 samples per trembling period
BLOWUP = 1e6                            # largest |state component| an integration may reach
TAYLOR_ORDER = 32                       # degree of the Taylor polynomial of each block
TAYLOR_TOL = 1e-16                      # per-block truncation, relative to 1 + |state|
TAYLOR_CAP = 256                        # most dt samples one block may cover
_TINY = float(np.finfo(float).tiny)
_INV_ORDERS = 1.0 / np.arange(TAYLOR_ORDER - 1, TAYLOR_ORDER + 1)  # exponents 1/j of the reach


class IntegrationUnstableError(RuntimeError):
    """A state component exceeded the blow-up guard during integration."""


class ComplexRootsError(ValueError):
    """Characteristic cubic discriminant was not positive."""


def _eb(params: DimensionlessParams) -> float:
    """e*B in the electron convention: e = -1, B = -2*epsilon."""
    return 2.0 * params.epsilon


_ONE = 28     # index of the constant 1.0 that integration appends to a phase point
_XV = 16 + 12  # row of the first v^a * 1 product, after the S pi and pi v products


def _products() -> tuple[np.ndarray, int, np.ndarray]:
    """Gather indices IJ (I then J, K each) and field-free weights Q of the right-hand side.

    v'^a = 4 S^{ab} G_bb pi^b takes the 16 products S^{ab} pi^b; S'^{ab} =
    pi^a v^b - pi^b v^a takes the 12 products pi^a v^b with a != b, each
    entering S'^{ab} with +1 and S'^{ba} with -1; x'^a = v^a takes the 4
    products v^a * 1 with the constant slot, which :func:`quadratic_form`
    also weights by e*B for pi' = e F v.  Every output column has nonzero
    weights on one kind of product only, and every field-free weight is a
    signed power of two, so each term is its rounded product times an exact
    factor.
    """
    pairs = [(a, b) for a in range(4) for b in range(4)]
    off = [(a, b) for a, b in pairs if a != b]
    i = [12 + 4 * a + b for a, b in pairs] + [4 + a for a, _ in off] + [8, 9, 10, 11]
    j = [4 + b for _, b in pairs] + [8 + b for _, b in off] + [_ONE] * 4
    q = np.zeros((len(i), _ONE + 1))
    for k, (a, b) in enumerate(pairs):
        q[k, 8 + a] = 4.0 * _G[b]
    for k, (a, b) in enumerate(off, start=len(pairs)):
        q[k, 12 + 4 * a + b], q[k, 12 + 4 * b + a] = 1.0, -1.0
    for a in range(4):
        q[_XV + a, a] = 1.0
    return np.array(i + j), len(i), q


_IJ, _K, _Q0 = _products()


def quadratic_form(eb: float) -> np.ndarray:
    """Weights Q of the right-hand side (z_I * z_J) Q at e*B, a row per product, a column per slot.

    e F^{mu nu} v_nu for the z-directed field gives pi'^1 = e (-B)(-v_y) and
    pi'^2 = e B (-v_x), the products v^2 * 1 and v^1 * 1 weighted by +-e*B.
    """
    q = _Q0.copy()
    q[_XV + 2, 5] = eb
    q[_XV + 1, 6] = -eb
    return q


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
    """An integrated run; x, pi, v and S are views into one (N, ..., 29) state array.

    A single start of shape (28,) gives x, pi, v of shape (N, 4) and S of
    shape (N, 4, 4); a batch of shape (B, 28) gives (N, B, 4) and (N, B, 4, 4).
    """

    tau: np.ndarray
    x: np.ndarray
    pi: np.ndarray
    v: np.ndarray
    S: np.ndarray


def _recursion(batch: tuple[int, ...], q: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """series(z): Taylor coefficients c_0 .. c_TAYLOR_ORDER of z' = (z_I * z_J) Q, stacked on axis 0.

    With z = sum_k c_k t^k, the right-hand side's coefficient k is the
    Cauchy product sum_j c_j[I] * c_{k-j}[J] times Q, so c_{k+1} is that over
    k + 1 (Jorba & Zou, Experimental Math. 14 (2005) 99).  The recursion runs
    on the coefficients gathered at _IJ (I then J) in a workspace built here
    once for states of shape batch + (29,): an order-major buffer g[o] of
    shape batch + (2K,), the product sums s, and per order the operand views
    of both calls, so each order is one vecdot over the order axis for the
    Cauchy product (g[:o+1] at I against g[o::-1] at J) into s[o], and one dot
    with Q / (o + 1) gathered at _IJ into g[o + 1], which the order-major
    layout keeps contiguous as dot's out requires.  The coefficients come
    from one batched matmul of s with Q / (k + 1) into a coefficient buffer
    of the workspace: series(z) returns that buffer, and its next call
    overwrites it.
    """
    qs = q / np.arange(1.0, TAYLOR_ORDER + 1)[:, None, None]
    qg = qs.take(_IJ, axis=-1)
    g = np.empty((TAYLOR_ORDER + 1,) + batch + (2 * _K,))
    s = np.empty((TAYLOR_ORDER,) + batch + (_K,))
    c = np.empty((TAYLOR_ORDER + 1,) + batch + (_ONE + 1,))
    orders = [(g[: o + 1, ..., :_K], g[o::-1, ..., _K:], s[o], qg[o], g[o + 1])
              for o in range(TAYLOR_ORDER)]
    sums, coeffs = s.reshape(TAYLOR_ORDER, -1, _K), c[1:].reshape(TAYLOR_ORDER, -1, _ONE + 1)

    def series(z: np.ndarray) -> np.ndarray:
        np.take(z, _IJ, axis=-1, out=g[0])
        for gi, gj, row, qo, nxt in orders:
            np.vecdot(gi, gj, axis=0, out=row)
            row.dot(qo, out=nxt)
        c[0] = z
        np.matmul(sums, qs, out=coeffs)
        return c

    return series


def _block_samples(c: np.ndarray, dt: float, left: int) -> int:
    """How many dt samples the series c covers, from 1 to min(TAYLOR_CAP, left).

    The block's reach follows the last two coefficients (Jorba & Zou):
    H = min_j (TAYLOR_TOL (1 + |z|) / |c_j|)^(1/j) over j = order - 1, order.
    The two maxima are read once as Python floats for the finiteness check and
    the _TINY floor; the two powers stay one numpy call, as numpy's SIMD pow
    need not round as math.pow.
    A reach below dt still gives one sample, which the blow-up guard checks.
    """
    tail = np.abs(c[-2:]).reshape(2, -1).max(axis=1).tolist()
    if not all(map(math.isfinite, tail)):
        raise IntegrationUnstableError("Taylor series of the state is not finite")
    scale = TAYLOR_TOL * (1.0 + np.abs(c[0]).max())
    reach = min((np.array([scale / max(t, _TINY) for t in tail]) ** _INV_ORDERS).tolist())
    return max(1, min(int(reach / dt), TAYLOR_CAP, left))


def _grid(y0: np.ndarray, tau_max: float, dt: float) -> np.ndarray:
    """The sampling grid dt * arange(n + 1), after checking dt, the span and the start."""
    if dt > DT_MAX:
        raise ValueError(f"dt = {dt:g} too coarse (need <= {DT_MAX:g})")
    n = step_count(tau_max, dt, "tau_max")
    if not np.abs(y0).max() <= BLOWUP:
        raise IntegrationUnstableError(f"start state is not finite or exceeds {BLOWUP:g}")
    return dt * np.arange(n + 1)


def integrate(
    state0: np.ndarray, params: DimensionlessParams, tau_max: float, dt: float
) -> BZTrajectory:
    """Full (x, pi, v, S) system from flat state0 of shape (28,) or (B, 28) over [0, tau_max].

    The Taylor recursion's workspace (:func:`_recursion`) and the powers of
    the grid offsets are built once per call, for the whole run.  Each block
    expands z = (state, 1.0) in a Taylor series on that workspace and
    evaluates it at the m grid points it covers (:func:`_block_samples`) with
    one matmul against their powers; the last of them starts the next.
    """
    y0 = np.asarray(state0, dtype=float)
    if y0.shape[-1:] != (_ONE,):
        raise ValueError(f"state0 must end in an axis of {_ONE}, got shape {y0.shape}")
    tau = _grid(y0, tau_max, dt)
    n = len(tau) - 1
    z = np.concatenate((y0, np.ones(y0.shape[:-1] + (1,))), axis=-1)
    out = np.empty((n + 1, z.size))
    out[0] = z.ravel()
    series = _recursion(y0.shape[:-1], quadratic_form(_eb(params)))
    powers = (dt * np.arange(1, min(n, TAYLOR_CAP) + 1))[:, None] ** np.arange(TAYLOR_ORDER + 1)
    i = 0
    while i < n:
        c = series(z)
        m = _block_samples(c, dt, n - i)
        block = out[i + 1 : i + 1 + m]
        np.matmul(powers[:m], c.reshape(TAYLOR_ORDER + 1, -1), out=block)
        if not np.abs(block).max() <= BLOWUP:  # NaN fails the comparison too
            ok = np.abs(block).max(axis=1) <= BLOWUP
            raise IntegrationUnstableError(f"state blew up at tau = {tau[i + 1 + ok.argmin()]:g}")
        z = block[-1].reshape(z.shape)
        i += m
    ys = out.reshape((n + 1,) + z.shape)
    return BZTrajectory(tau=tau, x=ys[..., 0:4], pi=ys[..., 4:8], v=ys[..., 8:12],
                        S=ys[..., 12:28].reshape(ys.shape[:-1] + (4, 4)))


def free_solution(
    v0: np.ndarray, a0: np.ndarray, p: np.ndarray, tau: float | np.ndarray
) -> np.ndarray:
    """Field-free 4-velocity (m = 1): drift p plus trembling at omega_zbw."""
    tau = np.asarray(tau, dtype=float)
    drift = np.asarray(p)
    osc = np.asarray(v0) - drift
    return (
        drift
        + osc * np.cos(OMEGA_ZBW * tau)[..., None]
        + (np.asarray(a0) / 2.0) * np.sin(OMEGA_ZBW * tau)[..., None]
    )


@dataclass(frozen=True)
class CubicCoefficients:
    """omega^3 + c1*omega + c0 = 0 (monic, no quadratic term by construction)."""

    c1: float
    c0: float


def characteristic_cubic(params: DimensionlessParams) -> CubicCoefficients:
    """Dimensionless coefficients; in raw form c1 = -4(1 - 3 s_z e*B), c0 = 4 e*B."""
    eps = params.epsilon
    sgn = params.spin_sign
    c1 = -(OMEGA_ZBW**2) * (1.0 - sgn * 3.0 * eps)
    c0 = eps * OMEGA_ZBW**3
    return CubicCoefficients(c1=c1, c0=c0)


@dataclass(frozen=True)
class RootSet:
    omega1: float
    omega2: float
    omega3: float

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
    return RootSet(omega1=w1, omega2=w2, omega3=w3)


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
        )
    if scheme == "accurate":
        exact = solve_cubic_exact(characteristic_cubic(params))
        if params.spin == "up":
            w2 = OMEGA_ZBW * (1.0 - 2.0 * eps)
            w3 = -OMEGA_ZBW * (1.0 - eps)
        else:
            w2 = OMEGA_ZBW * (1.0 + eps)
            w3 = -OMEGA_ZBW * (1.0 + 2.0 * eps)
        return RootSet(omega1=exact.omega1, omega2=w2, omega3=w3)
    raise ValueError(f"scheme must be 'rough' or 'accurate', got {scheme!r}")


def reduced_initial_state(params: DimensionlessParams) -> np.ndarray:
    """Reduced-system start matching :func:`make_initial_state` exactly."""
    c = characteristic_cubic(params)
    return np.array([1.0, 0.0, 0.0, 0.0, c.c1, 0.0])


def integrate_reduced(
    state0: np.ndarray, params: DimensionlessParams, tau_max: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """The reduced linear system, solved exactly; returns (tau, states (N, 6)).

    The state is (vx, vy, ax, ay, jx, jy), v_x and v_y with their first and
    second derivatives, closed at third order by jx' = c1 ax + c0 vy and
    jy' = c1 ay - c0 vx.  So w = vx + i vy obeys w''' = c1 w' - i c0 w, whose
    modes exp(lambda_k tau), lambda_k = -i omega_k, run at the cubic's roots;
    their amplitudes A_k solve sum_k A_k lambda_k^p = w^(p)(0) for p = 0, 1, 2.
    """
    y0 = np.asarray(state0, dtype=float)
    if y0.shape != (6,):
        raise ValueError(f"state0 must have shape (6,), got shape {y0.shape}")
    tau = _grid(y0, tau_max, dt)
    lam = -1j * solve_cubic_exact(characteristic_cubic(params)).as_array()
    vander = lam ** np.arange(3)[:, None]
    amps = np.linalg.solve(vander, y0[0::2] + 1j * y0[1::2])
    w = np.exp(np.outer(tau, lam)) @ (vander * amps).T  # columns w, w', w''
    states = np.empty((len(tau), 6))
    states[:, 0::2], states[:, 1::2] = w.real, w.imag
    if not np.abs(states).max() <= BLOWUP:
        raise IntegrationUnstableError(f"state blew up within tau <= {tau[-1]:g}")
    return tau, states


def spectral_frequencies(
    params: DimensionlessParams, tau_max: float, dt: float
) -> tuple[FrequencyFit, ...]:
    """Integrate both spins' field runs in one batch and read each one's three modes.

    One :func:`zbwsim.fitting.read_modes` fit of w = v_x + i v_y per spin, in
    SPINS order; no cubic is consulted.  w views the adjacent v_x, v_y slots as complex.
    """
    runs = [replace(params, spin=spin) for spin in SPINS]
    traj = integrate(np.stack([make_initial_state(p) for p in runs]), params, tau_max, dt)
    w = traj.v[..., 1:3].view(np.complex128)[..., 0]
    return tuple(read_modes(traj.tau, w[:, k]) for k in range(len(SPINS)))
