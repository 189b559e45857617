import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zbwsim import bz, symmetry
from zbwsim.fitting import FitFailureError
from zbwsim.units import DimensionlessParams

G = np.array([1.0, -1.0, -1.0, -1.0])


def _free_params():
    return DimensionlessParams(epsilon=0.0)


def _with_slot(y):
    """Phase points y (..., 28) with the constant 1.0 slot that integration appends."""
    return np.concatenate((y, np.ones(y.shape[:-1] + (1,))), axis=-1)


def _rhs(z, q):
    """The right-hand side as integration computes it: the first coefficient of the series."""
    return bz._recursion(z.shape[:-1], q)(z)[1]


def test_rhs_position_and_momentum():
    params = DimensionlessParams(epsilon=-1e-2)
    eb = 2.0 * params.epsilon
    y = bz.make_initial_state(params)
    dot = _rhs(_with_slot(y), bz.quadratic_form(eb))
    assert np.allclose(dot[0:4], y[8:12])
    # initial velocity is along x; pi-dot = e F v picks up the y equation
    assert dot[4] == 0.0 and dot[7] == 0.0
    assert dot[6] == pytest.approx(-eb * y[9])
    assert dot[28] == 0.0  # the constant slot stays 1


def test_rhs_velocity_from_spin():
    y = bz.make_initial_state(DimensionlessParams(epsilon=0.0))
    dot = _rhs(_with_slot(y), bz.quadratic_form(0.0))
    # rest-frame pi with S^{12} only: v-dot = 4 S pi_low = 0
    assert np.allclose(dot[8:12], 0.0)
    # S-dot = pi (x) v - v (x) pi couples time and space rows only
    s_dot = dot[12:28].reshape(4, 4)
    assert s_dot[1, 2] == 0.0
    assert s_dot[0, 1] == pytest.approx(y[4] * y[9])


def _rhs_reference(y, eb):
    """Component-wise right-hand side of one flat state, the reference for _rhs."""
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
    q = bz.quadratic_form(eb)
    for shape in ((28,), (3, 28)):
        y = rng.standard_normal(shape)
        # fixed from the dtype: a few roundings of products of two state entries
        tol = 16.0 * np.finfo(y.dtype).eps * (1.0 + np.max(np.abs(y))) ** 2
        dot = _rhs(_with_slot(y), q)
        assert dot.shape == shape[:-1] + (29,)
        assert np.all(dot[..., 28] == 0.0)
        ref = np.apply_along_axis(_rhs_reference, -1, y, eb)
        assert np.max(np.abs(dot[..., :28] - ref)) <= tol


def _split_rhs(eb):
    """The right-hand side as a linear plus a bilinear part, y L + (y_I * y_J) Q."""
    pairs = [(a, b) for a in range(4) for b in range(4)]
    off = [(a, b) for a, b in pairs if a != b]
    i = np.array([12 + 4 * a + b for a, b in pairs] + [4 + a for a, _ in off])
    j = np.array([4 + b for _, b in pairs] + [8 + b for _, b in off])
    q = np.zeros((len(i), 28))
    for k, (a, b) in enumerate(pairs):
        q[k, 8 + a] = 4.0 * G[b]
    for k, (a, b) in enumerate(off, start=len(pairs)):
        q[k, 12 + 4 * a + b], q[k, 12 + 4 * b + a] = 1.0, -1.0
    lin = np.zeros((28, 28))
    lin[8:12, 0:4] = np.eye(4)
    lin[10, 5] = eb
    lin[9, 6] = -eb
    return lambda y: y @ lin + (y[..., i] * y[..., j]) @ q


def _split_rk4(y, eb, n, dt):
    rhs = _split_rhs(eb)
    out = [y]
    half, sixth = 0.5 * dt, dt / 6.0
    for _ in range(n):
        k1 = rhs(y)
        k2 = rhs(y + half * k1)
        k3 = rhs(y + half * k2)
        k4 = rhs(y + dt * k3)
        y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        out.append(y)
    return np.array(out)


def test_integrate_matches_split_form_rk4_at_finer_step():
    """The Taylor samples against an independent RK4 at an 8x finer step.

    RK4's own error at dt = 0.0025 over tau = 10 sets the bound: the largest
    difference measured 1.3e-10 on every state slot, single and batched.
    """
    for eps in (-1e-3, -0.05):
        p = DimensionlessParams(epsilon=eps)
        starts = [bz.make_initial_state(replace(p, spin=spin)) for spin in ("up", "down")]
        for y0 in (starts[0], np.stack(starts)):
            traj = bz.integrate(y0, p, 10.0, 0.02)  # 500 samples
            ref = _split_rk4(y0, 2.0 * eps, 4000, 0.0025)[::8]
            assert np.array_equal(traj.tau, 0.02 * np.arange(501))
            for name, sl in (("x", np.s_[0:4]), ("pi", np.s_[4:8]), ("v", np.s_[8:12])):
                assert np.max(np.abs(getattr(traj, name) - ref[..., sl])) <= 1e-9, name
            s_ref = ref[..., 12:28].reshape(ref.shape[:-1] + (4, 4))
            assert np.max(np.abs(traj.S - s_ref)) <= 1e-9


def test_first_series_coefficient_is_the_rhs():
    """c[0] is the state itself; c[1], the right-hand side, meets the component-wise
    reference in test_rhs_matches_componentwise_reference."""
    rng = np.random.default_rng(5)
    q = bz.quadratic_form(-0.13)
    for shape in ((28,), (2, 28), (3, 28)):
        z = _with_slot(rng.standard_normal(shape))
        c = bz._recursion(shape[:-1], q)(z)
        assert np.array_equal(c[0], z)


def _series_reference(z, q):
    """The Taylor recursion gathered at _IJ with the order on the last axis, a
    fresh buffer per call: the reference for the workspace in bz._recursion."""
    qs = q / np.arange(1.0, bz.TAYLOR_ORDER + 1)[:, None, None]
    qg = qs.take(bz._IJ, axis=-1)
    k = bz._K
    g = np.empty(z.shape[:-1] + (2 * k, bz.TAYLOR_ORDER + 1))
    g[..., 0] = z.take(bz._IJ, axis=-1)
    gi, gj = g[..., :k, None, :], g[..., k:, :, None]
    s = np.empty((bz.TAYLOR_ORDER,) + z.shape[:-1] + (k, 1, 1))
    for o in range(bz.TAYLOR_ORDER):
        np.matmul(gi[..., : o + 1], gj[..., o::-1, :], out=s[o])
        np.matmul(s[o, ..., 0, 0], qg[o], out=g[..., o + 1])
    c = np.empty((bz.TAYLOR_ORDER + 1,) + z.shape)
    c[0] = z
    c[1:] = (s.reshape(bz.TAYLOR_ORDER, -1, k) @ qs).reshape(c[1:].shape)
    return c


def test_series_workspace_matches_reference_bit_for_bit():
    """The same sums in the same order: equal, not close.  One workspace serves
    every call, so the second start must not see the first one's coefficients."""
    rng = np.random.default_rng(17)
    for eb in (0.0, -0.13):
        q = bz.quadratic_form(eb)
        for shape in ((28,), (2, 28), (3, 28)):
            series = bz._recursion(shape[:-1], q)
            for scale in (1.0, 0.3):
                z = _with_slot(scale * rng.standard_normal(shape))
                assert np.array_equal(series(z), _series_reference(z, q)), (eb, shape, scale)


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


def test_integration_independent_of_sampling():
    """Halving dt moves no common sample: the blocks' length follows the series, not dt.

    Largest difference measured over tau = 20: 5.7e-14.
    """
    for eps in (0.0, -1e-2, -0.099):
        for spin in ("up", "down"):
            p = DimensionlessParams(epsilon=eps, spin=spin)
            y0 = bz.make_initial_state(p)
            coarse = bz.integrate(y0, p, 20.0, 0.02)
            fine = bz.integrate(y0, p, 20.0, 0.01)
            for name in ("x", "pi", "v", "S"):
                diff = getattr(coarse, name) - getattr(fine, name)[::2]
                assert np.max(np.abs(diff)) <= 1e-12, (eps, spin, name)


def test_spin_antisymmetry_preserved():
    params = DimensionlessParams(epsilon=-1e-2)
    traj = bz.integrate(bz.make_initial_state(params), params, 50.0, 0.01)
    asym = np.max(np.abs(traj.S + np.transpose(traj.S, (0, 2, 1))))
    assert asym <= 1e-12


def test_integration_blowup_guard():
    params = DimensionlessParams(epsilon=-1e-3)
    for scale in (1e3, 1e5):  # x(0) = 0, so only pi, v, S grow
        bad = scale * bz.make_initial_state(params)
        # the series reaches far less than dt here: the first sample blows up,
        # and no overflow warning comes before the error
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(bz.IntegrationUnstableError, match="blew up"):
                bz.integrate(bad, params, 50.0, 0.01)


class _RecordingDt(float):
    """A dt that records x in every x / dt: _block_samples' reach, exactly as it divides."""

    def __rtruediv__(self, other):
        self.seen.append(other)
        return float(other) / float(self)


def _reach_reference(c):
    """The block reach as one numpy formula over the last two coefficients."""
    tail = np.abs(c[-2:]).reshape(2, -1).max(axis=1)
    scale = bz.TAYLOR_TOL * (1.0 + np.abs(c[0]).max())
    orders = np.arange(bz.TAYLOR_ORDER - 1, bz.TAYLOR_ORDER + 1)
    return np.min((scale / np.maximum(tail, bz._TINY)) ** (1.0 / orders))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["decaying", "zero", "one_zero", "blowup"]),
       st.sampled_from([(), (2,)]), st.floats(1e-4, 0.07), st.integers(1, 1000))
def test_block_reach_matches_the_numpy_formula_bit_for_bit(seed, tail, batch, dt, left):
    """The reach, read where _block_samples divides it by dt, equals the one-formula numpy
    reach in every bit, on decaying series, zero tails (the _TINY floor) and tails near BLOWUP."""
    rng = np.random.default_rng(seed)
    shape = (bz.TAYLOR_ORDER + 1,) + batch + (29,)
    radius = 10.0 ** rng.uniform(-3.0, 1.0)
    powers = radius ** -np.arange(bz.TAYLOR_ORDER + 1.0)
    c = rng.standard_normal(shape) * powers.reshape((-1,) + (1,) * (len(shape) - 1))
    c[0] *= 10.0 ** rng.uniform(-2.0, 6.0)
    if tail == "zero":
        c[-2:] = 0.0
    elif tail == "one_zero":
        c[rng.integers(-2, 0)] = 0.0
    elif tail == "blowup":
        c[-2:] *= bz.BLOWUP * rng.uniform(0.5, 1.0) / np.abs(c[-2:]).max()
    recording = _RecordingDt(dt)
    recording.seen = []
    m = bz._block_samples(c, recording, left)
    reach = _reach_reference(c)
    assert recording.seen == [reach]
    assert m == max(1, min(int(reach / dt), bz.TAYLOR_CAP, left))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("order", [-2, -1])
def test_non_finite_tail_raises(value, order):
    c = np.ones((bz.TAYLOR_ORDER + 1, 2, 29))
    c[order, 1, 7] = value
    with pytest.raises(bz.IntegrationUnstableError, match="not finite"):
        bz._block_samples(c, 0.01, 100)


@st.composite
def _integration_case(draw, start=bz.make_initial_state, shapes=((28,), (2, 28))):
    """A start (the model's, or a random one of one of the shapes) at a random size, a field,
    a span and a step, sometimes with one value swapped for a special float."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = draw(st.floats(-0.0999, 0.0))
    if draw(st.booleans()):
        spin = draw(st.sampled_from(["up", "down"]))
        y0 = start(DimensionlessParams(epsilon=eps, spin=spin))
    else:
        y0 = rng.standard_normal(draw(st.sampled_from(shapes)))
        y0 *= draw(st.sampled_from([0.0, 1e-3, 1.0, 30.0, bz.BLOWUP]))
    tau, dt = draw(st.floats(0.0, 5.0)), draw(st.floats(1e-3, 0.07))
    if draw(st.booleans()):  # spans stay at most 5 / 1e-3 samples
        which = draw(st.sampled_from(["start", "tau", "dt"]))
        if which == "start":
            y0 = np.array(y0)
            y0.flat[rng.integers(y0.size)] = draw(st.sampled_from(
                [math.nan, math.inf, -math.inf, bz.BLOWUP, 2 * bz.BLOWUP]))
        elif which == "tau":
            tau = draw(st.sampled_from([math.nan, math.inf, -1.0, 0.0]))
        else:
            dt = draw(st.sampled_from([math.nan, math.inf, 0.0, -1.0, 1.0]))
    return y0, eps, tau, dt


def _start(k=None, value=None):
    """The epsilon = -1e-3 spin-up start, with y0[k] set to value if k is given."""
    y0 = bz.make_initial_state(DimensionlessParams(epsilon=-1e-3))
    if k is not None:
        y0[k] = value
    return y0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_integration_case())
@example((_start(9, math.nan), -1e-3, 2.0, 0.01))
@example((_start(9, bz.BLOWUP), -1e-3, 2.0, 0.01))
@example((bz.make_initial_state(DimensionlessParams(epsilon=-0.0999)), -0.0999, 5.0, 0.02))
@example((_start(), -1e-3, 0.01, 0.01))
def test_integrate_returns_finite_arrays_or_raises(case):
    """Every call either returns a finite trajectory or raises one of the numerical
    or configuration errors that cli.main maps to an exit code."""
    y0, eps, tau, dt = case
    try:
        traj = bz.integrate(y0, DimensionlessParams(epsilon=eps), tau, dt)
    except (ValueError, bz.IntegrationUnstableError, OverflowError):
        return
    for a in (traj.tau, traj.x, traj.pi, traj.v, traj.S):
        assert np.isfinite(a).all()
    assert len(traj.tau) == round(tau / dt) + 1 and traj.x.shape[1:-1] == np.shape(y0)[:-1]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_integration_case(bz.reduced_initial_state, ((6,),)))
@example((np.array([math.nan, 0.0, 0.0, 0.0, -4.0, 0.0]), -1e-3, 2.0, 0.01))
@example((np.full(6, bz.BLOWUP), -1e-3, 2.0, 0.01))
@example((bz.reduced_initial_state(DimensionlessParams(epsilon=-0.0999)), -0.0999, 5.0, 0.02))
@example((bz.reduced_initial_state(DimensionlessParams(epsilon=-1e-3)), -1e-3, 0.01, 0.01))
def test_integrate_reduced_returns_finite_states_or_raises(case):
    """The reduced system returns finite (n + 1, 6) states or raises an error that
    cli.main maps to an exit code."""
    y0, eps, tau, dt = case
    try:
        grid, states = bz.integrate_reduced(y0, DimensionlessParams(epsilon=eps), tau, dt)
    except (ValueError, bz.IntegrationUnstableError, OverflowError):
        return
    assert states.shape == (round(tau / dt) + 1, 6) and grid.shape == states.shape[:1]
    assert np.isfinite(states).all()


@st.composite
def _spectral_case(draw):
    """A field, a span and a step, at most 30 / 6e-3 = 5 / 1e-3 samples, in one draw of
    four with the span or the step swapped for a special float."""
    eps = draw(st.floats(-0.0999, 0.0))
    tau, dt = draw(st.floats(0.0, 30.0)), draw(st.floats(6e-3, 0.07))
    if draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            tau = draw(st.sampled_from([math.nan, math.inf, -1.0]))
        else:
            dt = draw(st.sampled_from([math.nan, math.inf, 0.0, -1.0]))
    return eps, tau, dt


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_spectral_case())
@example((-1e-3, 5.0, 0.02))
@example((0.0, 5.0, 1e-3))
@example((-1e-2, 30.0, 6e-3))
@example((-0.0999, 5.0, 0.02))
@example((-1e-9, 5.0, 0.01))
@example((-1e-3, 0.0, 0.02))  # one sample
@example((-1e-3, 2.0, 0.02))  # thins to 7 samples
def test_spectral_frequencies_returns_finite_fast_pairs_or_raises(case):
    """Both spins' fits carry a finite fast pair and residual, and a slow mode that
    is finite or NaN; or the call raises ValueError or FitFailureError."""
    eps, tau, dt = case
    try:
        fits = bz.spectral_frequencies(DimensionlessParams(epsilon=eps), tau, dt)
    except (ValueError, FitFailureError):
        return
    assert len(fits) == 2
    for fit in fits:
        assert np.isfinite(fit.freqs[1:]).all() and math.isfinite(fit.residual_rms)
        assert not math.isinf(fit.freqs[0])


def test_non_finite_series_raises(monkeypatch):
    monkeypatch.setattr(bz, "_eb", lambda params: math.nan)
    params = DimensionlessParams(epsilon=-1e-3)
    with pytest.raises(bz.IntegrationUnstableError, match="not finite"):
        bz.integrate(bz.make_initial_state(params), params, 2.0, 0.01)


def test_stationary_start_runs_in_capped_blocks(monkeypatch):
    """S = 0 and v = pi at rest: every coefficient past the first vanishes, so the
    series reaches any span and only the cap bounds a block."""
    blocks = []
    block_samples = bz._block_samples

    def recording(*args):
        blocks.append(block_samples(*args))
        return blocks[-1]

    monkeypatch.setattr(bz, "_block_samples", recording)
    params = DimensionlessParams(epsilon=-1e-3)
    y0 = np.zeros(28)
    y0[4] = y0[8] = 1.0
    traj = bz.integrate(y0, params, 1e4, 0.05)
    n = 200_000
    assert sum(blocks) == n and max(blocks) == bz.TAYLOR_CAP
    assert len(blocks) == -(-n // bz.TAYLOR_CAP)
    assert np.max(np.abs(traj.x[:, 0] - traj.tau)) <= 1e-9
    assert np.array_equal(traj.v, np.broadcast_to(y0[8:12], traj.v.shape))


def test_nan_start_raises():
    params = DimensionlessParams(epsilon=-1e-3)
    bad = bz.make_initial_state(params)
    bad[9] = math.nan
    with pytest.raises(bz.IntegrationUnstableError):
        bz.integrate(bad, params, 2.0, 0.01)
    bad = bz.reduced_initial_state(params)
    bad[0] = math.nan
    with pytest.raises(bz.IntegrationUnstableError):
        bz.integrate_reduced(bad, params, 2.0, 0.01)
    # the start itself is checked: a NaN start one step short of the first
    # check, and an oversized start with no step at all
    bad = bz.make_initial_state(params)
    bad[9] = math.nan
    with pytest.raises(bz.IntegrationUnstableError, match="start"):
        bz.integrate(bad, params, 0.004, 0.01)
    bad[9] = 2e6
    with pytest.raises(bz.IntegrationUnstableError, match="start"):
        bz.integrate(bad, params, 0.0, 0.01)


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
    with pytest.raises(ValueError, match=r"shape \(6,\)"):
        bz.integrate_reduced(np.zeros(5), params, 10.0, 0.01)


# ------------------------------------------------------------------- cubic

def test_cubic_coefficient_forms_agree():
    # raw form in (m, e*B, s_z): e = -1, B = -2*epsilon, so e*B = 2*epsilon
    for eps in (-1e-2, -1e-3, -1e-4):
        for spin, s_z in (("up", 0.5), ("down", -0.5)):
            c = bz.characteristic_cubic(DimensionlessParams(epsilon=eps, spin=spin))
            eb = 2.0 * eps
            assert c.c1 == -4.0 * (1.0 - 3.0 * s_z * eb)
            assert c.c0 == 4.0 * eb


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
    c = bz.CubicCoefficients(c1=4.0, c0=0.1)
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


def test_reduced_matches_matrix_exponential():
    """The modal solution against y(tau) = V diag(e^{lambda tau}) V^-1 y0 from the 6x6 A.

    A is built here from the component equations, not from the cubic's roots.
    Largest difference measured over tau = 10 pi: 1.6e-13.
    """
    rng = np.random.default_rng(3)
    for eps in (0.0, -1e-4, -1e-2, -0.099):
        for spin in ("up", "down"):
            p = DimensionlessParams(epsilon=eps, spin=spin)
            c = bz.characteristic_cubic(p)
            a = np.zeros((6, 6))
            a[0:4, 2:6] = np.eye(4)         # vx' = ax, vy' = ay, ax' = jx, ay' = jy
            a[4, 1], a[4, 2] = c.c0, c.c1   # jx' = c1 ax + c0 vy
            a[5, 0], a[5, 3] = -c.c0, c.c1  # jy' = c1 ay - c0 vx
            lam, vec = np.linalg.eig(a)
            for y0 in (bz.reduced_initial_state(p), rng.standard_normal(6)):
                tau, states = bz.integrate_reduced(y0, p, 10.0 * math.pi, 0.01)
                ref = ((np.exp(np.outer(tau, lam)) * np.linalg.solve(vec, y0)) @ vec.T).real
                assert np.max(np.abs(states - ref)) <= 1e-12, (eps, spin)


def test_full_vs_reduced_vx():
    p = DimensionlessParams(epsilon=-1e-4)
    tau_max = 10.0 * math.pi  # 10 Zbw periods
    dt = 0.002
    full = bz.integrate(bz.make_initial_state(p), p, tau_max, dt)
    _, reduced = bz.integrate_reduced(bz.reduced_initial_state(p), p, tau_max, dt)
    assert np.max(np.abs(full.v[:, 1] - reduced[:, 0])) <= 1e-6


def test_spectral_smoke(monkeypatch):
    """Both spins' fits end in the fast pair, found in the trajectory without the cubic."""
    p = DimensionlessParams(epsilon=-1e-2)
    exact = [bz.solve_cubic_exact(bz.characteristic_cubic(replace(p, spin=s)))
             for s in ("up", "down")]

    def no_roots(*args, **kwargs):
        raise AssertionError("the fit path must not solve the cubic")

    monkeypatch.setattr(bz, "solve_cubic_exact", no_roots)
    monkeypatch.setattr(bz, "perturbative_roots", no_roots)
    fits = bz.spectral_frequencies(p, tau_max=200.0, dt=0.02)  # slow mode, then the fast pair
    assert len(fits) == 2
    for fit, roots in zip(fits, exact):
        assert fit.freqs[-2] == pytest.approx(roots.omega2, rel=1e-4)
        assert fit.freqs[-1] == pytest.approx(abs(roots.omega3), rel=1e-4)


def test_spectral_read_gets_a_view_of_the_trajectory(monkeypatch):
    """read_modes receives v_x + i v_y as a complex view of the trajectory, not a copy."""
    p = DimensionlessParams(epsilon=-1e-3)
    real_integrate, real_read = bz.integrate, bz.read_modes
    trajs, reads = [], []

    def integrate(*args):
        trajs.append(real_integrate(*args))
        return trajs[-1]

    def read_modes(times, values):
        reads.append(values)
        return real_read(times, values)

    monkeypatch.setattr(bz, "integrate", integrate)
    monkeypatch.setattr(bz, "read_modes", read_modes)
    bz.spectral_frequencies(p, 50.0, 0.02)
    (traj,) = trajs
    assert len(reads) == 2
    for k, w in enumerate(reads):
        assert np.shares_memory(w, traj.v)
        assert np.array_equal(w, traj.v[:, k, 1] + 1j * traj.v[:, k, 2])


def test_spectral_slow_mode_is_the_pencil_read_or_nan():
    """The slow mode is the pencil's third mode by amplitude, and NaN where it finds two.

    A refit of the real v_x gave the slow mode to 2.2e-4 and 4.8e-4 at
    epsilon = -1e-3, and noise (5e-2 to 2.7e2 relative) at epsilon = -1e-9.
    """
    def fits_and_roots(eps):
        p = DimensionlessParams(epsilon=eps)
        return [(fit, bz.solve_cubic_exact(bz.characteristic_cubic(replace(p, spin=spin))))
                for spin, fit in zip(("up", "down"), bz.spectral_frequencies(p, 1000.0, 0.02))]

    for fit, roots in fits_and_roots(-1e-9):
        assert math.isnan(fit.freqs[0])
        assert np.max(np.abs(fit.freqs[1:] - [roots.omega2, -roots.omega3])) <= 1e-12
    for fit, roots in fits_and_roots(-1e-3):
        assert fit.freqs[0] == pytest.approx(abs(roots.omega1), rel=1e-5)


def test_fast_modes_sit_three_eighths_eps_squared_inside_the_cubic():
    """The model gap: both fast |omega| of the full system lie (3/8) eps^2 below the
    constant-spin cubic's, for both spins.

    Measured at eps = -1e-3 over tau = 500: (omega_2 - cubic)/eps^2 = -0.37258 (up),
    -0.37594 (down); (omega_3 - cubic)/eps^2 = +0.37407, +0.37746.  The band is
    twice the largest deviation from 3/8; 3/8 itself is measured, not derived.
    """
    p = DimensionlessParams(epsilon=-1e-3)
    fits = bz.spectral_frequencies(p, 500.0, 0.02)
    for spin, fit in zip(("up", "down"), fits):
        roots = bz.solve_cubic_exact(bz.characteristic_cubic(replace(p, spin=spin)))
        gap2 = (fit.freqs[-2] - roots.omega2) / p.epsilon**2
        gap3 = (-fit.freqs[-1] - roots.omega3) / p.epsilon**2
        assert gap2 == pytest.approx(-0.375, abs=0.005), spin
        assert gap3 == pytest.approx(0.375, abs=0.005), spin
