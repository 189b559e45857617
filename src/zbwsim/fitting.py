"""Trajectory reading: thinning, a matrix-pencil read, then one linear solve.

:func:`pencil_frequencies` reads the modes of a series off the shift
invariance of its Hankel matrix (Hua & Sarkar, IEEE Trans. ASSP 38 (1990)
814), from the data alone, far below the DFT bin width.  The fitters solve
the amplitudes linearly at its frequencies and gate the residual; only
:func:`fit_frequencies` refines the frequencies, by variable projection.
Every trajectory is read here: :func:`read_modes` (classical, for
:func:`zbwsim.bz.spectral_frequencies`) and :func:`read_tone` (quantum, for
:func:`zbwsim.expectation.extract_frequency`) thin a series to about FIT_STEP,
10 samples per trembling period; the fitters fit exactly what they are given.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .units import TWO_PI

RESIDUAL_TOL = 0.01  # largest RMS residual accepted, as a fraction of the largest
                     # amplitude and of the RMS of the centred data
PENCIL_WINDOW = 12   # Hankel window of pencil_frequencies, samples past the first
PENCIL_RTOL = 1e-9   # singular values above this times the largest count as modes
FIT_STEP = math.pi / 10.0  # spacing the readers thin a series to: 10 per trembling period


class FitFailureError(RuntimeError):
    """A fit's residual exceeded the sinusoid model tolerance, or its refinement overflowed."""


@dataclass(frozen=True)
class SinusoidFit:
    omega: float
    amplitude: float
    residual_rms: float


@dataclass(frozen=True)
class FrequencyFit:
    freqs: np.ndarray
    residual_rms: float


def _finite(a: np.ndarray, what: str, item: str) -> None:
    """Raise ValueError naming the first non-finite entry of the 1-D array a, if any."""
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        raise ValueError(f"{what} must be finite: {bad.size} are not, the first {a[bad[0]]} "
                         f"at {item} {bad[0]}")


def _samples(times: np.ndarray, values: np.ndarray,
             dtype: type = float) -> tuple[np.ndarray, np.ndarray, float]:
    """Validated float times, the values as dtype, and their sample spacing."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=dtype)
    if t.ndim != 1 or t.shape != y.shape or len(t) < 8:
        raise ValueError(f"need matching 1-D arrays with at least 8 samples, got times of "
                         f"shape {t.shape} for a series of {y.size} samples")
    _finite(y, "values", "sample")
    dt = np.diff(t)
    if not (dt.min() > 0 and dt.max() - dt.min() <= 1e-9 * dt.mean()):
        raise ValueError("times must be strictly increasing and uniform")
    return t, y, float(dt.mean())


def pencil_frequencies(values: np.ndarray, dt: float) -> np.ndarray:
    """Signed omega_k of the modes e^{-i omega_k t} in a series sampled every dt.

    The right singular vectors of the Hankel matrix H[i, j] = y[i + j], j <=
    PENCIL_WINDOW (half a shorter series), span the mode vectors (z_k^j),
    z_k = e^{-i omega_k dt}, whose z_k are the eigenvalues of the pencil
    between that basis and its one-step shift; |omega_k dt| <= pi.  H is
    factored once, H = QR, and the SVD is taken of the small square R, which
    has the same singular values and right singular vectors.  There is one
    mode per singular value above PENCIL_RTOL times the largest (none for a
    zero series), at most the window.  An empty or non-finite series, and a
    dt that is not a finite normal float > 0 (so that no omega_k
    overflows), raise ValueError.
    """
    if not sys.float_info.min <= dt < math.inf:
        raise ValueError(f"dt must be finite and at least {sys.float_info.min:g}, got {dt!r}")
    y = np.asarray(values)
    if y.ndim != 1 or not len(y):
        raise ValueError(f"need a non-empty 1-D series, got shape {y.shape}")
    _finite(y, "values", "sample")
    window = min(PENCIL_WINDOW, len(y) // 2)
    hankel = np.lib.stride_tricks.sliding_window_view(y, window + 1)
    _, s, vh = np.linalg.svd(np.linalg.qr(hankel, mode="r"), full_matrices=False)
    rank = int(np.count_nonzero(s > PENCIL_RTOL * s[0]))
    basis = vh[: min(rank, window)].T
    shift = np.linalg.lstsq(basis[:-1], basis[1:], rcond=None)[0]
    return -np.angle(np.linalg.eigvals(shift)) / dt


def _design(freqs: np.ndarray, t: np.ndarray, trend_degree: int) -> np.ndarray:
    """cos/sin column pair per frequency, then powers of t scaled to [-1, 1]."""
    cols = [f(w * t) for w in freqs for f in (np.cos, np.sin)]
    tm = t / max(-t[0], t[-1])
    return np.column_stack(cols + [tm**d for d in range(trend_degree + 1)])


def _gated_amplitudes(design: np.ndarray, y: np.ndarray, tones: int) -> tuple[np.ndarray, float]:
    """Tone amplitudes and RMS residual of the least-squares fit of y on the design's columns.

    Each tone is one column e^{-i omega t} of a complex design, or a cos/sin
    column pair of a real one; trend columns follow.  Raises FitFailureError
    unless the largest amplitude is positive and the residual is at most
    RESIDUAL_TOL times both it and the RMS of the centred data (a missing
    tone), which catches a tone that cancels the trend columns.
    """
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    amps = (np.abs(coef[:tones]) if np.iscomplexobj(design)
            else np.hypot(coef[0 : 2 * tones : 2], coef[1 : 2 * tones : 2]))
    residual_rms = float(np.sqrt(np.mean(np.abs(design @ coef - y) ** 2)))
    if not amps.max(initial=0.0) > 0.0:
        raise FitFailureError(f"no tone fitted: largest amplitude {amps.max(initial=0.0):g}")
    spread = float(np.sqrt(np.mean(np.abs(y - y.mean()) ** 2)))
    for bound, what in ((amps.max(), "amplitude"), (spread, "rms of the centred data")):
        if not residual_rms <= RESIDUAL_TOL * bound:
            raise FitFailureError(f"residual rms {residual_rms:g} exceeds {RESIDUAL_TOL:g} x "
                                  f"{what} {bound:g}")
    return amps, residual_rms


def fit_sinusoid(times: np.ndarray, values: np.ndarray) -> SinusoidFit:
    """Fit A sin(omega t + phi) + c to a uniform real series: omega, A and the RMS residual.

    omega is the fastest mode of :func:`pencil_frequencies`; A, c and the
    residual come from one linear solve at omega.  Raises ValueError when the
    series holds no tone, or the sampling is too coarse or the span too short
    for omega's period, before any solve, and FitFailureError when the
    residual fails the gate.
    """
    t, y, dt = _samples(times, values)
    w0 = float(np.abs(pencil_frequencies(y, dt)).max(initial=0.0))
    if not w0 > 0.0:
        raise ValueError("no tone in the series: it is constant")
    period = TWO_PI / w0
    if dt > period / 8.0:
        raise ValueError(f"fewer than 8 samples per period {period:g}")
    if t[-1] - t[0] < 3.0 * period:
        raise ValueError(f"span shorter than 3 periods of {period:g}")
    amps, residual_rms = _gated_amplitudes(_design([w0], t, 0), y, 1)
    return SinusoidFit(omega=w0, amplitude=float(amps[0]), residual_rms=residual_rms)


def _spacing(times, values) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Times and values, at least 1-D; for matching 1-D series the interval count and t1 - t0."""
    t, y = np.atleast_1d(np.asarray(times, dtype=float), values)
    intervals = len(t) - 1 if t.ndim == 1 and t.shape == y.shape else 0
    return t, y, intervals, float(t[1] - t[0]) if intervals > 0 else 0.0


def read_modes(times: np.ndarray, values: np.ndarray) -> FrequencyFit:
    """|omega_slow|, omega_+ and |omega_-| of a complex series w on every s-th sample.

    s = int(FIT_STEP / (times[1] - times[0])) (1 to the sample count) need not
    divide the interval count: read_tone's divisor rule gives stride 3 on the
    grid dt = 0.015, tau = 4000 (88,890 samples, 7x the time, a NaN slow mode).
    Of the pencil's modes, the two of largest amplitude (one gated solve) are
    the signed fast pair, else FitFailureError; the next is the slow mode or NaN.
    """
    t, w, _, spacing = _spacing(times, values)
    stride = max(1, int(min(FIT_STEP / spacing, len(t)))) if spacing > 0 else 1
    t, w, h = _samples(t[::stride], w[::stride], complex)
    omega = pencil_frequencies(w, h)
    amps, residual_rms = _gated_amplitudes(np.exp(-1j * np.outer(t, omega)), w, len(omega))
    if len(omega) < 2:
        raise FitFailureError(f"the pencil found {len(omega)} mode, not a fast pair")
    by_amp = omega[np.argsort(-amps)]
    neg, pos = np.sort(by_amp[:2])
    slow = abs(by_amp[2]) if len(by_amp) > 2 else math.nan
    return FrequencyFit(freqs=np.array([slow, pos, -neg]), residual_rms=residual_rms)


def read_tone(times: np.ndarray, values: np.ndarray) -> SinusoidFit:
    """:func:`fit_sinusoid` on every s-th sample, s dividing the interval count.

    s is the largest such stride at most FIT_STEP / (times[1] - times[0]), at
    least 1, so both ends stay and the span keeps its 3 periods.  A span that
    thins to fewer than 8 samples raises ValueError naming it and FIT_STEP.
    """
    t, y, intervals, spacing = _spacing(times, values)
    most = max(1, int(FIT_STEP / max(spacing, FIT_STEP / intervals))) if spacing > 0 else 1
    stride = next(s for s in range(most, 0, -1) if intervals % s == 0)
    if stride > 1 and intervals // stride < 7:
        raise ValueError(f"a span of {t[-1] - t[0]:g} thinned to FIT_STEP = {FIT_STEP:.6g} "
                         f"gives {intervals // stride + 1}, not at least 8 samples")
    return fit_sinusoid(t[::stride], y[::stride])


def fit_frequencies(times: np.ndarray, values: np.ndarray, freq_seeds: np.ndarray,
                    trend_degree: int = 0) -> FrequencyFit:
    """Jointly refine several sinusoid frequencies against a sampled real series.

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10 (1973)
    413): amplitudes and trend are solved linearly, and SciPy's least_squares,
    the package's only SciPy call, refines the seeds; only the benchmark's
    trajectory_export gate calls this.  Raises ValueError on bad sampling or
    seeds, before any fitting, and FitFailureError when the residual fails
    the gate or the refinement overflows (a seed near 1e-100).
    """
    t, y, _ = _samples(times, values)
    seeds = np.asarray(freq_seeds, dtype=float)
    if seeds.ndim != 1 or not len(seeds):
        raise ValueError(f"need a non-empty 1-D list of frequency seeds, got shape {seeds.shape}")
    _finite(seeds, "frequency seeds", "seed")

    def residual(freqs):
        dm = _design(freqs, t, trend_degree)
        coef, *_ = np.linalg.lstsq(dm, y, rcond=None)
        return dm @ coef - y

    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            sol = least_squares(residual, np.abs(seeds), xtol=1e-15, ftol=1e-15, gtol=1e-15,
                                method="trf", x_scale=np.maximum(np.abs(seeds), 1e-3))
    except FloatingPointError as exc:
        raise FitFailureError(f"the refinement left the float range: {exc}") from exc
    freqs = np.abs(sol.x)
    _, residual_rms = _gated_amplitudes(_design(freqs, t, trend_degree), y, len(freqs))
    return FrequencyFit(freqs=freqs, residual_rms=residual_rms)
