"""Sinusoid frequency estimation by variable projection.

For trial frequencies the sinusoid amplitudes and a polynomial trend are
solved linearly, and only the frequencies are refined nonlinearly (Golub &
Pereyra, SIAM J. Numer. Anal. 10 (1973) 413).  A single-tone fit is the
one-frequency, constant-trend case seeded from the periodogram; multi-tone
fits are seeded by the caller.  Least-squares fitting resolves frequency
shifts far below the DFT bin width, which is what the weak-field shifts
require.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

TWO_PI = 2.0 * math.pi
RESIDUAL_TOL = 0.01  # largest RMS residual accepted, as a fraction of the largest amplitude


class FitFailureError(RuntimeError):
    """Residual exceeded the sinusoid model tolerance."""


@dataclass(frozen=True)
class SinusoidFit:
    omega: float
    amplitude: float
    phase: float
    offset: float
    residual_rms: float


@dataclass(frozen=True)
class FrequencyFit:
    freqs: np.ndarray
    amplitudes: np.ndarray
    residual_rms: float


def _samples(times: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Validated float arrays and their sample spacing."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != y.shape or len(t) < 8:
        raise ValueError("need matching 1-D arrays with at least 8 samples")
    dt = np.diff(t)
    if not (dt.min() > 0 and dt.max() - dt.min() <= 1e-9 * dt.mean()):
        raise ValueError("times must be strictly increasing and uniform")
    return t, y, float(dt.mean())


def _fft_frequency_guess(t: np.ndarray, y: np.ndarray) -> float:
    """Peak of the zero-padded periodogram with parabolic interpolation."""
    dt = t[1] - t[0]
    yz = y - y.mean()
    n = 8 * len(yz)
    spec = np.abs(np.fft.rfft(yz, n=n))
    k = int(np.argmax(spec[1:])) + 1
    if 1 <= k < len(spec) - 1:
        a, b, c = spec[k - 1], spec[k], spec[k + 1]
        denom = a - 2.0 * b + c
        if denom != 0.0:
            k = k + 0.5 * (a - c) / denom
    return TWO_PI * k / (n * dt)


def _design(freqs: np.ndarray, t: np.ndarray, trend_degree: int) -> np.ndarray:
    """cos/sin column pair per frequency, then powers of t scaled to [-1, 1]."""
    cols = [f(w * t) for w in freqs for f in (np.cos, np.sin)]
    tm = t / max(-t[0], t[-1])
    return np.column_stack(cols + [tm**d for d in range(trend_degree + 1)])


def _varpro(t: np.ndarray, y: np.ndarray, seeds: np.ndarray,
            trend_degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Refine seeds; return (freqs, linear coefficients, amplitudes, residual RMS).

    Raises FitFailureError when the RMS residual exceeds RESIDUAL_TOL times
    the largest fitted amplitude (model mismatch, e.g. a missing tone).
    """
    def residual(freqs):
        dm = _design(freqs, t, trend_degree)
        coef, *_ = np.linalg.lstsq(dm, y, rcond=None)
        return dm @ coef - y

    sol = least_squares(residual, seeds, xtol=1e-15, ftol=1e-15, gtol=1e-15, method="trf",
                        x_scale=np.maximum(np.abs(seeds), 1e-3))
    freqs = np.abs(sol.x)
    dm = _design(freqs, t, trend_degree)
    coef, *_ = np.linalg.lstsq(dm, y, rcond=None)
    amps = np.hypot(coef[0 : 2 * len(freqs) : 2], coef[1 : 2 * len(freqs) : 2])
    residual_rms = float(np.sqrt(np.mean((dm @ coef - y) ** 2)))
    if not residual_rms <= RESIDUAL_TOL * amps.max():
        raise FitFailureError(f"residual rms {residual_rms:g} exceeds {RESIDUAL_TOL:g} x "
                              f"amplitude {amps.max():g}")
    return freqs, coef, amps, residual_rms


def fit_sinusoid(times: np.ndarray, values: np.ndarray) -> SinusoidFit:
    """Fit A sin(omega t + phi) + c to a uniformly sampled series.

    Raises ValueError when the sampling is too coarse or the span too short
    for the periodogram's frequency, before any fitting, and FitFailureError
    when the residual fails the gate.
    """
    t, y, dt = _samples(times, values)
    w0 = _fft_frequency_guess(t, y)
    period = TWO_PI / w0
    if dt > period / 8.0:
        raise ValueError(f"fewer than 8 samples per period {period:g}")
    if t[-1] - t[0] < 3.0 * period:
        raise ValueError(f"span shorter than 3 periods of {period:g}")
    freqs, coef, amps, residual_rms = _varpro(t, y, np.array([w0]), 0)
    return SinusoidFit(omega=float(freqs[0]), amplitude=float(amps[0]),
                       phase=math.atan2(coef[0], coef[1]), offset=float(coef[2]),
                       residual_rms=residual_rms)


def fit_frequencies(times: np.ndarray, values: np.ndarray, freq_seeds: np.ndarray,
                    trend_degree: int = 0) -> FrequencyFit:
    """Jointly refine several sinusoid frequencies against a sampled series.

    Seeds must be close enough that the linear-in-amplitudes problem at the
    seed frequencies already separates the modes; the nonlinear step then
    converges to machine-level frequency estimates on noiseless data.  Raises
    ValueError on bad sampling and FitFailureError when the residual fails
    the gate.
    """
    t, y, _ = _samples(times, values)
    seeds = np.abs(np.asarray(freq_seeds, dtype=float))
    freqs, _, amps, residual_rms = _varpro(t, y, seeds, trend_degree)
    return FrequencyFit(freqs=freqs, amplitudes=amps, residual_rms=residual_rms)
