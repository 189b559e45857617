"""Spans around the calls into each zbwsim layer, recorded from outside the package.

A :class:`Tracer` replaces each public function listed in :data:`TARGETS` by a
wrapper at every name a caller looks it up under: the defining module and
each module that imported it by name (``symmetry`` imports
``spectral_frequencies`` and ``quantum_trajectory``, ``bz`` imports
``fit_frequencies``, ``expectation`` imports ``fit_sinusoid``, ``cli`` imports
``shift_table``/``cp_check``/``quantum_trajectory``).  ``cli`` reaches ``bz``
and ``svgplot`` through the module, so the defining module covers it.  The
wrappers are removed again by :meth:`Tracer.restore`.

Spans are kept in memory.  :func:`summarize` turns them into per-name totals
(calls, self time, counts); :func:`layer_metrics` turns totals into the
per-layer metrics named in ``BENCHMARK.json``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level
    counts: dict = field(default_factory=dict)


def _integrate_counts(args, kwargs, traj) -> dict:
    arrays = (traj.tau, traj.x, traj.v, traj.S)
    return {"steps": len(traj.tau) - 1, "bytes": sum(a.nbytes for a in arrays)}


def _fit_frequencies_counts(args, kwargs, fit) -> dict:
    return {"samples": len(args[0]), "residual_rms": fit.residual_rms}


def _fit_sinusoid_counts(args, kwargs, fit) -> dict:
    return {"samples": len(args[0])}


def _trajectory_counts(args, kwargs, traj) -> dict:
    return {"samples": len(traj.times)}


def _svg_counts(args, kwargs, text) -> dict:
    return {"bytes": len(text.encode())}


def _quadrature_counts(fn):
    """Momentum-grid nodes a quadrature evaluates: N_U x N_THETA (x n_phi)."""
    sig = inspect.signature(fn)

    def counts(args, kwargs, _result) -> dict:
        expectation = importlib.import_module("zbwsim.expectation")
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        nodes = expectation.N_U * expectation.N_THETA * bound.arguments.get("n_phi", 1)
        return {"nodes": nodes}

    return counts


# (span name, defining module, attribute, modules that import it by name, counter)
TARGETS = (
    ("bz.integrate", "zbwsim.bz", "integrate", (), _integrate_counts),
    ("bz.spectral_frequencies", "zbwsim.bz", "spectral_frequencies",
     ("zbwsim.symmetry",), None),
    ("bz.roots", "zbwsim.bz", "solve_cubic_exact", ("zbwsim.symmetry",), None),
    ("bz.roots", "zbwsim.bz", "perturbative_roots", ("zbwsim.symmetry",), None),
    ("fitting.fit_frequencies", "zbwsim.fitting", "fit_frequencies", ("zbwsim.bz",),
     _fit_frequencies_counts),
    ("fitting.fit_sinusoid", "zbwsim.fitting", "fit_sinusoid", ("zbwsim.expectation",),
     _fit_sinusoid_counts),
    ("expectation.quantum_trajectory", "zbwsim.expectation", "quantum_trajectory",
     ("zbwsim.symmetry", "zbwsim.cli"), _trajectory_counts),
    ("expectation.quadrature", "zbwsim.expectation", "amplitude_coefficients_quadrature",
     (), "quadrature"),
    ("expectation.quadrature", "zbwsim.expectation", "packet_normalization", (), "quadrature"),
    ("expectation.quadrature", "zbwsim.expectation", "drift_velocity", (), "quadrature"),
    ("symmetry.fitted_classical_table", "zbwsim.symmetry", "fitted_classical_table", (), None),
    ("symmetry.fitted_quantum_table", "zbwsim.symmetry", "fitted_quantum_table", (), None),
    ("symmetry.shift_table", "zbwsim.symmetry", "shift_table", ("zbwsim.cli",), None),
    ("symmetry.cp_check", "zbwsim.symmetry", "cp_check", ("zbwsim.cli",), None),
    ("symmetry.discrepancy_report", "zbwsim.symmetry", "discrepancy_report",
     ("zbwsim.cli",), None),
    ("svgplot", "zbwsim.svgplot", "trajectory_svg", (), _svg_counts),
    ("svgplot", "zbwsim.svgplot", "planar_orbit_svg", (), _svg_counts),
    ("svgplot", "zbwsim.svgplot", "shift_bars_svg", (), _svg_counts),
    ("cli.main", "zbwsim.cli", "main", (), None),
)


class Tracer:
    """Records one span per wrapped call, plus free counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, fn, name: str, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for name, module, attr, importers, counter in TARGETS:
            home = importlib.import_module(module)
            fn = getattr(home, attr)
            if counter == "quadrature":
                counter = _quadrature_counts(fn)
            wrapper = self.wrap(fn, name, counter)
            for site in (home, *map(importlib.import_module, importers)):
                # a module that no longer imports the name by itself is skipped
                if getattr(site, attr, None) is fn:
                    self._saved.append((site, attr, fn))
                    setattr(site, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            site, attr, fn = self._saved.pop()
            setattr(site, attr, fn)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(i, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


# counts summed over calls, except these, which keep their maximum
_MAX_COUNTS = {"residual_rms"}


def _add(row: dict, key: str, value: float) -> None:
    if key in _MAX_COUNTS:
        row[key] = max(row.get(key, value), value)
    else:
        row[key] = row.get(key, 0) + value


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s and every count.

    A span directly inside one of the same name (``perturbative_roots``
    calling ``solve_cubic_exact``) adds its self time but not a call.
    """
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        nested = span.parent is not None and spans[span.parent].name == span.name
        row["calls"] += 0 if nested else 1
        row["self_s"] += own
        for key, value in span.counts.items():
            _add(row, key, value)
    return out


def merge(a: dict, b: dict) -> dict:
    """Combine two summaries (from two processes, say)."""
    out = {name: dict(row) for name, row in a.items()}
    for name, row in b.items():
        dst = out.setdefault(name, {})
        for key, value in row.items():
            _add(dst, key, value)
    return out


def _get(summary: dict, name: str, key: str) -> float:
    return summary.get(name, {}).get(key, 0)


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict, counters: dict) -> dict[str, float]:
    """The per-layer metrics, by name, from a summary and the free counters."""
    g = functools.partial(_get, summary)
    integ, ff, fs = "bz.integrate", "fitting.fit_frequencies", "fitting.fit_sinusoid"
    return {
        "bz.integrate.calls": g(integ, "calls"),
        "bz.integrate.traj_steps": g(integ, "steps"),
        "bz.integrate.self_s": g(integ, "self_s"),
        "bz.integrate.us_per_step": _per(g(integ, "self_s"), g(integ, "steps"), 1e6),
        "bz.integrate.bytes_out": g(integ, "bytes"),
        "bz.spectral_frequencies.self_s": g("bz.spectral_frequencies", "self_s"),
        "bz.roots.calls": g("bz.roots", "calls"),
        "fitting.fit_frequencies.calls": g(ff, "calls"),
        "fitting.fit_frequencies.samples": g(ff, "samples"),
        "fitting.fit_frequencies.self_s": g(ff, "self_s"),
        "fitting.fit_frequencies.us_per_sample": _per(g(ff, "self_s"), g(ff, "samples"), 1e6),
        "fitting.fit_frequencies.residual_rms_max": g(ff, "residual_rms"),
        "fitting.fit_sinusoid.calls": g(fs, "calls"),
        "fitting.fit_sinusoid.samples": g(fs, "samples"),
        "fitting.fit_sinusoid.self_s": g(fs, "self_s"),
        "expectation.quantum_trajectory.samples": g("expectation.quantum_trajectory", "samples"),
        "expectation.quantum_trajectory.self_s": g("expectation.quantum_trajectory", "self_s"),
        "expectation.quadrature.calls": g("expectation.quadrature", "calls"),
        "expectation.quadrature.nodes": g("expectation.quadrature", "nodes"),
        "expectation.quadrature.self_s": g("expectation.quadrature", "self_s"),
        "symmetry.fitted_classical_table.self_s": g("symmetry.fitted_classical_table", "self_s"),
        "symmetry.fitted_quantum_table.self_s": g("symmetry.fitted_quantum_table", "self_s"),
        "symmetry.shift_table.calls": g("symmetry.shift_table", "calls"),
        "symmetry.shift_table.self_s": g("symmetry.shift_table", "self_s"),
        "symmetry.cp_check.calls": g("symmetry.cp_check", "calls"),
        "svgplot.calls": g("svgplot", "calls"),
        "svgplot.self_s": g("svgplot", "self_s"),
        "svgplot.bytes": g("svgplot", "bytes"),
        "cli.main.self_s": g("cli.main", "self_s"),
        "cli.rows_written": counters.get("cli.rows_written", 0),
        "cli.bytes_written": counters.get("cli.bytes_written", 0),
    }
