"""Self-tests of the benchmark's own arithmetic, gates and seeding.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py
"""
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402
from zbwsim import DimensionlessParams, bz, symmetry  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 21))[::-1]
    assert run.percentile(values, 50.0) == 10
    assert run.percentile(values, 75.0) == 15
    assert run.percentile(values, 100.0) == 20
    assert run.percentile([7.0], 50.0) == 7.0


class _Counting:
    """A workload stand-in whose ops do no work."""

    def run(self, op, ctx):
        return op


class _Reference:
    """A speed reference that reads 2x slower than the unit machine."""

    def scale(self):
        return 0.5


def test_drive_cycles_and_normalizes_each_op():
    passes = [[workloads.Op("a"), workloads.Op("b")], [workloads.Op("c"), workloads.Op("d")]]
    phase = run.drive(_Counting(), passes, None, seconds=0.0, min_cycles=3,
                      reference=_Reference())
    assert [r.slot for r in phase.records] == [(0, 0), (0, 1), (1, 0), (1, 1)] * 3
    assert [r.cycle for r in phase.records] == [0] * 4 + [1] * 4 + [2] * 4
    assert {r.scale for r in phase.records} == {0.5}
    assert run.medians([((1, 0), 5.0), ((0, 0), 2.0), ((1, 0), 3.0), ((0, 0), 4.0)]) == [3.0, 4.0]
    calls = []
    phase = run.drive(_Counting(), passes, None, n_passes=3, between=lambda: calls.append(1))
    assert len(phase.records) == 6 and len(calls) == 3
    assert {r.scale for r in phase.records} == {1.0}


def test_timings_keep_medians_and_a_tail_over_every_op():
    """op_p50_s is over each input's median over cycles; op_tail_s over every op."""
    records = [run.Record(workloads.Op("a"), (k, 0), c, None, None, 1.0, 0.5, 2.0)
               for c in range(4) for k in range(10)]
    for rec in records[29:]:   # eleven spikes, in the last two cycles
        rec.latency_s = 5.0
    t = run.timings(records)
    assert t["op_p50_s"] == 2.0 and t["op_tail_s"] == 10.0
    # input 9 has two spikes in four cycles: median (2 + 10) / 2
    assert t["wall_s"] == 2.0 and t["cpu_s"] == 1.0 and t["ops_per_s"] == 10 / (9 * 2.0 + 6.0)
    assert run.timings(records, normalized=False)["op_p50_s"] == 1.0
    stub = type("Stub", (), {"name": "stub"})()
    values, notes = run.end_to_end(stub, run.Phase(records), [(0.7, 1.0), (0.5, 1.0),
                                                              (0.4, 2.0)], 80.0)
    assert values["setup_s"] == 0.7 and "raw 0.5" in notes["setup_s"]
    assert "raw 1" in notes["op_p50_s"]
    assert notes["op_tail_s"].startswith("p75 of all 40 timed ops, 10 beyond")
    few = run.timings(records[:19])
    assert "op_tail_s" not in few and few["op_p50_s"] == 2.0


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 4.0, 0),      # overlaps a: together they cover [1, 4]
        Span("c", 5.0, 7.0, 0),
        Span("d", 5.5, 6.0, 3),      # grandchild of root, child of c
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.5, 0.5])


def test_summary_counts_and_nested_same_name_calls():
    spans = [
        Span("bz.roots", 0.0, 2.0, None, {}),
        Span("bz.roots", 0.5, 1.0, 0, {}),   # perturbative_roots -> solve_cubic_exact
        Span("fitting.fit_frequencies", 3.0, 4.0, None, {"samples": 5, "residual_rms": 1e-3}),
        Span("fitting.fit_frequencies", 4.0, 6.0, None, {"samples": 7, "residual_rms": 2e-4}),
    ]
    summary = tracing.summarize(spans)
    assert summary["bz.roots"]["calls"] == 1
    assert summary["bz.roots"]["self_s"] == pytest.approx(2.0)
    ff = summary["fitting.fit_frequencies"]
    assert (ff["calls"], ff["samples"], ff["residual_rms"]) == (2, 12, 1e-3)
    merged = tracing.merge(summary, summary)
    assert merged["fitting.fit_frequencies"]["samples"] == 24
    assert merged["fitting.fit_frequencies"]["residual_rms"] == 1e-3
    metrics = tracing.layer_metrics(merged, {"cli.rows_written": 3})
    assert metrics["fitting.fit_frequencies.us_per_sample"] == pytest.approx(6.0 / 24 * 1e6)
    assert metrics["bz.integrate.calls"] == 0 and metrics["cli.rows_written"] == 3


def test_wrappers_sit_where_callers_look_and_are_restored():
    import zbwsim.bz
    import zbwsim.cli
    import zbwsim.expectation
    import zbwsim.fitting
    import zbwsim.symmetry

    sites = [(zbwsim.bz, "fit_frequencies"), (zbwsim.fitting, "fit_frequencies"),
             (zbwsim.expectation, "fit_sinusoid"), (zbwsim.symmetry, "spectral_frequencies"),
             (zbwsim.symmetry, "quantum_trajectory"), (zbwsim.cli, "shift_table"),
             (zbwsim.bz, "integrate")]
    before = [getattr(m, a) for m, a in sites]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(getattr(m, a) is not f for (m, a), f in zip(sites, before))
        p = DimensionlessParams(epsilon=-1e-3)
        symmetry.fitted_quantum_table(p)
    assert [getattr(m, a) for m, a in sites] == before
    summary = tracing.summarize(tracer.spans)
    assert summary["fitting.fit_sinusoid"]["calls"] == 4
    assert summary["expectation.quantum_trajectory"]["samples"] == 4 * 10001


def test_traced_counts_repeat_exactly():
    p = DimensionlessParams(epsilon=-2e-3, spin="down")

    def counts():
        tracer = tracing.Tracer()
        with tracer.installed():
            bz.spectral_frequencies(p, tau_max=20.0, dt=0.02, modes="fast")
        metrics = tracing.layer_metrics(tracing.summarize(tracer.spans), tracer.counters)
        return {k: v for k, v in metrics.items() if not k.endswith(("_s", "us_per_step",
                                                                    "us_per_sample"))}

    first = counts()
    assert first["bz.integrate.traj_steps"] == 1000
    assert first["fitting.fit_frequencies.samples"] == 1001
    assert counts() == first


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_fixes_inputs(name):
    w = workloads.WORKLOADS[name]
    assert w.passes(3) == w.passes(3)
    assert w.passes(3) != w.passes(4)


def test_cp_gate_fails_a_flipped_sign():
    w = workloads.WORKLOADS["cp_fitted"]
    op = workloads.Op("fast_modes", {"epsilon": -1e-3})
    p = DimensionlessParams(epsilon=-1e-3)
    exact = symmetry.shift_table("classical_accurate", p)
    quantum = symmetry.shift_table("quantum", p)
    good = (exact, symmetry.cp_check(exact), quantum, symmetry.cp_check(quantum))
    assert w.gate(op, good, None) == []
    cells = list(exact.cells)
    cells[1] = dataclasses.replace(cells[1], delta_omega=-cells[1].delta_omega)
    flipped = dataclasses.replace(exact, cells=tuple(cells))
    bad = (flipped, symmetry.cp_check(flipped), quantum, symmetry.cp_check(quantum))
    assert "fitted_matches_exact_roots" in w.gate(op, bad, None)
    # a quantum table that violated CP would fail too
    assert "quantum_cp_respected" in w.gate(op, (exact, good[1], exact, good[1]), None)


@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(root=run.ROOT, workdir=tmp_path)


def test_trajectory_gates_fail_truncated_or_wrong_csv(ctx):
    w = workloads.WORKLOADS["trajectory_export"]
    ops = w.passes(1)[0]
    results = [w.run(op, ctx) for op in ops]
    assert [w.gate(op, res, ctx) for op, res in zip(ops, results)] == [[], [], []]

    csv_op, (rc, path) = ops[0], results[0]
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-100]))
    assert w.gate(csv_op, (rc, path), ctx) == ["csv_round_trip"]

    # v_x at a 1e-3 higher frequency: the fitted fast modes leave the exact roots
    header, rows = lines[0], np.loadtxt(lines[1:], delimiter=",")
    rows[:, 4] = np.cos(2.001 * rows[:, 0])
    np.savetxt(path, rows, delimiter=",", header=header.strip(), comments="", fmt="%.12g")
    assert w.gate(csv_op, (rc, path), ctx) == ["vx_fast_modes_match_exact_roots"]

    svg_op, (rc, svg) = ops[1], results[1]
    svg.write_text(svg.read_text()[:-200])
    assert w.gate(svg_op, (rc, svg), ctx) == ["svg_well_formed"]
    assert w.gate(ops[2], (3, results[2][1]), ctx) == ["exit_code_0"]


def test_quantum_batch_gates_fail_corrupted_quadratures(ctx):
    w = workloads.WORKLOADS["quantum_batch"]
    op = w.passes(2)[0][2]
    assert op.kind == "packet_drift"
    fit, i_val, j_val, norm, drift = w.run(op, ctx)
    assert w.gate(op, (fit, i_val, j_val, norm, drift), ctx) == []
    assert w.gate(op, (fit, 1.001 * i_val, j_val, norm, drift), ctx) == [
        "quadrature_I_matches_closed_form"]
    assert w.gate(op, (fit, i_val, 1e-8, norm, drift), ctx) == ["quadrature_J_vanishes"]
    assert w.gate(op, (fit, i_val, j_val, 1.001, drift), ctx) == [
        "quadrature_normalization_is_1"]
    assert w.gate(op, (fit, i_val, j_val, norm, drift + 1e-6), ctx) == [
        "quadrature_drift_vanishes"]
    fast = dataclasses.replace(fit, omega=fit.omega + 1e-6)
    assert w.gate(op, (fast, i_val, j_val, norm, drift), ctx) == ["fitted_frequency_circular"]


def _child(rc, stdout="", stderr="", path=None):
    return {"rc": rc, "stdout": stdout, "stderr": stderr, "path": path}


def test_cli_error_contract_gate():
    w = workloads.WORKLOADS["cli_cold"]
    op = next(op for op in w.passes(1)[0] if op.kind == "invalid_epsilon")
    one_line = json.dumps({"error": "config", "detail": "x"}) + "\n"
    assert w.gate(op, _child(2, stderr=one_line), None) == []
    assert w.gate(op, _child(3, stderr=one_line), None) == []
    assert w.gate(op, _child(1, stderr=one_line), None) != []
    assert w.gate(op, _child(2, stderr=one_line * 2), None) != []
    assert w.gate(op, _child(2, stderr="usage: zbw\n"), None) != []
    tb = "Traceback (most recent call last):\nZeroDivisionError: float division by zero\n"
    assert w.gate(op, _child(1, stderr=tb), None) == ["no_traceback"]


def test_cli_roots_gate_fails_a_wrong_root():
    w = workloads.WORKLOADS["cli_cold"]
    op = next(op for op in w.passes(1)[0] if op.kind == "roots_exact")
    p = w._params(op.args["argv"])
    r = bz.solve_cubic_exact(bz.characteristic_cubic(p))
    roots = {"omega1": r.omega1, "omega2": r.omega2, "omega3": r.omega3}
    assert w.gate(op, _child(0, json.dumps({"roots": roots})), None) == []
    roots["omega2"] = -roots["omega2"]
    assert w.gate(op, _child(0, json.dumps({"roots": roots})), None) == ["roots_exact_output"]


def test_known_defect_probes_stay_in_the_mix():
    kinds = [op.kind for op in workloads.WORKLOADS["cli_cold"].probes(1)]
    assert kinds == ["defect_classical_dt0", "defect_quantum_tmax_1e4"]
