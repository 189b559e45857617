import argparse
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zbwsim
from zbwsim import cli, fitting, svgplot
from zbwsim.cli import main
from zbwsim.fitting import fit_sinusoid


def _read(path):
    return path.read_text()


def test_roots_json_satisfies_vieta(tmp_path, capsys):
    out = tmp_path / "roots.json"
    rc = main(["roots", "--epsilon", "-1e-3", "--spin", "up",
               "--method", "exact", "--out", str(out)])
    assert rc == 0
    payload = json.loads(_read(out))
    r = payload["roots"]
    w = np.array([r["omega1"], r["omega2"], r["omega3"]])
    c = payload["coefficients"]
    assert w.sum() == pytest.approx(0.0, abs=1e-10)
    assert w[0] * w[1] + w[0] * w[2] + w[1] * w[2] == pytest.approx(c["c1"], rel=1e-10)
    assert w.prod() == pytest.approx(-c["c0"], rel=1e-10)


def test_roots_format_flag_is_gone(capsys):
    rc = main(["roots", "--epsilon", "-1e-3", "--format", "json"])
    assert rc == 2
    assert _one_error_line(capsys.readouterr().err)["error"] == "config"


def _per_value_csv(header, rows):
    """CSV text formatted one value at a time, the reference for cli._write_csv."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def test_csv_rows_match_per_value_format(tmp_path):
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan,
               1.0 / 3.0, 123456789012.5, -2.5e-7]
    rng = np.random.default_rng(5)
    # several blocks and a partial one, with every special value in every column
    n = 4 * cli._BLOCK + 37
    tau = rng.standard_normal(n)
    table = rng.standard_normal((n, 7)) * 10.0 ** rng.integers(-300, 300, (1, 7))
    for k, v in enumerate(special):
        tau[k * 97 % n] = v
        table[k * 97 % n] = v
        table[cli._BLOCK - 1 + k, k % 7] = v
    out = tmp_path / "t.csv"
    header = ["tau", "x", "y", "z", "vx", "vy", "vz", "S12"]
    cli._write_csv(out, header, ",".join([cli._FLOAT] * 8),
                   cli._float_blocks(tau, table[:, 0:3], table[:, 3:6], table[:, 6]))
    assert out.read_text() == _per_value_csv(header, np.column_stack((tau, table)).tolist())
    cli._write_csv(out, ["t"], cli._FLOAT, cli._float_blocks(np.empty(0)))
    assert out.read_text() == "t\n"
    rows = [(eps, charge, spin, approach, omega, verdict)
            for eps, omega in zip(special, reversed(special))
            for charge, spin, approach, verdict in (
                ("electron", "up", "quantum", "cp_respected"),
                ("positron", "down", "classical_rough", "cp_violated"))]
    header = ["epsilon", "charge", "spin", "approach", "delta_omega", "cp_verdict"]
    cli._write_csv(out, header, f"{cli._FLOAT},%s,%s,%s,{cli._FLOAT},%s", [rows])
    assert out.read_text() == _per_value_csv(header, rows)


_CSV_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, math.nan, math.inf, -math.inf]


@st.composite
def _csv_table(draw):
    """A float table of about _BLOCK rows, with special values and arbitrary doubles
    dropped into random cells."""
    n = draw(st.sampled_from([0, 1, cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1,
                              2 * cli._BLOCK + 3]))
    width = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-320, 300, (n, width))
    values = draw(st.lists(st.sampled_from(_CSV_SPECIAL) | st.floats(), max_size=24))
    for v in values if n else []:
        table.flat[rng.integers(table.size)] = v
    return table


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_csv_table(), st.lists(st.tuples(st.sampled_from(_CSV_SPECIAL) | st.floats(),
                                        st.sampled_from(["electron", "positron"]),
                                        st.sampled_from(["up", "down"]),
                                        st.sampled_from(["quantum", "classical_exact"]),
                                        st.sampled_from(_CSV_SPECIAL) | st.floats(),
                                        st.sampled_from(["cp_respected", "cp_violated"])),
                              max_size=cli._BLOCK + 2))
def test_csv_blocks_match_a_format_per_row(table, rows):
    """One % per block writes what one % per row writes, for float and mixed sweep rows."""
    def reference(header, line, rows):
        return ",".join(header) + "\n" + "".join(line % tuple(r) for r in rows)

    with tempfile.TemporaryDirectory() as d:
        out = Path(d) / "t.csv"
        header = [f"c{k}" for k in range(table.shape[1])]
        fmt = ",".join([cli._FLOAT] * table.shape[1])
        cli._write_csv(out, header, fmt, cli._float_blocks(table[:, 0], table[:, 1:]))
        assert out.read_text() == reference(header, fmt + "\n", table.tolist())
        header = ["epsilon", "charge", "spin", "approach", "delta_omega", "cp_verdict"]
        fmt = f"{cli._FLOAT},%s,%s,%s,{cli._FLOAT},%s"
        cli._write_csv(out, header, fmt, [rows])
        assert out.read_text() == reference(header, fmt + "\n", rows)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 2 * 2000 + 1), st.integers(0, 2**32 - 1), st.booleans())
@example(1, 0, False)     # a single sample: both spans widen
@example(40, 1, True)     # a constant series: the y span widens
@example(2001, 2, False)  # just above the vertex cap: stride 1
@example(4001, 3, False)  # stride 2
def test_polyline_matches_a_format_per_vertex(n, seed, constant):
    """The polyline's points are to_px of each strided sample through _fmt, one at a time."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.random(n)) - rng.random()
    y = np.full(n, -0.3) if constant else rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5)
    limits = (float(x[0]), float(x[-1]), float(y.min()), float(y.max()))
    svg = svgplot._line_plot("t", x, y, *limits, "tau", "v_x")
    to_px = svgplot._axes(svgplot._Canvas("t"), *limits, svgplot._ticks(*limits[:2]), "tau", "v_x")
    stride = max(1, n // 2000)
    pts = [to_px(float(a), float(b)) for a, b in zip(x[::stride], y[::stride])]
    want = " ".join(f"{svgplot._fmt(px)},{svgplot._fmt(py)}" for px, py in pts)
    assert re.search(r'<polyline points="([^"]*)"', svg).group(1) == want


def test_quantum_csv_free_case(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["quantum", "--spin", "up", "--charge", "electron", "--epsilon", "0",
               "--phi0", "0", "--t-max", "31.4", "--dt", "0.0314", "--out", str(out)])
    assert rc == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert tuple(data.dtype.names) == ("t", "x", "y", "z")
    fit = fit_sinusoid(data["t"], data["x"])
    assert fit.omega == pytest.approx(2.0, abs=1e-9)
    assert np.all(data["z"] == 0.0)
    # locale-independent: LF endings, decimal points
    raw = out.read_bytes()
    assert b"\r" not in raw and b"," in raw


def test_classical_csv_columns(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["classical", "--epsilon", "-1e-3", "--spin", "up",
               "--tau-max", "5", "--dt", "0.01", "--out", str(out)])
    assert rc == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert tuple(data.dtype.names) == ("tau", "x", "y", "z", "vx", "vy", "vz", "S12")
    assert data["S12"][0] == pytest.approx(0.5)
    assert data["vx"][0] == pytest.approx(1.0)


def test_compare_report_verdicts(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["compare", "--epsilon", "-1e-3", "--out", str(out)])
    assert rc == 0
    report = json.loads(_read(out))
    assert report["cp"]["quantum"] == "cp_respected"
    assert report["cp"]["classical_accurate"] == "cp_violated"
    # 2 + omega_c rounds to 2 here; the quantum shifts must still be +-omega_c,
    # not 0.0 with an infinite relative disagreement
    assert main(["compare", "--epsilon", "-8e-17", "--out", str(out)]) == 0
    report = json.loads(_read(out), parse_constant=_reject_constant)
    assert report["cp"]["quantum"] == "cp_respected"


def test_landau_json(capsys):
    rc = main(["landau", "--n", "1", "--l", "-1", "--sz", "-0.5", "--ceb", "0.01"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["energy"] == pytest.approx(np.sqrt(1.04), rel=1e-12)


def test_sweep_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--epsilons", "-1e-3", "-1e-4", "--jobs", "1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = _read(a).strip().splitlines()
    # header + 2 epsilons x 3 approaches x 4 cells
    assert len(lines) == 1 + 2 * 3 * 4
    assert lines[0] == "epsilon,charge,spin,approach,delta_omega,cp_verdict"


def test_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    """Parallel sweeps write the serial bytes; no more workers start than work items (3)."""
    workers = []

    def pool(max_workers):
        workers.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
    a = tmp_path / "s.csv"
    assert main(["sweep", "--epsilons", "-1e-3", "--jobs", "1", "--out", str(a)]) == 0
    for jobs in ("2", "6"):
        b = tmp_path / f"p{jobs}.csv"
        assert main(["sweep", "--epsilons", "-1e-3", "--jobs", jobs, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
    assert workers == [2, 3]


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, jobs):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--epsilons", "-1e-3", "--jobs", jobs, "--out", str(out)]) == 2
    assert _one_error_line(capsys.readouterr().err)["error"] == "config"
    assert not out.exists()


def test_compare_fit_at_large_field(tmp_path):
    """At epsilon = -0.099 the fit seeds come from the trajectory and still converge."""
    out = tmp_path / "r.json"
    assert main(["compare", "--epsilon", "-0.099", "--fit", "--out", str(out)]) == 0
    fitted = json.loads(_read(out))["fitted"]["classical_accurate"]
    assert fitted["cp"]["verdict"] == "cp_violated"


def test_compare_fit_at_a_laboratory_field(tmp_path):
    """At 10 T the fitted classical cells are the cubic's (-4, +2, +2, -4) epsilon, ratio 2.

    A fit of the real v_x gave (-3.34, +2.79, +2.65, -3.21) epsilon and a ratio of 1.199.
    """
    out = tmp_path / "r.json"
    assert main(["compare", "--tesla", "10", "--fit", "--out", str(out)]) == 0
    report = json.loads(_read(out))
    fitted = report["fitted"]["classical_accurate"]
    for cell, factor in zip(fitted["cells"], (-4.0, 2.0, 2.0, -4.0)):
        want = factor * report["epsilon"]
        assert abs(cell["delta_omega"] - want) <= 2e-6 * abs(want), cell
    assert fitted["cp"]["asymmetry_ratio"] == pytest.approx(2.0, abs=1e-5)


def test_svg_outputs(tmp_path):
    orbit = tmp_path / "orbit.svg"
    assert main(["quantum", "--epsilon", "-1e-3", "--t-max", "6.3", "--dt", "0.01",
                 "--out", str(orbit)]) == 0
    assert _read(orbit).startswith("<svg") and "</svg>" in _read(orbit)
    bars = tmp_path / "bars.svg"
    assert main(["compare", "--epsilon", "-1e-3", "--out", str(bars)]) == 0
    assert "<rect" in _read(bars)


def test_compare_svg_texts_do_not_overlap(tmp_path):
    """No two <text> elements of the bar chart share (x, y): the cell labels are its x ticks."""
    out = tmp_path / "bars.svg"
    for epsilon in ("-1e-3", "0", "-0.099"):
        assert main(["compare", "--epsilon", epsilon, "--out", str(out)]) == 0
        texts = [t for t in ET.parse(out).getroot() if t.tag.endswith("text")]
        spots = [(t.get("x"), t.get("y")) for t in texts]
        assert len(set(spots)) == len(spots), epsilon
        assert {"e-up", "e-down", "p-up", "p-down"} <= {t.text for t in texts}


def test_compare_fit_needs_a_json_out(tmp_path, capsys, monkeypatch):
    """--fit with an .svg --out is refused before any table is computed."""
    monkeypatch.setattr(cli, "discrepancy_report", None)
    out = tmp_path / "x.svg"
    rc = main(["compare", "--epsilon", "-1e-3", "--fit", "--out", str(out)])
    assert (rc, _one_error_line(capsys.readouterr().err)["error"]) == (2, "config")
    assert not out.exists()


def test_config_error_exit_code(tmp_path, capsys):
    rc = main(["quantum", "--epsilon", "-0.5", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


def _one_error_line(err: str) -> dict:
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("argv", [
    ["classical", "--epsilon", "-1e-3", "--dt", "0"],
    ["classical", "--epsilon", "-1e-3", "--dt", "-0.01"],
    ["quantum", "--epsilon", "-1e-3", "--dt", "0"],
    ["quantum", "--epsilon", "-1e-3", "--dt", "nan"],
    ["landau", "--n", "0", "--l", "0", "--ceb", "nan"],
    ["landau", "--n", "0", "--l", "0", "--ceb", "0.01", "--pz", "inf"],
    ["classical", "--epsilon", "-1e-3", "--tau-max", "1e308", "--dt", "0.01"],
    ["quantum", "--epsilon", "-1e-3", "--t-max", "1e308"],
    ["classical", "--epsilon", "-1e-3", "--tau-max", "3e16", "--dt", "0.01"],
    ["landau", "--n", "1", "--l", "1", "--ceb", "1e308", "--pz", "1e200"],
    ["landau", "--n", "3", "--l", "-3", "--ceb", "-1e308", "--pz", "1e200"],  # inf - inf
])
def test_invalid_step_exit_code(tmp_path, capsys, argv):
    rc = main([*argv, "--out", str(tmp_path / "x.csv")])
    err = _one_error_line(capsys.readouterr().err)
    if "1e200" in argv:  # finite landau inputs whose E^2 overflows
        assert (rc, err) == (3, {"error": "numerical", "detail": "E^2 overflows"})
    elif {"1e308", "3e16"} & set(argv):  # finite spans with more steps than an array can hold
        assert (rc, err["error"]) == (3, "numerical")
        span = "tau_max" if argv[0] == "classical" else "t_max"
        assert err["detail"].startswith(f"{span} / dt = ")
        assert err["detail"].endswith("steps, more than a float64 array can hold")
    else:
        assert (rc, err["error"]) == (2, "config")


def test_zero_span_outputs(tmp_path, capsys):
    for tau_max in ("0", "0.004"):  # one sample: tau_max below dt/2
        svg = tmp_path / f"v{tau_max}.svg"
        assert main(["classical", "--epsilon", "-1e-3", "--tau-max", tau_max,
                     "--out", str(svg)]) == 0
        assert ET.parse(svg).getroot().tag.endswith("svg")
    csv = tmp_path / "q.csv"
    assert main(["quantum", "--epsilon", "-1e-3", "--t-max", "0", "--out", str(csv)]) == 0
    assert len(csv.read_text().splitlines()) == 2  # header + the t = 0 row
    rc = main(["quantum", "--epsilon", "-1e-3", "--t-max", "0", "--fit", "--out", str(csv)])
    assert rc == 2
    assert "at least 8 samples" in _one_error_line(capsys.readouterr().err)["detail"]


def test_quantum_fit_keeps_a_span_just_over_three_periods(tmp_path, capsys):
    """The fit's stride divides the interval count, so the last partial stride is not dropped."""
    rc = main(["quantum", "--epsilon", "-1e-2", "--t-max", "9.37", "--fit",
               "--out", str(tmp_path / "q.csv")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["omega"] == pytest.approx(2.02, rel=1e-12)


def test_quantum_fit_of_a_span_too_short_to_thin_names_the_span(tmp_path, capsys):
    """101 samples 1e-9 apart thin to 2 at FIT_STEP; the error names the span, not the array."""
    rc = main(["quantum", "--epsilon", "-1e-3", "--t-max", "1e-7", "--dt", "1e-9", "--fit",
               "--out", str(tmp_path / "q.csv")])
    err = _one_error_line(capsys.readouterr().err)
    assert (rc, err["error"]) == (2, "config")
    assert "FIT_STEP" in err["detail"] and "span of 1e-07" in err["detail"]


@pytest.mark.parametrize("argv", [
    ["compare", "--epsilon", "-1e-3", "--fit", "--out", "r.json"],
    ["quantum", "--epsilon", "-3e-3", "--spin", "down", "--charge", "positron", "--fit",
     "--out", "q.csv"],
])
def test_fitted_answers_need_no_refinement(tmp_path, monkeypatch, argv):
    """Both fitted columns are a pencil read and one linear solve; SciPy's solver never runs."""
    def no_refinement(*args, **kwargs):
        raise AssertionError("least_squares must not run on a package path")

    monkeypatch.setattr(fitting, "least_squares", no_refinement)
    monkeypatch.chdir(tmp_path)
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0


def test_unwritable_output_exit_code(tmp_path, capsys):
    rc = main(["roots", "--epsilon", "-1e-3", "--out", str(tmp_path / "missing" / "x.json")])
    assert rc == 2
    assert _one_error_line(capsys.readouterr().err)["error"] == "io"


def _cap_address_space():
    cap = 1 << 30  # far below the petabytes the spans below ask for
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize("argv", [
    ["classical", "--tau-max", "1e15", "--dt", "0.01"],
    ["quantum", "--t-max", "1e15"],
])
def test_huge_span_exit_code(tmp_path, argv):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(zbwsim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "zbwsim.cli", *argv, "--epsilon", "-1e-3",
         "--out", str(tmp_path / "x.csv")],
        preexec_fn=_cap_address_space, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert _one_error_line(proc.stderr)["error"] == "memory"


def test_bad_flag_exit_code(tmp_path, capsys):
    rc = main(["quantum", "--out", str(tmp_path / "x.csv")])  # missing epsilon/tesla
    assert rc == 2
    assert _one_error_line(capsys.readouterr().err)["error"] == "config"


def test_tesla_flag(tmp_path, capsys):
    rc = main(["roots", "--tesla", "1.0", "--method", "exact"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["epsilon"] == pytest.approx(-1.13275e-10, rel=1e-4)


# a quick valid run of each command, as {option: value}
_BASE_ARGS = {
    "quantum": {"--epsilon": "-1e-3", "--t-max": "31.4", "--dt": "0.0314"},
    "classical": {"--epsilon": "-1e-3", "--tau-max": "2", "--dt": "0.01"},
    "roots": {"--epsilon": "-1e-3"},
    "landau": {"--n": "1", "--l": "-1", "--ceb": "0.01"},
    "compare": {"--epsilon": "-1e-3"},
    "sweep": {"--epsilons": "-1e-3"},
}
# (command, option, two values that must give different outputs); None leaves a
# flag out and True gives it
_OPTION_VALUES = [
    *[(cmd, "--epsilon", "-1e-3", "-2e-3") for cmd in ("quantum", "classical", "roots", "compare")],
    *[(cmd, "--tesla", "1e6", "2e6") for cmd in ("quantum", "classical", "roots", "compare")],
    *[(cmd, "--spin", "up", "down") for cmd in ("quantum", "classical", "roots")],
    ("quantum", "--charge", "electron", "positron"),
    ("quantum", "--phi0", "0", "0.5"),
    ("quantum", "--t-max", "31.4", "62.8"),
    ("quantum", "--dt", "0.0314", "0.0157"),
    ("quantum", "--fit", None, True),
    ("classical", "--tau-max", "2", "3"),
    ("classical", "--dt", "0.01", "0.02"),
    ("roots", "--method", "exact", "rough"),
    ("landau", "--n", "1", "3"),
    ("landau", "--l", "-1", "1"),
    ("landau", "--pz", "0", "0.5"),
    ("landau", "--sz", "0.5", "-0.5"),
    ("landau", "--ceb", "0.01", "0.02"),
    ("compare", "--fit", None, True),
    ("sweep", "--epsilons", "-1e-3", "-2e-3"),
]


def _commands() -> dict[str, argparse.ArgumentParser]:
    ap = cli.build_parser()
    return next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_option_table_names_every_option():
    """Every option but --out and --jobs has a row in _OPTION_VALUES."""
    commands = _commands()
    assert set(commands) == set(_BASE_ARGS)
    for name, parser in commands.items():
        options = {o for a in parser._actions for o in a.option_strings if o.startswith("--")}
        assert options - {"--help", "--out", "--jobs"} == {
            opt for cmd, opt, *_ in _OPTION_VALUES if cmd == name}, name


@pytest.mark.parametrize("command, option, a, b", _OPTION_VALUES)
def test_every_option_changes_the_output(tmp_path, capsys, command, option, a, b):
    """Two values of an option give different --out bytes or stdout."""
    outputs = []
    for k, value in enumerate((a, b)):
        args = {**_BASE_ARGS[command], option: value}
        if option == "--tesla":
            del args["--epsilon"]
        argv = [command]
        for opt, v in args.items():
            argv += [] if v is None else [opt] if v is True else [opt, v]
        out = tmp_path / f"{k}{'.csv' if command in ('quantum', 'classical', 'sweep') else '.json'}"
        assert main([*argv, "--out", str(out)]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().out))
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize("argv", [
    ["roots", "--epsilon", "-1e-3", "--charge", "positron"],
    ["classical", "--epsilon", "-1e-3", "--charge", "positron"],
    ["quantum", "--epsilon", "-1e-3", "--r0", "10"],
])
def test_removed_options_are_usage_errors(tmp_path, capsys, argv):
    """The classical runs have no positron and the quantum orbit no packet width to set."""
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 2
    err = _one_error_line(capsys.readouterr().err)
    assert err == {"error": "config", "detail": f"unrecognized arguments: {' '.join(argv[3:])}"}
    assert not out.exists()


def test_linalg_error_is_numerical(tmp_path, capsys, monkeypatch):
    """np.linalg.LinAlgError is a ValueError, yet a numerical failure: exit 3, not 2."""
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(fitting, "pencil_frequencies", no_convergence)
    rc = main(["compare", "--epsilon", "-1e-3", "--fit", "--out", str(tmp_path / "r.json")])
    err = _one_error_line(capsys.readouterr().err)
    assert (rc, err) == (3, {"error": "numerical", "detail": "SVD did not converge"})


# one value at a time is swapped for one of these to probe the input checks
_SPECIAL = [0.0, -1.0, math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324]


@st.composite
def _argv(draw):
    """A valid argv for one subcommand, often with one float swapped for a special value.

    Spans stay short (tau <= 5, t_max <= 50, dt >= 0.005) so every run takes
    well under a second.
    """
    def fl(lo, hi):
        return draw(st.floats(lo, hi))

    cmd = draw(st.sampled_from(["roots", "landau", "classical", "quantum", "compare"]))
    if cmd == "landau":
        n = draw(st.integers(0, 3))
        args = {"--n": n, "--l": draw(st.sampled_from(range(-n, n + 1, 2))),
                "--sz": draw(st.sampled_from([0.5, -0.5])), "--pz": fl(-10.0, 10.0),
                "--ceb": fl(-1.0, 1.0)}
    elif draw(st.booleans()):
        args = {"--epsilon": fl(-0.1, 0.1)}
    else:
        args = {"--tesla": fl(0.0, 1e9)}
    if cmd in ("roots", "classical", "quantum"):
        args["--spin"] = draw(st.sampled_from(["up", "down"]))
    if cmd == "roots":
        args["--method"] = draw(st.sampled_from(["exact", "rough", "accurate"]))
    if cmd == "classical":
        args.update({"--tau-max": fl(0.0, 5.0), "--dt": fl(0.005, 0.07)})
    if cmd == "quantum":
        args.update({"--charge": draw(st.sampled_from(["electron", "positron"])),
                     "--t-max": fl(0.0, 50.0), "--dt": fl(0.005, 0.07),
                     "--phi0": fl(-10.0, 10.0)})
        if draw(st.booleans()):
            args["--fit"] = None
    floats = [k for k, v in args.items() if isinstance(v, float)]
    if draw(st.booleans()):
        args[draw(st.sampled_from(floats))] = draw(st.sampled_from(_SPECIAL))
    argv = [cmd]
    for k, v in args.items():
        argv += [k] if v is None else [k, repr(v) if isinstance(v, float) else str(v)]
    suffixes = [".csv", ".svg", ".json"] + ([None] if cmd in ("roots", "landau") else [])
    return argv, draw(st.sampled_from(suffixes))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_argv())
@example((["classical", "--epsilon", "-1e-3", "--tau-max", "0"], ".svg"))
@example((["landau", "--n", "0", "--l", "0", "--ceb", "nan"], None))
@example((["roots", "--epsilon", "-inf"], None))
@example((["classical", "--epsilon", "-1e-3", "--tau-max", "1e308"], ".csv"))
def test_cli_exit_contract(case):
    argv, suffix = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d, redirect_stdout(out), redirect_stderr(err):
        if suffix is not None:
            argv = [*argv, "--out", os.path.join(d, "out" + suffix)]
        rc = main(argv)
    assert rc in (0, 2, 3)
    if rc:
        assert "error" in _one_error_line(err.getvalue())
    else:
        assert err.getvalue() == ""
        if out.getvalue():
            json.loads(out.getvalue(), parse_constant=_reject_constant)
