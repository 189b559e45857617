import json

import numpy as np
import pytest

from zbwsim.cli import main
from zbwsim.fitting import fit_sinusoid


def _read(path):
    return path.read_text()


def test_roots_json_satisfies_vieta(tmp_path, capsys):
    out = tmp_path / "roots.json"
    rc = main(["roots", "--epsilon", "-1e-3", "--spin", "up",
               "--method", "exact", "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(_read(out))
    r = payload["roots"]
    w = np.array([r["omega1"], r["omega2"], r["omega3"]])
    c = payload["coefficients"]
    assert w.sum() == pytest.approx(0.0, abs=1e-10)
    assert w[0] * w[1] + w[0] * w[2] + w[1] * w[2] == pytest.approx(c["c1"], rel=1e-10)
    assert w.prod() == pytest.approx(-c["c0"], rel=1e-10)


def test_quantum_csv_free_case(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["quantum", "--spin", "up", "--charge", "electron", "--epsilon", "0",
               "--r0", "100", "--phi0", "0", "--t-max", "31.4", "--dt", "0.0314",
               "--out", str(out)])
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


def test_sweep_parallel_matches_serial(tmp_path):
    a, b = tmp_path / "s.csv", tmp_path / "p.csv"
    assert main(["sweep", "--epsilons", "-1e-3", "--jobs", "1", "--out", str(a)]) == 0
    assert main(["sweep", "--epsilons", "-1e-3", "--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_svg_outputs(tmp_path):
    orbit = tmp_path / "orbit.svg"
    assert main(["quantum", "--epsilon", "-1e-3", "--t-max", "6.3", "--dt", "0.01",
                 "--out", str(orbit)]) == 0
    assert _read(orbit).startswith("<svg") and "</svg>" in _read(orbit)
    bars = tmp_path / "bars.svg"
    assert main(["compare", "--epsilon", "-1e-3", "--out", str(bars)]) == 0
    assert "<rect" in _read(bars)


def test_config_error_exit_code(tmp_path, capsys):
    rc = main(["quantum", "--epsilon", "-0.5", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"


@pytest.mark.parametrize("argv", [
    ["classical", "--dt", "0"],
    ["classical", "--dt", "-0.01"],
    ["quantum", "--dt", "0"],
    ["quantum", "--dt", "nan"],
])
def test_invalid_step_exit_code(tmp_path, capsys, argv):
    rc = main([*argv, "--epsilon", "-1e-3", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "config"


def test_bad_flag_exit_code(tmp_path, capsys):
    rc = main(["quantum", "--out", str(tmp_path / "x.csv")])  # missing epsilon/tesla
    assert rc == 2


def test_tesla_flag(tmp_path, capsys):
    rc = main(["roots", "--tesla", "1.0", "--method", "exact"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["epsilon"] == pytest.approx(-1.13275e-10, rel=1e-4)
