"""The four benchmark workloads: seeded inputs, one operation each, physics gates.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Inputs come only from the seed.  An
operation returns its raw outputs; the gates run afterwards, outside the
timed region, and return the names of the checks that failed.
"""
from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from zbwsim import DimensionlessParams, bz, cli, expectation, fitting, symmetry
from zbwsim.packet import LandauLevel, landau_energy

#: a subprocess still running after this many seconds is killed (and fails)
CHILD_TIMEOUT_S = 120.0


@dataclass
class Op:
    kind: str                     # named in the failure listing
    args: dict = field(default_factory=dict)


@dataclass
class Context:
    """What operations share within one run."""

    root: Path                    # checkout root (holds src/zbwsim)
    workdir: Path                 # scratch outputs, removed when the run ends
    trace_dir: Path | None = None  # set when child processes must trace themselves
    child_rss_mb: list = field(default_factory=list)
    serial: int = 0               # unique output names across passes
    sweep_serial: dict = field(default_factory=dict)  # sweep argv -> serial output

    def out(self, suffix: str) -> Path:
        self.serial += 1
        return self.workdir / f"op{self.serial:05d}{suffix}"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _read_csv(path: Path, header: list[str]) -> np.ndarray | None:
    """The data rows of a CSV written by ``zbw``, or None if the header is wrong."""
    with open(path) as fh:
        if fh.readline().rstrip("\n").split(",") != header:
            return None
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return data if data.shape[1] == len(header) else None


def _uniform_rows(data: np.ndarray, n: int, dt: float) -> bool:
    """n + 1 finite rows whose first column is dt * row index to 12 digits."""
    return (data.shape[0] == n + 1 and bool(np.all(np.isfinite(data)))
            and np.max(np.abs(data[:, 0] - dt * np.arange(n + 1))) <= 1e-11 * n * dt)


def _svg_ok(path: Path, min_rects: int = 0) -> bool:
    """Well-formed SVG with at least min_rects rects, or else a polyline of > 100 points."""
    svg = "{http://www.w3.org/2000/svg}"
    try:
        root = ET.parse(path).getroot()
    except (ET.ParseError, OSError):
        return False
    if root.tag != f"{svg}svg":
        return False
    if min_rects:
        return len(root.findall(f"{svg}rect")) >= min_rects
    return sum(len(p.get("points", "").split()) for p in root.findall(f"{svg}polyline")) > 100


def written(path: Path | None) -> tuple[int, int]:
    """(data rows, bytes) of one output file; rows count only for CSV."""
    if path is None or not path.exists():
        return 0, 0
    data = path.read_bytes()
    rows = data.count(b"\n") - 1 if path.suffix == ".csv" else 0
    return rows, len(data)


class Workload:
    """A run cycles through `distinct_passes` seeded passes of the op mix.

    Each timed run makes at least `min_cycles` cycles, so every op input is
    timed that many times, far apart in time; the statistics keep each
    input's median time, which drops single spikes.
    """

    name = ""
    why = ""
    distinct_passes = 10
    min_cycles = 4
    warmup_passes = 2  # untimed passes first: lazy set-up settles within two

    def passes(self, seed: int) -> list[list[Op]]:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.make_pass(rng) for _ in range(self.distinct_passes)]

    def make_pass(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op, ctx: Context):
        raise NotImplementedError

    def gate(self, op: Op, result, ctx: Context) -> list[str]:
        raise NotImplementedError

    def outputs(self, result) -> list[Path]:
        """Files an operation wrote, for the traced run's byte and row counts."""
        return []

    def probes(self, seed: int) -> list[Op]:
        """Known-defect calls run once per run, outside the operation count."""
        return []


class CPFitted(Workload):
    """One gated CP verdict per operation, the paper's headline answer.

    Both ε bands share tau_max and dt, so both cost the same RK4 steps; the
    band decides the fit path: tau_max >= 2.5 slow periods fits all three
    modes, otherwise the two fast modes plus a cubic trend.
    """

    name = "cp_fitted"
    why = ("fitted_classical_table + quantum table + cp_check per op; ~90% in bz.integrate, "
           "so it exposes RK4, batching and fit changes")
    TAU_MAX = 200.0
    DT = 0.04          # 5000 RK4 steps per trajectory, two trajectories per op
    # fast-modes-plus-trend band (slow period >= 1571 > tau_max / 2.5) and
    # all-modes band (slow period <= 70 < tau_max / 2.5)
    BANDS = {"fast_modes": (5e-4, 2e-3), "all_modes": (0.045, 0.06)}
    # Largest relative |fitted - exact| shift over the band, measured on a
    # 41-point log-spaced epsilon grid per band at TAU_MAX, DT: 7.7e-4
    # (fast_modes) and 1.39e-2 (all_modes, where it grows as ~0.23 |epsilon|).
    # The gate allows that plus half again.
    SHIFT_TOL = {"fast_modes": 1.2e-3, "all_modes": 2.1e-2}
    distinct_passes = 5   # 10 distinct op inputs, 40 timed ops
    warmup_passes = 1     # its two 0.7 s ops already settle the lazy set-up

    def make_pass(self, rng):
        return [Op(band, {"epsilon": -_log_uniform(rng, *self.BANDS[band])})
                for band in ("fast_modes", "all_modes")]

    def run(self, op, ctx):
        p = DimensionlessParams(epsilon=op.args["epsilon"])
        fitted = symmetry.fitted_classical_table(p, tau_max=self.TAU_MAX, dt=self.DT)
        quantum = symmetry.shift_table("quantum", p)
        return fitted, symmetry.cp_check(fitted), quantum, symmetry.cp_check(quantum)

    def gate(self, op, result, ctx):
        fitted, fitted_cp, quantum, quantum_cp = result
        p = DimensionlessParams(epsilon=op.args["epsilon"])
        exact = symmetry.shift_table("classical_accurate", p)
        failed = []
        if fitted_cp.verdict != "cp_violated":
            failed.append("classical_cp_violated")
        if quantum_cp.verdict != "cp_respected":
            failed.append("quantum_cp_respected")
        tol = self.SHIFT_TOL[op.kind]
        if any(_rel(f.delta_omega, e.delta_omega) > tol
               for f, e in zip(fitted.cells, exact.cells)):
            failed.append("fitted_matches_exact_roots")
        return failed


class TrajectoryExport(Workload):
    """``zbw classical`` to CSV and to SVG, and ``zbw quantum`` to CSV, in-process."""

    name = "trajectory_export"
    why = ("cli.main in-process: one bz.integrate per classical op, no fitting; "
           "puts CSV formatting and svgplot under load")
    TAU_MAX = 100.0
    DT = 0.02          # 5000 RK4 steps per classical op
    EPSILON = (1e-3, 3e-3)
    # Largest relative error of the fitted fast modes' shifts against the
    # exact roots, measured on a 41-point log-spaced grid over EPSILON x spin
    # at TAU_MAX, DT: 5.8e-4.  The gate allows that plus half again.
    SHIFT_TOL = 8.6e-4
    CLASSICAL = ["tau", "x", "y", "z", "vx", "vy", "vz", "S12"]
    QUANTUM = ["t", "x", "y", "z"]
    distinct_passes = 4   # 12 distinct op inputs, 48 timed ops

    def make_pass(self, rng):
        eps = f"{-_log_uniform(rng, *self.EPSILON):.6e}"
        spin = rng.choice(("up", "down"))
        classical = ["classical", "--epsilon", eps, "--spin", spin,
                     "--tau-max", f"{self.TAU_MAX:g}", "--dt", f"{self.DT:g}"]
        quantum = ["quantum", "--epsilon", eps, "--spin", spin,
                   "--charge", rng.choice(("electron", "positron"))]
        return [Op("classical_csv", {"argv": classical, "suffix": ".csv"}),
                Op("classical_svg", {"argv": classical, "suffix": ".svg"}),
                Op("quantum_csv", {"argv": quantum, "suffix": ".csv"})]

    def run(self, op, ctx):
        path = ctx.out(op.args["suffix"])
        return cli.main([*op.args["argv"], "--out", str(path)]), path

    def outputs(self, result):
        return [result[1]]

    def gate(self, op, result, ctx):
        rc, path = result
        if rc != 0 or not path.exists():
            return ["exit_code_0"]
        argv = op.args["argv"]
        p = DimensionlessParams(epsilon=float(argv[2]), spin=argv[4])
        if op.kind == "classical_svg":
            return [] if _svg_ok(path) else ["svg_well_formed"]
        if op.kind == "quantum_csv":
            p = DimensionlessParams(epsilon=p.epsilon, spin=p.spin, charge=argv[6])
            data = _read_csv(path, self.QUANTUM)
            # quantum_trajectory default: 100 periods x 100 samples per period
            n, dt = 100 * 100, math.pi / 100.0
            if data is None or not _uniform_rows(data, n, dt) or np.any(data[:, 3] != 0.0):
                return ["csv_round_trip"]
            # CSV keeps 12 digits, so fit on the exact grid the column rounds
            fit = fitting.fit_sinusoid(dt * np.arange(n + 1), data[:, 1])
            # circular: the trajectory is a sinusoid at shifted_frequency itself
            if abs(fit.omega - expectation.shifted_frequency(p)) > 1e-9:
                return ["fitted_frequency_circular"]
            return []
        data = _read_csv(path, self.CLASSICAL)
        n = int(round(self.TAU_MAX / self.DT))
        if data is None or not _uniform_rows(data, n, self.DT):
            return ["csv_round_trip"]
        roots = bz.solve_cubic_exact(bz.characteristic_cubic(p))
        exact = np.array([roots.omega2, abs(roots.omega3)])
        fit = fitting.fit_frequencies(self.DT * np.arange(n + 1), data[:, 4], exact,
                                      trend_degree=3)
        shift = np.abs(exact - 2.0)
        if np.any(np.abs(fit.freqs - exact) > self.SHIFT_TOL * shift):
            return ["vx_fast_modes_match_exact_roots"]
        return []


class QuantumBatch(Workload):
    """Expectation-value trajectories, single-tone fits and momentum quadratures.

    One operation in three also evaluates drift_velocity (a 64-azimuth
    quadrature); with that share the p75 tail lies inside the drift ops and
    the median inside the others, so neither sits on the boundary.
    """

    name = "quantum_batch"
    why = ("quantum_trajectory + fit_sinusoid + quadratures, no RK4: expectation, packet "
           "and single-tone fits; drift_velocity ops form the tail")
    distinct_passes = 7   # 21 distinct op inputs, 84 timed ops

    def _params(self, rng):
        return {"epsilon": -_log_uniform(rng, 1e-4, 1e-2),
                "charge": rng.choice(("electron", "positron")),
                "spin": rng.choice(("up", "down")),
                "r0_over_lambda": _log_uniform(rng, 10.0, 1000.0),
                "phi0": rng.uniform(0.0, 2.0 * math.pi)}

    def make_pass(self, rng):
        return [Op("packet", self._params(rng)), Op("packet", self._params(rng)),
                Op("packet_drift", self._params(rng))]

    def run(self, op, ctx):
        p = DimensionlessParams(**op.args)
        traj = expectation.quantum_trajectory(p)
        fit = expectation.extract_frequency(traj)
        i_val, j_val = expectation.amplitude_coefficients_quadrature(p)
        norm = expectation.packet_normalization(p)
        drift = expectation.drift_velocity(p) if op.kind == "packet_drift" else None
        return fit, i_val, j_val, norm, drift

    def gate(self, op, result, ctx):
        fit, i_val, j_val, norm, drift = result
        p = DimensionlessParams(**op.args)
        failed = []
        # the quadrature gates test physics: closed form against direct integration
        if _rel(i_val, expectation.amplitude_coefficients(p)[0].value) > 1e-6:
            failed.append("quadrature_I_matches_closed_form")
        if abs(j_val) > 1e-10:
            failed.append("quadrature_J_vanishes")
        if abs(norm - 1.0) > 1e-9:
            failed.append("quadrature_normalization_is_1")
        if drift is not None and np.max(np.abs(drift)) > 1e-10:
            failed.append("quadrature_drift_vanishes")
        # circular (the trajectory is built from shifted_frequency), kept as a fitter check
        if abs(fit.omega - expectation.shifted_frequency(p)) > 1e-9:
            failed.append("fitted_frequency_circular")
        return failed


def run_child(argv: list[str], ctx: Context, tag: str) -> dict:
    """One fresh ``python -m zbwsim.cli`` process; its own rusage via wait4."""
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    if ctx.trace_dir is None:
        cmd = [sys.executable, "-m", "zbwsim.cli", *argv]
    else:
        env["PERFBENCH_TRACE_OUT"] = str(ctx.trace_dir / f"{tag}.json")
        cmd = [sys.executable, str(Path(__file__).with_name("tracecli.py")), *argv]
    out_path, err_path = ctx.workdir / f"{tag}.stdout", ctx.workdir / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ctx.workdir)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    ctx.child_rss_mb.append(usage.ru_maxrss / 1024.0)
    return {"rc": proc.returncode, "stdout": out_path.read_text(),
            "stderr": err_path.read_text()}


class CLICold(Workload):
    """Fresh ``python -m zbwsim.cli`` processes, one at a time.

    Import time, argparse and closed-form tables make up almost all of it;
    bz.integrate and fit_frequencies never run here.
    """

    name = "cli_cold"
    why = ("one fresh zbw process per op (roots, landau, compare, sweep, quantum --fit, "
           "invalid input): import time and the exit-code contract")
    SWEEP_JOBS = 2     # no more worker processes than cores (2 on the reference machine)
    distinct_passes = 1   # 11 distinct op inputs, 33 timed ops
    min_cycles = 3        # at about 0.9 s per process, a fourth cycle costs 10 s a run
    # every call is cold by design; the setup probes have already read the files once
    warmup_passes = 0

    def make_pass(self, rng):
        eps = f"{-_log_uniform(rng, 1e-4, 1e-2):.6e}"
        sweep = [f"{-_log_uniform(rng, 1e-4, 1e-2):.6e}" for _ in range(3)]
        n = rng.randrange(4)
        landau = ["landau", "--n", str(n), "--l", str(rng.choice(range(-n, n + 1, 2))),
                  "--pz", f"{rng.uniform(0, 1):.6f}", "--sz", rng.choice(("0.5", "-0.5")),
                  "--ceb", f"{-2 * float(eps):.6e}"]
        roots = ["roots", "--epsilon", eps, "--spin", rng.choice(("up", "down"))]
        return [
            Op("roots_exact", {"argv": [*roots, "--method", "exact"]}),
            Op("roots_rough", {"argv": [*roots, "--method", "rough"]}),
            Op("roots_accurate", {"argv": [*roots, "--method", "accurate"]}),
            Op("landau", {"argv": landau}),
            Op("compare_json", {"argv": ["compare", "--epsilon", eps], "suffix": ".json"}),
            Op("compare_svg", {"argv": ["compare", "--epsilon", eps], "suffix": ".svg"}),
            Op("sweep_serial", {"argv": ["sweep", "--epsilons", *sweep], "suffix": ".csv"}),
            Op("sweep_jobs", {"argv": ["sweep", "--epsilons", *sweep,
                                       "--jobs", str(self.SWEEP_JOBS)], "suffix": ".csv"}),
            Op("quantum_fit", {"argv": ["quantum", "--epsilon", eps, "--spin", "down",
                                        "--charge", "positron", "--fit"], "suffix": ".csv"}),
            Op("invalid_epsilon", {"argv": ["roots", "--epsilon",
                                            f"{-rng.uniform(0.1, 0.5):.6f}"],
                                   "expect": "error"}),
            Op("invalid_landau", {"argv": ["landau", "--n", "0", "--l", "0", "--sz", "-0.5",
                                           "--ceb", f"{-rng.uniform(1.0, 2.0):.6f}"],
                                  "expect": "error"}),
        ]

    def probes(self, seed):
        """The two known defects, kept in every run so that a fix shows by name."""
        eps = f"{-_log_uniform(random.Random(f'{self.name}:probe:{seed}'), 1e-4, 1e-2):.6e}"
        return [
            Op("defect_classical_dt0", {"argv": ["classical", "--epsilon", eps, "--dt", "0"],
                                        "suffix": ".csv", "expect": "error"}),
            Op("defect_quantum_tmax_1e4", {"argv": ["quantum", "--epsilon", eps,
                                                    "--t-max", "1e4"], "suffix": ".csv"}),
        ]

    def run(self, op, ctx):
        stem = ctx.out(f"_{op.kind}")
        argv = list(op.args["argv"])
        path = None
        if "suffix" in op.args:
            path = stem.with_name(stem.name + op.args["suffix"])
            argv += ["--out", str(path)]
        if op.kind == "sweep_serial":
            ctx.sweep_serial[tuple(argv[:5])] = path
        result = run_child(argv, ctx, stem.name)
        result["path"] = path
        return result

    def outputs(self, result):
        return [result["path"]] if result["path"] is not None else []

    def gate(self, op, result, ctx):
        rc, stderr = result["rc"], result["stderr"]
        if "Traceback" in stderr:
            return ["no_traceback"]
        if op.args.get("expect") == "error":
            lines = stderr.splitlines()
            try:
                ok = rc in (2, 3) and len(lines) == 1 and "error" in json.loads(lines[0])
            except ValueError:
                ok = False
            return [] if ok else ["error_contract_exit_2_or_3_one_json_line"]
        if rc != 0:
            return ["exit_code_0"]
        check = getattr(self, f"_check_{op.kind}", None)
        return [] if check is None or check(op, result, ctx) else [f"{op.kind}_output"]

    @staticmethod
    def _params(argv: list[str]) -> DimensionlessParams:
        kw = {k[2:]: v for k, v in zip(argv[1::2], argv[2::2]) if k in ("--spin", "--charge")}
        return DimensionlessParams(epsilon=float(argv[argv.index("--epsilon") + 1]), **kw)

    def _roots(self, op, result):
        payload = json.loads(result["stdout"])
        r = payload["roots"]
        return self._params(op.args["argv"]), np.array([r["omega1"], r["omega2"], r["omega3"]])

    def _check_roots_exact(self, op, result, ctx):
        p, w = self._roots(op, result)
        c = bz.characteristic_cubic(p)
        # Vieta: the depressed cubic's roots sum to 0, pair-sum to c1, multiply to -c0
        return (abs(w.sum()) <= 1e-10 and _rel(w[0] * w[1] + w[0] * w[2] + w[1] * w[2], c.c1)
                <= 1e-10 and _rel(w.prod(), -c.c0) <= 1e-8)

    def _check_roots_rough(self, op, result, ctx):
        p, w = self._roots(op, result)
        return np.array_equal(w, bz.perturbative_roots(p, "rough").as_array())

    def _check_roots_accurate(self, op, result, ctx):
        p, w = self._roots(op, result)
        exact = bz.solve_cubic_exact(bz.characteristic_cubic(p)).as_array()
        # the improved fast roots agree with the exact cubic to second order in epsilon
        return np.all(np.abs(w - exact) <= 10.0 * p.epsilon**2)

    def _check_landau(self, op, result, ctx):
        a = op.args["argv"]
        level = LandauLevel(n=int(a[2]), l=int(a[4]), p_z=float(a[6]), s_z=float(a[8]),
                            ceb=float(a[10]))
        e_sq = 1.0 + level.p_z**2 + level.ceb * (level.n - level.l + 1.0 - 2.0 * level.s_z)
        energy = json.loads(result["stdout"])["energy"]
        return _rel(energy**2, e_sq) <= 1e-12 and energy == landau_energy(level)

    def _check_compare_json(self, op, result, ctx):
        report = json.loads(result["path"].read_text())
        p = self._params(op.args["argv"])
        exact = symmetry.cp_check(symmetry.shift_table("classical_accurate", p))
        return (report["cp"]["quantum"] == "cp_respected"
                and report["cp"]["classical_accurate"] == "cp_violated"
                and _rel(report["cp"]["asymmetry_ratio"], exact.asymmetry_ratio) <= 1e-12
                and 1.5 < report["cp"]["asymmetry_ratio"] < 2.5)

    def _check_compare_svg(self, op, result, ctx):
        return _svg_ok(result["path"], min_rects=9)  # background + 8 shift bars

    def _check_sweep_serial(self, op, result, ctx):
        with open(result["path"]) as fh:
            header = fh.readline().rstrip("\n").split(",")
            rows = [line.rstrip("\n").split(",") for line in fh]
        eps = sorted(float(e) for e in op.args["argv"][2:5])
        if header != ["epsilon", "charge", "spin", "approach", "delta_omega", "cp_verdict"]:
            return False
        if len(rows) != len(eps) * 3 * 4:
            return False
        expected = {"quantum": "cp_respected", "classical_accurate": "cp_violated",
                    "classical_rough": "cp_respected"}
        for row in rows:
            p = DimensionlessParams(epsilon=float(row[0]))
            cell = symmetry.shift_table(row[3], p).cell(row[1], row[2]).delta_omega
            if row[5] != expected[row[3]] or _rel(float(row[4]), cell) > 1e-10:
                return False
        return sorted({float(r[0]) for r in rows}) == eps

    def _check_sweep_jobs(self, op, result, ctx):
        serial = ctx.sweep_serial.get(tuple(op.args["argv"][:5]))
        return serial is not None and result["path"].read_bytes() == serial.read_bytes()

    def _check_quantum_fit(self, op, result, ctx):
        p = self._params(op.args["argv"])
        fit = json.loads(result["stdout"])
        rows, _ = written(result["path"])
        # circular: the trajectory is a sinusoid at shifted_frequency itself
        return abs(fit["omega"] - expectation.shifted_frequency(p)) <= 1e-9 and rows == 10001

    def _check_defect_quantum_tmax_1e4(self, op, result, ctx):
        rows, _ = written(result["path"])
        dt = 2.0 * math.pi / 200.0  # quantum_trajectory default spacing
        return rows == int(round(1e4 / dt)) + 1


WORKLOADS = {w.name: w for w in (CPFitted(), TrajectoryExport(), QuantumBatch(), CLICold())}
