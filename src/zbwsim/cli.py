"""Command-line front end: quantum/classical runs, root tables, sweeps, plots.

Each subcommand takes only the flags that change its answer (the classical model
has no positron run), and all but landau and sweep need --epsilon or --tesla:
    quantum    --spin --charge --phi0 --t-max --dt --fit --out: <r>(t) -> CSV (t,x,y,z)
               or SVG orbit; --fit also prints the fitted frequency as JSON
    classical  --spin --tau-max --dt --out: spinning-particle run -> CSV or SVG of v_x(tau)
    roots      --spin --method --out: characteristic-cubic roots -> JSON
    landau     --n --l --pz --sz --ceb --out: relativistic Landau energy -> JSON
    compare    --fit --out: shift report -> JSON (--fit: with fitted tables) or SVG bars
    sweep      --epsilons --out: shift tables over an epsilon list -> CSV, in this process
               (--jobs, at least 1, is accepted for existing command lines and changes nothing)

Exit codes: 0 success, 2 configuration or file error, 3 numerical failure or
out of memory.  Failures print one JSON object ({"error": ..., "detail": ...})
to stderr.  BLAS runs on one thread unless OPENBLAS_NUM_THREADS names a count.
The collector skips the heap that the imports leave (gc.freeze) in a zbw process.
"""
from __future__ import annotations

import gc
import os
import sys

# A process that has not loaded numpy when this module starts is a zbw process; one
# that has (pytest, the benchmark's in-process workloads, a user's session) keeps its
# BLAS threads, environment and collector exactly as found.  A zbw process gets:
# - One BLAS thread unless the user names a count; OpenBLAS reads it when numpy loads.
#   The largest operand is a (<= 256) x 33 by 33 x 58 matmul, yet numpy's and SciPy's
#   OpenBLAS each start a worker per extra core that spins for about 0.1 s.  On 2 cores,
#   `import zbwsim.cli` took 0.86 s of CPU with them and 0.65 s without (medians of 7
#   processes), and the fitted digits moved by up to 6e-13 with the thread count.
# - No automatic collection during the imports below, then gc.freeze() and the
#   collector back as found.  The imports build a heap that lives until exit; CPython
#   ran about 120 collections (41 ms) over it as it grew, and traversed it all again
#   at exit.  Frozen (about 87k objects), the command's own collections and the exit
#   skip it: `zbw roots` took 0.537 s before and 0.430 s after (medians of 11
#   interleaved processes on 2 cores).
_ZBW_PROCESS = "numpy" not in sys.modules
_RESTORE_GC = _ZBW_PROCESS and gc.isenabled()
if _ZBW_PROCESS:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
try:
    import argparse
    import json
    import re
    from itertools import chain

    import numpy as np

    from . import bz, svgplot
    from .expectation import extract_frequency, quantum_trajectory
    from .fitting import FitFailureError
    from .packet import LandauLevel, landau_energy
    from .symmetry import APPROACHES, cp_check, discrepancy_report, shift_table
    from .units import CHARGES, SPINS, DimensionlessParams, epsilon_from_tesla
    if _ZBW_PROCESS:
        gc.freeze()
finally:
    if _RESTORE_GC:
        gc.enable()

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
_BLOCK = 256   # CSV rows converted and written at a time
_FLOAT = "%.12g"  # every float in a CSV

# accept scientific notation like -1e-3 as a positional value, which stock
# argparse (< 3.12) would otherwise read as an unknown option
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+\.?\d*[eE][-+]?\d+$")

# (exception types, "error" label, exit code); the first match wins, so the numerical types
# lead: np.linalg.LinAlgError is a ValueError, and every other ValueError is a config error
_FAILURES = (
    ((FitFailureError, bz.IntegrationUnstableError, np.linalg.LinAlgError, OverflowError),
     "numerical", EXIT_NUMERICAL),
    ((MemoryError,), "memory", EXIT_NUMERICAL),
    ((ValueError,), "config", EXIT_CONFIG),
    ((OSError,), "io", EXIT_CONFIG),
)
_CAUGHT = tuple(t for types, _, _ in _FAILURES for t in types)

# DimensionlessParams fields besides epsilon that a command can set, at the dataclass defaults
_FIELD_OPTIONS = {"spin": {"choices": SPINS}, "charge": {"choices": CHARGES},
                  "phi0": {"type": float, "help": "initial azimuth of the packet centre, rad"}}


def _add_params(p: argparse.ArgumentParser, *fields: str) -> None:
    """--epsilon or --tesla, then one option per DimensionlessParams field the command reads."""
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--epsilon", type=float, help="dimensionless field parameter (<= 0)")
    g.add_argument("--tesla", type=float, help="flux density in tesla, converted to epsilon")
    for name in fields:
        p.add_argument(f"--{name}", default=getattr(DimensionlessParams, name),
                       **_FIELD_OPTIONS[name])


def _params_from(args: argparse.Namespace) -> DimensionlessParams:
    eps = args.epsilon if args.epsilon is not None else epsilon_from_tesla(args.tesla)
    return DimensionlessParams(epsilon=eps, **{f: getattr(args, f)
                                               for f in _FIELD_OPTIONS if f in args})


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_json(path: str | None, payload: dict) -> None:
    """payload as indented JSON with sorted keys and a final newline, to path or else stdout."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        _write(path, text)


def _float_blocks(*columns: np.ndarray):
    """Float columns side by side, as lists of rows of Python floats, _BLOCK rows at a time."""
    for k in range(0, len(columns[0]), _BLOCK):
        yield np.column_stack([c[k:k + _BLOCK] for c in columns]).tolist()


def _write_csv(path: str, header: list[str], fmt: str, blocks) -> None:
    """Write the header line, then each block of rows through the %-format fmt.

    A block is one % of fmt repeated per row over the block's flattened values,
    the same text as a % per row.  One write per block keeps a long table from
    being held as text all at once.
    """
    line = fmt + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            fh.write((line * len(block)) % tuple(chain.from_iterable(block)))


def _cmd_quantum(args: argparse.Namespace) -> int:
    params = _params_from(args)
    traj = quantum_trajectory(params, t_max=args.t_max, dt=args.dt)
    fit = extract_frequency(traj) if args.fit else None  # a failed fit leaves no --out file
    if args.out.endswith(".svg"):
        _write(args.out, svgplot.planar_orbit_svg(
            traj.positions[:, 0], traj.positions[:, 1],
            f"packet center orbit, epsilon={params.epsilon:g}, {params.charge} {params.spin}"))
    else:
        _write_csv(args.out, ["t", "x", "y", "z"], ",".join([_FLOAT] * 4),
                   _float_blocks(traj.times, traj.positions))
    if fit is not None:
        print(json.dumps({"omega": fit.omega, "amplitude": fit.amplitude,
                          "residual_rms": fit.residual_rms}, sort_keys=True))
    return 0


def _cmd_classical(args: argparse.Namespace) -> int:
    params = _params_from(args)
    traj = bz.integrate(bz.make_initial_state(params), params, args.tau_max, args.dt)
    if args.out.endswith(".svg"):
        _write(args.out, svgplot.trajectory_svg(
            traj.tau, traj.v[:, 1],
            f"v_x(tau), epsilon={params.epsilon:g}, spin {params.spin}"))
    else:
        _write_csv(args.out, ["tau", "x", "y", "z", "vx", "vy", "vz", "S12"],
                   ",".join([_FLOAT] * 8),
                   _float_blocks(traj.tau, traj.x[:, 1:4], traj.v[:, 1:4], traj.S[:, 1, 2]))
    return 0


def _cmd_roots(args: argparse.Namespace) -> int:
    params = _params_from(args)
    cubic = bz.characteristic_cubic(params)
    if args.method == "exact":
        roots = bz.solve_cubic_exact(cubic)
    else:
        roots = bz.perturbative_roots(params, args.method)
    _write_json(args.out, {
        "epsilon": params.epsilon,
        "spin": params.spin,
        "method": args.method,
        "coefficients": {"c1": cubic.c1, "c0": cubic.c0},
        "roots": {"omega1": roots.omega1, "omega2": roots.omega2, "omega3": roots.omega3},
    })
    return 0


def _cmd_landau(args: argparse.Namespace) -> int:
    level = LandauLevel(n=args.n, l=args.l, p_z=args.pz, s_z=args.sz, ceb=args.ceb)
    _write_json(args.out, {"n": args.n, "l": args.l, "p_z": args.pz, "s_z": args.sz,
                           "ceb": args.ceb, "energy": landau_energy(level)})
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    svg = args.out.endswith(".svg")
    if svg and args.fit:
        raise ValueError("--fit adds the fitted tables to the JSON report; an .svg --out has none")
    params = _params_from(args)
    report = discrepancy_report(params, include_trajectories=args.fit)
    if not svg:
        _write_json(args.out, report)
        return 0
    cells = report["cells"]
    _write(args.out, svgplot.shift_bars_svg(
        [f"{c['charge'][0]}-{c['spin']}" for c in cells],
        [c["quantum_shift"] for c in cells],
        [c["classical_shift"] for c in cells],
        f"frequency shifts, epsilon={params.epsilon:g}"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    rows = []
    for eps in args.epsilons:
        for approach in APPROACHES:
            table = shift_table(approach, DimensionlessParams(epsilon=eps))
            verdict = cp_check(table).verdict
            rows += [(eps, c.charge, c.spin, approach, c.delta_omega, verdict)
                     for c in table.cells]
    rows.sort(key=lambda r: (r[0], r[3], r[1], r[2]))
    _write_csv(args.out, ["epsilon", "charge", "spin", "approach", "delta_omega", "cp_verdict"],
               f"{_FLOAT},%s,%s,%s,{_FLOAT},%s", [rows])
    return 0


def _usage_error(message: str):
    raise ValueError(message)


def _parser(*args, **kwargs) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(*args, **kwargs)
    p._negative_number_matcher = _NEGATIVE_NUMBER
    p.error = _usage_error  # reported as one JSON line by main, not as usage text
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = _parser(prog="zbw", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_parser)

    q = sub.add_parser("quantum", help="expectation-value trajectory")
    _add_params(q, "spin", "charge", "phi0")
    q.add_argument("--t-max", type=float, default=None)
    q.add_argument("--dt", type=float, default=None)
    q.add_argument("--fit", action="store_true", help="print fitted frequency as JSON")
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_quantum)

    c = sub.add_parser("classical", help="spinning-particle integration")
    _add_params(c, "spin")
    c.add_argument("--tau-max", type=float, default=100.0)
    c.add_argument("--dt", type=float, default=0.01)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_classical)

    r = sub.add_parser("roots", help="characteristic-cubic roots")
    _add_params(r, "spin")
    r.add_argument("--method", choices=("exact", "rough", "accurate"), default="exact")
    r.add_argument("--out", default=None)
    r.set_defaults(func=_cmd_roots)

    ll = sub.add_parser("landau", help="relativistic Landau energy")
    ll.add_argument("--n", type=int, required=True)
    ll.add_argument("--l", type=int, required=True)
    ll.add_argument("--pz", type=float, default=0.0)
    ll.add_argument("--sz", type=float, default=0.5)
    ll.add_argument("--ceb", type=float, required=True, help="product c*e*B, natural units")
    ll.add_argument("--out", default=None)
    ll.set_defaults(func=_cmd_landau)

    cp = sub.add_parser("compare", help="quantum-vs-classical shift report")
    _add_params(cp)
    cp.add_argument("--fit", action="store_true",
                    help="also rerun both pipelines end to end (slow; JSON --out only)")
    cp.add_argument("--out", required=True)
    cp.set_defaults(func=_cmd_compare)

    sw = sub.add_parser("sweep", help="shift tables over an epsilon list")
    sw.add_argument("--epsilons", type=float, nargs="+", required=True)
    sw.add_argument("--jobs", type=int, default=1,
                    help="accepted for existing command lines (>= 1); the sweep always runs "
                         "in this process")
    sw.add_argument("--out", required=True)
    sw.set_defaults(func=_cmd_sweep)
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return EXIT_CONFIG if exc.code else 0
    except _CAUGHT as exc:
        label, code = next((lb, c) for types, lb, c in _FAILURES if isinstance(exc, types))
        print(json.dumps({"error": label, "detail": str(exc)}), file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
