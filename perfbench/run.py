"""zbw-sim benchmark: four closed-loop workloads, physics gates, a traced run.

Run from the root of a checkout (the directory holding ``src/zbwsim``)::

    python3 perfbench/run.py --workload cp_fitted --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is the separate
traced run: one cycle of the workload's passes untraced, then the same cycle
with spans around every call into a zbwsim layer, reporting the per-layer
metrics and the tracing overhead.  Every output is checked by the workload's physics
gates after the timed region.  Human-readable report lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 4          # fresh interpreters timed per run, spread over it; setup_s: median
IMPORT_REPEATS = 3         # -X importtime runs per traced run
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10           # samples a tail percentile must have beyond it

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
    "ops_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "bz.integrate.calls": "count", "bz.integrate.traj_steps": "count",
    "bz.integrate.self_s": "s", "bz.integrate.us_per_step": "us",
    "bz.integrate.bytes_out": "B", "bz.spectral_frequencies.self_s": "s",
    "bz.roots.calls": "count",
    "fitting.fit_frequencies.calls": "count", "fitting.fit_frequencies.samples": "count",
    "fitting.fit_frequencies.self_s": "s", "fitting.fit_frequencies.us_per_sample": "us",
    "fitting.fit_frequencies.residual_rms_max": "1",
    "fitting.fit_sinusoid.calls": "count", "fitting.fit_sinusoid.samples": "count",
    "fitting.fit_sinusoid.self_s": "s",
    "expectation.quantum_trajectory.samples": "count",
    "expectation.quantum_trajectory.self_s": "s",
    "expectation.quadrature.calls": "count", "expectation.quadrature.nodes": "count",
    "expectation.quadrature.self_s": "s",
    "symmetry.fitted_classical_table.self_s": "s", "symmetry.fitted_quantum_table.self_s": "s",
    "symmetry.shift_table.calls": "count", "symmetry.shift_table.self_s": "s",
    "symmetry.cp_check.calls": "count",
    "svgplot.calls": "count", "svgplot.self_s": "s", "svgplot.bytes": "B",
    "cli.main.self_s": "s", "cli.rows_written": "count", "cli.bytes_written": "B",
    "cli.defect_probes_failed": "count",
    "import.zbwsim_cli_s": "s", "import.scipy_optimize_s": "s", "import.numpy_s": "s",
    "trace.overhead_ratio": "ratio",
}
IMPORTS = {"import.zbwsim_cli_s": "zbwsim.cli", "import.scipy_optimize_s": "scipy.optimize",
           "import.numpy_s": "numpy"}


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))  # 1e-9: 99.9 * 10000 / 100 is 9990.000...2


def tail_percentile(n: int) -> float | None:
    """Highest of PERCENTILES with at least TAIL_BEYOND of n samples above its rank."""
    fits = [p for p in PERCENTILES if n - _rank(p, n) >= TAIL_BEYOND]
    return max(fits) if fits else None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[_rank(p, len(values)) - 1]


def machine() -> dict:
    """Core count, library versions and BLAS threads here and in child processes."""
    import numpy
    import scipy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    try:
        blas_threads = int(ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_())
    except (IndexError, OSError, AttributeError):
        blas_threads = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads,
            "child_blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default")}


def cpu_seconds() -> float:
    """User + sys time of this process and every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class SpeedReference:
    """A fixed kernel, timed just before every op and set-up, that rescales their times.

    The shared 2-vCPU machine in BASELINE.json drifts between speeds up to
    1.8x apart, in spells from seconds to over a minute, longer than a run.
    Each op's latency and CPU time, and each set-up time, are multiplied by
    REFERENCE_S over the kernel time taken just before it: the result is
    seconds on a machine that runs the kernel in 10 ms.  The kernel is an
    interpreter loop plus vectorized arithmetic on 400k doubles, in chunks
    small enough to leave the run's peak_rss_mb to the program; across such
    spells RK4 and packet ops moved with it about one for one, fresh zbw
    processes about 0.6 for one and drift_velocity about 0.5 for one
    (log-log slopes over 60 interleaved samples); a loop of small-matrix
    products slowed 2.4x in the same spells and would over-correct.
    BASELINE.json records the raw ten-seed spreads beside the normalized ones.
    """

    REFERENCE_S = 0.010  # kernel time that defines one normalized second

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.chunks = np.random.default_rng(0).standard_normal((20, 20, 1000))
        self.scale()  # the first call pays lazy set-up

    def _kernel(self) -> None:
        s = 0.0
        for i in range(20000):
            s += (i * 0.5) % 7.0
        np = self.np
        for c in self.chunks:
            np.sum(np.exp(-c**2) * np.sin(c) ** 2)

    def scale(self) -> float:
        """Normalized seconds per second now: REFERENCE_S over the best of two kernels."""
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return self.REFERENCE_S / min(times)


@dataclass
class Record:
    op: object
    slot: tuple[int, int]  # (distinct pass, position in the pass): the op input
    cycle: int
    result: object
    error: str | None
    latency_s: float
    cpu_s: float           # user + sys of this process and its children during the op
    scale: float = 1.0     # normalized seconds per second, from the kernel just before


@dataclass
class Phase:
    records: list[Record] = field(default_factory=list)

    def elapsed_s(self) -> float:
        """Time spent in ops, without what ran between them."""
        return sum(r.latency_s for r in self.records)

    def normalized_s(self) -> float:
        return sum(r.latency_s * r.scale for r in self.records)


def drive(workload, passes, ctx, seconds: float = 0.0, min_cycles: int = 1,
          n_passes: int | None = None, reference: SpeedReference | None = None,
          between=None) -> Phase:
    """Closed loop over the distinct passes, cycling through them in order.

    With n_passes, runs exactly that many passes; otherwise runs whole cycles
    until the ops have taken `seconds` and at least `min_cycles` cycles are
    done.  The speed reference, if given, is timed before every op, and
    `between`, if given, is called after every pass; neither is timed.
    """
    phase = Phase()
    i = 0
    while True:
        if n_passes is not None:
            if i >= n_passes:
                break
        elif i % len(passes) == 0 and i // len(passes) >= min_cycles \
                and phase.elapsed_s() >= seconds:
            break
        k = i % len(passes)
        for j, op in enumerate(passes[k]):
            scale = reference.scale() if reference is not None else 1.0
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            try:
                result, error = workload.run(op, ctx), None
            except Exception as exc:  # an op that raises is a failed op; keep measuring
                result, error = None, f"{type(exc).__name__}: {exc}"
            phase.records.append(Record(op, (k, j), i // len(passes), result, error,
                                        time.perf_counter() - t0, cpu_seconds() - cpu0, scale))
        if between is not None:
            between()
        i += 1
    return phase


def medians(pairs) -> list[float]:
    """The median value per key, over (key, value) pairs, in key order."""
    out: dict = {}
    for key, value in pairs:
        out.setdefault(key, []).append(value)
    return [statistics.median(out[key]) for key in sorted(out)]


def timings(records: list[Record], normalized: bool = True) -> dict[str, float]:
    """The time metrics of the records, normalized or raw.

    Each op input keeps its median latency over the cycles, and each distinct
    pass its median wall and CPU time (sums over its ops); op_tail_s is over
    every timed op, so that spikes count there.
    """
    def f(r: Record) -> float:
        return r.scale if normalized else 1.0

    lat = medians((r.slot, r.latency_s * f(r)) for r in records)
    every = [r.latency_s * f(r) for r in records]
    wall: dict = {}
    cpu: dict = {}
    for r in records:
        key = (r.slot[0], r.cycle)
        wall[key] = wall.get(key, 0.0) + r.latency_s * f(r)
        cpu[key] = cpu.get(key, 0.0) + r.cpu_s * f(r)
    wall_s = medians((k, v) for (k, _), v in wall.items())
    cpu_s = medians((k, v) for (k, _), v in cpu.items())
    out = {"wall_s": statistics.median(wall_s), "op_p50_s": percentile(lat, 50.0),
           "ops_per_s": len(lat) / sum(wall_s), "cpu_s": statistics.median(cpu_s)}
    pct = tail_percentile(len(every))
    if pct is not None:  # fewer than 20 ops have no tail
        out["op_tail_s"] = percentile(every, pct)
    return out


def end_to_end(workload, timed: Phase, setup: list[tuple[float, float]], peak_rss_mb: float):
    """The end-to-end metrics, and notes with the raw twin of each normalized time.

    `setup` holds (seconds, scale) per fresh set-up.
    """
    values = timings(timed.records)
    values["setup_s"] = statistics.median(t * scale for t, scale in setup)
    values["peak_rss_mb"] = peak_rss_mb
    raw = timings(timed.records, normalized=False)
    raw["setup_s"] = statistics.median(t for t, _ in setup)
    n, pct = len(timed.records), tail_percentile(len(timed.records))
    n_inputs = len({r.slot for r in timed.records})
    cycles = n // n_inputs
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters spread over the run",
        "wall_s": f"median over {len({r.slot[0] for r in timed.records})} passes, each the "
                  f"median of {cycles} cycles; a pass gates one solution per op",
        "op_p50_s": f"n={n_inputs} op inputs, each the median of {cycles} cycles",
        "op_tail_s": f"p{pct:g} of all {n} timed ops, {n - _rank(pct, n)} beyond" if pct
                     else f"omitted: {n} timed ops leave no percentile ten beyond",
        "ops_per_s": f"one client; all {n} ops took {timed.elapsed_s():.1f} s",
        "cpu_s": "user+sys per pass, this process and its children",
        "peak_rss_mb": "max over the op processes, each by wait4" if workload.name == "cli_cold"
                       else "this process",
    }
    for name, value in raw.items():
        notes[name] += f"; raw {value:.6g}"
    return values, notes


def gate(workload, records, ctx) -> list[tuple[int, str, str]]:
    """(record index, op kind, failed check) for every failure among the records."""
    failures = []
    for i, rec in enumerate(records):
        if rec.error is not None:
            failures.append((i, rec.op.kind, f"raised {rec.error}"))
            continue
        try:
            failed = workload.gate(rec.op, rec.result, ctx)
        except Exception as exc:  # unreadable output fails its gate
            failed = [f"gate raised {type(exc).__name__}: {exc}"]
        failures += [(i, rec.op.kind, f) for f in failed]
    return failures


def setup_time(workload: str, seed: int) -> float:
    """Fresh interpreter to 'zbwsim imported and inputs generated'."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload,
           "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if ready.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


class SetupSampler:
    """Times one fresh set-up after every few passes, and the rest at the end.

    Spread over the timed phase, the set-ups see the same spells as the ops
    instead of the one the run started in; each is normalized like an op.
    """

    def __init__(self, workload: str, seed: int, passes: int,
                 reference: SpeedReference) -> None:
        self.workload, self.seed, self.reference = workload, seed, reference
        self.stride = max(1, passes // SETUP_REPEATS)  # passes is the least a run makes
        self.passes = 0
        self.times: list[tuple[float, float]] = []
        self.sample()

    def sample(self) -> None:
        scale = self.reference.scale()
        self.times.append((setup_time(self.workload, self.seed), scale))

    def __call__(self) -> None:
        self.passes += 1
        if len(self.times) < SETUP_REPEATS and self.passes % self.stride == 0:
            self.sample()

    def finish(self) -> list[tuple[float, float]]:
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return self.times


def import_times() -> dict[str, float]:
    """Cumulative import times parsed from ``-X importtime``; median of fresh runs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples: dict[str, list[float]] = {name: [] for name in IMPORTS}
    for _ in range(IMPORT_REPEATS):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import zbwsim.cli"],
                             env=env, cwd=ROOT, capture_output=True, text=True,
                             check=True).stderr
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        for name, module in IMPORTS.items():
            samples[name].append(cumulative[module])
    return {name: statistics.median(v) for name, v in samples.items()}


def report(metrics: dict, units: dict) -> dict:
    """The ``metrics`` object of the result line: every named metric with its unit."""
    return {name: {"value": metrics[name], "unit": units[name]} for name in units
            if name in metrics}


def run_probes(workload, seed, ctx) -> list[tuple[str, list[str], str]]:
    """(kind, failed checks, what the process did) for each known-defect probe."""
    out = []
    for op in workload.probes(seed):
        try:
            result = workload.run(op, ctx)
            failed = workload.gate(op, result, ctx)
            tail = result["stderr"].strip().splitlines()[-1:] or [""]
            seen = f"exit {result['rc']}; stderr ends {tail[0][:100]!r}"
        except Exception as exc:  # a probe that cannot run is reported, not fatal
            failed, seen = [f"raised {type(exc).__name__}: {exc}"], ""
        out.append((op.kind, failed, seen))
    return out


def per_layer(workload, tracer, traced: Phase, plain: Phase, probes, ctx) -> dict:
    """Per-layer metrics of the traced cycle, with child-process spans merged in."""
    from tracing import layer_metrics, merge, summarize
    from workloads import written

    summary = summarize(tracer.spans)
    for path in sorted(ctx.trace_dir.glob("*.json")):
        summary = merge(summary, json.loads(path.read_text()))
    for rec in traced.records:
        for path in workload.outputs(rec.result) if rec.result is not None else ():
            rows, size = written(path)
            tracer.add("cli.rows_written", rows)
            tracer.add("cli.bytes_written", size)
    values = layer_metrics(summary, tracer.counters)
    values.update(import_times())
    values["trace.overhead_ratio"] = traced.normalized_s() / plain.normalized_s()
    values["cli.defect_probes_failed"] = sum(1 for _, failed, _ in probes if failed)
    return values


def run_workload(args) -> int:
    from tracing import Tracer
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[args.workload]
    reference = SpeedReference()
    passes = workload.passes(args.seed)
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ctx = Context(root=ROOT, workdir=workdir)
    print(f"# workload {workload.name}  seed {args.seed}  machine {json.dumps(machine())}")
    try:
        # first calls pay one-off lazy set-up that repeated library use does not
        warm = drive(workload, passes, ctx, n_passes=workload.warmup_passes).records
        if args.trace:
            plain = drive(workload, passes, ctx, n_passes=len(passes), reference=reference)
            tracer = Tracer()
            ctx.trace_dir = workdir / "trace"
            ctx.trace_dir.mkdir()
            with tracer.installed():
                traced = drive(workload, passes, ctx, n_passes=len(passes),
                               reference=reference)
            records = plain.records + traced.records
        else:
            sampler = SetupSampler(workload.name, args.seed, len(passes) * workload.min_cycles,
                                   reference)
            timed = drive(workload, passes, ctx, seconds=args.seconds,
                          min_cycles=workload.min_cycles, reference=reference, between=sampler)
            setup = sampler.finish()
            records = timed.records
        own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        peak_rss_mb = max(ctx.child_rss_mb) if ctx.child_rss_mb else own_rss_mb
        records = warm + records
        failures = gate(workload, records, ctx)
        probes = run_probes(workload, args.seed, ctx)
        if args.trace:
            values = per_layer(workload, tracer, traced, plain, probes, ctx)
            print(f"# traced one cycle ({len(traced.records)} ops) after the same cycle "
                  f"untraced; spans from the benchmark's own wrappers")
            for name in sorted(values):
                print(f"  {name:42s} {values[name]:.6g} {PER_LAYER_UNITS[name]}")
            metrics = report(values, PER_LAYER_UNITS)
        else:
            values, notes = end_to_end(workload, timed, setup, peak_rss_mb)
            mix = Counter(op.kind for op in passes[0])
            print("# op mix per pass: " + ", ".join(
                f"{kind} {n / len(passes[0]):.0%}" for kind, n in mix.items()))
            kernel = sorted(SpeedReference.REFERENCE_S * 1e3 / r.scale for r in timed.records)
            print(f"# times are normalized to a {SpeedReference.REFERENCE_S * 1e3:g} ms "
                  f"speed-reference kernel, timed before each op and set-up: median "
                  f"{statistics.median(kernel):.2f} ms, range {kernel[0]:.2f}..{kernel[-1]:.2f}")
            for name, unit in END_TO_END_UNITS.items():
                value = f"{values[name]:12.6g}" if name in values else f"{'-':>12s}"
                print(f"  {name:12s} {value} {unit:4s} ({notes[name]})")
            metrics = report(values, END_TO_END_UNITS)
        n_failed = len({i for i, _, _ in failures})
        print(f"  error_rate   {n_failed / len(records):12.6g} ratio "
              f"({n_failed} failed of {len(records)} ops)")
        for _, kind, check in failures:
            print(f"  FAILED {kind}: {check}")
        for kind, failed, seen in probes:
            verdict = "FAILED " + ", ".join(failed) if failed else "passes"
            print(f"  known-defect probe {kind}: {verdict} ({seen})")
        if probes:
            n_probe = sum(1 for _, failed, _ in probes if failed)
            print(f"  error_rate counting the probes as ops: "
                  f"{(n_failed + n_probe) / (len(records) + len(probes)):.6g} "
                  f"({n_failed + n_probe} failed of {len(records) + len(probes)})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still has its directory there
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": n_failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, then one combined line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # In-process ops run with one BLAS thread: with two, a least-squares solve
    # ran at one of two speeds, depending on whether the other thread was still
    # spinning from the last call, and everything after it slowed too.
    # Child processes (cli_cold's zbw calls) get the environment as it was, so
    # they run with BLAS's default threading, one thread per core, as users
    # run zbw; their cpu_s shows what the spinning threads cost.
    user_blas = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy  # noqa: F401  (OpenBLAS reads its thread count when it loads)
    if user_blas is None:
        del os.environ["OPENBLAS_NUM_THREADS"]
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = user_blas
    if not (SRC / "zbwsim" / "__init__.py").is_file():
        print(f"perfbench: no zbwsim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import zbwsim
    if Path(zbwsim.__file__).resolve().parent != SRC / "zbwsim":
        print(f"perfbench: imported zbwsim from {zbwsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.setup_probe:
        WORKLOADS[args.workload].passes(args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
