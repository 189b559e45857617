"""Physics mutants: which tests notice a one-line change to the physics?

Each mutant is one text edit, applied to a temporary copy of src/, tests/,
perfbench/ (which a contract test reads) and pyproject.toml, never to the
working tree.  The copy runs tests/test_acceptance.py first and, if all of it
passes, the rest of the tier-1 suite; both stop at the first failure (-x).
One Markdown table row per mutant names the test that killed it, says
"survived", or says that the mutant no longer applies because its old text is
gone (a refactor moved it).

    python tools/mutants.py    # about 30 s per mutant

A survivor is a finding, not a failure: the script exits 0 whatever the table
says.  It is not part of tier-1, since it runs the suite once per mutant.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900

# (name, file, old text, new text, why); every occurrence of the old text is replaced
MUTANTS = [
    ("shifted-frequency-sign", "src/zbwsim/expectation.py",
     "return OMEGA_ZBW + s * cyclotron_frequency(params)",
     "return OMEGA_ZBW - s * cyclotron_frequency(params)",
     "the quantum shift's sign: omega_zbw - s*omega_c"),
    ("planar-weight-sign", "src/zbwsim/expectation.py",
     "(1.0 - sign * ratio)", "(1.0 + sign * ratio)",
     "the planar weight I's factor (1 - s*omega_c/omega_zbw), at both of its sites"),
    ("drift-c1-moment", "src/zbwsim/expectation.py",
     "moment = a.T @ (w * a) + b.T @ (w * b)", "moment = a.T @ (w * a)",
     "the drift's c1 moment dropped"),
    ("pencil-rtol", "src/zbwsim/fitting.py",
     "PENCIL_RTOL = 1e-9", "PENCIL_RTOL = 1e-7",
     "the pencil's rank threshold 1e-9 -> 1e-7"),
    ("products-metric", "src/zbwsim/bz.py",
     "q[k, 8 + a] = 4.0 * _G[b]", "q[k, 8 + a] = 4.0 * _G[a]",
     "v' weighted with G_aa, not G_bb"),
    ("initial-v0", "src/zbwsim/bz.py",
     "y[8:10] = 1.0 / pi0, 1.0", "y[8:10] = 1.0, 1.0",
     "the classical start with v^0 = 1, not 1/pi^0"),
    ("mu-z-sign", "src/zbwsim/expectation.py",
     "mu_z = -params.spin_sign * 0.5", "mu_z = params.spin_sign * 0.5",
     "the magnetic moment's sign flipped"),
]


def _first_failure(copy: Path, args: list[str]) -> str | None:
    """The first failing or erroring test of a pytest -x run in copy, or None if all pass."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", *args],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s"
    if proc.returncode == 0:
        return None
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return f"pytest exit {proc.returncode}"


def run(file: str, old: str, new: str) -> str:
    """One mutant's verdict, from a fresh temporary copy of the project."""
    with tempfile.TemporaryDirectory(prefix="zbw-mutant-") as d:
        copy = Path(d)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
        for sub in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / sub, copy / sub, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        target = copy / file
        text = target.read_text()
        if old not in text:
            return f"no longer applies: its old text is not in {file}"
        target.write_text(text.replace(old, new))
        killer = _first_failure(copy, ["tests/test_acceptance.py"])
        if killer is not None:
            return f"killed by acceptance: {killer}"
        killer = _first_failure(copy, ["tests", "--ignore=tests/test_acceptance.py"])
        if killer is not None:
            return f"survived acceptance; killed by {killer}"
        return "survived"


def main() -> int:
    print("| mutant | why | result |")
    print("| --- | --- | --- |")
    for name, file, old, new, why in MUTANTS:
        print(f"| `{name}` | {why} | {run(file, old, new)} |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
