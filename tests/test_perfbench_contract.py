"""The package names, imports and arguments that the benchmark under perfbench/ relies on.

The benchmark exits non-zero when the package drops a name it traces, an
import it times or an argument it passes; these tests catch that in tier-1.
perfbench/tracing.py and perfbench/run.py are loaded read-only from their files.
"""
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

from zbwsim import fitting, symmetry

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks its module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("target", _load("tracing").TARGETS, ids=lambda t: f"{t[1]}.{t[2]}")
def test_traced_names_resolve(target):
    _, module, attr, _, _ = target
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_timed_imports_happen_in_cli_import():
    run = _load("run")
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import zbwsim.cli"],
                         env=env, cwd=run.ROOT, capture_output=True, text=True, check=True).stderr
    imported = {line.split("|")[-1].strip() for line in err.splitlines()
                if line.startswith("import time:")}
    missing = sorted(set(run.IMPORTS.values()) - imported)
    assert not missing, f"import zbwsim.cli no longer imports {missing}"


def test_fitted_classical_table_takes_the_benchmark_arguments():
    inspect.signature(symmetry.fitted_classical_table).bind(None, tau_max=200.0, dt=0.04)


def test_fit_frequencies_takes_the_benchmark_trend_call():
    """The trajectory_export gate fits the fast modes over a cubic trend, trend_degree=3.

    No package path passes trend_degree > 0, so this is what keeps it working.
    """
    inspect.signature(fitting.fit_frequencies).bind(None, None, None, trend_degree=3)
    t = np.arange(0.0, 100.0, 0.02)
    trend = 0.3 + 0.2 * (t / 100.0) - 0.5 * (t / 100.0) ** 3
    y = np.sin(2.004 * t) + 0.6 * np.cos(1.997 * t + 0.4) + trend
    fit = fitting.fit_frequencies(t, y, [2.0035, 1.9975], trend_degree=3)
    assert fit.freqs == pytest.approx([2.004, 1.997], rel=1e-10)
