"""A zbw process keeps the cyclic collector off the heap that its imports leave.

A process that has not loaded numpy when zbwsim.cli starts runs its imports
with automatic collection off, then freezes what they left (gc.freeze) and
puts the collector back as it found it.  A process that loaded numpy first is
left alone.  Each case starts a fresh interpreter, since both depend on what
the process loaded before zbwsim.cli, and prints its findings as JSON.

No zbw process imports a process pool: every command, sweep included, runs in
the zbw process itself.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import zbwsim

SRC = str(Path(zbwsim.__file__).parents[1])

# run in the child around its import of zbwsim.cli: counts the collections that
# start once numpy is loading, which is every import below the start-up rule
_IMPORT = """
import gc, json, sys
collections = [0]
def hook(phase, info):
    collections[0] += phase == "start" and "numpy" in sys.modules
gc.callbacks.append(hook)
import zbwsim.cli
gc.callbacks.remove(hook)
print(json.dumps({"collections": collections[0], "enabled": gc.isenabled(),
                  "frozen": gc.get_freeze_count(),
                  "pool": "concurrent.futures.process" in sys.modules}))
"""


def _child(before: str = "") -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", before + _IMPORT], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def test_a_fresh_import_collects_nothing_and_freezes_its_heap():
    got = _child()
    assert got["collections"] == 0  # about 110 without the rule
    assert got["enabled"] is True
    assert got["frozen"] > 40_000  # about 87k


def test_a_process_that_loaded_numpy_first_keeps_its_collector():
    got = _child("import numpy\n")
    assert got["frozen"] == 0
    assert got["enabled"] is True
    assert got["collections"] > 0


def test_a_collector_switched_off_stays_off():
    got = _child("import gc\ngc.disable()\n")
    assert got["enabled"] is False
    assert got["collections"] == 0


def test_the_import_leaves_the_process_pool_out():
    """Importing zbwsim.cli loads neither concurrent.futures.process nor multiprocessing."""
    assert _child()["pool"] is False


def test_a_sweep_with_jobs_starts_no_process_pool(tmp_path):
    """sweep --jobs 2 runs in the zbw process: no module of a pool is ever imported.

    -X importtime lists on stderr every module the process imports, workers' included.
    """
    out = tmp_path / "s.csv"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "zbwsim.cli", "sweep",
         "--epsilons", "-1e-3", "-1e-4", "--jobs", "2", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "zbwsim.symmetry" in imported
    assert not {"concurrent.futures.process", "multiprocessing"} & imported
    assert len(out.read_text().splitlines()) == 1 + 2 * 3 * 4
