"""zbw runs its BLAS on one thread unless OPENBLAS_NUM_THREADS names a count.

Each case starts a fresh interpreter, because OpenBLAS reads its thread count
once, when numpy loads.  The count is read from numpy's bundled OpenBLAS, the
way perfbench's machine() reads it; without that symbol the cases skip.
"""
import ctypes
import glob
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import zbwsim

SRC = str(Path(zbwsim.__file__).parents[1])
_LIBS = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                               "libscipy_openblas*"))


def _has_thread_count() -> bool:
    try:
        ctypes.CDLL(_LIBS[0]).scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return False
    return True


needs_count = pytest.mark.skipif(not _has_thread_count(),
                                 reason="numpy's OpenBLAS has no scipy_openblas_get_num_threads64_")

# run in the child after its imports: report() gives its BLAS thread count and environment
_REPORT = """
import ctypes, json, os, numpy
count = ctypes.CDLL({lib!r}).scipy_openblas_get_num_threads64_
count.argtypes, count.restype = [], ctypes.c_int
report = lambda: {{"threads": int(count()), "env": dict(os.environ)}}
"""


def _env(**blas) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return dict(env, PYTHONPATH=SRC, **blas)


def _child(body: str, env: dict) -> dict:
    code = body + _REPORT.format(lib=_LIBS[0]) + "print(json.dumps(result()))\n"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


@needs_count
def test_zbw_runs_blas_on_one_thread_by_default():
    got = _child("import zbwsim.cli\nresult = lambda: report()\n", _env())
    assert got["threads"] == 1
    assert got["env"]["OPENBLAS_NUM_THREADS"] == "1"


@needs_count
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one core: every count reads 1")
def test_a_named_thread_count_wins():
    got = _child("import zbwsim.cli\nresult = lambda: report()\n",
                 _env(OPENBLAS_NUM_THREADS="2"))
    assert got["threads"] == 2
    assert got["env"]["OPENBLAS_NUM_THREADS"] == "2"


@needs_count
def test_a_process_that_loaded_numpy_first_keeps_its_count_and_environment():
    body = ("import numpy\n"
            "def result():\n"
            "    before = report()\n"
            "    import zbwsim.cli\n"
            "    return {'before': before, 'after': report()}\n")
    got = _child(body, _env())
    assert got["after"] == got["before"]
    assert "OPENBLAS_NUM_THREADS" not in got["after"]["env"]


def test_fitted_compare_has_the_same_bytes_unset_and_on_one_thread(tmp_path):
    """The single-thread default is what makes the fitted digits repeat across cores."""
    outputs = []
    for name, env in (("unset", _env()), ("one", _env(OPENBLAS_NUM_THREADS="1"))):
        out = tmp_path / f"{name}.json"
        proc = subprocess.run([sys.executable, "-m", "zbwsim.cli", "compare", "--epsilon",
                               "-1e-3", "--fit", "--out", str(out)],
                              env=env, capture_output=True, timeout=120, check=True)
        outputs.append((proc.stdout, proc.stderr, out.read_bytes()))
    assert outputs[0] == outputs[1]
