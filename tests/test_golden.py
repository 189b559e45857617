"""The answers of a few ``zbw`` commands, pinned as files under tests/golden/.

Each case reruns one command in process and compares its output with the
stored file: strings and verdicts exactly, numbers to a relative 1e-9 (another
BLAS may sum a small matmul in another order), and a zero with its sign.  A
change that moves an answer on purpose regenerates every file with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from zbwsim.cli import main

GOLDEN = Path(__file__).with_name("golden")
RTOL = 1e-9
OUT = "{out}"  # stands for an --out path in a temporary directory

_ROOTS = ["roots", "--epsilon", "-1e-3", "--spin", "down", "--method"]
_QUANTUM = ["quantum", "--epsilon", "-3e-3", "--spin", "down", "--charge", "positron"]

# file name -> (argv, whether the answer is stdout rather than the --out file)
CASES = {
    "compare_fit.json": (["compare", "--epsilon", "-1e-3", "--fit", "--out", OUT], False),
    "compare.svg": (["compare", "--epsilon", "-1e-3", "--out", OUT], False),
    "landau.json": (["landau", "--n", "1", "--l", "-1", "--sz", "-0.5", "--ceb", "0.01"], True),
    "roots_exact.json": (_ROOTS + ["exact"], True),
    "roots_rough.json": (_ROOTS + ["rough"], True),
    "roots_accurate.json": (_ROOTS + ["accurate"], True),
    "sweep.csv": (["sweep", "--epsilons", "-1e-3", "-1e-4", "--out", OUT], False),
    "classical.csv": (["classical", "--epsilon", "-3e-3", "--spin", "down", "--tau-max", "20",
                       "--dt", "0.02", "--out", OUT], False),
    "quantum.csv": (_QUANTUM + ["--t-max", "20", "--out", OUT], False),
    "quantum_fit.json": (_QUANTUM + ["--fit", "--out", OUT], True),
}


def _answer(name: str, workdir: Path) -> str:
    argv, on_stdout = CASES[name]
    out = workdir / (name + ".out" if on_stdout else name)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main([str(out) if a == OUT else a for a in argv])
    assert rc == 0, f"zbw {' '.join(argv)} exited {rc}"
    return buf.getvalue() if on_stdout else out.read_text()


def _field(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _parse(name: str, text: str):
    if name.endswith(".json"):
        return json.loads(text)
    return [[_field(f) for f in line.split(",")] for line in text.splitlines()]


def _same(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
        assert math.copysign(1.0, got) == math.copysign(1.0, want), f"{where}: sign of {got!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_answer(name, tmp_path):
    got = _parse(name, _answer(name, tmp_path))
    _same(got, _parse(name, (GOLDEN / name).read_text()), name)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            (GOLDEN / case).write_text(_answer(case, Path(tmp)))
            print(f"wrote {GOLDEN / case}", file=sys.stderr)
