"""The answers of a few ``zbw`` commands, pinned as files under tests/golden/.

Each case reruns one command in process and compares its output with the
stored file: strings and verdicts exactly, numbers to a relative 1e-9 (another
BLAS may sum a small matmul in another order), and a zero with its sign.  A
change that moves an answer on purpose regenerates every file with

    PYTHONPATH=src python tests/test_golden.py

which prints, per file, "unchanged" or the largest absolute and relative
change of its numbers.
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
    "classical.svg": (["classical", "--epsilon", "-3e-3", "--spin", "down", "--tau-max", "20",
                       "--dt", "0.02", "--out", OUT], False),
    "quantum.svg": (["quantum", "--epsilon", "-1e-3", "--spin", "up", "--charge", "positron",
                     "--phi0", "2.5", "--t-max", "20", "--out", OUT], False),
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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _same(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{i}]")
    elif _is_number(want):
        assert _is_number(got), where
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
        assert math.copysign(1.0, got) == math.copysign(1.0, want), f"{where}: sign of {got!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_answer(name, tmp_path):
    got = _parse(name, _answer(name, tmp_path))
    _same(got, _parse(name, (GOLDEN / name).read_text()), name)


def _leaves(tree, where: str = "") -> list:
    """(path, value) for every leaf of a parsed answer."""
    if isinstance(tree, dict):
        return [leaf for key in tree for leaf in _leaves(tree[key], f"{where}.{key}")]
    if isinstance(tree, list):
        return [leaf for i, item in enumerate(tree) for leaf in _leaves(item, f"{where}[{i}]")]
    return [(where, tree)]


def _change(name: str, old: str, new: str) -> str:
    """How a regenerated file differs from the one it replaces."""
    if old == new:
        return "unchanged"
    before, after = _leaves(_parse(name, old)), _leaves(_parse(name, new))
    if [p for p, _ in before] != [p for p, _ in after] or any(
            x != y for (_, x), (_, y) in zip(before, after)
            if not (_is_number(x) and _is_number(y))):
        return "changed beyond its numbers"
    moved = [(x, y) for (_, x), (_, y) in zip(before, after) if x != y]
    if not moved:
        return "text changed, no number moved"
    return (f"largest change {max(abs(y - x) for x, y in moved):.3g} absolute, "
            f"{max(abs(y - x) / max(abs(x), abs(y)) for x, y in moved):.3g} relative")


def test_regeneration_reports_the_largest_change():
    old = '{"a": [1.0, "x"], "b": 2.0}'
    assert _change("f.json", old, old) == "unchanged"
    assert (_change("f.json", old, '{"a": [1.5, "x"], "b": 2.0}')
            == "largest change 0.5 absolute, 0.333 relative")
    assert _change("f.json", old, '{"a": [1.0, "y"], "b": 2.0}') == "changed beyond its numbers"
    assert _change("f.csv", "1.0,x\n", "1.00,x\n") == "text changed, no number moved"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            path = GOLDEN / case
            old = path.read_text() if path.exists() else None
            new = _answer(case, Path(tmp))
            path.write_text(new)
            print(f"{path}: {'new' if old is None else _change(case, old, new)}",
                  file=sys.stderr)
