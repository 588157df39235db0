"""The experiment runner's wiring, checked without Spark or ``results/``.

Every experiment has one entry in ``repro.experiments.EXPERIMENTS``;
the CLI and the pytest benchmarks reach it only through ``run``, so a
benchmark that registered its own data, built its own context or wrote
its own table would be a second copy of that wiring.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import EXPERIMENTS
from repro.experiments.speedups import summarize

NAMES = ("e1", "e2", "e3", "e4", "e5", "e6", "e7", "t2")
BENCH_FILES = sorted(
    (Path(__file__).resolve().parents[1] / "benchmarks").glob("bench_*.py")
)


def _calls(path: Path) -> list[ast.Call]:
    tree = ast.parse(path.read_text())
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call)]


def _callee(call: ast.Call) -> str:
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")


def test_registry_names():
    assert tuple(EXPERIMENTS) == NAMES


def test_unknown_name_exits_nonzero_and_lists_the_names():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    out = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "nosuch"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode != 0
    for name in NAMES:
        assert re.search(rf"\b{name}\b", out.stderr), out.stderr


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.stem)
def test_benchmark_reaches_a_registered_name(path):
    names = [
        c.args[0].value for c in _calls(path)
        if _callee(c) == "run" and c.args
        and isinstance(c.args[0], ast.Constant)
    ]
    assert names, f"{path.name} does not call repro.experiments.run"
    assert set(names) <= set(EXPERIMENTS)


def test_every_experiment_has_a_benchmark():
    reached = {
        c.args[0].value for p in BENCH_FILES for c in _calls(p)
        if _callee(c) == "run" and c.args
        and isinstance(c.args[0], ast.Constant)
    }
    assert reached == set(EXPERIMENTS)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.stem)
def test_benchmark_holds_no_wiring(path):
    own = {_callee(c) for c in _calls(path)} & {"emit", "VerdictContext"}
    assert not own, f"{path.name} calls {sorted(own)} itself"


def _row(approx, speedup=2.0, err=1.0):
    return {"approx": approx, "speedup": speedup,
            "rel_err_pct": err if approx else None}


def test_summary_keys_do_not_depend_on_approximation():
    none = summarize([_row(False), _row(False)])
    some = summarize([_row(True, 2.0), _row(True, 8.0), _row(False)])
    assert none.keys() == some.keys()
    assert none["n_approx"] == 0 and none["n_total"] == 2
    assert some["avg_speedup"] == pytest.approx(5.0)
    assert some["geomean_speedup"] == pytest.approx(4.0)
