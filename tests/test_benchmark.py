"""The benchmark's contract with the package: one traced pass of each
workload of ``perfbench/worker.py`` attempts every cell and fails none.

The worker's tracer wraps package functions by name (``traced_layers``,
the five ``FockModel.*_op`` wrappers among them) and replaces
``cli.grid_map`` with a three-argument wrapper, so a change to ``src/``
that drops or reshapes one of those names fails here.  The passes run
with ``python -B`` in a temporary directory and write nothing under
``perfbench/``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("verify-all", "howe-grid", "orbit-batch")


def bench_files():
    return sorted(p.relative_to(BENCH) for p in BENCH.rglob("*"))


def worker_env():
    """The package from ``src`` and one-thread BLAS pools, as
    ``perfbench/run.py`` starts the worker."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("HOWE_FORGE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="module")
def workload_cells():
    """``worker.WORKLOAD_CELLS``, read in a child that imports no
    package module and writes no bytecode."""
    out = subprocess.run(
        [sys.executable, "-B", "-c",
         "import json, worker; print(json.dumps(worker.WORKLOAD_CELLS))"],
        cwd=BENCH, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_traced_worker_pass_runs_every_cell(workload, workload_cells,
                                              tmp_path):
    before = bench_files()
    out = subprocess.run(
        [sys.executable, "-B", str(BENCH / "worker.py"), "--workload",
         workload, "--seed", "1", "--trace"],
        cwd=tmp_path, env=worker_env(), capture_output=True, text=True,
        timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["failed"] == 0, out.stderr
    assert result["attempted"] == workload_cells[workload]
    assert bench_files() == before
    assert list(tmp_path.iterdir()) == []
