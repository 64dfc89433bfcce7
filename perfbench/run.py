"""howe-forge benchmark: end-to-end verdict time and per-layer timing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
Workloads (see BENCHMARK.json for why each was chosen):

  verify-all   ``howe-forge verify-all --seed N --format json`` via cli.main
  howe-grid    acceptance criterion 2, cell order permuted by the seed
  orbit-batch  acceptance criterion 6 over sample seeds offset by the seed

Each pass runs every cell of the workload once, back to back (a closed loop
with one client), in a fresh interpreter whose BLAS/OpenMP pools are pinned
to one thread, so every pass starts with cold caches as a CLI call does.
Passes repeat while the next one is expected to finish within ``--seconds``;
there is always at least one.

With ``--trace 0`` the result carries the end-to-end metrics: ``wall_s``
(median pass time from the first call into the package until the last
verdict), ``setup_s`` (median time from starting an interpreter until
``howe_forge.cli`` with numpy and scipy is imported, over several probes)
and ``peak_rss_mb`` (median peak resident memory of a pass).  Both times
are scaled to one reference host speed, sampled while they are measured
(see ``speed.py``); the raw times are on the facts line.  With
``--trace 1`` one untraced pass is followed by traced passes, and the
result carries the per-layer metrics (low medians over traced passes, in
raw seconds) and ``trace.overhead_s``, the traced minus the untraced pass
time, both scaled.

Every verdict is checked; a failed or raising cell counts in ``failed``.
Verify-all report digests must agree across every pass of a run, traced or
not.  A line of machine facts and per-pass figures precedes the result,
which is the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "howe_forge"

SETUP_PROBES = 5
RUN_LIMIT_S = 170  # every pass must end by then
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
SETUP_PROBE = ("import sys, time; sys.path.insert(0, {here!r}); import speed\n"
               "with speed.SpeedSampler() as sampler:\n"
               "    import howe_forge.cli\n"
               "print(time.monotonic(), sampler.spent, sampler.scale)")


def worker_env() -> dict:
    env = dict(os.environ, **PINNED)
    env.pop("HOWE_FORGE_THREADS", None)  # the grid runs on one thread
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def setup_probe(env: dict, deadline: float) -> tuple[float, float]:
    """Seconds from starting an interpreter until howe_forge.cli (and with
    it numpy and scipy) is imported, raw and at the reference speed;
    interpreter exit is not counted."""
    start = monotonic()
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE.format(here=str(HERE))], env=env,
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        timeout=max(1.0, deadline - start))
    done, spent, scale = map(float, out.stdout.split())
    raw = done - start - spent
    return raw, raw * scale


def run_pass(args, env: dict, deadline: float, traced: bool) -> dict:
    """One pass in a fresh interpreter; a pass that crashes or overruns
    counts every one of its cells as failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed)]
    if traced:
        cmd.append("--trace")
    start = monotonic()
    try:
        out = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=max(1.0, deadline - start))
        result = json.loads(out.stdout.splitlines()[-1])
        if out.returncode != 0:
            raise ValueError(f"worker exited with {out.returncode}")
    except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: pass failed: {exc}", file=sys.stderr)
        cells = worker.WORKLOAD_CELLS[args.workload]
        result = {"attempted": cells, "failed": cells, "crashed": True}
    result["elapsed_s"] = monotonic() - start
    return result


def run_passes(args, env, deadline, traced, start, passes=()) -> list[dict]:
    """Passes until the next one would end more than ``--seconds`` after
    ``start``; at least one."""
    passes = list(passes) + [run_pass(args, env, deadline, traced)]
    while (monotonic() - start
           + statistics.median(p["elapsed_s"] for p in passes)
           <= args.seconds):
        passes.append(run_pass(args, env, deadline, traced))
    return passes


def scaled_wall(result: dict) -> float:
    return result["wall_s"] * result["scale"]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(worker.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"perfbench: no package sources at {PACKAGE}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    deadline = monotonic() + RUN_LIMIT_S
    env = worker_env()
    metrics = {}
    setup = []
    if args.trace:
        start = monotonic()
        untraced = run_pass(args, env, deadline, traced=False)
        passes = run_passes(args, env, deadline, True, start, [untraced])
        ok_traced = [p for p in passes if "layers" in p]
        for name in (ok_traced[0]["layers"] if ok_traced else ()):
            metrics[name] = metric(statistics.median_low(
                p["layers"][name] for p in ok_traced),
                "s" if name.endswith("_s") else
                "1" if name.endswith("_frac") else "count")
        if ok_traced and "wall_s" in untraced:
            metrics["trace.overhead_s"] = metric(statistics.median(
                scaled_wall(p) for p in ok_traced) - scaled_wall(untraced),
                "s")
    else:
        setup_probe(env, deadline)  # fills __pycache__ and the file cache
        setup = [setup_probe(env, deadline) for _ in range(SETUP_PROBES)]
        passes = run_passes(args, env, deadline, False, monotonic())
        done = [p for p in passes if "wall_s" in p]
        if done:
            metrics["wall_s"] = metric(
                statistics.median(scaled_wall(p) for p in done), "s")
            metrics["peak_rss_mb"] = metric(
                statistics.median(p["peak_rss_mb"] for p in done), "MB")
        metrics["setup_s"] = metric(
            statistics.median(scaled for _, scaled in setup), "s")

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {p.get("digest") for p in passes if "wall_s" in p}
    if len(digests) > 1:
        print(f"perfbench: report digests differ: {sorted(digests)}",
              file=sys.stderr)
        failed = attempted
    versions = next((p for p in passes if "numpy" in p), {})
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": versions.get("numpy"),
            "scipy": versions.get("scipy"),
            "blas_threads": PINNED,
            "git_commit": git_commit(),
            "src_sha256": source_digest(),
        },
        "setup_probes_s": setup,  # [raw, scaled] per probe
        "passes": [{k: v for k, v in p.items() if k != "layers"}
                   for p in passes],
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
