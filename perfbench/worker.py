"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace]

Imports the package, runs every cell of the workload back to back, checks
each verdict and prints one JSON line: the pass time from the first call
into the package until the last verdict (``wall_s``, without the speed
sampler's reference chunks) with the factor that scales it to the
reference host speed (``scale``, see ``speed.py``), cells attempted and
failed, peak resident memory and, with ``--trace``, the per-layer figures.
Traced self times include the reference chunks that fell inside a span,
about one percent of it.  ``run.py`` starts this script with the
BLAS/OpenMP pools pinned to one thread and the repository's ``src`` on
``PYTHONPATH``.

Importing this module does not import the package, so ``run.py`` can read
the cell counts below without paying for numpy and scipy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import traceback
from time import perf_counter

from speed import SpeedSampler
from tracer import Tracer

# verify-all: the sections of the default grid and their cell counts
VERIFY_ALL_SECTIONS = (
    ("schur-weyl", 6), ("howe", 6), ("lowest-type", 12),
    ("compact-induction", 30), ("emptiness", 6), ("orbit", 9),
    ("shift-bookkeeping", 12),
)
# howe-grid: acceptance criterion 2
HOWE_DEGREE = 6
STABILITY_DEGREE, STABILITY_KMAX = 4, 4
HOWE_RANKS = (1, 2, 3)
# orbit-batch: acceptance criterion 6, ten sample seeds per weight and rank
ORBIT_KMAX = 6
ORBIT_SAMPLES = 10
ORBIT_TOL = 1e-9
ORBIT_CELLS_PER_SAMPLE = 24  # the five CLASSICAL_WEIGHTS, k = rows..6

WORKLOAD_CELLS = {
    "verify-all": sum(n for _, n in VERIFY_ALL_SECTIONS),
    "howe-grid": len(HOWE_RANKS) ** 2 + len(HOWE_RANKS),
    "orbit-batch": ORBIT_CELLS_PER_SAMPLE * ORBIT_SAMPLES,
}


class Tally:
    """Cells attempted and failed; an exception counts as a failed cell."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, fn) -> None:
        self.attempted += 1
        try:
            ok = fn()
        except Exception:  # a raising cell is a failed verdict, not a crash
            traceback.print_exc()
            ok = False
        if not ok:
            self.failed += 1
            print(f"perfbench: cell {label} failed", file=sys.stderr)


# ---------------------------------------------------------------------------
# workloads; each returns the report digest or None


def run_verify_all(seed: int, tally: Tally):
    """``howe-forge verify-all --seed SEED --format json`` through cli.main."""
    from howe_forge import cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify-all", "--seed", str(seed),
                             "--format", "json"])
    except Exception:
        traceback.print_exc()
        code = None
    text = out.getvalue()
    try:
        report = json.loads(text)
    except ValueError:
        report = {"sections": []}
    got = {s["name"]: s for s in report["sections"]}
    for name, count in VERIFY_ALL_SECTIONS:
        cells = got.get(name, {}).get("cells", [])
        for i in range(count):
            tally.check(f"{name}[{i}]",
                        lambda: code == 0 and len(cells) == count
                        and cells[i]["ok"] and got[name]["ok"])
    return hashlib.sha256(text.encode()).hexdigest()


def run_howe_grid(seed: int, tally: Tally):
    """Acceptance criterion 2, cells in an order drawn from the seed."""
    from howe_forge import fock

    def howe(k, M):
        return fock.verify_howe(k, M, HOWE_DEGREE).ok

    def stability(M):
        rep = fock.howe_stability_check(M, STABILITY_DEGREE, STABILITY_KMAX)
        return rep["stable"] and all(r["ok"] for r in rep["reports"].values())

    cells = [(f"verify_howe({k},{M},{HOWE_DEGREE})",
              lambda k=k, M=M: howe(k, M))
             for k in HOWE_RANKS for M in HOWE_RANKS]
    cells += [(f"howe_stability_check({M},{STABILITY_DEGREE},"
               f"{STABILITY_KMAX})", lambda M=M: stability(M))
              for M in HOWE_RANKS]
    random.Random(seed).shuffle(cells)
    for label, fn in cells:
        tally.check(label, fn)
    return None


def run_orbit_batch(seed: int, tally: Tally):
    """Acceptance criterion 6 over ORBIT_SAMPLES sample seeds; workload
    seed n uses sample seeds n*ORBIT_SAMPLES .. (n+1)*ORBIT_SAMPLES-1."""
    from howe_forge import classical as C
    from howe_forge import cli
    from howe_forge import weights as W

    def orbit(w, k, s):
        rep = C.verify_orbit(C.sample_level_set(w, k, s), ORBIT_TOL)
        return rep["max_dev"] <= ORBIT_TOL and all(rep["checks"].values())

    first = seed * ORBIT_SAMPLES
    for m, n in cli.CLASSICAL_WEIGHTS:
        w = W.SignedWeight(m, n)
        for k in range(len(m) + len(n), ORBIT_KMAX + 1):
            for s in range(first, first + ORBIT_SAMPLES):
                tally.check(f"orbit m={m} n={n} k={k} seed={s}",
                            lambda: orbit(w, k, s))
    return None


WORKLOADS = {
    "verify-all": run_verify_all,
    "howe-grid": run_howe_grid,
    "orbit-batch": run_orbit_batch,
}


# ---------------------------------------------------------------------------
# tracing: what is wrapped, and the figures read from the trace


def _count_ncols(stats, args, kwargs, result):
    ncols = kwargs["ncols"] if "ncols" in kwargs else args[1]
    stats["ncols_sum"] += ncols
    stats["ncols_max"] = max(stats["ncols_max"], ncols)


def _count_vectors(stats, args, kwargs, result):
    stats["vectors"] += len(result)


def _count_routes(stats, args, kwargs, result):
    routes = [d.commutant_route for d in result.degrees]
    stats["degree_reports"] += len(routes)
    stats["multiplicity_route"] += routes.count("multiplicity")


def _count_empty(stats, args, kwargs, result):
    stats["empty"] += bool(result.empty)


FOCK_OPS = ("gl_k_op", "gl_m_op", "gl_n_op", "raiser_op", "lowerer_op")
COUNT_ONLY = {"classical.eta_matrix"}  # about 10^5 calls in one pass


def traced_layers() -> list[tuple[str, object, object]]:
    """(metric prefix, function, observer) for each wrapped public function;
    the prefix is ``<module>.<function>``."""
    from howe_forge import classical, cli, fock, rieffel, tensor, weights

    observers = {
        tensor.kernel_basis: _count_ncols,
        fock.joint_highest_weight_vectors: _count_vectors,
        fock.verify_howe: _count_routes,
        rieffel.induce_noncompact_graded: _count_empty,
    }
    functions = [
        weights.cauchy_check, weights.kostka,
        tensor.kernel_basis, tensor.commutant_dim,
        tensor.projector_family_check,
        fock.joint_highest_weight_vectors, fock.verify_howe, fock.verify_kv,
        rieffel.induce_noncompact_graded, rieffel.emptiness_survey,
        rieffel.induce_compact, rieffel.build_inducing_irrep,
        classical.verify_orbit, classical.pairing_deviation,
        classical.invariance_deviation, classical.stabilizer_ok,
        classical.sample_level_set, classical.eta_matrix,
        cli.run_verify_all,
    ]
    layers = [(f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}", fn,
               observers.get(fn)) for fn in functions]
    layers += [("fock.FockModel.ops", getattr(fock.FockModel, op), None)
               for op in FOCK_OPS]
    return layers


def install_tracer(tracer) -> list[str]:
    """Wrap every layer function and each verify-all grid cell (as
    ``cli.cell``); returns the traced names."""
    from howe_forge import cli

    names = []
    for name, fn, observe in traced_layers():
        tracer.trace(fn, name, name not in COUNT_ONLY, observe)
        names.append(name)
    grid_map = cli.grid_map
    tracer.replace(grid_map, lambda fn, cells, threads: grid_map(
        tracer.wrap(fn, "cli.cell"), cells, threads))
    return list(dict.fromkeys(names + ["cli.cell"]))


def layer_metrics(tracer, names) -> dict:
    """Per-layer figures of one traced pass, keyed ``<layer>.<stat>``."""
    out = {}
    for name in names:
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.self_s"] = tracer.self_s[name]
    kb = tracer.stats["tensor.kernel_basis"]
    out["tensor.kernel_basis.ncols_max"] = kb["ncols_max"]
    out["tensor.kernel_basis.ncols_sum"] = kb["ncols_sum"]
    out["fock.joint_highest_weight_vectors.vectors"] = \
        tracer.stats["fock.joint_highest_weight_vectors"]["vectors"]
    routes = tracer.stats["fock.verify_howe"]
    out["fock.verify_howe.multiplicity_route"] = routes["multiplicity_route"]
    reports = routes["degree_reports"]
    out["fock.verify_howe.matrix_route_frac"] = (
        (reports - routes["multiplicity_route"]) / reports if reports else 0.0)
    graded = "rieffel.induce_noncompact_graded"
    too_large = tracer.raised[(graded, "TooLarge")]
    returned = tracer.calls[graded] - sum(
        n for (name, _), n in tracer.raised.items() if name == graded)
    out[f"{graded}.too_large"] = too_large
    out[f"{graded}.empty_frac"] = (
        tracer.stats[graded]["empty"] / returned if returned else 0.0)
    out["cli.cell_max_s"] = max(tracer.durations("cli.cell"), default=0.0)
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import scipy

    import howe_forge.cli  # noqa: F401  (every module of the package)

    result = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    tally = Tally()
    tracer = Tracer() if args.trace else None
    names = install_tracer(tracer) if tracer is not None else []
    try:
        with SpeedSampler() as sampler:
            start = perf_counter()
            result["digest"] = WORKLOADS[args.workload](args.seed, tally)
            result["wall_s"] = perf_counter() - start - sampler.spent
    finally:
        if tracer is not None:
            tracer.restore()
    result["scale"] = sampler.scale
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, names)
        result["spans"] = len(tracer.spans)
    result.update(attempted=tally.attempted, failed=tally.failed,
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
