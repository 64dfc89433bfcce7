"""The acceptance gate: eight suite-level criteria, one line each.

Each test prints a single pass/fail line (visible with -s; the -v test
status carries the same information) and enforces the runtime budget the
suite is expected to hold on commodity hardware.
"""

import subprocess
import sys
import time
from fractions import Fraction

from howe_forge import classical as C
from howe_forge import weights as W
from howe_forge.fock import howe_stability_check, verify_howe, verify_kv, \
    strict_signed_pairs
from howe_forge.rieffel import degree_selection_check, induce_compact, \
    induce_noncompact_graded
from howe_forge.tensor import projector_family_check

KV_SIGNATURES = ((1, 1), (2, 1))


def report(number: int, title: str, ok: bool, elapsed: float,
           budget: float | None = None) -> None:
    ok = ok and (budget is None or elapsed < budget)
    status = "PASS" if ok else "FAIL"
    spent = f"{elapsed:.1f}" if budget is None else f"{elapsed:.1f}/{budget}"
    line = f"criterion {number} ({title}): {status} [{spent} s]"
    print(line)
    assert ok, line


def test_criterion_1_projector_family():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 7):
        for k in range(1, 5):
            total = sum(W.sn_dim(lam) * W.weyl_dim(lam, k)
                        for lam in W.partitions_of(n))
            ok = ok and total == k ** n
            rep = projector_family_check(n, k)
            ok = ok and rep["complete"] and rep["idempotent"] \
                and rep["orthogonal"]
            ok = ok and all(rank == W.sn_dim(lam) * W.weyl_dim(lam, k)
                            for lam, rank in rep["ranks"].items())
    elapsed = time.monotonic() - t0
    report(1, "tensor-power projector family", ok, elapsed, budget=10)


def test_criterion_2_paired_decomposition():
    t0 = time.monotonic()
    ok = True
    for k in range(1, 4):
        for M in range(1, 4):
            ok = ok and verify_howe(k, M, 6).ok
    for M in range(1, 4):
        ok = ok and howe_stability_check(M, 4, 4)["stable"]
    elapsed = time.monotonic() - t0
    report(2, "paired decomposition and label stability", ok, elapsed,
           budget=10)


def test_criterion_3_compact_induction():
    t0 = time.monotonic()
    ok = True
    for k in range(1, 5):
        for M in range(1, 4):
            for tot in range(0, 5):
                for m in W.partitions_of(tot, max_rows=M):
                    mod = induce_compact(k, M, m)
                    ok = ok and mod.dimension == W.weyl_dim(m, k)
                    if mod.dimension:
                        ok = ok and mod.commutant == 1
                        ok = ok and mod.highest_weight == \
                            m + (0,) * (k - len(m))
                    wrong = (1, 2) if tot == 0 else \
                        ((0, 2) if tot == 1 else (tot - 1, tot - 2))
                    for nw in wrong:
                        ok = ok and degree_selection_check(k, M, m, nw)["ok"]
    elapsed = time.monotonic() - t0
    report(3, "compact induction grid", ok, elapsed, budget=30)


def test_criterion_4_lowest_type_labels():
    t0 = time.monotonic()
    ok = True
    for k in range(1, 4):
        for M, N in KV_SIGNATURES:
            for convention in ("sq", "hf"):
                rep = verify_kv(k, M, N, 4, convention)
                ok = ok and rep.ok
                ok = ok and all(d["unexplained"] == 0
                                for d in rep.to_json()["bidegrees"])
    elapsed = time.monotonic() - t0
    report(4, "lowest-type weight predictions", ok, elapsed, budget=10)


def _label_collision(entries, k, M, N):
    """The parsed (m, n) label when the integral weight lands on the
    quantized list, else None."""
    if any(e.denominator != 1 for e in entries):
        return None
    vals = [int(e) for e in entries]
    m = tuple(x - k for x in vals[:M])
    n = tuple(-x for x in reversed(vals[M:]))
    if any(x < 0 for x in m + n):
        return None
    if any(m[i] < m[i + 1] for i in range(M - 1)) or \
            any(n[i] < n[i + 1] for i in range(N - 1)):
        return None
    if sum(1 for x in m + n if x) > k:
        return None
    return W.partition(m), W.partition(n)


def test_criterion_5_graded_emptiness():
    t0 = time.monotonic()
    ok = True
    empties = collisions = 0
    for k in range(1, 4):
        for M, N in KV_SIGNATURES:
            # renormalized weights: empty unless they collide with a label
            for m, n in strict_signed_pairs(M, N, 4):
                shifted = W.renormalize_weight(W.SignedWeight(m, n), M, N)
                label = _label_collision(shifted.entries, k, M, N)
                out = induce_noncompact_graded(k, M, N, shifted)
                if label is None:
                    ok = ok and out.empty
                    empties += 1
                else:
                    want = W.SignedWeight(*label).realize(k)
                    ok = ok and not out.empty \
                        and out.highest_weight == want \
                        and out.dimension == W.signed_weight_dim(want, k)
                    # the module belongs to the colliding label, not to
                    # the blocks the weight was renormalized from
                    ok = ok and (len(m) + len(n) > k
                                 or want != W.SignedWeight(m, n).realize(k))
                    collisions += 1
            # leading entry below the rank: always empty
            for t in sorted({0, k - 1}):
                for n1 in range(3):
                    w = (t,) * M + tuple(
                        -x for x in ([n1] + [0] * (N - 1))[::-1])
                    out = induce_noncompact_graded(k, M, N, w)
                    ok = ok and out.empty and \
                        out.reason.startswith("entry below the rank")
                    empties += 1
            # shifted labels: the module with the realized highest weight
            for p in range(5):
                for q in range(5 - p):
                    for m in W.partitions_of(p, max_rows=M):
                        for n in W.partitions_of(q, max_rows=N):
                            if len(m) + len(n) > k:
                                continue
                            w = tuple(x + k for x in
                                      m + (0,) * (M - len(m)))
                            w += tuple(-x for x in
                                       reversed(n + (0,) * (N - len(n))))
                            out = induce_noncompact_graded(k, M, N, w)
                            want = W.SignedWeight(m, n).realize(k)
                            ok = ok and not out.empty \
                                and out.highest_weight == want \
                                and out.dimension == \
                                W.signed_weight_dim(want, k)
    ok = ok and empties == 94 and collisions == 8
    elapsed = time.monotonic() - t0
    report(5, f"graded emptiness ({empties} empty, {collisions} label "
              "collisions)", ok, elapsed, budget=10)


def test_criterion_6_orbit_spectra():
    t0 = time.monotonic()
    ok = True
    weights = (((1,), ()), ((2, 1), ()), ((1,), (1,)), ((2, 1), (1,)),
               ((2, 2), (1,)))
    for m, n in weights:
        rows = len(m) + len(n)
        for k in range(rows, 7):
            for seed in range(10):
                point = C.sample_level_set(W.SignedWeight(m, n), k, seed)
                rep = C.verify_orbit(point, tol=1e-9)
                ok = ok and rep["max_dev"] < 1e-9
                ok = ok and all(rep["checks"].values())
    elapsed = time.monotonic() - t0
    report(6, "orbit spectra and momentum pairings", ok, elapsed,
           budget=5)


def test_criterion_7_shift_bookkeeping():
    t0 = time.monotonic()
    half = Fraction(1, 2)
    checks = (
        ("dec2", 2, dict(k=4), "left", (2 + half,) + (half,) * 3),
        ("dec2", 2, dict(k=4), "right", (4,)),
        ("dec2", 0, dict(k=2), "left", (half, half)),
        ("howehf", (), dict(k=2, M=2), "left", (1, 1)),
        ("howehf", (2, 1), dict(k=3, M=2), "right", (3 + half, 2 + half)),
        ("howehf", (1,), dict(k=2, M=1), "left", (1 + half, half)),
        ("kave", ((1,), (1,)), dict(k=3, M=1, N=1), "right", (4, -1)),
        ("kave", ((1,), (1,)), dict(k=3, M=1, N=1), "left", (1, 0, -1)),
        ("kave", ((2,), (1,)), dict(k=2, M=1, N=1), "right", (4, -1)),
        ("kave2", ((1,), (1,)), dict(k=3, M=1, N=1), "right",
         (2 + half, -2 - half)),
        ("kave2", ((2,), (1,)), dict(k=2, M=1, N=1), "right", (3, -2)),
        ("kave2", ((1,), (1,)), dict(k=2, M=1, N=1), "left", (1, -1)),
    )
    ok = True
    for context, arg, kwargs, side, expected in checks:
        convention = "sq" if context == "kave" else "hf"
        got = W.shift_weight(arg, convention, context, side=side, **kwargs)
        ok = ok and got.entries == tuple(Fraction(e) for e in expected)
    elapsed = time.monotonic() - t0
    report(7, "half-form shift spot checks", ok, elapsed)


def test_criterion_8_deterministic_reports():
    t0 = time.monotonic()
    cmd = [sys.executable, "-m", "howe_forge.cli", "verify-all", "--seed", "1"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and len(first.stdout) > 0)
    elapsed = time.monotonic() - t0
    report(8, "byte-identical verify-all reruns", ok, elapsed, budget=30)
