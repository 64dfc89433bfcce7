#!/usr/bin/env python3
"""Sweep the classical orbit checks over a grid of weights, ranks, seeds.

For every signed weight, every rank from the minimum up to --kmax, and
--seeds random frames, this samples a point on the constraint level set
and reports the worst deviation seen in the spectrum match and in the
momentum pairing identities (checked on a basis), and whether the
pairing, two-sided invariance and stabilizer checks all hold.  Exit
status 1 if any cell exceeds the tolerance.

Example:
    python scripts/orbit_sweep.py --kmax 6 --seeds 10 --tol 1e-9
"""

import argparse

from howe_forge import classical as C
from howe_forge import weights as W
from howe_forge.cli import CLASSICAL_WEIGHTS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kmax", type=int, default=6)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--tol", type=float, default=1e-9)
    args = ap.parse_args()

    print(f"{'weight':<18} {'k':>2} {'seeds':>5} {'worst max_dev':>14} "
          f"{'worst pairing':>14} {'checks':>7}")
    failures = 0
    for m, n in CLASSICAL_WEIGHTS:
        w = W.SignedWeight(m, n)
        rows = len(m) + len(n)
        for k in range(rows, max(rows, args.kmax) + 1):
            worst_dev = worst_pair = 0.0
            ok = True
            for seed in range(args.seeds):
                point = C.sample_level_set(w, k, seed)
                rep = C.verify_orbit(point, tol=args.tol)
                worst_dev = max(worst_dev, rep["max_dev"])
                worst_pair = max(worst_pair, C.pairing_deviation(point))
                ok = ok and rep["ok"]
            if not ok:
                failures += 1
            print(f"{str((m, n)):<18} {k:>2} {args.seeds:>5} "
                  f"{worst_dev:>14.3e} {worst_pair:>14.3e} "
                  f"{'ok' if ok else 'FAIL':>7}")
    print(f"{failures} failing cells" if failures else "all cells ok")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
