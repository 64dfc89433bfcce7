"""Command-line frontend for the verification suites.

Subcommands: ``decompose`` prints per-degree duality tables, ``induce``
builds one induced module and prints its JSON report, ``orbit`` runs the
level-set spectrum checks per seed, and ``verify-all`` sweeps the whole
verification grid (the CI entry point).

Output is TSV for tables and JSON (sorted keys) for reports; neither
carries color codes.  Every subcommand prints through ``finish``, which
writes the JSON report, or the table and a PASS/FAIL line, and returns
the exit code: 0 all checks pass, 1 a mathematical check failed or the
input is infeasible, 2 usage error.

A config file of ``key=value`` lines (``#`` comments allowed) can seed
the run parameters; explicit flags always win.  ``verify-all`` runs each
section's cells in order through ``grid_map``.

``decompose`` and ``induce`` are exact and never load numpy; numpy
loads only where it is used: for ``orbit``, and for the schur-weyl and
orbit sections of ``verify-all`` (``tensor.projector_family_check`` and
the float side ``classical``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

from . import weights as W
from .errors import (BadWeight, ForgeError, RankTooSmall, ShapeMismatch,
                     TooLarge)
from .fock import verify_howe, verify_kv
from .rieffel import emptiness_survey, induce_compact, \
    induce_noncompact_graded
from .tensor import projector_family_check

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2

CLASSICAL_WEIGHTS = (
    ((1,), ()), ((2, 1), ()), ((1,), (1,)), ((2, 1), (1,)), ((2, 2), (1,)),
)

SHIFT_CHECKS = (
    # context, argument, keywords, side, expected entries
    ("dec2", 2, {"k": 4}, "left", (Fraction(5, 2),) + (Fraction(1, 2),) * 3),
    ("dec2", 2, {"k": 4}, "right", (Fraction(4),)),
    ("dec2", 0, {"k": 2}, "left", (Fraction(1, 2), Fraction(1, 2))),
    ("howehf", (), {"k": 2, "M": 2}, "left", (Fraction(1), Fraction(1))),
    ("howehf", (2, 1), {"k": 3, "M": 2}, "right",
     (Fraction(7, 2), Fraction(5, 2))),
    ("howehf", (1,), {"k": 2, "M": 1}, "left",
     (Fraction(3, 2), Fraction(1, 2))),
    ("kave", ((1,), (1,)), {"k": 3, "M": 1, "N": 1}, "right",
     (Fraction(4), Fraction(-1))),
    ("kave", ((1,), (1,)), {"k": 3, "M": 1, "N": 1}, "left",
     (Fraction(1), Fraction(0), Fraction(-1))),
    ("kave", ((2,), (1,)), {"k": 2, "M": 1, "N": 1}, "right",
     (Fraction(4), Fraction(-1))),
    ("kave2", ((1,), (1,)), {"k": 3, "M": 1, "N": 1}, "right",
     (Fraction(5, 2), Fraction(-5, 2))),
    ("kave2", ((2,), (1,)), {"k": 2, "M": 1, "N": 1}, "right",
     (Fraction(3), Fraction(-2))),
    ("kave2", ((1,), (1,)), {"k": 2, "M": 1, "N": 1}, "left",
     (Fraction(1), Fraction(-1))),
)


@dataclass(frozen=True)
class RunConfig:
    """Grid parameters for verify-all; every field can come from a config
    file or a flag, with flags winning."""

    kmax: int = 3
    mmax: int = 2
    nmax: int = 1
    degree: int = 4
    tolerance: float = 1e-9
    seed: int = 0
    seeds: int = 5
    fmt: str = "tsv"
    output: str = ""

    def __post_init__(self):
        if min(self.kmax, self.mmax, self.nmax, self.seeds) < 1:
            raise ShapeMismatch("kmax, mmax, nmax and seeds must be at least 1")
        if self.degree < 0:
            raise ShapeMismatch("degree must be nonnegative")
        if self.seed < 0:
            raise ShapeMismatch("seed must be nonnegative")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ShapeMismatch("tolerance must be finite and positive")
        if self.fmt not in ("tsv", "json"):
            raise ShapeMismatch(f"unknown format {self.fmt!r}")


def load_config(path: str) -> dict:
    """key=value lines; values coerced to the RunConfig field types."""
    types = {f.name: f.type for f in fields(RunConfig)}
    coerce = {"int": int, "float": float, "str": str}
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ShapeMismatch(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in types:
                raise ShapeMismatch(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = coerce[types[key]](value)
            except ValueError as exc:
                raise ShapeMismatch(
                    f"{path}:{lineno}: cannot read {key}={value!r} "
                    f"as {types[key]}") from exc
    return out


# ---------------------------------------------------------------------------
# small parsing/printing helpers


def parse_int_tuple(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ShapeMismatch(f"cannot parse integers from {text!r}") from exc


def parse_fraction_tuple(text: str) -> tuple[Fraction, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(Fraction(p) for p in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ShapeMismatch(f"cannot parse fractions from {text!r}") from exc


def parse_signed_blocks(text: str) -> W.SignedWeight:
    """'2,1:1' -> blocks m=(2,1), n=(1); either side may be empty."""
    if ":" not in text:
        raise ShapeMismatch(f"signed blocks need a colon, got {text!r}")
    left, _, right = text.partition(":")
    return W.SignedWeight(parse_int_tuple(left), parse_int_tuple(right))


def halved_text(doubled) -> str:
    return ",".join(str(Fraction(d, 2)) for d in doubled)


def tsv(header, rows) -> str:
    lines = ["\t".join(header)]
    lines.extend("\t".join(str(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def finish(js, ok, fmt: str, output: str, header=(), rows=()) -> int:
    """Write a report to ``output``, or to stdout when that is empty, as
    sorted-key JSON or as its TSV table and a PASS/FAIL line, and return
    its exit code."""
    if fmt == "json":
        text = json.dumps(js, sort_keys=True, indent=2) + "\n"
    else:
        text = tsv(header, rows) + ("PASS\n" if ok else "FAIL\n")
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_FALSIFIED


def grid_map(fn, cells, name: str) -> dict:
    """One verify-all section: ``fn`` over its cells in order, each
    returning a dict with an ``ok`` flag."""
    rows = [fn(c) for c in cells]
    return {"name": name, "cells": rows, "ok": all(r["ok"] for r in rows)}


# ---------------------------------------------------------------------------
# subcommands


def cmd_decompose(args) -> int:
    if args.k < 1 or args.m < 1 or args.deg < 0 or (args.n or 0) < 0:
        return fail_usage("need k >= 1, m >= 1, deg >= 0, n >= 0")
    if args.n:
        rep = verify_kv(args.k, args.m, args.n, args.deg, args.convention)
        js, rows = rep.to_json(), []
        for deg in js["bidegrees"]:
            p, q = deg["bidegree"]
            for match in deg["matches"]:
                rows.append((
                    p, q,
                    ",".join(str(x) for x in match["label_m"]),
                    ",".join(str(x) for x in match["label_n"]),
                    halved_text(match["mn_weight_doubled"]),
                    halved_text(match["uk_weight_doubled"]),
                    "ok" if match["ok"] else "FAIL",
                ))
            if deg["unexplained"]:
                rows.append((p, q, "-", "-", "-", "-",
                             f"{deg['unexplained']} unexplained"))
        header = ("p", "q", "label_m", "label_n", "mn_weight", "uk_weight",
                  "status")
    else:
        rep = verify_howe(args.k, args.m, args.deg, args.convention)
        js = rep.to_json()
        rows = [(deg["degree"],
                 ",".join(str(x) for x in term["label"]) or "-",
                 term["dim_k"], term["dim_M"], term["product"],
                 deg["commutant"], deg["commutant_route"],
                 "ok" if deg["ok"] else "FAIL")
                for deg in js["degrees"] for term in deg["cauchy"]["terms"]]
        header = ("degree", "label", "dim_k", "dim_m", "product", "commutant",
                  "route", "status")
    return finish(js, rep.ok, args.format, args.output, header, rows)


def cmd_induce(args) -> int:
    if args.format != "json":
        return fail_usage("induce prints a JSON report only; use --format json")
    if args.k < 1:
        return fail_usage("need k >= 1")
    if args.m_group is not None:
        if args.weight is None:
            return fail_usage("--m-group needs --weight")
        unused = [flag for flag, value in (("--halfint", args.halfint),
                                           ("--signed", args.signed))
                  if value is not None]
        if unused:
            return fail_usage(f"--m-group takes no {', '.join(unused)}")
        m = W.partition(parse_int_tuple(args.weight))
        if len(m) > args.m_group:
            return fail_usage(
                f"weight has {len(m)} rows, the group only {args.m_group}")
        mod = induce_compact(args.k, args.m_group, m)
    else:
        try:
            M, N = parse_int_tuple(args.mn_group)
        except (ShapeMismatch, ValueError):
            return fail_usage(f"cannot parse --mn-group {args.mn_group!r}")
        given = [x for x in (args.weight, args.halfint, args.signed)
                 if x is not None]
        if len(given) != 1:
            return fail_usage(
                "give exactly one of --weight / --halfint / --signed")
        if args.signed is not None:
            blocks = parse_signed_blocks(args.signed)
            pm, pn = W.partition(blocks.m), W.partition(blocks.n)
            for block, rows, cap in (("m", pm, M), ("n", pn, N)):
                if 0 < cap < len(rows):  # a bad group fails in the induction
                    return fail_usage(f"block {block} has {len(rows)} rows, "
                                      f"the group only {cap}")
            weight = blocks.shifted(args.k, M, N)
        else:
            raw = args.weight if args.weight is not None else args.halfint
            weight = parse_fraction_tuple(raw)
        mod = induce_noncompact_graded(args.k, M, N, weight)
    ok = {"any": True, "empty": mod.empty, "nonempty": not mod.empty}
    return finish(mod.to_json(), ok[args.expect], "json", args.output)


def cmd_orbit(args) -> int:
    from . import classical as C
    if args.k < 1 or args.seeds < 1 or args.seed < 0:
        return fail_usage("need k >= 1, seeds >= 1 and seed >= 0")
    if not (math.isfinite(args.tol) and args.tol > 0):
        return fail_usage("tolerance must be finite and positive")
    weight = W.SignedWeight(parse_int_tuple(args.m), parse_int_tuple(args.n))
    reports = [C.verify_orbit(C.sample_level_set(weight, args.k, seed),
                              args.tol)
               for seed in range(args.seed, args.seed + args.seeds)]
    ok = all(r["ok"] for r in reports)
    rows = [(r["seed"],
             ",".join(f"{x:.6f}" for x in r["spectrum"]),
             f"{r['max_dev']:.3e}",
             *("ok" if r["checks"][c] else "FAIL"
               for c in ("pairing", "invariance", "stabilizer")),
             "ok" if r["ok"] else "FAIL") for r in reports]
    return finish({"ok": ok, "cells": reports}, ok, args.format, args.output,
                  ("seed", "spectrum", "max_dev", "pairing", "invariance",
                   "stabilizer", "status"), rows)


# ---------------------------------------------------------------------------
# the umbrella grid


def run_verify_all(cfg: RunConfig) -> dict:
    sections = []

    pf_cells = [(n, k) for n in (2, 3, 4) for k in (2, 3) if k <= cfg.kmax + 1]
    def pf(cell):
        n, k = cell
        rep = projector_family_check(n, k)
        good = rep["complete"] and rep["idempotent"] and rep["orthogonal"]
        good = good and sum(rep["ranks"].values()) == k ** n
        good = good and all(
            rank == W.sn_dim(lam) * W.weyl_dim(lam, k)
            for lam, rank in rep["ranks"].items())
        return {"cell": f"n={n} k={k}", "ok": good}
    sections.append(grid_map(pf, pf_cells, "schur-weyl"))

    howe_cells = [(k, M) for k in range(1, cfg.kmax + 1)
                  for M in range(1, cfg.mmax + 1)]
    def howe(cell):
        k, M = cell
        rep = verify_howe(k, M, cfg.degree)
        return {"cell": f"k={k} M={M}", "ok": rep.ok}
    sections.append(grid_map(howe, howe_cells, "howe"))

    kv_cells = [(k, M, N, conv)
                for k in range(1, cfg.kmax + 1)
                for M in range(1, cfg.mmax + 1)
                for N in range(1, min(M, cfg.nmax) + 1)
                for conv in ("sq", "hf")]
    def kv(cell):
        k, M, N, conv = cell
        rep = verify_kv(k, M, N, cfg.degree, conv)
        return {"cell": f"k={k} M={M} N={N} {conv}", "ok": rep.ok}
    sections.append(grid_map(kv, kv_cells, "lowest-type"))

    comp_cells = [(k, M, m)
                  for k in range(1, cfg.kmax + 1)
                  for M in range(1, cfg.mmax + 1)
                  for tot in range(0, min(cfg.degree, 3) + 1)
                  for m in W.partitions_of(tot, max_rows=M)]
    def compact(cell):
        k, M, m = cell
        mod = induce_compact(k, M, m)
        good = mod.dimension == W.weyl_dim(m, k) and mod.sound
        if mod.dimension:
            good = good and mod.highest_weight == W.padded(m, k)
        return {"cell": f"k={k} M={M} m={m}", "ok": good}
    sections.append(grid_map(compact, comp_cells, "compact-induction"))

    empt_cells = [(k, M, N) for k in range(1, cfg.kmax + 1)
                  for M in range(1, cfg.mmax + 1)
                  for N in range(1, min(M, cfg.nmax) + 1)]
    def empt(cell):
        k, M, N = cell
        rep = emptiness_survey(k, M, N, cfg.degree)
        return {"cell": f"k={k} M={M} N={N}", "ok": rep["ok"],
                "collisions": len(rep["collisions"])}
    sections.append(grid_map(empt, empt_cells, "emptiness"))

    orb_cells = []
    for m, n in CLASSICAL_WEIGHTS:
        rows = len(m) + len(n)
        for k in range(rows, max(rows, cfg.kmax) + 1):
            orb_cells.append((m, n, k))
    from . import classical as C
    def orbit(cell):
        m, n, k = cell
        good = True
        for seed in range(cfg.seed, cfg.seed + cfg.seeds):
            rep = C.verify_orbit(
                C.sample_level_set(W.SignedWeight(m, n), k, seed),
                cfg.tolerance)
            good = good and rep["ok"]
        return {"cell": f"m={m} n={n} k={k}", "ok": good}
    sections.append(grid_map(orbit, orb_cells, "orbit"))

    def shift(check):
        context, arg, kwargs, side, expected = check
        conv = "sq" if context == "kave" else "hf"
        got = W.shift_weight(arg, conv, context, side=side, **kwargs)
        return {"cell": f"{context} {arg} {side}",
                "ok": got.entries == expected}
    sections.append(grid_map(shift, SHIFT_CHECKS, "shift-bookkeeping"))

    return {"ok": all(s["ok"] for s in sections), "seed": cfg.seed,
            "sections": sections}


def cmd_verify_all(args) -> int:
    overrides = {}
    if args.config:
        overrides.update(load_config(args.config))
    for name in ("kmax", "mmax", "nmax", "degree", "tolerance", "seed",
                 "seeds"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if args.format is not None:
        overrides["fmt"] = args.format
    if args.output:
        overrides["output"] = args.output
    cfg = RunConfig(**overrides)
    report = run_verify_all(cfg)
    rows = [(s["name"], len(s["cells"]), "ok" if s["ok"] else "FAIL")
            for s in report["sections"]]
    return finish(report, report["ok"], cfg.fmt, cfg.output,
                  ("section", "cells", "status"), rows)


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="howe-forge",
        description="Exact duality decompositions, induced modules, and "
                    "floating-point orbit checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("tsv", "json"), default=None,
                        help="tsv tables or json reports")
    common.add_argument("--output", default="",
                        help="write to this path instead of stdout")

    p = sub.add_parser(
        "decompose", parents=[common],
        help="per-degree duality tables",
        epilog="TSV columns: degree/label/dim_k/dim_m/product/commutant/"
               "route/status for one group, p/q/label_m/label_n/mn_weight/"
               "uk_weight/status with --n (mn_weight is the shifted "
               "(m+k, n) column).")
    p.add_argument("--k", type=int, required=True, help="rank of the big group")
    p.add_argument("--m", type=int, required=True, help="rows of the first block")
    p.add_argument("--n", type=int, default=0, help="rows of the second block")
    p.add_argument("--deg", type=int, default=3, help="degree window")
    p.add_argument("--convention", choices=("sq", "hf"), default="sq")
    p.set_defaults(fn=cmd_decompose, fmt_default="tsv")

    p = sub.add_parser(
        "induce", parents=[common],
        help="one induced module as a JSON report",
        epilog="Weights: --weight 2,1 (integers), --halfint 9/2,-3/2 "
               "(fractions), --signed 2,1:1 (label blocks m:n, shifted by "
               "+k on the left block).")
    p.add_argument("--k", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m-group", type=int,
                       help="compact induction from U(M), M = this value")
    group.add_argument("--mn-group",
                       help="graded induction from U(M,N), as 'M,N'")
    p.add_argument("--weight", help="comma-separated weight entries")
    p.add_argument("--halfint", help="comma-separated half-integer entries")
    p.add_argument("--signed", help="label blocks 'm:n', e.g. 2,1:1")
    p.add_argument("--expect", choices=("any", "empty", "nonempty"),
                   default="any",
                   help="exit 0 only on this outcome")
    p.set_defaults(fn=cmd_induce, fmt_default="json")

    p = sub.add_parser(
        "orbit", parents=[common],
        help="level-set spectrum reports per seed",
        epilog="TSV columns: seed/spectrum/max_dev/pairing/invariance/"
               "stabilizer/status.")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", default="", help="positive block, e.g. 2,1")
    p.add_argument("--n", default="", help="negative block, e.g. 1")
    p.add_argument("--seeds", type=int, default=10, help="number of seeds")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--tol", type=float, default=RunConfig.tolerance)
    p.set_defaults(fn=cmd_orbit, fmt_default="tsv")

    p = sub.add_parser(
        "verify-all", parents=[common],
        help="run the whole verification grid (CI entry point)",
        epilog="Config file: key=value lines with the RunConfig fields "
               "(kmax, mmax, nmax, degree, tolerance, seed, seeds, fmt, "
               "output); flags override the file.")
    p.add_argument("--config", default="", help="key=value config file")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--mmax", type=int, default=None)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seeds", type=int, default=None)
    # no default: the config file's fmt applies, else RunConfig's
    p.set_defaults(fn=cmd_verify_all, fmt_default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "format", None) is None:
        args.format = args.fmt_default
    try:
        return args.fn(args)
    except ShapeMismatch as exc:
        return fail_usage(str(exc))
    except (RankTooSmall, BadWeight, TooLarge) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except ForgeError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except OSError as exc:
        return fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
