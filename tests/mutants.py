"""A mutation runner: each mutant patches one exact text of the package
and names the tests that must fail on it.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named ones

For each mutant the tree is copied to a temporary directory, the one
patch applied there, and its tests run with pytest.  It prints KILLED
when a named test fails and SURVIVED when they all pass, and exits 1 if
any mutant survived or its run went wrong.  The tree itself is never
written.  The runs take a few seconds each, so this stays out of Tier-1
(pytest collects no file without the ``test_`` prefix); a Tier-1 test
only checks that the list below still fits the tree.  Stdlib only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                              ".hypothesis")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root


MUTANTS = (
    Mutant("cleared-returns-the-callers-dict",
           "src/howe_forge/tensor.py",
           "        return dict(vec), 1\n",
           "        return vec, 1\n",
           ("tests/test_tensor.py::test_integer_rows_against_dense_oracle",)),
    Mutant("insert-skips-the-content-division",
           "src/howe_forge/tensor.py",
           "        if g != 1:\n            for c in v:\n"
           "                v[c] //= g\n",
           "",
           ("tests/test_tensor.py::test_integer_rows_against_dense_oracle",)),
    Mutant("orbit-marking-writes-one-column",
           "src/howe_forge/fock.py",
           "table[m[p]][m[q]] = nvars",
           "table[m[p]][q] = nvars",
           ("tests/test_fock.py::"
            "test_weyl_reduced_rows_are_the_distinct_unreduced_rows[2-2]",)),
    Mutant("roots-reduced-by-the-blocks-stabilizer",
           "src/howe_forge/fock.py",
           "            fixing = [h for h, m in zip(stabilizer, moved)"
           " if m[p] == p]\n",
           "            fixing = stabilizer\n",
           ("tests/test_fock.py::"
            "test_weyl_reduced_rows_are_the_distinct_unreduced_rows[2-2]",)),
    Mutant("positive-definite-accepts-a-zero-pivot",
           "src/howe_forge/tensor.py",
           "        if p <= 0:\n",
           "        if p < 0:\n",
           ("tests/test_rieffel.py::test_ldl_positive_against_dense_oracle",)),
    Mutant("positive-definite-scans-the-pivot-rows-support",
           "src/howe_forge/tensor.py",
           "        for row in rows[i + 1:]:  # every later row, not prow's"
           " support\n",
           "        for row in [rows[j] for j in prow if j > i]:\n",
           ("tests/test_rieffel.py::test_ldl_positive_against_dense_oracle",)),
    Mutant("highest-vector-drops-the-sign",
           "src/howe_forge/rieffel.py",
           "perm_inverse(q)): W.perm_sign(q)",
           "perm_inverse(q)): 1",
           ("tests/test_rieffel.py::"
            "test_word_readers_match_the_whole_operators[2]",)),
    Mutant("diagonal-pair-shift-has-the-wrong-sign",
           "src/howe_forge/tensor.py",
           "shift = (p == x) - (p == y) if f == g else 0",
           "shift = (p == y) - (p == x) if f == g else 0",
           ("tests/test_fock.py::"
            "test_bracket_check_reports_a_cross_family_fault",)),
    Mutant("grid-map-reverses-the-cells",
           "src/howe_forge/cli.py",
           "    rows = [fn(c) for c in cells]\n",
           "    rows = [fn(c) for c in reversed(list(cells))]\n",
           ("tests/test_cli.py::"
            "test_verify_all_seed_1_report_is_frozen[json]",)),
    Mutant("signed-blocks-keep-trailing-zeros",
           "src/howe_forge/cli.py",
           "pm, pn = W.partition(blocks.m), W.partition(blocks.n)",
           "pm, pn = blocks.m, blocks.n",
           ("tests/test_cli.py::"
            "test_induce_signed_blocks_drop_trailing_zeros",)),
    Mutant("report-json-keeps-inner-tuples",
           "src/howe_forge/weights.py",
           "        return [as_json(v) for v in value]\n",
           "        return list(value)\n",
           ("tests/test_fock.py::test_verify_howe_small_report",)),
    Mutant("as-json-lists-named-tuples",
           "src/howe_forge/weights.py",
           "    if isinstance(value, tuple) and hasattr(value, \"_fields\"):\n"
           "        return {f: as_json(v) for f, v in zip(value._fields,"
           " value)}\n",
           "",
           ("tests/test_weights.py::test_cauchy_json_is_frozen",)),
    Mutant("stability-ok-ignores-stable",
           "src/howe_forge/fock.py",
           '"ok": stable and all(r.ok for r in reports.values())',
           '"ok": all(r.ok for r in reports.values())',
           ("tests/test_fock.py::"
            "test_stability_ok_needs_stable_labels_and_every_rank[labels]",)),
    Mutant("finish-prints-pass-always",
           "src/howe_forge/cli.py",
           '("PASS\\n" if ok else "FAIL\\n")',
           '"PASS\\n"',
           ("tests/test_cli.py::"
            "test_verify_all_tolerance_below_rounding_is_a_fail_verdict",)),
    Mutant("finish-exits-ok-always",
           "src/howe_forge/cli.py",
           "    return EXIT_OK if ok else EXIT_FALSIFIED\n",
           "    return EXIT_OK\n",
           ("tests/test_cli.py::test_induce_expected_emptiness",)),
    Mutant("shifted-keeps-the-n-block-unreversed",
           "src/howe_forge/weights.py",
           "        return padded(m, M), padded(n, N)[::-1]\n",
           "        return padded(m, M), padded(n, N)\n",
           ("tests/test_rieffel.py::"
            "test_k4_emptiness_survey_reports_are_frozen",)),
    Mutant("unshifted-tests-dominance-before-the-rank",
           "src/howe_forge/weights.py",
           "        if any(x < 0 for x in m):\n"
           "            raise BadWeight(f\"entry below the rank: {min(xs)}"
           " < {k}\")\n"
           "        if any(b[i] < b[i + 1] for b in (m, n)"
           " for i in range(len(b) - 1)):\n"
           "            raise BadWeight(\"weight blocks are not dominant\")\n",
           "        if any(b[i] < b[i + 1] for b in (m, n)"
           " for i in range(len(b) - 1)):\n"
           "            raise BadWeight(\"weight blocks are not dominant\")\n"
           "        if any(x < 0 for x in m):\n"
           "            raise BadWeight(f\"entry below the rank: {min(xs)}"
           " < {k}\")\n",
           ("tests/test_weights.py::"
            "test_unshifted_names_why_no_label_shifts_to_a_weight"
            "[below-rank]",)),
    Mutant("read-keeps-the-n-block-unreversed",
           "src/howe_forge/weights.py",
           "n = tuple(-x for x in reversed(rows) if x < 0)",
           "n = tuple(-x for x in rows if x < 0)",
           ("tests/test_fock.py::"
            "test_labels_read_back_and_find_their_blocks[2-sq]",)),
    Mutant("verify-all-format-default-wins",
           "src/howe_forge/cli.py",
           "fmt_default=None)",
           'fmt_default="tsv")',
           ("tests/test_cli.py::"
            "test_verify_all_config_file_format_applies[file-json]",)),
    Mutant("projector-family-ok-drops-the-rank-rule",
           "src/howe_forge/tensor.py",
           "        and sum(ranks.values()) == k ** n\n"
           "        and all(rank == W.sn_dim(lam) * W.weyl_dim(lam, k)\n"
           "                for lam, rank in ranks.items()),\n",
           "        and sum(ranks.values()) == k ** n,\n",
           ("tests/test_tensor.py::"
            "test_projector_family_check_ok_needs_every_rank",)),
    Mutant("irreducible-skips-the-dimension",
           "src/howe_forge/rieffel.py",
           "    return (mod.sound and mod.highest_weight == hw\n"
           "            and mod.dimension == W.signed_weight_dim(hw, mod.k))\n",
           "    return mod.sound and mod.highest_weight == hw\n",
           ("tests/test_rieffel.py::"
            "test_irreducible_rejects_a_module_off_its_label"
            "[wrong-dimension]",)),
    Mutant("orbit-report-reads-its-first-seed-only",
           "src/howe_forge/classical.py",
           'return {"ok": all(r["ok"] for r in cells), "cells": cells}',
           'return {"ok": cells[0]["ok"], "cells": cells}',
           ("tests/test_classical.py::test_orbit_report_needs_every_seed",)),
)


def child_env(src: Path) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    return env


def run(mutant: Mutant) -> str:
    """KILLED, SURVIVED, or ERROR when the patch or the run went wrong
    (pytest exits 1 only for failed tests)."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        target = tree / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "ERROR"
        target.write_text(text.replace(mutant.old, mutant.new),
                          encoding="utf-8")
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *mutant.tests],
            cwd=tree, env=child_env(tree / "src"), capture_output=True,
            text=True)
    return {0: "SURVIVED", 1: "KILLED"}.get(out.returncode, "ERROR")


def main() -> int:
    names = sys.argv[1:]
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in chosen}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2
    verdicts = []
    for m in chosen:
        verdicts.append(run(m))
        print(f"{verdicts[-1]}\t{m.name}", flush=True)
    return 0 if all(v == "KILLED" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
