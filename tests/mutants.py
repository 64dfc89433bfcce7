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
