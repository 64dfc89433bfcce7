"""The mutant list of ``tests/mutants.py`` still fits the tree.  Running
the mutants takes minutes, so Tier-1 checks only that each patch applies
and that each test it names is collected."""

import subprocess
import sys

from mutants import MUTANTS, ROOT, child_env


def test_each_mutant_patches_one_text_and_names_collected_tests():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        text = (ROOT / m.path).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, m.name
        assert m.old != m.new and m.tests, m.name
    ids = sorted({t for m in MUTANTS for t in m.tests})
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p",
         "no:cacheprovider", *ids],
        cwd=ROOT, env=child_env(ROOT / "src"), capture_output=True,
        text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    collected = {line for line in out.stdout.splitlines() if "::" in line}
    assert collected == set(ids)
