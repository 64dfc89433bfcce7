"""Source rules for the package, checked on its syntax trees: no
``assert`` statements (``python -O`` strips them, so invariants raise
``ForgeError`` subclasses instead), no bare ``except:`` or
``except Exception``, no unused imports, no true division that could
make a float in the exact layers, no module but ``tensor.py`` that
reads the echelon of a ``ReducedSpan``, no reference to the Fock
operator matrix wrappers but their definitions (solves and the bracket
check read generator images), no import of scipy, whose ``linalg`` once
took most of the command line's start-up (``howe_forge.cli`` loads
without it), and no private function or method that nothing in the
package references."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from howe_forge.tensor import ReducedSpan

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "howe_forge"
SOURCES = sorted(PACKAGE.glob("*.py"))
BROAD = {"Exception", "BaseException"}
FLOAT_SIDE = {"classical.py"}  # the seeded float64 orbit checks
EXACT_CONSTANTS = {"_F0", "_F1"}  # Fraction(0) and Fraction(1)
SPAN_HOME = "tensor.py"
# the span's private pivot index, and the (pivot, row) list it replaced
SPAN_ECHELON = {"echelon"} | {
    name for name in ReducedSpan.__slots__ if name.startswith("_")}
FOCK_OPS = {"gl_k_op", "gl_m_op", "gl_n_op", "raiser_op", "lowerer_op"}


def tree_of(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def where(path, node):
    return f"{path.name}:{node.lineno}"


def asserts(tree, path):
    return [where(path, n) for n in ast.walk(tree)
            if isinstance(n, ast.Assert)]


def broad_handlers(tree, path):
    out = []
    for n in ast.walk(tree):
        if not isinstance(n, ast.ExceptHandler):
            continue
        caught = (n.type.elts if isinstance(n.type, ast.Tuple)
                  else [n.type])
        if n.type is None or any(isinstance(t, ast.Name) and t.id in BROAD
                                 for t in caught):
            out.append(where(path, n))
    return out


def unused_imports(tree, path):
    """Names bound by an import and never loaded; ``__all__`` entries
    count as uses."""
    bound = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            for a in n.names:
                bound[a.asname or a.name.partition(".")[0]] = n
        elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
            for a in n.names:
                bound[a.asname or a.name] = n
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for n in ast.walk(tree):
        if isinstance(n, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in n.targets):
            used.update(ast.literal_eval(n.value))
    return [f"{where(path, node)} {name}" for name, node in bound.items()
            if name not in used]


def float_divisions(tree, path):
    """True divisions (``/`` and ``/=``) outside the float side whose left
    operand is not a Fraction, i.e. neither a ``Fraction(...)`` call nor
    ``_F0``/``_F1``: on two ints such a division makes a float."""
    if path.name in FLOAT_SIDE:
        return []
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div):
            left = n.left
        elif isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Div):
            left = n.target
        else:
            continue
        exact = (isinstance(left, ast.Call) and isinstance(left.func, ast.Name)
                 and left.func.id == "Fraction") or (
            isinstance(left, ast.Name) and left.id in EXACT_CONSTANTS)
        if not exact:
            out.append(where(path, n))
    return out


def span_echelon_reads(tree, path):
    """Attribute reads of a ``ReducedSpan``'s echelon outside
    ``tensor.py``: other modules use its ``rows`` and methods only."""
    if path.name == SPAN_HOME:
        return []
    return [f"{where(path, n)} .{n.attr}" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr in SPAN_ECHELON]


def fock_operator_calls(tree, path):
    """References to the Fock matrix wrappers; their definitions in
    ``fock.py`` are not references."""
    return [f"{where(path, n)} .{n.attr}" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr in FOCK_OPS]


def scipy_imports(tree, path):
    """Imports of scipy or of any of its submodules."""
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            names = [a.name for a in n.names]
        elif isinstance(n, ast.ImportFrom) and not n.level:
            names = [n.module]
        else:
            continue
        out += [f"{where(path, n)} {name}" for name in names
                if name.partition(".")[0] == "scipy"]
    return out


def referenced_names(trees):
    """Every name read as a variable or an attribute in the trees."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unreferenced_privates(tree, path, used=None):
    """Module-level private functions and private methods whose name is
    not in ``used``, the names the package references (by default those
    of this tree alone); dunder methods are called by the language."""
    if used is None:
        used = referenced_names([tree])
    defs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            defs += [n for n in cls.body if isinstance(n, ast.FunctionDef)]
    return [f"{where(path, n)} {n.name}" for n in defs
            if n.name.startswith("_") and not n.name.endswith("__")
            and n.name not in used]


def test_the_package_has_sources():
    assert PACKAGE / "tensor.py" in SOURCES


@pytest.mark.parametrize("rule", [asserts, broad_handlers, unused_imports,
                                  float_divisions, span_echelon_reads,
                                  fock_operator_calls, scipy_imports])
def test_package_sources_keep_the_rule(rule):
    bad = [hit for path in SOURCES for hit in rule(tree_of(path), path)]
    assert bad == []


def test_every_private_helper_is_referenced():
    trees = {path: tree_of(path) for path in SOURCES}
    used = referenced_names(trees.values())
    assert [hit for path, tree in trees.items()
            for hit in unreferenced_privates(tree, path, used)] == []


@pytest.mark.parametrize("rule,source", [
    (asserts, "def f(x):\n    assert x\n"),
    (broad_handlers, "try:\n    pass\nexcept:\n    pass\n"),
    (broad_handlers,
     "try:\n    pass\nexcept (KeyError, Exception):\n    pass\n"),
    (unused_imports, "import os\nfrom math import gcd, lcm\nx = lcm(2, 3)\n"),
    (float_divisions, "def f(a, p):\n    return a[0] / p\n"),
    (float_divisions, "def f(x):\n    x /= 2\n    return x\n"),
    (float_divisions, "y = Fraction(1) * 3 / 4\n"),
    (span_echelon_reads, "basis = [row for _, row in span.echelon]\n"),
    (span_echelon_reads, "def f(span, c):\n    return c in span._pivots\n"),
    (fock_operator_calls,
     "def solve(model, piece):\n    return model.raiser_op(0, 0, piece)\n"),
    (scipy_imports, "from scipy.linalg import expm\n"),
    (scipy_imports, "import numpy as np, scipy.linalg as sla\n"),
    (unreferenced_privates, "def _gone(x):\n    return x\n"),
    (unreferenced_privates,
     "class A:\n    def _gone(self):\n        return 1\n"),
])
def test_each_rule_catches_a_violation(rule, source):
    path = Path("example.py")
    assert rule(ast.parse(source), path)


def test_rules_pass_clean_code():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom math import gcd as g\n"
              "try:\n    x = g(os.path.sep, 2)\n"
              "except ValueError:\n    pass\n"
              "y = Fraction(x) / 3 + _F1 / x - x // 2\n")
    tree, path = ast.parse(source), Path("example.py")
    assert not asserts(tree, path) + broad_handlers(tree, path) \
        + unused_imports(tree, path) + float_divisions(tree, path) \
        + span_echelon_reads(tree, path) + fock_operator_calls(tree, path) \
        + scipy_imports(tree, path) + unreferenced_privates(tree, path)


def test_the_float_side_may_divide():
    tree = ast.parse("def f(a, p):\n    return a / p\n")
    assert float_divisions(tree, Path("example.py"))
    assert not float_divisions(tree, Path("classical.py"))


def test_only_the_span_module_reads_the_echelon():
    tree = ast.parse("def f(span, c):\n    return span.rows[span._pivots[c]]\n")
    assert span_echelon_reads(tree, Path("rieffel.py"))
    assert not span_echelon_reads(tree, Path("tensor.py"))
    assert "_pivots" in SPAN_ECHELON


def test_no_module_builds_fock_operators():
    source = ("class FockModel:\n"
              "    def gl_k_op(self, i, j, piece):\n"
              "        return self._operator('k', i, j, piece)\n"
              "    def bracket_failures(self, piece):\n"
              "        return self.gl_k_op(0, 1, piece)\n")
    tree = ast.parse(source)
    assert fock_operator_calls(tree, Path("fock.py")) == ["fock.py:5 .gl_k_op"]
    assert fock_operator_calls(tree, Path("rieffel.py")) == [
        "rieffel.py:5 .gl_k_op"]


def test_a_private_helper_may_be_used_from_another_module():
    home = ast.parse("def _helper():\n    return 1\n\n"
                     "class A:\n    def __init__(self):\n        pass\n")
    other = ast.parse("from home import _helper\nx = _helper()\n")
    assert unreferenced_privates(home, Path("home.py")) == [
        "home.py:1 _helper"]
    used = referenced_names([home, other])
    assert unreferenced_privates(home, Path("home.py"), used) == []


def test_the_command_line_loads_without_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, howe_forge.cli\n"
             "print(sorted(m for m in sys.modules"
             " if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
