"""Source rules for the package, checked on its syntax trees: no
``assert`` statements (``python -O`` strips them, so invariants raise
``ForgeError`` subclasses instead), no bare ``except:`` or
``except Exception``, no unused imports, no true division that could
make a float in the exact layers, no module but ``tensor.py`` that
reads the echelon of a ``ReducedSpan`` or takes the length of a
``ReducedSpan(...)`` (rank solves go through ``tensor.rank_of_rows``,
which orders the rows), no reference to the Fock operator wrappers but
their definitions (solves and the bracket check read generator
images), no definition, import or mention of the test
oracle's matrix type ``ExactOperator`` (the package's one operator form
is image terms), no definition, import or mention of the oracle's
label <-> position map ``IndexedBasis`` and no ``.ordinal(`` call
(vectors and image terms are keyed by their labels), no import of
scipy, whose ``linalg`` once took most of the command line's start-up
(``howe_forge.cli`` loads without it), no import of numpy at module
level outside the float side ``classical.py`` (the exact command line
loads it only where an orbit check or the projectors' int64 kernel
runs), no import of ``concurrent.futures``, ``threading`` or
``multiprocessing`` (the grid is exact arithmetic in pure Python, which
holds the GIL, and a thread pool over its cells was measured slower than
running them in order), no module but ``fock.py`` that
reads a Fock model's convention constants ``c_k``, ``c_m`` or ``c_n``
(weights travel as weight keys, which ``FockModel.dressed_weights``
dresses), no ``.standard_normal(`` call inside a ``for``, a
``while`` or a comprehension (a batch of samples takes one draw), no
``to_json`` in a class but ``weights.Report`` and the induced modules
``InducedModule`` and ``Empty``, whose JSON renames their fields, and
none in a class that derives from ``Report`` (a report's JSON is its
fields, which the base serializes), no ``(0,) * n`` outside
``weights.py`` (a label block is padded by ``weights.padded``, and the
two-block label layout lives in ``weights`` alone), no ``reversed(``
call or ``[::-1]`` slice outside ``weights.py`` but the float side's
descending sort of ``eigvalsh``'s eigenvalues (a label's n block is
reversed in ``weights`` alone), no private function or
method
that nothing in the package references, no public function, class
or method that only the tests reference, and no import of another
module's private name and no read of one as ``W._x`` (the elimination
helpers of ``tensor`` stay behind its public routines), and no mention
in ``cli.py`` of a dimension formula (``weyl_dim``, ``sn_dim``,
``signed_weight_dim``) or of the per-seed orbit check (``verify_orbit``,
``sample_level_set``): every verdict the command line prints is the
``ok`` of the module that runs the check."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from howe_forge.tensor import ReducedSpan

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "howe_forge"
SOURCES = sorted(PACKAGE.glob("*.py"))
# the package's users besides the tests
USERS = sorted((ROOT / "perfbench").glob("*.py"))
# public names that only the tests reference, each with its reason
TEST_ONLY_PUBLIC = {
    # acceptance criterion 3 reads it: a wrong-degree piece of the compact
    # induction has no invariants, which no report of the package shows
    "degree_selection_check",
}
BROAD = {"Exception", "BaseException"}
FLOAT_SIDE = {"classical.py"}  # the seeded float64 orbit checks
SPAN_HOME = "tensor.py"
# the span's private pivot index, and the (pivot, row) list it replaced
SPAN_ECHELON = {"echelon"} | {
    name for name in ReducedSpan.__slots__ if name.startswith("_")}
FOCK_OPS = {"gl_k_op", "gl_m_op", "gl_n_op", "raiser_op", "lowerer_op"}
ORACLE_MATRIX = "ExactOperator"  # lives in tests/bruteforce.py
ORACLE_BASIS = "IndexedBasis"  # the same
CONVENTION_HOME = "fock.py"
CONVENTION_CONSTANTS = {"c_k", "c_m", "c_n"}
POOL_MODULES = ("concurrent", "threading", "multiprocessing")
REPORT_BASE = "Report"  # weights' report base, which serializes the fields
OWN_JSON = {"InducedModule", "Empty"}  # rieffel's, whose JSON renames fields
LAYOUT_HOME = "weights.py"  # owns the two-block label layout
CLI = "cli.py"
# what a verdict is computed from, in the modules that own the checks
VERDICT_HELPERS = ("weyl_dim", "sn_dim", "signed_weight_dim", "verify_orbit",
                   "sample_level_set")


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
    operand is not a ``Fraction(...)`` call: on two ints such a division
    makes a float."""
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
        if not (isinstance(left, ast.Call) and isinstance(left.func, ast.Name)
                and left.func.id == "Fraction"):
            out.append(where(path, n))
    return out


def span_echelon_reads(tree, path):
    """Attribute reads of a ``ReducedSpan``'s echelon outside
    ``tensor.py``: other modules use its ``rows`` and methods only."""
    if path.name == SPAN_HOME:
        return []
    return [f"{where(path, n)} .{n.attr}" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr in SPAN_ECHELON]


def span_ranks(tree, path):
    """``len`` of a ``ReducedSpan(...)`` outside ``tensor.py``: every rank
    solve goes through ``tensor.rank_of_rows``."""
    if path.name == SPAN_HOME:
        return []
    out = []
    for n in ast.walk(tree):
        if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "len" and n.args
                and isinstance(n.args[0], ast.Call)):
            continue
        made = n.args[0].func
        if getattr(made, "id", None) == "ReducedSpan" \
                or getattr(made, "attr", None) == "ReducedSpan":
            out.append(where(path, n))
    return out


def fock_operator_calls(tree, path):
    """References to the Fock matrix wrappers; their definitions in
    ``fock.py`` are not references."""
    return [f"{where(path, n)} .{n.attr}" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr in FOCK_OPS]


def convention_constant_reads(tree, path):
    """Attribute reads of the convention constants outside ``fock.py``:
    other modules hand weights to the model and take weight keys back."""
    if path.name == CONVENTION_HOME:
        return []
    return [f"{where(path, n)} .{n.attr}" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)
            and n.attr in CONVENTION_CONSTANTS]


def mentions(tree, path, name):
    """Definitions, imports, names, attributes and strings (docstrings
    among them) that mention ``name``."""
    out = []
    for n in ast.walk(tree):
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            hit = n.name == name
        elif isinstance(n, ast.alias):
            hit = name in (n.name.rpartition(".")[2], n.asname)
        elif isinstance(n, ast.Name):
            hit = n.id == name
        elif isinstance(n, ast.Attribute):
            hit = n.attr == name
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            hit = name in n.value
        else:
            continue
        if hit:
            out.append(where(path, n))
    return out


def oracle_matrix_names(tree, path):
    """Mentions of the oracle's matrix type."""
    return mentions(tree, path, ORACLE_MATRIX)


def ordinal_lookups(tree, path):
    """Mentions of the oracle's indexed basis, and calls of an
    ``.ordinal`` method: a label's position in a basis."""
    return mentions(tree, path, ORACLE_BASIS) + [
        f"{where(path, n)} .ordinal" for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and n.func.attr == "ordinal"]


def imports_of(top, nodes, path):
    """The import statements among ``nodes`` that load the package
    ``top`` or any of its submodules."""
    out = []
    for n in nodes:
        if isinstance(n, ast.Import):
            names = [a.name for a in n.names]
        elif isinstance(n, ast.ImportFrom) and not n.level:
            names = [n.module]
        else:
            continue
        out += [f"{where(path, n)} {name}" for name in names
                if name.partition(".")[0] == top]
    return out


def scipy_imports(tree, path):
    """Imports of scipy or of any of its submodules."""
    return imports_of("scipy", ast.walk(tree), path)


def pool_imports(tree, path):
    """Imports of a thread or process pool: exact arithmetic holds the
    GIL, so the grid runs its cells in order."""
    return [hit for top in POOL_MODULES
            for hit in imports_of(top, ast.walk(tree), path)]


def numpy_at_load(tree, path):
    """Module-level imports of numpy outside the float side; an import
    inside a function runs only when the function does."""
    if path.name in FLOAT_SIDE:
        return []
    return imports_of("numpy", tree.body, path)


def loop_draws(tree, path):
    """``.standard_normal(`` calls that sit inside a loop or a
    comprehension: a batch of seeded samples is one draw."""
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
             ast.DictComp, ast.GeneratorExp)
    calls = {c for loop in ast.walk(tree) if isinstance(loop, loops)
             for c in ast.walk(loop) if isinstance(c, ast.Call)
             and isinstance(c.func, ast.Attribute)
             and c.func.attr == "standard_normal"}
    return sorted(where(path, c) for c in calls)


def hand_serializers(tree, path):
    """``to_json`` methods of any class but ``Report`` and those in
    ``OWN_JSON``, and of every class that derives from ``Report``: a
    report's JSON is its fields, which the base writes."""
    return [f"{where(path, m)} {n.name}.to_json" for n in ast.walk(tree)
            if isinstance(n, ast.ClassDef) and (
                n.name not in OWN_JSON | {REPORT_BASE} or any(
                    REPORT_BASE in (getattr(b, "id", ""),
                                    getattr(b, "attr", ""))
                    for b in n.bases))
            for m in n.body
            if isinstance(m, ast.FunctionDef) and m.name == "to_json"]


def hand_padding(tree, path):
    """``(0,) * n`` or ``n * (0,)`` outside ``weights.py``: a label block
    is padded with ``weights.padded``."""
    if path.name == LAYOUT_HOME:
        return []
    return [where(path, n) for n in ast.walk(tree)
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
            and any(isinstance(s, ast.Tuple) and len(s.elts) == 1
                    and isinstance(s.elts[0], ast.Constant)
                    and s.elts[0].value == 0 for s in (n.left, n.right))]


def hand_reversals(tree, path):
    """``reversed(`` calls and ``[::-1]`` slices outside ``weights.py``:
    where a label's n block goes is decided there alone.  The float
    side's ``eigvalsh(...)[::-1]``, which sorts eigenvalues descending,
    is the one exemption."""
    if path.name == LAYOUT_HOME:
        return []
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and getattr(n.func, "id", "") == "reversed":
            out.append(where(path, n))
        elif isinstance(n, ast.Subscript) \
                and ast.unparse(n.slice) == "::-1" \
                and not (path.name in FLOAT_SIDE
                         and isinstance(n.value, ast.Call)
                         and getattr(n.value.func, "attr", "")
                         == "eigvalsh"):
            out.append(where(path, n))
    return out


def cli_verdicts(tree, path):
    """Mentions in ``cli.py`` of a dimension formula or of the per-seed
    orbit check: the command line reads each verdict off its check."""
    if path.name != CLI:
        return []
    return [f"{hit} {name}" for name in VERDICT_HELPERS
            for hit in mentions(tree, path, name)]


def referenced_names(trees):
    """Every name read as a variable or an attribute in the trees."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}


def named_names(trees):
    """``referenced_names`` and every string that is an identifier, the
    way ``getattr`` names an attribute."""
    return referenced_names(trees) | {
        n.value for tree in trees for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
        and n.value.isidentifier()}


def definitions(tree):
    """Module-level functions and classes, and the methods of the
    classes."""
    out = []
    for n in tree.body:
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            out.append(n)
        if isinstance(n, ast.ClassDef):
            out += [m for m in n.body if isinstance(m, ast.FunctionDef)]
    return out


def private(name):
    """Leading underscore, and not a dunder, which the language names."""
    return name.startswith("_") and not name.endswith("__")


def unreferenced_privates(tree, path, used=None):
    """Module-level private functions and classes and private methods
    whose name is not in ``used``, the names the package references (by
    default those of this tree alone); dunder methods are called by the
    language."""
    if used is None:
        used = referenced_names([tree])
    return [f"{where(path, n)} {n.name}" for n in definitions(tree)
            if private(n.name) and n.name not in used]


def unreferenced_publics(tree, path, used=None):
    """Public module-level functions and classes and public methods whose
    name is not in ``used``, the names the package and the benchmark
    name (by default those of this tree alone), and not in
    ``TEST_ONLY_PUBLIC``."""
    if used is None:
        used = named_names([tree])
    return [f"{where(path, n)} {n.name}" for n in definitions(tree)
            if not n.name.startswith("_") and n.name not in used
            and n.name not in TEST_ONLY_PUBLIC]


def foreign_privates(tree, path):
    """Private names imported from another module, and private attributes
    read off a name that an import binds, such as ``W._x``; ``self._x``
    and the attributes of other objects are not such reads."""
    bound, out = set(), []
    for n in ast.walk(tree):
        if isinstance(n, (ast.Import, ast.ImportFrom)):
            for a in n.names:
                if isinstance(n, ast.ImportFrom) and private(a.name):
                    out.append(f"{where(path, n)} {a.name}")
                bound.add(a.asname or a.name.partition(".")[0])
    return out + [f"{where(path, n)} .{n.attr}" for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and private(n.attr)
                  and isinstance(n.value, ast.Name) and n.value.id in bound]


def test_the_package_has_sources():
    assert PACKAGE / "tensor.py" in SOURCES


@pytest.mark.parametrize("rule", [asserts, broad_handlers, unused_imports,
                                  float_divisions, span_echelon_reads,
                                  span_ranks, fock_operator_calls,
                                  convention_constant_reads,
                                  oracle_matrix_names, ordinal_lookups,
                                  scipy_imports, pool_imports,
                                  numpy_at_load, loop_draws,
                                  hand_serializers, hand_padding,
                                  hand_reversals, cli_verdicts,
                                  pytest.param(foreign_privates,
                                               id="foreign_privates")])
def test_package_sources_keep_the_rule(rule):
    bad = [hit for path in SOURCES for hit in rule(tree_of(path), path)]
    assert bad == []


def test_every_private_helper_is_referenced():
    trees = {path: tree_of(path) for path in SOURCES}
    used = referenced_names(trees.values())
    assert [hit for path, tree in trees.items()
            for hit in unreferenced_privates(tree, path, used)] == []


def test_every_public_name_has_a_user_besides_the_tests():
    trees = {path: tree_of(path) for path in SOURCES}
    used = named_names([*trees.values(), *map(tree_of, USERS)])
    assert [hit for path, tree in trees.items()
            for hit in unreferenced_publics(tree, path, used)] == []
    # each exemption names a definition that still has no other user
    defined = {n.name for tree in trees.values() for n in definitions(tree)}
    assert TEST_ONLY_PUBLIC <= defined - used


@pytest.mark.parametrize("rule,source", [
    pytest.param(asserts, "def f(x):\n    assert x\n",
                 id="asserts-assert-statement"),
    pytest.param(broad_handlers, "try:\n    pass\nexcept:\n    pass\n",
                 id="broad_handlers-bare-except"),
    pytest.param(broad_handlers,
                 "try:\n    pass\nexcept (KeyError, Exception):\n    pass\n",
                 id="broad_handlers-exception-in-tuple"),
    pytest.param(unused_imports,
                 "import os\nfrom math import gcd, lcm\nx = lcm(2, 3)\n",
                 id="unused_imports-os-and-gcd"),
    pytest.param(float_divisions, "def f(a, p):\n    return a[0] / p\n",
                 id="float_divisions-slash"),
    pytest.param(float_divisions, "def f(x):\n    x /= 2\n    return x\n",
                 id="float_divisions-augmented-slash"),
    pytest.param(float_divisions, "y = Fraction(1) * 3 / 4\n",
                 id="float_divisions-fraction-times-int"),
    pytest.param(span_echelon_reads,
                 "basis = [row for _, row in span.echelon]\n",
                 id="span_echelon_reads-echelon-attribute"),
    pytest.param(span_echelon_reads,
                 "def f(span, c):\n    return c in span._pivots\n",
                 id="span_echelon_reads-private-pivots"),
    (span_ranks, "r = len(T.ReducedSpan(rows))"),
    (span_ranks, "r = n - len(ReducedSpan(rows))"),
    pytest.param(fock_operator_calls,
                 "def solve(model, piece):\n"
                 "    return model.raiser_op(0, 0, piece)\n",
                 id="fock_operator_calls-raiser_op"),
    (convention_constant_reads, "key = tuple(x - model.c_k for x in hw)"),
    (convention_constant_reads, "shift = model.c_m"),
    (convention_constant_reads, "nw = [fock.c_n - x for x in b]"),
    (oracle_matrix_names, "class ExactOperator: pass"),
    (oracle_matrix_names, "from .tensor import ExactOperator as Op"),
    (oracle_matrix_names, "op = T.ExactOperator(b, b)"),
    (oracle_matrix_names, '"""Restrictions come as ExactOperators."""'),
    (ordinal_lookups, "class IndexedBasis: pass"),
    (ordinal_lookups, "from .tensor import IndexedBasis as Basis"),
    (ordinal_lookups, "wb = T.IndexedBasis.tensor_power(2, 3)"),
    (ordinal_lookups, '"""Image terms on IndexedBasis ordinals."""'),
    (ordinal_lookups, "t = fb.ordinal(tuple(tgt))"),
    pytest.param(scipy_imports, "from scipy.linalg import expm\n",
                 id="scipy_imports-from-import"),
    pytest.param(scipy_imports, "import numpy as np, scipy.linalg as sla\n",
                 id="scipy_imports-plain-import"),
    pytest.param(pool_imports,
                 "from concurrent.futures import ThreadPoolExecutor\n",
                 id="pool_imports-thread-pool"),
    pytest.param(pool_imports, "import threading, multiprocessing.pool\n",
                 id="pool_imports-threading-and-multiprocessing"),
    (numpy_at_load, "import numpy as np"),
    (numpy_at_load, "from numpy import linalg"),
    (loop_draws, "hs = [rng.standard_normal((3, 3)) for _ in range(4)]"),
    pytest.param(loop_draws, "while x:\n    x = rng.standard_normal(2)[0]\n",
                 id="loop_draws-while-loop"),
    pytest.param(hand_serializers,
                 "class R(W.Report):\n"
                 "    def to_json(self):\n        return {}\n",
                 id="hand_serializers-to-json-override"),
    pytest.param(hand_serializers,
                 "class Empty(Report):\n"
                 "    def to_json(self):\n        return {}\n",
                 id="hand_serializers-exempt-name-on-a-report"),
    pytest.param(hand_serializers,
                 "class CauchyReport:\n"
                 "    def to_json(self):\n        return {}\n",
                 id="hand_serializers-plain-class"),
    pytest.param(hand_padding, "w = m + (0,) * (M - len(m))\n",
                 id="hand_padding-zeros-times-rows"),
    pytest.param(hand_padding, "w = (M - len(m)) * (0,) + m\n",
                 id="hand_padding-rows-times-zeros"),
    pytest.param(hand_reversals, "n = tuple(-x for x in reversed(b))\n",
                 id="hand_reversals-reversed-call"),
    pytest.param(hand_reversals, "nw = W.padded(n, N)[::-1]\n",
                 id="hand_reversals-reversing-slice"),
    pytest.param(unreferenced_privates, "def _gone(x):\n    return x\n",
                 id="unreferenced_privates-function"),
    pytest.param(unreferenced_privates,
                 "class A:\n    def _gone(self):\n        return 1\n",
                 id="unreferenced_privates-method"),
    pytest.param(unreferenced_publics,
                 "class A:\n    def gone(self):\n        return 1\n\nA()\n",
                 id="unreferenced_publics-method"),
    pytest.param(foreign_privates, "from .tensor import _cleared\n",
                 id="foreign_privates-import"),
    pytest.param(foreign_privates,
                 "from . import tensor as T\nrow, den = T._cleared(v)\n",
                 id="foreign_privates-module-attribute"),
])
def test_each_rule_catches_a_violation(rule, source):
    path = Path("example.py")
    assert rule(ast.parse(source), path)


def test_rules_pass_clean_code():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom math import gcd as g\n"
              "try:\n    x = g(os.path.sep, 2)\n"
              "except ValueError:\n    pass\n"
              "y = Fraction(x) / 3 - x // 2\n"
              "u = W.padded(m, 3) + (x,) * 2 + (1,) * 3 + u[::2]\n"
              "r = len(span) + rank_of_rows(rows)\n"
              "z = rng.standard_normal((4, 3, 3))\n"
              "w = span._own + os.__name__\n"
              "class R(Report):\n    pass\n"
              "class Report:\n    def to_json(self):\n        return {}\n"
              "class Empty:\n    def to_json(self):\n        return R()\n"
              "v = Empty().to_json()\n")
    tree, path = ast.parse(source), Path("example.py")
    assert not asserts(tree, path) + broad_handlers(tree, path) \
        + unused_imports(tree, path) + float_divisions(tree, path) \
        + span_echelon_reads(tree, path) + span_ranks(tree, path) \
        + fock_operator_calls(tree, path) \
        + convention_constant_reads(tree, path) \
        + oracle_matrix_names(tree, path) + ordinal_lookups(tree, path) \
        + scipy_imports(tree, path) + pool_imports(tree, path) \
        + numpy_at_load(tree, path) \
        + loop_draws(tree, path) + hand_serializers(tree, path) \
        + hand_padding(tree, path) + hand_reversals(tree, path) \
        + unreferenced_privates(tree, path) \
        + unreferenced_publics(tree, path) + foreign_privates(tree, path)


def test_the_float_side_may_divide():
    tree = ast.parse("def f(a, p):\n    return a / p\n")
    assert float_divisions(tree, Path("example.py"))
    assert not float_divisions(tree, Path("classical.py"))


def test_only_the_float_side_imports_numpy_at_load():
    tree = ast.parse("import numpy as np\n\n"
                     "def f():\n    import numpy as np\n    return np\n")
    assert numpy_at_load(tree, Path("tensor.py")) == ["tensor.py:1 numpy"]
    assert not numpy_at_load(tree, Path("classical.py"))
    assert not numpy_at_load(ast.parse(
        "def f():\n    from numpy import linalg\n    return linalg\n"),
        Path("tensor.py"))


def test_only_the_span_module_reads_the_echelon():
    tree = ast.parse("def f(span, c):\n    return span.rows[span._pivots[c]]\n")
    assert span_echelon_reads(tree, Path("rieffel.py"))
    assert not span_echelon_reads(tree, Path("tensor.py"))
    assert "_pivots" in SPAN_ECHELON


def test_only_the_fock_module_reads_the_convention_constants():
    tree = ast.parse("key = tuple(x - model.c_k for x in hw)\n")
    assert convention_constant_reads(tree, Path("rieffel.py")) == [
        "rieffel.py:1 .c_k"]
    assert convention_constant_reads(tree, Path("fock.py")) == []


def test_only_the_layout_module_pads_by_hand():
    tree = ast.parse("w = m + (0,) * (k - len(m))\n")
    assert hand_padding(tree, Path("rieffel.py")) == ["rieffel.py:1"]
    assert hand_padding(tree, Path("weights.py")) == []


def test_only_the_layout_module_reverses_a_block():
    tree = ast.parse("norms = [x for x in m] + [x for x in reversed(n)]\n"
                     "spec = np.linalg.eigvalsh(a)[::-1]\n")
    assert hand_reversals(tree, Path("classical.py")) == ["classical.py:1"]
    assert sorted(hand_reversals(tree, Path("fock.py"))) == [
        "fock.py:1", "fock.py:2"]
    assert hand_reversals(tree, Path("weights.py")) == []


@pytest.mark.parametrize("source", [
    pytest.param("ok = rank == W.sn_dim(lam) * W.weyl_dim(lam, k)\n",
                 id="dimension-formulas"),
    pytest.param("from .weights import signed_weight_dim\n",
                 id="imported-formula"),
    pytest.param("rep = C.verify_orbit(C.sample_level_set(w, k, 0), tol)\n",
                 id="orbit-check"),
    pytest.param('"""Each seed runs verify_orbit."""\n', id="docstring"),
])
def test_only_the_command_line_is_kept_from_the_verdict_helpers(source):
    tree = ast.parse(source)
    assert cli_verdicts(tree, Path("cli.py"))
    assert cli_verdicts(tree, Path("rieffel.py")) == []


def test_cli_verdicts_pass_clean_code():
    source = ("ok = projector_family_check(n, k)['ok']\n"
              "good = irreducible(induce_compact(k, M, m), m)\n"
              "rep = C.orbit_report(w, k, seeds, tol)\n"
              "weyl_dimension = dim_of(lam)\n")
    assert cli_verdicts(ast.parse(source), Path("cli.py")) == []


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


def test_the_exact_command_line_loads_neither_numpy_nor_the_thread_pool():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p))
    probe = """\
import contextlib, io, sys
import howe_forge.cli as cli

def loaded():
    return sorted({m.partition(".")[0] for m in sys.modules}
                  & {"numpy", "concurrent"})

assert loaded() == [], loaded()
for argv in (["decompose", "--k", "2", "--m", "2", "--deg", "2"],
             ["decompose", "--k", "2", "--m", "1", "--n", "1", "--deg", "2",
              "--convention", "hf"],
             ["induce", "--k", "2", "--mn-group", "1,1", "--weight", "3,-1"],
             ["induce", "--k", "2", "--m-group", "2", "--weight", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
assert loaded() == [], loaded()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["orbit", "--k", "3", "--m", "1", "--seeds", "1"]) == 0
assert "numpy" in sys.modules
"""
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
