"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive: direct enumeration, dense linear
algebra over Fractions or integers and one-sample-at-a-time float64
loops, sized for tiny inputs.  The point is that none of it shares code paths with the
package implementations it checks.  The one exception is
``isotypic_projector``, the dense oracle for the projector family check,
which builds an operator from the package's characters.  The
compact-induction oracles (``casimir_kernel``, ``two_factor_gram``) take
a package model and inducing irrep as their input data.

The package has one operator form, image terms keyed by labels (key ->
[(target, value)]).  The matrix type, ``ExactOperator``, and the
label <-> position map of its rows and columns, ``IndexedBasis``, live
only here: the matrices of the Fock generators (``fock_operator``) and
of restricted maps on a module (``module_operator``) are read off the
package's image terms, and the whole operators on tensor powers
(``sn_action``, ``gl_tensor_action``, ``young_symmetrizer``) and their
algebra (``add``, ``compose``, ...) are the oracle for the package's
readers of word and monomial labels.  ``labelled_terms`` and
``labelled_entries`` key a matrix by labels again, and
``inducing_irrep`` feeds the whole operators to the package's span that
way, so that its output can be compared exactly, as a span whose rows
are keyed by their pivot words, with ``rieffel.build_inducing_irrep``.
"""

from __future__ import annotations

import functools
import math
import signal
from fractions import Fraction
from itertools import permutations, product

import numpy as np
from scipy.linalg import expm

from howe_forge import tensor as T
from howe_forge import weights as W

EXAMPLE_LIMIT_S = 5  # a passing example takes milliseconds


def time_bounded(test):
    """Fail a test, or a Hypothesis example, that runs past
    EXAMPLE_LIMIT_S: a broken elimination can grow its integers without
    bound, and such a test would never return."""
    def stop(signum, frame):
        raise TimeoutError(f"example ran past {EXAMPLE_LIMIT_S} s")

    @functools.wraps(test)
    def run(*args, **kwargs):
        old = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, EXAMPLE_LIMIT_S)
        try:
            return test(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
    return run


# ---------------------------------------------------------------------------
# exact sparse operators on indexed bases


class IndexedBasis:
    """An ordered family of hashable labels with ordinal lookup."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels):
        self.labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise ValueError("duplicate labels in basis")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def ordinal(self, label) -> int:
        return self._index[label]

    def label(self, i: int):
        return self.labels[i]

    @classmethod
    def tensor_power(cls, k: int, n: int) -> "IndexedBasis":
        """Multi-indices for the n-fold tensor power of C^k, lex order."""
        return cls(product(range(k), repeat=n))


class ExactOperator:
    """Sparse linear map between indexed bases over the rationals, its
    entries keyed by (row, col) ordinals: ``int`` wherever a value is
    integral, ``Fraction`` otherwise."""

    __slots__ = ("domain", "codomain", "data")

    def __init__(self, domain, codomain, data=None):
        self.domain = domain
        self.codomain = codomain
        self.data: dict[tuple[int, int], int | Fraction] = {}
        if data:
            for (r, c), v in data.items():
                self.add_entry(r, c, v)

    def add_entry(self, row: int, col: int, value) -> None:
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)  # exact for floats and strings too
        key = (row, col)
        old = self.data.get(key)
        new = value if old is None else old + value
        if new:
            self.data[key] = new
        else:
            self.data.pop(key, None)

    def terms(self):
        """The column index as image terms col -> [(row, value)], in
        storage order: the package's operator form."""
        cols: dict[int, list[tuple[int, int | Fraction]]] = {}
        for (r, c), v in self.data.items():
            cols.setdefault(c, []).append((r, v))
        return lambda c: cols.get(c, ())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactOperator)
            and self.domain.labels == other.domain.labels
            and self.codomain.labels == other.codomain.labels
            and self.data == other.data
        )

    def __hash__(self):
        raise TypeError("ExactOperator is mutable; not hashable")


def fock_operator(model, family: str, a: int, b: int, piece):
    """The matrix of one Fock generator on a piece (see
    ``FockModel.images`` for the families), from its image terms over
    every column's monomial label; "raise" and "lower" map into the piece
    of bidegree one up or one down."""
    p, q = piece
    shift = {"raise": 1, "lower": -1}.get(family, 0)
    op = ExactOperator(IndexedBasis(model.basis(p, q)),
                       IndexedBasis(model.basis(p + shift, q + shift)))
    image = model.images(family, a, b)
    for col, lab in enumerate(op.domain):
        for tgt, v in image(lab):
            op.add_entry(op.codomain.ordinal(tgt), col, v)
    return op


def labelled_terms(op):
    """The image terms of an operator on the labels of its bases."""
    terms = op.terms()
    return lambda lab: [(op.codomain.label(r), v)
                        for r, v in terms(op.domain.ordinal(lab))]


def labelled_entries(op) -> dict:
    """The entries of an operator keyed by (row label, column label)."""
    return {(op.codomain.label(r), op.domain.label(c)): v
            for (r, c), v in op.data.items()}


def module_operator(terms, d: int):
    """The matrix of a map on range(d) given by its image terms, such as
    a restricted action on a module of dimension d."""
    basis = IndexedBasis(range(d))
    op = ExactOperator(basis, basis)
    for col in range(d):
        for row, v in terms(col):
            op.add_entry(row, col, v)
    return op


def enumerate_ssyt(shape: tuple[int, ...], max_entry: int) -> list[tuple]:
    """All semistandard tableaux: rows weakly increase, columns strictly."""
    rows = len(shape)
    results: list[tuple] = []

    def fill(tab, i, j):
        if i == rows:
            results.append(tuple(tuple(r) for r in tab))
            return
        ni, nj = (i, j + 1) if j + 1 < shape[i] else (i + 1, 0)
        lo = 1
        if j > 0:
            lo = max(lo, tab[i][j - 1])
        if i > 0 and j < shape[i - 1]:
            lo = max(lo, tab[i - 1][j] + 1)
        for v in range(lo, max_entry + 1):
            tab[i][j] = v
            fill(tab, ni, nj)
        tab[i][j] = 0

    if not shape:
        return [()]
    fill([[0] * r for r in shape], 0, 0)
    return results


def count_ssyt(shape: tuple[int, ...], max_entry: int) -> int:
    return len(enumerate_ssyt(shape, max_entry))


def count_ssyt_content(shape: tuple[int, ...], content: tuple[int, ...]) -> int:
    """Kostka number by filtering the full SSYT list on letter counts."""
    maxe = len(content)
    hits = 0
    for tab in enumerate_ssyt(shape, maxe):
        counts = [0] * maxe
        for row in tab:
            for v in row:
                counts[v - 1] += 1
        if tuple(counts) == tuple(content):
            hits += 1
    return hits


def count_standard_tableaux(shape: tuple[int, ...]) -> int:
    """Standard tableaux by brute-force placement of 1..n."""
    n = sum(shape)
    rows = len(shape)
    count = 0

    def place(v, tab, heights):
        nonlocal count
        if v > n:
            count += 1
            return
        for i in range(rows):
            j = heights[i]
            if j >= shape[i]:
                continue
            if i > 0 and heights[i - 1] <= j:
                continue
            heights[i] += 1
            place(v + 1, tab, heights)
            heights[i] -= 1

    place(1, None, [0] * rows)
    return count


def character_from_perm_matrices(shape: tuple[int, ...], sigma: tuple[int, ...]) -> int:
    """S_n character via explicit Young symmetrizer projectors is overkill;
    instead use the determinant/quotient-free definition: trace of sigma on
    the span of one Specht-like projector image inside the regular module.

    For the suite we only need small n, so build the full regular
    representation, project with the column-row symmetrizer of the
    canonical tableau, and take the trace of sigma's left action there.
    """
    n = sum(shape)
    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)

    def compose(a, b):  # a after b
        return tuple(a[b[i]] for i in range(n))

    def sign(p):
        s = 1
        seen = [False] * n
        for st in range(n):
            if seen[st]:
                continue
            ln, j = 0, st
            while not seen[j]:
                seen[j] = True
                j = p[j]
                ln += 1
            if ln % 2 == 0:
                s = -s
        return s

    # canonical tableau: fill rows left to right
    rows = []
    c = 0
    for r in shape:
        rows.append(list(range(c, c + r)))
        c += r
    cols = []
    for j in range(shape[0]):
        col = [row[j] for row in rows if j < len(row)]
        cols.append(col)

    def subgroup(blocks):
        ems = [()]
        for blk in blocks:
            new = []
            for base in ems:
                for p in permutations(blk):
                    new.append(base + tuple(zip(blk, p)))
            ems = new
        out = []
        for pairs in ems:
            m = list(range(n))
            for a, b in pairs:
                m[a] = b
            out.append(tuple(m))
        return out

    row_group = subgroup(rows)
    col_group = subgroup(cols)

    # e = sum_{q in C} sum_{p in R} sgn(q) q p; right multiplication by e has
    # image the left ideal A*e, which left multiplication then acts on.
    mat = [[Fraction(0)] * size for _ in range(size)]
    for q in col_group:
        sq = sign(q)
        for p in row_group:
            g = compose(q, p)
            for i, h in enumerate(perms):
                mat[index[compose(h, g)]][i] += sq

    # image basis via column reduction
    basis: list[list[Fraction]] = []
    pivots: list[int] = []
    for col in range(size):
        v = [mat[r][col] for r in range(size)]
        for b, piv in zip(basis, pivots):
            if v[piv] != 0:
                coef = v[piv] / b[piv]
                v = [x - coef * y for x, y in zip(v, b)]
        piv = next((i for i, x in enumerate(v) if x != 0), None)
        if piv is not None:
            basis.append(v)
            pivots.append(piv)

    # trace of sigma acting by left multiplication, restricted to the image
    trace = Fraction(0)
    k = len(basis)
    images = []
    for b in basis:
        w = [Fraction(0)] * size
        for i, x in enumerate(b):
            if x != 0:
                w[index[compose(sigma, perms[i])]] += x
        images.append(w)
    for col_i in range(k):
        w = images[col_i][:]
        coords = [Fraction(0)] * k
        for bi, (bb, pp) in enumerate(zip(basis, pivots)):
            coef = w[pp] / bb[pp]
            coords[bi] = coef
            if coef != 0:
                w = [x - coef * y for x, y in zip(w, bb)]
        assert all(x == 0 for x in w)
        trace += coords[col_i]
    return int(trace)


def perm_cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    n = len(p)
    seen = [False] * n
    lens = []
    for st in range(n):
        if seen[st]:
            continue
        ln, j = 0, st
        while not seen[j]:
            seen[j] = True
            j = p[j]
            ln += 1
        lens.append(ln)
    return tuple(sorted(lens, reverse=True))


def perm_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a after b."""
    return tuple(a[b[i]] for i in range(len(a)))


def cycle_type_class_size(cycle_type: tuple[int, ...]) -> int:
    """Size of the S_n conjugacy class with the given cycle type."""
    z = 1
    for part in set(cycle_type):
        a = cycle_type.count(part)
        z *= part**a * math.factorial(a)
    return math.factorial(sum(cycle_type)) // z


def isotypic_projector(shape, k: int, basis=None):
    """Central projector (f/n!) * sum_sigma chi(sigma) sigma on the tensor
    power, as an ``ExactOperator`` built by accumulating slot
    permutations one at a time."""
    lam = W.partition(shape)
    n = sum(lam)
    b = basis or IndexedBasis.tensor_power(k, n)
    chi = {mu: W.sn_character(lam, mu) for mu in W.partitions_of(n)}
    scale = Fraction(W.sn_dim(lam), math.factorial(n))
    op = ExactOperator(b, b)
    for sigma in permutations(range(n)):
        c = chi[perm_cycle_type(sigma)]
        if c == 0:
            continue
        inv = [sigma.index(p) for p in range(n)]
        for col, lab in enumerate(b.labels):
            tgt = tuple(lab[inv[p]] for p in range(n))
            op.add_entry(b.ordinal(tgt), col, scale * c)
    return op


# ---------------------------------------------------------------------------
# operator algebra on ExactOperators, entry by entry


def identity(basis):
    return ExactOperator(basis, basis,
                         {(i, i): 1 for i in range(len(basis))})


def add(*ops):
    """Sum of operators of one shape."""
    out = ExactOperator(ops[0].domain, ops[0].codomain)
    for op in ops:
        if (op.domain.labels, op.codomain.labels) != (
                out.domain.labels, out.codomain.labels):
            raise ValueError("operator shape mismatch")
        for (r, c), v in op.data.items():
            out.add_entry(r, c, v)
    return out


def scaled(op, scalar):
    return ExactOperator(op.domain, op.codomain,
                         {key: scalar * v for key, v in op.data.items()})


def compose(a, b):
    """a * b: b first, then a; every pair of entries that meet is added."""
    if b.codomain.labels != a.domain.labels:
        raise ValueError("composition shape mismatch")
    rows_of_b: dict = {}
    for (m, c), bv in b.data.items():
        rows_of_b.setdefault(m, []).append((c, bv))
    out = ExactOperator(b.domain, a.codomain)
    for (r, m), av in a.data.items():
        for c, bv in rows_of_b.get(m, ()):
            out.add_entry(r, c, av * bv)
    return out


def commutator(a, b):
    return add(compose(a, b), scaled(compose(b, a), -1))


def relation_failures(families: dict, d: int) -> list[str]:
    """Dense all-pairs oracle for ``tensor.gl_relation_failures`` on maps
    over range(d): the matrix of every commutator of two generators,
    compared with the relations' right-hand side, d_jl E_im - d_mi E_lj
    within a family and 0 across families.  Unordered pairs are taken in
    the package's order and labelled as it labels them."""
    ops = {(name, key): module_operator(terms, d)
           for name, family in families.items()
           for key, terms in family.items()}
    gens = list(ops)
    bad = []
    for s, (f, (i, j)) in enumerate(gens):
        for g, (l, m) in gens[s + 1:]:
            a, b = ops[f, (i, j)], ops[g, (l, m)]
            rhs = [scaled(a, 0)]
            if f == g and j == l:
                rhs.append(ops[f, (i, m)])
            if f == g and m == i:
                rhs.append(scaled(ops[f, (l, j)], -1))
            if commutator(a, b) != add(*rhs):
                bad.append(f"gl({f})[{i}{j},{l}{m}]" if f == g
                           else f"{f}{i}{j} vs {g}{l}{m}")
    return bad


def trace(op):
    return sum((v for (r, c), v in op.data.items() if r == c), Fraction(0))


def rank(op):
    """Rank by dense elimination of the operator's matrix."""
    ncols = len(op.domain)
    return ncols - dense_nullity(dense_matrix(op), ncols)


# ---------------------------------------------------------------------------
# symmetric group and gl(k) actions on tensor powers, as whole operators


def sn_action(sigma, k: int, n: int, basis=None):
    """Slot permutation on the n-fold tensor power of C^k.  The factor in
    slot a moves to slot sigma(a), which makes the map multiplicative:
    compose(sn_action(s), sn_action(t)) == sn_action(s after t)."""
    if len(sigma) != n:
        raise ValueError(f"permutation length {len(sigma)} != {n}")
    b = basis or IndexedBasis.tensor_power(k, n)
    op = ExactOperator(b, b)
    for col, lab in enumerate(b.labels):
        tgt = [0] * n
        for a in range(n):
            tgt[sigma[a]] = lab[a]
        op.add_entry(b.ordinal(tuple(tgt)), col, 1)
    return op


def gl_tensor_action(i: int, j: int, k: int, n: int, basis=None):
    """Derivation action of the elementary matrix E_ij across the n slots."""
    b = basis or IndexedBasis.tensor_power(k, n)
    op = ExactOperator(b, b)
    for col, lab in enumerate(b.labels):
        for slot, letter in enumerate(lab):
            if letter == j:
                tgt = lab[:slot] + (i,) + lab[slot + 1:]
                op.add_entry(b.ordinal(tgt), col, 1)
    return op


def _fixing_perms(blocks, n):
    """Every permutation of range(n) that maps each block onto itself, by
    filtering all of S_n."""
    return [p for p in permutations(range(n))
            if all(sorted(p[a] for a in blk) == sorted(blk) for blk in blocks)]


def young_symmetrizer(shape, k: int, basis=None):
    """Column antisymmetrizer times row symmetrizer for the row-reading
    tableau of the shape, as a product of two sums of slot permutations."""
    lam = W.partition(shape)
    n = sum(lam)
    b = basis or IndexedBasis.tensor_power(k, n)
    rows, c = [], 0
    for r in lam:
        rows.append(list(range(c, c + r)))
        c += r
    cols = [[row[j] for row in rows if j < len(row)]
            for j in range(lam[0] if lam else 0)]
    row_sym = add(ExactOperator(b, b), *(sn_action(p, k, n, basis=b)
                                         for p in _fixing_perms(rows, n)))
    col_anti = add(ExactOperator(b, b),
                   *(scaled(sn_action(q, k, n, basis=b), W.perm_sign(q))
                     for q in _fixing_perms(cols, n)))
    return compose(col_anti, row_sym)


def inducing_irrep(shape, M: int):
    """The U(M) irrep of the shape built from whole operators: the image
    of ``young_symmetrizer`` in the package's ``ReducedSpan``, fed one
    weight class at a time, highest first, and the restriction of
    ``gl_tensor_action`` to it by ``restrict_by_leaders``, as (basis,
    basis weights, row of the highest weight, action).  Only the
    operators are built here; the span is the package's, so the reduced
    rows can be compared exactly.  The package lowers its irrep from the
    highest vector instead, which takes the rows in another order, so the
    two are compared as spans, row by pivot word, not row by row."""
    n = sum(shape)
    wb = IndexedBasis.tensor_power(M, n)
    sym = labelled_terms(young_symmetrizer(shape, M, basis=wb))
    span, weights = T.ReducedSpan(), []
    for wt in sorted({tuple(w.count(a) for a in range(M)) for w in wb},
                     reverse=True):
        for word in wb:
            if tuple(word.count(a) for a in range(M)) == wt and \
                    span.insert(dict(sym(word))):
                weights.append(wt)
    action = span.restrict_by_leaders({
        (a, b): labelled_terms(gl_tensor_action(a, b, M, n, basis=wb))
        for a in range(M) for b in range(M)})
    highest = weights.index(tuple(shape) + (0,) * (M - len(shape)))
    return span.rows, weights, highest, action


def monomial_count(nvars: int, degree: int) -> int:
    """Number of monomials of the given total degree, by enumeration."""
    if nvars == 0:
        return 1 if degree == 0 else 0
    count = 0
    for combo in product(range(degree + 1), repeat=nvars):
        if sum(combo) == degree:
            count += 1
    return count


def interlacing_labels(shape: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """Branching by direct enumeration of interlacing sequences."""
    padded = tuple(shape) + (0,) * (k + 1 - len(shape))
    out = []
    ranges = [range(padded[i + 1], padded[i] + 1) for i in range(k)]
    for mu in product(*ranges):
        if all(mu[i] >= mu[i + 1] for i in range(k - 1)):
            out.append(tuple(p for p in mu if p) or ())
    return out


def dense_nullity(rows: list[list[Fraction]], ncols: int) -> int:
    """Nullity of a dense rational matrix by straightforward forward
    elimination in integers: each row is first scaled by the lcm of its
    denominators, and each update p*row - a*prow is divided by the gcd of
    its entries; neither step changes the row space."""
    mat = []
    for row in rows:  # int and Fraction entries both have a denominator
        den = math.lcm(*(x.denominator for x in row))
        mat.append([int(x * den) for x in row])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        p = prow[col]
        for r in range(rank + 1, len(mat)):
            a = mat[r][col]
            if a:
                new = [p * x - a * y for x, y in zip(mat[r], prow)]
                g = math.gcd(*new) or 1
                mat[r] = [x // g for x in new]
        rank += 1
    return ncols - rank


def dense_rref(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Nonzero rows of the reduced row echelon form of a dense rational
    matrix: each row 1 at its leading column and 0 at the others'."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank][col]
        prow = mat[rank] = [x / lead for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                coef = mat[r][col]
                mat[r] = [x - coef * y for x, y in zip(mat[r], prow)]
        rank += 1
    return mat[:rank]


def dense_det(mat: list[list[Fraction]]) -> Fraction:
    """Determinant of a square rational matrix by Fraction elimination
    with row swaps."""
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            coef = a[r][col] / a[col][col]
            a[r] = [x - coef * y for x, y in zip(a[r], a[col])]
    return det


def is_positive_definite(mat: list[list[Fraction]]) -> bool:
    """Sylvester's criterion for a symmetric rational matrix: every
    leading principal minor is positive."""
    return all(dense_det([row[:n] for row in mat[:n]]) > 0
               for n in range(1, len(mat) + 1))


def bareiss_positive(mat: list[list[Fraction]]) -> bool:
    """Positive definiteness by one fraction-free (Bareiss) elimination
    of the whole dense matrix scaled to integers: its pivots are the
    leading principal minors, which must all be positive.  The
    whole-matrix oracle for ``tensor.positive_definite``, which takes the
    matrix as sparse rows and eliminates only the entries stored."""
    den = math.lcm(*(v.denominator for row in mat for v in row))
    a = [[v.numerator * (den // v.denominator) for v in row] for row in mat]
    d = len(a)
    prev = 1
    for i in range(d):
        p = a[i][i]
        if p <= 0:
            return False
        for r in range(i + 1, d):
            f = a[r][i]
            for c in range(i + 1, d):
                a[r][c] = (p * a[r][c] - f * a[i][c]) // prev  # exact
        prev = p
    return True


def dense_rows(rows: list[dict]) -> list[list]:
    """A square matrix given as sparse rows, column -> entry, as dense
    rows, zeros filled in."""
    return [[row.get(c, 0) for c in range(len(rows))] for row in rows]


def sparse_rows(mat: list[list]) -> list[dict]:
    """Dense rows as sparse rows, column -> entry, zeros omitted."""
    return [{c: v for c, v in enumerate(row) if v} for row in mat]


def dense_matrix(op) -> list[list[Fraction]]:
    """The entries of a sparse ExactOperator as dense rows, zeros filled in."""
    return [[op.data.get((r, c), Fraction(0)) for c in range(len(op.domain))]
            for r in range(len(op.codomain))]


def dense_restriction(op_entries: dict, basis: list[dict]) -> list[list[Fraction]]:
    """Matrix X with B X = A B, where the columns of B are the basis
    vectors and A is given by its (row, col) -> value entries; A B is
    summed entry by entry of A, then solved by Gauss-Jordan elimination on
    the dense augmented matrix [B | A B].

    Entry [i][j] is coordinate i of the image of basis vector j.  Raises
    ValueError if the vectors are dependent or A leaves their span."""
    d = len(basis)
    support = set()
    for vec in basis:
        support.update(vec)
    for (r, c) in op_entries:
        support.update((r, c))
    coords = sorted(support)
    at = {c: i for i, c in enumerate(coords)}
    n = len(coords)
    bmat = [[Fraction(0)] * d for _ in range(n)]
    for j, vec in enumerate(basis):
        for c, v in vec.items():
            bmat[at[c]][j] = Fraction(v)
    ab = [[Fraction(0)] * d for _ in range(n)]
    for (r, c), v in op_entries.items():
        row = ab[at[r]]
        for j, x in enumerate(bmat[at[c]]):
            row[j] += v * x
    aug = [bmat[r] + ab[r] for r in range(n)]
    for col in range(d):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("basis vectors are dependent")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    if any(x != 0 for row in aug[d:] for x in row[d:]):
        raise ValueError("operator leaves the span")
    return [row[d:] for row in aug[:d]]


def random_hermitian(d: int, rng) -> np.ndarray:
    """A d x d Hermitian (A + A^dagger) / 2 from two draws: A's real part,
    then its imaginary part."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def cayley(a: np.ndarray) -> np.ndarray:
    """(I - A)^-1 (I + A) of one matrix, through the explicit inverse."""
    ident = np.eye(len(a))
    return np.linalg.inv(ident - a) @ (ident + a)


def group_samples(k: int, signature, samples: int, rng):
    """Lists of `samples` unitaries C(iH/2) and, when M+N > 0, as many
    pseudo-unitaries C(i eta H / 4), for C the Cayley transform, one matrix
    at a time.  Each sample draws a k x k Hermitian H, then an
    (M+N) x (M+N) one."""
    M, N = signature
    eta = np.diag([1.0] * M + [-1.0] * N)
    left, right = [], []
    for _ in range(samples):
        left.append(cayley(1j * random_hermitian(k, rng) / 2))
        if M + N:
            right.append(cayley(1j * eta @ random_hermitian(M + N, rng) / 4))
    return left, right


def invariance_deviation(psi, signature, samples: int, rng) -> float:
    """The classical invariance check one group sample at a time: left
    unitaries must fix eta psi^dagger psi and the spectrum of
    psi eta psi^dagger, and right pseudo-unitaries must fix
    psi eta psi^dagger."""
    M, N = signature
    eta = np.diag([1.0] * M + [-1.0] * N)

    def right_map(q):
        return eta @ q.conj().T @ q

    def left_map(q):
        return q @ eta @ q.conj().T

    left, right = group_samples(psi.shape[0], signature, samples, rng)
    spec = np.linalg.eigvalsh(left_map(psi))
    worst = 0.0
    for g in left:
        moved = g @ psi
        worst = max(worst, np.max(np.abs(right_map(moved) - right_map(psi))),
                    np.max(np.abs(np.linalg.eigvalsh(left_map(moved)) - spec)))
    for U in right:
        worst = max(worst, np.max(np.abs(left_map(psi @ U) - left_map(psi))))
    return float(worst)


def expm_each(a: np.ndarray) -> np.ndarray:
    """scipy's matrix exponential of each matrix in a stack, one matrix
    at a time."""
    return np.array([expm(m) for m in a], dtype=complex).reshape(a.shape)


def dense_kernel(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Kernel of a dense rational matrix, one vector per free column of
    its reduced row echelon form."""
    rref = dense_rref(rows, ncols)
    pivots = [next(c for c, x in enumerate(r) if x) for r in rref]
    out = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for piv, r in zip(pivots, rref):
            vec[piv] = -r[free]
        out.append(vec)
    return out


def spans_agree(a: list[dict], b: list[dict]) -> bool:
    """Equality of the spans of two lists of sparse vectors, by three
    dense ranks over the union of their coordinates."""
    cols = sorted({c for vec in [*a, *b] for c in vec})

    def rank(vecs):
        dense = [[Fraction(vec.get(c, 0)) for c in cols] for vec in vecs]
        return len(cols) - dense_nullity(dense, len(cols))

    return rank(a) == rank(b) == rank([*a, *b])


def weight_blocks(model, piece) -> dict:
    """The monomial labels of a piece's basis, in basis order, grouped by
    weight key: the row sums of x less those of y, then the column sums
    of x and of y, read off each label as slices."""
    k, M, N = model.k, model.M, model.N
    kM = k * M
    blocks: dict = {}
    for lab in model.basis(*piece):
        rows = tuple(sum(lab[i * M:(i + 1) * M])
                     - sum(lab[kM + i * N:kM + (i + 1) * N])
                     for i in range(k))
        key = (rows, tuple(sum(lab[a:kM:M]) for a in range(M)),
               tuple(sum(lab[kM + b::N]) for b in range(N)))
        blocks.setdefault(key, []).append(lab)
    return blocks


def unreduced_commutator_rows(model, dominant) -> tuple[int, list[dict]]:
    """The number of unknowns and the rows of the S_k x S_M-reduced
    commutant equations of a compact piece, given as its dominant blocks,
    with no root left out: every off-diagonal E_ab of gl(k) and gl(M) at
    every column that is the least of its orbit under its block's
    stabilizer.  The unknowns are numbered as ``fock.weyl_commutant_dim``
    numbers them: block by block in the order of ``dominant``, each W-orbit
    of pairs (p, q) of positions at its first sight, row by row.  Every
    monomial of the piece is placed in advance, each block of
    ``weight_blocks`` read through a permutation that sorts its weight;
    the stabilizers are every permutation that keeps the sums, found by
    trying them all."""
    k, M = model.k, model.M
    piece = (sum(next(iter(dominant))[1]), 0)

    def permuted(lab, rows, cols):  # x[rows[i], cols[a]] moves to x[i, a]
        return tuple(lab[r * M + c] for r in rows for c in cols)

    def keeping(w):
        return [g for g in permutations(range(len(w)))
                if all(w[g[i]] == x for i, x in enumerate(w))]

    def sorting(w):
        return sorted(range(len(w)), key=lambda i: -w[i])

    at, tables, reps, nvars = {}, {}, [], 0
    for (rw, cw, _), members in dominant.items():
        at.update((lab, p) for p, lab in enumerate(members))
        moved = [[at[permuted(lab, hr, hc)] for lab in members]
                 for hr in keeping(rw) for hc in keeping(cw)]
        ids: dict = {}
        tables[rw, cw] = [[ids.setdefault(min((m[p], m[q]) for m in moved),
                                          nvars + len(ids))
                           for q in range(len(members))]
                          for p in range(len(members))]
        nvars += len(ids)
        reps += [lab for p, lab in enumerate(members)
                 if min(m[p] for m in moved) == p]

    block_of, home, pos = {}, {}, {}  # X[r, c] is unknown home[r][pos[c]]
    for (rw, cw, _), members in weight_blocks(model, piece).items():
        rows, cols = sorting(rw), sorting(cw)
        table = tables[tuple(rw[i] for i in rows), tuple(cw[a] for a in cols)]
        for lab in members:
            block_of[lab] = members
            pos[lab] = at[permuted(lab, rows, cols)]
            home[lab] = table[pos[lab]]

    out = []
    for family, rank in (("k", k), ("m", M)):
        for a, b in permutations(range(rank), 2):
            root = model.images(family, a, b)
            for c in reps:  # (E X - X E)[t, c], one row per target t
                eq: dict = {}
                for j in block_of[c]:
                    for t, v in root(j):
                        row = eq.setdefault(t, {})
                        x = home[j][pos[c]]
                        row[x] = row.get(x, 0) + v
                for j, v in root(c):
                    for t in block_of[j]:
                        row = eq.setdefault(t, {})
                        x = home[t][pos[j]]
                        row[x] = row.get(x, 0) - v
                out += [row for row in ({x: v for x, v in row.items() if v}
                                        for row in eq.values()) if row]
    return nvars, out


def weight_difference_blocks(model, piece, irrep) -> dict:
    """Every key (f, h) of (compact Fock piece) x irrep, grouped by the
    row sums of monomial f and by (column sums of f) - (weight of h):
    the blocks that the diagonal gl(M) action and its Casimir keep."""
    k, M = model.k, model.M
    blocks: dict = {}
    for f in model.basis(*piece):
        rows = tuple(sum(f[i * M:(i + 1) * M]) for i in range(k))
        cols = tuple(sum(f[a::M]) for a in range(M))
        for h, hwt in enumerate(irrep.basis_weights):
            diff = tuple(c - w for c, w in zip(cols, hwt))
            blocks.setdefault((rows, diff), []).append((f, h))
    return blocks


def casimir_kernel(model, piece, irrep) -> list[dict]:
    """Kernel of the quadratic Casimir sum_ab D(E_ab) D(E_ba) of the
    diagonal action D(E_ab) = E_ab x 1 - 1 x E_ab^T on (compact Fock
    piece) x irrep, as vectors keyed (f, h), by dense elimination on each
    block of ``weight_difference_blocks``.  The Casimir of a compact
    group is positive semidefinite with kernel exactly the invariants.

    E_ab acts on a monomial as sum_i x[i,a] d/dx[i,b], read off its
    exponent label, and on the irrep by its restricted operator."""
    k, M = model.k, model.M
    dual: dict = {}  # -E_ab^T sends h to c wherever E_ab[h, c] != 0
    for (a, b), terms in irrep.action.items():
        for (r, c), v in module_operator(terms, irrep.dim).data.items():
            dual.setdefault((a, b, r), []).append((c, -v))

    def diagonal(a, b, key):
        f, h = key
        out = []
        for i in range(k):
            e = f[i * M + b]
            if e:
                tgt = list(f)
                tgt[i * M + b] -= 1
                tgt[i * M + a] += 1
                out.append(((tuple(tgt), h), e))
        out += [((f, c), v) for c, v in dual.get((a, b, h), ())]
        return out

    def casimir(key):
        out: dict = {}
        for a in range(M):
            for b in range(M):
                for mid, u in diagonal(b, a, key):
                    for tgt, v in diagonal(a, b, mid):
                        out[tgt] = out.get(tgt, 0) + u * v
        return out

    kernel = []
    for members in weight_difference_blocks(model, piece, irrep).values():
        images = [casimir(key) for key in members]
        targets = sorted({t for img in images for t in img})
        dense = [[Fraction(img.get(t, 0)) for img in images]
                 for t in targets]
        for vec in dense_kernel(dense, len(members)):
            kernel.append({key: x for key, x in zip(members, vec) if x})
    return kernel


def two_factor_gram(basis: list[dict], irrep_basis: list[dict]
                    ) -> list[list[Fraction]]:
    """Gram matrix of vectors keyed (monomial f, irrep vector h) in the
    form sum_f e! sum_{h, h'} u[f, h] v[f, h'] <b_h, b_h'>, with e the
    exponent label of f, e! the product of its factorials, and <b_h,
    b_h'> the dot product of irrep basis vectors in word coordinates."""
    hgram = [[sum(x * b.get(w, 0) for w, x in a.items())
              for b in irrep_basis] for a in irrep_basis]
    norms = {f: math.prod(math.factorial(e) for e in f)
             for vec in basis for f, _ in vec}
    by_f = []
    for vec in basis:
        index: dict = {}
        for (f, h), c in vec.items():
            index.setdefault(f, []).append((h, c))
        by_f.append(index)
    return [[sum((norms[f] * cu * cv * hgram[hu][hv]
                  for f, us in u.items() for hu, cu in us
                  for hv, cv in v.get(f, ())), Fraction(0))
             for v in by_f] for u in by_f]
