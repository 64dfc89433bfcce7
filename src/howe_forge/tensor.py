"""Exact sparse operators on indexed bases.

Operators are dicts keyed by (row, col) ordinals with exact rational
values: ``int`` wherever a value is integral, ``Fraction`` only where a
quotient is really produced.  All arithmetic is exact; there are no
tolerance parameters in this module.  One elimination serves every
caller: ``ReducedSpan``, the reduced span of rational rows, kept in
integers by the fraction-free update row <- (p*row - a*prow) / content.
Each row is integer and primitive, positive at its pivot (its lowest
column when inserted) and 0 at every other row's pivot.  Ranks (its
length: ``ExactOperator.rank``, ``commutant_dim``), kernels
(``kernel_basis``), module bases (its ``rows``) and the restriction of a
gl family to an invariant span (its ``restrict_by_leaders``) all come
from it, and divide only at the output, by the pivot entries.

Linear maps given by their image terms (basis key -> (target, value)
pairs) have three shared consumers: ``linear_image`` extends such a map
linearly to a sparse vector, ``block_kernel`` solves the joint kernel of
several of them on one block of basis keys, with one ``kernel_basis``
call, and ``gl_relation_failures``, the one bracket check, checks the
relations of commuting gl families column by column.  The Fock
generators come in that form straight from ``fock.FockModel.images``, so
no whole-piece Fock matrix is built in the package;
``ExactOperator.terms`` is an operator's column index in that form.
``gram_matrix`` is the one inner product routine, in mutually orthogonal
coordinates with given squared norms.

The symmetric-group material (slot permutations, central projectors,
row/column symmetrizers, commutants) lives here too, since those
operators are the main clients of the exact core.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import permutations, product

import numpy as np

from .errors import ShapeMismatch, TooLarge
from . import weights as W

BASIS_CAP = 20_000  # basis vectors or solve unknowns; TooLarge beyond

_F0 = Fraction(0)


# ---------------------------------------------------------------------------
# bases


class IndexedBasis:
    """An ordered family of hashable labels with ordinal lookup."""

    __slots__ = ("labels", "_index", "name")

    def __init__(self, labels, name: str = ""):
        self.labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise ValueError("duplicate labels in basis")
        self.name = name

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def ordinal(self, label) -> int:
        return self._index[label]

    def label(self, i: int):
        return self.labels[i]

    def __repr__(self) -> str:
        return f"IndexedBasis({self.name or len(self.labels)}, dim={len(self)})"

    @classmethod
    def tensor_power(cls, k: int, n: int) -> "IndexedBasis":
        """Multi-indices for the n-fold tensor power of C^k, lex order."""
        if k**n > BASIS_CAP:
            raise TooLarge(f"tensor power basis k^n = {k**n} exceeds cap {BASIS_CAP}")
        return cls(product(range(k), repeat=n), name=f"T({k},{n})")

    @classmethod
    def monomials(cls, nvars: int, degree: int) -> "IndexedBasis":
        """Exponent tuples of fixed total degree, lex order."""
        size = math.comb(nvars + degree - 1, degree) if nvars else (1 if degree == 0 else 0)
        if size > BASIS_CAP:
            raise TooLarge(f"monomial basis size {size} exceeds cap {BASIS_CAP}")

        def gen(rem_vars, rem_deg):
            if rem_vars == 1:
                yield (rem_deg,)
                return
            for d in range(rem_deg, -1, -1):
                for rest in gen(rem_vars - 1, rem_deg - d):
                    yield (d,) + rest

        labels = [] if nvars == 0 and degree > 0 else (
            [()] if nvars == 0 else gen(nvars, degree))
        return cls(labels, name=f"Mono({nvars},{degree})")


# ---------------------------------------------------------------------------
# operators


class ExactOperator:
    """Sparse linear map between indexed bases over the rationals."""

    __slots__ = ("domain", "codomain", "data")

    def __init__(self, domain: IndexedBasis, codomain: IndexedBasis, data=None):
        self.domain = domain
        self.codomain = codomain
        self.data: dict[tuple[int, int], int | Fraction] = {}
        if data:
            for (r, c), v in data.items():
                self.add_entry(r, c, v)

    # construction ---------------------------------------------------------

    @classmethod
    def zero(cls, domain, codomain=None):
        return cls(domain, codomain or domain)

    @classmethod
    def identity(cls, basis):
        op = cls(basis, basis)
        for i in range(len(basis)):
            op.data[(i, i)] = 1
        return op

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

    # algebra ---------------------------------------------------------------

    def _check_same_shape(self, other):
        if self.domain is not other.domain or self.codomain is not other.codomain:
            if (self.domain.labels != other.domain.labels
                    or self.codomain.labels != other.codomain.labels):
                raise ValueError("operator shape mismatch")

    def __add__(self, other: "ExactOperator") -> "ExactOperator":
        self._check_same_shape(other)
        out = ExactOperator(self.domain, self.codomain)
        out.data.update(self.data)
        for (r, c), v in other.data.items():
            out.add_entry(r, c, v)
        return out

    def __sub__(self, other: "ExactOperator") -> "ExactOperator":
        self._check_same_shape(other)
        out = ExactOperator(self.domain, self.codomain)
        out.data.update(self.data)
        for (r, c), v in other.data.items():
            out.add_entry(r, c, -v)
        return out

    def __neg__(self) -> "ExactOperator":
        return ExactOperator(
            self.domain, self.codomain, {k: -v for k, v in self.data.items()})

    def scaled(self, scalar) -> "ExactOperator":
        s = scalar if isinstance(scalar, (int, Fraction)) else Fraction(scalar)
        if not s:
            return ExactOperator.zero(self.domain, self.codomain)
        return ExactOperator(
            self.domain, self.codomain, {k: s * v for k, v in self.data.items()})

    def __mul__(self, other):
        """Composition self * other (apply other first), or scalar scaling."""
        if not isinstance(other, ExactOperator):
            return self.scaled(other)
        if other.codomain.labels != self.domain.labels:
            raise ValueError("composition shape mismatch")
        cols = self.columns()
        out = ExactOperator(other.domain, self.codomain)
        for (mid, col), bv in other.data.items():
            for row, av in cols.get(mid, ()):
                out.add_entry(row, col, av * bv)
        return out

    __rmul__ = scaled

    def terms(self):
        """The column index as a map col -> [(row, value)], the form
        ``linear_image``, ``block_kernel`` and ``restrict_by_leaders`` take."""
        cols = self.columns()
        return lambda c: cols.get(c, ())

    def apply(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        return linear_image(self.terms(), vec)

    def transpose(self) -> "ExactOperator":
        return ExactOperator(
            self.codomain, self.domain, {(c, r): v for (r, c), v in self.data.items()})

    def trace(self) -> Fraction:
        if len(self.domain) != len(self.codomain):
            raise ValueError("trace needs a square operator")
        return sum((v for (r, c), v in self.data.items() if r == c), Fraction(0))

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactOperator)
            and self.domain.labels == other.domain.labels
            and self.codomain.labels == other.codomain.labels
            and self.data == other.data
        )

    def __hash__(self):
        raise TypeError("ExactOperator is mutable; not hashable")

    def columns(self) -> dict[int, list[tuple[int, Fraction]]]:
        """Column index: col -> [(row, value)], in storage order."""
        out: dict[int, list[tuple[int, Fraction]]] = {}
        for (r, c), v in self.data.items():
            out.setdefault(c, []).append((r, v))
        return out

    def rows(self) -> list[dict[int, Fraction]]:
        out: dict[int, dict[int, Fraction]] = {}
        for (r, c), v in self.data.items():
            out.setdefault(r, {})[c] = v
        return list(out.values())

    def rank(self) -> int:
        return len(ReducedSpan(self.rows()))

# ---------------------------------------------------------------------------
# exact elimination


def _cleared(vec: dict) -> tuple[dict, int]:
    """(den * vec, den) for the least positive den that makes every entry
    an integer, with the zero entries dropped."""
    den = math.lcm(*(v.denominator for v in vec.values()))
    return ({c: v.numerator * (den // v.denominator)
             for c, v in vec.items() if v}, den)


def _quotient(a: int, b: int) -> int | Fraction:
    """The exact quotient a / b of two integers, an int when b divides a."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def _eliminate(row: dict, p: int, a: int, prow: dict) -> None:
    """row <- (p*row - a*prow) / content in place, for integer rows with
    a at the column where prow has p: that column cancels, entries that
    cancel are dropped, and the row is left primitive."""
    g = math.gcd(p, a)
    pm, am = p // g, a // g
    if pm != 1:
        for c in row:
            row[c] *= pm
    for c, v in prow.items():
        if x := row.get(c, 0) - am * v:
            row[c] = x
        else:
            del row[c]
    g = math.gcd(*row.values())  # 0 once the row has cancelled
    if g > 1:
        for c in row:
            row[c] //= g


class ReducedSpan:
    """Incrementally reduced span of sparse rational vectors, in integers.

    ``rows`` holds the rows in insertion order.  A row's pivot is its
    lowest column once reduced against the rows before it.  Each row is
    integer and primitive, positive at its pivot and 0 at every other
    row's pivot, so the pivots are leader coordinates of the span, and
    row / row[pivot] is the matching row of its reduced row echelon form.
    Its pivot -> position index, in row order, is private to this class."""

    __slots__ = ("rows", "_pivots")

    def __init__(self, vectors=()):
        self.rows: list[dict[int, int]] = []
        self._pivots: dict[int, int] = {}
        for vec in vectors:
            self.insert(vec)

    def __len__(self) -> int:
        return len(self.rows)

    def insert(self, vec) -> bool:
        """Add the vector; return True when it enlarged the span."""
        v, _ = _cleared(vec)
        # rows are 0 at each other's pivots, so elimination adds no pivot
        # entry: the pivots to clear are read up front, each entry when used
        for piv in [c for c in v if c in self._pivots]:
            row = self.rows[self._pivots[piv]]
            _eliminate(v, row[piv], v[piv], row)
        if not v:
            return False
        piv = min(v)
        g = math.gcd(*v.values())
        if v[piv] < 0:
            g = -g  # the pivot entry comes out positive
        if g != 1:
            for c in v:
                v[c] //= g
        for row in self.rows:  # back-substitute into earlier rows
            a = row.get(piv)
            if a:
                _eliminate(row, v[piv], a, v)
        self._pivots[piv] = len(self.rows)
        self.rows.append(v)
        return True

    def kernel(self, ncols: int) -> list[dict[int, int | Fraction]]:
        """Vectors annihilated by every row, one per free column below
        ncols: 1 in that column, then -row[free] / row[pivot] at each
        row's pivot."""
        out = []
        for free in range(ncols):
            if free in self._pivots:
                continue
            vec = {free: 1}
            for piv, row in zip(self._pivots, self.rows):
                x = row.get(free)
                if x:
                    vec[piv] = _quotient(-x, row[piv])
            out.append(vec)
        return out

    def restrict_by_leaders(self, family: dict) -> dict:
        """Operators of a family of linear maps, each given by its image
        terms (see ``linear_image``), restricted to the span, which every
        map must send into itself; the operators share one module basis
        with one label per row, and keep the family's keys.  Each row is
        0 at the other rows' pivots, so the coordinate of an image on row
        i is image[pivot] / row[pivot].  The image is checked to equal
        that combination exactly, in integers, and ``ShapeMismatch`` is
        raised when a map leaves the span."""
        rows = self.rows
        basis = IndexedBasis(range(len(rows)), name=f"module({len(rows)})")
        out = {}
        for key, terms in family.items():
            op = out[key] = ExactOperator(basis, basis)
            for j, row in enumerate(rows):
                image, den = _cleared(linear_image(terms, row))
                coords = sorted((i, a, rows[i][c]) for c, a in image.items()
                                if (i := self._pivots.get(c)) is not None)
                scale = math.lcm(*(p for _, _, p in coords))
                combo = {i: a * (scale // p) for i, a, p in coords}
                if linear_image(lambda i: rows[i].items(), combo) != {
                        c: scale * v for c, v in image.items()}:
                    raise ShapeMismatch("a map does not preserve the span")
                for i, a, p in coords:
                    op.data[(i, j)] = _quotient(a, den * p)
        return out


def kernel_basis(rows, ncols: int) -> list[dict[int, int | Fraction]]:
    """Kernel of the stacked row system, as sparse column vectors, each
    with a 1 in its free column (see ``ReducedSpan.kernel``)."""
    return ReducedSpan(rows).kernel(ncols)


def linear_image(terms, vec) -> dict:
    """Image of the sparse vector ``vec`` under the linear map that sends
    basis key c to the (target, value) terms ``terms(c)``; repeated
    targets add up, and entries that cancel are dropped."""
    out: dict = {}
    for c, x in vec.items():
        if not x:
            continue
        for tgt, v in terms(c):
            old = out.get(tgt)
            if old is None:
                out[tgt] = v * x
            elif new := old + v * x:
                out[tgt] = new
            else:
                del out[tgt]
    return out


def block_kernel(members, maps) -> list[dict]:
    """Joint kernel of linear maps on the span of ``members`` (basis keys
    of one block), each map given as key -> (target, value) image terms.

    Member j puts its image coefficients in column j of one equation row
    per (map, target), repeated targets adding up; the rows are solved by
    one ``kernel_basis`` call, and the kernel vectors come back keyed by
    member."""
    rows = []
    for terms in maps:
        eq: dict = {}
        for j, key in enumerate(members):
            for tgt, v in terms(key):
                row = eq.get(tgt)
                if row is None:
                    eq[tgt] = {j: v}
                elif j in row:
                    row[j] += v
                else:
                    row[j] = v
        rows.extend(eq.values())
    return [{members[i]: v for i, v in vec.items()}
            for vec in kernel_basis(rows, len(members))]


def gram_matrix(vectors, weight) -> list[list[Fraction]]:
    """Gram matrix of sparse vectors in mutually orthogonal coordinates,
    <u, v> = sum_o u[o] v[o] weight(o), with weight(o) the squared norm
    of coordinate o."""
    d = len(vectors)
    g = [[_F0] * d for _ in range(d)]
    for u, a in enumerate(vectors):
        for v in range(u, d):
            s = _F0
            for o, cv in vectors[v].items():
                x = a.get(o)
                if x:
                    s += x * cv * weight(o)
            g[u][v] = g[v][u] = s
    return g


# ---------------------------------------------------------------------------
# permutations


def perm_inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


# ---------------------------------------------------------------------------
# symmetric group and gl(k) actions on tensor powers


def sn_action(sigma: tuple[int, ...], k: int, n: int,
              basis: IndexedBasis | None = None) -> ExactOperator:
    """Slot permutation on the n-fold tensor power of C^k.

    The factor in slot a moves to slot sigma(a), which makes the map
    multiplicative: sn_action(s) * sn_action(t) == sn_action(s after t).
    """
    if len(sigma) != n:
        raise ValueError(f"permutation length {len(sigma)} != {n}")
    b = basis or IndexedBasis.tensor_power(k, n)
    op = ExactOperator(b, b)
    inv = perm_inverse(sigma)
    for col, lab in enumerate(b.labels):
        tgt = tuple(lab[inv[p]] for p in range(n))
        op.data[(b.ordinal(tgt), col)] = 1
    return op


def gl_tensor_action(i: int, j: int, k: int, n: int,
                     basis: IndexedBasis | None = None) -> ExactOperator:
    """Derivation action of the elementary matrix E_ij across the n slots."""
    b = basis or IndexedBasis.tensor_power(k, n)
    op = ExactOperator(b, b)
    for col, lab in enumerate(b.labels):
        for slot, letter in enumerate(lab):
            if letter == j:
                tgt = lab[:slot] + (i,) + lab[slot + 1:]
                op.add_entry(b.ordinal(tgt), col, 1)
    return op


@cache
def _character_by_type(shape: tuple[int, ...], n: int) -> dict[tuple[int, ...], int]:
    return {mu: W.sn_character(shape, mu) for mu in W.partitions_of(n)}


def _row_filling(shape) -> list[list[int]]:
    rows = []
    c = 0
    for r in shape:
        rows.append(list(range(c, c + r)))
        c += r
    return rows


def subgroup_perms(blocks: list[list[int]], n: int) -> list[tuple[int, ...]]:
    """Every permutation of range(n) that maps each block onto itself."""
    out = [tuple(range(n))]
    for blk in blocks:
        new = []
        for base in out:
            for perm in permutations(blk):
                m = list(base)
                for src, dst in zip(blk, perm):
                    m[src] = dst
                new.append(tuple(m))
        out = new
    return out


def young_symmetrizer(shape, k: int,
                      basis: IndexedBasis | None = None) -> ExactOperator:
    """Column antisymmetrizer times row symmetrizer for the row-reading
    tableau of the shape, as an operator on the tensor power."""
    lam = W.partition(shape)
    n = sum(lam)
    b = basis or IndexedBasis.tensor_power(k, n)
    rows = _row_filling(lam)
    cols = []
    for j in range(lam[0] if lam else 0):
        cols.append([row[j] for row in rows if j < len(row)])
    row_sym = ExactOperator(b, b)
    for p in subgroup_perms(rows, n):
        row_sym += sn_action(p, k, n, basis=b)
    col_anti = ExactOperator(b, b)
    for q in subgroup_perms(cols, n):
        col_anti += sn_action(q, k, n, basis=b).scaled(W.perm_sign(q))
    return col_anti * row_sym


# ---------------------------------------------------------------------------
# gl relations and commutants


def gl_relation_failures(families: dict, columns) -> list[str]:
    """Labels of the generator pairs that break the relations of commuting
    gl families: within a family keyed (i, j),
    [E_ij, E_lm] = d_jl E_im - d_mi E_lj, and across families [A, B] = 0.

    ``families`` maps a name to {(i, j): image terms} (see
    ``linear_image``), every map acting on the span of the keys
    ``columns``.  Both sides change sign when the pair is swapped and
    vanish when it repeats a generator, so each unordered pair is checked
    once, column by column, on the columns of its generators."""
    cols = {(name, key): {c: linear_image(terms, {c: 1}) for c in columns}
            for name, family in families.items()
            for key, terms in family.items()}
    # the same columns as image terms, for linear_image to apply
    maps = {gen: {c: list(col.items()) for c, col in by_col.items()}
            for gen, by_col in cols.items()}
    gens = list(cols)
    bad = []
    for s, (f, (i, j)) in enumerate(gens):
        a, a_terms = cols[f, (i, j)], maps[f, (i, j)].__getitem__
        for g, (l, m) in gens[s + 1:]:
            b, b_terms = cols[g, (l, m)], maps[g, (l, m)].__getitem__
            rhs = []  # (coefficient, columns) of the right-hand side
            if f == g and j == l:
                rhs.append((1, cols[f, (i, m)]))
            if f == g and m == i:
                rhs.append((-1, cols[f, (l, j)]))
            for c in a:  # AB c == BA c + rhs c
                ab = linear_image(a_terms, b[c])
                ba = linear_image(b_terms, a[c])
                for x, e in rhs:
                    for t, v in e[c].items():
                        if new := ba.get(t, 0) + x * v:
                            ba[t] = new
                        else:
                            del ba[t]
                if ab != ba:
                    bad.append(f"gl({f})[{i}{j},{l}{m}]" if f == g
                               else f"{f}{i}{j} vs {g}{l}{m}")
                    break
    return bad


def gl_commutant_dim(rank: int, op) -> int:
    """Dimension of the commutant of one gl(rank) action, with op(i, j)
    the operator of E_ij.  The E_{i,i+1} and E_{i+1,i} generate, and the
    E_ii are solved in advance as Cartans; for rank 1 the Cartan is the
    only generator."""
    carts = [op(i, i) for i in range(rank)]
    if rank == 1:
        return commutant_dim(carts)
    gens = [op(i + s, i + 1 - s) for i in range(rank - 1) for s in (0, 1)]
    return commutant_dim(gens, cartans=carts)


def commutator_rows(terms, columns, block, var):
    """Rows of the equations (AX - XA)[t, c] = 0 for each key c in
    ``columns``, one row per target t, each yielded and dropped in turn.

    A is given by its image terms (key -> (target, value) pairs, see
    ``linear_image``).  X is block diagonal: X[r, c] is the unknown
    ``var(r, c)`` for r in ``block(c)`` and 0 elsewhere, so (AX)[t, c]
    sums A[t, j] X[j, c] over j in block(c), and (XA)[t, c] sums
    X[t, j] A[j, c] over t in block(j)."""
    for c in columns:
        eq: dict = {}
        entries = [(t, var(j, c), v) for j in block(c) for t, v in terms(j)]
        entries += [(t, var(t, j), -v) for j, v in terms(c) for t in block(j)]
        for t, x, v in entries:
            row = eq.setdefault(t, {})
            row[x] = row.get(x, 0) + v
        while eq:
            yield eq.popitem()[1]


def commutant_dim(generators: list[ExactOperator],
                  cartans: list[ExactOperator] | None = None) -> int:
    """Dimension of the joint commutant, by exact linear solve.

    Unknowns are the matrix entries of X; each generator A contributes the
    equations AX - XA = 0 (``commutator_rows``).  When ``cartans`` is
    given, those operators must be diagonal; X is then restricted to the
    joint-eigenvalue blocks they cut out, which is exactly the commutation
    constraint with the Cartan subalgebra, solved in advance.
    """
    if not generators:
        raise ValueError("need at least one generator")
    d = len(generators[0].domain)
    for g in generators:
        if len(g.domain) != d or len(g.codomain) != d:
            raise ValueError("generators must share one square basis")

    diags = []
    for h in cartans or ():
        if any(r != c for r, c in h.data):
            raise ValueError("cartan operators must be diagonal")
        diags.append([h.data.get((i, i), 0) for i in range(d)])
    blocks: dict[tuple, list[int]] = {}  # joint eigenvalues -> block
    for i in range(d):
        blocks.setdefault(tuple(diag[i] for diag in diags), []).append(i)

    var_id: dict[tuple[int, int], int] = {}
    block_of: dict[int, list[int]] = {}
    for blk in blocks.values():
        for r in blk:
            block_of[r] = blk
            for c in blk:
                var_id[(r, c)] = len(var_id)
    nvars = len(var_id)
    if nvars > BASIS_CAP:
        raise TooLarge(
            f"commutant solve with {nvars} unknowns exceeds cap {BASIS_CAP}")

    # X(cA) = (cA)X iff XA = AX: scaled by the lcm c of its denominators,
    # A gives integer equation rows
    rows = (row for g in generators for row in commutator_rows(
        ExactOperator(g.domain, g.codomain, _cleared(g.data)[0]).terms(),
        range(d), block_of.__getitem__, lambda r, c: var_id[(r, c)]))
    return nvars - len(ReducedSpan(rows))


# ---------------------------------------------------------------------------
# fast exact family check for the central projectors

INT64_GUARD = 2**62


def _orbit_count(pattern, k: int) -> int:
    """Letter multisets of size sum(pattern) over k letters whose
    multiplicities, largest first, are the pattern."""
    return math.perm(k, len(pattern)) // math.prod(
        math.factorial(pattern.count(m)) for m in set(pattern))


def projector_family_check(n: int, k: int) -> dict:
    """Exact verification that the central projectors on the tensor power
    are idempotent, mutually orthogonal and complete.

    Slot permutations preserve the multiset of letters, so the projectors
    are block diagonal over those orbits.  Relabelling the letters
    commutes with slot permutations, so every orbit with one pattern of
    letter multiplicities carries the same blocks: each pattern is checked
    once, on the orbit of one representative word, and its traces count
    once per orbit.  The blocks are n! * P_lambda over int64; an explicit
    bound check guarantees no overflow, so the arithmetic is exact.
    """
    shapes = list(W.partitions_of(n))
    patterns = list(W.partitions_of(n, max_rows=k))
    chi = {lam: _character_by_type(lam, n) for lam in shapes}
    perms = list(permutations(range(n)))
    types = [W.perm_cycle_type(p) for p in perms]
    type_list = sorted(set(types), reverse=True)
    type_idx = {t: i for i, t in enumerate(type_list)}
    fact = math.factorial(n)

    fmax = max(W.sn_dim(lam) for lam in shapes)
    chimax = max(abs(v) for lam in shapes for v in chi[lam].values())
    max_block = max(fact // math.prod(map(math.factorial, p)) for p in patterns)
    entry_bound = fmax * fact * chimax
    if max_block * entry_bound * entry_bound >= INT64_GUARD:
        raise TooLarge("int64 bound exceeded; enlarge guard or shrink n, k")

    # n! * P_lambda = f_lambda * sum over cycle types t of chi_lambda(t) * C_t,
    # with C_t the sum of the slot permutations of type t
    coef = np.array([[W.sn_dim(lam) * chi[lam][t] for t in type_list]
                     for lam in shapes], dtype=np.int64)
    perm_type = np.array([type_idx[t] for t in types])
    inv = np.array([perm_inverse(p) for p in perms])
    place = k ** np.arange(n - 1, -1, -1)  # base-k code, increasing in lex order

    idempotent = True
    orthogonal = True
    complete = True
    traces = {lam: 0 for lam in shapes}

    for pattern in patterns:
        word = np.repeat(np.arange(len(pattern)), pattern)
        members = np.unique(word[inv], axis=0)  # the orbit, in lex order
        size = len(members)
        # ordinal of each member's image under each slot permutation
        tgt = np.searchsorted(members @ place, members[:, inv] @ place)
        counts = np.zeros((len(type_list), size, size), dtype=np.int64)
        np.add.at(counts, (perm_type, tgt, np.arange(size)[:, None]), 1)
        blocks = np.tensordot(coef, counts, axes=1)  # n! * P_lambda here
        orbits = _orbit_count(pattern, k)
        if not np.array_equal(blocks.sum(axis=0),
                              fact * np.eye(size, dtype=np.int64)):
            complete = False
        for i, (lam, B) in enumerate(zip(shapes, blocks)):
            traces[lam] += orbits * int(np.trace(B))
            if not np.array_equal(B @ B, fact * B):
                idempotent = False
            for C in blocks[i + 1:]:
                if (B @ C).any():
                    orthogonal = False

    ranks = {}
    for lam in shapes:
        q, r = divmod(traces[lam], fact)
        if r:
            idempotent = False
        ranks[lam] = q

    return {
        "n": n,
        "k": k,
        "complete": complete,
        "idempotent": idempotent,
        "orthogonal": orthogonal,
        "ranks": ranks,
    }
