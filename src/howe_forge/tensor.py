"""Exact linear algebra over the rationals, on sparse vectors and maps.

Every linear map in the package has one form: its image terms, a
function that sends a basis key c to the (target, value) pairs of its
image.  A key is the label of its basis vector: an exponent tuple from
``monomials``, a word of a tensor power (one letter per slot), a pair
of those, or a row index of a module basis; no position is kept for a
label.  Values are exact rationals: ``int`` wherever a value is
integral, ``Fraction`` only where a quotient is really produced; there
are no tolerance parameters in this module.  Four consumers share that
form: ``linear_image`` extends a map linearly to a sparse vector,
``block_kernel`` solves the joint kernel of several maps on one block of
basis keys, ``gl_relation_failures``, the one bracket check, checks the
relations of commuting gl families column by column, and
``commutant_dim`` solves for the joint commutant of maps on range(d).
It rescales no map: its rational equation rows go to ``rank_of_rows``,
whose span clears each row's denominators as it inserts it.
The bracket check reads each pair with a diagonal E_ii off its
eigenvalues, [E_ii, B] = s B holding exactly when E_ii moves by s from
each column c of B to each target of B c, and compares products only for
the other pairs.
The Fock generators come in that form straight from
``fock.FockModel.images``, so no whole-piece matrix is built in the
package.

One elimination serves every caller: ``ReducedSpan``, the reduced span
of rational rows, kept in integers by the fraction-free update
row <- (p*row - a*prow) / gcd(p, a).  A new row is divided by its content
once, after its forward reduction; a stored row is divided by its content
after each back-substitution step.  Each row is integer and primitive,
positive at its pivot (its lowest column when inserted) and 0 at every
other row's pivot.  Ranks (``rank_of_rows``, which ``commutant_dim`` and
``fock.weyl_commutant_dim`` read), kernels (``kernel_basis``), module
bases (its ``rows``) and the restriction of a family of maps to an
invariant span (``restrict_by_leaders``, image terms on the row indices)
all come from it, and divide only at the output, by the pivot entries.
``rank_of_rows`` inserts the sparsest rows first, which cuts the fill-in
that back-substitution clears.  The order cannot change a result: for a
fixed column order the reduced row echelon form is unique.  Kernels and
module spans take their rows in the order given, since a span's ``rows``
are a module basis in insertion order, and sorting the kernel solves
bought no time.  Positivity is another client: ``positive_definite``
runs the same update, in order, on the sparse rows of a Gram matrix,
which ``gram_matrix``, the one inner product routine (in mutually
orthogonal coordinates with given squared norms), returns as one dict of
nonzero entries per row.

The symmetric-group material (the central projectors' family check,
the subgroups that fix blocks of slots) and the commutant solves live
here too, since they are the main clients of the exact core.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import permutations

from .errors import InvariantBroken, ShapeMismatch, TooLarge
from . import weights as W

BASIS_CAP = 20_000  # basis vectors or solve unknowns; TooLarge beyond

# ---------------------------------------------------------------------------
# bases


def monomial_count(nvars: int, degree: int) -> int:
    """Number of ``monomials(nvars, degree)``, refused as that refuses."""
    if degree < 0:
        raise ShapeMismatch(f"negative degree {degree}")
    size = math.comb(nvars + degree - 1, degree) if nvars else int(degree == 0)
    if size > BASIS_CAP:
        raise TooLarge(f"monomial basis size {size} exceeds cap {BASIS_CAP}")
    return size


def monomials(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of fixed total degree, descending lex order.  Each
    follows from the one before: the last nonzero entry before the end
    gives up one, and the entry after it takes that one plus the end's."""
    monomial_count(nvars, degree)
    if nvars == 0:
        return ((),) if degree == 0 else ()
    e, out = [degree] + [0] * (nvars - 1), []
    while True:
        out.append(tuple(e))
        if e[-1] == degree:
            return tuple(out)
        end, e[-1] = e[-1], 0
        j = nvars - 2
        while not e[j]:
            j -= 1
        e[j] -= 1
        e[j + 1] = end + 1


# ---------------------------------------------------------------------------
# exact elimination


def _cleared(vec: dict) -> tuple[dict, int]:
    """(den * vec, den) for the least positive den that makes every entry
    an integer, with the zero entries dropped, always in a new dict.  A
    vector of nonzero ints, as a commutator row of integer maps is, is
    only copied."""
    if all(type(v) is int and v for v in vec.values()):
        return dict(vec), 1
    den = math.lcm(*(v.denominator for v in vec.values()))
    return ({c: v.numerator * (den // v.denominator)
             for c, v in vec.items() if v}, den)


def _quotient(a: int, b: int) -> int | Fraction:
    """The exact quotient a / b of two integers, an int when b divides a."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def _cancel(row: dict, p: int, a: int, prow: dict) -> None:
    """row <- (p*row - a*prow) / gcd(p, a) in place, for integer rows with
    a at the column where prow has p: that column cancels, and entries
    that cancel are dropped."""
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


def _eliminate(row: dict, p: int, a: int, prow: dict) -> None:
    """``_cancel``, then row <- row / content, so the row is left
    primitive: the step for a stored row under back-substitution, and for
    ``positive_definite``.  A row being inserted is only cancelled, and
    divided by its content once at the end."""
    _cancel(row, p, a, prow)
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
        self.rows: list[dict] = []
        self._pivots: dict = {}
        for vec in vectors:
            self.insert(vec)

    def __len__(self) -> int:
        return len(self.rows)

    def insert(self, vec) -> bool:
        """Add the vector; return True when it enlarged the span."""
        v, _ = _cleared(vec)
        # rows are 0 at each other's pivots, so elimination adds no pivot
        # entry: the pivots to clear are read up front, each entry when used.
        # Only the final division below makes v primitive.
        for piv in [c for c in v if c in self._pivots]:
            row = self.rows[self._pivots[piv]]
            _cancel(v, row[piv], v[piv], row)
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
        """A family of linear maps, each given by its image terms (see
        ``linear_image``), restricted to the span, which every map must
        send into itself: image terms on the row indices, keyed like the
        family.  Each row is 0 at the other rows' pivots, so the
        coordinate of an image on row i is image[pivot] / row[pivot].  The
        image is checked to equal that combination exactly, in integers,
        and ``ShapeMismatch`` is raised when a map leaves the span."""
        rows = self.rows
        out = {}
        for key, terms in family.items():
            cols = []
            for row in rows:
                image, den = _cleared(linear_image(terms, row))
                coords = sorted((i, a, rows[i][c]) for c, a in image.items()
                                if (i := self._pivots.get(c)) is not None)
                scale = math.lcm(*(p for _, _, p in coords))
                combo = {i: a * (scale // p) for i, a, p in coords}
                if linear_image(lambda i: rows[i].items(), combo) != {
                        c: scale * v for c, v in image.items()}:
                    raise ShapeMismatch("a map does not preserve the span")
                cols.append([(i, _quotient(a, den * p)) for i, a, p in coords])
            out[key] = cols.__getitem__
        return out


def rank_of_rows(rows) -> int:
    """Rank of the sparse rational rows.  They go into one ``ReducedSpan``
    sparsest first (a stable sort by support size, so ties keep their
    order), which leaves less fill-in for back-substitution to clear.  The
    order cannot change the rank, nor the span's reduced row echelon form,
    which is unique for a fixed column order."""
    return len(ReducedSpan(sorted(rows, key=len)))


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


def gram_matrix(vectors, weight) -> list[dict[int, int | Fraction]]:
    """Gram matrix of sparse vectors in mutually orthogonal coordinates,
    <u, v> = sum_o u[o] v[o] weight(o), with weight(o) the squared norm
    of coordinate o, as one row per vector that holds only its nonzero
    entries, keyed by column; sums are in the type of the entries, so
    integer vectors and norms give integer rows."""
    d = len(vectors)
    g = [{} for _ in range(d)]
    for u, a in enumerate({o: x * weight(o) for o, x in vec.items()}
                          for vec in vectors):
        for v in range(u, d):
            s = 0
            for o, cv in vectors[v].items():
                x = a.get(o)
                if x:
                    s += x * cv
            if s:
                g[u][v] = g[v][u] = s
    return g


def positive_definite(rows) -> bool:
    """True iff every leading principal minor of the matrix with these
    sparse rows (row i maps each column to its nonzero entry) is
    positive, exactly: for a symmetric matrix, iff it is positive definite.

    Each row is cleared to integers, a positive scaling, and the rows are
    eliminated in order by the span's update: while the pivot p is
    positive, ``_eliminate`` scales a later row only by p / gcd and by its
    positive content, so pivot i is a positive multiple of D_i / D_(i-1),
    a ratio of leading principal minors.  No zero is stored, so rows that
    share no column never meet."""
    rows = [_cleared(row)[0] for row in rows]
    for i, prow in enumerate(rows):
        p = prow.get(i, 0)
        if p <= 0:
            return False
        for row in rows[i + 1:]:  # every later row, not prow's support
            if a := row.get(i):
                _eliminate(row, p, a, prow)
    return True


# ---------------------------------------------------------------------------
# permutations and symmetric-group characters


def perm_inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


@cache
def _character_by_type(shape: tuple[int, ...], n: int) -> dict[tuple[int, ...], int]:
    return {mu: W.sn_character(shape, mu) for mu in W.partitions_of(n)}


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


# ---------------------------------------------------------------------------
# gl relations and commutants


def gl_relation_failures(families: dict, columns) -> list[str]:
    """Labels of the generator pairs that break the relations of commuting
    gl families: within a family keyed (i, j),
    [E_ij, E_lm] = d_jl E_im - d_mi E_lj, and across families [A, B] = 0.

    ``families`` maps a name to {(i, j): image terms} (see
    ``linear_image``), every map acting on the span of the keys
    ``columns``; a map that sends a column elsewhere raises
    ``ShapeMismatch``.  Both sides change sign when the pair is swapped and
    vanish when it repeats a generator, so each unordered pair is checked
    once, column by column, on the columns of its generators.

    An E_ii whose image of each column is empty or a multiple of that
    column is diagonal, with eigenvalue H[c] on column c.  Two diagonal
    maps commute, as the relations ask of two E_ii, so such a pair is not
    checked.  For a diagonal H = E_ii and any other generator B, the
    relation reads [H, B] = s B, with s = d_il - d_im when B = E_lm is in
    the family of H and s = 0 otherwise; and [H, B] c is the sum of
    (H[t] - H[c]) B[t, c] t.  So the pair holds exactly when
    H[t] - H[c] = s for every target t of every B c, a condition on the
    eigenvalues in which any constant shift of H cancels.  The other
    pairs compare the products AB c and BA c."""
    cols = {(name, key): {c: linear_image(terms, {c: 1}) for c in columns}
            for name, family in families.items()
            for key, terms in family.items()}
    diag = {}  # eigenvalues of each diagonal E_ii, by column
    for (f, (i, j)), by_col in cols.items():
        if any(not col.keys() <= by_col.keys() for col in by_col.values()):
            raise ShapeMismatch(f"{f}{i}{j} sends a column outside the "
                                "columns")
        if i == j and all(col.keys() <= {c} for c, col in by_col.items()):
            diag[f, (i, j)] = {c: col.get(c, 0) for c, col in by_col.items()}
    # the columns of the maps that enter products, as image terms for
    # linear_image to apply
    maps = {gen: {c: list(col.items())
                  for c, col in by_col.items()}.__getitem__
            for gen, by_col in cols.items() if gen not in diag}
    gens = list(cols)
    bad = []
    for s, gen in enumerate(gens):
        f, (i, j) = gen
        for other in gens[s + 1:]:
            g, (l, m) = other
            label = (f"gl({f})[{i}{j},{l}{m}]" if f == g
                     else f"{f}{i}{j} vs {g}{l}{m}")
            if gen in diag or other in diag:
                if gen in diag and other in diag:
                    continue  # two diagonal maps commute
                hgen, bgen = (gen, other) if gen in diag else (other, gen)
                h, p, (x, y) = diag[hgen], hgen[1][0], bgen[1]
                shift = (p == x) - (p == y) if f == g else 0
                if any(h[t] - h[c] != shift
                       for c, col in cols[bgen].items() for t in col):
                    bad.append(label)
                continue
            a, b = cols[gen], cols[other]
            a_terms, b_terms = maps[gen], maps[other]
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
                    bad.append(label)
                    break
    return bad


def gl_commutant_dim(family: dict, d: int) -> int:
    """Dimension of the commutant of one gl(rank) action on range(d),
    with ``family`` mapping (i, j) to the image terms of E_ij.  The
    E_{i,i+1} and E_{i+1,i} generate, and the E_ii are solved in advance
    as Cartans; for rank 1 there is no other generator."""
    rank = max(i for i, _ in family) + 1
    carts = [family[(i, i)] for i in range(rank)]
    gens = [family[(i + s, i + 1 - s)]
            for i in range(rank - 1) for s in (0, 1)]
    return commutant_dim(gens, d, carts)


def commutator_rows(terms, columns, block, var):
    """Rows of the equations (AX - XA)[t, c] = 0 for each key c in
    ``columns``, one row per target t, each yielded and dropped in turn.
    Entries that cancel are left out, and so is a row that cancels to
    nothing.

    A is given by its image terms (key -> (target, value) pairs, see
    ``linear_image``).  X is block diagonal: X[r, c] is the unknown
    ``var(r, c)`` for r in ``block(c)`` and 0 elsewhere, so (AX)[t, c]
    sums A[t, j] X[j, c] over j in block(c), and (XA)[t, c] sums
    X[t, j] A[j, c] over t in block(j)."""
    for c in columns:
        eq: dict = {}
        entries = []
        for j in block(c):  # X[j, c] is looked up once, for all its targets
            x = var(j, c)
            entries += [(t, x, v) for t, v in terms(j)]
        entries += [(t, var(t, j), -v) for j, v in terms(c) for t in block(j)]
        for t, x, v in entries:
            row = eq.setdefault(t, {})
            row[x] = row.get(x, 0) + v
        while eq:
            row = {x: v for x, v in eq.popitem()[1].items() if v}
            if row:
                yield row


def commutant_dim(generators: list, d: int, cartans=()) -> int:
    """Dimension of the joint commutant of maps on range(d), each given by
    its image terms, by exact linear solve.

    Unknowns are the matrix entries of X; each generator A contributes the
    equations AX - XA = 0 (``commutator_rows``).  The ``cartans`` must be
    diagonal; X is then restricted to the joint-eigenvalue blocks they cut
    out, which is exactly the commutation constraint with the Cartan
    subalgebra, solved in advance.  The dimension is the number of
    unknowns less the rank of the equations (``rank_of_rows``).
    """
    diags = []
    for h in cartans:
        diag = []
        for i in range(d):
            image = h(i)
            if any(t != i for t, _ in image):
                raise InvariantBroken("cartan operators must be diagonal")
            diag.append(sum(v for _, v in image))
        diags.append(diag)
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

    rows = (row for g in generators for row in commutator_rows(
        g, range(d), block_of.__getitem__, lambda r, c: var_id[(r, c)]))
    return nvars - rank_of_rows(rows)


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
    This is the module's one numpy user, so numpy loads on the first
    call and not with the module.
    """
    import numpy as np

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
