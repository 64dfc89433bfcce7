"""Graded polynomial models with commuting Lie-algebra actions.

The compact model is the polynomial algebra on a k x M matrix of
variables x[i,a]; gl(k) acts along rows, gl(M) along columns.  Fock
vectors are keyed by exponent labels, and each generator has one form,
the image terms that ``FockModel.images`` reads off a label onto labels
(see ``tensor``).  Solves read them on the monomials they visit, and so
does the bracket check (``FockModel.bracket_failures``, through
``tensor.gl_relation_failures``): no Fock matrix and no basis of a
target piece is built in the package.  The model caches nothing.  A
piece's dominant weight blocks are built from their column sums alone
(``FockModel.dominant_blocks``), once per piece in ``verify_howe``, whose
highest weight, multiplicity and commutant solves all read them; the
commutant solve reaches any other block through the permutation that
sorts its weight.

The indefinite (oscillator) model adjoins a k x N block y[i,b].  The
gl(k) action twists by the dual on the y block; the middle-algebra
blocks gl(M), gl(N) stay first-order, while the off-diagonal blocks act
by multiplication (raisers, bidegree (+1,+1)) and by second-order
differentiation (lowerers, bidegree (-1,-1)).

Convention constants ("sq" plain, "hf" symmetrized) are fixed here once
and validated downstream against the expected label shifts; they are the
only free normalization in the whole module.  Weights travel as integer
weight keys, which ``FockModel.blocks`` alone builds and
``FockModel.dressed_weights`` alone dresses; no other module reads them.

Every report here derives from ``_Report``: a report's JSON is its
dataclass fields, in declaration order, plus ``ok``, so no report writes
its own ``to_json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from operator import sub

from . import weights as W
from .errors import InvariantBroken, NotRenormalizable, ShapeMismatch, \
    TooLarge
from .tensor import BASIS_CAP, block_kernel, commutator_rows, \
    gl_relation_failures, monomial_count, monomials, perm_inverse, \
    rank_of_rows, subgroup_perms


def _convention_constants(k: int, M: int, N: int, convention: str):
    """Scalar parts of the diagonal generators.

    hf uses the symmetrized ordering (x d/dx + d/dx x)/2 on every block,
    which contributes M/2, k/2, -k/2 (for N=0: M/2 and k/2).  sq drops
    the symmetrization on the k side and twists the middle algebra by a
    half determinant power, giving 0, k, 0.  A constant is an int when
    it is integral and a Fraction otherwise.
    """
    if convention == "sq":
        return (0, k if N else 0, 0)
    if convention == "hf":
        return tuple(c.numerator if c.denominator == 1 else c for c in (
            Fraction(M - N, 2), Fraction(k, 2), Fraction(-k, 2)))
    raise ShapeMismatch(f"unknown convention {convention!r}")


def _image(lab, terms):
    """(target, value) pairs of one monomial's image under the sum of
    coeff * x_u d/d x_v over the (coeff, u, v) terms."""
    for coeff, u, v in terms:
        e = lab[v]
        if e:
            tgt = list(lab)
            tgt[v] -= 1
            tgt[u] += 1
            yield tuple(tgt), coeff * e


def _fillings(sums, k):
    """The k-row matrices of non-negative integers with the given column
    sums, in descending lex order, each as its entries row by row and its
    row sums."""
    if k == 1:
        yield tuple(sums), (sum(sums),)
        return
    for row in product(*(range(c, -1, -1) for c in sums)):
        for rest, rows in _fillings([c - r for c, r in zip(sums, row)], k - 1):
            yield row + rest, (sum(row),) + rows


@dataclass
class FockModel:
    """Polynomial model as one graded algebra with no top degree, keeping
    no piece: ``basis`` and ``blocks`` build theirs on each call, up to
    ``BASIS_CAP`` monomials a piece, and generator images are exact."""

    k: int
    M: int
    N: int
    convention: str
    c_k: int | Fraction = field(init=False)
    c_m: int | Fraction = field(init=False)
    c_n: int | Fraction = field(init=False)

    def __post_init__(self):
        if self.k <= 0 or self.M <= 0 or self.N < 0:
            raise ShapeMismatch(
                f"bad model parameters k={self.k}, M={self.M}, N={self.N}")
        self.c_k, self.c_m, self.c_n = _convention_constants(
            self.k, self.M, self.N, self.convention)

    # variable layout -------------------------------------------------------

    @property
    def nxvars(self) -> int:
        return self.k * self.M

    @property
    def nyvars(self) -> int:
        return self.k * self.N

    def xvar(self, i: int, a: int) -> int:
        return i * self.M + a

    def yvar(self, i: int, b: int) -> int:
        return self.nxvars + i * self.N + b

    # bases ------------------------------------------------------------------

    def check_piece(self, p: int, q: int) -> None:
        """Refuse bidegree (p, q) past ``BASIS_CAP`` monomials, or with a
        negative degree or a y degree the compact model lacks."""
        if self.N == 0 and q != 0:
            raise ShapeMismatch("compact model has no y grading")
        size = monomial_count(self.nxvars, p) * monomial_count(self.nyvars, q)
        if size > BASIS_CAP:
            raise TooLarge(f"bidegree {(p, q)} needs {size} monomials")

    def basis(self, p: int, q: int) -> tuple[tuple[int, ...], ...]:
        """Exponent labels of the monomials of bidegree (p, q)."""
        self.check_piece(p, q)
        xb, yb = monomials(self.nxvars, p), monomials(self.nyvars, q)
        return tuple(lx + ly for lx in xb for ly in yb) if self.N else xb

    def pieces(self, degree: int) -> list[tuple[int, int]]:
        """The pieces of total degree at most ``degree``."""
        if degree < 0:
            raise ShapeMismatch(f"negative degree {degree}")
        if self.N == 0:
            return [(n, 0) for n in range(degree + 1)]
        return [(p, q) for p in range(degree + 1)
                for q in range(degree + 1 - p)]

    # generators -------------------------------------------------------------

    _SHIFT = {"raise": 1, "lower": -1}  # bidegree shift of the x-y blocks

    def images(self, family: str, a: int, b: int):
        """Image terms lab -> [(target label, value)] of one generator,
        read off the exponent label of a monomial.  ``family`` "k", "m" or
        "n" is E_ab of gl(k), gl(M) or gl(N), first order plus the
        convention constant on the diagonal; "raise" is multiplication by
        sum_i x[i,a] y[i,b], up one in both degrees, and "lower" is
        sum_i d2/(dx[i,a] dy[i,b]), down one in both."""
        shift = self._SHIFT.get(family, 0)
        k, M, N, x, y = self.k, self.M, self.N, self.xvar, self.yvar
        if shift:
            pairs = [(x(i, a), y(i, b)) for i in range(k)]

            def image(lab):
                out = []
                for u, w in pairs:
                    value = 1 if shift > 0 else lab[u] * lab[w]
                    if value:
                        tgt = list(lab)
                        tgt[u] += shift
                        tgt[w] += shift
                        out.append((tuple(tgt), value))
                return out
            return image
        if family == "k":  # the dual on the y block
            terms = [(1, x(a, c), x(b, c)) for c in range(M)] \
                + [(-1, y(b, c), y(a, c)) for c in range(N)]
        elif family == "m":
            terms = [(1, x(i, a), x(i, b)) for i in range(k)]
        else:  # gl(N) acts on y contragrediently
            terms = [(-1, y(i, b), y(i, a)) for i in range(k)]
        const = {"k": self.c_k, "m": self.c_m, "n": self.c_n}[family]

        def image(lab):
            out = list(_image(lab, terms))
            if a == b and const:
                out.append((lab, const))
            return out
        return image

    # Only the benchmark's tracer names these five, as one layer; they go
    # when ROADMAP item 1 changes the tracer.
    def gl_k_op(self, i: int, j: int):
        return self.images("k", i, j)

    def gl_m_op(self, a: int, b: int):
        return self.images("m", a, b)

    def gl_n_op(self, b: int, c: int):
        return self.images("n", b, c)

    def raiser_op(self, a: int, b: int):
        return self.images("raise", a, b)

    def lowerer_op(self, a: int, b: int):
        return self.images("lower", a, b)

    def bracket_failures(self, piece) -> list[str]:
        """Exact check, on one piece, of the gl(k), gl(M) and gl(N)
        relations and of the commutation across them, read off the
        generator images; returns labels of the failing pairs."""
        families = {family: {(a, b): self.images(family, a, b)
                             for a in range(rank) for b in range(rank)}
                    for family, rank in (("k", self.k), ("m", self.M),
                                         ("n", self.N))}
        return gl_relation_failures(families, self.basis(*piece))

    # weights ----------------------------------------------------------------

    def dominant_blocks(self, piece) -> dict[tuple, list[tuple[int, ...]]]:
        """The weight blocks of a piece whose weight is dominant: by weight
        key (see ``blocks``) the k rows and the x column sums are
        non-increasing and the y column sums non-decreasing, since gl(N)
        acts contragrediently, its weight being -nw + c_n.  They are the
        ``blocks`` of the dominant column sums alone; the piece is checked
        against the cap first."""
        (p, q), M, N = piece, self.M, self.N
        self.check_piece(p, q)
        dominant = {}
        for m, n in product(W.partitions_of(p, max_rows=M),
                            W.partitions_of(q, max_rows=N)):
            blocks = self.blocks(piece, *W.SignedWeight(m, n).columns(M, N))
            dominant.update((key, members) for key, members in blocks.items()
                            if all(x >= y for x, y in zip(key[0], key[0][1:])))
        return dominant

    def blocks(self, piece, mw, nw) -> dict[tuple, list[tuple[int, ...]]]:
        """The weight blocks of a piece with x column sums ``mw`` and y
        column sums ``nw``, none unless these are non-negative and add up
        to the piece.  A block's weight key, its joint Cartan data without
        the convention constants, is the row sums of x less those of y,
        then ``mw``, then ``nw``; its members are in basis order.  They
        are built from the k-row fillings of the column sums
        (``_fillings``), not from a basis."""
        self.check_piece(*piece)
        if (len(mw), len(nw), sum(mw), sum(nw)) != (self.M, self.N, *piece) \
                or any(c < 0 for c in (*mw, *nw)):
            return {}
        ys, blocks = list(_fillings(nw, self.k)), {}
        for x, xrows in _fillings(mw, self.k):  # x, then y: basis order
            for y, yrows in ys:
                key = (tuple(map(sub, xrows, yrows)), mw, nw)
                blocks.setdefault(key, []).append(x + y)
        return blocks

    def dressed_weights(self, key) -> tuple[tuple, tuple, tuple]:
        """The gl(k), gl(M) and gl(N) weights of a weight key, as
        Fractions: the convention constants added on, and the y column
        sums negated, since gl(N) acts contragrediently."""
        kw, mw, nw = key
        return (
            tuple(Fraction(x) + self.c_k for x in kw),
            tuple(Fraction(x) + self.c_m for x in mw),
            tuple(-Fraction(x) + self.c_n for x in nw),
        )


def _smoke_check(model: FockModel, piece) -> None:
    bad = model.bracket_failures(piece)
    if bad:
        raise InvariantBroken(f"bracket smoke check failed: {bad}")


# ---------------------------------------------------------------------------
# joint highest weight vectors


@dataclass(frozen=True)
class HighestWeightVector:
    """A joint highest weight vector of a piece, with the integer weight
    key of its block (``FockModel.blocks``); the model's
    ``dressed_weights`` reads the weights off the key."""

    bidegree: tuple[int, int]
    key: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    vector: dict[tuple[int, ...], int | Fraction]  # keyed by monomial label


def raising_images(model: FockModel) -> list:
    """Image maps of the raising operators: E_ab (a < b) of gl(k), gl(M)
    and gl(N), and for the indefinite model the lowerers."""
    maps = [model.images(family, a, b) for family, rank in
            (("k", model.k), ("m", model.M), ("n", model.N))
            for a in range(rank) for b in range(a + 1, rank)]
    if model.N:
        maps += [model.images("lower", a, b)
                 for a in range(model.M) for b in range(model.N)]
    return maps


def joint_highest_weight_vectors(model: FockModel, piece,
                                 blocks=None) -> list[HighestWeightVector]:
    """Exact basis of the joint kernel of all raising operators in the
    graded piece, solved on its dominant weight blocks only: ``blocks``
    when given, else ``model.dominant_blocks(piece)``.

    The piece is a finite-dimensional module of gl(k) + gl(M) + gl(N),
    and the raising maps send each weight block to other blocks, so the
    joint kernel is the sum of its parts in the blocks.  A weight vector
    killed by E_{i,i+1} is a highest weight vector of a finite-dimensional
    module of that sl(2), so its weight is non-negative on
    E_ii - E_{i+1,i+1}.  A vector killed by every raising operator
    therefore has a dominant weight, and every other block has an empty
    kernel.  The dominant blocks are built from the dominant column sums
    alone (``FockModel.dominant_blocks``), and the piece's basis is never
    built.

    For the indefinite model the second-order lowering operators are
    included, so the result enumerates the new lowest K-type highest
    weight vectors rather than every K-highest vector.  Each vector
    carries its block's weight key, without the convention constants.
    """
    if blocks is None:
        blocks = model.dominant_blocks(piece)
    maps = raising_images(model)
    return [HighestWeightVector(piece, key, vec)
            for key, members in sorted(blocks.items())
            for vec in block_kernel(members, maps)]


# ---------------------------------------------------------------------------
# multiplicities from weight counts (independent of the kernel solve)


def compact_multiplicities(model: FockModel, blocks) -> dict[tuple, int]:
    """Multiplicity of each U(k) x U(M) label pair in a compact graded
    piece, given as its ``FockModel.dominant_blocks``, solved from the
    dimensions of the dominant weight spaces by triangular elimination
    against products of tableau counts."""
    k, M = model.k, model.M
    degree = sum(next(iter(blocks))[1])  # every key's column sums add to it
    parts_k = list(W.partitions_of(degree, max_rows=k))
    parts_m = list(W.partitions_of(degree, max_rows=M))
    mult: dict[tuple, int] = {}
    for lam in parts_k:  # lex descending = dominance-compatible
        for mu in parts_m:
            key = (W.padded(lam, k), W.padded(mu, M), ())
            val = len(blocks.get(key, ()))
            for (lam2, mu2), m2 in mult.items():
                if m2:
                    val -= m2 * W.kostka(lam2, key[0]) * W.kostka(mu2, key[1])
            mult[(lam, mu)] = val
    return mult


# ---------------------------------------------------------------------------
# duality verification, compact case


def _as_json(value):
    """A report field as JSON: a tuple as a list, its entries converted
    too, and a nested report as its ``to_json``."""
    if isinstance(value, tuple):
        return [_as_json(v) for v in value]
    if isinstance(value, _Report):
        return value.to_json()
    return value


class _Report:
    """Base of the frozen report dataclasses: the JSON of a report is its
    fields, in declaration order, then its ``ok`` verdict."""

    def to_json(self) -> dict:
        js = {f.name: _as_json(getattr(self, f.name)) for f in fields(self)}
        js["ok"] = self.ok
        return js


@dataclass(frozen=True)
class HoweDegreeReport(_Report):
    degree: int
    dim: int
    labels: tuple
    expected: tuple
    labels_ok: bool
    pairing_ok: bool
    dims_ok: bool
    mult_ok: bool
    commutant: int
    commutant_route: str
    commutant_ok: bool
    cauchy: dict

    @property
    def ok(self) -> bool:
        return (self.labels_ok and self.pairing_ok and self.dims_ok
                and self.mult_ok and self.commutant_ok)


@dataclass(frozen=True)
class HoweReport(_Report):
    k: int
    M: int
    convention: str
    degrees: tuple[HoweDegreeReport, ...]

    @property
    def ok(self) -> bool:
        return all(d.ok for d in self.degrees)

    def labels_by_degree(self) -> dict[int, tuple]:
        return {d.degree: d.labels for d in self.degrees}


def weyl_commutant_dim(model: FockModel, blocks) -> int:
    """Dimension of the joint commutant of gl(k) + gl(M) on a compact
    piece, given as its ``FockModel.dominant_blocks``, solved as an
    S_k x S_M-reduced exact system.

    W = S_k x S_M permutes the variables x[i,a], and so the monomials, by
    permutation matrices in GL(k) x GL(M).  So an X in the commutant is
    W-equivariant, X[gr, gc] = X[r, c], and block diagonal over the weight
    blocks, which W maps onto dominant ones (sums descending).  One
    unknown stands for each W-orbit of pairs (r, c) in a block: the
    permutation sorting the weight carries the pair into the dominant
    block, whose stabilizer orbits of pairs are named in the order they
    are first met row by row, the whole orbit marked at once.
    The equations are (E X - X E)[t, c] = 0 for root vectors E, with c a
    stabilizer-orbit representative in a dominant block.  W permutes the
    roots (g E g^-1 is a root vector), so for a W-equivariant X the
    equation at (E, gt, gc) is the one at (g^-1 E g, t, c), and every
    column is such a gc.  For h in the stabilizer of the column c itself,
    the equations at (h E h^-1, t, c) are those at (E, h^-1 t, c), row for
    row, since h only relabels unknowns that name W-orbits; so each column
    takes the least root of each orbit of its stabilizer, and no other.
    So a W-equivariant block-diagonal X solves the reduced equations
    exactly when it commutes with every root vector and Cartan: both ways
    the solutions are the commutant.

    Root images are read off the monomials the equations reach.  A block
    that is not dominant is listed when an equation first reaches it, as
    the image of its dominant block under the inverse of the sorting
    permutation.  The dimension is the number of unknowns less the rank of
    the equations (``tensor.rank_of_rows``, sparsest equations first).
    """
    k, M = model.k, model.M

    def permuted(lab, rows, cols):  # x[rows[i], cols[a]] moves to x[i, a]
        return tuple(lab[r * M + c] for r in rows for c in cols)

    def moving(w):  # the entries a stabilizer permutes: equal and nonzero
        return [[i for i, x in enumerate(w) if x == v] for v in set(w) if v]

    def sorting(w):  # positions of w, largest entry first, ties in order
        return sorted(range(len(w)), key=w.__getitem__, reverse=True)

    roots = [(family, a, b) for family, rank in (("k", k), ("m", M))
             for a, b in permutations(range(rank), 2)]
    columns = {root: [] for root in roots}  # the columns each root takes
    tables, place, nvars = {}, {}, 0
    for (rw, cw, _), members in blocks.items():
        at = {lab: p for p, lab in enumerate(members)}
        stabilizer = list(product(subgroup_perms(moving(rw), k),
                                  subgroup_perms(moving(cw), M)))
        moved = [[at[permuted(lab, *h)] for lab in members]
                 for h in stabilizer]
        table = tables[rw, cw] = [[None] * len(members) for _ in members]
        for p, row in enumerate(table):  # an orbit is met first at its least
            for q, name in enumerate(row):
                if name is None:
                    for m in moved:
                        table[m[p]][m[q]] = nvars
                    nvars += 1
        place.update((lab, (members, table, p))
                     for p, lab in enumerate(members))
        for p, lab in enumerate(members):
            if min(m[p] for m in moved) < p:
                continue  # not the least of its stabilizer orbit
            fixing = [h for h, m in zip(stabilizer, moved) if m[p] == p]
            perms = {"k": {hr for hr, _ in fixing},
                     "m": {hc for _, hc in fixing}}
            for family, a, b in roots:
                if (a, b) == min((g[a], g[b]) for g in perms[family]):
                    columns[family, a, b].append(lab)
    if nvars > BASIS_CAP:
        raise TooLarge(
            f"commutant solve with {nvars} unknowns exceeds cap {BASIS_CAP}")

    def block(lab):  # the members of its block, listed on first sight
        if lab not in place:
            rw = tuple(sum(lab[i * M:(i + 1) * M]) for i in range(k))
            cw = tuple(sum(lab[a::M]) for a in range(M))
            rows, cols = sorting(rw), sorting(cw)
            key = (tuple(rw[i] for i in rows), tuple(cw[a] for a in cols))
            back = perm_inverse(rows), perm_inverse(cols)
            members = [permuted(d, *back) for d in blocks[(*key, ())]]
            place.update((m, (members, tables[key], p))
                         for p, m in enumerate(members))
        return place[lab][0]

    def var(r, c):  # X[r, c]: the entry of its table at their positions
        _, table, p = place[r]
        return table[p][place[c][2]]

    return nvars - rank_of_rows(
        row for root in roots for row in commutator_rows(
            cache(model.images(*root)), columns[root], block, var))


def verify_howe(k: int, M: int, degree: int,
                convention: str = "sq") -> HoweReport:
    """Check the multiplicity-free paired decomposition of every graded
    piece up to the degree: label sets, the paired dimension identity,
    multiplicity counts from the weight-space dimensions, and the
    commutant dimension from the Weyl-reduced exact solve
    (``weyl_commutant_dim``), which reads no weight count, so it checks
    multiplicity-freeness independently of ``mult_ok``.  Every piece takes
    that matrix route.  Each piece's dominant blocks are built once and
    read by all three solves; its dimension is the monomial count.  The
    brackets are checked first, on the piece of degree min(1, degree)."""
    model = FockModel(k, M, 0, convention)
    _smoke_check(model, (min(1, degree), 0))
    reports = []
    for n in range(degree + 1):
        blocks = model.dominant_blocks((n, 0))
        dim = monomial_count(model.nxvars, n)
        hwvs = joint_highest_weight_vectors(model, (n, 0), blocks)
        labels = []
        pairing_ok = True
        for h in hwvs:
            pk, pm = W.partition(h.key[0]), W.partition(h.key[1])
            if pk != pm:
                pairing_ok = False
            labels.append(pk)
        expected = tuple(W.partitions_of(n, max_rows=min(k, M)))
        labels_ok = sorted(labels) == sorted(expected)

        cauchy = W.cauchy_check(k, M, n)
        dims_ok = cauchy.ok and cauchy.total == dim

        mult_ok = all(v == (lam == mu and lam in expected) for (lam, mu), v
                      in compact_multiplicities(model, blocks).items())
        commutant = weyl_commutant_dim(model, blocks)

        reports.append(HoweDegreeReport(
            degree=n,
            dim=dim,
            labels=tuple(sorted(labels, reverse=True)),
            expected=expected,
            labels_ok=labels_ok,
            pairing_ok=pairing_ok,
            dims_ok=dims_ok,
            mult_ok=mult_ok,
            commutant=commutant,
            commutant_route="matrix",
            commutant_ok=commutant == len(expected),
            cauchy=cauchy.to_json(),
        ))
    return HoweReport(k, M, convention, tuple(reports))


def howe_stability_check(M: int, degree: int, kmax: int) -> dict:
    """Label sets must be k-independent in the stable range n <= k."""
    reports = {k: verify_howe(k, M, degree) for k in range(1, kmax + 1)}
    stable = True
    details = []
    for k in range(1, kmax):
        a = reports[k].labels_by_degree()
        b = reports[k + 1].labels_by_degree()
        for n in range(0, min(degree, k) + 1):
            same = sorted(a[n]) == sorted(b[n])
            stable = stable and same
            details.append({"k": k, "degree": n, "stable": same})
    return {"M": M, "kmax": kmax, "stable": stable, "details": details,
            "reports": {k: r.to_json() for k, r in reports.items()}}


# ---------------------------------------------------------------------------
# duality verification, indefinite case


def expected_kv_labels(k: int, M: int, N: int, p: int, q: int) -> list[tuple]:
    """Label pairs (m, n) predicted at bidegree (p, q): partitions padded
    to M and N rows with the total number of nonzero rows at most k."""
    out = []
    for m in W.partitions_of(p, max_rows=M):
        for n in W.partitions_of(q, max_rows=N):
            if len(m) + len(n) <= k:
                out.append((W.padded(m, M), W.padded(n, N)))
    return out


@dataclass(frozen=True)
class KvBidegreeReport(_Report):
    bidegree: tuple[int, int]
    matches: tuple[dict, ...]
    expected_count: int
    unexplained: int

    @property
    def ok(self) -> bool:
        return (self.unexplained == 0
                and len(self.matches) == self.expected_count
                and all(m["ok"] for m in self.matches))


@dataclass(frozen=True)
class KvReport(_Report):
    k: int
    M: int
    N: int
    convention: str
    bidegrees: tuple[KvBidegreeReport, ...]
    renorm_candidates: tuple[dict, ...]
    renorm_ok: bool

    @property
    def ok(self) -> bool:
        return self.renorm_ok and all(b.ok for b in self.bidegrees)


def strict_signed_pairs(M: int, N: int, max_total: int):
    """Strictly decreasing positive blocks (m, n) with |m|, |n| within the
    window; candidates for the half-form orbit labels."""
    def blocks(length, cap):
        return sorted((p for p in W.partitions_upto(cap, length)
                       if len(p) == len(set(p)) == length), reverse=True)

    return product(blocks(M, max_total), blocks(N, max_total))


def verify_kv(k: int, M: int, N: int, degree: int,
              convention: str = "sq") -> KvReport:
    """Enumerate new lowest-K-type highest weight vectors up to the
    degree and check each against the predicted weight shifts; also check
    that no half-integer renormalized weight shows up among the plainly
    quantized labels.  The brackets are checked first, on bidegree
    (1, 1) when the degree reaches it."""
    if N <= 0:
        raise ShapeMismatch("oscillator model needs N >= 1")
    model = FockModel(k, M, N, convention)
    if degree >= 2:
        _smoke_check(model, (1, 1))
    context = "kave" if convention == "sq" else "kave2"
    bidegrees = []
    occurring: set[tuple[int, ...]] = set()
    for piece in model.pieces(degree):
        p, q = piece
        hwvs = joint_highest_weight_vectors(model, piece)
        expected = expected_kv_labels(k, M, N, p, q)
        matches = []
        unexplained = 0
        seen = []
        for h in hwvs:
            label = W.SignedWeight.read(h.key[0], M, N)
            if label is None:
                unexplained += 1
                continue
            pred_left = W.shift_weight(label, convention, context,
                                       k=k, M=M, N=N, side="left")
            pred_right = W.shift_weight(label, convention, context,
                                        k=k, M=M, N=N, side="right")
            kw, mw, nw = model.dressed_weights(h.key)
            got_left = W.HalfIntWeight.from_entries(kw)
            got_right = W.HalfIntWeight.from_entries(mw + nw)
            ok = (pred_left.doubled == got_left.doubled
                  and pred_right.doubled == got_right.doubled
                  and (label.m, label.n) in expected
                  and label not in seen)
            seen.append(label)
            occurring.add(got_right.doubled)
            matches.append({
                "label_m": list(label.m),
                "label_n": list(label.n),
                "uk_weight_doubled": list(got_left.doubled),
                "mn_weight_doubled": list(got_right.doubled),
                "predicted_mn_doubled": list(pred_right.doubled),
                "ok": ok,
            })
        bidegrees.append(KvBidegreeReport(
            bidegree=piece,
            matches=tuple(matches),
            expected_count=len(expected),
            unexplained=unexplained,
        ))

    renorm_candidates = []
    renorm_ok = True
    if convention == "sq":
        for m, n in strict_signed_pairs(M, N, degree):
            try:
                r = W.renormalize_weight(W.SignedWeight(m, n), M, N)
            except NotRenormalizable:
                continue
            occurs = r.doubled in occurring
            if not r.is_integral and occurs:
                renorm_ok = False
            renorm_candidates.append({
                "m": list(m),
                "n": list(n),
                "renormalized": str(r),
                "integral": r.is_integral,
                "occurs": occurs,
            })
    return KvReport(k, M, N, convention, tuple(bidegrees),
                    tuple(renorm_candidates), renorm_ok)
