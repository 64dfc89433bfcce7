"""Graded polynomial models with commuting Lie-algebra actions.

The compact model is the polynomial algebra on a k x M matrix of
variables x[i,a]; gl(k) acts along rows, gl(M) along columns.  Each
generator is described once, by the image terms that ``FockModel.images``
reads off a monomial's exponent label.  Solves read them on the monomials
they visit, and so does the bracket check (``FockModel.bracket_failures``,
through ``tensor.gl_relation_failures``): no whole-piece Fock matrix is
built in the package.  The ``*_op`` wrappers, which build one, serve the
tests as a matrix oracle and the benchmark's tracer.

The indefinite (oscillator) model adjoins a k x N block y[i,b].  The
gl(k) action twists by the dual on the y block; the middle-algebra
blocks gl(M), gl(N) stay first-order, while the off-diagonal blocks act
by multiplication (raisers, bidegree (+1,+1)) and by second-order
differentiation (lowerers, bidegree (-1,-1)).

Convention constants ("sq" plain, "hf" symmetrized) are fixed here once
and validated downstream against the expected label shifts; they are the
only free normalization in the whole module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from . import weights as W
from .errors import InvariantBroken, NotRenormalizable, ShapeMismatch, \
    TooLarge
from .tensor import BASIS_CAP, ExactOperator, IndexedBasis, ReducedSpan, \
    block_kernel, commutator_rows, gl_relation_failures, subgroup_perms


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


@dataclass
class FockModel:
    """Polynomial model, graded piece by piece, with exact generator images."""

    k: int
    M: int
    N: int
    degree: int
    convention: str
    c_k: int | Fraction = field(init=False)
    c_m: int | Fraction = field(init=False)
    c_n: int | Fraction = field(init=False)
    _bases: dict = field(default_factory=dict, repr=False)
    _blocks: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.k <= 0 or self.M <= 0 or self.N < 0 or self.degree < 0:
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

    def basis(self, p: int, q: int) -> IndexedBasis:
        key = (p, q)
        if key not in self._bases:
            if self.N == 0 and q != 0:
                raise ShapeMismatch("compact model has no y grading")
            xb = IndexedBasis.monomials(self.nxvars, p)
            if self.N == 0:
                self._bases[key] = IndexedBasis(
                    xb.labels, name=f"F({self.k},{self.M})_{p}")
            else:
                yb = IndexedBasis.monomials(self.nyvars, q)
                if len(xb) * len(yb) > BASIS_CAP:
                    raise TooLarge(
                        f"bidegree {key} needs {len(xb) * len(yb)} monomials")
                self._bases[key] = IndexedBasis(
                    (lx + ly for lx in xb.labels for ly in yb.labels),
                    name=f"F({self.k},{self.M},{self.N})_{p},{q}")
        return self._bases[key]

    def pieces(self) -> list[tuple[int, int]]:
        if self.N == 0:
            return [(n, 0) for n in range(self.degree + 1)]
        return [
            (p, q)
            for p in range(self.degree + 1)
            for q in range(self.degree + 1 - p)
        ]

    # generators -------------------------------------------------------------

    _SHIFT = {"raise": 1, "lower": -1}  # bidegree shift of the x-y blocks

    def images(self, family: str, a: int, b: int, piece):
        """Image terms o -> [(target ordinal, value)] of one generator on
        the monomials of a piece, read off their labels.  ``family`` "k",
        "m" or "n" is E_ab of gl(k), gl(M) or gl(N), first order plus the
        convention constant on the diagonal; "raise" is multiplication by
        sum_i x[i,a] y[i,b], into bidegree (p+1, q+1), and "lower" is
        sum_i d2/(dx[i,a] dy[i,b]), into (p-1, q-1)."""
        p, q = piece
        shift = self._SHIFT.get(family, 0)
        labels = self.basis(p, q).labels
        ordinal = self.basis(p + shift, q + shift).ordinal
        k, M, N, x, y = self.k, self.M, self.N, self.xvar, self.yvar
        if shift:
            pairs = [(x(i, a), y(i, b)) for i in range(k)]

            def image(o):
                lab, out = labels[o], []
                for u, w in pairs:
                    value = 1 if shift > 0 else lab[u] * lab[w]
                    if value:
                        tgt = list(lab)
                        tgt[u] += shift
                        tgt[w] += shift
                        out.append((ordinal(tuple(tgt)), value))
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

        def image(o):
            out = [(ordinal(t), v) for t, v in _image(labels[o], terms)]
            if a == b and const:
                out.append((o, const))
            return out
        return image

    def _operator(self, family: str, a: int, b: int, piece) -> ExactOperator:
        """The generator's matrix, from its images over every column."""
        p, q = piece
        shift = self._SHIFT.get(family, 0)
        op = ExactOperator(self.basis(p, q),
                           self.basis(p + shift, q + shift))
        image = self.images(family, a, b, piece)
        for col in range(len(op.domain)):
            for row, v in image(col):
                op.add_entry(row, col, v)
        return op

    def gl_k_op(self, i: int, j: int, piece) -> ExactOperator:
        return self._operator("k", i, j, piece)

    def gl_m_op(self, a: int, b: int, piece) -> ExactOperator:
        return self._operator("m", a, b, piece)

    def gl_n_op(self, b: int, c: int, piece) -> ExactOperator:
        return self._operator("n", b, c, piece)

    def raiser_op(self, a: int, b: int, piece) -> ExactOperator:
        return self._operator("raise", a, b, piece)

    def lowerer_op(self, a: int, b: int, piece) -> ExactOperator:
        return self._operator("lower", a, b, piece)

    def bracket_failures(self, piece) -> list[str]:
        """Exact check, on one piece, of the gl(k), gl(M) and gl(N)
        relations and of the commutation across them, read off the
        generator images; returns labels of the failing pairs."""
        families = {family: {(a, b): self.images(family, a, b, piece)
                             for a in range(rank) for b in range(rank)}
                    for family, rank in (("k", self.k), ("m", self.M),
                                         ("n", self.N))}
        return gl_relation_failures(families, range(len(self.basis(*piece))))

    def release(self, piece) -> None:
        """Drop the weight blocks of one piece; a later call rebuilds them."""
        self._blocks.pop(piece, None)

    # weights ----------------------------------------------------------------

    def weight_key(self, label) -> tuple:
        """Joint Cartan data of a monomial, without the scalar constants:
        the row sums of x less those of y, then the column sums of x and
        of y, read as slices (see ``xvar`` and ``yvar``)."""
        k, M, N = self.k, self.M, self.N
        kM = k * M
        rows = [sum(label[i * M:(i + 1) * M])
                - sum(label[kM + i * N:kM + (i + 1) * N]) for i in range(k)]
        return (tuple(rows), tuple(sum(label[a:kM:M]) for a in range(M)),
                tuple(sum(label[kM + b::N]) for b in range(N)))

    def weight_blocks(self, piece) -> dict[tuple, list[int]]:
        """Basis ordinals of a piece by weight key, kept until ``release``."""
        if piece not in self._blocks:
            blocks = self._blocks[piece] = {}
            for i, lab in enumerate(self.basis(*piece).labels):
                blocks.setdefault(self.weight_key(lab), []).append(i)
        return self._blocks[piece]

    def dressed_weights(self, key) -> tuple[tuple, tuple, tuple]:
        """Add the convention constants back onto a weight key."""
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
    bidegree: tuple[int, int]
    k_weight: tuple[Fraction, ...]
    m_weight: tuple[Fraction, ...]
    n_weight: tuple[Fraction, ...]
    vector: dict[int, int | Fraction]


def raising_images(model: FockModel, piece) -> list:
    """Image maps of the raising operators on a piece: E_ab (a < b) of
    gl(k), gl(M) and gl(N), and for the indefinite model the lowerers."""
    maps = [model.images(family, a, b, piece) for family, rank in
            (("k", model.k), ("m", model.M), ("n", model.N))
            for a in range(rank) for b in range(a + 1, rank)]
    if model.N and piece[0] and piece[1]:
        maps += [model.images("lower", a, b, piece)
                 for a in range(model.M) for b in range(model.N)]
    return maps


def joint_highest_weight_vectors(model: FockModel,
                                 piece) -> list[HighestWeightVector]:
    """Exact basis of the joint kernel of all raising operators in the
    graded piece, solved on its dominant weight blocks only.

    The piece is a finite-dimensional module of gl(k) + gl(M) + gl(N),
    and the raising maps send each weight block to other blocks, so the
    joint kernel is the sum of its parts in the blocks.  A weight vector
    killed by E_{i,i+1} is a highest weight vector of a finite-dimensional
    module of that sl(2), so its weight is non-negative on
    E_ii - E_{i+1,i+1}.  A vector killed by every raising operator
    therefore has a dominant weight, and every other block has an empty
    kernel.  In ``weight_key`` terms a block is dominant when the k rows
    and the x column sums are non-increasing and the y column sums are
    non-decreasing, since gl(N) acts contragrediently: its weight is
    -nw + c_n.

    For the indefinite model the second-order lowering operators are
    included, so the result enumerates the new lowest K-type highest
    weight vectors rather than every K-highest vector.
    """
    maps = raising_images(model, piece)
    out: list[HighestWeightVector] = []
    for key, members in sorted(model.weight_blocks(piece).items()):
        if all(x >= y for w in (key[0], key[1], [-v for v in key[2]])
               for x, y in zip(w, w[1:])):
            kw, mw, nw = model.dressed_weights(key)
            out += [HighestWeightVector(piece, kw, mw, nw, vec)
                    for vec in block_kernel(members, maps)]
    return out


# ---------------------------------------------------------------------------
# multiplicities from weight counts (independent of the kernel solve)


def compact_multiplicities(model: FockModel, degree: int) -> dict[tuple, int]:
    """Multiplicity of each U(k) x U(M) label pair in a compact graded
    piece, solved from weight-space dimensions by triangular elimination
    against products of tableau counts."""
    counts = {key: len(members)
              for key, members in model.weight_blocks((degree, 0)).items()}
    k, M = model.k, model.M
    parts_k = list(W.partitions_of(degree, max_rows=k))
    parts_m = list(W.partitions_of(degree, max_rows=M))
    mult: dict[tuple, int] = {}
    for lam in parts_k:  # lex descending = dominance-compatible
        for mu in parts_m:
            key = (lam + (0,) * (k - len(lam)), mu + (0,) * (M - len(mu)), ())
            val = counts.get(key, 0)
            for (lam2, mu2), m2 in mult.items():
                if m2:
                    val -= m2 * W.kostka(lam2, key[0]) * W.kostka(mu2, key[1])
            mult[(lam, mu)] = val
    return mult


# ---------------------------------------------------------------------------
# duality verification, compact case


@dataclass(frozen=True)
class HoweDegreeReport:
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

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "dim": self.dim,
            "labels": [list(l) for l in self.labels],
            "expected": [list(l) for l in self.expected],
            "labels_ok": self.labels_ok,
            "pairing_ok": self.pairing_ok,
            "dims_ok": self.dims_ok,
            "mult_ok": self.mult_ok,
            "commutant": self.commutant,
            "commutant_route": self.commutant_route,
            "commutant_ok": self.commutant_ok,
            "cauchy": self.cauchy,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class HoweReport:
    k: int
    M: int
    convention: str
    degrees: tuple[HoweDegreeReport, ...]

    @property
    def ok(self) -> bool:
        return all(d.ok for d in self.degrees)

    def labels_by_degree(self) -> dict[int, tuple]:
        return {d.degree: d.labels for d in self.degrees}

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "M": self.M,
            "convention": self.convention,
            "degrees": [d.to_json() for d in self.degrees],
            "ok": self.ok,
        }


def _strip_constant(weight, const) -> tuple[int, ...] | None:
    out = []
    for x in weight:
        v = Fraction(x) - const
        if v.denominator != 1:
            return None
        out.append(int(v))
    return tuple(out)


def weyl_commutant_dim(model: FockModel, n: int) -> int:
    """Dimension of the joint commutant of gl(k) + gl(M) on the compact
    piece of degree n, solved as an S_k x S_M-reduced exact system.

    W = S_k x S_M permutes the variables x[i,a], and so the monomials, by
    permutation matrices in GL(k) x GL(M).  So an X in the commutant is
    W-equivariant, X[gr, gc] = X[r, c], and block diagonal over the weight
    blocks, which W maps onto dominant ones (sums descending).  One
    unknown stands for each W-orbit of pairs (r, c) in a block: the
    permutation sorting the weight carries the pair into the dominant
    block, where its least image under the stabilizer names it.  The
    equations are (E X - X E)[t, c] = 0 for every root vector E, with c a
    stabilizer-orbit representative in a dominant block.  W permutes the
    roots (g E g^-1 is a root vector), so for a W-equivariant X the
    equation at (E, gt, gc) is the one at (g^-1 E g, t, c), and every
    column is such a gc.  So a W-equivariant block-diagonal X solves the
    reduced equations exactly when it commutes with every root vector and
    Cartan: both ways the solutions are the commutant.  Root images are
    read off the monomial labels of the dominant blocks only.
    """
    k, M = model.k, model.M
    labels = model.basis(n, 0).labels
    blocks = model.weight_blocks((n, 0))

    def permuted(lab, rows, cols):  # x[rows[i], cols[a]] moves to x[i, a]
        return tuple(lab[r * M + c] for r in rows for c in cols)

    def moving(w):  # the entries a stabilizer permutes: equal and nonzero
        return [[i for i, x in enumerate(w) if x == v] for v in set(w) if v]

    def sorting(w):  # positions of w, largest entry first, ties in order
        return sorted(range(len(w)), key=w.__getitem__, reverse=True)

    at, tables, reps, dominant = {}, {}, [], []
    nvars = 0
    for (rw, cw, _), members in blocks.items():
        if sorting(rw) != list(range(k)) or sorting(cw) != list(range(M)):
            continue
        at.update((labels[o], p) for p, o in enumerate(members))
        moved = [[at[permuted(labels[o], hr, hc)] for o in members]
                 for hr in subgroup_perms(moving(rw), k)
                 for hc in subgroup_perms(moving(cw), M)]
        ids: dict[tuple[int, int], int] = {}
        tables[rw, cw] = [[ids.setdefault(min((m[p], m[q]) for m in moved),
                                          nvars + len(ids))
                           for q in range(len(members))]
                          for p in range(len(members))]
        nvars += len(ids)
        reps += [o for p, o in enumerate(members)
                 if min(m[p] for m in moved) == p]
        dominant += members
    if nvars > BASIS_CAP:
        raise TooLarge(
            f"commutant solve with {nvars} unknowns exceeds cap {BASIS_CAP}")

    block_of, home, pos = {}, {}, {}  # X[r, c] is unknown home[r][pos[c]]
    for (rw, cw, _), members in blocks.items():
        rows, cols = sorting(rw), sorting(cw)
        table = tables[tuple(rw[i] for i in rows), tuple(cw[a] for a in cols)]
        for o in members:
            block_of[o] = members
            pos[o] = at[permuted(labels[o], rows, cols)]
            home[o] = table[pos[o]]

    roots = [model.images(family, a, b, (n, 0))
             for family, rank in (("k", k), ("m", M))
             for a, b in permutations(range(rank), 2)]

    def equations():
        for root in roots:
            image = {o: root(o) for o in dominant}
            yield from commutator_rows(image.__getitem__, reps,
                                       block_of.__getitem__,
                                       lambda r, c: home[r][pos[c]])

    return nvars - len(ReducedSpan(equations()))


def verify_howe(k: int, M: int, degree: int, convention: str = "sq",
                model: FockModel | None = None) -> HoweReport:
    """Check the multiplicity-free paired decomposition of every graded
    piece up to the degree: label sets, the paired dimension identity,
    multiplicity counts from the weight-space dimensions, and the
    commutant dimension from the Weyl-reduced exact solve
    (``weyl_commutant_dim``), which reads no weight count, so it checks
    multiplicity-freeness independently of ``mult_ok``.  Every piece takes
    that matrix route.  The brackets are checked first, on the piece of
    degree min(1, degree), of ``model`` when one is given."""
    model = model or FockModel(k, M, 0, degree, convention)
    _smoke_check(model, (min(1, degree), 0))
    reports = []
    for n in range(degree + 1):
        b = model.basis(n, 0)
        hwvs = joint_highest_weight_vectors(model, (n, 0))
        labels = []
        pairing_ok = True
        for h in hwvs:
            lam_k = _strip_constant(h.k_weight, model.c_k)
            lam_m = _strip_constant(h.m_weight, model.c_m)
            if lam_k is None or lam_m is None:
                pairing_ok = False
                continue
            try:
                pk, pm = W.partition(lam_k), W.partition(lam_m)
            except ShapeMismatch:
                pairing_ok = False
                continue
            if pk != pm:
                pairing_ok = False
            labels.append(pk)
        expected = tuple(W.partitions_of(n, max_rows=min(k, M)))
        labels_ok = sorted(labels) == sorted(expected)

        cauchy = W.cauchy_check(k, M, n)
        dims_ok = cauchy.ok and cauchy.total == len(b)

        mult_ok = all(v == (lam == mu and lam in expected) for (lam, mu), v
                      in compact_multiplicities(model, n).items())
        commutant = weyl_commutant_dim(model, n)
        model.release((n, 0))  # no later degree reads this piece

        reports.append(HoweDegreeReport(
            degree=n,
            dim=len(b),
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


def howe_stability_check(M: int, degree: int, kmax: int,
                         convention: str = "sq") -> dict:
    """Label sets must be k-independent in the stable range n <= k."""
    reports = {k: verify_howe(k, M, degree, convention) for k in range(1, kmax + 1)}
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
                out.append((m + (0,) * (M - len(m)), n + (0,) * (N - len(n))))
    return out


@dataclass(frozen=True)
class KvBidegreeReport:
    bidegree: tuple[int, int]
    matches: tuple[dict, ...]
    expected_count: int
    unexplained: int

    @property
    def ok(self) -> bool:
        return (self.unexplained == 0
                and len(self.matches) == self.expected_count
                and all(m["ok"] for m in self.matches))

    def to_json(self) -> dict:
        return {
            "bidegree": list(self.bidegree),
            "matches": list(self.matches),
            "expected_count": self.expected_count,
            "unexplained": self.unexplained,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class KvReport:
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

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "M": self.M,
            "N": self.N,
            "convention": self.convention,
            "bidegrees": [b.to_json() for b in self.bidegrees],
            "renorm_candidates": list(self.renorm_candidates),
            "renorm_ok": self.renorm_ok,
            "ok": self.ok,
        }


def _parse_kv_weight(weight, c_k, M, N, k) -> tuple | None:
    """Split an integral dominant U(k) weight into its (m, n) blocks."""
    stripped = _strip_constant(weight, c_k)
    if stripped is None:
        return None
    if any(stripped[i] < stripped[i + 1] for i in range(k - 1)):
        return None
    pos = tuple(x for x in stripped if x > 0)
    neg = tuple(-x for x in reversed(stripped) if x < 0)
    if len(pos) > M or len(neg) > N:
        return None
    return (pos + (0,) * (M - len(pos)), neg + (0,) * (N - len(neg)))


def strict_signed_pairs(M: int, N: int, max_total: int):
    """Strictly decreasing positive blocks (m, n) with |m|, |n| within the
    window; candidates for the half-form orbit labels."""
    def blocks(length, cap):
        # strictly decreasing positive tuples with sum <= cap
        def rec(prev, left, size):
            if size == 0:
                yield ()
                return
            for v in range(min(prev - 1, left - (size * (size - 1)) // 2), 0, -1):
                for rest in rec(v, left - v, size - 1):
                    yield (v,) + rest
        yield from rec(cap + 1, cap, length)

    for m in blocks(M, max_total):
        for n in blocks(N, max_total):
            yield (m, n)


def verify_kv(k: int, M: int, N: int, degree: int,
              convention: str = "sq") -> KvReport:
    """Enumerate new lowest-K-type highest weight vectors up to the
    degree and check each against the predicted weight shifts; also check
    that no half-integer renormalized weight shows up among the plainly
    quantized labels.  The brackets are checked first, on bidegree
    (1, 1) when the degree reaches it."""
    if N <= 0:
        raise ShapeMismatch("oscillator model needs N >= 1")
    model = FockModel(k, M, N, degree, convention)
    if degree >= 2:
        _smoke_check(model, (1, 1))
    context = "kave" if convention == "sq" else "kave2"
    bidegrees = []
    occurring: set[tuple[int, ...]] = set()
    for piece in model.pieces():
        p, q = piece
        hwvs = joint_highest_weight_vectors(model, piece)
        model.release(piece)  # no later piece reads this one
        expected = expected_kv_labels(k, M, N, p, q)
        matches = []
        unexplained = 0
        seen = []
        for h in hwvs:
            parsed = _parse_kv_weight(h.k_weight, model.c_k, M, N, k)
            if parsed is None:
                unexplained += 1
                continue
            m_blk, n_blk = parsed
            pred_left = W.shift_weight((m_blk, n_blk), convention, context,
                                       k=k, M=M, N=N, side="left")
            pred_right = W.shift_weight((m_blk, n_blk), convention, context,
                                        k=k, M=M, N=N, side="right")
            got_left = W.HalfIntWeight.from_entries(h.k_weight)
            got_right = W.HalfIntWeight.from_entries(h.m_weight + h.n_weight)
            ok = (pred_left.doubled == got_left.doubled
                  and pred_right.doubled == got_right.doubled
                  and (m_blk, n_blk) in expected
                  and (m_blk, n_blk) not in seen)
            seen.append((m_blk, n_blk))
            occurring.add(got_right.doubled)
            matches.append({
                "label_m": list(m_blk),
                "label_n": list(n_blk),
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
