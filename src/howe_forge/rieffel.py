"""Induction of unitary-group representations through invariant subspaces.

``induce_compact`` builds, inside (graded Fock piece) tensor (inducing
irrep), the joint kernel of the diagonal inducing-side action.  The
inducing group is compact and connected, so its invariants coincide with
the kernel of the derived Lie-algebra action; Haar integration is
replaced by exact linear algebra over rationals.

``induce_noncompact_graded`` is a graded algebraic stand-in for the
indefinite-signature case, where the analytic pairing is not available:
an inducing weight is matched against the joint label list of the
oscillator model, a match selects the lowest compact-type block of the
corresponding highest-weight module, solved on its one weight block, and
a failed match certifies that the induced space is empty.  Emptiness is
a value, not an error.

The exact linear algebra is shared with ``tensor``: the invariants are
``block_kernel`` solves over the weight blocks of (Fock piece) x irrep.
Each Fock generator is given by the image terms ``FockModel.images``
reads off monomial labels, the irrep's by its restricted operator.
Every module basis is the ``rows`` of one ``ReducedSpan``, and the
restricted actions on it (the inducing irrep's gl(M), an induced
module's gl(k)) are the ``ExactOperator``s one ``restrict_by_leaders``
call reads off that span.  The induced inner product is the Fock norm,
<x^e, x^e> = prod e!, tensored with the form of the word coordinates the
irrep lives in; both are diagonal, so it is one ``gram_matrix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import weights as W
from .errors import InvariantBroken, ShapeMismatch, TooLarge
from .fock import FockModel, raising_images, strict_signed_pairs
from .tensor import ExactOperator, IndexedBasis, ReducedSpan, \
    block_kernel, gl_commutant_dim, gl_relation_failures, gl_tensor_action, \
    gram_matrix, linear_image, young_symmetrizer

_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# small exact-linear-algebra helpers (module-local)


def _ldl_positive(gram: list[list[Fraction]]) -> bool:
    """True iff the symmetric matrix is positive definite (exact): its
    leading principal minors, the pivots of a fraction-free (Bareiss)
    elimination of the matrix scaled to integers, are all positive."""
    den = math.lcm(*(v.denominator for row in gram for v in row))
    a = [[v.numerator * (den // v.denominator) for v in row] for row in gram]
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


def _fock_norms(fb: IndexedBasis) -> list[int]:
    """Squared norms <x^e, x^e> = prod e! of the monomials of a piece."""
    return [math.prod(map(math.factorial, lab)) for lab in fb.labels]


# ---------------------------------------------------------------------------
# inducing irreps of the compact middle group


@dataclass(frozen=True)
class InducingIrrep:
    """Irreducible U(M) module realized inside a tensor power.

    ``basis`` holds exact vectors in word coordinates (words form an
    orthonormal basis of the ambient tensor power, so the irrep's form is
    the plain dot product there); each basis vector has a definite
    weight, recorded in ``basis_weights``.  One instance serves every
    caller with the same label, so no caller changes it.
    """

    m: tuple[int, ...]
    M: int
    basis: list[dict[int, Fraction]]
    basis_weights: list[tuple[int, ...]]
    action: dict[tuple[int, int], ExactOperator]
    highest_index: int

    @property
    def dim(self) -> int:
        return len(self.basis)


def _word_weight(word, M) -> tuple[int, ...]:
    wt = [0] * M
    for letter in word:
        wt[letter] += 1
    return tuple(wt)


def build_inducing_irrep(m, M: int) -> InducingIrrep:
    """Realize the U(M) irrep with the given highest weight as the image
    of a Young symmetrizer inside the tensor power of the defining rep,
    with the derived gl(M) action restricted to it.  Each irrep is built
    once per (partition, M) and shared."""
    return _inducing_irrep(W.partition(m), M)


@cache
def _inducing_irrep(shape: tuple[int, ...], M: int) -> InducingIrrep:
    if len(shape) > M:
        raise ShapeMismatch(f"label {shape} has more than {M} rows")
    n = sum(shape)
    wb = IndexedBasis.tensor_power(M, n)
    sym = young_symmetrizer(shape, M)
    # image basis: one span, fed one weight (content) class at a time; the
    # classes have disjoint supports, so every reduced row is a weight
    # vector with a leader coordinate, which makes restriction a lookup
    by_weight: dict[tuple[int, ...], list[int]] = {}
    for i, word in enumerate(wb.labels):
        by_weight.setdefault(_word_weight(word, M), []).append(i)
    cols = sym.columns()
    span = ReducedSpan()
    basis_weights: list[tuple[int, ...]] = []
    for wt in sorted(by_weight, reverse=True):
        for c in by_weight[wt]:
            if c in cols and span.insert(dict(cols[c])):
                basis_weights.append(wt)
    expected = W.weyl_dim(shape, M)
    if len(span) != expected:
        raise ShapeMismatch(
            f"symmetrizer image has dim {len(span)}, expected {expected}")

    ops = span.restrict_by_leaders({
        (a, b): gl_tensor_action(a, b, M, n).terms()
        for a in range(M) for b in range(M)})

    hw_wt = shape + (0,) * (M - len(shape))
    highest = basis_weights.index(hw_wt)
    # sanity: the highest-weight vector is unique and killed by raisers
    if basis_weights.count(hw_wt) != 1:
        raise InvariantBroken(f"highest weight {hw_wt} is not simple")
    for a in range(M):
        for b in range(a + 1, M):
            if ops[(a, b)].apply({highest: _F1}):
                raise InvariantBroken("highest vector not annihilated")
    return InducingIrrep(shape, M, span.rows, basis_weights, ops, highest)


# ---------------------------------------------------------------------------
# induced modules


@dataclass
class InducedModule:
    """Invariant subspace with the restricted gl(k) action."""

    ambient: str
    k: int
    inputs: dict
    basis: list[dict]
    gl_k: dict[tuple[int, int], ExactOperator]
    highest_weight: tuple | None
    commutant: int | None
    gram_positive: bool
    bracket_ok: bool

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def empty(self) -> bool:
        return self.dimension == 0

    @property
    def sound(self) -> bool:
        """The verdict of the three checks: commutant 1, a positive Gram
        matrix and the gl(k) brackets; an empty module has none to fail."""
        return self.empty or (self.commutant == 1 and self.gram_positive
                              and self.bracket_ok)

    def to_json(self) -> dict:
        return {
            "inputs": self.inputs,
            "ambient": self.ambient,
            "dimension": self.dimension,
            "highest_weight": (None if self.highest_weight is None
                               else [str(x) for x in self.highest_weight]),
            "commutant_dim": self.commutant,
            "gram_positive": self.gram_positive,
            "bracket_ok": self.bracket_ok,
            "empty": self.empty,
            "reason": None,
        }


@dataclass(frozen=True)
class Empty:
    """Certified-empty induced space; a value, not an error."""

    inputs: tuple
    reason: str

    @property
    def dimension(self) -> int:
        return 0

    @property
    def empty(self) -> bool:
        return True

    def to_json(self) -> dict:
        return {
            "inputs": dict(self.inputs),
            "dimension": 0,
            "highest_weight": None,
            "commutant_dim": None,
            "empty": True,
            "reason": self.reason,
        }


def _checked_module(ambient: str, k: int, inputs: dict, basis: list[dict],
                    gl_k: dict[tuple[int, int], ExactOperator],
                    highest_weight, gram: list[list[Fraction]]
                    ) -> InducedModule:
    """The module with its three checks: commutant of the restricted
    gl(k) action, positivity of the Gram matrix and the gl(k) relations."""
    return InducedModule(
        ambient, k, inputs, basis, gl_k,
        highest_weight=highest_weight,
        commutant=gl_commutant_dim(k, lambda i, j: gl_k[(i, j)]),
        gram_positive=_ldl_positive(gram),
        bracket_ok=not gl_relation_failures(
            {"k": {ij: op.terms() for ij, op in gl_k.items()}},
            range(len(basis))),
    )


def _compact_blocks(model: FockModel, piece, irrep: InducingIrrep):
    """The members (f, h) of the combined basis that can carry invariants,
    grouped by the gl(k) weight of the monomial f.

    The diagonal generators are diagonal matrices with eigenvalue
    (column weight of f) - (weight of h) per member, so any invariant
    vector is supported where that difference vanishes: each monomial
    pairs only with the irrep vectors whose weight is its column weight.
    The off-diagonal generators keep the gl(k) weight, so each group is
    solved on its own."""
    by_weight: dict[tuple, list[int]] = {}
    for h, hwt in enumerate(irrep.basis_weights):
        by_weight.setdefault(hwt, []).append(h)
    blocks: dict[tuple, list[tuple[int, int]]] = {}
    for f, lab in enumerate(model.basis(*piece).labels):
        xrow, xcol, _ = model.weight_key(lab)
        for h in by_weight.get(xcol, ()):
            blocks.setdefault(xrow, []).append((f, h))
    return blocks


def _on_fock(image):
    """Image terms of X x 1 on the keys (f, h), from those of X on f."""
    return lambda key: [((r, key[1]), v) for r, v in image(key[0])]


def _diagonal_terms(model: FockModel, piece, irrep: InducingIrrep, a, b):
    """Image terms of the diagonal action D(E_ab) = E_ab x 1 - 1 x E_ab^T
    on the keys (f, h)."""
    fock = _on_fock(model.images("m", a, b, piece))
    dual = (-irrep.action[(a, b)]).transpose().terms()
    return lambda key: fock(key) + [((key[0], rh), v)
                                    for rh, v in dual(key[1])]


def _diagonal_invariants(model: FockModel, piece,
                         irrep: InducingIrrep) -> list[dict]:
    """Joint kernel of the diagonal inducing-side action
    D(X) = X_Fock x 1 - 1 x X_irrep^T, solved block by block.

    The inducing factor enters through its conjugate space, so its
    generators act by the contragredient -X^T; the joint kernel is then
    exactly the space of intertwiners from the inducing irrep into the
    graded piece, one copy of the paired gl(k) irrep."""
    M = model.M
    blocks = _compact_blocks(model, piece, irrep)
    # diagonal generators vanish identically on these blocks; only the
    # off-diagonal ones constrain
    maps = [_diagonal_terms(model, piece, irrep, a, b)
            for a in range(M) for b in range(M) if a != b]
    out: list[dict] = []
    for key in sorted(blocks):
        out += block_kernel(blocks[key], maps)
    return out


def induce_compact(k: int, M: int, m) -> InducedModule:
    """Invariants of the diagonal inducing-side action on the degree-|m|
    graded piece tensored with the inducing irrep, with the commuting
    gl(k) action restricted to them."""
    shape = W.partition(m)
    irrep = build_inducing_irrep(shape, M)
    n = sum(shape)
    model = FockModel(k, M, 0, n, "sq")
    piece = (n, 0)
    invariants = _diagonal_invariants(model, piece, irrep)
    fb = model.basis(*piece)
    inputs = {"k": k, "M": M, "m": list(shape)}
    ambient = f"deg-{n} polynomials on {k}x{M} tensor irrep {shape or '()'}"

    if not invariants:
        return InducedModule(ambient, k, inputs, [], {}, None, None, True, True)

    # the invariants of different weight blocks have disjoint supports, so
    # every reduced row is still a weight vector, and its pivot a leader
    span = ReducedSpan(invariants)
    basis = span.rows
    gl_k = span.restrict_by_leaders({
        (i, j): _on_fock(model.images("k", i, j, piece))
        for i in range(k) for j in range(k)})
    # a row's gl(k) weight is that of any monomial f of its keys (f, h)
    hw = max(model.weight_key(fb.label(next(iter(row))[0]))[0]
             for row in basis)

    # in (monomial, word) coordinates both factors' forms are diagonal
    def in_words(key):
        return [((key[0], w), c) for w, c in irrep.basis[key[1]].items()]

    norms = _fock_norms(fb)
    gram = gram_matrix([linear_image(in_words, row) for row in basis],
                       lambda key: norms[key[0]])
    return _checked_module(ambient, k, inputs, basis, gl_k, hw, gram)


def degree_selection_check(k: int, M: int, m, n_wrong: int) -> dict:
    """The invariant subspace of a wrong-degree piece must vanish."""
    shape = W.partition(m)
    irrep = build_inducing_irrep(shape, M)
    model = FockModel(k, M, 0, n_wrong, "sq")
    basis = _diagonal_invariants(model, (n_wrong, 0), irrep)
    return {
        "k": k,
        "M": M,
        "m": list(shape),
        "n_wrong": n_wrong,
        "dimension": len(basis),
        "ok": len(basis) == 0,
    }


# ---------------------------------------------------------------------------
# graded induction for the indefinite middle group


def induce_noncompact_graded(k: int, M: int, N: int, inducing_weight,
                             d: int) -> InducedModule | Empty:
    """Match an inducing weight against the joint label list of the
    oscillator model; build the lowest compact-type block on a match,
    certify emptiness otherwise.  A match names one weight block: the
    realized label for gl(k), the inducing weight for gl(M) + gl(N).  Its
    joint kernel of the raising maps must be one vector, which the gl(k)
    lowering operators then span out.

    The plainly quantized labels all have the block form
    (m_1 + k, ..., m_M + k, -n_N, ..., -n_1) with partitions m, n whose
    row counts sum to at most k.  Any half-integer entry, any leading
    entry below k, and any row overflow therefore certify emptiness by
    exact integer arithmetic.
    """
    w = (inducing_weight if isinstance(inducing_weight, W.HalfIntWeight)
         else W.HalfIntWeight.from_entries(inducing_weight))
    if len(w.doubled) != M + N:
        raise ShapeMismatch(
            f"weight has {len(w.doubled)} entries, expected {M + N}")
    inputs = (("k", k), ("M", M), ("N", N), ("weight", str(w)))

    if not w.is_integral:
        return Empty(inputs, "half-integer entries match no quantized label")
    entries = [dd // 2 for dd in w.doubled]
    a_blk = entries[:M]
    b_blk = entries[M:]
    m_cand = tuple(x - k for x in a_blk)
    n_cand = tuple(-x for x in reversed(b_blk))
    if any(x < 0 for x in m_cand):
        return Empty(inputs, f"entry below the rank: {min(a_blk)} < {k}")
    if any(m_cand[i] < m_cand[i + 1] for i in range(M - 1)) or \
            any(n_cand[i] < n_cand[i + 1] for i in range(N - 1)):
        return Empty(inputs, "weight blocks are not dominant")
    if any(x < 0 for x in n_cand):
        return Empty(inputs, "negative block entry matches no label")
    rows_m = sum(1 for x in m_cand if x)
    rows_n = sum(1 for x in n_cand if x)
    if rows_m + rows_n > k:
        return Empty(inputs,
                     f"label needs {rows_m + rows_n} rows, rank is {k}")

    p, q = sum(m_cand), sum(n_cand)
    if p + q > d:
        raise TooLarge(f"candidate bidegree ({p}, {q}) exceeds window {d}")
    model = FockModel(k, M, N, d, "sq")
    piece = (p, q)
    hw = W.SignedWeight(W.partition(m_cand), W.partition(n_cand)).realize(k)
    key = (tuple(x - model.c_k for x in hw),
           tuple(x - model.c_m for x in a_blk),
           tuple(model.c_n - x for x in b_blk))
    kernel = block_kernel(model.weight_blocks(piece).get(key, []),
                          raising_images(model, piece))
    if len(kernel) != 1:
        raise InvariantBroken(f"block {key} of bidegree {piece} has "
                              f"{len(kernel)} highest weight vectors, not 1")

    fb = model.basis(*piece)
    lowers = [model.images("k", i + 1, i, piece) for i in range(k - 1)]
    span = ReducedSpan(kernel)
    queue = kernel
    while queue:
        v = queue.pop()
        for terms in lowers:
            img = linear_image(terms, v)
            if img and span.insert(img):
                queue.append(img)

    basis = span.rows
    gl_k = span.restrict_by_leaders({
        (i, j): model.images("k", i, j, piece)
        for i in range(k) for j in range(k)})
    return _checked_module(
        f"bidegree {piece} polynomials on {k}x({M}+{N})", k, dict(inputs),
        basis, gl_k, hw, gram_matrix(basis, _fock_norms(fb).__getitem__))


def _partitions_within(rows: int, total: int):
    out = [()]
    for t in range(1, total + 1):
        out.extend(W.partitions_of(t, max_rows=rows))
    return out


def emptiness_survey(k: int, M: int, N: int, window: int) -> dict:
    """Sweep the graded induction over one signature with three weight
    families: renormalized weights built from strictly decreasing blocks
    (empty, unless the shifted entries land exactly on a quantized
    label's weight -- such collisions must come back as that label's
    module); weights whose leading entry sits below the rank (always
    empty); and shifted labels with m+k on the left block (always the
    module with the label's realized highest weight).  Every nonempty
    module must also have commutant 1, a positive Gram matrix and a gl(k)
    action that satisfies the brackets."""
    cells = []
    collisions = []
    ok = True

    def run(weight, d=window):
        # collisions may need a slightly wider bidegree window
        while True:
            try:
                return induce_noncompact_graded(k, M, N, weight, d)
            except TooLarge:
                if d > 4 * window + 16:
                    raise
                d = 2 * d + 1

    def record(branch, weight_text, good, detail):
        nonlocal ok
        ok = ok and good
        cells.append({"branch": branch, "weight": weight_text,
                      "ok": good, "detail": detail})

    for m, n in strict_signed_pairs(M, N, window):
        halfint = W.renormalize_weight(W.SignedWeight(m, n), M, N)
        text = "(" + ", ".join(str(e) for e in halfint.entries) + ")"
        out = run(halfint)
        if out.empty:
            record("renormalized", text, True, out.reason)
            continue
        hw = out.highest_weight
        good = out.sound and out.dimension == W.signed_weight_dim(hw, k)
        try:
            good = good and hw != W.SignedWeight(m, n).realize(k)
        except ShapeMismatch:
            pass
        record("renormalized", text, good,
               f"collision: highest weight {hw}, dim {out.dimension}")
        collisions.append({"blocks": [list(m), list(n)], "weight": text,
                           "highest_weight": list(hw)})

    for n in _partitions_within(N, window):
        neg = tuple(-x for x in reversed(n + (0,) * (N - len(n))))
        for t in sorted({0, k - 1}):
            w = (t,) * M + neg
            out = run(w)
            good = out.empty and out.reason.startswith("entry below the rank")
            record("below-rank", str(w), good,
                   out.reason if out.empty else f"dim {out.dimension}")

    for m in _partitions_within(M, window):
        for n in _partitions_within(N, window - sum(m)):
            if len(m) + len(n) > k:
                continue
            w = tuple(x + k for x in m + (0,) * (M - len(m)))
            w += tuple(-x for x in reversed(n + (0,) * (N - len(n))))
            out = run(w)
            want = W.SignedWeight(m, n).realize(k)
            good = (not out.empty and out.sound
                    and out.highest_weight == want
                    and out.dimension == W.signed_weight_dim(want, k))
            record("shifted-label", str(w), good,
                   f"dim {out.dimension}" if not out.empty else out.reason)

    return {"k": k, "M": M, "N": N, "window": window, "ok": ok,
            "collisions": collisions, "cells": cells}
