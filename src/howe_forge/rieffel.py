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

The exact linear algebra is shared with ``tensor``, and so is its one
operator form, image terms keyed by labels: the invariants are
``block_kernel`` solves over the weight blocks of (Fock piece) x irrep,
keyed (monomial, irrep row index), whose monomials ``FockModel.blocks``
builds from each irrep weight as column sums, with each Fock generator
given by the image terms ``FockModel.images`` reads off their labels.  The
inducing irrep is keyed by words in the same way: its highest weight
vector (``_highest_vector``) and each gl(M) image (``_word_images``) are
read off words, so no operator on the whole tensor power is built.  The
inducing irrep and a graded induced module are both cyclic: each is the
span of one highest weight vector under the lowering operators
(``_lowered_span``).  Every module basis is the ``rows`` of
one ``ReducedSpan``, and the restricted actions on it (the inducing
irrep's gl(M), an induced module's gl(k)) are the image terms on its row
indices that one ``restrict_by_leaders`` call reads off that span.  The
induced inner product is the Fock norm, <x^e, x^e> = prod e!
(``_fock_norm``), tensored with the form of the (monomial, word)
coordinates the irrep lives in; both are diagonal, so it is one
``gram_matrix``, whose sparse rows go to ``positive_definite``, the
positivity check of the elimination core ``tensor`` shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from . import weights as W
from .errors import BadWeight, InvariantBroken, ShapeMismatch, TooLarge
from .fock import FockModel, raising_images, strict_signed_pairs
from .tensor import BASIS_CAP, ReducedSpan, block_kernel, \
    gl_commutant_dim, gl_relation_failures, gram_matrix, linear_image, \
    perm_inverse, positive_definite, subgroup_perms


# ---------------------------------------------------------------------------
# the induced inner product


def _fock_norm(lab) -> int:
    """Squared norm <x^e, x^e> = prod e! of the monomial with label e."""
    return math.prod(map(math.factorial, lab))


# ---------------------------------------------------------------------------
# inducing irreps of the compact middle group


@dataclass(frozen=True)
class InducingIrrep:
    """Irreducible U(M) module realized inside a tensor power.

    ``basis`` holds exact vectors keyed by word (words form an
    orthonormal basis of the ambient tensor power, so the irrep's form is
    the plain dot product there); each basis vector has a definite
    weight, recorded in ``basis_weights``.  Row 0 is the highest weight
    vector.  One instance serves every caller with the same label, so no
    caller changes it.
    """

    m: tuple[int, ...]
    M: int
    basis: list[dict[tuple[int, ...], int]]
    basis_weights: list[tuple[int, ...]]
    action: dict  # (a, b) -> image terms of E_ab on range(dim)

    @property
    def dim(self) -> int:
        return len(self.basis)


def _word_weight(word, M) -> tuple[int, ...]:
    wt = [0] * M
    for letter in word:
        wt[letter] += 1
    return tuple(wt)


def _highest_vector(shape: tuple[int, ...]) -> dict:
    """The word w0 with letter r in every slot of row r of the row-reading
    tableau, antisymmetrized over each column's slots: sum over q in the
    column group of sign(q) e_{q w0}, keyed by word.  A slot permutation
    moves the letter in slot a to slot q(a), so q w0 reads its letters off
    w0 at the inverse of q.  The row group fixes w0, so this is column w0
    of the Young symmetrizer divided by the order of the row group."""
    n = sum(shape)
    starts = [sum(shape[:r]) for r in range(len(shape))]
    cols = [[c + j for c, r in zip(starts, shape) if j < r]
            for j in range(shape[0] if shape else 0)]
    w0 = tuple(r for r, length in enumerate(shape) for _ in range(length))
    return {tuple(w0[s] for s in perm_inverse(q)): W.perm_sign(q)
            for q in subgroup_perms(cols, n)}


def _word_images(a: int, b: int):
    """Image terms w -> [(target word, 1)] of E_ab, read off the word w:
    each slot holding letter b in turn set to a."""
    def image(w):
        return [(w[:s] + (a,) + w[s + 1:], 1)
                for s, letter in enumerate(w) if letter == b]
    return image


def _lowered_span(vectors, lowers) -> ReducedSpan:
    """The span of the vectors under the lowering maps (image terms): each
    image that enlarges the span is lowered in turn."""
    span = ReducedSpan(vectors)
    queue = list(vectors)
    while queue:
        v = queue.pop()
        for terms in lowers:
            img = linear_image(terms, v)
            if img and span.insert(img):
                queue.append(img)
    return span


def build_inducing_irrep(m, M: int) -> InducingIrrep:
    """Realize the U(M) irrep with the given highest weight inside the
    tensor power of the defining rep, as the span of its highest weight
    vector under the lowering operators, with the derived gl(M) action
    restricted to it.  Each irrep is built once per (partition, M) and
    shared."""
    return _inducing_irrep(W.partition(m), M)


@cache
def _inducing_irrep(shape: tuple[int, ...], M: int) -> InducingIrrep:
    if len(shape) > M:
        raise ShapeMismatch(f"label {shape} has more than {M} rows")
    n = sum(shape)
    if M**n > BASIS_CAP:
        raise TooLarge(
            f"tensor power basis k^n = {M**n} exceeds cap {BASIS_CAP}")
    # a highest weight vector generates an irreducible submodule; lowering
    # keeps a vector's weight and words of different weights share no
    # support, so every reduced row is a weight vector, read off its pivot
    span = _lowered_span([_highest_vector(shape)],
                         [_word_images(a + 1, a) for a in range(M - 1)])
    expected = W.weyl_dim(shape, M)
    if len(span) != expected:
        raise ShapeMismatch(
            f"lowered span has dim {len(span)}, expected {expected}")
    basis_weights = [_word_weight(min(row), M) for row in span.rows]

    ops = span.restrict_by_leaders({
        (a, b): _word_images(a, b) for a in range(M) for b in range(M)})

    # sanity: the highest weight is simple, and its vector, row 0, is
    # killed by the raisers
    hw_wt = W.padded(shape, M)
    if basis_weights.count(hw_wt) != 1:
        raise InvariantBroken(f"highest weight {hw_wt} is not simple")
    for a in range(M):
        for b in range(a + 1, M):
            if linear_image(ops[(a, b)], {0: 1}):
                raise InvariantBroken("highest vector not annihilated")
    return InducingIrrep(shape, M, span.rows, basis_weights, ops)


# ---------------------------------------------------------------------------
# induced modules


@dataclass
class InducedModule:
    """Invariant subspace with the restricted gl(k) action."""

    ambient: str
    k: int
    inputs: dict
    basis: list[dict]
    gl_k: dict  # (i, j) -> image terms of E_ij on range(dimension)
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
                    gl_k: dict, highest_weight, gram: list[dict]
                    ) -> InducedModule:
    """The module with its three checks: commutant of the restricted
    gl(k) action, positivity of the Gram matrix and the gl(k) relations."""
    return InducedModule(
        ambient, k, inputs, basis, gl_k,
        highest_weight=highest_weight,
        commutant=gl_commutant_dim(gl_k, len(basis)),
        gram_positive=positive_definite(gram),
        bracket_ok=not gl_relation_failures({"k": gl_k}, range(len(basis))),
    )


def _compact_blocks(model: FockModel, piece, irrep: InducingIrrep):
    """The members (f, h) of the combined basis that can carry invariants,
    grouped by the gl(k) weight of f, the row part of its weight key.

    The diagonal generators are diagonal matrices with eigenvalue
    (column weight of f) - (weight of h) per member, so any invariant
    vector is supported where that difference vanishes: each monomial
    pairs only with the irrep vectors whose weight is its column weight,
    and ``model.blocks`` builds the monomials of each irrep weight from
    those column sums.  The off-diagonal generators keep the gl(k)
    weight, so each group is solved on its own."""
    by_weight: dict[tuple, list[int]] = {}
    for h, hwt in enumerate(irrep.basis_weights):
        by_weight.setdefault(hwt, []).append(h)
    blocks: dict[tuple, list[tuple[tuple[int, ...], int]]] = {}
    for wt, hs in by_weight.items():
        for (xrow, _, _), fs in model.blocks(piece, wt, ()).items():
            blocks.setdefault(xrow, []).extend(
                (f, h) for f in fs for h in hs)
    return blocks


def _on_fock(image):
    """Image terms of X x 1 on the keys (f, h), from those of X on f."""
    return lambda key: [((r, key[1]), v) for r, v in image(key[0])]


def _diagonal_terms(model: FockModel, irrep: InducingIrrep, a, b):
    """Image terms of the diagonal action D(E_ab) = E_ab x 1 - 1 x E_ab^T
    on the keys (f, h)."""
    fock = _on_fock(model.images("m", a, b))
    dual: dict[int, list] = {}  # -E_ab^T sends h to c wherever E_ab[h, c] != 0
    action = irrep.action[(a, b)]
    for c in range(irrep.dim):
        for h, v in action(c):
            dual.setdefault(h, []).append((c, -v))
    return lambda key: fock(key) + [((key[0], c), v)
                                    for c, v in dual.get(key[1], ())]


def _diagonal_invariants(model: FockModel, piece,
                         irrep: InducingIrrep) -> dict[tuple, list[dict]]:
    """Joint kernel of the diagonal inducing-side action
    D(X) = X_Fock x 1 - 1 x X_irrep^T, solved block by block and keyed by
    the blocks' gl(k) weights.

    The inducing factor enters through its conjugate space, so its
    generators act by the contragredient -X^T; the joint kernel is then
    exactly the space of intertwiners from the inducing irrep into the
    graded piece, one copy of the paired gl(k) irrep."""
    M = model.M
    blocks = _compact_blocks(model, piece, irrep)
    # diagonal generators vanish identically on these blocks; only the
    # off-diagonal ones constrain
    maps = [_diagonal_terms(model, irrep, a, b)
            for a in range(M) for b in range(M) if a != b]
    return {key: block_kernel(blocks[key], maps) for key in sorted(blocks)}


def induce_compact(k: int, M: int, m) -> InducedModule:
    """Invariants of the diagonal inducing-side action on the degree-|m|
    graded piece tensored with the inducing irrep, with the commuting
    gl(k) action restricted to them."""
    shape = W.partition(m)
    irrep = build_inducing_irrep(shape, M)
    n = sum(shape)
    model = FockModel(k, M, 0, "sq")
    piece = (n, 0)
    solved = _diagonal_invariants(model, piece, irrep)
    invariants = [v for vecs in solved.values() for v in vecs]
    inputs = {"k": k, "M": M, "m": list(shape)}
    ambient = f"deg-{n} polynomials on {k}x{M} tensor irrep {shape or '()'}"

    if not invariants:
        return InducedModule(ambient, k, inputs, [], {}, None, None, True, True)

    # the invariants of different weight blocks have disjoint supports, so
    # every reduced row is still a weight vector, and its pivot a leader
    span = ReducedSpan(invariants)
    basis = span.rows
    gl_k = span.restrict_by_leaders({
        (i, j): _on_fock(model.images("k", i, j))
        for i in range(k) for j in range(k)})
    hw = max(key for key, vecs in solved.items() if vecs)

    # in (monomial, word) coordinates both factors' forms are diagonal
    def in_words(key):
        return [((key[0], w), c) for w, c in irrep.basis[key[1]].items()]

    gram = gram_matrix([linear_image(in_words, row) for row in basis],
                       lambda key: _fock_norm(key[0]))
    return _checked_module(ambient, k, inputs, basis, gl_k, hw, gram)


def degree_selection_check(k: int, M: int, m, n_wrong: int) -> dict:
    """The invariant subspace of a wrong-degree piece must vanish."""
    shape = W.partition(m)
    irrep = build_inducing_irrep(shape, M)
    model = FockModel(k, M, 0, "sq")
    solved = _diagonal_invariants(model, (n_wrong, 0), irrep)
    dimension = sum(map(len, solved.values()))
    return {
        "k": k,
        "M": M,
        "m": list(shape),
        "n_wrong": n_wrong,
        "dimension": dimension,
        "ok": dimension == 0,
    }


# ---------------------------------------------------------------------------
# graded induction for the indefinite middle group


def induce_noncompact_graded(k: int, M: int, N: int,
                             inducing_weight) -> InducedModule | Empty:
    """Match an inducing weight against the joint label list of the
    oscillator model; build the lowest compact-type block on a match,
    certify emptiness otherwise.  A match names one weight block: the
    realized label for gl(k), the inducing weight for gl(M) + gl(N).  Its
    joint kernel of the raising maps must be one vector, which the gl(k)
    lowering operators then span out.  The model has no top degree, so a
    match is solved at its own bidegree (|m|, |n|) whatever its size;
    only a piece past ``BASIS_CAP`` monomials raises ``TooLarge``.

    The plainly quantized labels all have the block form
    (m_1 + k, ..., m_M + k, -n_N, ..., -n_1) with partitions m, n whose
    row counts sum to at most k, so a half-integer entry certifies
    emptiness by exact arithmetic, and so does any reason
    ``SignedWeight.unshifted`` gives that no label shifts to a weight.
    """
    for name, value in (("k", k), ("M", M), ("N", N)):
        if value < 1:
            raise ShapeMismatch(
                f"graded induction needs {name} >= 1, got {value}")
    w = (inducing_weight if isinstance(inducing_weight, W.HalfIntWeight)
         else W.HalfIntWeight.from_entries(inducing_weight))
    if len(w.doubled) != M + N:
        raise ShapeMismatch(
            f"weight has {len(w.doubled)} entries, expected {M + N}")
    inputs = (("k", k), ("M", M), ("N", N), ("weight", str(w)))

    if not w.is_integral:
        return Empty(inputs, "half-integer entries match no quantized label")
    try:
        label = W.SignedWeight.unshifted([dd // 2 for dd in w.doubled],
                                         k, M, N)
    except BadWeight as exc:
        return Empty(inputs, str(exc))

    model = FockModel(k, M, N, "sq")
    piece = (sum(label.m), sum(label.n))
    hw, cols = label.realize(k), label.columns(M, N)
    kernel = block_kernel(model.blocks(piece, *cols).get((hw, *cols), []),
                          raising_images(model))
    if len(kernel) != 1:
        raise InvariantBroken(f"block {hw}, {w} of bidegree {piece} has "
                              f"{len(kernel)} highest weight vectors, not 1")

    span = _lowered_span(kernel,
                         [model.images("k", i + 1, i) for i in range(k - 1)])
    basis = span.rows
    gl_k = span.restrict_by_leaders({
        (i, j): model.images("k", i, j)
        for i in range(k) for j in range(k)})
    return _checked_module(
        f"bidegree {piece} polynomials on {k}x({M}+{N})", k, dict(inputs),
        basis, gl_k, hw, gram_matrix(basis, _fock_norm))


def emptiness_survey(k: int, M: int, N: int, window: int) -> dict:
    """Sweep the graded induction over one signature with three weight
    families: renormalized weights built from strictly decreasing blocks
    (empty, unless the shifted entries land exactly on a quantized
    label's weight -- such collisions must come back as that label's
    module); weights whose leading entry sits below the rank (always
    empty); and shifted labels with m+k on the left block (always the
    module with the label's realized highest weight).  Every nonempty
    module must also have commutant 1, a positive Gram matrix and a gl(k)
    action that satisfies the brackets.  The ``window`` bounds the block
    sizes of the three families; graded induction itself has no window,
    and a ``TooLarge`` from a piece past ``BASIS_CAP`` leaves the survey."""
    cells = []
    collisions = []
    ok = True

    def record(branch, weight_text, good, detail):
        nonlocal ok
        ok = ok and good
        cells.append({"branch": branch, "weight": weight_text,
                      "ok": good, "detail": detail})

    for m, n in strict_signed_pairs(M, N, window):
        halfint = W.renormalize_weight(W.SignedWeight(m, n), M, N)
        text = "(" + ", ".join(str(e) for e in halfint.entries) + ")"
        out = induce_noncompact_graded(k, M, N, halfint)
        if out.empty:
            record("renormalized", text, True, out.reason)
            continue
        hw = out.highest_weight
        good = (out.sound and out.dimension == W.signed_weight_dim(hw, k)
                and (len(m) + len(n) > k
                     or hw != W.SignedWeight(m, n).realize(k)))
        record("renormalized", text, good,
               f"collision: highest weight {hw}, dim {out.dimension}")
        collisions.append({"blocks": [list(m), list(n)], "weight": text,
                           "highest_weight": list(hw)})

    for n in W.partitions_upto(window, N):
        for t in sorted({0, k - 1}):
            w = W.SignedWeight((), n).shifted(t, M, N)
            out = induce_noncompact_graded(k, M, N, w)
            good = out.empty and out.reason.startswith("entry below the rank")
            record("below-rank", str(w), good,
                   out.reason if out.empty else f"dim {out.dimension}")

    for m in W.partitions_upto(window, M):
        for n in W.partitions_upto(window - sum(m), N):
            if len(m) + len(n) > k:
                continue
            label = W.SignedWeight(m, n)
            w = label.shifted(k, M, N)
            out = induce_noncompact_graded(k, M, N, w)
            want = label.realize(k)
            good = (not out.empty and out.sound
                    and out.highest_weight == want
                    and out.dimension == W.signed_weight_dim(want, k))
            record("shifted-label", str(w), good,
                   f"dim {out.dimension}" if not out.empty else out.reason)

    return {"k": k, "M": M, "N": N, "window": window, "ok": ok,
            "collisions": collisions, "cells": cells}
