"""Graded polynomial models and the pairing/label checks built on them."""

import dataclasses
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from howe_forge import fock
from howe_forge import tensor as T
from howe_forge import weights as W
from howe_forge.errors import InvariantBroken, ShapeMismatch, TooLarge
from howe_forge.fock import (
    FockModel,
    compact_multiplicities,
    expected_kv_labels,
    howe_stability_check,
    joint_highest_weight_vectors,
    strict_signed_pairs,
    verify_howe,
    verify_kv,
)


def frac_tuple(*vals):
    return tuple(Fraction(v) for v in vals)


def apply(op, vec):
    return T.linear_image(op.terms(), vec)


# ---------------------------------------------------------------------------
# model construction, grading, and the generator matrices themselves


def test_compact_pieces_and_dimensions():
    model = FockModel(2, 2, 0, "sq")
    assert model.pieces(3) == [(0, 0), (1, 0), (2, 0), (3, 0)]
    for n in range(4):
        assert len(model.basis(n, 0)) == bf.monomial_count(4, n)


def test_oscillator_pieces_cover_the_bidegree_window():
    model = FockModel(2, 1, 1, "sq")
    assert model.pieces(2) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    for p, q in model.pieces(2):
        assert len(model.basis(p, q)) == (
            bf.monomial_count(2, p) * bf.monomial_count(2, q))


def test_bad_parameters_rejected():
    with pytest.raises(ShapeMismatch):
        FockModel(0, 2, 0, "sq")
    with pytest.raises(ShapeMismatch):
        FockModel(2, 2, 0, "bogus")
    with pytest.raises(ShapeMismatch, match="N >= 1"):
        verify_kv(2, 1, 0, 2)


def test_piece_cap_enforced():
    # 9 variables in degree 9: C(17, 9) = 24310 monomials
    model = FockModel(3, 3, 0, "sq")
    with pytest.raises(TooLarge):
        model.basis(9, 0)
    # 4 + 4 variables in bidegree (15, 15): 816 monomials on each side
    model = FockModel(2, 2, 2, "sq")
    with pytest.raises(TooLarge):
        model.basis(15, 15)


def test_failed_bracket_smoke_check_raises(monkeypatch):
    monkeypatch.setattr(FockModel, "bracket_failures",
                        lambda self, piece: ["gl(k)[01,10]"])
    with pytest.raises(InvariantBroken, match="bracket smoke check"):
        verify_howe(2, 2, 2)
    with pytest.raises(InvariantBroken, match="bracket smoke check"):
        verify_kv(2, 1, 1, 2)


def test_weight_key_reads_rows_and_columns():
    model = FockModel(2, 2, 0, "sq")
    # x[0,0]^2: row weight (2, 0), column weight (2, 0), no y block
    assert model.blocks((2, 0), (2, 0), ())[((2, 0), (2, 0), ())] \
        == [(2, 0, 0, 0)]
    osc = FockModel(2, 1, 1, "sq")
    # x[0,0]*y[1,0]: the y block counts against the row weight
    assert osc.blocks((1, 1), (1,), (1,))[((1, -1), (1,), (1,))] \
        == [(1, 0, 0, 1)]


def test_dominant_blocks_check_the_cap_before_listing_column_sums():
    """The piece is refused with the basis's own text, not with that of
    the 3,400 dominant column sums of degree 199 in three columns."""
    model = FockModel(2, 3, 0, "sq")
    text = "^monomial basis size 2802350040 exceeds cap 20000$"
    with pytest.raises(TooLarge, match=text):
        model.basis(199, 0)
    with pytest.raises(TooLarge, match=text):
        model.dominant_blocks((199, 0))


@pytest.mark.parametrize("convention", ["sq", "hf"])
@pytest.mark.parametrize("N", [0, 1, 2])
def test_labels_read_back_and_find_their_blocks(convention, N):
    """For every label (m, n) on M = 2 and N rows with |m| + |n| <= 3,
    at every rank k <= 3 with rows for it: ``read`` inverts ``realize``,
    ``unshifted`` inverts ``shifted``, the block that ``columns`` names
    at the realized weight is the brute-force grouping's block with that
    key, and the key dresses to the convention's predicted weights, the
    compact ones when N = 0."""
    M = 2
    context = "howehf" if not N else "kave" if convention == "sq" else "kave2"
    for k in range(1, 4):
        model = FockModel(k, M, N, convention)
        for piece in model.pieces(3):
            blocks = bf.weight_blocks(model, piece)
            for m, n in product(W.partitions_of(piece[0], max_rows=M),
                                W.partitions_of(piece[1], max_rows=N)):
                if len(m) + len(n) > k:
                    continue
                label = W.SignedWeight(W.padded(m, M), W.padded(n, N))
                hw, cols = label.realize(k), label.columns(M, N)
                assert W.SignedWeight.read(hw, M, N) == label
                assert W.SignedWeight.unshifted(
                    label.shifted(k, M, N), k, M, N) == label
                key = (hw, *cols)
                assert model.blocks(piece, *cols)[key] == blocks[key]
                kw, mw, nw = model.dressed_weights(key)
                for side, got in (("left", kw), ("right", mw + nw)):
                    want = W.shift_weight(label if N else m, convention,
                                          context, k=k, M=M, N=N, side=side)
                    assert W.HalfIntWeight.from_entries(got).doubled \
                        == want.doubled


@pytest.mark.parametrize("k,M,N", [(1, 1, 1), (2, 1, 1), (2, 2, 1),
                                   (3, 2, 2), (4, 3, 2), (2, 1, 2),
                                   (3, 3, 1)])
def test_blocks_from_column_sums_match_the_full_grouping(k, M, N):
    """For every pair of column sums of every piece up to bidegree (4, 4),
    the blocks built from the sums are those of the whole piece's basis
    grouped by weight key (``bf.weight_blocks``) with those sums, in the
    same order, members in basis order, and ``dominant_blocks`` is the
    part of that grouping whose rows and x column sums do not increase
    and whose y column sums do not decrease; a piece past the cap is
    refused by all three."""
    model = FockModel(k, M, N, "sq")
    for p, q in product(range(5), repeat=2):
        pairs = [(mw, nw) for mw in product(range(p + 1), repeat=M)
                 if sum(mw) == p
                 for nw in product(range(q + 1), repeat=N) if sum(nw) == q]
        try:
            full = bf.weight_blocks(model, (p, q))
        except TooLarge as refused:
            for build in (lambda: model.blocks((p, q), *pairs[0]),
                          lambda: model.dominant_blocks((p, q))):
                with pytest.raises(TooLarge) as also:
                    build()
                assert str(also.value) == str(refused)
            continue
        for mw, nw in pairs:
            assert list(model.blocks((p, q), mw, nw).items()) == [
                (key, members) for key, members in full.items()
                if key[1:] == (mw, nw)]
        assert model.dominant_blocks((p, q)) == {
            key: members for key, members in full.items()
            if all(list(w) == sorted(w, reverse=True) for w in key[:2])
            and list(key[2]) == sorted(key[2])}


def test_first_order_action_is_polarization():
    model = FockModel(1, 2, 0, "sq")
    b = bf.IndexedBasis(model.basis(2, 0))
    # E[0,1] x[0,0]x[0,1] = x[0,0]^2  (one derivative, one multiplication)
    src = b.ordinal((1, 1, 0, 0)[: len(b.labels[0])])
    out = apply(bf.fock_operator(model, "m", 0, 1, (2, 0)),
                {src: Fraction(1)})
    assert out == {b.ordinal((2, 0)): Fraction(1)}


def test_gl_k_twists_by_the_dual_on_the_y_block():
    osc = FockModel(2, 1, 1, "sq")
    b = osc.basis(0, 1)
    assert b == ((0, 0, 1, 0), (0, 0, 0, 1))
    op = bf.fock_operator(osc, "k", 0, 1, (0, 1))
    assert apply(op, {0: Fraction(1)}) == {1: Fraction(-1)}
    assert apply(op, {1: Fraction(1)}) == {}


def test_raiser_is_multiplication_by_the_pairing():
    osc = FockModel(2, 1, 1, "sq")
    out = apply(bf.fock_operator(osc, "raise", 0, 0, (0, 0)),
                {0: Fraction(1)})
    b = bf.IndexedBasis(osc.basis(1, 1))
    assert out == {
        b.ordinal((1, 0, 1, 0)): Fraction(1),
        b.ordinal((0, 1, 0, 1)): Fraction(1),
    }


def test_lowerer_is_the_paired_second_derivative():
    osc = FockModel(2, 1, 1, "sq")
    low = bf.fock_operator(osc, "lower", 0, 0, (1, 1))
    b = bf.IndexedBasis(osc.basis(1, 1))
    assert apply(low, {b.ordinal((1, 0, 1, 0)): Fraction(1)}) == {
        0: Fraction(1)}
    assert apply(low, {b.ordinal((1, 0, 0, 1)): Fraction(1)}) == {}


def oracle_bracket_failures(model, piece):
    """The dense all-pairs oracle ``bf.relation_failures`` on the k, m
    and n generators of one piece, each given by the position-keyed
    image terms of its matrix."""
    fams = {name: {(a, b): bf.fock_operator(model, name, a, b, piece).terms()
                   for a, b in product(range(rank), repeat=2)}
            for name, rank in (("k", model.k), ("m", model.M),
                               ("n", model.N))}
    return bf.relation_failures(fams, len(model.basis(*piece)))


@pytest.mark.parametrize("convention", ["sq", "hf"])
def test_bracket_relations_hold_on_every_piece(convention):
    for k, M, N in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 0)]:
        model = FockModel(k, M, N, convention)
        for piece in model.pieces(2):
            assert oracle_bracket_failures(model, piece) == []
            assert model.bracket_failures(piece) == []


@pytest.mark.parametrize("family,a,b", [("k", 0, 1), ("m", 1, 0), ("n", 0, 0)])
def test_bracket_check_agrees_with_the_matrix_oracle(family, a, b):
    """A generator with doubled images still commutes with the other
    families and breaks relations within its own; the image-term check
    fails on the pairs, with the labels, that the dense oracle reports."""
    model = FockModel(2, 2, 2, "hf")
    real = model.images

    def images(fam, x, y):
        image = real(fam, x, y)
        if (fam, x, y) != (family, a, b):
            return image
        return lambda o: [(t, 2 * v) for t, v in image(o)]

    model.images = images
    seen = []
    for piece in model.pieces(2):
        bad = model.bracket_failures(piece)
        assert bad == oracle_bracket_failures(model, piece)
        seen += bad
    assert seen
    assert all(label.startswith(f"gl({family})") for label in seen)


def test_bracket_check_reports_a_cross_family_fault():
    """A gl(k) generator posing as the one generator of the "m" family
    keeps every relation within its family and fails only to commute
    with gl(k)."""
    model = FockModel(2, 2, 0, "sq")
    piece = (2, 0)
    cols = model.basis(*piece)
    gl_k = {(i, j): model.images("k", i, j)
            for i, j in product(range(2), repeat=2)}
    assert T.gl_relation_failures(
        {"k": gl_k, "m": {(0, 0): model.images("m", 0, 0)}},
        cols) == []
    assert T.gl_relation_failures(
        {"k": gl_k, "m": {(0, 0): model.images("k", 0, 1)}},
        cols) == ["k00 vs m00", "k10 vs m00", "k11 vs m00"]


@pytest.mark.parametrize("convention", ["sq", "hf"])
@pytest.mark.parametrize("k,M,N", [(2, 1, 1), (1, 2, 1)])
def test_lowerer_raiser_commutator(convention, k, M, N):
    """[L(a,b), R(c,d)] closes onto the middle algebras with no scalar
    left over, in either convention."""
    model = FockModel(k, M, N, convention)

    def op(*args):
        return bf.fock_operator(model, *args)

    for a in range(M):
        for b in range(N):
            for c in range(M):
                for d in range(N):
                    lhs = bf.add(
                        bf.compose(op("lower", a, b, (2, 2)),
                                   op("raise", c, d, (1, 1))),
                        bf.scaled(bf.compose(op("raise", c, d, (0, 0)),
                                             op("lower", a, b, (1, 1))),
                                  -1))
                    rhs = [bf.scaled(lhs, 0)]
                    if b == d:
                        rhs.append(op("m", c, a, (1, 1)))
                    if a == c:
                        rhs.append(bf.scaled(op("n", b, d, (1, 1)), -1))
                    assert lhs == bf.add(*rhs)


@pytest.mark.parametrize("convention", ["sq", "hf"])
def test_lower_after_raise_on_constants_counts_rank(convention):
    model = FockModel(2, 1, 1, convention)
    lr = bf.compose(bf.fock_operator(model, "lower", 0, 0, (1, 1)),
                    bf.fock_operator(model, "raise", 0, 0, (0, 0)))
    assert apply(lr, {0: Fraction(1)}) == {0: Fraction(2)}


@pytest.mark.parametrize("convention", ["sq", "hf"])
@pytest.mark.parametrize("model", [
    lambda c: FockModel(3, 2, 0, c),
    lambda c: FockModel(1, 2, 1, c),
], ids=["compact", "oscillator"])
def test_operators_hold_ints_where_integral(model, convention):
    """Only int and Fraction values; every sq operator, raiser, lowerer
    and off-diagonal generator is int-valued, and a Fraction only comes
    from a non-integral hf constant: k/2 = 3/2 in this compact model,
    (M - N)/2 = k/2 = 1/2 in this oscillator model."""
    model = model(convention)
    fractions = 0
    for piece in model.pieces(3):
        gl = [([(ij, bf.fock_operator(model, family, *ij, piece))
                for ij in product(range(rank), repeat=2)], True)
              for family, rank in (("k", model.k), ("m", model.M),
                                   ("n", model.N))]
        pairs = [(a, b) for a in range(model.M) for b in range(model.N)]
        shifting = [(ab, bf.fock_operator(model, "raise", *ab, piece))
                    for ab in pairs]
        if piece[0] and piece[1]:
            shifting += [(ab, bf.fock_operator(model, "lower", *ab, piece))
                         for ab in pairs]
        for fam, diagonal in gl + [(shifting, False)]:
            for (i, j), op in fam:
                for v in op.data.values():
                    assert type(v) in (int, Fraction)
                    if type(v) is Fraction:
                        assert convention == "hf" and diagonal and i == j
                        assert v.denominator > 1
                        fractions += 1
    assert bool(fractions) == (convention == "hf")


# ---------------------------------------------------------------------------
# joint highest weight vectors


def test_compact_highest_weights_pair_up():
    model = FockModel(2, 2, 0, "sq")
    hw = joint_highest_weight_vectors(model, (2, 0))
    got = sorted(model.dressed_weights(h.key)[:2] for h in hw)
    assert got == [
        (frac_tuple(1, 1), frac_tuple(1, 1)),
        (frac_tuple(2, 0), frac_tuple(2, 0)),
    ]
    hw3 = joint_highest_weight_vectors(model, (3, 0))
    assert sorted(model.dressed_weights(h.key)[0] for h in hw3) == [
        frac_tuple(2, 1), frac_tuple(3, 0)]


def test_highest_weight_count_matches_raiser_nullity():
    """Independent count: stack all raising matrices densely and take the
    nullity with the naive eliminator."""
    model = FockModel(2, 2, 0, "sq")
    b = model.basis(2, 0)
    ops = [bf.fock_operator(model, family, 0, 1, (2, 0))
           for family in ("k", "m")]
    rows = []
    for col in range(len(b)):
        image = {}
        for t, op in enumerate(ops):
            for r, v in apply(op, {col: Fraction(1)}).items():
                image[t * len(b) + r] = v
        rows.append(image)
    # transpose into equation rows: one equation per image coordinate
    nrows = 2 * len(b)
    dense = [[Fraction(0)] * len(b) for _ in range(nrows)]
    for col, image in enumerate(rows):
        for r, v in image.items():
            dense[r][col] = v
    nullity = bf.dense_nullity(dense, len(b))
    assert nullity == len(joint_highest_weight_vectors(model, (2, 0)))


@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=25, deadline=None)
def test_highest_weight_count_is_partition_count(k, M, n):
    model = FockModel(k, M, 0, "sq")
    hw = joint_highest_weight_vectors(model, (n, 0))
    assert len(hw) == len(list(W.partitions_of(n, max_rows=min(k, M))))
    for h in hw:
        # multiplicity-free pairing: the label on each side is the same
        kw, mw, _ = model.dressed_weights(h.key)
        label = tuple(int(x) for x in kw if x)
        assert tuple(int(x) for x in mw if x) == label


def test_oscillator_highest_weights_sq():
    model = FockModel(2, 1, 1, "sq")
    seen = {}
    for piece in model.pieces(2):
        for h in joint_highest_weight_vectors(model, piece):
            seen[piece] = model.dressed_weights(h.key)
    assert seen[(0, 0)] == (frac_tuple(0, 0), frac_tuple(2), frac_tuple(0))
    assert seen[(1, 1)] == (frac_tuple(1, -1), frac_tuple(3), frac_tuple(-1))
    assert seen[(0, 2)] == (frac_tuple(0, -2), frac_tuple(2), frac_tuple(-2))
    assert len(seen) == len(model.pieces(2))


def test_oscillator_highest_weights_hf():
    model = FockModel(2, 1, 1, "hf")
    (h,) = joint_highest_weight_vectors(model, (0, 0))
    assert model.dressed_weights(h.key) == (
        frac_tuple(0, 0), frac_tuple(1), frac_tuple(-1))
    (h,) = joint_highest_weight_vectors(model, (1, 1))
    assert model.dressed_weights(h.key) == (
        frac_tuple(1, -1), frac_tuple(2), frac_tuple(-2))


def all_block_highest_weights(model, piece):
    """The joint kernel of the raising matrices solved on every weight
    block, dominant or not, by dense Fraction row reduction: one kernel
    vector per free column of the block, 1 there and minus the reduced
    row entries at the pivots, keyed by monomial label."""
    ops = [bf.fock_operator(model, family, a, b, piece)
           for family, rank in (("k", model.k), ("m", model.M),
                                ("n", model.N))
           for a in range(rank) for b in range(a + 1, rank)]
    if model.N and piece[0] and piece[1]:
        ops += [bf.fock_operator(model, "lower", a, b, piece)
                for a in range(model.M) for b in range(model.N)]
    dense = [bf.dense_matrix(op) for op in ops]
    at = bf.IndexedBasis(model.basis(*piece))
    out = []
    for key, members in sorted(bf.weight_blocks(model, piece).items()):
        cols = [at.ordinal(lab) for lab in members]
        rows = [[mat[r][c] for c in cols] for mat in dense
                for r in range(len(mat))]
        rref = bf.dense_rref(rows, len(members))
        pivots = [row.index(next(x for x in row if x)) for row in rref]
        for free in range(len(members)):
            if free in pivots:
                continue
            vec = {members[free]: 1}
            vec.update({members[p]: -row[free]
                        for p, row in zip(pivots, rref) if row[free]})
            out.append(fock.HighestWeightVector(piece, key, vec))
    return out


@pytest.mark.parametrize("k,M,N", [(2, 3, 0), (2, 1, 2), (2, 2, 2)] + [
    (k, M, N) for k in (1, 2, 3) for M in (1, 2) for N in (0, 1)])
def test_dominant_blocks_hold_every_highest_weight_vector(k, M, N):
    """The dominant-block solve returns the very vectors of a solve over
    every weight block, on every piece up to degree 4; with N = 2 the y
    column sums of a dominant block increase."""
    model = FockModel(k, M, N, "sq")
    for piece in model.pieces(4):
        assert joint_highest_weight_vectors(model, piece) \
            == all_block_highest_weights(model, piece)


def test_dropping_the_lowering_condition_adds_vectors():
    model = FockModel(2, 1, 1, "sq")
    strict = joint_highest_weight_vectors(model, (1, 1))
    # the kernel of the one gl(2) raiser alone, without the lowerer
    raiser = model.images("k", 0, 1)
    loose = [model.dressed_weights(key)[0]
             for key, members in bf.weight_blocks(model, (1, 1)).items()
             for _ in T.block_kernel(members, [raiser])]
    assert len(strict) == 1 and len(loose) == 2
    assert frac_tuple(0, 0) in loose


# ---------------------------------------------------------------------------
# duality verification reports


def test_compact_multiplicities_are_diagonal():
    model = FockModel(2, 2, 0, "sq")
    mults = compact_multiplicities(model, model.dominant_blocks((3, 0)))
    assert mults == {
        ((3,), (3,)): 1,
        ((3,), (2, 1)): 0,
        ((2, 1), (3,)): 0,
        ((2, 1), (2, 1)): 1,
    }


def test_verify_howe_small_report():
    rep = verify_howe(2, 2, 3)
    assert rep.ok
    js = rep.to_json()
    assert [d["labels"] for d in js["degrees"]] == [
        [[]], [[1]], [[2], [1, 1]], [[3], [2, 1]]]
    assert [d["commutant"] for d in js["degrees"]] == [1, 1, 2, 2]
    for d in js["degrees"]:
        assert d["dim"] == bf.monomial_count(4, d["degree"])
        assert d["commutant_route"] == "matrix"


# sha256 of acceptance criterion 2's reports: verify_howe(k, M, 6) for k
# and M in 1..3 under both conventions, then howe_stability_check(M, 4, 4)
# for M in 1..3, each as sorted-key JSON and a newline.  verify-all shows
# these only as ok flags and stops at degree 4.
CRITERION_2_SHA256 = \
    "811aa995037cdb77cbd3b8b83fb802dc27a2db65e24fd7ce91dc66cbe14d020b"


def test_criterion_2_reports_are_frozen():
    digest = hashlib.sha256()
    reports = [verify_howe(k, M, 6, convention).to_json()
               for k, M, convention in product((1, 2, 3), (1, 2, 3),
                                               ("sq", "hf"))]
    reports += [howe_stability_check(M, 4, 4) for M in (1, 2, 3)]
    for rep in reports:
        digest.update((json.dumps(rep, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == CRITERION_2_SHA256


# sha256 of the lowest-type reports of verify-all's default grid:
# verify_kv(k, M, N, 4) for k <= 3, M <= 2 and N <= min(M, 1) under both
# conventions, each as sorted-key JSON and a newline.  verify-all shows
# these only as ok flags.
LOWEST_TYPE_SHA256 = \
    "4c26111efa12dbf3f35039a2abd3e31cbd671e182b8ffe9b861fec407c8ccd38"


def test_lowest_type_reports_are_frozen():
    digest = hashlib.sha256()
    for k, M in product((1, 2, 3), (1, 2)):
        for N, convention in product(range(1, min(M, 1) + 1), ("sq", "hf")):
            rep = verify_kv(k, M, N, 4, convention).to_json()
            digest.update((json.dumps(rep, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == LOWEST_TYPE_SHA256


def test_verify_howe_builds_each_dominant_block_once(monkeypatch):
    """verify_howe(3, 3, 6) builds each piece's blocks once, for the
    dominant column sums alone, and hands them to every solve of the
    piece: the highest weight vectors, the multiplicities and the
    commutant."""
    calls = Counter()
    blocks = FockModel.blocks

    def spy(model, piece, mw, nw):
        calls[piece, mw, nw] += 1
        return blocks(model, piece, mw, nw)

    monkeypatch.setattr(FockModel, "blocks", spy)
    assert verify_howe(3, 3, 6).ok
    assert set(calls.values()) == {1}
    assert Counter(piece for piece, _, _ in calls) == {
        (n, 0): len(tuple(W.partitions_of(n, max_rows=3))) for n in range(7)}
    assert all(list(mw) == sorted(mw, reverse=True) for _, mw, _ in calls)


def blocked_commutator_rows(model, piece):
    """Dense rows of AX - XA = 0 for the Chevalley generators A of
    gl(k) + gl(M) on one compact piece, with X unknown on every pair of
    one weight block (the Cartan equations solved in advance) and no
    Weyl reduction; returns the rows and the number of unknowns."""
    at = bf.IndexedBasis(model.basis(*piece))
    blocks = [[at.ordinal(lab) for lab in blk]
              for blk in bf.weight_blocks(model, piece).values()]
    block = {o: blk for blk in blocks for o in blk}
    var = {key: i for i, key in enumerate(
        (r, c) for blk in blocks for r in blk for c in blk)}
    rows = []
    for rank, family in ((model.k, "k"), (model.M, "m")):
        for i in range(rank - 1):
            for pair in ((i, i + 1), (i + 1, i)):
                a = bf.dense_matrix(bf.fock_operator(model, family, *pair, piece))
                for t, c in product(range(len(a)), repeat=2):
                    terms = [(var[(j, c)], a[t][j]) for j in block[c]]
                    terms += [(var[(t, j)], -a[j][c]) for j in block[t]]
                    if any(v for _, v in terms):
                        row = [0] * len(var)
                        for x, v in terms:
                            row[x] += v
                        rows.append(row)
    return rows, len(var)


def test_commutant_dim_matches_kernel_count_on_howe_pieces():
    """The Weyl-reduced commutant of every piece of verify_howe(2, 3, 4),
    (3, 2, 4) and (2, 2, 4) is the nullity of the unreduced XA - AX
    system, solved densely; at (2, 2, 2) the weight ((1, 1), (1, 1)) has
    the stabilizer S_2 x S_2."""
    for k, M in ((2, 3), (3, 2), (2, 2)):
        model = FockModel(k, M, 0, "sq")
        rep = verify_howe(k, M, 4)
        assert rep.ok and len(rep.degrees) == 5
        for d in rep.degrees:
            assert d.commutant_route == "matrix"
            assert d.commutant == bf.dense_nullity(
                *blocked_commutator_rows(model, (d.degree, 0)))
    assert ((1, 1), (1, 1), ()) in model.dominant_blocks((2, 0))


def test_commutator_systems_reduce_alike_in_every_order():
    """The unreduced commutator systems of the (2, 3) pieces up to degree
    4 have one rank and one reduced echelon, its rows keyed by pivot,
    whether the rows come in generation order, reversed, sparsest first
    (as ``rank_of_rows`` takes them) or shuffled."""
    model = FockModel(2, 3, 0, "sq")
    for n in range(5):
        dense_rows, nvars = blocked_commutator_rows(model, (n, 0))
        rows = [{x: v for x, v in enumerate(row) if v} for row in dense_rows]
        shuffle = random.Random(n)
        orders = [rows, rows[::-1], sorted(rows, key=len)] + [
            shuffle.sample(rows, len(rows)) for _ in range(3)]
        echelons = [{min(row): row for row in T.ReducedSpan(order).rows}
                    for order in orders]
        assert all(e == echelons[0] for e in echelons[1:])
        rank = nvars - bf.dense_nullity(dense_rows, nvars)
        assert len(echelons[0]) == rank
        assert [T.rank_of_rows(order) for order in orders] == [rank] * 6


@bf.time_bounded
def test_weyl_commutant_dim_at_degree_seven():
    """By Howe duality the commutant of gl(3) + gl(3) on the degree-7
    piece has one dimension per partition of 7 with at most 3 rows."""
    expected = tuple(W.partitions_of(7, max_rows=3))
    model = FockModel(3, 3, 0, "sq")
    assert fock.weyl_commutant_dim(model, model.dominant_blocks((7, 0))) \
        == len(expected) == 8


@bf.time_bounded
def test_commutant_does_not_read_the_multiplicity_counts(monkeypatch):
    """With every multiplicity count off by one, verify_howe(3, 3, 6)
    still finds the commutant 7 at degree 6, and only mult_ok fails."""
    real = fock.compact_multiplicities
    monkeypatch.setattr(fock, "compact_multiplicities",
                        lambda model, blocks: {
                            pair: v + 1
                            for pair, v in real(model, blocks).items()})
    top = verify_howe(3, 3, 6).degrees[6]
    assert top.commutant == 7 and top.commutant_ok
    assert top.commutant_route == "matrix"
    assert not top.mult_ok and not top.ok


def test_weyl_commutator_rows_hold_no_zero_entry(monkeypatch):
    """The rows the Weyl-reduced solve of each (2, 3) piece up to degree
    4 hands to ``rank_of_rows`` carry no cancelled entry, so none is
    empty either."""
    seen = []
    rank = fock.rank_of_rows

    def spy(rows):
        rows = list(rows)
        seen.extend(rows)
        return rank(rows)

    monkeypatch.setattr(fock, "rank_of_rows", spy)
    model = FockModel(2, 3, 0, "sq")
    for n in range(5):
        assert fock.weyl_commutant_dim(model, model.dominant_blocks((n, 0))) \
            == len(tuple(W.partitions_of(n, max_rows=2)))
    assert seen and all(row and all(row.values()) for row in seen)


@pytest.mark.parametrize("k,M", list(product((1, 2, 3), repeat=2)))
def test_weyl_reduced_rows_are_the_distinct_unreduced_rows(monkeypatch, k,
                                                           M):
    """On every piece up to degree 6, the rows the solve hands to
    ``rank_of_rows``, as a set, are the distinct rows of the equations at
    every root and every representative column
    (``bf.unreduced_commutator_rows``): a root that a column's own
    stabilizer conjugates onto a kept one adds no row of its own.  A
    reduction by the block's stabilizer instead leaves rows out at
    (k, M) = (2, 2), (2, 3), (3, 2) and (3, 3) without changing a
    commutant."""
    solved = []
    rank = fock.rank_of_rows

    def spy(rows):
        rows = list(rows)
        solved.append((rows, rank(rows)))
        return solved[-1][1]

    monkeypatch.setattr(fock, "rank_of_rows", spy)
    model = FockModel(k, M, 0, "sq")
    for n in range(7):
        dominant = model.dominant_blocks((n, 0))
        dim = fock.weyl_commutant_dim(model, dominant)
        nvars, rows = bf.unreduced_commutator_rows(model, dominant)
        (reduced, reduced_rank), = solved
        solved.clear()
        assert {frozenset(row.items()) for row in reduced} \
            == {frozenset(row.items()) for row in rows}
        assert dim + reduced_rank == nvars
        assert dim == len(tuple(W.partitions_of(n, max_rows=min(k, M))))


SCALES = [Fraction(3, 7), Fraction(-5, 2), 2, Fraction(-1, 3),
          Fraction(7, 4), -3]


def rescaled(maps):
    """Each map, given by its image terms, times its own nonzero
    rational."""
    def times(terms, x):
        return lambda c: [(t, x * v) for t, v in terms(c)]
    return [times(terms, SCALES[i % len(SCALES)])
            for i, terms in enumerate(maps)]


def test_commutant_dim_ignores_rescaled_generators_on_howe_pieces():
    """X(cA) = (cA)X iff XA = AX: rescaling generators and Cartans by
    different rationals, which the equations clear, keeps every commutant
    of verify_howe(2, 3, 4)."""
    model = FockModel(2, 3, 0, "sq")
    for d in verify_howe(2, 3, 4).degrees:
        piece = (d.degree, 0)
        gens, carts = [], []
        for family, rank in (("k", 2), ("m", 3)):
            gens += [bf.fock_operator(model, family, i + s, i + 1 - s,
                                      piece).terms()
                     for i in range(rank - 1) for s in (0, 1)]
            carts += [bf.fock_operator(model, family, i, i, piece).terms()
                      for i in range(rank)]
        dim = len(model.basis(*piece))
        assert T.commutant_dim(gens, dim, carts) == d.commutant
        assert T.commutant_dim(rescaled(gens), dim, rescaled(carts)) \
            == d.commutant


def test_commutant_dim_ignores_rescaled_generators_on_a_restricted_module():
    """The gl(3) module of the highest weight vector at bidegree (1, 1) of
    the hf oscillator model, restricted to its reduced basis: the
    Cartans carry the constant (M - N)/2 = 1/2, and the commutant stays 1
    under rescaling, with or without the Cartans solved in advance."""
    model = FockModel(3, 2, 1, "hf")
    piece = (1, 1)
    (h,) = joint_highest_weight_vectors(model, piece)
    lowers = [model.images("k", i + 1, i) for i in range(2)]
    span, queue = T.ReducedSpan([h.vector]), [h.vector]
    while queue:
        v = queue.pop()
        for terms in lowers:
            img = T.linear_image(terms, v)
            if img and span.insert(img):
                queue.append(img)
    ops = span.restrict_by_leaders({
        (i, j): model.images("k", i, j)
        for i in range(3) for j in range(3)})
    gens = [ops[(i + s, i + 1 - s)] for i in range(2) for s in (0, 1)]
    carts = [ops[(i, i)] for i in range(3)]
    assert len(span) == 8
    assert any(type(v) is Fraction for terms in carts
               for c in range(len(span)) for _, v in terms(c))
    assert T.commutant_dim(gens, 8, carts) == 1
    assert T.commutant_dim(rescaled(gens), 8, rescaled(carts)) == 1
    assert T.commutant_dim(rescaled(gens + carts), 8) == 1


def test_fock_model_keeps_no_cache():
    """The model holds its shape, its convention and the constants that
    convention fixes, and nothing it has built."""
    assert [f.name for f in dataclasses.fields(FockModel)] \
        == ["k", "M", "N", "convention", "c_k", "c_m", "c_n"]
    assert not hasattr(FockModel, "release")


def test_verify_kv_builds_only_the_smoke_check_piece(monkeypatch):
    """Highest weight vectors are solved on blocks built from their
    column sums, so only the bracket check lists a piece."""
    asked = []
    basis = FockModel.basis

    def spy(model, p, q):
        asked.append((p, q))
        return basis(model, p, q)

    monkeypatch.setattr(FockModel, "basis", spy)
    assert verify_kv(3, 2, 1, 5).ok
    assert asked == [(1, 1)]


@pytest.mark.parametrize("check", [
    lambda: verify_howe(2, 2, -1),
    lambda: verify_kv(2, 1, 1, -1),
    lambda: FockModel(2, 1, 1, "sq").pieces(-1),
    lambda: FockModel(2, 2, 0, "sq").basis(-1, 0),
], ids=["verify_howe", "verify_kv", "pieces", "basis"])
def test_a_negative_degree_is_a_usage_error(check):
    """The model has no top degree, but no piece has a negative one."""
    with pytest.raises(ShapeMismatch, match="negative degree -1"):
        check()


def test_verify_howe_dimension_factors_match_tableaux():
    rep = verify_howe(3, 2, 3).to_json()
    for degree in rep["degrees"]:
        for term in degree["cauchy"]["terms"]:
            shape = tuple(term["label"])
            assert term["dim_k"] == bf.count_ssyt(shape, 3)
            assert term["dim_M"] == bf.count_ssyt(shape, 2)


def test_labels_do_not_depend_on_the_rank_once_it_is_large():
    out = howe_stability_check(2, 3, 4)
    assert out["stable"]
    assert all(d["stable"] for d in out["details"])


@pytest.mark.parametrize("fault", [{}, {"labels": ((1,),)},
                                   {"commutant_ok": False}],
                         ids=["none", "labels", "verdict"])
def test_stability_ok_needs_stable_labels_and_every_rank(monkeypatch, fault):
    """The stability check is ok only when the label sets agree across the
    ranks and every rank's ``verify_howe`` is ok: a rank-2 report whose
    degree-0 labels move, or whose commutant check fails, makes it fail
    while the other half holds."""
    verify = fock.verify_howe

    def faulty(k, M, degree):
        rep = verify(k, M, degree)
        if k != 2:
            return rep
        first, *rest = rep.degrees
        return dataclasses.replace(
            rep, degrees=(dataclasses.replace(first, **fault), *rest))

    monkeypatch.setattr(fock, "verify_howe", faulty)
    out = howe_stability_check(2, 3, 3)
    assert out["stable"] == ("labels" not in fault)
    assert all(r["ok"] for r in out["reports"].values()) \
        == ("commutant_ok" not in fault)
    assert out["ok"] == (not fault)


def test_verify_kv_sq_small():
    rep = verify_kv(2, 1, 1, 3)
    assert rep.ok
    js = rep.to_json()
    by_bidegree = {tuple(d["bidegree"]): d for d in js["bidegrees"]}
    assert set(by_bidegree) == {(p, q) for p in range(4) for q in range(4)
                               if p + q <= 3}
    for d in js["bidegrees"]:
        assert d["unexplained"] == 0
        assert len(d["matches"]) == d["expected_count"]
        assert all(m["ok"] for m in d["matches"])
    vac = by_bidegree[(0, 0)]["matches"][0]
    assert vac["mn_weight_doubled"] == [4, 0]
    one = by_bidegree[(1, 1)]["matches"][0]
    assert one["mn_weight_doubled"] == [6, -2]
    assert one["uk_weight_doubled"] == [2, -2]


def test_verify_kv_hf_small():
    rep = verify_kv(2, 1, 1, 2, convention="hf")
    assert rep.ok
    js = rep.to_json()
    vac = [d for d in js["bidegrees"] if d["bidegree"] == [0, 0]][0]
    assert vac["matches"][0]["mn_weight_doubled"] == [2, -2]


def test_verify_kv_respects_the_rank_bound():
    # with rank 1 the two-row labels disappear and nothing is left over
    rep = verify_kv(1, 1, 1, 2)
    assert rep.ok
    js = rep.to_json()
    by_bidegree = {tuple(d["bidegree"]): d for d in js["bidegrees"]}
    assert by_bidegree[(1, 1)]["expected_count"] == 0
    assert by_bidegree[(1, 1)]["unexplained"] == 0


def test_expected_kv_labels_enumeration():
    assert expected_kv_labels(2, 1, 1, 2, 1) == [((2,), (1,))]
    assert expected_kv_labels(1, 1, 1, 1, 1) == []
    got = set(expected_kv_labels(3, 2, 1, 2, 1))
    want = set()
    for m in W.partitions_of(2, max_rows=2):
        for n in W.partitions_of(1, max_rows=1):
            if len(m) + len(n) <= 3:
                want.add((m + (0,) * (2 - len(m)), n))
    assert got == want


def test_strict_signed_pairs_are_strictly_decreasing():
    pairs = list(strict_signed_pairs(2, 1, 4))
    assert pairs
    assert len(pairs) == len(set(pairs))
    for m, n in pairs:
        assert all(v > 0 for v in m + n)
        assert all(a > b for a, b in zip(m, m[1:]))
        assert len(m) == 2 and len(n) == 1
        assert sum(m) <= 4 and sum(n) <= 4

    def strict(length, cap):
        # every tuple of entries in cap..1, kept when strictly decreasing
        # and within the cap: descending lex order
        return [t for t in product(range(cap, 0, -1), repeat=length)
                if sum(t) <= cap and all(a > b for a, b in zip(t, t[1:]))]

    for M, N, cap in product(range(5), range(4), range(12)):
        assert list(strict_signed_pairs(M, N, cap)) \
            == list(product(strict(M, cap), strict(N, cap)))
