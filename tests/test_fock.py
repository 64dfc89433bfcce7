"""Graded polynomial models and the pairing/label checks built on them."""

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


# ---------------------------------------------------------------------------
# model construction, grading, and the generator matrices themselves


def test_compact_pieces_and_dimensions():
    model = FockModel(2, 2, 0, 3, "sq")
    assert model.pieces() == [(0, 0), (1, 0), (2, 0), (3, 0)]
    for n in range(4):
        assert len(model.basis(n, 0)) == bf.monomial_count(4, n)


def test_oscillator_pieces_cover_the_bidegree_window():
    model = FockModel(2, 1, 1, 2, "sq")
    assert model.pieces() == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    for p, q in model.pieces():
        assert len(model.basis(p, q)) == (
            bf.monomial_count(2, p) * bf.monomial_count(2, q))


def test_bad_parameters_rejected():
    with pytest.raises(ShapeMismatch):
        FockModel(0, 2, 0, 2, "sq")
    with pytest.raises(ShapeMismatch):
        FockModel(2, 2, 0, 2, "bogus")
    with pytest.raises(ShapeMismatch, match="N >= 1"):
        verify_kv(2, 1, 0, 2)


def test_piece_cap_enforced():
    # 9 variables in degree 9: C(17, 9) = 24310 monomials
    model = FockModel(3, 3, 0, 9, "sq")
    with pytest.raises(TooLarge):
        model.basis(9, 0)
    # 4 + 4 variables in bidegree (15, 15): 816 monomials on each side
    model = FockModel(2, 2, 2, 30, "sq")
    with pytest.raises(TooLarge):
        model.basis(15, 15)


def test_failed_bracket_smoke_check_raises(monkeypatch):
    monkeypatch.setattr(FockModel, "bracket_failures",
                        lambda self, piece: ["gl(k)[01,10]"])
    with pytest.raises(InvariantBroken, match="bracket smoke check"):
        verify_howe(2, 2, 2)
    with pytest.raises(InvariantBroken, match="bracket smoke check"):
        verify_howe(2, 2, 2, model=FockModel(2, 2, 0, 2, "sq"))
    with pytest.raises(InvariantBroken, match="bracket smoke check"):
        verify_kv(2, 1, 1, 2)


def test_weight_key_reads_rows_and_columns():
    model = FockModel(2, 2, 0, 3, "sq")
    # x[0,0]^2: row weight (2, 0), column weight (2, 0), no y block
    assert model.weight_key((2, 0, 0, 0)) == ((2, 0), (2, 0), ())
    osc = FockModel(2, 1, 1, 2, "sq")
    # x[0,0]*y[1,0]: the y block counts against the row weight
    assert osc.weight_key((1, 0, 0, 1)) == ((1, -1), (1,), (1,))


def test_first_order_action_is_polarization():
    model = FockModel(1, 2, 0, 2, "sq")
    b = model.basis(2, 0)
    # E[0,1] x[0,0]x[0,1] = x[0,0]^2  (one derivative, one multiplication)
    src = b.ordinal((1, 1, 0, 0)[: len(b.labels[0])])
    out = model.gl_m_op(0, 1, (2, 0)).apply({src: Fraction(1)})
    assert out == {b.ordinal((2, 0)): Fraction(1)}


def test_gl_k_twists_by_the_dual_on_the_y_block():
    osc = FockModel(2, 1, 1, 2, "sq")
    b = osc.basis(0, 1)
    assert b.labels == ((0, 0, 1, 0), (0, 0, 0, 1))
    op = osc.gl_k_op(0, 1, (0, 1))
    assert op.apply({0: Fraction(1)}) == {1: Fraction(-1)}
    assert op.apply({1: Fraction(1)}) == {}


def test_raiser_is_multiplication_by_the_pairing():
    osc = FockModel(2, 1, 1, 2, "sq")
    out = osc.raiser_op(0, 0, (0, 0)).apply({0: Fraction(1)})
    b = osc.basis(1, 1)
    assert out == {
        b.ordinal((1, 0, 1, 0)): Fraction(1),
        b.ordinal((0, 1, 0, 1)): Fraction(1),
    }


def test_lowerer_is_the_paired_second_derivative():
    osc = FockModel(2, 1, 1, 2, "sq")
    low = osc.lowerer_op(0, 0, (1, 1))
    b = osc.basis(1, 1)
    assert low.apply({b.ordinal((1, 0, 1, 0)): Fraction(1)}) == {0: Fraction(1)}
    assert low.apply({b.ordinal((1, 0, 0, 1)): Fraction(1)}) == {}


def matrix_bracket_failures(model, piece):
    """Ordered generator pairs that break the gl(k), gl(M), gl(N)
    relations or the commutation across them on one piece, checked on the
    generator matrices with ExactOperator products."""
    fams = {name: {(a, b): op(a, b, piece)
                   for a, b in product(range(rank), repeat=2)}
            for name, op, rank in (("k", model.gl_k_op, model.k),
                                   ("m", model.gl_m_op, model.M),
                                   ("n", model.gl_n_op, model.N))}
    bad = []
    for f, g in product(fams, repeat=2):
        for ((i, j), a), ((l, m), b) in product(fams[f].items(),
                                                fams[g].items()):
            rhs = a.scaled(0)
            if f == g and j == l:
                rhs += fams[f][(i, m)]
            if f == g and m == i:
                rhs -= fams[f][(l, j)]
            if a * b - b * a != rhs:
                bad.append((f, i, j, g, l, m))
    return bad


@pytest.mark.parametrize("convention", ["sq", "hf"])
def test_bracket_relations_hold_on_every_piece(convention):
    for k, M, N in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 0)]:
        model = FockModel(k, M, N, 2, convention)
        for piece in model.pieces():
            assert matrix_bracket_failures(model, piece) == []
            assert model.bracket_failures(piece) == []


@pytest.mark.parametrize("family,a,b", [("k", 0, 1), ("m", 1, 0), ("n", 0, 0)])
def test_bracket_check_agrees_with_the_matrix_oracle(family, a, b):
    """A generator with doubled images still commutes with the other
    families and breaks relations within its own; the image-term check
    fails on each unordered pair whose matrices fail both ways round."""
    model = FockModel(2, 2, 2, 2, "hf")
    real = model.images

    def images(fam, x, y, piece):
        image = real(fam, x, y, piece)
        if (fam, x, y) != (family, a, b):
            return image
        return lambda o: [(t, 2 * v) for t, v in image(o)]

    model.images = images
    seen = []
    for piece in model.pieces():
        bad = model.bracket_failures(piece)
        assert 2 * len(bad) == len(matrix_bracket_failures(model, piece))
        seen += bad
    assert seen
    assert all(label.startswith(f"gl({family})") for label in seen)


def test_bracket_check_reports_a_cross_family_fault():
    """A gl(k) generator posing as the one generator of the "m" family
    keeps every relation within its family and fails only to commute
    with gl(k)."""
    model = FockModel(2, 2, 0, 2, "sq")
    piece = (2, 0)
    cols = range(len(model.basis(*piece)))
    gl_k = {(i, j): model.images("k", i, j, piece)
            for i, j in product(range(2), repeat=2)}
    assert T.gl_relation_failures(
        {"k": gl_k, "m": {(0, 0): model.images("m", 0, 0, piece)}},
        cols) == []
    assert T.gl_relation_failures(
        {"k": gl_k, "m": {(0, 0): model.images("k", 0, 1, piece)}},
        cols) == ["k00 vs m00", "k10 vs m00", "k11 vs m00"]


@pytest.mark.parametrize("convention", ["sq", "hf"])
@pytest.mark.parametrize("k,M,N", [(2, 1, 1), (1, 2, 1)])
def test_lowerer_raiser_commutator(convention, k, M, N):
    """[L(a,b), R(c,d)] closes onto the middle algebras with no scalar
    left over, in either convention."""
    model = FockModel(k, M, N, 4, convention)
    for a in range(M):
        for b in range(N):
            for c in range(M):
                for d in range(N):
                    lhs = (model.lowerer_op(a, b, (2, 2))
                           * model.raiser_op(c, d, (1, 1))
                           - model.raiser_op(c, d, (0, 0))
                           * model.lowerer_op(a, b, (1, 1)))
                    rhs = lhs.scaled(0)
                    if b == d:
                        rhs += model.gl_m_op(c, a, (1, 1))
                    if a == c:
                        rhs -= model.gl_n_op(b, d, (1, 1))
                    assert lhs == rhs


@pytest.mark.parametrize("convention", ["sq", "hf"])
def test_lower_after_raise_on_constants_counts_rank(convention):
    model = FockModel(2, 1, 1, 2, convention)
    lr = model.lowerer_op(0, 0, (1, 1)) * model.raiser_op(0, 0, (0, 0))
    assert lr.apply({0: Fraction(1)}) == {0: Fraction(2)}


@pytest.mark.parametrize("convention", ["sq", "hf"])
@pytest.mark.parametrize("model", [
    lambda c: FockModel(3, 2, 0, 3, c),
    lambda c: FockModel(1, 2, 1, 3, c),
], ids=["compact", "oscillator"])
def test_operators_hold_ints_where_integral(model, convention):
    """Only int and Fraction values; every sq operator, raiser, lowerer
    and off-diagonal generator is int-valued, and a Fraction only comes
    from a non-integral hf constant: k/2 = 3/2 in this compact model,
    (M - N)/2 = k/2 = 1/2 in this oscillator model."""
    model = model(convention)
    fractions = 0
    for piece in model.pieces():
        gl = [([(ij, op(*ij, piece))
                for ij in product(range(rank), repeat=2)], True)
              for op, rank in ((model.gl_k_op, model.k),
                               (model.gl_m_op, model.M),
                               (model.gl_n_op, model.N))]
        pairs = [(a, b) for a in range(model.M) for b in range(model.N)]
        shifting = [(ab, model.raiser_op(*ab, piece)) for ab in pairs]
        if piece[0] and piece[1]:
            shifting += [(ab, model.lowerer_op(*ab, piece)) for ab in pairs]
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
    model = FockModel(2, 2, 0, 3, "sq")
    hw = joint_highest_weight_vectors(model, (2, 0))
    got = sorted((h.k_weight, h.m_weight) for h in hw)
    assert got == [
        (frac_tuple(1, 1), frac_tuple(1, 1)),
        (frac_tuple(2, 0), frac_tuple(2, 0)),
    ]
    hw3 = joint_highest_weight_vectors(model, (3, 0))
    assert sorted(h.k_weight for h in hw3) == [frac_tuple(2, 1), frac_tuple(3, 0)]


def test_highest_weight_count_matches_raiser_nullity():
    """Independent count: stack all raising matrices densely and take the
    nullity with the naive eliminator."""
    model = FockModel(2, 2, 0, 2, "sq")
    b = model.basis(2, 0)
    ops = [model.gl_k_op(0, 1, (2, 0)), model.gl_m_op(0, 1, (2, 0))]
    rows = []
    for col in range(len(b)):
        image = {}
        for t, op in enumerate(ops):
            for r, v in op.apply({col: Fraction(1)}).items():
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
    model = FockModel(k, M, 0, n, "sq")
    hw = joint_highest_weight_vectors(model, (n, 0))
    assert len(hw) == len(list(W.partitions_of(n, max_rows=min(k, M))))
    for h in hw:
        # multiplicity-free pairing: the label on each side is the same
        label = tuple(int(x) for x in h.k_weight if x)
        assert tuple(int(x) for x in h.m_weight if x) == label


def test_oscillator_highest_weights_sq():
    model = FockModel(2, 1, 1, 2, "sq")
    seen = {}
    for piece in model.pieces():
        for h in joint_highest_weight_vectors(model, piece):
            seen[piece] = (h.k_weight, h.m_weight, h.n_weight)
    assert seen[(0, 0)] == (frac_tuple(0, 0), frac_tuple(2), frac_tuple(0))
    assert seen[(1, 1)] == (frac_tuple(1, -1), frac_tuple(3), frac_tuple(-1))
    assert seen[(0, 2)] == (frac_tuple(0, -2), frac_tuple(2), frac_tuple(-2))
    assert len(seen) == len(model.pieces())


def test_oscillator_highest_weights_hf():
    model = FockModel(2, 1, 1, 2, "hf")
    (h,) = joint_highest_weight_vectors(model, (0, 0))
    assert (h.k_weight, h.m_weight, h.n_weight) == (
        frac_tuple(0, 0), frac_tuple(1), frac_tuple(-1))
    (h,) = joint_highest_weight_vectors(model, (1, 1))
    assert (h.k_weight, h.m_weight, h.n_weight) == (
        frac_tuple(1, -1), frac_tuple(2), frac_tuple(-2))


def all_block_highest_weights(model, piece):
    """The joint kernel of the raising matrices solved on every weight
    block, dominant or not, by dense Fraction row reduction: one kernel
    vector per free column of the block, 1 there and minus the reduced
    row entries at the pivots, keyed by basis ordinal."""
    ops = [op(a, b, piece) for op, rank in ((model.gl_k_op, model.k),
                                           (model.gl_m_op, model.M),
                                           (model.gl_n_op, model.N))
           for a in range(rank) for b in range(a + 1, rank)]
    if model.N and piece[0] and piece[1]:
        ops += [model.lowerer_op(a, b, piece)
                for a in range(model.M) for b in range(model.N)]
    dense = [bf.dense_matrix(op) for op in ops]
    out = []
    for key, members in sorted(model.weight_blocks(piece).items()):
        rows = [[mat[r][c] for c in members] for mat in dense
                for r in range(len(mat))]
        rref = bf.dense_rref(rows, len(members))
        pivots = [row.index(next(x for x in row if x)) for row in rref]
        kw, mw, nw = model.dressed_weights(key)
        for free in range(len(members)):
            if free in pivots:
                continue
            vec = {members[free]: 1}
            vec.update({members[p]: -row[free]
                        for p, row in zip(pivots, rref) if row[free]})
            out.append(fock.HighestWeightVector(piece, kw, mw, nw, vec))
    return out


@pytest.mark.parametrize("k,M,N", [(2, 3, 0), (2, 1, 2), (2, 2, 2)] + [
    (k, M, N) for k in (1, 2, 3) for M in (1, 2) for N in (0, 1)])
def test_dominant_blocks_hold_every_highest_weight_vector(k, M, N):
    """The dominant-block solve returns the very vectors of a solve over
    every weight block, on every piece up to degree 4; with N = 2 the y
    column sums of a dominant block increase."""
    model = FockModel(k, M, N, 4, "sq")
    for piece in model.pieces():
        assert joint_highest_weight_vectors(model, piece) \
            == all_block_highest_weights(model, piece)


def test_dropping_the_lowering_condition_adds_vectors():
    model = FockModel(2, 1, 1, 2, "sq")
    strict = joint_highest_weight_vectors(model, (1, 1))
    # the kernel of the one gl(2) raiser alone, without the lowerer
    raiser = model.gl_k_op(0, 1, (1, 1)).terms()
    loose = [model.dressed_weights(key)[0]
             for key, members in model.weight_blocks((1, 1)).items()
             for _ in T.block_kernel(members, [raiser])]
    assert len(strict) == 1 and len(loose) == 2
    assert frac_tuple(0, 0) in loose


# ---------------------------------------------------------------------------
# duality verification reports


def test_compact_multiplicities_are_diagonal():
    model = FockModel(2, 2, 0, 3, "sq")
    mults = compact_multiplicities(model, 3)
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


def blocked_commutator_rows(model, piece):
    """Dense rows of AX - XA = 0 for the Chevalley generators A of
    gl(k) + gl(M) on one compact piece, with X unknown on every pair of
    one weight block (the Cartan equations solved in advance) and no
    Weyl reduction; returns the rows and the number of unknowns."""
    blocks = list(model.weight_blocks(piece).values())
    block = {o: blk for blk in blocks for o in blk}
    var = {key: i for i, key in enumerate(
        (r, c) for blk in blocks for r in blk for c in blk)}
    rows = []
    for rank, op in ((model.k, model.gl_k_op), (model.M, model.gl_m_op)):
        for i in range(rank - 1):
            for a in (bf.dense_matrix(op(i, i + 1, piece)),
                      bf.dense_matrix(op(i + 1, i, piece))):
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
        model = FockModel(k, M, 0, 4, "sq")
        rep = verify_howe(k, M, 4, model=model)
        assert rep.ok and len(rep.degrees) == 5
        for d in rep.degrees:
            assert d.commutant_route == "matrix"
            assert d.commutant == bf.dense_nullity(
                *blocked_commutator_rows(model, (d.degree, 0)))
    assert ((1, 1), (1, 1), ()) in model.weight_blocks((2, 0))


@bf.time_bounded
def test_commutant_does_not_read_the_multiplicity_counts(monkeypatch):
    """With every multiplicity count off by one, verify_howe(3, 3, 6)
    still finds the commutant 7 at degree 6, and only mult_ok fails."""
    real = fock.compact_multiplicities
    monkeypatch.setattr(fock, "compact_multiplicities", lambda model, n: {
        pair: v + 1 for pair, v in real(model, n).items()})
    top = verify_howe(3, 3, 6).degrees[6]
    assert top.commutant == 7 and top.commutant_ok
    assert top.commutant_route == "matrix"
    assert not top.mult_ok and not top.ok


SCALES = [Fraction(3, 7), Fraction(-5, 2), 2, Fraction(-1, 3),
          Fraction(7, 4), -3]


def rescaled(ops):
    """Each operator times its own nonzero rational."""
    return [op.scaled(SCALES[i % len(SCALES)]) for i, op in enumerate(ops)]


def test_commutant_dim_ignores_rescaled_generators_on_howe_pieces():
    """X(cA) = (cA)X iff XA = AX: rescaling generators and Cartans by
    different rationals, which the equations clear, keeps every commutant
    of verify_howe(2, 3, 4)."""
    model = FockModel(2, 3, 0, 4, "sq")
    for d in verify_howe(2, 3, 4, model=model).degrees:
        piece = (d.degree, 0)
        gens, carts = [], []
        for rank, op in ((2, model.gl_k_op), (3, model.gl_m_op)):
            gens += [op(i + s, i + 1 - s, piece)
                     for i in range(rank - 1) for s in (0, 1)]
            carts += [op(i, i, piece) for i in range(rank)]
        assert T.commutant_dim(gens, cartans=carts) == d.commutant
        assert T.commutant_dim(rescaled(gens), cartans=rescaled(carts)) \
            == d.commutant


def test_commutant_dim_ignores_rescaled_generators_on_a_restricted_module():
    """The gl(3) module of the highest weight vector at bidegree (1, 1) of
    the hf oscillator model, restricted to its reduced basis: the
    Cartans carry the constant (M - N)/2 = 1/2, and the commutant stays 1
    under rescaling, with or without the Cartans solved in advance."""
    model = FockModel(3, 2, 1, 2, "hf")
    piece = (1, 1)
    (h,) = joint_highest_weight_vectors(model, piece)
    lowers = [model.gl_k_op(i + 1, i, piece).terms() for i in range(2)]
    span, queue = T.ReducedSpan([h.vector]), [h.vector]
    while queue:
        v = queue.pop()
        for terms in lowers:
            img = T.linear_image(terms, v)
            if img and span.insert(img):
                queue.append(img)
    ops = span.restrict_by_leaders({
        (i, j): model.gl_k_op(i, j, piece).terms()
        for i in range(3) for j in range(3)})
    gens = [ops[(i + s, i + 1 - s)] for i in range(2) for s in (0, 1)]
    carts = [ops[(i, i)] for i in range(3)]
    assert len(span) == 8
    assert any(type(v) is Fraction for op in carts for v in op.data.values())
    assert T.commutant_dim(gens, cartans=carts) == 1
    assert T.commutant_dim(rescaled(gens), cartans=rescaled(carts)) == 1
    assert T.commutant_dim(rescaled(gens + carts)) == 1


def test_verify_howe_releases_each_checked_piece():
    model = FockModel(2, 2, 0, 3, "sq")
    kept = model.weight_blocks((1, 0))
    blocks = model.weight_blocks((2, 0))
    assert model.weight_blocks((2, 0)) is blocks  # built once per piece
    model.release((2, 0))
    assert list(model._blocks) == [(1, 0)]
    assert model.weight_blocks((1, 0)) is kept  # the other piece stays
    assert verify_howe(2, 2, 3, model=model).ok
    assert model._blocks == {}


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
