"""Induced modules from finite-rank data: compact case and the graded
indefinite case, where emptiness is a value rather than an error."""

import hashlib
import json
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce as bf
from howe_forge import weights as W
from howe_forge import rieffel
from howe_forge import tensor as T
from howe_forge.errors import InvariantBroken, ShapeMismatch, TooLarge
from howe_forge.fock import FockModel
from howe_forge.rieffel import (
    build_inducing_irrep,
    degree_selection_check,
    emptiness_survey,
    induce_compact,
    induce_noncompact_graded,
)


def small_partitions(max_total, max_rows):
    opts = [()]
    for tot in range(1, max_total + 1):
        opts.extend(W.partitions_of(tot, max_rows=max_rows))
    return st.sampled_from(opts)


# ---------------------------------------------------------------------------
# the inducing irrep itself


@pytest.mark.parametrize("m,M", [
    ((), 2), ((1,), 2), ((2,), 2), ((1, 1), 2), ((2, 1), 2),
    ((2, 1), 3), ((3, 1), 3), ((1, 1, 1), 3),
    ((9,), 1), ((5, 5), 2), ((3, 3, 2), 3),
])
@bf.time_bounded
def test_irrep_dimension_matches_tableau_count(m, M):
    ir = build_inducing_irrep(m, M)
    assert ir.dim == bf.count_ssyt(m, M)


def test_irrep_weights_and_gram():
    ir = build_inducing_irrep((2, 1), 2)
    assert ir.dim == 2
    assert sorted(ir.basis_weights) == [(1, 2), (2, 1)]
    assert ir.basis_weights[0] == (2, 1)
    # words are orthonormal, so the irrep's form is the plain dot product
    g = bf.dense_rows(T.gram_matrix(ir.basis, lambda o: 1))
    assert g == [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]]


def test_irrep_needs_signed_column_antisymmetrizers(monkeypatch):
    """With every column sign set to 1 the top word is symmetrized over its
    columns, which is no highest weight vector: its lowered span is larger
    than the irrep, and the dimension check refuses it."""
    monkeypatch.setattr(rieffel.W, "perm_sign", lambda q: 1)
    rieffel._inducing_irrep.cache_clear()
    try:
        for m, M in [((1, 1), 2), ((2, 1), 3), ((2, 2), 2)]:
            with pytest.raises(ShapeMismatch, match="lowered span has dim"):
                build_inducing_irrep(m, M)
    finally:
        rieffel._inducing_irrep.cache_clear()


def test_trivial_irrep():
    ir = build_inducing_irrep((), 2)
    assert ir.dim == 1
    assert ir.basis_weights == [(0, 0)]
    assert bf.dense_rows(T.gram_matrix(ir.basis, lambda o: 1)) == [
        [Fraction(1)]]


def test_irrep_action_satisfies_the_bracket():
    ir = build_inducing_irrep((2, 1), 2)

    def matmul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(ir.dim))
                 for j in range(ir.dim)] for i in range(ir.dim)]

    def matsub(a, b):
        return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    e00, e01, e10, e11 = (
        bf.dense_matrix(bf.module_operator(ir.action[key], ir.dim))
        for key in [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert matsub(matmul(e01, e10), matmul(e10, e01)) == matsub(e00, e11)


def test_irrep_diagonal_trace_counts_boxes():
    for m, M in [((2, 1), 2), ((2,), 3), ((1, 1), 3)]:
        ir = build_inducing_irrep(m, M)
        diagonals = [bf.module_operator(ir.action[(a, a)], ir.dim)
                     for a in range(M)]
        total = sum(bf.dense_matrix(op)[i][i]
                    for op in diagonals for i in range(ir.dim))
        assert total == sum(m) * ir.dim


# ---------------------------------------------------------------------------
# the irrep's readers of word labels against whole operators


@pytest.mark.parametrize("k", [1, 2, 3])
def test_word_readers_match_the_whole_operators(k):
    """The highest vector of each shape of at most 4 boxes and at most k
    rows, times the order |R| of its row group, is column w0 of the Young
    symmetrizer built from slot permutations, w0 the word with letter r in
    every slot of row r; and every gl(k) image read off a word equals that
    column of the operator built from slot derivations."""
    for n in range(5):
        wb = bf.IndexedBasis.tensor_power(k, n)
        for lam in W.partitions_of(n, max_rows=k):
            sym = bf.labelled_terms(bf.young_symmetrizer(lam, k, basis=wb))
            w0 = tuple(r for r, part in enumerate(lam) for _ in range(part))
            rows = math.prod(map(math.factorial, lam))
            assert {w: rows * v for w, v in
                    rieffel._highest_vector(lam).items()} == dict(sym(w0)), lam
        for a, b in product(range(k), repeat=2):
            op = bf.labelled_terms(bf.gl_tensor_action(a, b, k, n, basis=wb))
            image = rieffel._word_images(a, b)
            for word in wb:
                assert T.linear_image(image, {word: 1}) == dict(op(word))


@pytest.mark.parametrize("M", [1, 2, 3])
def test_inducing_irrep_matches_the_whole_operator_build(M):
    """The irrep lowered from its highest vector is the span of the irrep
    built from the whole symmetrizer and gl(M) operators, for every shape
    of at most 4 boxes and at most M rows.  The two take their rows in
    different orders, so rows, weights and restricted actions are compared
    by pivot word, each row's lowest word; the highest vector is row 0."""
    for n in range(5):
        for lam in W.partitions_of(n, max_rows=M):
            ir = build_inducing_irrep(lam, M)
            basis, weights, highest, action = bf.inducing_irrep(lam, M)
            ours = [min(row) for row in ir.basis]
            theirs = [min(row) for row in basis]
            assert dict(zip(ours, ir.basis)) == dict(zip(theirs, basis))
            assert dict(zip(ours, ir.basis_weights)) == dict(
                zip(theirs, weights))
            position = [ours.index(p) for p in theirs]
            assert ir.action.keys() == action.keys()
            for key, terms in action.items():
                assert bf.module_operator(ir.action[key], ir.dim).data == {
                    (position[r], position[c]): v for (r, c), v in
                    bf.module_operator(terms, len(basis)).data.items()}
            assert weights[highest] == ir.basis_weights[0]


# ---------------------------------------------------------------------------
# compact induction


def test_compact_module_frozen_example():
    mod = induce_compact(3, 2, (2, 1))
    assert mod.dimension == 8
    assert mod.highest_weight == (2, 1, 0)
    assert mod.commutant == 1
    assert mod.gram_positive and mod.bracket_ok and not mod.empty


def test_compact_module_rank_one_inducing_data():
    mod = induce_compact(3, 1, (1,))
    assert mod.dimension == 3
    assert mod.highest_weight == (1, 0, 0)


def test_compact_module_empty_when_rank_is_too_small():
    mod = induce_compact(2, 3, (1, 1, 1))
    assert mod.empty
    assert mod.dimension == 0
    assert mod.highest_weight is None
    assert mod.commutant is None


def test_compact_module_json_round():
    js = induce_compact(2, 2, (2, 1)).to_json()
    assert js["dimension"] == 2
    assert js["highest_weight"] == ["2", "1"]
    assert js["commutant_dim"] == 1
    assert js["empty"] is False and js["reason"] is None
    assert js["inputs"] == {"M": 2, "k": 2, "m": [2, 1]}


@given(st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=2),
       st.data())
@settings(max_examples=15, deadline=None)
def test_compact_dimension_is_the_stable_branching_count(k, M, data):
    m = data.draw(small_partitions(3, M))
    mod = induce_compact(k, M, m)
    assert mod.dimension == W.weyl_dim(m, k)
    if mod.dimension:
        assert mod.highest_weight == m + (0,) * (k - len(m))
        assert mod.commutant == 1
        assert mod.gram_positive and mod.bracket_ok


@pytest.mark.parametrize("k,M,m,n_wrong", [
    (3, 2, (2, 1), 2), (3, 2, (2, 1), 4), (2, 2, (2,), 1), (2, 1, (), 1),
])
def test_degree_selection_only_hits_the_matching_degree(k, M, m, n_wrong):
    out = degree_selection_check(k, M, m, n_wrong)
    assert out["ok"] and out["dimension"] == 0


def test_degree_selection_refuses_a_negative_degree():
    with pytest.raises(ShapeMismatch, match="negative degree -1"):
        degree_selection_check(2, 2, (1,), -1)


@pytest.mark.parametrize("k,M,m,n", [
    (3, 2, (2, 1), 3), (3, 2, (2, 1), 2), (2, 2, (1, 1), 2), (3, 3, (2, 1), 3),
    (2, 1, (3,), 3),
])
def test_zero_weight_blocks_are_those_of_the_full_grouping(k, M, m, n):
    """The package keeps, keyed by row weight alone, the zero-difference
    blocks of the full grouping.  Member order is not compared: the
    package groups by irrep weight first, and the span of each block's
    kernel does not depend on the order of its unknowns."""
    model = FockModel(k, M, 0, "sq")
    irrep = build_inducing_irrep(m, M)
    full = bf.weight_difference_blocks(model, (n, 0), irrep)
    want = {key[0]: sorted(members) for key, members in full.items()
            if key[1] == (0,) * M}
    got = rieffel._compact_blocks(model, (n, 0), irrep)
    assert {row: sorted(members) for row, members in got.items()} == want
    assert bool(want) == (n == sum(m))


@pytest.mark.parametrize("k,M,m", [
    (3, 2, (2, 1)), (2, 2, (1, 1)), (3, 3, (2, 1)), (2, 1, (3,)),
    (2, 2, (2,)), (3, 1, (2,)), (2, 3, (1, 1, 1)), (1, 2, ()),
])
@bf.time_bounded
def test_compact_invariants_span_the_casimir_kernel(k, M, m):
    """The invariants the package solves for on the zero-difference
    blocks, with the off-diagonal generators only, span the kernel of the
    full diagonal Casimir over every block."""
    mod = induce_compact(k, M, m)
    n = sum(m)
    model = FockModel(k, M, 0, "sq")
    kernel = bf.casimir_kernel(model, (n, 0), build_inducing_irrep(m, M))
    assert len(kernel) == mod.dimension
    assert bf.spans_agree(mod.basis, kernel)


def test_compact_gram_is_the_two_factor_form(monkeypatch):
    """The package's Gram matrix of each nonempty compact module on the
    grid of acceptance criterion 3, captured on its way to the positivity
    check, equals the Fock norm tensored with the irrep's form, summed
    factor by factor."""
    grams = []

    def record(gram, check=rieffel.positive_definite):
        grams.append(bf.dense_rows(gram))
        return check(gram)

    monkeypatch.setattr(rieffel, "positive_definite", record)
    cells = 0
    for k, M, tot in product(range(1, 5), range(1, 4), range(5)):
        for m in W.partitions_of(tot, max_rows=M):
            grams.clear()
            mod = induce_compact(k, M, m)
            if mod.empty:
                assert grams == []
                continue
            irrep = build_inducing_irrep(m, M)
            assert grams == [bf.two_factor_gram(mod.basis, irrep.basis)]
            assert mod.gram_positive
            cells += 1
    assert cells == 88  # every nonempty cell of acceptance criterion 3


# ---------------------------------------------------------------------------
# graded indefinite induction


def test_noncompact_frozen_example():
    mod = induce_noncompact_graded(3, 1, 1, (4, -1))
    assert mod.dimension == 8
    assert mod.highest_weight == (1, 0, -1)
    assert mod.commutant == 1
    assert mod.gram_positive and mod.bracket_ok


def test_noncompact_dimension_matches_signed_label():
    mod = induce_noncompact_graded(2, 1, 1, (4, -2))
    hw = W.SignedWeight((2,), (2,)).realize(2)
    assert mod.highest_weight == hw
    assert mod.dimension == W.signed_weight_dim(hw, 2) == 5


def test_noncompact_json_fields():
    js = induce_noncompact_graded(2, 1, 1, (3, -1)).to_json()
    assert js["dimension"] == 3
    assert js["highest_weight"] == ["1", "-1"]
    assert js["inputs"] == {"M": 1, "N": 1, "k": 2, "weight": "(3, -1)"}
    assert js["gram_positive"] and js["bracket_ok"]


def test_noncompact_weight_length_checked():
    with pytest.raises(ShapeMismatch):
        induce_noncompact_graded(3, 1, 1, (2, -1, 0))


def test_noncompact_refuses_a_rank_below_one():
    """A rank of 0 is a usage error before any weight is read, not an
    emptiness certificate; the command line checks k itself."""
    with pytest.raises(ShapeMismatch, match="k >= 1, got 0"):
        induce_noncompact_graded(0, 1, 1, (1, 0))


def test_noncompact_window_overflow():
    """The label m = n = (200) sits at bidegree (200, 200): 201 x 201 =
    40,401 monomials, past BASIS_CAP, so the piece is refused."""
    with pytest.raises(TooLarge, match="40401 monomials"):
        induce_noncompact_graded(2, 1, 1, (202, -200))


def test_noncompact_induction_has_no_degree_window():
    """Bidegree (10, 3) is past any small window; the module is the
    label's, of dimension signed_weight_dim((10, -3), 2) = 14."""
    mod = induce_noncompact_graded(2, 1, 1, (12, -3))
    assert f"bidegree {(10, 3)}" in mod.ambient
    assert mod.highest_weight == (10, -3) and mod.sound
    assert mod.dimension == W.signed_weight_dim((10, -3), 2) == 14


def test_graded_induction_builds_only_the_piece_it_solves(monkeypatch):
    """Graded induction solves one weight block, which the model builds
    from the block's column sums, and generator images read their targets
    off monomial labels: so no piece basis is asked for, neither its own
    nor the one a bidegree down that the lowerers map into."""
    asked = []
    basis = FockModel.basis

    def spy(model, p, q):
        asked.append((p, q))
        return basis(model, p, q)

    monkeypatch.setattr(FockModel, "basis", spy)
    mod = induce_noncompact_graded(3, 2, 1, (5, 4, -2))
    assert not mod.empty and f"bidegree {(3, 2)}" in mod.ambient
    assert asked == []


def test_compact_induction_builds_no_piece_basis(monkeypatch):
    """Compact induction and the degree selection read the monomials of
    each irrep weight off the model's weight blocks, built from that
    weight as column sums, so no piece basis is asked for."""
    asked = []
    basis = FockModel.basis

    def spy(model, p, q):
        asked.append((p, q))
        return basis(model, p, q)

    monkeypatch.setattr(FockModel, "basis", spy)
    assert not induce_compact(3, 2, (2, 1)).empty
    assert degree_selection_check(3, 2, (2, 1), 2)["ok"]
    assert asked == []


@pytest.mark.parametrize("k,M,N,weight,reason", [
    (2, 1, 1, (0, 0), "entry below the rank: 0 < 2"),
    (2, 1, 1, (1, -3), "entry below the rank: 1 < 2"),
    (2, 1, 1, (5, 4), "negative block entry matches no label"),
    (2, 2, 1, (2, 3, -1), "weight blocks are not dominant"),
    (1, 1, 1, (3, -1), "label needs 2 rows, rank is 1"),
    (2, 1, 1, (Fraction(5, 2), Fraction(-3, 2)),
     "half-integer entries match no quantized label"),
], ids=["2-1-1-below-rank-0", "2-1-1-below-rank-1", "2-1-1-negative-block",
        "2-2-1-not-dominant", "1-1-1-row-overflow", "2-1-1-half-integer"])
def test_emptiness_is_a_value_with_a_reason(k, M, N, weight, reason):
    out = induce_noncompact_graded(k, M, N, weight)
    assert out.empty
    assert out.dimension == 0
    assert out.reason == reason
    js = out.to_json()
    assert js["empty"] is True and js["reason"] == reason
    assert js["dimension"] == 0


@pytest.mark.parametrize("maps,count", [
    (lambda model: [], 2),  # x00 x11 and x01 x10 both survive
    (lambda model: [lambda o: [(o, 1)]], 0),  # nothing survives
], ids=["no-raisers", "identity"])
def test_graded_target_block_must_hold_one_vector(monkeypatch, maps, count):
    """The target's weight block at bidegree (2, 0) holds two monomials;
    the raisers leave one vector, other conditions leave 2 or 0, and then
    the induction raises instead of picking one."""
    assert induce_noncompact_graded(2, 2, 1, (3, 3, 0)).dimension == 1
    monkeypatch.setattr(rieffel, "raising_images", maps)
    with pytest.raises(InvariantBroken, match=f"has {count} highest weight"):
        induce_noncompact_graded(2, 2, 1, (3, 3, 0))


def test_label_collision_weight_is_nonempty():
    """(2, 2, -2) is simultaneously a shifted two-block label and the
    realization of the one-sided label n = (2); the graded space at that
    weight is the nonempty module belonging to the latter."""
    shifted = W.renormalize_weight(W.SignedWeight((2, 1), (1,)), 2, 1)
    assert shifted.entries == (2, 2, -2)
    mod = induce_noncompact_graded(2, 2, 1, (2, 2, -2))
    assert not mod.empty
    assert mod.dimension == 3
    assert mod.highest_weight == (0, -2)
    assert mod.highest_weight == W.SignedWeight((), (2,)).realize(2)


@pytest.mark.parametrize("k,a,b", list(product(range(1, 4), range(4),
                                               range(3))))
def test_noncompact_rank_one_pairs_realize_their_label(k, a, b):
    weight = (a + k, -b)
    mod = induce_noncompact_graded(k, 1, 1, weight)
    if len([v for v in (a, b) if v]) > k:
        assert mod.empty
        return
    label = W.SignedWeight((a,) if a else (), (b,) if b else ())
    assert mod.dimension == W.signed_weight_dim(label.realize(k), k)
    assert mod.highest_weight == label.realize(k)
    assert mod.gram_positive
    assert_gl_k_matches_oracle(mod, k, 1, 1, (a, b))


# ---------------------------------------------------------------------------
# the restricted gl(k) action against a dense oracle


def assert_maps_rows_to_rows(mod):
    """Every restricted map sends each row index of the module basis to
    row indices."""
    assert {t for terms in mod.gl_k.values()
            for c in range(mod.dimension) for t, _ in terms(c)} \
        <= set(range(mod.dimension))


def assert_gl_k_matches_oracle(mod, k, M, N, piece):
    assert f"bidegree {piece}" in mod.ambient
    assert_maps_rows_to_rows(mod)
    model = FockModel(k, M, N, "sq")
    for i in range(k):
        for j in range(k):
            want = bf.dense_restriction(bf.labelled_entries(
                bf.fock_operator(model, "k", i, j, piece)), mod.basis)
            assert bf.dense_matrix(bf.module_operator(
                mod.gl_k[(i, j)], mod.dimension)) == want


@pytest.mark.parametrize("k,M,N,weight,piece", [
    (3, 1, 1, (5, -2), (2, 2)),
    # renormalized-weight collision: (2, 2, -2) is the label n = (2)
    (2, 2, 1, (2, 2, -2), (0, 2)),
    (2, 1, 1, (4, -2), (2, 2)),
], ids=["3-1-1-weight0-4-piece0", "2-2-1-weight1-4-piece1",
        "2-1-1-weight2-6-piece2"])  # the names the suite has listed them by
def test_graded_gl_k_matches_dense_oracle(k, M, N, weight, piece):
    mod = induce_noncompact_graded(k, M, N, weight)
    assert not mod.empty
    assert_gl_k_matches_oracle(mod, k, M, N, piece)


@pytest.mark.parametrize("k,M,m", [(2, 2, (2, 1)), (3, 2, (1, 1)), (2, 2, (2,)),
                                   (3, 1, (2,))])
def test_compact_gl_k_matches_dense_oracle(k, M, m):
    mod = induce_compact(k, M, m)
    dimh = build_inducing_irrep(m, M).dim
    piece = (sum(m), 0)
    model = FockModel(k, M, 0, "sq")
    assert_maps_rows_to_rows(mod)
    for (i, j), terms in mod.gl_k.items():
        # gl(k) acts on the Fock factor of each (monomial, irrep) coordinate
        entries = {((r, h), (c, h)): v for (r, c), v in bf.labelled_entries(
                       bf.fock_operator(model, "k", i, j, piece)).items()
                   for h in range(dimh)}
        assert bf.dense_matrix(bf.module_operator(terms, mod.dimension)) \
            == bf.dense_restriction(entries, mod.basis)


def test_restrict_by_leaders_rejects_an_operator_leaving_the_span():
    span = T.ReducedSpan([{0: Fraction(1), 2: Fraction(3)}, {1: Fraction(1)}])
    assert span.rows == [{0: 1, 2: 3}, {1: 1}]  # pivots 0 and 1

    def swap(c):
        return [(1 - c if c < 2 else c, Fraction(1))]

    def shift(c):
        return [(c + 1, Fraction(1))]

    def same(c):
        return [(c, Fraction(1))]

    with pytest.raises(ShapeMismatch):
        span.restrict_by_leaders({"same": same, "swap": swap})
    with pytest.raises(ShapeMismatch):
        span.restrict_by_leaders({"shift": shift})
    ops = span.restrict_by_leaders({"same": same, "twice": lambda c: [
        (c, Fraction(2))]})
    assert list(ops) == ["same", "twice"]  # keyed like the family
    # image terms on the row indices
    assert [ops["twice"](i) for i in range(2)] == [[(0, 2)], [(1, 2)]]
    assert bf.dense_matrix(bf.module_operator(ops["same"], 2)) == [
        [1, 0], [0, 1]]


@pytest.mark.parametrize("entry", [int, Fraction])
def test_ldl_positive_is_exact_on_large_entries(entry):
    """det = 10**17 - 1 > 0, so the matrix is positive definite, though a
    float quotient would round its second pivot to 0; lowering the last
    entry by one makes det = -1."""
    big = 10**17
    gram = [[entry(big), entry(big - 1)], [entry(big - 1), entry(big - 1)]]
    assert T.positive_definite(bf.sparse_rows(gram))
    gram[1][1] = entry(big - 2)
    assert not T.positive_definite(bf.sparse_rows(gram))


@st.composite
def symmetric_matrices(draw):
    """B B^T plus a diagonal shift in {-1, 0, 1}, as int or Fraction
    entries: positive definite, singular or indefinite."""
    d = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    b = draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols,
                               max_size=cols), min_size=d, max_size=d))
    shift = draw(st.sampled_from([-1, 0, 1]))
    scale = draw(st.sampled_from([1, Fraction(1, 3), Fraction(5, 2)]))
    return [[scale * (sum(x * y for x, y in zip(b[r], b[c]))
                      + (shift if r == c else 0)) for c in range(d)]
            for r in range(d)]


@st.composite
def interleaved_block_matrices(draw):
    """Several ``symmetric_matrices`` blocks, each positive definite,
    singular or indefinite, placed on the diagonal of one matrix and then
    shuffled by one permutation of rows and columns, so that no block is
    contiguous."""
    blocks = draw(st.lists(symmetric_matrices(), min_size=1, max_size=4))
    spots = [(b, r) for b, blk in enumerate(blocks) for r in range(len(blk))]
    order = draw(st.permutations(spots))
    return [[blocks[b][r][c] if b == b2 else 0 for b2, c in order]
            for b, r in order]


@settings(max_examples=400, deadline=None)
@given(symmetric_matrices() | interleaved_block_matrices())
# blocks [[2, 1], [1, 1]] (positive) and [[1, 2], [2, 1]] (indefinite),
# interleaved as rows 0, 2 and 1, 3
@example([[2, 0, 1, 0], [0, 1, 0, 2], [1, 0, 1, 0], [0, 2, 0, 1]])
@example([[2, 0, 1, 0], [0, 1, 0, 2], [1, 0, 1, 0], [0, 2, 0, 5]])
# not symmetric, minors 1, 1, 1: row 1 meets row 0 at column 0, which row 0
# does not hold at column 1, so each later row is scanned for the pivot
@example([[1, 0, 1], [1, 1, 0], [0, 2, -1]])
def test_ldl_positive_against_dense_oracle(gram):
    """The verdict on sparse rows, zeros omitted, is the whole dense
    matrix's, on single and on shuffled block matrices, in int and
    Fraction entries; rows that store their zeros give the same."""
    want = bf.is_positive_definite(gram)
    assert bf.bareiss_positive(gram) == want
    assert T.positive_definite(bf.sparse_rows(gram)) == want
    assert T.positive_definite(bf.sparse_rows(
        [[Fraction(x) for x in row] for row in gram])) == want
    assert T.positive_definite([dict(enumerate(row)) for row in gram]) == want


def test_k4_emptiness_survey_reports_are_frozen():
    """Full reports, cells and collisions, of two k = 4 surveys whose
    nonempty modules run both the Gram split and the diagonal bracket
    pairs, as they read before either shortcut."""
    want = {(3, 2, 3): ("b8aa88ceac059e613e1e8aa7a4d1e5b6"
                        "6a5c4afeda07031396cc1bff92903b1e", 29, 0),
            (1, 2, 4): ("f122264aec1a788c2baa5b841f04bc1b"
                        "b509678f28eda804a21152a77507c8a6", 48, 4)}
    for (M, N, window), (digest, cells, collisions) in want.items():
        rep = emptiness_survey(4, M, N, window)
        assert rep["ok"]
        assert (len(rep["cells"]), len(rep["collisions"])) == (
            cells, collisions)
        assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()
                              ).hexdigest() == digest


def compact_grid():
    for k, M, tot in product(range(1, 5), range(1, 4), range(5)):
        for m in W.partitions_of(tot, max_rows=M):
            induce_compact(k, M, m)


@pytest.mark.parametrize("run,count", [
    (lambda: emptiness_survey(3, 2, 1, 4), 22),
    (compact_grid, 88),
], ids=["emptiness-3-2-1-4", "compact-grid"])
def test_bracket_check_against_dense_oracle(monkeypatch, run, count):
    """Every nonempty module's gl(k) passes the bracket check and the
    dense all-pairs oracle alike."""
    seen = []

    def record(families, columns):
        seen.append((families, columns))
        return T.gl_relation_failures(families, columns)

    monkeypatch.setattr(rieffel, "gl_relation_failures", record)
    run()
    assert len(seen) == count
    for families, columns in seen:
        assert T.gl_relation_failures(families, columns) == \
            bf.relation_failures(families, len(columns)) == []


def mutated(terms, column, extra):
    """The map with one more image term on one column."""
    return lambda c: list(terms(c)) + ([extra] if c == column else [])


@pytest.mark.parametrize("mutation", [
    "shifted-eigenvalue", "non-diagonal", "wrong-weight-target"])
def test_bracket_check_mutations_against_dense_oracle(mutation):
    """A module's gl(3), broken in one place, fails on the same pairs as
    the oracle finds: one eigenvalue of a diagonal E_00 shifted (it stays
    diagonal), E_11 given an off-diagonal term (the product check takes
    it), or E_01 given a target of the wrong weight."""
    mod = induce_compact(3, 2, (2, 1))
    d = mod.dimension
    gl_k = dict(mod.gl_k)
    if mutation == "shifted-eigenvalue":
        gl_k[0, 0] = mutated(gl_k[0, 0], 0, (0, 1))
    elif mutation == "non-diagonal":
        gl_k[1, 1] = mutated(gl_k[1, 1], 0, (1, 1))
    else:
        c = next(c for c in range(d) if gl_k[0, 1](c))
        gl_k[0, 1] = mutated(gl_k[0, 1], c, (c, 1))
    bad = T.gl_relation_failures({"k": gl_k}, range(d))
    assert bad
    assert bad == bf.relation_failures({"k": gl_k}, d)


def test_bracket_check_catches_each_rescaled_generator():
    mod = induce_compact(2, 2, (2, 1))
    cols = range(mod.dimension)
    assert T.gl_relation_failures({"k": mod.gl_k}, cols) == []
    for key, terms in mod.gl_k.items():
        bad = dict(mod.gl_k)
        bad[key] = bf.scaled(bf.module_operator(terms, mod.dimension),
                             2).terms()
        assert T.gl_relation_failures({"k": bad}, cols), key


def test_emptiness_verdict_requires_the_module_checks(monkeypatch):
    rep = emptiness_survey(2, 1, 1, 2)
    assert rep["ok"]
    nonempty = [c for c in rep["cells"] if c["detail"].startswith(
        ("dim", "collision"))]
    assert nonempty
    monkeypatch.setattr(rieffel, "gl_relation_failures",
                        lambda families, columns: ["gl(k)[00,01]"])
    rep = emptiness_survey(2, 1, 1, 2)
    assert not rep["ok"]
    assert [c for c in rep["cells"] if not c["ok"]] == [
        dict(c, ok=False) for c in nonempty]


def test_a_refused_induction_leaves_the_survey_after_one_call(monkeypatch):
    """Graded induction has no degree window to widen, so a TooLarge from
    it, a piece past BASIS_CAP, leaves the survey at once and is not
    retried."""
    calls = []

    def refuse(*args):
        calls.append(args)
        raise TooLarge("piece past the cap")

    monkeypatch.setattr(rieffel, "induce_noncompact_graded", refuse)
    with pytest.raises(TooLarge, match="past the cap"):
        emptiness_survey(2, 1, 1, 3)
    assert len(calls) == 1
