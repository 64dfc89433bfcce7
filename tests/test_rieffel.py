"""Induced modules from finite-rank data: compact case and the graded
indefinite case, where emptiness is a value rather than an error."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
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
])
def test_irrep_dimension_matches_tableau_count(m, M):
    ir = build_inducing_irrep(m, M)
    assert ir.dim == bf.count_ssyt(m, M)


def test_irrep_weights_and_gram():
    ir = build_inducing_irrep((2, 1), 2)
    assert ir.dim == 2
    assert sorted(ir.basis_weights) == [(1, 2), (2, 1)]
    assert ir.basis_weights[ir.highest_index] == (2, 1)
    # words are orthonormal, so the irrep's form is the plain dot product
    g = T.gram_matrix(ir.basis, lambda o: 1)
    assert g == [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]]


def test_trivial_irrep():
    ir = build_inducing_irrep((), 2)
    assert ir.dim == 1
    assert ir.basis_weights == [(0, 0)]
    assert T.gram_matrix(ir.basis, lambda o: 1) == [[Fraction(1)]]


def test_irrep_action_satisfies_the_bracket():
    ir = build_inducing_irrep((2, 1), 2)

    def matmul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(ir.dim))
                 for j in range(ir.dim)] for i in range(ir.dim)]

    def matsub(a, b):
        return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    e00, e01, e10, e11 = (bf.dense_matrix(ir.action[key])
                          for key in [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert matsub(matmul(e01, e10), matmul(e10, e01)) == matsub(e00, e11)


def test_irrep_diagonal_trace_counts_boxes():
    for m, M in [((2, 1), 2), ((2,), 3), ((1, 1), 3)]:
        ir = build_inducing_irrep(m, M)
        total = sum(bf.dense_matrix(ir.action[(a, a)])[i][i]
                    for a in range(M) for i in range(ir.dim))
        assert total == sum(m) * ir.dim


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


@pytest.mark.parametrize("k,M,m,n", [
    (3, 2, (2, 1), 3), (3, 2, (2, 1), 2), (2, 2, (1, 1), 2), (3, 3, (2, 1), 3),
    (2, 1, (3,), 3),
])
def test_zero_weight_blocks_are_those_of_the_full_grouping(k, M, m, n):
    """The package keeps, keyed by row weight alone and in the same
    order, the zero-difference blocks of the full grouping."""
    model = FockModel(k, M, 0, n, "sq")
    irrep = build_inducing_irrep(m, M)
    full = bf.weight_difference_blocks(model, (n, 0), irrep)
    want = [(key[0], members) for key, members in full.items()
            if key[1] == (0,) * M]
    got = rieffel._compact_blocks(model, (n, 0), irrep)
    assert list(got.items()) == want
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
    model = FockModel(k, M, 0, n, "sq")
    kernel = bf.casimir_kernel(model, (n, 0), build_inducing_irrep(m, M))
    assert len(kernel) == mod.dimension
    assert bf.spans_agree(mod.basis, kernel)


def test_compact_gram_is_the_two_factor_form(monkeypatch):
    """The package's Gram matrix of each nonempty compact module on the
    grid of acceptance criterion 3, captured on its way to the positivity
    check, equals the Fock norm tensored with the irrep's form, summed
    factor by factor."""
    grams = []

    def record(gram, check=rieffel._ldl_positive):
        grams.append(gram)
        return check(gram)

    monkeypatch.setattr(rieffel, "_ldl_positive", record)
    cells = 0
    for k, M, tot in product(range(1, 5), range(1, 4), range(5)):
        for m in W.partitions_of(tot, max_rows=M):
            grams.clear()
            mod = induce_compact(k, M, m)
            if mod.empty:
                assert grams == []
                continue
            labels = FockModel(k, M, 0, tot, "sq").basis(tot, 0).labels
            irrep = build_inducing_irrep(m, M)
            assert grams == [bf.two_factor_gram(mod.basis, labels,
                                                irrep.basis)]
            assert mod.gram_positive
            cells += 1
    assert cells == 88  # every nonempty cell of acceptance criterion 3


# ---------------------------------------------------------------------------
# graded indefinite induction


def test_noncompact_frozen_example():
    mod = induce_noncompact_graded(3, 1, 1, (4, -1), 4)
    assert mod.dimension == 8
    assert mod.highest_weight == (1, 0, -1)
    assert mod.commutant == 1
    assert mod.gram_positive and mod.bracket_ok


def test_noncompact_dimension_matches_signed_label():
    mod = induce_noncompact_graded(2, 1, 1, (4, -2), 6)
    hw = W.SignedWeight((2,), (2,)).realize(2)
    assert mod.highest_weight == hw
    assert mod.dimension == W.signed_weight_dim(hw, 2) == 5


def test_noncompact_json_fields():
    js = induce_noncompact_graded(2, 1, 1, (3, -1), 6).to_json()
    assert js["dimension"] == 3
    assert js["highest_weight"] == ["1", "-1"]
    assert js["inputs"] == {"M": 1, "N": 1, "k": 2, "weight": "(3, -1)"}
    assert js["gram_positive"] and js["bracket_ok"]


def test_noncompact_weight_length_checked():
    with pytest.raises(ShapeMismatch):
        induce_noncompact_graded(3, 1, 1, (2, -1, 0), 4)


def test_noncompact_window_overflow():
    with pytest.raises(TooLarge):
        induce_noncompact_graded(2, 1, 1, (6, -3), 4)


@pytest.mark.parametrize("k,M,N,weight,reason", [
    (2, 1, 1, (0, 0), "entry below the rank: 0 < 2"),
    (2, 1, 1, (1, -3), "entry below the rank: 1 < 2"),
    (2, 1, 1, (5, 4), "negative block entry matches no label"),
    (2, 2, 1, (2, 3, -1), "weight blocks are not dominant"),
    (1, 1, 1, (3, -1), "label needs 2 rows, rank is 1"),
    (2, 1, 1, (Fraction(5, 2), Fraction(-3, 2)),
     "half-integer entries match no quantized label"),
])
def test_emptiness_is_a_value_with_a_reason(k, M, N, weight, reason):
    out = induce_noncompact_graded(k, M, N, weight, 4)
    assert out.empty
    assert out.dimension == 0
    assert out.reason == reason
    js = out.to_json()
    assert js["empty"] is True and js["reason"] == reason
    assert js["dimension"] == 0


@pytest.mark.parametrize("maps,count", [
    (lambda model, piece: [], 2),  # x00 x11 and x01 x10 both survive
    (lambda model, piece: [lambda o: [(o, 1)]], 0),  # nothing survives
], ids=["no-raisers", "identity"])
def test_graded_target_block_must_hold_one_vector(monkeypatch, maps, count):
    """The target's weight block at bidegree (2, 0) holds two monomials;
    the raisers leave one vector, other conditions leave 2 or 0, and then
    the induction raises instead of picking one."""
    assert induce_noncompact_graded(2, 2, 1, (3, 3, 0), 4).dimension == 1
    monkeypatch.setattr(rieffel, "raising_images", maps)
    with pytest.raises(InvariantBroken, match=f"has {count} highest weight"):
        induce_noncompact_graded(2, 2, 1, (3, 3, 0), 4)


def test_label_collision_weight_is_nonempty():
    """(2, 2, -2) is simultaneously a shifted two-block label and the
    realization of the one-sided label n = (2); the graded space at that
    weight is the nonempty module belonging to the latter."""
    shifted = W.renormalize_weight(W.SignedWeight((2, 1), (1,)), 2, 1)
    assert shifted.entries == (2, 2, -2)
    mod = induce_noncompact_graded(2, 2, 1, (2, 2, -2), 4)
    assert not mod.empty
    assert mod.dimension == 3
    assert mod.highest_weight == (0, -2)
    assert mod.highest_weight == W.SignedWeight((), (2,)).realize(2)


@pytest.mark.parametrize("k,a,b", list(product(range(1, 4), range(4),
                                               range(3))))
def test_noncompact_rank_one_pairs_realize_their_label(k, a, b):
    weight = (a + k, -b)
    mod = induce_noncompact_graded(k, 1, 1, weight, a + b)
    if len([v for v in (a, b) if v]) > k:
        assert mod.empty
        return
    label = W.SignedWeight((a,) if a else (), (b,) if b else ())
    assert mod.dimension == W.signed_weight_dim(label.realize(k), k)
    assert mod.highest_weight == label.realize(k)
    assert mod.gram_positive
    assert_gl_k_matches_oracle(mod, k, 1, 1, a + b, (a, b))


# ---------------------------------------------------------------------------
# the restricted gl(k) action against a dense oracle


def assert_one_module_basis(mod):
    """Every restricted operator acts on the same module basis object."""
    bases = {id(b) for op in mod.gl_k.values() for b in (op.domain, op.codomain)}
    assert len(bases) == 1
    assert len(mod.gl_k[(0, 0)].domain) == mod.dimension


def assert_gl_k_matches_oracle(mod, k, M, N, d, piece):
    assert f"bidegree {piece}" in mod.ambient
    assert_one_module_basis(mod)
    model = FockModel(k, M, N, d, "sq")
    for i in range(k):
        for j in range(k):
            want = bf.dense_restriction(model.gl_k_op(i, j, piece).data,
                                        mod.basis)
            assert bf.dense_matrix(mod.gl_k[(i, j)]) == want


@pytest.mark.parametrize("k,M,N,weight,d,piece", [
    (3, 1, 1, (5, -2), 4, (2, 2)),
    # renormalized-weight collision: (2, 2, -2) is the label n = (2)
    (2, 2, 1, (2, 2, -2), 4, (0, 2)),
    (2, 1, 1, (4, -2), 6, (2, 2)),
])
def test_graded_gl_k_matches_dense_oracle(k, M, N, weight, d, piece):
    mod = induce_noncompact_graded(k, M, N, weight, d)
    assert not mod.empty
    assert_gl_k_matches_oracle(mod, k, M, N, d, piece)


@pytest.mark.parametrize("k,M,m", [(2, 2, (2, 1)), (3, 2, (1, 1)), (2, 2, (2,)),
                                   (3, 1, (2,))])
def test_compact_gl_k_matches_dense_oracle(k, M, m):
    mod = induce_compact(k, M, m)
    dimh = build_inducing_irrep(m, M).dim
    piece = (sum(m), 0)
    model = FockModel(k, M, 0, piece[0], "sq")
    assert_one_module_basis(mod)
    for (i, j), mat in mod.gl_k.items():
        # gl(k) acts on the Fock factor of each (monomial, irrep) coordinate
        entries = {((r, h), (c, h)): v
                   for (r, c), v in model.gl_k_op(i, j, piece).data.items()
                   for h in range(dimh)}
        assert bf.dense_matrix(mat) == bf.dense_restriction(
            entries, mod.basis)


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
    assert list(ops) == ["same", "twice"]
    assert ops["same"].domain is ops["twice"].codomain  # one module basis
    assert ops["same"].domain.labels == (0, 1)
    assert bf.dense_matrix(ops["same"]) == [[1, 0], [0, 1]]
    assert bf.dense_matrix(ops["twice"]) == [[2, 0], [0, 2]]


@pytest.mark.parametrize("entry", [int, Fraction])
def test_ldl_positive_is_exact_on_large_entries(entry):
    """det = 10**17 - 1 > 0, so the matrix is positive definite, though a
    float quotient would round its second pivot to 0; lowering the last
    entry by one makes det = -1."""
    big = 10**17
    gram = [[entry(big), entry(big - 1)], [entry(big - 1), entry(big - 1)]]
    assert rieffel._ldl_positive(gram)
    gram[1][1] = entry(big - 2)
    assert not rieffel._ldl_positive(gram)


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


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_ldl_positive_against_dense_oracle(gram):
    want = bf.is_positive_definite(gram)
    assert rieffel._ldl_positive(gram) == want
    assert rieffel._ldl_positive(
        [[Fraction(x) for x in row] for row in gram]) == want


def test_bracket_check_catches_each_rescaled_generator():
    mod = induce_compact(2, 2, (2, 1))
    fam = {key: op.terms() for key, op in mod.gl_k.items()}
    cols = range(mod.dimension)
    assert T.gl_relation_failures({"k": fam}, cols) == []
    for key, op in mod.gl_k.items():
        bad = dict(fam)
        bad[key] = op.scaled(2).terms()
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
