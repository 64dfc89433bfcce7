"""Exact operator algebra on tensor powers."""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import bruteforce as bf
from howe_forge import tensor as T
from howe_forge import weights as W
from howe_forge.errors import InvariantBroken, ShapeMismatch, TooLarge
from howe_forge.rieffel import build_inducing_irrep


# The dense-oracle tests report the first failing system as found:
# shrinking these elimination systems can run for minutes.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


def small_perms(n):
    return st.sampled_from(list(permutations(range(n))))


# ---------------------------------------------------------------------------
# bases and raw operator algebra


def test_monomial_basis_counts():
    b = T.monomials(3, 4)
    assert len(b) == len(set(b)) == math.comb(3 + 4 - 1, 4)
    assert all(sum(lab) == 4 for lab in b)
    # every exponent tuple of the degree, in descending lex order
    for nvars, degree in product(range(6), range(7)):
        assert T.monomials(nvars, degree) == tuple(sorted(
            (e for e in product(range(degree + 1), repeat=nvars)
             if sum(e) == degree), reverse=True))


def test_basis_cap():
    with pytest.raises(TooLarge, match=r"k\^n = 1048576 exceeds cap 20000"):
        build_inducing_irrep((5, 5), 4)


def test_operator_arithmetic_roundtrip():
    b = bf.IndexedBasis.tensor_power(2, 1)
    a = bf.ExactOperator(b, b, {(0, 1): Fraction(1, 2), (1, 0): Fraction(3)})
    ident = bf.identity(b)
    assert bf.add(a, ident, bf.scaled(a, -1)) == ident
    assert bf.scaled(a, 2).data[(0, 1)] == 1
    assert bf.compose(a, ident) == bf.compose(ident, a) == a
    assert bf.add(a, bf.scaled(a, -1)).data == {}
    assert a.terms()(0) == [(1, 3)] and a.terms()(2) == ()


def test_add_entry_is_exact_for_every_value_type():
    b = bf.IndexedBasis.tensor_power(2, 1)
    op = bf.ExactOperator(b, b)
    op.add_entry(0, 0, 1)
    op.add_entry(0, 0, 0.25)
    op.add_entry(0, 1, "1/3")
    op.add_entry(0, 1, Fraction(1, 6))
    op.add_entry(1, 1, 2)
    assert op.data == {(0, 0): Fraction(5, 4), (0, 1): Fraction(1, 2),
                       (1, 1): Fraction(2)}
    assert all(type(v) in (int, Fraction) for v in op.data.values())
    assert type(op.data[(1, 1)]) is int  # ints stay ints
    fresh = bf.ExactOperator(b, b)
    fresh.add_entry(0, 0, 0.1)
    fresh.add_entry(1, 0, "1/3")
    assert fresh.data == {(0, 0): Fraction(3602879701896397, 2**55),
                          (1, 0): Fraction(1, 3)}
    assert all(type(v) is Fraction for v in fresh.data.values())
    op.add_entry(0, 0, Fraction(-5, 4))
    op.add_entry(1, 1, -2)
    assert op.data == {(0, 1): Fraction(1, 2)}
    assert bf.add(op, bf.scaled(op, -3)) == bf.scaled(op, -2)
    assert op.data == {(0, 1): Fraction(1, 2)}  # operands are unchanged


def test_apply_matches_composition():
    b = bf.IndexedBasis.tensor_power(2, 2)
    s = bf.sn_action((1, 0), 2, 2, basis=b)
    g = bf.gl_tensor_action(0, 1, 2, 2, basis=b)
    vec = {0: Fraction(1), 3: Fraction(2)}
    assert T.linear_image(s.terms(), T.linear_image(g.terms(), vec)) \
        == T.linear_image(bf.compose(s, g).terms(), vec) == {1: 2, 2: 2}


def dense(rows, ncols):
    out = []
    for row in rows:
        arr = [Fraction(0)] * ncols
        for c, v in row.items():
            arr[c] = v
        out.append(arr)
    return out


def combination(coeffs, rows):
    """sum of coeffs[t] * rows[t], keeping entries that cancel as zeros"""
    out = {}
    for t, a in coeffs.items():
        for c, v in rows[t].items():
            out[c] = out.get(c, 0) + a * v
    return out


def test_operator_rank_against_dense_oracle():
    b = bf.IndexedBasis.tensor_power(2, 2)
    op = bf.add(bf.gl_tensor_action(0, 1, 2, 2, basis=b),
                bf.sn_action((1, 0), 2, 2, basis=b))
    mat = bf.dense_matrix(op)
    nullity = bf.dense_nullity(mat, len(b))
    assert len(T.ReducedSpan(dict(enumerate(row)) for row in mat)) \
        == len(b) - nullity == 4


@st.composite
def sparse_systems(draw):
    """Sparse rational rows and rational combinations of them, so that
    elimination has to cancel rows exactly after fill-in; with non-unit
    denominators, explicit zero entries, repeated and empty rows, and
    columns that no row touches."""
    ncols = draw(st.integers(min_value=1, max_value=9))
    used = draw(st.integers(min_value=1, max_value=ncols))
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 9))

    def sparse(width):
        return st.dictionaries(st.integers(0, width - 1), entry,
                               min_size=min(width, 2), max_size=width)

    rows = draw(st.lists(sparse(used), min_size=1, max_size=10))
    rows += [combination(u, rows)
             for u in draw(st.lists(sparse(len(rows)), max_size=6))]
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    rows += [{}] * draw(st.integers(0, 2))
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], ncols


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(sparse_systems(), st.data())
@bf.time_bounded
def test_rank_of_rows_against_dense_oracle(system, data):
    # the rank may not depend on the order the rows come in
    rows, ncols = system
    snapshot = [dict(r) for r in rows]
    rank = ncols - bf.dense_nullity(dense(rows, ncols), ncols)
    shuffled = data.draw(st.permutations(rows))
    for order in (rows, rows[::-1], shuffled):
        assert T.rank_of_rows(order) == rank
    assert rows == snapshot  # the caller's rows are left as they were
    assert T.rank_of_rows(iter(rows)) == len(T.ReducedSpan(rows)) == rank


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(sparse_systems())
@bf.time_bounded
def test_reduced_span_and_kernel_against_dense_oracle(system):
    rows, ncols = system
    snapshot = [dict(r) for r in rows]
    span = T.ReducedSpan()
    grew = [span.insert(r) for r in rows]
    kern = T.kernel_basis(rows, ncols)
    assert rows == snapshot  # the caller's rows are left as they were
    assert len(kern) == bf.dense_nullity(dense(rows, ncols), ncols)
    assert len(span) == grew.count(True) == ncols - len(kern)
    for row in rows:
        for vec in kern:
            assert sum(v * vec.get(c, 0) for c, v in row.items()) == 0
    # the pivot index names every row exactly once, in insertion order
    pivots = list(span._pivots)
    assert list(span._pivots.values()) == list(range(len(span.rows)))
    free = [c for c in range(ncols) if c not in pivots]
    assert len(free) == len(kern)
    for c, vec in zip(free, kern):
        assert {f: vec.get(f, 0) for f in free} == {f: int(f == c) for f in free}
    rref = {next(c for c, x in enumerate(r) if x): r
            for r in bf.dense_rref(dense(rows, ncols), ncols)}
    assert sorted(pivots) == sorted(rref)
    for piv, row in zip(pivots, span.rows):
        # integer and primitive, positive at its own pivot, 0 at the others
        assert all(type(v) is int for v in row.values())
        assert math.gcd(*row.values()) == 1 and row[piv] > 0
        assert all(row.get(p, 0) == 0 for p in pivots if p != piv)
        assert all(row.values())  # no explicit zeros are kept
        # divided by its pivot entry, the row of the (unique) dense RREF
        assert [Fraction(row.get(c, 0), row[piv]) for c in range(ncols)] \
            == rref[piv]
    assert bf.spans_agree(span.rows, rows)


@st.composite
def integer_systems(draw):
    """Plain-int rows with a common content > 1, and int combinations of
    them, so that elimination has to cancel rows exactly after fill-in.
    Each row is left all nonzero ints, or given explicit int zeros, or
    given some ``Fraction(n, 1)`` entries."""
    ncols = draw(st.integers(min_value=1, max_value=9))
    used = draw(st.integers(min_value=1, max_value=ncols))
    content = draw(st.integers(2, 6))
    entry = st.integers(-6, 6).filter(bool)
    rows = [{c: content * v for c, v in row.items()} for row in draw(
        st.lists(st.dictionaries(st.integers(0, used - 1), entry, min_size=1),
                 min_size=1, max_size=10))]
    rows += [{c: v for c, v in combination(u, rows).items() if v}
             for u in draw(st.lists(st.dictionaries(
                 st.integers(0, len(rows) - 1), entry), max_size=6))]
    cols = st.sets(st.integers(0, ncols - 1), min_size=1, max_size=3)
    for row in rows:
        form = draw(st.sampled_from(("int", "zeros", "fractions")))
        if form == "zeros":
            row.update((c, 0) for c in draw(cols) if c not in row)
        elif form == "fractions":
            row.update((c, Fraction(row[c])) for c in draw(cols) if c in row)
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], ncols


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(integer_systems())
def test_integer_rows_against_dense_oracle(system):
    # the row invariants of the rational systems' test hold, and the
    # caller's rows, entry types included, are left as they were: a row
    # of nonzero ints is copied, not eliminated in place
    rows, ncols = system
    snapshot = [[(c, type(v), v) for c, v in row.items()] for row in rows]
    test_reduced_span_and_kernel_against_dense_oracle.hypothesis.inner_test(
        system)
    assert T.rank_of_rows(rows) == ncols - bf.dense_nullity(
        dense(rows, ncols), ncols)
    assert [[(c, type(v), v) for c, v in row.items()] for row in rows] \
        == snapshot


@st.composite
def block_systems(draw):
    """Maps given by image terms on the keys ("k", i), each key's image a
    list of (target, value) terms in which targets repeat and may cancel,
    and members that are a strict subset of the keys, in any order.  A
    twin key b of a key a has the image of a in every map, each term v
    split into 2v and -v on the same target, so a - b is in the kernel."""
    nkeys = draw(st.integers(min_value=2, max_value=7))
    keys = [("k", i) for i in range(nkeys)]
    term = st.tuples(st.integers(0, 4),
                     st.builds(Fraction, st.integers(-3, 3).filter(bool),
                               st.integers(1, 3)))
    images = draw(st.lists(
        st.fixed_dictionaries({key: st.lists(term, max_size=4)
                               for key in keys}),
        min_size=1, max_size=3))
    for a, b in draw(st.lists(st.tuples(st.sampled_from(keys),
                                        st.sampled_from(keys)), max_size=2)):
        for image in images:
            if a != b:
                image[b] = [(t, x) for t, v in image[a] for x in (2 * v, -v)]
    members = draw(st.lists(st.sampled_from(keys), min_size=1,
                            max_size=nkeys - 1, unique=True))
    return images, members


def dense_block_rows(images, members):
    """One dense row per (map, target): the summed coefficients of the
    members' images."""
    rows = []
    for image in images:
        by_target = {}
        for j, key in enumerate(members):
            for tgt, v in image[key]:
                by_target.setdefault(tgt, [Fraction(0)] * len(members))[j] += v
        rows.extend(by_target.values())
    return rows


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(block_systems())
@bf.time_bounded
def test_block_kernel_against_dense_oracle(system):
    images, members = system
    kern = T.block_kernel(members, [image.get for image in images])
    rows = dense_block_rows(images, members)
    n = len(members)
    assert len(kern) == bf.dense_nullity(rows, n)
    vecs = [[vec.get(key, 0) for key in members] for vec in kern]
    assert all(set(vec) <= set(members) for vec in kern)
    assert bf.dense_nullity(vecs, n) == n - len(kern)  # independent
    for row in rows:
        for vec in vecs:
            assert sum(a * x for a, x in zip(row, vec)) == 0
    for image in images:
        for vec in kern:
            assert T.linear_image(image.get, vec) == {}


@settings(max_examples=200, deadline=None, phases=NO_SHRINK)
@given(block_systems(), st.data())
@bf.time_bounded
def test_linear_image_against_dense_product(system, data):
    images, members = system
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    vec = {key: data.draw(entry) for key in members}
    for image, row_of in zip(images, [dense_block_rows([im], members)
                                      for im in images]):
        targets = list(dict.fromkeys(
            tgt for key in members for tgt, _ in image[key]))
        want = {t: sum(a * vec[key] for a, key in zip(row, members))
                for t, row in zip(targets, row_of)}
        got = T.linear_image(image.get, vec)
        assert got == {t: x for t, x in want.items() if x}


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_rank_of_rows_on_a_cycle(n):
    # rows (e_i + a e_{i+1}) / (i + 1), indices mod n: every column has two
    # rows, so each pivot fills the next row in, and the last row cancels
    # exactly when (-a)^n == 1
    for a, rank in ((1, n - 1 + n % 2), (-1, n - 1), (Fraction(2, 3), n)):
        rows = [{i: Fraction(1, i + 1), (i + 1) % n: a * Fraction(1, i + 1)}
                for i in range(n)]
        assert n - bf.dense_nullity(dense(rows, n), n) == rank
        assert T.rank_of_rows(rows) == rank


def test_rank_of_rows_sparse_low_rank_product():
    # rows of U V with sparse U (9x5, one row of it zero in one slot) and
    # banded V (5x7): four rows must cancel exactly, after fill-in
    U = [{i % 5: Fraction(1, i + 1), (i + 2) % 5: Fraction(i - 4, 3)}
         for i in range(9)]
    V = [{c: Fraction(t + c + 1, c + 2) for c in range(t, t + 3)}
         for t in range(5)]
    rows = [combination(u, V) for u in U]
    assert bf.dense_nullity(dense(rows, 7), 7) == 2
    assert T.rank_of_rows(rows) == 5
    more = rows + [{6: Fraction(1)}, {0: Fraction(2, 3)}]
    assert T.rank_of_rows(more) == 7


# ---------------------------------------------------------------------------
# symmetric group action


@given(small_perms(3), small_perms(3), st.integers(min_value=2, max_value=3))
@settings(max_examples=40, deadline=None)
def test_sn_action_multiplicative(s, t, k):
    bas = bf.IndexedBasis.tensor_power(k, 3)
    lhs = bf.compose(bf.sn_action(s, k, 3, basis=bas),
                     bf.sn_action(t, k, 3, basis=bas))
    assert lhs == bf.sn_action(bf.perm_compose(s, t), k, 3, basis=bas)


@given(small_perms(4), st.integers(min_value=2, max_value=3))
@settings(max_examples=40, deadline=None)
def test_sn_action_trace_counts_cycles(sigma, k):
    op = bf.sn_action(sigma, k, 4)
    assert bf.trace(op) == k ** len(W.perm_cycle_type(sigma))


def test_sn_action_commutes_with_gl():
    k, n = 3, 3
    bas = bf.IndexedBasis.tensor_power(k, n)
    for sigma in [(1, 0, 2), (2, 0, 1)]:
        s = bf.sn_action(sigma, k, n, basis=bas)
        for (i, j) in [(0, 1), (1, 2), (2, 0)]:
            g = bf.gl_tensor_action(i, j, k, n, basis=bas)
            assert bf.compose(s, g) == bf.compose(g, s)


# ---------------------------------------------------------------------------
# central projectors


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_projectors_idempotent_orthogonal_complete(n, k):
    bas = bf.IndexedBasis.tensor_power(k, n)
    shapes = list(W.partitions_of(n))
    projs = [bf.isotypic_projector(lam, k, basis=bas) for lam in shapes]
    for p in projs:
        assert bf.compose(p, p) == p
    assert bf.add(*projs) == bf.identity(bas)
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            assert bf.compose(projs[i], projs[j]).data == {}


def test_projector_rank_frozen():
    # ranks are f^lambda * weyl_dim(lambda, k)
    p = bf.isotypic_projector((2, 1), 2)
    assert bf.rank(p) == 4
    p = bf.isotypic_projector((1, 1, 1), 2)
    assert p.data == {}


def test_projector_ranks_match_dimension_count():
    for n, k in [(3, 2), (4, 3)]:
        for lam in W.partitions_of(n):
            got = bf.rank(bf.isotypic_projector(lam, k))
            assert got == W.sn_dim(lam) * W.weyl_dim(lam, k)


@pytest.mark.parametrize("n,k", [(4, 2), (4, 3), (4, 4), (5, 3)])
def test_projector_family_fast_path_agrees_with_exact_operators(n, k):
    rep = T.projector_family_check(n, k)
    assert rep["complete"] and rep["idempotent"] and rep["orthogonal"]
    assert rep["ok"] is True
    assert set(rep["ranks"]) == set(W.partitions_of(n))
    for lam, rank in rep["ranks"].items():
        assert rank == bf.rank(bf.isotypic_projector(lam, k))


@pytest.mark.parametrize("n,k", [(1, 1), (3, 5), (4, 2), (6, 4), (6, 6)])
def test_pattern_orbit_counts_match_the_letter_multisets(n, k):
    patterns = list(W.partitions_of(n, max_rows=k))
    by_pattern = Counter(
        tuple(sorted(Counter(word).values(), reverse=True))
        for word in combinations_with_replacement(range(k), n))
    assert by_pattern == {p: T._orbit_count(p, k) for p in patterns}
    assert sum(T._orbit_count(p, k) for p in patterns) \
        == math.comb(n + k - 1, n)


def test_projector_family_check_catches_a_wrong_character(monkeypatch):
    exact = T._character_by_type

    def perturbed(shape, n):
        chi = dict(exact(shape, n))
        if shape == (2, 1):
            chi[(1, 1, 1)] += 1
        return chi

    monkeypatch.setattr(T, "_character_by_type", perturbed)
    rep = T.projector_family_check(3, 2)
    assert not (rep["complete"] and rep["idempotent"])
    assert rep["ok"] is False


def test_projector_family_check_ok_needs_every_rank(monkeypatch):
    """A family that is complete, idempotent and orthogonal still fails
    when one rank is not f^lambda * dim V_lambda(k)."""
    assert T.projector_family_check(3, 2)["ok"] is True
    exact = W.weyl_dim
    monkeypatch.setattr(W, "weyl_dim",
                        lambda lam, k: exact(lam, k) + (lam == (2, 1)))
    rep = T.projector_family_check(3, 2)
    assert rep["complete"] and rep["idempotent"] and rep["orthogonal"]
    assert sum(rep["ranks"].values()) == 2 ** 3
    assert rep["ok"] is False


def test_projector_family_check_refuses_past_the_int64_guard(monkeypatch):
    # (3, 2): largest block 3, entries bounded by f * n! * |chi| = 2 * 6 * 2
    bound = 3 * 24 ** 2
    monkeypatch.setattr(T, "INT64_GUARD", bound + 1)
    assert T.projector_family_check(3, 2)["complete"]
    monkeypatch.setattr(T, "INT64_GUARD", bound)
    with pytest.raises(TooLarge):
        T.projector_family_check(3, 2)


def test_projector_commutes_with_sn_and_gl():
    k, n = 2, 3
    bas = bf.IndexedBasis.tensor_power(k, n)
    p = bf.isotypic_projector((2, 1), k, basis=bas)
    for sigma in permutations(range(n)):
        s = bf.sn_action(sigma, k, n, basis=bas)
        assert bf.compose(p, s) == bf.compose(s, p)
    for i in range(k):
        for j in range(k):
            g = bf.gl_tensor_action(i, j, k, n, basis=bas)
            assert bf.compose(p, g) == bf.compose(g, p)


# ---------------------------------------------------------------------------
# Young symmetrizers


def test_young_symmetrizer_image_dims():
    assert bf.rank(bf.young_symmetrizer((2, 1), 3)) == 8
    assert bf.rank(bf.young_symmetrizer((2,), 2)) == 3
    assert bf.rank(bf.young_symmetrizer((1, 1), 2)) == 1
    assert bf.rank(bf.young_symmetrizer((1, 1, 1), 2)) == 0


def test_young_symmetrizer_quasi_idempotent():
    for lam, k in [((2, 1), 2), ((2, 1), 3), ((2, 2), 2), ((3,), 2)]:
        c = bf.young_symmetrizer(lam, k)
        alpha = Fraction(math.factorial(sum(lam)), W.sn_dim(lam))
        assert bf.compose(c, c) == bf.scaled(c, alpha)


def test_young_symmetrizer_image_inside_isotypic_block():
    lam, k = (2, 1), 2
    bas = bf.IndexedBasis.tensor_power(k, 3)
    c = bf.young_symmetrizer(lam, k, basis=bas)
    p = bf.isotypic_projector(lam, k, basis=bas)
    assert bf.compose(p, c) == c


# ---------------------------------------------------------------------------
# commutants


def commutant(gens, cartans=()):
    """``T.commutant_dim`` on the image terms of oracle operators that
    share one square basis."""
    return T.commutant_dim([g.terms() for g in gens], len(gens[0].domain),
                           [h.terms() for h in cartans])


def test_commutant_s3_on_cube_of_c2():
    bas = bf.IndexedBasis.tensor_power(2, 3)
    gens = [bf.sn_action((1, 0, 2), 2, 3, basis=bas),
            bf.sn_action((0, 2, 1), 2, 3, basis=bas)]
    got = commutant(gens)
    assert got == sum(W.weyl_dim(lam, 2) ** 2 for lam in W.partitions_of(3))
    assert got == 20


def test_commutant_matches_dense_oracle():
    bas = bf.IndexedBasis.tensor_power(2, 2)
    gens = [bf.sn_action((1, 0), 2, 2, basis=bas),
            bf.gl_tensor_action(0, 1, 2, 2, basis=bas)]
    d = len(bas)
    rows = []
    for g in gens:
        dense = [[Fraction(0)] * d for _ in range(d)]
        for (r, c), v in g.data.items():
            dense[r][c] = v
        for i in range(d):
            for l in range(d):
                row = [Fraction(0)] * (d * d)
                for j in range(d):
                    row[i * d + j] += dense[j][l]
                    row[j * d + l] -= dense[i][j]
                rows.append(row)
    assert commutant(gens) == bf.dense_nullity(rows, d * d)


def test_joint_commutant_is_multiplicity_count():
    # commutant of both the slot permutations and the diagonal gl action
    for n, k in [(2, 2), (3, 2), (3, 3)]:
        bas = bf.IndexedBasis.tensor_power(k, n)
        gens = [bf.sn_action(s, k, n, basis=bas)
                for s in permutations(range(n))]
        gens += [bf.gl_tensor_action(i, j, k, n, basis=bas)
                 for i in range(k) for j in range(k)]
        labels = [lam for lam in W.partitions_of(n) if W.weyl_dim(lam, k)]
        assert commutant(gens) == len(labels)


def test_commutant_cartan_blocks_match_plain_solve():
    bas = bf.IndexedBasis.tensor_power(2, 2)
    carts = [bf.gl_tensor_action(i, i, 2, 2, basis=bas) for i in range(2)]
    others = [bf.gl_tensor_action(0, 1, 2, 2, basis=bas),
              bf.gl_tensor_action(1, 0, 2, 2, basis=bas),
              bf.sn_action((1, 0), 2, 2, basis=bas)]
    assert commutant(others, cartans=carts) == commutant(others + carts)


def test_gl_commutant_dim_asks_only_for_chevalley_and_cartan_generators():
    bas = bf.IndexedBasis.tensor_power(2, 2)
    gl2 = {(i, j): bf.gl_tensor_action(i, j, 2, 2, basis=bas).terms()
           for i in range(2) for j in range(2)}
    asked = []

    class Family(dict):
        def __getitem__(self, key):
            asked.append(key)
            return super().__getitem__(key)

    # the tensor square of C^2 is Sym^2 + Wedge^2, each once
    assert T.gl_commutant_dim(Family(gl2), len(bas)) == 2
    assert sorted(asked) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # rank 1, all Cartan: E_00 alone has eigenvalues 2, 1, 1, 0
    asked.clear()
    assert T.gl_commutant_dim(Family({(0, 0): gl2[(0, 0)]}), len(bas)) \
        == 1 + 2 ** 2 + 1
    assert asked == [(0, 0)]


def test_commutant_dim_refuses_a_cartan_that_is_not_diagonal():
    bas = bf.IndexedBasis.tensor_power(2, 2)
    e01 = bf.gl_tensor_action(0, 1, 2, 2, basis=bas)
    with pytest.raises(InvariantBroken, match="diagonal"):
        commutant([e01], cartans=[e01])


def test_a_generator_commuting_with_every_x_yields_no_rows():
    """Every entry of (AX - XA)[t, c] cancels for the identity A, so no
    row is yielded."""
    block = {c: blk for blk in (range(2), range(2, 5)) for c in blk}
    rows = T.commutator_rows(lambda c: [(c, 1)], range(5), block.__getitem__,
                             lambda r, c: (r, c))
    assert list(rows) == []


@pytest.mark.parametrize("key", [(0, 1), (1, 1)],
                         ids=["beside-diagonal-maps", "no-diagonal-map"])
def test_gl_relation_failures_refuses_a_map_leaving_the_columns(key):
    """E_01, checked against the diagonal E_00 and E_11 by eigenvalues, or
    E_11, which is then not diagonal and goes to the product check, sends
    column 1 to column 2 as well: a shape error, not a failed pair."""
    gl2 = {(i, j): (lambda c, i=i, j=j: [(i, 1)] if c == j else [])
           for i, j in product(range(2), repeat=2)}  # column j to row i
    assert T.gl_relation_failures({"k": gl2}, range(2)) == []
    inside = gl2[key]
    gl2[key] = lambda c: inside(c) + ([(2, 1)] if c == 1 else [])
    with pytest.raises(ShapeMismatch, match="outside the columns"):
        T.gl_relation_failures({"k": gl2}, range(2))


def test_gram_matrix_weights_each_coordinate():
    vecs = [{0: Fraction(1), 2: Fraction(1, 2)}, {2: Fraction(2)},
            {1: Fraction(3)}]
    plain = T.gram_matrix(vecs, lambda o: 1)
    assert bf.dense_rows(plain) == [[Fraction(5, 4), 1, 0], [1, 4, 0],
                                    [0, 0, 9]]
    weighted = T.gram_matrix(vecs, [1, 5, 7].__getitem__)
    assert bf.dense_rows(weighted) == [
        [Fraction(11, 4), 7, 0], [7, 28, 0], [0, 0, 45]]
    for rows in (plain, weighted):  # sparse rows: no zero, symmetric
        assert all(v for row in rows for v in row.values())
        assert all(rows[c][r] == v for r, row in enumerate(rows)
                   for c, v in row.items())
    # coordinates may be any keys, such as (monomial, word) pairs
    pairs = [{(f, 0): x for f, x in vec.items()} for vec in vecs]
    assert T.gram_matrix(pairs, lambda key: [1, 5, 7][key[0]]) == weighted
    assert T.gram_matrix([], lambda o: 1) == []


def test_commutant_cap():
    # 2^8 basis vectors, so 2^16 unknowns: refused before any equation
    gens = [bf.sn_action((1, 0) + tuple(range(2, 8)), 2, 8)]
    assert len(gens[0].domain) ** 2 > T.BASIS_CAP
    with pytest.raises(TooLarge):
        commutant(gens)


# ---------------------------------------------------------------------------
# kernel utilities


def test_kernel_basis_handles_cancelling_rows():
    rows = [{0: Fraction(1), 1: Fraction(-1)},
            {0: Fraction(0), 1: Fraction(0)}]
    kern = T.kernel_basis(rows, 2)
    assert len(kern) == 1
