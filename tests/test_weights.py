"""Weight and partition combinatorics against brute-force oracles."""

import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from howe_forge import weights as W
from howe_forge.errors import BadWeight, EmptyShape, NotRenormalizable, \
    ShapeMismatch


@st.composite
def partition_strategy(draw, max_size=6, max_rows=None):
    n = draw(st.integers(min_value=0, max_value=max_size))
    rows = max_rows or n
    opts = list(W.partitions_of(n, max_rows=rows)) or [()]
    return draw(st.sampled_from(opts))


# ---------------------------------------------------------------------------
# dimensions

# Frozen values computed by the SSYT / standard tableau enumerators in
# bruteforce.py before the closed forms were written.
WEYL_TABLE = [
    ((2, 1), 3, 8),
    ((2, 1), 2, 2),
    ((3,), 2, 4),
    ((1, 1, 1), 2, 0),
    ((2, 2), 3, 6),
    ((3, 1), 4, 45),
    ((4,), 3, 15),
    ((), 5, 1),
]

SN_TABLE = [((2, 1), 2), ((3,), 1), ((1, 1, 1), 1), ((2, 2), 2), ((3, 2, 1), 16), ((4, 1), 4)]


@pytest.mark.parametrize("shape,k,expected", WEYL_TABLE)
def test_weyl_dim_frozen(shape, k, expected):
    assert W.weyl_dim(shape, k) == expected


@pytest.mark.parametrize("shape,expected", SN_TABLE)
def test_sn_dim_frozen(shape, expected):
    assert W.sn_dim(shape) == expected


@given(partition_strategy(max_size=6), st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_weyl_dim_matches_tableau_count(shape, k):
    assert W.weyl_dim(shape, k) == bf.count_ssyt(shape, k)


@given(partition_strategy(max_size=6).filter(lambda p: p))
@settings(max_examples=40, deadline=None)
def test_sn_dim_matches_tableau_count(shape):
    assert W.sn_dim(shape) == bf.count_standard_tableaux(shape)


def test_sn_dim_rejects_empty_shape():
    with pytest.raises(EmptyShape):
        W.sn_dim(())


def test_weyl_dim_more_rows_than_rank_is_zero():
    assert W.weyl_dim((1, 1, 1), 2) == 0
    assert W.weyl_dim((2, 2, 1, 1), 3) == 0


def test_signed_weight_dim_agrees_with_hook_content_on_partitions():
    for lam in [(2, 1), (3,), (2, 2), (1, 1, 1)]:
        k = 3
        padded = lam + (0,) * (k - len(lam))
        assert W.signed_weight_dim(padded, k) == W.weyl_dim(lam, k)


def test_signed_weight_dim_examples():
    assert W.signed_weight_dim((1, 0, -1), 3) == 8
    assert W.signed_weight_dim((0, -2), 2) == 3


# ---------------------------------------------------------------------------
# characters


def test_character_frozen_values():
    assert W.sn_character((2, 1), (1, 1, 1)) == 2
    assert W.sn_character((2, 1), (3,)) == -1
    assert W.sn_character((2, 1), (2, 1)) == 0
    assert W.sn_character((1, 1, 1), (2, 1)) == -1


def test_character_identity_class_is_dimension():
    for lam in [(2, 1), (2, 2), (3, 1), (3, 2, 1)]:
        n = sum(lam)
        assert W.sn_character(lam, (1,) * n) == W.sn_dim(lam)


@pytest.mark.parametrize("shape", [(2, 1), (3,), (2, 2), (3, 1)])
def test_character_matches_regular_module_oracle(shape):
    n = sum(shape)
    for mu in W.partitions_of(n):
        sigma = next(p for p in permutations(range(n)) if bf.perm_cycle_type(p) == mu)
        assert W.sn_character(shape, mu) == bf.character_from_perm_matrices(shape, sigma)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.permutations(range(n))))
def test_perm_cycle_type_and_sign_against_inversions(sigma):
    sigma = tuple(sigma)
    assert W.perm_cycle_type(sigma) == bf.perm_cycle_type(sigma)
    inversions = sum(a > b for i, a in enumerate(sigma) for b in sigma[i + 1:])
    assert W.perm_sign(sigma) == (-1) ** inversions


def test_character_orthogonality():
    # first orthogonality relation, all shapes of size 4 and 5
    for n in (4, 5):
        shapes = list(W.partitions_of(n))
        for lam in shapes:
            for mu in shapes:
                total = sum(
                    bf.cycle_type_class_size(rho)
                    * W.sn_character(lam, rho)
                    * W.sn_character(mu, rho)
                    for rho in W.partitions_of(n)
                )
                assert total == (math.factorial(n) if lam == mu else 0)


def test_character_size_mismatch():
    with pytest.raises(ShapeMismatch):
        W.sn_character((2, 1), (2, 2))


# ---------------------------------------------------------------------------
# Cauchy sums


def test_cauchy_frozen_22():
    rep = W.cauchy_check(2, 2, 2)
    assert dict((lab, pr) for lab, _, _, pr in rep.terms) == {(2,): 9, (1, 1): 1}
    assert rep.total == rep.expected == 10


def test_cauchy_frozen_32():
    rep = W.cauchy_check(3, 2, 3)
    assert dict((lab, pr) for lab, _, _, pr in rep.terms) == {(3,): 40, (2, 1): 16}
    assert rep.total == rep.expected == 56


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=6),
)
@settings(max_examples=50, deadline=None)
def test_cauchy_identity_property(k, M, n):
    rep = W.cauchy_check(k, M, n)
    assert rep.ok
    assert rep.expected == math.comb(k * M + n - 1, n)


def test_cauchy_degree_zero():
    rep = W.cauchy_check(3, 2, 0)
    assert rep.total == rep.expected == 1


# ---------------------------------------------------------------------------
# Kostka numbers


def test_kostka_against_ssyt_filter():
    for lam in [(2, 1), (3, 1), (2, 2)]:
        n = sum(lam)
        for mu in W.partitions_of(n, max_rows=3):
            cont = mu + (0,) * (3 - len(mu))
            assert W.kostka(lam, cont) == bf.count_ssyt_content(lam, cont)


def test_kostka_content_permutation_invariance():
    assert W.kostka((2, 1), (1, 2, 0)) == W.kostka((2, 1), (2, 1, 0))
    assert W.kostka((2, 1), (1, 1, 1)) == 2


# ---------------------------------------------------------------------------
# branching


@given(partition_strategy(max_size=6, max_rows=3), st.integers(min_value=3, max_value=5))
@settings(max_examples=40, deadline=None)
def test_branch_dimension_identity(lam, k):
    """U(k+1) restricted to U(k): the Weyl dimensions of the interlacing
    labels, enumerated by brute force, add up to the dimension."""
    total = sum(W.weyl_dim(mu, k) for mu in bf.interlacing_labels(lam, k))
    assert total == W.weyl_dim(lam, k + 1)


# ---------------------------------------------------------------------------
# the two-block label layout


def test_two_block_layout_frozen():
    assert W.SignedWeight((2, 1), (1,)).shifted(3, 2, 2) == (5, 4, 0, -1)
    assert W.SignedWeight((1, 0), ()).shifted(2, 1, 1) == (3, 0)
    assert W.SignedWeight((), (2,)).shifted(0, 2, 1) == (0, 0, -2)
    assert W.padded((2, 1), 4) == (2, 1, 0, 0)
    assert W.SignedWeight.of(([2, 1], [1])) == W.SignedWeight((2, 1), (1,))
    w = W.SignedWeight((1,), ())
    assert W.SignedWeight.of(w) is w
    assert W.SignedWeight((), (2, 1)).columns(1, 3) == ((0,), (0, 1, 2))
    assert W.SignedWeight.read((2, 0, -1), 1, 1) == W.SignedWeight((2,), (1,))
    assert W.SignedWeight.read((1, 1, -1), 1, 1) is None


@pytest.mark.parametrize("entries,k,reason", [
    ((1, 3, -1), 2, "entry below the rank: 1 < 2"),  # nor dominant
    ((3, 4, -1), 2, "weight blocks are not dominant"),
    ((3, 2, 1), 2, "negative block entry matches no label"),
    ((3, 3, -1), 1, "label needs 3 rows, rank is 1"),
], ids=["below-rank", "not-dominant", "negative-entry", "too-many-rows"])
def test_unshifted_names_why_no_label_shifts_to_a_weight(entries, k, reason):
    """The four reasons, in the order ``unshifted`` tests them, for
    U(2, 1) weights."""
    with pytest.raises(BadWeight) as info:
        W.SignedWeight.unshifted(entries, k, 2, 1)
    assert str(info.value) == reason


@given(st.integers(min_value=0, max_value=4),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2), st.data())
@settings(max_examples=80, deadline=None)
def test_shifted_matches_the_hand_built_layout(k, M, N, zeros, data):
    """``shifted`` is the partitions padded to M and N rows, k added to
    the m block and the n block reversed and negated; trailing zeros on a
    block are no rows, even past M or N."""
    m = data.draw(partition_strategy(max_size=5, max_rows=M))
    n = data.draw(partition_strategy(max_size=5, max_rows=N))
    pm, pn = m + (0,) * (M - len(m)), n + (0,) * (N - len(n))
    want = tuple(x + k for x in pm) + tuple(-x for x in reversed(pn))
    assert W.SignedWeight(m + (0,) * zeros, n).shifted(k, M, N) == want
    assert W.SignedWeight(m, n + (0,) * zeros).shifted(k, M, N) == want


# ---------------------------------------------------------------------------
# renormalization


def test_renormalize_frozen():
    out = W.renormalize_weight(W.SignedWeight((3, 1), (2,)), 2, 1)
    assert out.entries == (Fraction(3), Fraction(2), Fraction(-3))
    out = W.renormalize_weight(W.SignedWeight((1,), (1,)), 1, 1)
    assert out.entries == (Fraction(3, 2), Fraction(-3, 2))
    assert not out.is_integral


def test_renormalize_rejects_repeats():
    with pytest.raises(NotRenormalizable):
        W.renormalize_weight(W.SignedWeight((2, 2), (1,)), 2, 1)
    with pytest.raises(NotRenormalizable):
        W.renormalize_weight(W.SignedWeight((2, 1), (0,)), 2, 1)


@st.composite
def strict_block(draw, length):
    base = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=length, max_size=length))
    # make strictly decreasing by cumulative offsets
    vals = []
    acc = 0
    for b in reversed(base):
        acc += b
        vals.append(acc)
    return tuple(reversed(vals))


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=50, deadline=None)
def test_renormalize_blocks_stay_weakly_decreasing(M, N, data):
    m = data.draw(strict_block(M))
    n = data.draw(strict_block(N))
    out = W.renormalize_weight(W.SignedWeight(m, n), M, N).entries
    mblock = out[:M]
    nblock = out[M:]
    assert all(mblock[i] >= mblock[i + 1] for i in range(M - 1))
    assert all(nblock[i] >= nblock[i + 1] for i in range(N - 1))


# ---------------------------------------------------------------------------
# shift bookkeeping


def test_shift_dec2():
    assert W.shift_weight(2, "hf", "dec2", k=4, side="left").entries == (
        Fraction(5, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert W.shift_weight(2, "hf", "dec2", k=4, side="right").entries == (Fraction(4),)
    assert W.shift_weight(2, "sq", "dec2", k=4, side="left").entries == (2, 0, 0, 0)
    assert W.shift_weight(2, "sq", "dec2", k=4, side="right").entries == (2,)


def test_shift_howehf():
    assert W.shift_weight((), "hf", "howehf", k=2, M=2, side="left").entries == (1, 1)
    assert W.shift_weight((), "hf", "howehf", k=2, M=2, side="right").entries == (1, 1)
    assert W.shift_weight((2, 1), "hf", "howehf", k=3, M=2, side="left").entries == (3, 2, 1)
    assert W.shift_weight((2, 1), "hf", "howehf", k=3, M=2, side="right").entries == (
        Fraction(7, 2), Fraction(5, 2))


def test_shift_kave():
    got = W.shift_weight(((1,), (1,)), "sq", "kave", k=3, M=1, N=1, side="right")
    assert got.entries == (4, -1)
    left = W.shift_weight(((1,), (1,)), "sq", "kave", k=3, M=1, N=1, side="left")
    assert left.entries == (1, 0, -1)
    got2 = W.shift_weight(((1,), (1,)), "hf", "kave2", k=3, M=1, N=1, side="right")
    assert got2.entries == (Fraction(5, 2), Fraction(-5, 2))


@given(
    st.sampled_from(["dec2", "howehf", "kave", "kave2"]),
    st.sampled_from(["left", "right"]),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_shift_hf_sq_differ_by_constant_vector(context, side, k, data):
    if context == "dec2":
        w = data.draw(st.integers(min_value=0, max_value=5))
        kwargs = dict(k=k)
    elif context == "howehf":
        M = data.draw(st.integers(min_value=1, max_value=3))
        w = data.draw(partition_strategy(max_size=4, max_rows=min(k, M)))
        kwargs = dict(k=k, M=M)
    else:
        M = data.draw(st.integers(min_value=1, max_value=2))
        N = data.draw(st.integers(min_value=1, max_value=2))
        mfree = data.draw(st.integers(min_value=0, max_value=min(M, k)))
        nfree = data.draw(st.integers(min_value=0, max_value=min(N, k - mfree)))
        m = tuple(sorted(data.draw(
            st.lists(st.integers(1, 3), min_size=mfree, max_size=mfree)), reverse=True))
        n = tuple(sorted(data.draw(
            st.lists(st.integers(1, 3), min_size=nfree, max_size=nfree)), reverse=True))
        w = (m + (0,) * (M - mfree), n + (0,) * (N - nfree))
        kwargs = dict(k=k, M=M, N=N)
    hf = W.shift_weight(w, "hf", context, side=side, **kwargs)
    sq = W.shift_weight(w, "sq", context, side=side, **kwargs)
    diffs = {h - s for h, s in zip(hf.doubled, sq.doubled)}
    assert len(diffs) == 1  # constant determinant-power twist


def test_shift_rejects_unknown_context():
    with pytest.raises(ShapeMismatch):
        W.shift_weight((1,), "sq", "nonsense", k=2, M=1)


@pytest.mark.parametrize("kwargs", [dict(N=1), dict(M=1)],
                         ids=["no-M", "no-N"])
def test_shift_kave_needs_both_group_sizes(kwargs):
    """M and N are never read off the blocks: a missing one is a length
    mismatch."""
    with pytest.raises(ShapeMismatch, match="do not match"):
        W.shift_weight(((1,), (1,)), "sq", "kave", k=3, side="right",
                       **kwargs)


# ---------------------------------------------------------------------------
# half-integer weight plumbing


def test_halfint_weight_roundtrip():
    w = W.HalfIntWeight.from_entries([Fraction(7, 2), Fraction(-3, 2)])
    assert str(w) == "(7/2, -3/2)"
    assert w.doubled == (7, -3) and w.entries == (Fraction(7, 2),
                                                  Fraction(-3, 2))
    assert W.HalfIntWeight.from_entries(w.entries) == w
    assert not w.is_integral
    v = W.HalfIntWeight.from_entries([4, -1], group="U(1,1)")
    assert v.is_integral and v.entries == (4, -1)
    assert str(v) == "U(1,1)(4, -1)"


def test_halfint_weight_rejects_thirds():
    with pytest.raises(ShapeMismatch):
        W.HalfIntWeight.from_entries([Fraction(1, 3)])
