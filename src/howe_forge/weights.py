"""Partition and weight combinatorics.

Dimensions and characters of symmetric-group and unitary-group irreps,
Kostka numbers, paired dimension sums, and the half-integer weight
shifts that relate plainly quantized labels to their metaplectically
corrected counterparts.  Everything in this module is exact integer or
half-integer arithmetic; no floats.

Partitions are plain tuples of weakly decreasing nonnegative ints with
trailing zeros stripped.  Half-integer weights store doubled entries so
that equality stays exact.

The two-block label layout lives here alone: ``padded`` fills a block
out to its rows, ``SignedWeight.columns``, ``.realize`` and ``.shifted``
lay a label out, and ``.read`` and ``.unshifted`` read it back.

Every report dataclass of the package derives from ``Report``: its
JSON is its fields, in declaration order, plus ``ok``, so no report
writes its own ``to_json``.  ``as_json`` is the one serializer; only
the induced modules of ``rieffel`` write their own JSON, which renames
their fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import BadWeight, EmptyShape, InvariantBroken, \
    NotRenormalizable, ShapeMismatch

Partition = tuple[int, ...]


# ---------------------------------------------------------------------------
# partitions


def partition(parts: Iterable[int]) -> Partition:
    """Normalize to a weakly decreasing tuple, trailing zeros stripped."""
    t = tuple(int(p) for p in parts)
    if any(p < 0 for p in t):
        raise ShapeMismatch(f"negative part in {t}")
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise ShapeMismatch(f"parts not weakly decreasing: {t}")
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def padded(parts: Sequence[int], rows: int) -> tuple[int, ...]:
    """The parts followed by zeros, ``rows`` entries in all; never cut."""
    return tuple(parts) + (0,) * (rows - len(parts))


def partitions_of(n: int, max_rows: int | None = None) -> Iterator[Partition]:
    """All partitions of n, most-dominant first, optionally capped in length."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return

    def rec(remaining: int, largest: int, rows_left: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        if rows_left == 0:
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first, rows_left - 1):
                yield (first,) + rest

    rows = n if max_rows is None else min(max_rows, n)
    yield from rec(n, n, rows)


def partitions_upto(total: int, max_rows: int) -> list[Partition]:
    """The partitions of 0, 1, ..., total with at most max_rows rows, each
    size in ``partitions_of`` order."""
    return [lam for t in range(total + 1)
            for lam in partitions_of(t, max_rows=max_rows)]


def conjugate(shape: Partition) -> Partition:
    lam = partition(shape)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def hook_lengths(shape: Partition) -> list[list[int]]:
    lam = partition(shape)
    conj = conjugate(lam)
    return [
        [lam[i] - j + conj[j] - i - 1 for j in range(lam[i])]
        for i in range(len(lam))
    ]


# ---------------------------------------------------------------------------
# dimensions


def weyl_dim(shape: Partition, k: int) -> int:
    """Dimension of the U(k) irrep labelled by a partition.

    Hook content formula; returns 0 when the shape has more than k rows.
    """
    if k <= 0:
        raise ShapeMismatch(f"rank must be positive, got {k}")
    lam = partition(shape)
    num = 1
    den = 1
    conj = conjugate(lam)
    for i, row in enumerate(lam):
        for j in range(row):
            num *= k + j - i
            den *= row - j + conj[j] - i - 1
    if num == 0:
        return 0
    if num % den:
        raise InvariantBroken(f"hook product {num} not divisible by {den}")
    return num // den


def signed_weight_dim(w: Sequence[int], k: int) -> int:
    """Weyl dimension of the U(k) irrep with a possibly negative dominant
    integer highest weight w of length k: ``weyl_dim`` of the partition
    w - w_k (1, ..., 1), as the determinant power twisting one irrep into
    the other keeps the dimension.  The empty weight at rank 0 has
    dimension 1, and ``partition`` refuses a weight that is not dominant."""
    if len(w) != k:
        raise ShapeMismatch(f"weight length {len(w)} != rank {k}")
    return weyl_dim(partition(x - w[-1] for x in w), k) if k else 1


def sn_dim(shape: Partition) -> int:
    """Number of standard tableaux of the shape (hook length formula)."""
    lam = partition(shape)
    if not lam:
        raise EmptyShape("symmetric-group irreps need a nonempty shape")
    n = sum(lam)
    den = 1
    for row in hook_lengths(lam):
        for h in row:
            den *= h
    return math.factorial(n) // den


# ---------------------------------------------------------------------------
# symmetric group characters


def sn_character(shape: Partition, cycle_type: Partition) -> int:
    """Irreducible S_n character value on a conjugacy class."""
    lam = partition(shape)
    mu = partition(cycle_type)
    if not lam:
        raise EmptyShape("symmetric-group irreps need a nonempty shape")
    if sum(lam) != sum(mu):
        raise ShapeMismatch(f"|{lam}| != |{mu}|")
    if any(p == 0 for p in mu):
        raise ShapeMismatch("cycle type must have positive parts")
    return _murnaghan_nakayama(lam, mu)


@cache
def _murnaghan_nakayama(lam: Partition, mu: Partition) -> int:
    # Border strip recursion on beta numbers: removing a strip of length r
    # moves one beta number down by r; the sign counts crossings.
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    bset = set(beta)
    total = 0
    for b in beta:
        c = b - r
        if c < 0 or c in bset:
            continue
        height = sum(1 for x in beta if c < x < b)
        nb = sorted((bset - {b}) | {c}, reverse=True)
        newshape = tuple(nb[i] - (ell - 1 - i) for i in range(ell))
        newshape = tuple(p for p in newshape if p > 0)
        total += (-1) ** height * _murnaghan_nakayama(newshape, rest)
    return total


def perm_cycle_type(p: Sequence[int]) -> Partition:
    """Cycle lengths of a permutation of range(n), largest first."""
    seen = [False] * len(p)
    lens = []
    for start in range(len(p)):
        if seen[start]:
            continue
        ln, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = p[j]
            ln += 1
        lens.append(ln)
    return tuple(sorted(lens, reverse=True))


def perm_sign(p: Sequence[int]) -> int:
    """(-1)^(n - number of cycles)."""
    return -1 if (len(p) - len(perm_cycle_type(p))) % 2 else 1


# ---------------------------------------------------------------------------
# Kostka numbers


def kostka(shape: Partition, content: Sequence[int]) -> int:
    """Number of semistandard tableaux of the shape with the given content.

    The count only depends on the multiset of content entries, so the
    content is sorted before the cached recursion.
    """
    lam = partition(shape)
    cont = tuple(sorted((int(c) for c in content if c > 0), reverse=True))
    if sum(lam) != sum(cont):
        return 0
    return _kostka(lam, cont)


@cache
def _kostka(lam: Partition, cont: Partition) -> int:
    # Peel off all cells holding the largest letter: they form a horizontal
    # strip.  Recurse on the smaller shape and content.
    if not cont:
        return 1 if not lam else 0
    last = cont[-1]
    rest = cont[:-1]
    total = 0
    for smaller in _horizontal_strip_removals(lam, last):
        total += _kostka(smaller, rest)
    return total


def _horizontal_strip_removals(lam: Partition, size: int) -> Iterator[Partition]:
    # All mu obtained from lam by removing a horizontal strip of the size:
    # mu interlaces lam (lam_{i+1} <= mu_i <= lam_i) with |lam| - |mu| = size.
    ell = len(lam)

    def rec(i: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if i == ell:
            if remaining == 0:
                yield ()
            return
        lo = lam[i + 1] if i + 1 < ell else 0
        hi = lam[i]
        for m in range(hi, lo - 1, -1):
            removed = hi - m
            if removed > remaining:
                break
            for rest in rec(i + 1, remaining - removed):
                yield (m,) + rest

    for tail in rec(0, size):
        yield partition(tail)


# ---------------------------------------------------------------------------
# duality bookkeeping: paired dimension sums


def as_json(value):
    """A value as JSON data: what has a ``to_json`` as that, a named tuple
    as a dict of its fields, any other tuple as a list, their entries
    converted too; anything else as it stands."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {f: as_json(v) for f, v in zip(value._fields, value)}
    if isinstance(value, tuple):
        return [as_json(v) for v in value]
    return value


class Report:
    """Base of the frozen report dataclasses: the JSON of a report is its
    fields, in declaration order, then its ``ok`` verdict."""

    def to_json(self) -> dict:
        js = {f.name: as_json(getattr(self, f.name)) for f in fields(self)}
        js["ok"] = self.ok
        return js


class CauchyTerm(NamedTuple):
    label: Partition
    dim_k: int
    dim_M: int
    product: int


@dataclass(frozen=True)
class CauchyReport(Report):
    """Per-label dimension products for one graded degree, against the
    closed-form count of monomials."""

    k: int
    M: int
    degree: int
    terms: tuple[CauchyTerm, ...]
    total: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.total == self.expected


def cauchy_check(k: int, M: int, n: int) -> CauchyReport:
    """Sum weyl_dim(lam,k) * weyl_dim(lam,M) over partitions of n with at
    most min(k, M) rows and compare with C(kM+n-1, n)."""
    if k <= 0 or M <= 0 or n < 0:
        raise ShapeMismatch(f"bad parameters k={k}, M={M}, n={n}")
    terms = []
    total = 0
    for lam in partitions_of(n, max_rows=min(k, M)):
        dk = weyl_dim(lam, k)
        dm = weyl_dim(lam, M)
        terms.append(CauchyTerm(lam, dk, dm, dk * dm))
        total += dk * dm
    expected = math.comb(k * M + n - 1, n)
    return CauchyReport(k, M, n, tuple(terms), total, expected)


# ---------------------------------------------------------------------------
# signed and half-integer weights


@dataclass(frozen=True)
class SignedWeight:
    """A two-block weight: m for the positive block, n for the negative one.

    Entries are weakly decreasing and nonnegative within each block; the
    realized weight vector is (m_1, ..., m_M, 0, ..., 0, -n_N, ..., -n_1).
    """

    m: tuple[int, ...]
    n: tuple[int, ...]

    def __post_init__(self) -> None:
        for block in (self.m, self.n):
            if any(x < 0 for x in block):
                raise ShapeMismatch(f"negative entry in block {block}")
            if any(block[i] < block[i + 1] for i in range(len(block) - 1)):
                raise ShapeMismatch(f"block not weakly decreasing: {block}")

    @classmethod
    def of(cls, w) -> "SignedWeight":
        """``w`` itself, or the SignedWeight of an (m, n) pair."""
        if isinstance(w, cls):
            return w
        m, n = w
        return cls(tuple(m), tuple(n))

    @classmethod
    def read(cls, rows, M: int, N: int) -> "SignedWeight | None":
        """The inverse of ``realize`` on dominant ``rows``, its blocks
        padded to M and N rows; None when a block needs more."""
        m = tuple(x for x in rows if x > 0)
        n = tuple(-x for x in reversed(rows) if x < 0)
        if len(m) > M or len(n) > N:
            return None
        return cls(padded(m, M), padded(n, N))

    @classmethod
    def unshifted(cls, entries, k: int, M: int, N: int) -> "SignedWeight":
        """The inverse of ``shifted``, its blocks padded to M and N rows;
        ``BadWeight`` names why no label induces from integer ``entries``."""
        xs, ys = entries[:M], entries[M:]
        m, n = tuple(x - k for x in xs), tuple(-y for y in reversed(ys))
        if any(x < 0 for x in m):
            raise BadWeight(f"entry below the rank: {min(xs)} < {k}")
        if any(b[i] < b[i + 1] for b in (m, n) for i in range(len(b) - 1)):
            raise BadWeight("weight blocks are not dominant")
        if any(x < 0 for x in n):
            raise BadWeight("negative block entry matches no label")
        rows = sum(1 for x in m + n if x)
        if rows > k:
            raise BadWeight(f"label needs {rows} rows, rank is {k}")
        return cls(m, n)

    def columns(self, M: int, N: int) -> tuple[tuple[int, ...], ...]:
        """The label's x and y column sums: each block stripped of trailing
        zeros and padded to M and N rows, n then reversed, as gl(N) acts
        contragrediently.  Block lengths are not checked against M or N."""
        m, n = partition(self.m), partition(self.n)
        return padded(m, M), padded(n, N)[::-1]

    def realize(self, k: int) -> tuple[int, ...]:
        """The length-k weight vector, most dominant order: ``shifted``
        at rank 0, with n on its nonzero rows and m padded to the rest."""
        m, n = partition(self.m), partition(self.n)
        if len(m) + len(n) > k:
            raise ShapeMismatch(f"blocks {self.m}/{self.n} need rank >= "
                                f"{len(m) + len(n)}, got {k}")
        return self.shifted(0, k - len(n), len(n))

    def shifted(self, k: int, M: int, N: int) -> tuple[int, ...]:
        """(m_1+k, ..., m_M+k, -n_N, ..., -n_1): the U(M, N) weight the
        label induces from at rank k, its ``columns`` with k added to the
        x sums and the y sums negated."""
        xs, ys = self.columns(M, N)
        return tuple(x + k for x in xs) + tuple(-y for y in ys)


@dataclass(frozen=True)
class HalfIntWeight:
    """A weight with entries in (1/2)Z, stored as doubled integers."""

    doubled: tuple[int, ...]
    group: str = ""

    @classmethod
    def from_entries(cls, entries: Iterable, group: str = "") -> "HalfIntWeight":
        doubled = []
        for e in entries:
            f = Fraction(e)
            if f.denominator not in (1, 2):
                raise ShapeMismatch(f"entry {e} is not a half-integer")
            doubled.append(int(2 * f))
        return cls(tuple(doubled), group)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(d, 2) for d in self.doubled)

    @property
    def is_integral(self) -> bool:
        return all(d % 2 == 0 for d in self.doubled)

    def __str__(self) -> str:
        parts = []
        for d in self.doubled:
            parts.append(str(d // 2) if d % 2 == 0 else f"{d}/2")
        body = ", ".join(parts)
        return f"({body})" if not self.group else f"{self.group}({body})"


def renormalize_weight(w: SignedWeight, M: int, N: int) -> HalfIntWeight:
    """Half-form-corrected block weight attached to a strictly decreasing
    signed weight.

    Entry i of the m block becomes m_i + (N-M)/2 + i - 1/2; entry j of the
    n block becomes -(n_j + (M-N)/2 + j - 1/2), listed in the order
    (m entries, then the n entries with j running from N down to 1).  The
    output is weakly decreasing within each block but generically carries
    half-integer entries.
    """
    if M != len(w.m) or N != len(w.n):
        raise ShapeMismatch(
            f"block lengths ({len(w.m)}, {len(w.n)}) do not match (M, N)=({M}, {N})"
        )
    for block in (w.m, w.n):
        if any(block[i] <= block[i + 1] for i in range(len(block) - 1)):
            raise NotRenormalizable(f"block {block} is not strictly decreasing")
        if any(x <= 0 for x in block):
            raise NotRenormalizable(f"block {block} must be strictly positive")
    doubled = []
    for i, mi in enumerate(w.m, start=1):
        doubled.append(2 * mi + (N - M) + 2 * i - 1)
    for j in range(N, 0, -1):
        nj = w.n[j - 1]
        doubled.append(-(2 * nj + (M - N) + 2 * j - 1))
    return HalfIntWeight(tuple(doubled), group=f"U({M},{N})")


_SHIFT_CONTEXTS = ("dec2", "howehf", "kave", "kave2")


def shift_weight(
    w,
    convention: str,
    context: str,
    k: int | None = None,
    M: int | None = None,
    N: int | None = None,
    side: str = "left",
) -> HalfIntWeight:
    """Weight bookkeeping for the two quantization conventions.

    ``context`` picks which dual-pair setting the label lives in:

    * ``dec2``   rank-one compact pairing; ``w`` is a single degree n.
      It is ``howehf`` with M = 1 and the one-row label (n).
    * ``howehf`` general compact pairing; ``w`` is a partition.
      left = U(k) side, right = U(M) side.
    * ``kave`` / ``kave2`` the indefinite pairing; ``w`` is a SignedWeight
      (or an (m, n) pair of tuples).  left = U(k) side, right = the
      U(M,N) side.  Both context names accept both conventions; they are
      kept separate so call sites can name the identity they exercise.

    ``convention`` is ``sq`` for the plain second-quantized labels and
    ``hf`` for the half-form-corrected ones.  In every context the hf and
    sq outputs differ by a constant vector (a determinant power twist).
    """
    if context not in _SHIFT_CONTEXTS:
        raise ShapeMismatch(f"unknown context {context!r}")
    if convention not in ("sq", "hf"):
        raise ShapeMismatch(f"unknown convention {convention!r}")
    if side not in ("left", "right"):
        raise ShapeMismatch(f"unknown side {side!r}")
    hf = convention == "hf"

    if context == "dec2":
        context, w, M = "howehf", (int(w),), 1

    if context == "howehf":
        if k is None or k <= 0 or M is None or M <= 0:
            raise ShapeMismatch("howehf needs positive k and M")
        lam = partition(w)
        if len(lam) > min(k, M):
            raise ShapeMismatch(f"label {lam} needs at most min(k, M) rows")
        rows, shift, group = (k, M, "U(k)") if side == "left" else \
            (M, k, "U(M)")
        return HalfIntWeight(tuple(2 * p + (shift if hf else 0)
                                   for p in padded(lam, rows)), group=group)

    # kave / kave2
    if k is None or k <= 0:
        raise ShapeMismatch("indefinite contexts need a positive rank k")
    sw = SignedWeight.of(w)
    if M != len(sw.m) or N != len(sw.n):
        raise ShapeMismatch(
            f"blocks ({sw.m}, {sw.n}) do not match (M, N)=({M}, {N})"
        )
    if side == "left":
        realized = sw.realize(k)
        shift = (M - N) if hf else 0  # doubled entries: (M-N)/2 each
        return HalfIntWeight(tuple(2 * x + shift for x in realized), group="U(k)")
    # doubled: the shifted weight, less k/2 in every entry under hf
    return HalfIntWeight(tuple(2 * x - (k if hf else 0)
                               for x in sw.shifted(k, M, N)),
                         group=f"U({M},{N})")
