"""Floating-point checks of the matrix phase space behind the algebra.

The phase space is the set of complex k x (M+N) matrices: column a is a
vector psi_a in C^k, and the first M columns count positively while the
last N count negatively (the signature matrix eta = diag(1_M, -1_N)).
Two momentum maps live here: a right one eta * (psi^dagger psi) valued in
(M+N) x (M+N) matrices, and a left one psi * eta * psi^dagger valued in
k x k Hermitian matrices.  On a frame of orthogonal columns with squared
norms read off a two-block weight, the right map is the diagonal target
matrix and the left map has the realized weight vector as its spectrum.

Everything here is float64 with a global default tolerance.  The
momentum pairings are checked exactly on the matrix units of gl(M+N) and
gl(k), so that check draws nothing.  The level-set frames and the group
elements of the invariance check are seeded samples, and the seed travels
with the point so reports are reproducible.  Those group elements are
Cayley transforms C(iH/2) in U(k) and C(i eta H / 4) in U(M,N), close to
exp(iH) and exp(i eta H / 2); they take one normal draw per point and one
stacked linear solve each.  The boost has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import weights as W
from .errors import BadWeight, RankTooSmall, ShapeMismatch

DEFAULT_TOL = 1e-9


def eta_matrix(M: int, N: int) -> np.ndarray:
    """Signature matrix diag(1_M, -1_N)."""
    return np.diag(np.concatenate([np.ones(M), -np.ones(N)]))


@dataclass
class ConstrainedPoint:
    """A point of the matrix phase space, with its signature and the
    two-block weight it is meant to sit over."""

    psi: np.ndarray
    signature: tuple[int, int]
    target: W.SignedWeight
    seed: int | None = None

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.psi.ndim != 2:
            raise ShapeMismatch(f"psi must be a matrix, got ndim={self.psi.ndim}")
        M, N = self.signature
        if self.psi.shape[1] != M + N:
            raise ShapeMismatch(
                f"psi has {self.psi.shape[1]} columns, signature needs {M + N}")

    @property
    def k(self) -> int:
        return self.psi.shape[0]

    @cached_property
    def eta(self) -> np.ndarray:
        """The signature matrix, built once per point."""
        return eta_matrix(*self.signature)


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def signed_pairing(psi: np.ndarray, phi: np.ndarray, eta: np.ndarray):
    """The signed sesquilinear form: sum_a eta_a <psi_a, phi_a>, for the
    signature matrix eta, conjugate-linear in the second argument.  psi
    may be a stack of matrices shaped like phi; the result is then an
    array."""
    if psi.shape[-2:] != phi.shape:
        raise ShapeMismatch(f"shapes differ: {psi.shape} vs {phi.shape}")
    out = np.trace(eta @ _dagger(phi) @ psi, axis1=-2, axis2=-1)
    return complex(out) if out.ndim == 0 else out


def _right_map(psi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    return eta @ _dagger(psi) @ psi


def _left_map(psi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    return psi @ eta @ _dagger(psi)


def moment_right(p: ConstrainedPoint) -> np.ndarray:
    """eta * Gram matrix of the columns; diagonal on a level-set frame."""
    return _right_map(p.psi, p.eta)


def moment_left(p: ConstrainedPoint) -> np.ndarray:
    """psi * eta * psi^dagger, the signed sum of column projectors; a
    k x k Hermitian matrix."""
    return _left_map(p.psi, p.eta)


def target_matrix(w: W.SignedWeight, M: int, N: int) -> np.ndarray:
    """diag(m_1..m_M, -n_N..-n_1): the prescribed right-map value."""
    return np.diag(w.shifted(0, M, N))


def target_spectrum(w: W.SignedWeight, k: int) -> np.ndarray:
    """The realized weight vector as a descending float array."""
    return np.asarray(w.realize(k), dtype=float)


def sample_level_set(w, k: int, seed: int = 0) -> ConstrainedPoint:
    """Seeded random frame of mutually orthogonal columns with squared
    norms the label's ``columns``: m_1..m_M, then n_N..n_1."""
    w = W.SignedWeight.of(w)
    M, N = len(w.m), len(w.n)
    if k < M + N:
        raise RankTooSmall(f"need {M + N} orthogonal columns, rank is {k}")
    entries = w.m + w.n
    if any(x <= 0 for x in entries):
        raise BadWeight(f"level-set norms must be positive, got {entries}")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((k, M + N)) + 1j * rng.standard_normal((k, M + N))
    # modified Gram-Schmidt, then rescale to the prescribed norms
    for a in range(M + N):
        for b in range(a):
            raw[:, a] -= (raw[:, b].conj() @ raw[:, a]) * raw[:, b]
        norm = np.linalg.norm(raw[:, a])
        if norm < 1e-12:
            raise BadWeight("degenerate random frame; retry with another seed")
        raw[:, a] /= norm
    xs, ys = w.columns(M, N)
    psi = raw * np.sqrt(xs + ys)
    return ConstrainedPoint(psi, (M, N), w, seed)


# ---------------------------------------------------------------------------
# group elements


def _cayley(a: np.ndarray) -> np.ndarray:
    """The Cayley transform (I - A)^-1 (I + A) of a matrix or of each matrix
    in a stack, by one linear solve.  It maps an anti-Hermitian A into U(d)
    and an A with A^dagger eta + eta A = 0 into U(M,N); C(X/2) = exp(X) +
    O(X^3) (Hairer, Lubich & Wanner, Geometric Numerical Integration,
    IV.8)."""
    ident = np.eye(a.shape[-1])
    return np.linalg.solve(ident - a, ident + a)


def _hermitian(rows: np.ndarray, d: int) -> np.ndarray:
    x = rows.reshape(len(rows), 2, d, d)
    a = x[:, 0] + 1j * x[:, 1]
    return (a + _dagger(a)) / 2


def group_samples(k: int, eta: np.ndarray, samples: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Stacks of `samples` unitaries C(iH/2) in U(k) and, unless eta is
    empty, as many pseudo-unitaries C(i eta H / 4), which preserve the
    signed form, for C the Cayley transform; the generators come from one
    normal draw with a row of parts per sample (left real, left imaginary,
    right real, right imaginary)."""
    n = len(eta)
    draws = rng.standard_normal((samples, 2 * (k * k + n * n)))
    left, right = np.split(draws, [2 * k * k], axis=1)
    return (_cayley(0.5j * _hermitian(left, k)),
            _cayley(0.25j * eta @ _hermitian(right[:samples if n else 0], n)))


def boost(M: int, N: int, rapidity: float) -> np.ndarray:
    """exp(i r eta h) for h the symmetric mixer of slots 0 and M, in closed
    form: cosh r on both, +-i sinh r across.  Non-unitary for r != 0."""
    if M == 0 or N == 0:
        raise ShapeMismatch("a boost needs a positive and a negative slot")
    U = np.eye(M + N, dtype=complex)
    U[0, 0] = U[M, M] = math.cosh(rapidity)
    U[0, M], U[M, 0] = 1j * math.sinh(rapidity), -1j * math.sinh(rapidity)
    return U


def is_pseudo_unitary(U: np.ndarray, eta: np.ndarray) -> bool:
    """U eta U^dagger = eta for the signature matrix eta, to DEFAULT_TOL
    times max(1, ||U||^2) with ||U|| the largest row 2-norm of U: by
    Cauchy-Schwarz it bounds each entry of U eta U^dagger, so rounding
    there grows with it, as in a boost of large rapidity.  No report
    tolerance enters, since a report may ask for less than rounding."""
    dev = np.max(np.abs(U @ eta @ U.conj().T - eta), initial=0.0)
    return bool(dev <= DEFAULT_TOL or dev <= DEFAULT_TOL * np.max(
        np.sum(np.abs(U) ** 2, axis=1)))


def stabilizer_defect(p: ConstrainedPoint, U: np.ndarray) -> float:
    """Frobenius distance the right action of U moves the point, a
    pseudo-unitary; zero only for the identity once the frame norms are
    pinned."""
    if not is_pseudo_unitary(U, p.eta):
        raise ShapeMismatch(f"matrix is not pseudo-unitary for {p.signature}")
    return float(np.linalg.norm(p.psi @ U - p.psi))


# ---------------------------------------------------------------------------
# checks and the per-sample report


def pairing_deviation(p: ConstrainedPoint) -> float:
    """Both momentum maps against their defining pairings,
    (psi X, psi)_S = tr(X G) on the right and (Y psi, psi)_S = tr(Y rho)
    on the left.  Both sides are complex-linear in the generator, so the
    matrix units of gl(M+N) and gl(k) cover every X in u(M,N) and every Y
    in u(k); the check is exact and draws nothing.  A unit E_ab gives
    tr(E_ab Z) = Z[b, a], and E_ab psi is psi's row b moved to row a, so
    the k^2 images on the left are written straight into a k^3 (M+N)
    stack, with no k^4 stack of the units themselves."""
    k, n = p.psi.shape
    X = np.eye(n * n).reshape(n * n, n, n)
    Ypsi = np.eye(k)[:, None, :, None] * p.psi[:, None]  # [a, b, a] = psi[b]
    right = signed_pairing(p.psi @ X, p.psi, p.eta) - moment_right(p).T.ravel()
    left = signed_pairing(Ypsi.reshape(k * k, k, n), p.psi, p.eta) \
        - moment_left(p).T.ravel()
    return float(np.max(np.abs(np.concatenate([right, left])), initial=0.0))


def invariance_deviation(p: ConstrainedPoint, samples: int = 10,
                         rng: np.random.Generator | None = None) -> float:
    """Left unitaries fix the right map and the left spectrum; right
    pseudo-unitaries fix the left map.  All samples are moved at once."""
    if rng is None:
        rng = np.random.default_rng(p.seed or 0)
    psi, eta = p.psi, p.eta
    g, U = group_samples(p.k, eta, samples, rng)
    rho = _left_map(psi, eta)
    moved = g @ psi
    devs = (_right_map(moved, eta) - _right_map(psi, eta),
            np.linalg.eigvalsh(_left_map(moved, eta))
            - np.linalg.eigvalsh(rho),
            _left_map(psi @ U, eta) - rho)
    return max(float(np.max(np.abs(d), initial=0.0)) for d in devs)


def stabilizer_ok(p: ConstrainedPoint, tol: float = DEFAULT_TOL) -> bool:
    """The right action moves every level-set point unless the element is
    the identity: zero defect at the identity, and phase/boost elements
    produce a defect bounded below by the smallest frame norm."""
    M, N = p.signature
    if stabilizer_defect(p, np.eye(M + N)) > tol:
        return False
    if M + N == 0:
        return True
    theta = 0.3
    U = np.eye(M + N, dtype=complex)
    U[0, 0] = np.exp(1j * theta)
    min_norm = math.sqrt(min(p.target.m + p.target.n))
    if stabilizer_defect(p, U) < abs(np.exp(1j * theta) - 1) * min_norm - tol:
        return False
    if M and N:
        if stabilizer_defect(p, boost(M, N, 0.5)) <= 1e-6:
            return False
    return True


def verify_orbit(p: ConstrainedPoint, tol: float = DEFAULT_TOL) -> dict:
    """Spectrum of the left map against the realized weight vector, plus
    the pairing check on a basis, the invariance check on group samples
    seeded by the point, and the stabilizer check, as one JSON report;
    ``ok`` when the deviation is within tolerance and every check holds."""
    spec = np.linalg.eigvalsh(moment_left(p))[::-1]  # descending
    want = target_spectrum(p.target, p.k)
    max_dev = float(np.max(np.abs(spec - want), initial=0.0))
    right_dev = float(np.max(np.abs(moment_right(p)
                                    - target_matrix(p.target, *p.signature)),
                             initial=0.0))
    max_dev = max(max_dev, right_dev)
    checks = {
        "pairing": bool(pairing_deviation(p) <= tol),
        "invariance": bool(invariance_deviation(p) <= tol),
        "stabilizer": stabilizer_ok(p, tol),
    }
    return {
        "weight": {"m": list(p.target.m), "n": list(p.target.n)},
        "k": p.k,
        "seed": p.seed,
        "spectrum": [float(x) for x in spec],
        "max_dev": max_dev,
        "checks": checks,
        "ok": max_dev <= tol and all(checks.values()),
    }
