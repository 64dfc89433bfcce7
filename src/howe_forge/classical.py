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
with the point so reports are reproducible.  Those group elements,
exp(iH) in U(k) and exp(i eta H / 2) in U(M,N), come from ``_expm``,
numpy scaling and squaring over a whole stack of generators.
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


@dataclass
class OrbitElement:
    """A k x k Hermitian matrix with the tolerance it was produced under."""

    rho: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        if self.rho.ndim != 2 or self.rho.shape[0] != self.rho.shape[1]:
            raise ShapeMismatch(f"rho must be square, got shape {self.rho.shape}")

    def is_hermitian(self) -> bool:
        return bool(np.max(np.abs(self.rho - self.rho.conj().T), initial=0.0)
                    <= self.tol)

    def spectrum(self) -> np.ndarray:
        """Eigenvalues, sorted descending."""
        return np.linalg.eigvalsh(self.rho)[::-1]

    def trace(self) -> float:
        return float(np.trace(self.rho).real)


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


def symplectic_form(p: ConstrainedPoint, q: ConstrainedPoint) -> float:
    """-2 Im of the signed pairing; antisymmetric and real bilinear."""
    if p.signature != q.signature:
        raise ShapeMismatch(
            f"signatures differ: {p.signature} vs {q.signature}")
    return -2.0 * signed_pairing(p.psi, q.psi, p.eta).imag


def _right_map(psi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    return eta @ _dagger(psi) @ psi


def _left_map(psi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    return psi @ eta @ _dagger(psi)


def moment_right(p: ConstrainedPoint) -> np.ndarray:
    """eta * Gram matrix of the columns; diagonal on a level-set frame."""
    return _right_map(p.psi, p.eta)


def moment_left(p: ConstrainedPoint, tol: float = DEFAULT_TOL) -> OrbitElement:
    """psi * eta * psi^dagger, the signed sum of column projectors."""
    return OrbitElement(_left_map(p.psi, p.eta), tol)


def target_matrix(w: W.SignedWeight, M: int, N: int) -> np.ndarray:
    """diag(m_1..m_M, -n_N..-n_1): the prescribed right-map value."""
    diag = list(w.m[:M]) + [-x for x in reversed(w.n[:N])]
    return np.diag(np.asarray(diag, dtype=float))


def target_spectrum(w: W.SignedWeight, k: int) -> np.ndarray:
    """The realized weight vector as a descending float array."""
    return np.asarray(w.realize(k), dtype=float)


def _normalize_weight(w) -> W.SignedWeight:
    if isinstance(w, W.SignedWeight):
        return w
    m, n = w
    return W.SignedWeight(tuple(m), tuple(n))


def sample_level_set(w, k: int, seed: int = 0) -> ConstrainedPoint:
    """Seeded random frame of mutually orthogonal columns with squared
    norms m_1..m_M, n_N..n_1 (in that column order)."""
    w = _normalize_weight(w)
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
    norms = [math.sqrt(x) for x in w.m] + [math.sqrt(x) for x in reversed(w.n)]
    psi = raw * np.asarray(norms)
    return ConstrainedPoint(psi, (M, N), w, seed)


# ---------------------------------------------------------------------------
# group elements


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of a matrix or of each matrix in a stack by scaling and squaring
    with the degree-13 Pade approximant r13 and its coefficients b_0..b_13
    (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).  One scale s serves the
    whole stack, set by its largest 1-norm so that every member has norm at
    most theta_13, where r13's backward error is within unit roundoff; a
    member of smaller norm pays only the rounding of a few extra squarings,
    since the generators of one stack share a distribution and so a norm."""
    b = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
         960960.0, 16380.0, 182.0, 1.0)
    theta = 5.371920351148152
    norm = np.max(np.abs(a).sum(axis=-2), initial=0.0)
    s = max(0, math.ceil(math.log2(norm / theta))) if norm else 0
    a, ident = a / 2.0 ** s, np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def group_samples(k: int, eta: np.ndarray, samples: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Stacks of `samples` unitaries exp(iH) in U(k) and, unless eta is
    empty, as many pseudo-unitaries exp(i eta H / 2), which preserve the
    signed form.  Each sample draws its left generator, then its right one;
    each family goes through one stacked ``_expm``."""
    n = len(eta)
    left, right = [], []
    for _ in range(samples):
        left.append(random_hermitian(k, rng))
        if n:
            right.append(random_hermitian(n, rng))
    return (_expm(1j * np.reshape(left, (samples, k, k))),
            _expm(1j * eta @ np.reshape(right, (len(right), n, n)) / 2))


def boost(M: int, N: int, rapidity: float) -> np.ndarray:
    """A pseudo-unitary mixing the first positive and first negative slot;
    genuinely non-unitary for rapidity != 0."""
    if N == 0:
        raise ShapeMismatch("a boost needs a negative slot")
    h = np.zeros((M + N, M + N), dtype=complex)
    h[0, M], h[M, 0] = 1.0, -1.0  # eta times the symmetric slot mixer
    return _expm(1j * rapidity * h)


def is_pseudo_unitary(U: np.ndarray, eta: np.ndarray,
                      tol: float = DEFAULT_TOL) -> bool:
    """U eta U^dagger = eta, for the signature matrix eta."""
    return bool(np.max(np.abs(U @ eta @ U.conj().T - eta), initial=0.0) <= tol)


def stabilizer_defect(p: ConstrainedPoint, U: np.ndarray,
                      tol: float = DEFAULT_TOL) -> float:
    """Frobenius distance the right action of U moves the point; zero only
    for the identity once the frame norms are pinned."""
    if not is_pseudo_unitary(U, p.eta, tol):
        raise ShapeMismatch(f"matrix is not pseudo-unitary for {p.signature}")
    return float(np.linalg.norm(p.psi @ U - p.psi))


# ---------------------------------------------------------------------------
# checks and the per-sample report


def pairing_deviation(p: ConstrainedPoint) -> float:
    """Both momentum maps against their defining pairings,
    (psi X, psi)_S = tr(X G) on the right and (Y psi, psi)_S = tr(Y rho)
    on the left.  Both sides are complex-linear in the generator, so the
    matrix units of gl(M+N) and gl(k) cover every X in u(M,N) and every Y
    in u(k); the check is exact and draws nothing."""
    n = sum(p.signature)
    X = np.eye(n * n).reshape(n * n, n, n)
    Y = np.eye(p.k * p.k).reshape(p.k * p.k, p.k, p.k)
    right = signed_pairing(p.psi @ X, p.psi, p.eta) \
        - np.trace(X @ moment_right(p), axis1=-2, axis2=-1)
    left = signed_pairing(Y @ p.psi, p.psi, p.eta) \
        - np.trace(Y @ moment_left(p).rho, axis1=-2, axis2=-1)
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
    if stabilizer_defect(p, np.eye(M + N), tol) > tol:
        return False
    if M + N == 0:
        return True
    theta = 0.3
    U = np.eye(M + N, dtype=complex)
    U[0, 0] = np.exp(1j * theta)
    min_norm = math.sqrt(min(p.target.m + p.target.n))
    if stabilizer_defect(p, U, tol) < abs(np.exp(1j * theta) - 1) * min_norm - tol:
        return False
    if N:
        if stabilizer_defect(p, boost(M, N, 0.5), tol) <= 1e-6:
            return False
    return True


def verify_orbit(p: ConstrainedPoint, tol: float = DEFAULT_TOL) -> dict:
    """Spectrum of the left map against the realized weight vector, plus
    the pairing check on a basis, the invariance check on group samples
    seeded by the point, and the stabilizer check, as one JSON report;
    ``ok`` when the deviation is within tolerance and every check holds."""
    spec = moment_left(p, tol).spectrum()
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
