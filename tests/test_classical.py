"""Momentum maps, level-set frames, and orbit spectra in float64."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from howe_forge import classical as C
from howe_forge import weights as W
from howe_forge.errors import BadWeight, RankTooSmall, ShapeMismatch

TOL = 1e-9

seeds = st.integers(min_value=0, max_value=10_000)


def point(mat, M, N, m=(), n=()):
    return C.ConstrainedPoint(np.asarray(mat, dtype=complex), (M, N),
                              W.SignedWeight(tuple(m), tuple(n)))


# ---------------------------------------------------------------------------
# the symplectic form, -2 Im of the signed pairing


def symplectic(p, q):
    return -2.0 * C.signed_pairing(p.psi, q.psi, p.eta).imag


def test_symplectic_form_frozen_value():
    p = point([[1.0]], 1, 0, m=(1,))
    q = point([[1j]], 1, 0, m=(1,))
    assert C.signed_pairing(p.psi, q.psi, p.eta) == pytest.approx(-1j)
    assert symplectic(p, q) == pytest.approx(2.0)
    assert symplectic(p, p) == pytest.approx(0.0)


def test_symplectic_form_sign_flips_with_the_slot():
    a, b = [[1.0, 0.0]], [[1j, 0.0]]
    plus = symplectic(point(a, 2, 0, m=(1, 1)), point(b, 2, 0, m=(1, 1)))
    minus = symplectic(point([[0.0, 1.0]], 1, 1, m=(1,), n=(1,)),
                       point([[0.0, 1j]], 1, 1, m=(1,), n=(1,)))
    assert plus == pytest.approx(2.0)
    assert minus == pytest.approx(-2.0)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_symplectic_form_antisymmetric(seed):
    """The signed pairing is Hermitian, so its imaginary part changes
    sign when the arguments swap."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    p = point(a, 1, 1, m=(1,), n=(1,))
    q = point(b, 1, 1, m=(1,), n=(1,))
    assert C.signed_pairing(p.psi, q.psi, p.eta) == pytest.approx(
        np.conj(C.signed_pairing(q.psi, p.psi, p.eta)))
    assert symplectic(p, q) == pytest.approx(-symplectic(q, p))


def test_symplectic_form_signature_mismatch():
    """Points of signatures (1, 0) and (1, 1) have different column
    counts, which the signed pairing refuses."""
    p = point([[1.0]], 1, 0, m=(1,))
    q = point([[1.0, 0.0]], 1, 1, m=(1,), n=(1,))
    with pytest.raises(ShapeMismatch):
        C.signed_pairing(p.psi, q.psi, q.eta)


# ---------------------------------------------------------------------------
# momentum maps


def test_moment_right_vanishes_at_zero():
    p = point(np.zeros((3, 2)), 1, 1, m=(1,), n=(1,))
    assert np.allclose(C.moment_right(p), 0.0)


def test_moment_right_is_the_target_on_a_level_set():
    p = C.sample_level_set(((2,), (1,)), 3, seed=7)
    assert np.max(np.abs(C.moment_right(p) - np.diag([2.0, -1.0]))) < TOL


def test_moment_left_rank_one_projector():
    psi = np.zeros((3, 1), dtype=complex)
    psi[0, 0] = 1.0
    rho = C.moment_left(point(psi, 1, 0, m=(1,)))
    assert rho.shape == (3, 3) and np.array_equal(rho, rho.conj().T)
    assert np.allclose(np.linalg.eigvalsh(rho)[::-1], [1.0, 0.0, 0.0])


def test_moment_left_signed_projector_spectrum():
    psi = np.zeros((4, 2), dtype=complex)
    psi[0, 0] = math.sqrt(2)
    psi[1, 1] = 1.0
    rho = C.moment_left(point(psi, 1, 1, m=(2,), n=(1,)))
    assert np.allclose(np.linalg.eigvalsh(rho)[::-1], [2.0, 0.0, 0.0, -1.0])
    assert np.trace(rho) == pytest.approx(1.0)


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_momentum_pairings_hold(seed):
    p = C.sample_level_set(((2, 1), (1,)), 4, seed=seed)
    assert C.pairing_deviation(p) < TOL


@pytest.mark.parametrize("name", ["moment_right", "moment_left"])
def test_pairing_check_catches_every_perturbed_entry(monkeypatch, name):
    p = C.sample_level_set(((2, 1), (1,)), 4, seed=3)
    assert C.pairing_deviation(p) < TOL
    exact = getattr(C, name)
    size = 3 if name == "moment_right" else 4
    for a in range(size):
        for b in range(size):
            def bumped(q, a=a, b=b):
                out = exact(q)
                out[a, b] += 1e-6
                return out
            monkeypatch.setattr(C, name, bumped)
            assert C.pairing_deviation(p) > 1e-9, (a, b)


def test_pairing_check_memory_stays_cubic_in_k():
    """At k = 60 a stack of the k^2 matrix units of gl(k) alone would hold
    k^4 complex entries, 207 MB."""
    p = C.sample_level_set(((1,), ()), 60, seed=0)
    tracemalloc.start()
    try:
        assert C.pairing_deviation(p) < TOL
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_momentum_invariance(seed):
    p = C.sample_level_set(((2,), (1,)), 3, seed=seed)
    assert C.invariance_deviation(p, samples=4) < TOL


@given(seeds, st.sampled_from([((1,), ()), ((2, 1), ()), ((1,), (1,)),
                               ((2, 1), (1,)), ((2, 2), (1,))]),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=6))
@settings(max_examples=30, deadline=None)
def test_batched_invariance_matches_the_per_sample_loop(seed, w, extra,
                                                        samples):
    p = C.sample_level_set(w, len(w[0]) + len(w[1]) + extra, seed=seed)
    g, U = C.group_samples(p.k, p.eta, samples, np.random.default_rng(seed))
    left, right = bf.group_samples(p.k, p.signature, samples,
                                   np.random.default_rng(seed))
    assert g.shape == (samples, p.k, p.k) and len(U) == len(right) == samples
    assert np.max(np.abs(g - np.reshape(left, g.shape)), initial=0.0) <= 1e-12
    assert np.max(np.abs(U - np.reshape(right, U.shape)), initial=0.0) <= 1e-12
    fast = C.invariance_deviation(p, samples, np.random.default_rng(seed))
    slow = bf.invariance_deviation(p.psi, p.signature, samples,
                                   np.random.default_rng(seed))
    assert abs(fast - slow) <= 1e-12
    assert (fast <= TOL) == (slow <= TOL)


@given(seeds, st.sampled_from([(0, 0), (1, 0), (3, 0), (1, 1), (2, 1),
                               (0, 2), (3, 2)]),
       st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=6))
@settings(max_examples=40, deadline=None)
def test_group_samples_draw_in_the_per_sample_order(seed, signature, k,
                                                    samples):
    """The one batched draw gives, bit for bit, the generators of a loop
    that draws each sample's left and then right Hermitian matrix."""
    eta = C.eta_matrix(*signature)
    n = len(eta)
    rng = np.random.default_rng(seed)
    left, right = [], []
    for _ in range(samples):
        left.append(bf.random_hermitian(k, rng))
        if n:
            right.append(bf.random_hermitian(n, rng))
    g, U = C.group_samples(k, eta, samples, np.random.default_rng(seed))
    assert np.array_equal(
        g, C._cayley(0.5j * np.reshape(left, (samples, k, k))))
    assert np.array_equal(
        U, C._cayley(0.25j * eta @ np.reshape(right, (len(right), n, n))))


def hermitian_stack(rng, count, n):
    return np.array([bf.random_hermitian(n, rng) for _ in range(count)])


def form_defect(U, eta):
    """Largest entry of U eta U^dagger - eta over a stack, relative to the
    largest squared spectral norm in the stack (at least 1)."""
    scale = max(1.0, np.max(np.linalg.norm(U, ord=2, axis=(-2, -1)),
                            initial=0.0) ** 2)
    return np.max(np.abs(U @ eta @ C._dagger(U) - eta), initial=0.0) / scale


@pytest.mark.parametrize("k", range(1, 7))
def test_cayley_samples_lie_in_both_groups(k):
    """The left stack is unitary, and the right stack is pseudo-unitary
    for every signature with M+N = k, yet not unitary once both M and N
    are positive."""
    rng = np.random.default_rng(k)
    g, _ = C.group_samples(k, C.eta_matrix(0, 0), 10, rng)
    assert form_defect(g, np.eye(k)) <= 1e-12
    for M in range(k + 1):
        eta = C.eta_matrix(M, k - M)
        _, U = C.group_samples(1, eta, 10, rng)
        assert U.shape == (10, k, k)
        assert form_defect(U, eta) <= 1e-12
        if 0 < M < k:
            assert form_defect(U, np.eye(k)) > 1e-3


def test_cayley_of_empty_stacks():
    for shape in [(0, 3, 3), (0, 0, 0), (2, 0, 0)]:
        assert C._cayley(np.zeros(shape, dtype=complex)).shape == shape


@pytest.mark.parametrize("rapidity", [0.5, 3.0])
def test_boost_matches_scipy(rapidity):
    h = np.zeros((3, 3), dtype=complex)
    h[0, 2], h[2, 0] = 1.0, -1.0
    want = bf.expm_each(1j * rapidity * h[None])[0]
    got = C.boost(2, 1, rapidity)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("M,N", [(1, 1), (2, 1), (3, 2), (1, 3)])
def test_boost_at_rapidity_zero_is_the_identity(M, N):
    assert np.array_equal(C.boost(M, N, 0.0), np.eye(M + N))


def test_boost_stays_pseudo_unitary_at_large_rapidity():
    b = C.boost(3, 2, 3.0)
    assert C.is_pseudo_unitary(b, C.eta_matrix(3, 2))
    assert not C.is_pseudo_unitary(b, np.eye(5))


def test_boost_is_pseudo_unitary_at_rapidity_10():
    """Entries near cosh 10 = 1.1e4 leave a rounding deviation of 2.9e-8
    in U eta U^dagger, inside the bound scaled by ||U||^2 = 2.4e8; one
    entry off by a relative 1e-6 moves it by about 240."""
    b, eta = C.boost(2, 1, 10.0), C.eta_matrix(2, 1)
    assert C.is_pseudo_unitary(b, eta)
    b[0, 0] *= 1 + 1e-6
    assert not C.is_pseudo_unitary(b, eta)


def test_group_samples_handle_empty_stacks():
    g, U = C.group_samples(3, C.eta_matrix(1, 1), 0, np.random.default_rng(0))
    assert g.shape == (0, 3, 3) and U.shape == (0, 2, 2)
    g, U = C.group_samples(2, C.eta_matrix(0, 0), 4, np.random.default_rng(0))
    assert g.shape == (4, 2, 2) and U.shape == (0, 0, 0)


def test_invariance_check_catches_a_non_equivariant_left_map(monkeypatch):
    p = C.sample_level_set(((2,), (1,)), 3, seed=5)
    assert C.invariance_deviation(p) < TOL
    exact = C._left_map
    monkeypatch.setattr(C, "_left_map", lambda psi, eta: exact(psi, eta)
                        + np.abs(psi[..., :1, :1]) ** 2 * np.eye(3))
    assert C.invariance_deviation(p) > TOL


def test_invariance_check_catches_a_right_stack_built_without_eta(
        monkeypatch):
    """Cayley transforms of i H / 4 are unitary but do not preserve the
    signed form, so they move the left map."""
    p = C.sample_level_set(((2,), (1,)), 3, seed=5)
    assert C.invariance_deviation(p) < TOL
    exact = C.group_samples

    def without_eta(k, eta, samples, rng):
        g, _ = exact(k, eta, samples, rng)
        U = C._cayley(0.25j * hermitian_stack(rng, samples, len(eta)))
        assert form_defect(U, np.eye(len(eta))) <= 1e-12
        assert form_defect(U, eta) > TOL
        return g, U
    monkeypatch.setattr(C, "group_samples", without_eta)
    assert C.invariance_deviation(p) > TOL


def test_left_spectrum_is_equivariant_under_the_left_action():
    p = C.sample_level_set(((2, 1), (1,)), 5, seed=11)
    g = C.group_samples(5, p.eta, 1, np.random.default_rng(3))[0][0]
    moved = C.ConstrainedPoint(g @ p.psi, p.signature, p.target)
    assert np.max(np.abs(np.linalg.eigvalsh(C.moment_left(moved))
                         - np.linalg.eigvalsh(C.moment_left(p)))) < TOL


# ---------------------------------------------------------------------------
# level-set sampling


def test_sample_level_set_scalar_case():
    p = C.sample_level_set(((1,), ()), 1, seed=5)
    assert p.psi.shape == (1, 1)
    assert abs(abs(p.psi[0, 0]) - 1.0) < TOL
    assert np.allclose(C.moment_right(p), [[1.0]])


def test_sample_level_set_is_deterministic():
    a = C.sample_level_set(((2, 1), (1,)), 4, seed=7)
    b = C.sample_level_set(((2, 1), (1,)), 4, seed=7)
    c = C.sample_level_set(((2, 1), (1,)), 4, seed=8)
    assert np.array_equal(a.psi, b.psi)
    assert not np.array_equal(a.psi, c.psi)
    assert a.seed == 7


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_sampled_columns_are_an_orthogonal_frame(seed):
    w = W.SignedWeight((3, 1), (2,))
    p = C.sample_level_set(w, 5, seed=seed)
    gram = p.psi.conj().T @ p.psi
    assert np.max(np.abs(gram - np.diag([3.0, 1.0, 2.0]))) < TOL


def test_sample_level_set_errors():
    with pytest.raises(RankTooSmall):
        C.sample_level_set(((1,), (1,)), 1, seed=0)
    with pytest.raises(BadWeight):
        C.sample_level_set(((1, 0), ()), 3, seed=0)


# ---------------------------------------------------------------------------
# orbit verification and the stabilizer


def test_verify_orbit_report_shape_and_spectrum():
    p = C.sample_level_set(((2, 1), (1,)), 5, seed=7)
    rep = C.verify_orbit(p)
    assert set(rep) == {"weight", "k", "seed", "spectrum", "max_dev", "checks",
                        "ok"}
    assert rep["weight"] == {"m": [2, 1], "n": [1]}
    assert rep["k"] == 5 and rep["seed"] == 7
    assert np.allclose(rep["spectrum"], [2.0, 1.0, 0.0, 0.0, -1.0])
    assert rep["max_dev"] < TOL
    assert rep["checks"] == {"pairing": True, "invariance": True,
                             "stabilizer": True}
    assert rep["ok"] is True


def test_verify_orbit_ok_needs_the_deviation_and_every_check(monkeypatch):
    p = C.sample_level_set(((2, 1), (1,)), 5, seed=7)
    exact = C.target_spectrum
    monkeypatch.setattr(C, "target_spectrum",
                        lambda w, k: exact(w, k) + 1e-6)
    off = C.verify_orbit(p, TOL)
    assert off["max_dev"] > TOL and all(off["checks"].values())
    assert off["ok"] is False
    # a deviation exactly at the tolerance passes
    assert C.verify_orbit(p, off["max_dev"])["ok"] is True
    monkeypatch.setattr(C, "target_spectrum", exact)
    monkeypatch.setattr(C, "stabilizer_ok", lambda p, tol: False)
    rep = C.verify_orbit(p, TOL)
    assert rep["max_dev"] <= TOL and rep["checks"]["stabilizer"] is False
    assert rep["ok"] is False


def test_orbit_report_needs_every_seed(monkeypatch):
    w = ((2, 1), (1,))
    rep = C.orbit_report(w, 4, range(3, 6), TOL)
    assert rep["ok"] is True
    assert [c["seed"] for c in rep["cells"]] == [3, 4, 5]
    exact = C.verify_orbit

    def last_seed_fails(p, tol):
        out = exact(p, tol)
        return dict(out, ok=False) if p.seed == 5 else out

    monkeypatch.setattr(C, "verify_orbit", last_seed_fails)
    rep = C.orbit_report(w, 4, range(3, 6), TOL)
    assert [c["ok"] for c in rep["cells"]] == [True, True, False]
    assert rep["ok"] is False


def test_verify_orbit_handles_degenerate_weights():
    rep = C.verify_orbit(C.sample_level_set(((2, 2), (1,)), 4, seed=3))
    assert rep["max_dev"] < TOL
    assert all(rep["checks"].values())


def test_stabilizer_defect_identity_and_phase():
    p = C.sample_level_set(((2,), (1,)), 3, seed=7)
    assert C.stabilizer_defect(p, np.eye(2)) == pytest.approx(0.0)
    theta = 0.3
    U = np.diag([np.exp(1j * theta), 1.0])
    bound = abs(np.exp(1j * theta) - 1) * math.sqrt(1.0)
    assert C.stabilizer_defect(p, U) >= bound - TOL


def test_stabilizer_defect_boost_is_positive():
    p = C.sample_level_set(((2,), (1,)), 3, seed=7)
    assert C.stabilizer_defect(p, C.boost(1, 1, 0.5)) > 0.1


def test_stabilizer_defect_rejects_non_pseudo_unitary():
    p = C.sample_level_set(((2,), (1,)), 3, seed=7)
    with pytest.raises(ShapeMismatch):
        C.stabilizer_defect(p, np.diag([1.0, 2.0]))


def test_boost_needs_a_negative_slot():
    with pytest.raises(ShapeMismatch):
        C.boost(2, 0, 0.5)


def test_boost_needs_a_positive_slot():
    """U(0, N) is compact: slot 0 is no positive slot to mix with."""
    with pytest.raises(ShapeMismatch):
        C.boost(0, 2, 0.5)


def test_all_negative_orbits_pass_without_a_boost():
    rep = C.verify_orbit(C.sample_level_set(((), (2, 1)), 3, seed=1))
    assert rep["checks"] == {"pairing": True, "invariance": True,
                             "stabilizer": True}
    assert rep["ok"] is True


def test_boost_is_pseudo_unitary_and_not_unitary():
    b = C.boost(2, 1, 0.5)
    assert C.is_pseudo_unitary(b, C.eta_matrix(2, 1))
    assert not C.is_pseudo_unitary(b, np.eye(3))


def test_pseudo_unitary_samples_preserve_the_form():
    eta = C.eta_matrix(2, 1)
    g, U = C.group_samples(4, eta, 5, np.random.default_rng(0))
    assert g.shape == (5, 4, 4) and U.shape == (5, 3, 3)
    for h in g:
        assert np.max(np.abs(h @ h.conj().T - np.eye(4))) < TOL
    for u in U:
        assert C.is_pseudo_unitary(u, eta)
        assert not C.is_pseudo_unitary(u + 0.01, eta)

