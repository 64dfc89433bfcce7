"""Momentum maps, level-set frames, and orbit spectra in float64."""

import math

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
# the symplectic form


def test_symplectic_form_frozen_value():
    p = point([[1.0]], 1, 0, m=(1,))
    q = point([[1j]], 1, 0, m=(1,))
    assert C.symplectic_form(p, q) == pytest.approx(2.0)
    assert C.symplectic_form(p, p) == pytest.approx(0.0)


def test_symplectic_form_sign_flips_with_the_slot():
    a, b = [[1.0, 0.0]], [[1j, 0.0]]
    plus = C.symplectic_form(point(a, 2, 0, m=(1, 1)),
                             point(b, 2, 0, m=(1, 1)))
    minus = C.symplectic_form(point([[0.0, 1.0]], 1, 1, m=(1,), n=(1,)),
                              point([[0.0, 1j]], 1, 1, m=(1,), n=(1,)))
    assert plus == pytest.approx(2.0)
    assert minus == pytest.approx(-2.0)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_symplectic_form_antisymmetric(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    p = point(a, 1, 1, m=(1,), n=(1,))
    q = point(b, 1, 1, m=(1,), n=(1,))
    assert C.symplectic_form(p, q) == pytest.approx(-C.symplectic_form(q, p))


def test_symplectic_form_signature_mismatch():
    with pytest.raises(ShapeMismatch):
        C.symplectic_form(point([[1.0]], 1, 0, m=(1,)),
                          point([[1.0]], 0, 1, n=(1,)))


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
    assert rho.is_hermitian()
    assert np.allclose(rho.spectrum(), [1.0, 0.0, 0.0])


def test_moment_left_signed_projector_spectrum():
    psi = np.zeros((4, 2), dtype=complex)
    psi[0, 0] = math.sqrt(2)
    psi[1, 1] = 1.0
    rho = C.moment_left(point(psi, 1, 1, m=(2,), n=(1,)))
    assert np.allclose(rho.spectrum(), [2.0, 0.0, 0.0, -1.0])
    assert rho.trace() == pytest.approx(1.0)


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
                (out if name == "moment_right" else out.rho)[a, b] += 1e-6
                return out
            monkeypatch.setattr(C, name, bumped)
            assert C.pairing_deviation(p) > 1e-9, (a, b)


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


def hermitian_stack(rng, count, n):
    return np.array([C.random_hermitian(n, rng) for _ in range(count)])


def assert_expm_matches_scipy(a):
    """Every matrix of the stack within 1e-12 of scipy's expm, relative to
    the Frobenius norm of scipy's result."""
    got, want = C._expm(a), bf.expm_each(a)
    assert got.shape == want.shape == a.shape
    assert np.all(np.linalg.norm(got - want, axis=(-2, -1))
                  <= 1e-12 * np.linalg.norm(want, axis=(-2, -1)))


@pytest.mark.parametrize("k", range(1, 7))
def test_expm_matches_scipy_on_both_families(k):
    rng = np.random.default_rng(k)
    assert_expm_matches_scipy(1j * hermitian_stack(rng, 10, k))
    for M in range(k + 1):
        eta = C.eta_matrix(M, k - M)
        assert_expm_matches_scipy(1j * eta @ hermitian_stack(rng, 10, k) / 2)


def test_expm_edge_cases_match_scipy():
    rng = np.random.default_rng(0)
    for shape in [(0, 3, 3), (0, 0, 0), (2, 0, 0), (2, 3, 3)]:
        assert_expm_matches_scipy(np.zeros(shape, dtype=complex))
    big = 1j * hermitian_stack(rng, 1, 4)
    big *= 50.0 / np.max(np.abs(big).sum(axis=-2))  # 3 squarings at least
    assert np.max(np.abs(big).sum(axis=-2)) > 8 * 5.371920351148152
    assert_expm_matches_scipy(big)
    # one scale serves the stack: the small members are over-scaled
    assert_expm_matches_scipy(np.concatenate(
        [1j * hermitian_stack(rng, 5, 4) / 10, big]))
    for rapidity in (0.5, 3.0):
        h = np.zeros((3, 3), dtype=complex)
        h[0, 2], h[2, 0] = 1.0, -1.0
        want = bf.expm_each(1j * rapidity * h[None])[0]
        got = C.boost(2, 1, rapidity)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


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


def test_left_spectrum_is_equivariant_under_the_left_action():
    p = C.sample_level_set(((2, 1), (1,)), 5, seed=11)
    g = C.group_samples(5, p.eta, 1, np.random.default_rng(3))[0][0]
    moved = C.ConstrainedPoint(g @ p.psi, p.signature, p.target)
    assert np.max(np.abs(C.moment_left(moved).spectrum()
                         - C.moment_left(p).spectrum())) < TOL


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

