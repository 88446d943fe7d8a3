import numpy as np
import pytest

from _helpers import dense_hamiltonian
from spintransfer import (Chain, eigendecompose, end_windows, full_propagator,
                          optimal_encoding, propagator_amplitude, window_amplitudes)
from spintransfer.models import pst_chain, pst_transfer_time, uniform_chain


def random_chain(rng, n):
    return Chain(n=n, couplings=rng.uniform(-2, 2, n - 1), fields=rng.uniform(-2, 2, n))


def test_two_site_analytic():
    eig = eigendecompose(uniform_chain(2))
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_three_site_cosine_spectrum():
    # independent oracle: lambda_k = 2 cos(k pi / (N+1))
    n = 3
    eig = eigendecompose(uniform_chain(n))
    ks = np.arange(n, 0, -1)
    expected = 2 * np.cos(ks * np.pi / (n + 1))
    assert np.allclose(eig.eigenvalues, expected, atol=1e-14)
    assert np.allclose(eig.eigenvalues, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-14)


def test_pst6_equally_spaced():
    # spacing oracle: dense symmetric diagonalization of the same matrix
    chain = pst_chain(6)
    eig = eigendecompose(chain)
    dense = np.linalg.eigvalsh(dense_hamiltonian(chain))
    assert np.allclose(eig.eigenvalues, dense, atol=1e-12)
    gaps = np.diff(eig.eigenvalues)
    assert np.allclose(gaps, 2.0 / 3.0, atol=1e-12)


def test_eigensystem_invariants_random_ensemble():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        chain = random_chain(rng, n)
        eig = eigendecompose(chain)
        v = eig.eigenvectors
        gram = v.T @ v
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-10
        recon = (v * eig.eigenvalues) @ v.T
        radius = np.max(np.abs(eig.eigenvalues))
        assert np.max(np.abs(recon - dense_hamiltonian(chain))) <= 1e-9 * max(radius, 1e-300)
        assert np.all(np.diff(eig.eigenvalues) > 0)  # simple spectrum, J != 0


def test_gauge_is_deterministic():
    chain = Chain(n=6, couplings=np.array([0.3, 1.1, -0.4, 0.9, 0.2]),
                  fields=np.array([0.0, 0.5, -0.5, 0.1, 0.0, 0.7]))
    a = eigendecompose(chain)
    b = eigendecompose(chain)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    for k in range(6):
        col = a.eigenvectors[:, k]
        assert col[np.argmax(np.abs(col))] > 0


def test_zero_coupling_still_converges():
    # disconnected chain: spectrum may be degenerate but must still come out exact
    chain = Chain(n=4, couplings=np.array([1.0, 0.0, 1.0]), fields=np.zeros(4))
    eig = eigendecompose(chain)
    assert np.allclose(sorted(eig.eigenvalues), [-1, -1, 1, 1], atol=1e-12)
    recon = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.T
    assert np.max(np.abs(recon - dense_hamiltonian(chain))) < 1e-12


def test_propagator_identity_at_t0():
    rng = np.random.default_rng(5)
    eig = eigendecompose(random_chain(rng, 7))
    assert propagator_amplitude(eig, 3, 3, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert propagator_amplitude(eig, 1, 5, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_propagator_three_site_perfect_transfer():
    # analytic: the 3-site uniform chain transfers perfectly at t = pi/sqrt(2)
    eig = eigendecompose(uniform_chain(3))
    amp = propagator_amplitude(eig, 1, 3, np.pi / np.sqrt(2))
    assert abs(amp) == pytest.approx(1.0, abs=1e-12)


def test_propagator_amplitude_bounded():
    rng = np.random.default_rng(17)
    for _ in range(20):
        eig = eigendecompose(random_chain(rng, int(rng.integers(2, 20))))
        t = rng.uniform(0, 50)
        i = int(rng.integers(1, eig.n + 1))
        j = int(rng.integers(1, eig.n + 1))
        assert abs(propagator_amplitude(eig, i, j, t)) <= 1 + 1e-10


def test_full_propagator_unitary_ensemble():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        eig = eigendecompose(random_chain(rng, n))
        t = rng.uniform(0, 100)
        u = full_propagator(eig, t)
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-9
        assert np.allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-10)


def test_full_propagator_identity():
    eig = eigendecompose(uniform_chain(5))
    assert np.max(np.abs(full_propagator(eig, 0.0) - np.eye(5))) < 1e-12


def test_pst4_end_to_end_via_full_propagator():
    chain = pst_chain(4)
    t0 = pst_transfer_time(chain)
    u = full_propagator(eigendecompose(chain), t0)
    assert abs(u[3, 0]) >= 1 - 1e-9


def test_time_additivity():
    rng = np.random.default_rng(31)
    eig = eigendecompose(random_chain(rng, 12))
    u1 = full_propagator(eig, 1.7)
    u2 = full_propagator(eig, 2.9)
    u12 = full_propagator(eig, 4.6)
    assert np.max(np.abs(u1 @ u2 - u12)) <= 1e-9


def test_field_free_parity_pattern():
    # with zero fields, psi = U(t)|1> alternates real/imaginary along the chain
    rng = np.random.default_rng(41)
    for n in (5, 8, 13):
        chain = Chain(n=n, couplings=rng.uniform(0.2, 1.5, n - 1), fields=np.zeros(n))
        psi = full_propagator(eigendecompose(chain), 3.3)[:, 0]
        assert np.max(np.abs(psi.imag[0::2])) <= 1e-10   # odd sites (1-based) real
        assert np.max(np.abs(psi.real[1::2])) <= 1e-10   # even sites imaginary


def test_window_amplitudes_match_full_propagator():
    rng = np.random.default_rng(43)
    chain = random_chain(rng, 9)
    eig = eigendecompose(chain)
    u = full_propagator(eig, 2.2)
    # rows: the last window_out sites; columns: the first window_in sites
    want = {(3, 2): u[np.ix_([7, 8], [0, 1, 2])], (2, 4): u[np.ix_([5, 6, 7, 8], [0, 1])],
            (1, 9): u[:, [0]], (9, 1): u[[8], :]}
    for (window_in, window_out), block in want.items():
        got = window_amplitudes(eig, window_in, window_out, 2.2)
        assert got.shape == (window_out, window_in)
        assert np.allclose(got, block, atol=1e-12)


def test_window_validation():
    for size_in, size_out in ((0, 1), (1, 0), (5, 1), (1, 5)):
        with pytest.raises(ValueError, match=r"window sizes must be in 1\.\.n"):
            end_windows(4, size_in, size_out)
    for time in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="window time must be finite"):
            end_windows(4, 1, 1, time)
    with pytest.raises(ValueError, match="window time must be >= 0"):
        end_windows(4, 1, 1, -1.0)
    assert end_windows(4, 4, 4, 0.0) is None


def test_end_windows_layout():
    sol = optimal_encoding(eigendecompose(uniform_chain(10)), 3, 2, 1.5)
    assert list(sol.input_sites) == [1, 2, 3]
    assert list(sol.output_sites) == [9, 10]
    assert sol.time == 1.5
    assert sol.input_vectors.shape == (2, 3) and sol.output_vectors.shape == (2, 2)
