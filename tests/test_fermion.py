import numpy as np
import pytest

from _helpers import dense_hamiltonian
from spintransfer import (Chain, determinant_amplitude, eigendecompose, free_fermion_report,
                          optimal_encoding, propagator_amplitude, pst_chain, pst_transfer_time,
                          uniform_chain, verify_free_fermion)
from spintransfer.fermion import (_build_subspace_hamiltonian, _excitation_basis,
                                  _subspace_propagator)


def random_chain(rng, n):
    return Chain(n=n, couplings=rng.uniform(0.2, 2.0, n - 1),
                 fields=rng.uniform(-1.0, 1.0, n))


def test_basis_sizes():
    basis = _excitation_basis(6, 2)
    assert len(basis) == 15
    assert basis[0] == (0, 1)
    assert basis[-1] == (4, 5)
    with pytest.raises(ValueError):
        _excitation_basis(4, 0)


def test_k1_reduces_to_single_excitation_matrix():
    rng = np.random.default_rng(7)
    chain = random_chain(rng, 7)
    h, basis = _build_subspace_hamiltonian(chain, 1)
    assert len(basis) == 7
    assert np.allclose(h, dense_hamiltonian(chain), atol=1e-15)


def test_three_site_two_excitation_structure():
    # explicit enumeration: basis (12), (13), (23); holes hop with swapped couplings
    chain = Chain(n=3, couplings=np.array([0.7, 1.3]), fields=np.array([0.1, 0.2, 0.4]))
    h, basis = _build_subspace_hamiltonian(chain, 2)
    assert basis == [(0, 1), (0, 2), (1, 2)]
    expected = np.array([
        [0.3, 1.3, 0.0],
        [1.3, 0.5, 0.7],
        [0.0, 0.7, 0.6],
    ])
    assert np.allclose(h, expected, atol=1e-15)


def test_two_site_fully_occupied_is_static():
    chain = Chain(n=2, couplings=np.array([0.9]), fields=np.array([0.2, -0.3]))
    h, basis = _build_subspace_hamiltonian(chain, 2)
    assert h.shape == (1, 1)
    assert h[0, 0] == pytest.approx(-0.1)
    u, _ = _subspace_propagator(chain, 2, 3.0)
    assert abs(u[0, 0]) == pytest.approx(1.0, abs=1e-12)
    det = determinant_amplitude(eigendecompose(chain), (1, 2), (1, 2), 3.0)
    assert det == pytest.approx(complex(u[0, 0]), abs=1e-12)


def test_size_guards():
    with pytest.raises(ValueError):
        _build_subspace_hamiltonian(uniform_chain(20), 2)
    with pytest.raises(ValueError):
        _build_subspace_hamiltonian(uniform_chain(8), 4)


def test_determinant_amplitude_k1_and_t0():
    rng = np.random.default_rng(13)
    chain = random_chain(rng, 6)
    eig = eigendecompose(chain)
    for i, j in ((1, 4), (2, 2), (6, 1)):
        det = determinant_amplitude(eig, (i,), (j,), 2.7)
        assert det == pytest.approx(propagator_amplitude(eig, i, j, 2.7), abs=1e-12)
    assert determinant_amplitude(eig, (1, 3), (1, 3), 0.0) == pytest.approx(1.0, abs=1e-12)
    assert determinant_amplitude(eig, (1, 3), (2, 5), 0.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        determinant_amplitude(eig, (1, 2), (1,), 1.0)
    with pytest.raises(ValueError):
        determinant_amplitude(eig, (1, 1), (2, 3), 1.0)


def test_oracle_equivalence_random_ensemble():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(2, 4))
        if k >= n:
            k = n - 1
        chain = random_chain(rng, n)
        t = float(rng.uniform(0, 20))
        assert verify_free_fermion(chain, k, t) <= 1e-8


def test_oracle_uniform8():
    assert verify_free_fermion(uniform_chain(8), 2, 3.7) <= 1e-8


def test_oracle_k1_is_machine_exact():
    rng = np.random.default_rng(23)
    chain = random_chain(rng, 9)
    assert verify_free_fermion(chain, 1, 7.3) <= 1e-12


def test_pst6_two_excitation_window_transfer():
    chain = pst_chain(6)
    t0 = pst_transfer_time(chain)
    det = determinant_amplitude(eigendecompose(chain), (1, 2), (5, 6), t0)
    assert abs(det) == pytest.approx(1.0, abs=1e-8)


def test_window_singular_product_equals_determinant():
    # lambda_1 * lambda_2 of a 2x2 window block is |det| of the same block
    chain = pst_chain(6)
    eig = eigendecompose(chain)
    for t in (pst_transfer_time(chain), 1.234):
        sol = optimal_encoding(eig, 2, 2, t)
        det = determinant_amplitude(eig, sol.input_sites, sol.output_sites, t)
        product = sol.singular_values[0] * sol.singular_values[1]
        assert product == pytest.approx(abs(det), abs=1e-8)


def test_report_shape():
    report = free_fermion_report(uniform_chain(6), 2, 1.5)
    assert report["passed"] is True
    assert report["basis_size"] == 15
    assert report["max_deviation"] <= 1e-10
