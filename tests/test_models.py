import numpy as np
import pytest
from scipy.linalg import expm

from _helpers import counted_eigendecompose, dense_hamiltonian
from spintransfer import (NumericalFailure, apollaro_chain, eigendecompose, end_to_end_fidelity,
                          first_peak_time, inverse_persymmetric_jacobi, pst_chain,
                          pst_transfer_time, quadratic_chain, quadratic_time_bound,
                          rescale_to_unit_max, swap_trace_first, swap_trace_second, uniform_chain)
from spintransfer import models, spectral
from spintransfer.models import _quadratic_spectrum, auto_transfer_time, default_peak_hint


# ---------------------------------------------------------------------------
# model builders
# ---------------------------------------------------------------------------

def test_uniform_chain():
    c = uniform_chain(3)
    assert np.array_equal(c.couplings, [1, 1])
    assert np.array_equal(c.fields, [0, 0, 0])
    assert uniform_chain(51).couplings.size == 50
    assert uniform_chain(2).couplings.size == 1
    with pytest.raises(ValueError):
        uniform_chain(1)


def test_apollaro_chain():
    c = apollaro_chain(6, 0.5, 0.8)
    assert np.allclose(c.couplings, [0.5, 0.8, 1.0, 0.8, 0.5])
    assert np.array_equal(apollaro_chain(7, 1.0, 1.0).couplings, uniform_chain(7).couplings)
    with pytest.raises(ValueError):
        apollaro_chain(4, 0.5, 0.8)
    with pytest.raises(ValueError):
        apollaro_chain(6, 0.0, 0.8)


def test_pst_chain_values():
    assert np.allclose(pst_chain(4).couplings, [np.sqrt(3) / 2, 1.0, np.sqrt(3) / 2])
    assert pst_chain(6).couplings[2] == 1.0
    assert np.allclose(pst_chain(5).couplings, [2 / np.sqrt(6), 1.0, 1.0, 2 / np.sqrt(6)])


def test_pst_chain_unit_max():
    for n in range(2, 40):
        j = pst_chain(n).couplings
        assert np.max(j) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# transfer times
# ---------------------------------------------------------------------------

def test_pst_transfer_time_three_sites():
    t0 = pst_transfer_time(pst_chain(3))
    assert t0 == pytest.approx(np.pi / np.sqrt(2), rel=1e-12)


def test_pst_transfer_time_six_sites():
    chain = pst_chain(6)
    t0 = pst_transfer_time(chain)
    assert t0 == pytest.approx(3 * np.pi / 2, rel=1e-12)
    gaps = np.diff(eigendecompose(chain).eigenvalues)
    assert np.allclose(gaps, 2 / 3, atol=1e-12)


def test_pst_transfer_time_verifies_arrival():
    chain = pst_chain(4)
    t0 = pst_transfer_time(chain)
    eig = eigendecompose(chain)
    assert end_to_end_fidelity(eig, t0) >= 1 - 1e-9


def test_pst_transfer_time_rejects_nonlinear_spectrum():
    with pytest.raises(NumericalFailure):
        pst_transfer_time(uniform_chain(6))


def test_quadratic_time_bound_values():
    assert quadratic_time_bound(4) == pytest.approx(3 * np.pi / 2, rel=1e-14)
    assert quadratic_time_bound(5) == pytest.approx(np.pi / 8 * np.sqrt(480), rel=1e-14)
    assert quadratic_time_bound(16) == pytest.approx(18 * np.pi, rel=1e-14)
    for n in (2, 3):  # the rescaled chain's perfect-transfer time, down to two sites
        scaled, _ = rescale_to_unit_max(quadratic_chain(n))
        assert quadratic_time_bound(n) == pytest.approx(pst_transfer_time(scaled), rel=1e-12)
    with pytest.raises(ValueError):
        quadratic_time_bound(1)


# ---------------------------------------------------------------------------
# quadratic spectrum and inverse problem
# ---------------------------------------------------------------------------

def test_quadratic_spectrum_values():
    assert np.array_equal(_quadratic_spectrum(4), [-4, -1, 1, 4])
    assert np.array_equal(_quadratic_spectrum(5), [-4, -1, 0, 1, 4])
    assert np.array_equal(_quadratic_spectrum(2), [-1, 1])


def test_spectrum_target_validation():
    with pytest.raises(ValueError):
        inverse_persymmetric_jacobi(np.array([-1.0, 0.5]))  # not symmetric
    with pytest.raises(ValueError):
        inverse_persymmetric_jacobi(np.array([1.0, -1.0]))  # not increasing
    with pytest.raises(ValueError):
        inverse_persymmetric_jacobi(np.array([0.0]))  # fewer than two


def test_inverse_two_site():
    chain = inverse_persymmetric_jacobi(np.array([-1.0, 1.0]))
    assert np.allclose(chain.couplings, [1.0], atol=1e-12)


def test_inverse_equally_spaced_matches_pst_profile():
    # an equally spaced symmetric spectrum must come back as the sqrt(n(N-n)) profile
    n = 6
    target = np.arange(-(n - 1), n, 2, dtype=float)
    chain = inverse_persymmetric_jacobi(target)
    scaled, _ = rescale_to_unit_max(chain)
    pst_scaled, _ = rescale_to_unit_max(pst_chain(n))
    assert np.allclose(scaled.couplings, pst_scaled.couplings, atol=1e-9)


def test_inverse_quadratic_center_coupling():
    chain = quadratic_chain(4)
    assert chain.couplings[1] == pytest.approx(3.0, abs=1e-9)  # N(N+2)/8 at N=4


def test_inverse_roundtrip_random_spectra():
    rng = np.random.default_rng(19)
    for _ in range(25):
        half = rng.integers(1, 21)
        pos = np.sort(rng.uniform(0.05, 10.0, half))
        while np.any(np.diff(pos) < 1e-3):  # keep the spectrum clearly simple
            pos = np.sort(rng.uniform(0.05, 10.0, half))
        lam = np.concatenate([-pos[::-1], pos])
        if rng.random() < 0.5:
            lam = np.concatenate([-pos[::-1], [0.0], pos])
        chain = inverse_persymmetric_jacobi(lam)
        assert np.max(np.abs(chain.couplings - chain.couplings[::-1])) <= 1e-9
        assert np.all(chain.couplings > 0)
        achieved = eigendecompose(chain).eigenvalues
        assert np.max(np.abs(achieved - lam)) <= 1e-8 * np.max(np.abs(lam))


# ---------------------------------------------------------------------------
# swap-operator trace identities
# ---------------------------------------------------------------------------

def test_swap_trace_first_reference_values():
    assert abs(swap_trace_first(quadratic_chain(4))) == pytest.approx(6.0, abs=1e-8)
    assert swap_trace_first(pst_chain(6)) == pytest.approx(2.0, abs=1e-12)
    assert swap_trace_first(uniform_chain(4)) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        swap_trace_first(uniform_chain(5))


def test_swap_trace_first_spectral_structural_agreement():
    # the cross-check runs inside the call for mirror-symmetric chains
    for n in (4, 8, 16, 32):
        chain = quadratic_chain(n)
        assert swap_trace_first(chain) == pytest.approx(n * (n + 2) / 4, rel=1e-8)


def test_swap_trace_second_reference_values():
    chain5 = quadratic_chain(5)
    assert swap_trace_second(chain5) == pytest.approx(30.0, rel=1e-8)
    assert chain5.couplings[1] ** 2 == pytest.approx(7.5, rel=1e-8)
    assert swap_trace_second(pst_chain(5)) == pytest.approx(4.0, abs=1e-12)
    assert swap_trace_second(uniform_chain(3)) == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(ValueError):
        swap_trace_second(uniform_chain(4))


def test_swap_trace_second_matches_alternating_sum_oracle():
    # independent oracle: alternating sum of squared analytic eigenvalues 0, +-sqrt(2)
    lam = np.array([-np.sqrt(2), 0.0, np.sqrt(2)])
    oracle = float(np.sum(lam ** 2 * (-1.0) ** np.arange(lam.size)))
    assert abs(oracle) == pytest.approx(4.0, abs=1e-12)
    assert swap_trace_second(uniform_chain(3)) == pytest.approx(abs(oracle), abs=1e-12)


def test_trace_identities_on_random_mirror_chains():
    rng = np.random.default_rng(29)
    for n in (4, 6, 7, 9, 12, 15):
        half = rng.uniform(0.3, 1.5, (n - 1) // 2 + 1)
        couplings = np.empty(n - 1)
        for i in range(n - 1):
            couplings[i] = half[min(i, n - 2 - i)]
        chain = uniform_chain(n)
        chain.couplings = couplings
        if n % 2 == 0:
            swap_trace_first(chain)   # raises on structural/spectral mismatch
        else:
            swap_trace_second(chain)


# ---------------------------------------------------------------------------
# first peak
# ---------------------------------------------------------------------------

def test_first_peak_pst6_is_perfect():
    chain = pst_chain(6)
    t, f = first_peak_time(chain, search_hint=3 * np.pi / 2)
    assert t == pytest.approx(3 * np.pi / 2, abs=1e-6)
    assert f == pytest.approx(1.0, abs=1e-9)


def test_first_peak_uniform51_regression():
    # frozen anchors, cross-checked below against a dense expm evaluation
    t, f = first_peak_time(uniform_chain(51))
    assert t == pytest.approx(27.349621192, abs=1e-6)
    assert f == pytest.approx(0.7826257847, abs=1e-8)


def test_first_peak_against_dense_expm_oracle():
    chain = uniform_chain(21)
    t, f = first_peak_time(chain)
    h = dense_hamiltonian(chain)
    amp = expm(-1j * h * t)[-1, 0]
    assert f == pytest.approx(1 / 3 + (1 + abs(amp)) ** 2 / 6, abs=1e-10)
    # local maximality of the refined peak
    eig = eigendecompose(chain)
    assert end_to_end_fidelity(eig, t) >= end_to_end_fidelity(eig, t - 1e-4)
    assert end_to_end_fidelity(eig, t) >= end_to_end_fidelity(eig, t + 1e-4)


def test_first_peak_requires_signal():
    # a chain whose far end stays dark within the window has no peak to find
    chain = uniform_chain(41)
    with pytest.raises(NumericalFailure):
        first_peak_time(chain, search_hint=2.0)


def test_auto_transfer_time_dispatch():
    assert auto_transfer_time(pst_chain(8)) == pytest.approx(pst_transfer_time(pst_chain(8)))
    t_auto = auto_transfer_time(uniform_chain(21))
    t_peak, _ = first_peak_time(uniform_chain(21))
    assert t_auto == pytest.approx(t_peak)
    assert default_peak_hint(51) == pytest.approx((51 + 0.8 * 51 ** (1 / 3)) / 2)


@pytest.mark.parametrize("chain", [uniform_chain(51), apollaro_chain(51, 0.43, 0.73),
                                   pst_chain(51), quadratic_chain(21)],
                         ids=["uniform", "apollaro", "pst", "quadratic"])
def test_auto_transfer_time_solves_the_chain_once(chain, monkeypatch):
    try:
        want = pst_transfer_time(chain)
    except NumericalFailure:
        want = first_peak_time(chain)[0]
    solves = []
    end_spectrum = spectral.end_spectrum

    def counting_end_spectrum(fields, couplings):
        solves.append(fields)
        return end_spectrum(fields, couplings)

    monkeypatch.setattr(spectral, "end_spectrum", counting_end_spectrum)
    eigensystems = [counted_eigendecompose(monkeypatch, module) for module in (models, spectral)]
    assert auto_transfer_time(chain) == want
    assert len(solves) == 1
    assert eigensystems == [[], []]


# ---------------------------------------------------------------------------
# quadratic-chain behaviour
# ---------------------------------------------------------------------------

def test_quadratic_odd_is_perfect_at_rescaled_bound():
    # odd-length signed-squares spectra have all-odd gaps: perfect transfer at t = pi
    chain = quadratic_chain(5)
    eig = eigendecompose(chain)
    assert end_to_end_fidelity(eig, np.pi) == pytest.approx(1.0, abs=1e-10)
    scaled, alpha = rescale_to_unit_max(chain)
    t_rescaled = np.pi / alpha
    assert t_rescaled == pytest.approx(quadratic_time_bound(5), rel=1e-10)


def test_quadratic_even_peak_times_respect_bound():
    # scan the rescaled chain: nothing above 0.99 may appear before the bound
    for n in (4, 6):
        scaled, _ = rescale_to_unit_max(quadratic_chain(n))
        bound = quadratic_time_bound(n)
        eig = eigendecompose(scaled)
        ts = np.arange(0.0, 1.2 * bound, 0.01)
        fids = np.array([end_to_end_fidelity(eig, t) for t in ts])
        early = ts[fids > 0.99]
        assert early.size == 0 or early.min() >= 0.95 * bound


def test_quadratic_odd_best_peak_at_bound():
    scaled, _ = rescale_to_unit_max(quadratic_chain(5))
    bound = quadratic_time_bound(5)
    eig = eigendecompose(scaled)
    ts = np.arange(0.0, 1.2 * bound, 0.005)
    fids = np.array([end_to_end_fidelity(eig, t) for t in ts])
    qualifying = ts[fids > 0.99]
    assert qualifying.size > 0
    assert qualifying.min() >= 0.9 * bound
