"""The end weights from eigenvalues alone, and the kernel's eigenvector fallback.

full_propagator (full eigensystem, N x N product) is the oracle throughout.
"""

import warnings

import numpy as np
import pytest

from _helpers import (FALLBACK_CHAINS, FALLBACK_TIMES, FALLBACK_WINDOWS, OVERFLOWING_CHAIN,
                      counted_eigendecompose, oracle_fidelity, score_chain)
from spintransfer import (Chain, eigendecompose, fidelity_single, full_propagator,
                          normal_disorder, optimal_encoding, pst_chain, pst_transfer_time,
                          quadratic_chain, sample_disordered_chain, uniform_chain,
                          uniform_disorder)
from spintransfer import montecarlo, spectral
from spintransfer.disorder import draw_realizations
from spintransfer.models import auto_transfer_time

TOL = 1e-12

REGIMES = {
    "normal": normal_disorder(0.1, 0.1, seed=11),
    "couplings_to_zero": uniform_disorder(1.0, 0.0, seed=12),   # J in (0, 2)
    "couplings_cross_zero": uniform_disorder(1.5, 0.0, seed=13),  # J in (-0.5, 2.5)
    "strong_fields": normal_disorder(0.0, 2.0, seed=14),
}


def oracle_amplitude(chain: Chain, t: float) -> complex:
    return complex(full_propagator(eigendecompose(chain), t)[chain.n - 1, 0])


def end_amplitude(chain: Chain, t: float) -> complex:
    """<N| e^{-iHt} |1> from the chain's end weights, which must need no eigenvectors."""
    lam, w, (*_, ok) = spectral._end_weights(chain.fields[None], chain.couplings[None])
    assert ok[0] and np.isfinite(w).all()
    return complex(w[0] @ np.exp(-1j * lam[0] * t))


def eigenvector_fidelity(chain: Chain, t: float, window_in: int, window_out: int) -> float:
    """The eigenvector path of the scorer, called directly."""
    sol = optimal_encoding(eigendecompose(chain), window_in, window_out, t)
    return fidelity_single(min(float(sol.singular_values[0]), 1.0))


def assert_eigenvector_weights(chain: Chain, lam: np.ndarray, w: np.ndarray) -> None:
    """lam and w are the eigensystem's eigenvalues and v(N) v(1), bit for bit."""
    eig = eigendecompose(chain)
    assert lam.tobytes() == eig.eigenvalues.tobytes()
    assert w.tobytes() == (eig.eigenvectors[-1] * eig.eigenvectors[0]).tobytes()


@pytest.mark.parametrize("n, samples", [(51, 200), (201, 40)])
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_amplitude_matches_full_propagator_on_ensembles(regime, n, samples, monkeypatch):
    base = uniform_chain(n)
    t = auto_transfer_time(base)
    couplings, fields = draw_realizations(base, REGIMES[regime], 0, samples)
    calls = counted_eigendecompose(monkeypatch, spectral)
    lam, w, _ = spectral._end_weights(fields, couplings)  # the whole ensemble in one call
    assert not calls
    amps = np.sum(w * np.exp(-1j * lam * t), axis=1)
    worst = max(abs(amps[r] - oracle_amplitude(Chain(n=n, couplings=couplings[r],
                                                     fields=fields[r]), t))
                for r in range(samples))
    assert worst <= TOL
    assert (couplings < 0).any() == (regime == "couplings_cross_zero")


@pytest.mark.parametrize("n", [50, 51, 201])  # an even n: w's sign pattern shows in the phase
def test_amplitude_matches_full_propagator_on_pst_and_quadratic(n):
    pst = pst_chain(n)
    t_pst = pst_transfer_time(pst)
    assert abs(end_amplitude(pst, t_pst) - oracle_amplitude(pst, t_pst)) <= TOL
    assert abs(end_amplitude(pst, t_pst)) == pytest.approx(1.0, abs=1e-9)
    # quadratic_chain(201) has log10 prod J = 631: a plain product overflows
    quad = quadratic_chain(n)
    for t in (0.37, np.pi / 2, np.pi):
        assert abs(end_amplitude(quad, t) - oracle_amplitude(quad, t)) <= TOL


def test_amplitude_at_time_zero_and_two_sites():
    assert end_amplitude(uniform_chain(7), 0.0) == pytest.approx(0.0, abs=1e-15)
    # N=2: <2|U(t)|1> = -i sin(J t) with no field
    chain = Chain(n=2, couplings=[0.7], fields=[0.0, 0.0])
    assert end_amplitude(chain, 1.3) == pytest.approx(-1j * np.sin(0.91), abs=1e-15)


def test_stacked_rows_equal_one_row_calls(monkeypatch):
    # a stack holding one fallback row (a zero coupling): every row's lam and w
    # equal the one-row call's bit for bit, and the spectrum is left as solved
    couplings, fields = draw_realizations(uniform_chain(21), normal_disorder(0.1, 0.3, seed=15),
                                          0, 12)
    couplings[4, 7] = 0.0
    calls = counted_eigendecompose(monkeypatch, spectral)
    lam, w, spectrum = spectral._end_weights(fields, couplings)
    assert len(calls) == 1
    assert spectrum[0].tobytes() == spectral.end_spectrum(fields, couplings)[0].tobytes()
    assert_eigenvector_weights(Chain(n=21, couplings=couplings[4], fields=fields[4]),
                               lam[4], w[4])
    for r in range(12):
        lam_r, w_r, _ = spectral._end_weights(fields[r:r + 1], couplings[r:r + 1])
        assert lam_r.tobytes() == lam[r].tobytes() and w_r.tobytes() == w[r].tobytes()


def test_non_finite_result_is_not_applicable(monkeypatch):
    # a weight beyond the double range in an ok row (row 1) is not used: that row
    # takes the eigensystem, the others keep their end weights
    couplings, fields = draw_realizations(uniform_chain(9), normal_disorder(0.1, 0.1, seed=16),
                                          0, 3)
    end_spectrum = spectral.end_spectrum
    want = end_spectrum(fields, couplings)

    def overflowing(fields, couplings):
        lam, log_weights, signs, ok = end_spectrum(fields, couplings)
        log_weights[1, 4] = 1000.0
        return lam, log_weights, signs, ok

    monkeypatch.setattr(spectral, "end_spectrum", overflowing)
    calls = counted_eigendecompose(monkeypatch, spectral)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam, w, (*_, ok) = spectral._end_weights(fields, couplings)
    assert ok.all() and len(calls) == 1
    assert_eigenvector_weights(calls[0], lam[1], w[1])
    for r in (0, 2):
        assert lam[r].tobytes() == want[0][r].tobytes()
        assert w[r].tobytes() == (want[2][r] * np.exp(want[1][r])).tobytes()


@pytest.mark.parametrize("name", sorted(FALLBACK_CHAINS))
def test_fallback_takes_the_eigenvector_path(name, monkeypatch):
    chain = FALLBACK_CHAINS[name]
    weight_calls = counted_eigendecompose(monkeypatch, spectral)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # decided before any log(0) or 1/0
        lam, w, _ = spectral._end_weights(chain.fields[None], chain.couplings[None])
    assert len(weight_calls) == 1
    assert_eigenvector_weights(chain, lam[0], w[0])
    calls = counted_eigendecompose(monkeypatch, montecarlo)
    for window_in, window_out in FALLBACK_WINDOWS:
        for t in FALLBACK_TIMES:
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                score = score_chain(chain, window_in, window_out, t)
            assert len(calls) == 1
            assert score == eigenvector_fidelity(chain, t, window_in, window_out)
            assert score == pytest.approx(oracle_fidelity(chain, window_in, window_out, t),
                                          abs=TOL)


def test_overflowing_recurrence_takes_the_eigenvector_path(monkeypatch):
    chain = OVERFLOWING_CHAIN
    weight_calls = counted_eigendecompose(monkeypatch, spectral)
    calls = counted_eigendecompose(monkeypatch, montecarlo)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spectral._end_weights(chain.fields[None], chain.couplings[None])  # the weights are fine
        score = score_chain(chain, 4, 1, 3.0)
    assert not weight_calls and len(calls) == 1
    assert score == eigenvector_fidelity(chain, 3.0, 4, 1)


def test_window1_scorer_uses_no_eigenvectors(monkeypatch):
    def forbidden(*args):
        raise AssertionError("eigenvectors computed on the window-1 path")

    # eigendecompose is the only eigenvector path: a fallback row, or windows
    # whose recurrences would share a site (16 + 16 > 31)
    monkeypatch.setattr(montecarlo, "eigendecompose", forbidden)
    chain = sample_disordered_chain(uniform_chain(31), normal_disorder(0.1, 0.1, seed=2), 0)
    for window in (1, 2, 5, 15):
        score_chain(chain, window, window, 15.0)
    with pytest.raises(AssertionError):
        score_chain(chain, 16, 16, 15.0)
