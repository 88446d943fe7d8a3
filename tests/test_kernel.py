"""The eigenvalue-only end-to-end amplitude and the per-chain scorer built on it.

full_propagator (full eigensystem, N x N product) is the oracle throughout.
"""

import warnings

import numpy as np
import pytest

from _helpers import score_chain
from spintransfer import (Chain, TransferPolicy, eigendecompose, end_to_end_amplitude,
                          end_windows, fidelity_single, full_propagator, monte_carlo,
                          normal_disorder, optimal_encoding, pst_chain, pst_transfer_time,
                          quadratic_chain, quantile_interpolated, sample_disordered_chain,
                          sample_fidelity, uniform_chain, uniform_disorder)
from spintransfer import montecarlo
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


def eigenvector_fidelity(chain: Chain, t: float, window_in: int = 1, window_out: int = 1) -> float:
    """The eigenvector path of the scorer, called directly."""
    sol = optimal_encoding(eigendecompose(chain), end_windows(chain.n, window_in, window_out, t))
    return fidelity_single(min(float(sol.singular_values[0]), 1.0))


@pytest.mark.parametrize("n, samples", [(51, 200), (201, 40)])
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_amplitude_matches_full_propagator_on_ensembles(regime, n, samples):
    base = uniform_chain(n)
    t = auto_transfer_time(base)
    worst = 0.0
    negative = 0
    for i in range(samples):
        chain = sample_disordered_chain(base, REGIMES[regime], i)
        amp = end_to_end_amplitude(chain, t)
        assert amp is not None
        worst = max(worst, abs(amp - oracle_amplitude(chain, t)))
        negative += np.count_nonzero(chain.couplings < 0)
    assert worst <= TOL
    assert (negative > 0) == (regime == "couplings_cross_zero")


@pytest.mark.parametrize("n", [51, 201])
def test_amplitude_matches_full_propagator_on_pst_and_quadratic(n):
    pst = pst_chain(n)
    t_pst = pst_transfer_time(pst)
    assert abs(end_to_end_amplitude(pst, t_pst) - oracle_amplitude(pst, t_pst)) <= TOL
    assert abs(end_to_end_amplitude(pst, t_pst)) == pytest.approx(1.0, abs=1e-9)
    # quadratic_chain(201) has log10 prod J = 631: a plain product overflows
    quad = quadratic_chain(n)
    for t in (0.37, np.pi / 2, np.pi):
        assert abs(end_to_end_amplitude(quad, t) - oracle_amplitude(quad, t)) <= TOL


def test_amplitude_at_time_zero_and_two_sites():
    assert end_to_end_amplitude(uniform_chain(7), 0.0) == pytest.approx(0.0, abs=1e-15)
    # N=2: <2|U(t)|1> = -i sin(J t) with no field
    chain = Chain(n=2, couplings=[0.7], fields=[0.0, 0.0])
    assert end_to_end_amplitude(chain, 1.3) == pytest.approx(-1j * np.sin(0.91), abs=1e-15)


def test_non_finite_result_is_not_applicable():
    with np.errstate(invalid="ignore"):  # e^{-i lambda t} at t = inf is nan
        assert end_to_end_amplitude(uniform_chain(5), np.inf) is None


FALLBACK_CHAINS = {
    # a zero coupling cuts the chain (into two blocks with distinct spectra)
    "zero_coupling": Chain(n=5, couplings=[1.0, 0.7, 0.0, 0.9],
                           fields=[0.1, 0.0, 0.3, -0.2, 0.05]),
    # two mirror blocks joined by a bond far below rounding: the computed
    # spectrum is -1, -1, 1, 1 although every coupling is nonzero
    "repeated_eigenvalue": Chain(n=4, couplings=[1.0, 1e-200, 1.0], fields=np.zeros(4)),
    # both at once: log|J| and a gap logarithm are each -inf
    "zero_coupling_and_repeated_eigenvalue": Chain(n=4, couplings=[1.0, 0.0, 1.0],
                                                   fields=np.zeros(4)),
}


@pytest.mark.parametrize("name", sorted(FALLBACK_CHAINS))
def test_fallback_takes_the_eigenvector_path(name, monkeypatch):
    chain = FALLBACK_CHAINS[name]
    t = 2.1
    calls = []

    def counting_eigendecompose(h):
        calls.append(h)
        return eigendecompose(h)

    monkeypatch.setattr(montecarlo, "eigendecompose", counting_eigendecompose)
    for window_in, window_out in ((1, 1), (2, 1)):
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # decided before any log(0) or 1/0
            assert end_to_end_amplitude(chain, t) is None
            score = score_chain(chain, window_in, window_out, t)
        assert len(calls) == 1
        assert score == eigenvector_fidelity(chain, t, window_in, window_out)
    want = fidelity_single(min(abs(oracle_amplitude(chain, t)), 1.0))
    assert score_chain(chain, 1, 1, t) == pytest.approx(want, abs=TOL)


def test_overflowing_recurrence_takes_the_eigenvector_path(monkeypatch):
    # two bonds of 1e-170 push r_4 past the double range; the spectrum is simple
    chain = Chain(n=8, couplings=[1.0, 1e-170, 1e-170, 1.0, 0.8, 1.1, 0.9],
                  fields=np.linspace(0.1, 0.8, 8))
    calls = []

    def counting_eigendecompose(h):
        calls.append(h)
        return eigendecompose(h)

    monkeypatch.setattr(montecarlo, "eigendecompose", counting_eigendecompose)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert end_to_end_amplitude(chain, 3.0) is not None
        score = score_chain(chain, 4, 1, 3.0)
    assert len(calls) == 1
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


def test_scorer_keeps_the_singular_value_guard(monkeypatch):
    # an end-to-end amplitude beyond 1 cannot come from a unitary evolution:
    # all weight 1 + 1e-9 on one eigenvalue
    end_spectrum = montecarlo.end_spectrum

    def beyond_unitary(fields, couplings):
        lam, log_weights, signs, ok = end_spectrum(fields, couplings)
        log_weights[:] = -np.inf
        log_weights[:, 0] = np.log1p(1e-9)
        return lam, log_weights, signs, ok

    monkeypatch.setattr(montecarlo, "end_spectrum", beyond_unitary)
    with pytest.raises(ValueError, match="singular value"):
        score_chain(uniform_chain(5), 1, 1, 3.0)


def test_window1_monte_carlo_identical_across_threads():
    base = uniform_chain(41)
    spec = normal_disorder(0.1, 0.1, seed=21)
    policy = TransferPolicy(1, 1)
    one = monte_carlo(base, spec, policy, samples=60, threads=1)
    four = monte_carlo(base, spec, policy, samples=60, threads=4)
    assert one == four


def test_sample_fidelity_is_the_ensemble_element(monkeypatch):
    base = uniform_chain(41)
    spec = normal_disorder(0.1, 0.1, seed=22)
    policy = TransferPolicy(1, 1)
    t = auto_transfer_time(base)
    scored = {}
    score_range = montecarlo._score_range

    def recording(b, s, p, time, start, stop):
        scored[start] = score_range(b, s, p, time, start, stop)
        return scored[start]

    monkeypatch.setattr(montecarlo, "_score_range", recording)
    stats = monte_carlo(base, spec, policy, samples=50, quantile=0.75)
    monkeypatch.undo()
    ensemble = np.concatenate([scored[start] for start in sorted(scored)])
    assert ensemble.size == 50
    for i in range(50):
        assert sample_fidelity(base, spec, i, policy) == ensemble[i]
        assert sample_fidelity(base, spec, i, policy, time=t) == ensemble[i]
    assert stats.mean == float(np.mean(ensemble))
    assert stats.minimum == float(np.min(ensemble))
    assert stats.quantile_value == quantile_interpolated(ensemble, 0.75)
