"""Small constructions shared by the tests, and the table of hard regimes that both
block producers are checked on against the full propagator."""

import warnings

import numpy as np
import pytest

from spintransfer import (Chain, apollaro_chain, eigendecompose, end_windows, fidelity_single,
                          full_propagator, montecarlo, normal_disorder, pst_chain,
                          uniform_chain, uniform_disorder)
from spintransfer.disorder import draw_realizations


def dense_hamiltonian(chain) -> np.ndarray:
    """The chain's N x N single-excitation matrix: fields on the diagonal, couplings beside it."""
    return np.diag(chain.fields) + np.diag(chain.couplings, 1) + np.diag(chain.couplings, -1)


def score_rows(couplings, fields, window_in, window_out, times) -> np.ndarray:
    """The kernel's fidelity of each row's chain.

    end_spectrum is looked up on montecarlo at each call, so a test that patches it there
    reaches this path too.
    """
    spectrum = montecarlo.end_spectrum(fields, couplings)
    return montecarlo._score_spectrum(couplings, fields, spectrum, window_in, window_out, times)


def score_chain(chain, window_in, window_out, time) -> float:
    """score_rows of one chain at one time."""
    return score_rows(chain.couplings[None], chain.fields[None], window_in, window_out,
                      np.array([float(time)]))[0]


def propagate_rows(couplings, fields, window_in, window_out, times) -> np.ndarray:
    """The Chebyshev producer's fidelity of each row's chain, whichever producer the
    rule would pick, through the kernel's shared tail."""
    counts = montecarlo._term_counts(montecarlo._gershgorin(fields, couplings)[1] * times,
                                     montecarlo._TAIL)
    top = montecarlo._chebyshev_tops(couplings, fields, window_in, window_out, times, counts)
    return montecarlo._score_tops(top, couplings, fields, window_in, window_out, times)


def oracle_fidelity(chain, window_in, window_out, t):
    """Top singular value of the window slice of the full propagator."""
    window = end_windows(chain.n, window_in, window_out, t)
    u = full_propagator(eigendecompose(chain), t)
    block = u[np.ix_(np.array(window.output_sites) - 1, np.array(window.input_sites) - 1)]
    top = np.linalg.svd(block, compute_uv=False)[0]
    return fidelity_single(min(float(top), 1.0))


def counted_eigendecompose(monkeypatch, module) -> list:
    """Patch module's eigendecompose (montecarlo: the kernel's eigenvector fallback;
    spectral: the end weights') to record each chain it solves."""
    calls = []

    def counting(chain):
        calls.append(chain)
        return eigendecompose(chain)

    monkeypatch.setattr(module, "eigendecompose", counting)
    return calls


# ---------------------------------------------------------------------------
# hard regimes: one table for both producers
# ---------------------------------------------------------------------------

PRODUCERS = {"spectral": score_rows, "chebyshev": propagate_rows}

# disorder ensembles: name -> (base chain, disorder, rows, time)
ENSEMBLES = {
    "apollaro": (apollaro_chain(41, 0.45, 0.75), normal_disorder(0.15, 0.1, seed=45), 80, 21.3),
    # couplings cross zero: the sign of prod J_i enters every weight
    "couplings_cross_zero": (pst_chain(41), uniform_disorder(1.5, 0.1, seed=46), 64, 33.7),
    # nothing arrives: end amplitudes near 1e-30
    "strongly_localized": (uniform_chain(201), normal_disorder(1.0, 1.0, seed=47), 24, 100.5),
    # strong fields on N=51, for windows whose recurrences would share a site
    "overlapping_windows": (uniform_chain(51), normal_disorder(0.2, 2.0, seed=48), 16, 30.0),
}

# chains the spectral producer scores from the eigensystem (zero coupling, repeated
# eigenvalue, overflowing recurrence); the Chebyshev producer needs no spectrum for any
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
    "all_couplings_zero": Chain(n=6, couplings=np.zeros(5), fields=np.full(6, 0.3)),
}

FALLBACK_WINDOWS = [(1, 1), (2, 1), (1, 2), (2, 2), (4, 1)]
FALLBACK_TIMES = (0.0, 2.1, 40.0)

# two bonds of 1e-170 push r_4 past the double range; the spectrum is simple
OVERFLOWING_CHAIN = Chain(n=8, couplings=[1.0, 1e-170, 1e-170, 1.0, 0.8, 1.1, 0.9],
                          fields=np.linspace(0.1, 0.8, 8))

MIRROR_WINDOWS = [(1, 1), (3, 3), (5, 5), (2, 4), (4, 2)]
MIRROR_TIMES = (7.3, 311.0)


def ensemble(name):
    """(couplings, fields, time) of ENSEMBLES[name], after checking what makes it hard."""
    base, spec, rows, t = ENSEMBLES[name]
    couplings, fields = draw_realizations(base, spec, 0, rows)
    if name == "couplings_cross_zero":
        assert (couplings < 0).any()
    if name == "strongly_localized":
        u = full_propagator(eigendecompose(Chain(n=base.n, couplings=couplings[0],
                                                 fields=fields[0])), t)
        assert abs(u[-1, 0]) < 1e-20
    return couplings, fields, t


def mirror_chain(n, weak):
    """Mirror halves joined by weak centre bonds: eigenvalues come in pairs split by
    about weak (one bond, even n) or far less (two bonds, odd n)."""
    couplings = uniform_chain(n).couplings.copy()
    couplings[(n - 1) // 2] = couplings[n // 2 - 1] = weak
    chain = Chain(n=n, couplings=couplings, fields=np.zeros(n))
    assert np.min(np.diff(eigendecompose(chain).eigenvalues)) <= weak
    return chain


def assert_matches_oracle(producer, couplings, fields, t, window_in, window_out):
    """The producer's fidelity of each row at time t is within 1e-12 of oracle_fidelity,
    and scoring the rows raises no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = PRODUCERS[producer](couplings, fields, window_in, window_out,
                                  np.full(fields.shape[0], t))
    n = fields.shape[1]
    for r in range(fields.shape[0]):
        chain = Chain(n=n, couplings=couplings[r], fields=fields[r])
        assert got[r] == pytest.approx(oracle_fidelity(chain, window_in, window_out, t),
                                       abs=1e-12)


def fallbacks_on_ensemble(producer, name, window_in, window_out, monkeypatch) -> int:
    """assert_matches_oracle on ENSEMBLES[name]; the kernel's eigendecompose calls."""
    couplings, fields, t = ensemble(name)
    calls = counted_eigendecompose(monkeypatch, montecarlo)
    assert_matches_oracle(producer, couplings, fields, t, window_in, window_out)
    return len(calls)


def fallbacks_on_mirror_chain(producer, n, weak, monkeypatch) -> int:
    """assert_matches_oracle on mirror_chain(n, weak) at each window and time; the
    kernel's eigendecompose calls."""
    chain = mirror_chain(n, weak)
    calls = counted_eigendecompose(monkeypatch, montecarlo)
    for window_in, window_out in MIRROR_WINDOWS:
        for t in MIRROR_TIMES:
            assert_matches_oracle(producer, chain.couplings[None], chain.fields[None], t,
                                  window_in, window_out)
    return len(calls)
