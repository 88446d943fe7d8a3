"""Small constructions shared by the tests."""

import numpy as np

from spintransfer import montecarlo


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
