"""Small constructions shared by the tests."""

import numpy as np

from spintransfer import eigendecompose, end_windows, fidelity_single, full_propagator, montecarlo


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


def counted_eigendecompose(monkeypatch) -> list:
    """Patch the kernel's eigenvector fallback to record each chain it solves."""
    calls = []

    def counting(chain):
        calls.append(chain)
        return eigendecompose(chain)

    monkeypatch.setattr(montecarlo, "eigendecompose", counting)
    return calls
