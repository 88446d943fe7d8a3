"""Optimal window encodings and fidelity formulas.

The logical qubit is spread over a small input window; after evolving for the
window time, it is collected from an output window.  The best single-
excitation code is read off the singular value decomposition of the windowed
propagator block: the top right-singular vector is the state to prepare, the
top left-singular vector is the state that arrives, and the singular value
lambda sets the state-averaged transfer fidelity

    F(lambda) = 1/3 + (1 + lambda)^2 / 6.

Using the k largest singular values to encode into k excitations gives

    F = 1/3 + (1 + prod lambda_i)^2 / 6
            + (1 - prod lambda_i^2 - prod (1 - lambda_i^2)) / 6,

which dominates the product-only estimate 1/3 + (1 + prod lambda_i)^2 / 6;
the extra term is the arrival weight that decoding can still salvage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import FORMAT_VERSION, write_json
from .spectral import Eigensystem, propagator_amplitude, window_amplitudes


@dataclass
class EncodingSolution:
    """Descending singular values with paired input/output singular vectors.

    input_vectors[k] lives on the input window sites, output_vectors[k] on the
    output window sites (1-based), and the window block at the extraction time
    maps input_vectors[k] to singular_values[k] * output_vectors[k].
    """

    singular_values: np.ndarray
    input_vectors: np.ndarray   # shape (k, window_in), rows are vectors
    output_vectors: np.ndarray  # shape (k, window_out)
    time: float
    input_sites: range          # 1..window_in
    output_sites: range         # n - window_out + 1..n


def _check_unitary(top) -> None:
    """ValueError if a window block's top singular value (or any in an array) exceeds 1."""
    if (top > 1.0 + 1e-10).any():
        raise ValueError(f"window block has singular value {np.max(top)} > 1; "
                         "inputs are inconsistent")


def optimal_encoding(eig: Eigensystem, window_in: int, window_out: int,
                     time: float) -> EncodingSolution:
    """SVD of the window block M_ji = <out_j| e^{-iHt} |in_i> with a deterministic phase gauge.

    A top singular value above 1 raises ValueError.  Each input vector's
    largest-magnitude entry is made real positive (lowest index on ties) and the
    paired output vector absorbs the same phase, so M u_k = lambda_k v_k holds
    exactly in the returned gauge.
    """
    u, s, vh = np.linalg.svd(window_amplitudes(eig, window_in, window_out, time),
                             full_matrices=False)
    _check_unitary(s[0])
    inputs = vh.conj()           # rows: right singular vectors
    outputs = u.T                # rows: left singular vectors
    for k in range(s.size):
        idx = int(np.argmax(np.abs(inputs[k])))
        mag = abs(inputs[k][idx])
        if mag > 0:
            phase = inputs[k][idx] / mag
            inputs[k] = inputs[k] * np.conj(phase)
            outputs[k] = outputs[k] * np.conj(phase)
    return EncodingSolution(singular_values=s, input_vectors=inputs, output_vectors=outputs,
                            time=float(time), input_sites=range(1, window_in + 1),
                            output_sites=range(eig.n - window_out + 1, eig.n + 1))


# ---------------------------------------------------------------------------
# fidelity formulas
# ---------------------------------------------------------------------------

def _check_lambdas(lambdas: Sequence[float]) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(lambdas, dtype=float))
    if lam.size == 0:
        raise ValueError("need at least one singular value")
    if not ((lam >= -1e-15) & (lam <= 1.0 + 1e-10)).all():  # written so that NaN fails it
        raise ValueError("singular values must lie in [0, 1]")
    return np.minimum(np.maximum(lam, 0.0), 1.0)  # np.clip, without its call overhead


def fidelity_single(lambda1):
    """State-averaged fidelity of a single-excitation encoding.

    An array of singular values gives the array of fidelities, each equal
    bit for bit to the value for that singular value alone.
    """
    lam = _check_lambdas(lambda1)
    fid = 1.0 / 3.0 + (1.0 + lam) ** 2 / 6.0
    return fid if np.ndim(lambda1) else fid[0]


def fidelity_haselgrove(lambdas: Sequence[float]) -> float:
    """Product-only multi-excitation estimate: all excitations must arrive."""
    lam = _check_lambdas(lambdas)
    c = float(np.prod(lam))
    return 1.0 / 3.0 + (1.0 + c) ** 2 / 6.0


def fidelity_multi(lambdas: Sequence[float]) -> float:
    """Multi-excitation fidelity with the partial-arrival enhancement term."""
    lam = _check_lambdas(lambdas)
    prod = float(np.prod(lam))
    prod_sq = float(np.prod(lam ** 2))
    prod_miss = float(np.prod(1.0 - lam ** 2))
    return (1.0 / 3.0 + (1.0 + prod) ** 2 / 6.0
            + (1.0 - prod_sq - prod_miss) / 6.0)


def best_excitation_count(lambdas: Sequence[float]) -> tuple[int, float]:
    """Number of excitations (prefix of the descending values) maximizing fidelity.

    Ties go to the smaller count.
    """
    lam = _check_lambdas(lambdas)
    if np.any(np.diff(lam) > 1e-12):
        raise ValueError("singular values must be in descending order")
    best_n, best_f = 1, fidelity_multi(lam[:1])
    for k in range(2, lam.size + 1):
        f = fidelity_multi(lam[:k])
        if f > best_f + 1e-15:
            best_n, best_f = k, f
    return best_n, best_f


def end_to_end_fidelity(eig: Eigensystem, t: float) -> float:
    """Unencoded site-1 to site-N averaged transfer fidelity at time t."""
    amp = abs(propagator_amplitude(eig, 1, eig.n, t))
    return fidelity_single(min(amp, 1.0))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _vectors_to_json(sites: range, vectors: np.ndarray) -> list[dict]:
    # components are interleaved [re_0, im_0, re_1, im_1, ...] in site order
    return [{"sites": list(sites),
             "components": np.column_stack([vec.real, vec.imag]).ravel().tolist()}
            for vec in vectors]


def _encoding_to_dict(sol: EncodingSolution) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "time": sol.time,
        "singular_values": [float(s) for s in sol.singular_values],
        "input_vectors": _vectors_to_json(sol.input_sites, sol.input_vectors),
        "output_vectors": _vectors_to_json(sol.output_sites, sol.output_vectors),
    }


def save_encoding(sol: EncodingSolution, path) -> None:
    write_json(_encoding_to_dict(sol), path)
