"""Brute-force check of the free-fermion reduction at small sizes.

The k-excitation sector of the chain Hamiltonian is a C(N, k)-dimensional
hopping problem.  Because the model maps to free fermions, the transition
amplitude between occupation subsets is the k x k determinant of the
single-excitation propagator restricted to those subsets.  This module
evolves the k-excitation sector directly (dense eigendecomposition, no
stepping error) and compares against those determinants entry by entry.

Conventions: basis subsets are ordered lexicographically; determinant rows
and columns follow ascending site order within each subset.  The sector
diagonal uses the occupied-site field sum, which makes k = 1 coincide with
the single-excitation matrix exactly and leaves amplitudes free of any
k-dependent phase offset.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from .chain import Chain
from .spectral import Eigensystem, eigendecompose, full_propagator

MAX_SITES = 14
MAX_EXCITATIONS = 3


def _excitation_basis(n: int, k: int) -> list[tuple[int, ...]]:
    """Lexicographically ordered k-subsets of {1..N}, stored 0-based."""
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    return list(combinations(range(n), k))


def _check_size_guard(n: int, k: int) -> None:
    if n > MAX_SITES or k > MAX_EXCITATIONS:
        raise ValueError(
            f"subspace evolution is limited to n <= {MAX_SITES}, k <= {MAX_EXCITATIONS} "
            f"(got n={n}, k={k}); sizes beyond that are what the determinant form is for")


def _build_subspace_hamiltonian(chain: Chain, k: int) -> tuple[np.ndarray, list]:
    """The k-excitation sector of the chain Hamiltonian (dense, symmetric) and its basis."""
    _check_size_guard(chain.n, k)
    basis = _excitation_basis(chain.n, k)
    index = {s: i for i, s in enumerate(basis)}
    h = np.zeros((len(basis), len(basis)))
    for s in basis:
        i = index[s]
        h[i, i] = sum(chain.fields[p] for p in s)
        for p in s:
            q = p + 1
            if q < chain.n and q not in s:
                j = index[tuple(sorted(set(s) - {p} | {q}))]
                h[i, j] = h[j, i] = chain.couplings[p]
    return h, basis


def _subspace_propagator(chain: Chain, k: int, t: float) -> tuple[np.ndarray, list]:
    """e^{-iH_k t} in the k-excitation sector via dense eigendecomposition, with its basis."""
    h, basis = _build_subspace_hamiltonian(chain, k)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.T, basis


def determinant_amplitude(eig: Eigensystem, from_set, to_set, t: float) -> complex:
    """k-excitation amplitude as a determinant of single-excitation entries.

    from_set/to_set are site subsets (1-based); rows and columns are taken in
    ascending site order.
    """
    frm = sorted(int(s) - 1 for s in from_set)
    to = sorted(int(s) - 1 for s in to_set)
    if len(frm) != len(to):
        raise ValueError("from and to subsets must have the same size")
    if len(set(frm)) != len(frm) or len(set(to)) != len(to):
        raise ValueError("subsets must not contain repeats")
    if frm[0] < 0 or to[0] < 0 or frm[-1] >= eig.n or to[-1] >= eig.n:
        raise ValueError("subset sites out of range")
    u = full_propagator(eig, t)
    return complex(np.linalg.det(u[np.ix_(to, frm)]))


def verify_free_fermion(chain: Chain, k: int, t: float) -> float:
    """Max deviation |direct sector evolution - determinant| over all subset pairs."""
    u_k, basis = _subspace_propagator(chain, k, t)
    eig = eigendecompose(chain)
    u_1 = full_propagator(eig, t)
    worst = 0.0
    for a, sa in enumerate(basis):
        cols = list(sa)
        for b, sb in enumerate(basis):
            det = np.linalg.det(u_1[np.ix_(list(sb), cols)])
            worst = max(worst, abs(u_k[b, a] - det))
    return worst


def free_fermion_report(chain: Chain, k: int, t: float, tolerance: float = 1e-8) -> dict:
    if not tolerance >= 0:  # no deviation passes a negative tolerance
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    deviation = verify_free_fermion(chain, k, t)
    return {
        "n": chain.n,
        "k": k,
        "t": t,
        "basis_size": comb(chain.n, k),
        "max_deviation": deviation,
        "tolerance": tolerance,
        "passed": bool(deviation <= tolerance),
    }
