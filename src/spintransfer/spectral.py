"""Exact spectral decomposition and time evolution in the one-excitation sector.

Propagators are built from the spectrum of the tridiagonal matrix, never
from series expansions, so they stay unitary to machine precision at
arbitrarily large times.  In general amplitudes follow the eigendecomposition

    <j| e^{-iHt} |i> = sum_k v_k(j) e^{-i lambda_k t} v_k(i)

with real orthonormal eigenvectors v_k.  The end weights need no
eigenvectors: for a tridiagonal matrix with nonzero couplings J_i and simple
eigenvalues

    v_k(1) v_k(N) = prod_i J_i / prod_{j != k} (lambda_k - lambda_j)

(the residues of the resolvent entry (z - H)^{-1}_{N1}; Kay, IJQI 8, 641
(2010)).  end_spectrum computes them for a stack of chains, and _end_weights
turns them into weights, taking eigendecompose for a row the identity cannot
take; eigendecompose stays the reference for every amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstevd

from .chain import Chain, NumericalFailure


@dataclass
class Eigensystem:
    """Ascending eigenvalues and the matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column k pairs with eigenvalues[k]

    @property
    def n(self) -> int:
        return self.eigenvalues.size


@dataclass
class TransferWindow:
    """Input/output site sets (1-based) and the extraction time."""

    input_sites: tuple[int, ...]
    output_sites: tuple[int, ...]
    time: float

    def __post_init__(self):
        self.input_sites = tuple(int(s) for s in self.input_sites)
        self.output_sites = tuple(int(s) for s in self.output_sites)
        self.time = float(self.time)
        for name, sites in (("input", self.input_sites), ("output", self.output_sites)):
            if not sites:
                raise ValueError(f"{name} site set is empty")
            if len(set(sites)) != len(sites):
                raise ValueError(f"{name} site set has duplicates")
            if min(sites) < 1:
                raise ValueError(f"{name} sites must be >= 1")
        if not math.isfinite(self.time):
            raise ValueError(f"window time must be finite, got {self.time!r}")
        if self.time < 0:
            raise ValueError("window time must be >= 0")

    def validate_for(self, n: int) -> None:
        if max(max(self.input_sites), max(self.output_sites)) > n:
            raise ValueError(f"window sites exceed chain length {n}")


def end_windows(n: int, size_in: int, size_out: int, time: float = 0.0) -> TransferWindow:
    """Contiguous windows at the two chain ends: sites 1..size_in in, the last size_out out."""
    if not (1 <= size_in <= n and 1 <= size_out <= n):
        raise ValueError("window sizes must be in 1..n")
    return TransferWindow(
        input_sites=tuple(range(1, size_in + 1)),
        output_sites=tuple(range(n - size_out + 1, n + 1)),
        time=time,
    )


def _fix_sign_gauge(vectors: np.ndarray) -> np.ndarray:
    # Make the largest-magnitude component of each column positive (lowest
    # index on ties): deterministic output for regression tests.
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def eigendecompose(chain: Chain) -> Eigensystem:
    """Full eigensystem of the chain's single-excitation matrix, ascending eigenvalues.

    Zero couplings are allowed (a disorder draw can disconnect the chain); the
    spectrum is then no longer guaranteed simple but the decomposition is
    still exact.
    """
    try:
        w, v = eigh_tridiagonal(chain.fields, chain.couplings)
    except Exception as exc:  # pragma: no cover - LAPACK failure is pathological
        raise NumericalFailure(f"tridiagonal eigensolver failed: {exc}") from exc
    order = np.argsort(w, kind="stable")
    return Eigensystem(eigenvalues=w[order], eigenvectors=_fix_sign_gauge(v[:, order]))


def propagator_amplitude(eig: Eigensystem, i: int, j: int, t: float) -> complex:
    """<j| e^{-iHt} |i> for 1-based sites i, j."""
    n = eig.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"sites must be in 1..{n}")
    prod = eig.eigenvectors[j - 1, :] * eig.eigenvectors[i - 1, :]
    return complex(np.sum(prod * np.exp(-1j * eig.eigenvalues * t)))


def full_propagator(eig: Eigensystem, t: float) -> np.ndarray:
    """Complex N x N unitary e^{-iHt}."""
    phases = np.exp(-1j * eig.eigenvalues * t)
    return (eig.eigenvectors * phases) @ eig.eigenvectors.T


def window_amplitudes(eig: Eigensystem, window: TransferWindow) -> np.ndarray:
    """Propagator entries <j|e^{-iHt}|i> for j in the output set, i in the input set.

    Equivalent to slicing full_propagator but O(|out| * |in| * N).
    """
    window.validate_for(eig.n)
    rows = np.asarray(window.output_sites) - 1
    cols = np.asarray(window.input_sites) - 1
    phases = np.exp(-1j * eig.eigenvalues * window.time)
    return (eig.eigenvectors[rows, :] * phases) @ eig.eigenvectors[cols, :].T


def end_spectrum(fields: np.ndarray, couplings: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lam, log_weights, signs, ok) of the chains with fields[r], couplings[r].

    Eigenvalues ascend (LAPACK dstevd, no vectors).  Weight v_k(1) v_k(N) =
    signs * exp(log_weights), summed as logarithms: prod J_i alone leaves
    double range on long chains.  ok[r] is False, and row r's weights are
    meaningless, where a coupling is zero or an eigenvalue repeats.
    """
    m, n = fields.shape
    lam = np.empty((m, n))
    for r in range(m):
        lam[r], _, info = dstevd(fields[r], couplings[r], compute_v=0)
        if info:  # pragma: no cover - LAPACK failure is pathological
            raise NumericalFailure(f"tridiagonal eigensolver failed (info={info})")
    ok = (couplings != 0.0).all(axis=1) & (lam[:, 1:] > lam[:, :-1]).all(axis=1)
    log_gaps = np.empty((m, n))
    step = max(1, (1 << 16) // n ** 2)  # slices of about 2^16 gaps (0.5 MB), or one chain
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) on rows that are not ok
        for s in range(0, m, step):
            gaps = np.abs(lam[s:s + step, :, None] - lam[s:s + step, None, :])
            gaps.reshape(-1, n * n)[:, ::n + 1] = 1.0
            log_gaps[s:s + step] = np.sum(np.log(gaps), axis=2)
        log_weights = np.sum(np.log(np.abs(couplings)), axis=1, keepdims=True) - log_gaps
    # prod_{j != k} (lambda_k - lambda_j) has n-1-k negative factors
    signs = np.sign(couplings).prod(axis=1, keepdims=True) * (-1.0) ** np.arange(n - 1, -1, -1)
    return lam, log_weights, signs, ok


def _end_weights(fields: np.ndarray, couplings: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(lam, w, spectrum): eigenvalues and weights w_k = v_k(1) v_k(N) of each chain from
    spectrum = end_spectrum(fields, couplings), or from eigendecompose in a row that is
    not ok or whose w is not finite (the kernel's fallback).  One chain's 1-D fields and
    couplings give its lam and w, with the one-row spectrum."""
    if fields.ndim == 1:
        lam, w, spectrum = _end_weights(fields[None], couplings[None])
        return lam[0], w[0], spectrum
    spectrum = end_spectrum(fields, couplings)
    lam, log_weights, signs, ok = spectrum
    with np.errstate(over="ignore", invalid="ignore"):
        w = signs * np.exp(log_weights)
    lam = lam.copy()  # fallback rows are rewritten here; the spectrum stays as solved
    for r in np.flatnonzero(~(ok & np.isfinite(w).all(axis=1))):
        eig = eigendecompose(Chain(n=fields.shape[1], couplings=couplings[r], fields=fields[r]))
        lam[r], w[r] = eig.eigenvalues, eig.eigenvectors[-1] * eig.eigenvectors[0]
    return lam, w, spectrum
