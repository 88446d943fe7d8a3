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

A mirror-symmetric chain (J_i = J_{N-i}, B_i = B_{N+1-i}) commutes with the
reflection, so its spectrum is the union of two tridiagonal spectra of about
N/2 sites, on vectors even and odd under it.  end_spectrum solves such a row as
those two sectors, which costs about 0.6x one whole solve.  The test is exact
equality with the reversed row, one stacked comparison per call, so no
disordered row takes it; a row whose two sectors give a repeated eigenvalue
between them is solved whole, as every other row is.
"""

from __future__ import annotations

import functools
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


def end_windows(n: int, size_in: int, size_out: int, time: float = 0.0) -> None:
    """ValueError unless the end windows, sites 1..size_in in and the last size_out out,
    fit an n-site chain and time is finite and >= 0."""
    if not (1 <= size_in <= n and 1 <= size_out <= n):
        raise ValueError("window sizes must be in 1..n")
    time = float(time)
    if not math.isfinite(time):
        raise ValueError(f"window time must be finite, got {time!r}")
    if time < 0:
        raise ValueError("window time must be >= 0")


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


def window_amplitudes(eig: Eigensystem, window_in: int, window_out: int,
                      time: float) -> np.ndarray:
    """Propagator entries <j|e^{-iHt}|i>, j in the last window_out sites, i in the first window_in.

    Equivalent to slicing full_propagator but O(window_out * window_in * N).
    """
    n = eig.n
    end_windows(n, window_in, window_out, time)
    phases = np.exp(-1j * eig.eigenvalues * time)
    return (eig.eigenvectors[n - window_out:] * phases) @ eig.eigenvectors[:window_in].T


def end_spectrum(fields: np.ndarray, couplings: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lam, log_weights, signs, ok) of the chains with fields[r], couplings[r].

    Eigenvalues ascend (LAPACK dstevd, no vectors).  A row whose couplings and fields
    each equal their own reverse exactly is mirror-symmetric, and its spectrum is that of
    two half-size sectors (_mirror_sectors), solved apart and merged; a merged spectrum
    that is not strictly ascending (eigenvalues of the two sectors that collide in
    rounding) is solved whole instead, as every other row is.  Weight v_k(1) v_k(N) =
    signs * exp(log_weights), summed as logarithms: prod J_i alone leaves double range on
    long chains.  ok[r] is False, and row r's weights are meaningless, where a coupling is
    zero or an eigenvalue repeats.
    """
    m, n = fields.shape
    lam = np.empty((m, n))
    mirror = ((couplings == couplings[:, ::-1]).all(axis=1)
              & (fields == fields[:, ::-1]).all(axis=1))
    if mirror.any():
        (even, even_off), (odd, odd_off) = _mirror_sectors(fields, couplings)
    for r, split in enumerate(mirror.tolist()):
        if split:
            lam[r, :even.shape[1]] = _eigenvalues(even[r], even_off[r])
            lam[r, even.shape[1]:] = _eigenvalues(odd[r], odd_off[r])
            lam[r].sort()
        else:
            lam[r] = _eigenvalues(fields[r], couplings[r])
    ascending = (lam[:, 1:] > lam[:, :-1]).all(axis=1)
    for r in np.flatnonzero(mirror & ~ascending):  # the two sectors' eigenvalues collide
        lam[r] = _eigenvalues(fields[r], couplings[r])
        ascending[r] = (lam[r, 1:] > lam[r, :-1]).all()
    ok = (couplings != 0.0).all(axis=1) & ascending
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


def _eigenvalues(diagonal: np.ndarray, offdiagonal: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the tridiagonal matrix with this diagonal and off-diagonal
    (dstevd, no vectors); a one-site matrix's is its diagonal entry."""
    if diagonal.size == 1:  # dstevd would want an off-diagonal entry all the same
        return diagonal.copy()
    lam, _, info = dstevd(diagonal, offdiagonal, compute_v=0)
    if info:  # pragma: no cover - LAPACK failure is pathological
        raise NumericalFailure(f"tridiagonal eigensolver failed (info={info})")
    return lam


def _mirror_sectors(fields: np.ndarray, couplings: np.ndarray) -> tuple[tuple, tuple]:
    """((d, e), (d, e)): the diagonals and off-diagonals of the even and odd sectors of
    mirror-symmetric chains, whose spectra together are the chain's.

    On vectors with v_i = +-v_{N+1-i} the chain acts on the first half of the sites: for
    odd N = 2h + 1 the even sector keeps the centre site, joined by sqrt(2) J_h, and the odd
    sector drops it; for even N = 2h the centre bond adds +-J_h to the last diagonal entry.
    """
    h = fields.shape[1] // 2
    if fields.shape[1] % 2:
        joined = couplings[:, :h].copy()
        joined[:, -1] *= math.sqrt(2.0)
        return (fields[:, :h + 1], joined), (fields[:, :h], couplings[:, :h - 1])
    plus, minus = fields[:, :h].copy(), fields[:, :h].copy()
    plus[:, -1] += couplings[:, h - 1]
    minus[:, -1] -= couplings[:, h - 1]
    return (plus, couplings[:, :h - 1]), (minus, couplings[:, :h - 1])


def _end_weights(fields: np.ndarray, couplings: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(lam, w, spectrum): eigenvalues and weights w_k = v_k(1) v_k(N) of each chain from
    spectrum = end_spectrum(fields, couplings), or from eigendecompose in a row that is
    not ok or whose w is not finite (the kernel's fallback)."""
    spectrum = end_spectrum(fields, couplings)
    lam, log_weights, signs, ok = spectrum
    with np.errstate(over="ignore", invalid="ignore"):
        w = signs * np.exp(log_weights)
    lam = lam.copy()  # fallback rows are rewritten here; the spectrum stays as solved
    for r in np.flatnonzero(~(ok & np.isfinite(w).all(axis=1))):
        eig = eigendecompose(Chain(n=fields.shape[1], couplings=couplings[r], fields=fields[r]))
        lam[r], w[r] = eig.eigenvalues, eig.eigenvectors[-1] * eig.eigenvectors[0]
    return lam, w, spectrum


def _log_tail(k: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Log of a bound on sum_{j >= k} 2 |J_j(z)|, for 0 <= z < k.

    Kapteyn's inequality (DLMF section 10.14) bounds |J_j(z)| by e^phi(j), with
    phi(j) = j (s - a), cosh a = j / z and s = tanh a; phi is concave in j with slope -a,
    so the sum is at most 2 e^phi(k) / (1 - e^-a).
    """
    with np.errstate(divide="ignore"):  # z = 0: a = inf, the bound is 0
        x = z / k
        s = np.sqrt((1.0 - x) * (1.0 + x))
        a = np.log1p(s) - np.log(x)
        return np.log(2.0) + k * (s - a) - np.log(-np.expm1(-a))


@functools.cache
def _tail_thresholds(tail: float, size: int) -> np.ndarray:
    """z_K for K = 1..size: the largest z at which the terms from K on sum to at most tail
    by _log_tail.  Each entry is bisected on its own, so a longer table starts the same."""
    k = np.arange(1, size + 1, dtype=float)
    lo, hi = np.zeros(size), k.copy()
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        held = _log_tail(k, mid) <= np.log(tail)
        lo, hi = np.where(held, mid, lo), np.where(held, hi, mid)
    lo.flags.writeable = False
    return lo
