"""Exact spectral decomposition and time evolution in the one-excitation sector.

The reference propagators (full_propagator, window_amplitudes) are built from
the full eigensystem of the tridiagonal matrix, so they stay unitary to
machine precision at arbitrarily large times.  Amplitudes follow

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

Two block producers give the top singular value (_top_singular) of each row's
end-window block U_ji(t), or NaN where they decline the row:

- The spectral producer, _spectral_tops, computes no eigenvectors.  Each chain
  gets its eigenvalues and end weights w_k from end_spectrum, the window rows
  r_i (from site 1) and s_j (from site N) from the three-term recurrence
  (_window_rows), and the blocks U_ji(t) = sum_k s_j w_k e^{-i lam_k t} r_i
  of the whole stack are one stacked product.  It declines a chain the
  identity cannot take (zero coupling, repeated eigenvalue), whose block is
  not finite or whose rows' rounding estimate is too large (a weak link), and
  every chain once the two recurrences would share a site
  (window_in + window_out > N, both windows above 1).
- The Chebyshev producer, _chebyshev_tops, needs no spectrum.  It applies
  e^{-iHt} = e^{-i beta t} sum_k (2 - [k=0]) (-i)^k J_k(alpha t) T_k(H') to
  e_1 alone (the chain mirrored so that the input window is the smaller),
  H' = (H - beta) / alpha on the Gershgorin interval, with K terms (dropped
  tail at most 1e-15) and J_k by Miller's recurrence (Tal-Ezer & Kosloff,
  J. Chem. Phys. 81, 3967 (1984)).  Where no row of a call has a field left
  after the centring, H' only joins sites of opposite parity and T_k e_1 is
  exactly zero on half the sites, so each step computes one sublattice
  (_sum_bipartite_terms), with the bits of the full loop (_sum_terms).  U(t)
  commutes with H, so the other input columns follow from U e_1 near the
  output end by the chain's three-term recurrence, U e_{i+1} = ((H - B_i)
  U e_i - J_{i-1} U e_{i-1}) / J_i, the operator form of the spectral
  producer's window rows.  A row whose bound on that recurrence's error
  growth (_growth) exceeds _GROWTH comes back NaN.
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


def _top_singular(blocks: np.ndarray, ok=True) -> np.ndarray:
    """Top singular value of each block in a stack; NaN where a block is not ok or not finite.

    sigma_1 is sqrt(lambda_max) of the smaller Gram matrix, B^H B or B B^H, from one stacked
    eigvalsh, in about two thirds of the time of the SVD's singular values on 3 x 3 and 5 x 5
    stacks, and within 1e-15 of them on blocks of norm <= 1 (README, "Blocks and scores").
    A finite block whose Gram matrix overflows (entries beyond 1e154) reads inf, which the
    unitarity guard refuses: no producer makes one (Chebyshev rows are declined past _GROWTH,
    spectral and fallback blocks come from orthonormal eigenvectors)."""
    top = np.full(blocks.shape[0], np.nan)
    good = ok & np.isfinite(blocks).all(axis=(1, 2))
    blocks = blocks[good]
    if blocks.shape[1:] == (1, 1):
        top[good] = np.abs(blocks[:, 0, 0])
        return top
    adjoint = blocks.conj().transpose(0, 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = (adjoint @ blocks if blocks.shape[1] >= blocks.shape[2]
                else blocks @ adjoint)
    overflow = ~np.isfinite(gram).all(axis=(1, 2))
    gram[overflow] = 0.0  # eigvalsh would raise on inf or NaN entries
    values = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
    values[overflow] = np.inf
    top[good] = values
    return top


def _spectral_tops(couplings: np.ndarray, fields: np.ndarray, spectrum: tuple,
                   window_in: int, window_out: int, times: np.ndarray) -> np.ndarray:
    """Top singular value of each row's window block from its spectrum, NaN where the
    identity does not apply (not ok, overflow), the recurrences would share a site, or the
    rows' estimated rounding error (_window_rows) moves the block by more than _ROUNDING."""
    m, n = fields.shape
    if not (min(window_in, window_out) == 1 or window_in + window_out <= n):
        return np.full(m, np.nan)
    lam, log_weights, signs, ok = spectrum
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ins, outs, log_scale, errors = _window_rows(lam, fields, couplings, window_in,
                                                    window_out)
        weights = signs * np.exp(log_weights + log_scale)
        if max(window_in, window_out) > 1:  # window 1 runs no recurrence; NaN declines too
            ok = ok & (np.sum(np.abs(weights) * errors, axis=1) <= _ROUNDING)
        phases = np.exp(-1j * lam * times[:, None])
        blocks = ((outs.transpose(1, 0, 2) * weights[:, None, :])
                  @ (ins.transpose(1, 2, 0) * phases[:, :, None]))
    return _top_singular(blocks, ok)


def _window_rows(lam: np.ndarray, fields: np.ndarray, couplings: np.ndarray,
                 window_in: int, window_out: int) -> tuple[np.ndarray, ...]:
    """Rows r_i = v(i)/v(1) and s_j = v(j)/v(N) of the window sites, log scale, and an
    estimate of the rows' rounding error per eigenvalue.

    r_1 = 1, r_2 = (lam - B_1)/J_1, r_{i+1} = ((lam - B_i) r_i - J_{i-1} r_{i-1})/J_i
    on the chain, and s the same on its mirror image.  Each side is divided by
    its largest entry per eigenvalue, the logs summed: a weight far below the
    smallest double can meet rows far above 1.  The error estimate is eps max|lam| times
    max_i |dr_i/dlam| / max_i |r_i|, summed over the two sides, with the derivatives from
    the differentiated recurrence.  A solved eigenvalue is off by about eps max|lam|, and
    each step's rounding perturbs the rows alike; the estimate is large where the rows are
    the recurrence's recessive solution, across a weak bond or at a pair of near-degenerate
    eigenvalues mirrored about the chain's centre.
    """
    m = lam.shape[0]
    size = max(window_in, window_out)
    rows = np.empty((size, 2 * m, lam.shape[1]))
    rows[0] = 1.0
    ins, outs = rows[:window_in, :m], rows[window_out - 1::-1, m:]
    if size == 1:
        return ins, outs, 0.0, 0.0
    b = np.concatenate([fields, fields[:, ::-1]]).T[:size - 1, :, None]
    j = np.concatenate([couplings, couplings[:, ::-1]]).T[:size - 1, :, None]
    shift = np.concatenate([lam, lam]) - b
    slopes = np.zeros(rows.shape)  # dr_i/dlam
    for i in range(size - 1):
        step = shift[i] * rows[i]
        slope = shift[i] * slopes[i] + rows[i]
        if i:
            step -= j[i - 1] * rows[i - 1]
            slope -= j[i - 1] * slopes[i - 1]
        np.divide(step, j[i], out=rows[i + 1])
        np.divide(slope, j[i], out=slopes[i + 1])
    in_max, out_max = np.abs(ins).max(axis=0), np.abs(outs).max(axis=0)
    errors = (np.finfo(float).eps * np.abs(lam).max(axis=1, keepdims=True)
              * (np.abs(slopes[:window_in, :m]).max(axis=0) / in_max
                 + np.abs(slopes[:window_out, m:]).max(axis=0) / out_max))
    return ins / in_max, outs / out_max, np.log(in_max) + np.log(out_max), errors


# _chebyshev_tops declines a row where _growth > _GROWTH, and _spectral_tops one whose window
# rows' estimated rounding error moves its block by more than _ROUNDING (README, "How a chain is
# scored", has the oracle errors under the bound and the sweep).  The dropped Chebyshev terms
# sum to at most _TAIL; Miller's recurrence starts where they sum to _MILLER_TAIL.
_GROWTH = 2.0 ** 16
_TAIL = 1e-15
_MILLER_TAIL = 1e-20
_ROUNDING = 1e-10


def _gershgorin(fields: np.ndarray, couplings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre and half-width of each row's Gershgorin interval, which holds its spectrum.

    A half-width between 0 and 1e-300 is widened to 1e-300, an interval that still holds the
    spectrum: _chebyshev_tops scales H' by 2 / half, which would overflow."""
    bonds = np.abs(couplings)
    radius = np.zeros(fields.shape)
    radius[:, :-1] = bonds
    radius[:, 1:] += bonds
    lo, hi = (fields - radius).min(axis=1), (fields + radius).max(axis=1)
    half = 0.5 * (hi - lo)
    return 0.5 * (hi + lo), np.where(half > 0, np.maximum(half, 1e-300), half)


def _term_counts(z: np.ndarray, tail: float, limit: int | None = None) -> np.ndarray:
    """Per row, the fewest terms K > z_r whose dropped Chebyshev tail is at most tail, or
    limit + 1 where more than limit terms would be needed.

    The bound rises with z, so K is the first K with z <= z_K, found in a table that
    doubles from 64 entries until it covers max(z) or limit.
    """
    size = 64
    while _tail_thresholds(tail, size)[-1] < z.max() and (limit is None or size < limit):
        size *= 2
    return np.searchsorted(_tail_thresholds(tail, size)[:limit], z) + 1


def _chebyshev_coefficients(z: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(max(counts), m) coefficients of e^{-i z_r x} = sum_k (2 - [k=0]) (-i)^k J_k(z_r) T_k(x).

    Row r keeps its first counts[r] terms and is zero beyond.  (-i)^k is folded in as the
    sign + - - + of k mod 4: even terms are real parts, odd terms imaginary parts.  J_k is
    Miller's backward recurrence J_{k-1} = (2k/z) J_k - J_{k+1}, from J_S = 0, J_{S-1} = 1 at
    the row's own start S, normalized by J_0 + 2 sum J_2j = 1.
    """
    starts = _term_counts(z, _MILLER_TAIL)
    bessel = np.zeros((starts.max() + 2, z.size))
    bessel[starts - 1, np.arange(z.size)] = 1.0  # rows before their start stay 0
    # 2k / z; z = 0 has start 1, so J_0 = 1 comes from the seed alone.  A z below 1e-300 is
    # read as 1e-300, where 2 / z is still finite: J_0 = 1 and every other J_k is below 1e-300
    # either way
    ratios = np.arange(starts.max() + 1)[:, None] * (2.0 / np.maximum(z, 1e-300))
    even, step = np.zeros(z.size), np.empty(z.size)
    for k in range(starts.max(), 0, -1):
        np.multiply(ratios[k], bessel[k], out=step)
        step -= bessel[k + 1]
        bessel[k - 1] += step
        if k % 2 and k > 1:
            even += bessel[k - 1]
    count = counts.max()
    coef = bessel[:count] / (bessel[0] + 2.0 * even)
    coef[1:] *= 2.0
    coef *= np.array([1.0, -1.0, -1.0, 1.0])[np.arange(count) % 4, None]
    coef[np.arange(count)[:, None] >= counts] = 0.0
    return coef


def _growth(couplings: np.ndarray, fields: np.ndarray, window_in: int,
            window_out: int) -> np.ndarray:
    """Per row, the most the column recurrence of _chebyshev_tops can grow an error in U e_1.

    On the chain it propagates (mirrored when window_out < window_in), with the reach the last
    min(n, window_in + window_out - 1) sites: max A_i over i = 1..window_in, A_0 = 0, A_1 = 1,
    A_{i+1} = (g_i A_i + |J_{i-1}| A_{i-1}) / |J_i|, g_i = max_s (|B_s - B_i| + |J_{s-1}| + |J_s|)
    over the reach sites s; inf from a zero bond J_i on.
    """
    if window_out < window_in:
        return _growth(couplings[:, ::-1], fields[:, ::-1], window_out, window_in)
    m, n = fields.shape
    worst = np.ones(m)
    if window_in == 1:  # no recurrence step
        return worst
    reach = min(n, window_in + window_out - 1)
    bonds = np.zeros((m, n + 1))  # bonds[:, s] = |J_s|, J_0 = J_n = 0
    bonds[:, 1:n] = np.abs(couplings)
    radius = bonds[:, n - reach:n] + bonds[:, n - reach + 1:]
    prev, grow = np.zeros(m), np.ones(m)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, window_in):
            g = (np.abs(fields[:, n - reach:] - fields[:, i - 1, None]) + radius).max(axis=1)
            prev, grow = grow, np.divide(g * grow + bonds[:, i - 1] * prev, bonds[:, i],
                                         out=np.full(m, np.inf), where=bonds[:, i] > 0)
            worst = np.fmax(worst, grow)  # NaN (0 * inf past a zero bond) keeps inf
    return worst


def _chebyshev_tops(couplings: np.ndarray, fields: np.ndarray, window_in: int, window_out: int,
                    times: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Top singular value of each row's window block from one propagated column, NaN where
    _growth exceeds _GROWTH.

    With H' = (H - beta) / alpha on the row's Gershgorin interval, e^{-iHt} = e^{-i beta t}
    sum_k c_k T_k(H'); the phase is dropped (it moves no singular value).  T_k e_1 is summed
    on the last `reach` sites by _sum_terms, or by _sum_bipartite_terms where no row has a
    field left after the centring.  U(t) commutes with H', so the other input columns follow
    on the output side, one site fewer each: U e_{i+1} = ((H' - B'_i) U e_i - J'_{i-1}
    U e_{i-1}) / J'_i.  U(t) is symmetric, so a smaller output window is propagated on the
    mirrored chain.  counts[r] is row r's term count.
    """
    top = np.full(fields.shape[0], np.nan)
    ok = _growth(couplings, fields, window_in, window_out) <= _GROWTH
    if not ok.any():
        return top
    if not ok.all():
        couplings, fields, times, counts = couplings[ok], fields[ok], times[ok], counts[ok]
    if window_out < window_in:
        couplings, fields = couplings[:, ::-1], fields[:, ::-1]
        window_in, window_out = window_out, window_in
    m, n = fields.shape
    reach = min(n, window_in + window_out - 1)
    centre, half = _gershgorin(fields, couplings)
    coef = _chebyshev_coefficients(half * times, counts)
    scale = 2.0 / np.where(half > 0, half, 1.0)  # half 0: H' = 0
    # 2 H' on sites 1..n padded by a zero row at each end; bond[p] joins rows p-1 and p
    diag, bond = np.zeros((n + 2, m)), np.zeros((n + 2, m))
    diag[1:-1] = (fields - centre[:, None]).T * scale
    bond[2:-1] = couplings.T * scale
    out = slice(n + 1 - reach, n + 1)
    # cols[i]: real (even k) and imaginary (odd k) parts of U e_i on the reach sites, padded
    # by a row at each end (below: site n - reach, or the zero boundary when reach = n)
    cols = np.zeros((window_in + 1, 2, reach + 2, m))
    if diag.any():
        _sum_terms(diag, bond, coef, cols[1, :, 1:-1])
    else:
        _sum_bipartite_terms(bond, coef, cols[1, :, 1:-1])
    # unless reach = n, column i + 1 is wrong on its lowest i padded rows (from the unknown
    # site below the reach), which leaves exactly the window_out output sites of column
    # window_in
    shift = diag[out] - diag[1:window_in, None]
    left, right = bond[n + 1 - reach:n + 1], bond[n + 2 - reach:]
    for i in range(1, window_in):
        step = shift[i - 1] * cols[i, :, 1:-1]
        step += left * cols[i, :, :-2]
        step += right * cols[i, :, 2:]
        step -= bond[i] * cols[i - 1, :, 1:-1]
        np.divide(step, bond[i + 1], out=cols[i + 1, :, 1:-1])
    block = cols[1:, :, reach + 1 - window_out:-1]
    top[ok] = _top_singular((block[:, 0] + 1j * block[:, 1]).transpose(2, 1, 0))
    return top


def _light_cone(n: int, reach: int, count: int, k: int) -> tuple[int, int]:
    """Padded rows lo..hi-1 that step k of count computes: the sites e_1 reaches in k steps
    that can still reach the last reach sites by step count - 1."""
    return max(1, n + 2 - reach - count + k), min(n, 1 + k) + 1


def _sum_terms(diag: np.ndarray, bond: np.ndarray, coef: np.ndarray, acc: np.ndarray) -> None:
    """Add coef[k] T_k(H') e_1 on the last reach = acc.shape[1] sites to acc[k % 2], in k order.

    diag and bond are 2 H' on (n + 2, rows) padded stacks.  T_k e_1 runs on such stacks by
    T_{k+1} = 2 H' T_k - T_{k-1}, six ufunc calls a step on the rows of _light_cone.
    """
    n, reach, count = diag.shape[0] - 2, acc.shape[1], coef.shape[0]
    prev, cur, tmp = (np.zeros(diag.shape) for _ in range(3))
    cur[1] = 1.0  # T_0 e_1
    out = slice(n + 1 - reach, n + 1)
    first = n - reach  # T_k e_1 is zero on the reach sites before this k
    if first <= 0:
        acc[0] += coef[0] * cur[out]
    for k in range(1, count):
        lo, hi = _light_cone(n, reach, count, k)
        nxt, t = prev[lo:hi], tmp[lo:hi]
        np.multiply(diag[lo:hi], cur[lo:hi], out=t)
        np.subtract(t, nxt, out=nxt)
        np.multiply(bond[lo:hi], cur[lo - 1:hi - 1], out=t)
        nxt += t
        np.multiply(bond[lo + 1:hi + 1], cur[lo + 1:hi + 1], out=t)
        nxt += t
        if k == 1:
            nxt *= 0.5  # T_1 = H' T_0
        if k >= first:
            acc[k % 2] += coef[k] * prev[out]
        prev, cur = cur, prev


def _sum_bipartite_terms(bond: np.ndarray, coef: np.ndarray, acc: np.ndarray) -> None:
    """_sum_terms where 2 H' has a zero diagonal: each step computes one sublattice.

    H' then only joins sites of opposite parity, so T_k e_1 is exactly zero on the sites i
    with i - 1 - k odd.  The padded rows are kept as two contiguous sublattices, the rows of
    parity p in sub[p] (row 2 j + p at index j), each with its own copy of the bonds that
    join its rows to the rows below.  T_k lives in sub[(k + 1) % 2], where it overwrites
    T_{k-2}; each step computes its light-cone rows from the other sublattice as
    (b_lo c_lo - T_{k-2}) + b_hi c_hi, four ufunc calls on half the rows.  Every nonzero
    entry has _sum_terms' bits, since x - prev is (0 c - prev) + x in IEEE arithmetic.  Only
    the sign of a zero entry of T_k can differ, and acc, which starts at +0, stays +0 when
    either zero is added.
    """
    n, reach, count = bond.shape[0] - 2, acc.shape[1], coef.shape[0]
    sub = [np.zeros(((n + 3 - p) // 2, bond.shape[1])) for p in (0, 1)]
    bonds = [np.ascontiguousarray(bond[p::2]) for p in (0, 1)]
    tmp = np.empty(sub[0].shape)
    sub[1][0] = 1.0  # T_0 e_1, on row 1
    # the reach rows of parity p, first at row start[p]: where T_k of that parity (k + 1 - p
    # even) adds into acc[1 - p], and its view in sub[p]
    low = n + 1 - reach
    start = [low + (p - low) % 2 for p in (0, 1)]
    into = [acc[1 - p, start[p] - low::2] for p in (0, 1)]
    reads = [sub[p][start[p] // 2:start[p] // 2 + into[p].shape[0]] for p in (0, 1)]
    first = n - reach  # T_k e_1 is zero on the reach sites before this k
    if first <= 0:
        into[1] += coef[0] * reads[1]
    for k in range(1, count):
        lo, hi = _light_cone(n, reach, count, k)
        p = (k + 1) % 2
        # rows 2 a + p .. 2 (b - 1) + p; none where the light cone is empty (lo >= hi,
        # which leaves k < first), as every slice of _sum_terms is then empty
        a = (lo - p + 1) // 2
        b = max(a, (hi - p + 1) // 2)
        nxt, other, t = sub[p][a:b], sub[1 - p], tmp[:b - a]
        np.multiply(bonds[p][a:b], other[a + p - 1:b + p - 1], out=t)
        np.subtract(t, nxt, out=nxt)
        np.multiply(bonds[1 - p][a + p:b + p], other[a + p:b + p], out=t)
        nxt += t
        if k == 1:
            nxt *= 0.5  # T_1 = H' T_0
        if k >= first:
            into[p] += coef[k] * reads[p]
