"""Chain families, transfer times, and the persymmetric inverse eigenvalue problem.

Model catalogue
---------------
uniform:    J_n = 1, B_n = 0.  Fast ballistic first arrival near t ~ N/2 with
            an imperfect peak.
apollaro:   uniform bulk with J_1 = J_{N-1} = x and J_2 = J_{N-2} = y; (x, y)
            are tuned numerically for high end-to-end fidelity.
pst:        J_n = 2 sqrt(n(N-n)) / N (even N) or / sqrt(N^2-1) (odd N).
            Equally spaced spectrum, perfect end-to-end transfer at t = pi/gap.
quadratic:  field-free mirror-symmetric chain whose spectrum is the signed
            squares +-1, +-4, ..., (plus 0 for odd N), built by inverse
            eigenvalue reconstruction.  Perfect transfer, but slow: the unit
            max-coupling transfer time grows like N^2.

First peak
----------
Chains without a perfect-transfer time are extracted at the first arrival
peak of |f(t)| = |<N|U(t)|1>| = |sum_k w_k e^{-i lam_k t}|, with lam and
w_k = v_k(1) v_k(N) from one spectral.end_spectrum solve.  The search scans
the grid t = k step in chunks, factoring each phase as
e^{-i lam (t_s + j step)} = e^{-i lam t_s} e^{-i lam j step}: one table of
the in-chunk offsets j per search, one length-N exponential per chunk.  It
stops at the first grid-local maximum and refines it by safeguarded Newton
steps on |f|^2, so the result depends only on which grid point wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import Chain, NumericalFailure
from .encoding import fidelity_single
from .spectral import _end_weights, eigendecompose

# Relative tolerances: the spread of eigenvalue gaps that still counts as equally spaced;
# the inverse problem's round-trip spectrum error and coupling mirror asymmetry; the mirror
# symmetry that selects a swap trace's spectral cross-check, and that check's agreement.
_SPACING_TOL = 1e-8
_ROUNDTRIP_TOL = 1e-8
_MIRROR_TOL = 1e-9
_SYMMETRY_TOL = 1e-10
_SWAP_TRACE_TOL = 1e-8


@dataclass
class SpectrumTarget:
    """Strictly increasing eigenvalue targets, symmetric about zero."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size < 2:
            raise ValueError("need at least two target eigenvalues")
        if not np.all(np.diff(lam) > 0):
            raise ValueError("target eigenvalues must be strictly increasing")
        scale = np.max(np.abs(lam))
        if np.max(np.abs(lam + lam[::-1])) > 1e-12 * scale:
            raise ValueError("target spectrum must be symmetric about 0")
        self.eigenvalues = lam

    @property
    def n(self) -> int:
        return self.eigenvalues.size


# ---------------------------------------------------------------------------
# model builders
# ---------------------------------------------------------------------------

def uniform_chain(n: int) -> Chain:
    """All couplings 1, all fields 0."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return Chain(n=n, couplings=np.ones(n - 1), fields=np.zeros(n), label=f"uniform-{n}")


def apollaro_chain(n: int, x: float, y: float) -> Chain:
    """Uniform bulk with the two outermost couplings at each end set to x and y."""
    if n < 5:
        raise ValueError("apollaro chain needs n >= 5 so the four tuned couplings are distinct")
    if not (0 < x <= 1.2 and 0 < y <= 1.2):
        raise ValueError("x and y must lie in (0, 1.2]")
    couplings = np.ones(n - 1)
    couplings[0] = couplings[-1] = x
    couplings[1] = couplings[-2] = y
    return Chain(n=n, couplings=couplings, fields=np.zeros(n),
                 label=f"apollaro-{n}-x{x:g}-y{y:g}")


def pst_chain(n: int) -> Chain:
    """Perfect-state-transfer coupling profile with unit maximum coupling."""
    if n < 2:
        raise ValueError("n must be >= 2")
    sites = np.arange(1, n)
    if n % 2 == 0:
        couplings = 2.0 * np.sqrt(sites * (n - sites)) / n
    else:
        couplings = 2.0 * np.sqrt(sites * (n - sites)) / np.sqrt(n * n - 1.0)
    return Chain(n=n, couplings=couplings, fields=np.zeros(n), label=f"pst-{n}")


def quadratic_spectrum(n: int) -> SpectrumTarget:
    """Signed-squares spectrum: +-1, +-4, ..., +-(N/2)^2, with 0 added for odd N."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n % 2 == 0:
        half = np.arange(1, n // 2 + 1, dtype=float) ** 2
        lam = np.concatenate([-half[::-1], half])
    else:
        half = np.arange(1, (n - 1) // 2 + 1, dtype=float) ** 2
        lam = np.concatenate([-half[::-1], [0.0], half])
    return SpectrumTarget(eigenvalues=lam)


def quadratic_chain(n: int) -> Chain:
    """Chain realizing the quadratic spectrum (natural, unrescaled units)."""
    chain = inverse_persymmetric_jacobi(quadratic_spectrum(n))
    chain.label = f"quadratic-{n}"
    return chain


# ---------------------------------------------------------------------------
# transfer times
# ---------------------------------------------------------------------------

def pst_transfer_time(chain: Chain) -> float:
    """Transfer time pi/gap for a linear-spectrum chain, verified end to end.

    The spectrum must be equally spaced within _SPACING_TOL and the returned
    time must achieve |<N|U(t0)|1>| >= 1 - 1e-9, otherwise the chain is not
    accepted as a perfect-transfer chain.
    """
    return _pst_time(*_end_weights(chain.fields, chain.couplings)[:2])


def _pst_time(lam: np.ndarray, w: np.ndarray) -> float:
    gaps = np.diff(lam)
    gap = float(np.mean(gaps))
    if gap <= 0 or np.max(np.abs(gaps - gap)) > _SPACING_TOL * max(1.0, abs(gap)):
        raise NumericalFailure("not a linear-spectrum PST chain (spectrum not equally spaced)")
    t0 = float(np.pi / gap)
    if abs(w @ np.exp(-1j * lam * t0)) < 1.0 - 1e-9:
        raise NumericalFailure("equally spaced spectrum but end-to-end transfer is not perfect")
    return t0


def quadratic_time_bound(n: int) -> float:
    """Lower bound on the quadratic chain's transfer time at unit max coupling."""
    if n < 2:
        raise ValueError("bound defined for n >= 2")
    if n % 2 == 0:
        return float(np.pi / 16.0 * n * (n + 2))
    return float(np.pi / 8.0 * np.sqrt((n + 1.0) * (n - 1.0) * (n * n - 5.0)))


def default_peak_hint(n: int) -> float:
    """Ballistic arrival estimate (N + 0.8 N^(1/3)) / 2 for uniform-like chains."""
    return 0.5 * (n + 0.8 * n ** (1.0 / 3.0))


def _golden_section_max(f, lo: float, hi: float, tol: float) -> float:
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        width = b - a
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a >= width:
            break  # a tolerance below the spacing of doubles at t: no step shrinks further
    return 0.5 * (a + b)


# Grid points per chunk of the first-peak scan: a 128 x N complex phase block
# instead of the whole grid (8139 x 401 points at N=401).
_SCAN_ROWS = 128
# A grid-local maximum of |<N|U(t)|1>| at or below this is not an arrival peak.
_AMP_THRESHOLD = 0.01


def first_peak_time(chain: Chain, search_hint: float | None = None,
                    step: float = 0.05, time_tol: float = 1e-8) -> tuple[float, float]:
    """First local maximum of the end-to-end transfer fidelity.

    Scans |<N|U(t)|1>| on the grid t_k = k step from 0 through twice the
    hint, stops at the first grid-local maximum above _AMP_THRESHOLD and
    refines it within time_tol on [t_{k-1}, t_{k+1}] (module docstring).
    Returns (time, fidelity) where the fidelity is the state-averaged value
    1/3 + (1+|f|)^2/6.

    Raises ValueError, before the eigensolve, unless step and time_tol are
    finite and positive and the hint (when given) is finite and positive.
    """
    search_hint = _check_peak_args(chain, search_hint, step, time_tol)
    lam, w, _ = _end_weights(chain.fields, chain.couplings)
    t = _first_peak(lam, w, search_hint, step, time_tol)
    return t, fidelity_single(min(abs(w @ np.exp(-1j * lam * t)), 1.0))


def _check_peak_args(chain: Chain, search_hint: float | None, step: float,
                     time_tol: float) -> float:
    """The search hint to use (the default for None), after checking the arguments."""
    if search_hint is None:
        search_hint = default_peak_hint(chain.n)
    for name, value in (("search_hint", search_hint), ("step", step),
                        ("time_tol", time_tol)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return search_hint


def _phase_offsets(lam: np.ndarray, step: float, rows: int) -> np.ndarray:
    """Rows e^{-i lam j step}, j = 0 .. rows-1, as a coarse x fine outer product.

    Offset j = j_c fine + j_f splits into e^{-i lam j_c fine step} times
    e^{-i lam j_f step}, so the table costs about 2 sqrt(rows) N exponentials
    instead of rows N.
    """
    fine = math.isqrt(rows - 1) + 1
    coarse = -(-rows // fine)
    fine_phases = np.exp(-1j * np.outer(np.arange(fine) * step, lam))
    coarse_phases = np.exp(-1j * np.outer(np.arange(coarse) * (fine * step), lam))
    table = coarse_phases[:, None, :] * fine_phases[None, :, :]
    return table.reshape(coarse * fine, lam.size)[:rows]


def _first_peak(lam: np.ndarray, w: np.ndarray, search_hint: float,
                step: float = 0.05, time_tol: float = 1e-8) -> float:
    ts = np.arange(0.0, 2.0 * search_hint + step, step)
    offsets = _phase_offsets(lam, step, min(_SCAN_ROWS + 2, ts.size))
    # Chunk c tests grid points start+1 .. start+_SCAN_ROWS against their
    # neighbours, so consecutive chunks overlap by two points.
    for start in range(0, ts.size - 2, _SCAN_ROWS):
        seg = ts[start:start + _SCAN_ROWS + 2]
        mags = np.abs(offsets[:seg.size] @ (w * np.exp(-1j * lam * seg[0])))
        mid = mags[1:-1]
        peaks = np.flatnonzero((mid >= mags[:-2]) & (mid >= mags[2:]) & (mid > _AMP_THRESHOLD))
        if peaks.size:
            i = start + 1 + int(peaks[0])
            return _refine_peak(lam, w, ts[i - 1], ts[i], ts[i + 1], time_tol)
    raise NumericalFailure("no transfer peak found in the search window")


def _refine_peak(lam: np.ndarray, w: np.ndarray, lo: float, t: float, hi: float,
                 time_tol: float) -> float:
    """Maximum of |f| = |sum_k w_k e^{-i lam_k t}| in [lo, hi] by Newton on g = |f|^2 from t.

    [w, -i lam w, -lam^2 w] @ e^{-i lam t} gives f, f', f'': g' = 2 Re(conj(f) f'),
    g'' = 2 (|f'|^2 + Re(conj(f) f'')).  Stops once a step is at most time_tol or
    no longer shrinks (the rounding floor); golden-section search on |f| takes
    over where g'' >= 0 or a step would leave [lo, hi].
    """
    phase = -1j * lam
    moments = np.stack([w, phase * w, -lam * lam * w])
    t, last = float(t), math.inf
    while True:
        f, df, d2f = (moments @ np.exp(phase * t)).tolist()
        g2 = abs(df) ** 2 + (f.conjugate() * d2f).real
        move = -(f.conjugate() * df).real / g2 if g2 < 0 else math.nan  # factors 2 cancel
        if not lo <= t + move <= hi:
            return _golden_section_max(lambda s: abs(w @ np.exp(phase * s)), lo, hi, time_tol)
        if abs(move) >= last:
            return t
        t += move
        if abs(move) <= time_tol:
            return t
        last = abs(move)


def auto_transfer_time(chain: Chain) -> float:
    """Perfect-transfer time when the spectrum is linear, else the first peak time from
    default_peak_hint.  Both tests share one end_spectrum solve of the chain."""
    lam, w, _ = _end_weights(chain.fields, chain.couplings)
    try:
        return _pst_time(lam, w)
    except NumericalFailure:
        return _first_peak(lam, w, default_peak_hint(chain.n))


# ---------------------------------------------------------------------------
# inverse eigenvalue problem
# ---------------------------------------------------------------------------

def _persymmetric_weights(lam: np.ndarray) -> np.ndarray:
    # First-component weights of a mirror-symmetric Jacobi matrix are fixed by
    # its spectrum: w_k is proportional to 1/prod_{j!=k}|lam_k - lam_j|.
    # Computed in log space; the spread can exceed double range otherwise.
    n = lam.size
    logw = np.empty(n)
    for k in range(n):
        diffs = np.abs(lam[k] - np.delete(lam, k))
        if np.any(diffs == 0.0):
            raise NumericalFailure("degenerate target spectrum")
        logw[k] = -np.sum(np.log(diffs))
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def _lanczos_from_measure(lam: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Orthogonal-polynomial recurrence for the discrete measure sum_k w_k
    # delta(lam_k), run as Lanczos on diag(lam) with starting vector sqrt(w).
    # Full reorthogonalization (twice) keeps the basis orthonormal even when
    # the weights span many orders of magnitude.
    n = lam.size
    q = np.sqrt(weights)
    basis = np.zeros((n, n))
    basis[:, 0] = q / np.linalg.norm(q)
    diag = np.zeros(n)
    off = np.zeros(n - 1)
    for j in range(n):
        u = lam * basis[:, j]
        diag[j] = basis[:, j] @ u
        u = u - diag[j] * basis[:, j]
        if j > 0:
            u -= off[j - 1] * basis[:, j - 1]
        for _ in range(2):
            u -= basis[:, : j + 1] @ (basis[:, : j + 1].T @ u)
        if j < n - 1:
            norm = np.linalg.norm(u)
            if norm == 0.0:
                raise NumericalFailure("Lanczos breakdown during reconstruction")
            off[j] = norm
            basis[:, j + 1] = u / norm
    return diag, off


def inverse_persymmetric_jacobi(target: SpectrumTarget) -> Chain:
    """Field-free mirror-symmetric chain whose spectrum matches the target.

    The reconstruction uses the spectral weights of the first site, which for
    a persymmetric zero-diagonal Jacobi matrix are determined by the target
    spectrum alone.  The result is validated behaviorally: couplings must be
    positive and mirror-symmetric, and re-diagonalizing must reproduce the
    target within _ROUNDTRIP_TOL (relative to the spectral radius).
    """
    lam = target.eigenvalues
    n = lam.size
    weights = _persymmetric_weights(lam)
    diag, off = _lanczos_from_measure(lam, weights)

    scale = np.max(np.abs(lam))
    if np.max(np.abs(diag)) > 1e-8 * scale:
        raise NumericalFailure("reconstruction produced a non-zero diagonal")
    if np.any(off <= 0):
        raise NumericalFailure("reconstruction produced non-positive couplings")
    if np.max(np.abs(off - off[::-1])) > _MIRROR_TOL * max(1.0, np.max(off)):
        raise NumericalFailure("reconstruction is not mirror-symmetric")

    couplings = 0.5 * (off + off[::-1])
    chain = Chain(n=n, couplings=couplings, fields=np.zeros(n), label=f"inverse-jacobi-{n}")

    achieved = eigendecompose(chain).eigenvalues
    if np.max(np.abs(achieved - lam)) > _ROUNDTRIP_TOL * scale:
        raise NumericalFailure("reconstructed chain does not reproduce the target spectrum")
    return chain


# ---------------------------------------------------------------------------
# swap-operator trace identities
# ---------------------------------------------------------------------------

def is_mirror_symmetric(chain: Chain) -> bool:
    tol = _SYMMETRY_TOL * max(1.0, float(np.max(np.abs(chain.couplings))))
    return bool(np.max(np.abs(chain.couplings - chain.couplings[::-1])) <= tol
                and np.max(np.abs(chain.fields - chain.fields[::-1])) <= tol)


def swap_trace_first(chain: Chain) -> float:
    """Tr(S H) for even N: structurally equal to twice the central coupling.

    For mirror-symmetric chains the same number (up to an overall sign fixed
    by eigenvector parity conventions) is the alternating eigenvalue sum, and
    the two evaluations are cross-checked before returning.
    """
    if chain.n % 2 != 0:
        raise ValueError("Tr(SH) identity applies to even N; use swap_trace_second")
    return _cross_checked(chain, 2.0 * float(chain.couplings[chain.n // 2 - 1]), 1)


def swap_trace_second(chain: Chain) -> float:
    """Tr(S H^2) for odd field-free N: structurally 4 J_c^2 at mirror symmetry."""
    if chain.n % 2 != 1:
        raise ValueError("Tr(SH^2) identity applies to odd N; use swap_trace_first")
    if np.any(chain.fields != 0.0):
        raise ValueError("Tr(SH^2) identity requires a field-free chain")
    m = (chain.n - 1) // 2  # central pair J_m, J_{m+1} (1-based J_{(N-1)/2}, J_{(N+1)/2})
    return _cross_checked(chain, float(chain.couplings[m - 1] + chain.couplings[m]) ** 2, 2)


def _cross_checked(chain: Chain, structural: float, power: int) -> float:
    """structural, after checking it against the alternating sum of lam^power (+1 at the
    smallest eigenvalue) where the chain is mirror-symmetric."""
    if is_mirror_symmetric(chain):
        lam = eigendecompose(chain).eigenvalues
        spectral = float(np.sum(lam ** power * (-1.0) ** np.arange(lam.size)))
        if abs(abs(spectral) - abs(structural)) > _SWAP_TRACE_TOL * max(1.0, abs(structural)):
            raise NumericalFailure(
                f"swap-trace mismatch: structural {structural}, spectral {spectral}")
    return structural
