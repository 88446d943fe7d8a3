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
w_k = v_k(1) v_k(N) from one spectral.end_spectrum solve.  _first_peaks
searches a stack of such spectra at once, each row on its own grid t = k step
through twice its own hint, and gives each row the time its search alone
finds.  A row starts at its light cone: with alpha at least half the spectral
width, no Chebyshev term T_k((H - beta) / alpha) with k < N - 1 joins site 1 to
site N, so |f(t)| <= sum_{k >= N-1} 2 |J_k(alpha t)|, at most _AMP_THRESHOLD / 2
up to the alpha t where Kapteyn's bound says so (spectral._tail_thresholds): no
grid point there can be a peak, and the start follows from that reach without
building the grid.  A chunk's phases at t_s + (c F + f) step are e^{-i lam t_s}
times two tables per row built once per stack as running products of one row
of exponentials each, so a step of the search is one stacked (coarse x N) @
(N x F) product over the rows still searching.  A row stops at its first
grid-local maximum, which safeguarded Newton steps on |f|^2 refine, so its time
depends only on which grid point wins.
"""

from __future__ import annotations

import math

import numpy as np

from .chain import Chain, NumericalFailure
from .encoding import fidelity_single
from .spectral import _end_weights, _tail_thresholds, eigendecompose

# Relative tolerances: the spread of eigenvalue gaps that still counts as equally spaced;
# the inverse problem's round-trip spectrum error and coupling mirror asymmetry; the mirror
# symmetry that selects a swap trace's spectral cross-check, and that check's agreement.
_SPACING_TOL = 1e-8
_ROUNDTRIP_TOL = 1e-8
_MIRROR_TOL = 1e-9
_SYMMETRY_TOL = 1e-10
_SWAP_TRACE_TOL = 1e-8


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
    return Chain(n=n, couplings=_apollaro_couplings(n, [x], [y])[0], fields=np.zeros(n),
                 label=f"apollaro-{n}-x{x:g}-y{y:g}")


def _apollaro_couplings(n: int, xs, ys) -> np.ndarray:
    """(len(xs), n - 1) couplings: row r is uniform with the two outermost bonds at each
    end set to xs[r] and ys[r], unchecked."""
    couplings = np.ones((len(xs), n - 1))
    couplings[:, 0] = couplings[:, -1] = xs
    couplings[:, 1] = couplings[:, -2] = ys
    return couplings


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


def _quadratic_spectrum(n: int) -> np.ndarray:
    """Signed-squares spectrum: +-1, +-4, ..., +-(N/2)^2, with 0 added for odd N."""
    if n < 2:
        raise ValueError("n must be >= 2")
    half = np.arange(1, n // 2 + 1, dtype=float) ** 2
    return np.concatenate([-half[::-1], [0.0] * (n % 2), half])


def quadratic_chain(n: int) -> Chain:
    """Chain realizing the quadratic spectrum (natural, unrescaled units)."""
    chain = inverse_persymmetric_jacobi(_quadratic_spectrum(n))
    chain.label = f"quadratic-{n}"
    return chain


# ---------------------------------------------------------------------------
# transfer times
# ---------------------------------------------------------------------------

def pst_transfer_time(chain: Chain) -> float:
    """Transfer time pi/gap for a linear-spectrum chain, verified end to end.

    The spectrum must be equally spaced within _SPACING_TOL and the returned
    time must achieve |<N|U(t0)|1>| >= 1 - 1e-9, otherwise the chain is not
    accepted as a perfect-transfer chain.  ValueError where the chain's spectrum is wider
    than the double range, or its gap so narrow that pi/gap overflows.
    """
    return _pst_time(*_chain_weights(chain))


def _chain_weights(chain: Chain) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and end weights of one chain (_end_weights).  ValueError where its
    spectrum is wider than the double range: its eigenvalue gaps overflow, and no time on
    it carries information (_first_peaks refuses such a chain too)."""
    with np.errstate(over="ignore"):  # the overflowing gaps, refused here
        lam, w, _ = _end_weights(chain.fields[None], chain.couplings[None])
        width = lam[0, -1] - lam[0, 0]
    if not np.isfinite(width):
        raise ValueError("this chain's spectrum is wider than the double range: "
                         "its eigenvalue gaps overflow")
    return lam[0], w[0]


def _pst_time(lam: np.ndarray, w: np.ndarray) -> float:
    gaps = np.diff(lam)
    gap = float(np.mean(gaps))
    if gap <= 0 or np.max(np.abs(gaps - gap)) > _SPACING_TOL * max(1.0, abs(gap)):
        raise NumericalFailure("not a linear-spectrum PST chain (spectrum not equally spaced)")
    t0 = float(np.pi / gap)
    if not math.isfinite(t0):  # a subnormal gap: no time on the chain is a double
        raise ValueError(f"this chain's transfer time pi / gap is beyond the double range: "
                         f"its eigenvalue gap is {gap:.6g}")
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
# The scan's grid step, and the refinement's stopping step.
_PEAK_STEP = 0.05
_PEAK_TOL = 1e-8


def first_peak_time(chain: Chain, search_hint: float | None = None) -> tuple[float, float]:
    """First local maximum of the end-to-end transfer fidelity.

    Scans |<N|U(t)|1>| on the grid t_k = 0.05 k from 0 through twice the
    hint (default_peak_hint(n) when None), stops at the first grid-local
    maximum above _AMP_THRESHOLD and refines it to within 1e-8 on
    [t_{k-1}, t_{k+1}] (module docstring).  Returns (time, fidelity) where the
    fidelity is the state-averaged value 1/3 + (1+|f|)^2/6.

    Raises ValueError, before the eigensolve, unless the hint is finite and
    positive, and after it where the spectrum is wider than the double range or
    the grid's phases carry no information (0.05 max|E| >= 2^52).
    """
    if search_hint is None:
        search_hint = default_peak_hint(chain.n)
    if not (math.isfinite(search_hint) and search_hint > 0):
        raise ValueError(f"search_hint must be finite and positive, got {search_hint!r}")
    lam, w = _chain_weights(chain)
    t = _peak_time(lam, w, search_hint)
    return t, fidelity_single(min(abs(w @ np.exp(-1j * lam * t)), 1.0))


def _peak_time(lam: np.ndarray, w: np.ndarray, search_hint: float) -> float:
    """_first_peaks on one spectrum.  NumericalFailure where it has no peak."""
    t = float(_first_peaks(lam[None], w[None], np.array([search_hint]))[0])
    if math.isnan(t):
        raise NumericalFailure("no transfer peak found in the search window")
    return t


def _scan_factors(lam: np.ndarray, step: float, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(coarse, fine) for each row of lam: the phases e^{-i lam j step} of the offsets
    j = c F + f < rows are coarse[:, c] * fine[:, f], F = isqrt(rows - 1) + 1.  Each table is
    the running product of one row of exponentials per chain."""
    count = math.isqrt(rows - 1) + 1
    return (_powers(np.exp(-1j * (count * step) * lam), -(-rows // count)),
            _powers(np.exp(-1j * step * lam), count))


def _powers(base: np.ndarray, count: int) -> np.ndarray:
    """(len(base), count, N): base ** 0 .. base ** (count - 1) along axis 1, as running products."""
    table = np.empty((base.shape[0], count, base.shape[1]), dtype=complex)
    table[:, 0] = 1.0
    table[:, 1:] = base[:, None]
    return np.multiply.accumulate(table, axis=1)


def _cone_starts(lam: np.ndarray, step: float, sizes: np.ndarray) -> np.ndarray:
    """Per row, one grid point before the first of its points k step, k < sizes, past the light
    cone (module docstring): no point up to it can be a peak, since there |f| <=
    _AMP_THRESHOLD / 2.  This is the last k < sizes with alpha (k step) <= reach, with no grid."""
    alpha = 0.5 * (lam[:, -1] - lam[:, 0]) * (1.0 + 1e-12)  # at least half the width
    reach = _tail_thresholds(_AMP_THRESHOLD / 2, lam.shape[1] - 1)[-1]
    # The quotient is off from the grid's own products by a few ulps: raised by 2^-48
    # (32 ulps) it is never below the answer, and it is above it only where it lies within
    # ulps of an integer, so the test below runs once on most stacks.
    with np.errstate(divide="ignore"):  # alpha 0: every point lies inside the cone
        k = np.minimum(reach * (1.0 + 2.0 ** -48) / (alpha * step), sizes - 1).astype(np.intp)
    while (down := alpha * (k * step) > reach).any():
        k -= down
    return k


def _first_peaks(lam: np.ndarray, w: np.ndarray, hints: np.ndarray) -> np.ndarray:
    """The first-peak time of each row's spectrum (lam[r], w[r]) on its grid through
    2 hints[r], NaN where the row has no peak there (module docstring).  ValueError, before
    any row is searched, for the first row whose grid's phases carry no information."""
    # lam ascends along each row, as every solve returns it
    phase = _PEAK_STEP * np.maximum(-lam[:, 0], lam[:, -1])
    bad = np.flatnonzero(phase >= 2.0 ** 52)
    if bad.size:  # one ulp of the first grid point's phases is a radian or more
        raise ValueError(f"the first-peak scan's step {_PEAK_STEP!r} is too long for this "
                         f"chain: step * max|E| = {phase[bad[0]]:.6g} is not below 2^52")
    times = np.full(len(lam), np.nan)
    sizes = np.ceil((2.0 * hints + _PEAK_STEP) / _PEAK_STEP)  # np.arange's grid lengths
    starts = _cone_starts(lam, _PEAK_STEP, sizes)
    live = np.flatnonzero(starts < sizes - 2)  # rows whose grid holds a point to test
    if not live.size:
        return times
    lam, w, sizes, starts = lam[live], w[live], sizes[live], starts[live]
    coarse, fine = _scan_factors(lam, _PEAK_STEP, int(min(_SCAN_ROWS + 2, sizes.max())))
    moments = _moments(lam, w)
    offsets = np.arange(min(coarse.shape[1] * fine.shape[1], _SCAN_ROWS + 2) - 2)
    # Each step tests grid points start+1 .. start+_SCAN_ROWS of every row still searching
    # against their neighbours, so a row's consecutive chunks overlap by two points.
    while True:
        shift = w * np.exp(-1j * lam * (starts * _PEAK_STEP)[:, None])
        amps = (coarse * shift[:, None]) @ fine.transpose(0, 2, 1)
        mags = np.abs(amps).reshape(live.size, -1)[:, :_SCAN_ROWS + 2]
        mid = mags[:, 1:-1]
        peaks = ((mid >= mags[:, :-2]) & (mid >= mags[:, 2:]) & (mid > _AMP_THRESHOLD)
                 & (offsets < (sizes - starts - 2)[:, None]))  # inside the row's grid
        found = peaks.any(axis=1)
        for r in np.flatnonzero(found):
            i = int(starts[r]) + 1 + int(peaks[r].argmax())
            times[live[r]] = _refine_peak(lam[r], w[r], (i - 1) * _PEAK_STEP, i * _PEAK_STEP,
                                          (i + 1) * _PEAK_STEP, moments[r])
        starts += _SCAN_ROWS
        keep = ~found & (starts < sizes - 2)
        if not keep.any():
            return times
        if not keep.all():
            live, lam, w, sizes, starts, coarse, fine, moments = (
                part[keep] for part in (live, lam, w, sizes, starts, coarse, fine, moments))


def _moments(lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """[w, -i lam w, -lam^2 w] along axis -2: times e^{-i lam t} they give f, f' and f''."""
    return np.stack([w, -1j * lam * w, -lam * lam * w], axis=-2)


def _refine_peak(lam: np.ndarray, w: np.ndarray, lo: float, t: float, hi: float,
                 moments: np.ndarray) -> float:
    """Maximum of |f| = |sum_k w_k e^{-i lam_k t}| in [lo, hi] by Newton on g = |f|^2 from t.

    moments (_moments(lam, w)) @ e^{-i lam t} gives f, f', f'':
    g' = 2 Re(conj(f) f'), g'' = 2 (|f'|^2 + Re(conj(f) f'')).  Stops once a step is at
    most _PEAK_TOL or no longer shrinks (the rounding floor); golden-section search on |f|
    takes over where g'' >= 0 or a step would leave [lo, hi].
    """
    phase = -1j * lam
    t, last = float(t), math.inf
    while True:
        f, df, d2f = (moments @ np.exp(phase * t)).tolist()
        g2 = abs(df) ** 2 + (f.conjugate() * d2f).real
        move = -(f.conjugate() * df).real / g2 if g2 < 0 else math.nan  # factors 2 cancel
        if not lo <= t + move <= hi:
            return _golden_section_max(lambda s: abs(w @ np.exp(phase * s)), lo, hi, _PEAK_TOL)
        if abs(move) >= last:
            return t
        t += move
        if abs(move) <= _PEAK_TOL:
            return t
        last = abs(move)


def auto_transfer_time(chain: Chain) -> float:
    """Perfect-transfer time when the spectrum is linear, else the first peak time from
    default_peak_hint.  Both tests share one end_spectrum solve of the chain, refused
    (ValueError) where the spectrum is wider than the double range."""
    lam, w = _chain_weights(chain)
    try:
        return _pst_time(lam, w)
    except NumericalFailure:
        return _peak_time(lam, w, default_peak_hint(chain.n))


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


def inverse_persymmetric_jacobi(eigenvalues) -> Chain:
    """Field-free mirror-symmetric chain with the given spectrum.

    The eigenvalues must be at least two, strictly increasing and symmetric
    about zero; anything else raises ValueError.  The reconstruction uses the
    spectral weights of the first site, which for a persymmetric zero-diagonal
    Jacobi matrix are determined by the target spectrum alone.  The result is
    validated behaviorally: couplings must be positive and mirror-symmetric,
    and re-diagonalizing must reproduce the target within _ROUNDTRIP_TOL
    (relative to the spectral radius).
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise ValueError("need at least two target eigenvalues")
    if not np.all(np.diff(lam) > 0):
        raise ValueError("target eigenvalues must be strictly increasing")
    scale = np.max(np.abs(lam))
    if np.max(np.abs(lam + lam[::-1])) > 1e-12 * scale:
        raise ValueError("target spectrum must be symmetric about 0")
    n = lam.size
    weights = _persymmetric_weights(lam)
    diag, off = _lanczos_from_measure(lam, weights)

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

def _is_mirror_symmetric(chain: Chain) -> bool:
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
    if _is_mirror_symmetric(chain):
        lam = eigendecompose(chain).eigenvalues
        spectral = float(np.sum(lam ** power * (-1.0) ** np.arange(lam.size)))
        if abs(abs(spectral) - abs(structural)) > _SWAP_TRACE_TOL * max(1.0, abs(structural)):
            raise NumericalFailure(
                f"swap-trace mismatch: structural {structural}, spectral {spectral}")
    return structural
