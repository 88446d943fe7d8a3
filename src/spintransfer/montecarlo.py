"""Monte Carlo fidelity statistics over disorder ensembles.

A run draws M disordered realizations of a base chain (sample indices
0..M-1) and scores the best single-excitation encoding of each at its
extraction time (the run's time, or each realization's own first peak).
Realizations are drawn by one broadcast hash (disorder.draw_realizations) and
scored in near-equal chunks sized by their stacks (_chunk_rows: about 2^16
elements an (N + 2)-site array), in one thread (a thread pool measured slower;
monte_carlo's threads argument runs nothing).  Two block producers feed one
tail (top singular value, unitarity guard, fidelity):

- The spectral producer, _score_spectrum, computes no eigenvectors.  Each
  chain gets its eigenvalues and end weights w_k = v_k(1) v_k(N) from
  spectral.end_spectrum; the window rows follow from the three-term
  recurrence, run from site 1 (r_i) and from site N (s_j), and the blocks
  U_ji(t) = sum_k s_j w_k e^{-i lam_k t} r_i of the whole chunk are one
  stacked product.  The full eigensystem scores a chain the identity cannot
  take (zero coupling, repeated eigenvalue) or whose block is not finite,
  and every chain once the two recurrences would share a site
  (window_in + window_out > N, both windows above 1).  Callers holding a
  spectrum (the deterministic tuning objective, per-sample peaks) call it.
- The Chebyshev producer, _chebyshev_tops, needs no spectrum.  It applies
  e^{-iHt} = e^{-i beta t} sum_k (2 - [k=0]) (-i)^k J_k(alpha t) T_k(H') to
  the unit vectors of the smaller window, H' = (H - beta) / alpha on the
  Gershgorin interval, with K terms (dropped tail at most 1e-15) and J_k by
  Miller's recurrence (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).

Rows scored at a fixed time (_score_fixed_time) are propagated where
min(window_in, window_out) * K <= _PROPAGATE * N and solved otherwise; the
rule reads the row alone, so a row scores the same in any chunk.

sample_fidelity and the deterministic tuning objective are the one-row case
of the same kernel.  The summary keeps three numbers: the mean (what you
expect on average), the minimum (the guarantee), and an upper quantile (what
you get if you manufacture several chains and keep the best).  Runs are
bit-reproducible: draws are counter-based, a sample's result does not depend
on its chunk, and reductions happen in index order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import FORMAT_VERSION, Chain, NumericalFailure, write_json
from .disorder import DisorderSpec, Distribution, draw_realizations, errors_disorder
from .encoding import _check_unitary, fidelity_single
from .models import _first_peak, auto_transfer_time
from .spectral import (_end_weights, eigendecompose, end_spectrum, end_windows,
                       window_amplitudes)


@dataclass
class TransferPolicy:
    """Where the code lives and when it is extracted.

    window_in/window_out: contiguous end-window sizes (1 = bare end-to-end).
    time: fixed extraction time; None means derive it from the ideal chain
    (perfect-transfer time for linear spectra, first arrival peak otherwise).
    per_sample_peak: re-find the first peak for every disordered realization
    instead of trusting the ideal time (off by default: disorder does not
    move the scheduled extraction).  A realization with no peak of its own is
    scored at the resolved time, the schedule a device without re-timing
    would use, exactly as a fixed-time run scores it.
    """

    window_in: int = 1
    window_out: int = 1
    time: float | None = None
    per_sample_peak: bool = False

    def resolve_time(self, base: Chain) -> float:
        """The extraction time on base.  ValueError unless the window sizes fit base
        (checked first, before any solve), the time is finite and >= 0, and t * max|E| on
        base's Gershgorin interval is below 2^52: from there one ulp of the largest phase
        is a radian or more, and the phases carry no information."""
        end_windows(base.n, self.window_in, self.window_out)
        time = auto_transfer_time(base) if self.time is None else float(self.time)
        end_windows(base.n, self.window_in, self.window_out, time)
        centre, half = _gershgorin(base.fields[None], base.couplings[None])
        phase = time * (abs(centre[0]) + half[0])
        if phase >= 2.0 ** 52:
            raise ValueError(f"window time {time!r} is too long for this chain: "
                             f"t * max|E| = {phase:.6g} is not below 2^52")
        return time


@dataclass
class FidelityStats:
    samples: int
    mean: float
    minimum: float
    quantile_level: float
    quantile_value: float
    seed: int


@dataclass
class SweepAxis:
    """Disorder-strength axis: name selects the parameter, values the grid.

    Names: sigma_J / sigma_B for normal coupling/field errors, delta_J /
    delta_B for uniform +-delta errors.
    """

    name: str
    values: np.ndarray

    def __post_init__(self):
        if self.name not in ("sigma_J", "sigma_B", "delta_J", "delta_B"):
            raise ValueError(f"unknown sweep axis {self.name!r}")
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if not np.isfinite(self.values).all():
            raise ValueError("disorder strengths must be finite")
        if np.any(self.values < 0):
            raise ValueError("disorder strengths must be >= 0")

    @property
    def kind(self) -> str:
        return "normal" if self.name.startswith("sigma") else "uniform"

    @property
    def target(self) -> str:
        return "coupling" if self.name.endswith("_J") else "field"


@dataclass
class SweepGrid:
    coupling_axis: SweepAxis
    field_axis: SweepAxis
    cells: list  # row-major: [i_coupling][i_field] -> FidelityStats
    descriptor: dict = field(default_factory=dict)


# Elements of each (n + 2)-site array a kernel call stacks, about 0.5 MB: it sets the
# chunk size (README, "Draws", has the measured scan).
_STACK = 1 << 16


def _chunk_rows(n: int, window_in: int, window_out: int) -> int:
    """Most realizations one kernel call takes: its stacks hold about _STACK elements."""
    return max(1, _STACK // ((n + 2) * max(window_in, window_out)))


def _chunks(samples: int, rows: int) -> list[tuple[int, int]]:
    """Sample index ranges of ceil(samples / rows) near-equal chunks, in index order."""
    count = -(-samples // rows)
    bounds = [samples * i // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _check_ensemble_args(samples: int, quantile: float, threads: int = 1) -> None:
    """Reject a sample count, quantile level or thread count no run can use."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if not (0.0 < quantile < 1.0):
        raise ValueError("quantile level must be in (0, 1)")
    if threads < 1:
        raise ValueError("need at least one thread")


def sample_fidelity(base: Chain, spec: DisorderSpec, sample_index: int,
                    policy: TransferPolicy, time: float | None = None) -> float:
    """Best-encoding fidelity of one disordered realization.

    The caller can pass the resolved extraction time to avoid re-deriving it
    per sample; otherwise it is resolved from the base chain.
    """
    if time is not None:
        policy = replace(policy, time=time)
    time = policy.resolve_time(base)  # checks windows and time, before any draw
    return _score_range(base, spec, policy, time, sample_index, sample_index + 1)[0]


def _score_range(base: Chain, spec: DisorderSpec, policy: TransferPolicy, time: float,
                 start: int, stop: int) -> np.ndarray:
    """Fidelities of the realizations with sample indices start..stop-1."""
    couplings, fields = draw_realizations(base, spec, start, stop)
    if not policy.per_sample_peak:
        return _score_fixed_time(couplings, fields, policy.window_in, policy.window_out,
                                 np.full(stop - start, float(time)))
    lam, w, spectrum = _end_weights(fields, couplings)
    hint = max(time, 1.0)  # time is finite and >= 0 (resolve_time)
    times = np.full(stop - start, float(time))
    lost = np.zeros(stop - start, dtype=bool)
    for r in range(stop - start):
        try:
            times[r] = _first_peak(lam[r], w[r], hint)
        except NumericalFailure:  # no peak of its own: keep the resolved time
            lost[r] = True
    fids = _score_spectrum(couplings, fields, spectrum, policy.window_in, policy.window_out,
                           times)
    if lost.any():  # scored as a fixed-time run scores them, bit for bit
        fids[lost] = _score_fixed_time(couplings[lost], fields[lost], policy.window_in,
                                       policy.window_out, times[lost])
    return fids


def _score_fixed_time(couplings: np.ndarray, fields: np.ndarray, window_in: int,
                      window_out: int, times: np.ndarray) -> np.ndarray:
    """Best single-excitation fidelity of each row's chain at times[r], with no spectrum given.

    A row is propagated (_chebyshev_tops) where min(window_in, window_out) * K is at most
    _PROPAGATE * n, K its Chebyshev term count; the other rows are solved and take the
    spectral producer.  Callers check the window sizes and times (resolve_time)."""
    m, n = fields.shape
    small = min(window_in, window_out)
    counts = _term_counts(_gershgorin(fields, couplings)[1] * times, _TAIL,
                          _PROPAGATE * n // small)
    chebyshev = counts * small <= _PROPAGATE * n
    top = np.full(m, np.nan)
    if chebyshev.any():
        top[chebyshev] = _chebyshev_tops(couplings[chebyshev], fields[chebyshev], window_in,
                                         window_out, times[chebyshev], counts[chebyshev])
    rest = ~chebyshev
    if rest.any():
        c, f = couplings[rest], fields[rest]
        top[rest] = _spectral_tops(c, f, end_spectrum(f, c), window_in, window_out, times[rest])
    return _score_tops(top, couplings, fields, window_in, window_out, times)


def _score_spectrum(couplings: np.ndarray, fields: np.ndarray, spectrum: tuple,
                    window_in: int, window_out: int, times: np.ndarray) -> np.ndarray:
    """Best single-excitation fidelity of each row's chain between its end windows.

    Row r: couplings[r], fields[r], at times[r]; spectrum is end_spectrum(fields, couplings).
    Callers check the window sizes and times (resolve_time, Objective)."""
    top = _spectral_tops(couplings, fields, spectrum, window_in, window_out, times)
    return _score_tops(top, couplings, fields, window_in, window_out, times)


def _top_singular(blocks: np.ndarray, ok=True) -> np.ndarray:
    """Top singular value of each block in a stack; NaN where a block is not ok or not finite."""
    top = np.full(blocks.shape[0], np.nan)
    good = ok & np.isfinite(blocks).all(axis=(1, 2))
    blocks = blocks[good]
    top[good] = (np.abs(blocks[:, 0, 0]) if blocks.shape[1:] == (1, 1)
                 else np.linalg.svd(blocks, compute_uv=False)[:, 0])
    return top


def _score_tops(top: np.ndarray, couplings: np.ndarray, fields: np.ndarray, window_in: int,
                window_out: int, times: np.ndarray) -> np.ndarray:
    """The producers' shared tail: rows still NaN in top from the full eigensystem, the
    unitarity guard, then the fidelity of each top singular value."""
    n = fields.shape[1]
    for r in np.flatnonzero(np.isnan(top)):
        eig = eigendecompose(Chain(n=n, couplings=couplings[r], fields=fields[r]))
        block = window_amplitudes(eig, end_windows(n, window_in, window_out, times[r]))
        top[r] = np.linalg.svd(block, compute_uv=False)[0]
    _check_unitary(top)
    return fidelity_single(top)  # clips to [0, 1]


def _spectral_tops(couplings: np.ndarray, fields: np.ndarray, spectrum: tuple,
                   window_in: int, window_out: int, times: np.ndarray) -> np.ndarray:
    """Top singular value of each row's window block from its spectrum, NaN where the
    identity does not apply (not ok, overflow) or the recurrences would share a site."""
    m, n = fields.shape
    if not (min(window_in, window_out) == 1 or window_in + window_out <= n):
        return np.full(m, np.nan)
    lam, log_weights, signs, ok = spectrum
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ins, outs, log_scale = _window_rows(lam, fields, couplings, window_in, window_out)
        weights = signs * np.exp(log_weights + log_scale)
        phases = np.exp(-1j * lam * times[:, None])
        blocks = ((outs.transpose(1, 0, 2) * weights[:, None, :])
                  @ (ins.transpose(1, 2, 0) * phases[:, :, None]))
    return _top_singular(blocks, ok)


def _window_rows(lam: np.ndarray, fields: np.ndarray, couplings: np.ndarray,
                 window_in: int, window_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows r_i = v(i)/v(1) and s_j = v(j)/v(N) of the window sites, and log scale.

    r_1 = 1, r_2 = (lam - B_1)/J_1, r_{i+1} = ((lam - B_i) r_i - J_{i-1} r_{i-1})/J_i
    on the chain, and s the same on its mirror image.  Each side is divided by
    its largest entry per eigenvalue, the logs summed: a weight far below the
    smallest double can meet rows far above 1.
    """
    m = lam.shape[0]
    size = max(window_in, window_out)
    rows = np.empty((size, 2 * m, lam.shape[1]))
    rows[0] = 1.0
    ins, outs = rows[:window_in, :m], rows[window_out - 1::-1, m:]
    if size == 1:
        return ins, outs, 0.0
    b = np.concatenate([fields, fields[:, ::-1]]).T[:size - 1, :, None]
    j = np.concatenate([couplings, couplings[:, ::-1]]).T[:size - 1, :, None]
    shift = np.concatenate([lam, lam]) - b
    for i in range(size - 1):
        step = shift[i] * rows[i]
        if i:
            step -= j[i - 1] * rows[i - 1]
        np.divide(step, j[i], out=rows[i + 1])
    in_max, out_max = np.abs(ins).max(axis=0), np.abs(outs).max(axis=0)
    return ins / in_max, outs / out_max, np.log(in_max) + np.log(out_max)


# A row is propagated where min(window_in, window_out) * K <= _PROPAGATE * n (README,
# "How a chain is scored", has the measured crossover table).  The dropped Chebyshev
# terms sum to at most _TAIL; Miller's recurrence starts where they sum to _MILLER_TAIL.
_PROPAGATE = 9
_TAIL = 1e-15
_MILLER_TAIL = 1e-20


def _gershgorin(fields: np.ndarray, couplings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre and half-width of each row's Gershgorin interval, which holds its spectrum."""
    bonds = np.abs(couplings)
    radius = np.zeros(fields.shape)
    radius[:, :-1] = bonds
    radius[:, 1:] += bonds
    lo, hi = (fields - radius).min(axis=1), (fields + radius).max(axis=1)
    return 0.5 * (hi + lo), 0.5 * (hi - lo)


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
    # 2k / z; z = 0 has start 1, so J_0 = 1 comes from the seed alone
    ratios = np.arange(starts.max() + 1)[:, None] * (2.0 / np.where(z > 0, z, 1.0))
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


def _chebyshev_tops(couplings: np.ndarray, fields: np.ndarray, window_in: int, window_out: int,
                    times: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Top singular value of each row's window block, propagated from the smaller window.

    With H' = (H - beta) / alpha on the row's Gershgorin interval, e^{-iHt} = e^{-i beta t}
    sum_k c_k T_k(H'); the phase is dropped (it moves no singular value).  T_k e_i runs on
    an (n + 2, window, rows) stack by T_{k+1} = 2 H' T_k - T_{k-1}, each step on the sites that
    the window reaches and that can still reach the other window by step max(counts) - 1,
    and the other window's rows are summed in k order.  U(t) is symmetric, so a smaller
    output window is propagated on the mirrored chain.  counts[r] is row r's term count.
    """
    if window_out < window_in:
        couplings, fields = couplings[:, ::-1], fields[:, ::-1]
        window_in, window_out = window_out, window_in
    m, n = fields.shape
    centre, half = _gershgorin(fields, couplings)
    coef = _chebyshev_coefficients(half * times, counts)[:, None, :]
    scale = 2.0 / np.where(half > 0, half, 1.0)  # half 0: H' = 0
    # sites 1..n padded by a zero row at each end; bond[p] joins rows p-1 and p.  diag and
    # bond are written out over the window sites: broadcast in the steps, numpy can no
    # longer run a step as one flat loop, and window 5 at N=201 measured 1.8x slower
    diag, bond, prev, cur, tmp = (np.zeros((n + 2, window_in, m)) for _ in range(5))
    diag[1:-1] = ((fields - centre[:, None]).T * scale)[:, None]
    bond[2:-1] = (couplings.T * scale)[:, None]
    cur[1 + np.arange(window_in), np.arange(window_in)] = 1.0  # T_0
    out = slice(n + 1 - window_out, n + 1)
    acc = np.zeros((2, window_out, window_in, m))  # real (even k) and imaginary (odd k)
    first = n + 1 - window_out - window_in  # T_k is zero on the other window before this k
    if first <= 0:
        acc[0] += coef[0] * cur[out]
    count = coef.shape[0]
    for k in range(1, count):
        lo = max(1, n + 2 - window_out - count + k)
        hi = min(n, window_in + k) + 1
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
    blocks = (acc[0] + 1j * acc[1]).transpose(2, 0, 1)
    return _top_singular(blocks)


def quantile_interpolated(samples: np.ndarray, q: float) -> float:
    """Linear interpolation between closest ranks on the sorted samples."""
    if not (0.0 < q < 1.0):
        raise ValueError("quantile level must be in (0, 1)")
    return float(np.quantile(samples, q, method="linear"))


def monte_carlo(base: Chain, spec: DisorderSpec, policy: TransferPolicy,
                samples: int = 1000, quantile: float = 0.75,
                threads: int = 1) -> FidelityStats:
    """Seeded ensemble of sample_fidelity evaluations, summarized.

    Samples are scored in ceil(samples / rows) near-equal chunks of at most
    rows = _chunk_rows(n, window_in, window_out) indices, in index order, in one
    thread; a sample scores the same in any chunk.  threads runs nothing: it is
    checked (>= 1) and otherwise ignored, and stays only because the benchmark
    workloads (bench/workloads.py) pass it.
    """
    _check_ensemble_args(samples, quantile, threads)
    time = policy.resolve_time(base)  # checks windows and time, before any draw
    rows = _chunk_rows(base.n, policy.window_in, policy.window_out)
    fids = np.concatenate([_score_range(base, spec, policy, time, start, stop)
                           for start, stop in _chunks(samples, rows)])

    return FidelityStats(
        samples=samples,
        mean=float(np.mean(fids)),
        minimum=float(np.min(fids)),
        quantile_level=quantile,
        quantile_value=quantile_interpolated(fids, quantile),
        seed=spec.master_seed,
    )


def sweep(base: Chain, coupling_axis: SweepAxis, field_axis: SweepAxis,
          policy: TransferPolicy, coupling_mode: str = "additive",
          samples: int = 1000, quantile: float = 0.75, seed: int = 0) -> SweepGrid:
    """Fill a 2-D disorder grid with monte_carlo statistics, cell by cell."""
    if coupling_axis.target != "coupling" or field_axis.target != "field":
        raise ValueError("first axis must be a coupling axis, second a field axis")
    _check_ensemble_args(samples, quantile)
    fixed_policy = replace(policy, time=policy.resolve_time(base))  # checks, before any draw
    cells = []
    for jval in coupling_axis.values:
        row = []
        for bval in field_axis.values:
            spec = errors_disorder(Distribution(coupling_axis.kind, float(jval)),
                                   Distribution(field_axis.kind, float(bval)), seed,
                                   coupling_mode)
            row.append(monte_carlo(base, spec, fixed_policy, samples, quantile))
        cells.append(row)
    descriptor = {
        "chain": base.label,
        "n": base.n,
        "window_in": policy.window_in,
        "window_out": policy.window_out,
        "time": fixed_policy.time,
        "coupling_mode": coupling_mode,
        "samples": samples,
        "quantile": quantile,
        "seed": seed,
    }
    return SweepGrid(coupling_axis=coupling_axis, field_axis=field_axis,
                     cells=cells, descriptor=descriptor)


def selection_probability(k: int, q: float = 0.75) -> float:
    """Chance that at least one of k manufactured chains beats the q-quantile."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (0.0 < q < 1.0):
        raise ValueError("quantile level must be in (0, 1)")
    return 1.0 - q ** k


# ---------------------------------------------------------------------------
# CSV / JSON output
# ---------------------------------------------------------------------------

def grid_to_csv(grid: SweepGrid) -> str:
    lines = ["# format=1", "sigma_J,sigma_B,mean,min,quantile,samples,seed"]
    for i, jval in enumerate(grid.coupling_axis.values):
        for j, bval in enumerate(grid.field_axis.values):
            st = grid.cells[i][j]
            lines.append(
                f"{jval:.12g},{bval:.12g},{st.mean:.12g},{st.minimum:.12g},"
                f"{st.quantile_value:.12g},{st.samples},{st.seed}")
    return "\n".join(lines) + "\n"


def save_grid_csv(grid: SweepGrid, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(grid_to_csv(grid))


def save_grid_descriptor(grid: SweepGrid, path) -> None:
    data = {
        "format_version": FORMAT_VERSION,
        "descriptor": grid.descriptor,
        "coupling_axis": {"name": grid.coupling_axis.name,
                          "values": [float(v) for v in grid.coupling_axis.values]},
        "field_axis": {"name": grid.field_axis.name,
                       "values": [float(v) for v in grid.field_axis.values]},
    }
    write_json(data, path)
