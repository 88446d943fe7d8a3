"""Monte Carlo fidelity statistics over disorder ensembles.

A run draws M disordered realizations of a base chain (sample indices
0..M-1) and scores the best single-excitation encoding of each at its
extraction time (the run's time, or each realization's own first peak).
_score_cells is the one driver from a draw to a score: its cells are (base
chain, disorder spec, resolved time) triples, monte_carlo one cell, sweep one
base under many specs and the quantile tuning objective many bases.  It plans
the cells by what they draw: a cell whose spec draws nothing is one row,
broadcast to its M entries, and the field-free cells (no field on the base or
in the draws) are chunked apart from the rest, so that their chunks take the
one-sublattice loop below.  Each group's rows are scored in near-equal chunks
sized by their stacks (_chunk_rows: about 2^16 elements an (N + 2)-site
array, twice that for field-free rows), a chunk may span cells, in one thread
(a pool measured slower; monte_carlo's threads argument runs nothing).  The
parts of a chunk that share a seed are hashed once, over the union of their
sample indices (disorder.standard_variates), and each part scales those
variates by its own spec (disorder.apply_variates).  Two block producers feed
one tail (top singular value, unitarity guard, fidelity):

- The spectral producer, _score_spectrum, computes no eigenvectors.  Each
  chain gets its eigenvalues and end weights w_k = v_k(1) v_k(N) from
  spectral.end_spectrum; the window rows follow from the three-term
  recurrence, run from site 1 (r_i) and from site N (s_j), and the blocks
  U_ji(t) = sum_k s_j w_k e^{-i lam_k t} r_i of the whole chunk are one
  stacked product.  The full eigensystem scores a chain the identity cannot
  take (zero coupling, repeated eigenvalue), whose block is not finite or
  whose rows' rounding estimate is too large (a weak link), and every chain
  once the two recurrences would share a site (window_in + window_out > N,
  both windows above 1).  Callers holding a
  spectrum (the deterministic tuning objective, per-sample peaks) call it.
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

Rows scored at a fixed time (_score_fixed_time) are propagated where
K <= _PROPAGATE * N and _growth admits them, and solved otherwise; the rule
reads the row alone, so a row scores the same in any chunk.

sample_fidelity is a one-row draw scored by the same _score_rows.  The
summary keeps three numbers: the mean (what you expect on average), the
minimum (the guarantee), and an upper quantile (what you get if you
manufacture several chains and keep the best).  Runs are bit-reproducible:
draws are counter-based, a sample's result does not depend on its chunk, and
reductions happen in index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .chain import FORMAT_VERSION, Chain, write_json
from .disorder import (_KIND_FIELD, DisorderSpec, Distribution, apply_variates, errors_disorder,
                       standard_variates)
from .encoding import _check_unitary, fidelity_single
from .models import _first_peaks, auto_transfer_time
from .spectral import (_end_weights, _tail_thresholds, eigendecompose, end_spectrum,
                       end_windows, window_amplitudes)


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
        """The extraction time on base.  ValueError unless the window sizes fit base and an
        automatic time's chain is finite (both checked before any solve), the time is finite
        and >= 0, and its phases carry information on base (_check_phase)."""
        end_windows(base.n, self.window_in, self.window_out)
        rows = base.couplings[None], base.fields[None]
        if self.time is None:
            _check_phase(*rows, 0.0)
        time = float(auto_transfer_time(base) if self.time is None else self.time)
        end_windows(base.n, self.window_in, self.window_out, time)
        _check_phase(*rows, time)
        return time


def _check_phase(couplings: np.ndarray, fields: np.ndarray, time: float,
                 start: int | None = None) -> None:
    """ValueError unless every row's chain is finite and t * max|E| on its Gershgorin interval
    is below 2^52: from there one ulp of the largest phase is a radian or more, and the
    phases carry no information.  The rows are the base chain (start None) or the disordered
    realizations start, start + 1, ..."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN entry reaches both
        centre, half = _gershgorin(fields, couplings)
        phase = time * (np.abs(centre) + half)
    finite = np.isfinite(centre) & np.isfinite(half)
    bad = np.flatnonzero(~finite | (phase >= 2.0 ** 52))
    if bad.size == 0:
        return
    r = bad[0]
    what = "this chain" if start is None else f"disordered realization {start + r}"
    if not finite[r]:
        raise ValueError(f"{what} is not finite: a coupling, a field or its spectral bound "
                         f"is beyond the double range")
    raise ValueError(f"window time {time!r} is too long for {what}: "
                     f"t * max|E| = {phase[r]:.6g} is not below 2^52")


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
    bounds = [samples * i // max(count, 1) for i in range(count + 1)]
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
    drawn = _draw_checked(base, spec, time, sample_index, sample_index + 1)
    return _score_rows(*drawn, policy, np.full(1, time))[0]


def _draw_checked(base: Chain, spec: DisorderSpec, time: float, start: int, stop: int,
                  variates: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Couplings and fields of the realizations start..stop-1, refused (_check_phase)
    before any of them is scored.  variates are their standard variates (standard_variates),
    drawn here where None."""
    if variates is None:
        variates = standard_variates(spec.master_seed, [(start, stop)], base.n,
                                     spec.draws.items())
    couplings, fields = apply_variates(base, spec, variates, stop - start)
    _check_phase(couplings, fields, time, start)
    return couplings, fields


def _score_rows(couplings: np.ndarray, fields: np.ndarray, policy: TransferPolicy,
                times: np.ndarray) -> np.ndarray:
    """Fidelity of each drawn realization in a stack, at its resolved time times[r] or, under
    per_sample_peak, at its own first peak."""
    if not policy.per_sample_peak:
        return _score_fixed_time(couplings, fields, policy.window_in, policy.window_out, times)
    lam, w, spectrum = _end_weights(fields, couplings)
    peaks = _first_peaks(lam, w, np.maximum(times, 1.0))  # times are finite and >= 0
    lost = np.isnan(peaks)  # no peak of its own: keep the resolved time
    times = np.where(lost, times, peaks)
    fids = _score_spectrum(couplings, fields, spectrum, policy.window_in, policy.window_out,
                           times)
    if lost.any():  # scored as a fixed-time run scores them, bit for bit
        fids[lost] = _score_fixed_time(couplings[lost], fields[lost], policy.window_in,
                                       policy.window_out, times[lost])
    return fids


def _score_cells(cells: list[tuple[Chain, DisorderSpec, float]], policy: TransferPolicy,
                 samples: int) -> np.ndarray:
    """(len(cells), samples) fidelities: row c holds realizations 0..samples-1 of the cell
    (base, spec, time) = cells[c], scored at its resolved time.  Every base has the same n.

    The cells are planned by what they draw.  A cell whose spec draws nothing is one row,
    realization 0, broadcast to its samples.  The field-free cells (base fields all zero and
    no field draws) are scored first, then the rest, each group in cell order as one
    flattened (cell, row) range in _chunks, so a chunk may hold the end of one cell and the
    start of the next.  A fielded chunk holds at most _chunk_rows rows and a field-free one
    twice that, since _sum_bipartite_terms steps stacks half as tall.  Each cell's part of a
    chunk is drawn and checked, in order, before any row of the chunk is scored (_draw_parts),
    so a run whose cells hold refused realizations raises the first refusal in this order:
    a field-free cell's before a fielded cell's, whatever their order in cells.  A cell that
    draws nothing is never refused, since resolve_time checked its base at its time.  A row
    scores the same in any chunk.
    """
    fids = np.empty((len(cells), samples))
    rows = _chunk_rows(cells[0][0].n, policy.window_in, policy.window_out)
    field_free = [not base.fields.any() and _KIND_FIELD not in spec.draws
                  for base, spec, _ in cells]
    for free, budget in ((True, 2 * rows), (False, rows)):
        group = [c for c in range(len(cells)) if field_free[c] == free]
        sizes = [samples if cells[c][1].draws else 1 for c in group]
        ends = list(accumulate(sizes))
        flat = np.empty(sum(sizes))
        for lo, hi in _chunks(flat.size, budget):
            parts = [(*cells[c], max(lo - end + size, 0), min(hi - end + size, size))
                     for c, size, end in zip(group, sizes, ends) if lo < end and end - size < hi]
            couplings, fields, times = _draw_parts(parts)
            flat[lo:hi] = _score_rows(couplings, fields, policy, times)
        for c, size, end in zip(group, sizes, ends):
            fids[c] = flat[end - size:end]  # a one-row cell is broadcast
    return fids


def _draw_parts(parts: list[tuple[Chain, DisorderSpec, float, int, int]]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked couplings, fields and times of the realizations start..stop-1 of each part
    (base, spec, time, start, stop) of one chunk, each part drawn and checked (_draw_checked)
    in order.  The parts that share a seed take their standard variates from one
    standard_variates call over the union of their index ranges."""
    shared = {}
    for seed in dict.fromkeys(spec.master_seed for _, spec, *_ in parts if spec.draws):
        mine = [(spec, start, stop) for _, spec, _, start, stop in parts
                if spec.master_seed == seed and spec.draws]
        union = []  # disjoint ranges, in index order
        for start, stop in sorted((start, stop) for _, start, stop in mine):
            if union and start <= union[-1][1]:
                union[-1][1] = max(union[-1][1], stop)
            else:
                union.append([start, stop])
        variates = standard_variates(seed, union, parts[0][0].n,
                                     [draw for spec, *_ in mine for draw in spec.draws.items()])
        shared[seed] = union, variates
    drawn = []
    for base, spec, time, start, stop in parts:
        variates = {}
        if spec.draws:
            union, variates = shared[spec.master_seed]
            at = 0  # the row of index start in the union's ranges, concatenated
            for lo, hi in union:
                if start < hi:
                    at += start - lo
                    break
                at += hi - lo
            variates = {key: z[at:at + stop - start] for key, z in variates.items()}
        drawn.append((*_draw_checked(base, spec, time, start, stop, variates),
                      np.full(stop - start, time)))
    return tuple(np.concatenate(stack) for stack in zip(*drawn))


def _summarize(fids: np.ndarray, quantile: float, seed: int) -> FidelityStats:
    """The mean, minimum and quantile of one ensemble's fidelities."""
    return FidelityStats(
        samples=fids.size,
        mean=float(np.mean(fids)),
        minimum=float(np.min(fids)),
        quantile_level=quantile,
        quantile_value=float(np.quantile(fids, quantile, method="linear")),
        seed=seed,
    )


def _score_fixed_time(couplings: np.ndarray, fields: np.ndarray, window_in: int,
                      window_out: int, times: np.ndarray) -> np.ndarray:
    """Best single-excitation fidelity of each row's chain at times[r], with no spectrum given.

    A row is propagated (_chebyshev_tops) where its Chebyshev term count K is at most
    _PROPAGATE * n and _growth admits it; the other rows are solved and take the spectral
    producer.  Callers check the window sizes and times (resolve_time)."""
    m, n = fields.shape
    counts = _term_counts(_gershgorin(fields, couplings)[1] * times, _TAIL, _PROPAGATE * n)
    chebyshev = counts <= _PROPAGATE * n
    top = np.full(m, np.nan)
    if chebyshev.any():
        top[chebyshev] = _chebyshev_tops(couplings[chebyshev], fields[chebyshev], window_in,
                                         window_out, times[chebyshev], counts[chebyshev])
    rest = np.isnan(top)  # past the rule's K, or declined by _growth
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


def _score_tops(top: np.ndarray, couplings: np.ndarray, fields: np.ndarray, window_in: int,
                window_out: int, times: np.ndarray) -> np.ndarray:
    """The producers' shared tail: rows still NaN in top from the full eigensystem, the
    unitarity guard, then the fidelity of each top singular value."""
    n = fields.shape[1]
    for r in np.flatnonzero(np.isnan(top)):
        eig = eigendecompose(Chain(n=n, couplings=couplings[r], fields=fields[r]))
        block = window_amplitudes(eig, window_in, window_out, times[r])
        top[r] = _top_singular(block[None])[0]
    _check_unitary(top)
    return fidelity_single(top)  # clips to [0, 1]


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


# A row is propagated where K <= _PROPAGATE * n and _growth <= _GROWTH (README, "How a chain
# is scored", has the measured crossover table and the oracle errors under the bound).  The
# dropped Chebyshev terms sum to at most _TAIL; Miller's recurrence starts where they sum to
# _MILLER_TAIL.  A spectral row whose window rows' estimated rounding error moves its block by
# more than _ROUNDING is solved instead (README, "How a chain is scored", has the sweep).
_PROPAGATE = 9
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
    return _summarize(_score_cells([(base, spec, time)], policy, samples)[0], quantile,
                      spec.master_seed)


def sweep(base: Chain, coupling_axis: SweepAxis, field_axis: SweepAxis,
          policy: TransferPolicy, coupling_mode: str = "additive",
          samples: int = 1000, quantile: float = 0.75, seed: int = 0) -> SweepGrid:
    """Fill a 2-D disorder grid with monte_carlo statistics.

    The whole grid is one ensemble: its cells x samples rows are scored in the chunks
    monte_carlo would use for that many samples, a chunk may span cells, and every cell's
    statistics equal monte_carlo's on that cell at the resolved time.
    """
    if coupling_axis.target != "coupling" or field_axis.target != "field":
        raise ValueError("first axis must be a coupling axis, second a field axis")
    _check_ensemble_args(samples, quantile)
    time = policy.resolve_time(base)  # checks, before any draw
    specs = [errors_disorder(Distribution(coupling_axis.kind, float(jval)),
                             Distribution(field_axis.kind, float(bval)), seed, coupling_mode)
             for jval in coupling_axis.values for bval in field_axis.values]
    fids = _score_cells([(base, spec, time) for spec in specs], policy, samples)
    stats = [_summarize(row, quantile, spec.master_seed) for spec, row in zip(specs, fids)]
    width = field_axis.values.size
    cells = [stats[i * width:(i + 1) * width] for i in range(coupling_axis.values.size)]
    descriptor = {
        "chain": base.label,
        "n": base.n,
        "window_in": policy.window_in,
        "window_out": policy.window_out,
        "time": time,
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
