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
one-sublattice loop.  Each group's rows are scored in near-equal chunks
sized by their stacks (_chunk_rows: about 2^16 elements an (N + 2)-site
array, twice that for field-free rows), a chunk may span cells, in one thread
(a pool measured slower; monte_carlo's threads argument runs nothing).  The
parts of a chunk that share a seed are hashed once, over the union of their
sample indices (disorder.standard_variates), and each part scales those
variates by its own spec (disorder.apply_variates).  The two block producers
in spectral feed one tail, _score_tops (eigensystem for a row they decline,
unitarity guard, fidelity); callers holding a spectrum (the deterministic
tuning objective, per-sample peaks) score through _score_spectrum.  Rows
scored at a fixed time (_score_fixed_time) are propagated where
K <= _PROPAGATE * N and _growth admits them, and solved otherwise; the rule
reads the row alone, so a row scores the same in any chunk.

sample_fidelity is a one-row part drawn by the same _draw_parts and scored by
the same _score_rows.  The summary keeps three numbers: the mean (what you
expect on average), the minimum (the guarantee), and an upper quantile (what
you get if you manufacture several chains and keep the best).  Runs are
bit-reproducible: draws are counter-based, a sample's result does not depend on
its chunk, and reductions happen in index order.
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
from .spectral import (_TAIL, _chebyshev_tops, _end_weights, _gershgorin, _spectral_tops,
                       _term_counts, _top_singular, eigendecompose, end_spectrum, end_windows,
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
    """ValueError unless every row's chain is finite and |t| * max|E| on its Gershgorin interval
    is below 2^52: from there one ulp of the largest phase is a radian or more, and the
    phases carry no information.  The rows are the base chain (start None) or the disordered
    realizations start, start + 1, ..."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN entry reaches both
        centre, half = _gershgorin(fields, couplings)
        phase = abs(time) * (np.abs(centre) + half)
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
        if self.values.size == 0:
            raise ValueError(f"sweep axis {self.name} has no values")
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
    couplings, fields, times = _draw_parts([(base, spec, time, sample_index, sample_index + 1)])
    return _score_rows(couplings, fields, policy, times)[0]


def _score_rows(couplings: np.ndarray, fields: np.ndarray, policy: TransferPolicy,
                times: np.ndarray) -> np.ndarray:
    """Fidelity of each drawn realization in a stack, at its resolved time times[r] or, under
    per_sample_peak, at its own first peak."""
    if not policy.per_sample_peak:
        return _score_fixed_time(couplings, fields, policy.window_in, policy.window_out, times)
    lam, w, spectrum = _end_weights(fields, couplings)
    peaks = _first_peaks(lam, w, np.maximum(times, 1.0))  # times are finite and >= 0
    fids, lost = np.empty(len(times)), np.isnan(peaks)
    found = ~lost
    if found.any():
        fids[found] = _score_spectrum(couplings[found], fields[found],
                                      tuple(part[found] for part in spectrum),
                                      policy.window_in, policy.window_out, peaks[found])
    if lost.any():  # no peak of its own: the resolved time, scored as a fixed-time run scores it
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
    (base, spec, time, start, stop) of one chunk, each part drawn (apply_variates) and refused
    (_check_phase) in order, before any row is scored.  The parts that share a seed take their
    standard variates from one standard_variates call over the union of their index ranges,
    which refuses a range that starts below 0, also of a part that draws nothing."""
    shared = {}
    for seed in dict.fromkeys(spec.master_seed for _, spec, *_ in parts):
        mine = [(spec, start, stop) for _, spec, _, start, stop in parts
                if spec.master_seed == seed]
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
        union, variates = shared[spec.master_seed]
        # the row of index start in the union's ranges, concatenated
        at = sum(min(hi, start) - lo for lo, hi in union if lo < start)
        couplings, fields = apply_variates(
            base, spec, {key: z[at:at + stop - start] for key, z in variates.items()},
            stop - start)
        _check_phase(couplings, fields, time, start)
        drawn.append((couplings, fields, np.full(stop - start, time)))
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


# Propagated where K <= _PROPAGATE * n (README, "How a chain is scored", has the crossover).
_PROPAGATE = 9


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
