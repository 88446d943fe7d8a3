"""Monte Carlo fidelity statistics over disorder ensembles.

A run draws M disordered realizations of a base chain (sample indices
0..M-1) and scores the best single-excitation encoding of each at its
extraction time (the run's time, or each realization's own first peak).
One private kernel, _score_spectrum, scores a stack of realizations drawn
by one broadcast hash (disorder.draw_realizations), in chunks of a fixed
number of samples, in one thread (a thread pool measured slower).  The caller
solves the stack once with spectral.end_spectrum and passes that spectrum in,
so the tuning objective and per-sample peaks reuse it for their peak search.

The kernel computes no eigenvectors.  Each chain gets its eigenvalues and
end weights w_k = v_k(1) v_k(N) from spectral.end_spectrum; the window rows
follow from the three-term recurrence, run from site 1 (r_i) and from site
N (s_j), and the blocks U_ji(t) = sum_k s_j w_k e^{-i lam_k t} r_i of the
whole chunk are one stacked product, scored by the top singular value.  The
full eigensystem scores a chain the identity cannot take (zero coupling,
repeated eigenvalue) or whose block is not finite, and every chain once the
two recurrences would share a site (window_in + window_out > N, both windows
above 1), where they lose accuracy.

sample_fidelity and the deterministic tuning objective are the one-row case
of the same kernel.  The summary keeps three numbers: the mean (what you
expect on average), the minimum (the guarantee), and an upper quantile (what
you get if you manufacture several chains and keep the best).  Runs are
bit-reproducible: draws are counter-based, a sample's result does not depend
on its chunk, and reductions happen in index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .chain import FORMAT_VERSION, Chain, write_json
from .disorder import DisorderSpec, Distribution, draw_realizations, errors_disorder
from .encoding import fidelity_single
from .models import _check_peak_args, _first_peak, auto_transfer_time
from .spectral import (_row_weights, eigendecompose, end_spectrum, end_windows,
                       window_amplitudes)


@dataclass
class TransferPolicy:
    """Where the code lives and when it is extracted.

    window_in/window_out: contiguous end-window sizes (1 = bare end-to-end).
    time: fixed extraction time; None means derive it from the ideal chain
    (perfect-transfer time for linear spectra, first arrival peak otherwise).
    per_sample_peak: re-find the first peak for every disordered realization
    instead of trusting the ideal time (off by default: disorder does not
    move the scheduled extraction).
    """

    window_in: int = 1
    window_out: int = 1
    time: float | None = None
    per_sample_peak: bool = False

    def resolve_time(self, base: Chain) -> float:
        if self.time is not None:
            return float(self.time)
        return auto_transfer_time(base)


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


# Realizations per kernel call: it bounds the stacks the kernel holds at once.
_CHUNK = 64


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
    if time is None:
        time = policy.resolve_time(base)
    return _score_range(base, spec, policy, time, sample_index, sample_index + 1)[0]


def _score_range(base: Chain, spec: DisorderSpec, policy: TransferPolicy, time: float,
                 start: int, stop: int) -> np.ndarray:
    """Fidelities of the realizations with sample indices start..stop-1."""
    couplings, fields = draw_realizations(base, spec, start, stop)
    times = np.full(stop - start, float(time))
    spectrum = end_spectrum(fields, couplings)
    if policy.per_sample_peak:
        hint = _check_peak_args(base, max(time, 1.0))
        for r, row in enumerate(zip(*spectrum)):
            chain = Chain(n=base.n, couplings=couplings[r], fields=fields[r])
            times[r] = _first_peak(*_row_weights(chain, *row), hint)
    return _score_spectrum(couplings, fields, spectrum, policy.window_in, policy.window_out,
                           times)


def _score_spectrum(couplings: np.ndarray, fields: np.ndarray, spectrum: tuple,
                    window_in: int, window_out: int, times: np.ndarray) -> np.ndarray:
    """Best single-excitation fidelity of each row's chain between its end windows.

    Row r: couplings[r], fields[r], at times[r]; spectrum is end_spectrum(fields, couplings)."""
    m, n = fields.shape
    end_windows(n, window_in, window_out, float(times.min()))  # validates sizes, times
    top = np.full(m, np.nan)  # NaN: not scored yet
    if min(window_in, window_out) == 1 or window_in + window_out <= n:
        lam, log_weights, signs, ok = spectrum
        # rows that are not ok, or overflow, stay NaN in top: eigensystem below
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ins, outs, log_scale = _window_rows(lam, fields, couplings, window_in, window_out)
            weights = signs * np.exp(log_weights + log_scale)
            phases = np.exp(-1j * lam * times[:, None])
            blocks = ((outs.transpose(1, 0, 2) * weights[:, None, :])
                      @ (ins.transpose(1, 2, 0) * phases[:, :, None]))
        good = ok & np.isfinite(blocks).all(axis=(1, 2))
        blocks = blocks[good]
        top[good] = (np.abs(blocks[:, 0, 0]) if window_in == window_out == 1
                     else np.linalg.svd(blocks, compute_uv=False)[:, 0])
    for r in np.flatnonzero(np.isnan(top)):
        eig = eigendecompose(Chain(n=n, couplings=couplings[r], fields=fields[r]))
        block = window_amplitudes(eig, end_windows(n, window_in, window_out, times[r]))
        top[r] = np.linalg.svd(block, compute_uv=False)[0]
    if (top > 1.0 + 1e-10).any():
        raise ValueError(f"window block has singular value {np.max(top)} > 1; "
                         "inputs are inconsistent")
    return fidelity_single(top)  # clips to [0, 1]


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


def quantile_interpolated(samples: np.ndarray, q: float) -> float:
    """Linear interpolation between closest ranks on the sorted samples."""
    if not (0.0 < q < 1.0):
        raise ValueError("quantile level must be in (0, 1)")
    return float(np.quantile(samples, q, method="linear"))


def monte_carlo(base: Chain, spec: DisorderSpec, policy: TransferPolicy,
                samples: int = 1000, quantile: float = 0.75,
                threads: int = 1) -> FidelityStats:
    """Seeded ensemble of sample_fidelity evaluations, summarized.

    Samples are scored in chunks of _CHUNK indices, in index order.  threads
    must be >= 1 and does not change the work or the output.
    """
    _check_ensemble_args(samples, quantile, threads)
    time = policy.resolve_time(base)
    fids = np.concatenate([_score_range(base, spec, policy, time, start,
                                        min(start + _CHUNK, samples))
                           for start in range(0, samples, _CHUNK)])

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
          samples: int = 1000, quantile: float = 0.75, seed: int = 0,
          threads: int = 1) -> SweepGrid:
    """Fill a 2-D disorder grid with monte_carlo statistics, cell by cell."""
    if coupling_axis.target != "coupling" or field_axis.target != "field":
        raise ValueError("first axis must be a coupling axis, second a field axis")
    _check_ensemble_args(samples, quantile, threads)
    fixed_policy = replace(policy, time=policy.resolve_time(base))
    cells = []
    for jval in coupling_axis.values:
        row = []
        for bval in field_axis.values:
            spec = errors_disorder(Distribution(coupling_axis.kind, float(jval)),
                                   Distribution(field_axis.kind, float(bval)), seed,
                                   coupling_mode)
            row.append(monte_carlo(base, spec, fixed_policy, samples, quantile, threads))
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
