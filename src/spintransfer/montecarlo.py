"""Monte Carlo fidelity statistics over disorder ensembles.

A run draws M disordered realizations of a base chain (sample indices
0..M-1) and scores the best single-excitation encoding of each at the run's
extraction time.  A bare end-to-end transfer (1x1 windows) is scored from
the realization's eigenvalues alone (spectral.end_to_end_amplitude).  Larger
windows, and realizations where that identity does not apply (a coupling
exactly zero, a repeated eigenvalue, a non-finite result), recompute the
full eigensystem, rebuild the windowed transfer block and take its top
singular value.  The deterministic tuning objective uses the same per-chain
scorer.  The summary keeps three numbers: the mean (what you expect on
average), the minimum (the guarantee), and an upper quantile (what you get
if you manufacture several chains and keep the best).

Runs are embarrassingly parallel and bit-reproducible: the disorder stream is
counter-based, per-sample results are stored by index, and reductions happen
in index order, so the worker count never changes the output.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .chain import Chain
from .disorder import DisorderSpec, Distribution, sample_disordered_chain
from .encoding import fidelity_single, optimal_encoding, transfer_matrix
from .models import auto_transfer_time, first_peak_time
from .spectral import eigendecompose, end_to_end_amplitude, end_windows

FORMAT_VERSION = 1


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


def sample_fidelity(base: Chain, spec: DisorderSpec, sample_index: int,
                    policy: TransferPolicy, time: float | None = None) -> float:
    """Best-encoding fidelity of one disordered realization.

    The caller can pass the resolved extraction time to avoid re-deriving it
    per sample; otherwise it is resolved from the base chain.
    """
    if time is None:
        time = policy.resolve_time(base)
    chain = sample_disordered_chain(base, spec, sample_index)
    if policy.per_sample_peak:
        time = first_peak_time(chain, search_hint=max(time, 1.0))[0]
    return _score_chain(chain, policy.window_in, policy.window_out, time)


def _score_chain(chain: Chain, window_in: int, window_out: int, time: float) -> float:
    """Best single-excitation fidelity of one chain between its end windows."""
    window = end_windows(chain.n, window_in, window_out, time)
    amp = end_to_end_amplitude(chain, time) if window_in == window_out == 1 else None
    if amp is None:
        block = transfer_matrix(eigendecompose(chain), window)
        lam1 = float(optimal_encoding(block).singular_values[0])
    elif abs(amp) > 1.0 + 1e-10:
        raise ValueError(f"window block has singular value {abs(amp)} > 1; "
                         "inputs are inconsistent")
    else:
        lam1 = abs(amp)
    return fidelity_single(min(lam1, 1.0))


def quantile_interpolated(samples: np.ndarray, q: float) -> float:
    """Linear interpolation between closest ranks on the sorted samples."""
    if not (0.0 < q < 1.0):
        raise ValueError("quantile level must be in (0, 1)")
    return float(np.quantile(samples, q, method="linear"))


def monte_carlo(base: Chain, spec: DisorderSpec, policy: TransferPolicy,
                samples: int = 1000, quantile: float = 0.75,
                threads: int = 1) -> FidelityStats:
    """Seeded ensemble of sample_fidelity evaluations, summarized.

    Output is identical for any thread count: samples are keyed by index and
    the statistics are computed on the index-ordered array.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    time = policy.resolve_time(base)

    def run(i: int) -> float:
        return sample_fidelity(base, spec, i, policy, time=time)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            fids = np.fromiter(pool.map(run, range(samples)), dtype=float, count=samples)
    else:
        fids = np.fromiter(map(run, range(samples)), dtype=float, count=samples)

    return FidelityStats(
        samples=samples,
        mean=float(np.mean(fids)),
        minimum=float(np.min(fids)),
        quantile_level=quantile,
        quantile_value=quantile_interpolated(fids, quantile),
        seed=spec.master_seed,
    )


def _cell_spec(coupling_axis: SweepAxis, field_axis: SweepAxis,
               jval: float, bval: float, coupling_mode: str, seed: int) -> DisorderSpec:
    return DisorderSpec(
        coupling_mode=coupling_mode if jval > 0 else "none",
        field_mode="additive" if bval > 0 else "none",
        coupling_dist=Distribution(coupling_axis.kind, jval),
        field_dist=Distribution(field_axis.kind, bval),
        master_seed=seed,
    )


def sweep(base: Chain, coupling_axis: SweepAxis, field_axis: SweepAxis,
          policy: TransferPolicy, coupling_mode: str = "additive",
          samples: int = 1000, quantile: float = 0.75, seed: int = 0,
          threads: int = 1) -> SweepGrid:
    """Fill a 2-D disorder grid with monte_carlo statistics, cell by cell."""
    if coupling_axis.target != "coupling" or field_axis.target != "field":
        raise ValueError("first axis must be a coupling axis, second a field axis")
    time = policy.resolve_time(base)
    fixed_policy = TransferPolicy(policy.window_in, policy.window_out, time,
                                  policy.per_sample_peak)
    cells = []
    for jval in coupling_axis.values:
        row = []
        for bval in field_axis.values:
            spec = _cell_spec(coupling_axis, field_axis, float(jval), float(bval),
                              coupling_mode, seed)
            row.append(monte_carlo(base, spec, fixed_policy, samples, quantile, threads))
        cells.append(row)
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
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
