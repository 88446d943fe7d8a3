"""Monte Carlo fidelity statistics over disorder ensembles.

A run draws M disordered realizations of a base chain (sample indices
0..M-1) and scores the best single-excitation encoding of each at its
extraction time (the run's time, or each realization's own first peak).
One private kernel scores a stack of realizations: the draws for a range of
sample indices come from one broadcast hash (disorder.draw_realizations),
and the runs go through the kernel in chunks of a fixed number of samples.

- A bare end-to-end transfer (1x1 windows) is scored from each
  realization's eigenvalues alone (spectral.end_to_end_amplitude).  Where
  that identity does not apply (a coupling exactly zero, a repeated
  eigenvalue, a non-finite result) the full eigensystem gives the 1x1 block.
- Larger windows take the eigenvalues and the end rows of the eigenvectors
  from the tridiagonal eigensolver, stack the window blocks
  (V_out e^{-i lam t}) V_in^T of the whole chunk, and read each block's top
  singular value from a singular-values-only SVD.

sample_fidelity and the deterministic tuning objective are the one-row case
of the same kernel.  The summary keeps three numbers: the mean (what you
expect on average), the minimum (the guarantee), and an upper quantile (what
you get if you manufacture several chains and keep the best).

Runs are embarrassingly parallel and bit-reproducible: the disorder stream is
counter-based, a sample's result does not depend on the chunk it is scored
in, chunks are stored by index and reductions happen in index order, so the
worker count never changes the output.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .chain import Chain, NumericalFailure
from .disorder import DisorderSpec, Distribution, draw_realizations
from .encoding import fidelity_single
from .models import auto_transfer_time, first_peak_time
from .spectral import eigendecompose, end_to_end_amplitude, end_windows, window_amplitudes

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


# Realizations per kernel call.  It bounds the stacked draws, eigenvector end
# rows and window blocks held at once, and is the unit of work handed to the
# thread pool; it must not depend on the thread count.
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
    if policy.per_sample_peak:
        hint = max(time, 1.0)
        for r in range(times.size):
            chain = Chain(n=base.n, couplings=couplings[r], fields=fields[r])
            times[r] = first_peak_time(chain, search_hint=hint)[0]
    return _score_rows(couplings, fields, policy.window_in, policy.window_out, times)


def _score_chain(chain: Chain, window_in: int, window_out: int, time: float) -> float:
    """Best single-excitation fidelity of one chain between its end windows."""
    return _score_rows(chain.couplings[None], chain.fields[None], window_in, window_out,
                       np.array([float(time)]))[0]


def _score_rows(couplings: np.ndarray, fields: np.ndarray, window_in: int, window_out: int,
                times: np.ndarray) -> np.ndarray:
    """Best single-excitation fidelity of each row's chain between its end windows.

    Row r is the chain with couplings[r] and fields[r], extracted at times[r].
    """
    n = fields.shape[1]
    end_windows(n, window_in, window_out, float(times.min()))  # validates sizes, times
    if window_in == window_out == 1:
        top = np.array([_end_to_end_value(Chain(n=n, couplings=j, fields=b), t)
                        for j, b, t in zip(couplings, fields, times)])
    else:
        top = _window_top_values(couplings, fields, window_in, window_out, times)
    if (top > 1.0 + 1e-10).any():
        raise ValueError(f"window block has singular value {np.max(top)} > 1; "
                         "inputs are inconsistent")
    return fidelity_single(top)  # clips to [0, 1]


def _end_to_end_value(chain: Chain, time: float) -> float:
    """|<N|U(t)|1>|, the singular value of the 1x1 window block."""
    amp = end_to_end_amplitude(chain, time)
    if amp is not None:
        return abs(amp)
    block = window_amplitudes(eigendecompose(chain), end_windows(chain.n, 1, 1, time))
    return np.linalg.svd(block, compute_uv=False)[0]


def _window_top_values(couplings: np.ndarray, fields: np.ndarray, window_in: int,
                       window_out: int, times: np.ndarray) -> np.ndarray:
    """Top singular value of each row's window block, from stacked blocks.

    Only the eigenvector rows of the window sites are kept; no sign gauge or
    reordering is needed, since the block does not depend on either.
    """
    m, n = fields.shape
    lam = np.empty((m, n))
    v_out = np.empty((m, window_out, n))
    v_in = np.empty((m, window_in, n))
    for r in range(m):
        try:
            lam[r], vectors = eigh_tridiagonal(fields[r], couplings[r])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological
            raise NumericalFailure(f"tridiagonal eigensolver failed: {exc}") from exc
        v_out[r] = vectors[n - window_out:]
        v_in[r] = vectors[:window_in]
    phases = np.exp(-1j * lam * times[:, None])
    blocks = (v_out * phases[:, None, :]) @ v_in.transpose(0, 2, 1)
    return np.linalg.svd(blocks, compute_uv=False)[:, 0]


def quantile_interpolated(samples: np.ndarray, q: float) -> float:
    """Linear interpolation between closest ranks on the sorted samples."""
    if not (0.0 < q < 1.0):
        raise ValueError("quantile level must be in (0, 1)")
    return float(np.quantile(samples, q, method="linear"))


def monte_carlo(base: Chain, spec: DisorderSpec, policy: TransferPolicy,
                samples: int = 1000, quantile: float = 0.75,
                threads: int = 1) -> FidelityStats:
    """Seeded ensemble of sample_fidelity evaluations, summarized.

    Samples are scored in chunks of _CHUNK indices, on `threads` workers when
    threads > 1.  Output is identical for any thread count: chunks are keyed
    by index and the statistics are computed on the index-ordered array.
    """
    _check_ensemble_args(samples, quantile, threads)
    time = policy.resolve_time(base)

    def run(start: int) -> np.ndarray:
        return _score_range(base, spec, policy, time, start, min(start + _CHUNK, samples))

    starts = range(0, samples, _CHUNK)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            fids = np.concatenate(list(pool.map(run, starts)))
    else:
        fids = np.concatenate(list(map(run, starts)))

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
    _check_ensemble_args(samples, quantile, threads)
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
