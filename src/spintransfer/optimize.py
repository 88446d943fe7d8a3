"""Chain-parameter optimization and perturbation response.

Two tools live here.  optimize_apollaro tunes the (x, y) end-coupling
parameters against a configurable objective: deterministic best-encoding
fidelity, or an upper-quantile fidelity under disorder.  Disordered
objectives reuse one fixed set of disorder draws for every candidate (common
random numbers), which makes the objective deterministic and lets a simplex
search make progress despite the sampling.  evaluate_objective is the one-point
case of _evaluate_points, which objective_landscape calls once per x value:
one stacked spectrum solve, then one stacked score or one _score_cells ensemble.

first_order_response gives dF/d(eps) of the end-to-end transfer
probability F = |<N|U(t0)|1>|^2 under a chain perturbation, exactly, from
one eigendecomposition (the Daleckii-Krein derivative of the propagator).
Perfect-transfer chains sit at stationary points of F, so their response is
zero to first order; imperfect chains generically are not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import Chain, NumericalFailure
from .disorder import DisorderSpec
from .models import _first_peak, apollaro_chain, default_peak_hint
from .montecarlo import TransferPolicy, _check_ensemble_args, _score_cells, _score_spectrum
from .spectral import _end_weights, eigendecompose

BOX_LO = 1e-6
BOX_HI = 1.2
# Nelder-Mead's xatol, and how close to the box edge an optimum counts as a boundary hit.
SIMPLEX_TOL = 1e-4


@dataclass(frozen=True)
class Objective:
    """What optimize_apollaro maximizes.

    metric "deterministic": best-encoding fidelity of the ideal chain at its
    own first-peak time.  metric "quantile": the quantile-level fidelity over
    `samples` disorder draws at that same (ideal-chain) time, with draws fixed
    by the disorder spec's master seed.  n, window, samples and quantile are
    checked here and frozen, so no candidate is scored (or floored at 0.5) on bad ones.
    """

    n: int = 51
    window: int = 1
    disorder: DisorderSpec | None = None
    metric: str = "deterministic"
    samples: int = 200
    quantile: float = 0.75

    def __post_init__(self):
        if self.n < 5:
            raise ValueError(f"apollaro chain needs n >= 5, got {self.n}")
        if not 1 <= self.window <= self.n:
            raise ValueError(f"window must be in 1..{self.n}, got {self.window}")
        if self.metric not in ("deterministic", "quantile"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.metric == "quantile" and self.disorder is None:
            raise ValueError("quantile metric needs a disorder spec")
        _check_ensemble_args(self.samples, self.quantile)


@dataclass
class OptimizationResult:
    x: float
    y: float
    objective_value: float
    evaluations: int
    trace: list = field(default_factory=list)  # (x, y, value) per evaluation
    hit_boundary: bool = False


def _fold_into_box(v: float) -> float:
    # reflect the real line into [BOX_LO, BOX_HI] (triangle wave)
    span = BOX_HI - BOX_LO
    r = (v - BOX_LO) % (2.0 * span)
    return BOX_LO + (span - abs(r - span))


def evaluate_objective(obj: Objective, x: float, y: float) -> float:
    return float(_evaluate_points(obj, [x], [y])[0])


def _evaluate_points(obj: Objective, xs, ys) -> np.ndarray:
    """The objective at each point (xs[i], ys[i]), folded into the box: one stacked solve, a
    first-peak search per point, then one stacked score or one ensemble of the points."""
    chains = [apollaro_chain(obj.n, _fold_into_box(float(x)), _fold_into_box(float(y)))
              for x, y in zip(xs, ys)]
    couplings = np.array([c.couplings for c in chains]).reshape(len(chains), obj.n - 1)
    fields = np.zeros((len(chains), obj.n))
    lam, w, spectrum = _end_weights(fields, couplings)
    values, peaks = np.full(len(chains), 0.5), {}
    for r in range(len(chains)):
        try:
            peaks[r] = _first_peak(lam[r], w[r], default_peak_hint(obj.n))
        except NumericalFailure:  # no arrival in the search window (extreme end couplings):
            pass  # the point keeps the fidelity floor instead of aborting the search
    # where every point has a peak (the one-point objective's case), rows copies nothing
    rows = slice(None) if len(peaks) == len(chains) else list(peaks)
    if peaks and obj.metric == "deterministic":
        values[rows] = _score_spectrum(couplings[rows], fields[rows],
                                       tuple(part[rows] for part in spectrum),
                                       obj.window, obj.window, np.array(list(peaks.values())))
    elif peaks:
        cells = [(chains[r], obj.disorder, TransferPolicy(obj.window, obj.window, t)
                  .resolve_time(chains[r])) for r, t in peaks.items()]
        fids = _score_cells(cells, TransferPolicy(obj.window, obj.window), obj.samples)
        values[rows] = np.quantile(fids, obj.quantile, axis=1, method="linear")
    return values


def optimize_apollaro(obj: Objective, x0: float, y0: float,
                      restarts: int = 3, max_iter: int = 400) -> OptimizationResult:
    """Nelder-Mead maximization of the objective inside the box (0, 1.2]^2.

    Candidates outside the box are reflected back in.  On top of the run from
    (x0, y0), `restarts` perturbed starting simplices are tried and the best
    result is kept.  With a fixed master seed the whole search is
    deterministic, so objective_value always equals a re-evaluation at the
    returned point.
    """
    if not (0 < x0 <= BOX_HI and 0 < y0 <= BOX_HI):
        raise ValueError(f"start must lie in (0, {BOX_HI}]^2")
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    from scipy.optimize import minimize  # deferred: the only caller, ~0.2 s to import
    trace: list[tuple[float, float, float]] = []

    def negated(p: np.ndarray) -> float:
        value = evaluate_objective(obj, p[0], p[1])
        trace.append((_fold_into_box(float(p[0])), _fold_into_box(float(p[1])), value))
        return -value

    rng = np.random.default_rng(obj.disorder.master_seed if obj.disorder else 0)
    starts = [np.array([x0, y0])]
    for _ in range(restarts):
        starts.append(np.array([
            _fold_into_box(x0 + rng.uniform(-0.15, 0.15)),
            _fold_into_box(y0 + rng.uniform(-0.15, 0.15)),
        ]))

    best = None
    for start in starts:
        res = minimize(negated, start, method="Nelder-Mead",
                       options={"xatol": SIMPLEX_TOL, "fatol": 1e-12,
                                "maxiter": max_iter, "maxfev": 4 * max_iter})
        if best is None or res.fun < best.fun:
            best = res

    x_best = _fold_into_box(float(best.x[0]))
    y_best = _fold_into_box(float(best.x[1]))
    hit_boundary = (x_best <= BOX_LO + SIMPLEX_TOL or x_best >= BOX_HI - SIMPLEX_TOL
                    or y_best <= BOX_LO + SIMPLEX_TOL or y_best >= BOX_HI - SIMPLEX_TOL)
    return OptimizationResult(
        x=x_best, y=y_best,
        objective_value=evaluate_objective(obj, x_best, y_best),
        evaluations=len(trace), trace=trace, hit_boundary=hit_boundary,
    )


def objective_landscape(obj: Objective, x_values, y_values) -> np.ndarray:
    """Objective on a grid; entry [i, j] pairs x_values[i] with y_values[j].

    Points must lie in the box, where evaluate_objective folds none onto another.  Each x
    value's row is one _evaluate_points call, so memory is bounded by one axis."""
    x_values = np.atleast_1d(np.asarray(x_values, dtype=float))
    y_values = np.atleast_1d(np.asarray(y_values, dtype=float))
    outside = [v for v in (*x_values, *y_values) if not 0 < v <= BOX_HI]
    if outside:
        raise ValueError(f"landscape points must lie in (0, {BOX_HI}]^2, got {outside[0]:g}")
    rows = [_evaluate_points(obj, np.full(y_values.size, x), y_values) for x in x_values]
    return np.array(rows).reshape(x_values.size, y_values.size)


def first_order_response(chain: Chain, t0: float, couplings_delta, fields_delta) -> float:
    """dF/d(eps) at eps = 0 for F(eps) = |<N|U(t0)|1>|^2 of chain + eps*direction.

    The direction dH is scaled to unit maximum entry (an all-zero direction
    returns 0).  dU = V (D o (V^T dH V)) V^T (Daleckii-Krein; Higham, Functions
    of Matrices, Thm 3.11) with D_kl = (e^{-i lam_k t0} - e^{-i lam_l t0}) /
    (lam_k - lam_l), D_kk = -i t0 e^{-i lam_k t0}, computed without cancellation
    as -i t0 e^{-i (lam_k + lam_l) t0 / 2} sinc((lam_k - lam_l) t0 / 2).
    """
    dj = np.asarray(couplings_delta, dtype=float)
    db = np.asarray(fields_delta, dtype=float)
    if dj.size != chain.n - 1 or db.size != chain.n:
        raise ValueError("direction must match the chain layout")
    scale = max(np.max(np.abs(dj)), np.max(np.abs(db)))
    if scale == 0.0:
        return 0.0
    eig = eigendecompose(chain)
    lam, v = eig.eigenvalues, eig.eigenvectors
    dh_v = db[:, None] * v  # dH V for the tridiagonal direction
    dh_v[:-1] += dj[:, None] * v[1:]
    dh_v[1:] += dj[:, None] * v[:-1]
    mid = 0.5 * (lam[:, None] + lam[None, :])
    half_gap = 0.5 * (lam[:, None] - lam[None, :]) * t0
    divided = -1j * t0 * np.exp(-1j * mid * t0) * np.sinc(half_gap / np.pi)
    amp = v[-1] @ (np.exp(-1j * lam * t0) * v[0])
    d_amp = v[-1] @ (divided * (v.T @ dh_v)) @ v[0] / scale
    return float(2.0 * np.real(np.conj(amp) * d_amp))
