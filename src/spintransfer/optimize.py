"""Chain-parameter optimization and perturbation response.

Two tools live here.  optimize_apollaro tunes the (x, y) end-coupling
parameters against a configurable objective: deterministic best-encoding
fidelity, or an upper-quantile fidelity under disorder.  Disordered
objectives reuse one fixed set of disorder draws for every candidate (common
random numbers), which makes the objective deterministic and lets a simplex
search make progress despite the sampling.  evaluate_objective is the one-point
case of _evaluate_points, which objective_landscape calls once per x value:
one stacked spectrum solve, one stacked first-peak search, then one stacked score or
one _score_cells ensemble.
optimize_apollaro runs up to W starts' Nelder-Mead searches in lockstep, in
one thread: each search is a generator (_nelder_mead, scipy's algorithm step
for step) that yields its points, and _lockstep scores each round of their
points with one _evaluate_points call.  Each search's path, and so the
result, is the one it takes alone.

first_order_response gives dF/d(eps) of the end-to-end transfer
probability F = |<N|U(t0)|1>|^2 under a chain perturbation, exactly, from
one eigendecomposition (the Daleckii-Krein derivative of the propagator).
Perfect-transfer chains sit at stationary points of F, so their response is
zero to first order; imperfect chains generically are not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import Chain
from .disorder import DisorderSpec
from .models import _apollaro_couplings, _first_peaks, default_peak_hint
from .montecarlo import TransferPolicy, _check_ensemble_args, _score_cells, _score_spectrum
from .spectral import _end_weights, eigendecompose

BOX_LO = 1e-6
BOX_HI = 1.2
# Nelder-Mead's xatol, and how close to the box edge an optimum counts as a boundary hit.
SIMPLEX_TOL = 1e-4
# How many optimizer starts search at once, in lockstep: each round of their points is
# scored as one stack.
W = 4


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
    """The objective at each point (xs[i], ys[i]), folded into the box: one stacked solve, one
    stacked first-peak search, then one stacked score or one ensemble of the points that have
    a peak.  ValueError, before any solve, where a coordinate is not finite (no fold takes
    it in)."""
    for name, values in (("x", xs), ("y", ys)):
        bad = [float(v) for v in values if not np.isfinite(v)]
        if bad:
            raise ValueError(f"objective point {name} must be finite, got {bad[0]!r}")
    couplings = _apollaro_couplings(obj.n, [_fold_into_box(float(x)) for x in xs],
                                    [_fold_into_box(float(y)) for y in ys])
    fields = np.zeros((len(couplings), obj.n))
    lam, w, spectrum = _end_weights(fields, couplings)
    peaks = _first_peaks(lam, w, np.full(len(couplings), default_peak_hint(obj.n)))
    # a point with no arrival in the search window (extreme end couplings) keeps the fidelity
    # floor instead of aborting the search
    values, found = np.full(len(couplings), 0.5), np.flatnonzero(~np.isnan(peaks))
    # where every point has a peak (the one-point objective's case), rows copies nothing
    rows = slice(None) if found.size == len(couplings) else found
    if found.size and obj.metric == "deterministic":
        values[rows] = _score_spectrum(couplings[rows], fields[rows],
                                       tuple(part[rows] for part in spectrum),
                                       obj.window, obj.window, peaks[rows])
    elif found.size:
        bases = [Chain(n=obj.n, couplings=couplings[r], fields=fields[r]) for r in found]
        cells = [(base, obj.disorder, TransferPolicy(obj.window, obj.window, peaks[r])
                  .resolve_time(base)) for base, r in zip(bases, found)]
        fids = _score_cells(cells, TransferPolicy(obj.window, obj.window), obj.samples)
        values[rows] = np.quantile(fids, obj.quantile, axis=1, method="linear")
    return values


def _nelder_mead(start, max_iter: int):
    """scipy 1.17's Nelder-Mead (adaptive=False, no bounds) on 2 parameters, step for step, as
    a generator: it yields each point, is sent that point's value and returns (x, fun).
    xatol is SIMPLEX_TOL and fatol 1e-12.
    """
    sim = np.array([start] * 3, dtype=float)
    # starts lie in [BOX_LO, BOX_HI], so scipy's branch for a zero coordinate (zdelt) never runs
    sim[1, 0] *= 1 + 0.05
    sim[2, 1] *= 1 + 0.05
    fsim = np.full(3, np.inf)
    for k in range(3):
        fsim[k] = yield sim[k]
    for _ in range(2):  # as scipy: twice, since argsort is not stable and may reorder ties
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    # no maxfev test: at most 4 points an iteration, so 3 + 4 (max_iter - 1) < 4 max_iter in all
    while iterations < max_iter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= SIMPLEX_TOL
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-12):
            break
        xbar = (sim[0] + sim[1]) / 2
        xr = 2 * xbar - sim[-1]
        fxr = yield xr
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = yield xe
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = yield xc
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = yield xc
                shrink = not fxc < fsim[-1]
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in (1, 2):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = yield sim[j]
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], np.min(fsim)


def _lockstep(searches, score) -> list:
    """Run the generators `searches` (each a _nelder_mead), at most W at a time; return what
    each returns, in order.

    Each round, score(asked) is called on the (start, point) pairs of every search in flight,
    in start order, for a value per point, and each search is sent its value.  If that
    raises, each pair is scored alone, so each search gets its own value or exception.  A
    later search begins when an earlier one ends.  A search whose point raises has failed:
    every search above it is dropped and none begins after it; its exception is raised once
    every search below it has ended, unless one of those failed too, when the lowest one's is.
    """
    results, failed = [None] * len(searches), {}
    pending, begun = {}, 0  # each search in flight's next point, by start

    def score_round(asked):
        """score(asked), or each pair scored alone if that raises: a value or an exception each."""
        try:
            return score(asked)
        except Exception as exc:
            if len(asked) == 1:
                return [exc]
        values = []
        for pair in asked:
            try:
                values.extend(score([pair]))
            except Exception as exc:
                values.append(exc)
        return values

    while True:
        while not failed and begun < len(searches) and len(pending) < W:
            pending[begun] = next(searches[begun])
            begun += 1
        if not pending:
            break
        asked = sorted(pending.items())  # by start: no two share one
        for (i, _), value in zip(asked, score_round(asked)):
            if isinstance(value, Exception):
                failed[i] = value
                del pending[i]
                continue
            try:
                pending[i] = searches[i].send(value)
            except StopIteration as end:
                results[i] = end.value
                del pending[i]
        if failed:
            pending = {i: point for i, point in pending.items() if i < min(failed)}
    if failed:
        raise failed[min(failed)]
    return results


def optimize_apollaro(obj: Objective, x0: float, y0: float,
                      restarts: int = 3, max_iter: int = 400) -> OptimizationResult:
    """Nelder-Mead maximization of the objective inside the box (0, 1.2]^2.

    Candidates outside the box are reflected back in.  On top of the run from
    (x0, y0), `restarts` perturbed starting simplices are tried and the best
    result is kept (the first in start order on a tie).  objective_value is the
    value the winning search scored at its best point, and no point is scored
    again.  It equals a re-evaluation at the returned point bit for bit: with a
    fixed master seed the objective is deterministic, a point's value does not
    depend on its round, and _fold_into_box is idempotent, so the returned
    (folded) point folds onto the point that was scored.

    Up to W starts search in lockstep (_lockstep): each is a _nelder_mead
    generator, which takes scipy's Nelder-Mead path step for step, and each
    round of their points is scored with one _evaluate_points call.  A point's
    value does not depend on its round, so every search takes the path it would
    take alone, and trace, evaluations and result are those of the starts run
    one after another; so is the exception raised when a start fails (the
    lowest failed start's).  If a round's stacked call raises, its points are
    scored one at a time, so each start gets its own value or exception.
    """
    if not (0 < x0 <= BOX_HI and 0 < y0 <= BOX_HI):
        raise ValueError(f"start must lie in (0, {BOX_HI}]^2")
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")

    rng = np.random.default_rng(obj.disorder.master_seed if obj.disorder else 0)
    starts = [np.array([x0, y0])]
    for _ in range(restarts):
        starts.append(np.array([
            _fold_into_box(x0 + rng.uniform(-0.15, 0.15)),
            _fold_into_box(y0 + rng.uniform(-0.15, 0.15)),
        ]))
    traces: list[list[tuple[float, float, float]]] = [[] for _ in starts]

    def score(asked):  # the searches minimize, so each is sent its point's negated value
        xs, ys = [float(p[0]) for _, p in asked], [float(p[1]) for _, p in asked]
        values = _evaluate_points(obj, xs, ys).tolist()
        for (i, _), x, y, value in zip(asked, xs, ys, values):
            traces[i].append((_fold_into_box(x), _fold_into_box(y), value))
        return [-value for value in values]

    searches = [_nelder_mead(start, max_iter) for start in starts]
    # the first best on a tie; fun is the value the search was sent for best_x
    best_x, fun = min(_lockstep(searches, score), key=lambda result: result[1])
    trace = [entry for start_trace in traces for entry in start_trace]
    x_best = _fold_into_box(float(best_x[0]))
    y_best = _fold_into_box(float(best_x[1]))
    hit_boundary = (x_best <= BOX_LO + SIMPLEX_TOL or x_best >= BOX_HI - SIMPLEX_TOL
                    or y_best <= BOX_LO + SIMPLEX_TOL or y_best >= BOX_HI - SIMPLEX_TOL)
    return OptimizationResult(x=x_best, y=y_best, objective_value=-float(fun),
                              evaluations=len(trace), trace=trace, hit_boundary=hit_boundary)


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
