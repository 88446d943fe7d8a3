"""Chain-parameter optimization and perturbation response.

Two tools live here.  optimize_apollaro tunes the (x, y) end-coupling
parameters against a configurable objective: deterministic best-encoding
fidelity, or an upper-quantile fidelity under disorder.  Disordered
objectives reuse one fixed set of disorder draws for every candidate (common
random numbers), which makes the objective deterministic and lets a simplex
search make progress despite the sampling.  evaluate_objective is the one-point
case of _evaluate_points, which objective_landscape calls once per x value:
one stacked spectrum solve, then one stacked score or one _score_cells ensemble.
optimize_apollaro runs up to W starts' Nelder-Mead searches in lockstep
(_lockstep) and scores each round of their points with one _evaluate_points
call, in the caller's thread; each search's path, and so the result, is the
one it takes alone.

first_order_response gives dF/d(eps) of the end-to-end transfer
probability F = |<N|U(t0)|1>|^2 under a chain perturbation, exactly, from
one eigendecomposition (the Daleckii-Krein derivative of the propagator).
Perfect-transfer chains sit at stationary points of F, so their response is
zero to first order; imperfect chains generically are not.
"""

from __future__ import annotations

import threading
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
# How many optimizer starts search at once, in lockstep: one on the caller's thread, the
# rest on worker threads.
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


class _Cancelled(Exception):
    """Ends a search whose result no longer counts: a lower start failed, or the caller left."""


def _lockstep(count: int, search, score) -> list:
    """Run search(i, ask) for i in range(count), at most W at a time; return the results in order.

    ask(point) blocks until every search in flight has asked.  The caller's thread then calls
    score(asked) on the round's (start, point) pairs, in start order, for a value per point.
    If that raises, each pair is scored alone, so each ask returns its own value or raises
    its own exception.  The caller's thread runs one search itself and worker threads run
    the others, so a lone search starts no thread, and a later search begins when an
    earlier one ends.  A failed search ends every search above it, and none begins after
    it; its exception is raised once every search below it has ended, unless one of those
    failed too, when the lowest one's is.  If the caller's thread is interrupted, every
    worker is released and joined.
    """
    import queue  # deferred: only a search uses it

    results, failed = [None] * count, {}
    asks = queue.SimpleQueue()  # (i, "ask", point) and (i, "end", outcome) from the workers
    replies, workers = {}, {}  # worker i's queue of answers, and its thread
    begun = 0

    def work(i, reply):
        def ask(point):
            asks.put((i, "ask", point))
            value = reply.get()
            if isinstance(value, BaseException):
                raise value
            return value
        try:
            outcome = search(i, ask)
        except BaseException as exc:  # raised by the caller if start i is the lowest failed
            outcome = exc
        asks.put((i, "end", outcome))

    def settle(i, outcome):
        if not isinstance(outcome, BaseException):
            results[i] = outcome
        elif not isinstance(outcome, _Cancelled):
            failed[i] = outcome

    def begin_workers(in_caller):
        nonlocal begun
        while not failed and begun < count and len(workers) + in_caller < W:
            replies[begun] = queue.SimpleQueue()
            workers[begun] = threading.Thread(target=work, args=(begun, replies[begun]),
                                              daemon=True, name=f"apollaro-start-{begun}")
            workers[begun].start()
            begun += 1

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

    def serve(own=None, point=None):
        """Gather one ask from every worker in flight, add the caller's own search `own` and its
        point, score the round, answer the workers and return the answer to `own`."""
        asked = []  # (start, point)
        while len(asked) < len(workers):
            i, kind, payload = asks.get()
            if kind == "end":
                workers.pop(i).join()
                del replies[i]
                settle(i, payload)
                begin_workers(own is not None)
            elif failed and i > min(failed):
                replies[i].put(_Cancelled())
            else:
                asked.append((i, payload))
        if own is not None:
            asked.append((own, point))
        asked.sort()  # by start: no two asks share one
        values = score_round(asked) if asked else []
        mine = None
        for (i, _), value in zip(asked, values):
            if i == own:
                mine = value
            else:
                replies[i].put(value)
        return mine

    try:
        while begun < count and not failed:
            own, begun = begun, begun + 1
            begin_workers(True)

            def ask(point, own=own):
                value = serve(own, point)
                if isinstance(value, BaseException):
                    raise value
                if failed and own > min(failed):
                    raise _Cancelled()
                return value

            try:
                outcome = search(own, ask)
            except Exception as exc:
                outcome = exc
            settle(own, outcome)
        while workers:
            serve()
    finally:  # normally no worker is left; if the caller was interrupted, release each one
        for i in workers:
            replies[i].put(_Cancelled())
        for thread in workers.values():
            thread.join()
    if failed:
        raise failed[min(failed)]
    return results


def optimize_apollaro(obj: Objective, x0: float, y0: float,
                      restarts: int = 3, max_iter: int = 400) -> OptimizationResult:
    """Nelder-Mead maximization of the objective inside the box (0, 1.2]^2.

    Candidates outside the box are reflected back in.  On top of the run from
    (x0, y0), `restarts` perturbed starting simplices are tried and the best
    result is kept (the first in start order on a tie).  With a fixed master
    seed the whole search is deterministic, so objective_value always equals a
    re-evaluation at the returned point.

    Up to W starts search in lockstep (_lockstep): each runs scipy's own
    Nelder-Mead, and once every search in flight has asked for a point, the
    caller's thread scores the round with one _evaluate_points call.  A point's
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
    from scipy.optimize import minimize  # deferred: the only caller, ~0.2 s to import

    rng = np.random.default_rng(obj.disorder.master_seed if obj.disorder else 0)
    starts = [np.array([x0, y0])]
    for _ in range(restarts):
        starts.append(np.array([
            _fold_into_box(x0 + rng.uniform(-0.15, 0.15)),
            _fold_into_box(y0 + rng.uniform(-0.15, 0.15)),
        ]))
    traces: list[list[tuple[float, float, float]]] = [[] for _ in starts]

    def search(i, ask):
        return minimize(lambda p: -ask(p.tolist()), starts[i], method="Nelder-Mead",
                        options={"xatol": SIMPLEX_TOL, "fatol": 1e-12,
                                 "maxiter": max_iter, "maxfev": 4 * max_iter})

    def score(asked):
        xs, ys = [p[0] for _, p in asked], [p[1] for _, p in asked]
        values = _evaluate_points(obj, xs, ys).tolist()
        for (i, _), x, y, value in zip(asked, xs, ys, values):
            traces[i].append((_fold_into_box(x), _fold_into_box(y), value))
        return values

    best = None
    for res in _lockstep(len(starts), search, score):
        if best is None or res.fun < best.fun:
            best = res
    trace = [entry for start_trace in traces for entry in start_trace]
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
