import dataclasses
import inspect
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from spintransfer import (Chain, Objective, eigendecompose, evaluate_objective,
                          first_order_response, first_peak_time, objective_landscape,
                          optimize_apollaro, propagator_amplitude, pst_chain,
                          pst_transfer_time, uniform_chain, uniform_disorder)
import spintransfer.optimize as optimize
from spintransfer.optimize import BOX_HI, BOX_LO, SIMPLEX_TOL, _evaluate_points, _fold_into_box


def exact_probability_derivative(chain, t0, dj, db):
    """Independent oracle: first-order Dyson integral in the eigenbasis."""
    scale = max(np.max(np.abs(dj)), np.max(np.abs(db)))
    dj = np.asarray(dj) / scale
    db = np.asarray(db) / scale
    eig = eigendecompose(chain)
    w, v = eig.eigenvalues, eig.eigenvectors
    n = chain.n
    dh = np.diag(db).astype(float)
    idx = np.arange(n - 1)
    dh[idx, idx + 1] += dj
    dh[idx + 1, idx] += dj
    m = v.T @ dh @ v
    lk = w[:, None]
    ll = w[None, :]
    diff = lk - ll
    with np.errstate(invalid="ignore", divide="ignore"):
        integral = np.where(np.abs(diff) > 1e-12,
                            (np.exp(-1j * ll * t0) - np.exp(-1j * lk * t0)) / (1j * diff),
                            t0 * np.exp(-1j * lk * t0))
    f1 = -1j * np.sum(v[-1, :][:, None] * m * v[0, :][None, :] * integral)
    f0 = np.sum(v[-1, :] * v[0, :] * np.exp(-1j * w * t0))
    return float(2.0 * np.real(np.conj(f0) * f1))


# ---------------------------------------------------------------------------
# objective plumbing
# ---------------------------------------------------------------------------

def test_objective_reduces_to_uniform_at_unit_parameters():
    obj = Objective(n=31, window=1)
    _, f_uniform = first_peak_time(uniform_chain(31))
    assert evaluate_objective(obj, 1.0, 1.0) == pytest.approx(f_uniform, abs=1e-10)


def test_objective_validation():
    with pytest.raises(ValueError):
        Objective(metric="quantile")  # needs a disorder spec
    with pytest.raises(ValueError):
        Objective(metric="median")
    # window and n are checked before any candidate: one with no arrival peak floors at
    # 0.5 without scoring the window, so a window beyond the chain gave [[0.5]]
    spec = uniform_disorder(0.1, 0.0, seed=3)
    for bad in ({"samples": 0}, {"quantile": 1.0}, {"quantile": 0.0}, {"window": 0},
                {"window": 12}, {"window": 20, "metric": "quantile", "disorder": spec},
                {"n": 4, "window": 1}):
        with pytest.raises(ValueError):
            Objective(**{"n": 11, **bad})
    assert Objective(n=11, window=11).window == 11


def test_objective_is_frozen():
    # an assigned field would skip __post_init__'s checks (a window of 0 floors at 0.5)
    obj = Objective(n=11)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.window = 0
    with pytest.raises(ValueError, match="window must be in 1..11, got 0"):
        dataclasses.replace(obj, window=0)


def test_fold_into_box():
    assert _fold_into_box(0.5) == pytest.approx(0.5)
    assert _fold_into_box(1.3) == pytest.approx(1.1, abs=1e-9)
    assert _fold_into_box(-0.2) == pytest.approx(0.2, abs=1e-5)
    for v in (-3.7, 0.001, 2.9, 14.2):
        assert 0 < _fold_into_box(v) <= 1.2


@settings(max_examples=2000, derandomize=True, database=None)
@given(st.one_of(st.floats(-3.0, 4.0), st.floats(allow_nan=False, allow_infinity=False)))
def test_fold_into_box_is_idempotent(v):
    # the optimum's value is the one scored at the raw point, and it is reported at the
    # folded point: folding that again must land on the same point
    folded = _fold_into_box(v)
    assert BOX_LO <= folded <= BOX_HI
    assert _fold_into_box(folded) == folded


@pytest.mark.parametrize("coordinate", ["x", "y"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_objective_point_is_refused_before_any_solve(coordinate, value,
                                                                monkeypatch):
    # the fold turns +-inf into NaN, and no finite value leaves the box
    def no_solve(*args, **kwargs):
        raise AssertionError("chain solved for a non-finite point")

    monkeypatch.setattr(optimize, "_end_weights", no_solve)
    point = {"x": 0.5, "y": 0.5, coordinate: value}
    with pytest.raises(ValueError, match=f"objective point {coordinate} must be finite, "
                                         f"got {value!r}"):
        evaluate_objective(Objective(n=21), point["x"], point["y"])


def test_landscape_single_cell_matches_objective():
    obj = Objective(n=21, window=1)
    grid = objective_landscape(obj, [0.5], [0.8])
    assert grid.shape == (1, 1)
    assert grid.tobytes() == np.array([[evaluate_objective(obj, 0.5, 0.8)]]).tobytes()
    # a small grid, bit for bit, with floor points (no arrival peak) in the rows of peaks
    xs, ys = [1e-6, 0.5], [1e-6, 0.4, 0.8]
    spec = uniform_disorder(0.1, 0.05, seed=3)
    for obj in (obj, Objective(n=21, window=3),
                Objective(n=21, window=3, metric="quantile", samples=40, disorder=spec)):
        grid = objective_landscape(obj, xs, ys)
        want = np.array([[evaluate_objective(obj, x, y) for y in ys] for x in xs])
        assert grid.tobytes() == want.tobytes()
        assert (grid == 0.5).tolist() == [[True, True, True], [True, False, False]]


@pytest.mark.parametrize("xs, ys", [([1.5], [0.8]), ([0.5], [0.0]), ([-0.1, 0.5], [0.8]),
                                    ([0.5], [0.8, np.nan])])
def test_landscape_rejects_points_outside_the_box(xs, ys, monkeypatch):
    import spintransfer.optimize as optimize

    def no_evaluation(*args, **kwargs):
        raise AssertionError("chain solved for a point outside the box")

    monkeypatch.setattr(optimize, "_end_weights", no_evaluation)
    with pytest.raises(ValueError, match=r"must lie in \(0, 1\.2\]"):
        objective_landscape(Objective(n=11), xs, ys)


def test_quantile_objective_uses_common_random_numbers():
    disorder = uniform_disorder(0.1, 0.0, seed=42)
    obj = Objective(n=21, window=1, disorder=disorder, metric="quantile", samples=30)
    a = evaluate_objective(obj, 0.5, 0.8)
    b = evaluate_objective(obj, 0.5, 0.8)
    assert a == b


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_optimizer_never_degrades_start():
    obj = Objective(n=21, window=1)
    start = evaluate_objective(obj, 0.6, 0.9)
    result = optimize_apollaro(obj, 0.6, 0.9, restarts=1, max_iter=120)
    assert result.objective_value >= start - 1e-12
    assert result.evaluations == len(result.trace)
    assert result.objective_value == evaluate_objective(obj, result.x, result.y)


def test_quantile_optimum_keeps_the_value_its_search_scored(monkeypatch):
    # no point is scored twice: the optimum's value is the one its search was sent, and it
    # equals a re-evaluation at the returned point bit for bit
    obj = Objective(n=15, window=3, disorder=uniform_disorder(0.1, 0.05, seed=7),
                    metric="quantile", samples=16)
    scored, real = [], optimize._evaluate_points

    def counting(obj, xs, ys):
        scored.append(len(xs))
        return real(obj, xs, ys)

    monkeypatch.setattr(optimize, "_evaluate_points", counting)
    result = optimize_apollaro(obj, 0.5, 0.8, restarts=2, max_iter=20)
    assert sum(scored) == result.evaluations == len(result.trace)
    monkeypatch.undo()
    assert result.objective_value == evaluate_objective(obj, result.x, result.y)
    assert (result.x, result.y, result.objective_value) in result.trace


def test_optimizer_is_deterministic():
    disorder = uniform_disorder(0.08, 0.0, seed=11)
    obj = Objective(n=15, window=1, disorder=disorder, metric="quantile", samples=20)
    r1 = optimize_apollaro(obj, 0.5, 0.8, restarts=1, max_iter=60)
    r2 = optimize_apollaro(obj, 0.5, 0.8, restarts=1, max_iter=60)
    assert r1.x == r2.x and r1.y == r2.y
    assert r1.trace == r2.trace


def test_optimizer_finds_small_chain_optimum():
    # cross-check against a brute-force grid on a cheap instance
    obj = Objective(n=15, window=1)
    xs = np.linspace(0.3, 1.0, 15)
    ys = np.linspace(0.5, 1.1, 13)
    grid = objective_landscape(obj, xs, ys)
    i, j = np.unravel_index(np.argmax(grid), grid.shape)
    result = optimize_apollaro(obj, 0.6, 0.9, restarts=2, max_iter=200)
    assert result.objective_value >= grid[i, j] - 1e-6


def test_optimizer_rejects_bad_start():
    with pytest.raises(ValueError):
        optimize_apollaro(Objective(n=15), -0.1, 0.5)


def test_optimizer_rejects_max_iter_below_one(monkeypatch):
    # max_iter=0 used to skip the search and return the start as the optimum
    def no_evaluation(*args, **kwargs):
        raise AssertionError("a point was scored before the argument checks")

    monkeypatch.setattr(optimize, "_evaluate_points", no_evaluation)
    for bad in (0, -5):
        with pytest.raises(ValueError, match=f"max_iter must be >= 1, got {bad}"):
            optimize_apollaro(Objective(n=15), 0.5, 0.8, max_iter=bad)


# ---------------------------------------------------------------------------
# lockstep search against the sequential loop
# ---------------------------------------------------------------------------

def sequential_starts(obj, x0, y0, restarts, max_iter, asked=None):
    """The sequential oracle's loop: each start through scipy's Nelder-Mead in turn, every
    point through evaluate_objective.  Returns each start's (scipy result, trace); `asked`,
    if given, collects each start's raw points."""
    rng = np.random.default_rng(obj.disorder.master_seed if obj.disorder else 0)
    starts = [np.array([x0, y0])]
    for _ in range(restarts):
        starts.append(np.array([_fold_into_box(x0 + rng.uniform(-0.15, 0.15)),
                                _fold_into_box(y0 + rng.uniform(-0.15, 0.15))]))
    runs = []
    for start in starts:
        points, trace = [], []
        if asked is not None:
            asked.append(points)

        def negated(p):
            points.append((p[0], p[1]))
            value = evaluate_objective(obj, p[0], p[1])
            trace.append((_fold_into_box(float(p[0])), _fold_into_box(float(p[1])), value))
            return -value

        res = minimize(negated, start, method="Nelder-Mead",
                       options={"xatol": SIMPLEX_TOL, "fatol": 1e-12,
                                "maxiter": max_iter, "maxfev": 4 * max_iter})
        runs.append((res, trace))
    return runs


def sequential_outcome(obj, runs):
    """What the sequential loop returns after `runs`: the first best start, re-evaluated."""
    best = None
    for res, _ in runs:
        if best is None or res.fun < best.fun:
            best = res
    trace = [entry for _, start_trace in runs for entry in start_trace]
    x, y = _fold_into_box(float(best.x[0])), _fold_into_box(float(best.x[1]))
    hit = (x <= BOX_LO + SIMPLEX_TOL or x >= BOX_HI - SIMPLEX_TOL
           or y <= BOX_LO + SIMPLEX_TOL or y >= BOX_HI - SIMPLEX_TOL)
    return x, y, evaluate_objective(obj, x, y), len(trace), hit, trace


def sequential_optimize(obj, x0, y0, restarts, max_iter, asked=None):
    return sequential_outcome(obj, sequential_starts(obj, x0, y0, restarts, max_iter, asked))


def outcome(result):
    return (result.x, result.y, result.objective_value, result.evaluations,
            result.hit_boundary, result.trace)


QUANTILE_SPEC = uniform_disorder(0.1, 0.05, seed=5)
LOCKSTEP_CASES = {
    "deterministic-w1": (Objective(n=15), 0.5, 0.8, 400),
    "deterministic-w3": (Objective(n=15, window=3), 0.5, 0.8, 400),
    "quantile-w1": (Objective(n=11, metric="quantile", samples=12, disorder=QUANTILE_SPEC),
                    0.5, 0.8, 15),
    "quantile-w3": (Objective(n=11, window=3, metric="quantile", samples=12,
                              disorder=QUANTILE_SPEC), 0.5, 0.8, 15),
    # starts that end after 35, 35, 31, 223, 127 and 35 evaluations
    "uneven": (Objective(n=11), 0.3, 0.2, 400),
}


@pytest.mark.parametrize("case", LOCKSTEP_CASES)
def test_lockstep_search_equals_the_sequential_loop(case):
    # the starts of fewer restarts are the first of five restarts' starts
    obj, x0, y0, max_iter = LOCKSTEP_CASES[case]
    runs = sequential_starts(obj, x0, y0, 5, max_iter)
    if case == "uneven":
        assert [res.nfev for res, _ in runs] == [35, 35, 31, 223, 127, 35]
    for restarts in range(6):
        got = outcome(optimize_apollaro(obj, x0, y0, restarts=restarts, max_iter=max_iter))
        assert got == sequential_outcome(obj, runs[:restarts + 1]), restarts


def worker_threads(before):
    return [t for t in threading.enumerate() if t not in before]


def record_thread_starts(monkeypatch, before) -> list:
    """The number of worker threads alive just after each thread start."""
    started, real_start = [], threading.Thread.start

    def start(thread):
        real_start(thread)
        started.append(len(worker_threads(before)))

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def test_lockstep_workers_are_bounded_and_joined(monkeypatch):
    # at most W searches in flight, all run in the caller's thread
    before = set(threading.enumerate())
    started, widths = record_thread_starts(monkeypatch, before), []
    real_evaluate = optimize._evaluate_points

    def evaluate(obj, xs, ys):
        widths.append(len(xs))
        return real_evaluate(obj, xs, ys)

    monkeypatch.setattr(optimize, "_evaluate_points", evaluate)
    obj, x0, y0, max_iter = LOCKSTEP_CASES["uneven"]
    optimize_apollaro(obj, x0, y0, restarts=0, max_iter=max_iter)
    assert set(widths) == {1}

    monkeypatch.setattr(optimize, "W", 2)
    widths.clear()
    result = optimize_apollaro(obj, x0, y0, restarts=4, max_iter=max_iter)
    assert outcome(result) == sequential_optimize(obj, x0, y0, 4, max_iter)
    assert max(widths) == 2
    assert started == [] and worker_threads(before) == []


@pytest.mark.parametrize("w, failures, begun, cancelled", [
    (4, {0: 5}, 4, {1, 2, 3}),
    (4, {3: 40}, 4, set()),
    (4, {1: 30, 3: 2}, 4, {2}),
    (4, {2: 85, 4: 1}, 5, set()),
    (2, {2: 20}, 4, {3}),
])
def test_lockstep_raises_the_sequential_loops_exception(w, failures, begun, cancelled,
                                                         monkeypatch):
    # `failures` maps a start to the index of its point that fails.  The five starts end
    # after 88, 81, 90, 79 and 76 points.  With W = 4, starts 0-3 begin together and start
    # 4 when start 3 ends.  With W = 2, starts 0 and 1 begin together, start 2 when start
    # 1 ends, and start 3 when start 0 ends.  The lowest failed start's exception wins,
    # also where a higher start fails first in time; no start begins after a failure, and
    # each start above the failed one that had not ended is stopped (`cancelled`).  No
    # thread starts.
    monkeypatch.setattr(optimize, "W", w)
    obj, x0, y0, max_iter = LOCKSTEP_CASES["deterministic-w1"]
    asked = []
    sequential_optimize(obj, x0, y0, 4, max_iter, asked)
    assert [len(points) for points in asked] == [88, 81, 90, 79, 76]
    bad = {asked[s][k]: (s, k) for s, k in failures.items()}
    scored, widths, real = set(), [], optimize._evaluate_points

    def evaluate(obj, xs, ys):  # raises on a round holding a bad point, naming the point
        for x, y in zip(xs, ys):
            if (x, y) in bad:
                widths.append(len(xs))
                raise ValueError(f"no score at {bad[(x, y)]}")
        scored.update(zip(xs, ys))
        return real(obj, xs, ys)

    monkeypatch.setattr(optimize, "_evaluate_points", evaluate)
    with pytest.raises(ValueError) as want:
        sequential_optimize(obj, x0, y0, 4, max_iter)
    scored.clear()
    widths.clear()
    started = record_thread_starts(monkeypatch, set(threading.enumerate()))
    with pytest.raises(ValueError) as got:
        optimize_apollaro(obj, x0, y0, restarts=4, max_iter=max_iter)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
    lowest = min(failures)
    assert str(got.value) == f"no score at {(lowest, failures[lowest])}"
    # the stacked rounds that raised held other starts' points too, and every start below
    # the failed one still got each of its values and ran to its end
    assert max(widths) > 1
    assert all(point in scored for points in asked[:lowest] for point in points)
    assert all(point in scored for point in asked[lowest][:failures[lowest]])
    assert [points[0] in scored for points in asked] == [s < begun for s in range(5)]
    assert started == []
    for s in cancelled:
        assert 0 < sum(point in scored for point in asked[s]) < len(asked[s])


def test_lockstep_under_frequent_thread_switches(monkeypatch):
    # more searches in flight than the default W: every round is scored in start order
    before = set(threading.enumerate())
    obj, x0, y0, max_iter = LOCKSTEP_CASES["uneven"]
    asked = []
    want = sequential_optimize(obj, x0, y0, 7, max_iter, asked)
    start_of = {point: s for s, points in enumerate(asked) for point in points}
    rounds, real = [], optimize._evaluate_points

    def evaluate(obj, xs, ys):
        rounds.append([start_of.get(point) for point in zip(xs, ys)])
        return real(obj, xs, ys)

    monkeypatch.setattr(optimize, "_evaluate_points", evaluate)
    monkeypatch.setattr(optimize, "W", 6)
    got = outcome(optimize_apollaro(obj, x0, y0, restarts=7, max_iter=max_iter))
    assert got == want
    assert worker_threads(before) == []
    assert max(map(len, rounds)) == 6
    assert all(starts == sorted(starts) for starts in rounds[:-1])  # the last: the re-evaluation


def test_interrupted_lockstep_joins_its_workers(monkeypatch):
    before = set(threading.enumerate())
    real, calls = optimize._evaluate_points, []

    def evaluate(obj, xs, ys):
        calls.append(len(xs))
        if len(calls) == 5:
            raise KeyboardInterrupt
        return real(obj, xs, ys)

    monkeypatch.setattr(optimize, "_evaluate_points", evaluate)
    with pytest.raises(KeyboardInterrupt):
        optimize_apollaro(Objective(n=15), 0.5, 0.8, restarts=3)
    assert calls[-1] == 4
    assert worker_threads(before) == []


SYNTHETIC = {
    "bowl": lambda p: float(np.sum(p ** 2)),
    "valley": lambda p: abs(p[0]) + 1e3 * abs(p[1] - 1),
    "ripple": lambda p: float(np.sin(7 * p[0]) * np.cos(5 * p[1])),
    "flat": lambda p: 0.0,
    "steps": lambda p: -float(np.floor(10 * p[0])),
}
# a statement of each of _nelder_mead's optional steps
BRANCHES = {"expansion": "xe = 3 * xbar", "outside contraction": "xc = 1.5 * xbar",
            "inside contraction": "xc = 0.5 * xbar", "shrink": "sim[j] = sim[0]"}


def test_nelder_mead_generator_takes_scipys_path():
    # scipy is the oracle: the same points, x, fun and number of points, on functions that
    # between them take every branch; scipy never stops on maxfev, which the generator omits
    source, first = inspect.getsourcelines(optimize._nelder_mead)
    branch_line = {name: first + next(k for k, line in enumerate(source) if text in line)
                   for name, text in BRANCHES.items()}
    ran = set()

    def trace(frame, event, arg):  # records the lines the generator runs
        if frame.f_code is optimize._nelder_mead.__code__:
            ran.add(frame.f_lineno)
            return trace
        return None

    for f in SYNTHETIC.values():
        # on "steps", the last start's search meets an expansion that ties its reflection
        for start in [(0.5, 0.8), (-0.7, 0.3), (1e-6, 1.2), (-1.78, -1.43)]:
            for max_iter in (1, 2, 3, 4, 7, 50, 400):
                asked = []
                res = minimize(lambda p: (asked.append(p.tobytes()), f(p))[1], start,
                               method="Nelder-Mead",
                               options={"xatol": SIMPLEX_TOL, "fatol": 1e-12,
                                        "maxiter": max_iter, "maxfev": 4 * max_iter})
                search, points = optimize._nelder_mead(np.array(start), max_iter), []
                previous = sys.gettrace()
                sys.settrace(trace)
                try:
                    point = next(search)
                    while True:
                        points.append(point.tobytes())
                        point = search.send(f(point))
                except StopIteration as end:
                    x, fun = end.value
                finally:
                    sys.settrace(previous)
                assert res.status != 1
                assert points == asked and len(points) == res.nfev
                assert x.tobytes() == res.x.tobytes()
                assert np.array(fun).tobytes() == np.array(res.fun).tobytes()
    assert {name for name, line in branch_line.items() if line in ran} == set(BRANCHES)


@pytest.mark.parametrize("obj", [Objective(n=21), Objective(n=21, window=3),
                                 Objective(n=21, window=3, metric="quantile", samples=40,
                                           disorder=uniform_disorder(0.1, 0.05, seed=3))],
                         ids=["deterministic-w1", "deterministic-w3", "quantile-w3"])
def test_stacked_points_are_each_scored_exactly(obj):
    # every round width up to W, with floor points (no arrival peak) among peaked ones
    points = [(0.5, 0.8), (1e-6, 0.4), (0.43, 0.73), (0.6, 1e-6), (1.1, 0.9)]
    alone = [np.array([evaluate_objective(obj, x, y)]) for x, y in points]
    assert [a[0] == 0.5 for a in alone] == [False, True, False, True, False]
    for width in range(1, optimize.W + 1):
        for first in range(len(points) - width + 1):
            xs, ys = zip(*points[first:first + width])
            stacked = _evaluate_points(obj, xs, ys)
            for value, want in zip(stacked, alone[first:first + width]):
                assert np.array([value]).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# first-order response
# ---------------------------------------------------------------------------

def test_response_zero_direction():
    chain = uniform_chain(21)
    assert first_order_response(chain, 5.0, np.zeros(20), np.zeros(21)) == 0.0


def test_response_matches_exact_dyson_integral():
    chain = uniform_chain(31)
    t0, _ = first_peak_time(chain)
    rng = np.random.default_rng(83)
    for _ in range(4):
        dj = rng.uniform(-1, 1, 30)
        db = rng.uniform(-1, 1, 31)
        fd = first_order_response(chain, t0, dj, db)
        exact = exact_probability_derivative(chain, t0, dj, db)
        assert fd == pytest.approx(exact, rel=1e-5, abs=1e-9)


def test_response_uniform51_end_bond_frozen():
    # the end bond is strongly coupled to the arrival amplitude
    chain = uniform_chain(51)
    t0, _ = first_peak_time(chain)
    dj = np.zeros(50)
    dj[0] = 1.0
    fd = first_order_response(chain, t0, dj, np.zeros(51))
    exact = exact_probability_derivative(chain, t0, dj, np.zeros(51))
    assert fd == pytest.approx(exact, rel=1e-6)
    assert fd == pytest.approx(-0.549648, abs=1e-4)


def test_response_uniform51_interior_bond_frozen():
    # interior bonds share one small plateau value, about +0.01415
    chain = uniform_chain(51)
    t0, _ = first_peak_time(chain)
    dj = np.zeros(50)
    dj[24] = 1.0
    fd = first_order_response(chain, t0, dj, np.zeros(51))
    exact = exact_probability_derivative(chain, t0, dj, np.zeros(51))
    assert fd == pytest.approx(exact, rel=1e-4)
    assert fd == pytest.approx(0.0141462, abs=1e-5)


def test_response_scale_invariance():
    # the direction is normalized to unit max entry before differencing
    chain = uniform_chain(21)
    t0, _ = first_peak_time(chain)
    dj = np.zeros(20)
    dj[3] = 0.25
    a = first_order_response(chain, t0, dj, np.zeros(21))
    b = first_order_response(chain, t0, 4 * dj, np.zeros(21))
    assert a == pytest.approx(b, rel=1e-12)


def test_pst_response_is_flat():
    rng = np.random.default_rng(97)
    for n in (11, 25):
        chain = pst_chain(n)
        t0 = pst_transfer_time(chain)
        for _ in range(10):
            dj = rng.uniform(-1, 1, n - 1)
            db = rng.uniform(-1, 1, n)
            assert abs(first_order_response(chain, t0, dj, db)) <= 1e-4


def test_zero_disorder_optimum_is_a_local_maximum():
    # level sets near the optimum close around it: every point on a small
    # ring scores below the centre
    obj = Objective(n=51, window=1)
    x0, y0 = 0.43214, 0.73372
    centre = evaluate_objective(obj, x0, y0)
    for angle in np.linspace(0, 2 * np.pi, 12, endpoint=False):
        ring = evaluate_objective(obj, x0 + 0.02 * np.cos(angle),
                                  y0 + 0.02 * np.sin(angle))
        assert ring < centre


def test_pst_second_order_decay():
    # F(eps) = 1 - c eps^2 + higher order: fit the quadratic and check residuals
    chain = pst_chain(11)
    t0 = pst_transfer_time(chain)
    rng = np.random.default_rng(101)
    dj = rng.uniform(-1, 1, 10)
    db = rng.uniform(-1, 1, 11)
    scale = max(np.max(np.abs(dj)), np.max(np.abs(db)))
    dj, db = dj / scale, db / scale

    def prob(eps):
        perturbed = Chain(n=11, couplings=chain.couplings + eps * dj,
                          fields=chain.fields + eps * db)
        return abs(propagator_amplitude(eigendecompose(perturbed), 1, 11, t0)) ** 2

    eps = np.linspace(0.0, 0.05, 11)
    drop = 1.0 - np.array([prob(e) for e in eps])
    c2 = drop[-1] / eps[-1] ** 2
    residual = drop - c2 * eps ** 2
    assert np.max(np.abs(residual)) <= 0.1 * max(drop[-1], 1e-12)
