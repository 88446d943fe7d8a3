import dataclasses

import numpy as np
import pytest

from spintransfer import (Chain, Objective, eigendecompose, evaluate_objective,
                          first_order_response, first_peak_time, objective_landscape,
                          optimize_apollaro, propagator_amplitude, pst_chain,
                          pst_transfer_time, uniform_chain, uniform_disorder)
from spintransfer.optimize import _fold_into_box


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
    assert result.objective_value == pytest.approx(
        evaluate_objective(obj, result.x, result.y), abs=1e-14)


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
