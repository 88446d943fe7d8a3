"""The chunked, offset-table first-peak scan against the whole-grid scan it replaced,
and its Newton refinement against an independent root of g' = d|f|^2/dt."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from spintransfer import (NumericalFailure, Objective, apollaro_chain, eigendecompose,
                          fidelity_single, first_peak_time, normal_disorder,
                          optimize_apollaro, sample_disordered_chain, uniform_chain)
from spintransfer import models, optimize, spectral
from spintransfer.models import _golden_section_max, _refine_peak, default_peak_hint
from spintransfer.optimize import BOX_HI, BOX_LO


def dense_first_peak(lam, w, search_hint, step=0.05, amp_threshold=0.01, time_tol=1e-8):
    """The whole-grid scan: every grid point's amplitude at once, then a loop.

    It takes the same spectrum (lam, w) and the same refinement as the
    chunked scan, so the two agree exactly when they pick the same grid point.
    Returns the refined time, as models._first_peak does.
    """
    ts = np.arange(0.0, 2.0 * search_hint + step, step)
    mags = np.abs(np.exp(-1j * np.outer(ts, lam)) @ w)
    for i in range(1, ts.size - 1):
        if mags[i] >= mags[i - 1] and mags[i] >= mags[i + 1] and mags[i] > amp_threshold:
            return _refine_peak(lam, w, ts[i - 1], ts[i], ts[i + 1], time_tol)
    raise NumericalFailure("no transfer peak found in the search window")


def dense_first_peak_time(chain, search_hint=None, **kwargs):
    if search_hint is None:
        search_hint = default_peak_hint(chain.n)
    lam, w, _ = spectral._end_weights(chain.fields, chain.couplings)
    t = dense_first_peak(lam, w, search_hint, **kwargs)
    return t, fidelity_single(min(abs(w @ np.exp(-1j * lam * t)), 1.0))


def outcome(scan, chain, **kwargs):
    try:
        return scan(chain, **kwargs)
    except NumericalFailure:
        return "no peak"


def chains(n):
    yield uniform_chain(n)
    yield apollaro_chain(n, 0.4322, 0.7338)  # criterion 4a optimum
    for x in (BOX_LO, BOX_HI):
        for y in (BOX_LO, BOX_HI):
            yield apollaro_chain(n, x, y)
    spec = normal_disorder(0.1, 0.1, seed=31)
    for i in range(2):
        yield sample_disordered_chain(uniform_chain(n), spec, i)


@pytest.mark.parametrize("n", [51, 201, 401])
def test_chunked_scan_returns_the_dense_scan_times(n):
    found = 0
    for chain in chains(n):
        want = outcome(dense_first_peak_time, chain)
        assert outcome(first_peak_time, chain) == want, chain.label
        found += want != "no peak"
    assert found >= 4


@pytest.mark.parametrize("rows", [1, 2, 7, 64])
def test_chunk_boundaries_do_not_move_the_peak(rows, monkeypatch):
    chain = apollaro_chain(51, 0.4322, 0.7338)
    want = dense_first_peak_time(chain)
    monkeypatch.setattr(models, "_SCAN_ROWS", rows)
    phase_offsets = models._phase_offsets
    table_rows = []

    def recording_offsets(lam, step, count):
        table_rows.append(count)
        return phase_offsets(lam, step, count)

    monkeypatch.setattr(models, "_phase_offsets", recording_offsets)
    assert first_peak_time(chain) == want
    assert table_rows == [rows + 2]


def test_chain_without_peak_still_raises():
    chain = uniform_chain(41)
    with pytest.raises(NumericalFailure):
        dense_first_peak_time(chain, search_hint=2.0)
    with pytest.raises(NumericalFailure):
        first_peak_time(chain, search_hint=2.0)
    # a grid too short to hold a local maximum
    with pytest.raises(NumericalFailure):
        first_peak_time(chain, search_hint=0.01)


def box_grid(n, points):
    for x in np.linspace(BOX_LO, BOX_HI, points):
        for y in np.linspace(BOX_LO, BOX_HI, points):
            yield apollaro_chain(n, x, y)


@pytest.mark.parametrize("n", [51, 201])
def test_offset_table_scan_on_the_apollaro_box_grid(n):
    found = 0
    for chain in box_grid(n, 9):
        want = outcome(dense_first_peak_time, chain)
        assert outcome(first_peak_time, chain) == want, chain.label
        found += want != "no peak"
    assert found >= 60


@pytest.mark.parametrize("sigma", [0.05, 0.1, 0.3, 1.0])
@pytest.mark.parametrize("n", [51, 201])
def test_offset_table_scan_on_disordered_chains(n, sigma):
    spec = normal_disorder(sigma, sigma, seed=47)
    for i in range(6):
        chain = sample_disordered_chain(uniform_chain(n), spec, i)
        assert outcome(first_peak_time, chain) == outcome(dense_first_peak_time, chain), i


@pytest.mark.parametrize("step", [0.01, 0.2])
@pytest.mark.parametrize("hint_scale", [0.3, 1.0, 1.7])
def test_offset_table_scan_at_other_steps_and_hints(step, hint_scale):
    for chain in (uniform_chain(51), apollaro_chain(51, 0.4322, 0.7338),
                  apollaro_chain(201, 0.25, 0.55)):
        hint = hint_scale * default_peak_hint(chain.n)
        want = outcome(dense_first_peak_time, chain, search_hint=hint, step=step)
        assert outcome(first_peak_time, chain, search_hint=hint, step=step) == want


def test_tuning_run_matches_the_dense_scan(monkeypatch):
    obj = Objective(n=51, window=1)
    result = optimize_apollaro(obj, 0.5, 0.8, restarts=1, max_iter=12)
    dense_calls = []

    def counting_dense_first_peak(*args):
        dense_calls.append(args[0])
        return dense_first_peak(*args)

    monkeypatch.setattr(optimize, "_first_peak", counting_dense_first_peak)
    assert optimize_apollaro(obj, 0.5, 0.8, restarts=1, max_iter=12) == result
    assert len(dense_calls) == result.evaluations + 1 > 12  # + the final re-evaluation


@pytest.mark.parametrize("name, value", [
    ("time_tol", 0.0), ("time_tol", -1e-8), ("time_tol", math.nan),
    ("step", 0.0), ("step", -0.05), ("step", math.nan), ("step", math.inf),
    ("search_hint", 0.0), ("search_hint", math.nan), ("search_hint", math.inf)])
def test_bad_search_arguments_raise_before_the_eigensolve(name, value, monkeypatch):
    def no_eigensolve(*args):
        raise AssertionError("eigensolve started before the argument check")

    for module in (models, spectral):
        monkeypatch.setattr(module, "eigendecompose", no_eigensolve)
    monkeypatch.setattr(spectral, "end_spectrum", no_eigensolve)
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        first_peak_time(uniform_chain(21), **{name: value})


def test_tolerance_below_double_spacing_returns(monkeypatch):
    chain = uniform_chain(51)
    t, f = first_peak_time(chain)

    def no_golden(*args):
        raise AssertionError("golden-section fallback taken")

    # the Newton steps stop shrinking at the rounding level: no fallback needed
    monkeypatch.setattr(models, "_golden_section_max", no_golden)
    t_fine, f_fine = first_peak_time(chain, time_tol=1e-20)
    assert abs(t_fine - t) < 1e-8
    assert abs(f_fine - f) < 1e-12


def derivative_root_peak(chain, t):
    """Oracle: the root of g'(s) = 2 Re(conj(f) f') next to t, on eigenvector weights."""
    eig = eigendecompose(chain)
    lam, prod = eig.eigenvalues, eig.eigenvectors[-1] * eig.eigenvectors[0]

    def slope(s):
        phases = prod * np.exp(-1j * lam * s)
        return float(np.real(np.conj(np.sum(phases)) * np.sum(-1j * lam * phases)))

    lo, hi = t - 0.01, t + 0.01
    assert slope(lo) > 0 > slope(hi)  # a maximum of |f| in between
    return brentq(slope, lo, hi, xtol=1e-14)


def refinement_chains():
    for n in (51, 201):
        yield uniform_chain(n)
        yield from box_grid(n, 9)
        for sigma in (0.05, 0.1, 0.3, 1.0):
            spec = normal_disorder(sigma, sigma, seed=47)
            for i in range(6):
                yield sample_disordered_chain(uniform_chain(n), spec, i)


def test_newton_refinement_against_a_root_of_the_derivative():
    tolerance = 1e-10  # fixed before measuring; the worst seen is 6.0e-13
    checked = 0
    for chain in refinement_chains():
        try:
            t, _ = first_peak_time(chain)
        except NumericalFailure:
            continue
        assert abs(t - derivative_root_peak(chain, t)) <= tolerance, chain.label
        checked += 1
    assert checked == 157


def counted_golden(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[1:])
        return _golden_section_max(*args)

    monkeypatch.setattr(models, "_golden_section_max", counting)
    return calls


@pytest.mark.parametrize("start, lo, hi", [(0.2, 0.1, 3.0), (1.2, 1.0, 1.3)],
                         ids=["convex_start", "step_leaves_bracket"])
def test_newton_falls_back_to_golden_section(start, lo, hi, monkeypatch):
    # f(t) = i sin t, g = sin^2 t, g'' = 2 cos 2t: positive at t = 0.2; at
    # t = 1.2 the Newton step lands near 1.658, outside [1.0, 1.3]
    lam, w = np.array([-1.0, 1.0]), np.array([0.5, -0.5])
    calls = counted_golden(monkeypatch)
    got = _refine_peak(lam, w, lo, start, hi, 1e-8)
    assert calls == [(lo, hi, 1e-8)]
    assert got == _golden_section_max(lambda s: abs(w @ np.exp(-1j * lam * s)), lo, hi, 1e-8)
