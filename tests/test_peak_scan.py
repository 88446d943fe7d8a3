"""The chunked first-peak scan, which starts at the light cone and factors each chunk's
phases, against the whole-grid scan it replaced; the light cone against eigenvector
amplitudes; and the Newton refinement against an independent root of g' = d|f|^2/dt."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from spintransfer import (Chain, NumericalFailure, Objective, apollaro_chain,
                          auto_transfer_time, eigendecompose, fidelity_single, first_peak_time,
                          normal_disorder, optimize_apollaro, pst_chain, pst_transfer_time,
                          quadratic_chain, sample_disordered_chain, uniform_chain,
                          uniform_disorder)
from spintransfer import models, optimize, spectral
from spintransfer.models import _golden_section_max, _refine_peak, default_peak_hint
from spintransfer.optimize import BOX_HI, BOX_LO


def dense_first_peak(lam, w, search_hint, step=0.05, amp_threshold=0.01):
    """The whole-grid scan: every grid point's amplitude at once, then a loop.

    It takes the same spectrum (lam, w) and the same refinement as the
    chunked scan, so the two agree exactly when they pick the same grid point.
    Returns the refined time, as models._first_peak does.
    """
    ts = np.arange(0.0, 2.0 * search_hint + step, step)
    mags = np.abs(np.exp(-1j * np.outer(ts, lam)) @ w)
    for i in range(1, ts.size - 1):
        if mags[i] >= mags[i - 1] and mags[i] >= mags[i + 1] and mags[i] > amp_threshold:
            return _refine_peak(lam, w, ts[i - 1], ts[i], ts[i + 1])
    raise NumericalFailure("no transfer peak found in the search window")


def scan_peak_time(scan, chain, search_hint=None, **kwargs):
    """(time, fidelity) as first_peak_time returns them, with scan finding the time."""
    if search_hint is None:
        search_hint = default_peak_hint(chain.n)
    lam, w, _ = spectral._end_weights(chain.fields[None], chain.couplings[None])
    lam, w = lam[0], w[0]
    t = scan(lam, w, search_hint, **kwargs)
    return t, fidelity_single(min(abs(w @ np.exp(-1j * lam * t)), 1.0))


def dense_first_peak_time(chain, **kwargs):
    return scan_peak_time(dense_first_peak, chain, **kwargs)


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
    scan_factors = models._scan_factors
    offsets = []

    def recording_factors(lam, step, count):
        coarse, fine = scan_factors(lam, step, count)
        offsets.append(len(coarse) * len(fine))
        return coarse, fine

    monkeypatch.setattr(models, "_scan_factors", recording_factors)
    assert first_peak_time(chain) == want
    assert len(offsets) == 1 and offsets[0] >= rows + 2  # built once, covering every chunk


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
def test_offset_table_scan_at_other_steps_and_hints(step, hint_scale, monkeypatch):
    monkeypatch.setattr(models, "_PEAK_STEP", step)
    for chain in (uniform_chain(51), apollaro_chain(51, 0.4322, 0.7338),
                  apollaro_chain(201, 0.25, 0.55)):
        hint = hint_scale * default_peak_hint(chain.n)
        want = outcome(dense_first_peak_time, chain, search_hint=hint, step=step)
        assert outcome(first_peak_time, chain, search_hint=hint) == want


def light_cone_chains():
    """The hard regimes the light-cone start is checked on, with the box grids at N = 51 and
    201 last: test_offset_table_scan_on_the_apollaro_box_grid compares them with the dense
    scan already."""
    yield from box_grid(11, 9)
    for sigma in (0.05, 0.1, 0.3, 1.0):
        spec = normal_disorder(sigma, sigma, seed=53)
        for n in (51, 201):
            for i in range(3):
                yield sample_disordered_chain(uniform_chain(n), spec, i)
    for n in (8, 12, 21, 51):
        for i in range(3):  # couplings that cross zero, and strong fields
            yield sample_disordered_chain(pst_chain(n), uniform_disorder(1.5, 0.0, seed=59), i)
            yield sample_disordered_chain(uniform_chain(n), normal_disorder(0.0, 2.0, seed=61), i)
    for n in (8, 12, 21):
        yield from (pst_chain(n), uniform_chain(n), quadratic_chain(n))
    for scale in (1000.0, 0.1):
        for n in (11, 51):
            yield Chain(n=n, couplings=np.full(n - 1, scale), fields=np.zeros(n))
    for n in (51, 201):
        yield from box_grid(n, 9)


def test_light_cone_skips_only_points_that_cannot_be_peaks():
    # the largest |f| up to a scan's start is 4.6e-4 on these chains, and 39% of grid points
    # are skipped
    skipped = scanned = 0
    for k, chain in enumerate(light_cone_chains()):
        lam, w, _ = spectral._end_weights(chain.fields[None], chain.couplings[None])
        ts = np.arange(0.0, 2.0 * default_peak_hint(chain.n) + 0.05, 0.05)
        start = models._cone_start(lam[0], ts)
        eig = eigendecompose(chain)
        inside = np.exp(-1j * np.outer(ts[:start + 1], eig.eigenvalues)) @ (
            eig.eigenvectors[-1] * eig.eigenvectors[0])
        assert np.abs(inside).max() <= models._AMP_THRESHOLD / 2, chain.label
        if k < 142:  # the chains before the two box grids
            assert outcome(first_peak_time, chain) == outcome(dense_first_peak_time, chain)
        skipped, scanned = skipped + start, scanned + ts.size
    assert k + 1 == 304 and skipped > 0.35 * scanned
    # where the scan starts on the 4a optimum and the uniform chain: the bound is not vacuous
    for chain, want in ((apollaro_chain(51, 0.4322, 0.7338), 376), (uniform_chain(201), 1786)):
        lam, _ = models._chain_weights(chain)
        ts = np.arange(0.0, 2.0 * default_peak_hint(chain.n) + 0.05, 0.05)
        assert models._cone_start(lam, ts) == want


def test_tuning_run_matches_the_dense_scan(monkeypatch):
    obj = Objective(n=51, window=1)
    result = optimize_apollaro(obj, 0.5, 0.8, restarts=1, max_iter=12)
    dense_calls = []

    def counting_dense_first_peak(*args):
        dense_calls.append(args[0])
        return dense_first_peak(*args)

    monkeypatch.setattr(optimize, "_first_peak", counting_dense_first_peak)
    assert optimize_apollaro(obj, 0.5, 0.8, restarts=1, max_iter=12) == result
    assert len(dense_calls) == result.evaluations > 12  # the optimum is not scored again


@pytest.mark.parametrize("name, value", [
    ("search_hint", 0.0), ("search_hint", math.nan), ("search_hint", math.inf)])
def test_bad_search_arguments_raise_before_the_eigensolve(name, value, monkeypatch):
    def no_eigensolve(*args):
        raise AssertionError("eigensolve started before the argument check")

    for module in (models, spectral):
        monkeypatch.setattr(module, "eigendecompose", no_eigensolve)
    monkeypatch.setattr(spectral, "end_spectrum", no_eigensolve)
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        first_peak_time(uniform_chain(21), **{name: value})


def test_scan_refuses_a_chain_its_grid_cannot_resolve():
    # 0.05 * max|E| >= 2^52: one ulp of the first grid point's phases is a radian or more,
    # and the Newton moments would leave the double range
    for coupling in (1e17, 1e200):
        chain = Chain(n=6, couplings=np.full(5, coupling), fields=np.zeros(6))
        with pytest.raises(ValueError, match="first-peak scan's step 0.05 is too long"):
            first_peak_time(chain)


@pytest.mark.parametrize("time_of", [first_peak_time, auto_transfer_time, pst_transfer_time])
def test_time_of_a_chain_wider_than_the_double_range_is_one_value_error(time_of):
    # eigenvalues +-1.41e308 are doubles, their gap is not.  The suite turns warnings into
    # errors, so this also checks that neither the solve nor _pst_time warns on the way
    chain = Chain(n=3, couplings=np.array([1e308, 1e308]), fields=np.zeros(3))
    with pytest.raises(ValueError, match="wider than the double range"):
        time_of(chain)
    # one step narrower the gaps fit: the uniform 3-site chain is a perfect-transfer chain
    narrow = Chain(n=3, couplings=np.array([6e307, 6e307]), fields=np.zeros(3))
    if time_of is first_peak_time:
        with pytest.raises(ValueError, match="first-peak scan's step"):
            time_of(narrow)
    else:
        assert time_of(narrow) == pytest.approx(np.pi / (np.sqrt(2.0) * 6e307), rel=1e-12)


@pytest.mark.parametrize("time_of", [auto_transfer_time, pst_transfer_time])
def test_time_of_a_chain_whose_gap_is_subnormal_is_one_value_error(time_of):
    # pi / 2e-310 overflows: the time came back inf, with numpy warnings from its phases
    chain = Chain(n=2, couplings=np.array([1e-310]), fields=np.zeros(2))
    with pytest.raises(ValueError, match=r"pi / gap is beyond the double range"):
        time_of(chain)
    tiny = Chain(n=2, couplings=np.array([1e-300]), fields=np.zeros(2))
    assert time_of(tiny) == pytest.approx(np.pi / 2e-300, rel=1e-12)  # 1.57e300


def test_tolerance_below_double_spacing_returns(monkeypatch):
    chain = uniform_chain(51)
    t, f = first_peak_time(chain)

    def no_golden(*args):
        raise AssertionError("golden-section fallback taken")

    # the Newton steps stop shrinking at the rounding level: no fallback needed
    monkeypatch.setattr(models, "_golden_section_max", no_golden)
    monkeypatch.setattr(models, "_PEAK_TOL", 1e-20)
    t_fine, f_fine = first_peak_time(chain)
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
    got = _refine_peak(lam, w, lo, start, hi)
    assert calls == [(lo, hi, 1e-8)]
    assert got == _golden_section_max(lambda s: abs(w @ np.exp(-1j * lam * s)), lo, hi, 1e-8)
