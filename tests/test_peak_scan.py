"""The chunked first-peak scan, which starts at the light cone, factors each chunk's
phases and searches a stack of spectra at once, against the whole-grid scan it replaced,
row by row; the light cone against eigenvector amplitudes; and the Newton refinement
against an independent root of g' = d|f|^2/dt."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from spintransfer import (Chain, NumericalFailure, Objective, TransferPolicy, apollaro_chain,
                          auto_transfer_time, eigendecompose, fidelity_single, first_peak_time,
                          monte_carlo, normal_disorder, optimize_apollaro, pst_chain,
                          pst_transfer_time, quadratic_chain, sample_disordered_chain,
                          uniform_chain, uniform_disorder)
from spintransfer import models, optimize, spectral
from spintransfer.models import _golden_section_max, _moments, _refine_peak, default_peak_hint
from spintransfer.optimize import BOX_HI, BOX_LO


def dense_first_peak(lam, w, search_hint, step=0.05, amp_threshold=0.01):
    """The whole-grid scan: every grid point's amplitude at once, then a loop.

    It takes the same spectrum (lam, w) and the same refinement as the
    chunked scan, so the two agree exactly when they pick the same grid point.
    Returns the refined time, as models._first_peaks does for one row.
    """
    ts = np.arange(0.0, 2.0 * search_hint + step, step)
    mags = np.abs(np.exp(-1j * np.outer(ts, lam)) @ w)
    for i in range(1, ts.size - 1):
        if mags[i] >= mags[i - 1] and mags[i] >= mags[i + 1] and mags[i] > amp_threshold:
            return _refine_peak(lam, w, ts[i - 1], ts[i], ts[i + 1], _moments(lam, w))
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


def dense_first_peaks(lam, w, hints):
    """dense_first_peak row by row, NaN where a row has no peak: models._first_peaks's
    contract."""
    times = []
    for row in zip(lam, w, hints):
        try:
            times.append(dense_first_peak(*row))
        except NumericalFailure:
            times.append(math.nan)
    return np.array(times)


def stack_weights(chains):
    """The eigenvalues and end weights of chains of one n, as one stacked solve gives them."""
    fields = np.stack([chain.fields for chain in chains])
    return spectral._end_weights(fields, np.stack([chain.couplings for chain in chains]))[:2]


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
    stack = [apollaro_chain(51, 0.4322, 0.7338), uniform_chain(51),
             sample_disordered_chain(uniform_chain(51), normal_disorder(0.1, 0.1, seed=31), 0)]
    want = [dense_first_peak_time(chain)[0] for chain in stack]
    monkeypatch.setattr(models, "_SCAN_ROWS", rows)
    scan_factors = models._scan_factors
    shapes = []

    def recording_factors(lam, step, count):
        coarse, fine = scan_factors(lam, step, count)
        shapes.append((coarse.shape, fine.shape))
        return coarse, fine

    monkeypatch.setattr(models, "_scan_factors", recording_factors)
    lam, w = stack_weights(stack)
    assert models._first_peaks(lam, w, np.full(3, default_peak_hint(51))).tolist() == want
    # built once per stack, a pair of tables per row, covering every chunk
    [(coarse, fine)] = shapes
    assert coarse[0] == fine[0] == 3 and coarse[1] * fine[1] >= rows + 2


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


def grid_cone_start(lam, ts):
    """The light-cone start as a search over the whole grid ts finds it: one point before the
    first t with alpha t past the reach."""
    alpha = 0.5 * float(lam[-1] - lam[0]) * (1.0 + 1e-12)
    reach = spectral._tail_thresholds(models._AMP_THRESHOLD / 2, lam.size - 1)[-1]
    return int(np.searchsorted(alpha * ts, reach, side="right")) - 1


def test_light_cone_skips_only_points_that_cannot_be_peaks():
    # the largest |f| up to a scan's start is 4.6e-4 on these chains, and 39% of grid points
    # are skipped
    skipped = scanned = 0
    for k, chain in enumerate(light_cone_chains()):
        lam, w, _ = spectral._end_weights(chain.fields[None], chain.couplings[None])
        ts = np.arange(0.0, 2.0 * default_peak_hint(chain.n) + 0.05, 0.05)
        start = models._cone_starts(lam, 0.05, np.array([ts.size]))[0]
        assert start == grid_cone_start(lam[0], ts), chain.label
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
        lam, _ = stack_weights([chain])
        size = np.arange(0.0, 2.0 * default_peak_hint(chain.n) + 0.05, 0.05).size
        assert models._cone_starts(lam, 0.05, np.array([size])).tolist() == [want]


def test_light_cone_start_is_the_grid_search_start_at_every_length():
    # without a grid, at each length from none of the points past the cone to all of them
    lam, _ = stack_weights([apollaro_chain(51, 0.4322, 0.7338)])
    ts = np.arange(0.0, 30.0, 0.05)
    sizes = np.arange(1, ts.size + 1)
    want = [grid_cone_start(lam[0], ts[:size]) for size in sizes]
    assert models._cone_starts(np.repeat(lam, sizes.size, axis=0), 0.05, sizes).tolist() == want


def test_light_cone_start_is_the_grid_search_start_where_the_quotient_is_an_integer():
    # spectra whose reach / (alpha step) lies within ulps of an integer: there the raised
    # quotient can sit one point above the start, and the downward test must step back
    reach = spectral._tail_thresholds(models._AMP_THRESHOLD / 2, 50)[-1]
    ts = np.arange(0.0, 60.0, 0.05)
    lam = []
    for k in (1, 7, 376, 1000):
        edge = reach / (k * 0.05) / (1.0 + 1e-12)  # alpha (k step) = reach, up to rounding
        for _ in range(5):
            edge = np.nextafter(edge, 0.0)
        for _ in range(10):
            lam.append(np.linspace(-edge, edge, 51))
            edge = np.nextafter(edge, np.inf)
    lam = np.array(lam)
    want = [grid_cone_start(row, ts) for row in lam]
    alpha = 0.5 * (lam[:, -1] - lam[:, 0]) * (1.0 + 1e-12)
    assert (np.floor(reach * (1.0 + 2.0 ** -48) / (alpha * 0.05)) > want).any()
    assert models._cone_starts(lam, 0.05, np.full(len(lam), ts.size)).tolist() == want


def test_tuning_run_matches_the_dense_scan(monkeypatch):
    obj = Objective(n=51, window=1)
    result = optimize_apollaro(obj, 0.5, 0.8, restarts=1, max_iter=12)
    dense_rows = []

    def counting_dense_first_peaks(lam, w, hints):
        dense_rows.append(len(lam))
        return dense_first_peaks(lam, w, hints)

    monkeypatch.setattr(optimize, "_first_peaks", counting_dense_first_peaks)
    assert optimize_apollaro(obj, 0.5, 0.8, restarts=1, max_iter=12) == result
    # one search per evaluation; the optimum is not scored again
    assert sum(dense_rows) == result.evaluations > 12
    assert len(dense_rows) < result.evaluations  # the starts' points are searched in stacks


def mixed_stack():
    """(chains, hints) of n = 51: rows that peak in a scan's first chunk and in later ones,
    rows with no peak, a hint of their own per row, and a grid shorter than three points."""
    uniform = uniform_chain(51)
    hint = default_peak_hint(51)
    return [
        (uniform, hint),  # cone start 376, peak at grid point 547
        (Chain(n=51, couplings=np.full(50, 100.0), fields=np.zeros(51)), hint),  # 3, then 5
        (apollaro_chain(51, 0.4322, 0.7338), 100.0),
        (uniform, 2.0),  # the whole grid lies inside the light cone
        (sample_disordered_chain(uniform, normal_disorder(0.3, 0.3, seed=47), 0), 1.7 * hint),
        (apollaro_chain(51, BOX_LO, BOX_LO), hint),  # scanned to the end without a peak
        (uniform, 0.01),  # two grid points
        (apollaro_chain(51, 0.25, 0.55), 20.0),
    ]


@pytest.mark.parametrize("rows", [1, 7])
def test_a_mixed_stack_gives_each_row_its_one_row_time(rows, monkeypatch):
    chains, hints = zip(*mixed_stack())
    lam, w = stack_weights(chains)
    want = dense_first_peaks(lam, w, hints).tolist()
    assert [math.isnan(t) for t in want] == [False] * 3 + [True, False, True, True, False]
    monkeypatch.setattr(models, "_SCAN_ROWS", rows)
    got = models._first_peaks(lam, w, np.array(hints))
    assert [t.hex() for t in got.tolist()] == [t.hex() for t in want]
    # a row's time does not depend on the rows beside it
    reverse = models._first_peaks(lam[::-1], w[::-1], np.array(hints[::-1]))
    assert [t.hex() for t in reverse.tolist()] == [t.hex() for t in want[::-1]]


def test_a_stack_raises_the_first_unresolvable_rows_error():
    lam, w = np.concatenate([stack_weights([uniform_chain(6)])] * 3, axis=1)
    for r, coupling in ((1, 1e17), (2, 1e200)):
        lam[r], w[r] = models._chain_weights(
            Chain(n=6, couplings=np.full(5, coupling), fields=np.zeros(6)))
    errors = []
    for rows in (slice(1, 2), slice(2, 3), slice(None)):
        with pytest.raises(ValueError, match="first-peak scan's step 0.05 is too long") as error:
            models._first_peaks(lam[rows], w[rows], np.ones(len(lam[rows])))
        errors.append(str(error.value))
    assert errors[2] == errors[0] != errors[1]


def test_search_cost_does_not_grow_with_the_hint():
    chain = uniform_chain(51)
    want = first_peak_time(chain)
    tracemalloc.start()
    try:
        assert first_peak_time(chain, search_hint=1e5) == want
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # the grid through 2e5 would take 32 MB as times alone


@pytest.mark.parametrize("n, want", [
    (51, ("0x1.61016e7104568p-1", "0x1.3e04b19e0225ap-1", "0x1.6d59901db7be0p-1")),
    (201, ("0x1.15d35dff20386p-1", "0x1.0a50ddbd2d20bp-1", "0x1.19a313f4c402dp-1"))])
def test_per_sample_peak_statistics_are_pinned(n, want):
    # recorded from the one-row-at-a-time scan, before the stacked search replaced it
    stats = monte_carlo(uniform_chain(n), normal_disorder(0.1, 0.1, seed=71),
                        TransferPolicy(1, 1, per_sample_peak=True), samples=96)
    assert (stats.mean.hex(), stats.minimum.hex(), stats.quantile_value.hex()) == want


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
    got = _refine_peak(lam, w, lo, start, hi, _moments(lam, w))
    assert calls == [(lo, hi, 1e-8)]
    assert got == _golden_section_max(lambda s: abs(w @ np.exp(-1j * lam * s)), lo, hi, 1e-8)
