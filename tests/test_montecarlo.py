import warnings
from dataclasses import replace

import numpy as np
import pytest

from spintransfer import (Chain, DisorderSpec, FidelityStats, NumericalFailure, SweepAxis,
                          TransferPolicy, apollaro_chain, auto_transfer_time, grid_to_csv,
                          monte_carlo, normal_disorder, pst_chain, pst_transfer_time,
                          sample_fidelity, selection_probability, sweep, uniform_chain,
                          uniform_disorder, zero_disorder)
from spintransfer import montecarlo
from spintransfer.disorder import Distribution, draw_realizations, errors_disorder
from spintransfer.models import first_peak_time


def test_window_sizes_are_checked_before_the_auto_time():
    # no arrival peak: resolving the time first would report a numerical failure (exit 3)
    # for what is a usage error (exit 2)
    chain = Chain(n=6, couplings=np.zeros(5), fields=np.zeros(6))
    with pytest.raises(NumericalFailure):
        auto_transfer_time(chain)
    for policy in (TransferPolicy(7, 1), TransferPolicy(1, 0)):
        with pytest.raises(ValueError, match="window sizes"):
            monte_carlo(chain, zero_disorder(seed=1), policy, samples=4)
        with pytest.raises(ValueError, match="window sizes"):
            sample_fidelity(chain, zero_disorder(seed=1), 0, policy)
        with pytest.raises(ValueError, match="window sizes"):
            sweep(chain, SweepAxis("sigma_J", [0.0]), SweepAxis("sigma_B", [0.0]), policy,
                  samples=4)


@pytest.mark.parametrize("field, reach", [(0.0, 2.0), (-10.0, 12.0)])
def test_resolve_time_rejects_a_time_whose_phases_carry_no_information(field, reach):
    # from t * max|E| = 2^52 on, max|E| taken on the Gershgorin interval, one ulp of the
    # largest phase is a radian or more; the uniform chain's interval is [-2, 2] + field
    chain = Chain(n=51, couplings=np.ones(50), fields=np.full(51, field))
    limit = 2.0 ** 52 / reach
    inside, beyond = ((np.nextafter(limit, 0.0), limit) if field == 0.0
                      else (limit * (1 - 1e-9), limit * (1 + 1e-9)))
    assert TransferPolicy(1, 1, time=inside).resolve_time(chain) == inside
    for time in (beyond, 1e300):
        with pytest.raises(ValueError, match="window time .* is not below 2\\^52"):
            TransferPolicy(1, 1, time=time).resolve_time(chain)
        with pytest.raises(ValueError, match="window time"):
            monte_carlo(chain, zero_disorder(seed=1), TransferPolicy(1, 1, time=time),
                        samples=4)


def test_resolved_auto_time_is_a_python_float(monkeypatch):
    # a numpy scalar would print as np.float64(...) in the phase check's message
    monkeypatch.setattr(montecarlo, "auto_transfer_time", lambda chain: np.float64(1e300))
    with pytest.raises(ValueError, match=r"^window time 1e\+300 is too long for this chain"):
        TransferPolicy().resolve_time(uniform_chain(5))
    time = TransferPolicy(time=np.float64(2.5)).resolve_time(uniform_chain(5))
    assert type(time) is float and time == 2.5


def test_drawn_realizations_past_the_phase_bound_are_refused_before_scoring(monkeypatch):
    # the base chain passes resolve_time; each drawn stack is checked the same way, with its
    # realizations' own Gershgorin intervals, before any row of it is scored
    base = uniform_chain(21)
    spec = uniform_disorder(3.0, 0.5, seed=11)
    couplings, fields = draw_realizations(base, spec, 0, 8)
    centre, half = montecarlo._gershgorin(fields, couplings)
    reach = np.abs(centre) + half
    worst = int(np.argmax(reach))
    limit = 2.0 ** 52 / reach[worst]
    inside = np.nextafter(limit, 0.0)
    while inside * reach[worst] >= 2.0 ** 52:
        inside = np.nextafter(inside, 0.0)
    beyond = np.nextafter(inside, np.inf)
    assert beyond * reach[worst] >= 2.0 ** 52 > beyond * 2.0  # the base chain's max|E| is 2
    scored = []
    kernel = montecarlo._score_fixed_time
    monkeypatch.setattr(montecarlo, "_score_fixed_time",
                        lambda *args: scored.append(1) or kernel(*args))
    policy = TransferPolicy(1, 1)
    assert monte_carlo(base, spec, replace(policy, time=inside), samples=8).samples == 8
    scored.clear()
    for call in (lambda p: monte_carlo(base, spec, p, samples=8),
                 lambda p: sample_fidelity(base, spec, worst, p)):
        with pytest.raises(ValueError, match=f"too long for disordered realization {worst}"):
            call(replace(policy, time=beyond))
    # the sweep's 2 x 8 rows are one chunk, the refused realization in its second cell
    assert montecarlo._chunks(16, montecarlo._chunk_rows(base.n, 1, 1)) == [(0, 16)]
    with pytest.raises(ValueError, match="is not below 2\\^52"):
        sweep(base, SweepAxis("delta_J", [0.0, 3.0]), SweepAxis("delta_B", [0.5]),
              replace(policy, time=beyond), samples=8, seed=11)
    assert scored == []  # no row of that chunk, the disorder-free cell's included


def test_non_finite_draws_are_refused_without_a_warning():
    base = uniform_chain(11)
    for spec in (normal_disorder(1e308, 0.0, seed=1), normal_disorder(0.0, 1e308, seed=1),
                 errors_disorder(Distribution("uniform", 1e308), Distribution("uniform", 0.0),
                                 seed=1, coupling_mode="multiplicative")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="realization 0 is not finite"):
                monte_carlo(base, spec, TransferPolicy(1, 1, time=5.0), samples=3)


def test_selection_probability():
    assert selection_probability(1, 0.75) == pytest.approx(0.25)
    assert selection_probability(2, 0.75) == pytest.approx(1 - 9 / 16)
    values = [selection_probability(k, 0.75) for k in range(1, 40)]
    assert np.all(np.diff(values) > 0)
    assert values[-1] > 0.9999
    with pytest.raises(ValueError):
        selection_probability(0, 0.75)


def test_sample_fidelity_pst_zero_disorder():
    chain = pst_chain(8)
    policy = TransferPolicy(1, 1, time=pst_transfer_time(chain))
    f = sample_fidelity(chain, zero_disorder(), 0, policy)
    assert f == pytest.approx(1.0, abs=1e-9)


def test_sample_fidelity_zero_disorder_matches_deterministic():
    chain = uniform_chain(21)
    t0, f0 = first_peak_time(chain)
    policy = TransferPolicy(1, 1, time=t0)
    for idx in (0, 5):
        assert sample_fidelity(chain, zero_disorder(), idx, policy) == pytest.approx(f0, abs=1e-12)


def test_sample_fidelity_window5_dominates_window1():
    chain = uniform_chain(31)
    t0, _ = first_peak_time(chain)
    spec = normal_disorder(0.08, 0.08, seed=4)
    for idx in range(25):
        f1 = sample_fidelity(chain, spec, idx, TransferPolicy(1, 1, time=t0))
        f5 = sample_fidelity(chain, spec, idx, TransferPolicy(5, 5, time=t0))
        assert f5 >= f1 - 1e-12


def test_monte_carlo_single_sample():
    chain = uniform_chain(11)
    t0, _ = first_peak_time(chain)
    stats = monte_carlo(chain, normal_disorder(0.1, 0.0, seed=8),
                        TransferPolicy(1, 1, time=t0), samples=1)
    assert stats.mean == stats.minimum == stats.quantile_value
    assert stats.samples == 1 and stats.seed == 8


def test_monte_carlo_zero_disorder_collapses():
    chain = uniform_chain(11)
    t0, f0 = first_peak_time(chain)
    stats = monte_carlo(chain, zero_disorder(seed=3), TransferPolicy(1, 1, time=t0), samples=16)
    assert stats.mean == pytest.approx(f0, abs=1e-12)
    assert stats.minimum == pytest.approx(f0, abs=1e-12)
    assert stats.quantile_value == pytest.approx(f0, abs=1e-12)


def test_monte_carlo_invariants_and_range():
    chain = uniform_chain(15)
    t0, _ = first_peak_time(chain)
    stats = monte_carlo(chain, normal_disorder(0.15, 0.1, seed=21),
                        TransferPolicy(3, 3, time=t0), samples=60)
    assert 0.0 <= stats.minimum <= stats.quantile_value <= 1.0 + 1e-9
    assert stats.minimum <= stats.mean <= 1.0 + 1e-9


def test_monte_carlo_thread_count_invariance():
    # windows 1, 3 and 5; the window-5 run spans four chunks
    runs = [(uniform_chain(41), normal_disorder(0.1, 0.1, seed=21), TransferPolicy(1, 1), 60),
            (uniform_chain(21), normal_disorder(0.1, 0.05, seed=77),
             TransferPolicy(3, 3, time=first_peak_time(uniform_chain(21))[0]), 40),
            (pst_chain(21), normal_disorder(0.1, 0.1, seed=43), TransferPolicy(5, 5), 197)]
    for chain, spec, policy, samples in runs:
        serial = monte_carlo(chain, spec, policy, samples=samples, threads=1)
        threaded = monte_carlo(chain, spec, policy, samples=samples, threads=8)
        assert serial == threaded  # bit-identical, not merely close


def test_per_sample_peak_policy():
    chain = uniform_chain(15)
    t0, f0 = first_peak_time(chain)
    policy = TransferPolicy(1, 1, time=t0, per_sample_peak=True)
    f = sample_fidelity(chain, zero_disorder(), 0, policy)
    assert f == pytest.approx(f0, abs=1e-9)


def test_sweep_single_cell():
    chain = uniform_chain(11)
    grid = sweep(chain, SweepAxis("sigma_J", [0.1]), SweepAxis("sigma_B", [0.0]),
                 TransferPolicy(1, 1), samples=12, seed=5)
    assert len(grid.cells) == 1 and len(grid.cells[0]) == 1
    assert isinstance(grid.cells[0][0], FidelityStats)
    assert grid.descriptor["n"] == 11


def record_chunks(monkeypatch) -> list[dict]:
    """Record each _score_rows call of a run: per row whether it has a field, and the
    _chebyshev_tops loops the call ran."""
    chunks = []
    score_rows = montecarlo._score_rows

    def recording(couplings, fields, *args):
        chunks.append({"fielded": fields.any(axis=1).tolist(), "loops": []})
        return score_rows(couplings, fields, *args)

    monkeypatch.setattr(montecarlo, "_score_rows", recording)
    for name in ("_sum_terms", "_sum_bipartite_terms"):
        def loop(*args, original=getattr(montecarlo, name), name=name):
            chunks[-1]["loops"].append(name)
            return original(*args)

        monkeypatch.setattr(montecarlo, name, loop)
    return chunks


@pytest.mark.parametrize("spec", [zero_disorder(seed=3),
                                  DisorderSpec("additive", "additive", Distribution("normal", 0.0),
                                               Distribution("uniform", 0.0), master_seed=3),
                                  DisorderSpec("multiplicative", "none",
                                               Distribution("uniform", 0.0), master_seed=3)],
                         ids=["none_modes", "zero_widths", "multiplicative_zero"])
def test_a_disorder_free_cell_is_scored_as_one_row(spec, monkeypatch):
    base, policy = pst_chain(21), TransferPolicy(3, 3)
    one = sample_fidelity(base, spec, 0, policy)
    chunks = record_chunks(monkeypatch)
    stats = monte_carlo(base, spec, policy, samples=50)
    assert [len(chunk["fielded"]) for chunk in chunks] == [1]
    assert chunks[0]["loops"] == ["_sum_bipartite_terms"]
    # the summary is taken over the row broadcast to every sample
    assert stats == montecarlo._summarize(np.full(50, one), 0.75, 3)


def test_a_field_free_refusal_is_raised_before_a_fielded_one():
    # the field-free group is scored first, whatever the order of the cells
    base = uniform_chain(11)
    fielded = (base, uniform_disorder(0.0, 1e200, seed=1), 5.0)
    field_free = (base, uniform_disorder(1e200, 0.0, seed=1), 6.0)
    for cells, time in (([fielded], 5.0), ([field_free], 6.0), ([fielded, field_free], 6.0)):
        with pytest.raises(ValueError, match=f"window time {time} is too long for disordered "
                                             f"realization 0"):
            montecarlo._score_cells(cells, TransferPolicy(1, 1), 4)


# (base, policy, coupling axis, field axis, coupling mode, samples, quantile, rows per chunk
# or None for the derived budget)
SWEEP_GRIDS = {
    "pst51_w5": (pst_chain(51), TransferPolicy(5, 5), SweepAxis("sigma_J", [0.0, 0.1, 0.2]),
                 SweepAxis("sigma_B", [0.0, 0.1, 0.2]), "additive", 100, 0.75, None),
    "uniform201_w1_fixed_time": (uniform_chain(201), TransferPolicy(1, 1, time=100.0),
                                 SweepAxis("sigma_J", [0.0, 0.1]), SweepAxis("sigma_B", [0.05]),
                                 "additive", 200, 0.75, None),
    "per_sample_peak": (uniform_chain(15), TransferPolicy(2, 2, per_sample_peak=True),
                        SweepAxis("delta_J", [0.0, 0.1]), SweepAxis("delta_B", [0.05, 0.1]),
                        "multiplicative", 30, 0.9, None),
    "one_sample": (apollaro_chain(21, 0.45, 0.75), TransferPolicy(3, 3),
                   SweepAxis("sigma_J", [0.0, 0.1]), SweepAxis("sigma_B", [0.0, 0.1, 0.2]),
                   "additive", 1, 0.75, None),
    "small_stack": (uniform_chain(21), TransferPolicy(3, 2), SweepAxis("sigma_J", [0.0, 0.1, 0.2]),
                    SweepAxis("sigma_B", [0.0, 0.1, 0.2]), "additive", 3, 0.5, 8),
    # a disorder-free cell, field-free and fielded cells, each group over several chunks
    "mixed_kinds": (apollaro_chain(15, 0.5, 0.8), TransferPolicy(2, 3),
                    SweepAxis("sigma_J", [0.0, 0.1, 0.2, 0.3]), SweepAxis("delta_B", [0.0, 0.1]),
                    "multiplicative", 5, 0.75, 4),
    "mixed_kinds_peak": (uniform_chain(15), TransferPolicy(2, 2, per_sample_peak=True),
                         SweepAxis("delta_J", [0.0, 0.1, 0.2, 0.3]),
                         SweepAxis("sigma_B", [0.0, 0.05]), "multiplicative", 5, 0.9, 4),
}


def planned_chunks(j_axis, b_axis, samples, rows):
    """(field-free, rows, cells spanned, starts inside a cell) of each chunk _score_cells
    plans on a grid over a base without fields: the field-free (sigma_B = 0) cells first, then
    the rest, each group in cell order; a cell that draws nothing is one row, and a field-free
    chunk takes twice the rows."""
    plan = []
    for free in (True, False):
        sizes = [1 if jval == bval == 0 else samples
                 for jval in j_axis.values for bval in b_axis.values if (bval == 0) == free]
        ends = np.cumsum(sizes)
        for lo, hi in montecarlo._chunks(sum(sizes), rows * (1 + free)):
            spanned = int(np.count_nonzero((lo < ends) & (ends - sizes < hi)))
            plan.append((free, hi - lo, spanned, lo not in (0, *ends)))
    return plan


@pytest.mark.parametrize("case", sorted(SWEEP_GRIDS))
def test_sweep_cells_equal_monte_carlo_on_each_cell(case, monkeypatch):
    # the grid is one chunked ensemble; each cell must still be monte_carlo on that cell
    base, policy, j_axis, b_axis, mode, samples, quantile, rows = SWEEP_GRIDS[case]
    time = policy.resolve_time(base)
    want = [[monte_carlo(base, errors_disorder(Distribution(j_axis.kind, jval),
                                               Distribution(b_axis.kind, bval), 7, mode),
                         replace(policy, time=time), samples, quantile)
             for bval in b_axis.values] for jval in j_axis.values]
    if rows is not None:
        size = max(policy.window_in, policy.window_out)
        monkeypatch.setattr(montecarlo, "_STACK", rows * (base.n + 2) * size)
    plan = planned_chunks(j_axis, b_axis, samples,
                          montecarlo._chunk_rows(base.n, policy.window_in, policy.window_out))
    if case == "small_stack":  # one field-free chunk of 1 + 3 + 3 rows, three of 6 after it
        assert plan == [(True, 7, 3, False)] + [(False, 6, 2, False)] * 3
    elif case.startswith("mixed_kinds"):
        for free in (True, False):
            group = [chunk for chunk in plan if chunk[0] == free]
            assert len(group) >= 2 and any(chunk[3] for chunk in group)  # starts inside a cell
        assert plan[0][2] == 3  # the disorder-free cell and two field-free ones
    chunks = record_chunks(monkeypatch)
    grid = sweep(base, j_axis, b_axis, policy, coupling_mode=mode, samples=samples,
                 quantile=quantile, seed=7)
    assert [len(chunk["fielded"]) for chunk in chunks] == [size for _, size, *_ in plan]
    for chunk, (free, *_) in zip(chunks, plan):
        assert chunk["fielded"] == [not free] * len(chunk["fielded"])  # no mixed chunk
        if policy.per_sample_peak:  # only rows with no peak of their own take a loop
            assert set(chunk["loops"]) <= {"_sum_bipartite_terms" if free else "_sum_terms"}
        else:
            assert chunk["loops"] == ["_sum_bipartite_terms" if free else "_sum_terms"]
    assert grid.descriptor["time"] == time
    assert grid.cells == want  # field for field, bit for bit


def test_sweep_zero_column_deterministic():
    chain = uniform_chain(11)
    t0, f0 = first_peak_time(chain)
    grid = sweep(chain, SweepAxis("sigma_J", [0.0]), SweepAxis("sigma_B", [0.0, 0.0]),
                 TransferPolicy(1, 1, time=t0), samples=6, seed=5)
    for row in grid.cells:
        for st in row:
            assert st.mean == pytest.approx(f0, abs=1e-12)


def test_sweep_axis_validation():
    with pytest.raises(ValueError):
        SweepAxis("sigma_X", [0.1])
    with pytest.raises(ValueError):
        SweepAxis("sigma_J", [-0.1])
    chain = uniform_chain(11)
    with pytest.raises(ValueError):
        sweep(chain, SweepAxis("sigma_B", [0.1]), SweepAxis("sigma_B", [0.1]),
              TransferPolicy(1, 1, time=1.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_sweep_axis_rejects_non_finite_values(bad):
    # NaN passed the "< 0" check and made a cell with the disorder silently off
    with pytest.raises(ValueError, match="must be finite"):
        SweepAxis("sigma_J", [0.1, bad])
    with pytest.raises(ValueError, match="must be finite"):
        SweepAxis("delta_B", bad)


def test_grid_csv_format():
    chain = uniform_chain(9)
    grid = sweep(chain, SweepAxis("sigma_J", [0.0, 0.1]), SweepAxis("sigma_B", [0.05]),
                 TransferPolicy(1, 1), samples=5, seed=2)
    text = grid_to_csv(grid)
    lines = text.strip().split("\n")
    assert lines[0] == "# format=1"
    assert lines[1] == "sigma_J,sigma_B,mean,min,quantile,samples,seed"
    assert len(lines) == 2 + 2
    first = lines[2].split(",")
    assert first[0] == "0" and first[1] == "0.05"
    assert first[5] == "5" and first[6] == "2"


def test_quantile_matches_fidelity_range():
    # every sample produced by the pipeline lies in [0, 1]
    chain = pst_chain(9)
    spec = normal_disorder(0.3, 0.3, seed=13)
    policy = TransferPolicy(2, 2, time=pst_transfer_time(chain))
    for idx in range(30):
        f = sample_fidelity(chain, spec, idx, policy)
        assert 0.0 <= f <= 1.0 + 1e-9
        assert f >= 0.5 - 1e-12  # the averaged-fidelity map never goes below 1/2
