import numpy as np
import pytest

from spintransfer import (Chain, FidelityStats, NumericalFailure, SweepAxis, TransferPolicy,
                          auto_transfer_time, grid_to_csv,
                          monte_carlo, normal_disorder, pst_chain, pst_transfer_time,
                          quantile_interpolated, sample_fidelity, selection_probability,
                          sweep, uniform_chain, zero_disorder)
from spintransfer.models import first_peak_time


def test_quantile_hand_computed():
    samples = np.array([0.1, 0.2, 0.4, 0.8])
    # type-7 interpolation: position q*(n-1) = 2.25 -> 0.4 + 0.25*(0.8-0.4)
    assert quantile_interpolated(samples, 0.75) == pytest.approx(0.5, abs=1e-15)
    assert quantile_interpolated(samples, 0.5) == pytest.approx(0.3, abs=1e-15)
    with pytest.raises(ValueError):
        quantile_interpolated(samples, 1.0)


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
