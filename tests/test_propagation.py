"""The Chebyshev producer: fixed-time window blocks propagated from the input window.

The oracles are the full N x N propagator (full eigensystem) with the gauged
SVD of optimal_encoding, and scipy.special.jv for the expansion coefficients.
The hard regimes mirror the spectral kernel's oracle tests in
test_ensemble_kernel.py: here each one runs through propagate_rows, which
propagates every row whatever the rule would pick.
"""

import contextlib
import io
import warnings

import numpy as np
import pytest
from scipy.special import jv

from _helpers import counted_eigendecompose, oracle_fidelity, propagate_rows, score_rows
from spintransfer import (Chain, TransferPolicy, apollaro_chain, cli, eigendecompose,
                          monte_carlo, normal_disorder, pst_chain, pst_transfer_time,
                          sample_disordered_chain, sample_fidelity, uniform_chain,
                          uniform_disorder)
from spintransfer import montecarlo
from spintransfer.disorder import draw_realizations
from spintransfer.models import auto_transfer_time


def assert_propagation_matches_oracle(couplings, fields, window_in, window_out, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = propagate_rows(couplings, fields, window_in, window_out,
                             np.full(fields.shape[0], t))
    n = fields.shape[1]
    for r in range(fields.shape[0]):
        chain = Chain(n=n, couplings=couplings[r], fields=fields[r])
        assert got[r] == pytest.approx(oracle_fidelity(chain, window_in, window_out, t),
                                       abs=1e-12)


@pytest.mark.parametrize("window_in, window_out", [(1, 1), (3, 3), (5, 5), (2, 4), (4, 2)])
def test_propagation_matches_full_propagator_oracle(window_in, window_out, monkeypatch):
    base = apollaro_chain(41, 0.45, 0.75)
    couplings, fields = draw_realizations(base, normal_disorder(0.15, 0.1, seed=45), 0, 80)
    calls = counted_eigendecompose(monkeypatch)
    assert_propagation_matches_oracle(couplings, fields, window_in, window_out, 21.3)
    assert not calls


@pytest.mark.parametrize("window_in, window_out", [(3, 3), (5, 5), (2, 4), (4, 2)])
def test_propagation_matches_oracle_when_couplings_cross_zero(window_in, window_out,
                                                              monkeypatch):
    base = pst_chain(41)
    couplings, fields = draw_realizations(base, uniform_disorder(1.5, 0.1, seed=46), 0, 64)
    assert (couplings < 0).any()
    calls = counted_eigendecompose(monkeypatch)
    assert_propagation_matches_oracle(couplings, fields, window_in, window_out, 33.7)
    assert not calls


ZERO_COUPLING_CHAINS = {
    # the spectral producer needs the eigensystem for each of these
    "zero_coupling": Chain(n=5, couplings=[1.0, 0.7, 0.0, 0.9],
                           fields=[0.1, 0.0, 0.3, -0.2, 0.05]),
    "repeated_eigenvalue": Chain(n=4, couplings=[1.0, 1e-200, 1.0], fields=np.zeros(4)),
    "zero_coupling_and_repeated_eigenvalue": Chain(n=4, couplings=[1.0, 0.0, 1.0],
                                                   fields=np.zeros(4)),
    "all_couplings_zero": Chain(n=6, couplings=np.zeros(5), fields=np.full(6, 0.3)),
}


@pytest.mark.parametrize("name", sorted(ZERO_COUPLING_CHAINS))
def test_propagation_needs_no_eigensystem_for_zero_couplings(name, monkeypatch):
    chain = ZERO_COUPLING_CHAINS[name]
    calls = counted_eigendecompose(monkeypatch)
    for window_in, window_out in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for t in (0.0, 2.1, 40.0):
            assert_propagation_matches_oracle(chain.couplings[None], chain.fields[None],
                                              window_in, window_out, t)
    assert not calls


@pytest.mark.parametrize("weak", [1e-4, 1e-8, 1e-12])
@pytest.mark.parametrize("n", [20, 21])
def test_propagation_matches_oracle_on_near_degenerate_mirror_chains(n, weak):
    couplings = uniform_chain(n).couplings.copy()
    couplings[(n - 1) // 2] = couplings[n // 2 - 1] = weak
    chain = Chain(n=n, couplings=couplings, fields=np.zeros(n))
    assert np.min(np.diff(eigendecompose(chain).eigenvalues)) <= weak
    for window_in, window_out in [(1, 1), (3, 3), (5, 5), (2, 4), (4, 2)]:
        for t in (7.3, 311.0):
            assert_propagation_matches_oracle(couplings[None], chain.fields[None],
                                              window_in, window_out, t)


@pytest.mark.parametrize("window_in, window_out", [(1, 1), (3, 3), (5, 5), (2, 4), (4, 2)])
def test_propagation_matches_oracle_on_strongly_localized_chains(window_in, window_out,
                                                                monkeypatch):
    base = uniform_chain(201)
    couplings, fields = draw_realizations(base, normal_disorder(1.0, 1.0, seed=47), 0, 24)
    calls = counted_eigendecompose(monkeypatch)
    assert_propagation_matches_oracle(couplings, fields, window_in, window_out, 100.5)
    assert not calls


@pytest.mark.parametrize("window_in, window_out", [
    (25, 26), (1, 51), (51, 1), (26, 26), (28, 28), (2, 50), (50, 2)])
def test_propagation_matches_oracle_on_overlapping_windows(window_in, window_out,
                                                           monkeypatch):
    # the spectral producer takes the eigensystem for most of these
    base = uniform_chain(51)
    couplings, fields = draw_realizations(base, normal_disorder(0.2, 2.0, seed=48), 0, 16)
    calls = counted_eigendecompose(monkeypatch)
    assert_propagation_matches_oracle(couplings, fields, window_in, window_out, 30.0)
    assert not calls


@pytest.mark.parametrize("z", [0.0, 1e-300, 1e-20, 1e-10, 0.3, 1.0, 7.5, 50.0, 260.0, 1000.0])
def test_coefficients_match_scipy_bessel(z):
    count = montecarlo._term_counts(np.array([z]), montecarlo._TAIL)
    assert count[0] > z
    coef = montecarlo._chebyshev_coefficients(np.array([z]), count)[:, 0]
    k = np.arange(count[0])
    want = jv(k, z) * np.where(k == 0, 1.0, 2.0) * np.array([1.0, -1.0, -1.0, 1.0])[k % 4]
    # jv itself is off by up to 3.7e-14 at z = 1000 (against 40-digit mpmath values)
    assert np.abs(coef - want).max() <= 1e-13
    # what the count drops stays under the stated tail bound
    dropped = 2.0 * np.abs(jv(np.arange(count[0], count[0] + 400), z)).sum()
    assert dropped <= montecarlo._TAIL
    if count[0] > 1:  # and the count is not padded: one term fewer drops more than 1e-18
        assert 2.0 * np.abs(jv(np.arange(count[0] - 1, count[0] + 400), z)).sum() > 1e-18


def test_coefficients_of_a_row_do_not_depend_on_its_neighbours():
    z = np.array([0.0, 3.0, 260.0, 1e-10, 41.5])
    counts = montecarlo._term_counts(z, montecarlo._TAIL)
    together = montecarlo._chebyshev_coefficients(z, counts)
    for r in range(z.size):
        alone = montecarlo._chebyshev_coefficients(z[r:r + 1], counts[r:r + 1])[:, 0]
        assert together[:counts[r], r].tobytes() == alone.tobytes()
        assert not together[counts[r]:, r].any()


def producers(monkeypatch) -> dict:
    """Count the rows each producer scores."""
    rows = {"chebyshev": 0, "spectral": 0}
    chebyshev, spectral = montecarlo._chebyshev_tops, montecarlo._spectral_tops

    def counting_chebyshev(couplings, *args):
        rows["chebyshev"] += couplings.shape[0]
        return chebyshev(couplings, *args)

    def counting_spectral(couplings, *args):
        rows["spectral"] += couplings.shape[0]
        return spectral(couplings, *args)

    monkeypatch.setattr(montecarlo, "_chebyshev_tops", counting_chebyshev)
    monkeypatch.setattr(montecarlo, "_spectral_tops", counting_spectral)
    return rows


def test_rule_propagates_uniform_window1_and_keeps_pst_window5_spectral(monkeypatch):
    rows = producers(monkeypatch)
    uniform = uniform_chain(201)
    monte_carlo(uniform, normal_disorder(0.1, 0.1, seed=3), TransferPolicy(1, 1), samples=70)
    assert rows == {"chebyshev": 70, "spectral": 0}
    pst = pst_chain(51)
    rows["chebyshev"] = 0
    monte_carlo(pst, normal_disorder(0.1, 0.1, seed=3),
                TransferPolicy(5, 5, time=pst_transfer_time(pst)), samples=70)
    assert rows == {"chebyshev": 0, "spectral": 70}


def test_per_sample_peak_rows_stay_spectral(monkeypatch):
    rows = producers(monkeypatch)
    policy = TransferPolicy(1, 1, per_sample_peak=True)
    monte_carlo(uniform_chain(21), normal_disorder(0.05, 0.05, seed=4), policy, samples=10)
    assert rows == {"chebyshev": 0, "spectral": 10}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_pst_sweep_stays_spectral(seed, tmp_path, monkeypatch):
    # the CLI sweep of the benchmark (window 5, PST N=51, 3 x 3 grid)
    rows = producers(monkeypatch)
    argv = ["sweep", "--model", "pst", "--n", "51", "--window", "5",
            "--j-axis", "0:0.2:0.1", "--b-axis", "0:0.2:0.1", "--samples", "100",
            "--seed", str(seed), "--out", str(tmp_path / "pst.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert rows == {"chebyshev": 0, "spectral": 900}


def test_mixed_chunks_score_each_row_as_a_one_row_call(monkeypatch):
    # rows at short times are propagated, rows at long times solved, in one chunk
    base = uniform_chain(51)
    couplings, fields = draw_realizations(base, normal_disorder(0.1, 0.1, seed=49), 0, 64)
    times = np.where(np.arange(64) % 3, 20.0, 200.0)
    rows = producers(monkeypatch)
    chunk = montecarlo._score_fixed_time(couplings, fields, 3, 2, times)
    assert 0 < rows["chebyshev"] < 64 and rows["spectral"] == 64 - rows["chebyshev"]
    alone = np.array([montecarlo._score_fixed_time(couplings[r:r + 1], fields[r:r + 1], 3, 2,
                                                   times[r:r + 1])[0] for r in range(64)])
    assert chunk.tobytes() == alone.tobytes()
    # both producers agree with each other on every row
    assert np.abs(chunk - score_rows(couplings, fields, 3, 2, times)).max() <= 1e-12


def test_propagated_ensemble_elements_are_sample_fidelities():
    base = uniform_chain(201)
    spec = normal_disorder(0.1, 0.1, seed=50)
    policy = TransferPolicy(1, 1)
    t = auto_transfer_time(base)
    couplings, fields = draw_realizations(base, spec, 0, 70)
    chunked = np.concatenate([montecarlo._score_range(base, spec, policy, t, 0, 64),
                              montecarlo._score_range(base, spec, policy, t, 64, 70)])
    for i in (0, 13, 63, 64, 69):
        assert sample_fidelity(base, spec, i, policy, time=t) == chunked[i]
        chain = sample_disordered_chain(base, spec, i)
        assert chunked[i] == pytest.approx(oracle_fidelity(chain, 1, 1, t), abs=1e-12)
