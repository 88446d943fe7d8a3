"""The Chebyshev producer: fixed-time window blocks propagated from the input window.

The oracles are the full N x N propagator (full eigensystem), and
scipy.special.jv for the expansion coefficients.  The hard regimes are the
table in _helpers that test_ensemble_kernel.py scores by the spectral
producer: here each one runs through propagate_rows, which propagates every
row whatever the rule would pick.  The only rows that need the eigensystem
are those whose column recurrence _growth declines (declined below).
"""

import contextlib
import io

import numpy as np
import pytest
from scipy.special import jv

from _helpers import (FALLBACK_CHAINS, FALLBACK_TIMES, FALLBACK_WINDOWS, OVERFLOWING_CHAIN,
                      WEAK_BOND_CHAINS, assert_matches_oracle, counted_eigendecompose, ensemble,
                      fallbacks_on_ensemble, fallbacks_on_mirror_chain,
                      fallbacks_on_weak_bond_chain, oracle_fidelity, score_rows)
from spintransfer import (Chain, Objective, TransferPolicy, cli, evaluate_objective,
                          monte_carlo, normal_disorder, pst_chain, pst_transfer_time,
                          sample_disordered_chain, sample_fidelity, uniform_chain,
                          uniform_disorder)
from spintransfer import montecarlo, spectral
from spintransfer.disorder import draw_realizations
from spintransfer.models import auto_transfer_time


def declined(couplings, fields, window_in, window_out) -> int:
    """Rows whose column recurrence _growth declines: _chebyshev_tops leaves them NaN, and
    the shared tail scores them from the eigensystem."""
    growth = spectral._growth(couplings, fields, window_in, window_out)
    return int(np.count_nonzero(~(growth <= spectral._GROWTH)))


def declined_in_ensemble(name, window_in, window_out) -> int:
    couplings, fields, _ = ensemble(name)
    return declined(couplings, fields, window_in, window_out)


@pytest.mark.parametrize("window_in, window_out", [(1, 1), (3, 3), (5, 5), (2, 4), (4, 2)])
def test_propagation_matches_full_propagator_oracle(window_in, window_out, monkeypatch):
    assert fallbacks_on_ensemble("chebyshev", "apollaro", window_in, window_out,
                                 monkeypatch) == 0


@pytest.mark.parametrize("window_in, window_out", [(3, 3), (5, 5), (2, 4), (4, 2)])
def test_propagation_matches_oracle_when_couplings_cross_zero(window_in, window_out,
                                                              monkeypatch):
    # a coupling near zero on the input side can make the recurrence grow past the bound
    assert fallbacks_on_ensemble("chebyshev", "couplings_cross_zero", window_in, window_out,
                                 monkeypatch) == declined_in_ensemble(
        "couplings_cross_zero", window_in, window_out)


# the spectral producer takes the eigensystem for each of these (test_kernel.py)
SPECTRAL_FALLBACKS = {**FALLBACK_CHAINS, "overflowing_recurrence": OVERFLOWING_CHAIN}


@pytest.mark.parametrize("name", sorted(SPECTRAL_FALLBACKS))
def test_propagation_needs_no_eigensystem_for_zero_couplings(name, monkeypatch):
    # only a zero bond on the input side needs one: the recurrence divides by it
    chain = SPECTRAL_FALLBACKS[name]
    calls = counted_eigendecompose(monkeypatch, montecarlo)
    want = 0
    for window_in, window_out in FALLBACK_WINDOWS:
        want += len(FALLBACK_TIMES) * declined(chain.couplings[None], chain.fields[None],
                                               window_in, window_out)
        for t in FALLBACK_TIMES:
            assert_matches_oracle("chebyshev", chain.couplings[None], chain.fields[None], t,
                                  window_in, window_out)
    assert len(calls) == want
    assert want == (3 if name == "all_couplings_zero" else 0)  # windows (2, 2)


@pytest.mark.parametrize("weak", [1e-4, 1e-8, 1e-12])
@pytest.mark.parametrize("n", [20, 21])
def test_propagation_matches_oracle_on_near_degenerate_mirror_chains(n, weak, monkeypatch):
    assert fallbacks_on_mirror_chain("chebyshev", n, weak, monkeypatch) == 0


@pytest.mark.parametrize("name", sorted(WEAK_BOND_CHAINS))
def test_propagation_matches_oracle_across_a_weak_bond(name, monkeypatch):
    chain, windows, times = WEAK_BOND_CHAINS[name]
    want = len(times) * sum(declined(chain.couplings[None], chain.fields[None], *window)
                            for window in windows)
    assert fallbacks_on_weak_bond_chain("chebyshev", name, monkeypatch) == want


@pytest.mark.parametrize("window_in, window_out", [(1, 1), (3, 3), (5, 5), (2, 4), (4, 2)])
def test_propagation_matches_oracle_on_strongly_localized_chains(window_in, window_out,
                                                                monkeypatch):
    assert fallbacks_on_ensemble("chebyshev", "strongly_localized", window_in, window_out,
                                 monkeypatch) == declined_in_ensemble(
        "strongly_localized", window_in, window_out)


@pytest.mark.parametrize("window_in, window_out", [
    (25, 26), (1, 51), (51, 1), (26, 26), (28, 28), (2, 50), (50, 2)])
def test_propagation_matches_oracle_on_overlapping_windows(window_in, window_out,
                                                           monkeypatch):
    # the recurrence runs over most of the chain under strong fields: every row of the
    # three widest pairs is declined (growth 8e20 to 3e27), none of the others
    want = declined_in_ensemble("overlapping_windows", window_in, window_out)
    assert want == (16 if min(window_in, window_out) > 2 else 0)
    assert fallbacks_on_ensemble("chebyshev", "overlapping_windows", window_in, window_out,
                                 monkeypatch) == want


@pytest.mark.parametrize("z", [0.0, 1e-300, 1e-20, 1e-10, 0.3, 1.0, 7.5, 50.0, 260.0, 1000.0])
def test_coefficients_match_scipy_bessel(z):
    count = spectral._term_counts(np.array([z]), spectral._TAIL)
    assert count[0] > z
    coef = spectral._chebyshev_coefficients(np.array([z]), count)[:, 0]
    k = np.arange(count[0])
    want = jv(k, z) * np.where(k == 0, 1.0, 2.0) * np.array([1.0, -1.0, -1.0, 1.0])[k % 4]
    # jv itself is off by up to 3.7e-14 at z = 1000 (against 40-digit mpmath values)
    assert np.abs(coef - want).max() <= 1e-13
    # what the count drops stays under the stated tail bound
    dropped = 2.0 * np.abs(jv(np.arange(count[0], count[0] + 400), z)).sum()
    assert dropped <= spectral._TAIL
    if count[0] > 1:  # and the count is not padded: one term fewer drops more than 1e-18
        assert 2.0 * np.abs(jv(np.arange(count[0] - 1, count[0] + 400), z)).sum() > 1e-18


def test_coefficients_of_a_row_do_not_depend_on_its_neighbours():
    z = np.array([0.0, 3.0, 260.0, 1e-10, 41.5])
    counts = spectral._term_counts(z, spectral._TAIL)
    together = spectral._chebyshev_coefficients(z, counts)
    for r in range(z.size):
        alone = spectral._chebyshev_coefficients(z[r:r + 1], counts[r:r + 1])[:, 0]
        assert together[:counts[r], r].tobytes() == alone.tobytes()
        assert not together[counts[r]:, r].any()


def producers(monkeypatch) -> dict:
    """Count the rows each producer scores; a row _chebyshev_tops declines (NaN) goes on to
    the spectral producer and counts there."""
    rows = {"chebyshev": 0, "spectral": 0}
    chebyshev, spectral_tops = montecarlo._chebyshev_tops, montecarlo._spectral_tops

    def counting_chebyshev(*args):
        top = chebyshev(*args)
        rows["chebyshev"] += np.count_nonzero(~np.isnan(top))
        return top

    def counting_spectral(couplings, *args):
        rows["spectral"] += couplings.shape[0]
        return spectral_tops(couplings, *args)

    monkeypatch.setattr(montecarlo, "_chebyshev_tops", counting_chebyshev)
    monkeypatch.setattr(montecarlo, "_spectral_tops", counting_spectral)
    return rows


def loops(monkeypatch) -> dict:
    """Count the _chebyshev_tops calls that sum their terms by each loop: one sublattice a
    step where no row has a field after the centring, both otherwise."""
    calls = {"bipartite": 0, "full": 0}
    for name, key in (("_sum_bipartite_terms", "bipartite"), ("_sum_terms", "full")):
        def counting(*args, loop=getattr(spectral, name), key=key):
            calls[key] += 1
            return loop(*args)

        monkeypatch.setattr(spectral, name, counting)
    return calls


def test_rule_propagates_uniform_window1_and_pst_window5_but_declined_rows(monkeypatch):
    rows = producers(monkeypatch)
    uniform = uniform_chain(201)
    monte_carlo(uniform, normal_disorder(0.1, 0.1, seed=3), TransferPolicy(1, 1), samples=70)
    assert rows == {"chebyshev": 70, "spectral": 0}
    pst = pst_chain(51)
    spec = normal_disorder(0.2, 0.1, seed=3)
    want = declined(*draw_realizations(pst, spec, 0, 200), 5, 5)
    assert want == 5
    rows["chebyshev"] = 0
    monte_carlo(pst, spec, TransferPolicy(5, 5, time=pst_transfer_time(pst)), samples=200)
    assert rows == {"chebyshev": 200 - want, "spectral": want}


def test_per_sample_peak_rows_stay_spectral(monkeypatch):
    rows = producers(monkeypatch)
    policy = TransferPolicy(1, 1, per_sample_peak=True)
    monte_carlo(uniform_chain(21), normal_disorder(0.05, 0.05, seed=4), policy, samples=10)
    assert rows == {"chebyshev": 0, "spectral": 10}


@pytest.mark.parametrize("seed, want", [(1, 3), (2, 3), (3, 10)])
def test_benchmark_pst_sweep_propagates_all_but_declined_rows(seed, want, tmp_path,
                                                              monkeypatch):
    # the CLI sweep of the benchmark (window 5, PST N=51, 3 x 3 grid): K is 135-152, under
    # 9 N = 459, so only the rows whose recurrence _growth declines are solved
    cells = [(j, b) for j in (0.0, 0.1, 0.2) for b in (0.0, 0.1, 0.2)]
    pst = pst_chain(51)
    assert sum(declined(*draw_realizations(pst, normal_disorder(j, b, seed), 0, 100), 5, 5)
               for j, b in cells) == want
    rows, calls = producers(monkeypatch), loops(monkeypatch)
    argv = ["sweep", "--model", "pst", "--n", "51", "--window", "5",
            "--j-axis", "0:0.2:0.1", "--b-axis", "0:0.2:0.1", "--samples", "100",
            "--seed", str(seed), "--out", str(tmp_path / "pst.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    # the disorder-free cell is one row, so 801 rows are scored
    assert rows == {"chebyshev": 801 - want, "spectral": want}
    # the three sigma_B = 0 cells (201 rows) are one field-free chunk, which takes the
    # field-free loop, and the six others three chunks of 200 rows
    assert calls == {"bipartite": 1, "full": 3}


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
    chunked = np.concatenate([montecarlo._score_rows(couplings[rows], fields[rows], policy,
                                                     np.full(70, t)[rows])
                              for rows in (slice(0, 64), slice(64, 70))])
    for i in (0, 13, 63, 64, 69):
        assert sample_fidelity(base, spec, i, policy, time=t) == chunked[i]
        chain = sample_disordered_chain(base, spec, i)
        assert chunked[i] == pytest.approx(oracle_fidelity(chain, 1, 1, t), abs=1e-12)


def field_free_stack(n, seed):
    """Field-free realizations at times up to 1.6 N: couplings that cross zero, a zero bond,
    fields of -0.0 in one row in three."""
    couplings, fields = draw_realizations(uniform_chain(n), normal_disorder(0.6, 0.0, seed),
                                          0, 24)
    couplings[5, n // 3] = 0.0
    fields[::3] = -0.0
    times = np.linspace(0.0, 1.6 * n, 24)
    return couplings, fields, times


@pytest.mark.parametrize("window_in, window_out", [(1, 1), (3, 3), (1, 5), (5, 2)])
def test_field_free_loop_scores_rows_as_the_full_loop_does(window_in, window_out,
                                                         monkeypatch):
    couplings, fields, times = field_free_stack(31, seed=52)
    assert (couplings < 0).any() and not fields.any() and np.signbit(fields[0]).all()
    # one row with fields sends the whole call through the full loop
    field = draw_realizations(uniform_chain(31), normal_disorder(0.1, 0.1, seed=53), 0, 1)
    calls = loops(monkeypatch)
    alone = montecarlo._score_fixed_time(couplings, fields, window_in, window_out, times)
    assert calls == {"bipartite": 1, "full": 0}
    mixed = montecarlo._score_fixed_time(np.vstack([couplings, field[0]]),
                                         np.vstack([fields, field[1]]), window_in, window_out,
                                         np.r_[times, 20.0])
    assert calls == {"bipartite": 1, "full": 1}
    assert alone.tobytes() == mixed[:-1].tobytes()
    # and both agree with the full propagator, the zero-bond row included
    for r in (0, 5, 13, 23):
        chain = Chain(n=31, couplings=couplings[r], fields=fields[r])
        assert alone[r] == pytest.approx(oracle_fidelity(chain, window_in, window_out,
                                                         times[r]), abs=1e-12)


@pytest.mark.parametrize("window_in, window_out, t", [(1, 1, 5.0), (3, 2, 4.0), (2, 4, 3.0)])
def test_field_free_loop_at_times_its_terms_cannot_reach_the_output(window_in, window_out, t,
                                                                   monkeypatch):
    # a short time leaves fewer terms than sites between e_1 and the output window, so the
    # light cone of the later steps is empty
    n = 51
    couplings, fields = draw_realizations(uniform_chain(n), normal_disorder(0.1, 0.0, seed=54),
                                          0, 12)
    times = np.full(12, t)
    counts = spectral._term_counts(spectral._gershgorin(fields, couplings)[1] * times,
                                   spectral._TAIL)
    assert counts.max() < n - (window_in + window_out - 1) - 1
    field = draw_realizations(uniform_chain(n), normal_disorder(0.1, 0.1, seed=55), 0, 1)
    calls = loops(monkeypatch)
    alone = montecarlo._score_fixed_time(couplings, fields, window_in, window_out, times)
    mixed = montecarlo._score_fixed_time(np.vstack([couplings, field[0]]),
                                         np.vstack([fields, field[1]]), window_in, window_out,
                                         np.r_[times, t])
    assert calls == {"bipartite": 1, "full": 1}
    assert alone.tobytes() == mixed[:-1].tobytes()
    for r in (0, 7):
        chain = Chain(n=n, couplings=couplings[r], fields=fields[r])
        assert alone[r] == pytest.approx(oracle_fidelity(chain, window_in, window_out, t),
                                         abs=1e-12)


def test_quantile_objective_takes_the_field_free_loop(monkeypatch):
    # the chunk of the benchmark's quantile tuning: Apollaro N=51, window 3, 200 samples of
    # coupling disorder alone, one kernel call (the benchmark's PST sweep takes the full loop:
    # test_benchmark_pst_sweep_propagates_all_but_declined_rows)
    calls = loops(monkeypatch)
    obj = Objective(n=51, window=3, metric="quantile", samples=200, quantile=0.75,
                    disorder=uniform_disorder(0.1, 0, 1))
    evaluate_objective(obj, 0.43, 0.73)
    assert calls == {"bipartite": 1, "full": 0}
