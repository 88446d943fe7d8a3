"""The batched ensemble kernel: stacked draws, chunked scoring, stacked window blocks.

References: a per-sample draw written with scalar counter_uniform calls, and
the full N x N propagator with the gauged SVD of optimal_encoding.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from _helpers import counted_eigendecompose, oracle_fidelity, score_chain, score_rows
from spintransfer import (Chain, DisorderSpec, Distribution, TransferPolicy, apollaro_chain,
                          counter_uniform, eigendecompose, first_peak_time, full_propagator,
                          monte_carlo, normal_disorder, pst_chain, quantile_interpolated,
                          sample_disordered_chain, sample_fidelity, uniform_chain,
                          uniform_disorder, zero_disorder)
from spintransfer import montecarlo
from spintransfer.disorder import draw_realizations

SPECS = {
    "additive_normal": normal_disorder(0.1, 0.05, seed=31),
    "additive_uniform": uniform_disorder(0.3, 0.2, seed=32),
    "multiplicative_normal": normal_disorder(0.1, 0.0, seed=33, coupling_mode="multiplicative"),
    "multiplicative_uniform": uniform_disorder(0.2, 0.1, seed=34, coupling_mode="multiplicative"),
    "zero_parameters": DisorderSpec("additive", "additive", Distribution("normal", 0.0),
                                    Distribution("uniform", 0.0), master_seed=35),
    "none_modes": zero_disorder(seed=36),
    "fields_only": DisorderSpec("none", "additive", Distribution("normal", 0.4),
                                Distribution("normal", 0.1), master_seed=37),
}


def reference_draw(base, spec, index):
    """One realization drawn with scalar-index counter_uniform calls."""
    couplings, fields = base.couplings, base.fields
    if spec.coupling_mode != "none" and spec.coupling_dist.param > 0:
        u = counter_uniform(spec.master_seed, index, np.arange(base.n - 1, dtype=np.uint64), 0)
        d = spec.coupling_dist.draw(u)
        couplings = couplings + d if spec.coupling_mode == "additive" else couplings * (1.0 + d)
    if spec.field_mode != "none" and spec.field_dist.param > 0:
        u = counter_uniform(spec.master_seed, index, np.arange(base.n, dtype=np.uint64), 1)
        fields = fields + spec.field_dist.draw(u)
    return couplings, fields


@pytest.mark.parametrize("name", sorted(SPECS))
def test_batched_draws_equal_single_draws_bit_for_bit(name):
    spec = SPECS[name]
    base = apollaro_chain(17, 0.4, 0.7)
    base = replace(base, fields=np.linspace(-0.2, 0.3, 17))
    start, count = 5, 40
    couplings, fields = draw_realizations(base, spec, start, start + count)
    assert couplings.shape == (count, 16) and fields.shape == (count, 17)
    for r in range(count):
        chain = sample_disordered_chain(base, spec, start + r)
        want_j, want_b = reference_draw(base, spec, start + r)
        assert couplings[r].tobytes() == chain.couplings.tobytes() == want_j.tobytes()
        assert fields[r].tobytes() == chain.fields.tobytes() == want_b.tobytes()
    if name in ("zero_parameters", "none_modes"):
        assert np.array_equal(couplings, np.tile(base.couplings, (count, 1)))
        assert np.array_equal(fields, np.tile(base.fields, (count, 1)))


def test_batched_draws_wrap_sample_indices_like_single_draws():
    base = uniform_chain(6)
    spec = normal_disorder(0.1, 0.1, seed=38)
    start = 2 ** 64 - 2  # indices 2^64 - 2, 2^64 - 1, then 0, 1 modulo 2^64
    couplings, fields = draw_realizations(base, spec, start, start + 4)
    low_j, low_b = draw_realizations(base, spec, 0, 2)
    assert couplings[2:].tobytes() == low_j.tobytes()
    assert fields[2:].tobytes() == low_b.tobytes()
    for r in range(4):
        want_j, want_b = reference_draw(base, spec, start + r)
        assert couplings[r].tobytes() == want_j.tobytes()
        assert fields[r].tobytes() == want_b.tobytes()


def test_empty_index_range_is_rejected():
    with pytest.raises(ValueError):
        draw_realizations(uniform_chain(5), normal_disorder(0.1, 0.1, seed=1), 3, 3)


def ensemble_elements(monkeypatch, base, spec, policy, samples, threads=1):
    """(stats, per-sample fidelities) of one monte_carlo run, recorded by chunk."""
    scored = {}
    score_range = montecarlo._score_range

    def recording(b, s, p, time, start, stop):
        scored[start] = score_range(b, s, p, time, start, stop)
        return scored[start]

    monkeypatch.setattr(montecarlo, "_score_range", recording)
    stats = monte_carlo(base, spec, policy, samples=samples, threads=threads)
    monkeypatch.undo()
    return stats, np.concatenate([scored[start] for start in sorted(scored)])


CASES = {
    "w1": (uniform_chain(21), normal_disorder(0.1, 0.1, seed=41), TransferPolicy(1, 1)),
    "w3": (apollaro_chain(21, 0.45, 0.75), uniform_disorder(0.1, 0.05, seed=42),
           TransferPolicy(3, 3)),
    "w5": (pst_chain(21), normal_disorder(0.1, 0.1, seed=43), TransferPolicy(5, 5)),
    "w2_peak": (uniform_chain(15), normal_disorder(0.05, 0.05, seed=44),
                TransferPolicy(2, 2, per_sample_peak=True)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_ensemble_elements_are_sample_fidelities(case, monkeypatch):
    # one sample more than a chunk: the second chunk holds a single row
    base, spec, policy = CASES[case]
    samples = montecarlo._CHUNK + 1
    stats, ensemble = ensemble_elements(monkeypatch, base, spec, policy, samples)
    assert ensemble.size == samples
    single = np.array([sample_fidelity(base, spec, i, policy) for i in range(samples)])
    assert ensemble.tobytes() == single.tobytes()
    assert stats.mean == float(np.mean(single))
    assert stats.minimum == float(np.min(single))
    assert stats.quantile_value == quantile_interpolated(single, 0.75)


def test_scores_do_not_depend_on_the_chunk_a_row_is_in():
    base, spec, policy = CASES["w5"]
    couplings, fields = draw_realizations(base, spec, 0, 100)
    times = np.full(100, policy.resolve_time(base))
    whole = score_rows(couplings, fields, 5, 5, times)
    chunks = np.concatenate([score_rows(couplings[i:i + 37], fields[i:i + 37], 5, 5,
                                        times[i:i + 37])
                             for i in range(0, 100, 37)])
    assert whole.tobytes() == chunks.tobytes()


def test_window5_identical_across_threads():
    base, spec, policy = CASES["w5"]
    samples = 3 * montecarlo._CHUNK + 5
    one = monte_carlo(base, spec, policy, samples=samples, threads=1)
    four = monte_carlo(base, spec, policy, samples=samples, threads=4)
    assert one == four


@pytest.mark.parametrize("window_in, window_out", [(1, 1), (3, 3), (5, 5), (2, 4)])
def test_kernel_matches_full_propagator_oracle(window_in, window_out):
    base = apollaro_chain(41, 0.45, 0.75)
    spec = normal_disorder(0.15, 0.1, seed=45)
    t = 21.3
    couplings, fields = draw_realizations(base, spec, 0, 80)
    got = score_rows(couplings, fields, window_in, window_out, np.full(80, t))
    for r in range(80):
        chain = sample_disordered_chain(base, spec, r)
        assert got[r] == pytest.approx(oracle_fidelity(chain, window_in, window_out, t),
                                       abs=1e-12)


def assert_kernel_matches_oracle(couplings, fields, window_in, window_out, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = score_rows(couplings, fields, window_in, window_out,
                         np.full(fields.shape[0], t))
    n = fields.shape[1]
    for r in range(fields.shape[0]):
        chain = Chain(n=n, couplings=couplings[r], fields=fields[r])
        assert got[r] == pytest.approx(oracle_fidelity(chain, window_in, window_out, t),
                                       abs=1e-12)


@pytest.mark.parametrize("window_in, window_out", [(3, 3), (5, 5), (2, 4)])
def test_kernel_matches_oracle_when_couplings_cross_zero(window_in, window_out, monkeypatch):
    base = pst_chain(41)
    couplings, fields = draw_realizations(base, uniform_disorder(1.5, 0.1, seed=46), 0, 64)
    assert (couplings < 0).any()
    calls = counted_eigendecompose(monkeypatch)
    assert_kernel_matches_oracle(couplings, fields, window_in, window_out, 33.7)
    assert not calls


@pytest.mark.parametrize("weak", [1e-4, 1e-8, 1e-12])
@pytest.mark.parametrize("n", [20, 21])
def test_kernel_matches_oracle_on_near_degenerate_mirror_chains(n, weak):
    # mirror halves joined by weak centre bonds: eigenvalues come in pairs
    # split by about weak (one bond, even n) or far less (two bonds, odd n)
    couplings = uniform_chain(n).couplings.copy()
    couplings[(n - 1) // 2] = couplings[n // 2 - 1] = weak
    chain = Chain(n=n, couplings=couplings, fields=np.zeros(n))
    assert np.min(np.diff(eigendecompose(chain).eigenvalues)) <= weak
    for window_in, window_out in [(1, 1), (3, 3), (5, 5), (2, 4)]:
        for t in (7.3, 311.0):
            assert_kernel_matches_oracle(couplings[None], chain.fields[None],
                                         window_in, window_out, t)


@pytest.mark.parametrize("window_in, window_out", [(1, 1), (3, 3), (5, 5), (2, 4)])
def test_kernel_matches_oracle_on_strongly_localized_chains(window_in, window_out,
                                                           monkeypatch):
    base = uniform_chain(201)
    couplings, fields = draw_realizations(base, normal_disorder(1.0, 1.0, seed=47), 0, 24)
    t = 100.5
    u = full_propagator(eigendecompose(Chain(n=201, couplings=couplings[0],
                                             fields=fields[0])), t)
    assert abs(u[200, 0]) < 1e-20  # nothing arrives: amplitudes near 1e-30
    calls = counted_eigendecompose(monkeypatch)
    assert_kernel_matches_oracle(couplings, fields, window_in, window_out, t)
    assert not calls


def test_kernel_keeps_weights_below_the_double_range(monkeypatch):
    # half-chain windows on a strongly disordered N=401 chain: the end weights
    # of states in the middle lie below the smallest double while their window
    # rows are huge, so each side's rows are scaled and the scales folded in
    base = uniform_chain(401)
    couplings, fields = draw_realizations(base, normal_disorder(1.0, 2.0, seed=18), 0, 16)
    _, log_weights, _, ok = montecarlo.end_spectrum(fields, couplings)
    assert ok.all() and (log_weights < np.log(np.finfo(float).tiny)).any()
    calls = counted_eigendecompose(monkeypatch)
    assert_kernel_matches_oracle(couplings, fields, 199, 199, 240.6)
    assert not calls


@pytest.mark.parametrize("window_in, window_out, recurrence", [
    (25, 26, True), (1, 51, True), (51, 1, True), (26, 26, False), (28, 28, False),
    (2, 50, False)])
def test_overlapping_windows_take_the_eigenvector_path(window_in, window_out, recurrence,
                                                       monkeypatch):
    # the recurrences from the two ends share a site once window_in +
    # window_out > n with both windows larger than 1
    base = uniform_chain(51)
    couplings, fields = draw_realizations(base, normal_disorder(0.2, 2.0, seed=48), 0, 16)
    calls = counted_eigendecompose(monkeypatch)
    assert_kernel_matches_oracle(couplings, fields, window_in, window_out, 30.0)
    assert len(calls) == (0 if recurrence else 16)


def test_per_sample_peak_scores_each_realization_at_its_own_peak():
    base, spec, policy = CASES["w2_peak"]
    fids = [sample_fidelity(base, spec, i, policy) for i in range(12)]
    hint = max(policy.resolve_time(base), 1.0)
    for i, got in enumerate(fids):
        chain = sample_disordered_chain(base, spec, i)
        t_peak = first_peak_time(chain, search_hint=hint)[0]
        assert got == pytest.approx(oracle_fidelity(chain, 2, 2, t_peak), abs=1e-12)


def test_per_sample_peak_solves_each_chunk_once(monkeypatch):
    base, spec, policy = CASES["w2_peak"]
    samples = montecarlo._CHUNK + 1
    hint = max(policy.resolve_time(base), 1.0)
    want = []
    for i in range(samples):
        chain = sample_disordered_chain(base, spec, i)
        want.append(score_chain(chain, 2, 2, first_peak_time(chain, search_hint=hint)[0]))
    solves = []
    end_spectrum = montecarlo.end_spectrum

    def counting(fields, couplings):
        solves.append(fields.shape[0])
        return end_spectrum(fields, couplings)

    monkeypatch.setattr(montecarlo, "end_spectrum", counting)
    _, ensemble = ensemble_elements(monkeypatch, base, spec, policy, samples)
    assert solves == [montecarlo._CHUNK, 1]
    assert ensemble.tobytes() == np.array(want).tobytes()


def test_window_guard_raises_on_a_block_beyond_unitary(monkeypatch):
    end_spectrum = montecarlo.end_spectrum

    def inflated(fields, couplings):
        lam, log_weights, signs, ok = end_spectrum(fields, couplings)
        return lam, log_weights + np.log(4.0), signs, ok

    monkeypatch.setattr(montecarlo, "end_spectrum", inflated)
    with pytest.raises(ValueError, match="window block has singular value"):
        score_chain(uniform_chain(9), 3, 3, 4.0)


@pytest.mark.parametrize("kwargs", [{"samples": 0}, {"quantile": 1.0}, {"quantile": 0.0},
                                    {"threads": 0}, {"threads": -3}, {"window_in": 0},
                                    {"window_out": 22}])
def test_run_arguments_are_checked_before_any_draw(kwargs, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew samples before checking the arguments")

    monkeypatch.setattr(montecarlo, "draw_realizations", no_draw)
    base, spec, policy = CASES["w1"]  # n = 21: window_out 22 is n + 1
    kwargs = dict(kwargs)
    windows = {name: kwargs.pop(name) for name in ("window_in", "window_out") if name in kwargs}
    policy = replace(policy, **windows)
    if windows:
        with pytest.raises(ValueError, match="window sizes"):
            sample_fidelity(base, spec, 0, policy)
    with pytest.raises(ValueError):
        monte_carlo(base, spec, policy, **{"samples": 4, **kwargs})
    with pytest.raises(ValueError):
        montecarlo.sweep(base, montecarlo.SweepAxis("sigma_J", [0.1]),
                         montecarlo.SweepAxis("sigma_B", [0.1]), policy,
                         **{"samples": 4, **kwargs})
