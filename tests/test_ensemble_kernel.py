"""The batched ensemble kernel: stacked draws, chunked scoring, stacked window blocks.

References: a per-sample draw written with scalar counter_uniform calls, and
the full N x N propagator (full eigensystem).
"""

from dataclasses import replace

import numpy as np
import pytest

from _helpers import (assert_matches_oracle, counted_eigendecompose, fallbacks_on_ensemble,
                      fallbacks_on_mirror_chain, oracle_fidelity, score_chain, score_rows)
from spintransfer import (DisorderSpec, Distribution, NumericalFailure, TransferPolicy,
                          apollaro_chain, counter_uniform, first_peak_time, monte_carlo,
                          normal_disorder, pst_chain, quantile_interpolated,
                          sample_disordered_chain, sample_fidelity, uniform_chain,
                          uniform_disorder, zero_disorder)
from spintransfer import montecarlo, spectral
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


def two_chunks(monkeypatch, base, policy, rows=64):
    """Sets the stack budget to give base and policy chunks of rows realizations, and
    returns rows + 1 samples: two chunks, the second one row longer."""
    size = max(policy.window_in, policy.window_out)
    monkeypatch.setattr(montecarlo, "_STACK", rows * (base.n + 2) * size)
    assert montecarlo._chunk_rows(base.n, policy.window_in, policy.window_out) == rows
    assert montecarlo._chunks(rows + 1, rows) == [(0, rows // 2), (rows // 2, rows + 1)]
    return rows + 1


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
    # one sample more than a chunk: two chunks
    base, spec, policy = CASES[case]
    samples = two_chunks(monkeypatch, base, policy)
    stats, ensemble = ensemble_elements(monkeypatch, base, spec, policy, samples)
    assert ensemble.size == samples
    single = np.array([sample_fidelity(base, spec, i, policy) for i in range(samples)])
    assert ensemble.tobytes() == single.tobytes()
    t = policy.resolve_time(base)  # the resolved time passed in scores the same
    timed = np.array([sample_fidelity(base, spec, i, policy, time=t) for i in range(samples)])
    assert ensemble.tobytes() == timed.tobytes()
    assert stats.mean == float(np.mean(single))
    assert stats.minimum == float(np.min(single))
    assert stats.quantile_value == quantile_interpolated(single, 0.75)


@pytest.mark.parametrize("case", sorted(CASES))
def test_ensemble_elements_do_not_depend_on_the_chunk_split(case, monkeypatch):
    base, spec, policy = CASES[case]
    samples = 45
    t = policy.resolve_time(base)
    _, ensemble = ensemble_elements(monkeypatch, base, spec, policy, samples)
    rows = montecarlo._chunk_rows(base.n, policy.window_in, policy.window_out)
    for size in (1, 7, rows, samples):
        forced = np.concatenate([montecarlo._score_range(base, spec, policy, t, start,
                                                         min(start + size, samples))
                                 for start in range(0, samples, size)])
        assert forced.tobytes() == ensemble.tobytes(), size


@pytest.mark.parametrize("base, window, samples, chunks", [
    (uniform_chain(201), 5, 200, 4),              # 64 rows, propagated
    (pst_chain(51), 5, 600, 3),                   # 247 rows, spectral
    (apollaro_chain(51, 0.45, 0.75), 3, 500, 2),  # 412 rows, propagated
], ids=["uniform201_w5", "pst51_w5", "apollaro51_w3"])
def test_monte_carlo_chunks_hold_at_most_the_derived_rows(base, window, samples, chunks,
                                                          monkeypatch):
    rows = montecarlo._chunk_rows(base.n, window, window)
    assert rows == 65536 // ((base.n + 2) * window)
    ranges, handed = [], []
    score_range = montecarlo._score_range

    def recording_range(b, s, p, time, start, stop):
        ranges.append((start, stop))
        return score_range(b, s, p, time, start, stop)

    def recording(producer):
        def call(couplings, fields, *args):
            handed.append(fields.shape[0])
            return producer(couplings, fields, *args)
        return call

    monkeypatch.setattr(montecarlo, "_score_range", recording_range)
    for name in ("_chebyshev_tops", "_spectral_tops"):
        monkeypatch.setattr(montecarlo, name, recording(getattr(montecarlo, name)))
    monte_carlo(base, normal_disorder(0.1, 0.1, seed=45), TransferPolicy(window, window),
                samples=samples)
    sizes = [stop - start for start, stop in ranges]
    assert len(ranges) == chunks == -(-samples // rows)
    assert [start for start, _ in ranges] == [0] + [stop for _, stop in ranges[:-1]]
    assert ranges[-1][1] == samples and max(sizes) - min(sizes) <= 1
    assert max(handed) <= rows and sum(handed) == samples


def test_scores_do_not_depend_on_the_chunk_a_row_is_in():
    base, spec, policy = CASES["w5"]
    couplings, fields = draw_realizations(base, spec, 0, 100)
    times = np.full(100, policy.resolve_time(base))
    whole = score_rows(couplings, fields, 5, 5, times)
    chunks = np.concatenate([score_rows(couplings[i:i + 37], fields[i:i + 37], 5, 5,
                                        times[i:i + 37])
                             for i in range(0, 100, 37)])
    assert whole.tobytes() == chunks.tobytes()


# The hard regimes of _helpers, scored by the spectral producer; test_propagation.py scores
# the same table by the Chebyshev producer.

@pytest.mark.parametrize("window_in, window_out", [(1, 1), (3, 3), (5, 5), (2, 4), (4, 2)])
def test_kernel_matches_full_propagator_oracle(window_in, window_out, monkeypatch):
    assert fallbacks_on_ensemble("spectral", "apollaro", window_in, window_out,
                                 monkeypatch) == 0


@pytest.mark.parametrize("window_in, window_out", [(3, 3), (5, 5), (2, 4), (4, 2)])
def test_kernel_matches_oracle_when_couplings_cross_zero(window_in, window_out, monkeypatch):
    assert fallbacks_on_ensemble("spectral", "couplings_cross_zero", window_in, window_out,
                                 monkeypatch) == 0


@pytest.mark.parametrize("weak", [1e-4, 1e-8, 1e-12])
@pytest.mark.parametrize("n", [20, 21])
def test_kernel_matches_oracle_on_near_degenerate_mirror_chains(n, weak, monkeypatch):
    # the odd chain's pairs split by far less than 1e-12 repeat in double precision:
    # one eigensystem per window and time
    calls = fallbacks_on_mirror_chain("spectral", n, weak, monkeypatch)
    assert calls == (10 if (n, weak) == (21, 1e-12) else 0)


@pytest.mark.parametrize("window_in, window_out", [(1, 1), (3, 3), (5, 5), (2, 4), (4, 2)])
def test_kernel_matches_oracle_on_strongly_localized_chains(window_in, window_out,
                                                           monkeypatch):
    assert fallbacks_on_ensemble("spectral", "strongly_localized", window_in, window_out,
                                 monkeypatch) == 0


def test_kernel_keeps_weights_below_the_double_range(monkeypatch):
    # half-chain windows on a strongly disordered N=401 chain: the end weights
    # of states in the middle lie below the smallest double while their window
    # rows are huge, so each side's rows are scaled and the scales folded in
    base = uniform_chain(401)
    couplings, fields = draw_realizations(base, normal_disorder(1.0, 2.0, seed=18), 0, 16)
    _, log_weights, _, ok = montecarlo.end_spectrum(fields, couplings)
    assert ok.all() and (log_weights < np.log(np.finfo(float).tiny)).any()
    calls = counted_eigendecompose(monkeypatch, montecarlo)
    assert_matches_oracle("spectral", couplings, fields, 240.6, 199, 199)
    assert not calls


@pytest.mark.parametrize("window_in, window_out, recurrence", [
    (25, 26, True), (1, 51, True), (51, 1, True), (26, 26, False), (28, 28, False),
    (2, 50, False), (50, 2, False)])
def test_overlapping_windows_take_the_eigenvector_path(window_in, window_out, recurrence,
                                                       monkeypatch):
    # the recurrences from the two ends share a site once window_in +
    # window_out > n with both windows larger than 1
    calls = fallbacks_on_ensemble("spectral", "overlapping_windows", window_in, window_out,
                                  monkeypatch)
    assert calls == (0 if recurrence else 16)


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
    samples = two_chunks(monkeypatch, base, policy)
    policy = replace(policy, time=policy.resolve_time(base))  # no solve of the base chain
    hint = max(policy.time, 1.0)
    want = []
    for i in range(samples):
        chain = sample_disordered_chain(base, spec, i)
        want.append(score_chain(chain, 2, 2, first_peak_time(chain, search_hint=hint)[0]))
    solves = []
    end_spectrum = spectral.end_spectrum

    def counting(fields, couplings):
        solves.append(fields.shape[0])
        return end_spectrum(fields, couplings)

    monkeypatch.setattr(spectral, "end_spectrum", counting)
    _, ensemble = ensemble_elements(monkeypatch, base, spec, policy, samples)
    assert solves == [samples // 2, samples - samples // 2]
    assert ensemble.tobytes() == np.array(want).tobytes()


def test_per_sample_peak_scores_a_row_with_no_peak_at_the_resolved_time(monkeypatch):
    # three of these realizations have no arrival peak in the search window; they are
    # scored at the base chain's time, as a fixed-time run scores them
    base = apollaro_chain(31, 0.45, 0.75)
    spec = normal_disorder(0.2, 0.5, seed=7)
    policy = TransferPolicy(2, 2, per_sample_peak=True)
    samples = 150
    t = policy.resolve_time(base)
    hint = max(t, 1.0)
    lost = []
    for i in range(samples):
        try:
            first_peak_time(sample_disordered_chain(base, spec, i), search_hint=hint)
        except NumericalFailure:
            lost.append(i)
    assert lost == [4, 33, 61]
    stats, ensemble = ensemble_elements(monkeypatch, base, spec, policy, samples)
    assert stats.samples == samples and np.isfinite(ensemble).all()
    fixed = replace(policy, per_sample_peak=False)
    for i in range(samples):
        if i in lost:
            assert ensemble[i] == sample_fidelity(base, spec, i, fixed, time=t)
            assert ensemble[i] == sample_fidelity(base, spec, i, policy, time=t)
        else:  # unchanged: scored at its own peak, as before
            t_peak = first_peak_time(sample_disordered_chain(base, spec, i), search_hint=hint)[0]
            assert ensemble[i] == score_rows(*draw_realizations(base, spec, i, i + 1), 2, 2,
                                             np.array([t_peak]))[0]


def inflated_by_four(fields, couplings):
    """Every weight times 4: four times the block."""
    lam, log_weights, signs, ok = spectral.end_spectrum(fields, couplings)
    return lam, log_weights + np.log(4.0), signs, ok


def all_on_one_eigenvalue(fields, couplings):
    """Weight 1 + 1e-9 on the lowest eigenvalue and 0 on the others: an end-to-end
    amplitude beyond 1."""
    lam, log_weights, signs, ok = spectral.end_spectrum(fields, couplings)
    log_weights[:] = -np.inf
    log_weights[:, 0] = np.log1p(1e-9)
    return lam, log_weights, signs, ok


def test_window_guard_raises_on_a_block_beyond_unitary(monkeypatch):
    # a singular value beyond 1 cannot come from a unitary evolution
    for weights, n, window, t in ((inflated_by_four, 9, 3, 4.0),
                                  (all_on_one_eigenvalue, 5, 1, 3.0)):
        monkeypatch.setattr(montecarlo, "end_spectrum", weights)
        with pytest.raises(ValueError, match="window block has singular value"):
            score_chain(uniform_chain(n), window, window, t)


@pytest.mark.parametrize("kwargs", [{"samples": 0}, {"quantile": 1.0}, {"quantile": 0.0},
                                    {"threads": 0}, {"threads": -3}, {"window_in": 0},
                                    {"window_out": 22}, {"time": -1.0}, {"time": np.nan},
                                    {"time": 2.0 ** 51}])
def test_run_arguments_are_checked_before_any_draw(kwargs, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew samples before checking the arguments")

    monkeypatch.setattr(montecarlo, "draw_realizations", no_draw)
    base, spec, policy = CASES["w1"]  # n = 21: window_out 22 is n + 1
    kwargs = dict(kwargs)
    fields = {name: kwargs.pop(name) for name in ("window_in", "window_out", "time")
              if name in kwargs}
    if "time" in fields:  # a bad time passed to sample_fidelity directly
        with pytest.raises(ValueError, match="window time"):
            sample_fidelity(base, spec, 0, policy, time=fields["time"])
    policy = replace(policy, **fields)
    if fields:
        with pytest.raises(ValueError, match="window sizes|window time"):
            sample_fidelity(base, spec, 0, policy)
    with pytest.raises(ValueError):
        monte_carlo(base, spec, policy, **{"samples": 4, **kwargs})
    if "threads" in kwargs:
        return  # monte_carlo alone still takes a thread count
    with pytest.raises(ValueError):
        montecarlo.sweep(base, montecarlo.SweepAxis("sigma_J", [0.1]),
                         montecarlo.SweepAxis("sigma_B", [0.1]), policy,
                         **{"samples": 4, **kwargs})
