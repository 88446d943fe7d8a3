"""The batched ensemble kernel: stacked draws, chunked scoring, stacked window blocks.

References: a per-sample draw written with scalar _counter_uniform calls, and
the full N x N propagator (full eigensystem).
"""

from dataclasses import replace

import numpy as np
import pytest

from _helpers import (assert_matches_oracle, counted_eigendecompose, fallbacks_on_ensemble,
                      fallbacks_on_mirror_chain, fallbacks_on_weak_bond_chain, oracle_fidelity,
                      score_chain, score_rows)
from spintransfer import (DisorderSpec, Distribution, NumericalFailure, TransferPolicy,
                          apollaro_chain, fidelity_single, first_peak_time, monte_carlo,
                          normal_disorder, pst_chain, pst_transfer_time, sample_disordered_chain,
                          sample_fidelity, uniform_chain, uniform_disorder, zero_disorder)
from spintransfer import disorder, montecarlo, spectral
from spintransfer.disorder import _counter_uniform, draw_realizations
from spintransfer.encoding import _check_unitary

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
    """One realization drawn with scalar-index _counter_uniform calls."""
    couplings, fields = base.couplings, base.fields
    if spec.coupling_mode != "none" and spec.coupling_dist.param > 0:
        u = _counter_uniform(spec.master_seed, index, np.arange(base.n - 1, dtype=np.uint64), 0)
        d = spec.coupling_dist.draw(u)
        couplings = couplings + d if spec.coupling_mode == "additive" else couplings * (1.0 + d)
    if spec.field_mode != "none" and spec.field_dist.param > 0:
        u = _counter_uniform(spec.master_seed, index, np.arange(base.n, dtype=np.uint64), 1)
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


@pytest.mark.parametrize("spec", [normal_disorder(0.1, 0.1, seed=1), zero_disorder(seed=1)],
                         ids=["drawn", "disorder_free"])
def test_negative_sample_indices_are_refused_before_any_hash(spec, monkeypatch):
    # an index is hashed modulo 2^64: -1 used to read as index 2^64 - 1
    def no_hash(*args):
        raise AssertionError("hashed a negative sample index")

    monkeypatch.setattr(disorder, "_counter_uniform", no_hash)
    base = uniform_chain(7)
    if spec.draws:  # positive control: index 0 reaches the hash
        with pytest.raises(AssertionError, match="hashed"):
            draw_realizations(base, spec, 0, 2)
    for call in (lambda: draw_realizations(base, spec, -1, 2),
                 lambda: sample_disordered_chain(base, spec, -1),
                 lambda: sample_fidelity(base, spec, -1, TransferPolicy(1, 1))):
        with pytest.raises(ValueError, match="sample indices must be >= 0, got -1"):
            call()


def ensemble_elements(monkeypatch, base, spec, policy, samples, threads=1):
    """(stats, per-sample fidelities) of one monte_carlo run, recorded by chunk."""
    scored = []
    original = montecarlo._score_rows

    def recording(*args):
        scored.append(original(*args))
        return scored[-1]

    monkeypatch.setattr(montecarlo, "_score_rows", recording)
    stats = monte_carlo(base, spec, policy, samples=samples, threads=threads)
    monkeypatch.undo()
    return stats, np.concatenate(scored)  # one call per chunk, in index order


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
    assert stats.quantile_value == float(np.quantile(single, 0.75, method="linear"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_ensemble_elements_do_not_depend_on_the_chunk_split(case, monkeypatch):
    base, spec, policy = CASES[case]
    samples = 45
    t = policy.resolve_time(base)
    _, ensemble = ensemble_elements(monkeypatch, base, spec, policy, samples)
    rows = montecarlo._chunk_rows(base.n, policy.window_in, policy.window_out)
    for size in (1, 7, rows, samples):
        bounds = [(start, min(start + size, samples)) for start in range(0, samples, size)]
        forced = np.concatenate([montecarlo._score_rows(*draw_realizations(base, spec, *b),
                                                        policy, np.full(b[1] - b[0], t))
                                 for b in bounds])
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
    draw_checked = montecarlo._draw_checked

    def recording_range(b, s, time, start, stop, variates=None):
        ranges.append((start, stop))
        return draw_checked(b, s, time, start, stop, variates)

    def recording(producer):
        def call(couplings, fields, *args):
            handed.append(fields.shape[0])
            return producer(couplings, fields, *args)
        return call

    monkeypatch.setattr(montecarlo, "_draw_checked", recording_range)
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


@pytest.mark.parametrize("name, solved", [("w7", 12), ("weak4", 8), ("pair", 8),
                                          ("mirror_fields", 8), ("weak_end", 0)])
def test_kernel_solves_window_rows_across_a_weak_bond(name, solved, monkeypatch):
    # every row but weak4's (2, 2), pair's (2, 4), (4, 2), (3, 3) and mirror_fields' (4, 4)
    # runs a recurrence across the weak link; their rounding estimate declines them
    assert fallbacks_on_weak_bond_chain("spectral", name, monkeypatch) == solved


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


# ---------------------------------------------------------------------------
# top singular values from the Gram matrix, against np.linalg.svd
# ---------------------------------------------------------------------------

def svd_top(blocks):
    return np.linalg.svd(blocks, compute_uv=False)[:, 0]


def unitary_slices(rng, rows, cols, count):
    """count blocks of norm <= 1: the top-left rows x cols of random 8 x 8 unitaries."""
    z = rng.normal(size=(count, 8, 8)) + 1j * rng.normal(size=(count, 8, 8))
    return np.linalg.qr(z)[0][:, :rows, :cols]


@pytest.mark.parametrize("rows", range(1, 6))
@pytest.mark.parametrize("cols", range(1, 6))
def test_top_singular_value_matches_the_svd_on_every_block_shape(rows, cols):
    # the Gram matrix is B^H B for rows >= cols and B B^H otherwise: both orientations
    rng = np.random.default_rng(10 * rows + cols)
    scaled = rng.normal(size=(20, rows, cols)) + 1j * rng.normal(size=(20, rows, cols))
    scaled /= svd_top(scaled)[:, None, None] * rng.uniform(1.0, 4.0, size=(20, 1, 1))
    blocks = np.concatenate([unitary_slices(rng, rows, cols, 20), scaled])
    top = montecarlo._top_singular(blocks)
    assert np.abs(top - svd_top(blocks)).max() <= 1e-15
    for r in range(blocks.shape[0]):  # a block scores the same in any stack
        assert montecarlo._top_singular(blocks[r:r + 1]).tobytes() == top[r:r + 1].tobytes()


@pytest.mark.parametrize("window", [3, 5])
def test_top_singular_value_matches_the_svd_on_near_unitary_blocks(window):
    # PST N=51 at its transfer time: every singular value of the window block, and of its
    # slices one site short on either side, is within 1e-9 of 1, where the Gram matrix is
    # closest to the identity
    chain = pst_chain(51)
    eig, time = spectral.eigendecompose(chain), pst_transfer_time(chain)
    for window_in, window_out in ((window, window), (window, window - 1), (window - 1, window)):
        block = spectral.window_amplitudes(eig, window_in, window_out, time)[None]
        assert np.abs(np.linalg.svd(block, compute_uv=False) - 1.0).max() <= 1e-9
        assert abs(montecarlo._top_singular(block) - svd_top(block))[0] <= 1e-15


def test_top_singular_value_of_zero_and_rank_one_blocks():
    rng = np.random.default_rng(12)
    for rows, cols in ((1, 1), (1, 4), (3, 3), (5, 2), (4, 5)):
        zero = np.zeros((3, rows, cols), dtype=complex)
        assert (montecarlo._top_singular(zero) == 0.0).all()
        u = rng.normal(size=(6, rows)) + 1j * rng.normal(size=(6, rows))
        v = rng.normal(size=(6, cols)) + 1j * rng.normal(size=(6, cols))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v *= rng.uniform(0.0, 1.0, size=(6, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
        blocks = u[:, :, None] * v[:, None, :].conj()
        assert np.abs(montecarlo._top_singular(blocks) - svd_top(blocks)).max() <= 1e-15


def test_top_singular_value_is_nan_where_a_block_is_not_finite_or_not_ok():
    rng = np.random.default_rng(13)
    for rows, cols in ((1, 1), (3, 3), (2, 5)):
        blocks = unitary_slices(rng, rows, cols, 6)
        blocks[1, 0, -1] = np.nan
        blocks[2, -1, 0] = np.inf
        blocks[3, 0, 0] = complex(0.0, -np.inf)
        ok = np.array([True, True, True, True, False, True])
        top = montecarlo._top_singular(blocks, ok)
        assert np.isnan(top[1:5]).all()
        assert top[[0, 5]].tobytes() == montecarlo._top_singular(blocks[[0, 5]]).tobytes()
        assert np.isnan(montecarlo._top_singular(blocks, np.zeros(6, dtype=bool))).all()
        assert montecarlo._top_singular(blocks[:0]).shape == (0,)


def test_top_singular_value_below_the_gram_matrix_range_scores_as_the_svd():
    # entries of 1e-160 square to 1e-320, where the Gram matrix is subnormal or zero: the
    # top singular value loses its digits, and the fidelity, which sees none of them, its none
    rng = np.random.default_rng(14)
    for rows, cols in ((1, 1), (3, 3), (5, 5), (2, 4), (4, 1)):
        blocks = unitary_slices(rng, rows, cols, 10) * 1e-160
        top = montecarlo._top_singular(blocks)
        assert np.isfinite(top).all()
        assert fidelity_single(top).tobytes() == fidelity_single(svd_top(blocks)).tobytes()


def test_the_guard_refuses_a_block_whose_gram_matrix_overflows():
    # a finite block beyond 1e154 is no window block: its top singular value reads inf, with
    # no warning, and the unitarity guard refuses it; the other blocks score as alone
    rng = np.random.default_rng(15)
    blocks = unitary_slices(rng, 3, 3, 4)
    blocks[[1, 3]] *= 1e200
    top = montecarlo._top_singular(blocks)
    assert np.isposinf(top[[1, 3]]).all()
    assert top[[0, 2]].tobytes() == montecarlo._top_singular(blocks[[0, 2]]).tobytes()
    with pytest.raises(ValueError, match="singular value inf > 1"):
        _check_unitary(top)


def test_no_scoring_path_takes_an_svd(monkeypatch):
    # propagated, spectral and eigensystem-fallback rows all reach sigma_1 through
    # _top_singular's Gram matrix
    def no_svd(*args, **kwargs):
        raise AssertionError("a scoring path took an SVD")

    base = uniform_chain(9)
    couplings, fields = draw_realizations(base, normal_disorder(0.1, 0.1, seed=16), 0, 6)
    times = np.full(6, 4.0)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for window_in, window_out in ((3, 3), (2, 4), (5, 5)):  # 5 + 5 > 9: the eigensystem
        propagated = montecarlo._score_fixed_time(couplings, fields, window_in, window_out,
                                                  times)
        solved = score_rows(couplings, fields, window_in, window_out, times)
        assert np.abs(propagated - solved).max() <= 1e-12


@pytest.mark.parametrize("kwargs", [{"samples": 0}, {"quantile": 1.0}, {"quantile": 0.0},
                                    {"threads": 0}, {"threads": -3}, {"window_in": 0},
                                    {"window_out": 22}, {"time": -1.0}, {"time": np.nan},
                                    {"time": 2.0 ** 51}])
def test_run_arguments_are_checked_before_any_draw(kwargs, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew samples before checking the arguments")

    # every draw of an ensemble or a sample goes through this one name
    monkeypatch.setattr(montecarlo, "standard_variates", no_draw)
    base, spec, policy = CASES["w1"]  # n = 21: window_out 22 is n + 1
    # positive control: with valid arguments each entry point reaches the patched draw
    axes = montecarlo.SweepAxis("sigma_J", [0.1]), montecarlo.SweepAxis("sigma_B", [0.1])
    for valid in (lambda: sample_fidelity(base, spec, 0, policy),
                  lambda: monte_carlo(base, spec, policy, samples=4),
                  lambda: montecarlo.sweep(base, *axes, policy, samples=4)):
        with pytest.raises(AssertionError, match="drew samples"):
            valid()
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
        montecarlo.sweep(base, *axes, policy, **{"samples": 4, **kwargs})
