import json

import numpy as np
import pytest

from spintransfer import (Chain, best_excitation_count, eigendecompose, end_to_end_fidelity,
                          fidelity_haselgrove, fidelity_multi, fidelity_single, first_peak_time,
                          full_propagator, optimal_encoding, pst_chain, pst_transfer_time,
                          save_encoding, uniform_chain, window_amplitudes)

SQRT2M1 = np.sqrt(2) - 1


def random_chain(rng, n):
    return Chain(n=n, couplings=rng.uniform(-1.5, 1.5, n - 1), fields=rng.uniform(-1, 1, n))


# ---------------------------------------------------------------------------
# window block
# ---------------------------------------------------------------------------

def test_full_window_is_unitary():
    eig = eigendecompose(uniform_chain(6))
    block = window_amplitudes(eig, 6, 6, 2.3)
    s = np.linalg.svd(block, compute_uv=False)
    assert np.allclose(s, 1.0, atol=1e-10)
    assert np.allclose(block, full_propagator(eig, 2.3), atol=1e-12)


def test_disjoint_windows_at_t0_are_dark():
    eig = eigendecompose(uniform_chain(8))
    block = window_amplitudes(eig, 3, 3, 0.0)
    assert np.max(np.abs(block)) < 1e-14


def test_pst_end_to_end_entry():
    chain = pst_chain(6)
    t0 = pst_transfer_time(chain)
    block = window_amplitudes(eigendecompose(chain), 1, 1, t0)
    assert block.shape == (1, 1)
    assert abs(block[0, 0]) == pytest.approx(1.0, abs=1e-9)


def test_singular_values_bounded_random_ensemble():
    rng = np.random.default_rng(53)
    for _ in range(60):
        n = int(rng.integers(3, 25))
        eig = eigendecompose(random_chain(rng, n))
        kin = int(rng.integers(1, n + 1))
        kout = int(rng.integers(1, n + 1))
        sol = optimal_encoding(eig, kin, kout, rng.uniform(0, 40))
        assert np.all(sol.singular_values <= 1 + 1e-10)
        assert np.all(np.diff(sol.singular_values) <= 1e-12)


# ---------------------------------------------------------------------------
# optimal encoding
# ---------------------------------------------------------------------------

def test_encoding_gauge_and_pairing():
    rng = np.random.default_rng(59)
    chain = random_chain(rng, 12)
    eig = eigendecompose(chain)
    block = window_amplitudes(eig, 4, 5, 6.0)
    sol = optimal_encoding(eig, 4, 5, 6.0)
    k = sol.singular_values.size
    gram_in = sol.input_vectors.conj() @ sol.input_vectors.T
    gram_out = sol.output_vectors.conj() @ sol.output_vectors.T
    assert np.max(np.abs(gram_in - np.eye(k))) <= 1e-10
    assert np.max(np.abs(gram_out - np.eye(k))) <= 1e-10
    for i in range(k):
        mapped = block @ sol.input_vectors[i]
        assert np.max(np.abs(mapped - sol.singular_values[i] * sol.output_vectors[i])) <= 1e-9
        top = sol.input_vectors[i][np.argmax(np.abs(sol.input_vectors[i]))]
        assert abs(top.imag) <= 1e-12 and top.real > 0


def test_encoding_guard_rejects_a_block_beyond_unitary():
    eig = eigendecompose(uniform_chain(9))
    inflated = type(eig)(eigenvalues=eig.eigenvalues, eigenvectors=2.0 * eig.eigenvectors)
    with pytest.raises(ValueError, match="window block has singular value"):
        optimal_encoding(inflated, 3, 3, 4.0)


def test_encoding_1x1_magnitude():
    eig = eigendecompose(uniform_chain(5))
    sol = optimal_encoding(eig, 1, 1, 1.3)
    assert sol.singular_values[0] == pytest.approx(abs(window_amplitudes(eig, 1, 1, 1.3)[0, 0]),
                                                   abs=1e-12)


def test_encoding_beats_bare_transfer_on_uniform51():
    chain = uniform_chain(51)
    t0, _ = first_peak_time(chain)
    eig = eigendecompose(chain)
    bare = abs(window_amplitudes(eig, 1, 1, t0)[0, 0])
    sol = optimal_encoding(eig, 5, 5, t0)
    assert sol.singular_values[0] > bare


def test_window_growth_never_hurts():
    rng = np.random.default_rng(61)
    chain = random_chain(rng, 14)
    eig = eigendecompose(chain)
    t = 5.0
    tops = []
    for k in range(1, 8):
        sol = optimal_encoding(eig, k, k, t)
        tops.append(sol.singular_values[0])
    assert np.all(np.diff(tops) >= -1e-12)


def test_central_overlap_gives_perfect_code():
    # windows of ceil((N+1)/2) sites at both ends share the central site at t=0
    for n in (7, 10):
        k = (n + 1 + 1) // 2
        eig = eigendecompose(uniform_chain(n))
        sol = optimal_encoding(eig, k, k, 0.0)
        assert sol.singular_values[0] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# fidelity formulas
# ---------------------------------------------------------------------------

def test_fidelity_single_reference_points():
    assert fidelity_single(1.0) == pytest.approx(1.0, abs=1e-15)
    assert fidelity_single(0.0) == pytest.approx(0.5, abs=1e-15)
    assert fidelity_single(SQRT2M1) == pytest.approx(2 / 3, abs=1e-12)
    with pytest.raises(ValueError):
        fidelity_single(1.5)
    with pytest.raises(ValueError):
        fidelity_single(-0.1)
    with pytest.raises(ValueError):
        fidelity_single(np.nan)


def test_fidelity_multi_reference_points():
    assert fidelity_multi([1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    # frozen by direct evaluation: 1/3 + 1.72^2/6 + (1 - 0.5184 - 0.19*0.36)/6
    assert fidelity_multi([0.9, 0.8]) == pytest.approx(0.895267, abs=1e-6)
    for lam in (0.3, 0.77, 1.0):
        assert fidelity_multi([lam]) == pytest.approx(fidelity_single(lam), abs=1e-15)


def test_fidelity_haselgrove_reference_points():
    assert fidelity_haselgrove([0.9, 0.8]) == pytest.approx(1 / 3 + 1.72 ** 2 / 6, abs=1e-12)
    assert fidelity_haselgrove([0.9, 0.8]) == pytest.approx(0.826400, abs=1e-6)
    assert fidelity_haselgrove([0.42]) == pytest.approx(fidelity_single(0.42), abs=1e-15)
    assert fidelity_haselgrove([1.0, 1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)


def test_best_excitation_count_cases():
    n_opt, f_opt = best_excitation_count([0.45, 0.45])
    assert n_opt == 1
    assert f_opt == pytest.approx(0.68375, abs=1e-6)
    assert fidelity_multi([0.45, 0.45]) == pytest.approx(0.628165, abs=1e-5)
    n_opt, f_opt = best_excitation_count([1.0, 0.9, 0.1])
    assert n_opt == 1 and f_opt == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        best_excitation_count([0.3, 0.5])
    with pytest.raises(ValueError):
        best_excitation_count([0.9, np.nan, 0.1])


def test_best_excitation_count_prefers_multi_when_it_wins():
    # far below the single-excitation threshold, a wide equal-strength code wins
    lams = [0.3] * 15
    assert fidelity_multi(lams) > fidelity_single(0.3)
    n_opt, f_opt = best_excitation_count(lams)
    assert n_opt > 1
    assert f_opt >= fidelity_multi(lams)


def test_multi_excitation_crossover_count():
    # minimum number of equal-strength excitations that can ever beat the
    # single-excitation code, scanned over the sub-threshold range
    crossover = np.inf
    for lam in np.linspace(0.01, SQRT2M1, 500):
        f1 = fidelity_single(lam)
        for n in range(2, 40):
            if fidelity_multi([lam] * n) > f1:
                crossover = min(crossover, n)
                break
    assert crossover == 13


def test_enhancement_is_nonnegative():
    rng = np.random.default_rng(67)
    for _ in range(10_000):
        lam = np.sort(rng.uniform(0, 1, rng.integers(1, 8)))[::-1]
        assert fidelity_multi(lam) - fidelity_haselgrove(lam) >= -1e-12


def test_single_excitation_optimal_above_threshold():
    rng = np.random.default_rng(71)
    for _ in range(10_000):
        lam1 = rng.uniform(SQRT2M1, 1.0)
        rest = np.sort(rng.uniform(0, lam1, rng.integers(0, 9)))[::-1]
        lam = np.concatenate([[lam1], rest])
        f1 = fidelity_single(lam1)
        for k in range(2, lam.size + 1):
            assert f1 >= fidelity_multi(lam[:k]) - 1e-12
        n_opt, _ = best_excitation_count(lam)
        assert n_opt == 1


def test_monotone_in_added_excitation():
    rng = np.random.default_rng(73)
    for _ in range(1_000):
        lam = np.sort(rng.uniform(0, 1, rng.integers(1, 6)))[::-1]
        grid = np.linspace(0, lam[-1], 7)
        vals = [fidelity_multi(np.concatenate([lam, [g]])) for g in grid]
        assert np.all(np.diff(vals) >= -1e-12)


def test_end_to_end_fidelity_reference_points():
    chain = pst_chain(6)
    eig = eigendecompose(chain)
    assert end_to_end_fidelity(eig, pst_transfer_time(chain)) == pytest.approx(1.0, abs=1e-9)
    assert end_to_end_fidelity(eig, 0.0) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_encoding_serialization(tmp_path):
    chain = uniform_chain(9)
    eig = eigendecompose(chain)
    sol = optimal_encoding(eig, 3, 3, 4.0)
    path = tmp_path / "encoding.json"
    save_encoding(sol, path)
    data = json.loads(path.read_text())
    assert data["format_version"] == 1
    assert data["time"] == 4.0
    assert len(data["singular_values"]) == 3
    vec = data["input_vectors"][0]
    assert vec["sites"] == [1, 2, 3]
    flat = np.array(vec["components"])
    recon = flat[0::2] + 1j * flat[1::2]
    assert np.allclose(recon, sol.input_vectors[0], atol=1e-15)


def test_asymmetric_encoding_writes_its_end_sites(tmp_path):
    n = 9
    sol = optimal_encoding(eigendecompose(uniform_chain(n)), 3, 2, 4.0)
    path = tmp_path / "encoding.json"
    save_encoding(sol, path)
    data = json.loads(path.read_text())
    assert len(data["singular_values"]) == 2
    for vec in data["input_vectors"]:
        assert vec["sites"] == [1, 2, 3] and len(vec["components"]) == 6
    for vec in data["output_vectors"]:
        assert vec["sites"] == [n - 1, n] and len(vec["components"]) == 4


@pytest.mark.parametrize("scorer", [window_amplitudes, optimal_encoding])
@pytest.mark.parametrize("size_in, size_out, time, match", [
    (1, 1, np.nan, "window time must be finite"),
    (1, 1, np.inf, "window time must be finite"),
    (2, 3, -0.5, "window time must be >= 0"),
    (0, 1, 1.0, "window sizes must be in"),
    (1, 0, 1.0, "window sizes must be in"),
    (7, 1, 1.0, "window sizes must be in"),
    (1, 7, 1.0, "window sizes must be in"),
])
def test_window_scorers_refuse_bad_windows_and_times(scorer, size_in, size_out, time, match):
    eig = eigendecompose(uniform_chain(6))
    with pytest.raises(ValueError, match=match):
        scorer(eig, size_in, size_out, time)
