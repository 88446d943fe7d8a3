import numpy as np
import pytest

from spintransfer import (DisorderSpec, Distribution, normal_disorder, sample_disordered_chain,
                          uniform_chain, uniform_disorder, zero_disorder)
from spintransfer.disorder import _counter_uniform


def test_spec_validation():
    with pytest.raises(ValueError):
        DisorderSpec(field_mode="multiplicative")
    with pytest.raises(ValueError):
        DisorderSpec(coupling_mode="bogus")
    with pytest.raises(ValueError):
        Distribution("normal", -0.1)
    with pytest.raises(ValueError):
        Distribution("triangular", 0.1)


@pytest.mark.parametrize("kind", ["uniform", "normal"])
@pytest.mark.parametrize("param", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_distribution_parameter_is_rejected(kind, param):
    # NaN > 0 is False: a NaN width used to turn the disorder off without a word
    with pytest.raises(ValueError, match="must be finite"):
        Distribution(kind, param)
    with pytest.raises(ValueError, match="must be finite"):
        normal_disorder(param, 0.0, seed=1)
    with pytest.raises(ValueError, match="must be finite"):
        uniform_disorder(0.0, param, seed=1)


def test_zero_disorder_is_identity():
    base = uniform_chain(9)
    out = sample_disordered_chain(base, zero_disorder(seed=7), 3)
    assert np.array_equal(out.couplings, base.couplings)
    assert np.array_equal(out.fields, base.fields)


def test_multiplicative_uniform_bound():
    base = uniform_chain(31)
    base.couplings *= np.linspace(0.5, 2.0, 30)
    spec = DisorderSpec(coupling_mode="multiplicative",
                        coupling_dist=Distribution("uniform", 0.1), master_seed=5)
    for idx in range(50):
        out = sample_disordered_chain(base, spec, idx)
        assert np.all(np.abs(out.couplings - base.couplings) <= 0.1 * np.abs(base.couplings) + 1e-15)


def test_determinism_and_index_separation():
    base = uniform_chain(21)
    spec = normal_disorder(0.1, 0.05, seed=123)
    a = sample_disordered_chain(base, spec, 4)
    b = sample_disordered_chain(base, spec, 4)
    assert np.array_equal(a.couplings, b.couplings)
    assert np.array_equal(a.fields, b.fields)
    c = sample_disordered_chain(base, spec, 5)
    assert not np.array_equal(a.couplings, c.couplings)
    other_seed = sample_disordered_chain(base, normal_disorder(0.1, 0.05, seed=124), 4)
    assert not np.array_equal(a.couplings, other_seed.couplings)


def test_stream_positions_do_not_collide():
    # neighbouring (sample, site) pairs must not share draws
    u_site = _counter_uniform(9, 2, np.arange(6, dtype=np.uint64), 0)
    assert np.unique(u_site).size == 6
    u_next = _counter_uniform(9, 3, np.arange(6, dtype=np.uint64), 0)
    assert not np.any(np.isin(u_next, u_site))
    u_field = _counter_uniform(9, 2, np.arange(6, dtype=np.uint64), 1)
    assert not np.any(np.isin(u_field, u_site))


def test_empirical_moments_normal():
    sites = np.arange(100, dtype=np.uint64)
    draws = []
    spec = Distribution("normal", 0.2)
    for idx in range(1000):
        draws.append(spec.draw(_counter_uniform(2024, idx, sites, 0)))
    draws = np.concatenate(draws)  # 1e5 values
    assert draws.size == 100_000
    assert abs(draws.mean()) <= 3 * 0.2 / np.sqrt(draws.size)
    assert abs(draws.std() - 0.2) <= 0.02 * 0.2


def test_empirical_moments_uniform():
    sites = np.arange(100, dtype=np.uint64)
    dist = Distribution("uniform", 0.3)
    draws = np.concatenate([dist.draw(_counter_uniform(77, idx, sites, 0))
                            for idx in range(1000)])
    target_std = 0.3 / np.sqrt(3)
    assert abs(draws.mean()) <= 3 * target_std / np.sqrt(draws.size)
    assert abs(draws.std() - target_std) <= 0.02 * target_std
    assert np.max(np.abs(draws)) <= 0.3


def test_additive_equals_multiplicative_on_unit_couplings():
    # same underlying draw stream, so on J = 1 the two modes coincide exactly
    base = uniform_chain(17)
    add = DisorderSpec(coupling_mode="additive",
                       coupling_dist=Distribution("uniform", 0.2), master_seed=31)
    mul = DisorderSpec(coupling_mode="multiplicative",
                       coupling_dist=Distribution("uniform", 0.2), master_seed=31)
    for idx in (0, 1, 17):
        a = sample_disordered_chain(base, add, idx)
        m = sample_disordered_chain(base, mul, idx)
        assert np.array_equal(a.couplings, m.couplings)


def test_sign_crossing_allowed():
    base = uniform_chain(5)
    spec = DisorderSpec(coupling_mode="additive",
                        coupling_dist=Distribution("uniform", 3.0), master_seed=11)
    signs = set()
    for idx in range(200):
        signs.update(np.sign(sample_disordered_chain(base, spec, idx).couplings))
    assert -1.0 in signs and 1.0 in signs


def test_helper_constructors():
    spec = normal_disorder(0.1, 0.0, seed=3, coupling_mode="multiplicative")
    assert spec.coupling_mode == "multiplicative"
    assert spec.field_mode == "none"
    spec = uniform_disorder(0.0, 0.05, seed=3)
    assert spec.coupling_mode == "none"
    assert spec.field_dist == Distribution("uniform", 0.05)
