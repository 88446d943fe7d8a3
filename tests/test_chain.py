import json

import numpy as np
import pytest

from _helpers import dense_hamiltonian
from spintransfer import Chain, load_chain, rescale_to_unit_max, save_chain
from spintransfer.chain import _chain_from_dict, _chain_to_dict
from spintransfer.models import quadratic_chain, uniform_chain


def test_chain_validation():
    with pytest.raises(ValueError):
        Chain(n=1, couplings=np.array([]), fields=np.array([0.0]))
    with pytest.raises(ValueError):
        Chain(n=3, couplings=np.array([1.0]), fields=np.zeros(3))
    with pytest.raises(ValueError):
        Chain(n=3, couplings=np.array([1.0, np.inf]), fields=np.zeros(3))
    with pytest.raises(ValueError):
        Chain(n=2, couplings=np.array([1.0]), fields=np.array([0.0, np.nan]))


def test_dense_matches_layout():
    chain = Chain(n=3, couplings=np.array([1.0, 2.0]), fields=np.array([3.0, 4.0, 5.0]))
    dense = dense_hamiltonian(chain)
    assert np.array_equal(dense, [[3, 1, 0], [1, 4, 2], [0, 2, 5]])


def test_rescale_simple():
    chain = Chain(n=4, couplings=np.array([2.0, 4.0, 2.0]), fields=np.zeros(4))
    scaled, alpha = rescale_to_unit_max(chain)
    assert alpha == 0.25
    assert np.allclose(scaled.couplings, [0.5, 1.0, 0.5])


def test_rescale_identity_on_unit_chain():
    chain = uniform_chain(5)
    scaled, alpha = rescale_to_unit_max(chain)
    assert alpha == 1.0
    assert np.array_equal(scaled.couplings, chain.couplings)


def test_rescale_quadratic_maps_the_time_bound():
    # pre-rescale center coupling is 3 at N=4, so times stretch by 3
    chain = quadratic_chain(4)
    assert np.isclose(chain.couplings[1], 3.0, atol=1e-9)
    scaled, alpha = rescale_to_unit_max(chain)
    assert np.isclose(alpha, 1.0 / 3.0)
    assert np.isclose(np.max(np.abs(scaled.couplings)), 1.0)
    # t0 for the original maps to t0 * max|J| for the rescaled chain
    assert np.isclose((np.pi / 2) / alpha, (np.pi / 2) * 3.0)


def test_rescale_rejects_zero_couplings():
    chain = Chain(n=2, couplings=np.array([0.0]), fields=np.zeros(2))
    with pytest.raises(ValueError):
        rescale_to_unit_max(chain)


def test_rescale_scales_fields_too():
    chain = Chain(n=3, couplings=np.array([2.0, 1.0]), fields=np.array([1.0, 0.5, 0.0]))
    scaled, alpha = rescale_to_unit_max(chain)
    assert alpha == 0.5
    assert np.allclose(scaled.fields, [0.5, 0.25, 0.0])


def test_json_roundtrip(tmp_path):
    chain = Chain(n=3, couplings=np.array([0.3, 0.9]),
                  fields=np.array([0.1, 0.0, -0.1]), label="probe")
    path = tmp_path / "chain.json"
    save_chain(chain, path)
    data = json.loads(path.read_text())
    assert data["format_version"] == 1
    assert data["n"] == 3
    back = load_chain(path)
    assert back.label == "probe"
    assert np.array_equal(back.couplings, chain.couplings)
    assert np.array_equal(back.fields, chain.fields)


def test_dict_roundtrip_preserves_exact_floats():
    chain = Chain(n=2, couplings=np.array([1 / 3]), fields=np.array([0.1, -0.7]))
    back = _chain_from_dict(_chain_to_dict(chain))
    assert back.couplings[0] == chain.couplings[0]
    assert np.array_equal(back.fields, chain.fields)
