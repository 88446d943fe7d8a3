"""The chunked first-peak scan against the whole-grid scan it replaced."""

import numpy as np
import pytest

from spintransfer import (NumericalFailure, apollaro_chain, eigendecompose, fidelity_single,
                          first_peak_time, normal_disorder, sample_disordered_chain,
                          uniform_chain)
from spintransfer import models
from spintransfer.models import _golden_section_max, default_peak_hint
from spintransfer.optimize import BOX_HI, BOX_LO


def dense_first_peak_time(chain, search_hint=None, step=0.05, amp_threshold=0.01,
                          time_tol=1e-8):
    """The whole-grid scan: every grid point's amplitude at once, then a loop."""
    if search_hint is None:
        search_hint = default_peak_hint(chain.n)
    eig = eigendecompose(chain)
    prod = eig.eigenvectors[chain.n - 1, :] * eig.eigenvectors[0, :]
    lam = eig.eigenvalues

    def amp(t):
        return float(np.abs(np.sum(prod * np.exp(-1j * lam * t))))

    ts = np.arange(0.0, 2.0 * search_hint + step, step)
    mags = np.abs(np.exp(-1j * np.outer(ts, lam)) @ prod)
    for i in range(1, ts.size - 1):
        if mags[i] >= mags[i - 1] and mags[i] >= mags[i + 1] and mags[i] > amp_threshold:
            t_peak = _golden_section_max(amp, ts[i - 1], ts[i + 1], time_tol)
            return t_peak, fidelity_single(min(amp(t_peak), 1.0))
    raise NumericalFailure("no transfer peak found in the search window")


def outcome(scan, chain, **kwargs):
    try:
        return scan(chain, **kwargs)
    except NumericalFailure:
        return "no peak"


def chains(n):
    yield uniform_chain(n)
    yield apollaro_chain(n, 0.4322, 0.7338)  # criterion 4a optimum
    for x in (BOX_LO, BOX_HI):
        for y in (BOX_LO, BOX_HI):
            yield apollaro_chain(n, x, y)
    spec = normal_disorder(0.1, 0.1, seed=31)
    for i in range(2):
        yield sample_disordered_chain(uniform_chain(n), spec, i)


@pytest.mark.parametrize("n", [51, 201, 401])
def test_chunked_scan_returns_the_dense_scan_times(n):
    found = 0
    for chain in chains(n):
        want = outcome(dense_first_peak_time, chain)
        assert outcome(first_peak_time, chain) == want, chain.label
        found += want != "no peak"
    assert found >= 4


@pytest.mark.parametrize("rows", [1, 2, 7, 64])
def test_chunk_boundaries_do_not_move_the_peak(rows, monkeypatch):
    chain = apollaro_chain(51, 0.4322, 0.7338)
    want = dense_first_peak_time(chain)
    monkeypatch.setattr(models, "_SCAN_ROWS", rows)
    assert first_peak_time(chain) == want


def test_chain_without_peak_still_raises():
    chain = uniform_chain(41)
    with pytest.raises(NumericalFailure):
        dense_first_peak_time(chain, search_hint=2.0)
    with pytest.raises(NumericalFailure):
        first_peak_time(chain, search_hint=2.0)
    # a grid too short to hold a local maximum
    with pytest.raises(NumericalFailure):
        first_peak_time(chain, search_hint=0.01)
