"""Mirror-symmetric rows of spectral.end_spectrum, solved as two half-size sectors: against
eigendecompose, the whole solve (dstevd of the row), one-row calls and a 40-digit oracle."""

import numpy as np
import pytest
from scipy.linalg.lapack import dstevd

from _helpers import WEAK_BOND_CHAINS, mirror_chain, mp_errors
from spintransfer import (Chain, apollaro_chain, eigendecompose, normal_disorder, pst_chain,
                          uniform_chain)
from spintransfer import spectral
from spintransfer.disorder import draw_realizations

EPS = np.finfo(float).eps


def solved_sizes(monkeypatch) -> list:
    """Patch spectral's dstevd to record the size of each matrix it solves."""
    sizes = []

    def recording(diagonal, offdiagonal, **kwargs):
        sizes.append(diagonal.size)
        return dstevd(diagonal, offdiagonal, **kwargs)

    monkeypatch.setattr(spectral, "dstevd", recording)
    return sizes


def sector_sizes(n) -> list:
    """The sizes dstevd solves for a mirror row of n sites, even sector first: a sector of
    one site is its own eigenvalue."""
    return [size for size in (n - n // 2, n // 2) if size > 1]


def whole(chain) -> np.ndarray:
    """dstevd's eigenvalues of the whole chain."""
    return dstevd(chain.fields, chain.couplings, compute_v=0)[0]


def mirrored(rng, n, fields, signs) -> Chain:
    """A chain equal to its mirror image, with couplings of size 0.7-1.3 (of either sign, if
    signs) and fields in (-0.5, 0.5) or none: disorder too weak to localize states on
    either half, whose mirrored pairs would then be degenerate in rounding."""
    couplings = rng.uniform(0.7, 1.3, n - 1)
    flips = rng.choice([-1.0, 1.0], n - 1) if signs else np.ones(n - 1)
    f = rng.uniform(-0.5, 0.5, n) if fields else np.zeros(n)
    return Chain(n=n, couplings=0.5 * (couplings + couplings[::-1]) * (flips * flips[::-1]),
                 fields=0.5 * (f + f[::-1]))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 20, 21, 51, 52])
def test_a_mirror_row_is_solved_as_two_sectors_with_the_whole_spectrum(n, monkeypatch):
    # field-free, with fields, and with couplings that cross zero, where the sign of prod J_i
    # enters every weight; n = 2 and 3 have sectors of one site
    rng = np.random.default_rng(n)
    sizes = solved_sizes(monkeypatch)
    for fields, signs in ((False, False), (True, False), (True, True)):
        chain = mirrored(rng, n, fields, signs)
        sizes.clear()
        lam, w, (*_, ok) = spectral._end_weights(chain.fields[None], chain.couplings[None])
        assert sizes == sector_sizes(n) and ok[0]
        eig = eigendecompose(chain)
        scale = max(1.0, np.abs(eig.eigenvalues).max())
        assert np.abs(lam[0] - eig.eigenvalues).max() <= n * EPS * scale
        gap = np.diff(eig.eigenvalues).min()
        want = eig.eigenvectors[-1] * eig.eigenvectors[0]
        assert np.abs(w[0] - want).max() <= 64 * n * EPS * scale / gap


@pytest.mark.parametrize("part, site", [("couplings", 3), ("couplings", 25), ("fields", 0),
                                        ("fields", 30)])
def test_a_row_one_ulp_from_mirror_symmetry_is_solved_whole(part, site, monkeypatch):
    rng = np.random.default_rng(7)
    chain = mirrored(rng, 51, True, False)
    sizes = solved_sizes(monkeypatch)
    spectral.end_spectrum(chain.fields[None], chain.couplings[None])
    assert sizes == [26, 25]
    getattr(chain, part)[site] = np.nextafter(getattr(chain, part)[site], np.inf)
    sizes.clear()
    lam = spectral.end_spectrum(chain.fields[None], chain.couplings[None])[0]
    assert sizes == [51]
    assert lam[0].tobytes() == whole(chain).tobytes()


def test_sectors_whose_eigenvalues_collide_are_solved_whole(monkeypatch):
    # the odd chain's pairs are split by far less than rounding: the two sectors return
    # equal eigenvalues, and the whole solve distinct ones, as it did before the split
    chain = mirror_chain(21, 1e-8)
    sectors = [spectral._eigenvalues(d[0], e[0])
               for d, e in spectral._mirror_sectors(chain.fields[None], chain.couplings[None])]
    assert np.diff(np.sort(np.concatenate(sectors))).min() == 0.0
    sizes = solved_sizes(monkeypatch)
    lam, _, _, ok = spectral.end_spectrum(chain.fields[None], chain.couplings[None])
    assert sizes == [11, 10, 21] and ok[0]
    assert lam[0].tobytes() == whole(chain).tobytes()


def test_a_mixed_stack_gives_each_row_its_one_row_spectrum():
    n = 21
    cut = uniform_chain(n).couplings.copy()
    cut[3] = cut[-4] = 0.0  # mirror-symmetric, and not ok
    rows = [uniform_chain(n), apollaro_chain(n, 0.4322, 0.7338), pst_chain(n),
            mirror_chain(n, 1e-8), mirror_chain(n, 1e-4),
            Chain(n=n, couplings=cut, fields=np.zeros(n)),
            mirrored(np.random.default_rng(3), n, True, True)]
    couplings, fields = draw_realizations(uniform_chain(n), normal_disorder(0.1, 0.1, seed=9),
                                          0, 5)
    couplings = np.concatenate([np.stack([row.couplings for row in rows]), couplings])
    fields = np.concatenate([np.stack([row.fields for row in rows]), fields])
    order = np.array([7, 0, 1, 8, 2, 3, 9, 4, 5, 10, 6, 11])
    for stack in (order, order[::-1]):
        got = spectral.end_spectrum(fields[stack], couplings[stack])
        for i, r in enumerate(stack):
            want = spectral.end_spectrum(fields[r:r + 1], couplings[r:r + 1])
            for part, one in zip(got, want):
                assert part[i].tobytes() == one[0].tobytes(), (r, i)
    ok = spectral.end_spectrum(fields, couplings)[3]
    assert ok.tolist() == [True] * 5 + [False] + [True] * 6


# Mirror chains of at most 24 sites against mpmath.eigsy at 40 digits: both parities, a weak
# centre bond (pairs split by 1.1e-5 at N=12 and by 6e-10 at N=13, two bonds), and mirrored
# strong fields around a weak link.
ORACLE_CHAINS = {
    "uniform-16": uniform_chain(16),
    "apollaro-15": apollaro_chain(15, 0.4322, 0.7338),
    "mirror-12": mirror_chain(12, 1e-4),
    "mirror-13": mirror_chain(13, 1e-4),
    "mirror_fields": WEAK_BOND_CHAINS["mirror_fields"][0],
}


@pytest.mark.parametrize("name", sorted(ORACLE_CHAINS))
def test_the_split_meets_the_40_digit_spectrum(name, monkeypatch):
    # Eigenvalues: within 6 ulps of max(1, max |lam|), the bound the whole solve meets on the
    # same chains (measured: at most 3.4 ulps split, 4.6 whole).  Weights: the gap products'
    # error grows as 1 / the smallest gap, 1.5e-11 at a gap of 1.1e-5 and 3.3e-7 at 6e-10
    # (relative to max |w|, at most 0.9 eps max(1, max |lam|) / gap).  The whole solve's
    # paired eigenvalues share more of their rounding, so on the three chains with a weak
    # link its weights err 2.3-8.8x less; the end amplitude stays within eps ||H|| t |w|.
    chain = ORACLE_CHAINS[name]
    sizes = solved_sizes(monkeypatch)
    lam, w, (*_, ok) = spectral._end_weights(chain.fields[None], chain.couplings[None])
    assert sizes == sector_sizes(chain.n) and ok[0]
    lam_error, w_error = mp_errors(chain, lam[0], w[0])
    whole_error, _ = mp_errors(chain, whole(chain), w[0])
    assert lam_error <= 6 * EPS and whole_error <= 6 * EPS
    scale = max(1.0, np.abs(lam[0]).max())
    assert w_error <= 2 * EPS * scale / np.diff(lam[0]).min()
