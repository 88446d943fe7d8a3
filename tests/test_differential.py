"""The Chebyshev producer against the full propagator, and stacks against one-row calls, on
generated chains.

Chains of 3-40 sites with couplings that are zero, tiny or cross zero, near-degenerate mirror
pairs and strong fields, windows up to 8 on each side, and times from 0 to 3N or, in about half
the stacks, from 0 to 0.3N, where few terms may not reach the output window.  Each generated
stack is checked as drawn and with every field set to 0: the field-free case, which
_chebyshev_tops propagates one sublattice a step.  For each of the two:

- rows that _growth admits are within 1e-12 of the full propagator's top singular value;
- rows it declines come back NaN from _chebyshev_tops;
- _score_fixed_time scores the stack bit for bit like its one-row calls.

The examples are derandomized with a fixed budget, so every run checks the same chains.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spintransfer import Chain, eigendecompose, full_propagator, montecarlo

WEAK = (1e-4, 1e-8, 1e-12)


def oracle_top(couplings, fields, window_in, window_out, t) -> float:
    """Top singular value of the window slice of the full N x N propagator."""
    n = fields.size
    u = full_propagator(eigendecompose(Chain(n=n, couplings=couplings, fields=fields)), t)
    block = u[n - window_out:, :window_in]
    return float(np.linalg.svd(block, compute_uv=False)[0])


@st.composite
def chain(draw, n):
    """(couplings, fields) of one n-site chain of a drawn kind."""
    scale = draw(st.sampled_from([0.0, 0.3, 2.0, 6.0]))  # 6: strong fields
    if draw(st.booleans()):  # mirror halves joined by weak centre bonds
        half = draw(st.lists(st.floats(0.3, 1.5), min_size=n // 2, max_size=n // 2))
        couplings = np.array(half + half[::-1][n % 2 == 0:])
        couplings[(n - 1) // 2] = couplings[n // 2 - 1] = draw(st.sampled_from(WEAK))
        side = draw(st.lists(st.floats(-scale, scale), min_size=n // 2, max_size=n // 2))
        middle = [draw(st.floats(-scale, scale))] if n % 2 else []
        fields = np.array(side + middle + side[::-1])
    else:
        bond = st.one_of(st.just(0.0), st.floats(-1.5, 1.5), st.floats(0.5, 1.5))
        couplings = np.array(draw(st.lists(bond, min_size=n - 1, max_size=n - 1)))
        fields = np.array(draw(st.lists(st.floats(-scale, scale), min_size=n, max_size=n)))
    return couplings, fields


@st.composite
def stacks(draw):
    """(couplings, fields, window_in, window_out, times) of a stack of 1-4 chains, at times up
    to 3N or, on a drawn choice, all up to 0.3N."""
    n = draw(st.integers(3, 40))
    window_in = draw(st.integers(1, min(8, n)))
    window_out = draw(st.integers(1, min(8, n)))
    rows = [draw(chain(n)) for _ in range(draw(st.integers(1, 4)))]
    longest = draw(st.sampled_from([3.0, 0.3])) * n
    times = [draw(st.floats(0.0, longest)) for _ in rows]
    return (np.array([c for c, _ in rows]), np.array([f for _, f in rows]), window_in,
            window_out, np.array(times))


def check_stack(couplings, fields, window_in, window_out, times):
    counts = montecarlo._term_counts(montecarlo._gershgorin(fields, couplings)[1] * times,
                                     montecarlo._TAIL)
    top = montecarlo._chebyshev_tops(couplings, fields, window_in, window_out, times, counts)
    admitted = montecarlo._growth(couplings, fields, window_in, window_out) <= montecarlo._GROWTH
    assert np.isnan(top[~admitted]).all()
    for r in np.flatnonzero(admitted):
        want = oracle_top(couplings[r], fields[r], window_in, window_out, times[r])
        assert abs(top[r] - want) <= 1e-12, (r, top[r], want)
    scored = montecarlo._score_fixed_time(couplings, fields, window_in, window_out, times)
    for r in range(times.size):
        alone = montecarlo._score_fixed_time(couplings[r:r + 1], fields[r:r + 1], window_in,
                                             window_out, times[r:r + 1])
        assert alone.tobytes() == scored[r:r + 1].tobytes()


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stacks())
def test_producers_agree_with_the_propagator_and_with_one_row_calls(stack):
    couplings, fields, window_in, window_out, times = stack
    check_stack(couplings, fields, window_in, window_out, times)
    check_stack(couplings, np.zeros_like(fields), window_in, window_out, times)


def test_every_window_pair_up_to_8_on_hard_chains():
    # the generated stacks draw their window pairs; this stack takes all 64 of them: a mirror
    # pair split by 1e-8, couplings that cross zero, strong fields, a zero bond mid-chain
    rng = np.random.default_rng(16)
    n = 12
    mirror = np.r_[np.linspace(0.6, 1.2, 5), 1e-8, np.linspace(1.2, 0.6, 5)]
    couplings = np.array([mirror, rng.uniform(-1.0, 1.5, n - 1), rng.uniform(0.5, 1.5, n - 1),
                          np.r_[np.ones(5), 0.0, np.ones(5)]])
    fields = np.array([np.zeros(n), rng.uniform(-0.3, 0.3, n), rng.uniform(-6.0, 6.0, n),
                       rng.uniform(-1.0, 1.0, n)])
    times = np.array([17.9, 36.0, 5.3, 0.0])
    counts = montecarlo._term_counts(montecarlo._gershgorin(fields, couplings)[1] * times,
                                     montecarlo._TAIL)
    for window_in in range(1, 9):
        for window_out in range(1, 9):
            top = montecarlo._chebyshev_tops(couplings, fields, window_in, window_out, times,
                                             counts)
            growth = montecarlo._growth(couplings, fields, window_in, window_out)
            for r in range(times.size):
                alone = montecarlo._chebyshev_tops(couplings[r:r + 1], fields[r:r + 1],
                                                   window_in, window_out, times[r:r + 1],
                                                   counts[r:r + 1])
                assert alone.tobytes() == top[r:r + 1].tobytes()
                if growth[r] <= montecarlo._GROWTH:
                    want = oracle_top(couplings[r], fields[r], window_in, window_out, times[r])
                    assert abs(top[r] - want) <= 1e-12, (window_in, window_out, r)
                else:
                    assert np.isnan(top[r])
