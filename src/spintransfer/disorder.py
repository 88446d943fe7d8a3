"""Reproducible static disorder on couplings and fields.

Every random number is a pure function of (master_seed, sample_index,
site_index, parameter_kind): a 64-bit mixing hash turns the tuple into a
uniform in (0, 1), and normal variates go through the inverse CDF.  There is
no sequential generator state, so samples can be drawn in any order and in
any batch, and always come out bit-identical.

A draw has two halves.  standard_variates hashes whole ranges of sample
indices at once, one broadcast hash over (sample, site, kind), and turns each
uniform into the zero-mean unit variate of its distribution (2u - 1 or the
normal inverse CDF); apply_variates scales them by one spec's parameters onto
a base chain.  Specs that share a seed can share the first half.
draw_realizations runs both for one spec: one row of couplings and one row of
fields per realization.  sample_disordered_chain is row 0 of that same draw,
so a chain drawn alone equals its row in any batch bit for bit.

Coupling errors can be additive (J -> J + d) or multiplicative
(J -> J(1 + d)); field errors are additive only, since scaling a zero field
does nothing.  Both modes consume the same underlying draw for a given
(seed, sample, site), so on a unit-coupling chain they produce identical
perturbed chains, not merely identical distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chain import Chain

_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

_KIND_COUPLING = 0
_KIND_FIELD = 1

COUPLING_MODES = ("none", "additive", "multiplicative")
FIELD_MODES = ("none", "additive")
DIST_KINDS = ("uniform", "normal")


def _mix64(z):
    """splitmix64 finalizer of a Python int in [0, 2^64) or of a uint64 array."""
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _counter_uniform(seed: int, sample_index, sites: np.ndarray, kind) -> np.ndarray:
    """Deterministic uniforms in (0, 1), one per (sample index, site index) pair.

    sample_index is a Python int in [0, 2^64) or a uint64 array that
    broadcasts against sites: a column of M indices against N sites gives an
    M x N array whose row r equals the draw for index r alone.  kind is an int
    or an array of kinds that broadcasts against that result.
    """
    h = _mix64(_mix64(int(seed) & _MASK) ^ sample_index)
    h = _mix64(h ^ sites.astype(np.uint64))
    h = _mix64(h ^ np.asarray(kind, dtype=np.uint64))
    # top 53 bits, offset by half a step: never exactly 0 or 1
    return ((h >> 11).astype(np.float64) + 0.5) * 2.0 ** -53


@dataclass
class Distribution:
    """uniform(half-width) or normal(standard deviation), both zero-mean."""

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in DIST_KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        self.param = float(self.param)
        if not math.isfinite(self.param):  # NaN > 0 is False: it would turn the disorder off
            raise ValueError(f"distribution parameter must be finite, got {self.param}")
        if self.param < 0:
            raise ValueError("distribution parameter must be >= 0")

    def draw(self, u: np.ndarray) -> np.ndarray:
        if self.param == 0.0:
            return np.zeros_like(u)
        return self.param * _standard(self.kind, u)


def _standard(kind: str, u: np.ndarray) -> np.ndarray:
    """The zero-mean, unit-parameter variate of each uniform u of a kind of distribution."""
    if kind == "uniform":
        return 2.0 * u - 1.0
    from scipy.special import ndtri  # deferred: only normal draws pay its import
    return ndtri(u)


@dataclass
class DisorderSpec:
    """Randomization contract: modes, distributions, and the master seed."""

    coupling_mode: str = "none"
    field_mode: str = "none"
    coupling_dist: Distribution | None = None
    field_dist: Distribution | None = None
    master_seed: int = 0

    def __post_init__(self):
        if self.coupling_mode not in COUPLING_MODES:
            raise ValueError(f"unknown coupling mode {self.coupling_mode!r}")
        if self.field_mode not in FIELD_MODES:
            raise ValueError("field disorder must be additive or none; "
                             "a multiplicative error on zero fields is meaningless")
        if self.coupling_dist is None:
            self.coupling_dist = Distribution("uniform", 0.0)
        if self.field_dist is None:
            self.field_dist = Distribution("uniform", 0.0)
        self.master_seed = int(self.master_seed)

    @property
    def draws(self) -> dict[int, Distribution]:
        """The distribution of each parameter kind the spec perturbs (_KIND_COUPLING,
        _KIND_FIELD), couplings first; empty where it draws nothing (every mode none or every
        width 0)."""
        return {kind: dist for kind, mode, dist in
                ((_KIND_COUPLING, self.coupling_mode, self.coupling_dist),
                 (_KIND_FIELD, self.field_mode, self.field_dist))
                if mode != "none" and dist.param > 0}


def zero_disorder(seed: int = 0) -> DisorderSpec:
    return DisorderSpec(master_seed=seed)


def errors_disorder(coupling_dist: Distribution, field_dist: Distribution, seed: int,
                    coupling_mode: str = "additive") -> DisorderSpec:
    """Coupling and field errors from two distributions; a zero width turns a kind off."""
    return DisorderSpec(coupling_mode=coupling_mode if coupling_dist.param > 0 else "none",
                        field_mode="additive" if field_dist.param > 0 else "none",
                        coupling_dist=coupling_dist, field_dist=field_dist, master_seed=seed)


def normal_disorder(sigma_j: float, sigma_b: float, seed: int,
                    coupling_mode: str = "additive") -> DisorderSpec:
    """Normal coupling/field errors as used for the sweep grids."""
    return errors_disorder(Distribution("normal", sigma_j), Distribution("normal", sigma_b),
                           seed, coupling_mode)


def uniform_disorder(delta_j: float, delta_b: float, seed: int,
                     coupling_mode: str = "additive") -> DisorderSpec:
    """Uniform +-delta coupling/field errors."""
    return errors_disorder(Distribution("uniform", delta_j), Distribution("uniform", delta_b),
                           seed, coupling_mode)


def standard_variates(seed: int, ranges: list[tuple[int, int]], n: int,
                      draws) -> dict[tuple[int, str], np.ndarray]:
    """Standard variates of the realizations in ranges, (start, stop) sample index ranges, on
    sites 0..n-1 (a coupling reads sites 0..n-2).

    draws holds (kind, Distribution) pairs (DisorderSpec.draws items).  The result maps each
    (kind, distribution kind) among them to an array with one row per index, the ranges in
    order; one broadcast hash serves every kind and range, and each pair's variate is
    computed once however many draws share it.  ValueError, before any hash, where a range
    is empty or starts below 0 (an index is taken modulo 2^64, so -1 would read 2^64 - 1).
    """
    for start, stop in ranges:
        if start < 0:
            raise ValueError(f"sample indices must be >= 0, got {start}")
        if stop <= start:
            raise ValueError("need at least one sample index")
    wanted = dict.fromkeys((kind, dist.kind) for kind, dist in draws)
    if not wanted:
        return {}
    kinds = sorted({kind for kind, _ in wanted})
    indices = np.concatenate([np.uint64(start & _MASK) + np.arange(stop - start, dtype=np.uint64)
                              for start, stop in ranges])[:, None]
    u = _counter_uniform(seed, indices, np.arange(n, dtype=np.uint64),
                         np.array(kinds, dtype=np.uint64)[:, None, None])
    return {(kind, dist): _standard(dist, u[kinds.index(kind)]) for kind, dist in wanted}


def apply_variates(base: Chain, spec: DisorderSpec, variates: dict,
                   count: int) -> tuple[np.ndarray, np.ndarray]:
    """Couplings (count x n-1) and fields (count x n) of base perturbed by spec's draws, with
    the standard variates of count realizations (standard_variates rows, in order)."""
    couplings = fields = None
    # a draw past the double range is left inf or NaN, for the scorer to refuse
    with np.errstate(over="ignore", invalid="ignore"):
        for kind, dist in spec.draws.items():
            z = variates[kind, dist.kind]
            if kind == _KIND_FIELD:
                fields = base.fields + dist.param * z
                continue
            d = dist.param * z[:, :-1]
            couplings = (base.couplings + d if spec.coupling_mode == "additive"
                         else base.couplings * (1.0 + d))
    if couplings is None:
        couplings = np.repeat(base.couplings[None], count, axis=0)
    if fields is None:
        fields = np.repeat(base.fields[None], count, axis=0)
    return couplings, fields


def draw_realizations(base: Chain, spec: DisorderSpec, start: int,
                      stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Couplings (M x n-1) and fields (M x n) of realizations start..stop-1.

    Row r is the realization with sample index start + r.  Perturbed
    couplings may cross zero or change sign; they are passed through
    unclamped, since large-disorder regimes need exactly that behaviour.
    ValueError where the range is empty or start is below 0.
    """
    variates = standard_variates(spec.master_seed, [(start, stop)], base.n,
                                 spec.draws.items())
    return apply_variates(base, spec, variates, stop - start)


def sample_disordered_chain(base: Chain, spec: DisorderSpec, sample_index: int) -> Chain:
    """Draw one disordered realization of the chain: row 0 of draw_realizations."""
    couplings, fields = draw_realizations(base, spec, sample_index, sample_index + 1)
    return replace(base, couplings=couplings[0], fields=fields[0],
                   label=f"{base.label}#r{sample_index}")

