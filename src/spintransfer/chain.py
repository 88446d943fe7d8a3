"""Chain descriptions, the chain file format, and the JSON writer every file shares.

A chain is the physical device: N sites, N-1 nearest-neighbour couplings
J_1..J_{N-1} and N on-site fields B_1..B_N, all in the same energy units.
Restricted to states with a single excitation, the dynamics is generated by
the real symmetric tridiagonal matrix with the fields on the diagonal and
the couplings on the off-diagonals.

Sites are numbered 1..N in user-facing APIs; arrays are 0-based internally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

FORMAT_VERSION = 1


class NumericalFailure(RuntimeError):
    """A numerical post-condition could not be met (not a usage error)."""


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass
class Chain:
    """Site count, couplings (length n-1), fields (length n), free-form label."""

    n: int
    couplings: np.ndarray
    fields: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.n = int(self.n)
        if self.n < 2:
            raise ValueError("chain needs at least 2 sites")
        self.couplings = _as_float_vector(self.couplings, "couplings")
        self.fields = _as_float_vector(self.fields, "fields")
        if self.couplings.size != self.n - 1:
            raise ValueError(f"expected {self.n - 1} couplings, got {self.couplings.size}")
        if self.fields.size != self.n:
            raise ValueError(f"expected {self.n} fields, got {self.fields.size}")


def rescale_to_unit_max(chain: Chain) -> tuple[Chain, float]:
    """Rescale so the largest |coupling| is 1.

    Returns (rescaled chain, alpha) with J' = alpha*J and B' = alpha*B where
    alpha = 1/max|J|.  Times are not touched here: a transfer time t0 of the
    original chain corresponds to t0/alpha = t0*max|J| for the rescaled one.
    """
    jmax = float(np.max(np.abs(chain.couplings)))
    if jmax == 0.0:
        raise ValueError("cannot rescale a chain with all-zero couplings")
    alpha = 1.0 / jmax
    return (
        replace(chain, couplings=chain.couplings * alpha, fields=chain.fields * alpha),
        alpha,
    )


def write_json(data: dict, path=None) -> str:
    """data as JSON text (indent 2, one trailing newline), also written to path if given."""
    text = json.dumps(data, indent=2) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _chain_to_dict(chain: Chain) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "n": chain.n,
        "couplings": [float(j) for j in chain.couplings],
        "fields": [float(b) for b in chain.fields],
        "label": chain.label,
    }


def _chain_from_dict(data) -> Chain:
    """Inverse of _chain_to_dict; malformed input raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"chain JSON must be an object, not {type(data).__name__}")
    missing = [key for key in ("n", "couplings", "fields") if key not in data]
    if missing:
        raise ValueError(f"chain JSON lacks {', '.join(missing)}")
    version = data.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported chain format_version {version!r}")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"chain JSON n must be an integer, not {n!r}")
    try:
        return Chain(
            n=n,
            couplings=np.asarray(data["couplings"], dtype=float),
            fields=np.asarray(data["fields"], dtype=float),
            label=str(data.get("label", "")),
        )
    except TypeError as exc:
        raise ValueError(f"malformed chain JSON: {exc}") from exc


def save_chain(chain: Chain, path) -> None:
    write_json(_chain_to_dict(chain), path)


def load_chain(path) -> Chain:
    with open(path) as fh:
        return _chain_from_dict(json.load(fh))
