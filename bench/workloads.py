"""The four benchmark workloads.

Each workload builds its inputs from the seed alone, runs through the
package's public functions or ``spintransfer.cli.main``, and checks its own
output.  ``run()`` is one workload run; its ``key`` must repeat bit for bit
between runs with the same seed.  ``check()`` compares one output against an
independent computation and returns the problems it found.  ``warm()`` is the
single small call that the set-up probe makes in a fresh process.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

import spintransfer as st
from spintransfer import cli

QUANTILE = 0.75
ORACLE_TOL = 1e-10


@dataclass
class Outcome:
    key: object        # repeats exactly between runs of one seed
    samples: int       # chains scored
    evals: int         # ensemble statistics or objective values computed
    objective: float   # the workload's headline result
    out_bytes: int = 0


def oracle_fidelity(base, spec, index: int, time: float) -> float:
    """Best window-1 fidelity of one realization from the full N x N propagator."""
    chain = st.sample_disordered_chain(base, spec, index)
    u = st.full_propagator(st.eigendecompose(chain), time)
    return st.fidelity_single(min(abs(u[chain.n - 1, 0]), 1.0))


class EnsembleW1N201:
    """monte_carlo at window 1 on the uniform N=201 chain under normal disorder."""

    name = "ensemble_w1_n201"
    why = ("Window-1 ensemble at N=201: the eigensolve dominates and no encoding SVD "
           "runs, so an eigenvalue-only kernel shows here and an SVD change does not.")
    threads = 1
    samples = 160
    oracle_prefix = 8

    def __init__(self, seed: int):
        self.seed = seed
        self.base = st.uniform_chain(201)
        self.spec = st.normal_disorder(0.1, 0.1, seed)
        self.policy = st.TransferPolicy(window_in=1, window_out=1)

    def settings(self) -> dict:
        return {"n": 201, "window": 1, "samples": self.samples, "threads": self.threads,
                "disorder": "normal(0.1, 0.1) additive", "time": "auto"}

    def warm(self) -> None:
        st.sample_fidelity(self.base, self.spec, 0, self.policy)

    def run(self) -> Outcome:
        stats = st.monte_carlo(self.base, self.spec, self.policy, samples=self.samples,
                               quantile=QUANTILE, threads=self.threads)
        return Outcome(key=(stats.samples, stats.mean, stats.minimum, stats.quantile_value),
                       samples=self.samples, evals=1, objective=stats.quantile_value)

    def check(self, out: Outcome) -> list[str]:
        problems = []
        if out.key[0] != self.samples:
            problems.append(f"ensemble reports {out.key[0]} samples, asked {self.samples}")
        time = st.auto_transfer_time(self.base)
        # monte_carlo on the first indices against statistics of oracle values
        k = self.oracle_prefix
        exact = np.array([oracle_fidelity(self.base, self.spec, i, time) for i in range(k)])
        stats = st.monte_carlo(self.base, self.spec, self.policy, samples=k, quantile=QUANTILE)
        for label, got, want in (("mean", stats.mean, exact.mean()),
                                 ("min", stats.minimum, exact.min()),
                                 ("quantile", stats.quantile_value,
                                  np.quantile(exact, QUANTILE, method="linear"))):
            if abs(got - want) > ORACLE_TOL:
                problems.append(f"{k}-sample {label} {got!r} != oracle {want!r}")
        # single samples spread over the full ensemble
        for i in (self.samples // 3, 2 * self.samples // 3, self.samples - 1):
            got = st.sample_fidelity(self.base, self.spec, i, self.policy, time=time)
            want = oracle_fidelity(self.base, self.spec, i, time)
            if abs(got - want) > ORACLE_TOL or got < out.key[2] - ORACLE_TOL:
                problems.append(f"sample {i}: fidelity {got!r}, oracle {want!r}, "
                                f"ensemble min {out.key[2]!r}")
        return problems


class SweepW5N51:
    """The CLI sweep: window 5 on the PST N=51 chain, a 3 x 3 disorder grid."""

    name = "sweep_w5_n51"
    why = ("CLI sweep at window 5 on the PST chain over a 3x3 grid: block, two SVDs and "
           "draws dominate, no peak search runs, and the CLI parses and writes CSV.")
    samples_per_cell = 100
    axis = "0:0.2:0.1"
    cells = 9
    check_cell = (0.1, 0.1)
    # With --threads 2 on a 2-vCPU machine shared with other tenants, wall_s
    # spread by 29% (quartile distance over median, 10 seeds): beyond any
    # bound this benchmark may set.  One thread keeps the sweep steady.
    threads = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.csv_path = os.path.join(workdir, "sweep.csv")

    def settings(self) -> dict:
        return {"n": 51, "window": 5, "samples_per_cell": self.samples_per_cell,
                "cells": self.cells, "threads": self.threads, "axes": self.axis}

    def argv(self, samples: int) -> list[str]:
        return ["sweep", "--model", "pst", "--n", "51", "--window", "5",
                "--j-axis", self.axis, "--b-axis", self.axis,
                "--samples", str(samples), "--quantile", str(QUANTILE),
                "--seed", str(self.seed), "--threads", str(self.threads),
                "--out", self.csv_path]

    def _cli(self, samples: int) -> bytes:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv(samples))
        if code != 0:
            raise RuntimeError(f"spintransfer sweep exited with {code}")
        with open(self.csv_path, "rb") as fh:
            return fh.read()

    def warm(self) -> None:
        self._cli(1)

    def run(self) -> Outcome:
        csv = self._cli(self.samples_per_cell)
        rows = csv.decode().splitlines()[2:]
        quantiles = [float(row.split(",")[4]) for row in rows]
        return Outcome(key=csv, samples=self.cells * self.samples_per_cell, evals=self.cells,
                       objective=float(np.mean(quantiles)) if quantiles else 0.0,
                       out_bytes=len(csv))

    def check(self, out: Outcome) -> list[str]:
        lines = out.key.decode().splitlines()
        if not lines or lines[0] != "# format=1":
            return ["CSV lacks the '# format=1' header"]
        rows = lines[2:]
        if len(rows) != self.cells:
            return [f"CSV has {len(rows)} rows, expected {self.cells}"]
        j, b = self.check_cell
        base = st.pst_chain(51)
        policy = st.TransferPolicy(window_in=5, window_out=5, time=st.auto_transfer_time(base))
        stats = st.monte_carlo(base, st.normal_disorder(j, b, self.seed), policy,
                               samples=self.samples_per_cell, quantile=QUANTILE, threads=1)
        want = (f"{j:.12g},{b:.12g},{stats.mean:.12g},{stats.minimum:.12g},"
                f"{stats.quantile_value:.12g},{stats.samples},{self.seed}")
        got = [row for row in rows if row.startswith(f"{j:.12g},{b:.12g},")]
        if got != [want]:
            return [f"CSV cell {got} != direct monte_carlo at threads=1 {want!r}"]
        return []


class _Tune:
    """Shared run/check for the optimize_apollaro workloads."""

    start = (0.5, 0.8)

    def run(self) -> Outcome:
        r = st.optimize_apollaro(self.objective, *self.start, **self.options)
        evals = r.evaluations + 1  # the search's trace plus the final re-evaluation
        return Outcome(key=(r.x, r.y, r.objective_value, r.evaluations, r.hit_boundary),
                       samples=evals * self.chains_per_eval, evals=evals,
                       objective=r.objective_value)

    def warm(self) -> None:
        st.evaluate_objective(self.objective, *self.start)

    def check(self, out: Outcome) -> list[str]:
        x, y, value = out.key[:3]
        again = st.evaluate_objective(self.objective, x, y)
        if again != value:
            return [f"objective {value!r} != evaluate_objective at ({x}, {y}) = {again!r}"]
        return []


class TuneQuantileW3(_Tune):
    """Apollaro tuning of the 0.75-quantile window-3 fidelity under uniform disorder."""

    name = "tune_quantile_w3"
    why = ("Quantile-objective tuning shaped like acceptance 4c: every candidate redraws "
           "the same common-random-number disorder, so reusing draws pays only here.")
    threads = 1
    chains_per_eval = 200
    # max_iter=1 stops Nelder-Mead after each start's initial simplex, so every
    # seed makes the same 4 x 3 + 1 evaluations; with more iterations the count
    # follows the seed's landscape and wall_s spreads by ~25% across seeds.
    options = {"restarts": 3, "max_iter": 1}

    def __init__(self, seed: int):
        self.seed = seed
        self.objective = st.Objective(n=51, window=3, metric="quantile",
                                      samples=self.chains_per_eval, quantile=QUANTILE,
                                      disorder=st.uniform_disorder(0.1, 0, seed))

    def settings(self) -> dict:
        return {"n": 51, "window": 3, "samples_per_eval": self.chains_per_eval,
                "disorder": "uniform(0.1, 0) additive", **self.options}


class TuneDeterministicW1(_Tune):
    """Acceptance 4a: disorder-free window-1 Apollaro tuning from (0.5, 0.8)."""

    name = "tune_deterministic_w1"
    why = ("Disorder-free window-1 tuning (criterion 4a): the first-peak search is most "
           "of each evaluation and no ensemble runs, so only peak-search changes show.")
    threads = 1
    chains_per_eval = 1
    options = {}
    expected = (0.4322, 0.7338)

    def __init__(self, seed: int):
        self.seed = seed
        self.objective = st.Objective(n=51, window=1)

    def settings(self) -> dict:
        return {"n": 51, "window": 1, "restarts": 3, "max_iter": 400}

    def check(self, out: Outcome) -> list[str]:
        problems = super().check(out)
        x, y = out.key[:2]
        if abs(x - self.expected[0]) > 0.01 or abs(y - self.expected[1]) > 0.01:
            problems.append(f"optimum ({x}, {y}) is not within 0.01 of {self.expected}")
        return problems


WORKLOADS = {w.name: w for w in (EnsembleW1N201, SweepW5N51, TuneQuantileW3,
                                 TuneDeterministicW1)}


@contextlib.contextmanager
def make(name: str, seed: int, scratch: str):
    """The workload `name` for `seed`; files it writes go under `scratch`."""
    cls = WORKLOADS[name]
    if cls is not SweepW5N51:
        yield cls(seed)
        return
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="sweep-", dir=scratch)
    try:
        yield cls(seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
