"""In-memory span tracing around the calls into each spintransfer module.

The package binds names at import (``from .spectral import eigendecompose``),
so a layer is traced by replacing the function object in every spintransfer
module that holds it, which is where each caller looks it up.  Nothing inside
the package is edited; ``Tracer.installed()`` restores the originals on exit.

A span is (id, name, start, end, parent, note).  Spans opened on a thread with
no open span of its own (the monte_carlo pool workers) take the enclosing
monte_carlo span as their parent.  A span's self time is its duration minus
the part of its interval that its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time

# (defining module, function, span name).  A function that a later version
# of the package no longer has is skipped, and its layer reads zero.
LAYERS = (
    ("spintransfer.disorder", "sample_disordered_chain", "disorder.draw"),
    ("spintransfer.spectral", "eigendecompose", "spectral.eig"),
    ("spintransfer.chain", "single_excitation_matrix", "chain.matrix"),
    ("spintransfer.spectral", "window_amplitudes", "spectral.window"),
    ("spintransfer.encoding", "transfer_matrix", "encoding.block"),
    ("spintransfer.encoding", "optimal_encoding", "encoding.svd"),
    ("spintransfer.models", "first_peak_time", "models.peak"),
    ("spintransfer.montecarlo", "sample_fidelity", "montecarlo.sample"),
    ("spintransfer.montecarlo", "monte_carlo", "montecarlo.ensemble"),
    ("spintransfer.montecarlo", "sweep", "montecarlo.sweep"),
    ("spintransfer.optimize", "evaluate_objective", "optimize.eval"),
    ("spintransfer.optimize", "optimize_apollaro", "optimize.search"),
    ("spintransfer.cli", "main", "cli"),
)

ENSEMBLE = "montecarlo.ensemble"

# What a span records about its call's result, by span name.
NOTES = {
    "optimize.eval": lambda value: {"floor": bool(value == 0.5)},
    "optimize.search": lambda result: {"boundary_hit": bool(result.hit_boundary)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ensemble = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[int, int | None]:
        stack = self._stack()
        parent = stack[-1] if stack else self._ensemble
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def _close(self, sid, name, start, end, parent, note) -> None:
        self._stack().pop()
        with self._lock:
            self.spans.append((sid, name, start, end, parent, note))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid, parent = self._open(name)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self._close(sid, name, start, time.perf_counter(), parent, None)

    def wrap(self, fn, name: str):
        note_of = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open(name)
            if name == ENSEMBLE:
                outer, self._ensemble = self._ensemble, sid
            note = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if note_of is not None:
                    note = note_of(result)
                return result
            finally:
                end = time.perf_counter()
                if name == ENSEMBLE:
                    self._ensemble = outer
                self._close(sid, name, start, end, parent, note)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every layer function for its traced wrapper, then restore."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "spintransfer" or key.startswith("spintransfer."))]
        patched = []
        try:
            for module_name, attr, span_name in LAYERS:
                original = getattr(sys.modules.get(module_name), attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(original, span_name)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            patched.append((module, key, original))
            yield self
        finally:
            for module, key, original in reversed(patched):
                setattr(module, key, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    bounds = {s[0]: (s[2], s[3]) for s in spans}
    children: dict[int, list] = {}
    for sid, _, start, end, parent, _ in spans:
        if parent in bounds:
            lo, hi = bounds[parent]
            children.setdefault(parent, []).append((max(start, lo), min(end, hi)))
    return {sid: (end - start) - _covered(children.get(sid, []))
            for sid, _, start, end, _, _ in spans}


def descendants(spans: list, root: int) -> list:
    """The spans below `root`, in recording order."""
    kids: dict[int, list] = {}
    for s in spans:
        kids.setdefault(s[4], []).append(s[0])
    keep, todo = set(), [root]
    while todo:
        for sid in kids.get(todo.pop(), []):
            keep.add(sid)
            todo.append(sid)
    return [s for s in spans if s[0] in keep]
