#!/usr/bin/env python3
"""spintransfer benchmark: one workload per invocation.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the checkout's ``src`` directory; nothing is
installed.  A run first measures ``setup_s`` in fresh processes, then runs
the workload once untimed (that output is checked against an oracle), then
repeats it for S seconds and checks that every repeat reproduces the first
output bit for bit.  A calibration kernel is timed before the first repeat
and after every repeat, and times are reported in reference seconds (see
calibration.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced runs and reports the per-layer metrics, with
the spans written to bench/out/.  Human-readable lines come first on stdout;
the last line is one JSON object.  The exit code is 0 only if every run
passed its checks.
"""

import os

# One BLAS thread, set before numpy loads, so --threads is the only parallelism.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import calibration
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 5
MIN_RUNS = 3
MIN_TRACED_RUNS = 2


def parse_args(names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def import_package():
    """Import spintransfer from this checkout's src, or exit nonzero."""
    sys.path.insert(0, str(SRC))
    try:
        import spintransfer
    except ImportError as exc:
        sys.exit(f"error: cannot import spintransfer from {SRC}: {exc}")
    if Path(spintransfer.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"error: spintransfer was imported from {spintransfer.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# run settings (benchmark output only)
# ---------------------------------------------------------------------------

def _blas_version(module):
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return None


def blas_threads():
    """Thread count reported by each OpenBLAS library loaded in this process."""
    counts = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split(None, 5)[5].strip() for line in fh
                if line.count(" ") >= 5 and "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(path).name] = fn()
                break
    return counts


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "spintransfer").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_settings(args, workload):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": _blas_version(numpy), "scipy": _blas_version(scipy)},
        "blas_env": {var: os.environ[var] for var in BLAS_ENV},
        "blas_threads": blas_threads(),
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "workload_settings": workload.settings(),
        "setup_probes": SETUP_PROBES, "min_runs": MIN_RUNS,
        "reference_kernel_s": calibration.REFERENCE_S,
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def measure_setup(name, seed):
    """Wall time of fresh processes that import, build and warm the workload."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), name, str(seed),
                               str(OUT)], env=env, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe exited with {proc.returncode}:\n{proc.stderr}")
    return walls


class Session:
    """Runs one workload repeatedly and counts runs that fail.

    A run fails when it raises, when its output differs from the first
    output, or when the first output missed the workload's oracle check.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.reference_ok = False

    def attempt(self):
        """One workload run; returns its wall time and its output (None if it raised)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.workload.run()
        except Exception:
            wall = time.perf_counter() - start
            traceback.print_exc()
            self.failed += 1
            return wall, None
        wall = time.perf_counter() - start
        if self.reference is None:
            self.reference = out
            try:
                problems = self.workload.check(out)
            except Exception:
                traceback.print_exc()
                problems = ["the check raised"]
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)
            self.reference_ok = not problems
        if not self.reference_ok or out.key != self.reference.key:
            if out is not self.reference and self.reference_ok:
                print(f"run {self.attempted}: output differs from the first run", file=sys.stderr)
            self.failed += 1
        return wall, out


def end_to_end_metrics(walls, kernels, out, setup_walls):
    # Each repeat in reference seconds (see calibration.py) against the mean of
    # the kernel times just before and just after it, then the median.
    ratios = [2 * w / (before + after) for w, before, after in zip(walls, kernels, kernels[1:])]
    wall = statistics.median(ratios) * calibration.REFERENCE_S
    return {
        "setup_s": statistics.median(setup_walls),
        "wall_s": wall,
        "samples_per_s": out.samples / wall,
        "evals_per_s": out.evals / wall,
        "objective": float(out.objective),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(rep_spans, selfs, threads):
    """Per-layer counts and self times of one traced workload run."""
    calls, self_s, busy = Counter(), defaultdict(float), defaultdict(float)
    floor = boundary = 0
    for sid, name, start, end, _, note in rep_spans:
        calls[name] += 1
        self_s[name] += selfs[sid]
        busy[name] += end - start
        if note:
            floor += note.get("floor", False)
            boundary += note.get("boundary_hit", False)
    ensemble = busy[tracing.ENSEMBLE]
    return {
        "disorder.draw.calls": calls["disorder.draw"],
        "disorder.draw.self_s": self_s["disorder.draw"],
        "spectral.eig.calls": calls["spectral.eig"],
        "spectral.eig.self_s": self_s["spectral.eig"],
        "spectral.window.self_s": self_s["spectral.window"],
        "chain.matrix.self_s": self_s["chain.matrix"],
        "encoding.block.self_s": self_s["encoding.block"],
        "encoding.svd.calls": calls["encoding.svd"],
        "encoding.svd.self_s": self_s["encoding.svd"],
        "models.peak.calls": calls["models.peak"],
        "models.peak.self_s": self_s["models.peak"],
        "montecarlo.samples": calls["montecarlo.sample"],
        "montecarlo.sample.self_s": self_s["montecarlo.sample"],
        "montecarlo.ensemble.self_s": self_s[tracing.ENSEMBLE],
        "montecarlo.parallel_eff": (busy["montecarlo.sample"] / (threads * ensemble)
                                    if ensemble else 0.0),
        "optimize.evals": calls["optimize.eval"],
        "optimize.eval.self_s": self_s["optimize.eval"],
        "optimize.search.self_s": self_s["optimize.search"],
        "optimize.floor_evals": floor,
        "optimize.boundary_hit": boundary,
        "cli.self_s": self_s["cli"],
    }


def timed_runs(session, seconds):
    """Wall times of the repeats, and of the calibration kernel before the first
    repeat and after each one."""
    kernel = calibration.Kernel()
    kernel.time()  # warm-up
    walls, kernels = [], [kernel.time()]
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_RUNS or time.perf_counter() < deadline:
        walls.append(session.attempt()[0])
        kernels.append(kernel.time())
    return walls, kernels


def traced_runs(session, seconds, threads):
    """Alternate untraced and traced runs; per-layer metrics from the traced ones."""
    tracer = tracing.Tracer()
    untraced, traced, roots = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_RUNS or time.perf_counter() < deadline:
        untraced.append(session.attempt()[0])
        with tracer.installed(), tracer.span("bench.run") as root:
            traced.append(session.attempt()[0])
        roots.append(root)
    selfs = tracing.self_times(tracer.spans)
    reps = [layer_metrics(tracing.descendants(tracer.spans, root), selfs, threads)
            for root in roots]
    counts = [{k: v for k, v in rep.items() if isinstance(v, int)} for rep in reps]
    for i, c in enumerate(counts[1:], start=2):
        if c != counts[0]:
            print(f"traced run {i}: layer counts {c} differ from the first {counts[0]}",
                  file=sys.stderr)
            session.failed += 1
    metrics = {k: (v if isinstance(v, int) else statistics.median(rep[k] for rep in reps))
               for k, v in reps[0].items()}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return metrics, tracer.spans, len(traced)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args([w["name"] for w in spec["workloads"]])
    import_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    setup_walls = measure_setup(args.workload, args.seed) if not args.trace else []
    with workloads.make(args.workload, args.seed, str(OUT)) as workload:
        settings = run_settings(args, workload)
        print("settings " + json.dumps(settings), flush=True)
        session = Session(workload)
        session.attempt()  # untimed warm-up; its output is the checked reference
        if args.trace:
            values, spans, runs = traced_runs(session, args.seconds, workload.threads)
            out = session.reference
            values["cli.out_bytes"] = out.out_bytes if out else 0
            listed = spec["per_layer"]
            path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            path.write_text(json.dumps({"settings": settings, "spans": spans}) + "\n")
            print(f"spans: {len(spans)} written to {path}")
            stat = f"median of {runs} traced runs"
            notes = {"cli.out_bytes": "CSV bytes written per run",
                     "trace.overhead_frac": f"median traced over median untraced run, "
                                            f"{runs} of each"}
        else:
            walls, kernels = timed_runs(session, args.seconds)
            out = session.reference
            values = end_to_end_metrics(walls, kernels, out, setup_walls) if out else {}
            listed = spec["end_to_end"]
            stat = f"median of {len(walls)} runs, in reference seconds"
            print(f"{args.workload} raw wall {statistics.median(walls)!r} s, calibration kernel "
                  f"{statistics.median(kernels)!r} s (medians of {len(walls)})")
            notes = {"setup_s": f"median of {len(setup_walls)} fresh processes",
                     "objective": "of the first run; every run must repeat it",
                     "peak_rss_mb": "peak of the measuring process"}

    correct = session.failed == 0 and session.reference is not None
    # values is empty only when every run raised
    metrics = {m["name"]: {"value": values[m["name"]] if values else 0, "unit": m["unit"]}
               for m in listed}
    for name, m in metrics.items():
        note = notes.get(name, "per run, equal in every traced run"
                         if isinstance(m["value"], int) else stat)
        print(f"{args.workload} {name} {m['value']!r} {m['unit']} ({note})")
    print(f"{args.workload} failed_frac {session.failed / session.attempted!r} "
          f"({session.failed} of {session.attempted} runs failed)")
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
