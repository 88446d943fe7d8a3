#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternated pairs of runs.

    scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S --seed0 K \
        [--claim METRIC] [--json PATH]

PARENT and CHANGE are checkout roots.  Pair i (0-based) runs each checkout's
own bench/run.py on workload W with seed K + i for S seconds, the parent first
in even pairs and the change first in odd ones.  For each end-to-end metric of
the change's BENCHMARK.json it prints each side's median and quartiles, the
change/parent ratio of the medians, their difference next to the parent's
quartile distance, and in how many pairs the change was better and in how
many the two read the same (a tie counts for neither side), and a verdict
(see verdict below; METRIC of --claim is the metric the change claims to
improve).  The header names
each side's source digest (its first 12 hex digits) and its git commit, or
"no git" for a checkout without one (a `git archive` export).  It exits 1,
and prints no table, if any run exits nonzero or reports "correct": false,
or if the runs of one side report different source digests (its checkout
changed during the pairs).

With --json, the same table is also written to PATH as the entry for W under
"workloads", next to the entries already there for other workloads: per
metric each side's quartiles and values, the ratio, the median gap, the
parent's quartile distance, wins, ties and the verdict; the claimed metric; and
the seeds, each side's commit
and source digest, and the library versions, as bench/run.py reports them.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="root of the parent checkout")
    p.add_argument("change", type=Path, help="root of the changed checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    p.add_argument("--claim", metavar="METRIC",
                   help="the end-to-end metric the change claims to improve")
    p.add_argument("--json", type=Path, help="record the table in this JSON file")
    args = p.parse_args()
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    for root in (args.parent, args.change):
        if not (root / "bench" / "run.py").is_file():
            p.error(f"{root} has no bench/run.py")
    names = [m["name"] for m in json.loads((args.change / "BENCHMARK.json").read_text())
             ["end_to_end"]]
    if args.claim is not None and args.claim not in names:
        p.error(f"--claim {args.claim!r} is not an end-to-end metric: {', '.join(names)}")
    return args


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The end-to-end metric values and the settings of one bench/run.py run, or None if
    it failed."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", repr(seconds)],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
        settings = next((json.loads(line[len("settings "):]) for line in lines
                         if line.startswith("settings ")), {})
    except json.JSONDecodeError:
        result = settings = {}
    if proc.returncode or not result.get("correct"):
        sys.stderr.write(f"{root} seed {seed}: exit {proc.returncode}, "
                         f"correct {result.get('correct')}\n{proc.stderr}")
        return None
    return {"values": {name: m["value"] for name, m in result["metrics"].items()},
            "settings": settings}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(metric: dict, parent: list[float], change: list[float], claimed: bool) -> str:
    """How the change's runs read against the parent's on one metric of BENCHMARK.json.

    A claimed metric reads "gain" where the change was better in at least 9 of every 10
    pairs and its median is better than the parent's by more than the parent's quartile
    distance, and "no gain" otherwise.  Any other metric reads "worse" where the change's
    median is worse than the parent's by more than the metric's relative bound;
    "unresolved" where either side's quartile distance, relative to its median, is wider
    than the bound, unless every run of the change reads better than every run of the
    parent; and "no worse" otherwise.
    """
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    gap = sign * (c[1] - p[1])  # > 0: the change's median is the better one
    if claimed:
        wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
        return "gain" if 10 * wins >= 9 * len(parent) and gap > p[2] - p[0] else "no gain"
    if gap < -metric["bound"] * abs(p[1]):
        return "worse"
    spread = max((q3 - q1) / abs(med) if med else (math.inf if q3 > q1 else 0.0)
                 for q1, med, q3 in (p, c))
    separated = min(sign * v for v in change) > max(sign * v for v in parent)
    return "unresolved" if spread > metric["bound"] and not separated else "no worse"


def main() -> int:
    args = parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    runs = {"parent": [], "change": []}
    failed = False
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(getattr(args, side), args.workload, seed, args.seconds)
            failed |= run is None
            runs[side].append(run)
        print(f"pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first) done",
              file=sys.stderr, flush=True)
    if failed:
        print("error: a run failed; no table", file=sys.stderr)
        return 1
    sides = {}
    for side, side_runs in runs.items():
        digests = {r["settings"].get("source_sha256") for r in side_runs}
        if len(digests) > 1:
            print(f"error: the {side} runs report {len(digests)} source digests: "
                  f"{', '.join(sorted(map(str, digests)))}; no table", file=sys.stderr)
            return 1
        sides[side] = {key: side_runs[0]["settings"].get(key)
                       for key in ("git_commit", "source_sha256")}
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, seeds "
          f"{args.seed0}..{args.seed0 + args.pairs - 1}")
    for side, ids in sides.items():
        print(f"  {side}: source {str(ids['source_sha256'])[:12]}, "
              f"commit {ids['git_commit'] or 'no git'}")
    print(f"{'metric':<14} {'parent q1/med/q3':<32} {'change q1/med/q3':<32} "
          f"{'ratio':>7} {'med gap':>10} {'parent IQR':>10} {'wins':>7} {'ties':>7}  verdict")
    table = {}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [r["values"][name] for r in runs["parent"]]
        change = [r["values"][name] for r in runs["change"]]
        p, c = quartiles(parent), quartiles(change)
        wins = sum((b > a) if higher else (b < a) for a, b in zip(parent, change))
        ties = sum(b == a for a, b in zip(parent, change))
        ratio = c[1] / p[1] if p[1] else float("nan")
        read = verdict(metric, parent, change, name == args.claim)
        print(f"{name:<14} {'/'.join(f'{v:.6g}' for v in p):<32} "
              f"{'/'.join(f'{v:.6g}' for v in c):<32} {ratio:7.4f} {c[1] - p[1]:10.4g} "
              f"{p[2] - p[0]:10.4g} {wins:>4}/{args.pairs} {ties:>4}/{args.pairs}  {read}")
        table[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": dict(zip(("q1", "median", "q3"), p), values=parent),
            "change": dict(zip(("q1", "median", "q3"), c), values=change),
            "ratio": ratio if p[1] else None, "median_gap": c[1] - p[1], "parent_iqr": p[2] - p[0],
            "wins": wins, "ties": ties, "verdict": read}
    if args.json:
        write_record(args, runs, sides, table)
    return 0


def write_record(args, runs, sides, table) -> None:
    """Put this workload's table into the JSON record at args.json, keeping other entries."""
    record = json.loads(args.json.read_text()) if args.json.exists() else {}
    settings = runs["change"][0]["settings"]
    versions = {key: settings.get(key) for key in ("python", "numpy", "scipy", "openblas")}
    record.setdefault("workloads", {})[args.workload] = {
        "pairs": args.pairs, "seconds": args.seconds,
        "seeds": list(range(args.seed0, args.seed0 + args.pairs)),
        "order": "parent first in even pairs (0-based), change first in odd ones",
        **sides, "versions": versions, "nproc": settings.get("nproc"), "claim": args.claim,
        "metrics": table}
    args.json.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
