"""Command-line front end.

Subcommands build chain files, score encodings, run disorder sweeps, tune
Apollaro parameters, and cross-check the free-fermion reduction.  Everything
is seeded, deterministic and runs in one thread: rerunning a command with the
same flags reproduces its output files byte for byte, whatever --threads says
(it must be >= 1 and is otherwise unused).

Exit codes: 0 success, 2 usage error (bad flags, missing files, guard
violations), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .chain import (FORMAT_VERSION, NumericalFailure, load_chain, rescale_to_unit_max,
                    save_chain, write_json)
from .disorder import uniform_disorder
from .encoding import (best_excitation_count, fidelity_haselgrove, fidelity_multi,
                       fidelity_single, optimal_encoding, save_encoding, transfer_matrix)
from .fermion import free_fermion_report
from .models import (apollaro_chain, auto_transfer_time, pst_chain, quadratic_chain,
                     quadratic_time_bound, uniform_chain)
from .montecarlo import (SweepAxis, TransferPolicy, save_grid_csv, save_grid_descriptor,
                         sweep)
from .optimize import Objective, objective_landscape, optimize_apollaro
from .spectral import eigendecompose, end_windows

# Points per sweep or landscape axis: a larger grid is a typo, not a run.
MAX_AXIS_POINTS = 1000


def _build_chain_from_flags(args) -> object:
    if getattr(args, "chain", None):
        return load_chain(args.chain)
    model = args.model
    if model == "uniform":
        return uniform_chain(args.n)
    if model == "pst":
        return pst_chain(args.n)
    if model == "quadratic":
        return quadratic_chain(args.n)
    if model == "apollaro":
        if args.x is None or args.y is None:
            raise ValueError("apollaro model needs --x and --y")
        return apollaro_chain(args.n, args.x, args.y)
    raise ValueError(f"unknown model {model!r}")


def _finite(value: float, flag: str) -> float:
    """value, or a usage error naming flag if it is NaN or infinite."""
    if not np.isfinite(value):
        raise ValueError(f"{flag} must be a finite number, got {value}")
    return value


def _parse_axis(name: str, text: str, flag: str) -> SweepAxis:
    parts = [_finite(float(p), flag) for p in text.split(":")]
    if len(parts) == 1:
        values = np.array(parts)
    elif len(parts) == 3:
        start, stop, step = parts
        if step <= 0:
            raise ValueError("axis step must be positive")
        if stop < start:
            raise ValueError(f"{flag} stop {stop:g} is below its start {start:g}")
        count = np.rint((stop - start) / step) + 1  # inf where the division overflows
        if count > MAX_AXIS_POINTS:
            raise ValueError(f"{flag} has {count:.15g} points, more than {MAX_AXIS_POINTS}")
        values = start + step * np.arange(int(count))
        values = values[values <= stop + 1e-12]
    else:
        raise ValueError(f"axis spec {text!r} must be VALUE or START:STOP:STEP")
    return SweepAxis(name=name, values=values)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    chain = _build_chain_from_flags(args)
    summary = {"format_version": FORMAT_VERSION, "model": args.model, "n": chain.n}
    if args.rescale:
        chain, alpha = rescale_to_unit_max(chain)
        summary["alpha"] = alpha
    if args.model == "quadratic":
        summary["transfer_time_lower_bound"] = quadratic_time_bound(chain.n)
    if args.out is not None:
        save_chain(chain, args.out)
        summary["out"] = args.out
    summary["max_coupling"] = float(np.max(np.abs(chain.couplings)))
    sys.stdout.write(write_json(summary))
    return 0


def cmd_fidelity(args) -> int:
    chain = _build_chain_from_flags(args)
    t = auto_transfer_time(chain) if args.time == "auto" else float(args.time)
    window = end_windows(chain.n, args.window_in, args.window_out, t)
    eig = eigendecompose(chain)
    solution = optimal_encoding(transfer_matrix(eig, window))
    lams = np.clip(solution.singular_values, 0.0, 1.0)
    n_opt, f_opt = best_excitation_count(lams)
    report = {
        "format_version": FORMAT_VERSION,
        "chain": chain.label,
        "n": chain.n,
        "window_in": args.window_in,
        "window_out": args.window_out,
        "time": t,
        "singular_values": [float(v) for v in solution.singular_values],
        "fidelity_single": fidelity_single(lams[0]),
        "fidelity_multi_all": fidelity_multi(lams),
        "fidelity_haselgrove_all": fidelity_haselgrove(lams),
        "best_excitation_count": n_opt,
        "best_fidelity": f_opt,
    }
    if args.encoding_out:
        save_encoding(solution, args.encoding_out)
    sys.stdout.write(write_json(report, args.out))
    return 0


def cmd_sweep(args) -> int:
    chain = _build_chain_from_flags(args)
    policy = TransferPolicy(window_in=args.window_in, window_out=args.window_out,
                            time=None if args.time == "auto" else float(args.time))
    grid = sweep(chain,
                 _parse_axis(args.j_axis_name, args.j_axis, "--j-axis"),
                 _parse_axis(args.b_axis_name, args.b_axis, "--b-axis"),
                 policy,
                 coupling_mode=args.coupling_mode,
                 samples=args.samples, quantile=args.quantile, seed=args.seed)
    save_grid_csv(grid, args.out)
    if args.descriptor:
        save_grid_descriptor(grid, args.descriptor)
    sys.stdout.write(f"wrote {args.out}\n")
    return 0


def cmd_optimize(args) -> int:
    if args.delta < 0:
        raise ValueError(f"--delta must be >= 0, got {args.delta}")
    disorder = None
    metric = "deterministic"
    if args.delta > 0:
        disorder = uniform_disorder(args.delta, 0.0, args.seed)
        metric = "quantile"
    if args.landscape and not args.out:
        raise ValueError("--landscape writes a CSV and needs --out")
    obj = Objective(n=args.n, window=args.window, disorder=disorder, metric=metric,
                    samples=args.samples, quantile=args.quantile)
    if args.landscape:
        xs = _parse_axis("sigma_J", args.x_axis, "--x-axis").values  # name unused
        ys = _parse_axis("sigma_J", args.y_axis, "--y-axis").values
        values = objective_landscape(obj, xs, ys)
        with open(args.out, "w", newline="") as fh:
            fh.write("# format=1\nx,y,value\n")
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    fh.write(f"{x:.12g},{y:.12g},{values[i, j]:.12g}\n")
        sys.stdout.write(f"wrote {args.out}\n")
        return 0
    result = optimize_apollaro(obj, args.x0, args.y0, restarts=args.restarts)
    report = {
        "format_version": FORMAT_VERSION,
        "inputs": {"n": args.n, "window": args.window, "delta": args.delta,
                   "metric": metric, "samples": args.samples,
                   "quantile": args.quantile, "seed": args.seed,
                   "x0": args.x0, "y0": args.y0},
        "x": result.x,
        "y": result.y,
        "objective_value": result.objective_value,
        "evaluations": result.evaluations,
        "hit_boundary": result.hit_boundary,
        "trace": [[x, y, v] for (x, y, v) in result.trace] if args.trace else [],
    }
    sys.stdout.write(write_json(report, args.out))
    return 0


def cmd_oracle(args) -> int:
    chain = _build_chain_from_flags(args)
    report = free_fermion_report(chain, args.k, args.t, tolerance=args.tolerance)
    report["format_version"] = FORMAT_VERSION
    sys.stdout.write(write_json(report, args.out))
    return 0 if report["passed"] else 3


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_model_flags(p: argparse.ArgumentParser, with_file: bool = True) -> None:
    p.add_argument("--model", default="uniform",
                   choices=["uniform", "apollaro", "pst", "quadratic"],
                   help="chain family to build")
    p.add_argument("--n", type=int, default=51, help="chain length")
    p.add_argument("--x", type=float, default=None, help="apollaro outer coupling")
    p.add_argument("--y", type=float, default=None, help="apollaro second coupling")
    if with_file:
        p.add_argument("--chain", default=None, help="chain JSON file (overrides --model)")


def _add_window_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", type=int, default=None,
                   help="window size at both ends (shorthand)")
    p.add_argument("--window-in", type=int, default=1)
    p.add_argument("--window-out", type=int, default=1)
    p.add_argument("--time", default="auto",
                   help="extraction time, or 'auto' for the chain's own transfer time")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spintransfer",
        description="Spin-chain state transfer: encodings, disorder sweeps, tuning.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a chain and write it as JSON")
    _add_model_flags(p, with_file=False)
    p.add_argument("--rescale", action="store_true", help="rescale to unit max coupling")
    p.add_argument("--out", default=None, help="chain JSON output path")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("fidelity", help="score the optimal encoding of a chain")
    _add_model_flags(p)
    _add_window_flags(p)
    p.add_argument("--out", default=None, help="report JSON path")
    p.add_argument("--encoding-out", default=None, help="encoding solution JSON path")
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("sweep", help="2-D disorder sweep, CSV output")
    _add_model_flags(p)
    _add_window_flags(p)
    p.add_argument("--j-axis", default="0:0.2:0.05", help="coupling axis VALUE or START:STOP:STEP")
    p.add_argument("--b-axis", default="0:0.2:0.05", help="field axis VALUE or START:STOP:STEP")
    p.add_argument("--j-axis-name", default="sigma_J", choices=["sigma_J", "delta_J"])
    p.add_argument("--b-axis-name", default="sigma_B", choices=["sigma_B", "delta_B"])
    p.add_argument("--coupling-mode", default="additive", choices=["additive", "multiplicative"])
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--quantile", type=float, default=0.75)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--descriptor", default=None, help="JSON descriptor output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize", help="tune apollaro (x, y) for an objective")
    p.add_argument("--n", type=int, default=51)
    p.add_argument("--window", type=int, default=1)
    p.add_argument("--delta", type=float, default=0.0,
                   help="uniform +-delta additive coupling disorder (0 = none)")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--quantile", type=float, default=0.75)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x0", type=float, default=0.5)
    p.add_argument("--y0", type=float, default=0.8)
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--trace", action="store_true", help="include the evaluation trace")
    p.add_argument("--landscape", action="store_true", help="grid scan instead of optimizing")
    p.add_argument("--x-axis", default="0.3:0.7:0.05", help="landscape x grid")
    p.add_argument("--y-axis", default="0.6:1.0:0.05", help="landscape y grid")
    p.add_argument("--out", default=None, help="report JSON / landscape CSV path")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("oracle", help="free-fermion determinant cross-check")
    _add_model_flags(p)
    p.add_argument("--k", type=int, default=2, help="excitation count")
    p.add_argument("--t", type=float, default=1.0, help="evolution time")
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--out", default=None, help="report JSON path")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "window", None) is not None:
        args.window_in = args.window_out = args.window
    try:
        for name, value in vars(args).items():
            if isinstance(value, float):
                _finite(value, "--" + name.replace("_", "-"))
        if getattr(args, "threads", 1) < 1:
            raise ValueError("need at least one thread")
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalFailure as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
