"""Command-line entry point with machine-readable CSV/JSON output.

Subcommands: kernels, factorize, norms, verify, weaktype, mc.  Every run
echoes its fully resolved configuration in the output header, deterministic
subcommands produce byte-identical output on identical flags, and exit codes
are 0 (success), 1 (verification failure), 2 (usage error).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

# numpy-free: a kernels dump reads the scalar formulas, not dhtlab.kernels
from dhtlab.kernel_entries import PARITY, window_values

_SCHEMA = "dhtlab/1"


@contextlib.contextmanager
def _usage_errors(parser: argparse.ArgumentParser):
    """Report the library's ValueError for a bad flag value as a usage error
    (exit 2), keeping exit 1 for verification failures."""
    try:
        yield
    except ValueError as ex:
        parser.error(str(ex))  # argparse exits with status 2


def _emit(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_doc(command: str, config: dict, results) -> str:
    return json.dumps({"schema": _SCHEMA, "command": command,
                       "config": config, "results": results}, indent=2) + "\n"


def _table_doc(command: str, config: dict, columns, rows) -> str:
    """``rows`` as JSON objects keyed by ``columns``, or as CSV lines under
    a ``columns`` header, as ``config["format"]`` says."""
    if config["format"] == "json":
        return _json_doc(command, config, [dict(zip(columns, row)) for row in rows])
    lines = [f"# {_SCHEMA} {command} config={json.dumps(config, sort_keys=True)}",
             ",".join(columns)]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _cmd_kernels(args, parser) -> int:
    with _usage_errors(parser):
        vals = window_values(args.kernel, args.radius)
    ns = range(-args.radius, args.radius + 1)
    config = {"kernel": args.kernel, "radius": args.radius,
              "format": args.format}
    _emit(_table_doc("kernels", config, ("n", "value"), zip(ns, vals)),
          args.output)
    return 0


def _cmd_factorize(args, parser) -> int:
    from dhtlab.factorization import build_K
    with _usage_errors(parser):
        kit = build_K(args.window, args.mass_tol)
    config = {"window": args.window, "mass_tol": args.mass_tol}
    results = {"alpha": kit.alpha, "window": kit.window,
               "G": [float(v) for v in kit.G],
               "K": [float(v) for v in kit.K],
               "mass_defect": float(kit.mass_defect),
               "neumann_terms": kit.neumann_terms}
    _emit(_json_doc("factorize", config, results), args.output)
    return 0


def _cmd_norms(args, parser) -> int:
    from dhtlab.kernels import KERNELS
    from dhtlab.norms import norm_sweep
    from dhtlab.numerics import Exponent
    try:
        radii = [int(r) for r in args.radii.split(",") if r]
    except ValueError:
        radii = []
    if not radii:
        parser.error(f"bad radii list {args.radii!r}")
    with _usage_errors(parser):
        ests = norm_sweep(KERNELS[args.kernel], Exponent(args.p), radii,
                          seed=args.seed, max_iter=args.max_iter, tol=args.tol)
    config = {"kernel": args.kernel, "p": args.p, "radii": radii,
              "seed": args.seed, "max_iter": args.max_iter, "tol": args.tol,
              "format": args.format}
    rows = [(args.kernel, args.p, est.window_radius, est.value,
             est.iterations, est.converged) for est in ests]
    _emit(_table_doc("norms", config, ("kernel", "p", "N", "estimate",
                                       "iterations", "converged"), rows),
          args.output)
    return 0


def _cmd_verify(args, parser) -> int:
    from dhtlab.identities import run_section3_suite
    reports = run_section3_suite()
    # the suite has one tolerance profile; the echo keeps its name
    config = {"suite": args.suite, "tol_profile": "default"}
    doc = _json_doc("verify", config, [r.as_dict() for r in reports])
    _emit(doc, args.output)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_weaktype(args, parser) -> int:
    from dhtlab.kernels import KERNELS
    from dhtlab.weaktype import davis_constant, search_weak_constant
    with _usage_errors(parser):
        best = search_weak_constant(KERNELS[args.kernel], args.family,
                                    args.budget, seed=args.seed,
                                    window=args.window)
    config = {"kernel": args.kernel, "family": args.family,
              "budget": args.budget, "seed": args.seed, "window": args.window}
    lines = [json.dumps({"schema": _SCHEMA, "command": "weaktype",
                         "config": config,
                         "davis_constant": davis_constant()})]
    lines.append(json.dumps(best.as_dict()))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_mc(args, parser) -> int:
    from dhtlab.hprocess_mc import (OccupationGrid, SdeConfig, estimate_T,
                                    occupation_check)
    from dhtlab.seqops import Seq
    heavy_needed = args.paths > 20_000 or args.y0 > 20.0
    if heavy_needed and not args.heavy:
        parser.error("requested run exceeds the light budget "
                     "(paths > 20000 or y0 > 20); pass --heavy")
    x0 = 2.0 * math.pi * args.n if args.x0 is None else args.x0
    config = {"mode": args.mode, "n": args.n, "x0": x0, "y0": args.y0,
              "dt": args.dt, "kill_eps": args.kill_eps,
              "max_time": args.max_time, "paths": args.paths,
              "seed": args.seed}
    # bad configurations and path counts are rejected before any work
    with _usage_errors(parser):
        cfg = SdeConfig(n=args.n, start=(x0, args.y0), dt=args.dt,
                        kill_eps=args.kill_eps, max_time=args.max_time,
                        seed=args.seed)
        if args.mode == "functional":
            stats = estimate_T(Seq.delta(0), cfg, args.paths)
        else:
            span = max(2.0, args.y0 / 2.0)
            grid = OccupationGrid(x_min=x0 - math.pi, x_max=x0 + math.pi,
                                  y_min=0.5, y_max=0.5 + span, nx=5, ny=5)
            rep = occupation_check(cfg, grid, args.paths)
    if args.mode == "functional":
        results = {"mean": stats.mean, "std_error": stats.std_error,
                   "paths": stats.paths,
                   "killed_fraction": stats.killed_fraction}
    else:
        results = {
            "grid": {"x_min": grid.x_min, "x_max": grid.x_max,
                     "y_min": grid.y_min, "y_max": grid.y_max,
                     "nx": grid.nx, "ny": grid.ny},
            "observed": [[float(v) for v in row] for row in rep.observed],
            "expected": [[float(v) for v in row] for row in rep.expected],
            "z": [[None if math.isnan(v) else float(v) for v in row]
                  for row in rep.z],
            "max_abs_z": rep.max_abs_z,
            "frac_within_3": rep.frac_within_3,
            "chi2_z": rep.chi2_z,
            "total_z": rep.total_z,
        }
    _emit(_json_doc("mc", config, results), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhtlab",
        description="Discrete Hilbert transform laboratory: kernels, "
                    "factorization, norm estimates, identity verification, "
                    "weak-type searches, Monte Carlo validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernels", help="dump a kernel window")
    p.add_argument("--kernel", required=True)
    p.add_argument("--radius", type=int, default=10)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)

    p = sub.add_parser("factorize", help="build the probability-kernel kit")
    p.add_argument("--window", type=int, default=1024)
    p.add_argument("--mass-tol", type=float, default=1e-8)
    p.add_argument("--output", default=None)

    p = sub.add_parser("norms", help="norm lower bounds over truncation radii "
                       "(Krylov-Schur at p = 2, power iteration otherwise)")
    p.add_argument("--kernel", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--radii", required=True,
                   help="comma separated truncation radii")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)

    p = sub.add_parser("verify", help="run the deterministic identity suite")
    p.add_argument("--suite", default="section3", choices=("section3",))
    p.add_argument("--output", default=None)

    p = sub.add_parser("weaktype", help="weak-type lower-bound search")
    p.add_argument("--kernel", default="H")
    p.add_argument("--family", default="random_signs",
                   choices=("random_signs", "greedy_atoms",
                            "discretized_bumps"))
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", type=int, default=16384)
    p.add_argument("--output", default=None)

    p = sub.add_parser("mc", help="conditioned-diffusion Monte Carlo")
    p.add_argument("--mode", choices=("functional", "occupation"),
                   default="functional")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--x0", type=float, default=None,
                   help="start abscissa (default: above the target)")
    p.add_argument("--y0", type=float, default=8.0)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--kill-eps", type=float, default=2e-2)
    p.add_argument("--max-time", type=float, default=1e3)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--heavy", action="store_true",
                   help="allow runs beyond the light budget")
    p.add_argument("--output", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "kernel") and args.kernel not in PARITY:
        parser.error(f"unknown kernel {args.kernel!r} "
                     f"(choose from {sorted(PARITY)})")
    handlers = {
        "kernels": _cmd_kernels,
        "factorize": _cmd_factorize,
        "norms": _cmd_norms,
        "verify": _cmd_verify,
        "weaktype": _cmd_weaktype,
        "mc": _cmd_mc,
    }
    return handlers[args.command](args, parser)


if __name__ == "__main__":
    sys.exit(main())
