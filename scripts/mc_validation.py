#!/usr/bin/env python3
"""Monte Carlo validation runs for the conditioned-diffusion representation.

The light mode checks the simulator against the deterministic finite-start
quadrature value at a moderate height; --heavy reproduces the acceptance
configuration (1e5 paths from height 50 against the J kernel entry).
"""

import argparse
import math
import sys
import time

from dhtlab.hprocess_mc import OccupationGrid, SdeConfig, estimate_T, occupation_check
from dhtlab.identities import conditional_kernel_quad
from dhtlab.kernels import j_kernel
from dhtlab.seqops import Seq


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--heavy", action="store_true")
    ap.add_argument("--paths", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    if args.heavy:
        cfg = SdeConfig(n=1, start=(0.0, 50.0), seed=args.seed, max_time=2e5)
        target = j_kernel(1)
        label = "J kernel entry (limit)"
        paths = max(args.paths, 100_000)
    else:
        cfg = SdeConfig(n=1, start=(2 * math.pi, 6.0), seed=args.seed,
                        max_time=5000.0)
        target = conditional_kernel_quad(1, *cfg.start, rel_tol=1e-6).value
        label = "finite-start quadrature"
        paths = args.paths

    stats = estimate_T(Seq.delta(0), cfg, paths)
    z = (stats.mean - target) / stats.std_error
    print(f"functional: {stats.mean:.6f} +- {stats.std_error:.6f}  "
          f"target [{label}] {target:.6f}  z = {z:+.2f}  "
          f"absorbed {stats.killed_fraction:.3f}  "
          f"({time.perf_counter() - t0:.0f}s)")

    t0 = time.perf_counter()
    grid = OccupationGrid(x_min=2 * math.pi - math.pi, x_max=2 * math.pi + math.pi,
                          y_min=0.5, y_max=4.5, nx=5, ny=5)
    occ_cfg = SdeConfig(n=1, start=(2 * math.pi, 8.0), seed=args.seed,
                        max_time=5000.0)
    rep = occupation_check(occ_cfg, grid, min(paths, 40_000))
    print(f"occupation: frac|z|<=3 {rep.frac_within_3:.2f}  "
          f"chi2_z {rep.chi2_z:+.2f}  total_z {rep.total_z:+.2f}  "
          f"({time.perf_counter() - t0:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
