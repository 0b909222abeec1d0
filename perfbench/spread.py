"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload mc --seeds 1 2 3 4 5 [--seconds S] [--mc-stream B]

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound in BENCHMARK.json.  A benchmark is steady when
every spread but setup_s stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--mc-stream", type=int, default=None,
                    help="passed to run.py: base of the mc workload's random streams")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    extra = [] if args.mc_stream is None else ["--mc-stream", str(args.mc_stream)]
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                               args.workload, "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "0", *extra], cwd=ROOT, capture_output=True,
                              text=True, check=True)
        *_, record, result = (json.loads(ln) for ln in proc.stdout.strip().splitlines()[-2:])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              f"speed_factor={record['speed_factor']:.3f} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for k, v in result["metrics"].items():
            values[k].append(v["value"])
    print(f"{'metric':16s} {'median':>12s} {'IQR/median':>11s} {'bound':>6s}")
    for m in bench["end_to_end"]:
        xs = values[m["name"]]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
        spread = (q3 - q1) / med
        flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "  <-- above bound/3"
        print(f"{m['name']:16s} {med:12.6g} {spread:11.4f} {m['bound']:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
