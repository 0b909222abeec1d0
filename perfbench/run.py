"""dhtlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {cold_cli,warm_operators,mc} \\
        --seed N --seconds S --trace {0,1} [--mc-stream B]

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
  cold_cli        fresh ``python -m dhtlab.cli`` children: factorize, kernels, verify
  warm_operators  one process, warm kernel caches: estimate_norm and weak-type searches
  mc              one process: estimate_T and occupation_check Monte Carlo tasks

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured with
tracing off and scaled to the reference host speed of probe.py: by the
in-process probe for the tasks of the in-process workloads, by the child
probe for cold_cli's children and every workload's set-up children (the
raw times and the factors are in the run record).  ``--trace 1`` runs
the same task list untraced and then traced, requires identical outputs from
the two passes, and prints the per-layer metrics.  Every task's output is
checked after the timed loop; a failed or raising task counts in
``failed``, and a figure with no successful task behind it is null.  The
last line of stdout is the JSON result; the lines before it are a readable
table and a JSON run record (environment, seed, sample counts, tail
percentile, workload figures).  ``--mc-stream`` moves the fixed random
streams of the mc workload to another base.
Exit code 0 on a completed run (check failures included), 2 when the
checkout holds no dhtlab sources or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import bootstrap

SETUP_SAMPLES = 3
WORKLOAD_FIGURES = ("factorization.mass_defect", "norms.norm_gap", "hprocess_mc.time_to_se_s",
                    "cli.output_bytes")


class TraceSession:
    """The parent's tracer plus the summary files of traced CLI children."""

    def __init__(self, spans_mod):
        self.spans = spans_mod
        self.tracer = spans_mod.Tracer()
        self.installation = spans_mod.Installation(self.tracer)
        self.child_dir = os.path.join(bootstrap.ROOT, ".perfbench_tmp", str(os.getpid()))
        self.child_files: list[str] = []

    def child_file(self) -> str:
        os.makedirs(self.child_dir, exist_ok=True)
        path = os.path.join(self.child_dir, f"{len(self.child_files)}.json")
        self.child_files.append(path)
        return path

    def summary(self) -> dict:
        parts = [self.tracer.summary()]
        for path in self.child_files:
            if os.path.exists(path):    # a child killed on timeout writes none; its task failed
                with open(path) as fh:
                    parts.append(json.load(fh))
        return self.spans.merge_summaries(parts)

    def cleanup(self) -> None:
        shutil.rmtree(self.child_dir, ignore_errors=True)
        parent = os.path.dirname(self.child_dir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": bootstrap.NPROC, "cpu": cpu,
            "blas_threads": bootstrap.NPROC}


def measure_setup(workload: str, seed: int) -> tuple[list[float], float]:
    """Wall time of fresh children that each do the workload's set-up and
    exit, and the factor that scales them to the reference speed, from child
    probes taken before the first and after the last: the set-up children
    are fresh interpreters, which the in-process probe does not track."""
    import probe
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-child"]
    env = bootstrap.child_env()
    speed = probe.child_speed_log(env)
    speed.sample()
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=bootstrap.ROOT, env=env, check=True, timeout=120,
                       capture_output=True)    # a pipe: see probe.child_probe
        out.append(time.perf_counter() - t0)
    speed.sample()
    return out, speed.factor()


def setup_child(workload: str, seed: int, seconds: float) -> int:
    import workloads
    if workload == "cold_cli":
        workloads.import_dhtlab()      # cold_cli's set-up is a bare interpreter import
    else:
        workloads.WORKLOADS[workload](seed, seconds).setup()
    return 0


def task_metrics(stats, results, rounds, scale):
    """wall_s (median over rounds of the sum of their task times),
    task_s.p50 and task_s.tail of the task times times ``scale(result)``,
    and the tail percentile."""
    times = [r.seconds * scale(r) for r in results]
    per_round = len(times) // rounds
    walls = [math.fsum(times[i:i + per_round]) for i in range(0, len(times), per_round)]
    q = stats.tail_percentile(len(times))
    p50 = statistics.median(times)
    return {"wall_s": statistics.median(walls), "task_s.p50": p50,
            "task_s.tail": p50 if q == 50 else stats.nearest_rank(times, q)}, q


def run(args) -> int:
    import spans
    import stats
    import workloads

    options = {} if args.mc_stream is None else {"stream": args.mc_stream}
    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds, **options)
    wl.setup()
    bootstrap.check_imported()
    setup_samples, setup_factor = ([], 1.0) if args.trace else measure_setup(args.workload,
                                                                             args.seed)
    speed = wl.speed_log()
    speed.sample()
    results = wl.run_pass(speed=speed)
    speed.sample()
    fails = wl.check_all(results)
    peak_rss = wl.peak_rss_mb()
    accuracy, accuracy_n = wl.accuracy(results)
    raw_timing, tail_q = task_metrics(stats, results, wl.rounds, lambda r: 1.0)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "rounds": wl.rounds, "tasks": len(results), "trace": args.trace,
              "environment": environment(), "tail_percentile": tail_q,
              "fail_frac": len(fails) / len(results), "figures": wl.figures(results),
              "speed_factor": speed.factor(), "probe_s": speed.samples}
    if args.workload == "mc":
        record["mc_stream"] = wl.stream

    if args.trace:
        session = TraceSession(spans)
        session.installation.instrument_loaded()
        try:
            traced = wl.run_pass(session)
            wl.check_all(traced)
            summary = session.summary()
        finally:
            session.installation.remove()
            session.cleanup()
        for a, b in zip(results, traced):
            same = (a.error == b.error and (a.error or
                                            wl.digest(a.task, a.output) == wl.digest(b.task, b.output)))
            if not same:
                fails.append(f"{a.task['id']}: traced output differs from untraced output")
        metrics = spans.layer_metrics(summary)
        metrics.update({k: record["figures"].get(k, 0.0) for k in WORKLOAD_FIGURES})
        metrics["trace.overhead_frac"] = (math.fsum(r.seconds for r in traced)
                                          / math.fsum(r.seconds for r in results) - 1.0)
        units = unit_table("per_layer")
        samples = {k: len(results) for k in metrics}
    else:
        # each task is scaled by the probes around it
        timing, _ = task_metrics(stats, results, wl.rounds, lambda r: speed.factor(r.probe_at))
        setup_raw = statistics.median(setup_samples)
        record["raw_times"] = {"setup_s": setup_raw, **raw_timing}
        record["setup_factor"] = setup_factor
        metrics = {"setup_s": setup_raw * setup_factor, **timing,
                   "peak_rss_mb": peak_rss, "accuracy_gap": accuracy}
        units = unit_table("end_to_end")
        samples = {"setup_s": len(setup_samples), "wall_s": wl.rounds, "task_s.p50": len(results),
                   "task_s.tail": len(results), "peak_rss_mb": 1, "accuracy_gap": accuracy_n}
    record["samples"] = samples
    record["failures"] = fails

    for line in fails:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} tasks={len(results)} rounds={wl.rounds} "
          f"failed={len(fails)} fail_frac={len(fails) / len(results):.4f} "
          f"tail=p{tail_q}")
    for name, value in metrics.items():
        print(f"#   {name:40s} {value:>16.6g} {units[name]:6s} n={samples[name]}")
    for name, value in record["figures"].items():
        print(f"#   figure {name:33s} {value:>16.6g}")
    print(json.dumps(record))
    print(json.dumps({"correct": not fails, "attempted": len(results), "failed": len(fails),
                      "metrics": {k: {"value": _number(v), "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def _number(v):
    """A metric value for the result line: a figure with no tasks behind it
    (NaN, as when every task failed) is null, so the line stays JSON."""
    v = float(v)
    return v if math.isfinite(v) else None


def unit_table(section: str) -> dict:
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cold_cli", "warm_operators", "mc"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mc-stream", type=int, default=None,
                    help="mc only: base of the fixed random streams (default 2026)")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.mc_stream is not None and args.workload != "mc":
        ap.error("--mc-stream applies to the mc workload only")
    # a terminated run raises SystemExit, so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        bootstrap.setup()
        if args.setup_child:
            return setup_child(args.workload, args.seed, args.seconds)
        return run(args)
    except bootstrap.MissingProgram as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
