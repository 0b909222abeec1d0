"""Traced timings of the rows of the ROADMAP baseline table.

    python3 perfbench/baseline.py

Times each row in one fresh process, in the order below, with the span
recorder of spans.py installed, and prints a markdown table: the span's
total time, the layer's self time inside it, and the counts that explain
it.  Rows: E.window(2048) cold, build_K(2048) with E warm, estimate_norm H
p = 2 N = 4096 at the CLI default (500 iterations) and at the 1500
iterations the ROADMAP timed, estimate_T with 2000 paths from y0 = 6, and
run_section3_suite.  Takes about 20 s on two cores.
"""

from __future__ import annotations

import math
import sys
import time

import bootstrap

bootstrap.setup()

import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    mods = workloads.import_dhtlab()
    kernels, fz, norms = mods["dhtlab.kernels"], mods["dhtlab.factorization"], mods["dhtlab.norms"]
    seqops, numerics, mc = mods["dhtlab.seqops"], mods["dhtlab.numerics"], mods["dhtlab.hprocess_mc"]
    identities = mods["dhtlab.identities"]
    op = seqops.ConvOperator(kernels.HILBERT, 4096)
    cfg = mc.SdeConfig(n=1, start=(2.0 * math.pi, 6.0), seed=11, max_time=5000.0)
    rows = [
        ("E.window(2048), cold", lambda: kernels.E.window(2048)),
        ("build_K(2048, 1e-8), E warm", lambda: fz.build_K(2048, 1e-8)),
        ("estimate_norm H p=2 N=4096, 500 it",
         lambda: norms.estimate_norm(op, numerics.Exponent(2.0))),
        ("estimate_norm H p=2 N=4096, 1500 it",
         lambda: norms.estimate_norm(op, numerics.Exponent(2.0), max_iter=1500)),
        ("estimate_T 2000 paths y0=6, seed 11",
         lambda: mc.estimate_T(seqops.Seq.delta(0), cfg, 2000)),
        ("run_section3_suite", lambda: identities.run_section3_suite()),
    ]
    print("| row | total | self time by layer | counts |")
    print("|---|---|---|---|")
    for label, fn in rows:
        tracer = spans.Tracer()
        inst = spans.Installation(tracer)
        inst.instrument_loaded()
        try:
            t0 = time.perf_counter()
            result = fn()
            total = time.perf_counter() - t0
        finally:
            inst.remove()
        s = tracer.summary()
        counts = {k: v for k, v in s["counters"].items() if v}
        extra = ""
        if hasattr(result, "iterations"):
            extra = f"; {result.iterations} iterations, converged={result.converged}"
        if hasattr(result, "neumann_terms"):
            extra = f"; mass_defect {result.mass_defect:.3e}"
        if hasattr(result, "std_error"):
            extra = f"; std_error {result.std_error:.2e}"
        counts_txt = ", ".join(f"{k} {v:g}" for k, v in sorted(counts.items()))
        layers = sorted(s["self_s_by_layer"].items(), key=lambda kv: -kv[1])
        self_txt = ", ".join(f"{k} {v:.3f} s" for k, v in layers if v >= 0.0005)
        print(f"| {label} | {total:.3f} s | {self_txt} | {counts_txt}{extra} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
