"""Compute the reference norms behind the warm_operators ``norm_gap`` figure.

    python3 perfbench/make_refs.py        # rewrites perfbench/norm_refs.json

One reference per (kernel, p, N) task of the warm_operators workload:

* p = 2, N <= 1024: the largest singular value of the dense truncation
  (``scipy.linalg.svdvals``), exact up to rounding;
* p = 2, N = 4096: the largest eigenvalue of T^T T by ``eigsh`` with the FFT
  matvec at tol 1e-14, square-rooted;
* p != 2: a long power iteration (``estimate_norm`` with max_iter = 20000,
  tol = 1e-13), itself a certified lower bound, so a short run may exceed it
  by rounding and its gap is then slightly negative.

The method and the time it took are stored beside each value.  Takes a few
minutes on two cores (the J, N = 4096 eigsh dominates).
"""

from __future__ import annotations

import json
import sys
import time

import bootstrap

bootstrap.setup()

import numpy as np  # noqa: E402
import scipy.linalg as sla  # noqa: E402
from scipy.sparse.linalg import LinearOperator, eigsh  # noqa: E402

from dhtlab.kernels import KERNELS  # noqa: E402
from dhtlab.norms import estimate_norm  # noqa: E402
from dhtlab.numerics import Exponent  # noqa: E402
from dhtlab.seqops import ConvOperator  # noqa: E402
from workloads import NORM_KERNELS, NORM_NS, NORM_PS, NORM_REFS, norm_ref_key  # noqa: E402


def _reference(kernel: str, p: float, n: int) -> tuple[float, str]:
    op = ConvOperator(KERNELS[kernel], n)
    if p == 2.0 and n <= 1024:
        return float(sla.svdvals(op.matrix())[0]), "dense SVD (svdvals)"
    if p == 2.0:
        size = op.size
        tt = LinearOperator((size, size), dtype=float,
                            matvec=lambda v: op.apply_adjoint_dense(op.apply_dense(np.ravel(v))))
        lam = eigsh(tt, k=1, which="LA", tol=1e-14, ncv=40, maxiter=100_000,
                    return_eigenvectors=False)
        return float(np.sqrt(lam[0])), "eigsh on T^T T, tol 1e-14, ncv 40"
    est = estimate_norm(op, Exponent(p), max_iter=20_000, tol=1e-13)
    return float(est.value), (f"power iteration, max_iter 20000, tol 1e-13, "
                              f"{est.iterations} iterations, converged={est.converged}")


def main() -> int:
    refs = {}
    for kernel in NORM_KERNELS:
        for p in NORM_PS:
            for n in NORM_NS:
                t0 = time.perf_counter()
                value, method = _reference(kernel, p, n)
                refs[norm_ref_key(kernel, p, n)] = {
                    "kernel": kernel, "p": p, "N": n, "value": value,
                    "method": method, "seconds": round(time.perf_counter() - t0, 2)}
                print(f"{kernel} p={p:.4f} N={n}: {value!r} ({method})", flush=True)
    with open(NORM_REFS, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
