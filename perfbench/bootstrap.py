"""Locate the program under test and fix the process environment.

Every benchmark entry point imports this module before numpy or dhtlab: it
caps the BLAS/OpenMP thread pools at the number of usable cores, so timings
do not depend on how a library sizes its pool, and it puts the checkout's own
``src`` first on the import path.  A checkout without ``src/dhtlab`` is an
error (the benchmark measures the program in its checkout, never an
installed copy).
"""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no dhtlab sources to measure."""


def child_env() -> dict:
    """Environment for child interpreters: same thread cap, same sources."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(NPROC)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup() -> None:
    """Apply the thread cap and import path to this process."""
    if not os.path.isfile(os.path.join(SRC, "dhtlab", "__init__.py")):
        raise MissingProgram(f"no dhtlab sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def check_imported() -> None:
    """Fail if dhtlab was imported from anywhere but this checkout."""
    import dhtlab
    here = os.path.realpath(os.path.join(SRC, "dhtlab"))
    if os.path.dirname(os.path.realpath(dhtlab.__file__)) != here:
        raise MissingProgram(f"dhtlab imported from {dhtlab.__file__}, not {here}")
