"""The three benchmark workloads: seeded task lists, task runners and checks.

Each workload is one caller in a closed loop: the next task starts when the
previous one has returned, no threads, at most one child process at a time.
A task list is a number of *rounds*; every round has the same composition
(which subcommands, kernels, exponents, sizes, Monte Carlo classes) and the
seed draws the order and the free parameters inside each class.  Fixed
composition keeps the cost of a list nearly independent of the seed, so
runs with different seeds can be compared.  ``ROUND_S`` is a round's time
at the reference host speed of probe.py, and a run has
``round(seconds / ROUND_S)`` rounds, at least one: a cold_cli round holds
the tasks the workload needs and takes about 22 s, so shorter runs still
measure one round.

Outputs are checked after the timed loop.  Dhtlab is reached through module
attributes (``norms.estimate_norm``), never through names bound here, so the
traced pass sees every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import bootstrap

DHTLAB_MODULES = ("dhtlab", "dhtlab.numerics", "dhtlab.kernels", "dhtlab.seqops",
                  "dhtlab.identities", "dhtlab.factorization", "dhtlab.norms",
                  "dhtlab.weaktype", "dhtlab.hprocess_mc", "dhtlab.cli")
J1_REFERENCE = 0.40597362123696934     # independent oracle value pinned by the tests
TWO_PI = 2.0 * math.pi
CHILD_TIMEOUT_S = 150
BIG_WINDOW = 4160       # past Kernel.cache_radius (4096): E is recomputed on every call


def import_dhtlab():
    return {name: importlib.import_module(name) for name in DHTLAB_MODULES}


@dataclass
class TaskResult:
    task: dict
    output: object
    seconds: float
    error: str = ""
    probe_at: int = 0       # host-speed probes taken before the task


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _hex(x: float) -> str:
    return float(x).hex()


class Workload:
    name = ""
    ROUND_S = 1.0

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.rounds = max(1, round(seconds / self.ROUND_S))
        rng = np.random.default_rng(seed)
        self.tasks = []
        for k in range(self.rounds):
            block = self.make_round(rng, k)
            self.tasks.extend(block[i] for i in rng.permutation(len(block)))

    def speed_log(self):
        """The host-speed probe that this workload's task times are scaled by."""
        import probe    # not at the top: set-up children must not import scipy.signal
        return probe.SpeedLog()

    # subclasses provide make_round, setup, run_task, digest, check and
    # accuracy_sample, and may override aggregate

    def run_pass(self, session=None, speed=None) -> list[TaskResult]:
        """Run the task list once in a closed loop (host-speed probes run
        between tasks when ``speed`` is given, outside every task)."""
        results = []
        for task in self.tasks:
            at = len(speed.samples) if speed is not None else 0
            t0 = time.perf_counter()
            try:
                out = self.run_task(task, session)
                err = ""
            except Exception as ex:  # a raising task is a failed task, not a crash
                out, err = None, f"{type(ex).__name__}: {ex}"
            results.append(TaskResult(task, out, time.perf_counter() - t0, err, at))
            if speed is not None:
                speed.after_task(results[-1].seconds)
        return results

    def check_all(self, results) -> list[str]:
        """One line per failed task (raised, or output check failed)."""
        fails = []
        for r in results:
            if r.error:
                fails.append(f"{r.task['id']}: raised {r.error}")
                continue
            try:
                note = self.check(r.task, r.output)
            except Exception as ex:
                note = f"check raised {type(ex).__name__}: {ex}"
            if note:
                fails.append(f"{r.task['id']}: {note}")
        return fails

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def samples(self, results, sample) -> list[float]:
        """``sample(result)`` over the tasks that returned, skipping those for
        which it gives None or raises (a malformed output fails its check)."""
        values = []
        for r in results:
            if r.error:
                continue
            try:
                v = sample(r)
            except Exception:
                continue
            if v is not None and math.isfinite(v):
                values.append(float(v))
        return values

    def accuracy(self, results) -> tuple[float, int]:
        """The workload's accuracy figure and the number of tasks behind it;
        NaN from no tasks."""
        values = self.samples(results, self.accuracy_sample)
        return (self.aggregate(values) if values else math.nan), len(values)

    aggregate = staticmethod(max)

    def figures(self, results) -> dict:
        """Workload-specific figures for the run record (and the per-layer
        metrics of the same name)."""
        return {}


# -- cold_cli ---------------------------------------------------------------------

class ColdCli(Workload):
    """Fresh ``python -m dhtlab.cli`` children; every call pays the imports
    and the cold kernel fill."""

    name = "cold_cli"
    ROUND_S = 22.0
    SMALL_KERNEL_TASKS = 13         # radius 8..64

    def make_round(self, rng, k):
        tasks = []
        # 4096 is left out for run time: BIG_WINDOW does its work and more
        for w in (1024, 2048, BIG_WINDOW):
            quarter = w // 4
            support = 5
            off = int(rng.integers(-quarter, quarter - support + 1))
            tasks.append({"id": f"factorize W={w}", "sub": "factorize",
                          "argv": ["factorize", "--window", str(w)], "window": w,
                          "check_seq": (off, rng.standard_normal(support).tolist())})
        tasks.append({"id": "verify section3", "sub": "verify",
                      "argv": ["verify", "--suite", "section3"]})
        # Kernel dumps are of J only.  F and E dumps break the parity check
        # at some radii (a program defect, see the README's findings); F's
        # quadrature is J's, and every factorize child fills E.
        for lo, hi in ((4097, 6144), (512, 1024)):
            tasks.append(self._kernel_task(rng, "J", int(rng.integers(lo, hi + 1))))
        for _ in range(self.SMALL_KERNEL_TASKS):
            tasks.append(self._kernel_task(rng, "J", int(rng.integers(8, 65))))
        return tasks

    @staticmethod
    def _kernel_task(rng, kernel, radius):
        fmt = ("csv", "json")[int(rng.integers(0, 2))]
        return {"id": f"kernels {kernel} R={radius} {fmt}", "sub": "kernels",
                "kernel": kernel, "radius": radius, "format": fmt,
                "argv": ["kernels", "--kernel", kernel, "--radius", str(radius),
                         "--format", fmt]}

    def setup(self):
        self.mods = import_dhtlab()
        self.env = bootstrap.child_env()
        self._error_windows = {}

    def speed_log(self):
        # The work is interpreter start-up and imports in children, which the
        # in-process probe does not track; a child probe does (probe.py).
        import probe
        return probe.child_speed_log(self.env)

    def run_task(self, task, session):
        if session is None:
            cmd = [sys.executable, "-m", "dhtlab.cli", *task["argv"]]
        else:
            cmd = [sys.executable, os.path.join(bootstrap.BENCH_DIR, "tracecli.py"),
                   session.child_file(), *task["argv"]]
        proc = subprocess.run(cmd, cwd=bootstrap.ROOT, env=self.env, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def digest(self, task, out):
        return _digest(out[0], out[1])

    def check(self, task, out):
        rc, stdout, stderr = out
        sub = task["sub"]
        if sub == "verify":
            doc = json.loads(stdout)
            bad = [r["name"] for r in doc["results"] if not r["pass"]]
            return f"exit {rc}, failed identities {bad}" if rc != 0 or bad else ""
        if rc != 0:
            return f"exit {rc}: {stderr.decode(errors='replace')[-300:]}"
        if sub == "factorize":
            return self._check_factorize(task, json.loads(stdout)["results"])
        return self._check_kernels(task, stdout)

    def _check_factorize(self, task, res):
        fz, seqops = self.mods["dhtlab.factorization"], self.mods["dhtlab.seqops"]
        k_arr = np.asarray(res["K"], dtype=float)
        defect = float(res["mass_defect"])
        if np.any(k_arr < 0):
            return "K has negative entries"
        if abs(math.fsum(k_arr) - 1.0) > defect:
            return f"|sum K - 1| = {abs(math.fsum(k_arr) - 1.0):.3e} > mass_defect {defect:.3e}"
        kit = fz.FactorizationKit(alpha=res["alpha"], window=res["window"],
                                  G=np.asarray(res["G"], dtype=float), K=k_arr,
                                  neumann_terms=res["neumann_terms"], mass_defect=defect,
                                  g_tail_bound=math.nan, quad_slop=math.nan)
        off, vals = task["check_seq"]
        rep = fz.verify_factorization(seqops.Seq(off, vals), task["window"], kit=kit)
        if not rep.passed:
            return f"factorization residual {rep.max_abs_residual:.3e} > budget {rep.budget:.3e}"
        return ""

    def _error_window(self, kernel, radius):
        """``error_window(radius)`` of a kernel, computed once per run: the
        traced pass's checks reuse the untraced pass's, so the traced kernels
        layer counts only the CLI children's work."""
        key = (kernel, radius)
        if key not in self._error_windows:
            kernels = self.mods["dhtlab.kernels"]
            self._error_windows[key] = kernels.KERNELS[kernel].error_window(radius)
        return self._error_windows[key]

    def _check_kernels(self, task, stdout):
        radius, kernel = task["radius"], task["kernel"]
        if task["format"] == "json":
            rows = [(r["n"], r["value"]) for r in json.loads(stdout)["results"]]
        else:
            lines = stdout.decode().splitlines()[2:]
            rows = [(int(a), float(b)) for a, b in (ln.split(",") for ln in lines)]
        ns = [n for n, _ in rows]
        if ns != list(range(-radius, radius + 1)):
            return "wrong index range"
        v = np.array([x for _, x in rows])
        pos, neg = v[radius + 1:], v[radius - 1::-1]
        sign = 1.0 if kernel == "E" else -1.0
        # odd J, F and even E: K_n and sign * K_-n agree within the two
        # entries' own error estimates, taken at the same radius
        errs = self._error_window(kernel, radius)
        gap = np.abs(pos - sign * neg)
        allowed = errs[radius + 1:] + errs[radius - 1::-1]
        bad = np.nonzero(gap > allowed)[0]
        if bad.size:
            n = int(bad[0]) + 1
            return (f"|{kernel}_{n} - ({sign:+.0f}) {kernel}_-{n}| = {gap[n - 1]:.3e} exceeds "
                    f"their error estimates {allowed[n - 1]:.3e} ({bad.size} pairs)")
        if kernel == "E":
            if not (v[radius] > 0 and np.all(pos < 0)):
                return "E signs wrong (need E_0 > 0, E_n < 0)"
            return ""
        if v[radius] != 0.0:
            return f"{kernel}_0 is not 0"
        bar = float(errs[radius + 1])
        j1 = v[radius + 1] + (0.0 if kernel == "J" else 1.0 / math.pi)
        # F_1 + 1/pi is one rounding away from J_1; that rounding is allowed
        slack = 0.0 if kernel == "J" else math.ulp(J1_REFERENCE)
        if abs(j1 - J1_REFERENCE) > bar + slack:
            return f"J_1 = {j1!r} is {abs(j1 - J1_REFERENCE):.2e} from {J1_REFERENCE!r}, bar {bar:.2e}"
        return ""

    def accuracy_sample(self, r):
        """A factorize task's mass_defect."""
        if r.task["sub"] != "factorize" or r.output[0] != 0:
            return None
        return json.loads(r.output[1])["results"]["mass_defect"]

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def figures(self, results):
        acc, _ = self.accuracy(results)
        return {"factorization.mass_defect": acc,
                "cli.output_bytes": sum(len(r.output[1]) for r in results if r.output)}


# -- warm_operators ---------------------------------------------------------------

NORM_KERNELS = ("H", "J", "K")
NORM_PS = (4.0 / 3.0, 2.0, 4.0)
NORM_NS = (256, 1024, 4096)
WEAK_WINDOW = 16384
NORM_REFS = os.path.join(bootstrap.BENCH_DIR, "norm_refs.json")


def norm_ref_key(kernel: str, p: float, n: int) -> str:
    """Key of a reference in norm_refs.json (written by make_refs.py)."""
    return f"{kernel}|{p!r}|{n}"


class WarmOperators(Workload):
    """One long-lived process with filled kernel caches: norm estimates and
    weak-type searches."""

    name = "warm_operators"
    ROUND_S = 8.0

    def make_round(self, rng, k):
        tasks = [{"id": f"norm {k} p={p:.4f} N={n}", "kind": "norm", "kernel": k, "p": p,
                  "N": n} for k in NORM_KERNELS for p in NORM_PS for n in NORM_NS]
        # nine H sign searches of ~0.12 s sit above the 16 fast (< 50 ms)
        # tasks, so the median task is one of them rather than the edge of a
        # cluster; nine of them steady the median of a one-round run
        weak = [("H", "random_signs", 100)] * 9 + [("H", "greedy_atoms", 20),
                                                   ("H", "discretized_bumps", 10),
                                                   ("J", "random_signs", 4)]
        for kernel, family, budget in weak:
            s = int(rng.integers(0, 2**31))
            tasks.append({"id": f"weak {kernel} {family} budget={budget} seed={s}",
                          "kind": "weak", "kernel": kernel, "family": family,
                          "budget": budget, "seed": s})
        return tasks

    def setup(self):
        self.mods = import_dhtlab()
        with open(NORM_REFS) as fh:
            self.refs = json.load(fh)
        kernels = self.mods["dhtlab.kernels"]
        for name in NORM_KERNELS:
            kernels.KERNELS[name].window(kernels.KERNELS[name].cache_radius)

    def run_task(self, task, session):
        m = self.mods
        k = m["dhtlab.kernels"].KERNELS[task["kernel"]]
        if task["kind"] == "norm":
            op = m["dhtlab.seqops"].ConvOperator(k, task["N"])
            return op, m["dhtlab.norms"].estimate_norm(op, m["dhtlab.numerics"].Exponent(task["p"]),
                                                       max_iter=500, tol=1e-9, seed=0)
        return m["dhtlab.weaktype"].search_weak_constant(k, task["family"], task["budget"],
                                                         seed=task["seed"], window=WEAK_WINDOW)

    def digest(self, task, out):
        if task["kind"] == "norm":
            out = out[1]
            return _digest(_hex(out.value), out.iterations, out.converged, _hex(out.residual),
                           out.certificate.offset, out.certificate.values.tobytes(),
                           tuple(_hex(h) for h in out.history))
        return _digest(json.dumps(out.as_dict(), sort_keys=True))

    def check(self, task, out):
        m = self.mods
        if task["kind"] == "weak":
            davis = m["dhtlab.weaktype"].davis_constant()
            if not (0.0 < out.ratio <= davis):
                return f"weak ratio {out.ratio!r} outside (0, Davis constant {davis!r}]"
            return ""
        op, out = out
        e = m["dhtlab.numerics"].Exponent(task["p"])
        witnessed = m["dhtlab.norms"].test_vector_bound(op, out.certificate, e)
        if abs(witnessed - out.value) > 1e-12 * out.value:
            return f"certificate gives {witnessed!r}, estimate says {out.value!r}"
        if task["kernel"] in ("H", "J"):
            cap = m["dhtlab.numerics"].pichorides_constant(e)
            if not out.value <= cap:
                return f"estimate {out.value!r} exceeds cot(pi/(2p*)) = {cap!r}"
        return ""

    def accuracy_sample(self, r):
        """A norm task's norm_gap, (ref - value) / ref."""
        if r.task["kind"] != "norm":
            return None
        task, value = r.task, r.output[1].value
        ref = self.refs[norm_ref_key(task["kernel"], task["p"], task["N"])]["value"]
        return (ref - value) / ref

    def figures(self, results):
        acc, _ = self.accuracy(results)
        return {"norms.norm_gap": acc}


# -- mc ---------------------------------------------------------------------------

MC_TARGETS = (1, 2)
MC_HEIGHTS = (4.0, 6.0, 8.0)
MC_PATHS = 1000
MC_MAX_TIME = 5000.0
MC_STREAM = 2026
SE_TARGET = 1e-3


class MonteCarlo(Workload):
    """Seeded conditioned-diffusion runs: estimate_T against the finite-start
    quadrature, and 5x5 occupation checks as in the CLI's occupation mode.

    The random stream of each task is fixed: ``stream`` (``MC_STREAM`` by
    default) plus 8 per round plus the task's index in the round, so every
    round draws fresh paths; whether a class uses the unit atom, two equal
    signs or two opposite signs is fixed too.  ``--seed`` draws the overall
    sign of each sequence and the task order.  A task's time is set by its
    slowest path, so it varies by about 20 % from stream to stream, and the
    standard error of a two-site sequence depends on its sign pattern; with
    either drawn per workload seed, a run's few tasks could not give steady
    figures.  With them fixed every seed re-measures the same paths, and the
    3-standard-error checks give the same verdict on every run.  Another
    ``stream`` base redraws every path, as a change to how the program
    consumes its random streams would.
    """

    name = "mc"
    ROUND_S = 12.0

    def __init__(self, seed: int, seconds: float, stream: int = MC_STREAM):
        self.stream = stream
        super().__init__(seed, seconds)

    def make_round(self, rng, k):
        base = self.stream + 8 * k
        tasks = []
        for i, (n, y0) in enumerate((n, y0) for n in MC_TARGETS for y0 in MC_HEIGHTS):
            if i % 2 == 0:
                a = {0: 1.0}
            else:                               # random signs on sites 0 and -1
                s0 = float(rng.choice((-1.0, 1.0)))
                a = {0: s0, -1: s0 * (-1.0 if i == 3 else 1.0)}
            tasks.append({"id": f"estimate_T n={n} y0={y0} a={a} stream={base + i}",
                          "kind": "estimate_T",
                          "n": n, "y0": y0, "a": a, "seed": base + i})
        for j, n in enumerate(MC_TARGETS):
            tasks.append({"id": f"occupation n={n} y0=6.0 stream={base + 6 + j}",
                          "kind": "occupation",
                          "n": n, "y0": 6.0, "seed": base + 6 + j})
        return tasks

    def setup(self):
        self.mods = import_dhtlab()
        self._refs = {}

    def _cfg(self, task):
        mc = self.mods["dhtlab.hprocess_mc"]
        return mc.SdeConfig(n=task["n"], start=(TWO_PI * task["n"], task["y0"]),
                            max_time=MC_MAX_TIME, seed=task["seed"])

    @staticmethod
    def grid_args(task):
        """The CLI's occupation grid: 5x5 cells around the target site."""
        x0, y0 = TWO_PI * task["n"], task["y0"]
        span = max(2.0, y0 / 2.0)
        return dict(x_min=x0 - math.pi, x_max=x0 + math.pi, y_min=0.5, y_max=0.5 + span,
                    nx=5, ny=5)

    def run_task(self, task, session):
        mc, seqops = self.mods["dhtlab.hprocess_mc"], self.mods["dhtlab.seqops"]
        if task["kind"] == "estimate_T":
            return mc.estimate_T(seqops.Seq.from_dict(task["a"]), self._cfg(task), MC_PATHS)
        return mc.occupation_check(self._cfg(task), mc.OccupationGrid(**self.grid_args(task)),
                                   MC_PATHS)

    def digest(self, task, out):
        if task["kind"] == "estimate_T":
            return _digest(_hex(out.mean), _hex(out.std_error), out.paths,
                           _hex(out.killed_fraction))
        return _digest(out.observed.tobytes(), out.expected.tobytes(), out.std_error.tobytes(),
                       out.z.tobytes(), _hex(out.chi2), _hex(out.total_z))

    def speed_log(self):
        # tasks of seconds: fewer probes, for run time
        import probe
        return probe.SpeedLog(every_s=4.0)

    def reference(self, task) -> float:
        """Sum over sites m of a_m times the (n - m, 0) entry from a start
        shifted by -2 pi m (the half-plane picture is 2 pi periodic)."""
        quad = self.mods["dhtlab.identities"].conditional_kernel_quad
        total = 0.0
        for m, coef in sorted(task["a"].items()):
            key = (task["n"] - m, TWO_PI * (task["n"] - m), task["y0"])
            if key not in self._refs:
                self._refs[key] = quad(*key, rel_tol=1e-6).value
            total += coef * self._refs[key]
        return total

    def check(self, task, out):
        if task["kind"] == "occupation":
            if not (np.all(np.isfinite(out.observed)) and np.all(out.expected > 0)):
                return "non-finite occupation or non-positive expected cell"
            if not abs(out.total_z) <= 3.0:
                return f"total occupation z = {out.total_z:+.2f} beyond 3 standard errors"
            return ""
        ref = self.reference(task)
        if not abs(out.mean - ref) <= 3.0 * out.std_error:
            return (f"mean {out.mean:.6f} is {(out.mean - ref) / out.std_error:+.2f} standard "
                    f"errors from the quadrature value {ref:.6f}")
        return ""

    def accuracy_sample(self, r):
        """An estimate_T task's std_error / |reference| (positive, for the
        geometric mean)."""
        if r.task["kind"] != "estimate_T":
            return None
        rel = r.output.std_error / abs(self.reference(r.task))
        return rel if rel > 0 else None

    aggregate = staticmethod(statistics.geometric_mean)

    def figures(self, results):
        """time_to_se: median over estimate_T tasks of task_s * (std_error / 1e-3)^2."""
        times = self.samples(results, lambda r: r.seconds * (r.output.std_error / SE_TARGET) ** 2
                             if r.task["kind"] == "estimate_T" else None)
        return {"hprocess_mc.time_to_se_s": statistics.median(times) if times else math.nan}


WORKLOADS = {w.name: w for w in (ColdCli, WarmOperators, MonteCarlo)}
