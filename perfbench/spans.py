"""Pass-through span recorder for the benchmark's traced runs.

Spans are recorded from outside the program.  Each public entry point in
``INSTRUMENTS`` is replaced by a wrapper that records a span (name, start,
end, parent) around the call, updates a few counters from the call's
arguments and result, and returns the result unchanged.  Class methods are
wrapped on the class; a module-level function is rebound at every module
that binds it (``convolve`` in seqops, factorization and weaktype, and so on),
so calls made through an imported name are seen too.  Nothing in the program
is edited, and traced and untraced runs compute the same bits.

A span's self time is its duration minus the durations of its direct child
spans; calls run on one thread, so children nest inside their parent.
"""

from __future__ import annotations

import contextlib
import importlib.abc
import importlib.machinery
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

_clock = time.perf_counter


class Tracer:
    """Spans and counters of one process, kept in memory until summarised."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._groups: list[str] = []
        self.counters: dict[str, float] = defaultdict(float)

    def open(self, name: str, layer: str, group: str | None = None) -> tuple[int, bool]:
        """Start a span; returns its index and whether it is the outermost
        of its group (a call of ``window`` that calls ``window_range``, or a
        recursive ``integrate``, counts its work once)."""
        parent = self._stack[-1] if self._stack else -1
        group = group or name
        outer = parent < 0 or self._groups[parent] != group
        idx = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self._groups.append(group)
        self.parents.append(parent)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(_clock())
        return idx, outer

    def close(self, idx: int) -> None:
        self.ends[idx] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        idx, _ = self.open(name, layer)
        try:
            yield
        finally:
            self.close(idx)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(len(self.names))]

    def summary(self) -> dict:
        """Self time per span name and per layer, and the counters."""
        by_name: dict[str, float] = defaultdict(float)
        by_layer: dict[str, float] = defaultdict(float)
        for name, layer, s in zip(self.names, self.layers, self.self_times()):
            by_name[name] += s
            by_layer[layer] += s
        return {"self_s_by_name": dict(by_name), "self_s_by_layer": dict(by_layer),
                "counters": dict(self.counters)}


def merge_summaries(parts) -> dict:
    """Sum summaries of several processes (cold CLI children and their parent)."""
    out: dict[str, dict] = {"self_s_by_name": defaultdict(float),
                            "self_s_by_layer": defaultdict(float),
                            "counters": defaultdict(float)}
    for part in parts:
        for key, acc in out.items():
            for k, v in part[key].items():
                acc[k] += v
    return {k: dict(v) for k, v in out.items()}


# -- what is traced -------------------------------------------------------------

@dataclass(frozen=True)
class Instrument:
    """One public entry point: ``module.attr`` or ``module.Class.attr``."""

    module: str
    attr: str
    name: str
    layer: str
    cls: str | None = None
    group: str | None = None
    count: Callable | None = None   # count(counters, args, kwargs, result), outermost calls only


def _kernel_entries(lo: int, hi: int, radius: int) -> tuple[int, int]:
    total = hi - lo + 1
    inside = max(0, min(hi, radius) - max(lo, -radius) + 1)
    return total, total - inside


def _count_kernel(counters, kernel, lo, hi):
    total, uncached = _kernel_entries(int(lo), int(hi), kernel.cache_radius)
    counters["kernels.calls"] += 1
    counters["kernels.entries"] += total
    counters["kernels.uncached_entries"] += uncached


def _count_value(c, args, kwargs, result):
    _count_kernel(c, args[0], args[1], args[1])


def _count_window_range(c, args, kwargs, result):
    _count_kernel(c, args[0], args[1], args[2])


def _count_window(c, args, kwargs, result):
    _count_kernel(c, args[0], -int(args[1]), int(args[1]))


def _count_integrate(c, args, kwargs, result):
    c["numerics.integrate.calls"] += 1
    c["numerics.integrate.evals"] += result.evaluations


def _count_convolve(c, args, kwargs, result):
    c["seqops.convolve.calls"] += 1


def _count_matvec(c, args, kwargs, result):
    op, v = args[0], args[1]
    # computed, not measured: input, kernel window and output of one matvec
    c["seqops.matvec.calls"] += 1
    c["seqops.matvec.bytes_computed"] += 8 * (len(v) + (4 * op.window_radius + 1) + len(result))


def _count_build_k(c, args, kwargs, result):
    c["factorization.build_K.calls"] += 1
    c["factorization.neumann_terms"] += result.neumann_terms


def _count_estimate_norm(c, args, kwargs, result):
    c["norms.estimates"] += 1
    c["norms.iterations"] += result.iterations
    c["norms.converged"] += int(result.converged)


def _count_suite(c, args, kwargs, result):
    c["identities.reports"] += len(result)
    c["identities.failed"] += sum(1 for r in result if not r.passed)


def _count_weak_ratio(c, args, kwargs, result):
    c["weaktype.weak_ratio.calls"] += 1
    c["weaktype.window_limited"] += int(result.window_limited)


def _count_estimate_t(c, args, kwargs, result):
    c["hprocess_mc.paths"] += result.paths
    c["hprocess_mc.estimate_T.paths"] += result.paths
    c["hprocess_mc.timeouts"] += result.paths * (1.0 - result.killed_fraction)


def _count_occupation(c, args, kwargs, result):
    c["hprocess_mc.paths"] += result.paths


def _count_drift(c, args, kwargs, result):
    c["hprocess_mc.steps"] += 1
    c["hprocess_mc.path_steps"] += len(result[0])


def _count_cli(c, args, kwargs, result):
    c["cli.invocations"] += 1


INSTRUMENTS = (
    Instrument("dhtlab.kernels", "value", "kernels.value", "kernels", cls="Kernel",
               group="kernels", count=_count_value),
    Instrument("dhtlab.kernels", "window_range", "kernels.window_range", "kernels",
               cls="Kernel", group="kernels", count=_count_window_range),
    Instrument("dhtlab.kernels", "window", "kernels.window", "kernels", cls="Kernel",
               group="kernels", count=_count_window),
    Instrument("dhtlab.kernels", "error_window", "kernels.error_window", "kernels",
               cls="Kernel", group="kernels", count=_count_window),
    Instrument("dhtlab.numerics", "integrate", "numerics.integrate", "numerics",
               count=_count_integrate),
    Instrument("dhtlab.seqops", "convolve", "seqops.convolve", "seqops", count=_count_convolve),
    Instrument("dhtlab.seqops", "apply_dense", "seqops.matvec", "seqops", cls="ConvOperator",
               count=_count_matvec),
    Instrument("dhtlab.seqops", "apply_adjoint_dense", "seqops.matvec", "seqops",
               cls="ConvOperator", count=_count_matvec),
    Instrument("dhtlab.factorization", "build_K", "factorization.build_K", "factorization",
               count=_count_build_k),
    Instrument("dhtlab.factorization", "verify_factorization", "factorization.verify",
               "factorization"),
    Instrument("dhtlab.norms", "estimate_norm", "norms.estimate_norm", "norms",
               count=_count_estimate_norm),
    Instrument("dhtlab.norms", "norm_sweep", "norms.norm_sweep", "norms"),
    Instrument("dhtlab.norms", "test_vector_bound", "norms.test_vector_bound", "norms"),
    Instrument("dhtlab.identities", "run_section3_suite", "identities.suite", "identities",
               count=_count_suite),
    Instrument("dhtlab.identities", "conditional_kernel_quad",
               "identities.conditional_kernel_quad", "identities"),
    Instrument("dhtlab.weaktype", "weak_ratio", "weaktype.weak_ratio", "weaktype",
               count=_count_weak_ratio),
    Instrument("dhtlab.weaktype", "search_weak_constant", "weaktype.search_weak_constant",
               "weaktype"),
    Instrument("dhtlab.hprocess_mc", "estimate_T", "hprocess_mc.estimate_T", "hprocess_mc",
               count=_count_estimate_t),
    Instrument("dhtlab.hprocess_mc", "occupation_check", "hprocess_mc.occupation_check",
               "hprocess_mc", count=_count_occupation),
    Instrument("dhtlab.hprocess_mc", "expected_occupation",
               "hprocess_mc.expected_occupation", "hprocess_mc"),
    Instrument("dhtlab.hprocess_mc", "drift_field", "hprocess_mc.drift_field", "hprocess_mc",
               count=_count_drift),
    Instrument("dhtlab.cli", "main", "cli.main", "cli", count=_count_cli),
)


def _wrap(tracer: Tracer, fn, ins: Instrument):
    name, layer, group, count = ins.name, ins.layer, ins.group, ins.count

    def traced(*args, **kwargs):
        idx, outer = tracer.open(name, layer, group)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None and outer:
            count(tracer.counters, args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", ins.attr)
    traced.__doc__ = getattr(fn, "__doc__", None)
    return traced


class Installation:
    """Wrappers installed for one tracer; ``remove`` restores every binding."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._wrapped: dict[int, object] = {}     # id(original) -> wrapper
        self._originals: dict[int, object] = {}
        self._bindings: list[tuple[object, str, object]] = []

    def instrument(self, module) -> None:
        """Wrap the entry points defined in ``module``, then rebind every
        loaded dhtlab module (and class) that holds one of the originals."""
        for ins in INSTRUMENTS:
            if ins.module != module.__name__:
                continue
            owner = getattr(module, ins.cls) if ins.cls else module
            fn = owner.__dict__[ins.attr]
            if id(fn) not in self._wrapped:
                self._wrapped[id(fn)] = _wrap(self.tracer, fn, ins)
                self._originals[id(fn)] = fn
        for mod in [m for n, m in list(sys.modules.items())
                    if m is not None and (n == "dhtlab" or n.startswith("dhtlab."))]:
            self._rebind(mod)
            for value in list(vars(mod).values()):
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    self._rebind(value)

    def _rebind(self, owner) -> None:
        for attr, value in list(vars(owner).items()):
            wrapper = self._wrapped.get(id(value))
            if wrapper is not None and self._originals[id(value)] is value:
                setattr(owner, attr, wrapper)
                self._bindings.append((owner, attr, value))

    def instrument_loaded(self) -> None:
        for name in sorted(n for n in sys.modules if n == "dhtlab" or n.startswith("dhtlab.")):
            self.instrument(sys.modules[name])

    def remove(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()


class ImportHook(importlib.abc.MetaPathFinder):
    """Instrument each dhtlab module as soon as it has executed.

    The CLI imports its modules lazily inside each subcommand; tracing them at
    import keeps the traced child importing exactly what the untraced one
    does.  A module imports its dependencies first, so ``from dhtlab.seqops
    import convolve`` already binds the wrapper.
    """

    def __init__(self, installation: Installation):
        self.installation = installation

    def find_spec(self, fullname, path, target=None):
        if not (fullname == "dhtlab" or fullname.startswith("dhtlab.")):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        installation = self.installation

        def exec_and_instrument(module):
            exec_module(module)
            installation.instrument(module)

        spec.loader.exec_module = exec_and_instrument
        return spec


# -- per-layer metrics ----------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from a (merged) summary.

    A layer that did no work on a workload reports 0 for every figure.
    """
    c = defaultdict(float, summary["counters"])
    by_name = defaultdict(float, summary["self_s_by_name"])
    by_layer = defaultdict(float, summary["self_s_by_layer"])
    mc_sim_s = by_layer["hprocess_mc"] - by_name["hprocess_mc.expected_occupation"]
    return {
        "kernels.calls": c["kernels.calls"],
        "kernels.entries": c["kernels.entries"],
        "kernels.uncached_entries": c["kernels.uncached_entries"],
        "kernels.self_s": by_layer["kernels"],
        "numerics.integrate.calls": c["numerics.integrate.calls"],
        "numerics.integrate.evals": c["numerics.integrate.evals"],
        "numerics.integrate.self_s": by_name["numerics.integrate"],
        "seqops.convolve.calls": c["seqops.convolve.calls"],
        "seqops.convolve.self_s": by_name["seqops.convolve"],
        "seqops.matvec.calls": c["seqops.matvec.calls"],
        "seqops.matvec.self_s": by_name["seqops.matvec"],
        "seqops.matvec.bytes_computed": c["seqops.matvec.bytes_computed"],
        "factorization.build_K.calls": c["factorization.build_K.calls"],
        "factorization.build_K.self_s": by_name["factorization.build_K"],
        "factorization.neumann_terms": c["factorization.neumann_terms"],
        "factorization.verify.self_s": by_name["factorization.verify"],
        "norms.estimates": c["norms.estimates"],
        "norms.iterations": c["norms.iterations"],
        "norms.converged_frac": _ratio(c["norms.converged"], c["norms.estimates"]),
        "norms.self_s": by_layer["norms"],
        "identities.suite.self_s": by_name["identities.suite"],
        "identities.reports": c["identities.reports"],
        "identities.failed": c["identities.failed"],
        "weaktype.weak_ratio.calls": c["weaktype.weak_ratio.calls"],
        "weaktype.weak_ratio.self_s": by_name["weaktype.weak_ratio"],
        "weaktype.window_limited_frac": _ratio(c["weaktype.window_limited"],
                                               c["weaktype.weak_ratio.calls"]),
        "hprocess_mc.paths": c["hprocess_mc.paths"],
        "hprocess_mc.steps": c["hprocess_mc.steps"],
        "hprocess_mc.path_steps": c["hprocess_mc.path_steps"],
        "hprocess_mc.mean_width": _ratio(c["hprocess_mc.path_steps"], c["hprocess_mc.steps"]),
        "hprocess_mc.path_steps_per_s": _ratio(c["hprocess_mc.path_steps"], mc_sim_s),
        "hprocess_mc.timeout_frac": _ratio(c["hprocess_mc.timeouts"],
                                           c["hprocess_mc.estimate_T.paths"]),
        "hprocess_mc.self_s": by_layer["hprocess_mc"],
        "hprocess_mc.expected_occupation.self_s": by_name["hprocess_mc.expected_occupation"],
        "cli.invocations": c["cli.invocations"],
        "cli.self_s": by_layer["cli"],
    }
