"""Self-tests of the benchmark harness.

    python3 -m pytest -q -rx perfbench

Covers the self-time arithmetic, the task_s.tail percentile rule, metric
names, pass-through tracing, and a one-task smoke run of every workload
(untraced and traced, with identical outputs).  The known kernels parity
defect shows as XFAIL with its failing pair (``-rx`` prints it).  Takes
about half a minute.
"""

import json
import math
import os
import re
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bootstrap  # noqa: E402

bootstrap.setup()

import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _synthetic(tracer, rows):
    """rows: (name, layer, start, end, parent index)."""
    for name, layer, start, end, parent in rows:
        tracer.names.append(name)
        tracer.layers.append(layer)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)


def test_self_time_of_nested_spans():
    t = spans.Tracer()
    _synthetic(t, [("a", "L1", 0.0, 10.0, -1),
                   ("b", "L2", 1.0, 4.0, 0),
                   ("c", "L2", 5.0, 9.0, 0),
                   ("d", "L1", 6.0, 7.0, 2),
                   ("e", "L3", 20.0, 21.5, -1)])
    assert t.self_times() == [3.0, 3.0, 3.0, 1.0, 1.5]
    s = t.summary()
    assert s["self_s_by_layer"] == {"L1": 4.0, "L2": 6.0, "L3": 1.5}
    assert s["self_s_by_name"]["c"] == 3.0
    # self times partition the covered time: 10 + 1.5
    assert sum(t.self_times()) == 11.5


def test_open_close_nesting_and_outermost_groups(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans, "_clock", lambda: float(next(ticks)))
    t = spans.Tracer()
    a, outer_a = t.open("kernels.window", "kernels", "kernels")
    b, outer_b = t.open("kernels.window_range", "kernels", "kernels")
    t.close(b)
    c, outer_c = t.open("seqops.convolve", "seqops")
    t.close(c)
    t.close(a)
    assert (outer_a, outer_b, outer_c) == (True, False, True)
    assert t.parents == [-1, 0, 0]
    assert t.self_times() == [3.0, 1.0, 1.0]


def test_merge_summaries_adds():
    one = {"self_s_by_name": {"x": 1.0}, "self_s_by_layer": {"L": 1.0}, "counters": {"c": 2.0}}
    two = {"self_s_by_name": {"x": 0.5, "y": 1.0}, "self_s_by_layer": {"L": 1.5},
           "counters": {"c": 1.0}}
    m = spans.merge_summaries([one, two])
    assert m["self_s_by_name"] == {"x": 1.5, "y": 1.0}
    assert m["self_s_by_layer"] == {"L": 2.5}
    assert m["counters"] == {"c": 3.0}


@pytest.mark.parametrize("n", list(range(20, 400)))
def test_tail_percentile_is_highest_with_ten_beyond(n):
    q = stats.tail_percentile(n)
    rank = math.ceil(q * n / 100)
    assert n - rank >= 10
    assert q == 100 or n - math.ceil((q + 1) * n / 100) < 10


def test_tail_percentile_small_and_known_counts():
    assert [stats.tail_percentile(n) for n in (1, 10, 19)] == [50, 50, 50]
    assert [stats.tail_percentile(n) for n in (20, 23, 62, 100, 1000)] == [50, 56, 83, 90, 99]
    xs = list(range(1, 101))
    assert stats.nearest_rank(xs, 90) == 90
    assert stats.nearest_rank(xs, 50) == 50


def test_speed_factor_uses_the_probes_around_a_task():
    log = probe.SpeedLog()
    log.samples = [0.1, 0.2, 0.3, 0.4, 0.6, 1.2]
    assert log.factor(0) == pytest.approx(0.12 / 0.15)       # probes 0, 1
    assert log.factor(3) == pytest.approx(0.12 / 0.35)       # probes 1-4
    assert log.factor(6) == pytest.approx(0.12 / 0.9)        # probes 4, 5
    assert log.factor() == pytest.approx(0.12 / 0.35)        # whole run


def test_metric_names_and_units():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in BENCH["workloads"]]:
        assert NAME_RE.match(name), name
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_per_layer_names_match_what_a_traced_run_emits():
    empty = {"self_s_by_name": {}, "self_s_by_layer": {}, "counters": {}}
    emitted = set(spans.layer_metrics(empty)) | set(run.WORKLOAD_FIGURES) | {"trace.overhead_frac"}
    assert emitted == {m["name"] for m in BENCH["per_layer"]}


def test_instrumentation_rebinds_and_restores():
    mods = workloads.import_dhtlab()
    seqops, fz, weak = mods["dhtlab.seqops"], mods["dhtlab.factorization"], mods["dhtlab.weaktype"]
    kernel_cls = mods["dhtlab.kernels"].Kernel
    original = seqops.convolve
    inst = spans.Installation(spans.Tracer())
    inst.instrument_loaded()
    try:
        assert seqops.convolve.__wrapped__ is original
        assert fz.convolve is seqops.convolve and weak.convolve is seqops.convolve
        assert kernel_cls.__call__ is kernel_cls.value
        k = mods["dhtlab.kernels"].HILBERT
        assert k(3) == 1.0 / (math.pi * 3)
        assert inst.tracer.counters["kernels.calls"] == 1
    finally:
        inst.remove()
    assert seqops.convolve is original and fz.convolve is original
    assert not hasattr(kernel_cls.__dict__["value"], "__wrapped__")


def _first(wl, pred):
    return next(t for t in wl.tasks if pred(t))


SMOKE = {
    "cold_cli": lambda t: t["sub"] == "kernels" and t["radius"] <= 64,
    "warm_operators": lambda t: t["kind"] == "norm" and t["N"] == 256 and t["p"] == 4.0,
    "mc": lambda t: t["kind"] == "estimate_T",
}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_one_task_smoke_run(name, tmp_path):
    wl = workloads.WORKLOADS[name](seed=3, seconds=1)
    wl.tasks = [_first(wl, SMOKE[name])]
    wl.setup()
    results = wl.run_pass()
    assert len(results) == 1 and results[0].seconds > 0
    assert wl.check_all(results) == []

    session = run.TraceSession(spans)
    session.child_dir = str(tmp_path)
    session.installation.instrument_loaded()
    try:
        traced = wl.run_pass(session)
        summary = session.summary()
    finally:
        session.installation.remove()
    assert wl.digest(results[0].task, results[0].output) == \
        wl.digest(traced[0].task, traced[0].output)
    layer = spans.layer_metrics(summary)
    busy = {"cold_cli": "cli.invocations", "warm_operators": "norms.estimates",
            "mc": "hprocess_mc.steps"}[name]
    assert layer[busy] > 0


def _broken_task(name):
    """A task runner for a broken program: CLI children that exit 0 with
    malformed output, in-process tasks that raise."""
    if name == "cold_cli":
        return lambda self, task, session: (0, b"not json", b"")

    def raises(self, task, session):
        raise RuntimeError("broken program")
    return raises


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_every_task_failing_still_prints_a_result(name, monkeypatch, capsys):
    monkeypatch.setattr(workloads.WORKLOADS[name], "run_task", _broken_task(name))
    monkeypatch.setattr(run, "measure_setup", lambda workload, seed: ([1.0], 1.0))
    args = run.main(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0"])
    assert args == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["accuracy_gap"]["value"] is None
    assert result["metrics"]["wall_s"]["value"] > 0


@pytest.mark.parametrize("kernel,radius", [("F", 31), ("E", 881)])
def test_known_parity_defect(kernel, radius):
    """The kernels check on an F and an E dump at radii where it failed when
    the benchmark was defined: the entries' error estimates do not cover the
    rounding that an entry's batch position adds (README, "Findings").
    cold_cli dumps J only for this reason; when this passes, F and E dumps
    can go back into it."""
    wl = workloads.ColdCli(seed=3, seconds=1)
    wl.setup()
    task = wl._kernel_task(np.random.default_rng(0), kernel, radius)
    note = wl.check(task, wl.run_task(task, None))
    if note:
        pytest.xfail(f"program defect: {note}")
