import contextlib
import hashlib
import math
import os
from dataclasses import replace

import numpy as np
import pytest

import dhtlab.hprocess_mc as mc
from dhtlab.halfplane import green_G, h_fields, poisson_p
from dhtlab.hprocess_mc import (OccupationGrid, PathStats, SdeConfig,
                                _simulate, _simulate_chunk, drift_field,
                                estimate_T, expected_occupation,
                                occupation_check)
from dhtlab.numerics import gk_eval
from dhtlab.seqops import Seq

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps

# frozen by iterated quadrature of the occupation representation at this
# exact start point (see identities.conditional_kernel_quad)
T_N1_Y6 = 0.22704636450554652


def test_config_validation():
    with pytest.raises(ValueError):
        SdeConfig(n=0, start=(0.0, 1.0), dt=1e-3, kill_eps=1e-2)  # dt too big
    with pytest.raises(ValueError):
        SdeConfig(n=0, start=(0.0, -1.0))
    for start in ((math.nan, 1.0), (0.0, math.inf)):   # NaN paths never time out
        with pytest.raises(ValueError):
            SdeConfig(n=0, start=start)
    # nor do paths from a start where the drift is not finite
    for start in ((TWO_PI, 1e-170), (0.0, 1e-310)):
        with pytest.raises(ValueError, match="drift"):
            SdeConfig(n=1, start=start)
    # a NaN step never reaches max_time, so each of these would simulate
    # without end
    bad = [dict(max_time=v) for v in (0.0, math.inf, math.nan)]
    bad += [{name: v} for name in ("step_scale", "dt_cap")
            for v in (0.0, -1.0, math.inf, math.nan)]
    bad.append(dict(dt=1e-4, dt_cap=5e-5))
    # every path would be absorbed on its first step: mean 0, SE 0, no error
    bad.append(dict(kill_eps=math.inf))
    for kwargs in bad:
        with pytest.raises(ValueError):
            SdeConfig(n=0, start=(0.0, 1.0), **kwargs)
    # 2 pi n must be a lattice point: n = 1.5 would condition towards 3 pi
    for n in (1.5, 1.0, "1", None):
        with pytest.raises(ValueError, match="integer"):
            SdeConfig(n=n, start=(0.0, 1.0))
    assert SdeConfig(n=np.int64(2), start=(0.0, 1.0)).n == 2
    # a fractional seed used to build and fail inside the run, a negative
    # one only once its stream was seeded
    for seed in (1.5, -1):
        with pytest.raises(ValueError, match="seed"):
            SdeConfig(n=0, start=(0.0, 1.0), seed=seed)
    assert SdeConfig(n=0, start=(0.0, 1.0), seed=np.uint32(3)).seed == 3
    cfg = SdeConfig(n=2, start=(0.0, 5.0))
    assert cfg.dt <= cfg.kill_eps ** 2 / 4.0


def test_drift_matches_log_gradient():
    cfg = SdeConfig(n=1, start=(TWO_PI, 8.0))

    def logp(x, y):
        xt = x - TWO_PI
        return math.log(y / (math.pi * (xt * xt + y * y)))

    h = 1e-6
    for (x, y) in [(1.0, 2.0), (6.0, 0.5), (-3.0, 4.0), (7.0, 9.0)]:
        bx, by = drift_field(cfg, np.array([x]), np.array([y]))
        nx = (logp(x + h, y) - logp(x - h, y)) / (2 * h)
        ny = (logp(x, y + h) - logp(x, y - h)) / (2 * h)
        assert bx[0] == pytest.approx(nx, abs=1e-5)
        assert by[0] == pytest.approx(ny, abs=1e-5)


def test_drift_field_keeps_the_bits_of_its_formula():
    # the field forms 1/y as reciprocal(y) and 2y as y + y; that must be
    # -2(x - 2 pi n) / r^2 and 1/y - 2y / r^2 bit for bit, signed zeros,
    # infinities and NaN included, with or without ``out``
    rng = np.random.default_rng(4)
    edge = [0.0, -0.0, TWO_PI, -TWO_PI, 1e-300, -1e300, math.inf, math.nan]
    x = np.concatenate([rng.uniform(-40.0, 40.0, 2000), np.repeat(edge, len(edge))])
    y = np.concatenate([np.exp(rng.uniform(-30.0, 8.0, 2000)), np.tile(edge, len(edge))])
    for n in (0, 1, -3):
        cfg = SdeConfig(n=n, start=(0.0, 1.0))
        out = (np.empty_like(x), np.empty_like(x))
        with np.errstate(all="ignore"):
            xt = x - TWO_PI * n
            r2 = xt * xt + y * y
            want = (-2.0 * xt / r2, 1.0 / y - 2.0 * y / r2)
            got = drift_field(cfg, x, y)
            into = drift_field(cfg, x, y, out=out)
        assert into[0] is out[0] and into[1] is out[1]
        for g in (got, into):
            for a, b in zip(g, want):
                assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _full_taming(bx, by, dtk):
    return dtk / np.maximum(1.0, np.hypot(bx, by) * np.sqrt(dtk) / 2.0)


def test_screened_taming_is_the_full_expression_bit_for_bit():
    rng = np.random.default_rng(6)
    dtk = np.exp(rng.uniform(math.log(1e-6), math.log(5.0), 4000))
    # |b|^2 dtk = q spread over both sides of the 3.99 screen and of the
    # taming threshold 4, densest just below the screen
    q = np.concatenate([rng.uniform(0.0, 8.0, 1000), 3.99 * (1.0 - EPS * np.arange(1000)),
                        3.99 * (1.0 + EPS * np.arange(1000)), 4.0 * (1.0 + EPS * np.arange(-500, 500))])
    angle = rng.uniform(0.0, TWO_PI, q.size)
    norm = np.sqrt(q / dtk)
    bx, by = norm * np.cos(angle), norm * np.sin(angle)
    cases = [(bx[i:i + 1], by[i:i + 1], dtk[i:i + 1]) for i in range(q.size)]
    cases += [(bx[i:i + 50], by[i:i + 50], dtk[i:i + 50]) for i in range(0, q.size, 50)]
    # overflowing, huge, tiny, infinite and NaN drifts, alone and in a batch
    odd = np.array([1e200, -1e155, 1e-300, 0.0, math.inf, -math.inf, math.nan, 1.0])
    for v in odd:
        cases.append((np.array([v]), np.array([0.5]), np.array([1e-4])))
        cases.append((np.array([0.5]), np.array([v]), np.array([2.5])))
    cases.append((odd, odd[::-1].copy(), np.full(odd.size, 1e-3)))
    for bx, by, dtk in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            want = _full_taming(bx, by, dtk)
            got = mc._tame(bx, by, dtk, np.sqrt(dtk))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("step_scale", [2.5e-3, 0.5, 1.98])
def test_no_path_above_the_calm_height_is_tamed(step_scale):
    # the engine skips _tame while every height exceeds _calm_height: there
    # the taming must be dtk bit for bit
    cfg = SdeConfig(n=1, start=(TWO_PI, 1.0), step_scale=step_scale)
    y_calm = mc._calm_height(cfg)
    rng = np.random.default_rng(9)
    y = y_calm * np.concatenate([1.0 + EPS * np.arange(1, 300),
                                 np.exp(rng.uniform(0.0, 12.0, 3000))])
    # |bx| peaks at x - 2 pi n = +-y and |by| at x = 2 pi n
    xt = y * np.concatenate([rng.choice([-1.0, 0.0, 1.0], 1650), rng.uniform(-30.0, 30.0, 1649)])
    dtk = np.minimum(np.maximum(cfg.step_scale * y * y, cfg.dt), cfg.dt_cap)
    bx, by = drift_field(cfg, TWO_PI + xt, y)
    assert np.array_equal(mc._tame(bx, by, dtk, np.sqrt(dtk)).view(np.int64),
                          dtk.view(np.int64))
    assert np.array_equal(_full_taming(bx, by, dtk), dtk)
    assert mc._calm_height(replace(cfg, step_scale=1.99)) == math.inf


# A start just above the boundary, beside the target: near the pole the
# drift is strong enough to be tamed, which no other golden run does (the
# multichunk run tames 0 steps).  Pinned before the screen was added.
TAMING_GOLDEN = (
    "13a66c17a87ded141176646dfafda664a9d6580753685f1e7bdd046729816dfa",  # paths
    "a0ddb05aca9893c8ef3749d359c9fdb3cfd416196b37c621face9fe0eaa816cb",  # functional
    ("0x1.099808d2aa20ap-2", "0x1.6c959d1d1fc78p+0"),  # per-site functional sums
)


def test_golden_taming_bits(monkeypatch):
    hypot_calls, tamed_steps = [], []
    real_hypot, real_tame = np.hypot, mc._tame

    def counting_hypot(*args, **kwargs):
        hypot_calls.append(len(args[0]))
        return real_hypot(*args, **kwargs)

    def counting_tame(bx, by, dtk, root):
        tame = real_tame(bx, by, dtk, root)
        tamed_steps.append(bool(np.count_nonzero(tame != dtk)))
        return tame

    monkeypatch.setattr(np, "hypot", counting_hypot)
    monkeypatch.setattr(mc, "_tame", counting_tame)
    cfg = SdeConfig(n=1, start=(TWO_PI + 2.0, 0.02), seed=5, max_time=50.0)
    grid = OccupationGrid(TWO_PI - 3.0, TWO_PI + 3.0, 0.01, 3.0, 4, 4)
    assert _digests(cfg, 64, grid, chunk_size=40) == TAMING_GOLDEN
    assert len(hypot_calls) >= 1 and sum(tamed_steps) >= 1


@contextlib.contextmanager
def _cpus(monkeypatch, n):
    """A run on ``n`` CPUs: with one every flush runs inline, with two a
    forked worker flushes.  Yields the list of the pids forked meanwhile."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        forks.append(pid)          # in the worker too, where nothing reads it
        return pid

    with monkeypatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        mp.setattr(os, "fork", counting_fork)
        yield forks


def test_a_failing_flush_worker_raises_in_the_parent(monkeypatch, capfd):
    # the fork inherits the broken field, so only the worker's flush raises
    def broken_h_fields(x, y):
        raise FloatingPointError("broken h_fields")

    monkeypatch.setattr(mc, "h_fields", broken_h_fields)
    cfg = SdeConfig(n=1, start=(TWO_PI, 3.0), seed=7, max_time=300.0)
    with _cpus(monkeypatch, 2) as forks:
        with pytest.raises(RuntimeError, match="flush worker"):
            estimate_T(Seq.delta(0), cfg, 64)
    assert len(forks) == 1
    assert "broken h_fields" in capfd.readouterr().err      # the worker's traceback
    with pytest.raises(ChildProcessError):                  # reaped: no child is left
        os.waitpid(-1, os.WNOHANG)


def test_a_run_that_never_fills_a_batch_does_not_fork(monkeypatch):
    # 20 paths of about 23 steps: 460 path-steps, one flush, at the end
    cfg = SdeConfig(n=1, start=(TWO_PI, 3.0), seed=7, max_time=0.5)
    with _cpus(monkeypatch, 1) as forks:
        inline = estimate_T(Seq.delta(0), cfg, 20)
    assert forks == []

    def no_fork():
        raise AssertionError("forked")

    with monkeypatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        mp.setattr(os, "fork", no_fork)
        assert estimate_T(Seq.delta(0), cfg, 20) == inline


def test_reproducibility_bitwise():
    cfg = SdeConfig(n=1, start=(TWO_PI, 4.0), seed=7, max_time=2000.0)
    s1 = estimate_T(Seq.delta(0), cfg, 800)
    s2 = estimate_T(Seq.delta(0), cfg, 800)
    assert s1 == s2


def _path_digest(run):
    """The digest of a run's absorption flags, lifetimes and end points."""
    _, absorbed, life, (ex, ey) = run
    return _sha256(absorbed, life, ex, ey)


def _digests(cfg, n_paths, grid, chunk_size):
    """The functional at sites -1 and 0 and the occupation of ``grid``, in
    two runs of the same paths: the paths' digest (sites, absorption,
    lifetimes, end points and occupation), the functional's digest and its
    per-site sums."""
    ms = np.arange(-1, 1)
    functional = _simulate(cfg, n_paths, ms=ms, chunk_size=chunk_size)
    occupation = _simulate(cfg, n_paths, grid=grid, chunk_size=chunk_size)
    assert _path_digest(functional) == _path_digest(occupation)
    comp, absorbed, life, (ex, ey) = functional
    return (_sha256(ms, absorbed, life, ex, ey, occupation[0]), _sha256(comp),
            tuple(v.hex() for v in comp.sum(axis=1)))


def _sha256(*arrays):
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _stats_hex(stats):
    return (stats.mean.hex(), stats.std_error.hex(), stats.killed_fraction.hex())


def _ulps(a_hex, b_hex):
    """Distance in units in the last place between two same-sign doubles."""
    a, b = (int(np.float64(float.fromhex(v)).view(np.int64)) for v in (a_hex, b_hex))
    return abs(a - b)


# Golden bits of seeded runs.  The path bits (absorption, lifetimes, end
# points, support sites and occupation) were recorded before the step loop
# was fused and are frozen: drift, step sizes, taming, draws, absorption and
# retirement must keep consuming the same draws and evaluating the same
# floating-point expressions, so the path pins must never be regenerated to
# make a change pass.  The functional is accumulated along those paths and
# reads h and grad log h, which moved to one cancellation-free form at every
# height; its pins were re-taken then, with each replaced value kept beside
# its successor and the two held within a stated number of ulps, so the move
# is rounding only.
ESTIMATE_T_PINS = [
    # (mean, std_error) now, (mean, std_error) before the re-pin, killed_fraction
    (("0x1.386df12948449p-3", "0x1.dd339ffd41c7fp-7"),
     ("0x1.386df12948449p-3", "0x1.dd339ffd41c7fp-7"), "0x1.0000000000000p+0"),
    (("0x1.23d7b7ea7e326p-3", "0x1.ffa76a381050dp-7"),
     ("0x1.23d7b7ea7e326p-3", "0x1.ffa76a381050cp-7"), "0x1.0000000000000p+0"),
]


def test_golden_estimate_T_bits():
    cfg = SdeConfig(n=1, start=(TWO_PI, 4.0), seed=7, max_time=2000.0)
    runs = [estimate_T(Seq.delta(0), cfg, 300),
            estimate_T(Seq.from_dict({0: 1.0, -1: -1.0}), cfg, 300)]
    for stats, (now, before, killed) in zip(runs, ESTIMATE_T_PINS):
        assert _stats_hex(stats) == (*now, killed)
        assert all(_ulps(a, b) <= 1 for a, b in zip(now, before))


def test_golden_simulate_path_bits():
    cfg = SdeConfig(n=1, start=(TWO_PI, 3.0), seed=3, max_time=2000.0)
    comp, absorbed, life, (ex, ey) = _simulate(cfg, 1, ms=np.arange(1))
    assert (bool(absorbed[0]), life[0].hex(), ex[0].hex(), ey[0].hex()) == (
        True, "0x1.08a71c2b6b5c7p+5", "0x1.93584ca4d6ac4p+2", "0x1.06353ec5da9d0p-6")
    value, before = "0x1.f853ee0bfc062p-3", "0x1.f853ee0bfc05dp-3"
    assert comp[0, 0].hex() == value
    assert _ulps(value, before) <= 5


GOLDEN_GRID = OccupationGrid(x_min=math.pi, x_max=3 * math.pi,
                             y_min=0.5, y_max=4.5, nx=4, ny=4)


def test_golden_occupation_bits(monkeypatch):
    cfg = SdeConfig(n=1, start=(TWO_PI, 6.0), seed=11, max_time=2000.0)
    # the same bits with every flush inline and with the flush worker
    for cpus in (1, 2):
        with _cpus(monkeypatch, cpus) as forks:
            rep = occupation_check(cfg, GOLDEN_GRID, 300)
        assert _sha256(rep.observed, rep.std_error) == \
            "9a650d13300cfaef1bde2dbc5af10b08defdd4bf64071d1f32b7b35a95bee9e3"
        assert len(forks) == cpus - 1


MULTICHUNK_CFG = SdeConfig(n=1, start=(TWO_PI, 3.0), seed=7, max_time=300.0)


def _multichunk_digests():
    # 96 paths in chunks of 64: a full and a partial chunk, each on its own
    # derived stream, once for the functional and once for the occupation
    return _digests(MULTICHUNK_CFG, 96, GOLDEN_GRID, chunk_size=64)


GOLDEN_MULTICHUNK = (
    "e9196c00e20c2f3c3d511c20c92e74382e1c8f19b0a46b88211640a1b49b00aa",  # paths
    "eaaf86750ed0cd925a36e1e1e3195378233064ce1f50771377d4b26c3502e3b5",  # functional
    ("0x1.6aaecae51a812p-1", "0x1.c473be3e327d7p+2"),  # per-site functional sums
)
# the per-site sums before the functional re-pin
MULTICHUNK_SUMS_BEFORE = ("0x1.6aaecae51a812p-1", "0x1.c473be3e327d8p+2")


def test_golden_multichunk_bits(monkeypatch):
    # the same bits with every flush inline and with a flush worker per chunk
    for cpus in (1, 2):
        with _cpus(monkeypatch, cpus) as forks:
            assert _multichunk_digests() == GOLDEN_MULTICHUNK
        assert len(forks) == 4 * (cpus - 1)
    assert all(_ulps(a, b) <= 1
               for a, b in zip(GOLDEN_MULTICHUNK[2], MULTICHUNK_SUMS_BEFORE))


@pytest.mark.parametrize("batch", [1, 5, 63])
def test_batch_size_leaves_bits_unchanged(monkeypatch, batch):
    # a flush on every step, and batches below the 64-wide chunk that take
    # several steps of one path once the chunk thins out: each per-path sum
    # must still receive its terms one by one, in step order, also when
    # every flush crosses the pipe to the worker
    monkeypatch.setattr(mc, "_BATCH", batch)
    for cpus in (1, 2):
        with _cpus(monkeypatch, cpus):
            assert _multichunk_digests() == GOLDEN_MULTICHUNK


@pytest.mark.parametrize("n_paths", [96, 65])
def test_chunks_are_independent(n_paths):
    # a run is its chunks run alone and joined in order: a full and a
    # partial chunk, and a last chunk one path wide; the functional's sums
    # have one column per path, the occupation's one row
    for ms, grid in ((np.arange(-1, 1), None), (None, GOLDEN_GRID)):
        out, absorbed, life, (ex, ey) = _simulate(MULTICHUNK_CFG, n_paths, ms=ms,
                                                  grid=grid, chunk_size=64)
        parts = [_simulate_chunk(MULTICHUNK_CFG, 0, 64, ms, grid),
                 _simulate_chunk(MULTICHUNK_CFG, 1, n_paths - 64, ms, grid)]
        joined = [np.concatenate([p[i] for p in parts], axis=1 if i == 0 and grid is None else 0)
                  for i in range(5)]
        for got, want in zip((out, absorbed, life, ex, ey), joined):
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("cpus", [1, 2])
def test_both_consumers_run_the_same_paths(monkeypatch, cpus):
    # no flush changes a path, so the functional (with two sites or none)
    # and the occupation see the same paths, bit for bit, with every flush
    # inline and with the flush worker; 50 time units leave both absorbed
    # paths and timeouts
    cfg = replace(MULTICHUNK_CFG, max_time=50.0)
    with _cpus(monkeypatch, cpus) as forks:
        runs = [_simulate(cfg, 96, ms=ms, chunk_size=64)
                for ms in (np.arange(-1, 1), np.arange(0))]
        runs.append(_simulate(cfg, 96, grid=GOLDEN_GRID, chunk_size=64))
    assert len(forks) == 6 * (cpus - 1)
    assert 0 < np.count_nonzero(runs[0][1]) < 96
    assert len({_path_digest(run) for run in runs}) == 1


@pytest.mark.parametrize("start", [(TWO_PI, 1e-170), (0.0, 1e-310)])
def test_a_start_whose_drift_is_not_finite_raises(start):
    # at the target r^2 underflows to 0, or 1/y overflows: the drift is not
    # finite and the first step would turn the height NaN.  A NaN path is
    # never absorbed and never times out, so the run used to loop without
    # end; the config rejects the start, with no numpy warning
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="drift is not finite"):
            SdeConfig(n=1, start=start, max_time=10.0)


def test_a_nan_height_raises_after_the_worker_started(monkeypatch):
    # the starts above turn NaN on the first step, before any batch is
    # full; here a height turns NaN on the fourth step, after the worker
    # has been forked, and the conftest checks that it is reaped
    real, calls = mc.drift_field, []

    def nan_from_the_fourth_step(cfg, x, y, out):
        calls.append(len(x))
        bx, by = real(cfg, x, y, out=out)
        if len(calls) % 4 == 0:
            by[0] = math.nan
        return bx, by

    monkeypatch.setattr(mc, "_BATCH", 1)
    monkeypatch.setattr(mc, "drift_field", nan_from_the_fourth_step)
    for consumer in (dict(ms=np.arange(1)), dict(grid=GOLDEN_GRID)):
        with _cpus(monkeypatch, 2) as forks:
            with pytest.raises(ValueError, match="NaN height"):
                _simulate(MULTICHUNK_CFG, 8, **consumer)
        assert len(forks) == 1


def test_drift_field_called_once_per_step_at_live_width(monkeypatch):
    # the benchmark tracer counts steps and path-steps through this call
    widths = []
    real = mc.drift_field

    def counting(cfg, x, y, **kwargs):
        widths.append(len(x))
        return real(cfg, x, y, **kwargs)

    monkeypatch.setattr(mc, "drift_field", counting)
    assert _multichunk_digests() == GOLDEN_MULTICHUNK
    # two runs of two chunks; each chunk opens at its full width and only
    # loses paths
    rises = np.flatnonzero(np.diff(widths) > 0)
    assert widths[0] == 64 and [widths[i + 1] for i in rises] == [32, 64, 32]

    # a fixed step and no absorption: every path lives the same number of
    # steps, so the call count and widths are known exactly
    cfg = SdeConfig(n=1, start=(TWO_PI, 3.0), seed=7, dt=1e-4, dt_cap=1e-4,
                    max_time=0.05)
    steps, t = 0, 0.0
    while t < cfg.max_time:
        t, steps = t + cfg.dt, steps + 1
    for consumer in (dict(ms=np.arange(1)), dict(grid=GOLDEN_GRID)):
        widths.clear()
        _simulate(cfg, 96, chunk_size=64, **consumer)
        assert widths == [64] * steps + [32] * steps


H_POINTS = [(0.3, 0.5), (2.0, 0.9), (1.0, 1.0), (3.0, 1.0 + EPS), (-2.5, 1.5),
            (4.0, 3.0), (0.5, 20.0), (0.0, 1e-6), (TWO_PI, 1e-6),
            (-3 * TWO_PI, 1e-6), (1.0, 40.0), (2.0, 700.0)]


@pytest.mark.parametrize("x, y", H_POINTS)
def test_h_fields_against_independent_formulas(x, y):
    h_inv, glx, gly = (float(v[0]) for v in h_fields(np.array([x]), np.array([y])))
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        X, Y = mp.mpf(x), mp.mpf(y)
        c = mp.cosh(Y) - mp.cos(X)
        ref_h = float(mp.sinh(Y) / (2 * mp.pi * c))
        ref_x = float(-mp.sin(X) / c)
        coth, ratio = mp.coth(Y), mp.sinh(Y) / c
        ref_y = float(coth - ratio)
        # d/dy log h = coth y - sinh y / (cosh y - cos x) cancels near the
        # pole and at large y, so it is held to a few eps of its terms
        scale_y = float(abs(coth) + abs(ratio))
    assert 1.0 / h_inv == pytest.approx(ref_h, rel=4 * EPS)
    assert glx == pytest.approx(ref_x, rel=4 * EPS, abs=0.0)
    assert abs(gly - ref_y) <= 4 * EPS * scale_y


def test_h_fields_bits_independent_of_batch():
    # a path's bits must not depend on which other paths are still live:
    # mixed below/above y = 1 batches, in any order and at any position,
    # give each point the bits it gets on its own
    rng = np.random.default_rng(0)
    pts = np.array(H_POINTS * 5)[rng.permutation(5 * len(H_POINTS))]
    single = np.array([np.ravel(h_fields(p[:1], p[1:])) for p in pts])
    for batch in (pts, pts[::-1], pts[pts[:, 1] <= 1.0], pts[pts[:, 1] > 1.0]):
        fields = np.array(h_fields(batch[:, 0].copy(), batch[:, 1].copy())).T
        rows = [next(i for i, p in enumerate(pts) if np.array_equal(p, q)) for q in batch]
        assert np.array_equal(fields, single[rows])


@pytest.mark.parametrize("y", [20.0, 40.0, 100.0, 700.0])
def test_h_fields_dy_log_h_keeps_relative_accuracy_at_large_y(y):
    # d/dy log h = coth y - sinh y / (cosh y - cos x) is about -2 e^-y cos x
    # here, far below the size of its two terms, so the reference needs
    # about 2y/ln 10 digits before its own subtraction leaves anything
    mp = pytest.importorskip("mpmath")
    t = math.exp(-y)
    for x in (0.5, math.pi / 2 - 0.05, math.pi / 2 + 0.05, TWO_PI):
        gly = float(h_fields(np.array([x]), np.array([y]))[2][0])
        with mp.workdps(int(2 * y / math.log(10)) + 30):
            X, Y = mp.mpf(x), mp.mpf(y)
            ref = float(mp.coth(Y) - mp.sinh(Y) / (mp.cosh(Y) - mp.cos(X)))
        # a few eps of the value, plus a few eps of 2t: t - cos x is formed
        # as expm1(-y) + 2 sin^2(x/2), whose rounding near x = pi/2 is eps
        # absolute, and it enters the value multiplied by 2t
        assert abs(gly - ref) <= 4 * EPS * (abs(ref) + 2 * t), (x, gly, ref)


def test_occupation_check_unscored_cells():
    cfg = SdeConfig(n=1, start=(TWO_PI, 8.0), seed=0)
    rep = occupation_check(cfg, GOLDEN_GRID, 2)
    unscored = np.isnan(rep.z)
    assert np.any(unscored) and not np.all(unscored)
    assert np.all(rep.std_error[unscored] == 0.0)
    assert np.all(rep.expected[unscored] != 0.0)
    finite = rep.z[~unscored]
    assert rep.max_abs_z == np.max(np.abs(finite))
    assert rep.chi2 == pytest.approx(np.sum(finite ** 2), rel=1e-15)
    assert rep.chi2_z == (rep.chi2 - finite.size) / math.sqrt(2.0 * finite.size)
    assert rep.frac_within_3 == np.count_nonzero(np.abs(finite) <= 3.0) / rep.z.size
    # the path never reads the functional, so both modes run the same paths
    assert rep.killed_fraction == estimate_T(Seq.delta(0), cfg, 2).killed_fraction
    with pytest.raises(ValueError, match="same time"):
        occupation_check(replace(cfg, max_time=1e-3), GOLDEN_GRID, 2)


def test_linearity_exact():
    cfg = SdeConfig(n=1, start=(TWO_PI, 4.0), seed=7, max_time=2000.0)
    s1 = estimate_T(Seq.delta(0), cfg, 500)
    s2 = estimate_T(Seq.delta(0, 2.0), cfg, 500)
    assert s2.mean == 2.0 * s1.mean
    assert s2.std_error == 2.0 * s1.std_error
    assert s2.killed_fraction == s1.killed_fraction


def test_n0_functional_is_pointwise_zero():
    # for the unit atom at the target site the rotated integrand vanishes
    # identically, so every sample is rounding noise
    cfg = SdeConfig(n=0, start=(0.0, 4.0), seed=1, max_time=2000.0)
    stats = estimate_T(Seq.delta(0), cfg, 300)
    assert abs(stats.mean) < 1e-15
    assert abs(stats.mean) <= 3.0 * stats.std_error + 1e-18


def test_single_path_sample():
    cfg = SdeConfig(n=1, start=(TWO_PI, 3.0), seed=3, max_time=3000.0)
    comp, absorbed, life, (ex, ey) = _simulate(cfg, 1, ms=np.arange(1))
    assert math.isfinite(comp[0, 0])
    assert absorbed[0]
    assert life[0] > 0
    assert abs(ex[0] - TWO_PI) < 5.0 * cfg.kill_eps
    assert ey[0] < cfg.kill_eps


def test_absorbed_fraction_grows_with_max_time():
    base = dict(n=1, start=(TWO_PI, 6.0), seed=5)
    fracs = []
    for mt in (20.0, 80.0, 2000.0):
        stats = estimate_T(Seq.delta(0), SdeConfig(max_time=mt, **base), 400)
        fracs.append(stats.killed_fraction)
    assert fracs[0] < fracs[1] < fracs[2]
    assert fracs[2] > 0.95


def test_path_stats_se_definition():
    cfg = SdeConfig(n=1, start=(TWO_PI, 2.0), seed=9, max_time=1000.0)
    one = estimate_T(Seq.delta(0), cfg, 1)
    assert one.std_error == 0.0
    many = estimate_T(Seq.delta(0), cfg, 64)
    assert many.std_error > 0


def test_estimate_matches_finite_start_quadrature():
    # the mid-scale correctness pin: MC against the deterministic occupation
    # integral at the very same start point (no limit involved)
    cfg = SdeConfig(n=1, start=(TWO_PI, 6.0), seed=11, max_time=5000.0)
    stats = estimate_T(Seq.delta(0), cfg, 8000)
    z = (stats.mean - T_N1_Y6) / stats.std_error
    assert abs(z) <= 3.0


def _expected_occupation_by_cells(cfg, grid):
    """The cell-by-cell quadrature that expected_occupation vectorizes: a
    gk_eval over y per cell, whose integrand is a gk_eval over x per y node."""
    x0, y0 = cfg.start
    pn0 = poisson_p(cfg.n, x0, y0)
    out = np.empty((grid.ny, grid.nx))
    xs = np.linspace(grid.x_min, grid.x_max, grid.nx + 1)
    ys = np.linspace(grid.y_min, grid.y_max, grid.ny + 1)

    def halves(edges, i):
        mid = 0.5 * (edges[i] + edges[i + 1])
        return np.array([edges[i], mid]), np.array([mid, edges[i + 1]])

    for j in range(grid.ny):
        for i in range(grid.nx):
            def inner(yv):
                return np.array([gk_eval(lambda xv: poisson_p(cfg.n, xv, yy)
                                         * green_G(xv, yy, x0, y0) / pn0,
                                         *halves(xs, i))[0].sum() for yy in yv])
            out[j, i] = gk_eval(inner, *halves(ys, j))[0].sum()
    return out


@pytest.mark.parametrize("n, start, box", [
    (1, (TWO_PI, 6.0), (math.pi, 3 * math.pi, 0.5, 4.5, 4, 4)),
    (2, (2 * TWO_PI + 0.7, 3.0), (2 * TWO_PI - 2.0, 2 * TWO_PI + 3.0, 0.25, 2.25, 5, 3)),
    (0, (0.0, 8.0), (-math.pi, math.pi, 0.5, 4.5, 10, 10)),
    (-1, (-TWO_PI + 0.3, 1.5), (-9.0, -4.0, 0.05, 0.55, 1, 7)),
])
def test_expected_occupation_matches_the_cell_by_cell_quadrature(n, start, box):
    # every bit: the grid-wide rule must sum each panel's 15 nodes, and
    # each cell's two panels, exactly as the cell-by-cell rule did
    cfg, grid = SdeConfig(n=n, start=start), OccupationGrid(*box)
    exp = expected_occupation(cfg, grid)
    assert exp.shape == (grid.ny, grid.nx) and exp.flags.c_contiguous
    assert np.array_equal(exp, _expected_occupation_by_cells(cfg, grid))


def test_expected_occupation_rejects_a_pole_on_a_node():
    # the centre node of the first panel on each axis is (0.5, 0.75) exactly,
    # so a start there puts the Green function's pole on a node
    grid = OccupationGrid(0.0, 2.0, 0.5, 1.5, 1, 1)
    with pytest.raises(ValueError, match="pole"):
        expected_occupation(SdeConfig(n=0, start=(0.5, 0.75)), grid)


def test_expected_occupation_symmetry():
    cfg = SdeConfig(n=1, start=(TWO_PI, 6.0))
    grid = OccupationGrid(x_min=TWO_PI - 2.0, x_max=TWO_PI + 2.0,
                          y_min=0.5, y_max=2.5, nx=4, ny=2)
    exp = expected_occupation(cfg, grid)
    assert np.max(np.abs(exp - exp[:, ::-1])) < 1e-13
    assert np.all(exp > 0)


def test_occupation_check_smoke():
    cfg = SdeConfig(n=1, start=(TWO_PI, 6.0), seed=11, max_time=5000.0)
    grid = OccupationGrid(x_min=math.pi, x_max=3 * math.pi,
                          y_min=0.5, y_max=4.5, nx=4, ny=4)
    rep = occupation_check(cfg, grid, 8000)
    assert rep.frac_within_3 >= 0.85
    assert abs(rep.total_z) <= 3.0
    assert rep.chi2_z <= 4.0


def test_estimate_T_needs_a_path():
    cfg = SdeConfig(n=1, start=(TWO_PI, 6.0), seed=11)
    with pytest.raises(ValueError, match="estimate_T needs paths >= 1"):
        estimate_T(Seq.delta(0), cfg, 0)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_estimate_T_rejects_non_finite_coefficients(monkeypatch, weight):
    # rejected before any path is simulated (it used to return mean=nan)
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a non-finite sequence")
    monkeypatch.setattr(mc, "_simulate", no_simulation)
    cfg = SdeConfig(n=1, start=(TWO_PI, 6.0), seed=11)
    with pytest.raises(ValueError, match="non-finite"):
        estimate_T(Seq.from_dict({0: 1.0, 2: weight}), cfg, 10)


@pytest.mark.parametrize("paths", [2.5, "3", None])
def test_paths_must_be_an_integer(paths):
    # these used to raise TypeError from inside the run
    cfg = SdeConfig(n=1, start=(TWO_PI, 6.0), seed=11)
    with pytest.raises(ValueError, match="paths"):
        estimate_T(Seq.delta(0), cfg, paths)
    with pytest.raises(ValueError, match="paths"):
        occupation_check(cfg, GOLDEN_GRID, paths)


def test_occupation_check_needs_two_paths():
    cfg = SdeConfig(n=1, start=(TWO_PI, 6.0), seed=11)
    with pytest.raises(ValueError):
        occupation_check(cfg, GOLDEN_GRID, 1)


def test_occupation_grid_validation():
    with pytest.raises(ValueError):
        OccupationGrid(x_min=0, x_max=1, y_min=-1, y_max=2, nx=2, ny=2)
    with pytest.raises(ValueError):
        OccupationGrid(x_min=1, x_max=0, y_min=0.5, y_max=2, nx=2, ny=2)
    # a fractional cell count used to pass here and fail inside the run
    for counts in (dict(nx=2.5, ny=2), dict(nx=2, ny=2.0), dict(nx="2", ny=2)):
        with pytest.raises(ValueError, match="integer"):
            OccupationGrid(x_min=0, x_max=1, y_min=0.5, y_max=2, **counts)
    # an infinite bound used to pass here, then fail after simulating
    # every path, blaming the density or the paths
    for bounds in ((0, 12, 0.5, math.inf), (-math.inf, 12, 0.5, 2),
                   (0, math.inf, 0.5, 2), (0, math.nan, 0.5, 2)):
        with pytest.raises(ValueError, match="finite"):
            OccupationGrid(*bounds, 2, 2)


def _refine_dt(cfg):
    """``cfg`` with every step-size control halved, as in the bias probe."""
    return replace(cfg, dt=cfg.dt / 2, step_scale=cfg.step_scale / 2)


def test_refine_dt():
    # the halved config passes SdeConfig's checks again, and keeps the rest
    cfg = SdeConfig(n=1, start=(0.0, 4.0))
    fine = _refine_dt(cfg)
    assert fine.dt == cfg.dt / 2 and fine.step_scale == cfg.step_scale / 2
    assert replace(fine, dt=cfg.dt, step_scale=cfg.step_scale) == cfg


@pytest.mark.heavy
def test_refinement_probe_heavy():
    """Halving every step-size control moves cell estimates by less than the
    statistical error at 1e5 paths (discretization-bias probe)."""
    cfg = SdeConfig(n=1, start=(TWO_PI, 8.0), seed=2028, kill_eps=4e-3,
                    dt=4e-6, max_time=4e4)
    grid = OccupationGrid(x_min=math.pi, x_max=3 * math.pi,
                          y_min=1.0, y_max=5.0, nx=4, ny=4)
    base = occupation_check(cfg, grid, 100_000)
    fine = occupation_check(_refine_dt(cfg), grid, 100_000)
    dz = np.abs(base.observed - fine.observed) / np.sqrt(
        base.std_error ** 2 + fine.std_error ** 2)
    assert float(np.mean(dz <= 3.0)) >= 0.95
