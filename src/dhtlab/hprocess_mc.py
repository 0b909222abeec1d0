"""Monte Carlo side of the conditioned-diffusion representation.

Simulates planar Brownian motion conditioned to leave the upper half-plane at
the lattice point 2 pi n (drift = grad p_n / p_n), accumulates the rotated
martingale-transform functional along paths, and checks the occupation
measure against its closed-form density p_n G / p_n(start).

The Euler scheme tames the drift step to b dt / max(1, |b| sqrt(dt) / 2),
which bounds its displacement by twice the noise scale, so single steps stay
bounded near the boundary pole, and uses a height-adaptive step
dt_k = clip(step_scale * y^2, dt, dt_cap): the fields vary on scale y, so the
relative step error stays uniform while descents from large heights remain
affordable.  The base dt applies inside the boundary layer and must satisfy
dt <= kill_eps^2/4 so the layer is resolved.

Paths are simulated in fixed-size vectorized chunks that share no state:
chunk c runs on the stream ``SeedSequence(seed, spawn_key=(c,))`` and owns
its buffers, normals, indices and flushes (``_simulate_chunk``), and
``_simulate`` only joins the chunks' arrays in chunk order.  Identical
(config, seed, paths) inputs give bit-identical results.  A path is absorbed
below ``kill_eps`` within 5 ``kill_eps`` of the target abscissa.

The path itself (drift, step, taming, draws, absorption) never reads h, and
neither the functional nor the occupation binning changes the path, so the
path state lives in flat path-step buffers of ``_BATCH + 2m`` entries for a
chunk of m paths.  A step of w live paths reads their x, y at
[fill, fill + w), writes their drift and chunk-local indices beside them,
and writes their next x, y at [fill + w, fill + 2w), where the next step
reads them.  Once the buffers hold ``_BATCH`` path-steps (and at the end of
the chunk), one pass evaluates 1/h and grad log h (``halfplane.h_fields``),
the functional and the occupation cells for the whole batch,
``np.add.at`` adds the terms into the per-path sums, and the live state
moves to the front of the next ring slot (below).  This spreads numpy's
per-call cost, which dominates at the narrow widths most steps run at, over
many steps.  Occupation runs skip h since they read neither.  The batching
keeps every bit: the fields and the functional are elementwise, so a
path-step's terms do not depend on the rest of its batch, and ``np.add.at``
adds in index order, so each per-path sum receives the same terms in the
same step order as adding them step by step.

The loop never reads what a flush writes, so with a second CPU the flushes
run in a forked worker while the parent steps on (``_FlushQueue``).  Each
chunk maps one shared anonymous region (``mmap``, MAP_SHARED) that holds
the functional sums, the occupation bins and a ring of ``_SLOTS`` slots,
each a copy of the buffers that the flush reads; an occupation run keeps
x, y and the drift, which its flush never reads, in private arrays.  At a
full batch the parent writes (slot, k) down a pipe, moves the live state to
the front of the next slot and steps on.  The worker flushes slots strictly
in the order it gets them and writes each one back once it is free, so
every per-path sum still takes its terms in step order, and the parent
waits only when its next slot is still queued.  The worker is forked at
the chunk's first full batch, so a chunk that never fills one never forks;
with fewer than two CPUs in the process's affinity (``taskset`` decides) or
no ``os.fork``, the ring has one slot and every flush runs inline.  The
worker runs only its job loop and leaves by ``os._exit``, never unwinding
into the caller's stack.  When the chunk ends, by return or by raise, the
parent closes the job pipe, the worker drains its queue and exits, and the
parent reaps it; a worker that failed raises in the parent.  The worker
calls elementwise ufuncs and ``np.add.at`` only, so it runs no BLAS and
starts no threads.  Python 3.12 and later warn (DeprecationWarning) on a
fork while numpy's BLAS threads exist; 3.11 does not.  The ring costs
``_SLOTS`` x (_BATCH + 2m) x 8 bytes per buffer the flush reads (six for
the functional, four for the occupation, nine for both): 1.6 MB for a
1000-path functional chunk, 5.9 MB for 4096 paths and both; its pages are
faulted in once per chunk, and unmapped when the chunk returns.

A step also skips work that cannot change a bit:

- normals come from a pool of 2 max(``_BATCH``, m) doubles refilled by one
  Generator call, leftovers carried over; the Generator fills element by
  element, so the pool holds exactly the draws that per-step
  ``standard_normal((w, 2))`` calls would return;
- the taming is the identity, bit for bit, while every path has
  |b|^2 dt < 3.99 (``_tame``), which holds at once while every height is
  above ``_calm_height``; so a step that stays above it skips the taming,
  and ``hypot`` runs only at steps where the taming may act;
- t >= max_time is tested only once a scalar bound reaches max_time: it
  grows by dt_cap a step, and rounding is monotone, so it stays >= max t;
- the absorption masks are built only when the step's lowest height is
  below ``kill_eps`` or NaN; that minimum is the next step's height bound.

Statistical acceptance is always "within 3 standard errors".
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import struct
import traceback
from dataclasses import dataclass

import numpy as np

from dhtlab.halfplane import green_G, h_fields, poisson_p
from dhtlab.numerics import check_integer
from dhtlab.numerics import gk_nodes, gk_sums  # fixed rule for expected-occupation cells
from dhtlab.seqops import Seq

__all__ = [
    "SdeConfig",
    "PathStats",
    "OccupationGrid",
    "OccupationReport",
    "drift_field",
    "estimate_T",
    "occupation_check",
    "expected_occupation",
]

_TWO_PI = 2.0 * math.pi
# path-steps gathered before the functional and the occupation bins are
# evaluated: enough to spread numpy's per-call cost over the narrow widths
# most steps run at.  A chunk of m paths steps into ring slots of
# _BATCH + 2m entries per buffer, in one mapping per chunk (see
# _simulate_chunk); its pool of 2 max(_BATCH, m) normals stays below
# glibc's default 128 KiB mmap threshold up to m = 4096 (64 KiB), so it
# reuses heap pages from chunk to chunk
_BATCH = 2048
# ring slots, so batches queued for the flush worker at most
_SLOTS = 8
# the path-step buffers of a ring slot, in the order _simulate_chunk unpacks them
_BUFFERS = ("x", "y", "bx", "by", "idx", "dtsum", "mx", "my", "dt")
# pipe messages: (slot, path-steps) to the flush worker, a freed slot back
_JOB = struct.Struct("=ii")
_FREED = struct.Struct("=i")


@dataclass(frozen=True)
class SdeConfig:
    """Configuration of one conditioned-diffusion simulation.

    ``n`` is the target lattice site (absorption at 2 pi n); ``start`` the
    launch point (x0, y0); ``dt`` the boundary-layer step; ``kill_eps`` the
    absorption height.  A path is absorbed below ``kill_eps`` within the
    window |x - 2 pi n| < 5 kill_eps.  The window stays pole-scale: the
    conditioned process can only exit at the pole, and a low pass far from
    it gets pushed back up by the 1/y drift, so a wide window would truncate
    genuine excursions.  ``step_scale`` and ``dt_cap`` control the
    height-adaptive step.
    """

    n: int
    start: tuple[float, float]
    dt: float = 1e-4
    kill_eps: float = 2e-2
    max_time: float = 1e3
    seed: int = 0
    step_scale: float = 2.5e-3
    dt_cap: float = 5.0

    def __post_init__(self):
        check_integer("n", self.n)       # 2 pi n must be a lattice point
        if check_integer("seed", self.seed) < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        # an infinite kill_eps would absorb every path on its first step
        if not (self.dt > 0 and 0 < self.kill_eps < math.inf):
            raise ValueError("dt must be positive and kill_eps finite and positive")
        if self.dt > self.kill_eps ** 2 / 4.0:
            raise ValueError("need dt <= kill_eps^2/4 to resolve the boundary layer")
        if not (math.isfinite(self.start[0]) and 0 < self.start[1] < math.inf):
            raise ValueError("start must be finite with a positive height")
        if not 0 < self.max_time < math.inf:
            raise ValueError("max_time must be finite and positive")
        # a NaN step never reaches max_time, so the run would go on without end
        for name in ("step_scale", "dt_cap"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if self.dt_cap < self.dt:
            raise ValueError("need dt_cap >= dt")


@dataclass(frozen=True)
class PathStats:
    mean: float
    std_error: float
    paths: int
    killed_fraction: float


@dataclass(frozen=True)
class OccupationGrid:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        check_integer("nx", self.nx)
        check_integer("ny", self.ny)
        if not (self.y_min > 0 and self.y_max > self.y_min
                and self.x_max > self.x_min and self.nx > 0 and self.ny > 0):
            raise ValueError("invalid occupation grid")

    @property
    def cells(self) -> int:
        return self.nx * self.ny


@dataclass(frozen=True)
class OccupationReport:
    observed: np.ndarray      # (ny, nx) mean occupation time per path
    expected: np.ndarray      # (ny, nx) closed-form cell integrals
    std_error: np.ndarray     # (ny, nx)
    z: np.ndarray             # (ny, nx); NaN where no path-to-path spread
    paths: int
    max_abs_z: float
    frac_within_3: float
    chi2: float
    chi2_z: float
    total_z: float
    killed_fraction: float    # share of paths absorbed before max_time


def drift_field(cfg: SdeConfig, x, y, out=None):
    """grad p_n / p_n = (-2(x - 2 pi n)/r^2, 1/y - 2y/r^2), r^2 = (x-2pi n)^2 + y^2.

    ``out``, a pair of float arrays shaped like x, receives the two
    components, which are then returned.  1/y is formed as reciprocal(y)
    and 2y as y + y, both exactly: array operands cost numpy less per call
    than float ones.
    """
    xt = np.asarray(x, dtype=float) - _TWO_PI * cfg.n
    y = np.asarray(y, dtype=float)
    r2 = xt * xt + y * y
    bx, by = (None, None) if out is None else out
    return (np.divide(-2.0 * xt, r2, out=bx),
            np.subtract(np.reciprocal(y), (y + y) / r2, out=by))


def _functional_rows(x, y, h_inv, glx, gly, bx, by, shifts):
    """F_m = H grad(p_m / h) . (b - grad log h) for every support site m,
    where ``shifts`` holds 2 pi m: one row per site, or a flat row for a
    single site.  With x_m = x - 2 pi m, r^2 = x_m^2 + y^2, d = b - grad log h
    and q = (1/h)/(pi r^2), so that p_m / h = y q,
    F_m = (q/r^2)(-2 x_m y d_y - (x_m^2 - y^2) d_x) - y q (glx b_y - gly b_x)."""
    dx = bx - glx
    ydy = -2.0 * y * (by - gly)                  # -2 y d_y
    rot = y * (glx * by - gly * bx)
    yy = y * y
    xm = x - shifts
    xx = xm * xm
    r2 = xx + yy
    q = h_inv / (math.pi * r2)
    return q * ((xm * ydy - (xx - yy) * dx) / r2 - rot)


def _tame(bx, by, dtk, root):
    """The drift's step length dtk / max(1, |b| root / 2), root = sqrt(dtk).

    Screened, and exact: with q = (bx bx + by by) dtk, max q < 3.99 puts
    |b| root / 2 below 0.9988, and the few roundings of hypot, sqrt and
    the product move it by a few eps, so the maximum is 1 and the quotient
    is dtk itself, bit for bit.  A step where a path may be tamed, and an
    overflowing or NaN q (NaN < 3.99 is false), takes the full expression.
    """
    q = bx * bx
    q += by * by
    q *= dtk
    if np.maximum.reduce(q) < 3.99:
        return dtk
    return dtk / np.maximum(1.0, np.hypot(bx, by) * root / 2.0)


def _calm_height(cfg: SdeConfig) -> float:
    """A height above which no path is tamed.

    At height y the drift has |bx|, |by| <= 1/y (up to a few roundings) and
    the step is dtk <= max(step_scale y^2, dt), so above this height
    |b|^2 dtk <= 2 max(step_scale, dt / y^2) < 3.98 at every path: the
    screen of ``_tame`` passes, and the taming is dtk, bit for bit.
    """
    return math.sqrt(cfg.dt / 1.99) if cfg.step_scale < 1.99 else math.inf


def _ring_slots() -> int:
    """Slots of a chunk's ring: ``_SLOTS`` when a forked worker can flush
    on a second CPU, else 1, and every flush runs inline.  ``taskset``
    decides: the count is read from this process's CPU affinity."""
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        return _SLOTS
    return 1


class _FlushQueue:
    """Runs ``flush(slot, k)`` for each batch handed off, in hand-off order.

    With one slot each flush runs inline, at once.  With more, the first
    batch handed off forks a worker, which reads (slot, k) jobs from a pipe,
    flushes them strictly in that order and writes each slot back down a
    second pipe once it is free; the parent waits only when the slot it
    steps into next is still queued.  Leaving the ``with`` block closes the
    job pipe, so the worker drains its queue and exits, and reaps it; a
    worker that failed raises here.
    """

    def __init__(self, flush, slots: int):
        self.flush, self.slots = flush, slots
        self.pid = None
        self.queued = 0        # jobs sent whose slot has not been read back

    def hand_off(self, slot: int, k: int) -> int:
        """Flush the first k path-steps of ``slot``, here or in the worker;
        returns the slot to step into next, once it is free."""
        if self.slots == 1:
            self.flush(slot, k)
            return slot
        if self.pid is None:
            self._fork()
        self._send(slot, k)
        nxt = (slot + 1) % self.slots
        if self.queued == self.slots:
            # the worker frees slots in the order they were sent, so the
            # next one to come back is the oldest, nxt
            freed = os.read(self.done, _FREED.size)
            if not freed:
                raise RuntimeError("the Monte Carlo flush worker exited early")
            assert _FREED.unpack(freed)[0] == nxt
            self.queued -= 1
        return nxt

    def finish(self, slot: int, k: int) -> None:
        """Flush the last batch: inline if no worker ever started."""
        if self.pid is None:
            self.flush(slot, k)
        else:
            self._send(slot, k)

    def _send(self, slot: int, k: int) -> None:
        try:
            os.write(self.jobs, _JOB.pack(slot, k))
        except BrokenPipeError:
            raise RuntimeError("the Monte Carlo flush worker exited early") from None
        self.queued += 1

    def _fork(self) -> None:
        jobs_r, jobs_w = os.pipe()
        done_r, done_w = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (jobs_r, jobs_w, done_r, done_w):
                os.close(fd)
            raise
        if pid == 0:
            # the worker: flush jobs until the parent closes the pipe, then
            # leave by os._exit, never unwinding into the caller's stack
            code = 1
            try:
                # an interrupt is the parent's to handle: it stops handing
                # off, and the worker drains its queue and exits
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(jobs_w)
                os.close(done_r)
                # jobs are written whole (8 bytes, below PIPE_BUF) and read
                # whole, so a read returns one job, or nothing at the end
                while job := os.read(jobs_r, _JOB.size):
                    slot, k = _JOB.unpack(job)
                    self.flush(slot, k)
                    os.write(done_w, _FREED.pack(slot))
                code = 0
            except BaseException:
                os.write(2, traceback.format_exc().encode())
            finally:
                os._exit(code)
        os.close(jobs_r)
        os.close(done_w)
        self.pid, self.jobs, self.done = pid, jobs_w, done_r

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.pid is None:
            return
        os.close(self.jobs)            # end of jobs: the worker drains and exits
        try:
            status = os.waitpid(self.pid, 0)[1]
        finally:
            os.close(self.done)
            self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code and exc_type is None:
            raise RuntimeError(f"the Monte Carlo flush worker exited with code {code}")


def _simulate_chunk(ms: np.ndarray, cfg: SdeConfig, chunk: int, m: int,
                    grid: OccupationGrid | None):
    """Run paths 0..m-1 of chunk ``chunk`` on its own derived random stream.

    The chunk owns all of its state (path-step buffers, normals, path
    indices, flushes), so its results depend only on (ms, cfg, chunk, m,
    grid).  Returns (comp, absorbed, lifetimes, end_x, end_y, occ) for its
    m paths.
    """
    n_support = len(ms)
    # one broadcast over all sites; a single site stays one-dimensional,
    # which costs less per numpy call at the small widths most steps run at
    shifts = _TWO_PI * ms if n_support == 1 else (_TWO_PI * ms)[:, None]
    target = _TWO_PI * cfg.n
    window = 5.0 * cfg.kill_eps           # absorption half-width, see SdeConfig
    absorbed = np.zeros(m, dtype=bool)
    lifetimes = np.zeros(m)
    end_x = np.zeros(m)
    end_y = np.zeros(m)
    if grid is not None:
        wx = (grid.x_max - grid.x_min) / grid.nx
        wy = (grid.y_max - grid.y_min) / grid.ny

    # path-step buffers, one flat array per quantity.  A step of w live
    # paths reads their states at [fill, fill + w), where the previous step
    # wrote them, and writes their next states at [fill + w, fill + 2w);
    # fill < _BATCH before a step, so _BATCH + 2m never overflows them.
    # Each ring slot has its own copy of the buffers that the flush reads;
    # they share one anonymous mapping (MAP_SHARED) with comp and occ, which
    # the flush writes.  An occupation run's flush reads neither x, y nor
    # the drift, so it keeps one private copy of those for every slot.
    # dtsum holds dtk_prev + dtk, twice the trapezoidal weight
    cap = _BATCH + 2 * m
    n_slots = _ring_slots()
    flushed = ((["x", "y", "bx", "by", "dtsum"] if n_support else []) + ["idx"]
               + (["mx", "my", "dt"] if grid is not None else []))
    n_comp, n_occ = n_support * m, (m * grid.cells if grid is not None else 0)
    shared = np.frombuffer(mmap.mmap(-1, 8 * (n_comp + n_occ + n_slots * len(flushed) * cap)))
    comp = shared[:n_comp].reshape(n_support, m)
    occ = shared[n_comp:n_comp + n_occ].reshape(m, grid.cells) if grid is not None else None
    ring = shared[n_comp + n_occ:].reshape(n_slots, len(flushed), cap)
    private = {} if n_support else {name: np.empty(cap) for name in ("x", "y", "bx", "by")}
    slots = []
    for s in range(n_slots):
        bufs = dict(zip(flushed, ring[s]), **private)
        bufs["idx"] = bufs["idx"].view(np.int64)
        slots.append(tuple(bufs.get(name) for name in _BUFFERS))

    def flush(slot, k):
        x, y, bx, by, ib, dtsum, mx, my, dt = (None if b is None else b[:k]
                                               for b in slots[slot])
        if n_support:
            h_inv, glx, gly = h_fields(x, y)
            rows = _functional_rows(x, y, h_inv, glx, gly, bx, by, shifts)
            # trapezoidal time rule: each state's integrand carries half
            # of the two adjacent step lengths, which centres the rule
            # and removes the leading step-size error of the integral
            rows = np.reshape(rows * (0.5 * dtsum), (n_support, k))
            # np.add.at adds in index order, so each sum takes its terms in
            # step order; a call per site row is far cheaper than one 2-D call
            for row, vals in zip(comp, rows):
                np.add.at(row, ib, vals)
        if occ is not None:
            # midpoint attribution of the step's time (left-point binning
            # systematically shifts occupation opposite to the motion)
            ix = np.floor((0.5 * mx - grid.x_min) / wx).astype(np.int64)
            iy = np.floor((0.5 * my - grid.y_min) / wy).astype(np.int64)
            inside = (ix >= 0) & (ix < grid.nx) & (iy >= 0) & (iy < grid.ny)
            flat = ib * grid.cells + iy * grid.nx + ix
            np.add.at(occ.reshape(-1), flat[inside], dt[inside])

    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(chunk,)))
    # 0-d arrays: numpy converts a float operand afresh on every call
    step_scale, dt, dt_cap = (np.array(v) for v in (cfg.step_scale, cfg.dt, cfg.dt_cap))
    # normals are drawn in blocks and taken in stream order: the Generator
    # fills element by element, so a block holds exactly the draws that
    # per-step standard_normal((w, 2)) calls would return
    pool = np.empty(2 * max(_BATCH, m))
    used = len(pool)
    idx = np.arange(m)
    slot = 0
    buf_x, buf_y, buf_bx, buf_by, buf_idx, buf_dtsum, buf_mx, buf_my, buf_dt = slots[slot]
    buf_x[:m] = cfg.start[0]
    buf_y[:m] = cfg.start[1]
    t = np.zeros(m)
    # an upper bound on max(t): no step is longer than dt_cap, and rounding
    # is monotone, so t >= max_time needs testing only once t_hi gets there
    # (fmax skips a NaN time, which never passes that test)
    t_hi = 0.0
    # a lower bound on the live heights, or NaN: while it exceeds the calm
    # height, a step skips _tame, whose screen would pass
    y_lo = cfg.start[1]
    y_calm = _calm_height(cfg)
    dtk_prev = np.zeros(m)
    fill, w = 0, m

    with _FlushQueue(flush, n_slots) as flushes:
        while w:
            end = fill + w
            x, y = buf_x[fill:end], buf_y[fill:end]
            x_new, y_new = buf_x[end:end + w], buf_y[end:end + w]
            dtk = np.minimum(np.maximum(step_scale * y * y, dt), dt_cap)
            bx, by = drift_field(cfg, x, y, out=(buf_bx[fill:end], buf_by[fill:end]))
            buf_idx[fill:end] = idx
            if n_support:
                np.add(dtk_prev, dtk, out=buf_dtsum[fill:end])
            # bound the drift displacement by twice the noise scale: far from
            # the boundary pole this is the identity (no taming bias), near
            # the pole it keeps single steps finite like standard taming
            root = np.sqrt(dtk)
            tame = dtk if y_lo > y_calm else _tame(bx, by, dtk, root)
            if used + 2 * w > len(pool):
                left = len(pool) - used
                pool[:left] = pool[used:]
                rng.standard_normal(out=pool[left:])
                used = 0
            xi = pool[used:used + 2 * w]        # (x, y) draw pairs, path by path
            used += 2 * w
            np.add(x, bx * tame, out=x_new)
            x_new += root * xi[0::2]
            np.add(y, by * tame, out=y_new)
            y_new += root * xi[1::2]
            if occ is not None:
                np.add(x, x_new, out=buf_mx[fill:end])
                np.add(y, y_new, out=buf_my[fill:end])
                buf_dt[fill:end] = dtk
            t += dtk
            t_hi += cfg.dt_cap

            # only a path below kill_eps can be absorbed or need reflecting; a
            # NaN height makes y_lo NaN, and the masks skip it as before
            absorb_now = None
            y_lo = np.minimum.reduce(y_new)
            if not y_lo >= cfg.kill_eps:
                absorb_now = y_new < cfg.kill_eps
                absorb_now &= np.abs(x_new - target) < window
                reflect = (y_new <= 0.0) & ~absorb_now
                if np.count_nonzero(reflect):
                    y_new[reflect] = np.maximum(np.abs(y_new[reflect]), 1e-12)
            done = absorb_now
            if t_hi >= cfg.max_time:
                t_hi = np.fmax.reduce(t)
                if t_hi >= cfg.max_time:
                    timed_out = t >= cfg.max_time
                    done = timed_out if done is None else done | timed_out
            # count_nonzero is a cheaper truth test than .any() at small widths
            if done is not None and np.count_nonzero(done):
                sel = idx[done]
                if absorb_now is not None:
                    absorbed[sel] = absorb_now[done]
                lifetimes[sel] = t[done]
                end_x[sel] = x_new[done]
                end_y[sel] = y_new[done]
                keep = ~done
                idx, t, dtk = idx[keep], t[keep], dtk[keep]
                w = len(idx)
                buf_x[end:end + w] = x_new[keep]
                buf_y[end:end + w] = y_new[keep]
            dtk_prev = dtk
            fill = end
            if fill >= _BATCH:
                # the live states move to the front of the next free slot
                slot = flushes.hand_off(slot, fill)
                live_x, live_y = buf_x[fill:fill + w], buf_y[fill:fill + w]
                (buf_x, buf_y, buf_bx, buf_by, buf_idx, buf_dtsum,
                 buf_mx, buf_my, buf_dt) = slots[slot]
                buf_x[:w] = live_x
                buf_y[:w] = live_y
                fill = 0
        if fill:
            flushes.finish(slot, fill)
    # copies, so that the returned arrays do not hold the ring's mapping
    return (comp.copy(), absorbed, lifetimes, end_x, end_y,
            occ.copy() if occ is not None else None)


def _simulate(a: Seq | None, cfg: SdeConfig, n_paths: int, *,
              grid: OccupationGrid | None = None, chunk_size: int = 4096):
    """Vectorized path engine: chunks of ``chunk_size`` paths, joined in order.

    Returns (component_sums, ms, absorbed, lifetimes, end_xy, occupation)
    where component_sums has one row per support site ``ms`` of ``a`` (so the
    functional is linear in the coefficients by construction), and
    occupation is the per-path time spent in each grid cell (or None).
    """
    if n_paths < 1:
        raise ValueError("n_paths >= 1 required")
    at = a.trimmed() if a is not None else None
    if at is None or at.is_zero():
        ms = np.zeros(0, dtype=int)
    else:
        ms = np.arange(at.support[0], at.support[1] + 1)
    chunks = [_simulate_chunk(ms, cfg, c, min(chunk_size, n_paths - start), grid)
              for c, start in enumerate(range(0, n_paths, chunk_size))]
    comp, absorbed, lifetimes, end_x, end_y, occ = zip(*chunks)
    return (np.concatenate(comp, axis=1), ms, np.concatenate(absorbed),
            np.concatenate(lifetimes), (np.concatenate(end_x), np.concatenate(end_y)),
            np.concatenate(occ) if grid is not None else None)


def estimate_T(a: Seq, cfg: SdeConfig, paths: int) -> PathStats:
    """Monte Carlo mean and standard error of the conditioned functional.

    For starts high above the target this estimates the J-convolution of
    ``a`` at the target site; the estimator is exactly linear in ``a`` (the
    per-site time integrals are accumulated separately and combined at the
    end), so scaling ``a`` scales the estimate with no extra rounding.
    """
    check_integer("paths", paths)
    comp, ms, absorbed, _, _, _ = _simulate(a, cfg, paths)
    coef = np.array([a[int(m)] for m in ms])
    samples = coef @ comp if len(ms) else np.zeros(paths)
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
    return PathStats(mean=mean, std_error=se, paths=paths,
                     killed_fraction=float(np.mean(absorbed)))


def _cell_panels(lo: float, hi: float, n: int):
    """The n equal cells of [lo, hi], each split in two panels: (lo, hi) of
    the 2n panels, cell by cell."""
    edges = np.linspace(lo, hi, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return (np.stack([edges[:-1], mids], axis=1).ravel(),
            np.stack([mids, edges[1:]], axis=1).ravel())


def expected_occupation(cfg: SdeConfig, grid: OccupationGrid) -> np.ndarray:
    """Cell integrals of p_n(x, y) G(x, y) / p_n(start) by tensor quadrature.

    Each cell is two Gauss-Kronrod panels along each axis: the x rule runs
    at every y node, and the y rule over those x integrals.  The density is
    evaluated one y node at a time, over every x node of the grid at once.
    The y node stays a numpy scalar because ``green_G`` squares y - y0 with
    ``**``, which is libm's pow on a scalar and an exact square on an array;
    the two differ in the last bit for about one value in a thousand.
    """
    x0, y0 = cfg.start
    pn0 = poisson_p(cfg.n, x0, y0)
    x_nodes, x_half = gk_nodes(*_cell_panels(grid.x_min, grid.x_max, grid.nx))
    y_nodes, y_half = gk_nodes(*_cell_panels(grid.y_min, grid.y_max, grid.ny))
    xs = x_nodes.ravel()
    dens = np.array([poisson_p(cfg.n, xs, yv) * green_G(xs, yv, x0, y0) / pn0
                     for yv in y_nodes.ravel()])
    if not np.all(np.isfinite(dens)):
        raise ValueError("occupation density is not finite at a quadrature node")
    # the x integral of every cell at every y node, one row per y node
    inner = gk_sums(dens.reshape(-1, 2 * grid.nx, 15), x_half)[0]
    inner = inner.reshape(-1, grid.nx, 2).sum(axis=-1)
    # the y rule on each cell column: the y nodes of a panel along the last axis
    cols = inner.reshape(2 * grid.ny, 15, grid.nx).transpose(2, 0, 1)
    cells = gk_sums(cols, y_half)[0].reshape(grid.nx, grid.ny, 2).sum(axis=-1)
    return np.ascontiguousarray(cells.T)


def occupation_check(cfg: SdeConfig, grid: OccupationGrid,
                     paths: int) -> OccupationReport:
    """Binned mean occupation times against the closed-form density.

    Per-cell z-scores use the path-to-path standard error.  A cell where every
    path spent the same time (no path entered it, typically) has no standard
    error: its z is NaN, "no verdict", unless nothing is expected there
    either (z = 0).  ``max_abs_z`` and the chi-square style aggregate, which
    compares sum(z^2) with its expectation, run over the scored cells;
    ``frac_within_3`` counts an unscored cell as outside.  A run with no
    path-to-path spread anywhere in the grid is an error.
    """
    if check_integer("paths", paths) < 2:
        raise ValueError("occupation_check needs paths >= 2 for a standard error")
    _, _, absorbed, _, _, occ = _simulate(None, cfg, paths, grid=grid)
    total_se = float(np.std(occ.sum(axis=1), ddof=1) / math.sqrt(paths))
    if not total_se > 0:
        raise ValueError("every path spent the same time in every cell of the "
                         "grid, so no cell has a standard error; run more paths")
    obs = occ.mean(axis=0).reshape(grid.ny, grid.nx)
    se = (occ.std(axis=0, ddof=1) / math.sqrt(paths)).reshape(grid.ny, grid.nx)
    exp = expected_occupation(cfg, grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, (obs - exp) / se, np.where(np.abs(exp) < 1e-12, 0.0, np.nan))
    scored = int(np.count_nonzero(~np.isnan(z)))
    chi2 = float(np.nansum(z * z))
    chi2_z = (chi2 - scored) / math.sqrt(2.0 * scored)
    total_z = (float(occ.sum(axis=1).mean()) - float(exp.sum())) / total_se
    return OccupationReport(
        observed=obs, expected=exp, std_error=se, z=z, paths=paths,
        max_abs_z=float(np.nanmax(np.abs(z))),
        frac_within_3=float(np.mean(np.abs(z) <= 3.0)),
        chi2=chi2, chi2_z=float(chi2_z), total_z=float(total_z),
        killed_fraction=float(np.mean(absorbed)))

