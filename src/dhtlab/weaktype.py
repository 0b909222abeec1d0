"""Weak-type (1,1) experimentation: exact ratio scans and lower-bound search.

The weak ratio of a sequence is sup_lambda lambda * #{ |T a_n| > lambda } /
||a||_1, computed exactly on a window by scanning lambda just below every
distinct |T a_n|.  The search engine only ever reports lower bounds for the
best constant; it never claims an upper bound.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from dhtlab.kernels import Kernel
from dhtlab.numerics import catalan_beta2, check_integer
from dhtlab.seqops import Seq, convolve

__all__ = [
    "WeakTypeReport",
    "davis_constant",
    "weak_ratio",
    "discretized_sequence",
    "search_weak_constant",
    "smooth_bump",
]

logger = logging.getLogger(__name__)

# lambda is scanned at (1 - LAMBDA_NUDGE) times each distinct |Ta_n| so the
# strict inequality "> lambda" realizes the supremum
_LAMBDA_NUDGE = 1e-12


def davis_constant() -> float:
    """pi^2 / (8 beta(2)), the sharp weak-type constant of the continuous
    transform (beta(2) is Catalan's constant)."""
    return math.pi ** 2 / (8.0 * catalan_beta2())


@dataclass(frozen=True)
class WeakTypeReport:
    sequence_id: str
    l1_norm: float
    best_lambda: float
    count_at_lambda: int
    ratio: float
    window_radius: int
    tail_note: str
    window_limited: bool

    def as_dict(self) -> dict:
        return asdict(self)


def weak_ratio(k: Kernel, a: Seq, window: int,
               sequence_id: str = "") -> WeakTypeReport:
    """Exact supremum of lambda * count / ||a||_1 over the window.

    The input is normalized to unit l^1 mass first, which makes the ratio
    exactly invariant under scaling of ``a`` (integer-valued sequences scale
    without rounding).  The report carries the analytic bound on |Ta_n|
    outside the window; a run is window-limited when that bound reaches the
    optimal lambda, i.e. when outside entries could change the count.  The
    bound is the largest |k| at distances +-edge and +-(edge + 1) from the
    support, so a kernel that vanishes on one parity (KAK) is still bounded.
    The support must lie strictly inside the window (edge >= 1), and every
    entry of ``a`` must be finite.

    ``k`` is read only through ``window_range(lo, hi)``, on the index range
    ``convolve`` touches and at the four tail distances, so a ``Kernel`` or
    a ``KernelWindow`` read from it gives the same report.  A
    non-finite kernel entry fails loudly: NaN or inf in |Ta_n| and a
    non-finite tail bound each raise ``ValueError``.

    The lambda scan sorts |Ta_n| once and walks its nonzero entries in
    descending order: at the i-th of them the count of entries >= it is
    i + 1, and within a run of equal values lambda * count peaks only at the
    run's last entry, so the first maximum is the one a scan over distinct
    values picks (ties go to the largest lambda), with the same products.
    """
    if not np.all(np.isfinite(a.values)):
        raise ValueError("sequence has non-finite entries (NaN or inf)")
    at = a.trimmed()
    if at.is_zero():
        raise ValueError("weak_ratio of the zero sequence")
    s_lo, s_hi = at.support
    edge = window - max(abs(s_lo), abs(s_hi))
    if edge < 1:
        raise ValueError(f"support {at.support} reaches the window edge "
                         f"(window {window}); no tail bound")
    l1 = float(np.sum(np.abs(at.values)))
    u = Seq(at.offset, at.values / l1)

    mag = np.abs(convolve(k, u, window).values)
    # timsort runs along the monotone far field; zeros sort first, NaN last
    mag.sort(kind="stable")
    nz = len(mag) - int(np.searchsorted(mag, 0.0, side="right"))
    if nz == 0:
        raise ValueError("transform vanishes identically on the window")
    if not math.isfinite(mag[-1]):
        raise ValueError("transform has a non-finite entry (a NaN or infinite "
                         "kernel entry in the window)")
    # in place: a fresh window-sized array can mean fresh pages from the
    # system, faulted in on first touch, on every candidate
    lambdas = mag[::-1][:nz]                # the nz largest, descending
    lambdas *= 1.0 - _LAMBDA_NUDGE
    ratios = np.arange(1.0, nz + 1.0)       # count >= lambdas[i] is i + 1
    ratios *= lambdas
    best = int(np.argmax(ratios))           # ties resolve to the largest lambda

    near = np.concatenate([k.window_range(-edge - 1, -edge),
                           k.window_range(edge, edge + 1)])
    tail_bound = float(np.max(np.abs(near)))
    if not math.isfinite(tail_bound):
        raise ValueError(f"non-finite kernel entry at distance {edge} or "
                         f"{edge + 1}; no tail bound")
    limited = bool(tail_bound >= lambdas[best])
    note = (f"|Ta_n| <= {tail_bound:.3e} outside the window "
            f"(kernel bound at distance {edge})")
    return WeakTypeReport(
        sequence_id=sequence_id or f"seq@{at.offset}x{len(at.values)}",
        l1_norm=l1,
        best_lambda=float(lambdas[best] * l1),
        count_at_lambda=best + 1,
        ratio=float(ratios[best]),
        window_radius=window,
        tail_note=note,
        window_limited=limited,
    )


def discretized_sequence(f, eps: float, window: int) -> Seq:
    """Sample a_n = f(eps n) on |n| <= window, trimmed.

    Boundary convention: whatever f returns at its support endpoints is kept
    (an indicator of [0, 1] sampled at step 0.1 yields eleven ones).  A
    non-finite sample is rejected.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    ns = np.arange(-window, window + 1)
    vals = np.array([float(f(eps * n)) for n in ns])
    bad = ~np.isfinite(vals)
    if bad.any():
        raise ValueError(f"f returned a non-finite sample at n = {int(ns[bad][0])}")
    return Seq(-window, vals).trimmed()


def smooth_bump(x: float) -> float:
    """The standard compactly supported mollifier exp(-1/(1-x^2)) on (-1, 1)."""
    if abs(x) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - x * x))


# block radii of the random_signs family; greedy_atoms moves atoms at
# |pos| <= _GREEDY_RADIUS
_SIGN_RADII = (2, 4, 8, 16, 32)
_GREEDY_RADIUS = 16


def _report_best(best: WeakTypeReport) -> WeakTypeReport:
    d = davis_constant()
    if best.ratio > d:
        logger.warning(
            "weak-type search found ratio %.12f EXCEEDING the Davis constant "
            "%.12f (sequence %s) - this would contradict the conjectured "
            "best constant and must be investigated",
            best.ratio, d, best.sequence_id)
    return best


def search_weak_constant(k: Kernel, family: str, budget: int, seed: int = 0,
                         window: int = 16384) -> WeakTypeReport:
    """Empirical lower-bound search for the weak-type constant.

    Families: ``random_signs`` (sign patterns on nested blocks),
    ``greedy_atoms`` (hill-climbing on integer atoms, seeded at the unit
    atom), ``discretized_bumps`` (samples of a smooth bump at shrinking
    mesh, from eps = 1/2 while 1/eps <= window / 4; a window below 8 fits
    none and is rejected).  Deterministic given the seed; returns the
    largest ratio found and never claims an upper bound.

    ``k`` is read once per search, by ``k.read(-r, r)`` with
    r = ``window`` + s + 1 for the family's largest support radius s: every
    candidate's window and tail reads lie in that range, and each
    ``weak_ratio`` reads views of that one ``KernelWindow``.  An
    entry's bits do not depend on the range that asked for it, so the
    reports are those of ``weak_ratio`` on ``k`` itself.  A non-finite entry
    that a candidate reads raises ``ValueError`` (see ``weak_ratio``).
    """
    if check_integer("budget", budget) < 1:
        raise ValueError("budget >= 1 required")
    if check_integer("window", window) < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    # the largest support radius of the family's candidates (a bump's
    # nonzero samples have |n| < 1/eps <= window / 4)
    support = {"random_signs": max(_SIGN_RADII), "greedy_atoms": _GREEDY_RADIUS,
               "discretized_bumps": window // 4}.get(family)
    if support is None:
        raise ValueError(f"unknown family {family!r}")
    k = k.read(-window - support - 1, window + support + 1)

    if family == "random_signs":
        rng = np.random.default_rng(seed)
        best = None
        for i in range(budget):
            r = _SIGN_RADII[i % len(_SIGN_RADII)]
            signs = rng.choice([-1.0, 1.0], size=2 * r + 1)
            rep = weak_ratio(k, Seq(-r, signs), window,
                             sequence_id=f"random_signs[{i}]r={r}")
            if best is None or rep.ratio > best.ratio:
                best = rep
        return _report_best(best)

    if family == "greedy_atoms":
        cur = {0: 1.0}
        best = weak_ratio(k, Seq.from_dict(cur), window,
                          sequence_id="greedy[start]")
        spent = 1
        step = 0
        while spent < budget:
            step += 1
            round_best = None
            round_move = None
            for pos in range(-_GREEDY_RADIUS, _GREEDY_RADIUS + 1):
                for s in (1.0, -1.0):
                    if spent >= budget:
                        break
                    cand = dict(cur)
                    cand[pos] = cand.get(pos, 0.0) + s
                    cand_seq = Seq.from_dict(cand)
                    if cand_seq.trimmed().is_zero():
                        continue
                    rep = weak_ratio(k, cand_seq, window,
                                     sequence_id=f"greedy[{step}]@{pos}{s:+.0f}")
                    spent += 1
                    if round_best is None or rep.ratio > round_best.ratio:
                        round_best, round_move = rep, cand
            if round_best is not None and round_best.ratio > best.ratio:
                best, cur = round_best, round_move
            else:
                break
        return _report_best(best)

    # discretized_bumps
    best = None
    for i in range(budget):
        eps = 0.5 / 2 ** i
        if 1.0 / eps > window / 4:
            break
        # smooth_bump vanishes from |eps n| = 1 on, i.e. from |n| = 2^(i+1)
        a = discretized_sequence(smooth_bump, eps, min(window // 2, 2 ** (i + 1)))
        rep = weak_ratio(k, a, window, sequence_id=f"bump[eps=1/{2**(i+1)}]")
        if best is None or rep.ratio > best.ratio:
            best = rep
    if best is None:
        raise ValueError(f"no bump fits window {window}: discretized_bumps "
                         f"needs window >= 8")
    return _report_best(best)
