"""Weak-type (1,1) experimentation: exact ratio scans and lower-bound search.

The weak ratio of a sequence is sup_lambda lambda * #{ |T a_n| > lambda } /
||a||_1, computed exactly on a window by scanning lambda just below every
distinct |T a_n|.  The search engine only ever reports lower bounds for the
best constant; it never claims an upper bound.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from dhtlab.kernels import Kernel
from dhtlab.numerics import catalan_beta2
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
        return {
            "sequence_id": self.sequence_id,
            "l1_norm": self.l1_norm,
            "best_lambda": self.best_lambda,
            "count_at_lambda": self.count_at_lambda,
            "ratio": self.ratio,
            "window_radius": self.window_radius,
            "tail_note": self.tail_note,
            "window_limited": self.window_limited,
        }


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
    The support must lie strictly inside the window (edge >= 1).
    """
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

    out = convolve(k, u, window)
    mag = np.abs(out.values)
    mag = mag[mag > 0.0]
    if len(mag) == 0:
        raise ValueError("transform vanishes identically on the window")
    vals, counts = np.unique(mag, return_counts=True)
    vals = vals[::-1]                       # descending
    cum = np.cumsum(counts[::-1])           # count of entries >= vals[i]
    lambdas = vals * (1.0 - _LAMBDA_NUDGE)
    ratios = lambdas * cum
    best = int(np.argmax(ratios))           # ties resolve to the largest lambda

    near = np.concatenate([k.window_range(-edge - 1, -edge),
                           k.window_range(edge, edge + 1)])
    tail_bound = float(np.max(np.abs(near)))
    limited = bool(tail_bound >= lambdas[best])
    note = (f"|Ta_n| <= {tail_bound:.3e} outside the window "
            f"(kernel bound at distance {edge})")
    return WeakTypeReport(
        sequence_id=sequence_id or f"seq@{at.offset}x{len(at.values)}",
        l1_norm=l1,
        best_lambda=float(lambdas[best] * l1),
        count_at_lambda=int(cum[best]),
        ratio=float(ratios[best]),
        window_radius=window,
        tail_note=note,
        window_limited=limited,
    )


def discretized_sequence(f, eps: float, z: float, window: int) -> Seq:
    """Sample a_n = f(eps (z + n)) on |n| <= window, trimmed.

    Boundary convention: whatever f returns at its support endpoints is kept
    (an indicator of [0, 1] sampled at step 0.1 yields eleven ones).
    """
    if not (0.0 <= z < 1.0):
        raise ValueError("z must lie in [0, 1)")
    if not eps > 0:
        raise ValueError("eps must be positive")
    ns = np.arange(-window, window + 1)
    vals = np.array([float(f(eps * (z + n))) for n in ns])
    return Seq(-window, vals).trimmed()


def smooth_bump(x: float) -> float:
    """The standard compactly supported mollifier exp(-1/(1-x^2)) on (-1, 1)."""
    if abs(x) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - x * x))


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
    mesh).  Deterministic given the seed; returns the largest ratio found
    and never claims an upper bound.
    """
    if budget < 1:
        raise ValueError("budget >= 1 required")

    if family == "random_signs":
        rng = np.random.default_rng(seed)
        radii = (2, 4, 8, 16, 32)
        best = None
        for i in range(budget):
            r = radii[i % len(radii)]
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
        radius = 16
        while spent < budget:
            step += 1
            round_best = None
            round_move = None
            for pos in range(-radius, radius + 1):
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

    if family == "discretized_bumps":
        best = None
        for i in range(budget):
            eps = 0.5 / 2 ** i
            if 1.0 / eps > window / 4:
                break
            a = discretized_sequence(smooth_bump, eps, 0.0, window // 2)
            rep = weak_ratio(k, a, window, sequence_id=f"bump[eps=1/{2**(i+1)}]")
            if best is None or rep.ratio > best.ratio:
                best = rep
        return _report_best(best)

    raise ValueError(f"unknown family {family!r}")
