"""Scalar special functions and adaptive quadrature shared by every other module.

All routines are pure functions of their inputs and safe to call from any
number of threads.  Everything runs in 64-bit floats; tolerances below are
chosen to be attainable in double precision.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadResult",
    "QuadratureError",
    "Exponent",
    "check_integer",
    "integrate",
    "catalan_beta2",
    "pichorides_constant",
    "csch",
    "csch_sq",
    "coth",
    "gk15_panels",
    "gk_eval",
    "gk_nodes",
    "gk_sums",
]


# 15-point Kronrod rule with embedded 7-point Gauss rule, nodes ascending on
# [-1, 1].  The rule is open: panel endpoints are never evaluated, so
# integrable endpoint singularities are safe.  The one copy of the tables in
# the package; fixed-grid rules elsewhere get them through gk15_panels, or
# through gk_nodes and gk_sums.
_NODES = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK15 = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
# Gauss-7 nodes are the odd-index Kronrod nodes.
_WG7 = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


@dataclass(frozen=True)
class QuadResult:
    """Value of a definite integral together with an error estimate."""

    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.abs_error_estimate < 0:
            raise ValueError("error estimate must be nonnegative")


class QuadratureError(RuntimeError):
    """Raised when the evaluation budget is exhausted; carries the best estimate."""

    def __init__(self, message: str, best: QuadResult):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class Exponent:
    """An integrability exponent p in (1, inf) with its dual and p* = max(p, q)."""

    p: float

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise ValueError(f"p must lie in (1, inf), got {self.p}")

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def pstar(self) -> float:
        return max(self.p, self.q)


def check_integer(name: str, value) -> int:
    """``value`` as an int; ValueError unless it is an integer (a Python or
    numpy int), a float such as 2.0 included."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def gk_nodes(lo, hi):
    """Gauss-Kronrod nodes of the panels [lo_i, hi_i] and their half-widths.

    Returns (x, half): row i of x holds the 15 nodes of panel i, ascending.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES, half


def gk_sums(fx, half):
    """The Gauss-Kronrod pair on node values: (K15, |K15 - G7|) per panel.

    ``fx[..., k]`` is the integrand at node k of a panel of half-width
    ``half[...]``.  numpy sums a contiguous row in a fixed order and a
    strided one in another, so the node axis is made contiguous first: the
    sums then do not depend on the layout of ``fx``.
    """
    fx = np.ascontiguousarray(fx)
    k15 = (fx * _WK15).sum(axis=-1) * half
    g7 = (fx[..., 1::2] * _WG7).sum(axis=-1) * half
    return k15, np.abs(k15 - g7)


def gk_eval(f, lo: np.ndarray, hi: np.ndarray):
    """Apply the Gauss-Kronrod pair on each panel [lo_i, hi_i], calling f
    once on all the nodes; ValueError unless it returns one value each."""
    x, half = gk_nodes(lo, hi)
    fx = np.asarray(f(x.ravel()), dtype=float)
    if fx.shape != (x.size,):
        raise ValueError(f"integrand returned shape {fx.shape} for "
                         f"abscissae of shape {(x.size,)}")
    fx = fx.reshape(x.shape)
    if not np.all(np.isfinite(fx)):
        bad = x[~np.isfinite(fx)]
        raise ValueError(f"integrand returned non-finite value near x={bad[0]!r}")
    return gk_sums(fx, half)


def gk15_panels(lo, hi):
    """Nodes and weights of the Kronrod rule on the panels [lo_i, hi_i].

    Returns flat arrays (x, wk) of length 15 * len(lo), panel after panel:
    the K15 nodes and weights.  A fixed-grid quadrature sums f(x) * wk.
    """
    x, half = gk_nodes(lo, hi)
    return x.ravel(), (half[:, None] * _WK15).ravel()


def integrate(f, a: float, b: float, rel_tol: float = 1e-10, *,
              abs_floor: float = 1e-15, max_evals: int = 500_000,
              points=()) -> QuadResult:
    """Adaptive Gauss-Kronrod integration of f over (a, b), b may be +inf.

    A semi-infinite range is mapped onto (0, 1) by the substitution
    y = a + t/(1-t); the integrands used in this project decay at least like
    exp(-2y) * poly or y**-2, both of which this map keeps tame.  ``points``
    lists interior abscissae (pole lines, kinks) that become initial panel
    boundaries.  The refinement schedule is deterministic, so identical inputs
    give bit-identical results.  f is called on arrays of abscissae and must
    return an array of the same shape.
    """
    if not (1e-14 < rel_tol < 1e-2):
        raise ValueError(f"rel_tol must lie in (1e-14, 1e-2), got {rel_tol}")
    if math.isinf(b):
        if math.isinf(a):
            raise ValueError("only the upper limit may be infinite")
        g = lambda t: f(a + t / (1.0 - t)) / (1.0 - t) ** 2
        mapped = tuple((p - a) / (1.0 + (p - a)) for p in points if p > a)
        return integrate(g, 0.0, 1.0, rel_tol, abs_floor=abs_floor,
                         max_evals=max_evals, points=mapped)
    if not (a < b):
        raise ValueError("empty or inverted integration range")

    bounds = sorted({float(a), float(b), *(float(p) for p in points if a < p < b)})
    # start from at least 8 panels
    pieces = len(bounds) - 1
    per = max(2, -(-8 // pieces))
    lo_list, hi_list = [], []
    for left, right in zip(bounds[:-1], bounds[1:]):
        edges = np.linspace(left, right, per + 1)
        lo_list.extend(edges[:-1])
        hi_list.extend(edges[1:])
    lo = np.array(lo_list)
    hi = np.array(hi_list)

    vals, errs = gk_eval(f, lo, hi)
    evals = 15 * len(lo)
    min_width = 16 * np.finfo(float).eps * max(abs(a), abs(b), 1.0)

    for _ in range(64):
        total = math.fsum(vals)
        err_total = math.fsum(errs)
        target = max(rel_tol * abs(total), abs_floor)
        if err_total <= target:
            return QuadResult(total, err_total, evals)
        best = QuadResult(total, err_total, evals)
        if evals >= max_evals:
            raise QuadratureError(
                f"quadrature budget exhausted ({evals} evaluations, "
                f"error {err_total:.3e} > target {target:.3e})", best)
        thresh = target / (2 * len(lo))
        split = (errs > thresh) & ((hi - lo) > min_width)
        if not split.any():
            raise QuadratureError(
                "no further refinement possible "
                f"(error {err_total:.3e} > target {target:.3e})", best)
        s_lo, s_hi = lo[split], hi[split]
        mid = 0.5 * (s_lo + s_hi)
        new_lo = np.concatenate([s_lo, mid])
        new_hi = np.concatenate([mid, s_hi])
        new_vals, new_errs = gk_eval(f, new_lo, new_hi)
        evals += 15 * len(new_lo)
        lo = np.concatenate([lo[~split], new_lo])
        hi = np.concatenate([hi[~split], new_hi])
        vals = np.concatenate([vals[~split], new_vals])
        errs = np.concatenate([errs[~split], new_errs])

    raise QuadratureError("refinement round limit reached",
                          QuadResult(math.fsum(vals), math.fsum(errs), evals))


def catalan_beta2() -> float:
    """beta(2) = sum_k (-1)^k / (2k+1)^2, Catalan's constant, as the nearest
    double (pinned against mpmath in the tests)."""
    return 0.915965594177219


def pichorides_constant(e: Exponent) -> float:
    """cot(pi / (2 p*)), the sharp L^p constant of the continuous Hilbert transform.

    Exactly 1.0 at p = 2 (cot(pi/4) = 1); symmetric in p <-> p/(p-1) because
    it depends on p only through p*.
    """
    if e.pstar == 2.0:
        return 1.0
    ang = math.pi / (2.0 * e.pstar)
    return math.cos(ang) / math.sin(ang)


# -- numerically stable hyperbolic helpers (used by identities) ---------------

def csch(y):
    """1/sinh(y) for y > 0 without overflow at large y."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    small = y < 1.0
    out[small] = 1.0 / np.sinh(y[small])
    t = np.exp(-y[~small])
    out[~small] = 2.0 * t / (1.0 - t * t)
    return out


def csch_sq(y):
    c = csch(y)
    return c * c


def coth(y):
    """cosh(y)/sinh(y) for y > 0; stable for all magnitudes."""
    return 1.0 / np.tanh(np.asarray(y, dtype=float))
