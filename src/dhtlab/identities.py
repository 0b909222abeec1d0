"""Verification harness for the analytic identities behind the kernels.

Everything here is deterministic: closed forms on one side, independent
quadrature or truncated summation on the other, with computed (never
hard-coded) tolerances from truncation and quadrature budgets.  All verifiers
are pure functions and can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dhtlab.halfplane import grad_poisson, green_G, h_fields, poisson_p
from dhtlab.kernels import E, F, J, e_tail_constant
from dhtlab.numerics import QuadResult, coth, csch_sq, gk15_panels, integrate

__all__ = [
    "PlanePoint",
    "IdentityReport",
    "verify_poisson_sum",
    "h_lower_bound_correction",
    "verify_h_normalization",
    "verify_h_bounds",
    "verify_green_limit",
    "closed_I",
    "quad_I",
    "verify_int6",
    "verify_int7",
    "verify_jn_double_integral",
    "verify_hp",
    "verify_ihq",
    "verify_ihj",
    "conditional_kernel_quad",
    "run_section3_suite",
]

_PI = math.pi
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PlanePoint:
    """A point of the open upper half-plane."""

    x: float
    y: float

    def __post_init__(self):
        if not (self.y > 0):
            raise ValueError("PlanePoint requires y > 0")


@dataclass(frozen=True)
class IdentityReport:
    name: str
    lhs: float
    rhs: float
    abs_diff: float
    tolerance: float
    passed: bool

    @staticmethod
    def make(name: str, lhs: float, rhs: float, tolerance: float) -> "IdentityReport":
        lhs, rhs, tolerance = float(lhs), float(rhs), float(tolerance)
        diff = abs(lhs - rhs)
        return IdentityReport(name, lhs, rhs, diff, tolerance, bool(diff <= tolerance))

    def as_dict(self) -> dict:
        return {"name": self.name, "lhs": float(self.lhs),
                "rhs": float(self.rhs), "abs_diff": float(self.abs_diff),
                "tolerance": float(self.tolerance), "pass": bool(self.passed)}


def _rot_dot(ax, ay, bx, by):
    """(H a) . b with the quarter-turn H = [[0, -1], [1, 0]]."""
    return -ay * bx + ax * by


# -- lattice sum and elementary bounds ----------------------------------------

def _lattice_sum(x: float, y: float, N: int) -> float:
    """Partial lattice sum of p_k(x, y) over |k| <= N, the pairs +-k in one fsum."""
    ks = np.arange(1, N + 1)
    return poisson_p(0, x, y) + math.fsum(poisson_p(ks, x, y) + poisson_p(-ks, x, y))


def verify_poisson_sum(pt: PlanePoint, N: int) -> IdentityReport:
    """Partial lattice sum of the p_n against the closed form of h.

    x is folded into [-pi, pi) first (a lattice shift only reindexes the sum),
    which makes the report exactly even and 2 pi periodic in x.  The tail
    bound is y / (pi^3 (2N - 1)) from comparing with sum 1/(2k-1)^2.
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    x = pt.x - _TWO_PI * round(pt.x / _TWO_PI)
    y = pt.y
    s = _lattice_sum(x, y, N)
    tail = y / (_PI ** 3 * (2 * N - 1))
    return IdentityReport.make(f"poisson_sum(x={pt.x},y={pt.y},N={N})",
                               s, 1.0 / h_fields(x, y)[0], tail + 1e-13 * abs(s))


def verify_h_normalization() -> IdentityReport:
    """The lattice sum carries the 1/(2 pi) factor: check at (pi, 1) where the
    two normalizations differ by 2 pi."""
    N = 4000
    x, y = _PI, 1.0
    s = _lattice_sum(x, y, N)
    with_factor = 1.0 / h_fields(x, y)[0]
    without_factor = _TWO_PI * with_factor
    tol = y / (_PI ** 3 * (2 * N - 1)) + 1e-12
    ok = bool(abs(s - with_factor) <= tol
              and abs(s - without_factor) > 1000 * tol)
    return IdentityReport("h_sum_normalization(pi,1)", float(s),
                          float(with_factor), float(abs(s - with_factor)),
                          float(tol), ok)


def verify_h_bounds(pt: PlanePoint) -> IdentityReport:
    """Two-sided elementary bounds: y/(2 pi (y+2)) <= h <= (y+2)/(2 pi y).

    The extremes of h over x are tanh(y/2)/(2 pi) at cos x = -1 and
    coth(y/2)/(2 pi) at cos x = 1, and t/(t+1) <= tanh t <= coth t <= (t+1)/t
    at t = y/2 gives the displayed constants.  A lower bound with y + 1 in
    the denominator would fail for small y (e.g. at x = 2.5, y = 0.2); see
    h_lower_bound_correction in the suite.
    """
    h = 1.0 / h_fields(pt.x, pt.y)[0]
    lo = pt.y / (_TWO_PI * (pt.y + 2.0))
    hi = (pt.y + 2.0) / (_TWO_PI * pt.y)
    margin = min(h - lo, hi - h)
    return IdentityReport(f"h_bounds(x={pt.x},y={pt.y})", float(h), float(h),
                          abs_diff=0.0 if margin >= 0 else float(-margin),
                          tolerance=0.0, passed=bool(margin >= -1e-15))


def h_lower_bound_correction() -> IdentityReport:
    """Show that the y+1 lower-bound variant fails while y+2 holds.

    At (x, y) = (2.5, 0.2): h < y/(2 pi (y+1)) but h >= y/(2 pi (y+2)).
    """
    pt = PlanePoint(2.5, 0.2)
    h = 1.0 / h_fields(pt.x, pt.y)[0]
    wrong = pt.y / (_TWO_PI * (pt.y + 1.0))
    right = pt.y / (_TWO_PI * (pt.y + 2.0))
    ok = (h < wrong) and (h >= right)
    return IdentityReport("h_lower_bound_correction(2.5,0.2)", float(h),
                          float(right), float(abs(h - right)),
                          float(wrong - right), bool(ok))


def _green_envelope(t: float) -> float:
    """g(t) = log(1 + 4 t (t-1)^-2) / t, the ratio envelope scale function."""
    return math.log1p(4.0 * t / (t - 1.0) ** 2) / t


def verify_green_limit(pt: PlanePoint, n: int, y0_list) -> IdentityReport:
    """G(x, y)/p_n(0, y0) -> 2y as y0 grows, under the envelope y g(y/y0).

    Requires every y0 >= 2 pi n (the envelope needs it); checks that the
    distance |ratio - 2y| shrinks along the list and that the envelope holds
    at every sample.
    """
    y0s = list(y0_list)
    if any(b <= a for a, b in zip(y0s, y0s[1:])):
        raise ValueError("y0_list must be increasing")
    if any(y0 < _TWO_PI * n for y0 in y0s):
        raise ValueError("need y0 >= 2 pi n for the envelope")
    ratios = []
    for y0 in y0s:
        ratios.append(green_G(pt.x, pt.y, 0.0, y0) / poisson_p(n, 0.0, y0))
    target = 2.0 * pt.y
    dists = [abs(r - target) for r in ratios]
    monotone = all(b <= a * (1 + 1e-12) for a, b in zip(dists, dists[1:]))
    envel = all(r <= pt.y * _green_envelope(pt.y / y0) * (1 + 1e-12)
                for r, y0 in zip(ratios, y0s))
    # first-order budget for the finite-y0 deviation of the ratio
    y0 = y0s[-1]
    tol = target * ((_TWO_PI * n / y0) ** 2 + 3.0 * (pt.y + abs(pt.x) + 1.0) / y0)
    rep = IdentityReport.make(f"green_limit(n={n},x={pt.x},y={pt.y})",
                              ratios[-1], target, tol)
    ok = rep.passed and monotone and envel
    return IdentityReport(rep.name, rep.lhs, rep.rhs, rep.abs_diff,
                          rep.tolerance, ok)


# -- the five residue x-integrals ----------------------------------------------

def closed_I(k: int, n: int, y: float) -> float:
    """Closed forms of the five x-integrals I_1..I_5 (residue evaluations)."""
    if n == 0:
        raise ValueError("n must be nonzero")
    if not y > 0:
        raise ValueError("y must be positive")
    pn2 = (_PI * n) ** 2
    d = y * y + pn2
    if k == 1:
        return _PI * n * (3.0 * y * y - pn2) / d ** 3
    if k == 2:
        return _PI * n * (pn2 * (2.0 * y - 1.0) + y * y * (2.0 * y + 3.0)) \
            / d ** 3 * math.exp(-y)
    if k == 3:
        return y * y * math.exp(-y) / (2.0 * _PI * n * d)
    if k == 4:
        return -_PI * n * y / d ** 2
    if k == 5:
        return (y ** 4 + pn2 * y * (y - 2.0)) * math.exp(-y) / (2.0 * _PI * n * d ** 2)
    raise ValueError("k must be 1..5")


def _integrate_line(f, breaks, rel_tol, max_evals=500_000,
                    abs_floor=1e-15) -> QuadResult:
    """Integral over the whole real line, split at the given break points."""
    breaks = sorted(breaks)
    parts = []
    parts.append(integrate(lambda t: f(breaks[0] - t), 0.0, math.inf, rel_tol,
                           max_evals=max_evals, abs_floor=abs_floor))
    for a, b in zip(breaks[:-1], breaks[1:]):
        parts.append(integrate(f, a, b, rel_tol, max_evals=max_evals,
                               abs_floor=abs_floor))
    parts.append(integrate(lambda t: f(breaks[-1] + t), 0.0, math.inf, rel_tol,
                           max_evals=max_evals, abs_floor=abs_floor))
    return QuadResult(math.fsum(p.value for p in parts),
                      math.fsum(p.abs_error_estimate for p in parts),
                      sum(p.evaluations for p in parts))


def _I_integrand(k: int, n: int, y: float):
    """The defining x-integrands of I_1..I_5, built from the gradients.

    I_5 integrates p_n (d/dx p_0) cos x with a plus sign: that is the
    orientation consistent with its closed form, with the residue evaluation
    it comes from, and with the combined identity checked by verify_int6.
    """
    def f(x):
        x = np.asarray(x, dtype=float)
        p0x, p0y = grad_poisson(0, x, y)
        if k == 1 or k == 2:
            pnx, pny = grad_poisson(n, x, y)
            core = _rot_dot(p0x, p0y, pnx, pny)
            return _TWO_PI * (core if k == 1 else core * np.cos(x))
        pn = poisson_p(n, x, y)
        if k == 3:
            return _TWO_PI * pn * (-p0y) * np.sin(x)
        if k == 4:
            return _TWO_PI * pn * p0x
        return _TWO_PI * pn * p0x * np.cos(x)
    return f


def quad_I(k: int, n: int, y: float) -> QuadResult:
    """The I_k x-integral by adaptive quadrature of its defining integrand."""
    if n == 0:
        raise ValueError("n must be nonzero")
    return _integrate_line(_I_integrand(k, n, y), [0.0, _TWO_PI * n], 1e-10)


def _int6_combined_integrand(n: int, y: float):
    """h^-1 (H grad p_0 . grad p_n) + 2 p_n (H grad p_0 . grad h^-1) at height y."""
    def f(x):
        x = np.asarray(x, dtype=float)
        p0x, p0y = grad_poisson(0, x, y)
        pnx, pny = grad_poisson(n, x, y)
        hinv, glx, gly = h_fields(x, y)
        return hinv * _rot_dot(p0x, p0y, pnx, pny) \
            + 2.0 * poisson_p(n, x, y) * _rot_dot(p0x, p0y, -hinv * glx, -hinv * gly)
    return f


def int6_closed(n: int, y):
    """Closed form of the combined x-integral, elementwise in y; the second
    term carries (y^2 + pi^2 n^2) to the first power."""
    pn2 = (_PI * n) ** 2
    d = y * y + pn2
    return _PI * n * (3.0 * y * y - pn2) / d ** 3 \
        + y * y * csch_sq(y) / (_PI * n * d)


def verify_int6(n: int, y: float, rel_tol: float = 1e-9) -> IdentityReport:
    q = _integrate_line(_int6_combined_integrand(n, y), [0.0, _TWO_PI * n], rel_tol)
    rhs = int6_closed(n, y)
    tol = max(1e-8 * abs(rhs), 10.0 * q.abs_error_estimate, 1e-14)
    return IdentityReport.make(f"combined_x_integral(n={n},y={y})", q.value, rhs, tol)


def verify_int7(n: int) -> IdentityReport:
    """integral_0^inf 2y pi n (3y^2 - pi^2 n^2)/(y^2 + pi^2 n^2)^3 dy = 1/(pi n)."""
    if n == 0:
        raise ValueError("n must be nonzero")
    pn2 = (_PI * n) ** 2

    def f(y):
        y = np.asarray(y, dtype=float)
        d = y * y + pn2
        return 2.0 * y * _PI * n * (3.0 * y * y - pn2) / d ** 3

    q = integrate(f, 0.0, math.inf, 1e-12)
    tol = max(1e-10 / (_PI * abs(n)), 10.0 * q.abs_error_estimate)
    return IdentityReport.make(f"odd_kernel_mass(n={n})", q.value, 1.0 / (_PI * n), tol)


def verify_jn_double_integral(n: int, tol: float = 1e-6, *,
                              naive_inner: bool = False) -> IdentityReport:
    """The 2-D occupation integral for the J kernel against its closed form.

    Iterated quadrature, x inner and y outer.  By default the inner x-integral
    uses the combined closed form (already cross-checked by verify_int6); with
    ``naive_inner`` the inner integral is recomputed adaptively at every outer
    node, which is slow but fully independent of the closed forms.
    """
    if n == 0:
        raise ValueError("n must be nonzero")

    if naive_inner:
        from dhtlab.numerics import QuadratureError

        def outer(ys):
            ys = np.atleast_1d(np.asarray(ys, dtype=float))
            out = np.empty_like(ys)
            for i, y in enumerate(ys):
                # the inner value shrinks like y^-4; scale its floor so the
                # adaptive pass does not chase rounding noise at large y
                floor = 1e-13 / (1.0 + y ** 3)
                try:
                    v = _integrate_line(_int6_combined_integrand(n, y),
                                        [0.0, _TWO_PI * n], 1e-8,
                                        max_evals=120_000, abs_floor=floor)
                    out[i] = 2.0 * y * v.value
                except QuadratureError as ex:
                    out[i] = 2.0 * y * ex.best.value
            return out
        q = integrate(outer, 0.0, math.inf, 1e-6, max_evals=3_000_000,
                      abs_floor=1e-10)
    else:
        def outer(y):
            y = np.asarray(y, dtype=float)
            return 2.0 * y * int6_closed(n, y)
        q = integrate(outer, 0.0, math.inf, 1e-10)

    rhs = J.value(n)
    tolerance = max(tol * abs(rhs), 10.0 * q.abs_error_estimate)
    tag = "naive" if naive_inner else "closed-inner"
    return IdentityReport.make(f"j_double_integral(n={n},{tag})", q.value, rhs,
                               tolerance)


# -- truncated discrete Hilbert transforms of parametric families ---------------

def _dht_truncated(v: np.ndarray, M: int) -> float:
    """(1/pi) sum_{0<|m|<=M} f(n - m)/m with fixed ascending-m pair order.

    ``v`` holds f on [n - M, n + M], so f(n) is ``v[M]``.
    """
    m = np.arange(1, M + 1)
    terms = (v[M - 1::-1] - v[M + 1:]) / m
    return float(math.fsum(terms)) / _PI


def verify_hp(n: int, y: float, M: int) -> IdentityReport:
    """Truncated transform of the Lorentzian family 1/(y^2 + pi^2 k^2).

    Closed form: pi n coth(y) / (y (y^2 + pi^2 n^2)) - 2 pi n/(y^2 + pi^2 n^2)^2.
    The summands decay like m^-3, giving an O(M^-2) tail.
    """
    if M < 1000:
        raise ValueError("M >= 1e3 required for the tail bound to make sense")
    ks = np.arange(n - M, n + M + 1)
    lhs = _dht_truncated(1.0 / (y * y + (_PI * ks.astype(float)) ** 2), M)
    pn2 = (_PI * n) ** 2
    d = y * y + pn2
    rhs = _PI * n * float(coth(y)) / (y * d) - 2.0 * _PI * n / (d * d)
    tail = 2.0 / (_PI ** 3 * M * max(M - abs(n) - 1, 1))
    return IdentityReport.make(f"dht_lorentzian(n={n},y={y},M={M})", lhs, rhs,
                               tail + 1e-13 * max(abs(rhs), 1.0))


def _inner_sinh_family(y: float, ks: np.ndarray) -> np.ndarray:
    """C_k(y) = integral_0^y t sinh t / (t^2 + pi^2 k^2) dt for each k (vectorized)."""
    n_panels = max(2, int(math.ceil(y / 0.25)))
    edges = np.linspace(0.0, y, n_panels + 1)
    t, w = gk15_panels(edges[:-1], edges[1:])
    wts = w * t * np.sinh(t)
    a2 = (_PI * ks.astype(float)) ** 2
    return (wts[None, :] / (t[None, :] ** 2 + a2[:, None])).sum(axis=1)


def verify_ihq(n: int, y: float, M: int) -> IdentityReport:
    """Truncated transform of the family C_k(y) = int_0^y t sinh t/(t^2+pi^2 k^2) dt.

    Closed form pi n sinh(y) / (y^2 + pi^2 n^2) for n != 0 and 0 at n = 0.
    """
    if M < 1000:
        raise ValueError("M >= 1e3 required")
    ks = np.arange(n - M, n + M + 1)
    c = _inner_sinh_family(y, ks)
    lhs = _dht_truncated(c, M)
    if n == 0:
        rhs = 0.0
    else:
        rhs = _PI * n * math.sinh(y) / (y * y + (_PI * n) ** 2)
    bracket = y * math.cosh(y) - math.sinh(y)
    tail = bracket / (_PI ** 3 * M) * 2.0 / max(M - abs(n) - 1, 1)
    quad_slop = 1e-13 * (abs(c).max() * (2.0 * math.log(M) + 2.0) / _PI + abs(rhs))
    return IdentityReport.make(f"dht_sinh_family(n={n},y={y},M={M})", lhs, rhs,
                               tail + quad_slop)


def verify_ihj(n: int, M: int) -> IdentityReport:
    """Truncated transform of the E kernel against the F kernel.

    Tail bound from |E_k| <= c/k^2 plus the summed per-entry quadrature
    estimates of the E window and of the F value itself.
    """
    if M < 100:
        raise ValueError("M >= 100 required")
    R = max(abs(n - M), abs(n + M))
    window = E.read(-R, R)
    lhs = _dht_truncated(window.window_range(n - M, n + M), M)
    rhs = F.value(n)
    c_tail = e_tail_constant()
    tail = 2.0 * c_tail / (_PI * M * max(M - abs(n) - 1, 1))
    quad_budget = 2.0 * float(np.sum(window.bars)) / _PI + float(F.read(n, n).bars[0])
    return IdentityReport.make(f"dht_e_equals_f(n={n},M={M})", lhs, rhs,
                               tail + quad_budget + 1e-13 * max(abs(rhs), 1e-3))


# -- finite-start conditional kernel (deterministic side of the MC check) -------

def conditional_kernel_quad(n: int, x0: float, y0: float,
                            rel_tol: float = 1e-6) -> QuadResult:
    """Matrix entry (row n, column 0) of the conditioned martingale-transform
    operator for a path started at (x0, y0), by iterated quadrature.

    Weight G(x, y)/p_n(x0, y0) replaces its large-y0 limit 2y; as y0 grows
    this converges to J_n.
    """
    if not y0 > 0:
        raise ValueError("y0 > 0 required")
    pn0 = poisson_p(n, x0, y0)

    def inner(y: float) -> float:
        def f(x):
            x = np.asarray(x, dtype=float)
            p0x, p0y = grad_poisson(0, x, y)
            pnx, pny = grad_poisson(n, x, y)
            hinv, glx, gly = h_fields(x, y)
            gx, gy = -hinv * glx, -hinv * gly
            core = hinv * _rot_dot(p0x, p0y, pnx, pny) \
                + poisson_p(n, x, y) * _rot_dot(p0x, p0y, gx, gy) \
                - poisson_p(0, x, y) * _rot_dot(pnx, pny, gx, gy)
            return green_G(x, y, x0, y0) / pn0 * core
        breaks = sorted({0.0, _TWO_PI * n, x0})
        return _integrate_line(f, breaks, max(rel_tol * 0.1, 2e-9),
                               max_evals=400_000).value

    def outer(ys):
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        return np.array([inner(y) for y in ys])

    return integrate(outer, 0.0, math.inf, rel_tol, points=(y0,),
                     max_evals=3_000_000)


# -- suite runner ----------------------------------------------------------------

def run_section3_suite() -> list[IdentityReport]:
    """Run the full deterministic identity suite and return all reports."""
    reports: list[IdentityReport] = []

    for (x, y) in [(0.0, 1.0), (1.7, 0.4), (-2.0, 3.0)]:
        reports.append(verify_poisson_sum(PlanePoint(x, y), 1000))
    reports.append(verify_h_normalization())
    for (x, y) in [(0.3, 2.0), (2.5, 0.2), (0.0, 7.0)]:
        reports.append(verify_h_bounds(PlanePoint(x, y)))
    reports.append(h_lower_bound_correction())
    reports.append(verify_green_limit(PlanePoint(1.0, 1.0), 1,
                                      [8 * _PI, 16 * _PI, 100.0, 1e4]))

    for k in range(1, 6):
        for n in (1, 2, -3):
            for y in (0.5, 1.0, 2.0):
                q = quad_I(k, n, y)
                rhs = closed_I(k, n, y)
                tol = max(1e-8 * max(abs(rhs), 1e-3), 10 * q.abs_error_estimate)
                reports.append(IdentityReport.make(
                    f"residue_integral(k={k},n={n},y={y})", q.value, rhs, tol))

    for (n, y) in [(1, 1.0), (2, 0.5), (-3, 2.0)]:
        reports.append(verify_int6(n, y))
    for n in range(1, 6):
        reports.append(verify_int7(n))
    for n in (1, 2, 5):
        reports.append(verify_jn_double_integral(n, 1e-6))

    for (n, y) in [(1, 0.5), (1, 1.0), (1, 2.0), (3, 0.5), (3, 1.0), (3, 2.0)]:
        reports.append(verify_hp(n, y, 10_000))
        reports.append(verify_ihq(n, y, 10_000))
    reports.append(verify_ihq(0, 2.0, 10_000))
    for n in (1, 2, 3):
        reports.append(verify_ihj(n, 2000))
    return reports
