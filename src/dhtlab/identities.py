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

from dhtlab.kernels import E, F, e_tail_constant, f_kernel, j_kernel
from dhtlab.numerics import QuadResult, coth, csch, csch_sq, gk15_panels, integrate

__all__ = [
    "PlanePoint",
    "IdentityReport",
    "poisson_p",
    "h_func",
    "green_G",
    "grad_poisson",
    "grad_h",
    "grad_h_inv",
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


# -- closed forms --------------------------------------------------------------

def _cosh_minus_cos(x, y):
    """cosh(y) - cos(x) = 2 (sinh^2(y/2) + sin^2(x/2)), stable near (2 pi k, 0)."""
    return 2.0 * (np.sinh(y / 2.0) ** 2 + np.sin(x / 2.0) ** 2)


def poisson_p(n: int, pt: PlanePoint) -> float:
    """Harmonic exit density at the lattice point 2 pi n for the half-plane."""
    xt = pt.x - _TWO_PI * n
    return pt.y / (_PI * (xt * xt + pt.y * pt.y))


def h_func(pt: PlanePoint) -> float:
    """sinh(y) / (2 pi (cosh y - cos x)); the lattice sum of the poisson_p."""
    return math.sinh(pt.y) / (_TWO_PI * _cosh_minus_cos(pt.x, pt.y))


def green_G(pt: PlanePoint, x0: float, y0: float) -> float:
    """Green function of the half-plane for -Laplace/2 with pole at (x0, y0)."""
    if pt.x == x0 and pt.y == y0:
        raise ValueError("Green function evaluated at its pole")
    dx2 = (pt.x - x0) ** 2
    return math.log((dx2 + (pt.y + y0) ** 2) / (dx2 + (pt.y - y0) ** 2)) / _TWO_PI


def grad_poisson(n: int, x, y):
    """(d/dx, d/dy) of poisson_p, vectorized over x, y arrays."""
    xt = x - _TWO_PI * n
    r2 = xt * xt + y * y
    return -2.0 * xt * y / (_PI * r2 * r2), (xt * xt - y * y) / (_PI * r2 * r2)


def grad_h(x, y):
    """(d/dx, d/dy) of h_func, vectorized.

    The gradient is (-sinh y sin x, 1 - cosh y cos x) / (2 pi c^2) with
    c = cosh y - cos x.  Up to y = 20 the second numerator is written as
    2 sin^2(x/2) - 2 sinh^2(y/2) cos x, which does not cancel near the poles
    (2 pi k, 0); above it everything is scaled by u = exp(-y), so nothing
    overflows: (-u (1 - u^2) sin x, u (2u - (1 + u^2) cos x)) / (pi d^2)
    with d = 1 - 2u cos x + u^2.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    hx, hy = np.empty(x.shape), np.empty(x.shape)
    lo = y <= 20.0
    xl, yl = x[lo], y[lo]
    c2 = _TWO_PI * _cosh_minus_cos(xl, yl) ** 2
    hx[lo] = -np.sinh(yl) * np.sin(xl) / c2
    hy[lo] = 2.0 * (np.sin(xl / 2.0) ** 2 - np.sinh(yl / 2.0) ** 2 * np.cos(xl)) / c2
    xh, u = x[~lo], np.exp(-y[~lo])
    cos_x = np.cos(xh)
    d2 = _PI * (1.0 - 2.0 * u * cos_x + u * u) ** 2
    hx[~lo] = -u * (1.0 - u * u) * np.sin(xh) / d2
    hy[~lo] = u * (2.0 * u - (1.0 + u * u) * cos_x) / d2
    return hx, hy


def grad_h_inv(x, y):
    """(d/dx, d/dy) of 1/h_func, vectorized over x at scalar height y.

    Above y = 20 the hyperbolics are rewritten in exp(-y) form so that
    integrands probed at very large heights do not overflow.
    """
    if np.ndim(y) == 0 and y > 20.0:
        cs = float(csch(y))
        ct = float(coth(y))
        gx = _TWO_PI * np.sin(x) * cs
        gy = _TWO_PI * (np.cos(x) * ct - cs) * cs
        return gx, gy
    sh = np.sinh(y)
    gx = _TWO_PI * np.sin(x) / sh
    gy = _TWO_PI * (np.cos(x) * np.cosh(y) - 1.0) / (sh * sh)
    return gx, gy


def _h_inv(x, y: float):
    """2 pi (cosh y - cos x)/sinh y, overflow-safe for large scalar y."""
    if y > 20.0:
        return _TWO_PI * (float(coth(y)) - np.cos(x) * float(csch(y)))
    return _TWO_PI * _cosh_minus_cos(x, y) / math.sinh(y)


def _rot_dot(ax, ay, bx, by):
    """(H a) . b with the quarter-turn H = [[0, -1], [1, 0]]."""
    return -ay * bx + ax * by


# -- lattice sum and elementary bounds ----------------------------------------

def verify_poisson_sum(pt: PlanePoint, N: int) -> IdentityReport:
    """Partial lattice sum of poisson_p against the closed form of h_func.

    x is folded into [-pi, pi) first (a lattice shift only reindexes the sum),
    which makes the report exactly even and 2 pi periodic in x.  The tail
    bound is y / (pi^3 (2N - 1)) from comparing with sum 1/(2k-1)^2.
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    x = pt.x - _TWO_PI * round(pt.x / _TWO_PI)
    y = pt.y
    s = poisson_p(0, PlanePoint(x, y))
    ks = np.arange(1, N + 1)
    pos = y / (_PI * ((x - _TWO_PI * ks) ** 2 + y * y))
    neg = y / (_PI * ((x + _TWO_PI * ks) ** 2 + y * y))
    s += math.fsum(pos + neg)
    tail = y / (_PI ** 3 * (2 * N - 1))
    return IdentityReport.make(f"poisson_sum(x={pt.x},y={pt.y},N={N})",
                               s, h_func(PlanePoint(x, y)), tail + 1e-13 * abs(s))


def verify_h_normalization() -> IdentityReport:
    """The lattice sum carries the 1/(2 pi) normalization; see the report."""
    return _h_normalization_report()


def verify_h_bounds(pt: PlanePoint) -> IdentityReport:
    """Two-sided elementary bounds: y/(2 pi (y+2)) <= h <= (y+2)/(2 pi y).

    The extremes of h over x are tanh(y/2)/(2 pi) at cos x = -1 and
    coth(y/2)/(2 pi) at cos x = 1, and t/(t+1) <= tanh t <= coth t <= (t+1)/t
    at t = y/2 gives the displayed constants.  A lower bound with y + 1 in
    the denominator would fail for small y (e.g. at x = 2.5, y = 0.2); see
    h_lower_bound_correction in the suite.
    """
    h = h_func(pt)
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
    h = h_func(pt)
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
        pn0 = poisson_p(n, PlanePoint(0.0, y0))
        ratios.append(green_G(pt, 0.0, y0) / pn0)
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
        pn = y / (_PI * ((x - _TWO_PI * n) ** 2 + y * y))
        if k == 3:
            return _TWO_PI * pn * (-p0y) * np.sin(x)
        if k == 4:
            return _TWO_PI * pn * p0x
        return _TWO_PI * pn * p0x * np.cos(x)
    return f


def quad_I(k: int, n: int, y: float, tol: float = 1e-10) -> QuadResult:
    """The I_k x-integral by adaptive quadrature of its defining integrand."""
    if n == 0:
        raise ValueError("n must be nonzero")
    return _integrate_line(_I_integrand(k, n, y), [0.0, _TWO_PI * n], tol)


def _int6_combined_integrand(n: int, y: float):
    """h^-1 (H grad p_0 . grad p_n) + 2 p_n (H grad p_0 . grad h^-1) at height y."""
    def f(x):
        x = np.asarray(x, dtype=float)
        p0x, p0y = grad_poisson(0, x, y)
        pnx, pny = grad_poisson(n, x, y)
        pn = y / (_PI * ((x - _TWO_PI * n) ** 2 + y * y))
        hinv = _h_inv(x, y)
        gx, gy = grad_h_inv(x, y)
        return hinv * _rot_dot(p0x, p0y, pnx, pny) \
            + 2.0 * pn * _rot_dot(p0x, p0y, gx, gy)
    return f


def _int6_quad(n: int, y: float, rel_tol: float):
    return _integrate_line(_int6_combined_integrand(n, y), [0.0, _TWO_PI * n],
                           rel_tol)


def int6_closed(n: int, y: float, cubed_variant: bool = False) -> float:
    """Closed form of the combined x-integral.

    The second term carries (y^2 + pi^2 n^2) to the first power; the variant
    with the third power (``cubed_variant``) is kept only so the harness can
    demonstrate numerically that it is wrong.
    """
    pn2 = (_PI * n) ** 2
    d = y * y + pn2
    power = 3 if cubed_variant else 1
    return _PI * n * (3.0 * y * y - pn2) / d ** 3 \
        + y * y * float(csch_sq(y)) / (_PI * n * d ** power)


def verify_int6(n: int, y: float, rel_tol: float = 1e-9) -> IdentityReport:
    q = _int6_quad(n, y, rel_tol)
    rhs = int6_closed(n, y)
    tol = max(1e-8 * abs(rhs), 10.0 * q.abs_error_estimate, 1e-14)
    return IdentityReport.make(f"combined_x_integral(n={n},y={y})", q.value, rhs, tol)


def int6_exponent_check(n: int = 1, y: float = 1.0) -> dict:
    """Decide numerically which power the combined integral's second term has."""
    q = _int6_quad(n, y, 1e-10)
    first = int6_closed(n, y, cubed_variant=False)
    third = int6_closed(n, y, cubed_variant=True)
    return {
        "quadrature": q.value,
        "first_power": first,
        "third_power": third,
        "diff_first": abs(q.value - first),
        "diff_third": abs(q.value - third),
        "first_power_is_correct": abs(q.value - first) < abs(q.value - third) * 1e-3,
    }


def verify_int7(n: int, rel_tol: float = 1e-12) -> IdentityReport:
    """integral_0^inf 2y pi n (3y^2 - pi^2 n^2)/(y^2 + pi^2 n^2)^3 dy = 1/(pi n)."""
    if n == 0:
        raise ValueError("n must be nonzero")
    pn2 = (_PI * n) ** 2

    def f(y):
        y = np.asarray(y, dtype=float)
        d = y * y + pn2
        return 2.0 * y * _PI * n * (3.0 * y * y - pn2) / d ** 3

    q = integrate(f, 0.0, math.inf, rel_tol)
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
            pn2 = (_PI * n) ** 2
            d = y * y + pn2
            return 2.0 * y * (_PI * n * (3.0 * y * y - pn2) / d ** 3
                              + y * y * csch_sq(y) / (_PI * n * d))
        q = integrate(outer, 0.0, math.inf, 1e-10)

    rhs = j_kernel(n)
    tolerance = max(tol * abs(rhs), 10.0 * q.abs_error_estimate)
    tag = "naive" if naive_inner else "closed-inner"
    return IdentityReport.make(f"j_double_integral(n={n},{tag})", q.value, rhs,
                               tolerance)


# -- truncated discrete Hilbert transforms of parametric families ---------------

def _dht_truncated(values_at, n: int, M: int) -> float:
    """(1/pi) sum_{0<|m|<=M} f(n - m)/m with fixed ascending-m pair order.

    ``values_at`` maps an integer array to f values.
    """
    m = np.arange(1, M + 1)
    terms = (values_at(n - m) - values_at(n + m)) / m
    return float(math.fsum(terms)) / _PI


def verify_hp(n: int, y: float, M: int) -> IdentityReport:
    """Truncated transform of the Lorentzian family 1/(y^2 + pi^2 k^2).

    Closed form: pi n coth(y) / (y (y^2 + pi^2 n^2)) - 2 pi n/(y^2 + pi^2 n^2)^2.
    The summands decay like m^-3, giving an O(M^-2) tail.
    """
    if M < 1000:
        raise ValueError("M >= 1e3 required for the tail bound to make sense")
    lhs = _dht_truncated(lambda k: 1.0 / (y * y + (_PI * k.astype(float)) ** 2), n, M)
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
    t, w, _ = gk15_panels(edges[:-1], edges[1:])
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

    def values_at(idx):
        return c[idx - (n - M)]

    lhs = _dht_truncated(values_at, n, M)
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
    w = E.window_range(n - M, n + M)
    errs = E.error_window(max(abs(n - M), abs(n + M)))

    def values_at(idx):
        return w[idx - (n - M)]

    lhs = _dht_truncated(values_at, n, M)
    rhs = f_kernel(n)
    c_tail = e_tail_constant()
    tail = 2.0 * c_tail / (_PI * M * max(M - abs(n) - 1, 1))
    quad_budget = 2.0 * float(np.sum(errs)) / _PI + float(F.error_window(abs(n))[-1])
    return IdentityReport.make(f"dht_e_equals_f(n={n},M={M})", lhs, rhs,
                               tail + quad_budget + 1e-13 * max(abs(rhs), 1e-3))


# -- finite-start conditional kernel (deterministic side of the MC check) -------

def conditional_kernel_quad(n: int, x0: float, y0: float,
                            rel_tol: float = 1e-6) -> QuadResult:
    """Matrix entry (row n, column 0) of the conditioned martingale-transform
    operator for a path started at (x0, y0), by iterated quadrature.

    Weight G(x, y)/p_n(x0, y0) replaces its large-y0 limit 2y; as y0 grows
    this converges to j_kernel(n).
    """
    if not y0 > 0:
        raise ValueError("y0 > 0 required")
    pn0 = poisson_p(n, PlanePoint(x0, y0))

    def inner(y: float) -> float:
        def f(x):
            x = np.asarray(x, dtype=float)
            p0x, p0y = grad_poisson(0, x, y)
            pnx, pny = grad_poisson(n, x, y)
            pn = y / (_PI * ((x - _TWO_PI * n) ** 2 + y * y))
            p0 = y / (_PI * (x * x + y * y))
            hinv = _h_inv(x, y)
            gx, gy = grad_h_inv(x, y)
            dx2 = (x - x0) ** 2
            G = np.log((dx2 + (y + y0) ** 2) / (dx2 + (y - y0) ** 2)) / _TWO_PI
            core = hinv * _rot_dot(p0x, p0y, pnx, pny) \
                + pn * _rot_dot(p0x, p0y, gx, gy) \
                - p0 * _rot_dot(pnx, pny, gx, gy)
            return G / pn0 * core
        breaks = sorted({0.0, _TWO_PI * n, x0})
        return _integrate_line(f, breaks, max(rel_tol * 0.1, 2e-9),
                               max_evals=400_000).value

    def outer(ys):
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        return np.array([inner(y) for y in ys])

    return integrate(outer, 0.0, math.inf, rel_tol, points=(y0,),
                     max_evals=3_000_000)


# -- suite runner ----------------------------------------------------------------

def run_section3_suite(profile: str = "default") -> list[IdentityReport]:
    """Run the full deterministic identity suite and return all reports."""
    if profile != "default":
        raise ValueError(f"unknown tolerance profile {profile!r}")
    reports: list[IdentityReport] = []

    for (x, y) in [(0.0, 1.0), (1.7, 0.4), (-2.0, 3.0)]:
        reports.append(verify_poisson_sum(PlanePoint(x, y), 1000))
    reports.append(_h_normalization_report())
    for (x, y) in [(0.3, 2.0), (2.5, 0.2), (0.0, 7.0)]:
        reports.append(verify_h_bounds(PlanePoint(x, y)))
    reports.append(h_lower_bound_correction())
    reports.append(verify_green_limit(PlanePoint(1.0, 1.0), 1,
                                      [8 * _PI, 16 * _PI, 100.0, 1e4]))

    for k in range(1, 6):
        for n in (1, 2, -3):
            for y in (0.5, 1.0, 2.0):
                q = quad_I(k, n, y, 1e-10)
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


def _h_normalization_report() -> IdentityReport:
    """The lattice sum carries the 1/(2 pi) factor: check at (pi, 1) where the
    two normalizations differ by 2 pi."""
    pt = PlanePoint(_PI, 1.0)
    N = 4000
    x, y = pt.x, pt.y
    ks = np.arange(1, N + 1)
    s = poisson_p(0, pt) + math.fsum(
        y / (_PI * ((x - _TWO_PI * ks) ** 2 + y * y))
        + y / (_PI * ((x + _TWO_PI * ks) ** 2 + y * y)))
    with_factor = h_func(pt)
    without_factor = _TWO_PI * with_factor
    tol = y / (_PI ** 3 * (2 * N - 1)) + 1e-12
    ok = bool(abs(s - with_factor) <= tol
              and abs(s - without_factor) > 1000 * tol)
    return IdentityReport("h_sum_normalization(pi,1)", float(s),
                          float(with_factor), float(abs(s - with_factor)),
                          float(tol), ok)
