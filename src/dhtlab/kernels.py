"""Closed-form evaluation of all the convolution kernels used in the project.

Five transform kernels (classic, half-shifted, odd-only, symmetrised, and the
conditional-expectation kernel J) plus the auxiliary kernels F and E that tie
J back to the classic one.  J, F and E are quadrature-backed; everything else
is a rational closed form.

J, F and E are evaluated once per |n| and mirrored by parity, so K_-n equals
+-K_n bit for bit, and each value comes with its error bar from the same
evaluation.  Two evaluators share the work:

* |n| < _N0: a table, filled once per process (lazily, on first use) from a
  fixed composite Gauss-Kronrod grid in one fixed batch, each outer sum
  taken exactly.  An entry's bits never depend on which window asked for
  it.  Its bar is the grid's K15 - G7 discrepancy (outer rule, plus the
  cumulative inner rule for E) plus 4 eps |v| for rounding: an estimate,
  not a bound, checked against an mpmath oracle in the tests.
* |n| >= _N0: a moment series in 1/a^2, a = pi |n|.  Expanding
  1/(t^2 + a^2) = sum_{k<K} (-t^2)^k / a^(2k+2) + (-t^2/a^2)^K / (t^2 + a^2)
  turns each integral into finitely many moments of a positive weight: the
  J/F moments m_k = 2^(-2k-1) (2k+3)! zeta(2k+3) in closed form, the E
  moments M_k once on the grid.  Its bar is the moments' own errors, plus the
  remainder M_K / a^(2K+2), which is a rigorous bound, plus 4 eps |v|.

Importing this module loads no scipy: the zeta values are literals, and
``scipy.special.shichi`` is imported only when E_0 is first evaluated.  A J,
F or closed-form dump therefore never pays for the scipy import.
"""

from __future__ import annotations

import math
import threading
from functools import cached_property

import numpy as np

from dhtlab.numerics import csch_cu, csch_sq, gk15_panels

__all__ = [
    "Kernel",
    "HILBERT", "RT", "KAK", "ADP", "J", "F", "E",
    "KERNELS",
    "hilbert_kernel", "rt_kernel", "kak_kernel", "adp_kernel",
    "j_kernel", "f_kernel", "e_kernel",
    "sinh_minus_shi", "e_tail_constant",
]

_PI = math.pi
_EPS = np.finfo(float).eps

# Integration range for the exponentially decaying integrands; beyond Y_MAX
# they are below 1e-19 of the total (the slowest, the moment M_K, peaks near
# y = K + 1).
_Y_MAX = 45.0
_PANEL_WIDTH = 0.5

# Table below _N0, series of _K terms from _N0 on.  At n = _N0 the series
# remainder is below 1e-21 of |K_n|, far under one rounding.
_N0 = 32
_K = 8

# zeta(2k + 3) for k = 0.._K, correctly rounded (bit-identical to
# scipy.special.zeta; pinned against both in the tests).
_ZETA_ODD = (
    1.2020569031595942, 1.03692775514337, 1.008349277381923,
    1.0020083928260821, 1.0004941886041194, 1.0001227133475785,
    1.000030588236307, 1.0000076371976379, 1.0000019082127165,
)


def sinh_minus_shi(y):
    """sinh(y) - integral_0^y sinh(t)/t dt, stable for all y >= 0.

    Below y = 1 the direct difference cancels catastrophically, so a power
    series is used; the terms are 2k y^(2k+1) / ((2k+1) (2k+1)!).  Above
    y = 350 the quantity under its 2y/sinh^3 envelope is below 1e-290 and is
    treated as zero by callers.
    """
    from scipy.special import shichi  # only E_0 needs it; keeps scipy off J/F dumps

    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.empty_like(y)
    small = y < 1.0
    ys = y[small]
    acc = np.zeros_like(ys)
    term = ys.copy()
    for k in range(1, 12):
        term = term * ys * ys / ((2 * k) * (2 * k + 1))
        acc += term * (2 * k) / (2 * k + 1)
    out[small] = acc
    yl = np.clip(y[~small], None, 700.0)
    shi, _ = shichi(yl)
    out[~small] = np.sinh(yl) - shi
    return out


class _ExpGrid:
    """Fixed composite G7/K15 grid on (0, Y_MAX] with cumulative inner rule.

    Outer nodes carry the exponentially decaying envelopes; the inner rule
    integrates a function of t cumulatively between consecutive outer nodes,
    which gives the inner antiderivative at every outer node in one
    vectorized pass per row.
    """

    def __init__(self):
        n_panels = int(round(_Y_MAX / _PANEL_WIDTH))
        edges = np.linspace(0.0, _Y_MAX, n_panels + 1)
        self.n_panels = n_panels
        self.y, self.wk, self.wg = gk15_panels(edges[:-1], edges[1:])
        # inner segments between consecutive outer nodes (first starts at 0)
        seg_lo = np.concatenate([[0.0], self.y[:-1]])
        self.t_flat, self.inner_wk, self.inner_wg = gk15_panels(seg_lo, self.y)
        self.t_sinh_t = self.t_flat * np.sinh(self.t_flat)

        # envelopes at the outer nodes
        self.env_j = 2.0 * self.y ** 3 * csch_sq(self.y)       # for J and F
        self.env_e = 2.0 * self.y * csch_cu(self.y)            # for E

        self.n_nodes = len(self.y)

    def _outer_sums(self, integrand_rows: np.ndarray):
        """K15 value, and summed |K15 - G7| panel discrepancies, per row.

        The value is summed exactly (``math.fsum``): a BLAS dot product over
        the 1350 nodes rounds by several ulps, more than the discrepancy.
        """
        terms = integrand_rows * self.wk
        vk = np.array([math.fsum(row) for row in terms])
        shape = (len(integrand_rows), self.n_panels, 15)
        pk = terms.reshape(shape).sum(axis=2)
        pg = (integrand_rows * self.wg).reshape(shape).sum(axis=2)
        return vk, np.abs(pk - pg).sum(axis=1)

    def _nested(self, inner_rows: np.ndarray):
        """integral_0^inf env_e(y) integral_0^y g(t) dt dy for each row of g
        on the inner nodes, with error estimates."""
        shape = (len(inner_rows), self.n_nodes, 15)
        inc_k = (inner_rows * self.inner_wk).reshape(shape).sum(axis=2)
        inc_g = (inner_rows * self.inner_wg).reshape(shape).sum(axis=2)
        inner = np.cumsum(inc_k, axis=1)
        inner_err = np.cumsum(np.abs(inc_k - inc_g), axis=1)
        vk, err = self._outer_sums(self.env_e[None, :] * inner)
        err_inner = (np.abs(self.env_e * self.wk)[None, :] * inner_err).sum(axis=1)
        return vk, err + err_inner

    def j_integral(self, ns: np.ndarray):
        """integral_0^inf 2 y^3 / ((y^2 + pi^2 n^2) sinh^2 y) dy for each |n| >= 1."""
        a2 = (_PI * ns.astype(float)) ** 2
        rows = self.env_j[None, :] / (self.y[None, :] ** 2 + a2[:, None])
        vk, err = self._outer_sums(rows)
        return vk, err + 1e-30

    def e_values(self, ns: np.ndarray):
        """E_n for each n >= 1 (even in n), with error estimates."""
        a2 = (_PI * ns.astype(float)) ** 2
        vk, err = self._nested(self.t_sinh_t[None, :] / (self.t_flat[None, :] ** 2 + a2[:, None]))
        return -vk, err

    @cached_property
    def bracket0(self) -> np.ndarray:
        """sinh_minus_shi on the outer nodes, for E at n = 0 only."""
        return sinh_minus_shi(self.y)

    def e_zero(self):
        vk, err = self._outer_sums((self.env_e * self.bracket0)[None, :])
        return vk[0], err[0]

    def e_moments(self, count: int):
        """M_k = integral_0^inf 2y csch^3 y integral_0^y t^(2k+1) sinh t dt dy
        for k < count, with error estimates."""
        powers = self.t_flat[None, :] ** (2 * np.arange(count)[:, None])
        return self._nested(powers * self.t_sinh_t[None, :])


def _moment_series(ms: np.ndarray, mom: np.ndarray, mom_err: np.ndarray):
    """sum_{k<K} (-1)^k mom_k / a^(2k+2) for a = pi m, and its bar
    sum_{k<K} err_k / a^(2k+2) + mom_K / a^(2K+2).

    The moments are those of a positive weight against t^(2k), so the series
    remainder of 1/(t^2 + a^2) integrates to at most mom_K / a^(2K+2).  The
    Horner steps are elementwise, so an entry's bits depend on m alone.
    """
    u = 1.0 / (_PI ** 2 * ms.astype(float) ** 2)
    val = np.zeros(len(ms))
    bar = np.full(len(ms), mom[_K])
    for k in reversed(range(_K)):
        val = mom[k] - u * val
        bar = mom_err[k] + u * bar
    return u * val, u * bar


class _Evaluators:
    """The small-|n| tables and the large-|n| series moments of J/F and of E,
    each built on first use (a J dump never builds E's)."""

    @cached_property
    def grid(self) -> _ExpGrid:
        return _ExpGrid()

    @cached_property
    def f_table(self):
        """integral_0^inf 2 y^3 / ((y^2 + pi^2 m^2) sinh^2 y) dy for 0 < m < N0."""
        v, err = self.grid.j_integral(np.arange(1, _N0))
        return np.concatenate([[math.nan], v]), np.concatenate([[math.nan], err])

    @cached_property
    def f_moments(self):
        """m_k = integral_0^inf 2 y^(2k+3) csch^2 y dy = 2^(-2k-1) (2k+3)! zeta(2k+3)
        for k <= K.  The factorials are exact in floating point, so the error
        is the rounding of zeta and of one product (measured < 0.4 eps;
        ``test_zeta_literals_and_moments`` in ``tests/test_kernels.py`` pins
        both the literals and that bound)."""
        k = range(_K + 1)
        fact = np.array([math.ldexp(math.factorial(2 * i + 3), -2 * i - 1) for i in k])
        m = fact * np.array(_ZETA_ODD)
        return m, _EPS * m

    @cached_property
    def e_table(self):
        """E_m for 0 <= m < N0."""
        v, err = self.grid.e_values(np.arange(1, _N0))
        e0, e0_err = self.grid.e_zero()
        return np.concatenate([[e0], v]), np.concatenate([[e0_err], err])

    @cached_property
    def e_moments(self):
        """M_k for k <= K, on the grid."""
        return self.grid.e_moments(_K + 1)

    def f_integral(self, ms: np.ndarray):
        """The J/F integral for each m >= 1, with its bar (rounding not included)."""
        return _table_or_series(ms, self.f_table, self.f_moments)

    def e_values(self, ms: np.ndarray):
        """E_m for each m >= 0, with its bar (rounding not included)."""
        vals, errs = _table_or_series(ms, self.e_table, self.e_moments)
        big = ms >= _N0
        vals[big] = -vals[big]     # E_n = -sum_k (-1)^k M_k / a^(2k+2)
        return vals, errs


def _table_or_series(ms, table, moments):
    vals = np.empty(len(ms))
    errs = np.empty(len(ms))
    small = ms < _N0
    vals[small] = table[0][ms[small]]
    errs[small] = table[1][ms[small]]
    vals[~small], errs[~small] = _moment_series(ms[~small], *moments)
    return vals, errs


_EVALUATORS = _Evaluators()


class Kernel:
    """A doubly-infinite kernel given by a closed-form (possibly quadrature
    backed) generator, with parity and tail-decay metadata and a cached window.

    The cache fill is idempotent (each entry recomputes to the same bits), so
    concurrent readers are safe.
    """

    def __init__(self, name: str, batch_fn, parity: str, tail_exponent: float,
                 cache_radius: int = 4096):
        if parity not in ("odd", "even", "none"):
            raise ValueError(f"bad parity {parity!r}")
        self.name = name
        self.parity = parity
        self.tail_exponent = tail_exponent
        self.cache_radius = cache_radius
        self._batch_fn = batch_fn
        self._vals = None
        self._errs = None
        self._lock = threading.Lock()

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, ns):
        """Values and error bars at the indices ``ns``, bypassing the cache."""
        vals, errs = self._batch_fn(np.asarray(ns, dtype=np.int64))
        return np.asarray(vals, dtype=float), np.asarray(errs, dtype=float)

    def _ensure_cache(self):
        if self._vals is None:
            with self._lock:
                if self._vals is None:
                    size = 2 * self.cache_radius + 1
                    self._errs = np.full(size, np.nan)
                    vals = np.full(size, np.nan)
                    self._vals = vals

    def _fill(self, lo: int, hi: int):
        """Fill cache entries for n in [lo, hi] (clipped to the cache)."""
        self._ensure_cache()
        lo = max(lo, -self.cache_radius)
        hi = min(hi, self.cache_radius)
        if lo > hi:
            return
        c = self.cache_radius
        missing = np.isnan(self._vals[lo + c: hi + 1 + c])
        if missing.any():
            ns = np.flatnonzero(missing) + lo
            vals, errs = self.evaluate(ns)
            self._vals[ns + c] = vals
            self._errs[ns + c] = errs

    def value(self, n: int) -> float:
        n = int(n)
        if abs(n) <= self.cache_radius:
            self._fill(n, n)
            return float(self._vals[n + self.cache_radius])
        vals, _ = self.evaluate(np.array([n]))
        return float(vals[0])

    __call__ = value

    def window_range(self, lo: int, hi: int):
        """Values for n = lo..hi inclusive, as a dense array."""
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise ValueError("empty window")
        if -self.cache_radius <= lo and hi <= self.cache_radius:
            self._fill(lo, hi)
            return self._vals[lo + self.cache_radius: hi + 1 + self.cache_radius].copy()
        vals, _ = self.evaluate(np.arange(lo, hi + 1))
        return vals

    def window(self, radius: int):
        """Values for n = -radius..radius."""
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        return self.window_range(-radius, radius)

    def error_window(self, radius: int):
        """Per-entry quadrature error estimates for n = -radius..radius."""
        radius = int(radius)
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        if radius <= self.cache_radius:
            self._fill(-radius, radius)
            c = self.cache_radius
            return self._errs[c - radius: c + radius + 1].copy()
        _, errs = self.evaluate(np.arange(-radius, radius + 1))
        return errs

    def __repr__(self):
        return f"Kernel({self.name!r}, parity={self.parity}, tail={self.tail_exponent})"


# -- closed-form batch generators ---------------------------------------------

def _eps_err(vals):
    return 4.0 * np.finfo(float).eps * np.abs(vals)


def _hilbert_batch(ns):
    vals = np.zeros(len(ns))
    nz = ns != 0
    vals[nz] = 1.0 / (_PI * ns[nz])
    return vals, _eps_err(vals)


def _rt_batch(ns):
    vals = 1.0 / (_PI * (ns + 0.5))
    return vals, _eps_err(vals)


def _kak_batch(ns):
    vals = np.zeros(len(ns))
    odd = (ns % 2) != 0
    vals[odd] = 2.0 / (_PI * ns[odd])
    return vals, _eps_err(vals)


def _adp_batch(ns):
    vals = ns / (_PI * (ns.astype(float) ** 2 - 0.25))
    return vals, _eps_err(vals)


def _j_f_batch(ns, with_hilbert_part):
    # each distinct |n| once, mirrored by parity
    ns = np.asarray(ns, dtype=np.int64)
    ms, inv = np.unique(np.abs(ns), return_inverse=True)
    vals = np.zeros(len(ms))
    errs = np.zeros(len(ms))
    nz = ms != 0
    integral, ierr = _EVALUATORS.f_integral(ms[nz])
    if with_hilbert_part:
        integral = integral + 1.0
    vals[nz] = integral / (_PI * ms[nz])
    errs[nz] = ierr / (_PI * ms[nz]) + _eps_err(vals[nz])
    return np.sign(ns) * vals[inv], errs[inv]


def _j_batch(ns):
    return _j_f_batch(ns, with_hilbert_part=True)


def _f_batch(ns):
    return _j_f_batch(ns, with_hilbert_part=False)


def _e_batch(ns):
    ms, inv = np.unique(np.abs(np.asarray(ns, dtype=np.int64)), return_inverse=True)
    vals, errs = _EVALUATORS.e_values(ms)
    return vals[inv], (errs + _eps_err(vals))[inv]


HILBERT = Kernel("H", _hilbert_batch, parity="odd", tail_exponent=1.0)
RT = Kernel("RT", _rt_batch, parity="none", tail_exponent=1.0)
KAK = Kernel("K", _kak_batch, parity="odd", tail_exponent=1.0)
ADP = Kernel("ADP", _adp_batch, parity="odd", tail_exponent=1.0)
J = Kernel("J", _j_batch, parity="odd", tail_exponent=1.0)
F = Kernel("F", _f_batch, parity="odd", tail_exponent=3.0)
E = Kernel("E", _e_batch, parity="even", tail_exponent=2.0)

KERNELS = {k.name: k for k in (HILBERT, RT, KAK, ADP, J, F, E)}


def hilbert_kernel(n: int) -> float:
    """1/(pi n) for n != 0, zero at n = 0."""
    return HILBERT.value(n)


def rt_kernel(n: int) -> float:
    """1/(pi (n + 1/2)); antisymmetric about -1/2 rather than 0."""
    return RT.value(n)


def kak_kernel(n: int) -> float:
    """2/(pi n) on odd n, zero on even n."""
    return KAK.value(n)


def adp_kernel(n: int) -> float:
    """n / (pi (n^2 - 1/4)), the average of the two half-shifted kernels."""
    return ADP.value(n)


def j_kernel(n: int) -> float:
    """(1/(pi n)) (1 + integral_0^inf 2 y^3 / ((y^2 + pi^2 n^2) sinh^2 y) dy).

    Zero at n = 0; strictly dominates 1/(pi n) for n > 0.
    """
    return J.value(n)


def f_kernel(n: int) -> float:
    """(1/(pi n)) integral_0^inf 2 y^3 / ((y^2 + pi^2 n^2) sinh^2 y) dy; zero at 0.

    Satisfies j_kernel(n) = hilbert_kernel(n) + f_kernel(n) by construction
    (the two share the same quadrature).
    """
    return F.value(n)


def e_kernel(n: int) -> float:
    """Even absolutely-summable kernel with positive mass at 0 and negative
    mass elsewhere, summing to zero; the discrete Hilbert transform maps it
    to the F kernel.

    E_0 integrates 2y/sinh^3(y) (sinh y - int_0^y sinh(t)/t dt); E_n for
    n != 0 integrates -2y/sinh^3(y) int_0^y t sinh t/(t^2 + pi^2 n^2) dt.
    Below |n| = 32 the value comes from the grid table, where the inner
    integrals are accumulated on the shared grid rather than by naive
    nesting; from there on from the moment series.
    """
    return E.value(n)


def e_tail_constant() -> float:
    """Constant c with |E_n| <= c / n^2 for n != 0, used for windowed tail budgets.

    Bounding t sinh t / (t^2 + pi^2 n^2) by t sinh t / (pi^2 n^2) in E_n
    leaves M_0 / (pi^2 n^2), and M_0 = integral_0^inf 2y (y cosh y - sinh y)
    / sinh^3 y dy = 1 exactly: the integrand is -d/dy [y^2 / sinh^2 y].
    So c = 1/pi^2.
    """
    return 1.0 / _PI ** 2
