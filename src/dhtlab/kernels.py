"""Closed-form evaluation of all the convolution kernels used in the project.

Five transform kernels (classic, half-shifted, odd-only, symmetrised, and the
conditional-expectation kernel J) plus the auxiliary kernels F and E that tie
J back to the classic one.  J, F and E are integrals; everything else is a
rational closed form.

J, F and E are evaluated once per |n| and mirrored by parity, so K_-n equals
+-K_n bit for bit, and each value comes with its error bar.  Two sources
share the work:

* |n| < _N0: literals, each the double nearest the integral (printed by
  ``scripts/make_kernel_literals.py`` from mpmath at 30 and 40 digits).  No
  arithmetic follows, so the bar is half an ulp.
* |n| >= _N0: a moment series in 1/a^2, a = pi |n|.  Expanding
  1/(t^2 + a^2) = sum_{k<K} (-t^2)^k / a^(2k+2) + (-t^2/a^2)^K / (t^2 + a^2)
  turns each integral into finitely many moments of a positive weight: the
  J/F moments m_k = 2^(-2k-1) (2k+3)! zeta(2k+3) in closed form, the E
  moments M_k as correctly rounded literals.  Its bar is the moments' own
  errors, plus the remainder M_K / a^(2K+2), plus 4 eps |v| for the rounding
  of the evaluation: a bound.

A ``Kernel`` keeps no cache: every read evaluates, at any radius, and an
index outside int64 raises.  ``Kernel.read`` returns the values and bars of
one evaluation as a ``KernelWindow``, a frozen value that its reader owns.
No quadrature runs at import or evaluation time, and importing this module
loads numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Kernel",
    "KernelWindow",
    "HILBERT", "RT", "KAK", "ADP", "J", "F", "E",
    "KERNELS",
    "hilbert_kernel", "rt_kernel", "kak_kernel", "adp_kernel",
    "j_kernel", "f_kernel", "e_kernel",
    "e_tail_constant",
]

_PI = math.pi
_EPS = np.finfo(float).eps

# Literals below _N0, series of _K terms from _N0 on.  At n = _N0 the series
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

# J_n, F_n and E_n for 0 <= n < _N0, and M_k for k <= _K, each the double
# nearest its integral.  Printed by scripts/make_kernel_literals.py, whose
# --check compares this block with its own output.
_J_SMALL = (
    0.0, 0.40597362123696934, 0.17239927002243752, 0.11022197906893227,
    0.08134799186034379, 0.06457677804283223, 0.05358373734618431,
    0.045808958655374016, 0.04001436636542088, 0.03552645496948188,
    0.03194679005748521, 0.02902433076785552, 0.026592926904985218,
    0.02453817768632498, 0.022778711467977306, 0.021255053056270255,
    0.019922714271846855, 0.018747748097143975, 0.01770379823190983,
    0.016770087922283437, 0.015930016534147762, 0.015170159741091187,
    0.014479544014079502, 0.013849111402721551, 0.01327131878603691,
    0.012739833741789774, 0.012249300894779666, 0.01179516038940251,
    0.011373505400988696, 0.010980969226198064, 0.010614635025744194,
    0.010271963087142443,
)
_F_SMALL = (
    0.0, 0.08766373505317866, 0.013244326930542184, 0.004118683674335385,
    0.0017705203143961192, 0.0009148008060740963, 0.0005320896488858622,
    0.00033611777197535173, 0.00022563059244704072, 0.0001586898379495837,
    0.00011580143910614306, 8.706838751091454e-05, 6.71030563359956e-05,
    5.280182603339168e-05, 4.2291026277974045e-05, 3.439397735087619e-05,
    2.8346385359937072e-05, 2.3637145156289214e-05, 1.991566614368165e-05,
    1.6936017873401342e-05, 1.4522224958230154e-05, 1.2546113291631474e-05,
    1.0912823907198214e-05, 9.551133861088e-06, 8.406861712297797e-06,
    7.43829443814844e-06, 6.612964633871624e-06, 5.90534555841032e-06,
    5.295180139029514e-06, 4.76625434321311e-06, 4.305486284504925e-06,
    3.902242504034837e-06,
)
_E_SMALL = (
    0.29774140087413603, -0.08531230446170698, -0.024003775385826227,
    -0.010975463027781818, -0.006240512774001264, -0.004014587053128929,
    -0.002795875493352505, -0.002057688205432491, -0.0015772088895727144,
    -0.00124716546859714, -0.0010107715428219082, -0.0008356963835611447,
    -0.000702439979820946, -0.000598676776201351, -0.0005163074072710002,
    -0.00044983246146736866, -0.00039541192281838597, -0.00035029881265781525,
    -0.0003124861120437978, -0.0002804798951751345, -0.00025314963690126294,
    -0.00022962709162286496, -0.00020923653528390673, -0.000191445728197001,
    -0.0001758308526791882, -0.0001620510530911463, -0.00014982968664200625,
    -0.00013894033721037157, -0.0001291962580294319, -0.0001204423152045301,
    -0.0001125487773083331, -0.00010540648300947389,
)
_E_MOMENTS = (
    1.0, 2.393829290521217, 16.768753156123246, 227.84259899421775,
    5041.891952935906, 164602.97392770636, 7432600.245511816,
    443414341.0877466, 33770286578.800266,
)


def _half_ulp(vals):
    """Half the spacing of doubles at each |v|: the bar of a correctly
    rounded value (0 at the exact zeros J_0 = F_0 = 0)."""
    return 0.5 * np.spacing(np.abs(vals))


def _moment_series(ms: np.ndarray, mom, mom_err):
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


def _j_f_moments():
    """m_k = integral_0^inf 2 y^(2k+3) csch^2 y dy = 2^(-2k-1) (2k+3)! zeta(2k+3)
    for k <= K.  The factorials are exact in floating point, so the error
    is the rounding of zeta and of one product (measured < 0.4 eps;
    ``test_zeta_literals_and_moments`` in ``tests/test_kernels.py`` pins
    both the literals and that bound)."""
    k = range(_K + 1)
    fact = np.array([math.ldexp(math.factorial(2 * i + 3), -2 * i - 1) for i in k])
    m = fact * np.array(_ZETA_ODD)
    return m, _EPS * m


_J_F_MOMENTS = _j_f_moments()
_E_MOMENT_BARS = _half_ulp(np.array(_E_MOMENTS))


def _literal_or_series(ns, literals, series):
    """Values and bars at m = |n|: literals[m] with its half-ulp bar for
    m < N0, series(ms) from N0 on, each distinct m evaluated once.

    When the m span no more values than there are indices, as in every
    window read, that whole range is evaluated and gathered from without a
    sort; sparse index sets (``[1, 2**62]``) go through ``np.unique``.  An
    entry's bits depend on its m alone, so both give the same values.
    """
    m = np.abs(ns)
    if m.size and (hi := int(m.max())) - (lo := int(m.min())) < m.size:
        ms, inv = lo + np.arange(hi - lo + 1), m - lo      # hi + 1 may pass int64
    else:
        ms, inv = np.unique(m, return_inverse=True)
    vals = np.empty(len(ms))
    errs = np.empty(len(ms))
    small = ms < _N0
    vals[small] = np.asarray(literals)[ms[small]]
    errs[small] = _half_ulp(vals[small])
    vals[~small], errs[~small] = series(ms[~small])
    return vals[inv], errs[inv]


def _index(n) -> int:
    """``n`` as an int.  ValueError unless it is integral with |n| and n + 1
    in int64, so that neither ``np.abs`` nor ``hi + 1`` can wrap."""
    if not 1 - 2 ** 63 <= n < 2 ** 63 - 1 or n != int(n):
        raise ValueError(f"kernel index {n!r} is not an integer in [-2^63 + 1, 2^63 - 2]")
    return int(n)


@dataclass(frozen=True, eq=False)
class KernelWindow:
    """A kernel's values and error bars for n = lo..hi from one
    ``Kernel.read``: both arrays are taken (not copied) and made read-only,
    and ``window_range`` answers with views of them."""

    lo: int
    values: np.ndarray
    bars: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)
        self.bars.setflags(write=False)

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def window_range(self, lo: int, hi: int) -> np.ndarray:
        """Values for n = lo..hi inclusive, a view; ValueError outside the window."""
        if not self.lo <= lo <= hi <= self.hi:
            raise ValueError(f"range [{lo}, {hi}] outside the window "
                             f"[{self.lo}, {self.hi}]")
        return self.values[lo - self.lo: hi + 1 - self.lo]


class Kernel:
    """A doubly-infinite kernel given by a batch generator (a closed form, or
    literals and a series) and its parity.

    It keeps no state: every read is one generator call on the indices read.
    An entry's bits depend on its index alone, the same in any window, and
    concurrent readers are safe.  ``read`` returns a ``KernelWindow``; the
    other reads return fresh writable arrays.
    """

    # Not read by dhtlab; the benchmark harness splits its entry counts here.
    cache_radius = 4096

    def __init__(self, name: str, batch_fn, parity: str):
        if parity not in ("odd", "even", "none"):
            raise ValueError(f"bad parity {parity!r}")
        self.name = name
        self.parity = parity
        self._batch_fn = batch_fn

    def evaluate(self, ns):
        """Values and error bars at the indices ``ns``."""
        vals, errs = self._batch_fn(np.asarray(ns, dtype=np.int64))
        return np.asarray(vals, dtype=float), np.asarray(errs, dtype=float)

    def _read(self, lo, hi):
        lo, hi = _index(lo), _index(hi)
        if lo > hi:
            raise ValueError("empty window")
        return self.evaluate(np.arange(lo, hi + 1))

    def read(self, lo: int, hi: int) -> KernelWindow:
        """Values and bars for n = lo..hi inclusive, from one evaluation."""
        return KernelWindow(_index(lo), *self._read(lo, hi))

    def value(self, n: int) -> float:
        return float(self._read(n, n)[0][0])

    __call__ = value

    def window_range(self, lo: int, hi: int):
        """Values for n = lo..hi inclusive, as a dense array."""
        return self._read(lo, hi)[0]

    def window(self, radius: int):
        """Values for n = -radius..radius."""
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        return self.window_range(-radius, radius)

    def error_window(self, radius: int):
        """Per-entry error bars for n = -radius..radius."""
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        return self._read(-radius, radius)[1]

    def __repr__(self):
        return f"Kernel({self.name!r}, parity={self.parity})"


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

    def series(big):
        integral, ierr = _moment_series(big, *_J_F_MOMENTS)
        if with_hilbert_part:
            integral = integral + 1.0
        vals = integral / (_PI * big)
        return vals, ierr / (_PI * big) + _eps_err(vals)

    literals = _J_SMALL if with_hilbert_part else _F_SMALL
    vals, errs = _literal_or_series(ns, literals, series)
    return np.sign(ns) * vals, errs


def _j_batch(ns):
    return _j_f_batch(ns, with_hilbert_part=True)


def _f_batch(ns):
    return _j_f_batch(ns, with_hilbert_part=False)


def _e_batch(ns):
    def series(big):
        # E_n = -sum_k (-1)^k M_k / a^(2k+2)
        vals, bar = _moment_series(big, _E_MOMENTS, _E_MOMENT_BARS)
        return -vals, bar + _eps_err(vals)

    return _literal_or_series(np.asarray(ns, dtype=np.int64), _E_SMALL, series)


HILBERT = Kernel("H", _hilbert_batch, parity="odd")
RT = Kernel("RT", _rt_batch, parity="none")
KAK = Kernel("K", _kak_batch, parity="odd")
ADP = Kernel("ADP", _adp_batch, parity="odd")
J = Kernel("J", _j_batch, parity="odd")
F = Kernel("F", _f_batch, parity="odd")
E = Kernel("E", _e_batch, parity="even")

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

    Satisfies j_kernel(n) = hilbert_kernel(n) + f_kernel(n) within the three
    entries' bars.  Below |n| = 32 J_n and F_n are separate correctly rounded
    literals, not one quadrature, so the identity does not hold there by
    construction; from there on both come from one series value.
    """
    return F.value(n)


def e_kernel(n: int) -> float:
    """Even absolutely-summable kernel with positive mass at 0 and negative
    mass elsewhere, summing to zero; the discrete Hilbert transform maps it
    to the F kernel.

    E_0 integrates 2y/sinh^3(y) (sinh y - int_0^y sinh(t)/t dt); E_n for
    n != 0 integrates -2y/sinh^3(y) int_0^y t sinh t/(t^2 + pi^2 n^2) dt.
    Below |n| = 32 the value is a correctly rounded literal; from there on
    it comes from the moment series.
    """
    return E.value(n)


def e_tail_constant() -> float:
    """Constant c with |E_n| <= c / n^2 for n != 0, used for windowed tail budgets.

    Bounding t sinh t / (t^2 + pi^2 n^2) by t sinh t / (pi^2 n^2) in E_n
    leaves M_0 / (pi^2 n^2), and M_0 = integral_0^inf 2y (y cosh y - sinh y)
    / sinh^3 y dy = 1 exactly: the integrand is -d/dy [y^2 / sinh^2 y].
    So c = 1/pi^2, and the M_0 literal of the E series is exactly 1.0.
    """
    return 1.0 / _PI ** 2
