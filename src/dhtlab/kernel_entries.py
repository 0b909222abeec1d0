"""Kernel entries in plain arithmetic: the one home of every kernel formula.

Each formula is written once, in operations that Python ints and floats and
numpy int64 and float64 arrays share (``m * 1.0`` for a float, ``x * x``
for a square, ``abs``), so one function gives ``dhtlab.kernels``' array
drivers and this module's scalar driver ``window_values`` the same bits.
This module imports no numpy: ``dhtlab kernels`` dumps load nothing else.

The four closed forms are rational in n.  J, F and E are integrals, each
evaluated at m = |n| and mirrored by parity:

* J_n = (1/(pi n)) (1 + integral_0^inf 2 y^3 / ((y^2 + pi^2 n^2) sinh^2 y) dy),
  and F_n is the same without the 1; both are zero at n = 0.
* E_0 integrates 2y/sinh^3(y) (sinh y - int_0^y sinh(t)/t dt); E_n for
  n != 0 integrates -2y/sinh^3(y) int_0^y t sinh t/(t^2 + pi^2 n^2) dt.
  E is even and sums to zero, and the discrete Hilbert transform maps it
  to F.

J = H + F holds within the three entries' bars.  Below |n| = N0, J_n and
F_n are separate correctly rounded literals, so there it does not hold by
construction; from N0 on both come from one series value.

Two sources share the work:

* m < N0: literals, each the double nearest the integral (printed by
  ``scripts/make_kernel_literals.py`` from mpmath at 30 and 40 digits).
* m >= N0: a moment series in 1/a^2, a = pi m.  Expanding
  1/(t^2 + a^2) = sum_{k<K} (-t^2)^k / a^(2k+2) + (-t^2/a^2)^K / (t^2 + a^2)
  turns each integral into finitely many moments of a positive weight: the
  J/F moments m_k = 2^(-2k-1) (2k+3)! zeta(2k+3) in closed form, the E
  moments M_k as correctly rounded literals.  Its bar is the moments' own
  errors, plus the remainder M_K / a^(2K+2), plus 4 eps |v| for the rounding
  of the evaluation: a bound.
"""

from __future__ import annotations

import math
import sys

__all__ = [
    "N0", "PARITY", "CLOSED_FORMS", "LITERALS", "SERIES",
    "rounding_bar", "index", "index_range", "entry", "window_values",
]

_PI = math.pi
_EPS = sys.float_info.epsilon

# Literals below N0, series of _K terms from N0 on.  At n = N0 the series
# remainder is below 1e-21 of |K_n|, far under one rounding.
N0 = 32
_K = 8

# Entries per window: a window of 8-byte entries must have a byte count that
# fits in int64 (numpy's arange returns an empty array near 2^63 entries).
_MAX_ENTRIES = (2 ** 63 - 1) // 8

PARITY = {"H": "odd", "RT": "none", "K": "odd", "ADP": "odd",
          "J": "odd", "F": "odd", "E": "even"}

# zeta(2k + 3) for k = 0.._K, correctly rounded (bit-identical to
# scipy.special.zeta; pinned against both in the tests).
_ZETA_ODD = (
    1.2020569031595942, 1.03692775514337, 1.008349277381923,
    1.0020083928260821, 1.0004941886041194, 1.0001227133475785,
    1.000030588236307, 1.0000076371976379, 1.0000019082127165,
)

# J_n, F_n and E_n for 0 <= n < N0, and M_k for k <= _K, each the double
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

LITERALS = {"J": _J_SMALL, "F": _F_SMALL, "E": _E_SMALL}

# m_k = integral_0^inf 2 y^(2k+3) csch^2 y dy = 2^(-2k-1) (2k+3)! zeta(2k+3).
# The factorials are exact in floating point, so the error is the rounding
# of zeta and of one product (measured < 0.4 eps; ``test_zeta_literals_and_
# moments`` pins both the literals and that bound).  The E moments are
# correctly rounded: half an ulp each.
_J_F_MOMENTS = tuple(math.ldexp(math.factorial(2 * k + 3), -2 * k - 1) * z
                     for k, z in enumerate(_ZETA_ODD))
_J_F_MOMENT_BARS = tuple(_EPS * m for m in _J_F_MOMENTS)
_E_MOMENT_BARS = tuple(0.5 * math.ulp(m) for m in _E_MOMENTS)


def rounding_bar(v):
    """4 eps |v|: the bar of a value computed in a few roundings."""
    return 4.0 * _EPS * abs(v)


# -- closed forms: n an int or an int64 array ------------------------------------

def hilbert(n):
    """1/(pi n)."""
    return 1.0 / (_PI * n)


def rt(n):
    """1/(pi (n + 1/2))."""
    return 1.0 / (_PI * (n + 0.5))


def kak(n):
    """2/(pi n)."""
    return 2.0 / (_PI * n)


def adp(n):
    """n / (pi (n^2 - 1/4))."""
    x = n * 1.0
    return x / (_PI * (x * x - 0.25))


# name -> (formula, where): the formula is evaluated where ``where(n)`` is
# true, or at every n for None, and the entry is 0 elsewhere.  ``where``
# takes an int or an int64 array alike.
CLOSED_FORMS = {
    "H": (hilbert, lambda n: n != 0),
    "RT": (rt, None),
    "K": (kak, lambda n: n % 2 != 0),
    "ADP": (adp, None),
}


# -- moment series: m >= N0, an int or an int64 array ------------------------------

def _moment_series(m, mom, mom_err):
    """sum_{k<K} (-1)^k mom_k / a^(2k+2) for a = pi m, and its bar
    sum_{k<K} err_k / a^(2k+2) + mom_K / a^(2K+2).

    The moments are those of a positive weight against t^(2k), so the series
    remainder of 1/(t^2 + a^2) integrates to at most mom_K / a^(2K+2).  The
    Horner steps are elementwise, so an entry's bits depend on m alone.
    """
    x = m * 1.0
    u = 1.0 / (_PI ** 2 * (x * x))
    val = 0.0
    bar = mom[_K]
    for k in reversed(range(_K)):
        val = mom[k] - u * val
        bar = mom_err[k] + u * bar
    return u * val, u * bar


def _j_f_series(m, hilbert_part):
    integral, bar = _moment_series(m, _J_F_MOMENTS, _J_F_MOMENT_BARS)
    val = (integral + hilbert_part) / (_PI * m)
    return val, bar / (_PI * m) + rounding_bar(val)


def j_series(m):
    """J_m and its bar, (1 + integral) / (pi m), for m >= N0."""
    return _j_f_series(m, 1.0)


def f_series(m):
    """F_m and its bar, integral / (pi m), for m >= N0."""
    return _j_f_series(m, 0.0)


def e_series(m):
    """E_m = -sum_k (-1)^k M_k / a^(2k+2) and its bar, for m >= N0."""
    val, bar = _moment_series(m, _E_MOMENTS, _E_MOMENT_BARS)
    return -val, bar + rounding_bar(val)


SERIES = {"J": j_series, "F": f_series, "E": e_series}


# -- indices and the scalar driver ---------------------------------------------------

def index(n) -> int:
    """``n`` as an int.  ValueError unless it is integral with |n| and n + 1
    in int64, so that neither ``abs`` nor ``hi + 1`` can wrap in numpy."""
    if not 1 - 2 ** 63 <= n < 2 ** 63 - 1 or n != int(n):
        raise ValueError(f"kernel index {n!r} is not an integer in [-2^63 + 1, 2^63 - 2]")
    return int(n)


def index_range(lo, hi) -> tuple[int, int]:
    """``(lo, hi)`` as ints, for a window of n = lo..hi.  ValueError unless
    both are indices, lo <= hi, and the window's bytes can be counted in
    int64 (at most 2^60 - 1 entries)."""
    lo, hi = index(lo), index(hi)
    if lo > hi:
        raise ValueError("empty window")
    if hi - lo >= _MAX_ENTRIES:
        raise ValueError(f"window [{lo}, {hi}] has {hi - lo + 1} entries, "
                         f"more than the 2^60 - 1 an array can hold")
    return lo, hi


def entry(name: str, n) -> float:
    """K_n as a float, with the bits of ``dhtlab.kernels.KERNELS[name].value(n)``.

    A closed form is evaluated at n itself; J, F and E read the literal or
    the series at |n| and take the sign of n if odd.
    """
    n = index(n)
    if name in CLOSED_FORMS:
        formula, where = CLOSED_FORMS[name]
        return formula(n) if where is None or where(n) else 0.0
    m = abs(n)
    v = LITERALS[name][m] if m < N0 else SERIES[name](m)[0]
    return -v if n < 0 and PARITY[name] == "odd" else v


def window_values(name: str, radius: int) -> list[float]:
    """K_n for n = -radius..radius as floats, with the bits of
    ``dhtlab.kernels.KERNELS[name].window(radius)``, raising what it raises.

    J, F and E are evaluated once per |n| and mirrored.  A closed form is
    evaluated at each n: mirroring would turn K's zeros at even n into -0.0.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    lo, hi = index_range(-radius, radius)
    # every row up front: a radius too large to hold fails here, before any work
    vals = [0.0] * (hi - lo + 1)
    if name in CLOSED_FORMS:
        for i in range(len(vals)):
            vals[i] = entry(name, lo + i)
        return vals
    sign = 1.0 if PARITY[name] == "even" else -1.0
    for m in range(radius + 1):
        vals[radius + m] = v = entry(name, m)
        if m:
            vals[radius - m] = sign * v
    return vals
