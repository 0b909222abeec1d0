"""The convolution kernels used in the project, as array evaluators.

Five transform kernels (classic, half-shifted, odd-only, symmetrised, and the
conditional-expectation kernel J) plus the auxiliary kernels F and E that tie
J back to the classic one.  J, F and E are integrals; everything else is a
rational closed form.  Every entry formula, literal table and moment lives in
``dhtlab.kernel_entries``; this module evaluates them on int64 arrays and
attaches the bars.

J, F and E are evaluated at |n| and mirrored by parity, so K_-n equals
+-K_n bit for bit, and each value comes with its error bar: half an ulp for
the literals below |n| = N0, whose value is the double nearest the integral,
and the series' own bound from N0 on.

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

from dhtlab.kernel_entries import (
    CLOSED_FORMS, LITERALS, N0, PARITY, SERIES, index, index_range,
    rounding_bar,
)

__all__ = [
    "Kernel",
    "KernelWindow",
    "HILBERT", "RT", "KAK", "ADP", "J", "F", "E",
    "KERNELS",
    "e_tail_constant",
]


def _half_ulp(vals):
    """Half the spacing of doubles at each |v|: the bar of a correctly
    rounded value (0 at the exact zeros J_0 = F_0 = 0)."""
    return 0.5 * np.spacing(np.abs(vals))


def _literal_or_series(ns, literals, series):
    """Values and bars at m = |n|: literals[m] with its half-ulp bar for
    m < N0, series(m) from N0 on.  An entry's bits depend on its m alone."""
    m = np.abs(ns)
    vals = np.empty(len(m))
    errs = np.empty(len(m))
    small = m < N0
    vals[small] = np.asarray(literals)[m[small]]
    errs[small] = _half_ulp(vals[small])
    vals[~small], errs[~small] = series(m[~small])
    return vals, errs


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
    """A doubly-infinite kernel: a name and a batch generator (a closed form,
    or literals and a series).  The parities and formulas of the seven
    kernels in ``KERNELS`` live in ``dhtlab.kernel_entries``.

    It keeps no state: every read is one generator call on the indices read.
    An entry's bits depend on its index alone, the same in any window, and
    concurrent readers are safe.  ``read`` returns a ``KernelWindow``; the
    other reads return fresh writable arrays.
    """

    # Not read by dhtlab; the benchmark harness splits its entry counts here.
    cache_radius = 4096

    def __init__(self, name: str, batch_fn):
        self.name = name
        self._batch_fn = batch_fn

    def evaluate(self, ns):
        """Values and error bars at the indices ``ns``."""
        vals, errs = self._batch_fn(np.asarray(ns, dtype=np.int64))
        return np.asarray(vals, dtype=float), np.asarray(errs, dtype=float)

    def _read(self, lo, hi):
        lo, hi = index_range(lo, hi)
        return self.evaluate(np.arange(lo, hi + 1))

    def read(self, lo: int, hi: int) -> KernelWindow:
        """Values and bars for n = lo..hi inclusive, from one evaluation."""
        return KernelWindow(index(lo), *self._read(lo, hi))

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
        return f"Kernel({self.name!r})"


def _closed_batch(name):
    """The batch generator of H, RT, K or ADP: the formula where it is
    evaluated, 0 elsewhere."""
    formula, where = CLOSED_FORMS[name]

    def batch(ns):
        if where is None:
            vals = formula(ns)
        else:
            vals = np.zeros(len(ns))
            at = where(ns)
            vals[at] = formula(ns[at])
        return vals, rounding_bar(vals)

    return batch


def _series_batch(name):
    """The batch generator of J, F or E: literals below N0, the series from
    N0 on, at |n|, mirrored by parity."""
    literals, series, odd = LITERALS[name], SERIES[name], PARITY[name] == "odd"

    def batch(ns):
        vals, errs = _literal_or_series(ns, literals, series)
        return (np.sign(ns) * vals if odd else vals), errs

    return batch


KERNELS = {name: Kernel(name, _closed_batch(name) if name in CLOSED_FORMS
                        else _series_batch(name))
           for name in PARITY}
HILBERT, RT, KAK, ADP, J, F, E = (KERNELS[k] for k in
                                  ("H", "RT", "K", "ADP", "J", "F", "E"))


def e_tail_constant() -> float:
    """Constant c with |E_n| <= c / n^2 for n != 0, used for windowed tail budgets.

    Bounding t sinh t / (t^2 + pi^2 n^2) by t sinh t / (pi^2 n^2) in E_n
    leaves M_0 / (pi^2 n^2), and M_0 = integral_0^inf 2y (y cosh y - sinh y)
    / sinh^3 y dy = 1 exactly: the integrand is -d/dy [y^2 / sinh^2 y].
    So c = 1/pi^2, and the M_0 literal of the E series is exactly 1.0.
    """
    return 1.0 / math.pi ** 2
