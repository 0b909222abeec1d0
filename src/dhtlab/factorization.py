"""Probability-kernel factorization of the classic kernel through J.

From the even kernel E one forms alpha = 1/(1 + E_0) and the nonnegative
kernel G_n = -alpha E_n (n != 0), whose total mass is 1 - alpha.  The Neumann
series K = alpha * sum_k G^(*k) is then a probability kernel, and convolving
it with J reproduces the classic 1/(pi n) kernel.  Everything here works on
finite windows with a certified mass ledger: every acceptance check compares a
residual against a computed budget, never against a guessed constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dhtlab.kernels import E, HILBERT, J, e_tail_constant
from dhtlab.numerics import check_integer
from dhtlab.seqops import Seq, convolve, fft_convolve

__all__ = [
    "FactorizationKit",
    "FactorizationReport",
    "build_K",
    "verify_factorization",
]


@dataclass(frozen=True)
class FactorizationKit:
    """Windowed G and K kernels with their mass bookkeeping.

    ``G`` and ``K`` are dense arrays on [-window, window].  ``mass_defect``
    bounds |1 - sum(K)| and aggregates the geometric remainder of the Neumann
    series, all window-truncation losses, and the quadrature slop.  Completed
    kits are immutable and freely shareable.
    """

    alpha: float
    window: int
    G: np.ndarray
    K: np.ndarray
    neumann_terms: int
    mass_defect: float
    g_tail_bound: float
    quad_slop: float

    def __post_init__(self):
        self.G.setflags(write=False)
        self.K.setflags(write=False)


@dataclass(frozen=True)
class FactorizationReport:
    max_abs_residual: float
    budget: float
    passed: bool
    window: int
    mass_defect: float


def build_K(window: int, mass_tol: float = 1e-8) -> FactorizationKit:
    """Sum the Neumann series for K on [-window, window].

    Terms are accumulated until the remaining geometric mass (1-alpha)^(k+1)
    drops below mass_tol; iterated convolutions are re-truncated to the window
    each step with the discarded mass charged to the defect ledger.
    """
    if not (1e-12 < mass_tol < 1e-2):
        raise ValueError("mass_tol must lie in (1e-12, 1e-2)")
    if check_integer("window", window) < 16:
        raise ValueError("window >= 16 required")
    e = E.read(-window, window)
    e0 = e.values[window]
    if not e0 > 0:
        raise AssertionError("E_0 must be positive")
    if np.any(np.delete(e.values, window) >= 0):
        raise AssertionError("E_n must be negative for n != 0")
    alpha = 1.0 / (1.0 + e0)
    g = -alpha * e.values
    g[window] = 0.0
    quad_slop = alpha * float(np.sum(e.bars)) + alpha * alpha * float(e.bars[window])
    g_tail = alpha * 2.0 * e_tail_constant() / window
    one_minus = 1.0 - alpha
    if not one_minus < 1.0:
        raise AssertionError("Neumann ratio must be < 1")
    n_terms = max(1, math.ceil(math.log(mass_tol) / math.log(one_minus)))

    size = 2 * window + 1
    k_arr = np.zeros(size)
    term = np.zeros(size)
    term[window] = 1.0  # G^(*0) = identity
    k_arr += alpha * term
    kept = alpha * 1.0
    for _ in range(1, n_terms):
        full = fft_convolve(term, g)
        term = full[window: 3 * window + 1].copy()
        # tiny negative entries can appear from FFT rounding; clamp and ledger
        neg = term < 0
        quad_slop += float(-term[neg].sum())
        term[neg] = 0.0
        k_arr += alpha * term
        kept += alpha * float(term.sum())

    mass_defect = max(1.0 - kept, 0.0) + quad_slop
    return FactorizationKit(alpha=alpha, window=window, G=g, K=k_arr,
                            neumann_terms=n_terms, mass_defect=mass_defect,
                            g_tail_bound=g_tail, quad_slop=quad_slop)


def verify_factorization(a: Seq, window: int, mass_tol: float = 1e-8,
                         kit: FactorizationKit | None = None) -> FactorizationReport:
    """Residual of the factorization identity on a window, with its budget.

    Compares the classic transform of ``a`` against K convolved with (J a) on
    |n| <= window/4.  The budget charges the missing K mass against the sup of
    |J a| plus the kernels' per-entry error bars; the check passes iff the
    residual stays below it.  A non-finite entry of ``a``, or a ``kit``
    built for another window, raises ``ValueError``.
    """
    check_integer("window", window)
    if not np.all(np.isfinite(a.values)):
        raise ValueError("sequence has non-finite entries (NaN or inf)")
    if kit is not None and kit.window != window:
        raise ValueError(f"kit was built for window {kit.window}, "
                         f"not for window {window}")
    quarter = window // 4
    at = a.trimmed()
    if not at.is_zero():
        lo, hi = at.support
        if lo < -quarter or hi > quarter:
            raise ValueError("a must be supported in [-window/4, window/4]")
    if kit is None:
        kit = build_K(window, mass_tol)

    if at.is_zero():
        return FactorizationReport(0.0, kit.mass_defect, True, window,
                                   kit.mass_defect)

    ha = convolve(HILBERT, at, quarter)
    ja = convolve(J, at, window + quarter)
    full = fft_convolve(kit.K, ja.values)
    # full index t corresponds to n = t - (2*window + quarter)
    centre = 2 * window + quarter
    kja = full[centre - quarter: centre + quarter + 1]
    residual = float(np.max(np.abs(ha.values - kja)))

    a_l1 = float(np.sum(np.abs(at.values)))
    ja_sup = float(np.max(np.abs(ja.values)))
    j_err = float(np.max(J.error_window(1))) * len(at.values)
    budget = float(kit.mass_defect * max(ja_sup, J.value(1) * a_l1)
                   + a_l1 * (j_err + 1e-12))
    return FactorizationReport(residual, budget, bool(residual <= budget),
                               window, float(kit.mass_defect))
