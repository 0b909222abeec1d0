"""Finitely supported doubly-infinite sequences and convolution against kernels.

Sequences and truncated operators have value semantics (frozen dataclasses
over read-only arrays) and may be shared freely between threads; an
operator reads its kernel window once, when it is built, and keeps what its
matvec needs.  The module holds no cache.  Convolution has a direct path
with a fixed summation order for bit-reproducibility and an FFT path for
large supports; the two agree to ~1e-12 relative.  The FFTs are
``numpy.fft``'s, so importing this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import irfft, rfft

from dhtlab.kernels import Kernel
from dhtlab.numerics import Exponent, check_integer

__all__ = [
    "Seq",
    "ConvOperator",
    "lp_norm",
    "convolve",
    "fft_convolve",
    "next_fast_len",
]

_FFT_THRESHOLD = 512


@dataclass(frozen=True)
class Seq:
    """A finitely supported sequence: dense values starting at ``offset``."""

    offset: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "offset", check_integer("offset", self.offset))

    @staticmethod
    def delta(n: int = 0, weight: float = 1.0) -> "Seq":
        return Seq(n, np.array([weight]))

    @staticmethod
    def from_dict(entries: dict[int, float]) -> "Seq":
        if not entries:
            return Seq(0, np.zeros(0))
        lo, hi = min(entries), max(entries)
        vals = np.zeros(hi - lo + 1)
        for n, v in entries.items():
            vals[n - lo] = v
        return Seq(lo, vals)

    @property
    def support(self) -> tuple[int, int]:
        """(first, last) index of the stored block; meaningful after trimming."""
        return self.offset, self.offset + len(self.values) - 1

    def trimmed(self) -> "Seq":
        """Drop leading/trailing zeros; semantic identity is unchanged."""
        nz = np.nonzero(self.values)[0]
        if len(nz) == 0:
            return Seq(0, np.zeros(0))
        return Seq(self.offset + int(nz[0]), self.values[nz[0]:nz[-1] + 1])

    def __getitem__(self, n: int) -> float:
        i = n - self.offset
        if 0 <= i < len(self.values):
            return float(self.values[i])
        return 0.0

    def to_dense(self, lo: int, hi: int) -> np.ndarray:
        """Values on [lo, hi] as a dense array (zeros outside the support)."""
        out = np.zeros(hi - lo + 1)
        a = max(lo, self.offset)
        b = min(hi, self.offset + len(self.values) - 1)
        if a <= b:
            out[a - lo: b - lo + 1] = self.values[a - self.offset: b - self.offset + 1]
        return out

    def shift(self, s: int) -> "Seq":
        return Seq(self.offset + s, self.values)

    def scale(self, c: float) -> "Seq":
        return Seq(self.offset, self.values * c)

    def is_zero(self) -> bool:
        return not np.any(self.values)


def lp_norm(a: Seq | np.ndarray, p) -> float:
    """The l^p norm of a finitely supported sequence or of a dense array; p
    may be an Exponent, a real in [1, inf), or math.inf."""
    if isinstance(p, Exponent):
        p = p.p
    if not p >= 1:                      # also rejects NaN
        raise ValueError(f"p must be >= 1, got {p!r}")
    v = np.abs(a.values if isinstance(a, Seq) else a)
    if len(v) == 0:
        return 0.0
    if p == math.inf:
        return float(v.max())
    if p == 2:
        return float(np.sqrt(np.dot(v, v)))
    return float((v ** p).sum() ** (1.0 / p))


def next_fast_len(n: int) -> int:
    """The smallest 5-smooth integer >= n, scipy's fast length for real FFTs."""
    best = 1 << (n - 1).bit_length()    # the power of 2 is always a candidate
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least p35 * 2^j >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def fft_convolve(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real arrays through real FFTs.

    The same transform sizes and steps as ``scipy.signal.fftconvolve``, and
    the same bits (pinned in the tests), on ``numpy.fft``.
    """
    n = len(a) + len(k) - 1
    size = next_fast_len(n)
    return irfft(rfft(a, size) * rfft(k, size), size)[:n]


def _convolve_dense_direct(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Full convolution, summing over the entries of ``a`` in ascending index
    order (fixed order => bit-reproducible).

    The product |a_j| k is formed once per run of equal |a_j| among the
    nonzero entries and subtracted where a_j < 0: (-c) k == -(c k) and
    x + (-y) == x - y exactly, so the bits are those of adding a_j k for
    each j, while a +-c pattern costs one multiply in all.
    """
    out = np.zeros(len(a) + len(k) - 1)
    nz = np.flatnonzero(a)
    vals = a[nz]
    mag = np.abs(vals)
    fresh = np.empty(len(nz), dtype=bool)
    fresh[:1] = True
    fresh[1:] = mag[1:] != mag[:-1]
    m = len(k)
    for j, c, new, neg in zip(nz.tolist(), mag.tolist(), fresh.tolist(),
                              (vals < 0.0).tolist()):
        if new:
            prod = c * k
        if neg:
            out[j: j + m] -= prod
        else:
            out[j: j + m] += prod
    return out


def convolve(k: Kernel, a: Seq, out_radius: int) -> Seq:
    """(k * a)_n for n in [-out_radius, out_radius]; exact up to rounding.

    Kernel entries are read only on the index range actually touched by the
    support of ``a``, so truncated operators never see entries beyond
    |m| <= 2N for inputs inside [-N, N].  They are read by one
    ``k.window_range`` call, the only method of ``k`` used, so a ``Kernel``
    or a ``KernelWindow`` that covers the range will do.
    """
    if out_radius < 1:
        raise ValueError("out_radius must be >= 1")
    at = a.trimmed()
    if at.is_zero():
        return Seq(-out_radius, np.zeros(2 * out_radius + 1))
    a_lo, a_hi = at.support
    kw = k.window_range(-out_radius - a_hi, out_radius - a_lo)
    if len(at.values) > _FFT_THRESHOLD:
        full = fft_convolve(at.values, kw)
    else:
        full = _convolve_dense_direct(at.values, kw)
    # full[t] corresponds to output index n = t + a_lo + (-out_radius - a_hi)
    start = a_lo - out_radius - a_hi
    i0 = -out_radius - start
    return Seq(-out_radius, full[i0: i0 + 2 * out_radius + 1])


@dataclass(frozen=True)
class ConvOperator:
    """The truncation P_N T P_N of a convolution operator T to [-N, N].

    P_N is an l^p contraction, so norms of truncations are certified lower
    bounds for the full operator norm and are monotone in N.  The operator
    reads the kernel window [-2N, 2N] once, when it is built, and keeps only
    what its matvec uses.  Small operators (2N+1 <= 512) keep the window and
    convolve directly against it.  Larger ones keep its ``rfft`` at
    L = ``next_fast_len(4N+1)``: a (2N+1)-entry input convolved circularly
    with it at length L gives the linear convolution's outputs 2N..4N, the
    ones P_N keeps, without aliasing exactly when L >= 4N+1.  That is two
    FFTs per matvec; the adjoint is T' = R T R, with R the reversal of
    [-N, N], on the same spectrum.
    """

    kernel: Kernel
    window_radius: int
    # the window [-2N, 2N] (direct path, _fft_len 0) or its rfft at _fft_len
    _taps: np.ndarray = field(init=False, repr=False, compare=False)
    _fft_len: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_integer("window_radius", self.window_radius)
        if self.window_radius < 1:
            raise ValueError("window_radius must be >= 1")
        n = self.window_radius
        taps = self.kernel.window_range(-2 * n, 2 * n)
        fft_len = next_fast_len(4 * n + 1) if self.size > _FFT_THRESHOLD else 0
        if fft_len:
            taps = rfft(taps, fft_len)
        taps.setflags(write=False)
        object.__setattr__(self, "_taps", taps)
        object.__setattr__(self, "_fft_len", fft_len)

    @property
    def size(self) -> int:
        return 2 * self.window_radius + 1

    def _matvec(self, v: np.ndarray, adjoint: bool) -> np.ndarray:
        if np.ndim(v) != 1 or len(v) != self.size:
            raise ValueError(f"v must be 1-d of length 2N+1 = {self.size}, "
                             f"got shape {np.shape(v)}")
        # convolution index t <-> output n = t - 3N
        n, size, taps = self.window_radius, self._fft_len, self._taps
        if size:
            w = v[::-1] if adjoint else v              # T' = R T R
            out = irfft(rfft(w, size) * taps, size)[2 * n: 4 * n + 1]
            return out[::-1] if adjoint else out
        full = _convolve_dense_direct(v, taps[::-1] if adjoint else taps)
        return full[2 * n: 4 * n + 1]

    def apply_dense(self, v: np.ndarray) -> np.ndarray:
        """T_N v for v given densely on [-N, N]; returns the same layout."""
        return self._matvec(v, adjoint=False)

    def apply_adjoint_dense(self, v: np.ndarray) -> np.ndarray:
        """T_N' v, the transpose applied in the same layout."""
        return self._matvec(v, adjoint=True)

    def matrix(self) -> np.ndarray:
        """Dense (2N+1) x (2N+1) Toeplitz matrix M[i, j] = k(i - j)."""
        n = self.window_radius
        kw = self.kernel.window_range(-2 * n, 2 * n)
        idx = np.arange(-n, n + 1)
        return kw[(idx[:, None] - idx[None, :]) + 2 * n]
