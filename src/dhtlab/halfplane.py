"""Potentials of the upper half-plane with exits at the lattice points 2 pi n.

p_n is the harmonic exit density at 2 pi n, h = sum_n p_n
= sinh y / (2 pi (cosh y - cos x)) the lattice sum, and G the Green function
of -Laplace/2.  These are the one implementation of each: the deterministic
identities and the Monte Carlo side both call them.  Every function is
elementwise over numpy arrays (or scalars), so a point's bits do not depend
on the other points of the batch.  Squares are products: a scalar ``**``
is libm's pow, which can miss an array's exact square by an ulp.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["poisson_p", "grad_poisson", "green_G", "h_fields"]

_PI = math.pi
_TWO_PI = 2.0 * math.pi


def poisson_p(n, x, y):
    """p_n(x, y) = y / (pi ((x - 2 pi n)^2 + y^2))."""
    xt = x - _TWO_PI * n
    return y / (_PI * (xt * xt + y * y))


def grad_poisson(n, x, y):
    """(d/dx, d/dy) of p_n."""
    xt = x - _TWO_PI * n
    r2 = xt * xt + y * y
    return -2.0 * xt * y / (_PI * r2 * r2), (xt * xt - y * y) / (_PI * r2 * r2)


def green_G(x, y, x0, y0):
    """Green function of the half-plane for -Laplace/2 with pole at (x0, y0).

    Raises ValueError if any point sits at the pole, where the squared
    distance to it is zero.
    """
    dx = x - x0
    dx2 = dx * dx
    below, above = y - y0, y + y0
    r2 = dx2 + below * below
    if not np.all(r2):
        raise ValueError("Green function evaluated at its pole")
    return np.log((dx2 + above * above) / r2) / _TWO_PI


def h_fields(x, y):
    """(1/h, d/dx log h, d/dy log h) for h = sinh y / (2 pi (cosh y - cos x)).

    One elementwise form at every height.  With t = exp(-y), e1 = expm1(-y)
    = t - 1 and s, c = sin(x/2), cos(x/2), the cosh-type denominator
    denom = 1 + t^2 - 2t cos x is e1^2 + 4t s^2, 1 - t^2 is -e1 (2 + e1), and

        1/h = 2 pi denom / (1 - t^2),   d/dx log h = -4t s c / denom,
        d/dy log h = 2t^2/(1 - t^2) + 2t (e1 + 2 s^2) / denom.

    Nothing overflows, and t - cos x enters as e1 + 2 s^2, so d/dy log h
    keeps its relative accuracy as y grows (it is about -2t cos x there).
    The gradient of 1/h is -(1/h) grad log h.
    """
    ny = -y
    t = np.exp(ny)
    e1 = np.expm1(ny)
    hx = 0.5 * x
    s = np.sin(hx)
    ss = s * s
    t2 = 2.0 * t
    denom = e1 * e1 + 2.0 * t2 * ss
    minus = -e1 * (2.0 + e1)
    return (_TWO_PI * denom / minus, -2.0 * t2 * s * np.cos(hx) / denom,
            t2 * t / minus + t2 * (e1 + 2.0 * ss) / denom)
