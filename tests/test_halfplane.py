import math

import numpy as np
import pytest

from dhtlab.halfplane import green_G, grad_poisson, h_fields, poisson_p

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps

# beside the poles (2 pi k, 0) and at heights where cosh y - cos x cancels or
# sinh y overflows; x = 2 pi k is left out at y = 700, where d/dx log h
# (about 2 e^-y sin x) falls below the normal range and loses relative bits
POINTS = [(0.0, 1e-6), (TWO_PI, 1e-6), (-3 * TWO_PI, 1e-6), (TWO_PI + 1e-7, 1e-6)]
POINTS += [(x, y) for y in (0.5, 20.0, 40.0, 700.0)
           for x in (0.3, math.pi / 2 - 0.05, 2.0)]
POLE = (1.0, 2.0)


@pytest.mark.parametrize("x, y", POINTS)
def test_potentials_against_mpmath(x, y):
    mp = pytest.importorskip("mpmath")
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        h_inv, glx, gly = (float(v) for v in h_fields(x, y))
    gix, giy = -h_inv * glx, -h_inv * gly
    # enough digits for cosh y - cos x and its cancelling derivatives at y = 700
    with mp.workdps(int(2 * y / math.log(10)) + 40):
        X, Y = mp.mpf(x), mp.mpf(y)
        for n in (0, 1, -3):
            # the lattice point is the double 2 pi n, as the code holds it
            XT = X - mp.mpf(TWO_PI * n)
            R2 = XT * XT + Y * Y
            assert poisson_p(n, x, y) == pytest.approx(float(Y / (mp.pi * R2)),
                                                       rel=4 * EPS, abs=0.0)
            px, py = grad_poisson(n, x, y)
            assert px == pytest.approx(float(-2 * XT * Y / (mp.pi * R2 ** 2)),
                                       rel=4 * EPS, abs=0.0)
            # x_t^2 - y^2 is a difference: hold it to its terms' size
            assert abs(py - float((XT * XT - Y * Y) / (mp.pi * R2 ** 2))) \
                <= 4 * EPS * float(1 / (mp.pi * R2))
        X0, Y0 = (mp.mpf(v) for v in POLE)
        D2 = (X - X0) ** 2
        ref_G = mp.log((D2 + (Y + Y0) ** 2) / (D2 + (Y - Y0) ** 2)) / (2 * mp.pi)
        # the log of a ratio near 1 keeps eps of absolute accuracy, not relative
        assert abs(green_G(x, y, *POLE) - float(ref_G)) \
            <= 4 * EPS * (float(ref_G) + 1 / TWO_PI)

        c = mp.cosh(Y) - mp.cos(X)
        ref_h_inv = 2 * mp.pi * c / mp.sinh(Y)
        ref_lx = -mp.sin(X) / c
        ref_ly = mp.coth(Y) - mp.sinh(Y) / c
        # d/dy log h = 2t^2/(1 - t^2) + 2t (t - cos x)/denom with t = e^-y,
        # denom = 1 + t^2 - 2t cos x, and t - cos x formed as
        # expm1(-y) + 2 sin^2(x/2): its rounding is eps of the summands'
        # size, so the value is held to a few eps of the terms' size
        t, s = mp.exp(-Y), mp.sin(X / 2)
        scale_y = float(2 * t * t / (1 - t * t)
                        + 2 * t * (1 - t + 2 * s * s) / (1 + t * t - 2 * t * mp.cos(X)))
        assert h_inv == pytest.approx(float(ref_h_inv), rel=4 * EPS, abs=0.0)
        assert glx == pytest.approx(float(ref_lx), rel=4 * EPS, abs=0.0)
        assert abs(gly - float(ref_ly)) <= 4 * EPS * scale_y
        # grad(1/h) = -(1/h) grad log h: one more rounding on top of both factors
        ref_gix = 2 * mp.pi * mp.sin(X) / mp.sinh(Y)
        ref_giy = 2 * mp.pi * (mp.cos(X) * mp.cosh(Y) - 1) / mp.sinh(Y) ** 2
        assert gix == pytest.approx(float(ref_gix), rel=6 * EPS, abs=0.0)
        assert abs(giy - float(ref_giy)) <= 6 * EPS * float(ref_h_inv) * scale_y


def test_green_G_rejects_a_batch_with_a_point_at_its_pole():
    with pytest.raises(ValueError):
        green_G(np.array([0.5, 1.0]), 2.0, 1.0, 2.0)
