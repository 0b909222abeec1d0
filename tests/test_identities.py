import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtlab import identities as I
from dhtlab.halfplane import grad_poisson, green_G, h_fields, poisson_p
from dhtlab.identities import PlanePoint
from dhtlab.kernels import F, J

TWO_PI = 2.0 * math.pi

plane_points = st.builds(PlanePoint,
                         st.floats(-8.0, 8.0),
                         st.floats(0.05, 10.0))


def _h(x, y):
    return 1.0 / h_fields(x, y)[0]


def test_closed_form_spot_values():
    assert poisson_p(0, 0.0, 1.0) == pytest.approx(1 / math.pi, abs=1e-15)
    assert _h(math.pi, 2.0) == pytest.approx(math.tanh(1.0) / TWO_PI, abs=1e-15)
    assert green_G(0.0, 1.0, 0.0, 2.0) == pytest.approx(math.log(9.0) / TWO_PI,
                                                        abs=1e-15)
    with pytest.raises(ValueError):
        green_G(0.0, 2.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        PlanePoint(0.0, -1.0)


def test_poisson_sum():
    r = I.verify_poisson_sum(PlanePoint(0.0, 1.0), 1000)
    assert r.passed and r.abs_diff <= r.tolerance


def test_poisson_sum_symmetries():
    a = I.verify_poisson_sum(PlanePoint(0.7, 1.3), 500)
    b = I.verify_poisson_sum(PlanePoint(-0.7, 1.3), 500)
    assert a.lhs == b.lhs  # evenness is exact (paired summation)
    c = I.verify_poisson_sum(PlanePoint(0.7 + TWO_PI, 1.3), 500)
    assert c.lhs == pytest.approx(a.lhs, rel=1e-12)  # lattice shift refolds


def test_h_normalization_choice():
    r = I.verify_h_normalization()
    assert r.passed


def test_h_bounds():
    # the quoted example point, plus the small-y regime
    assert I.verify_h_bounds(PlanePoint(0.3, 2.0)).passed
    assert I.verify_h_bounds(PlanePoint(2.5, 0.2)).passed
    assert I.verify_h_bounds(PlanePoint(0.0, 7.0)).passed
    # the y+1 variant of the lower bound holds at the quoted example point
    pt = PlanePoint(0.3, 2.0)
    assert pt.y / (TWO_PI * (pt.y + 1.0)) <= _h(pt.x, pt.y) \
        <= (pt.y + 2.0) / (TWO_PI * pt.y)
    # ... but fails at small y, where only the y+2 constant is valid
    assert I.h_lower_bound_correction().passed


@pytest.mark.parametrize("y", [709.0, 711.0, 800.0, 1e4])
def test_h_at_large_heights(y):
    # h -> 1/(2 pi) as y grows; sinh y overflows from y = 710 on, and
    # sinh y / (cosh y - cos x) is inf/inf a little before that
    for x in (0.0, 1.0):
        rep = I.verify_h_bounds(PlanePoint(x, y))
        assert rep.passed
        assert abs(rep.lhs - 1.0 / TWO_PI) <= 2 * math.ulp(1.0 / TWO_PI)


def test_green_limit():
    r = I.verify_green_limit(PlanePoint(1.0, 1.0), 1,
                             [8 * math.pi, 16 * math.pi, 100.0, 1e4])
    assert r.passed
    assert abs(r.lhs - 2.0) < 1e-3  # ratio within 1e-3 of 2y = 2 at y0 = 1e4
    with pytest.raises(ValueError):
        I.verify_green_limit(PlanePoint(1.0, 1.0), 1, [100.0, 50.0])
    with pytest.raises(ValueError):
        I.verify_green_limit(PlanePoint(1.0, 1.0), 2, [4.0])


def test_green_envelope_at_8pi():
    pt = PlanePoint(1.0, 1.0)
    y0 = 8 * math.pi
    ratio = green_G(pt.x, pt.y, 0.0, y0) / poisson_p(1, 0.0, y0)
    g = I._green_envelope(pt.y / y0)
    assert ratio <= pt.y * g


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, -3])
@pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
def test_residue_integrals(k, n, y):
    q = I.quad_I(k, n, y, 1e-10)
    c = I.closed_I(k, n, y)
    assert abs(q.value - c) <= 1e-8 * max(abs(c), 1e-3)


def test_closed_I_spot_values():
    assert I.closed_I(1, 1, math.pi) == pytest.approx(1.0 / (4.0 * math.pi ** 3),
                                                      rel=1e-13)
    assert I.closed_I(4, 1, 1.0) == pytest.approx(
        -math.pi / (1.0 + math.pi ** 2) ** 2, rel=1e-13)
    with pytest.raises(ValueError):
        I.closed_I(1, 0, 1.0)
    with pytest.raises(ValueError):
        I.closed_I(6, 1, 1.0)


@pytest.mark.parametrize("k", [1, 4])
def test_I_odd_in_n(k):
    for n in (1, 2, 3):
        for y in (0.7, 1.5):
            assert I.closed_I(k, -n, y) == pytest.approx(-I.closed_I(k, n, y),
                                                         rel=1e-13)
            q_pos = I.quad_I(k, n, y, 1e-10).value
            q_neg = I.quad_I(k, -n, y, 1e-10).value
            assert q_neg == pytest.approx(-q_pos, rel=1e-9, abs=1e-14)


def test_int6_and_exponent_question():
    # the closed form's second term carries (y^2 + pi^2 n^2) to the first power
    assert I.verify_int6(1, 1.0).passed
    rep = I.verify_int6(1, 1.0, rel_tol=1e-10)
    assert abs(rep.lhs - rep.rhs) < 1e-10


def test_int7():
    for n in (1, 3, -2):
        rep = I.verify_int7(n)
        assert rep.passed
        assert rep.abs_diff <= 1e-10 / (math.pi * abs(n)) + 1e-15


def test_jn_double_integral_closed_inner():
    for n in (1, 2):
        rep = I.verify_jn_double_integral(n, 1e-6)
        assert rep.passed
        assert rep.abs_diff <= 1e-6 * abs(J.value(n))


def test_jn_double_integral_naive_pin():
    # the fully independent oracle for the implementer-derived value J_1
    rep = I.verify_jn_double_integral(1, 1e-5, naive_inner=True)
    assert rep.passed
    assert rep.lhs == pytest.approx(0.40597362123696934, abs=1e-6)


def test_hp_family():
    rep = I.verify_hp(1, 1.0, 10_000)
    assert rep.passed and rep.abs_diff <= 1e-7
    rep0 = I.verify_hp(0, 1.0, 2_000)
    assert rep0.lhs == 0.0 and rep0.rhs == 0.0


def test_ihq_family():
    rep = I.verify_ihq(1, 1.0, 10_000)
    assert rep.passed and rep.abs_diff <= 1e-7
    rep0 = I.verify_ihq(0, 2.0, 10_000)
    assert rep0.rhs == 0.0 and rep0.passed


@pytest.mark.parametrize("n", range(-16, 17))
def test_ihj_matches_F(n):
    # with J = H + F (test_f_kernel_identity_and_decay), J = H + H * E
    rep = I.verify_ihj(n, 2000)
    assert rep.passed
    assert rep.rhs == F.value(n)


@given(plane_points)
@settings(max_examples=60, deadline=None)
def test_rotation_orthogonality(pt):
    # (H grad f) . grad f = 0 exactly for the quarter-turn H
    x, y = np.array([pt.x]), np.array([pt.y])
    for gx, gy in (grad_poisson(1, x, y), h_fields(x, y)[1:]):
        assert I._rot_dot(gx, gy, gx, gy)[0] == 0.0


def test_grad_h_bound_on_grid():
    # |grad h| <= h / y, that is |grad log h| <= 1 / y
    xs = np.linspace(-math.pi, math.pi, 10)
    ys = np.linspace(0.2, 5.0, 10)
    for x in xs:
        for y in ys:
            _, glx, gly = h_fields(x, y)
            assert math.hypot(glx, gly) <= 1.0 / y * (1 + 1e-12)


def test_grad_h_matches_finite_differences():
    # h grad log h = grad h, and -(1/h) grad log h = grad (1/h)
    x, y = 0.8, 1.7
    eps = 1e-6
    h_inv, glx, gly = h_fields(x, y)
    for f, scale in ((_h, 1.0 / h_inv), (lambda x, y: h_fields(x, y)[0], -h_inv)):
        dx = (f(x + eps, y) - f(x - eps, y)) / (2 * eps)
        dy = (f(x, y + eps) - f(x, y - eps)) / (2 * eps)
        assert scale * glx == pytest.approx(dx, abs=1e-8)
        assert scale * gly == pytest.approx(dy, abs=1e-8)


@pytest.mark.parametrize("x, y", [
    (0.0, 1e-6), (TWO_PI, 1e-6), (-3 * TWO_PI, 1e-6), (TWO_PI + 1e-7, 1e-6),
    (0.3, 20.0), (2.0, 20.0 + 1e-9), (1.0, 40.0), (0.0, 40.0), (2.0, 700.0),
    (math.pi / 2, 700.0)])
def test_grad_h_against_mpmath(x, y):
    # grad(1/h) = -(1/h) grad log h, as the integrands use it.  Near the
    # poles (2 pi k, 0) cos x cosh y - 1 cancels, and above y ~ 355 sinh^2 y
    # overflows; neither may cost accuracy
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        h_inv, glx, gly = h_fields(np.array([x]), np.array([y]))
    gx, gy = -h_inv[0] * glx[0], -h_inv[0] * gly[0]
    with mp.workdps(50):
        X, Y = mp.mpf(x), mp.mpf(y)
        sh = mp.sinh(Y)
        ref_x = float(2 * mp.pi * mp.sin(X) / sh)
        ref_y = float(2 * mp.pi * (mp.cos(X) * mp.cosh(Y) - 1) / sh ** 2)
        # the d/dy numerator is a difference: hold it to its terms' size, and
        # beside x = pi/2 at large y, where cos x is formed as
        # 1 - 2 sin^2(x/2) to eps absolute, to eps of 4 pi e^-y
        scale_y = float(2 * mp.pi * (1 + mp.cosh(Y) * abs(mp.cos(X))) / sh ** 2
                        + 4 * mp.pi * mp.exp(-Y))
    assert gx == pytest.approx(ref_x, rel=6 * eps, abs=0.0)
    assert abs(gy - ref_y) <= 6 * eps * scale_y


def test_reflection_symmetry_of_cross_terms():
    # at fixed height, integral of p_0 H grad p_1 . grad (1/h) equals minus
    # the integral of p_1 H grad p_0 . grad (1/h)  (x -> 2 pi - x)
    n = 1
    for y in (0.5, 1.0, 2.0):
        def grad_h_inv(x):
            h_inv, glx, gly = h_fields(x, y)
            return -h_inv * glx, -h_inv * gly

        def f_a(x):
            x = np.asarray(x, dtype=float)
            pnx, pny = grad_poisson(n, x, y)
            return poisson_p(0, x, y) * I._rot_dot(pnx, pny, *grad_h_inv(x))

        def f_b(x):
            x = np.asarray(x, dtype=float)
            p0x, p0y = grad_poisson(0, x, y)
            return poisson_p(n, x, y) * I._rot_dot(p0x, p0y, *grad_h_inv(x))

        qa = I._integrate_line(f_a, [0.0, TWO_PI * n], 1e-10)
        qb = I._integrate_line(f_b, [0.0, TWO_PI * n], 1e-10)
        assert qa.value == pytest.approx(-qb.value, rel=1e-8, abs=1e-13)


def test_run_section3_suite_green():
    reports = I.run_section3_suite()
    failed = [r for r in reports if not r.passed]
    assert failed == []
    assert len(reports) > 70


def test_conditional_kernel_quad_converges_to_j():
    # finite-start values approach the J kernel entry as the start rises
    q = I.conditional_kernel_quad(1, TWO_PI, 40.0, rel_tol=1e-5)
    assert q.value == pytest.approx(J.value(1), rel=2e-2)
