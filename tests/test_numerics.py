import math

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtlab.numerics import (Exponent, QuadratureError,
                             catalan_beta2, coth, csch_sq, integrate,
                             pichorides_constant)

# reference digits, frozen from accelerated-series / cross-scheme runs
BETA2 = 0.915965594177219015
DAVIS = 1.3468852519994063


def test_exponent_fields():
    e = Exponent(4.0)
    assert e.q == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert 1.0 / e.p + 1.0 / e.q == pytest.approx(1.0, abs=1e-15)
    assert e.pstar == 4.0
    assert Exponent(4.0 / 3.0).pstar == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(ValueError):
        Exponent(1.0)
    with pytest.raises(ValueError):
        Exponent(math.inf)


def test_integrate_exponential():
    r = integrate(lambda y: np.exp(-y), 0.0, math.inf, 1e-10)
    assert r.value == pytest.approx(1.0, abs=1e-10)
    assert r.abs_error_estimate >= 0
    assert r.evaluations > 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_integrate_odd_kernel_mass(n):
    pn2 = (math.pi * n) ** 2

    def f(y):
        d = y * y + pn2
        return 2.0 * y * math.pi * n * (3.0 * y * y - pn2) / d ** 3

    r = integrate(f, 0.0, math.inf, 1e-12)
    assert r.value == pytest.approx(1.0 / (math.pi * n), abs=1e-12)


def test_integrate_cross_scheme():
    # the J-kernel integrand at n=1: two independent quadrature engines must
    # agree to 1e-8 (they actually agree to ~1e-16)
    mine = integrate(lambda y: 2 * y ** 3 / (y * y + math.pi ** 2) * csch_sq(y),
                     0.0, math.inf, 1e-12)

    def scalar(y):
        if y > 350.0:
            return 0.0
        if y < 1:
            s = math.sinh(y)
        else:
            t = math.exp(-y)
            s = (1 - t * t) / (2 * t)
        return 2 * y ** 3 / ((y * y + math.pi ** 2) * s * s)

    other, _ = si.quad(scalar, 0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=200)
    assert mine.value == pytest.approx(other, abs=1e-8)
    assert mine.value == pytest.approx(0.27540374602930817, abs=1e-10)


def test_integrate_deterministic():
    f = lambda y: 2 * y ** 3 / (y * y + math.pi ** 2) * csch_sq(y)
    a = integrate(f, 0.0, math.inf, 1e-11)
    b = integrate(f, 0.0, math.inf, 1e-11)
    assert a.value == b.value and a.abs_error_estimate == b.abs_error_estimate


def test_integrate_budget_failure_carries_best():
    # an oscillatory spike with an absurd budget must fail loudly but usefully
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda y: np.cos(50.0 * y), 0.0, 200.0, 1e-12, max_evals=100)
    assert exc.value.best.evaluations >= 100


def test_integrate_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        integrate(lambda y: y, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        integrate(lambda y: y, 0.0, 1.0, 1e-15)


@pytest.mark.parametrize("f, error", [
    (lambda y: 1.0, ValueError),      # a scalar, not one value per abscissa
    (math.exp, TypeError),            # fails on an array
])
def test_integrate_calls_the_integrand_on_arrays_only(f, error):
    # no point-by-point fallback: an integrand that is not vectorized raises
    with pytest.raises(error):
        integrate(f, 0.0, 1.0)


def test_catalan_series():
    b2 = catalan_beta2()
    assert b2 == pytest.approx(BETA2, abs=1e-13)
    # alternating partial sums bracket the value
    assert b2 < 1.0                      # k <= 0 upper bracket
    assert b2 > 1.0 - 1.0 / 9.0          # k <= 1 lower bracket


def test_catalan_and_davis_are_the_nearest_doubles():
    # the series used to land one ulp above Catalan's constant
    mp = pytest.importorskip("mpmath")
    from dhtlab.weaktype import davis_constant
    with mp.workdps(40):
        assert catalan_beta2() == float(mp.catalan)
        assert davis_constant() == float(mp.pi ** 2 / (8 * mp.catalan))
    assert davis_constant().hex() == "0x1.58cd78cccd5b0p+0"


def test_catalan_integral_cross_check():
    # beta(2) = -int_0^1 log(t)/(1+t^2) dt, an independent representation
    r = integrate(lambda t: -np.log(t) / (1.0 + t * t), 0.0, 1.0, 1e-12)
    assert r.value == pytest.approx(catalan_beta2(), abs=1e-12)


def test_pichorides_values():
    assert pichorides_constant(Exponent(2.0)) == 1.0  # exact
    assert pichorides_constant(Exponent(4.0)) == pytest.approx(
        1.0 + math.sqrt(2.0), abs=1e-12)
    assert pichorides_constant(Exponent(4.0 / 3.0)) == pytest.approx(
        1.0 + math.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 4.0, 10.0])
def test_pichorides_below_burkholder(p):
    e = Exponent(p)
    assert pichorides_constant(e) < e.pstar - 1.0     # Burkholder's constant


def test_pichorides_equality_at_two():
    e = Exponent(2.0)
    assert pichorides_constant(e) == e.pstar - 1.0 == 1.0


def test_davis_twelve_digits_two_methods():
    d_series = math.pi ** 2 / (8.0 * catalan_beta2())
    quad_b2 = integrate(lambda t: -np.log(t) / (1.0 + t * t), 0.0, 1.0, 1e-12)
    d_quad = math.pi ** 2 / (8.0 * quad_b2.value)
    assert d_series == pytest.approx(DAVIS, abs=1e-11)
    assert abs(d_series - d_quad) < 1e-12


@given(st.floats(min_value=1.01, max_value=50.0))
@settings(max_examples=50, deadline=None)
def test_pichorides_dual_symmetry(p):
    e = Exponent(p)
    dual = Exponent(e.q)
    assert pichorides_constant(e) == pytest.approx(pichorides_constant(dual),
                                                   rel=1e-14)


def test_stable_hyperbolics():
    y = np.array([0.3, 5.0, 50.0, 800.0])
    assert np.allclose(csch_sq(y[:2]), 1.0 / np.sinh(y[:2]) ** 2, rtol=1e-14)
    assert np.all(np.isfinite(csch_sq(y)))
    assert coth(np.array([700.0]))[0] == pytest.approx(1.0, abs=1e-15)


def test_gk15_panels_integrate_polynomials_exactly():
    from dhtlab.numerics import gk15_panels
    x, wk, wg = gk15_panels([0.0, 0.5], [0.5, 2.0])
    # K15 is exact to degree 22 and G7 to degree 13 on each panel
    for deg, w in ((22, wk), (13, wg)):
        assert float(np.sum(w * x ** deg)) == pytest.approx(2.0 ** (deg + 1) / (deg + 1),
                                                             rel=1e-14)
    assert np.all(wg.reshape(2, 15)[:, 0::2] == 0.0)


def test_gk_eval_is_gk_nodes_then_gk_sums():
    from dhtlab.numerics import gk_eval, gk_nodes, gk_sums
    lo, hi = np.array([0.0, 0.3, -2.0]), np.array([0.3, 1.7, 5.0])
    x, half = gk_nodes(lo, hi)
    assert x.shape == (3, 15) and np.all(np.diff(x, axis=1) > 0)
    assert np.all((x > lo[:, None]) & (x < hi[:, None]))       # an open rule
    k15, err = gk_eval(np.cos, lo, hi)
    k15_sums, err_sums = gk_sums(np.cos(x), half)
    assert np.array_equal(k15, k15_sums) and np.array_equal(err, err_sums)
    assert np.allclose(k15, np.sin(hi) - np.sin(lo), rtol=1e-14, atol=0.0)


def test_gk_sums_do_not_depend_on_layout():
    # numpy sums a strided row in another order than a contiguous one, so
    # a transposed or Fortran-ordered input must give the same bits
    from dhtlab.numerics import gk_sums
    rng = np.random.default_rng(2)
    fx = rng.standard_normal((6, 4, 15)) * np.exp(rng.uniform(-20.0, 20.0, (6, 4, 15)))
    half = rng.uniform(0.1, 2.0, (6, 4))
    want = gk_sums(fx, half)
    strided = np.ascontiguousarray(fx.transpose(2, 0, 1)).transpose(1, 2, 0)
    for layout in (strided, np.asfortranarray(fx)):
        assert not layout.flags.c_contiguous
        for a, b in zip(gk_sums(layout, half), want):
            assert np.array_equal(a, b)
