"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-10 are deterministic and run in the default session; criterion 11
(Monte Carlo) follows the 3-standard-error convention with fixed, documented
seeds and is gated behind ``pytest --heavy``.
"""

import math

import numpy as np
import pytest
import scipy.linalg as sla

from dhtlab import identities as I
from dhtlab import kernels as K
from dhtlab import weaktype as W
from dhtlab.factorization import build_K, verify_factorization
from dhtlab.hprocess_mc import (OccupationGrid, SdeConfig, estimate_T,
                                occupation_check)
from dhtlab.norms import estimate_norm, norm_sweep
from dhtlab.numerics import (Exponent, catalan_beta2, integrate,
                             pichorides_constant)
from dhtlab.seqops import ConvOperator, Seq
from dhtlab.weaktype import davis_constant, search_weak_constant, weak_ratio

# fixed seeds for the stochastic criteria (documented, never resampled)
SEED_OCCUPATION = 2026
SEED_FUNCTIONAL = 2027


def _report(num: int, description: str, ok: bool):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_constants():
    ok = pichorides_constant(Exponent(2.0)) == 1.0
    ok &= abs(pichorides_constant(Exponent(4.0)) - (1 + math.sqrt(2))) <= 1e-12
    d = davis_constant()
    ok &= abs(d - 1.3468852519) <= 1e-9
    ok &= abs(8.0 * d * catalan_beta2() - math.pi ** 2) <= 1e-12
    _report(1, "Pichorides/Davis constants to stated digits", bool(ok))


def test_criterion_02_odd_kernel_mass():
    ok = True
    for n in range(1, 6):
        pn2 = (math.pi * n) ** 2

        def f(y, pn2=pn2, n=n):
            d = y * y + pn2
            return 2.0 * y * math.pi * n * (3.0 * y * y - pn2) / d ** 3

        r = integrate(f, 0.0, math.inf, 1e-12)
        ok &= abs(r.value - 1.0 / (math.pi * n)) <= 1e-10
    _report(2, "semi-infinite mass integral equals 1/(pi n), n=1..5", bool(ok))


def test_criterion_03_residue_integrals():
    ok = True
    worst = 0.0
    for k in range(1, 6):
        for n in (1, 2, -3):
            for y in (0.5, 1.0, 2.0):
                diff = abs(I.quad_I(k, n, y, 1e-10).value - I.closed_I(k, n, y))
                worst = max(worst, diff)
                ok &= diff <= 1e-8
    _report(3, f"45 residue-integral cases agree to 1e-8 (worst {worst:.2e})",
            bool(ok))


def test_criterion_04_master_kernel_oracle():
    ok = True
    for n in (1, 2, 5):
        rep = I.verify_jn_double_integral(n, 1e-6)
        ok &= rep.passed and rep.abs_diff <= 1e-6 * abs(rep.rhs)
    naive = I.verify_jn_double_integral(1, 1e-5, naive_inner=True)
    ok &= naive.passed
    ok &= abs(naive.lhs - 0.40597362123696934) <= 1e-5
    _report(4, "double-integral oracle pins the J kernel (incl. naive path)",
            bool(ok))


def test_criterion_05_convolution_identities():
    ok = True
    for n in (1, 3):
        for y in (0.5, 1.0, 2.0):
            hp = I.verify_hp(n, y, 10_000)
            ihq = I.verify_ihq(n, y, 10_000)
            ok &= hp.passed and hp.abs_diff <= 1e-7
            ok &= ihq.passed and ihq.abs_diff <= 1e-7
    for n in (1, 2, 3):
        ihj = I.verify_ihj(n, 2000)
        ok &= ihj.passed
    _report(5, "truncated-transform identities at M=1e4 / M=2000", bool(ok))


def test_criterion_06_e_kernel_properties():
    ok = K.E.value(0) > 0
    ok &= all(K.E.value(n) < 0 for n in range(1, 51))
    N = 200
    w = K.E.window(N)
    tail = 2.0 * K.e_tail_constant() / N
    ok &= abs(float(w.sum())) <= tail + float(np.sum(K.E.error_window(N)))
    ok &= all(abs(K.J.value(n) - K.HILBERT.value(n) - K.F.value(n)) <= 1e-10
              for n in range(1, 21))
    _report(6, "E kernel signs, zero sum with computed tail, J = H + F",
            bool(ok))


def test_criterion_07_factorization():
    kit = build_K(2048, 1e-8)
    ok = abs(float(kit.K.sum()) - 1.0) <= kit.mass_defect
    ok &= bool(np.all(kit.K >= 0.0))
    rng = np.random.default_rng(42)
    cases = [Seq.delta(0), Seq(-16, rng.choice([-1.0, 1.0], size=33))]
    for i, a in enumerate(cases):
        rep = verify_factorization(a, 2048, kit=kit)
        ok &= rep.passed and rep.max_abs_residual <= 1e-3
        if i == 0:
            ok &= rep.budget <= 1e-3  # unit-mass budget dominated by 1/window tails
    _report(7, "probability-kernel factorization within computed budgets",
            bool(ok))


def test_criterion_08_norm_bounds():
    radii = [64, 256, 1024, 4096]
    tol = 1e-10
    ok = True
    for kern in (K.HILBERT, K.J):
        for p in (2.0, 4.0, 4.0 / 3.0):
            e = Exponent(p)
            bound = pichorides_constant(e)
            ests = norm_sweep(kern, e, radii, seed=0, max_iter=1500, tol=tol)
            ok &= all(est.value <= bound + 1e-6 for est in ests)
            # nondecreasing within a 10*tol slack for solver wobble
            ok &= all(b.value >= a.value - 10 * tol for a, b in zip(ests, ests[1:]))
            if kern is K.HILBERT and p == 2.0:
                ok &= ests[-1].value > 0.95
    for kern in (K.HILBERT, K.J):
        for N in (64, 256):
            op = ConvOperator(kern, N)
            sigma = float(sla.svdvals(op.matrix())[0])
            est = estimate_norm(op, Exponent(2.0), max_iter=20_000, tol=1e-13)
            ok &= abs(est.value - sigma) <= 1e-8
    _report(8, "power-method estimates bounded, monotone, SVD-consistent",
            bool(ok))


def test_criterion_09_kernel_domination_and_variants():
    ok = all(K.J.value(n) > 1.0 / (math.pi * n) > 0 for n in range(1, 51))
    ok &= all(K.J.value(-n) == -K.J.value(n) for n in range(1, 51))
    ok &= K.RT.value(0) == pytest.approx(2.0 / math.pi, abs=1e-15)
    ok &= all(K.RT.value(n) == pytest.approx(1.0 / (math.pi * (n + 0.5)),
                                              rel=1e-14)
              for n in (-3, -1, 1, 4))
    ok &= all(K.KAK.value(n) == 0.0 for n in (-4, -2, 2, 6))
    ok &= all(K.KAK.value(n) == pytest.approx(2.0 / (math.pi * n), rel=1e-14)
              for n in (-3, 1, 5))
    ok &= all(K.ADP.value(n) == pytest.approx(
        n / (math.pi * (n * n - 0.25)), rel=1e-14) for n in (-2, 1, 3))
    _report(9, "kernel domination and variant spot values", bool(ok))


def test_criterion_10_weak_type():
    rep = weak_ratio(K.HILBERT, Seq.delta(0), 10 ** 6)
    ok = abs(rep.ratio - 2.0 / math.pi) <= 1e-9
    best = search_weak_constant(K.HILBERT, "random_signs", 1000, seed=7)
    ok &= best.ratio > 0 and math.isfinite(best.ratio)
    a = Seq.from_dict({0: 1.0, 1: -1.0})
    base = weak_ratio(K.HILBERT, a, 4096)
    ok &= all(weak_ratio(K.HILBERT, a.scale(c), 4096).ratio == base.ratio
              for c in (2.0, -3.0))
    ok &= weak_ratio(K.HILBERT, a.shift(6), 4096).ratio == base.ratio
    _report(10, f"weak-type ratio exact scan (search best {best.ratio:.4f})",
            bool(ok))


@pytest.mark.heavy
def test_criterion_11_monte_carlo():
    # occupation: 10 x 10 grid, 1e5 paths, 3 sigma convention.  The kill
    # height is small (4e-3) so the truncation of genuine low excursions
    # stays below the statistical resolution; the pole-adaptive step keeps
    # this affordable.
    cfg_occ = SdeConfig(n=1, start=(2 * math.pi, 8.0), seed=SEED_OCCUPATION,
                        kill_eps=4e-3, dt=4e-6, max_time=4e4)
    grid = OccupationGrid(x_min=math.pi, x_max=3 * math.pi,
                          y_min=1.0, y_max=5.0, nx=10, ny=10)
    occ = occupation_check(cfg_occ, grid, 100_000)
    ok_occ = (occ.frac_within_3 >= 0.95 and abs(occ.total_z) <= 3.0
              and occ.chi2_z <= 3.0)

    # functional at a high start against the J kernel entry (the finite-start
    # truth deviates from the limit by ~1.4 standard errors here, which is
    # within the 3-sigma convention)
    cfg_fun = SdeConfig(n=1, start=(0.0, 50.0), seed=SEED_FUNCTIONAL,
                        max_time=2e5)
    stats = estimate_T(Seq.delta(0), cfg_fun, 100_000)
    z1 = (stats.mean - K.J.value(1)) / stats.std_error
    ok_fun = abs(z1) <= 3.0

    # the target-site estimate is compatible with zero
    cfg0 = SdeConfig(n=0, start=(0.0, 8.0), seed=SEED_FUNCTIONAL,
                     max_time=5000.0)
    stats0 = estimate_T(Seq.delta(0), cfg0, 20_000)
    ok_zero = abs(stats0.mean) <= 3.0 * stats0.std_error + 1e-18

    print(f"    occupation: frac3={occ.frac_within_3:.2f} "
          f"chi2_z={occ.chi2_z:.2f} total_z={occ.total_z:.2f}")
    print(f"    functional: mean={stats.mean:.6f} se={stats.std_error:.6f} "
          f"z={z1:+.2f}; zero-site z="
          f"{stats0.mean / max(stats0.std_error, 1e-300):+.2e}")
    _report(11, "Monte Carlo occupation/functional checks at 3 sigma",
            bool(ok_occ and ok_fun and ok_zero))
