import importlib.util
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dhtlab import kernel_entries as KE
from dhtlab import kernels as K
from dhtlab.numerics import integrate

# frozen from two independent computations (fixed-grid batch vs adaptive
# quadrature; the double-integral oracle in test_identities pins it again)
J1 = 0.40597362123696934
E0 = 0.29774140087413603
E1 = -0.08531230446170698


def test_hilbert_values():
    assert K.HILBERT.value(0) == 0.0
    assert K.HILBERT.value(1) == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert K.HILBERT.value(-3) == pytest.approx(-1.0 / (3.0 * math.pi), abs=1e-15)


def test_variant_kernel_values():
    assert K.RT.value(0) == pytest.approx(2.0 / math.pi, abs=1e-15)
    assert K.KAK.value(2) == 0.0
    assert K.KAK.value(1) == pytest.approx(2.0 / math.pi, abs=1e-15)
    assert K.ADP.value(1) == pytest.approx(4.0 / (3.0 * math.pi), abs=1e-15)


def test_rt_reflection_antisymmetry():
    for n in range(-6, 6):
        assert K.RT.value(-1 - n) == pytest.approx(-K.RT.value(n), rel=1e-15)


def test_j_kernel_values():
    assert K.J.value(0) == 0.0
    assert K.J.value(1) == pytest.approx(J1, abs=1e-10)
    assert K.J.value(1) > 1.0 / math.pi
    for n in range(1, 6):
        assert K.J.value(-n) == -K.J.value(n)


def test_j_kernel_against_adaptive_quadrature():
    for n in (1, 2, 7):
        pn2 = (math.pi * n) ** 2
        from dhtlab.numerics import csch_sq
        r = integrate(lambda y: 2 * y ** 3 / (y * y + pn2) * csch_sq(y),
                      0.0, math.inf, 1e-12)
        assert K.J.value(n) == pytest.approx((1.0 + r.value) / (math.pi * n),
                                              abs=1e-11)


def test_f_kernel_identity_and_decay():
    assert K.F.value(0) == 0.0
    assert K.F.value(1) == pytest.approx(K.J.value(1) - 1.0 / math.pi, abs=1e-13)
    for n in range(1, 21):
        assert abs(K.J.value(n) - K.HILBERT.value(n) - K.F.value(n)) < 1e-12
    assert 0 < K.F.value(2) < K.F.value(1)
    scaled = [math.pi * n * K.F.value(n) for n in range(1, 51)]
    assert all(b < a for a, b in zip(scaled, scaled[1:]))
    assert scaled[-1] < 2e-4  # tends to zero


def test_domination():
    for n in range(1, 51):
        assert K.J.value(n) > K.HILBERT.value(n) > 0.0


def test_e_kernel_signs_symmetry():
    assert K.E.value(0) == pytest.approx(E0, abs=1e-10)
    assert K.E.value(0) > 0
    assert K.E.value(1) == pytest.approx(E1, abs=1e-12)
    for n in range(1, 51):
        assert K.E.value(n) < 0
    assert K.E.value(-4) == K.E.value(4)


def test_e_kernel_nested_quadrature_oracle():
    # fully independent scalar nested quadrature for one entry
    n = 2

    def inner(y):
        f = lambda t: t * np.sinh(t) / (t * t + (math.pi * n) ** 2)
        return integrate(f, 0.0, float(y), 1e-11).value

    def outer(ys):
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        return np.array([2 * y * float(np.sinh(y) ** -3) * inner(y) for y in ys])

    r = integrate(outer, 0.0, 40.0, 1e-9)
    assert K.E.value(n) == pytest.approx(-r.value, abs=1e-9)


def test_e_zero_sum_with_tail_bound():
    N = 200
    w = K.E.window(N)
    total = abs(float(w.sum()))
    tail = 2.0 * K.e_tail_constant() / N
    assert total <= tail + float(np.sum(K.E.error_window(N)))


def test_e_tail_bound_entrywise():
    c = K.e_tail_constant()
    for n in (1, 2, 5, 20, 100):
        assert abs(K.E.value(n)) <= c / n ** 2


def test_window_matches_pointwise_bitwise():
    w = K.J.window(8)
    for n in range(-8, 9):
        assert w[n + 8] == K.J.value(n)
    we = K.E.window(6)
    for n in range(-6, 7):
        assert we[n + 6] == K.E.value(n)


def test_window_beyond_cache_consistent():
    r = K.HILBERT.cache_radius + 3
    w = K.HILBERT.window_range(r - 1, r + 1)
    assert w[1] == pytest.approx(1.0 / (math.pi * r), rel=1e-15)


def _counted(kernel):
    """A copy of ``kernel`` that records each batch its generator is given."""
    calls = []

    def batch(ns):
        calls.append(ns.copy())
        return kernel.evaluate(ns)

    return K.Kernel(kernel.name, batch), calls


@pytest.mark.parametrize("orig", [K.J, K.E, K.F], ids=["J", "E", "F"])
def test_every_read_is_one_evaluation_bitwise(orig):
    # nothing is kept between reads: each one, inside, across or past
    # |n| = 4096, is one generator call on exactly its indices and returns
    # the bits of ``evaluate`` there, and reading again evaluates again
    k, calls = _counted(orig)
    reads = [(k.window_range, (lo, hi), np.arange(lo, hi + 1), 0)
             for lo, hi in ((-10, 10), (-20, 20), (4000, 4200),
                            (-4200, -4090), (5000, 5100))]
    reads += [(method, (r,), np.arange(-r, r + 1), part)
              for r in (20, 4096, 4097, 5000)
              for method, part in ((k.window, 0), (k.error_window, 1))]
    reads += [(k.value, (n,), np.array([n]), 0) for n in (7, -4096, 4097, -10 ** 6)]
    for read, args, ns, part in reads:
        want = orig.evaluate(ns)[part]
        for _ in range(2):
            calls.clear()
            got = np.asarray(read(*args))
            assert len(calls) == 1, (read.__name__, args)
            assert np.array_equal(calls[0], ns), (read.__name__, args)
            assert got.tobytes() == want.tobytes(), (read.__name__, args)


@pytest.mark.parametrize("orig", [K.J, K.E, K.HILBERT], ids=["J", "E", "H"])
def test_read_is_one_evaluation_into_a_read_only_window(orig):
    k, calls = _counted(orig)
    lo, hi = -5000, 4200
    ns = np.arange(lo, hi + 1)
    w = k.read(lo, hi)
    assert len(calls) == 1 and np.array_equal(calls[0], ns)
    vals, bars = orig.evaluate(ns)
    assert (w.lo, w.hi) == (lo, hi)
    assert w.values.tobytes() == vals.tobytes() and w.bars.tobytes() == bars.tobytes()
    for arr in (w.values, w.bars):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    part = w.window_range(-40, 4100)
    assert np.shares_memory(part, w.values)
    assert part.tobytes() == orig.window_range(-40, 4100).tobytes()
    assert w.window_range(hi, hi)[0] == orig.value(hi)
    for bad in ((lo - 1, 0), (0, hi + 1), (5, 4)):
        with pytest.raises(ValueError, match="outside the window"):
            w.window_range(*bad)
    with pytest.raises(ValueError, match="kernel index"):
        k.read(0, 2 ** 63)
    with pytest.raises(ValueError, match="empty window"):
        k.read(1, 0)
    # the other reads still hand out fresh writable arrays
    assert k.window(3).flags.writeable and k.error_window(3).flags.writeable


@pytest.mark.parametrize("kernel", [K.J, K.F, K.E], ids=["J", "F", "E"])
def test_evaluate_any_index_set_equals_per_index_reads(kernel):
    # dense ranges gather from one |n| range, sparse sets go through a
    # sort; either way each entry has the bits of reading it alone
    rng = np.random.default_rng(11)
    cases = [[5, -3, 5, 0, -40, 40, 33, -31, 32, 5],
             rng.permutation(np.arange(-60, 61)),
             rng.integers(-70, 70, size=50),
             [1, 2 ** 62], [-(2 ** 62), 7, 2 ** 40, 7, -7],
             [2 ** 63 - 1, -(2 ** 63 - 1), 2 ** 63 - 2],
             [10, 12, 14, 16, 18, 11, -10, -12, 18],     # a range with holes
             [31, 32, 33], [-4096], []]
    for ns in cases:
        ns = np.asarray(ns, dtype=np.int64)
        vals, bars = kernel.evaluate(ns)
        one = [kernel.evaluate([n]) for n in ns]
        assert vals.tobytes() == b"".join(v.tobytes() for v, _ in one), ns
        assert bars.tobytes() == b"".join(b.tobytes() for _, b in one), ns


def test_concurrent_readers_get_the_bits_of_evaluate():
    # 4 threads (more than cores, switching often) read overlapping J and
    # E windows, 20 rounds each
    ranges = ((-5000, 5000), (-100, 4200), (3000, 5000), (-40, 40))
    want = {(k.name, lo, hi): k.evaluate(np.arange(lo, hi + 1))[0]
            for k in (K.J, K.E) for lo, hi in ranges}
    want_errs = {(k.name, r): k.evaluate(np.arange(-r, r + 1))[1]
                 for k in (K.J, K.E) for _, r in ranges}
    start = threading.Barrier(4, timeout=60)

    def reader(t):
        start.wait()
        bad = []
        for i in range(20):
            lo, hi = ranges[(t + i) % len(ranges)]
            for k in (K.J, K.E):
                if k.window_range(lo, hi).tobytes() != want[k.name, lo, hi].tobytes():
                    bad.append((k.name, lo, hi))
                if k.error_window(hi).tobytes() != want_errs[k.name, hi].tobytes():
                    bad.append((k.name, hi))
        return bad

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            found = list(pool.map(reader, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert [b for bad in found for b in bad] == []


@pytest.mark.parametrize("read", [
    lambda: K.HILBERT.value(2 ** 63),
    lambda: K.HILBERT.window_range(2 ** 63 - 2, 2 ** 63),
    lambda: K.J.value(-2 ** 63),
    lambda: K.E.value(-2 ** 63),
    lambda: K.J.window_range(2 ** 63 - 2, 2 ** 63 - 1),
    lambda: K.J.error_window(2 ** 63),
    lambda: K.HILBERT.value(2 ** 64),
    lambda: K.J.value(1.5),
    lambda: K.J.value(math.nan),
    lambda: K.J.value(math.inf),
], ids=["H+2^63", "H-range-past-2^63", "J-2^63", "E-2^63", "J-hi+1-overflows",
        "J-error-radius-2^63", "H-2^64", "J-1.5", "J-nan", "J-inf"])
def test_reads_reject_indices_outside_int64(read):
    # these once wrapped (a wrong sign), raised IndexError or OverflowError,
    # or truncated 1.5 to 1
    with pytest.raises(ValueError, match="kernel index"):
        read()


@pytest.mark.parametrize("kernel", list(K.KERNELS.values()), ids=list(K.KERNELS))
def test_reads_at_the_int64_edges(kernel):
    for n in (2 ** 62, -(2 ** 63 - 1), 2 ** 63 - 2):
        want, _ = kernel.evaluate([n])
        assert np.float64(kernel.value(n)).tobytes() == want.tobytes(), n
    got = kernel.window_range(2 ** 63 - 4, 2 ** 63 - 2)
    assert got.tobytes() == kernel.evaluate(np.arange(2 ** 63 - 4, 2 ** 63 - 1))[0].tobytes()
    # integral floats and numpy integers are indices too
    assert kernel.value(3.0) == kernel.value(np.int64(3)) == kernel.value(3)


@pytest.mark.parametrize("read", [
    lambda: K.J.window(2 ** 62),
    lambda: K.J.read(-2 ** 62, 2 ** 62),
    lambda: K.J.window(2 ** 62 - 1),
    lambda: K.HILBERT.window_range(-(2 ** 63 - 1), 2 ** 63 - 2),
    lambda: K.E.error_window(2 ** 59),
    lambda: KE.window_values("J", 2 ** 62),
    lambda: KE.window_values("H", 2 ** 59),
], ids=["J-window-2^62", "J-read-2^62", "J-window-2^62-1", "H-whole-int64",
        "E-error-2^59", "dump-J-2^62", "dump-H-2^59"])
def test_reads_reject_windows_too_long_to_hold(read):
    # more than 2^60 - 1 entries, whose bytes int64 cannot count: the first
    # four once returned an empty window (np.arange wraps near 2^63 entries).
    # The length is checked before anything is allocated.
    with pytest.raises(ValueError, match="entries"):
        read()


@pytest.mark.parametrize("name", list(K.KERNELS))
def test_scalar_entries_equal_the_array_path(name):
    # kernel_entries evaluates one Python int at a time, with no numpy: the
    # literals, the seam, the series and the int64 edges all have the bits
    # of Kernel.evaluate, and so does its window
    kernel = K.KERNELS[name]
    ns = list(range(-70, 71)) + [2 ** 62]
    ns += [s * n for n in (31, 32, 33, 4096, 10 ** 6, 2 ** 63 - 2) for s in (1, -1)]
    want, _ = kernel.evaluate(ns)
    got = np.array([KE.entry(name, n) for n in ns])
    assert got.tobytes() == want.tobytes()
    for r in (0, 1, 33, 70):
        assert np.array(KE.window_values(name, r)).tobytes() == kernel.window(r).tobytes()
    with pytest.raises(ValueError, match="kernel index"):
        KE.entry(name, 2 ** 63 - 1)


def test_parity_flags():
    assert KE.PARITY["J"] == "odd" and KE.PARITY["E"] == "even"
    assert KE.PARITY["RT"] == "none"


def test_error_windows_are_small():
    assert float(np.max(K.J.error_window(16))) < 1e-12
    assert float(np.max(K.E.error_window(16))) < 1e-12


# -- literals and moment series ------------------------------------------------

EPS = np.finfo(float).eps


def _bar(kernel, n):
    """The reported error bar of kernel entry n (any sign)."""
    r = max(abs(n), 1)
    return float(kernel.error_window(r)[n + r])


def _mp_f_integral(mp, n):
    a2 = (mp.pi * n) ** 2
    return mp.quad(lambda y: 2 * y ** 3 / ((y * y + a2) * mp.sinh(y) ** 2),
                   [0, 1, 5, 20, 60, mp.inf])


def _mp_e(mp, n):
    # int_0^y t sinh t / (t^2 + a^2) dt = (-1)^n Re Shi(y - i a) for a = pi n
    a = mp.pi * n
    inner = lambda y: (-1) ** n * mp.re(mp.shi(y - 1j * a))
    return -mp.quad(lambda y: 2 * y / mp.sinh(y) ** 3 * inner(y),
                    [0, 1, 5, 20, 60, mp.inf])


@pytest.mark.parametrize("n", [1, 7, KE.N0 - 1, KE.N0, 1000, 10 ** 5])
def test_j_f_within_bar_of_mpmath_oracle(n):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        integral = _mp_f_integral(mp, n)
        for kernel, true in ((K.J, (1 + integral) / (mp.pi * n)),
                             (K.F, integral / (mp.pi * n))):
            for m, sign in ((n, 1), (-n, -1)):
                err = abs(mp.mpf(kernel.value(m)) - sign * true)
                assert err <= _bar(kernel, m), (kernel.name, m)


def test_whole_f_table_within_bar_of_mpmath_oracle():
    # every F literal within half an ulp of the integral (a quadrature table
    # once had entries 3 ulps off)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for n in range(1, KE.N0):
            true = _mp_f_integral(mp, n) / (mp.pi * n)
            assert abs(mp.mpf(K.F.value(n)) - true) <= _bar(K.F, n), n


@pytest.mark.parametrize("n", [1, 50, 300])
def test_e_within_bar_of_mpmath_oracle(n):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        true = _mp_e(mp, n)
        assert abs(mp.mpf(K.E.value(n)) - true) <= _bar(K.E, n)


def test_literals_and_series_agree_at_the_seam():
    # the last literal (n = N0 - 1) and the first series entry (n = N0) each
    # lie within their own bars of the integral, on both sides of n = 0
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for n in (KE.N0 - 1, KE.N0):
            integral = _mp_f_integral(mp, n)
            for kernel, true in ((K.J, (1 + integral) / (mp.pi * n)),
                                 (K.F, integral / (mp.pi * n)), (K.E, _mp_e(mp, n))):
                sign = 1 if KE.PARITY[kernel.name] == "even" else -1
                for m, s in ((n, 1), (-n, sign)):
                    err = abs(mp.mpf(kernel.value(m)) - s * true)
                    assert err <= _bar(kernel, m), (kernel.name, m)


def test_series_moments():
    big_m = KE._E_MOMENTS
    m, m_err = KE._J_F_MOMENTS, KE._J_F_MOMENT_BARS
    # M_0 = 1 exactly: its integrand is -d/dy [y^2 / sinh^2 y]
    assert big_m[0] == 1.0
    assert K.e_tail_constant() == 1.0 / math.pi ** 2
    # closed-form J/F moments against their defining integrals
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for k in range(KE._K + 1):
            true = mp.quad(lambda y: 2 * y ** (2 * k + 3) / mp.sinh(y) ** 2,
                           [0, 1, 5, 20, 60, mp.inf])
            assert abs(mp.mpf(m[k]) - true) <= m_err[k]
    # at n0 the series remainder is below one rounding of the entry
    a2 = (math.pi * KE.N0) ** 2
    assert m[KE._K] / a2 ** (KE._K + 1) <= EPS * abs(K.F.value(KE.N0)) * math.pi * KE.N0
    assert big_m[KE._K] / a2 ** (KE._K + 1) <= EPS * abs(K.E.value(KE.N0))


@pytest.mark.parametrize("kernel,radius", [(K.F, 31), (K.E, 881), (K.F, 5873)])
def test_parity_is_exact(kernel, radius):
    sign = 1.0 if KE.PARITY[kernel.name] == "even" else -1.0
    w = kernel.window(radius)
    errs = kernel.error_window(radius)
    assert np.array_equal(w[radius + 1:], sign * w[radius - 1::-1])
    assert np.array_equal(errs[radius + 1:], errs[radius - 1::-1])


def test_entries_do_not_depend_on_the_window():
    w1 = K.J.window(1)
    w = K.J.window(5000)
    assert w[5000 + 1] == w1[2] and w[5000 - 1] == w1[0]
    assert K.E.window(5000)[5000 + 40] == K.E.window_range(40, 40)[0]


def test_zeta_literals_and_moments():
    # the literals that keep scipy out of kernel dumps are scipy's values,
    # correctly rounded, and the J/F moments built from them are < 0.4 eps off
    mp = pytest.importorskip("mpmath")
    from scipy.special import zeta
    s = np.array([2.0 * k + 3.0 for k in range(KE._K + 1)])
    assert np.array_equal(np.array(KE._ZETA_ODD), zeta(s))
    m = KE._J_F_MOMENTS
    with mp.workdps(40):
        for k, z in enumerate(KE._ZETA_ODD):
            assert z == float(mp.zeta(2 * k + 3))
            true = mp.ldexp(mp.factorial(2 * k + 3), -2 * k - 1) * mp.zeta(2 * k + 3)
            assert abs(mp.mpf(m[k]) - true) <= 0.4 * EPS * true


@pytest.mark.parametrize("kernel", [K.HILBERT, K.J])
def test_windows_reject_negative_radius(kernel):
    # a negative radius used to give an empty error window, silently
    for method in (kernel.window, kernel.error_window):
        with pytest.raises(ValueError, match="radius"):
            method(-3)


# -- regeneration of the literals -------------------------------------------------

GENERATOR = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                         "make_kernel_literals.py")


def _generator():
    pytest.importorskip("mpmath")
    spec = importlib.util.spec_from_file_location("make_kernel_literals", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("table,index", [
    ("_J_SMALL", 1), ("_J_SMALL", 7), ("_F_SMALL", 31), ("_E_SMALL", 0),
    ("_E_SMALL", 1), ("_E_MOMENTS", 0), ("_E_MOMENTS", 8)])
def test_literal_sample_regenerates(table, index):
    # each sampled literal is the double nearest the generator's 30-digit value
    gen = _generator()
    fn = {"_J_SMALL": gen.j_value, "_F_SMALL": gen.f_value,
          "_E_SMALL": gen.e_value, "_E_MOMENTS": gen.e_moment}[table]
    with gen.mp.workdps(30):
        assert float(fn(index)) == getattr(KE, table)[index]


@pytest.mark.heavy
def test_literal_block_regenerates():
    # every literal at 30 and 40 digits, compared with the block in kernel_entries.py
    _generator()
    proc = subprocess.run([sys.executable, GENERATOR, "--check"],
                          capture_output=True, text=True, timeout=1200)
    assert proc.returncode == 0, proc.stderr
