import dataclasses
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtlab import kernels as K
from dhtlab import seqops
from dhtlab.norms import estimate_norm
from dhtlab.numerics import Exponent
from dhtlab.seqops import (ConvOperator, Seq, convolve, fft_convolve, lp_norm,
                           _convolve_dense_direct)

# frozen direct-summation value: sqrt(2 sum_{n=1..64} (pi n)^-2)
H_WINDOW64_L2 = 0.5746230539504595


def test_lp_norm_examples():
    assert lp_norm(Seq.delta(0), 3.0) == 1.0
    assert lp_norm(Seq(0, np.ones(4)), 2.0) == 2.0
    a = Seq(1, 1.0 / (math.pi * np.arange(1, 11)))
    h10 = sum(1.0 / n for n in range(1, 11))
    assert lp_norm(a, 1.0) == pytest.approx(h10 / math.pi, abs=1e-14)
    assert lp_norm(a, Exponent(2.0)) == pytest.approx(
        math.sqrt(sum(1.0 / (math.pi * n) ** 2 for n in range(1, 11))), abs=1e-14)
    assert lp_norm(a, math.inf) == pytest.approx(1.0 / math.pi, abs=1e-15)


@pytest.mark.parametrize("p", [0.5, float("nan"), 0.0, -1.0])
def test_lp_norm_rejects_exponents_below_one(p):
    for a in (Seq(0, np.array([1.0, -2.0, 3.0])), Seq(0, np.zeros(0))):
        with pytest.raises(ValueError, match="p must be >= 1"):
            lp_norm(a, p)


def test_seq_semantics():
    a = Seq(2, np.array([0.0, 1.0, 0.0, -2.0, 0.0]))
    t = a.trimmed()
    assert t.offset == 3 and list(t.values) == [1.0, 0.0, -2.0]
    assert a[3] == 1.0 and a[100] == 0.0
    assert a.shift(4)[7] == 1.0
    assert Seq.from_dict({}).is_zero()


def test_convolve_delta_returns_kernel():
    out = convolve(K.HILBERT, Seq.delta(0), 5)
    assert np.array_equal(out.values, K.HILBERT.window(5))
    assert out[1] == pytest.approx(1.0 / math.pi, abs=1e-15)


def test_convolve_two_atoms():
    a = Seq.from_dict({0: 1.0, 1: 1.0})
    assert convolve(K.HILBERT, a, 3)[0] == pytest.approx(-1.0 / math.pi, abs=1e-15)


def test_convolve_j_delta():
    assert convolve(K.J, Seq.delta(0), 2)[1] == K.J.value(1)


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=9),
       st.lists(st.floats(-5, 5), min_size=1, max_size=9),
       st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=40, deadline=None)
def test_convolve_linearity(av, bv, alpha, beta):
    a, b = Seq(-2, np.array(av)), Seq(-1, np.array(bv))
    combo = Seq.from_dict({n: alpha * a[n] + beta * b[n] for n in range(-12, 13)})
    lhs = convolve(K.HILBERT, combo, 8)
    ra = convolve(K.HILBERT, a, 8)
    rb = convolve(K.HILBERT, b, 8)
    scale = max(1.0, np.max(np.abs(lhs.values)))
    for n in range(-8, 9):
        assert abs(lhs[n] - (alpha * ra[n] + beta * rb[n])) <= 1e-12 * scale


def test_translation_equivariance_exact():
    a = Seq.from_dict({-1: 0.7, 2: -1.3})
    base = convolve(K.J, a, 8)
    shifted = convolve(K.J, a.shift(3), 11)
    for n in range(-8, 9):
        assert shifted[n + 3] == base[n]


def test_direct_vs_fft_large_support():
    rng = np.random.default_rng(1)
    v = rng.choice([-1.0, 1.0], size=2 ** 16)
    kw = K.HILBERT.window(2 ** 10)
    direct = _convolve_dense_direct(v[:2048], kw)
    from scipy.signal import fftconvolve
    fast = fftconvolve(v[:2048], kw)
    rel = np.max(np.abs(direct - fast)) / np.max(np.abs(direct))
    assert rel < 1e-12
    # the public path flips to FFT above the threshold and stays consistent
    big = Seq(-(2 ** 15), v)
    small_piece = Seq(-(2 ** 15), v[:400])
    out_big = convolve(K.HILBERT, big, 64)
    out_small = convolve(K.HILBERT, small_piece, 64)
    manual = out_big.values - out_small.values  # linearity across paths
    rest = Seq(-(2 ** 15) + 400, v[400:])
    out_rest = convolve(K.HILBERT, rest, 64)
    assert np.max(np.abs(manual - out_rest.values)) < 1e-12 * max(
        1.0, np.max(np.abs(out_big.values)))


@given(st.lists(st.floats(-3, 3), min_size=1, max_size=7),
       st.lists(st.floats(-3, 3), min_size=1, max_size=7))
@settings(max_examples=30, deadline=None)
def test_adjoint_inner_product(av, bv):
    a, b = Seq(-3, np.array(av)), Seq(0, np.array(bv))
    if a.trimmed().is_zero() or b.trimmed().is_zero():
        return
    Ta = convolve(K.J, a, 12)
    Ttb = convolve(K.Kernel("J^T", lambda ns: K.J.evaluate(-ns)), b, 12)
    ip1 = math.fsum(Ta[n] * b[n] for n in range(-12, 13))
    ip2 = math.fsum(a[n] * Ttb[n] for n in range(-12, 13))
    scale = max(1.0, abs(ip1))
    assert abs(ip1 - ip2) <= 1e-12 * scale


def test_conv_operator_truncation():
    op = ConvOperator(K.HILBERT, 8)
    a = Seq.from_dict({0: 1.0, 20: 100.0})   # the far atom must be cut by P_N
    out = op.apply_dense(a.to_dense(-8, 8))
    expect = convolve(K.HILBERT, Seq.delta(0), 8)
    assert np.allclose(out, expect.values, rtol=0, atol=1e-15)


def test_conv_operator_matrix_matches_apply():
    op = ConvOperator(K.J, 10)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(21)
    assert np.max(np.abs(op.matrix() @ v - op.apply_dense(v))) < 1e-13


def test_conv_operator_window_reads():
    op = ConvOperator(K.HILBERT, 64)
    v = np.zeros(129)
    v[64] = 1.0
    val = math.sqrt(np.sum(op.apply_dense(v) ** 2))
    oracle = math.sqrt(2 * sum(1.0 / (math.pi * n) ** 2 for n in range(1, 65)))
    assert val == pytest.approx(oracle, abs=1e-13)
    assert val == pytest.approx(H_WINDOW64_L2, abs=1e-12)


@pytest.mark.parametrize("n", [8, 300])        # direct and FFT paths
@pytest.mark.parametrize("method", ["apply_dense", "apply_adjoint_dense"])
def test_conv_operator_rejects_bad_shape(n, method):
    apply = getattr(ConvOperator(K.HILBERT, n), method)
    for v in (np.ones(2 * n), np.ones(2 * n + 2), np.ones((2 * n + 1, 1)),
              np.ones((1, 2 * n + 1)), np.float64(1.0)):
        with pytest.raises(ValueError, match="length 2N"):
            apply(v)
    assert apply(np.ones(2 * n + 1)).shape == (2 * n + 1,)


def test_conv_operator_is_frozen():
    # an operator's window is read for its radius and kernel when it is
    # built, so changing either afterwards would make it answer stale
    op = ConvOperator(K.HILBERT, 100)
    v = np.random.default_rng(4).standard_normal(201)
    want = op.apply_dense(v)
    for name, value in (("window_radius", 50), ("kernel", K.J)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(op, name, value)
    assert op.window_radius == 100 and op.kernel is K.HILBERT
    assert np.array_equal(op.apply_dense(v), want)


def test_non_integer_sizes_are_rejected():
    # a float radius used to build an operator whose every matvec raised
    # TypeError, and a float offset was truncated without a word
    for radius in (2.5, 2.0):
        with pytest.raises(ValueError, match=f"window_radius must be an integer, got {radius}"):
            ConvOperator(K.HILBERT, radius)
    with pytest.raises(ValueError, match="offset must be an integer, got 0.5"):
        Seq(0.5, [1.0])


def test_numpy_integer_sizes_are_accepted():
    v = np.ones(7)
    op = ConvOperator(K.HILBERT, np.int64(3))
    assert np.array_equal(op.apply_dense(v), ConvOperator(K.HILBERT, 3).apply_dense(v))
    assert Seq(np.int64(2), [1.0]).offset == 2


def test_each_operator_reads_its_window_once_even_under_threads():
    # two threads, switching often, run norm estimates at different radii on
    # a kernel that counts its evaluations: each operator reads its window
    # once, when it is built, and builds its spectrum from that read, so
    # neither evicts the other's and the values are those of one thread
    reads = []

    def batch(ns):
        reads.append(len(ns))
        return K.J.evaluate(ns)

    counted = K.Kernel("J", batch)
    radii = (2048, 4096)
    ops = [ConvOperator(counted, n) for n in radii]
    assert sorted(reads) == [4 * n + 1 for n in radii]
    reads.clear()
    alone = [estimate_norm(op, Exponent(4.0), max_iter=30, tol=1e-300) for op in ops]
    results = {}

    def run(i):
        results[i] = estimate_norm(ops[i], Exponent(4.0), max_iter=30, tol=1e-300)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert reads == []
    for i, ref in enumerate(alone):
        assert results[i].value == ref.value and results[i].history == ref.history
        assert np.array_equal(results[i].certificate.values, ref.certificate.values)

    # interleaved operators, sizes and directions give each operator the
    # bits of a fresh operator run alone
    j_t = K.Kernel("J^T", lambda ns: K.J.evaluate(-ns))
    h2 = K.Kernel("2H", lambda ns: (2.0 * K.HILBERT.evaluate(ns)[0],
                                    2.0 * K.HILBERT.evaluate(ns)[1]))
    ops = [ConvOperator(K.HILBERT, 256), ConvOperator(K.J, 1024),
           ConvOperator(j_t, 256), ConvOperator(h2, 256), ConvOperator(K.J, 100)]
    rng = np.random.default_rng(5)
    calls = [(op, adjoint, rng.standard_normal(op.size))
             for _ in range(3) for op in ops for adjoint in (False, True, False)]

    def apply(op, adjoint, v):
        return op.apply_adjoint_dense(v) if adjoint else op.apply_dense(v)

    for op, adjoint, v in calls:
        fresh = ConvOperator(op.kernel, op.window_radius)
        assert np.array_equal(apply(op, adjoint, v), apply(fresh, adjoint, v))


@pytest.mark.parametrize("name", ["H", "J", "E", "RT"])   # odd, odd, even, none
@pytest.mark.parametrize("n", [256, 257, 1024])
def test_conv_operator_fft_path_matches_dense_matrix(name, n):
    op = ConvOperator(K.KERNELS[name], n)
    m = op.matrix()
    rng = np.random.default_rng(n)
    for _ in range(3):
        v = rng.standard_normal(op.size)
        for got, ref in ((op.apply_dense(v), m @ v),
                         (op.apply_adjoint_dense(v), m.T @ v)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_conv_operator_direct_path_below_threshold():
    op = ConvOperator(K.J, 255)                   # 2N+1 = 511 <= 512
    kw = K.J.window(510)
    v = np.random.default_rng(6).standard_normal(511)
    assert np.array_equal(op.apply_dense(v), _convolve_dense_direct(v, kw)[510:1021])
    assert np.array_equal(op.apply_adjoint_dense(v),
                          _convolve_dense_direct(v, kw[::-1])[510:1021])


@pytest.mark.parametrize("na,nk", [(1, 1), (2, 7), (513, 1025), (1000, 1000),
                                   (4097, 16385), (600, 33000), (8321, 16641)])
def test_fft_convolve_matches_scipy_signal_bitwise(na, nk):
    from scipy.signal import fftconvolve
    rng = np.random.default_rng(na + nk)
    a, k = rng.standard_normal(na), rng.standard_normal(nk)
    assert np.array_equal(fft_convolve(a, k), fftconvolve(a, k))


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len
    assert all(seqops.next_fast_len(n) == next_fast_len(n, True)
               for n in range(1, 100_001))


SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _run_fresh(code):
    """stdout of ``code`` run in a fresh interpreter that imports from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_package_does_not_import_scipy_signal():
    code = ("import sys, pkgutil, importlib, dhtlab\n"
            "for m in pkgutil.iter_modules(dhtlab.__path__):\n"
            "    importlib.import_module('dhtlab.' + m.name)\n"
            "print('scipy.signal' in sys.modules)\n")
    assert _run_fresh(code).strip() == "False"


def test_kernel_dumps_do_not_import_scipy():
    # H, J, F and E dumps, from the literals (radius < 32) and the series
    # (past the cache radius), factorize inside and past the cache radius,
    # verify, and norms (FFT path), weaktype and mc runs load numpy only
    runs = [["kernels", "--kernel", k, "--radius", r]
            for k in ("H", "J", "F", "E") for r in ("10", "5000")]
    runs += [["factorize", "--window", w] for w in ("1024", "4160")]
    runs += [["verify", "--suite", "section3"],
             ["norms", "--kernel", "H", "--p", "4", "--radii", "300"],
             ["weaktype", "--budget", "3"], ["mc", "--paths", "50"]]
    code = ("import io, sys, contextlib\n"
            "from dhtlab.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert _run_fresh(code).strip() == "[]"


def test_kernel_dumps_do_not_import_numpy():
    # a dump reads dhtlab.kernel_entries alone: all seven kernels, from the
    # literals and the series, in both formats, load no numpy; nor does a
    # bare `import dhtlab`
    runs = [["kernels", "--kernel", k, "--radius", r, "--format", f]
            for k in ("H", "RT", "K", "ADP", "J", "F", "E")
            for r in ("10", "5000") for f in ("csv", "json")]
    code = ("import io, sys, contextlib\n"
            "import dhtlab\n"
            "print('numpy' in sys.modules)\n"
            "from dhtlab.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print('numpy' in sys.modules)\n")
    assert _run_fresh(code).split() == ["False", "False"]
    # the module entry point itself: no numpy in the import log
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "dhtlab.cli",
                           "kernels", "--kernel", "J", "--radius", "40"],
                          env=env, check=True, capture_output=True, text=True)
    imported = [ln.rsplit("|", 1)[-1].strip() for ln in proc.stderr.splitlines()
                if ln.startswith("import time:")]
    assert "dhtlab.kernel_entries" in imported
    assert [m for m in imported if m.split(".")[0] == "numpy"] == []


def test_halfplane_imports_no_other_dhtlab_module():
    # halfplane is the one home of p_n, G and h: it depends on no other
    # dhtlab module (beyond what the package itself loads), and the Monte
    # Carlo side reaches the potentials without the identity harness
    code = ("import sys, dhtlab\n"
            "before = set(sys.modules)\n"
            "import dhtlab.halfplane\n"
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('dhtlab')))\n"
            "import dhtlab.hprocess_mc\n"
            "print('dhtlab.identities' in sys.modules)\n")
    assert _run_fresh(code).split() == ["['dhtlab.halfplane']", "False"]


def _direct_reference(a, k):
    """The product-per-entry loop: a_j k added for each nonzero a_j in
    ascending j."""
    out = np.zeros(len(a) + len(k) - 1)
    for j in range(len(a)):
        aj = a[j]
        if aj != 0.0:
            out[j: j + len(k)] += aj * k
    return out


def _direct_cases():
    rng = np.random.default_rng(17)
    c = 1.0 / 65.0
    return {
        "signs": rng.choice([-c, c], size=65),
        "integer_multiples": rng.integers(-3, 4, size=40) / 37.0,
        "interleaved_zeros": np.where(np.arange(33) % 3 == 1, 0.0,
                                      rng.choice([-0.25, 0.25], size=33)),
        "negative_zeros": np.array([-0.0, 0.5, -0.0, -0.5, -0.5, 0.0, 0.5, -0.0]),
        "runs": np.array([1.0, 1.0, -1.0, 2.0, -2.0, 2.0, 1.0, -1.0]),
        "dense": rng.standard_normal(511),
    }


@pytest.mark.parametrize("case", sorted(_direct_cases()))
def test_convolve_dense_direct_matches_per_entry_products_bitwise(case):
    a = _direct_cases()[case]
    rng = np.random.default_rng(3)
    kernels = [rng.standard_normal(101), K.KAK.window(50),
               np.array([0.0, -0.0, 1.5, -0.0, -2.25])]
    for k in kernels:
        assert _convolve_dense_direct(a, k).tobytes() == _direct_reference(a, k).tobytes()
