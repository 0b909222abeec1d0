import hashlib
import math

import numpy as np
import pytest
import scipy.linalg as sla

from dhtlab import kernels as K
from dhtlab.norms import estimate_norm, norm_sweep, sweep_is_monotone
from dhtlab.norms import test_vector_bound as vector_bound
from dhtlab.numerics import Exponent, pichorides_constant
from dhtlab.seqops import ConvOperator, Seq, adjoint_kernel, scale_kernel

P2 = Exponent(2.0)
P4 = Exponent(4.0)
P43 = Exponent(4.0 / 3.0)


def _nan_kernel():
    """H with a NaN at n = 3."""
    def batch(ns):
        vals, errs = K.HILBERT.evaluate(ns)
        return np.where(np.asarray(ns) == 3, np.nan, vals), errs
    return K.Kernel("H+nan", batch, parity="none")


def _identity_kernel():
    def batch(ns):
        v = np.where(np.asarray(ns) == 0, 1.0, 0.0).astype(float)
        return v, np.zeros_like(v)
    return K.Kernel("I", batch, parity="even")


def test_vector_bound_examples():
    op = ConvOperator(K.HILBERT, 64)
    val = vector_bound(op, Seq.delta(0), P2)
    oracle = math.sqrt(2 * sum(1.0 / (math.pi * n) ** 2 for n in range(1, 65)))
    assert val == pytest.approx(oracle, abs=1e-12)
    ident = ConvOperator(_identity_kernel(), 32)
    assert vector_bound(ident, Seq.from_dict({1: 2.0, -3: 1.0}), P4) \
        == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        vector_bound(op, Seq.from_dict({}), P2)


def test_untruncated_convolution_translation():
    # away from truncation, the bound transported by translation is identical
    from dhtlab.seqops import convolve, lp_norm
    a, b = Seq.delta(0), Seq.delta(5)
    ra = convolve(K.HILBERT, a, 20)
    rb = convolve(K.HILBERT, b, 25)
    va = math.fsum(abs(ra[n]) ** 2 for n in range(-15, 16))
    vb = math.fsum(abs(rb[n + 5]) ** 2 for n in range(-15, 16))
    assert va == vb


def test_identity_operator_estimate():
    op = ConvOperator(_identity_kernel(), 16)
    for e in (P2, P4):
        est = estimate_norm(op, e)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.converged and est.iterations <= 4


def test_zero_operator_estimate():
    def batch(ns):
        z = np.zeros(len(ns))
        return z, z
    op = ConvOperator(K.Kernel("0", batch, parity="even"), 8)
    est = estimate_norm(op, P2)
    assert est.value == 0.0 and est.converged


def test_monotone_history():
    est = estimate_norm(ConvOperator(K.HILBERT, 128), P4, max_iter=2000,
                        tol=1e-12)
    h = est.history
    assert all(b >= a - 1e-12 for a, b in zip(h, h[1:]))
    # p = 2: sqrt(theta_max) rises by interlacing, up to eigh's rounding
    h = estimate_norm(ConvOperator(K.HILBERT, 128), P2).history
    assert all(b >= a - 1e-14 for a, b in zip(h, h[1:]))


def test_certificate_reproduces_value():
    op = ConvOperator(K.J, 64)
    est = estimate_norm(op, P4, max_iter=2000, tol=1e-11)
    recomputed = vector_bound(op, est.certificate, P4)
    assert recomputed == pytest.approx(est.value, abs=1e-10)


@pytest.mark.parametrize("N", [64, 256])
def test_p2_matches_dense_svd(N):
    # H and J at the default budget (max_iter 500, tol 1e-9).  KAK's leading
    # singular values cluster within ~1e-11 of 1, so at tol 1e-9 its Ritz
    # vector mixes the cluster and its value is only ~2e-11 below sigma;
    # tol 1e-13 resolves it
    for kern, tol in ((K.HILBERT, 1e-9), (K.J, 1e-9), (K.KAK, 1e-13)):
        op = ConvOperator(kern, N)
        sigma = float(sla.svdvals(op.matrix())[0])
        est = estimate_norm(op, P2, tol=tol)
        assert est.converged, kern.name
        assert abs(est.value - sigma) <= 1e-12 * sigma, kern.name


@pytest.mark.parametrize("N", [1, 4, 8])
def test_p2_space_smaller_than_basis(N):
    # 2N+1 is at most the Krylov basis size.  Below rounding, at tol 1e-18,
    # only an invariant subspace (beta = 0) ends a run, by step 2N+1
    for kern in (K.HILBERT, K.J, K.KAK):
        op = ConvOperator(kern, N)
        sigma = float(sla.svdvals(op.matrix())[0])
        est = estimate_norm(op, P2, tol=1e-18)
        assert est.converged and est.residual == 0.0, kern.name
        assert est.iterations <= 2 * N + 1, kern.name
        assert abs(est.value - sigma) <= 1e-14, kern.name
        if kern is not K.KAK:      # KAK's leading cluster needs a small tol
            assert abs(estimate_norm(op, P2).value - sigma) <= 1e-14


def test_p2_exhausted_budget():
    op = ConvOperator(K.J, 256)
    est = estimate_norm(op, P2, max_iter=3)
    assert not est.converged
    assert est.iterations == 3 == len(est.history)
    assert vector_bound(op, est.certificate, P2) == pytest.approx(est.value,
                                                                  rel=1e-12)


@pytest.mark.parametrize("N", [16, 600])      # direct and FFT matvec
@pytest.mark.parametrize("p", [4.0 / 3.0, 2.0, 4.0])
def test_nan_kernel_fails_loudly(p, N):
    op = ConvOperator(_nan_kernel(), N)
    with pytest.raises(ValueError, match="non-finite"):
        estimate_norm(op, Exponent(p))


def test_duality_agreement():
    op = ConvOperator(K.J, 128)
    op_t = ConvOperator(adjoint_kernel(K.J), 128)
    est_p = estimate_norm(op, P4, max_iter=4000, tol=1e-12)
    est_q = estimate_norm(op_t, P43, max_iter=4000, tol=1e-12)
    assert abs(est_p.value - est_q.value) < 1e-6


def test_scaling_homogeneity_exact():
    op = ConvOperator(K.HILBERT, 32)
    op2 = ConvOperator(scale_kernel(K.HILBERT, 2.0), 32)
    # a tiny tolerance pins both runs to the same iteration count, so the
    # homogeneity of every operation makes the doubling exact
    e1 = estimate_norm(op, P2, max_iter=60, tol=1e-18)
    e2 = estimate_norm(op2, P2, max_iter=60, tol=1e-18)
    assert e2.value == 2.0 * e1.value
    assert np.array_equal(e2.certificate.values, e1.certificate.values)


def test_unitary_variants_close_to_one_at_p2():
    for kern in (K.KAK, K.RT):
        ests = norm_sweep(kern, P2, [64, 256], max_iter=3000, tol=1e-11)
        for est in ests:
            assert est.value <= 1.0 + 1e-9
        assert ests[1].value > ests[0].value - 1e-10


def test_sweep_monotone_and_bounded():
    ests = norm_sweep(K.HILBERT, P2, [64, 256, 1024], max_iter=2000, tol=1e-10)
    vals = [e.value for e in ests]
    assert sweep_is_monotone(ests, 1e-10)
    assert all(v <= 1.0 + 1e-9 for v in vals)
    assert vals[0] < vals[1] < vals[2]


def test_estimate_validates_arguments():
    op = ConvOperator(K.HILBERT, 8)
    with pytest.raises(ValueError):
        estimate_norm(op, P2, max_iter=0)
    with pytest.raises(ValueError):
        estimate_norm(op, P2, tol=0.0)


# (value.hex(), iterations, SHA-256 of the history hexes, the certificate
# offset and bytes) at max_iter 200.  Captured when the FFT matvec became a
# circular convolution at next_fast_len(4N+1) on numpy.fft; every pinned
# operator takes that path.  The J rows were recaptured when the |n| < 32
# entries became correctly rounded literals: the parent's entries through
# the same code reproduce the former rows bit for bit, and the values moved
# by -2 to +2 ulps with the same iteration counts.  The p = 2 rows were
# recaptured when p = 2 moved from the power iteration to Krylov-Schur on
# T'T; their value is checked against a dense SVD in
# test_p2_matches_dense_svd instead of LINEAR_FFT_PINS.
ESTIMATE_PINS = {
    ('H', 256, 1.3333333333333333): ('0x1.a3cd72ca1c68bp+0', 12,
        '88df743ce681c832c3de778af4ad48bbb25ae8171bd560854dd6be0a4d0d1d01'),
    ('H', 256, 2.0): ('0x1.fcb189b9e67abp-1', 67,
        '436dc42c5c5ae64b98da155a6d29ce1bfc70224cabf92c80797380bc377572ca'),
    ('H', 256, 4.0): ('0x1.a3cd72ca08050p+0', 10,
        'cc0f6f86927ccd77c476a58d2a216e2eca71fefd29a4dd92536283ce5015263e'),
    ('H', 1024, 1.3333333333333333): ('0x1.c4c0b106d1004p+0', 12,
        '6addfa8a67d344b6c0be59e6c2b3ea5166b1d3b9330bcd140648f97d4eff233f'),
    ('H', 1024, 2.0): ('0x1.ff147726d08cbp-1', 133,
        '363fd83d8239db84df842bda005d9fc7dc6ff0835232b4071419d6082aad0eb6'),
    ('H', 1024, 4.0): ('0x1.c4c0b1067d539p+0', 10,
        '371b9dd6d635bb19b69da41bdc6690ea613937d88fe56f1b6abf191394043532'),
    ('J', 256, 1.3333333333333333): ('0x1.b9c371d4120aap+0', 11,
        '4b24b9cc14d07d90d038f0d60b236e6eb1f5c75f3a27a31e831263ace3339359'),
    ('J', 256, 2.0): ('0x1.ffee74b582bd1p-1', 200,
        '25d93dcf4bd79895126e4146d9480cbfb56446000d49b7f06d60f2bde4ce8fac'),
    ('J', 256, 4.0): ('0x1.b9c371d3f6855p+0', 9,
        '3dd2f9e0274a2fe747d9f4552e784c2fc177f311c302d301dcd48c39d388062b'),
    ('J', 1024, 1.3333333333333333): ('0x1.d69c65337675cp+0', 11,
        '896cad2117c5103de76f7f37082c3abbf6a80e438c124c26994c4ebf27ee3881'),
    ('J', 1024, 2.0): ('0x1.fffe383ca8b5dp-1', 200,
        '9ac0bc3ff0c2357ffbddde0af9dbb20e44c528ed644191c8310ee72eff2991b3'),
    ('J', 1024, 4.0): ('0x1.d69c6532de0dbp+0', 9,
        '486e713a10806ee5e1bc541908de8fe98f24eace0e68678c6dd4e10f95e97675'),
    ('K', 256, 1.3333333333333333): ('0x1.d11f8c07a6303p+0', 400,
        '27713b90d5fe1f36a429b65c02f54c9cf1f1dce58be48281ed13cadd77249c73'),
    ('K', 256, 2.0): ('0x1.ffffffffcec61p-1', 23,
        '37386e92886f98e01bd92995b3e4af28af8748f6a5dc9bed59c290b08a8805b7'),
    ('K', 256, 4.0): ('0x1.d11f87a1046bdp+0', 200,
        '7b7f7a6df3d656f9854f734042da498793b8c013638a4ab31a86122400009f60'),
    ('K', 1024, 1.3333333333333333): ('0x1.e97979ad2bc84p+0', 15,
        '78c6eced19eff040f1e42c2ea3a2ddfdeb93967b71c857a4ed991b4ad7c2987e'),
    ('K', 1024, 2.0): ('0x1.ffffffffe9291p-1', 36,
        '49502edf6acd38456593cd8a1f5b4d34a35392255e37ad6586cd779e6bd771fd'),
    ('K', 1024, 4.0): ('0x1.e97979a970212p+0', 13,
        'f7956cd1c9107026fe0c65d1645aea718137c281789c9792d97ca4059fbe2267'),
}

# (value.hex(), iterations) of the p != 2 runs on the linear convolution at
# next_fast_len(6N+1) on scipy.fft that the circular one replaced: the
# iteration counts are the same and no value moved by more than 3 ulps
LINEAR_FFT_PINS = {
    ('H', 256, 1.3333333333333333): ('0x1.a3cd72ca1c68bp+0', 12),
    ('H', 256, 4.0): ('0x1.a3cd72ca0804fp+0', 10),
    ('H', 1024, 1.3333333333333333): ('0x1.c4c0b106d1003p+0', 12),
    ('H', 1024, 4.0): ('0x1.c4c0b1067d539p+0', 10),
    ('J', 256, 1.3333333333333333): ('0x1.b9c371d4120a9p+0', 11),
    ('J', 256, 4.0): ('0x1.b9c371d3f6854p+0', 9),
    ('J', 1024, 1.3333333333333333): ('0x1.d69c65337675ep+0', 11),
    ('J', 1024, 4.0): ('0x1.d69c6532de0dap+0', 9),
    ('K', 256, 1.3333333333333333): ('0x1.d11f8c07a6305p+0', 400),
    ('K', 256, 4.0): ('0x1.d11f87a1046bcp+0', 200),
    ('K', 1024, 1.3333333333333333): ('0x1.e97979ad2bc84p+0', 15),
    ('K', 1024, 4.0): ('0x1.e97979a970212p+0', 13),
}

def _estimate_pin(est):
    h = hashlib.sha256()
    for x in est.history:
        h.update(x.hex().encode())
    h.update(str(est.certificate.offset).encode())
    h.update(est.certificate.values.tobytes())
    return est.value.hex(), est.iterations, h.hexdigest()


@pytest.mark.parametrize("name, n, p", list(ESTIMATE_PINS))
def test_estimate_norm_golden_bits(name, n, p):
    est = estimate_norm(ConvOperator(K.KERNELS[name], n), Exponent(p), max_iter=200)
    assert _estimate_pin(est) == ESTIMATE_PINS[name, n, p]
    if p != 2.0:
        value, iterations = LINEAR_FFT_PINS[name, n, p]
        assert est.iterations == iterations
        assert abs(est.value - float.fromhex(value)) <= 4 * math.ulp(est.value)
