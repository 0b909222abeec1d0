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


def _identity_kernel():
    def batch(ns):
        v = np.where(np.asarray(ns) == 0, 1.0, 0.0).astype(float)
        return v, np.zeros_like(v)
    return K.Kernel("I", batch, parity="even", tail_exponent=99.0)


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
    op = ConvOperator(K.Kernel("0", batch, parity="even", tail_exponent=9), 8)
    est = estimate_norm(op, P2)
    assert est.value == 0.0 and est.converged


def test_monotone_history():
    est = estimate_norm(ConvOperator(K.HILBERT, 128), P4, max_iter=2000,
                        tol=1e-12)
    h = est.history
    assert all(b >= a - 1e-12 for a, b in zip(h, h[1:]))


def test_certificate_reproduces_value():
    op = ConvOperator(K.J, 64)
    est = estimate_norm(op, P4, max_iter=2000, tol=1e-11)
    recomputed = vector_bound(op, est.certificate, P4)
    assert recomputed == pytest.approx(est.value, abs=1e-10)


@pytest.mark.parametrize("N", [64, 256])
def test_p2_matches_dense_svd(N):
    op = ConvOperator(K.HILBERT, N)
    sigma = float(sla.svdvals(op.matrix())[0])
    est = estimate_norm(op, P2, max_iter=20000, tol=1e-13)
    assert est.value == pytest.approx(sigma, abs=1e-8)
    assert est.value <= sigma + 1e-12  # certified lower bound


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
# offset and bytes) at max_iter 200; captured before the FFT matvec reused
# a cached kernel spectrum and never regenerated: that change must keep
# every bit
ESTIMATE_PINS = {
    ('H', 256, 1.3333333333333333): ('0x1.a3cd72ca1c68bp+0', 12,
        'cf7e735f0178c45ac1d46696074007526dd9c3560f6e00e81dd965457b1e332a'),
    ('H', 256, 2.0): ('0x1.fcafb52cf5246p-1', 200,
        'cb56e6aed543a9471cc1a94b79d7bc32d3d18edd8cf3a9f88508f8aebff4fcb3'),
    ('H', 256, 4.0): ('0x1.a3cd72ca0804fp+0', 10,
        '4e672cc09dee51adc94bf6b55641bb7332a57f77e6ff0ab9b5a196e5aee3a4a5'),
    ('H', 1024, 1.3333333333333333): ('0x1.c4c0b106d1003p+0', 12,
        '5a4c93e91986b6449f886f00e67e99d86c5426ae8095df35172e04d7bb32f18e'),
    ('H', 1024, 2.0): ('0x1.fef9e4604c4c7p-1', 200,
        '9e34bcadd9ba67998efecb36a6486fed52ebef63afc1531731fba44845209bf0'),
    ('H', 1024, 4.0): ('0x1.c4c0b1067d539p+0', 10,
        '2af26793560bb2cf19ddbbf81edaf660553753466d3c41a67ebd6280135d95ba'),
    ('J', 256, 1.3333333333333333): ('0x1.b9c371d4120a9p+0', 11,
        '997eb095c0cfdee15653e81f8b4f3a5b98f56d5756fa9e8c334d599960162af2'),
    ('J', 256, 2.0): ('0x1.ffc710020cd13p-1', 200,
        '4369aad065bbde4ed154102c651d41f8a11702c9a9ae11599b33b10b8226eca1'),
    ('J', 256, 4.0): ('0x1.b9c371d3f6854p+0', 9,
        'f965bd75236bfbe8d83c813f9d8af2e241bc42aa7200ed80b4c2811b84dad38c'),
    ('J', 1024, 1.3333333333333333): ('0x1.d69c65337675ep+0', 11,
        '57615da78f52c6875682d10012de0ef9e07bf7528e886dba1820adcef356d8e6'),
    ('J', 1024, 2.0): ('0x1.ffde75ec6b1d6p-1', 200,
        '51529ee991a7573afa7ecbe3e9f71a14059c52cfb6a8996f6c6cb7af89b07b60'),
    ('J', 1024, 4.0): ('0x1.d69c6532de0dap+0', 9,
        'dab48ad0f6f792f0a636ff10b52a730685a835a3fb22b5fa306a63b2f2aa7f2d'),
    ('K', 256, 1.3333333333333333): ('0x1.d11f8c07a6305p+0', 400,
        '5df15c2bd81e074a580706b6e8729881ea3cbe071fbcb35691ad1ada9a73adad'),
    ('K', 256, 2.0): ('0x1.fffcbd5398260p-1', 200,
        '4c51411596229afa4582ceef1c6830c7887f33bf5e8958ab53bae9a3df37a63b'),
    ('K', 256, 4.0): ('0x1.d11f87a1046bcp+0', 200,
        'ad3731fe80b53c7415a8fa9b73dba6fc04466a3b1f81462e4fadf00361b0aec4'),
    ('K', 1024, 1.3333333333333333): ('0x1.e97979ad2bc84p+0', 15,
        '43a622fa420196b0fba2e5caa4ff74ba23defbf3b10dcce3ea5e7177955c9f25'),
    ('K', 1024, 2.0): ('0x1.fffda6bd77251p-1', 200,
        'f97d0dcf00af512ade8257e9421926877ce1bc750ce72badb4188272a412ffec'),
    ('K', 1024, 4.0): ('0x1.e97979a970212p+0', 13,
        'efd742b21b9f5ba8408b084010df71452fa1520293c6f777f861dc2c1fce2065'),
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
