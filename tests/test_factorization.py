import math

import numpy as np
import pytest

from dhtlab import factorization as FZ
from dhtlab.kernels import E, e_tail_constant
from dhtlab.seqops import Seq

# frozen: alpha = 1/(1 + E_0) with E_0 = 0.29774140087413603
ALPHA = 0.7705695443841257


def test_build_G_basics():
    kit = FZ.build_K(200)
    assert kit.alpha == pytest.approx(ALPHA, abs=1e-10)
    mid = kit.window
    assert kit.G[mid] == 0.0
    assert np.array_equal(kit.G, kit.G[::-1])  # even in n
    assert np.all(kit.G >= 0.0)


def test_build_G_mass_bracket():
    kit = FZ.build_K(200)
    mass = float(kit.G.sum())
    target = 1.0 - kit.alpha
    assert mass <= target + kit.quad_slop
    assert target <= mass + kit.g_tail_bound + kit.quad_slop
    assert abs(mass - target) <= 1e-3  # tail ~ sum_{n>200} c/n^2


def test_build_K_term_count_and_mass():
    kit = FZ.build_K(512, 1e-8)
    expected_terms = math.ceil(math.log(1e-8) / math.log(1.0 - kit.alpha))
    assert kit.neumann_terms == expected_terms
    assert np.all(kit.K >= 0.0)
    assert kit.K[kit.window] >= kit.alpha  # the k=0 term alone is alpha delta_0
    assert abs(float(kit.K.sum()) - 1.0) <= kit.mass_defect


def test_build_K_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        FZ.build_K(64, 1.0)
    with pytest.raises(ValueError):
        FZ.build_K(4)


def test_neumann_partial_sums_monotone():
    # re-run the accumulation keeping partial sums; entrywise nondecreasing
    from scipy.signal import fftconvolve
    kit = FZ.build_K(128)
    w = kit.window
    term = np.zeros(2 * w + 1)
    term[w] = 1.0
    partial = kit.alpha * term.copy()
    prev = partial.copy()
    for _ in range(6):
        term = fftconvolve(term, kit.G)[w: 3 * w + 1]
        term = np.maximum(term, 0.0)
        partial = partial + kit.alpha * term
        assert np.all(partial >= prev - 1e-15)
        prev = partial.copy()


def test_verify_factorization_zero_sequence():
    rep = FZ.verify_factorization(Seq.from_dict({}), 256)
    assert rep.max_abs_residual == 0.0 and rep.passed


def test_verify_factorization_delta():
    rep = FZ.verify_factorization(Seq.delta(0), 1024)
    assert rep.passed
    assert rep.max_abs_residual <= rep.budget


def test_verify_factorization_support_check():
    with pytest.raises(ValueError):
        FZ.verify_factorization(Seq.delta(200), 256)


@pytest.mark.parametrize("call, match", [
    (lambda: FZ.verify_factorization(Seq.delta(0), 64, kit=FZ.build_K(128)),
     "window 128, not for window 64"),
    (lambda: FZ.verify_factorization(Seq.delta(0, math.nan), 64), "non-finite"),
    (lambda: FZ.verify_factorization(Seq.delta(0, math.inf), 64), "non-finite"),
    (lambda: FZ.build_K(16.5), "window must be an integer"),
    (lambda: FZ.verify_factorization(Seq.delta(0), 64.5),
     "window must be an integer"),
], ids=["foreign_kit", "nan", "inf", "build_K_float", "verify_float"])
def test_verify_factorization_rejects_bad_input(call, match):
    # an input error, not a failed verification
    with pytest.raises(ValueError, match=match):
        call()


def test_window_doubling_keeps_budget():
    a = Seq.delta(0)
    r1 = FZ.verify_factorization(a, 512)
    r2 = FZ.verify_factorization(a, 1024)
    assert r1.passed and r2.passed
    assert r2.max_abs_residual <= r2.budget


def test_e_window_tail_constant_consistency():
    # the ledgered tail constant really dominates the windowed entries
    w = E.window(64)
    c = e_tail_constant()
    for n in range(1, 65):
        assert abs(w[64 + n]) <= c / n ** 2
