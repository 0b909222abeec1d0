import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhtlab import kernels as K
from dhtlab import weaktype as W
from dhtlab.numerics import catalan_beta2
from dhtlab.seqops import Seq, convolve

TWO_OVER_PI = 2.0 / math.pi


def _identity_kernel():
    def batch(ns):
        v = np.where(np.asarray(ns) == 0, 1.0, 0.0).astype(float)
        return v, np.zeros_like(v)
    return K.Kernel("I", batch, parity="even")


def test_davis_constant():
    d = W.davis_constant()
    assert d == pytest.approx(1.3468852519994063, abs=1e-11)
    assert 1.0 < d < 2.0
    assert 8.0 * d * catalan_beta2() == pytest.approx(math.pi ** 2, abs=1e-12)


def test_weak_ratio_delta():
    rep = W.weak_ratio(K.HILBERT, Seq.delta(0), 10_000)
    assert rep.ratio == pytest.approx(TWO_OVER_PI, abs=1e-9)
    assert not rep.window_limited
    assert rep.count_at_lambda >= 2
    # the ratio is recomputable from the stored lambda and count
    assert rep.ratio == pytest.approx(
        rep.best_lambda * rep.count_at_lambda / rep.l1_norm, rel=1e-12)


def test_weak_ratio_identity_kernel():
    rep = W.weak_ratio(_identity_kernel(), Seq.delta(0), 100)
    assert rep.ratio == pytest.approx(1.0, abs=1e-9)
    assert rep.best_lambda == pytest.approx(1.0, abs=1e-9)


def test_weak_ratio_rejects_zero():
    with pytest.raises(ValueError):
        W.weak_ratio(K.HILBERT, Seq.from_dict({}), 100)


@pytest.mark.parametrize("window,limited", [(4, True), (100, False)])
def test_tail_bound_covers_kernel_zeros(window, limited):
    # KAK vanishes at even n, so at an even edge the bound is |KAK(edge + 1)|;
    # at window 4 it reaches the optimal lambda, so the count is not exact
    rep = W.weak_ratio(K.KAK, Seq(-2, np.ones(5)), window)
    edge = window - 2
    assert f"<= {2.0 / (math.pi * (edge + 1)):.3e} outside" in rep.tail_note
    assert rep.window_limited is limited


@pytest.mark.parametrize("window", [1, 2])
def test_weak_ratio_rejects_support_at_window_edge(window):
    # edge < 1 leaves no distance at which to bound the kernel
    with pytest.raises(ValueError, match="window edge"):
        W.weak_ratio(K.HILBERT, Seq(-2, np.ones(5)), window)


def test_scaling_invariance_exact():
    for entries in ({0: 1.0}, {0: 1.0, 1: -1.0}, {-2: 1.0, 0: -1.0, 3: 1.0}):
        a = Seq.from_dict(entries)
        base = W.weak_ratio(K.HILBERT, a, 4096)
        for c in (2.0, -3.0):
            scaled = W.weak_ratio(K.HILBERT, a.scale(c), 4096)
            assert scaled.ratio == base.ratio
            assert scaled.l1_norm == abs(c) * base.l1_norm


def test_translation_invariance_exact():
    a = Seq.from_dict({0: 1.0, 1: -1.0})
    base = W.weak_ratio(K.HILBERT, a, 4096)
    shifted = W.weak_ratio(K.HILBERT, a.shift(7), 4096)
    assert shifted.ratio == base.ratio


@given(st.lists(st.sampled_from([-1.0, 1.0]), min_size=1, max_size=5),
       st.integers(min_value=40, max_value=120))
@settings(max_examples=25, deadline=None)
def test_lambda_scan_is_optimal(signs, window):
    # brute-force grid of intermediate lambdas can never beat the scan
    a = Seq(0, np.array(signs))
    rep = W.weak_ratio(K.HILBERT, a, window)
    out = convolve(K.HILBERT, Seq(0, np.array(signs) / np.sum(np.abs(signs))),
                   window)
    mag = np.sort(np.abs(out.values))
    mag = mag[mag > 0]
    for lam in np.concatenate([mag * 0.999, mag * 0.5, mag[:-1] * 1.0001]):
        if lam <= 0:
            continue
        count = int(np.sum(np.abs(out.values) > lam))
        assert lam * count <= rep.ratio * (1 + 1e-12)


def test_discretized_sequence_indicator():
    ind = lambda t: 1.0 if 0.0 <= t <= 1.0 else 0.0
    s = W.discretized_sequence(ind, 0.1, 0.0, 100)
    assert s.offset == 0 and len(s.values) == 11
    assert np.all(s.values == 1.0)
    for eps in (0.1, 0.01):
        d = W.discretized_sequence(ind, eps, 0.0, 10 ** 3)
        mass = float(np.sum(np.abs(d.values))) * eps
        assert mass == pytest.approx(1.0, abs=1.5 * eps)


def test_discretized_sequence_validation():
    with pytest.raises(ValueError):
        W.discretized_sequence(lambda t: 1.0, 0.1, 1.5, 10)
    with pytest.raises(ValueError):
        W.discretized_sequence(lambda t: 1.0, -0.1, 0.0, 10)


def test_bump_ratio_converges_to_continuum():
    # the discretized weak ratio approaches the continuum tail value 2/pi
    # from above as the mesh refines (coarse meshes overshoot)
    dists = []
    for i in range(5):
        eps = 0.5 / 2 ** i
        a = W.discretized_sequence(W.smooth_bump, eps, 0.0, 2 ** 14)
        rep = W.weak_ratio(K.HILBERT, a, 2 ** 14)
        dists.append(abs(rep.ratio - TWO_OVER_PI))
    assert all(b < a for a, b in zip(dists, dists[1:]))


def test_search_budget_one_equals_single_draw():
    best = W.search_weak_constant(K.HILBERT, "random_signs", 1, seed=5)
    rng = np.random.default_rng(5)
    signs = rng.choice([-1.0, 1.0], size=5)
    direct = W.weak_ratio(K.HILBERT, Seq(-2, signs), 16384)
    assert best.ratio == direct.ratio


def test_search_greedy_improves_on_seed():
    best = W.search_weak_constant(K.HILBERT, "greedy_atoms", 80, seed=0)
    assert best.ratio >= TWO_OVER_PI * (1 - 1e-12)


def test_search_families_run_and_stay_below_davis(caplog):
    with caplog.at_level(logging.WARNING):
        for family in ("random_signs", "greedy_atoms", "discretized_bumps"):
            best = W.search_weak_constant(K.HILBERT, family, 12, seed=3)
            assert best.ratio > 0
    # no counterexample to the conjectured constant; had one appeared it
    # would have been logged loudly rather than suppressed
    exceeded = [r for r in caplog.records if "EXCEEDING" in r.getMessage()]
    leaders = [r for r in (W.search_weak_constant(K.HILBERT, "random_signs",
                                                  8, seed=9),)]
    assert all(rep.ratio <= W.davis_constant() for rep in leaders) \
        or exceeded


def test_search_rejects_bad_family():
    with pytest.raises(ValueError):
        W.search_weak_constant(K.HILBERT, "nope", 5)
    with pytest.raises(ValueError):
        W.search_weak_constant(K.HILBERT, "random_signs", 0)
    for family in ("random_signs", "discretized_bumps"):
        with pytest.raises(ValueError, match="window must be >= 1"):
            W.search_weak_constant(K.HILBERT, family, 5, window=-100)


def test_search_bumps_rejects_window_without_a_bump():
    # the first bump (eps = 1/2) needs 1/eps = 2 <= window / 4
    with pytest.raises(ValueError, match="no bump fits window 7"):
        W.search_weak_constant(K.HILBERT, "discretized_bumps", 5, window=7)
    rep = W.search_weak_constant(K.HILBERT, "discretized_bumps", 5, window=8)
    assert rep.sequence_id == "bump[eps=1/2]"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_weak_ratio_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        W.weak_ratio(K.HILBERT, Seq(0, [1.0, bad]), 100)


def test_discretized_sequence_rejects_nan_samples():
    f = lambda t: math.nan if t == 0.5 else 1.0
    with pytest.raises(ValueError, match="non-finite sample at n = 5"):
        W.discretized_sequence(f, 0.1, 0.0, 10)
    with pytest.raises(ValueError, match="non-finite"):
        W.discretized_sequence(lambda t: math.inf, 0.1, 0.0, 10)


# Reports of the searches as computed before the kernel was read once per
# search and lambda scanned by one sort: (kernel, family, budget, seed,
# ratio, best_lambda, count_at_lambda, window_limited, sequence_id), at the
# default window 16384.  Never regenerate these.
GOLDEN_REPORTS = [
    ("H", "random_signs", 100, 0, "0x1.023d2f12180bep-1", "0x1.658fcb055c5f3p-3",
     26, False, "random_signs[31]r=4"),
    ("H", "random_signs", 100, 7, "0x1.54413fa007c58p-1", "0x1.e61411c00b1a3p-3",
     14, False, "random_signs[0]r=2"),
    ("H", "greedy_atoms", 20, 0, "0x1.b48a0dc2e20d4p-1", "0x1.5d3b3e3581a43p-4",
     20, False, "greedy[1]@-15-1"),
    ("H", "discretized_bumps", 10, 0, "0x1.6becb80455710p-1", "0x1.45bd4a8c2f414p-3",
     4, False, "bump[eps=1/2]"),
    ("J", "random_signs", 4, 0, "0x1.c055d33733581p-2", "0x1.1835a40280171p+0",
     2, False, "random_signs[0]r=2"),
    ("K", "random_signs", 20, 3, "0x1.5bade52f94686p-1", "0x1.b2995e7b79828p-1",
     4, False, "random_signs[5]r=2"),
    ("RT", "greedy_atoms", 12, 0, "0x1.45f306dc9b21dp+0", "0x1.45f306dc9b21dp-1",
     2, False, "greedy[start]"),
]


@pytest.mark.parametrize("row", GOLDEN_REPORTS, ids=lambda r: f"{r[0]}-{r[1]}-{r[3]}")
def test_search_reports_golden(row):
    kernel, family, budget, seed, ratio, lam, count, limited, seq_id = row
    rep = W.search_weak_constant(K.KERNELS[kernel], family, budget, seed=seed)
    assert (rep.ratio.hex(), rep.best_lambda.hex(), rep.count_at_lambda,
            rep.window_limited, rep.sequence_id) == (ratio, lam, count, limited, seq_id)


def _unique_scan(out_values):
    """The lambda scan over distinct |Ta_n| with np.unique: (lambda, count,
    ratio) at the first maximum."""
    mag = np.abs(out_values)
    mag = mag[mag > 0.0]
    vals, counts = np.unique(mag, return_counts=True)
    cum = np.cumsum(counts[::-1])
    lambdas = vals[::-1] * (1.0 - W._LAMBDA_NUDGE)
    ratios = lambdas * cum
    best = int(np.argmax(ratios))
    return lambdas[best], int(cum[best]), ratios[best]


@pytest.mark.parametrize("kernel,entries", [
    ("H", {-3: 1.0, 3: 1.0}),                         # symmetric: |Ta| paired
    ("H", {-2: 1.0, -1: 2.0, 0: 3.0, 1: 2.0, 2: 1.0}),
    ("H", {-1: 1.0, 0: -1.0, 1: 1.0}),
    ("H", {0: 1.0}),
    ("K", {-2: 1.0, 0: 1.0, 2: 1.0}),                 # KAK: zeros and ties
    ("J", {-4: 1.0, 4: 1.0}),
])
def test_sort_scan_matches_unique_scan(kernel, entries):
    k = K.KERNELS[kernel]
    a = Seq.from_dict(entries)
    window = 300
    rep = W.weak_ratio(k, a, window)
    l1 = float(np.sum(np.abs(a.values)))
    out = convolve(k, Seq(a.offset, a.values / l1), window)
    mag = np.abs(out.values)
    assert len(np.unique(mag[mag > 0])) < np.count_nonzero(mag)   # ties exist
    lam, count, ratio = _unique_scan(out.values)
    assert rep.ratio.hex() == float(ratio).hex()
    assert rep.best_lambda.hex() == float(lam * l1).hex()
    assert rep.count_at_lambda == count


def test_search_evaluates_kernel_once_per_run(monkeypatch):
    calls = []
    candidates = []
    weak_ratio = W.weak_ratio

    def recording(kw, a, window, sequence_id=""):
        rep = weak_ratio(kw, a, window, sequence_id)
        candidates.append((a, window, rep))
        return rep

    monkeypatch.setattr(W, "weak_ratio", recording)
    # KAK brings zeros and ties, RT no parity
    for name in ("H", "J", "K", "RT"):
        orig = K.KERNELS[name]

        def batch(ns):
            calls.append(len(ns))
            return orig.evaluate(ns)

        k = K.Kernel(name, batch, parity=orig.parity)
        for family, budget in (("random_signs", 12), ("greedy_atoms", 12),
                               ("discretized_bumps", 6)):
            calls.clear()
            candidates.clear()
            rep = W.search_weak_constant(k, family, budget, seed=1, window=2048)
            assert len(calls) == 1, (name, family)
            # each candidate's report is weak_ratio's on the original kernel
            assert len(candidates) >= 6, (name, family)
            for a, window, cand in candidates:
                assert cand == weak_ratio(orig, a, window, cand.sequence_id)
            assert rep in [cand for _, _, cand in candidates]
            assert rep.ratio == max(cand.ratio for _, _, cand in candidates)


def _nan_kernel(bad):
    """H with NaN at the indices where ``bad(n)`` holds."""
    def batch(ns):
        vals, errs = K.HILBERT.evaluate(ns)
        return np.where(bad(np.asarray(ns)), np.nan, vals), errs
    return K.Kernel("H", batch, parity="odd")


# a unit atom convolves directly, a bump of 1023 samples through the FFT
@pytest.mark.parametrize("a", [Seq.delta(0),
                               W.discretized_sequence(W.smooth_bump, 1 / 512,
                                                      0.0, 512)],
                         ids=["direct", "fft"])
def test_weak_ratio_rejects_nan_kernel_entry(a):
    with pytest.raises(ValueError, match="non-finite entry"):
        W.weak_ratio(_nan_kernel(lambda n: n == 3), a, 2048)


def test_weak_ratio_rejects_nan_tail_bound():
    # the convolution reads |n| <= 100 only; the tail bound reads 100 and 101
    with pytest.raises(ValueError, match="no tail bound"):
        W.weak_ratio(_nan_kernel(lambda n: np.abs(n) > 100), Seq.delta(0), 100)


@pytest.mark.parametrize("family", ["random_signs", "greedy_atoms",
                                    "discretized_bumps"])
def test_search_rejects_nan_kernel_entry(family):
    with pytest.raises(ValueError, match="non-finite entry"):
        W.search_weak_constant(_nan_kernel(lambda n: n == 3), family, 5,
                               window=200)
