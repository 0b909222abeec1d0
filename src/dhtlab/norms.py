"""Certified lower bounds for the l^p -> l^p norms of truncated operators.

Two solvers, chosen by the exponent:

* p != 2: the nonlinear power iteration
      a  <-  Psi_q( T' Psi_p( T a ) ),   Psi_r(x) = |x|^(r-1) sign x,
  whose Rayleigh-type values ||T a||_p / ||a||_p are nondecreasing.  It
  converges to a stationary point, not provably the global maximizer.
* p = 2: Krylov-Schur (thick-restart Lanczos) on T'T, whose largest
  eigenvalue is ||T_N||_2^2.  The basis is fully reorthogonalized, and a
  run stops when the top Ritz pair's relative residual reaches ``tol``.

Either way every returned value is ||T a||_p / ||a||_p for the returned
certificate a, so it is a genuine lower bound for the truncated norm, hence
for the full operator norm; the contract is "certified lower bound", never
"norm".

Each run is deterministic given (operator, exponent, seed); sweeps across
radii are independent and may run concurrently.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from dhtlab.numerics import Exponent, check_integer
from dhtlab.seqops import ConvOperator, Seq, lp_norm

__all__ = [
    "NormEstimate",
    "test_vector_bound",
    "estimate_norm",
    "norm_sweep",
]


@dataclass(frozen=True)
class NormEstimate:
    value: float
    certificate: Seq
    p: Exponent
    window_radius: int
    iterations: int
    residual: float
    converged: bool
    history: tuple = ()


def _psi(v: np.ndarray, r: float) -> np.ndarray:
    """|v|^(r-1) sign v, the duality map between l^r and its dual."""
    return np.sign(v) * np.abs(v) ** (r - 1.0)


def test_vector_bound(op: ConvOperator, a: Seq, e: Exponent) -> float:
    """||T_N a||_p / ||a||_p: any feasible vector certifies a lower bound."""
    if a.trimmed().is_zero():
        raise ValueError("test vector must be nonzero")
    n = op.window_radius
    v = a.to_dense(-n, n)
    if not np.any(v):
        raise ValueError("test vector vanishes inside the window")
    return lp_norm(op.apply_dense(v), e.p) / lp_norm(a, e)


def _seed_vector(n: int, p: float, seed: int) -> np.ndarray:
    """Antisymmetric power-law profile plus a deterministic tie-breaking
    perturbation (pure symmetry classes can trap the iteration)."""
    idx = np.arange(-n, n + 1, dtype=float) + 0.5
    base = np.sign(idx) * np.abs(idx) ** (-1.0 / p)
    rng = np.random.default_rng(seed)
    base = base + 0.05 * np.max(np.abs(base)) * rng.uniform(-1.0, 1.0, 2 * n + 1)
    return base


def _run_iteration(apply_fwd, apply_adj, p: float, a: np.ndarray,
                   max_iter: int, tol: float):
    """Core nonlinear power loop; returns (value, certificate, history,
    residual, converged)."""
    q = p / (p - 1.0)
    a = a / lp_norm(a, p)
    history: list[float] = []
    cert = a
    val = 0.0
    converged = False
    residual = math.inf
    for _ in range(max_iter):
        b = apply_fwd(a)
        val = lp_norm(b, p)
        if not math.isfinite(val):
            raise ValueError(f"non-finite norm {val!r} in the power iteration")
        history.append(val)
        cert = a
        if val == 0.0:
            converged, residual = True, 0.0
            break
        if len(history) >= 2:
            residual = abs(history[-1] - history[-2])
            if residual < tol:
                converged = True
                break
        d = apply_adj(_psi(b, p))
        a = _psi(d, q)
        a /= lp_norm(a, p)
    return val, cert, history, residual, converged


_BASIS = 24          # Krylov basis size at which the p = 2 solver restarts
_KEEP = 8            # Ritz vectors kept across a restart
_DGKS = math.sqrt(0.5)  # pass again if ||w|| falls below this share of ||T'Tv||


def _gram_schmidt(basis: np.ndarray, w: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """One classical Gram-Schmidt pass of w against the orthonormal rows of
    ``basis``, in place, using the row ``tmp``; returns the coefficients."""
    h = np.einsum("ij,j->i", basis, w)
    w -= np.einsum("i,ij->j", h, basis, out=tmp)
    return h


def _norm2(w: np.ndarray) -> float:
    return math.sqrt(np.einsum("i,i->", w, w))


def _krylov_schur(op: ConvOperator, e: Exponent, max_iter: int, tol: float,
                  seed: int) -> NormEstimate:
    """Largest eigenpair of A = T'T by Krylov-Schur (Stewart 2001; thick
    restart, Wu & Simon 2000).

    The basis is reorthogonalized in full at every step: one classical
    Gram-Schmidt pass, and a second only after heavy cancellation (the DGKS
    rule); if the second pass cancels heavily too, the remainder is rounding
    noise and the basis spans an invariant subspace (beta = 0).  The lower
    triangle of ``proj`` holds the computed projection V'AV.  Once _BASIS
    rows have been applied, the basis restarts from the top _KEEP Ritz
    vectors, whose projection is diagonal, and the latest residual
    direction.  The run stops when the top Ritz pair (theta, u) has
    ||Au - theta u|| / theta = beta |s_last| / theta <= tol, or on beta = 0.

    The basis rows, the restart's Ritz rows and one scratch row live in one
    anonymous mapping outside the malloc heap (2.3 MB at N = 4096), unmapped
    when the run ends.  A malloc block that size would raise glibc's dynamic
    mmap threshold, and separate malloc rows would grow the heap; either way
    later allocations in a long-lived process would run in another heap
    state (perfbench's in-process speed probe reads that as host speed).

    Every product and inner product on the basis is an ``einsum``, which
    never calls BLAS.  OpenBLAS runs a gemv or gemm this size on its thread
    pool, and the pool's workers then spin for a while after the call
    returns: at N = 4096 they burnt about as much CPU as the solver itself,
    much of it during whatever the caller ran next, which on a 2-core host
    ran up to 2x slower.
    """
    n = op.window_radius
    size = 2 * n + 1
    store = np.frombuffer(mmap.mmap(-1, 8 * size * (_BASIS + 1 + _KEEP + 1)),
                          dtype=float).reshape(-1, size)
    basis, ritz, tmp = store[:_BASIS + 1], store[_BASIS + 1:-1], store[-1]
    v = _seed_vector(n, 2.0, seed)
    np.divide(v, lp_norm(v, 2.0), out=basis[0])
    k = 1                                   # rows of basis in use
    proj = np.zeros((_BASIS, _BASIS))
    history: list[float] = []
    for step in range(1, max_iter + 1):
        w = op.apply_adjoint_dense(op.apply_dense(basis[k - 1]))
        norm = _norm2(w)
        if not math.isfinite(norm):
            raise ValueError(f"non-finite ||T'T v|| = {norm!r} in the "
                             "Lanczos iteration")
        h = _gram_schmidt(basis[:k], w, tmp)
        beta = _norm2(w)
        if beta < _DGKS * norm:
            h += _gram_schmidt(basis[:k], w, tmp)
            beta, prev = _norm2(w), beta
            if beta < _DGKS * prev:
                beta = 0.0
        proj[k - 1, :k] = h
        theta, vecs = np.linalg.eigh(proj[:k, :k], UPLO="L")
        s = vecs[:, -1]
        history.append(math.sqrt(max(theta[-1], 0.0)))
        if beta == 0.0:
            residual = 0.0
        elif theta[-1] > 0.0:
            residual = beta * float(abs(s[-1]) / theta[-1])
        else:
            residual = math.inf
        converged = residual <= tol
        if converged or step == max_iter:
            break
        np.divide(w, beta, out=basis[k])
        k += 1
        if k > _BASIS:
            np.einsum("ik,ij->kj", vecs[:, -_KEEP:], basis[:_BASIS], out=ritz)
            basis[:_KEEP] = ritz
            basis[_KEEP] = basis[_BASIS]
            proj[:_KEEP, :_KEEP] = np.diag(theta[-_KEEP:])
            k = _KEEP + 1

    u = np.einsum("i,ij->j", s, basis[:k])
    value = lp_norm(op.apply_dense(u), 2.0) / lp_norm(u, 2.0)
    return NormEstimate(value=value, certificate=Seq(-n, u), p=e,
                        window_radius=n, iterations=len(history),
                        residual=residual, converged=converged,
                        history=tuple(history))


def estimate_norm(op: ConvOperator, e: Exponent, max_iter: int = 500,
                  tol: float = 1e-9, seed: int = 0) -> NormEstimate:
    """Certified lower bound for ||P_N T P_N||_{p->p}.

    At p = 2 this is Krylov-Schur on T'T (see _krylov_schur): ``iterations``
    counts applications of T'T, ``residual`` is the top Ritz pair's relative
    residual ||T'Tu - theta u|| / theta, ``converged`` means residual <= tol
    or an invariant Krylov subspace, the certificate is the Ritz vector u,
    ``value`` is ||Tu||_2 / ||u||_2, and ``history`` holds sqrt(theta_max)
    per step.

    Otherwise it is the nonlinear power iteration, and ``residual`` is the
    change of the last step.  For p < 2 the iteration runs first on the
    transposed operator at the dual exponent (where it is far better
    conditioned) and the certificate is then pushed through the duality map,
    which can only raise the bound; a polish phase on the requested side
    follows.

    Either way the history is nondecreasing (at p = 2 up to a few ulps of
    eigh's rounding once theta has settled), the certificate witnesses
    ``value`` through test_vector_bound, non-convergence is a reported state,
    not an error, and a non-finite intermediate (a NaN kernel entry, say)
    raises ValueError.
    """
    if check_integer("max_iter", max_iter) < 1:
        raise ValueError("max_iter >= 1 required")
    if not tol > 0:
        raise ValueError("tol must be positive")
    p, q = e.p, e.q
    if p == 2.0:
        return _krylov_schur(op, e, max_iter, tol, seed)
    n = op.window_radius

    history: list[float] = []
    if p < 2.0:
        warm_val, warm_cert, warm_hist, _, _ = _run_iteration(
            op.apply_adjoint_dense, op.apply_dense, q,
            _seed_vector(n, q, seed), max_iter, tol)
        history.extend(warm_hist)
        a0 = _psi(op.apply_adjoint_dense(warm_cert), q)
        if not np.any(a0):
            a0 = _seed_vector(n, p, seed)
    else:
        a0 = _seed_vector(n, p, seed)

    val, cert, hist, residual, converged = _run_iteration(
        op.apply_dense, op.apply_adjoint_dense, p, a0, max_iter, tol)
    history.extend(hist)

    return NormEstimate(value=val, certificate=Seq(-n, cert), p=e,
                        window_radius=n, iterations=len(history),
                        residual=residual, converged=converged,
                        history=tuple(history))


def norm_sweep(op_kernel, e: Exponent, radii, seed: int = 0,
               max_iter: int = 500, tol: float = 1e-9) -> list[NormEstimate]:
    """One estimate per truncation radius, all from the same seed.

    Exact truncated norms are monotone in the radius; the estimates inherit
    this up to solver tolerance (the tests allow a 10*tol dip).
    """
    out = []
    for r in radii:
        op = ConvOperator(op_kernel, check_integer("radius", r))
        out.append(estimate_norm(op, e, max_iter=max_iter, tol=tol, seed=seed))
    return out

