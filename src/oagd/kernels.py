"""Hot numeric kernels behind the windowed hypergradient fast paths: one
vectorized numpy reduction per stream family.

sm_window_accumulate exploits that the inner Hessians of the regression
problems are rank-one-plus-diagonal, a_s a_s^T + D with D shared across the
window, so each linear solve collapses to Sherman-Morrison:

    (D + a a^T)^{-1} v = D^{-1} v - D^{-1} a (a^T D^{-1} v) / (1 + a^T D^{-1} a)

which costs O(d2) per window term instead of a dense O(d2^3) factorization.
"""
from __future__ import annotations

import numpy as np


def sm_workspace(m_max: int, d2: int):
    """Scratch for sm_window_accumulate over windows of up to m_max rows.

    A stream that keeps one reuses the same memory every round. Fresh
    temporaries of a growing window are each a little larger than the last,
    so the allocator maps and faults in new pages for every one of them.
    """
    return np.empty((2, m_max, d2)), np.empty((3, m_max))


def sm_window_accumulate(A, A_val, b_val, d_inv, y, u, work):
    """acc = sum_i u_i * (D + a_i a_i^T)^{-1} a_val_i (a_val_i^T y - b_val_i).

    A, A_val: (m, d2) rows newest-first; d_inv: 1/diag(D), either (d2,) or,
    when D = c I, the one entry (1,) = 1/c, which broadcasts over every
    entry and costs one pass over the rows instead of a short loop per row;
    u: (m,) weights; work: an sm_workspace of at least m rows.
    The rows must be C-contiguous (the regression streams slice them from
    newest-first copies of their tables): the memory layout fixes the
    summation order of the matrix products and so the result's bits.
    """
    m = A.shape[0]
    mats, vecs = work
    DG, DA = mats[0, :m], mats[1, :m]
    r, num, den = vecs[0, :m], vecs[1, :m], vecs[2, :m]
    # r = A_val y - b_val; DG = (A_val * r) * d_inv; DA = A * d_inv
    np.matmul(A_val, y, out=r)
    np.subtract(r, b_val, out=r)
    np.multiply(A_val, r[:, None], out=DG)
    np.multiply(DG, d_inv, out=DG)
    np.multiply(A, d_inv, out=DA)
    np.einsum("ij,ij->i", A, DG, out=num)
    np.einsum("ij,ij->i", A, DA, out=den)
    np.add(1.0, den, out=den)
    # V = DG - DA * (num / den), built in DG
    np.divide(num, den, out=num)
    np.multiply(DA, num[:, None], out=DA)
    np.subtract(DG, DA, out=DG)
    return u @ DG


def quad_window_reduce(s, u, xpy):
    """sum_i u_i * (xpy + s_i) for the scalar quadratic family.

    s: (m,) shifts newest-first and C-contiguous (a slice of the stream's
    reversed table); u: (m,) weights. ndarray.dot calls the same BLAS ddot
    as u @ v without the matmul dispatch.
    """
    return float(u.dot(xpy + s))
