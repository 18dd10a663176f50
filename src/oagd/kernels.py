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


def sm_window_accumulate(A, A_val, b_val, d_inv, y, u):
    """acc = sum_i u_i * (D + a_i a_i^T)^{-1} a_val_i (a_val_i^T y - b_val_i).

    A, A_val: (m, d2) rows newest-first; d_inv: 1/diag(D); u: (m,) weights.
    The window rows usually arrive as reversed views; they are copied to
    contiguous memory first, which fixes the summation order of the matrix
    products and so keeps the result bit-reproducible.
    """
    A = np.ascontiguousarray(A)
    A_val = np.ascontiguousarray(A_val)
    b_val = np.ascontiguousarray(b_val)
    r = A_val @ y - b_val
    G = A_val * r[:, None]
    DG = G * d_inv[None, :]
    DA = A * d_inv[None, :]
    num = np.einsum("ij,ij->i", A, DG)
    den = 1.0 + np.einsum("ij,ij->i", A, DA)
    V = DG - DA * (num / den)[:, None]
    return u @ V


def quad_window_reduce(s, u, xpy):
    """sum_i u_i * (xpy + s_i) for the scalar quadratic family."""
    return float(u @ (xpy + s))
