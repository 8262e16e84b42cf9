"""Dense linear algebra shared by every higher-level module.

One input rule, `as_matrix`, serves every routine: float64 stays real and
every other dtype becomes complex128, so real input runs in real arithmetic
(complex eigenvalues in exactly conjugate pairs, a real expm).  eigvals()
also takes (n, d, d) stacks.  Problem sizes are tiny (operators up to
4x4, superoperators up to 16x16), so the routines favor robustness and
reproducibility over speed: LAPACK eigensolvers with a fixed deterministic
eigenvalue ordering (eig() gives right eigenpairs only) and a Pade
scaling-and-squaring expm.
"""

import math

import numpy as np

# Soft size cap.  The four-level model's Fock-Liouville space is
# 16-dimensional; 256 admits the superoperator of every basis dimension
# d <= 16 that superop.gellmann_basis allows.
MAX_DIM = 256


def as_matrix(a):
    """`a` as a square, finite matrix or (n, d, d) stack of them, at most
    MAX_DIM on a side: float64 stays real, every other dtype becomes complex128.
    """
    a = np.asarray(a)
    if a.dtype != np.float64:
        a = a.astype(complex, copy=False)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.shape[-1] > MAX_DIM:
        raise ValueError(f"expected a square matrix or a stack of them, up to "
                         f"{MAX_DIM}x{MAX_DIM}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def eig(a):
    """Right eigenpairs (values, vectors) in a deterministic order: the
    (n,) complex eigenvalues sorted lexicographically by (re, im), and the
    (n, n) matrix of unit-norm right eigenvectors as its columns.

    Eigenvectors of defective matrices come back numerically parallel; no
    orthogonality is promised.  NumPy's LinAlgError passes through if the
    QR iteration fails, as in eigvals().
    """
    a = as_matrix(a)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {a.shape}")
    w, vr = np.linalg.eig(a)
    w = w.astype(complex, copy=False)
    order = np.lexsort((w.imag, w.real))
    vr = vr[:, order]
    return w[order], vr / np.linalg.norm(vr, axis=0)


def eigvals(a):
    """Eigenvalues only, in the same deterministic order as eig().

    `a` is one square matrix or an (n, d, d) stack of them; each matrix's
    eigenvalues are ordered on their own, and are the same bits as for a
    separate call.  The result is complex128.
    """
    w = np.linalg.eigvals(as_matrix(a)).astype(complex, copy=False)
    return np.take_along_axis(w, np.lexsort((w.imag, w.real), axis=-1), axis=-1)


# Pade [13/13] coefficients b_0..b_13 and the 1-norm up to which that
# approximant is accurate to double precision (Higham, SIAM J. Matrix Anal.
# Appl. 26, 1179 (2005), Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a):
    """Matrix exponential: the Pade [13/13] approximant r(a / 2^s),
    squared s times, with the least s >= 0 that brings ||a||_1 / 2^s to
    _THETA13 / 2 or below.  Higham (2005) stops at _THETA13, but there the
    solve for r can leave a rounding-level error in the trace row of a
    trace-preserving generator's r, which the s squarings multiply by 2^s.
    r = (V - U)^-1 (V + U) is formed as I + 2 (V - U)^-1 U, which rounds
    less in the squarings of a stiff generator.  The norm is taken in
    logarithms, so a finite `a` whose column sums leave float range still
    gets its s; entries of exp(a) that leave float range come back inf or
    NaN, without a warning."""
    a = as_matrix(a)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {a.shape}")
    mag = np.abs(a)
    big = mag.max()
    s = 0
    if big > 0:
        log_norm = math.log2(big) + math.log2((mag / big).sum(axis=0).max())
        s = max(0, math.ceil(log_norm - math.log2(_THETA13 / 2)))
    a = a * 0.5 ** s  # a power of two: exact above the subnormal range
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = ident + 2.0 * np.linalg.solve(v - u, u)
    with np.errstate(over="ignore", invalid="ignore"):  # the caller checks
        for _ in range(s):
            r = r @ r
    return r
