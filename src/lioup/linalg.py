"""Dense linear algebra shared by every higher-level module.

One input rule, `as_matrix`, serves every routine: float64 stays real and
every other dtype becomes complex128, so real input runs in real arithmetic
(complex eigenvalues in exactly conjugate pairs, a real expm).  eigvals()
also takes (n, d, d) stacks.  Problem sizes are tiny (operators up to
16x16, superoperators up to 256x256), so the routines favor robustness and
reproducibility over speed: LAPACK eigensolvers with a fixed deterministic
eigenvalue ordering (eig() gives right eigenpairs only) and
scaling-and-squaring expm.  scipy.linalg is imported inside expm, the only
function that uses it, because loading it costs about 0.3 s of CPU at
start-up and most commands never propagate.
"""

import numpy as np

# Soft size cap: nothing in this package needs more than the 16^2-dimensional
# Fock-Liouville space of the four-level model.
MAX_DIM = 256

TOL_RANK = 1e-7


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


def expm(a):
    """Matrix exponential (scaling and squaring)."""
    import scipy.linalg

    a = as_matrix(a)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {a.shape}")
    return scipy.linalg.expm(a)
