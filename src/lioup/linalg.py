"""Dense complex linear algebra shared by every higher-level module.

Matrices are plain numpy arrays of complex128, square and finite; eigvals()
also keeps float64 input real and takes stacks.  Problem sizes are tiny
(operators up to 16x16, superoperators up to 256x256), so the routines favor
robustness and reproducibility over speed: LAPACK eigensolvers with a fixed
deterministic eigenvalue ordering (eig() gives right eigenpairs only) and
scaling-and-squaring expm.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Soft size cap: nothing in this package needs more than the 16^2-dimensional
# Fock-Liouville space of the four-level model.
MAX_DIM = 256

TOL_EIG = 1e-9
TOL_RANK = 1e-7


class ConvergenceError(RuntimeError):
    """Eigensolver failed to converge within the LAPACK iteration budget."""


def real_or_complex(a):
    """`a` as an array: float64 stays real, every other dtype becomes complex128.

    A real matrix goes to the real LAPACK eigensolver, whose complex
    eigenvalues come in exactly conjugate pairs.
    """
    a = np.asarray(a)
    return a if a.dtype == np.float64 else a.astype(complex)


def as_matrix(a):
    """Coerce to a square, finite 2-D complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if max(m.shape) > MAX_DIM:
        raise ValueError(f"matrix dimension {m.shape} exceeds desk-scale cap {MAX_DIM}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


@dataclass(frozen=True)
class EigenDecomposition:
    """Right eigenpairs in a deterministic order.

    values        : (n,) eigenvalues sorted lexicographically by (re, im)
    right_vectors : (n, n) unit-norm right eigenvectors as columns
    residuals     : (n,) two-norms of a @ v_i - values[i] * v_i
    """

    values: np.ndarray
    right_vectors: np.ndarray
    residuals: np.ndarray


def eig(a):
    """Full eigendecomposition with deterministic (re, im) ordering.

    Eigenvectors of defective matrices come back numerically parallel; no
    orthogonality is promised.  Raises ConvergenceError if the QR iteration
    fails (the message carries the Frobenius norm of the input).
    """
    a = as_matrix(a)
    n = a.shape[0]
    try:
        w, vr = scipy.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(
            f"eigensolver did not converge for {n}x{n} matrix "
            f"(||A||_F = {np.linalg.norm(a):.6e}, LAPACK iteration cap reached)"
        ) from exc

    order = np.lexsort((w.imag, w.real))
    w = w[order]
    vr = vr[:, order]
    vr = vr / np.linalg.norm(vr, axis=0)
    residuals = np.linalg.norm(a @ vr - vr * w, axis=0)
    return EigenDecomposition(values=w, right_vectors=vr, residuals=residuals)


def eigvals(a):
    """Eigenvalues only, in the same deterministic order as eig().

    `a` is one square matrix or an (n, d, d) stack of them; each matrix's
    eigenvalues are ordered on their own, and are the same bits as for a
    separate call.  float64 input is solved in real arithmetic, any other
    dtype as complex; the result is complex128 either way.
    """
    a = real_or_complex(a)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.shape[-1] > MAX_DIM:
        raise ValueError(f"expected a square matrix or a stack of them, up to "
                         f"{MAX_DIM}x{MAX_DIM}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    w = np.linalg.eigvals(a).astype(complex, copy=False)
    return np.take_along_axis(w, np.lexsort((w.imag, w.real), axis=-1), axis=-1)


def expm(a):
    """Matrix exponential (scaling and squaring)."""
    a = as_matrix(a)
    return scipy.linalg.expm(a)
