"""Dense complex linear algebra shared by every higher-level module.

All matrices are plain numpy arrays of complex128.  Problem sizes are tiny
(operators up to 16x16, superoperators up to 256x256), so the routines favor
robustness and reproducibility over speed: LAPACK eigensolvers with a fixed
deterministic eigenvalue ordering, SVD-based ranks, scaling-and-squaring
expm, and the closed-form cubic with stable branch selection.
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


def as_matrix(a, *, square=False, finite=True):
    """Coerce to a 2-D complex128 array, optionally enforcing squareness."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if max(m.shape) > MAX_DIM:
        raise ValueError(f"matrix dimension {m.shape} exceeds desk-scale cap {MAX_DIM}")
    if finite and not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def _scale(a):
    s = np.abs(a).max() if a.size else 0.0
    return max(s, 1.0)


def is_hermitian(a, tol=1e-12):
    a = as_matrix(a, square=True)
    return np.abs(a - a.conj().T).max() <= tol * _scale(a)


def is_symmetric(a, tol=1e-12):
    a = as_matrix(a, square=True)
    return np.abs(a - a.T).max() <= tol * _scale(a)


def is_antisymmetric(a, tol=1e-12):
    a = as_matrix(a, square=True)
    return np.abs(a + a.T).max() <= tol * _scale(a)


def is_real(a, tol=1e-12):
    a = as_matrix(a)
    return np.abs(a.imag).max() <= tol * _scale(a)


def is_imaginary(a, tol=1e-12):
    a = as_matrix(a)
    return np.abs(a.real).max() <= tol * _scale(a)


@dataclass(frozen=True)
class EigenDecomposition:
    """Right (and optionally left) eigenpairs in a deterministic order.

    values        : (n,) eigenvalues sorted lexicographically by (re, im)
    right_vectors : (n, n) unit-norm right eigenvectors as columns
    left_vectors  : (n, n) unit-norm left eigenvectors as rows
                    (u_i @ a == values[i] * u_i), or None if not requested
    residuals     : (n,) two-norms of a @ v_i - values[i] * v_i
    """

    values: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray | None
    residuals: np.ndarray


def eig(a, want_left=False):
    """Full eigendecomposition with deterministic (re, im) ordering.

    Eigenvectors of defective matrices come back numerically parallel; no
    orthogonality is promised.  Raises ConvergenceError if the QR iteration
    fails (the message carries the Frobenius norm of the input).
    """
    a = as_matrix(a, square=True)
    n = a.shape[0]
    try:
        if want_left:
            w, vl, vr = scipy.linalg.eig(a, left=True, right=True)
        else:
            w, vr = scipy.linalg.eig(a)
            vl = None
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

    left = None
    if want_left:
        vl = vl[:, order]
        # scipy convention: vl[:,i]^H a = w[i] vl[:,i]^H, so rows are u_i = vl[:,i]^H
        left = vl.conj().T
        left = left / np.linalg.norm(left, axis=1)[:, None]
    return EigenDecomposition(values=w, right_vectors=vr, left_vectors=left,
                              residuals=residuals)


def eigvals(a):
    """Eigenvalues only, in the same deterministic order as eig().

    `a` is one square matrix or an (n, d, d) stack of them; each matrix's
    eigenvalues are ordered on their own, and are the same bits as for a
    separate call.
    """
    if np.ndim(a) == 3:
        a = np.asarray(a, dtype=complex)
        if a.shape[1] != a.shape[2] or a.shape[1] > MAX_DIM:
            raise ValueError(f"expected a stack of square matrices up to "
                             f"{MAX_DIM}x{MAX_DIM}, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix contains non-finite entries")
    else:
        a = as_matrix(a, square=True)
    w = np.linalg.eigvals(a)
    return np.take_along_axis(w, np.lexsort((w.imag, w.real), axis=-1), axis=-1)


def svd_rank(a, tol_rank=TOL_RANK):
    """Number of singular values above tol_rank * sigma_max (0 for the zero matrix)."""
    a = as_matrix(a)
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol_rank * s[0]))


def kron(a, b):
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] * b.shape[0] > MAX_DIM or a.shape[1] * b.shape[1] > MAX_DIM:
        raise ValueError("Kronecker product exceeds the desk-scale cap")
    return np.kron(a, b)


def expm(a):
    """Matrix exponential (scaling and squaring)."""
    a = as_matrix(a, square=True)
    return scipy.linalg.expm(a)


def cubic_roots(c2, c1, c0):
    """Roots of the monic cubic x^3 + c2 x^2 + c1 x + c0.

    Closed-form (Cardano) solution; the cube-root branch is picked with the
    larger magnitude so the subtraction p/(3u) never cancels catastrophically.
    Returned sorted lexicographically by (re, im).
    """
    c2, c1, c0 = complex(c2), complex(c1), complex(c0)
    # depressed cubic t^3 + p t + q with x = t - c2/3
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * c2 ** 3 / 27.0 - c2 * c1 / 3.0 + c0
    shift = -c2 / 3.0
    if p == 0 and q == 0:
        roots = np.array([shift, shift, shift])
    else:
        disc = np.sqrt(0.25 * q * q + p ** 3 / 27.0 + 0j)
        u3a = -0.5 * q + disc
        u3b = -0.5 * q - disc
        u3 = u3a if abs(u3a) >= abs(u3b) else u3b
        u = u3 ** (1.0 / 3.0)
        omega = np.exp(2j * np.pi / 3.0)
        roots = []
        for k in range(3):
            uk = u * omega ** k
            roots.append(uk - p / (3.0 * uk) + shift)
        roots = np.array(roots)
    return roots[np.lexsort((roots.imag, roots.real))]
