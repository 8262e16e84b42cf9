"""Vectorization of density matrices and assembly of (hybrid) Liouvillians.

Two vectorizations of a d x d operator appear, with d from the operand:

* generalized Gell-Mann, the computational basis: Hermitian trace-orthogonal
  set, Tr(s_i s_j) = 2 d_ij, ordered symmetric pairs (j<k lexicographic),
  antisymmetric pairs, diagonal matrices by increasing rank,
  identity-proportional element last.  Components of rho are Tr(rho s_i)/2
  (`vectorize`, and `devectorize` back).
* Fock-Liouville: column stacking, |rho>>[i + d*j] = rho_ij, i.e. the |i> (x)
  |j*> convention with the column index running fastest: rho.flatten("F").
  It is the basis of the Kronecker assembly `fock_liouville_matrix`.

The hybrid Liouvillian is L(q) = -i Hhat_NH + q Lambdahat
= -i Hhat + Gammahat + q Lambdahat: the relaxation part is always fully
included, only the quantum-jump (repopulation) term is q-weighted.  One
Kronecker assembly writes it, and `hybrid_liouvillian(sys, q)` returns it
in the Gell-Mann basis as a plain matrix; at q = 0 it is the jump-free
(NHH) superoperator rho -> -i(H_nh rho - rho H_nh^dag).

`generator(name)` writes a model's L(p) as sum_k c_k(p) B_k with real
Gell-Mann B_k, and its non-Hermitian Hamiltonian as
H_nh(p) = sum_k c_k(p) A_k with the same coefficients and complex d x d
A_k.  Its `matrices` and `operators` give the stack at one point or a
grid over one or two fields from one coefficient evaluation and one small
contraction per point; the spectrum does not depend on the basis.  Both
term sets are solved once per model from its builder at the probe
parameters: the A_k from the probes' H_nh, the B_k from the Kronecker
assembly and the cached similarity S^H L S / 2 with
S[:, i] = vec(s_i); `hybrid_liouvillian` and `LindbladSystem.h_nh` are
the references it is tested against.  `superop_of_map`, `h_superop` and
`gamma_superop` evaluate the Gell-Mann M_ij = Tr(map(s_j) s_i)/2 directly,
independently of the Kronecker path, taking the dimension from h or, where
a jump set may be empty, from d.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import model
from .model import LindbladSystem, ModelParams


def _check_dim(d):
    if not 2 <= d <= 16:
        raise ValueError("basis dimension must be in [2, 16]")


@functools.lru_cache(maxsize=None)
def gellmann_basis(d):
    """Generalized Gell-Mann basis for a d-level system (Pauli set at d=2).

    The cached, read-only (d^2, d, d) array of the basis matrices, identity-
    proportional element last.
    """
    _check_dim(d)
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1.0
            mats.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j
            m[k, j] = 1j
            mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -l
        mats.append(m * np.sqrt(2.0 / (l * (l + 1))))
    mats.append(np.sqrt(2.0 / d) * np.eye(d, dtype=complex))
    mats = np.array(mats)
    mats.flags.writeable = False
    return mats


def vectorize(rho):
    """Gell-Mann components Tr(rho s_i)/2 of a d x d operator."""
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    if rho.shape != (d, d):
        raise ValueError("rho must be square")
    return 0.5 * np.einsum("ab,iba->i", rho, gellmann_basis(d))


def devectorize(vec):
    """The d x d operator of a length-d^2 vector of Gell-Mann components."""
    vec = np.asarray(vec, dtype=complex)
    d = math.isqrt(vec.size)
    if vec.shape != (d * d,):
        raise ValueError("vector length must be a square d^2")
    return np.einsum("i,iab->ab", vec, gellmann_basis(d))


def superop_of_map(apply_fn, d):
    """Gell-Mann matrix of a linear map on d x d operators,
    M_ij = Tr(map(s_j) s_i)/2."""
    gm = gellmann_basis(d)
    images = np.array([apply_fn(s) for s in gm])
    return 0.5 * np.einsum("jab,iba->ij", images, gm)


def h_superop(h):
    """Hamiltonian superoperator Hhat_ij = Tr([H, s_j] s_i)/2.

    Requires Hermitian input (antisymmetric, purely imaginary output); a
    non-Hermitian H_nh = H - (i/2) sum L^dag L is the q = 0 hybrid_liouvillian
    of the system (H, jumps) instead.
    """
    h = np.asarray(h, dtype=complex)
    scale = max(np.linalg.norm(h), 1.0)
    if np.linalg.norm(h - h.conj().T) > 1e-10 * scale:
        raise ValueError("h_superop requires a Hermitian matrix; use "
                         "hybrid_liouvillian at q = 0 for H - (i/2) sum L^dag L")
    return superop_of_map(lambda s: h @ s - s @ h, h.shape[0])


def gamma_superop(jumps, d):
    """Relaxation superoperator, -1/4 sum Tr({L^dag L, s_j} s_i); symmetric, real."""
    g = sum((np.asarray(l, dtype=complex).conj().T @ np.asarray(l, dtype=complex)
             for l in jumps), np.zeros((d, d), dtype=complex))
    return superop_of_map(lambda s: -0.5 * (g @ s + s @ g), d)


@functools.lru_cache(maxsize=None)
def _gellmann_similarity(d):
    """(S, S^H / 2) with S[:, i] = vec(s_i), column stacking."""
    s = gellmann_basis(d).transpose(0, 2, 1).reshape(d * d, d * d).T.copy()
    s_inv = 0.5 * s.conj().T
    s.flags.writeable = s_inv.flags.writeable = False
    return s, s_inv


def hybrid_liouvillian(sys: LindbladSystem, q):
    """Gell-Mann matrix of the hybrid Liouvillian
    L(q) = -i Hhat + Gammahat + q Lambdahat.

    q = 0 is the NHH superoperator of the system, q = 1 the full Lindblad
    generator.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    s, s_inv = _gellmann_similarity(sys.dim)
    return s_inv @ fock_liouville_matrix(sys.hamiltonian, sys.jumps, q) @ s


def fock_liouville_matrix(h, jumps, q):
    """Column-stacked matrix of
    rho -> -i(H rho - rho H^dag) + sum_L (q L rho L^dag - {L^dag L, rho}/2)."""
    d = h.shape[0]
    eye = np.eye(d)
    # column stacking: vec(A rho B) = (B^T kron A) vec(rho)
    m = -1j * (np.kron(eye, h) - np.kron(h.conj(), eye))
    for op in jumps:
        ll = op.conj().T @ op
        m += q * np.kron(op.conj(), op)
        m -= 0.5 * (np.kron(eye, ll) + np.kron(ll.T, eye))
    return m


# Largest imaginary part, relative to a term's largest entry, that counts as
# rounding when a generator's Gell-Mann terms are made real.
REAL_TERMS_TOL = 1e-12


@dataclass(frozen=True)
class Generator:
    """A model's generators as sums of fixed terms with scalar coefficients.

    L(p) = sum_k c_k(p) B_k is the hybrid Liouvillian at jump weight p.q and
    H_nh(p) = sum_k c_k(p) A_k the non-Hermitian Hamiltonian.  `terms` holds
    the B_k in the Gell-Mann basis, where they are real, and
    `operator_terms` the complex A_k, both flattened to rows; the A_k of the
    q-weighted coefficients are zero, since the jump term has no operator
    part.  `matrices` and `operators` contract each row of
    `form.coefficients(p, points)`, which runs the model's parameter checks,
    with the terms: one matrix per point.
    """

    form: model.LinearForm
    terms: np.ndarray  # (K, d^4) float64, read-only
    operator_terms: np.ndarray  # (K, d^2) complex128, read-only

    def matrices(self, p: ModelParams, points=None) -> np.ndarray:
        """The float64 hybrid_liouvillian(build(p), p.q) as an
        (n, d^2, d^2) stack: the one at p, or one per point of `points` (see
        LinearForm.coefficients, which checks no value)."""
        return _contract(self.form.coefficients(p, points), self.terms)

    def operators(self, p: ModelParams, points=None) -> np.ndarray:
        """The complex128 non-Hermitian Hamiltonians build(p).h_nh() as an
        (n, d, d) stack, at the points that `matrices` takes."""
        return _contract(self.form.coefficients(p, points), self.operator_terms)


def _contract(rows, terms):
    """One square matrix per coefficient row, each its own row @ terms.

    A single (n, K) @ (K, M) product would round differently in the last
    bits and run on every BLAS thread.
    """
    d = math.isqrt(terms.shape[1])
    out = np.empty((len(rows), d, d), np.result_type(rows, terms))
    for c, o in zip(rows, out.reshape(len(rows), d * d)):
        np.matmul(c, terms, out=o)
    return out


@functools.lru_cache(maxsize=None)
def generator(name) -> Generator:
    """The parametric generator of model `name` ("eff3" or "full4").

    Built once per process from one system per probe parameter set.  The
    probes' Kronecker matrices and non-Hermitian Hamiltonians are linear in
    their coefficient vectors, so one small system, solved for each, gives
    the Fock-Liouville B_k and the A_k.  The A_k of coefficients that vanish
    at q = 0 are set to exactly zero.  The B_k go through the cached
    similarity to the Gell-Mann basis, where a Hermiticity-preserving map is
    real; an imaginary part above rounding level raises ValueError.
    """
    form = model.LINEAR_FORMS[name]
    n = form.dim ** 2
    coeffs = np.concatenate([form.coefficients(p) for p in form.probes])
    systems = [form.build(p) for p in form.probes]
    mats = np.array([fock_liouville_matrix(sys.hamiltonian, sys.jumps, p.q).ravel()
                     for sys, p in zip(systems, form.probes)])
    s, s_inv = _gellmann_similarity(form.dim)
    terms = s_inv @ np.linalg.solve(coeffs, mats).reshape(-1, n, n) @ s
    imag = np.abs(terms.imag).max(axis=(1, 2))
    if np.any(imag > REAL_TERMS_TOL * np.abs(terms).max(axis=(1, 2))):
        raise ValueError(f"the Gell-Mann terms of model {name!r} are not real "
                         f"(largest imaginary part {imag.max():.3e})")
    terms = np.ascontiguousarray(terms.real).reshape(len(terms), n * n)
    ops = np.linalg.solve(coeffs, np.array([sys.h_nh().ravel() for sys in systems]))
    q_free = np.concatenate([form.coefficients(p, {"q": 0.0})
                             for p in form.probes]).any(axis=0)
    ops[~q_free] = 0.0
    terms.flags.writeable = ops.flags.writeable = False
    return Generator(form=form, terms=terms, operator_terms=ops)
