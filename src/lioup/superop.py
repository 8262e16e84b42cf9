"""Vectorization of density matrices and assembly of (hybrid) Liouvillians.

Two superoperator bases are supported:

* generalized Gell-Mann: Hermitian trace-orthogonal set, Tr(s_i s_j) = 2 d_ij,
  ordered symmetric pairs (j<k lexicographic), antisymmetric pairs, diagonal
  matrices by increasing rank, identity-proportional element last.  Components
  of rho are Tr(rho s_i)/2.
* Fock-Liouville: column stacking, |rho>>[i + d*j] = rho_ij, i.e. the
  |i> (x) |j*> convention with the column index running fastest.

The hybrid Liouvillian is L(q) = -i Hhat_NH + q Lambdahat
= -i Hhat + Gammahat + q Lambdahat: the relaxation part is always fully
included, only the quantum-jump (repopulation) term is q-weighted.

Every generator is assembled once, in Fock-Liouville form, from Kronecker
products.  Its Gell-Mann matrix is the similarity S^H L S / 2 with
S[:, i] = vec(s_i), cached per dimension.  `generator(name)` writes a
model's L(p) as sum_k c_k(p) B_k over fixed Fock-Liouville matrices B_k,
derived once per model from its builder, so sweeps and searches cost one
small contraction per point.  `h_superop`, `gamma_superop` and
`lambda_superop` evaluate M_ij = Tr(map(s_j) s_i)/2 directly; they are the
independent reference the Kronecker path is tested against.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import model
from .model import LindbladSystem, ModelParams

GELLMANN = "gellmann"
FOCKLIOUVILLE = "fockliouville"


@dataclass(frozen=True)
class BasisTag:
    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (GELLMANN, FOCKLIOUVILLE):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if not 2 <= self.dim <= 16:
            raise ValueError("basis dimension must be in [2, 16]")


@dataclass(frozen=True)
class GellMannBasis:
    dim: int
    matrices: np.ndarray  # (dim^2, dim, dim), identity-proportional element last

    @property
    def tag(self):
        return BasisTag(GELLMANN, self.dim)


@dataclass(frozen=True)
class SuperOperator:
    """A d^2 x d^2 matrix tagged with its basis convention and origin."""

    matrix: np.ndarray
    basis: BasisTag
    origin: str  # "nhh" | "hybrid" | "liouvillian"
    q: float | None = None

    def to_json(self):
        return {
            "basis": {"kind": self.basis.kind, "dim": self.basis.dim},
            "origin": self.origin,
            "q": self.q,
            "matrix": matrix_to_json(self.matrix),
        }


def matrix_to_json(m):
    """Nested lists of [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


@functools.lru_cache(maxsize=None)
def _gellmann_cached(d):
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
    return np.array(mats)


def gellmann_basis(d):
    """Generalized Gell-Mann basis for a d-level system (Pauli set at d=2)."""
    if not 2 <= d <= 16:
        raise ValueError("d must be in [2, 16]")
    return GellMannBasis(dim=d, matrices=_gellmann_cached(d))


def _as_gm(basis):
    if isinstance(basis, GellMannBasis):
        return basis
    if isinstance(basis, BasisTag) and basis.kind == GELLMANN:
        return gellmann_basis(basis.dim)
    raise ValueError("a Gell-Mann basis is required here")


def vectorize(rho, basis):
    """Coefficient vector of a d x d operator in the given basis."""
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    if rho.shape != (d, d):
        raise ValueError("rho must be square")
    if isinstance(basis, GellMannBasis) or (
            isinstance(basis, BasisTag) and basis.kind == GELLMANN):
        gm = _as_gm(basis)
        if gm.dim != d:
            raise ValueError("dimension mismatch between rho and basis")
        return 0.5 * np.einsum("ab,iba->i", rho, gm.matrices)
    if isinstance(basis, BasisTag) and basis.kind == FOCKLIOUVILLE:
        if basis.dim != d:
            raise ValueError("dimension mismatch between rho and basis")
        return rho.flatten(order="F")
    raise ValueError(f"unknown basis {basis!r}")


def devectorize(vec, basis):
    vec = np.asarray(vec, dtype=complex)
    if isinstance(basis, GellMannBasis) or (
            isinstance(basis, BasisTag) and basis.kind == GELLMANN):
        gm = _as_gm(basis)
        if vec.shape != (gm.dim ** 2,):
            raise ValueError("vector has wrong length for this basis")
        return np.einsum("i,iab->ab", vec, gm.matrices)
    if isinstance(basis, BasisTag) and basis.kind == FOCKLIOUVILLE:
        d = basis.dim
        if vec.shape != (d ** 2,):
            raise ValueError("vector has wrong length for this basis")
        return vec.reshape((d, d), order="F")
    raise ValueError(f"unknown basis {basis!r}")


def superop_of_map(apply_fn, basis):
    """Matrix of a linear map on operators, M_ij = Tr(map(s_j) s_i)/2."""
    gm = _as_gm(basis)
    images = np.array([apply_fn(s) for s in gm.matrices])
    return 0.5 * np.einsum("jab,iba->ij", images, gm.matrices)


def h_superop(h, basis):
    """Hamiltonian superoperator Hhat_ij = Tr([H, s_j] s_i)/2.

    Requires Hermitian input (antisymmetric, purely imaginary output); route
    non-Hermitian generators through nhh_superop instead.
    """
    h = np.asarray(h, dtype=complex)
    scale = max(np.linalg.norm(h), 1.0)
    if np.linalg.norm(h - h.conj().T) > 1e-10 * scale:
        raise ValueError("h_superop requires a Hermitian matrix; use nhh_superop")
    return superop_of_map(lambda s: h @ s - s @ h, basis)


def gamma_superop(jumps, basis):
    """Relaxation superoperator, -1/4 sum Tr({L^dag L, s_j} s_i); symmetric, real."""
    gm = _as_gm(basis)
    d = gm.dim
    g = sum((np.asarray(l, dtype=complex).conj().T @ np.asarray(l, dtype=complex)
             for l in jumps), np.zeros((d, d), dtype=complex))
    return superop_of_map(lambda s: -0.5 * (g @ s + s @ g), gm)


def lambda_superop(jumps, basis):
    """Quantum-jump (repopulation) superoperator, 1/2 sum Tr(L s_j L^dag s_i)."""
    gm = _as_gm(basis)
    ops = [np.asarray(l, dtype=complex) for l in jumps]

    def apply_fn(s):
        out = np.zeros_like(s)
        for l in ops:
            out += l @ s @ l.conj().T
        return out

    return superop_of_map(apply_fn, gm)


@functools.lru_cache(maxsize=None)
def _gellmann_similarity(d):
    """(S, S^H / 2) with S[:, i] = vec(s_i), column stacking."""
    s = _gellmann_cached(d).transpose(0, 2, 1).reshape(d * d, d * d).T.copy()
    s_inv = 0.5 * s.conj().T
    s.flags.writeable = s_inv.flags.writeable = False
    return s, s_inv


def _basis_tag(basis, dim):
    if isinstance(basis, str):
        basis = BasisTag(basis, dim)
    elif isinstance(basis, GellMannBasis):
        basis = basis.tag
    elif not isinstance(basis, BasisTag):
        raise ValueError(f"unknown basis {basis!r}")
    if basis.dim != dim:
        raise ValueError("dimension mismatch between system and basis")
    return basis


def _in_basis(m, tag):
    """A Fock-Liouville matrix in the basis `tag`."""
    if tag.kind == FOCKLIOUVILLE:
        return m
    s, s_inv = _gellmann_similarity(tag.dim)
    return s_inv @ m @ s


def _origin(q):
    return "liouvillian" if q == 1.0 else "hybrid"


def nhh_superop(h_nh, basis):
    """Superoperator of the jump-free generator rho -> -i(H rho - rho H^dag).

    Accepts an arbitrary (non-Hermitian) H; its spectrum is the pairwise set
    -i(E_i - E_j^*) of the operator eigenvalues.
    """
    h_nh = np.asarray(h_nh, dtype=complex)
    d = h_nh.shape[0]
    tag = _basis_tag(basis, d)
    eye = np.eye(d)
    m = -1j * (np.kron(eye, h_nh) - np.kron(h_nh.conj(), eye))
    return SuperOperator(matrix=_in_basis(m, tag), basis=tag, origin="nhh", q=0.0)


def hybrid_liouvillian(sys: LindbladSystem, q, basis) -> SuperOperator:
    """Hybrid Liouvillian L(q) = -i Hhat + Gammahat + q Lambdahat.

    q = 0 is the NHH superoperator of the system, q = 1 the full Lindblad
    generator (tagged "liouvillian").  `basis` may be a GellMannBasis, a
    BasisTag, or one of the strings "gellmann" / "fockliouville".
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    tag = _basis_tag(basis, sys.dim)
    m = _in_basis(_fock_liouville_matrix(sys, q), tag)
    return SuperOperator(matrix=m, basis=tag, origin=_origin(q), q=float(q))


def _fock_liouville_matrix(sys: LindbladSystem, q):
    d = sys.dim
    eye = np.eye(d)
    h = sys.hamiltonian
    # column stacking: vec(A rho B) = (B^T kron A) vec(rho)
    m = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for op in sys.jump_ops():
        ll = op.conj().T @ op
        m += q * np.kron(op.conj(), op)
        m -= 0.5 * (np.kron(eye, ll) + np.kron(ll.T, eye))
    return m


def fock_liouville(sys: LindbladSystem, q) -> SuperOperator:
    """Kronecker-assembled Liouvillian with the jump term weighted by q."""
    return hybrid_liouvillian(sys, q, BasisTag(FOCKLIOUVILLE, sys.dim))


@dataclass(frozen=True)
class Generator:
    """A model's hybrid Liouvillian as L(p) = sum_k c_k(p) B_k.

    `terms` holds the fixed Fock-Liouville matrices B_k, flattened to rows;
    `form.coefficients` gives the scalars c_k(p), and runs the model's
    parameter checks.  Evaluating a point is one contraction, plus the
    cached similarity for the Gell-Mann basis.
    """

    form: model.LinearForm
    terms: np.ndarray  # (K, d^4), read-only

    def matrix(self, p: ModelParams, basis) -> np.ndarray:
        d = self.form.dim
        c = np.array(self.form.coefficients(p), dtype=float)
        return _in_basis((c @ self.terms).reshape(d * d, d * d),
                         _basis_tag(basis, d))

    def __call__(self, p: ModelParams, basis) -> SuperOperator:
        """L(p.q) of the model at p: hybrid_liouvillian(build(p), p.q, basis)."""
        tag = _basis_tag(basis, self.form.dim)
        return SuperOperator(matrix=self.matrix(p, tag), basis=tag,
                             origin=_origin(p.q), q=float(p.q))


@functools.lru_cache(maxsize=None)
def generator(name) -> Generator:
    """The parametric generator of model `name` ("eff3" or "full4").

    Built once per process: the Kronecker matrices at the model's probe
    parameters are linear in the coefficient vectors there, which one small
    solve inverts for the B_k.
    """
    form = model.LINEAR_FORMS[name]
    coeffs = np.array([form.coefficients(p) for p in form.probes], dtype=float)
    mats = np.array([_fock_liouville_matrix(form.build(p), p.q).ravel()
                     for p in form.probes])
    terms = np.linalg.solve(coeffs, mats)
    terms.flags.writeable = False
    return Generator(form=form, terms=terms)


def isotropic_extension(base: SuperOperator, gamma_g, q) -> SuperOperator:
    """Add isotropic ground relaxation to an effective three-level Liouvillian.

    In the Gell-Mann basis with the identity element last this is the diagonal
    correction -gamma * diag(1, ..., 1, 1-q): a uniform -gamma shift of the
    whole spectrum at q = 0, and of everything except the stationary state at
    q = 1.
    """
    if gamma_g < 0:
        raise ValueError("gamma_g must be non-negative")
    if base.basis.kind != GELLMANN or base.basis.dim != 3:
        raise ValueError("isotropic extension expects the 3-level Gell-Mann form")
    if base.q is not None and abs(base.q - q) > 1e-12:
        raise ValueError("q must match the q of the base hybrid Liouvillian")
    diag = np.full(9, gamma_g)
    diag[-1] = gamma_g * (1.0 - q)
    m = base.matrix - np.diag(diag)
    return SuperOperator(matrix=m, basis=base.basis, origin=base.origin, q=base.q)
