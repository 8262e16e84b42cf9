import numpy as np
import pytest
from hypothesis import strategies as st

from lioup import spectra
from lioup.model import ModelParams


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@st.composite
def model_params(draw):
    # ground scales stay below gamma_sp / 10, where the reduction is valid
    gamma_sp = draw(st.floats(1e3, 1e8))
    return ModelParams(
        omega=draw(st.floats(0.0, 100.0)), j=draw(st.floats(0.0, 100.0)),
        delta_rf=draw(st.floats(-100.0, 100.0)),
        delta_opt=gamma_sp * draw(st.floats(-2.0, 2.0)), gamma_sp=gamma_sp,
        gamma_g=draw(st.floats(0.0, 10.0)), q=draw(st.floats(0.0, 1.0)))


def misindexed_reports(doc):
    """Degeneracy reports of a `spectrum` output whose `indices` point at
    listed eigenvalues farther from `cluster_value` than `gap_residual`,
    plus 1e-9 of the largest |eigenvalue| for the printed digits."""
    def number(z):
        return complex(float(z["re"]), float(z["im"]))

    ev = np.array([number(z) for z in doc["eigenvalues"]])
    slack = 1e-9 * np.abs(ev).max()
    return [r for r in doc["degeneracies"]
            if np.abs(ev[r["indices"]] - number(r["cluster_value"])).max()
            > float(r["gap_residual"]) + slack]


def inconsistent_reports(reports):
    """Degeneracy reports, as `EPReport`s or as the JSON a command prints,
    whose geometric multiplicity is not their number of Jordan chains, whose
    chains do not sum to their algebraic multiplicity, or whose order is not
    their longest chain."""
    def get(r, key):
        return r[key] if isinstance(r, dict) else getattr(r, key)

    return [r for r in reports
            if get(r, "geometric_mult") != len(get(r, "partition"))
            or sum(get(r, "partition")) != get(r, "algebraic_mult")
            or get(r, "order") != max(get(r, "partition"), default=0)]


def schur_partition(a, values, indices):
    """Reference Jordan partition, longest chain first, of the cluster
    values[indices] of `a`, from an ordered complex Schur form.

    The sort puts first every Schur eigenvalue whose nearest entry of
    `values` belongs to the cluster, so the leading m x m block holds the
    cluster alone.  Its chains are counted from the nullities of powers of
    (block - mean I) / ||block - mean I||_2, above the cut that
    detect_degeneracy documents: max(2 spread, CLUSTER_C eps ||a||_2) over
    the same norm.
    """
    import scipy.linalg

    indices = list(indices)
    m = len(indices)
    t, _, sdim = scipy.linalg.schur(
        a, output="complex",
        sort=lambda z: int(np.argmin(np.abs(values - z))) in indices)
    assert sdim == m
    center = values[indices].mean()
    block = t[:m, :m] - center * np.eye(m)
    norm = np.linalg.norm(block, 2)
    if norm == 0.0:
        return (1,) * m
    cut = max(2.0 * np.abs(values[indices] - center).max(),
              spectra.CLUSTER_C * np.finfo(float).eps * np.linalg.norm(a, 2)) / norm
    nullity = [0] + [m - int(np.count_nonzero(np.linalg.svd(
        np.linalg.matrix_power(block / norm, k), compute_uv=False) > cut))
        for k in range(1, m + 1)]
    longer = np.diff(nullity).tolist() + [0]  # chains longer than k - 1
    return tuple(k for k in range(m, 0, -1)
                 for _ in range(longer[k - 1] - longer[k]))


def h_nh_tuned(omega, j):
    """Resonant effective NHH [[0, J, 0], [J, -2i*Omega, J], [0, J, 0]]."""
    return np.array([[0, j, 0], [j, -2j * omega, j], [0, j, 0]], dtype=complex)


def h_nh_detuned(omega, j, delta):
    """Detuned effective NHH in the detuned-regime sign convention.

    diag(+delta, ., -delta); the builder convention of build_full4_rwa and
    reduce_effective carries the opposite sign, which mirrors the spectrum's
    delta -> -delta symmetry (state reversal |1,1> <-> |1,-1>).
    """
    return np.array([[delta, j, 0], [j, -2j * omega, j], [0, j, -delta]],
                    dtype=complex)


def reference_hybrid_matrix(omega, j, delta, q):
    """Hand-assembled resonant/detuned hybrid-Liouvillian matrix.

    This is the 9x9 entry pattern in one conventional Gell-Mann ordering;
    only the last row depends on the jump weight q, and it vanishes at q = 1
    (trace preservation).  Used to pin the generator construction up to a
    signed permutation of the non-identity basis elements.
    """
    s3 = np.sqrt(3.0)
    om, d = omega, delta
    return np.array([
        [-2 * om, -d, 0, 0, j, 0, 0, 0, 0],
        [d, -2 * om, -2 * j, -j, 0, 0, 0, 0, 0],
        [0, 2 * j, -2 * om, 0, 0, 0, -j, 2 * om / s3, 2 * np.sqrt(2 / 3) * om],
        [0, j, 0, 0, -2 * d, 0, -j, 0, 0],
        [-j, 0, 0, 2 * d, 0, j, 0, 0, 0],
        [0, 0, 0, 0, -j, -2 * om, -d, 0, 0],
        [0, 0, j, j, 0, d, -2 * om, -s3 * j, 0],
        [0, 0, 2 * om / s3, 0, 0, 0, s3 * j, -(2 / 3) * om, -(2 / 3) * np.sqrt(2) * om],
        [0, 0, -2 * np.sqrt(2 / 3) * om * (q - 1), 0, 0, 0, 0,
         (2 / 3) * np.sqrt(2) * om * (q - 1), (4 / 3) * om * (q - 1)],
    ], dtype=complex)


def find_signed_permutation(a, b, fix_last=True, tol=1e-9):
    """Signed permutation T (T[p(i), i] = s_i) with T a T^T == b, or None.

    Entries of both matrices must be real.  The last index can be pinned
    (identity element last in both orderings).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if np.abs(a.imag).max() > tol or np.abs(b.imag).max() > tol:
        return None
    a, b = a.real, b.real
    n = a.shape[0]
    abs_a, abs_b = np.abs(a), np.abs(b)

    def profile(m, i):
        return tuple(np.round(np.sort(np.concatenate([np.abs(m[i]), np.abs(m[:, i])])), 8))

    prof_a = [profile(a, i) for i in range(n)]
    prof_b = [profile(b, i) for i in range(n)]
    cand = [[jj for jj in range(n) if prof_a[i] == prof_b[jj]] for i in range(n)]
    if fix_last:
        cand[n - 1] = [n - 1] if prof_a[n - 1] == prof_b[n - 1] else []

    perm = [None] * n
    used = set()

    def consistent(i, jj):
        for i2 in range(i):
            j2 = perm[i2]
            if (abs(abs_a[i, i2] - abs_b[jj, j2]) > tol
                    or abs(abs_a[i2, i] - abs_b[j2, jj]) > tol):
                return False
        return abs(abs_a[i, i] - abs_b[jj, jj]) <= tol

    def backtrack(i):
        if i == n:
            return True
        for jj in cand[i]:
            if jj not in used and consistent(i, jj):
                perm[i] = jj
                used.add(jj)
                if backtrack(i + 1):
                    return True
                used.discard(jj)
                perm[i] = None
        return False

    if not backtrack(0):
        return None

    # propagate signs over the graph of nonzero off-diagonal entries
    signs = [None] * n
    signs[n - 1 if fix_last else 0] = 1.0
    for _ in range(n):
        for i in range(n):
            if signs[i] is None:
                continue
            for jj in range(n):
                if i == jj or signs[jj] is not None:
                    continue
                if abs(a[i, jj]) > tol:
                    signs[jj] = np.sign(b[perm[i], perm[jj]] / a[i, jj]) * signs[i]
                elif abs(a[jj, i]) > tol:
                    signs[jj] = np.sign(b[perm[jj], perm[i]] / a[jj, i]) * signs[i]
    signs = [1.0 if s is None else s for s in signs]

    t = np.zeros((n, n))
    for i in range(n):
        t[perm[i], i] = signs[i]
    if np.abs(t @ a @ t.T - b).max() > 1e-8 * max(np.abs(b).max(), 1.0):
        return None
    return t
