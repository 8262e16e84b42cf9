"""Spectral analysis of operators and superoperators.

Covers eigenvalue classification, quasienergy splittings, degeneracy
detection with Jordan-structure estimation (rank plateaus of powers),
the operator <-> superoperator spectral correspondence, continuity-tracked
parameter sweeps, gap-minimization EP search, and an evolution cross-check
(expm against eigen-expansion).  Matrices follow linalg's input rule, so
a float64 generator is solved in real arithmetic.

Results are plain values: `classify` gives kind strings, `splittings`
(i, j, dE_real, dE_imag) tuples, and `detect_degeneracy` the eigenvalues
with reports whose `indices` index them.  The builders that `sweep` and
`find_ep` call return the matrix at the given ModelParams as an array, and
`evolve_check` takes the generator's Gell-Mann matrix as an array.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from . import linalg, superop
from .model import ModelParams

STATIONARY = "stationary"
PURE_OSCILLATION = "pure_oscillation"
PURE_DECAY = "pure_decay"
DAMPED_OSCILLATION = "damped_oscillation"
UNSTABLE = "unstable"

# scale-free default thresholds (relative to spectral diameter)
TOL_CLUSTER_REL = 1e-6
TOL_CLASS_REL = 1e-8


def spectral_diameter(values):
    values = np.asarray(values)
    if values.size < 2:
        return 0.0
    return float(np.abs(values[:, None] - values[None, :]).max())


def match_distance(a, b):
    """Max absolute mismatch between two equal-size complex multisets
    under the optimal (Hungarian) pairing."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.size != b.size:
        raise ValueError("multisets differ in size")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def classify(values):
    """The dynamical role of each eigenvalue, as one of the kind strings
    STATIONARY, PURE_OSCILLATION, PURE_DECAY, DAMPED_OSCILLATION, UNSTABLE;
    a part within TOL_CLASS_REL times the spectral diameter counts as zero."""
    values = np.asarray(values, dtype=complex)
    tol_class = max(TOL_CLASS_REL * spectral_diameter(values), 1e-300)
    out = []
    for v in values:
        re, im = v.real, v.imag
        if re > tol_class:
            kind = UNSTABLE
        elif abs(re) <= tol_class:
            kind = STATIONARY if abs(im) <= tol_class else PURE_OSCILLATION
        else:
            kind = PURE_DECAY if abs(im) <= tol_class else DAMPED_OSCILLATION
        out.append(kind)
    return out


def splittings(values):
    """Quasienergy splittings (i, j, dE_real, dE_imag) of all index pairs i < j."""
    values = np.asarray(values, dtype=complex)
    pairs = []
    n = values.size
    for i in range(n):
        for j in range(i + 1, n):
            d = values[i] - values[j]
            pairs.append((i, j, float(d.real), float(d.imag)))
    return tuple(pairs)


@dataclass(frozen=True)
class EPReport:
    """A certified spectral degeneracy."""

    cluster_value: complex
    algebraic_mult: int
    geometric_mult: int
    order: int
    kind: str  # "exceptional" | "diabolical" | "hybrid"
    gap_residual: float
    vector_overlap: float
    partition: tuple = ()  # Jordan chain lengths, longest first
    indices: tuple = ()
    params: ModelParams | None = None
    flags: tuple = ()


def _single_linkage(values, tol):
    n = values.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _rank_sequence(m, kmax, coalesce_tol):
    """Ranks of (m / ||m||_2)^k for k = 1..kmax.

    Perturbations of size eps enter matrix powers to first order, so one
    fixed cutoff max(TOL_RANK, coalesce_tol / ||m||) applies to every power
    of the spectrally normalized matrix: singular values responding within
    the eigenvalue coalescence tolerance count as part of the degenerate
    structure.
    """
    norm = np.linalg.norm(m, 2)
    if norm == 0.0:
        return [0] * kmax
    mn = m / norm
    cut = min(max(linalg.TOL_RANK, coalesce_tol / norm), 0.5)
    ranks = []
    p = np.eye(m.shape[0], dtype=complex)
    for _ in range(kmax):
        p = p @ mn
        s = np.linalg.svd(p, compute_uv=False)
        ranks.append(int(np.count_nonzero(s > cut)))
    return ranks


def _partition_from_ranks(n, ranks, mult):
    """Jordan chain lengths from the null-space growth of matrix powers."""
    nulls = [0] + [n - r for r in ranks]
    incr = []
    for k in range(1, len(nulls)):
        step = nulls[k] - nulls[k - 1]
        if incr:
            step = min(step, incr[-1])
        step = max(step, 0)
        if step == 0:
            break
        incr.append(step)
    partition = []
    for length in range(len(incr), 0, -1):
        count = incr[length - 1] - (incr[length] if length < len(incr) else 0)
        partition.extend([length] * count)
    partition.sort(reverse=True)
    # cap total at the cluster's algebraic multiplicity
    total, capped = 0, []
    for length in partition:
        if total + length > mult:
            length = mult - total
        if length <= 0:
            break
        capped.append(length)
        total += length
    return tuple(capped)


def detect_degeneracy(a, tol_cluster=None):
    """Eigenvalues of `a` and the Jordan structure of each cluster of them.

    Returns (values, reports): the eigenvalues from one linalg.eig call and
    an EPReport per cluster of size m >= 2, whose `indices` index `values`.
    Clusters are single-linkage with radius tol_cluster (default 1e-6 times
    the spectral diameter).  The ranks of (a - mean*I)^k, k = 1..m+1, give
    the Jordan partition, the geometric multiplicity n - rank at k = 1
    (clipped to 1..m) and the order, the longest chain.  Two clusters closer
    than twice the radius are flagged as ill-conditioned rather than merged.
    """
    a = linalg.as_matrix(a)
    n = a.shape[0]
    dec = linalg.eig(a)
    w, vecs = dec.values, dec.right_vectors
    diam = spectral_diameter(w)
    if tol_cluster is None:
        tol_cluster = TOL_CLUSTER_REL * diam
    clusters = _single_linkage(w, tol_cluster)

    centers = [np.mean(w[list(g)]) for g in clusters]
    shaky = set()
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if abs(centers[i] - centers[j]) < 2.0 * tol_cluster:
                shaky.update((i, j))

    reports = []
    for ci, group in enumerate(clusters):
        m = len(group)
        if m < 2:
            continue
        center = centers[ci]
        ranks = _rank_sequence(a - center * np.eye(n), m + 1, 2.0 * tol_cluster)
        partition = _partition_from_ranks(n, ranks, m)
        geometric = int(np.clip(n - ranks[0], 1, m))
        if geometric == m:
            kind = "diabolical"
        elif geometric == 1:
            kind = "exceptional"
        else:
            kind = "hybrid"
        overlap = 0.0
        for x in range(m):
            for y in range(x + 1, m):
                overlap = max(overlap, abs(np.vdot(vecs[:, group[x]],
                                                   vecs[:, group[y]])))
        reports.append(EPReport(
            cluster_value=complex(center),
            algebraic_mult=m,
            geometric_mult=geometric,
            order=partition[0] if partition else 1,
            kind=kind,
            gap_residual=float(np.abs(w[list(group)] - center).max()),
            vector_overlap=float(overlap),
            partition=partition,
            indices=tuple(sorted(group)),
            flags=("ill_conditioned_clustering",) if ci in shaky else (),
        ))
    reports.sort(key=lambda r: (r.cluster_value.real, r.cluster_value.imag))
    return w, reports


def correspondence_check(h_nh, super_spectrum):
    """Max mismatch between {-i (E_i - E_j^*)} of the operator and the
    given superoperator spectrum, under optimal pairing."""
    ev = linalg.eig(h_nh).values
    d = ev.size
    super_spectrum = np.asarray(super_spectrum, dtype=complex).ravel()
    if super_spectrum.size != d * d:
        raise ValueError("superoperator spectrum must have d^2 entries")
    pairs = np.array([-1j * (ev[i] - np.conj(ev[j]))
                      for i in range(d) for j in range(d)])
    return match_distance(pairs, super_spectrum)


@dataclass(frozen=True)
class SweepResult:
    parameter: str
    grid: np.ndarray
    branches: np.ndarray  # (n_branches, n_points), continuity-tracked
    ep_candidates: tuple
    failures: tuple = ()  # of (grid index, message)


def sweep(builder, parameter, grid, base: ModelParams):
    """Eigenvalue branches of builder(params) along one parameter grid.

    The grid's matrices are built one after another and solved by one
    batched eigensolve, in real arithmetic while every matrix is float64.
    Branches are tracked between consecutive grid points by the
    minimal-total-distance assignment; grid points whose builder or
    eigensolve raises are recorded as failures and their branch column is NaN.

    EP candidates are the points with more eigenvalue pairs closer than
    1e-5 of the largest spectral diameter on the grid than the fewest any
    point of the grid has.  Degeneracies present at every point, such as the
    symmetry-protected exact doubles of a superoperator spectrum, therefore
    flag nothing; a coalescence on top of them does.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be ascending with at least 2 points")

    stack, built, failures = None, [], []
    for i, x in enumerate(grid):
        try:
            m = np.asarray(builder(base.replace(**{parameter: float(x)})))
            if stack is None:
                stack = np.empty((grid.size,) + m.shape, dtype=m.dtype)
            elif not np.can_cast(m.dtype, stack.dtype):
                stack = stack.astype(np.result_type(stack, m))
            stack[len(built)] = m
        except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
            failures.append((i, _describe(exc)))
        else:
            built.append(i)
    values, failed = _eigvals_each(stack[:len(built)]) if built else ([], [])
    results = [None] * grid.size
    for i, v in zip(built, values):
        results[i] = v
    failures = sorted(failures + [(built[k], msg) for k, msg in failed])

    good = [i for i, r in enumerate(results) if r is not None]
    if not good:
        raise RuntimeError("builder failed at every grid point")
    nb = results[good[0]].size
    branches = np.full((nb, grid.size), np.nan + 1j * np.nan, dtype=complex)
    branches[:, good[0]] = results[good[0]]
    prev = results[good[0]]
    for i in good[1:]:
        cur = results[i]
        cost = np.abs(prev[:, None] - cur[None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        ordered = np.empty_like(cur)
        ordered[rows] = cur[cols]
        branches[:, i] = ordered
        prev = ordered

    counts = _close_pairs(branches[:, good].T)
    fewest = counts.min()
    candidates = tuple(i for i, c in zip(good, counts) if c > fewest)
    return SweepResult(parameter=parameter, grid=grid, branches=branches,
                       ep_candidates=candidates, failures=tuple(failures))


def _close_pairs(values):
    """Per row of `values` (points, n): eigenvalue pairs closer than
    10 * TOL_CLUSTER_REL times the largest spectral diameter over all rows.

    Each pass over the columns compares one column with the ones after it,
    so no (points, n, n) array is formed.
    """
    cols = range(values.shape[1] - 1)
    diam = max((np.abs(values[:, k + 1:] - values[:, k:k + 1]).max()
                for k in cols), default=0.0)
    threshold = 10.0 * TOL_CLUSTER_REL * diam
    counts = np.zeros(len(values), dtype=int)
    for k in cols:
        counts += np.count_nonzero(
            np.abs(values[:, k + 1:] - values[:, k:k + 1]) < threshold, axis=1)
    return counts


def _describe(exc):
    return f"{type(exc).__name__}: {exc}"


def _eigvals_each(stack):
    """Eigenvalues of each matrix of a stack, from one batched solve.

    Should the batched solve raise, every matrix is solved on its own; the
    ones that fail get None and come back as (position, message).
    """
    try:
        return list(linalg.eigvals(stack)), []
    except (ValueError, np.linalg.LinAlgError):
        pass
    values, failed = [], []
    for k, m in enumerate(stack):
        try:
            values.append(linalg.eigvals(m))
        except (ValueError, np.linalg.LinAlgError) as exc:
            values.append(None)
            failed.append((k, _describe(exc)))
    return values, failed


def _gap_objective(values, target_mult):
    """Coalescence measure: the smallest sum of (m-1) nearest-neighbor gaps
    taken from any single eigenvalue.

    This vanishes only where m eigenvalues genuinely meet.  Summing the
    smallest pairwise gaps globally would not: spectra with persistent exact
    doubles (the jump-free superoperator has three of them at every
    parameter value) keep that sum at rounding level everywhere.
    """
    dist = np.sort(np.abs(values[:, None] - values[None, :]), axis=1)
    # column 0 is the zero self-distance
    return float(dist[:, 1:target_mult].sum(axis=1).min())


def find_ep(builder, box, target_mult, base: ModelParams):
    """Locate and certify parameter-space degeneracies of a given multiplicity.

    `builder(p)` returns the matrix at parameters p.  `box` maps one or two
    ModelParams field names to (lo, hi) ranges.  A coarse grid seeds
    Nelder-Mead refinements of the gap objective: the smallest sum of the
    m-1 nearest-neighbour gaps from any one eigenvalue, for target
    multiplicity m.  Converged minima below the certification threshold,
    200 eps**(1/m) times the spectral scale, are passed to
    detect_degeneracy.  The threshold scales as eps**(1/m) because an
    order-m coalescence responds to parameter perturbations with the m-th
    root, so even at float-exact parameters the eigenvalue spread cannot
    drop below roughly (eps * scale)**(1/m).

    The gap objective dips in root-type cusps whose basins are narrow, so the
    seeding grid is dense: 65 points per axis in one dimension, 33 in two.
    """
    names = list(box)
    if not 1 <= len(names) <= 2:
        raise ValueError("box must constrain one or two parameters")
    n_axis = 65 if len(names) == 1 else 33
    los = np.array([box[n][0] for n in names], dtype=float)
    his = np.array([box[n][1] for n in names], dtype=float)
    if np.any(his <= los):
        raise ValueError("empty box")

    def matrix_at(x):
        return builder(base.replace(**{n: float(v) for n, v in zip(names, x)}))

    axes = [np.linspace(lo, hi, n_axis) for lo, hi in zip(los, his)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    coarse_vals = linalg.eigvals(np.array([matrix_at(x) for x in pts]))
    scale = max(spectral_diameter(v) for v in coarse_vals)
    if scale == 0.0:
        scale = 1.0
    coarse_s = np.array([_gap_objective(v, target_mult) for v in coarse_vals])

    threshold = 200.0 * np.finfo(float).eps ** (1.0 / max(target_mult, 2)) * scale

    def objective(x):
        if np.any(x < los) or np.any(x > his):
            return float(scale)
        return _gap_objective(linalg.eigvals(matrix_at(x)), target_mult)

    # seeds: local minima of the coarse landscape (grid-graph neighborhood)
    shape = tuple(len(ax) for ax in axes)
    s_grid = coarse_s.reshape(shape)
    seeds = []
    for idx in np.ndindex(shape):
        v = s_grid[idx]
        is_min = True
        for axis in range(len(shape)):
            for step in (-1, 1):
                nb = list(idx)
                nb[axis] += step
                if 0 <= nb[axis] < shape[axis] and s_grid[tuple(nb)] < v:
                    is_min = False
        if is_min:
            seeds.append(np.array([axes[k][idx[k]] for k in range(len(shape))]))

    found = []
    widths = his - los
    spacing = widths / (n_axis - 1)
    for seed in seeds:
        # keep the initial simplex inside the seeded basin: degeneracy dips
        # are root-type cusps barely wider than the coarse spacing
        simplex = [seed]
        for k in range(len(names)):
            step = 0.5 * spacing[k]
            if seed[k] + step > his[k]:
                step = -step
            vertex = seed.copy()
            vertex[k] += step
            simplex.append(vertex)
        res = scipy.optimize.minimize(
            objective, seed, method="Nelder-Mead",
            options=dict(initial_simplex=np.array(simplex),
                         xatol=1e-12 * widths.max(), fatol=1e-14 * scale,
                         maxiter=2000, maxfev=4000))
        x = np.clip(res.x, los, his)
        s_min = objective(x)
        if s_min >= threshold:
            continue
        if any(np.max(np.abs(x - f[0]) / widths) < 1e-4 for f in found):
            continue  # duplicate basin
        found.append((x, s_min))

    reports = []
    for x, s_min in found:
        p = base.replace(**{n: float(v) for n, v in zip(names, x)})
        mat = builder(p)
        # an order-m Jordan cluster scatters like eps**(1/m) even at the
        # converged parameters, so the clustering radius must cover that
        tol_cluster = max(3.0 * s_min,
                          10.0 * np.finfo(float).eps ** (1.0 / target_mult) * scale)
        reports += [dataclasses.replace(rep, params=p)
                    for rep in detect_degeneracy(mat, tol_cluster=tol_cluster)[1]
                    if rep.algebraic_mult >= target_mult]
    return reports


@dataclass(frozen=True)
class EvolveResult:
    """Both propagation routes at each requested time, first axis time."""

    rho_expm: np.ndarray  # (n, d, d)
    rho_eig: np.ndarray | None  # (n, d, d); None if defective
    trace_drift: np.ndarray  # (n,)
    max_diff: np.ndarray  # (n,); NaN if defective
    defective: bool = False


def evolve_check(l, rho0, times):
    """Propagate rho0 to each of the 1-D array `times` by expm and by
    eigen-expansion.

    `l` is the generator's Gell-Mann matrix, and it must preserve the
    trace, as hybrid generators with q < 1 and dissipation do not.  rho0 is
    checked and vectorized, and l eigendecomposed, once for all times;
    expm(l t) is formed at each time as the independent route.  A defective
    Liouvillian disables the eigen-expansion route and is flagged.
    """
    # the last row holds the traces Tr(l(s_j)) times sqrt(2/d) / 2
    if np.abs(l[-1]).max() > 1e-12 * np.abs(l).max():
        raise ValueError("evolve_check requires a trace-preserving generator: "
                         "hybrid generators with q < 1 are not trace-preserving")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a 1-D array")
    rho0 = np.asarray(rho0, dtype=complex)
    if not np.isfinite(rho0).all():
        raise ValueError("rho0 must be finite")
    scale = max(np.linalg.norm(rho0), 1.0)
    if np.linalg.norm(rho0 - rho0.conj().T) > 1e-9 * scale:
        raise ValueError("rho0 must be Hermitian")
    if abs(np.trace(rho0) - 1.0) > 1e-9:
        raise ValueError("rho0 must have unit trace")
    if np.linalg.eigvalsh(0.5 * (rho0 + rho0.conj().T)).min() < -1e-9:
        raise ValueError("rho0 must be positive semidefinite")

    v0 = superop.vectorize(rho0, superop.GELLMANN)
    rho_expm = np.array([superop.devectorize(linalg.expm(l * t) @ v0, superop.GELLMANN)
                         for t in times])
    trace_drift = np.abs(np.trace(rho_expm, axis1=1, axis2=2) - np.trace(rho0))

    dec = linalg.eig(l)
    v = dec.right_vectors
    if np.linalg.cond(v) > 1e12:
        return EvolveResult(rho_expm=rho_expm, rho_eig=None, trace_drift=trace_drift,
                            max_diff=np.full(times.size, np.nan), defective=True)
    coeff = np.linalg.solve(v, v0)
    rho_eig = np.array([superop.devectorize(v @ (coeff * np.exp(dec.values * t)),
                                            superop.GELLMANN)
                        for t in times])
    return EvolveResult(rho_expm=rho_expm, rho_eig=rho_eig, trace_drift=trace_drift,
                        max_diff=np.abs(rho_expm - rho_eig).max(axis=(1, 2)),
                        defective=False)
