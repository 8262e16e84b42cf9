"""Spectral analysis of operators and superoperators.

Covers eigenvalue classification, quasienergy splittings, degeneracy
detection with Jordan-structure estimation (rank plateaus of powers),
the operator <-> superoperator spectral correspondence, continuity-tracked
parameter sweeps, EP search by least squares on cluster power sums, and an
evolution cross-check (expm against eigen-expansion).  Matrices follow
linalg's input rule, so a float64 generator is solved in real arithmetic.

Results are plain values: `classify` gives kind strings, `splittings`
(i, j, dE_real, dE_imag) tuples, and `detect_degeneracy` the eigenvalues
with reports whose `indices` index them.  `sweep` analyses a stack of
matrices, one per grid point, and `find_ep` calls a stack builder such as
superop.Generator's `matrices`; `evolve_check` takes the generator's
Gell-Mann matrix as an array.

scipy.optimize is imported inside its three callers, `match_distance`,
`_track` (for `sweep`, and only when some step needs the solver) and
`find_ep`, because loading it (and the scipy.linalg it pulls in) costs
about 0.5 s of CPU at start-up and a spectrum or evolve command never
calls it.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import linalg, superop
from .model import ModelParams, check_box

STATIONARY = "stationary"
PURE_OSCILLATION = "pure_oscillation"
PURE_DECAY = "pure_decay"
DAMPED_OSCILLATION = "damped_oscillation"
UNSTABLE = "unstable"

TOL_CLASS_REL = 1e-8  # relative to the spectral diameter
# Two eigenvalues of A cluster when a perturbation of CLUSTER_C eps ||A||_2,
# a hundred roundings, could merge them (see detect_degeneracy).
CLUSTER_C = 100.0
# A sweep's close pairs lie within this fraction of its largest spectral
# diameter; written as the product the threshold has always used.
EP_CANDIDATE_REL = 10.0 * 1e-6


def spectral_diameter(values):
    values = np.asarray(values)
    if values.size < 2:
        return 0.0
    return float(np.abs(values[:, None] - values[None, :]).max())


def match_distance(a, b):
    """Max absolute mismatch between two equal-size complex multisets
    under the optimal (Hungarian) pairing."""
    import scipy.optimize

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


def _single_linkage(linked):
    """The connected components of a symmetric boolean (n, n) matrix of
    links, as lists of indices."""
    n = len(linked)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(np.triu(linked, 1))):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _within(values, radius):
    """The links of single linkage at a fixed radius."""
    return np.abs(values[:, None] - values[None, :]) <= radius


def _conditioned_links(a, values, vecs):
    """Which eigenvalue pairs of `a` a perturbation of CLUSTER_C eps ||a||_2
    could merge, as a boolean (n, n) matrix.

    Eigenvalue i moves by up to kappa_i times a perturbation's norm, with
    kappa_i the norm of row i of V^-1 (Wilkinson's condition number; V has
    unit columns).  A pair within the sum of its two reaches is a candidate.
    A candidate pair of distinct values is linked only if its midpoint lies
    in the same perturbation's pseudospectrum, sigma_min(a - z I) <= that
    norm (Trefethen and Embree, Spectra and Pseudospectra): an
    ill-conditioned eigenvalue's reach alone can span eigenvalues that no
    small perturbation joins.  If V is singular, every pair is a candidate.
    """
    n = values.size
    tol = CLUSTER_C * np.finfo(float).eps * np.linalg.norm(a, 2)
    with np.errstate(all="ignore"):
        try:
            kappa = np.linalg.norm(np.linalg.inv(vecs), axis=1)
        except np.linalg.LinAlgError:
            kappa = np.full(n, np.inf)
        kappa[~np.isfinite(kappa)] = np.inf
        gap = np.abs(values[:, None] - values[None, :])
        linked = (gap == 0.0) | (gap <= tol * (kappa[:, None] + kappa[None, :]))
    i, j = np.nonzero(np.triu(linked & (gap > 0.0), 1))
    if i.size:
        shifted = a - 0.5 * (values[i] + values[j])[:, None, None] * np.eye(n)
        far = np.linalg.svd(shifted, compute_uv=False)[:, -1] > tol
        linked[i[far], j[far]] = linked[j[far], i[far]] = False
    return linked


def _jordan_chains(m, mult, coalesce_tol):
    """(geometric multiplicity, Jordan chain lengths longest first) of the
    near-zero eigenvalues of m, a cluster of algebraic multiplicity mult.

    The null space of (m / ||m||_2)^k grows by the number of chains longer
    than k - 1.  Powers are formed until that growth, clamped to 0..its
    previous value, stops, and at most mult + 1 of them.  Perturbations of
    size eps enter matrix powers to first order, so one fixed cutoff
    max(TOL_RANK, coalesce_tol / ||m||) applies to every power of the
    spectrally normalized matrix: singular values responding within the
    eigenvalue coalescence tolerance count as part of the degenerate
    structure.  The geometric multiplicity, the first growth, is clipped to
    1..mult, and the chains are capped at mult in total.
    """
    n = m.shape[0]
    norm = np.linalg.norm(m, 2)
    if norm == 0.0:
        return mult, (1,) * mult
    mn = m / norm
    cut = min(max(linalg.TOL_RANK, coalesce_tol / norm), 0.5)
    growth = []
    p = np.eye(n, dtype=complex)
    nullity = 0
    for _ in range(mult + 1):
        p = p @ mn
        null = n - int(np.count_nonzero(np.linalg.svd(p, compute_uv=False) > cut))
        step = max(min(null - nullity, growth[-1] if growth else n), 0)
        if step == 0:
            break
        growth.append(step)
        nullity = null
    # growth[k - 1] - growth[k] chains have length exactly k
    ends = growth[1:] + [0]
    chains = []
    for k in range(len(growth), 0, -1):
        for _ in range(growth[k - 1] - ends[k - 1]):
            length = min(k, mult - sum(chains))
            if length <= 0:
                break
            chains.append(length)
    return int(np.clip(growth[0] if growth else 0, 1, mult)), tuple(chains)


def detect_degeneracy(a, tol_cluster=None):
    """Eigenvalues of `a` and the Jordan structure of each cluster of them.

    Returns (values, reports): the eigenvalues from one linalg.eig call and
    an EPReport per cluster of size m >= 2, whose `indices` index `values`.
    Clusters are single linkage over the pairs that a perturbation of
    CLUSTER_C eps ||a||_2 could merge, judged from the same decomposition
    (`_conditioned_links`).  An order-m Jordan cluster scatters like
    eps**(1/m) in double precision, and its condition numbers grow to match,
    so no radius is set by hand.  A caller that has measured a wider spread,
    as find_ep does, may pass it as tol_cluster: pairs within it are linked
    as well.
    The ranks of (a - mean*I)^k, counted above twice the cluster's own
    spread from k = 1 until the null space stops growing (at most k = m+1,
    `_jordan_chains`), give the Jordan partition, the geometric
    multiplicity n - rank at k = 1 (clipped to 1..m) and the order, the
    longest chain.
    """
    a = linalg.as_matrix(a)
    n = a.shape[0]
    w, vecs = linalg.eig(a)
    linked = _conditioned_links(a, w, vecs)
    if tol_cluster is not None:
        linked |= _within(w, tol_cluster)

    reports = []
    for group in _single_linkage(linked):
        m = len(group)
        if m < 2:
            continue
        center = np.mean(w[group])
        spread = float(np.abs(w[group] - center).max())
        geometric, partition = _jordan_chains(a - center * np.eye(n), m,
                                              2.0 * spread)
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
            gap_residual=spread,
            vector_overlap=float(overlap),
            partition=partition,
            indices=tuple(sorted(group)),
        ))
    reports.sort(key=lambda r: (r.cluster_value.real, r.cluster_value.imag))
    return w, reports


def correspondence_check(h_nh, super_spectrum):
    """Max mismatch between {-i (E_i - E_j^*)} of the operator and the
    given superoperator spectrum, under optimal pairing."""
    ev = linalg.eig(h_nh)[0]
    d = ev.size
    super_spectrum = np.asarray(super_spectrum, dtype=complex).ravel()
    if super_spectrum.size != d * d:
        raise ValueError("superoperator spectrum must have d^2 entries")
    pairs = np.array([-1j * (ev[i] - np.conj(ev[j]))
                      for i in range(d) for j in range(d)])
    return match_distance(pairs, super_spectrum)


@dataclass(frozen=True)
class SweepResult:
    grid: np.ndarray
    branches: np.ndarray  # (n_branches, n_points), continuity-tracked
    ep_candidates: tuple
    failures: tuple = ()  # of (grid index, message)


def sweep(stack, grid):
    """Eigenvalue branches of an (n, d, d) stack of matrices, one per point
    of an ascending parameter grid.

    The stack is solved by one batched eigensolve, in real arithmetic when
    it is float64.  Branches are tracked between consecutive solved points
    by the minimal-total-distance assignment; grid points whose eigensolve
    raises are recorded as failures and their branch column is NaN.

    A step skips the assignment solver where every eigenvalue's nearest
    neighbour at the next point is a different one, nearer than its
    runner-up by more than 1e-9 of the step's largest distance.  That
    matching reaches the sum of the row minima, which bounds every
    assignment from below, and every other matching exceeds it by at least
    the margin, so it is the unique optimum and the solver's answer.  Every
    other step calls the solver on the previous point's branch order: at
    ties, such as the exact doubles of a resonant superoperator, its choice
    depends on row order.

    EP candidates are the points with more eigenvalue pairs closer than
    1e-5 of the largest spectral diameter on the grid than the fewest any
    point of the grid has.  Degeneracies present at every point, such as the
    symmetry-protected exact doubles of a superoperator spectrum, therefore
    flag nothing; a coalescence on top of them does.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be ascending with at least 2 points")
    if len(stack) != grid.size:
        raise ValueError("the stack must hold one matrix per grid point")
    values, good, failures = _eigvals_each(stack)
    if not good:
        raise RuntimeError("eigensolve failed at every grid point")

    tracked = np.take_along_axis(values, _track(values), axis=1)
    branches = np.full((values.shape[1], grid.size), np.nan + 1j * np.nan,
                       dtype=complex)
    branches[:, good] = tracked.T

    counts = _close_pairs(tracked)
    fewest = counts.min()
    candidates = tuple(i for i, c in zip(good, counts) if c > fewest)
    return SweepResult(grid=grid, branches=branches, ep_candidates=candidates,
                       failures=tuple(failures))


def _track(values):
    """Per row of `values` (points, n), the order that continues the
    branches: branch b at point k is values[k, order[k, b]], and the first
    row keeps its order.  A clear step follows the nearest neighbours, every
    other step calls the solver (see `sweep`), and scipy.optimize is
    imported only if some step is unclear."""
    nearest, unique = _unique_nearest(values)
    if not unique.all():
        import scipy.optimize
    order = np.empty(values.shape, dtype=np.intp)
    order[0] = cols = np.arange(values.shape[1])
    for step, clear in enumerate(unique.tolist()):
        if clear:
            cols = nearest[step][cols]
        else:
            cost = np.abs(values[step][cols][:, None] - values[step + 1][None, :])
            cols = scipy.optimize.linear_sum_assignment(cost)[1]
        order[step + 1] = cols
    return order


def _unique_nearest(values):
    """For each step between consecutive rows of `values` (points, n), each
    eigenvalue's nearest neighbour in the next row, and whether these form a
    permutation with every one nearer than the runner-up by more than 1e-9
    of the step's largest distance (never where a distance is NaN).

    A block of steps takes its distances one column of the next row at a
    time, so no (steps, n, n) array is formed.
    """
    steps, n = len(values) - 1, values.shape[1]
    nearest = np.zeros((steps, n), dtype=np.intp)
    unique = np.empty(steps, dtype=bool)
    rows = max(1, 8192 // n)
    for s in range(0, steps, rows):
        t = min(s + rows, steps)
        prev, cur, near = values[s:t], values[s + 1:t + 1], nearest[s:t]
        best = np.full(prev.shape, np.inf)
        runner_up = np.full(prev.shape, np.inf)
        span = np.zeros(prev.shape)
        for j in range(n):
            dist = np.abs(prev - cur[:, j, None])
            np.maximum(span, dist, out=span)
            near[dist < best] = j
            np.minimum(runner_up, np.maximum(best, dist), out=runner_up)
            np.minimum(best, dist, out=best)
        clear = runner_up - best > 1e-9 * span.max(axis=1, keepdims=True)
        # n neighbours hit all n eigenvalues only if they are all different
        hit = np.zeros(prev.shape, dtype=bool)
        hit[np.arange(t - s)[:, None], near] = True
        unique[s:t] = clear.all(axis=1) & hit.all(axis=1)
    return nearest, unique


def _close_pairs(values):
    """Per row of `values` (points, n): eigenvalue pairs closer than
    EP_CANDIDATE_REL times the largest spectral diameter over all rows.

    Each pass over the columns compares one column with the ones after it,
    so no (points, n, n) array is formed.
    """
    cols = range(values.shape[1] - 1)
    diam = max((np.abs(values[:, k + 1:] - values[:, k:k + 1]).max()
                for k in cols), default=0.0)
    threshold = EP_CANDIDATE_REL * diam
    counts = np.zeros(len(values), dtype=int)
    for k in cols:
        counts += np.count_nonzero(
            np.abs(values[:, k + 1:] - values[:, k:k + 1]) < threshold, axis=1)
    return counts


def _describe(exc):
    return f"{type(exc).__name__}: {exc}"


def _eigvals_each(stack):
    """Eigenvalues of the matrices of a stack that solve, from one batched
    solve: (values, good, failures), where values[k] belongs to matrix
    good[k].

    Should the batched solve raise, every matrix is solved on its own; the
    ones that fail come back as (position, message) failures.
    """
    try:
        values = linalg.eigvals(stack)
        return values, list(range(len(values))), []
    except (ValueError, np.linalg.LinAlgError):
        pass
    values, good, failed = [], [], []
    for k, m in enumerate(stack):
        try:
            values.append(linalg.eigvals(m))
            good.append(k)
        except (ValueError, np.linalg.LinAlgError) as exc:
            failed.append((k, _describe(exc)))
    return np.array(values), good, failed


def _gap_sums(values, target_mult):
    """Per eigenvalue, the sum of its (m-1) nearest-neighbour gaps, over the
    last axis of `values`, a spectrum or a stack of them.

    The least of these, the gap objective, vanishes only where m eigenvalues
    genuinely meet.  Summing the smallest pairwise gaps globally would not:
    spectra with persistent exact doubles (the jump-free superoperator has
    three of them at every parameter value) keep that sum at rounding level
    everywhere.
    """
    dist = np.sort(np.abs(values[..., :, None] - values[..., None, :]), axis=-1)
    # column 0 is the zero self-distance
    return dist[..., 1:target_mult].sum(axis=-1)


def _nearest(values, centre, count):
    return values[np.argsort(np.abs(values - centre))[:count]]


def find_ep(build, box, target_mult, base: ModelParams):
    """Locate and certify parameter-space degeneracies of a given multiplicity.

    `build(base, points)` is a stack builder such as superop.Generator's
    `matrices`.  `box` maps one or two ModelParams field names to (lo, hi)
    ranges whose corners model.check_box accepts; 2 <= target_mult m <= the
    matrix dimension.  A coarse grid, 65 points per axis in one dimension
    and 33 in two, is built in one call and scored by the gap objective: the
    smallest sum of the m-1 nearest-neighbour gaps from any one eigenvalue.
    Each local minimum seeds one bounded least-squares solve, one point per
    build call, on the centred power sums p_k = sum((lambda_i - mu) / tau)**k,
    k = 2..m, of the m eigenvalues nearest the seed's cluster centre (the
    mean of the m eigenvalues nearest the seed's least-gap eigenvalue), with
    mu their mean.  Those sums are analytic in the parameters and vanish
    together exactly where the m eigenvalues coalesce.  The unit tau is the
    certification threshold, 200 eps**(1/m) times the spectral scale;
    solutions whose gap objective falls below it are passed to
    detect_degeneracy, whose reports alone get ModelParams.  The threshold
    scales as eps**(1/m) because an order-m coalescence responds to parameter
    perturbations with the m-th root, so even at float-exact parameters the
    eigenvalue spread cannot drop below roughly (eps * scale)**(1/m).
    """
    import scipy.optimize

    names = list(box)
    if not 1 <= len(names) <= 2:
        raise ValueError("box must constrain one or two parameters")
    n_axis = 65 if len(names) == 1 else 33
    los, his = np.array(list(box.values()), dtype=float).T
    if np.any(his <= los):
        raise ValueError("empty box")
    check_box(base, box)

    def matrix_at(x):
        return build(base, dict(zip(names, x.tolist())))[0]

    axes = [np.linspace(lo, hi, n_axis) for lo, hi in zip(los, his)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    coarse = build(base, dict(zip(names, pts.T)))
    if not 2 <= target_mult <= coarse.shape[-1]:
        raise ValueError(f"target_mult must be between 2 and the matrix dimension "
                         f"{coarse.shape[-1]}")
    coarse_vals = linalg.eigvals(coarse)
    scale = max(spectral_diameter(v) for v in coarse_vals)
    if scale == 0.0:
        scale = 1.0
    coarse_sums = _gap_sums(coarse_vals, target_mult)
    threshold = 200.0 * np.finfo(float).eps ** (1.0 / target_mult) * scale

    def power_sums(x, centre):
        z = _nearest(linalg.eigvals(matrix_at(x)), centre, target_mult)
        z = (z - z.mean()) / threshold
        p = np.array([np.sum(z ** k) for k in range(2, target_mult + 1)])
        return np.concatenate([p.real, p.imag])

    # seeds: local minima of the coarse landscape (grid-graph neighborhood),
    # each point against its neighbours along every axis; the +inf border
    # stands in for the neighbours past the box's edges
    s_grid = coarse_sums.min(axis=-1).reshape((n_axis,) * len(names))
    padded = np.pad(s_grid, 1, constant_values=np.inf)
    is_min = np.ones(s_grid.shape, dtype=bool)
    for axis in range(s_grid.ndim):
        for step in (-1, 1):
            nb = [slice(1, -1)] * s_grid.ndim
            nb[axis] = slice(1 + step, n_axis + 1 + step)
            is_min &= ~(padded[tuple(nb)] < s_grid)
    seeds = np.flatnonzero(is_min)

    found, reports = [], []
    widths = his - los
    for k in seeds:
        values = coarse_vals[k]
        least = values[np.argmin(coarse_sums[k])]
        centre = _nearest(values, least, target_mult).mean()
        x = scipy.optimize.least_squares(power_sums, pts[k], bounds=(los, his),
                                         args=(centre,)).x
        a = matrix_at(x)
        s_min = _gap_sums(linalg.eigvals(a), target_mult).min()
        if s_min >= threshold:
            continue
        if any(np.max(np.abs(x - f) / widths) < 1e-4 for f in found):
            continue  # duplicate basin
        found.append(x)
        p = base.replace(**dict(zip(names, x.tolist())))
        # the solution need not sit on the coalescence, so pairs within
        # the spread measured there are linked as well
        reports += [dataclasses.replace(rep, params=p) for rep in
                    detect_degeneracy(a, tol_cluster=3.0 * s_min)[1]
                    if rep.algebraic_mult >= target_mult]
    return reports


@dataclass(frozen=True)
class EvolveResult:
    """Both propagation routes at each requested time, first axis time."""

    rho_expm: np.ndarray  # (n, d, d)
    rho_eig: np.ndarray | None  # (n, d, d); None if defective
    trace_drift: np.ndarray  # (n,)
    max_diff: np.ndarray  # (n,); NaN if defective


def evolve_check(l, rho0, times):
    """Propagate rho0 to each of the 1-D array `times` by expm and by
    eigen-expansion.

    `l` is the generator's Gell-Mann matrix, and it must preserve the
    trace, as hybrid generators with q < 1 and dissipation do not.  rho0 is
    checked and vectorized, and l eigendecomposed, once for all times;
    expm(l t) is formed at each time as the independent route, and
    FloatingPointError names the first time whose state is not finite.  A
    defective Liouvillian disables the eigen-expansion route: rho_eig is None.
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

    v0 = superop.vectorize(rho0)
    rho_expm = np.array([superop.devectorize(linalg.expm(l * t) @ v0) for t in times])
    bad = np.flatnonzero(~np.isfinite(rho_expm).all(axis=(1, 2)))
    if bad.size:
        raise FloatingPointError(f"expm(l t) is not finite at t = {times[bad[0]]:g}")
    trace_drift = np.abs(np.trace(rho_expm, axis1=1, axis2=2) - np.trace(rho0))

    values, v = linalg.eig(l)
    if np.linalg.cond(v) > 1e12:
        return EvolveResult(rho_expm=rho_expm, rho_eig=None, trace_drift=trace_drift,
                            max_diff=np.full(times.size, np.nan))
    coeff = np.linalg.solve(v, v0)
    rho_eig = np.array([superop.devectorize(v @ (coeff * np.exp(values * t)))
                        for t in times])
    return EvolveResult(rho_expm=rho_expm, rho_eig=rho_eig, trace_drift=trace_drift,
                        max_diff=np.abs(rho_expm - rho_eig).max(axis=(1, 2)))
