"""Spectral analysis of operators and superoperators.

Covers eigenvalue classification, quasienergy splittings, degeneracy
detection with Jordan-structure estimation (ranks of powers, deflated),
the operator <-> superoperator spectral correspondence, parameter sweeps
continuity-tracked block by block with EP candidates where a pair's squared
gap changes sign, EP search by least squares on cluster power sums, and an
evolution cross-check (expm against eigen-expansion).  Matrices follow
linalg's input rule, so a float64 generator is solved in real arithmetic.

Results are plain values: `classify` gives kind strings, `splittings`
(i, j, dE_real, dE_imag) tuples, and `detect_degeneracy` the eigenvalues
with reports whose `indices` index them.  `sweep` analyses a stack of
matrices, one per grid point, into (branches, ep_candidates, failures), and
`find_ep` calls a stack builder such as superop.Generator's `matrices`;
`evolve_check` takes the generator's Gell-Mann matrix as an array and gives
(states, route_diff).

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


def _conditioned_links(a, values, vecs, tol):
    """Which eigenvalue pairs of `a` a perturbation of norm tol, CLUSTER_C
    eps ||a||_2, could merge, as a boolean (n, n) matrix.

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


def _jordan_chains(m, mult, cutoff):
    """Jordan chain lengths, longest first, of the near-zero eigenvalues of
    m, a cluster of algebraic multiplicity mult.

    The null space of (m / ||m||_2)^k grows by the number of chains longer
    than k - 1.  Powers are formed until that growth, clamped to 0..its
    previous value, stops, and at most mult + 1 of them.  Perturbations of
    size eps enter matrix powers to first order, so one cut, cutoff / ||m||,
    applies to every power of the spectrally normalized matrix.  The chains
    are the conjugate partition of that growth (the Weyr characteristic),
    cut to mult in total, longest first.
    """
    n = m.shape[0]
    norm = np.linalg.norm(m, 2)
    if norm == 0.0:
        return (1,) * mult
    mn, cut = m / norm, cutoff / norm
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
    # chain i is as long as the number of powers that grew by more than i
    chains = []
    for i in range(growth[0] if growth else 0):
        chains.append(min(sum(g > i for g in growth), mult - sum(chains)))
    return tuple(c for c in chains if c > 0)


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
    Chains are read on the clusters' own block Q^H a Q, Q the orthonormal
    complement of the simple eigenvalues' eigenvectors (deflation; Golub and
    Wilkinson, SIAM Review 18, 1976): the ranks of (Q^H a Q - mean*I)^k
    above max(2 * spread, CLUSTER_C eps ||a||_2), from k = 1 until the null
    space stops growing (at most k = m+1, `_jordan_chains`), give the Jordan
    partition, whose number of chains is the geometric multiplicity and
    whose longest chain is the order.
    """
    a = linalg.as_matrix(a)
    w, vecs = linalg.eig(a)
    floor = CLUSTER_C * np.finfo(float).eps * np.linalg.norm(a, 2)
    linked = _conditioned_links(a, w, vecs, floor)
    if tol_cluster is not None:
        linked |= _within(w, tol_cluster)

    clusters = [g for g in _single_linkage(linked) if len(g) > 1]
    if not clusters:
        return w, []
    simple = sorted(set(range(w.size)).difference(*clusters))
    q = np.linalg.qr(vecs[:, simple], mode="complete")[0][:, len(simple):]
    block = q.conj().T @ a @ q
    reports = []
    for group in clusters:
        m = len(group)
        center = np.mean(w[group])
        spread = float(np.abs(w[group] - center).max())
        partition = _jordan_chains(block - center * np.eye(len(block)), m,
                                   max(2.0 * spread, floor))
        geometric = max(len(partition), 1)
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


def sweep(stack):
    """Eigenvalue branches of an (n, d, d) stack of matrices, one per grid
    point, as (branches (d, n), ep_candidates, failures): tuples of point
    indices and of (point index, message) pairs.

    Each block that the matrices share (`_blocks`, from exact zeros) is
    solved by one batched eigensolve, in real arithmetic when the stack is
    float64, and a one-block stack as it is.  Points whose solve raises in
    any block are failures, with a NaN branch column.  Each block's branches
    are tracked between consecutive solved points by the minimal-total-
    distance assignment, then ordered by (re, im) at the first solved point.
    A step skips the solver where every eigenvalue's nearest neighbour at
    the next point is a different one, nearer than its runner-up by more
    than 1e-9 of the step's largest distance: that matching reaches the sum
    of the row minima, a lower bound of every assignment, which every other
    matching exceeds, so it is the solver's answer.  Other steps call the
    solver on the previous point's branch order, whose row order breaks
    ties.  FloatingPointError names a step whose distances overflow.

    EP candidates (`_turns`) need no threshold: a pair's squared difference
    s = (lambda_a - lambda_b)**2 is analytic with a simple zero at an EP2,
    and changes sign where a real pair of a real matrix turns conjugate.  A
    crossing only touches zero, and an avoided crossing stays away from it.
    An EP at the first or last solved point has no step across it.
    """
    stack = np.asarray(stack)
    blocks = _blocks(stack)
    values, good, failures = _eigvals_each(stack, blocks)
    if not good:
        raise RuntimeError("eigensolve failed at every grid point")

    parts, candidates = [], set()
    for part in np.split(values, np.cumsum([len(b) for b in blocks])[:-1], axis=1):
        parts.append(np.take_along_axis(part, _track(part, good), axis=1))
        candidates |= _turns(parts[-1], good)
    tracked = np.hstack(parts)
    tracked = tracked[:, np.lexsort((tracked[0].imag, tracked[0].real))]
    branches = np.full((values.shape[1], len(stack)), np.nan + 1j * np.nan,
                       dtype=complex)
    branches[:, good] = tracked.T
    return branches, tuple(sorted(candidates)), tuple(failures)


def _blocks(stack):
    """The index sets, each ascending, that split every matrix of an
    (n, d, d) stack block-diagonally: the connected components of the union
    of the matrices' non-zero patterns.  A NaN entry counts as non-zero."""
    nonzero = (stack != 0).any(axis=0)
    return _single_linkage(nonzero | nonzero.T)


def _track(values, points):
    """Per row of `values` (points, n), the order that continues the
    branches: branch b at point k is values[k, order[k, b]], and the first
    row keeps its order.  A clear step follows the nearest neighbours, every
    other step calls the solver (see `sweep`), and scipy.optimize is
    imported only if some step is unclear.  `sweep` tracks each block on
    its own.  `points` holds the rows' grid indices, for the error of a step
    whose distances are not finite."""
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
            try:
                cols = scipy.optimize.linear_sum_assignment(cost)[1]
            except ValueError:
                raise FloatingPointError(
                    f"eigenvalue distances are not finite between grid points "
                    f"{points[step]} and {points[step + 1]}") from None
        order[step + 1] = cols
    return order


def _unique_nearest(values):
    """For each step between consecutive rows of `values` (points, n), each
    eigenvalue's nearest neighbour in the next row, and whether these form a
    permutation with every one nearer than the runner-up by more than 1e-9
    of the step's largest distance (never where a distance is NaN).

    All steps are taken in one pass over the columns of the next row, so
    the temporaries are (steps, n), n times smaller than the matrix stack.
    """
    prev, cur = values[:-1], values[1:]
    nearest = np.zeros(prev.shape, dtype=np.intp)
    best = np.full(prev.shape, np.inf)
    runner_up = np.full(prev.shape, np.inf)
    span = np.zeros(prev.shape)
    for j in range(values.shape[1]):
        dist = np.abs(prev - cur[:, j, None])
        np.maximum(span, dist, out=span)
        nearest[dist < best] = j
        np.minimum(runner_up, np.maximum(best, dist), out=runner_up)
        np.minimum(best, dist, out=best)
    clear = runner_up - best > 1e-9 * span.max(axis=1, keepdims=True)
    # n neighbours hit all n eigenvalues only if they are all different
    hit = np.zeros(prev.shape, dtype=bool)
    hit[np.arange(len(prev))[:, None], nearest] = True
    return nearest, clear.all(axis=1) & hit.all(axis=1)


def _turns(branches, points):
    """The grid points of `points` nearest a zero of some pair's s =
    (branches[:, a] - branches[:, b])**2, branches (points, n): for each step
    across which s turns by more than a right angle, Re(s_k conj(s_k+1)) < 0,
    the end with the smaller |s|, the earlier at a tie."""
    found = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(branches.shape[1] - 1):
            s = np.square(branches[:, k + 1:] - branches[:, k:k + 1])
            step, pair = np.nonzero((s[:-1] * s[1:].conj()).real < 0.0)
            later = np.abs(s[step + 1, pair]) < np.abs(s[step, pair])
            found.update(np.asarray(points)[step + later].tolist())
    return found


def _eigvals_each(stack, blocks):
    """Eigenvalues of the matrices of a stack that solve, one batched solve
    per block: (values, good, failures), values[k] holding matrix good[k]'s,
    block after block.  Should a batched solve raise, each matrix is solved
    on its own, and one whose solve raises in any block comes back as one
    (position, message) failure."""
    subs = [stack if len(b) == stack.shape[-1] else stack[:, b][:, :, b]
            for b in blocks]
    try:
        values = np.hstack([linalg.eigvals(sub) for sub in subs])
        return values, list(range(len(values))), []
    except (ValueError, np.linalg.LinAlgError):
        pass
    values, good, failed = [], [], []
    for k in range(len(stack)):
        try:
            values.append(np.hstack([linalg.eigvals(sub[k]) for sub in subs]))
            good.append(k)
        except (ValueError, np.linalg.LinAlgError) as exc:
            failed.append((k, f"{type(exc).__name__}: {exc}"))
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


def evolve_check(l, rho0, times):
    """Propagate rho0 to each of the 1-D array `times` by expm and by
    eigen-expansion, as (states, route_diff): the (n, d, d) expm states and
    the (n,) largest entry difference of the two routes, NaN when l is
    defective (eigenvector condition number above 1e12) and at times whose
    eigen-expansion overflows.

    `l` is the generator's Gell-Mann matrix, and it must preserve the
    trace, as hybrid generators with q < 1 and dissipation do not.  rho0 is
    checked and vectorized, and l eigendecomposed, once for all times;
    expm(l t) is formed at each time as the independent route.
    FloatingPointError names l, or l t at the largest |t|, if it is not
    finite, and the first time whose expm state is not finite.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a 1-D array")
    if not np.isfinite(l).all():
        raise FloatingPointError("the generator is not finite")
    t_far = times[np.argmax(np.abs(times))]
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(l * t_far).all():
            raise FloatingPointError(f"l t is not finite at t = {t_far:g}")
    # the last row holds the traces Tr(l(s_j)) times sqrt(2/d) / 2
    if np.abs(l[-1]).max() > 1e-12 * np.abs(l).max():
        raise ValueError("evolve_check requires a trace-preserving generator: "
                         "hybrid generators with q < 1 are not trace-preserving")
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
    states = np.array([superop.devectorize(linalg.expm(l * t) @ v0) for t in times])
    bad = np.flatnonzero(~np.isfinite(states).all(axis=(1, 2)))
    if bad.size:
        raise FloatingPointError(f"expm(l t) is not finite at t = {times[bad[0]]:g}")

    values, v = linalg.eig(l)
    if np.linalg.cond(v) > 1e12:
        return states, np.full(times.size, np.nan)
    coeff = np.linalg.solve(v, v0)
    rho_eig = np.array([superop.devectorize(v @ (coeff * np.exp(values * t)))
                        for t in times])
    return states, np.abs(states - rho_eig).max(axis=(1, 2))
