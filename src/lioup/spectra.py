"""Spectral analysis of operators and superoperators.

Covers eigenvalue classification, quasienergy splittings, grouping by real
part, degeneracy detection with Jordan-structure estimation (ranks of powers, deflated),
the operator <-> superoperator spectral correspondence, one census of a
stack of matrices (tracked block by block, with the turns of each pair's
squared gap) that gives `sweep` its EP candidates and `find_ep` the seeds
of its Gauss-Newton solves on cluster power sums, and an evolution
cross-check (one stepped propagator against eigen-expansion).  Matrices
follow linalg's input rule, so a float64 generator is solved in real
arithmetic.

Results are plain values: `classify` gives kind strings, `splittings`
(i, j, dE_real, dE_imag) tuples, `real_part_groups` arrays of eigenvalues,
and `detect_degeneracy` the eigenvalues
with reports whose `indices` index them.  `sweep` turns a stack of matrices,
one per grid point, into (branches, ep_candidates, failures), `find_ep`
calls a stack builder such as superop.Generator's `matrices`, and
`evolve_check` turns a Gell-Mann generator into (states, route_diff).
"""

import dataclasses
import math
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
    under the optimal pairing (the minimal-total-distance assignment of
    `_assign`)."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.size != b.size:
        raise ValueError("multisets differ in size")
    cost = np.abs(a[:, None] - b[None, :])
    return float(cost[np.arange(a.size), _assign(cost.tolist())].max())


def _assign(cost):
    """The minimal-total-cost assignment of a square cost matrix, given as
    nested lists: col4row, the column of each row.

    A line-for-line port, for square input, of SciPy 1.17's
    `rectangular_lsap.cpp` (Crouse's shortest augmenting path, IEEE Trans.
    Aerosp. Electron. Syst. 52, 1679 (2016)), the code behind
    `scipy.optimize.linear_sum_assignment`.  It does the same IEEE
    operations in the same order, so it returns SciPy's assignment bit for
    bit, ties included: `remaining` starts reversed (a constant matrix gives
    the identity), a tie for the lowest reduced cost goes to an unassigned
    column, and a column leaves `remaining` by swap-remove.  SciPy's masks
    SR and SC of the rows and columns on the path are kept as lists, so the
    dual updates visit only those, each with SciPy's arithmetic.  It spares
    every command scipy.optimize (321 modules, 0.33-0.57 s by `python -X
    importtime`, 2-vCPU x86) for 6-80 us a solve (SciPy: 2-3 us; 3x3 to 16x16).
    ValueError, as in SciPy, for a NaN or -inf entry or an infeasible matrix.
    """
    n = len(cost)
    # a NaN or -inf entry makes the sum NaN or -inf; so may a negative overflow
    total = sum(map(sum, cost))
    if (total != total or total == -math.inf) and any(
            c != c or c == -math.inf for row in cost for c in row):
        raise ValueError("matrix contains invalid numeric entries")
    u, v = [0.0] * n, [0.0] * n
    path, col4row, row4col = [-1] * n, [-1] * n, [-1] * n
    for cur_row in range(n):
        # the shortest augmenting path from cur_row
        min_val = 0.0
        remaining = list(range(n - 1, -1, -1))
        shortest = [math.inf] * n
        sr, sc = [], []
        i, sink = cur_row, -1
        while sink == -1:
            index, lowest = -1, math.inf
            sr.append(i)
            row, u_i = cost[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            sc.append(j)
            remaining[index] = remaining[-1]
            del remaining[-1]
        # update the dual variables; sr[0] is cur_row
        u[cur_row] += min_val
        for i in sr[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in sc:
            v[j] -= min_val - shortest[j]
        # augment the previous solution
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


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


def real_part_groups(values):
    """The eigenvalues grouped by real part, by single linkage in one
    dimension: sorted by real part (stably), they split where neighbours lie
    more than 5% of the real parts' spread apart.  Each group is an array in
    that order, and the group of the largest mean real part comes first."""
    values = np.asarray(values, dtype=complex)
    ordered = values[np.argsort(values.real, kind="stable")]
    reals = ordered.real
    cuts = np.flatnonzero(np.diff(reals) > 0.05 * (reals[-1] - reals[0])) + 1
    return sorted(np.split(ordered, cuts), key=lambda g: g.real.mean(), reverse=True)


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
    links, as lists of ascending indices ordered by their least member.

    Squaring the links with the identity k times joins every path of up to
    2**k links, and 2**k > n - 1 after k = (n - 1).bit_length() squarings;
    each index then reaches its whole component.
    """
    n = len(linked)
    reach = np.asarray(linked, dtype=bool) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    groups = {}
    for i, least in enumerate(reach.argmax(axis=1).tolist()):
        groups.setdefault(least, []).append(i)
    return list(groups.values())


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
        linked |= np.abs(w[:, None] - w[None, :]) <= tol_cluster

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


def sweep(stack, mirrored=False):
    """Eigenvalue branches of an (n, d, d) stack of matrices, one per grid
    point, as (branches (d, n), ep_candidates, failures): `_census`'s
    branches ordered by (re, im) at the first solved point, NaN at failed
    points, the points of its turns (none at the first or last solved
    point), and its (point index, message) failures.  `mirrored` says that
    row n - 1 - k has row k's spectrum, as on a grid antisymmetric in a
    model.SIGN_SYMMETRIC field: `_census` then solves only the first
    ceil(n / 2) rows of a one-block stack."""
    _, parts, turns, good, failures = _census(np.asarray(stack), mirrored)
    tracked = np.hstack(parts)
    tracked = tracked[:, np.lexsort((tracked[0].imag, tracked[0].real))]
    branches = np.full((tracked.shape[1], len(stack)), np.nan + 1j * np.nan,
                       dtype=complex)
    branches[:, good] = tracked.T
    candidates = {point for block in turns for point, _ in block}
    return branches, tuple(sorted(candidates)), tuple(failures)


def _census(stack, mirrored=False):
    """The tracked eigenvalues of an (n, d, d) stack of matrices, one per
    grid point, and the turns of their pairs, block by block: (blocks,
    parts, turns, good, failures), parts[b] holding block b's branches at
    the solved points `good` and turns[b] their `_turns`.  Each block that
    the matrices share (`_blocks`, from exact zeros) is solved by one
    batched eigensolve, a one-block stack as it is; should it raise, each
    matrix is solved alone, and one that raises in any block is a (point
    index, message) failure (RuntimeError if all are).  A `mirrored`
    one-block stack, whose row n - 1 - k has row k's spectrum, is solved
    only at its first ceil(n / 2) rows, and row n - 1 - k takes row k's
    eigenvalues, or its failure and message.  A stack that splits is solved
    in full: the symmetry behind a mirror, such as model.SIGN_SYMMETRIC's
    state reversal, may permute its blocks.

    Each block is tracked between consecutive solved points by the
    minimal-total-distance assignment.  A step skips the solver where every
    eigenvalue's nearest neighbour at the next point is a different one,
    nearer than its runner-up by more than 1e-9 of the step's largest
    distance: that matching reaches the sum of the row minima, a lower
    bound of every assignment that every other matching exceeds.  Other
    steps call the solver on the previous point's branch order, whose row
    order breaks ties.  FloatingPointError names a step whose distances
    overflow.  Turns need no threshold beyond `_turns`'s rounding floor: a
    pair's s is analytic with a simple zero at an EP2, where a real pair of
    a real matrix turns conjugate; a resonant generator's persistent doubles
    pair with nothing, having one member in each block.
    """
    blocks = _blocks(stack)
    n = len(stack)
    solved = (n + 1) // 2 if mirrored and len(blocks) == 1 else n
    subs = [stack[:solved] if len(b) == stack.shape[-1]
            else stack[:solved, b][:, :, b] for b in blocks]
    try:
        values = np.hstack([linalg.eigvals(sub) for sub in subs])
        good, failures = list(range(solved)), []
    except (ValueError, np.linalg.LinAlgError):
        values, good, failures = [], [], []
        for k in range(solved):
            try:
                values.append(np.hstack([linalg.eigvals(sub[k]) for sub in subs]))
                good.append(k)
            except (ValueError, np.linalg.LinAlgError) as exc:
                failures.append((k, f"{type(exc).__name__}: {exc}"))
        values = np.array(values)
    if not good:
        raise RuntimeError("eigensolve failed at every grid point")
    if solved < n:  # rows solved .. n - 1 mirror rows n - 1 - solved .. 0
        rows = [i for i in range(len(good) - 1, -1, -1)
                if n - 1 - good[i] >= solved]
        good += [n - 1 - good[i] for i in rows]
        failures += [(n - 1 - k, msg) for k, msg in failures[::-1]
                     if n - 1 - k >= solved]
        values = np.concatenate([values, values[rows]])
    parts = [np.take_along_axis(part, _track(part, good), axis=1) for part in
             np.split(values, np.cumsum([len(b) for b in blocks])[:-1], axis=1)]
    turns = [_turns(part, good, stack) for part in parts]
    return blocks, parts, turns, good, failures


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
    other step calls `_assign`, the in-package port of SciPy's solver (see
    `_census`, which tracks each block on its own).  `points` holds the
    rows' grid indices, for the error of a step whose distances are not
    finite."""
    nearest, unique = _unique_nearest(values)
    order = np.empty(values.shape, dtype=np.intp)
    order[0] = cols = np.arange(values.shape[1])
    for step, clear in enumerate(unique.tolist()):
        if clear:
            cols = nearest[step][cols]
        else:
            cost = np.abs(values[step][cols][:, None] - values[step + 1][None, :])
            try:
                cols = _assign(cost.tolist())
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


def _turns(branches, points, stack):
    """The zeros of each pair's s = (branches[:, a] - branches[:, b])**2,
    branches (len(points), n), pair by pair and then step by step: for each
    step where s turns by more than a right angle, Re(s_k conj(s_k+1)) < 0,
    (the entry of `points`, the pair's mean) at its end with the smaller |s|,
    the earlier at a tie.

    `stack` holds the matrices the branches come from, indexed by `points`.
    A turn whose larger end gap sqrt|s| is within CLUSTER_C eps ||A||_F, A
    the step's end matrix of the larger norm, is dropped: ||A||_F bounds
    ||A||_2, so a perturbation that small, the floor of `_conditioned_links`,
    could join the pair at both ends, as rounding does with the two members
    of an exact double.  Norms are taken only at the steps that turn.
    """
    points = np.asarray(points)
    found, steps, big = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(branches.shape[1] - 1):
            s = np.square(branches[:, k + 1:] - branches[:, k:k + 1])
            pair, step = np.nonzero(((s[:-1] * s[1:].conj()).real < 0.0).T)
            ends = np.abs(s[step, pair]), np.abs(s[step + 1, pair])
            row = step + (ends[1] < ends[0])
            mean = 0.5 * (branches[row, k] + branches[row, k + 1 + pair])
            found += zip(points[row].tolist(), mean.tolist())
            steps.append(step)
            big.append(np.maximum(*ends))
    if not found:
        return found
    steps = np.concatenate(steps)
    ends = stack[points[np.stack([steps, steps + 1])]]
    floor = CLUSTER_C * np.finfo(float).eps * np.linalg.norm(
        ends, axis=(-2, -1)).max(axis=0)
    keep = np.concatenate(big) > np.square(floor)
    return [turn for turn, k in zip(found, keep.tolist()) if k]


def _nearest(values, centre, count):
    return values[np.argsort(np.abs(values - centre))[:count]]


def find_ep(build, box, target_mult, base: ModelParams):
    """Locate and certify parameter-space degeneracies of a given multiplicity.

    `build(base, points)` is a stack builder such as superop.Generator's
    `matrices`; `box` maps one or two ModelParams fields to (lo, hi) ranges
    whose corners model.check_box accepts; 2 <= target_mult m <= the matrix
    dimension.  `_census` analyses the coarse lines, built in one call: the
    box at 65 points in one dimension, its four edges at 33 in two.  Each
    turn in a block of at least m eigenvalues, in the order of the coarse
    spread of the block's m eigenvalues nearest the pair's mean, seeds one
    `_gauss_newton` solve (one point per build call) of their centred power
    sums p_k = sum((lambda_i - mu) / tau)**k, k = 2..m, zero exactly where
    they coalesce, unless that spread reaches a cluster already reported from
    the pair's mean.  tau is 200 eps**(1/m) (an order-m cluster scatters like
    an m-th root) times the largest coarse spectral diameter.  A new solution
    whose m eigenvalues' least gap sum s from one of them is below tau
    reports, with its ModelParams, the matrix's cluster of algebraic
    multiplicity >= m nearest them, linked by detect_degeneracy within 3 s as well.
    """
    names = list(box)
    if not 1 <= len(names) <= 2:
        raise ValueError("box must constrain one or two parameters")
    los, his = np.array(list(box.values()), dtype=float).T
    if np.any(his <= los):
        raise ValueError("empty box")
    check_box(base, box)

    if len(names) == 1:
        lines = [np.linspace(los, his, 65)]
    else:
        ax, ay = (np.linspace(lo, hi, 33) for lo, hi in zip(los, his))
        lines = ([np.column_stack([np.full(33, x), ay]) for x in (los[0], his[0])]
                 + [np.column_stack([ax, np.full(33, y)]) for y in (los[1], his[1])])
    pts = np.concatenate(lines)
    coarse = build(base, dict(zip(names, pts.T)))
    if not 2 <= target_mult <= coarse.shape[-1]:
        raise ValueError(f"target_mult must be between 2 and the matrix dimension "
                         f"{coarse.shape[-1]}")

    seeds, scale = [], 0.0
    for line in np.split(np.arange(len(pts)), len(lines)):
        blocks, parts, turns, _, failures = _census(coarse[line])
        if failures:
            raise FloatingPointError(f"coarse point {pts[line[failures[0][0]]]} "
                                     f"failed: {failures[0][1]}")
        scale = max(scale, *map(spectral_diameter, np.hstack(parts)))
        for block, part, block_turns in zip(blocks, parts, turns):
            for k, mean in block_turns if len(block) >= target_mult else ():
                z = _nearest(part[k], mean, target_mult)
                seeds.append((np.abs(z - z.mean()).max(), mean, block, pts[line[k]]))
    threshold = 200.0 * np.finfo(float).eps ** (1.0 / target_mult) * scale

    def at(x, centre, block):  # the matrix, its block's cluster, the power sums
        a = build(base, dict(zip(names, x.tolist())))[0]
        z = _nearest(linalg.eigvals(a[np.ix_(block, block)]), centre, target_mult)
        p = [np.sum(((z - z.mean()) / threshold) ** k) for k in range(2, z.size + 1)]
        return a, z, np.concatenate([np.real(p), np.imag(p)])

    found, reports = [], []
    for spread, centre, block, seed in sorted(seeds, key=lambda s: s[0]):
        if any(abs(r.cluster_value - centre) <= spread for r in reports):
            continue  # a cluster already reported
        x, (a, z, _) = _gauss_newton(lambda x: at(x, centre, block), seed, los, his)
        s_min = np.abs(z[:, None] - z).sum(axis=1).min()
        if not s_min < threshold or any(np.max(np.abs(x - f) / (his - los)) < 1e-4
                                        for f in found):
            continue  # not certified, or a duplicate basin
        found.append(x)
        clusters = [r for r in detect_degeneracy(a, tol_cluster=3.0 * s_min)[1]
                    if r.algebraic_mult >= target_mult]
        if clusters:
            rep = min(clusters, key=lambda r: abs(r.cluster_value - z.mean()))
            p = base.replace(**dict(zip(names, x.tolist())))
            reports.append(dataclasses.replace(rep, params=p))
    return reports


def _gauss_newton(fun, x, lo, hi):
    """Projected Gauss-Newton from x on r = fun(x)[-1] in the box [lo, hi]:
    (x, fun(x)) at the last point that lowered |r|^2.  Forward differences
    take SciPy's '2-point' step h, inward at the upper bound; a step that
    lowers nothing is halved while longer than h; 100 len(x) evaluations cap it."""
    best, evals = fun(x), 1
    while evals + x.size < 100 * x.size:  # room for the probes and a step
        h = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(x))
        probes = x + np.diag(np.where(x + h > hi, -h, h))
        jac = np.column_stack([(fun(p)[-1] - best[-1]) / (p - x).sum() for p in probes])
        step = np.clip(x - np.linalg.lstsq(jac, best[-1])[0], lo, hi) - x
        evals += x.size
        while evals < 100 * x.size:
            trial, evals = fun(np.clip(x + step, lo, hi)), evals + 1
            if trial[-1] @ trial[-1] < best[-1] @ best[-1]:
                x, best = np.clip(x + step, lo, hi), trial
                break
            if np.all(np.abs(step) <= h):
                return x, best
            step = step / 2
    return x, best


def evolve_check(l, rho0, t_max, steps):
    """Propagate rho0 to the `steps` equally spaced times from 0 to t_max by
    one propagator and by eigen-expansion, as (states, route_diff): the
    (steps, d, d) propagated states and the (steps,) largest entry difference
    of the two routes, NaN when l is defective (eigenvector condition number
    above 1e12) and at times whose eigen-expansion overflows.

    `l` is the generator's Gell-Mann matrix, and it must preserve the
    trace, as hybrid generators with q < 1 and dissipation do not.  rho0 is
    checked and vectorized, and l eigendecomposed, once for all times.  The
    propagator E = expm(l t_max / (steps - 1)) is formed once, and each
    state is E times the one before; the eigen-expansion, evaluated at each
    time, is the independent route.  FloatingPointError names l, or l t_max,
    if it is not finite, and the first time whose state is not finite.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if not np.isfinite(l).all():
        raise FloatingPointError("the generator is not finite")
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(l * t_max).all():
            raise FloatingPointError(f"l t is not finite at t = {t_max:g}")
    # the last row holds the traces Tr(l(s_j)) times sqrt(2/d) / 2
    if np.abs(l[-1]).max() > 1e-12 * np.abs(l).max():
        raise ValueError("evolve_check requires a trace-preserving generator: "
                         "hybrid generators with jumps and q < 1 are not")
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

    times = np.linspace(0.0, t_max, steps)
    prop = linalg.expm(l * (t_max / (steps - 1)))
    vecs = [superop.vectorize(rho0)]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for _ in range(steps - 1):
            vecs.append(prop @ vecs[-1])
    states = np.array([superop.devectorize(v) for v in vecs])
    bad = np.flatnonzero(~np.isfinite(states).all(axis=(1, 2)))
    if bad.size:
        raise FloatingPointError(f"expm(l t) is not finite at t = {times[bad[0]]:g}")

    values, v = linalg.eig(l)
    if np.linalg.cond(v) > 1e12:
        return states, np.full(steps, np.nan)
    coeff = np.linalg.solve(v, vecs[0])
    # an eigenvalue whose real part is positive at rounding level overflows
    # exp at a large t, and route_diff is NaN there (see the docstring)
    with np.errstate(over="ignore", invalid="ignore"):
        rho_eig = np.array([superop.devectorize(v @ (coeff * np.exp(values * t)))
                            for t in times])
    return states, np.abs(states - rho_eig).max(axis=(1, 2))
