import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lioup import analytic, linalg, model, spectra, superop
from lioup.model import ModelParams, build_eff3, triple_point
from lioup.spectra import (DAMPED_OSCILLATION, PURE_DECAY, PURE_OSCILLATION,
                           STATIONARY, UNSTABLE, classify, correspondence_check,
                           detect_degeneracy, evolve_check, find_ep,
                           match_distance, splittings, sweep)

from conftest import (h_nh_detuned, h_nh_tuned, inconsistent_reports,
                      schur_partition)


def gm_liouvillian(p):
    return superop.hybrid_liouvillian(build_eff3(p), p.q)


def jump_cubic(omega, j, q):
    """phi, nu and nu^2 + phi^3 of the jump-coupled cubic t^3 + 3 phi t - 2 nu,
    with the coefficients of analytic.jump_coupled_three: J*(q) is the double
    root, where nu^2 + phi^3 = 0."""
    phi = 54.0 * j ** 2 + omega ** 2 * (-4.0 * q ** 2 + 18.0 * q - 27.0)
    nu = omega * q * (324.0 * j ** 2 + omega ** 2 * (8.0 * q ** 2 - 54.0 * q + 81.0))
    return phi, nu, nu ** 2 + phi ** 3


def stacked(builder):
    """`builder` of one ModelParams' matrix as a find_ep stack builder, one
    ModelParams per point."""
    def build(base, points):
        cols = [np.ravel(x).tolist() for x in points.values()]
        return np.array([builder(base.replace(**dict(zip(points, x))))
                         for x in zip(*cols, strict=True)])
    return build


JORDAN_C = 0.7 - 0.3j
FAR = (5.0, -4.0 + 3.0j, 8.0j)


def jordan_matrix(*clusters):
    """Upper bidiagonal J with Jordan chains `partition` at `value` for each
    (value, partition) of `clusters`, then the simple eigenvalues FAR."""
    diagonal, sup = [], []
    for value, partition in clusters:
        for k in partition:
            diagonal += [value] * k
            sup += [1.0] * (k - 1) + [0.0]
    diagonal += FAR
    sup += [0.0] * (len(FAR) - 1)
    return np.diag(np.array(diagonal, dtype=complex)) + np.diag(sup, 1)


def conjugations(j, count, seed):
    """`count` matrices U J U^H, U the Q of a complex Gaussian
    (default_rng(seed), one per draw)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        u, _ = np.linalg.qr(rng.normal(size=j.shape) + 1j * rng.normal(size=j.shape))
        yield u @ j @ u.conj().T


def jordan_draws(partition, count):
    """`count` conjugations (default_rng(7)) of the Jordan chains
    `partition` at JORDAN_C beside FAR."""
    return conjugations(jordan_matrix((JORDAN_C, partition)), count, 7)


def asymptote_check(kind, p, grid):
    """Deviation of the effective NHH spectrum from its limiting Hamiltonian.

    kind "small_j": oscillatory (real) parts against the RF-detuning spectrum
    {delta, 0, -delta}; kind "large_j": against the RF-drive spectrum
    {sqrt(2) J, 0, -sqrt(2) J}.  Returns the max deviation over the grid.
    """
    grid = np.asarray(grid, dtype=float)
    delta, omega = p.delta_rf, p.omega
    if kind == "small_j":
        in_regime = np.all(grid <= abs(delta) / 10.0) if delta else bool(np.all(grid == 0))
    elif kind == "large_j":
        in_regime = bool(np.all(grid >= 10.0 * max(abs(delta), omega)))
    else:
        raise ValueError(f"unknown asymptote kind {kind!r}")
    if not in_regime:
        warnings.warn(f"grid is not inside the {kind} asymptotic regime",
                      stacklevel=2)
    worst = 0.0
    for j in grid:
        ev = np.sort(linalg.eigvals(h_nh_detuned(omega, j, delta)).real)
        if kind == "small_j":
            limit = np.sort([delta, 0.0, -delta])
        else:
            limit = np.sort([math.sqrt(2) * j, 0.0, -math.sqrt(2) * j])
        worst = max(worst, float(np.abs(ev - limit).max()))
    return worst


def union_find_components(linked):
    """Reference connected components of a symmetric boolean matrix, by
    union-find: ascending members, groups ordered by their least member."""
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


@st.composite
def symmetric_links(draw):
    """A symmetric boolean matrix of 1-19 indices with links drawn at a rate
    of 0-30%, about where the components of that many indices join."""
    n = draw(st.integers(1, 19))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    upper = np.triu(rng.random((n, n)) < draw(st.floats(0.0, 0.3)), 1)
    return upper | upper.T


class TestSingleLinkage:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(linked=symmetric_links())
    def test_matches_union_find(self, linked):
        got = spectra._single_linkage(linked)
        assert got == union_find_components(linked)
        assert all(type(i) is int for group in got for i in group)

    def test_path_needs_every_squaring(self):
        # 0 - 1 - ... - 18: index 18 lies 18 links from its least member
        linked = np.eye(19, k=1, dtype=bool) | np.eye(19, k=-1, dtype=bool)
        assert spectra._single_linkage(linked) == [list(range(19))]


class TestClassify:
    def test_basic_cases(self):
        omega, j = 30.0, 30.0
        alpha1 = analytic.alpha(omega, j)
        kinds = classify([0.0, -2 * omega, -alpha1, 3j, 0.5])
        assert kinds == [STATIONARY, PURE_DECAY, DAMPED_OSCILLATION,
                         PURE_OSCILLATION, UNSTABLE]

    def test_liouvillian_has_one_stationary_and_no_unstable(self):
        p = ModelParams(omega=30.0, j=10.0, delta_rf=2.0, q=1.0)
        ev = linalg.eigvals(gm_liouvillian(p))
        kinds = classify(ev)
        assert kinds.count(STATIONARY) == 1
        assert UNSTABLE not in kinds

    def test_single_value_has_no_spread(self):
        # fewer than two values have diameter 0, so every nonzero part counts
        assert spectra.spectral_diameter([]) == spectra.spectral_diameter([3j]) == 0.0
        assert classify([-1e-200]) == [PURE_DECAY]


class TestSplittings:
    def test_equal_values(self):
        table = splittings([1.0 + 1j, 1.0 + 1j, 1.0 + 1j])
        assert all(re == 0.0 and im == 0.0 for _, _, re, im in table)

    def test_pairs_are_ordered_differences(self):
        table = splittings([1.0 + 2j, -0.5 + 1j, 0.25])
        assert table == ((0, 1, 1.5, 1.0), (0, 2, 0.75, 2.0),
                               (1, 2, -0.75, 1.0))

    def test_jump_lifted_asymptote(self):
        omega, q, j = 30.0, 0.001, 4000.0
        ev = linalg.eigvals(gm_liouvillian(ModelParams(omega=omega, j=j, q=q)))
        movers = list(ev)
        for lam in analytic.fixed_six(omega, j):
            movers.pop(int(np.argmin(np.abs(np.array(movers) - lam))))
        movers.sort(key=lambda z: -z.real)
        d78 = movers[0].real - movers[1].real
        d89 = abs(movers[1].real - movers[2].real)
        assert abs(d78 - 4.0 * omega * q / 3.0) < 1e-3
        assert d89 < 1e-6


class TestDetectDegeneracy:
    def test_operator_pair_coalescence(self):
        omega = 30.0
        _, reports = detect_degeneracy(h_nh_tuned(omega, omega / np.sqrt(2.0)),
                                       tol_cluster=1e-4)
        assert len(reports) == 1
        r = reports[0]
        assert (r.algebraic_mult, r.geometric_mult, r.order) == (2, 1, 2)
        assert r.kind == "exceptional"
        assert abs(r.cluster_value + 1j * omega) < 1e-5
        assert r.vector_overlap > 1 - 1e-4

    def test_triple_point_superoperator_collapse(self):
        omega = 30.0
        j, d, _ = triple_point(omega)
        p = ModelParams(omega=omega, j=j, delta_rf=d, q=0.0)
        _, reports = detect_degeneracy(gm_liouvillian(p))
        assert len(reports) == 1
        r = reports[0]
        assert r.algebraic_mult == 9
        assert r.geometric_mult == 3
        assert (r.order, r.partition) == (5, (5, 3, 1))
        assert r.kind == "hybrid"

    @pytest.mark.parametrize("factor", [0.1, 10.0])
    def test_collapse_structure_is_independent_of_the_constant(self, monkeypatch,
                                                              factor):
        # the eps**(1/5) scatter of the chains (5, 3, 1) is matched by their
        # condition numbers, not by the choice of CLUSTER_C
        monkeypatch.setattr(spectra, "CLUSTER_C", spectra.CLUSTER_C * factor)
        j, d, _ = triple_point(30.0)
        m = gm_liouvillian(ModelParams(omega=30.0, j=j, delta_rf=d, q=0.0))
        [r] = detect_degeneracy(m)[1]
        assert (r.algebraic_mult, r.geometric_mult, r.partition) == (9, 3, (5, 3, 1))

    def test_q0_superoperator_at_the_critical_drive(self):
        # the NHH pair at J* = omega / sqrt(2) gives J2 (+) J2 at -2 omega
        # (chains (3, 1)) and twice J1 (+) J2 at -omega (chains (2, 2))
        p = ModelParams(omega=30.0, j=30.0 / np.sqrt(2.0), q=0.0)
        reports = detect_degeneracy(superop.generator("eff3").matrices(p)[0])[1]
        got = [(round(r.cluster_value.real, 6), r.algebraic_mult, r.geometric_mult,
                r.partition) for r in reports]
        assert got == [(-60.0, 4, 2, (3, 1)), (-30.0, 4, 2, (2, 2))]

    def test_ill_conditioned_double_reaches_no_further_than_its_pseudospectrum(self):
        # at this near-resonant point the eigensolver returns the q-free
        # double at -omega bit-equal, with condition numbers near 6e15: their
        # reach alone spans all nine eigenvalues, but only the four at -omega
        # lie in one rounding-level pseudospectrum
        p = ModelParams(omega=25.5329, j=18.054486733358, q=0.024065,
                        gamma_sp=72848.1)
        [r] = detect_degeneracy(superop.generator("eff3").matrices(p)[0])[1]
        assert (r.algebraic_mult, r.partition) == (4, (2, 2))
        assert abs(r.cluster_value + 25.5329) < 1e-9

    def test_operator_triple_point(self):
        j, d, e_tp = triple_point(30.0)
        [r] = detect_degeneracy(h_nh_detuned(30.0, j, -d))[1]
        assert (r.kind, r.algebraic_mult, r.partition) == ("exceptional", 3, (3,))
        assert abs(r.cluster_value - e_tp) < 1e-9

    @pytest.mark.parametrize("j", [10.0, 30.0 / np.sqrt(2.0)])
    def test_four_level_superoperator_clusters_are_tight(self, j):
        # gamma_sp sets the spectral diameter; eigenvalues 1-33 apart on
        # the ground scale are not one cluster
        p = ModelParams(omega=30.0, j=j, gamma_sp=3.581e7, q=1.0)
        reports = detect_degeneracy(superop.generator("full4").matrices(p)[0])[1]
        assert reports
        assert max(r.gap_residual for r in reports) <= 1e-6
        if j == 10.0:
            # three tight pairs, each two chains of length 1: ||A - cI||_2
            # ~ gamma_sp here, so a rank cut relative to it would count an
            # eigenvalue one unit away as a null direction and read (2,)
            assert [r.partition for r in reports] == [(1, 1)] * 3

    def test_pairs_of_a_held_out_spectrum_are_diabolical(self):
        # a simple eigenvalue 0.0125 from the pair at -0.476 must not enter
        # its chains: (2,) would contradict geometric multiplicity 2
        p = ModelParams(omega=32.5699, j=3.92499, q=0.971245, gamma_sp=200593.0)
        reports = detect_degeneracy(superop.generator("eff3").matrices(p)[0])[1]
        assert [round(r.cluster_value.real, 3) for r in reports] == [-64.663, -0.476]
        assert [(r.geometric_mult, r.partition) for r in reports] == [(2, (1, 1))] * 2

    def test_resonant_quadruple_at_minus_omega_holds_two_pairs(self):
        # near q = 0 and J* = omega / sqrt(2) the -omega quadruple keeps the
        # chains (2, 2) that it has at q = 0, as an ordered Schur form reads
        p = ModelParams(omega=31.1908, j=22.055226190633366, q=0.263269,
                        gamma_sp=5417430.0)
        [r] = detect_degeneracy(superop.generator("eff3").matrices(p)[0])[1]
        assert abs(r.cluster_value + 31.1908) < 1e-9
        assert (r.algebraic_mult, r.geometric_mult, r.partition) == (4, 2, (2, 2))

    def test_four_level_operator_has_no_pair_at_half_drive(self):
        # full4's operator EP sits near J = 21.213239, not at omega / sqrt(2)
        p = ModelParams(omega=30.0, j=30.0 / np.sqrt(2.0), gamma_sp=3.581e7, q=1.0)
        assert detect_degeneracy(superop.generator("full4").operators(p)[0])[1] == []

    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_jordan_block(self, n):
        # V is singular to working precision: every pair is a candidate, and
        # no overflow warning escapes (warnings are errors here)
        values, [r] = detect_degeneracy(np.diag(np.ones(n - 1), 1))
        assert values.tolist() == [0.0] * n
        assert (r.kind, r.algebraic_mult, r.geometric_mult) == ("exceptional", n, 1)
        assert r.partition == (n,)

    @pytest.mark.parametrize("partition", [
        (2,), (3,), (4,), (1, 1), (2, 1), (3, 1), (2, 2), (2, 1, 1), (3, 2),
        (1, 1, 1), (3, 1, 1), (2, 2, 1), (4, 1), (5,), (6,), (4, 2), (3, 3)])
    def test_jordan_partitions_of_conjugated_jordan_matrices(self, partition):
        for a in jordan_draws(partition, 20):
            [r] = detect_degeneracy(a)[1]
            assert abs(r.cluster_value - JORDAN_C) < 1e-9
            assert r.partition == partition
            assert r.geometric_mult == len(partition)
            assert r.algebraic_mult == sum(partition)

    def test_single_chain_of_five(self):
        # on the whole matrix, ||A - cI||_2 ~ 8 puts the 4th power's chain
        # singular value, 2.1e-4, at the cut 2 spread / ||A - cI||, 2.2e-4;
        # on the cluster's 5 x 5 block they are 1 and 1.9e-3
        *_, a = jordan_draws((5,), 11)  # draw 10
        [r] = detect_degeneracy(a)[1]
        assert (r.algebraic_mult, r.geometric_mult) == (5, 1)
        assert r.partition == (5,)

    @pytest.mark.parametrize("case,powers,side", [("triple point", 6, 9),
                                                  ("diabolical pair", 2, 2)])
    def test_jordan_powers_stop_when_the_null_space_stops_growing(
            self, monkeypatch, case, powers, side):
        # chains (5, 3, 1) grow the null space by 3, 2, 2, 1, 1 and then 0 at
        # the 6th power, (1, 1) by 2 and then 0: no power up to m + 1 follows.
        # The powers are of the clusters' block, without the simple
        # eigenvalues: 2 x 2 for the pair beside the three values FAR
        if case == "triple point":
            j, d, _ = triple_point(30.0)
            a = gm_liouvillian(ModelParams(omega=30.0, j=j, delta_rf=d, q=0.0))
            want = (9, 3, (5, 3, 1))
        else:
            [a] = jordan_draws((1, 1), 1)
            want = (2, 2, (1, 1))
        svd, shapes = np.linalg.svd, []

        def counted(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        [r] = detect_degeneracy(a)[1]
        assert (r.algebraic_mult, r.geometric_mult, r.partition) == want
        # the stacked pseudospectrum test of the links is one 3-D call
        assert [shape for shape in shapes if len(shape) == 2] == [(side, side)] * powers

    @pytest.mark.parametrize("first,second", [
        ((2,), (2,)), ((3,), (2,)), ((3, 1), (2, 2)), ((4,), (3,)),
        ((2, 1), (3,)), ((5,), (2,))])
    def test_two_defective_clusters(self, first, second):
        # each cluster is read on the one block that holds both, as in the
        # exact Jordan matrix and in 20 unitary conjugations of it, and
        # agrees with an ordered Schur form
        j = jordan_matrix((JORDAN_C, first), (2.1 + 0.4j, second))
        for a in [j, *conjugations(j, 20, 11)]:
            values, reports = detect_degeneracy(a)
            assert [r.partition for r in reports] == [first, second]
            assert abs(reports[0].cluster_value - JORDAN_C) < 1e-9
            assert abs(reports[1].cluster_value - (2.1 + 0.4j)) < 1e-9
            assert inconsistent_reports(reports) == []
            for r in reports:
                assert schur_partition(a, values, r.indices) == r.partition

    def test_diabolical_crossing(self):
        _, reports = detect_degeneracy(np.diag([1.0, 1.0, 2.0]).astype(complex))
        assert len(reports) == 1
        r = reports[0]
        assert r.kind == "diabolical"
        assert (r.algebraic_mult, r.geometric_mult, r.order) == (2, 2, 1)
        assert r.vector_overlap < 1e-4

    def test_zero_operator_is_one_diabolical_cluster(self):
        # eff3 without drive (omega = j = delta = 0) has H_nh = 0: a zero
        # cluster radius and a zero-norm rank sequence
        h = superop.generator("eff3").operators(ModelParams(omega=0.0, j=0.0))[0]
        assert not h.any()
        values, reports = detect_degeneracy(h)
        assert values.tolist() == [0.0, 0.0, 0.0]
        [r] = reports
        assert (r.kind, r.algebraic_mult, r.geometric_mult) == ("diabolical", 3, 3)
        assert (r.order, r.partition) == (1, (1, 1, 1))

    def test_no_reports_for_separated_spectrum(self):
        assert detect_degeneracy(np.diag([1.0, 2.0, 4.0]).astype(complex))[1] == []

    def test_block_split_keeps_the_jordan_partitions(self):
        # at the operator EP J = Omega/sqrt(2), q = 0, the stack splits 3 + 6;
        # counting a simple eigenvalue as one chain of length 1, the chains of
        # the two blocks add up to the whole matrix's at -2 Omega and -Omega
        a = superop.generator("eff3").matrices(
            ModelParams(omega=30.0, j=30.0 / math.sqrt(2.0), q=0.0))[0]

        def chains(m):
            """Chain lengths, longest first, at -2 Omega and at -Omega."""
            values, reports = detect_degeneracy(m)
            found = [(r.cluster_value, r.partition) for r in reports]
            clustered = {i for r in reports for i in r.indices}
            found += [(z, (1,)) for i, z in enumerate(values) if i not in clustered]
            return [sorted((c for z, p in found if abs(z - value) < 1.0
                            for c in p), reverse=True) for value in (-60.0, -30.0)]

        blocks = spectra._blocks(a[None])
        got = {len(b): chains(a[np.ix_(b, b)]) for b in blocks}
        assert got == {3: [[1], [2]], 6: [[3], [2]]}
        assert chains(a) == [[3, 1], [2, 2]]


class TestCorrespondence:
    def test_hand_evaluated_two_level(self):
        h = np.diag([0.0, -1j])
        want = np.array([0.0, -1.0, -1.0, -2.0])
        assert correspondence_check(h, want) < 1e-14

    def test_effective_operator_against_superoperator(self):
        p = ModelParams(omega=30.0, j=17.0, delta_rf=3.0, q=0.0)
        sys3 = build_eff3(p)
        ev = linalg.eigvals(gm_liouvillian(p))
        assert correspondence_check(sys3.h_nh(), ev) < 1e-9

    def test_operator_degeneracy_squares(self):
        # an n-fold operator degeneracy induces >= n^2 equal pair values
        h = np.diag([1.0 - 1j, 1.0 - 1j, 3.0]).astype(complex)
        ev = linalg.eigvals(h)
        pairs = np.array([-1j * (a - np.conj(b)) for a in ev for b in ev])
        val = -1j * ((1 - 1j) - (1 + 1j))
        assert (np.abs(pairs - val) < 1e-12).sum() >= 4

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            correspondence_check(np.eye(2), np.zeros(5))


def tuned(p):
    return h_nh_tuned(p.omega, p.j)


# find_ep's stack builders, of the detuned NHH in the builders' sign
# convention and mirrored
DETUNED = stacked(lambda p: h_nh_detuned(p.omega, p.j, p.delta_rf))
MIRRORED = stacked(lambda p: h_nh_detuned(p.omega, p.j, -p.delta_rf))


def assignment_branches(values):
    """The reference tracking: the minimal-total-distance assignment at every
    step between consecutive solved points, its rows in the previous point's
    branch order.  `values` holds each point's eigenvalues, None where the
    point failed, which gives a NaN column."""
    import scipy.optimize

    good = [i for i, v in enumerate(values) if v is not None]
    prev = values[good[0]]
    branches = np.full((prev.size, len(values)), np.nan + 1j * np.nan)
    branches[:, good[0]] = prev
    for i in good[1:]:
        cost = np.abs(prev[:, None] - values[i][None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        prev = np.empty_like(values[i])
        prev[rows] = values[i][cols]
        branches[:, i] = prev
    return branches


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def conjugate_pairs_to_half_real(rng, n):
    """Distances from a spectrum of conjugate pairs to the next one, where
    half of the pairs have turned real: each real value is exactly as far
    from a pair's two members, so the costs tie in pairs."""
    k = n // 2
    pairs = rng.normal(size=k) + 1j * rng.normal(size=k)
    prev = np.concatenate([pairs, pairs.conj(), rng.normal(size=n - 2 * k)])
    split = rng.normal(size=k) * (np.arange(k) < (k + 1) // 2)
    turned = pairs + 0.1 * rng.normal(size=k) * 1j
    nxt = np.where(split != 0, pairs.real + split, turned)
    nxt = np.concatenate([nxt, np.where(split != 0, pairs.real - split, turned.conj()),
                          prev[2 * k:] + 0.1])
    return np.abs(prev[:, None] - nxt[None, :])


class TestAssign:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 9, 10, 16])
    def test_equals_scipy_bit_for_bit(self, rng, n):
        import scipy.optimize

        costs = [rng.random((n, n)) * 10.0 ** rng.uniform(-3, 3) for _ in range(100)]
        costs += [rng.integers(0, 3, (n, n)).astype(float) for _ in range(100)]
        costs += [conjugate_pairs_to_half_real(rng, n) for _ in range(100)]
        # a pair's two members are equally far from a value that turned real
        assert n == 1 or costs[-1][0, 0] == costs[-1][n // 2, 0]
        costs.append(np.ones((n, n)))
        for cost in costs:
            want = scipy.optimize.linear_sum_assignment(cost)
            assert want[0].tolist() == list(range(n))
            assert spectra._assign(cost.tolist()) == want[1].tolist()

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_invalid_entries_raise(self, bad):
        with pytest.raises(ValueError, match="invalid numeric entries"):
            spectra._assign([[1.0, 2.0], [bad, 3.0]])

    def test_match_distance_rejects_sizes_that_differ(self):
        with pytest.raises(ValueError, match="differ in size"):
            match_distance(np.zeros(3), np.zeros(4))

    def test_infeasible_matrix_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            spectra._assign([[math.inf, math.inf], [1.0, 2.0]])

    def test_infinite_step_names_both_grid_points(self):
        # a repeated value makes the step unclear, and an infinite value
        # leaves no assignment of finite cost
        values = np.array([[1.0, 1.0], [np.inf, 2.0]], dtype=complex)
        with pytest.raises(FloatingPointError, match="grid points 4 and 7$"):
            spectra._track(values, [4, 7])


class TestSweep:
    def test_bifurcation_at_critical_drive(self):
        omega = 30.0
        base = ModelParams(omega=omega, j=20.0, q=0.0)
        j_star = omega / np.sqrt(2.0)
        grid = np.sort(np.append(np.linspace(15.0, 25.0, 100), j_star))
        branches, candidates, _ = sweep(stacked(tuned)(base, {"j": grid}))
        below = grid < j_star - 0.2
        above = grid > j_star + 0.2
        spread_re = np.ptp(branches.real, axis=0)
        assert spread_re[below].max() < 1e-8
        assert spread_re[above].min() > 1.0
        assert [grid[i] for i in candidates] == [j_star]

    def test_columns_are_permutations_of_spectra(self):
        base = ModelParams(omega=30.0, j=10.0, q=0.5)
        grid = np.linspace(5.0, 40.0, 36)
        branches, _, _ = sweep(stacked(gm_liouvillian)(base, {"j": grid}))
        for k in (0, 17, 35):
            ev = linalg.eigvals(gm_liouvillian(base.replace(j=float(grid[k]))))
            assert match_distance(branches[:, k], ev) < 1e-9

    def test_no_ninefold_degeneracy_with_jumps_at_triple_point(self):
        omega = 30.0
        _, d, _ = triple_point(omega)
        base = ModelParams(omega=omega, j=20.0, delta_rf=d, q=1.0)
        grid = np.linspace(10.0, 40.0, 61)
        branches, _, _ = sweep(stacked(gm_liouvillian)(base, {"j": grid}))
        for k in range(61):
            ev = branches[:, k]
            diam = spectra.spectral_diameter(ev)
            groups = spectra._single_linkage(spectra._within(ev, 1e-3 * diam))
            assert max(len(g) for g in groups) < 9

    def test_no_candidates_without_degeneracies(self):
        base = ModelParams(omega=30.0, j=10.0, delta_rf=14.0, q=0.0)
        grid = np.linspace(0.5, 60.0, 120)
        _, candidates, _ = sweep(DETUNED(base, {"j": grid}))
        assert candidates == ()

    def test_failure_at_every_point_raises(self):
        with pytest.raises(RuntimeError, match="failed at every grid point"):
            sweep(np.full((4, 3, 3), np.nan))

    def test_eigensolve_failure_is_recorded_at_its_grid_index(self):
        # a non-finite matrix makes the batched solve raise; the per-matrix
        # fallback still attributes the failure to its own grid point
        base = ModelParams(omega=30.0, j=10.0, q=0.0)
        grid = np.linspace(15.0, 25.0, 11)
        mats = stacked(tuned)(base, {"j": grid})
        mats[5, 0, 0] = np.nan
        branches, _, failures = sweep(mats)
        assert [i for i, _ in failures] == [5]
        assert failures[0][1].startswith("ValueError")
        assert np.isnan(branches[:, 5]).all()
        assert np.isfinite(np.delete(branches, 5, axis=1)).all()

    def test_complex_matrices_after_real_ones_keep_their_imaginary_parts(self):
        def builder(j):
            # real up to j = 20, then a matrix with imaginary eigenvalues
            if j <= 20.0:
                return np.diag([j, 2.0 * j])
            return np.diag([j + 1j * j, 2.0 * j - 1j])

        grid = np.linspace(15.0, 25.0, 11)
        branches, _, failures = sweep([builder(x) for x in grid])
        assert failures == ()
        want = [np.sort_complex(linalg.eigvals(builder(x))) for x in grid]
        got = [np.sort_complex(branches[:, k]) for k in range(11)]
        assert np.array_equal(np.array(got), np.array(want))
        assert np.abs(branches[:, 6:].imag).min() >= 1.0

    def test_persistent_doubles_are_not_candidates(self):
        # the Gell-Mann superoperator keeps two exact doubles at every j, one
        # member in each block, and three eigenvalues cross at -20 at j = 20;
        # only the grid point nearest the pair EP at 30/sqrt(2) is flagged
        base = ModelParams(omega=30.0, j=10.0, q=0.5)
        grid = np.linspace(15.0, 25.0, 201)
        stack = superop.generator("eff3").matrices(base, {"j": grid})
        branches, candidates, _ = sweep(stack)
        assert candidates == (124,)
        assert abs(grid[124] - 30.0 / math.sqrt(2.0)) < 0.025
        ev = branches[:, 100]
        assert np.count_nonzero(np.abs(ev + 20.0) < 1e-5) == 3
        [crossing] = [r for r in detect_degeneracy(stack[100])[1]
                      if abs(r.cluster_value + 20.0) < 1e-5]
        assert crossing.kind == "diabolical" and crossing.partition == (1, 1, 1)

    def test_turns_match_every_pair_and_step(self, rng):
        # a real pair that becomes a conjugate pair: s = 4 (t + 0.011) changes
        # sign between t[148] = -0.0133 and t[149] = -0.0067, and t[148] is
        # nearer its zero; an exact repeat and steady branches flag nothing;
        # the pair's mean there is 0.3
        t = np.linspace(-1.0, 1.0, 301)
        points = np.sort(rng.choice(1000, size=301, replace=False))
        values = np.empty((301, 7), dtype=complex)
        values[:, :5] = 10.0 * np.arange(5) + 1e-3 * t[:, None]
        values[40:90, 4] = values[40:90, 2]
        values[:, 5] = 0.3 + np.sqrt(t + 0.011 + 0j)
        values[:, 6] = 0.3 - np.sqrt(t + 0.011 + 0j)
        assert spectra._turns(values, points) == [(int(points[148]), 0.3 + 0j)]
        # brute force over the pairs and steps, on random branches with that
        # pair and repeat, and rows whose order is permuted: each turn once,
        # pair by pair and then step by step, with the pair's mean at the
        # flagged end
        values[:, :5] = rng.normal(size=(301, 5)) + 1j * rng.normal(size=(301, 5))
        values[40:90, 4] = values[40:90, 2]
        for k in range(0, 301, 60):
            values[k] = values[k, rng.permutation(7)]
        want = []
        for a in range(7):
            for b in range(a + 1, 7):
                s = np.square(values[:, a] - values[:, b]).tolist()
                for k in range(300):
                    if (s[k] * s[k + 1].conjugate()).real < 0.0:
                        row = k + (abs(s[k + 1]) < abs(s[k]))
                        mean = complex(values[row, a] + values[row, b]) / 2.0
                        want.append((int(points[row]), mean))
        assert (int(points[148]), 0.3 + 0j) in want
        assert spectra._turns(values, points) == want

    @pytest.mark.parametrize("q,lo,hi", [
        (1.0, 1.0, 8.0), (0.5, 5.0, 15.0), (0.0, 15.0, 30.0), (0.1, 10.0, 20.0)])
    def test_resonant_sweep_flags_the_hybrid_ep(self, q, lo, hi):
        import scipy.optimize

        omega = 30.0
        j_star = scipy.optimize.brentq(lambda j: jump_cubic(omega, j, q)[2], lo, hi,
                                       maxiter=1000)
        grid = np.linspace(lo, hi, 201)
        _, candidates, _ = sweep(superop.generator("eff3").matrices(
            ModelParams(omega=omega, j=10.0, q=q), {"j": grid}))
        assert candidates == (int(np.argmin(np.abs(grid - j_star))),)

    def test_q_sweep_flags_the_hybrid_ep(self):
        # J = 10.086179 is J*(0.5): the coalescence moves through it at q = 0.5
        grid = np.linspace(0.0, 1.0, 201)
        _, candidates, _ = sweep(superop.generator("eff3").matrices(
            ModelParams(omega=30.0, j=10.086179), {"q": grid}))
        assert candidates == (100,)

    @pytest.mark.parametrize("name,sizes", [("eff3", [3, 6]), ("full4", [6, 10])])
    @pytest.mark.parametrize("gamma_g", [0.0, 1.5])
    def test_blocks_of_resonant_and_detuned_stacks(self, name, sizes, gamma_g):
        gen = superop.generator(name)
        base = ModelParams(omega=30.0, j=10.0, q=0.6, gamma_sp=1e5, gamma_g=gamma_g)
        grid = {"j": np.linspace(1.0, 40.0, 7)}
        blocks = spectra._blocks(gen.matrices(base, grid))
        assert sorted(map(len, blocks)) == sizes
        assert sorted(i for b in blocks for i in b) == list(range(sum(sizes)))
        one = [list(range(gen.form.dim ** 2))]
        assert spectra._blocks(gen.matrices(base.replace(delta_rf=2.0), grid)) == one
        assert spectra._blocks(gen.matrices(base, {"delta_rf": [-1.0, 0.0]})) == one
        assert spectra._blocks(gen.operators(base, grid)) == [list(range(gen.form.dim))]

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("j", [10.0, 25.0])
    def test_jump_free_block_is_the_fixed_three(self, q, j):
        # the eff3 3-block holds -2 omega, -a1 and -a1*, the same at every q
        stack = superop.generator("eff3").matrices(ModelParams(omega=30.0, j=j, q=q))
        [block] = [b for b in spectra._blocks(stack) if len(b) == 3]
        got = linalg.eigvals(stack[0][np.ix_(block, block)])
        six = analytic.fixed_six(30.0, j)
        assert match_distance(got, six[[1, 2, 4]]) < 1e-12 * 60.0

    @pytest.mark.parametrize("name,params,parameter,lo,hi", [
        # resonant: the exact doubles tie at every step
        ("eff3", dict(omega=30.0, j=15.0, q=0.4, gamma_sp=1e5, gamma_g=1.5),
         "j", 1.5, 60.0),
        ("full4", dict(omega=30.0, j=20.0, q=0.6, gamma_sp=1e5, gamma_g=2.0,
                       delta_opt=300.0), "delta_rf", -30.0, 30.0)])
    def test_tracking_is_the_per_step_assignment(self, name, params, parameter,
                                                 lo, hi):
        # per block of the stack, ordered by (re, im) at the first point
        grid = np.linspace(lo, hi, 301)
        stack = superop.generator(name).matrices(ModelParams(**params),
                                                 {parameter: grid})
        blocks = spectra._blocks(stack)
        assert len(blocks) == (2 if name == "eff3" else 1)
        want = np.vstack([assignment_branches(list(linalg.eigvals(
            stack[:, b][:, :, b]))) for b in blocks])
        want = want[np.lexsort((want[:, 0].imag, want[:, 0].real))]
        assert same_bits(sweep(stack)[0], want)
        values = linalg.eigvals(stack)
        assert spectra._unique_nearest(values)[1].any() == (name == "full4")

    def test_tracking_with_repeats_and_crossings(self, rng):
        t = np.linspace(-1.0, 1.0, 401)[:, None]
        drift = ((rng.normal(size=6) + 1j * rng.normal(size=6))
                 + 0.5 * t * (rng.normal(size=6) + 1j * rng.normal(size=6)))
        # a conjugate pair that meets on the real axis at t = 0
        pair = rng.normal() + 1j * rng.normal() * np.hstack([t, -t])
        values = np.hstack([drift, pair])
        values[100:150, 7] = values[100:150, 0]  # an exact repeat
        values[250:260] += rng.normal(size=(10, 8))  # jumps: neighbours collide
        for k in range(0, 401, 50):
            values[k] = values[k, rng.permutation(8)]
        got = np.take_along_axis(values, spectra._track(values, range(401)), axis=1)
        assert same_bits(got, assignment_branches(list(values)).T)
        unique = spectra._unique_nearest(values)[1]
        assert unique.any() and not unique.all()
        assert not unique[200] and not unique[120]

    def test_tracking_skips_failed_points(self):
        p = ModelParams(omega=30.0, j=10.0, delta_rf=5.0, q=0.3, gamma_sp=1e5,
                        gamma_g=1.0)
        grid = np.linspace(5.0, 40.0, 101)
        stack = superop.generator("full4").matrices(p, {"j": grid})
        stack[[0, 40, 41], 0, 0] = np.nan
        branches, _, failures = sweep(stack)
        values = [None if k in (0, 40, 41) else linalg.eigvals(m)
                  for k, m in enumerate(stack)]
        assert same_bits(branches, assignment_branches(values))
        assert [k for k, _ in failures] == [0, 40, 41]

    @pytest.mark.parametrize("points", [40, 41])
    @pytest.mark.parametrize("name", ["eff3", "full4"])
    @pytest.mark.parametrize("level,field,stop", [
        ("operator", "delta_rf", 30.0), ("superoperator", "delta_rf", 30.0),
        ("superoperator", "delta_opt", 2e3)])
    def test_mirrored_solve_matches_the_full_solve(self, monkeypatch, points,
                                                   name, level, field, stop):
        # on an antisymmetric grid of a SIGN_SYMMETRIC field the first
        # ceil(n / 2) points are solved, bit for bit as in the full solve,
        # and each other point is its mirror's spectrum to rounding
        gen = superop.generator(name)
        build = gen.operators if level == "operator" else gen.matrices
        p = ModelParams(omega=30.0, j=12.0, delta_rf=3.0, delta_opt=300.0,
                        gamma_sp=1e5, gamma_g=0.5, q=0.4)
        half = np.linspace(-stop, stop, points)[:points // 2]
        grid = np.concatenate([half, np.zeros(points % 2), -half[::-1]])
        stack = build(p, {field: grid})
        solved, eigvals = [], linalg.eigvals
        monkeypatch.setattr(linalg, "eigvals",
                            lambda a: solved.append(len(a)) or eigvals(a))
        branches, candidates, failures = sweep(stack, mirrored=True)
        monkeypatch.undo()
        full, want_candidates, _ = sweep(stack)
        assert solved == [(points + 1) // 2] and failures == ()
        assert same_bits(branches[:, :solved[0]], full[:, :solved[0]])
        scale = np.abs(full).max()
        for got, want in zip(branches.T, full.T):
            assert match_distance(got, want) <= 1e-12 * scale
        assert candidates == want_candidates

    def test_failed_source_point_fails_its_mirror(self):
        p = ModelParams(omega=30.0, j=12.0, q=0.4, gamma_sp=1e5)
        grid = np.linspace(-30.0, 30.0, 9)
        stack = superop.generator("full4").operators(p, {"delta_rf": grid})
        stack[1, 0, 0] = np.nan
        branches, _, failures = sweep(stack, mirrored=True)
        [(k, message), (mirror, same)] = failures
        assert (k, mirror) == (1, 7) and same == message
        assert message.startswith("ValueError")
        assert np.isnan(branches[:, [1, 7]]).all()
        assert np.isfinite(np.delete(branches, [1, 7], axis=1)).all()

    def test_stack_that_splits_is_solved_in_full(self):
        # at J = 0 the eff3 generator splits into blocks that the state
        # reversal permutes: half of the mirrored block spectra differ, so
        # the mirror is not used
        p = ModelParams(omega=30.0, j=0.0, delta_opt=300.0, gamma_sp=1e5, q=0.4)
        half = np.linspace(-30.0, 30.0, 11)[:5]
        grid = np.concatenate([half, [0.0], -half[::-1]])
        stack = superop.generator("eff3").matrices(p, {"delta_rf": grid})
        blocks = spectra._blocks(stack)
        assert sorted(map(len, blocks)) == [2, 2, 2, 3]
        differ = [match_distance(ev[k], ev[10 - k]) > 1e-9 * np.abs(ev).max()
                  for ev in (linalg.eigvals(stack[:, b][:, :, b]) for b in blocks)
                  for k in range(5)]
        assert sum(differ) == 10
        full, mirrored = sweep(stack), sweep(stack, mirrored=True)
        assert same_bits(mirrored[0], full[0]) and mirrored[1:] == full[1:]

    def test_rounding_flips_of_exact_doubles_are_not_turns(self):
        # where the detuned H_nh has a purely imaginary spectrum, the jump-free
        # superoperator's -i(E_i - E_j^*) and -i(E_j - E_i^*) are one real
        # value, whose squared gap turns at random steps: 159 turns at 81
        # points without the floor; with it, only the step near J = 11.15
        p = ModelParams(omega=30.0, j=5.0, delta_rf=2.165064, q=0.0)
        grid = np.linspace(5.0, 20.0, 201)
        stack = superop.generator("eff3").matrices(p, {"j": grid})
        _, candidates, _ = sweep(stack)
        assert candidates == (82, 83)
        assert grid[82] == pytest.approx(11.15)
        [block], [part], _, good, _ = spectra._census(stack)
        raw = spectra._turns(part, good)
        assert len(raw) == 159 and len({k for k, _ in raw}) == 81

    def test_turn_floor_scales_with_the_matrix(self):
        # a pair whose squared gap flips sign at 2e-15 apart: within the floor
        # of a matrix of norm sqrt(2), beyond that of norm 1e-3 sqrt(2)
        values = np.array([[1.0 + 1e-15j, 1.0 - 1e-15j], [1.0 + 1e-15, 1.0 - 1e-15]])
        assert spectra._turns(values, [0, 1]) == [(0, 1.0 + 0j)]
        assert spectra._turns(values, [0, 1], np.array([np.eye(2)] * 2)) == []
        assert spectra._turns(values, [0, 1], np.array([1e-3 * np.eye(2)] * 2)) == [
            (0, 1.0 + 0j)]

    def test_one_solved_point_leaves_no_step_to_track(self):
        base = ModelParams(omega=30.0, j=10.0, q=0.5)
        grid = np.linspace(5.0, 40.0, 4)
        stack = superop.generator("eff3").matrices(base, {"j": grid})
        stack[[0, 1, 3], 0, 0] = np.nan
        branches, candidates, failures = sweep(stack)
        assert np.isfinite(branches[:, 2]).all()
        assert np.isnan(np.delete(branches, 2, axis=1)).all()
        assert [k for k, _ in failures] == [0, 1, 3]
        assert candidates == ()


class TestFindEp:
    def test_two_pair_coalescences_inside_the_critical_detuning(self):
        base = ModelParams(omega=30.0, j=20.0, delta_rf=4.62, q=0.0)
        reps = find_ep(DETUNED, {"j": (0.01, 60.0)}, 2, base)
        js = sorted(r.params.j for r in reps)
        assert len(js) == 2
        # frozen from the discriminant of the real characteristic cubic
        assert js[0] == pytest.approx(15.9647597596, abs=1e-4)
        assert js[1] == pytest.approx(21.4694723643, abs=1e-4)

    def test_triple_point_certification_survives_default_tolerance_change(
            self, monkeypatch):
        # certification clusters at the spread it measured, so scaling the
        # default clustering constant must not change the outcome
        base = ModelParams(omega=30.0, j=23.0, delta_rf=11.0, q=0.0)
        box = {"j": (20.0, 26.0), "delta_rf": (9.0, 14.0)}
        c = spectra.CLUSTER_C
        for factor in (0.1, 10.0):
            monkeypatch.setattr(spectra, "CLUSTER_C", c * factor)
            reps = find_ep(MIRRORED, box, 3, base)
            assert len(reps) == 1
            assert reps[0].algebraic_mult == 3 and reps[0].geometric_mult == 1
            assert abs(reps[0].cluster_value + 20j) < 1e-6

    def test_triple_point_to_rounding(self):
        # the centred power sums vanish analytically at the coalescence, so
        # the solve lands on criterion 5's triple point to rounding
        base = ModelParams(omega=30.0, j=23.0, delta_rf=11.0, q=0.0)
        reps = find_ep(MIRRORED, {"j": (20.0, 26.0), "delta_rf": (9.0, 14.0)}, 3, base)
        j_tp, d_tp, _ = triple_point(30.0)
        assert len(reps) == 1
        assert abs(reps[0].params.j - j_tp) <= 1e-10
        assert abs(reps[0].params.delta_rf - d_tp) <= 1e-10

    @pytest.mark.parametrize("build,box,target,base,limit", [
        # the README's find-ep example: 65 coarse-grid points
        (superop.generator("eff3").operators, {"j": (15.0, 30.0)}, 2,
         ModelParams(omega=30.0, j=10.0, q=0.0), 200),
        # criterion 5's box: its four edges, 33 points each
        (superop.generator("eff3").operators,
         {"j": (20.0, 26.0), "delta_rf": (9.0, 14.0)}, 3,
         ModelParams(omega=30.0, j=23.0, delta_rf=11.0, q=0.0), 3000),
        # the hybrid EP at J*(0.5) = 10.086179: one solve, not one per seed
        # on the persistent doubles
        (superop.generator("eff3").matrices, {"j": (5.0, 15.0)}, 2,
         ModelParams(omega=30.0, j=10.0, q=0.5), 100),
    ], ids=["readme", "criterion-5", "hybrid"])
    def test_builder_calls_stay_near_the_coarse_grid(self, build, box, target,
                                                     base, limit):
        # counts the matrices built: the coarse lines in one call, then one
        # point per call
        sizes = []

        def counted(base, points):
            stack = build(base, points)
            sizes.append(len(stack))
            return stack

        assert find_ep(counted, box, target, base)
        assert sizes[0] == (65 if len(box) == 1 else 4 * 33)
        assert set(sizes[1:]) == {1}
        assert sum(sizes) <= limit

    @pytest.mark.parametrize("level", ["operator", "superoperator"])
    @pytest.mark.parametrize("target", [2, 3])
    def test_four_level_reports_agree_with_their_chains(self, level, target):
        # the README's find-ep box run as full4, whose gamma_sp sets
        # ||A||_2: every report's chains agree with its multiplicities
        gen = superop.generator("full4")
        build = gen.operators if level == "operator" else gen.matrices
        base = ModelParams(omega=30.0, j=10.0, q=1.0, gamma_sp=3.581e7)
        reps = find_ep(build, {"j": (15.0, 30.0)}, target, base)
        assert reps
        assert inconsistent_reports(reps) == []

    @pytest.mark.parametrize("name,level,params,box,want", [
        # the README box as full4: no pair at the box edge J = 15, whose
        # eigenvalues are 8.79 apart
        ("full4", "operators", dict(omega=30.0, j=10.0, q=1.0, gamma_sp=3.581e7),
         {"j": (15.0, 30.0)}, ("exceptional", (2,), -30j, 30.0 / math.sqrt(2.0))),
        # the README box at superoperator level: the pair EP at -omega, once,
        # and none of the doubles that persist over the whole box
        ("eff3", "matrices", dict(omega=30.0, j=10.0, q=1.0),
         {"j": (15.0, 30.0)}, ("hybrid", (2, 2), -30.0, 30.0 / math.sqrt(2.0))),
        # J*(0.5) = 10.086179: the hybrid EP moves through it at q = 0.5
        ("eff3", "matrices", dict(omega=30.0, j=10.086179),
         {"q": (0.2, 0.8)}, ("exceptional", (2,), -77.27413, 0.5)),
    ], ids=["full4-operator", "eff3-superoperator", "q-box"])
    def test_one_report_per_ep(self, name, level, params, box, want):
        kind, partition, value, location = want
        build = getattr(superop.generator(name), level)
        [rep] = find_ep(build, box, 2, ModelParams(**params))
        assert (rep.kind, rep.partition) == (kind, partition)
        assert abs(rep.cluster_value - value) < 1e-3
        [field] = box
        assert getattr(rep.params, field) == pytest.approx(location, abs=1e-4)

    def test_no_two_reports_share_a_basin(self):
        # the 2-D triple-point box at q = 0, target 3: several seeds' solves
        # converge to the same point, which is reported once
        j_tp, d_tp, _ = triple_point(30.0)
        box = {"j": (0.5 * j_tp, 1.5 * j_tp), "delta_rf": (0.0, 2.0 * d_tp)}
        reps = find_ep(superop.generator("eff3").matrices, box, 3,
                       ModelParams(omega=30.0, j=j_tp, delta_rf=d_tp, q=0.0))
        extent = np.array([hi - lo for lo, hi in box.values()])
        x = np.array([[r.params.j, r.params.delta_rf] for r in reps])
        near = (np.abs(x[:, None] - x) / extent).max(axis=2) < 1e-4
        assert reps and not near[np.triu_indices(len(x), 1)].any()

    def test_box_outside_the_model_domain_raises(self):
        # the corners are checked before any matrix is built: j must be
        # non-negative
        base = ModelParams(omega=30.0, j=20.0, q=0.0)
        with pytest.raises(ValueError, match="j must be non-negative"):
            find_ep(superop.generator("eff3").operators, {"j": (-5.0, 5.0)}, 2, base)

    def test_failed_coarse_point_is_named(self):
        # find-ep has no failures channel, so a coarse point whose eigensolve
        # raises stops the search and is named
        def build(base, points):
            stack = stacked(tuned)(base, points)
            stack[len(stack) // 2, 0, 0] = np.nan
            return stack

        base = ModelParams(omega=30.0, j=20.0, q=0.0)
        with pytest.raises(FloatingPointError,
                           match=r"coarse point \[22\.5\] failed: ValueError"):
            find_ep(build, {"j": (15.0, 30.0)}, 2, base)

    def test_empty_box_is_not_an_error(self):
        base = ModelParams(omega=30.0, j=20.0, delta_rf=14.0, q=0.0)
        reps = find_ep(DETUNED, {"j": (0.01, 60.0)}, 2, base)
        assert reps == []

    def test_degeneracy_over_the_whole_box_is_not_reported(self):
        # without optical drive delta_opt changes nothing and H_nh = 0 on the
        # whole box: a degeneracy present on the whole box has no turn and no
        # location, as with the persistent doubles of a sweep
        gen = superop.generator("eff3")
        base = ModelParams(omega=0.0, j=0.0, q=0.0)
        reps = find_ep(gen.operators, {"delta_opt": (-1.0, 1.0)}, 2, base)
        assert reps == []

    def test_box_validation(self):
        base = ModelParams(omega=30.0, j=20.0)
        with pytest.raises(ValueError):
            find_ep(stacked(tuned), {}, 2, base)
        with pytest.raises(ValueError):
            find_ep(stacked(tuned), {"j": (5.0, 5.0)}, 2, base)
        # a 3 x 3 matrix has no coalescence of 4 or more eigenvalues
        for target in (1, 4, 10 ** 18):
            with pytest.raises(ValueError, match="target_mult"):
                find_ep(stacked(tuned), {"j": (15.0, 30.0)}, target, base)


class TestGaussNewton:
    def test_stays_in_the_box_and_stops_on_its_bound(self):
        # the residual's zero, x = 2, lies outside [0, 1]: every evaluation,
        # the difference probe at the upper bound included, stays inside
        seen = []

        def fun(x):
            seen.append(float(x[0]))
            return (np.array([x[0] - 2.0, 0.0]),)

        x, (r,) = spectra._gauss_newton(fun, np.array([0.5]), np.array([0.0]),
                                        np.array([1.0]))
        assert x.tolist() == [1.0] and r.tolist() == [-1.0, 0.0]
        assert min(seen) >= 0.0 and max(seen) <= 1.0
        assert len(seen) < 10

    @pytest.mark.parametrize("size", [1, 2])
    def test_evaluations_stop_at_least_squares_default(self, size):
        # exp(-x) falls at every Gauss-Newton step and has no zero
        seen = []

        def fun(x):
            seen.append(x)
            return (np.exp(-x),)

        x, (r,) = spectra._gauss_newton(fun, np.zeros(size), np.zeros(size),
                                        np.full(size, 1e9))
        assert 99 * size <= len(seen) <= 100 * size
        assert np.array_equal(r, np.exp(-x)) and (x > 10.0).all()


class TestJumpCoupledEp:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(q=st.floats(0.01, 1.0), omega=st.floats(10.0, 50.0))
    def test_double_root_of_the_jump_coupled_cubic(self, q, omega):
        import scipy.optimize

        j = analytic.jump_coupled_ep(omega, q)
        phi, nu, discriminant = jump_cubic(omega, j, q)
        assert abs(discriminant) <= 1e-12 * (nu ** 2 + abs(phi) ** 3)
        want = scipy.optimize.brentq(lambda x: jump_cubic(omega, x, q)[2], 0.0,
                                     omega / math.sqrt(2.0), xtol=1e-14, rtol=1e-15)
        assert j == pytest.approx(want, rel=1e-10)
        # two of the three jump-coupled eigenvalues coalesce there
        lam = analytic.jump_coupled_three(omega, j, q)
        gaps = np.abs(lam[:, None] - lam[None, :])[np.triu_indices(3, 1)]
        assert gaps.min() <= 1e-6 * omega

    @pytest.mark.parametrize("q", [0.0, -0.5, 1.5])
    def test_q_outside_its_range_raises(self, q):
        with pytest.raises(ValueError, match="q must lie in"):
            analytic.jump_coupled_ep(30.0, q)


class TestAsymptotes:
    def test_zero_drive_is_exact(self):
        p = ModelParams(omega=30.0, j=1.0, delta_rf=4.62, q=0.0)
        assert asymptote_check("small_j", p, [0.0]) < 1e-12

    def test_large_drive_deviation_shrinks(self):
        p = ModelParams(omega=30.0, j=1.0, delta_rf=4.62, q=0.0)
        # deviation decays like Omega^2 / (2 sqrt(2) J)
        d1 = asymptote_check("large_j", p, [50 * 30.0])
        d2 = asymptote_check("large_j", p, [100 * 30.0])
        assert d2 < d1 < 0.3
        assert d2 < 0.6 * d1

    def test_resonant_branch_spacing(self):
        p = ModelParams(omega=30.0, j=1.0, delta_rf=0.0, q=0.0)
        assert asymptote_check("large_j", p, [1e4]) < 0.05

    def test_out_of_regime_warns(self):
        p = ModelParams(omega=30.0, j=1.0, delta_rf=4.62, q=0.0)
        with pytest.warns(UserWarning):
            asymptote_check("small_j", p, [2.0])


def trace_drift(states, rho0):
    """|Tr rho(t) - Tr rho0| per state, as validate's criterion 11 reads it."""
    return np.abs(np.trace(states, axis1=1, axis2=2) - np.trace(rho0))


class TestEvolveCheck:
    # full4 with gamma_sp / omega ~ 2e5
    STIFF = ModelParams(omega=34.8396, j=21.2861, q=1.0, gamma_sp=6373683.670053524,
                        delta_rf=13.4437, delta_opt=244542.0)
    STIFF_T_MAX = 0.118464

    def test_time_zero_is_identity(self, rng):
        p = ModelParams(omega=30.0, j=10.0, q=1.0)
        l = gm_liouvillian(p)
        rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
        states, route_diff = evolve_check(l, rho0, 0.1, 2)
        assert np.abs(states[0] - rho0).max() < 1e-12
        assert route_diff[0] < 1e-12

    def test_long_time_reaches_stationary_state(self):
        # J > Omega/sqrt(2) keeps every decaying mode fast (rate >= Omega/3)
        p = ModelParams(omega=30.0, j=25.0, q=1.0)
        l = gm_liouvillian(p)
        values, vecs = linalg.eig(l)
        k = int(np.argmin(np.abs(values)))
        stat = superop.devectorize(vecs[:, k])
        stat = stat / np.trace(stat)
        rho0 = np.eye(3) / 3.0
        states, _ = evolve_check(l, rho0, 50.0 / p.omega, 2)
        assert np.abs(states[-1] - stat).max() < 1e-6

    def test_trace_preserved_along_path(self):
        p = ModelParams(omega=30.0, j=10.0, q=1.0)
        l = gm_liouvillian(p)
        rho0 = np.diag([0.2, 0.5, 0.3]).astype(complex)
        states, _ = evolve_check(l, rho0, 5.0 / p.omega, 8)
        drift = trace_drift(states, rho0)
        assert drift.shape == (8,)
        assert drift.max() <= 1e-9

    def test_one_eigendecomposition_for_all_times(self, monkeypatch):
        p = ModelParams(omega=30.0, j=10.0, delta_rf=2.0, q=1.0)
        l = gm_liouvillian(p)
        rho0 = np.diag([0.2, 0.5, 0.3]).astype(complex)
        calls = []
        eig, expm = linalg.eig, linalg.expm
        monkeypatch.setattr(linalg, "eig", lambda a: calls.append("eig") or eig(a))
        monkeypatch.setattr(linalg, "expm", lambda a: calls.append("expm") or expm(a))
        _, route_diff = evolve_check(l, rho0, 5.0 / p.omega, 6)
        assert sorted(calls) == ["eig", "expm"] and route_diff.max() < 1e-10

    @pytest.mark.parametrize("p,t_max", [
        pytest.param(ModelParams(omega=30.0, j=20.0, delta_rf=5.0, delta_opt=300.0,
                                 gamma_sp=1e5, q=1.0), 5.0 / 30.0, id="gamma_sp_1e5"),
        pytest.param(STIFF, STIFF_T_MAX, id="stiff"),
    ])
    def test_ten_thousand_steps_follow_per_time_expm(self, p, t_max):
        # full4: 9,999 products with one propagator against scipy's expm at
        # every time
        import scipy.linalg

        l = superop.generator("full4").matrices(p)[0]
        rho0 = np.eye(4) / 4.0
        states, _ = evolve_check(l, rho0, t_max, 10_000)
        v0 = superop.vectorize(rho0).real
        want = np.array([superop.devectorize(scipy.linalg.expm(l * t) @ v0)
                         for t in np.linspace(0.0, t_max, 10_000)])
        assert np.abs(states - want).max() < 1e-10

    def test_defective_generator_keeps_only_the_expm_route(self):
        # qubit Gell-Mann generator moving the sigma_y component into the
        # sigma_x one: trace-preserving, and an exact Jordan block (l @ l = 0)
        l = np.zeros((4, 4))
        l[0, 1] = 1.0
        rho0 = np.array([[0.5, -0.25j], [0.25j, 0.5]])
        times = np.linspace(0.0, 2.0, 5)
        states, route_diff = evolve_check(l, rho0, 2.0, 5)
        assert np.isnan(route_diff).all()
        assert np.all(trace_drift(states, rho0) == 0.0)
        v0 = superop.vectorize(rho0)
        for t, rho in zip(times, states):
            want = superop.devectorize(v0 + t * (l @ v0))
            assert np.abs(rho - want).max() < 1e-15

    def test_rejects_hybrid_generator(self):
        p = ModelParams(omega=30.0, j=10.0, q=0.5)
        l = gm_liouvillian(p)
        with pytest.raises(ValueError, match="trace-preserving"):
            evolve_check(l, np.eye(3) / 3.0, 0.1, 2)

    def test_accepts_a_hybrid_generator_without_dissipation(self):
        # omega_r = gamma_g = 0 leaves no jump, so L(q) = -i[H, .] at every q
        # and preserves the trace: the check reads the generator, not q
        p = ModelParams(omega_r=0.0, j=10.0, delta_rf=3.0, q=0.5)
        l = superop.generator("eff3").matrices(p)[0]
        rho0 = np.diag([0.2, 0.5, 0.3])
        states, route_diff = evolve_check(l, rho0, 0.5, 4)
        assert trace_drift(states, rho0).max() <= 1e-12
        assert route_diff.max() < 1e-10

    def test_stiff_expm_route_matches_extended_precision(self):
        # the stepped route against a 40-digit mpmath.expm at t_max (it
        # agrees to about 6.5e-12, as scipy's expm at t_max does)
        import mpmath

        l = superop.generator("full4").matrices(self.STIFF)[0]
        rho0 = np.eye(4) / 4.0
        states, _ = evolve_check(l, rho0, self.STIFF_T_MAX, 4)
        with mpmath.workdps(40):
            e = mpmath.expm(mpmath.matrix(l.tolist()) * self.STIFF_T_MAX)
            v = e * mpmath.matrix(superop.vectorize(rho0).real.tolist())
            want = superop.devectorize(np.array(v.tolist(), dtype=float).ravel())
        assert np.abs(states[-1] - want).max() < 1e-10

    @pytest.mark.xfail(strict=True, reason=(
        "stiff full4 generator: the eigen-expansion route is off by 1.4e-8 "
        "(route_diff 1.39e-8 at t = 0.079, 1.37e-8 at t_max) while the "
        "stepped propagator is right to 6.5e-12 against mpmath; ROADMAP item 5"))
    def test_stiff_routes_agree(self):
        l = superop.generator("full4").matrices(self.STIFF)[0]
        _, route_diff = evolve_check(l, np.eye(4) / 4.0, self.STIFF_T_MAX, 4)
        assert route_diff.max() <= 1e-8

    def test_rejects_fewer_than_two_steps(self):
        l = gm_liouvillian(ModelParams(omega=30.0, j=10.0, q=1.0))
        with pytest.raises(ValueError, match="steps"):
            evolve_check(l, np.eye(3) / 3.0, 0.1, 1)

    def test_rejects_a_state_that_is_not_finite(self):
        l = gm_liouvillian(ModelParams(omega=30.0, j=10.0, q=1.0))
        rho0 = np.diag([0.5, 0.5, np.nan]).astype(complex)
        with pytest.raises(ValueError, match="finite"):
            evolve_check(l, rho0, 0.1, 2)

    def test_rejects_unphysical_state(self):
        p = ModelParams(omega=30.0, j=10.0, q=1.0)
        l = gm_liouvillian(p)
        with pytest.raises(ValueError):
            evolve_check(l, np.diag([0.7, 0.5, -0.2]).astype(complex), 0.1, 2)
        with pytest.raises(ValueError):
            evolve_check(l, np.diag([0.7, 0.5, 0.2]).astype(complex), 0.1, 2)
        with pytest.raises(ValueError, match="Hermitian"):
            evolve_check(l, np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]],
                                     dtype=complex), 0.1, 2)
