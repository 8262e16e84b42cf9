import math
import warnings

import numpy as np
import pytest

from lioup import analytic, linalg, model, spectra, superop
from lioup.model import ModelParams, build_eff3, h_nh_detuned, h_nh_tuned, triple_point
from lioup.spectra import (DAMPED_OSCILLATION, PURE_DECAY, PURE_OSCILLATION,
                           STATIONARY, UNSTABLE, classify, correspondence_check,
                           detect_degeneracy, evolve_check, find_ep,
                           match_distance, splittings, sweep)


def gm_liouvillian(p):
    return superop.hybrid_liouvillian(build_eff3(p), p.q, "gellmann")


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
        m = gm_liouvillian(p)
        ev = linalg.eigvals(m)
        spread = np.abs(ev - ev.mean()).max()
        _, reports = detect_degeneracy(m, tol_cluster=3 * spread)
        assert len(reports) == 1
        r = reports[0]
        assert r.algebraic_mult == 9
        assert r.geometric_mult == 3
        assert (r.order, r.partition) == (5, (5, 3, 1))
        assert r.kind == "hybrid"

    def test_diabolical_crossing(self):
        _, reports = detect_degeneracy(np.diag([1.0, 1.0, 2.0]).astype(complex))
        assert len(reports) == 1
        r = reports[0]
        assert r.kind == "diabolical"
        assert (r.algebraic_mult, r.geometric_mult, r.order) == (2, 2, 1)
        assert r.vector_overlap < 1e-4

    def test_ill_conditioned_clusters_are_flagged(self):
        m = np.diag([0.0, 1e-9, 1e-6, 1e-6 + 1e-9]).astype(complex)
        _, reports = detect_degeneracy(m, tol_cluster=6e-7)
        assert len(reports) == 2
        assert all("ill_conditioned_clustering" in r.flags for r in reports)

    def test_no_reports_for_separated_spectrum(self):
        assert detect_degeneracy(np.diag([1.0, 2.0, 4.0]).astype(complex))[1] == []


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


class TestSweep:
    def test_bifurcation_at_critical_drive(self):
        omega = 30.0
        base = ModelParams(omega=omega, j=20.0, q=0.0)
        j_star = omega / np.sqrt(2.0)
        res = sweep(lambda p: h_nh_tuned(p.omega, p.j), "j",
                    np.sort(np.append(np.linspace(15.0, 25.0, 100), j_star)), base)
        below = res.grid < j_star - 0.2
        above = res.grid > j_star + 0.2
        spread_re = np.ptp(res.branches.real, axis=0)
        assert spread_re[below].max() < 1e-8
        assert spread_re[above].min() > 1.0
        assert [res.grid[i] for i in res.ep_candidates] == [j_star]

    def test_columns_are_permutations_of_spectra(self):
        base = ModelParams(omega=30.0, j=10.0, q=0.5)
        grid = np.linspace(5.0, 40.0, 36)
        res = sweep(gm_liouvillian, "j", grid, base)
        for k in (0, 17, 35):
            ev = linalg.eigvals(gm_liouvillian(base.replace(j=float(grid[k]))))
            assert match_distance(res.branches[:, k], ev) < 1e-9

    def test_no_ninefold_degeneracy_with_jumps_at_triple_point(self):
        omega = 30.0
        _, d, _ = triple_point(omega)
        base = ModelParams(omega=omega, j=20.0, delta_rf=d, q=1.0)
        res = sweep(gm_liouvillian, "j", np.linspace(10.0, 40.0, 61), base)
        for k in range(61):
            ev = res.branches[:, k]
            diam = spectra.spectral_diameter(ev)
            groups = spectra._single_linkage(ev, 1e-3 * diam)
            assert max(len(g) for g in groups) < 9

    def test_no_candidates_without_degeneracies(self):
        base = ModelParams(omega=30.0, j=10.0, delta_rf=14.0, q=0.0)
        res = sweep(lambda p: h_nh_detuned(p.omega, p.j, p.delta_rf), "j",
                    np.linspace(0.5, 60.0, 120), base)
        assert res.ep_candidates == ()

    def test_builder_failure_is_recorded(self):
        base = ModelParams(omega=30.0, j=10.0, q=0.0)

        def builder(p):
            if 18.5 < p.j < 20.5:
                raise RuntimeError("synthetic failure")
            return h_nh_tuned(p.omega, p.j)

        res = sweep(builder, "j", np.linspace(15.0, 25.0, 11), base)
        assert len(res.failures) == 2
        bad = [i for i, _ in res.failures]
        assert np.isnan(res.branches[:, bad]).all()
        good = [i for i in range(11) if i not in bad]
        assert np.isfinite(res.branches[:, good]).all()

    def test_eigensolve_failure_is_recorded_at_its_grid_index(self):
        # a non-finite matrix makes the batched solve raise; the per-matrix
        # fallback still attributes the failure to its own grid point
        base = ModelParams(omega=30.0, j=10.0, q=0.0)

        def builder(p):
            h = h_nh_tuned(p.omega, p.j)
            if 19.5 < p.j < 20.5:
                h[0, 0] = np.nan
            return h

        res = sweep(builder, "j", np.linspace(15.0, 25.0, 11), base)
        assert [i for i, _ in res.failures] == [5]
        assert res.failures[0][1].startswith("ValueError")
        assert np.isnan(res.branches[:, 5]).all()
        assert np.isfinite(np.delete(res.branches, 5, axis=1)).all()

    def test_complex_matrices_after_real_ones_keep_their_imaginary_parts(self):
        base = ModelParams(omega=30.0, j=10.0, q=0.0)

        def builder(p):
            # real up to j = 20, then a matrix with imaginary eigenvalues
            if p.j <= 20.0:
                return np.diag([p.j, 2.0 * p.j])
            return np.diag([p.j + 1j * p.j, 2.0 * p.j - 1j])

        res = sweep(builder, "j", np.linspace(15.0, 25.0, 11), base)
        assert res.failures == ()
        want = [np.sort_complex(linalg.eigvals(builder(base.replace(j=float(x)))))
                for x in res.grid]
        got = [np.sort_complex(res.branches[:, k]) for k in range(11)]
        assert np.array_equal(np.array(got), np.array(want))
        assert np.abs(res.branches[:, 6:].imag).min() >= 1.0

    def test_persistent_doubles_are_not_candidates(self):
        # the Gell-Mann superoperator keeps two exact doubles at every j;
        # only the point with a coalescence on top of them is flagged
        base = ModelParams(omega=30.0, j=10.0, q=0.5)
        res = sweep(superop.generator("eff3").matrix, "j",
                    np.linspace(15.0, 25.0, 201), base)
        assert res.ep_candidates == (100,)
        ev = res.branches[:, 100]
        assert np.count_nonzero(np.abs(ev + 20.0) < 1e-5) == 3

    def test_close_pair_counts_match_all_pairs(self, rng):
        values = rng.normal(size=(50, 9)) + 1j * rng.normal(size=(50, 9))
        values[::7, 3] = values[::7, 5] + 1e-9
        values[::5, :3] = values[::5, 8:9]
        diam = max(spectra.spectral_diameter(v) for v in values)
        tol = 10.0 * spectra.TOL_CLUSTER_REL * diam
        want = [int(np.count_nonzero(np.triu(np.abs(v[:, None] - v[None, :])
                                             < tol, 1))) for v in values]
        assert spectra._close_pairs(values).tolist() == want

    def test_rejects_unsorted_grid(self):
        base = ModelParams(omega=30.0, j=10.0)
        with pytest.raises(ValueError):
            sweep(lambda p: h_nh_tuned(p.omega, p.j), "j", [3.0, 2.0], base)


class TestFindEp:
    def test_two_pair_coalescences_inside_the_critical_detuning(self):
        base = ModelParams(omega=30.0, j=20.0, delta_rf=4.62, q=0.0)
        reps = find_ep(lambda p: h_nh_detuned(p.omega, p.j, p.delta_rf),
                       {"j": (0.01, 60.0)}, 2, base)
        js = sorted(r.params.j for r in reps)
        assert len(js) == 2
        # frozen from the discriminant of the real characteristic cubic
        assert js[0] == pytest.approx(15.9647597596, abs=1e-4)
        assert js[1] == pytest.approx(21.4694723643, abs=1e-4)

    def test_triple_point_certification_survives_default_tolerance_change(
            self, monkeypatch):
        # certification uses an adaptive clustering radius, so scaling the
        # default relative tolerance by 1e-3 must not change the outcome
        base = ModelParams(omega=30.0, j=23.0, delta_rf=11.0, q=0.0)
        box = {"j": (20.0, 26.0), "delta_rf": (9.0, 14.0)}
        builder = lambda p: h_nh_detuned(p.omega, p.j, -p.delta_rf)
        monkeypatch.setattr(spectra, "TOL_CLUSTER_REL",
                            spectra.TOL_CLUSTER_REL * 1e-3)
        reps = find_ep(builder, box, 3, base)
        assert len(reps) == 1
        assert reps[0].algebraic_mult == 3 and reps[0].geometric_mult == 1
        assert abs(reps[0].cluster_value + 20j) < 1e-6

    def test_empty_box_is_not_an_error(self):
        base = ModelParams(omega=30.0, j=20.0, delta_rf=14.0, q=0.0)
        reps = find_ep(lambda p: h_nh_detuned(p.omega, p.j, p.delta_rf),
                       {"j": (0.01, 60.0)}, 2, base)
        assert reps == []

    def test_box_validation(self):
        base = ModelParams(omega=30.0, j=20.0)
        with pytest.raises(ValueError):
            find_ep(lambda p: h_nh_tuned(p.omega, p.j), {}, 2, base)
        with pytest.raises(ValueError):
            find_ep(lambda p: h_nh_tuned(p.omega, p.j), {"j": (5.0, 5.0)}, 2, base)


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


class TestEvolveCheck:
    def test_time_zero_is_identity(self, rng):
        p = ModelParams(omega=30.0, j=10.0, q=1.0)
        l = gm_liouvillian(p)
        rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
        res = evolve_check(l, rho0, [0.0])
        assert np.abs(res.rho_expm[0] - rho0).max() < 1e-12
        assert res.max_diff[0] < 1e-12

    def test_long_time_reaches_stationary_state(self):
        # J > Omega/sqrt(2) keeps every decaying mode fast (rate >= Omega/3)
        p = ModelParams(omega=30.0, j=25.0, q=1.0)
        l = gm_liouvillian(p)
        dec = linalg.eig(l)
        k = int(np.argmin(np.abs(dec.values)))
        stat = superop.devectorize(dec.right_vectors[:, k], superop.GELLMANN)
        stat = stat / np.trace(stat)
        rho0 = np.eye(3) / 3.0
        res = evolve_check(l, rho0, [50.0 / p.omega])
        assert np.abs(res.rho_expm[0] - stat).max() < 1e-6

    def test_trace_preserved_along_path(self):
        p = ModelParams(omega=30.0, j=10.0, q=1.0)
        l = gm_liouvillian(p)
        rho0 = np.diag([0.2, 0.5, 0.3]).astype(complex)
        res = evolve_check(l, rho0, np.linspace(0.0, 5.0 / p.omega, 8))
        assert res.trace_drift.shape == (8,)
        assert res.trace_drift.max() <= 1e-9

    def test_one_eigendecomposition_for_all_times(self, monkeypatch):
        p = ModelParams(omega=30.0, j=10.0, delta_rf=2.0, q=1.0)
        l = gm_liouvillian(p)
        rho0 = np.diag([0.2, 0.5, 0.3]).astype(complex)
        times = np.linspace(0.0, 5.0 / p.omega, 6)
        calls = []
        eig = linalg.eig
        monkeypatch.setattr(linalg, "eig", lambda a: calls.append(1) or eig(a))
        res = evolve_check(l, rho0, times)
        assert len(calls) == 1 and res.max_diff.max() < 1e-10
        # each time carries the bits of a call at that time alone
        for k, t in enumerate(times):
            one = evolve_check(l, rho0, [t])
            assert np.array_equal(one.rho_expm[0], res.rho_expm[k])
            assert np.array_equal(one.rho_eig[0], res.rho_eig[k])
            assert one.max_diff[0] == res.max_diff[k]

    def test_rejects_hybrid_generator(self):
        p = ModelParams(omega=30.0, j=10.0, q=0.5)
        l = gm_liouvillian(p)
        with pytest.raises(ValueError, match="trace-preserving"):
            evolve_check(l, np.eye(3) / 3.0, [0.1])

    def test_accepts_a_hybrid_generator_without_dissipation(self):
        # omega_r = gamma_g = 0 leaves no jump, so L(q) = -i[H, .] at every q
        # and preserves the trace: the check reads the generator, not q
        p = ModelParams(omega_r=0.0, j=10.0, delta_rf=3.0, q=0.5)
        l = superop.generator("eff3").matrix(p)
        res = evolve_check(l, np.diag([0.2, 0.5, 0.3]), np.linspace(0.0, 0.5, 4))
        assert res.trace_drift.max() <= 1e-12
        assert res.max_diff.max() < 1e-10

    def test_rejects_times_that_are_not_1d(self):
        l = gm_liouvillian(ModelParams(omega=30.0, j=10.0, q=1.0))
        with pytest.raises(ValueError, match="1-D"):
            evolve_check(l, np.eye(3) / 3.0, 0.1)

    def test_rejects_a_state_that_is_not_finite(self):
        l = gm_liouvillian(ModelParams(omega=30.0, j=10.0, q=1.0))
        rho0 = np.diag([0.5, 0.5, np.nan]).astype(complex)
        with pytest.raises(ValueError, match="finite"):
            evolve_check(l, rho0, [0.1])

    def test_rejects_unphysical_state(self):
        p = ModelParams(omega=30.0, j=10.0, q=1.0)
        l = gm_liouvillian(p)
        with pytest.raises(ValueError):
            evolve_check(l, np.diag([0.7, 0.5, -0.2]).astype(complex), [0.1])
        with pytest.raises(ValueError):
            evolve_check(l, np.diag([0.7, 0.5, 0.2]).astype(complex), [0.1])
