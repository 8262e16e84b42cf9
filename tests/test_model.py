import math

import numpy as np
import pytest

from lioup import linalg, model, spectra, superop
from lioup.model import (GAMMA_D2, LindbladSystem, ModelParams,
                         build_eff3, build_full4_rwa, build_ground_relaxation,
                         build_spont_jumps, h_nh_detuned, h_nh_tuned,
                         reduce_effective, triple_point, triple_point_eigenvector)


def build_grwa_generator(omega_rf, omega_laser):
    """Diagonal generator diag(w_RF, 0, -w_RF, w) of the generalized RWA frame."""
    return np.diag([omega_rf, 0.0, -omega_rf, omega_laser]).astype(complex)


def build_full4_time_dep(p, omega_L, omega_laser, omega_0):
    """Lab-frame four-level Hamiltonian as a callable of time.

    The oscillating couplings carry twice the rotating-frame J and Omega_R of
    `p`.  The RF frequency is omega_L + p.delta_rf; the caller keeps
    omega_laser - omega_0 consistent with p.delta_opt.
    """
    omega_rf = omega_L + p.delta_rf
    jbar, orbar = 2.0 * p.j, 2.0 * p.omega_r

    def h_t(t):
        c = math.cos(omega_rf * t)
        oc = orbar * math.cos(omega_laser * t)
        return np.array([
            [omega_L, jbar * c, 0, 0],
            [jbar * c, 0, jbar * c, -oc],
            [0, jbar * c, -omega_L, 0],
            [0, -oc, 0, omega_0],
        ], dtype=complex)

    return h_t


def gamma_lambda_forms(sys):
    """(Gamma, apply_Lambda) with Gamma = sum L^dag L and
    apply_Lambda(rho) = sum L rho L^dag, so that
    drho/dt = -i[H, rho] - {Gamma, rho}/2 + Lambda(rho)."""
    ops = sys.jumps
    gamma_op = sum((op.conj().T @ op for op in ops),
                   np.zeros((sys.dim, sys.dim), dtype=complex))

    def apply_lambda(rho):
        rho = np.asarray(rho, dtype=complex)
        out = np.zeros_like(rho)
        for op in ops:
            out += op @ rho @ op.conj().T
        return out

    return gamma_op, apply_lambda


def h_nh_with_relax(omega, j, gamma_g):
    """Resonant NHH with isotropic ground relaxation added, -i*gamma/2 shift."""
    return h_nh_tuned(omega, j) - 0.5j * gamma_g * np.eye(3)


class TestModelParams:
    def test_derives_reduced_rabi(self):
        p = ModelParams(omega_r=100.0, j=1.0, gamma_sp=50.0)
        assert p.omega == pytest.approx(200.0)

    def test_derives_optical_rabi(self):
        p = ModelParams(omega=30.0, j=1.0)
        assert p.omega_r == pytest.approx(math.sqrt(30.0 * GAMMA_D2))

    def test_rejects_inconsistent_pair(self):
        with pytest.raises(ValueError):
            ModelParams(omega=30.0, omega_r=1.0, j=0.0, gamma_sp=10.0)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            ModelParams(omega=1.0, j=-1.0)
        with pytest.raises(ValueError):
            ModelParams(omega=1.0, j=0.0, q=1.5)
        with pytest.raises(ValueError):
            ModelParams(omega=1.0, j=0.0, gamma_sp=0.0)
        with pytest.raises(ValueError):
            ModelParams(j=0.0)

    def test_replace_keeps_link(self):
        p = ModelParams(omega=30.0, j=1.0)
        p2 = p.replace(omega=40.0)
        assert p2.omega_r == pytest.approx(math.sqrt(40.0 * GAMMA_D2))
        p3 = p.replace(j=5.0)
        assert p3.omega == p.omega and p3.omega_r == p.omega_r
        # omega given with a new gamma_sp: omega_r follows both
        p4 = p.replace(gamma_sp=1e6, omega=40.0)
        assert p4.omega == 40.0
        assert p4.omega_r == pytest.approx(math.sqrt(40.0 * 1e6))


class TestTimeDependentBuilder:
    def test_decoupled_limit(self):
        p = ModelParams(omega_r=0.0, j=0.0, gamma_sp=100.0)
        h = build_full4_time_dep(p, omega_L=7.0, omega_laser=40.0, omega_0=40.0)(0.0)
        assert np.allclose(h, np.diag([7.0, 0.0, -7.0, 40.0]))

    def test_optical_coupling_entry(self):
        p = ModelParams(omega_r=3.0, j=2.0, gamma_sp=100.0)
        h0 = build_full4_time_dep(p, omega_L=5e4, omega_laser=9e4, omega_0=9e4)(0.0)
        # the lab-frame coupling is the bare optical Rabi frequency, twice
        # the rotating-frame value stored in the parameters
        assert h0[1, 3] == pytest.approx(-2.0 * p.omega_r)
        assert h0[3, 1] == pytest.approx(-2.0 * p.omega_r)

    def test_time_average_reproduces_rotating_frame(self):
        p = ModelParams(omega_r=3.0, j=2.0, delta_rf=0.1, delta_opt=0.2,
                        gamma_sp=100.0)
        omega_l = 3.7e4
        omega_0 = 1.29e5
        omega_laser = omega_0 + p.delta_opt
        omega_rf = omega_l + p.delta_rf
        h_t = build_full4_time_dep(p, omega_l, omega_laser, omega_0)
        g = build_grwa_generator(omega_rf, omega_laser)
        phases = np.diag(g).real

        t_grid = np.linspace(0.0, 0.06, 25001)
        acc = np.zeros((4, 4), dtype=complex)
        for t in t_grid:
            u = np.diag(np.exp(-1j * phases * t))
            acc += u.conj().T @ h_t(t) @ u - g
        avg = acc / t_grid.size

        target = build_full4_rwa(p).hamiltonian
        scale = np.abs(target).max()
        assert np.abs(avg - target).max() <= 1e-3 * scale


class TestGrwaGenerator:
    def test_display(self):
        assert np.allclose(build_grwa_generator(1.0, 5.0), np.diag([1, 0, -1, 5]))

    def test_zero(self):
        assert np.abs(build_grwa_generator(0.0, 0.0)).max() == 0.0

    def test_exponential_phases(self):
        g = build_grwa_generator(3.0, 11.0)
        t = 0.37
        u = linalg.expm(-1j * g * t)
        want = np.diag([np.exp(-3j * t), 1.0, np.exp(3j * t), np.exp(-11j * t)])
        assert np.abs(u - want).max() < 1e-12


class TestSpontaneousJumps:
    def test_explicit_form_matrices(self):
        gamma = 17.0
        amp = 1j * math.sqrt(gamma / 3.0)
        ops = build_spont_jumps(1, 0, gamma)
        # eps = +1, 0, -1 populate the ground states -eps = |1,-1>, |1,0>, |1,1>
        for op, row in zip(ops, (2, 1, 0)):
            want = np.zeros((4, 4), dtype=complex)
            want[row, 3] = amp
            assert np.abs(op - want).max() < 1e-14

    def test_generic_form_matches_up_to_phase(self):
        generic = build_spont_jumps(1, 0, 4.0, convention="generic")
        explicit = build_spont_jumps(1, 0, 4.0, convention="explicit")
        for op in generic:
            # each generic operator equals some explicit operator up to a
            # global phase (the sets are relabelled eps -> -eps)
            best = min(np.abs(np.abs(op) - np.abs(a)).max() for a in explicit)
            assert best < 1e-14

    def test_phase_convention_does_not_affect_physics(self):
        for conv in ("explicit", "generic"):
            ops = build_spont_jumps(1, 1, 2.0, convention=conv)
            gamma_op = sum(op.conj().T @ op for op in ops)
            rho = np.diag([0.1, 0.2, 0.3, 0.15, 0.15, 0.1]).astype(complex)
            repop = sum(op @ rho @ op.conj().T for op in ops)
            if conv == "explicit":
                gamma_ref, repop_ref = gamma_op, repop
            else:
                assert np.abs(gamma_op - gamma_ref).max() < 1e-14
                assert np.abs(repop - repop_ref).max() < 1e-14

    @pytest.mark.parametrize("tf,tF", [(2, 0), (2, 2), (2, 4), (4, 2),
                                       (4, 4), (3, 1), (1, 3), (3, 3)])
    def test_total_decay_is_isotropic_on_excited_manifold(self, tf, tF):
        from lioup.angular import HalfInteger
        f, F = HalfInteger(tf), HalfInteger(tF)
        gamma = 5.0
        ops = build_spont_jumps(f, F, gamma)
        total = sum(op.conj().T @ op for op in ops)
        ng, ne = tf + 1, tF + 1
        want = np.zeros((ng + ne, ng + ne), dtype=complex)
        want[ng:, ng:] = gamma / (tF + 1) * np.eye(ne)
        assert np.abs(total - want).max() < 1e-12

    def test_projection_selection_rule(self):
        ops = build_spont_jumps(1, 2, 1.0, convention="generic")
        for eps, op in zip((1, 0, -1), ops):
            for i, m in enumerate((1, 0, -1)):
                for k, bigm in enumerate((2, 1, 0, -1, -2)):
                    if -m + eps + bigm != 0:
                        assert op[i, 3 + k] == 0.0

    def test_forbidden_transition(self):
        with pytest.raises(ValueError):
            build_spont_jumps(1, 3, 1.0)

    def test_returned_arrays_cannot_corrupt_the_cache(self):
        first = build_spont_jumps(1, 0, 4.0)
        want = [op.copy() for op in first]
        with pytest.raises(ValueError):
            first[0][2, 3] = 99.0
        with pytest.raises(ValueError):
            first[1] *= 2.0
        for op, ref in zip(build_spont_jumps(1, 0, 4.0), want):
            assert np.array_equal(op, ref)
        # the cached unit-rate operators are scaled by sqrt(gamma_sp)
        for op, unit in zip(first, build_spont_jumps(1, 0, 1.0)):
            assert np.array_equal(op, 2.0 * unit)


class TestFullFourLevel:
    def test_hamiltonian_display(self):
        p = ModelParams(omega_r=4.0, j=3.0, delta_rf=2.0, delta_opt=1.0,
                        gamma_sp=100.0)
        h = build_full4_rwa(p).hamiltonian
        want = np.array([
            [-2.0, 3.0, 0.0, 0.0],
            [3.0, 0.0, 3.0, -4.0],
            [0.0, 3.0, 2.0, 0.0],
            [0.0, -4.0, 0.0, -1.0],
        ])
        assert np.abs(h - want).max() < 1e-14

    def test_pure_optical_coupling_limit(self):
        p = ModelParams(omega_r=4.0, j=0.0, gamma_sp=100.0)
        h = build_full4_rwa(p).hamiltonian
        want = np.zeros((4, 4))
        want[1, 3] = want[3, 1] = -4.0
        assert np.abs(h - want).max() < 1e-14

    def test_total_spontaneous_decay(self):
        p = ModelParams(omega_r=4.0, j=1.0, gamma_sp=9.0)
        sys4 = build_full4_rwa(p)
        total = sum(op.conj().T @ op for op in sys4.jumps)
        want = np.zeros((4, 4))
        want[3, 3] = 9.0
        assert np.abs(total - want).max() < 1e-12

    def test_ground_relaxation_included(self):
        p = ModelParams(omega_r=4.0, j=1.0, gamma_sp=9.0, gamma_g=0.3)
        sys4 = build_full4_rwa(p)
        assert len(sys4.jumps) == 3 + 9

    def test_hermitian_tag_enforced(self):
        with pytest.raises(ValueError):
            LindbladSystem(dim=2, hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_jump_shape_error_names_its_index(self):
        with pytest.raises(ValueError, match="jump 1 has wrong shape"):
            LindbladSystem(dim=2, hamiltonian=np.eye(2), jumps=(np.eye(2), np.eye(3)))

    def test_jumps_in_documented_order(self):
        p = ModelParams(omega_r=4.0, j=1.0, gamma_sp=100.0, gamma_g=0.3)
        spont = build_spont_jumps(1, 0, p.gamma_sp)
        ground = build_ground_relaxation(p.gamma_g)
        sys4, sys3 = build_full4_rwa(p), build_eff3(p)
        assert len(sys4.jumps) == len(sys3.jumps) == 12
        assert all(np.array_equal(a, b) for a, b in zip(sys4.jumps[:3], spont))
        assert all(np.array_equal(a[:3, :3], b) for a, b in zip(sys4.jumps[3:], ground))
        assert all(np.array_equal(a, b) for a, b in zip(sys3.jumps[3:], ground))


class TestEffectiveReduction:
    def test_resonant_nhh_display(self):
        p = ModelParams(omega=30.0, j=10.0)
        red = reduce_effective(build_full4_rwa(p), p)
        assert np.abs(red.h_nh() - h_nh_tuned(30.0, 10.0)).max() < 1e-9
        got = superop.generator("eff3").operator(p)
        assert np.abs(got - h_nh_tuned(30.0, 10.0)).max() < 1e-9

    def test_effective_jump_magnitude(self):
        p = ModelParams(omega=30.0, j=10.0)
        red = reduce_effective(build_full4_rwa(p), p)
        amp = 2.0 * p.omega_r / math.sqrt(3.0 * p.gamma_sp)
        for op in red.jumps:
            nz = np.abs(op)[np.abs(op) > 0]
            assert nz.size == 1
            assert abs(nz[0] - amp) < 1e-12 * amp

    def test_total_effective_decay_with_detuning(self):
        p = ModelParams(omega_r=7.0, j=2.0, delta_opt=5.0, gamma_sp=40.0)
        red = reduce_effective(build_full4_rwa(p), p)
        total = sum(op.conj().T @ op for op in red.jumps)
        coeff = 4.0 * p.omega_r ** 2 * p.gamma_sp / (p.gamma_sp ** 2 + 4 * p.delta_opt ** 2)
        want = np.zeros((3, 3))
        want[1, 1] = coeff
        assert np.abs(total - want).max() < 1e-12 * coeff

    def test_h_eff_hermitian_and_nhh_consistent(self, rng):
        for _ in range(10):
            p = ModelParams(omega_r=float(rng.uniform(1, 10)),
                            j=float(rng.uniform(0, 5)),
                            delta_rf=float(rng.uniform(-3, 3)),
                            delta_opt=float(rng.uniform(-10, 10)),
                            gamma_sp=float(rng.uniform(50, 500)))
            red = reduce_effective(build_full4_rwa(p), p)
            scale = max(np.linalg.norm(red.hamiltonian), 1.0)
            assert np.linalg.norm(red.hamiltonian - red.hamiltonian.conj().T) <= 1e-12 * scale
            anti = red.h_nh() - red.h_nh().conj().T
            total = sum(op.conj().T @ op for op in red.jumps)
            assert np.abs(anti + 1j * total).max() < 1e-12 * scale

    def test_warns_outside_fast_decay_regime(self):
        p = ModelParams(omega_r=3.0, j=30.0, gamma_sp=10.0)
        with pytest.warns(UserWarning):
            reduce_effective(build_full4_rwa(p), p)


class TestGroundRelaxation:
    def test_relaxation_operator_is_isotropic(self):
        gamma = 0.9
        ops = build_ground_relaxation(gamma)
        total = sum(op.conj().T @ op for op in ops)
        assert np.abs(total - gamma * np.eye(3)).max() < 1e-14

    def test_repopulation_is_uniform(self, rng):
        gamma = 0.9
        sys3 = LindbladSystem(
            dim=3, hamiltonian=np.zeros((3, 3)),
            jumps=tuple(build_ground_relaxation(gamma)))
        gamma_op, apply_lambda = gamma_lambda_forms(sys3)
        assert np.abs(gamma_op - gamma * np.eye(3)).max() < 1e-14
        for _ in range(5):
            r = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = r + r.conj().T
            want = gamma / 3.0 * np.trace(rho) * np.eye(3)
            assert np.abs(apply_lambda(rho) - want).max() < 1e-12

    def test_relaxed_nhh_display(self):
        p = ModelParams(omega=30.0, j=10.0, gamma_g=0.4)
        got = build_eff3(p).h_nh()
        assert np.abs(got - h_nh_with_relax(30.0, 10.0, 0.4)).max() < 1e-9

    def test_operator_spectrum_shifts_uniformly(self):
        omega, j, gamma = 30.0, 10.0, 0.4
        shifted = linalg.eigvals(h_nh_with_relax(omega, j, gamma))
        base = linalg.eigvals(h_nh_tuned(omega, j)) - 0.5j * gamma
        assert spectra.match_distance(shifted, base) < 1e-12


class TestMasterEquationForms:
    def test_no_jumps(self):
        sys0 = LindbladSystem(dim=2, hamiltonian=np.eye(2))
        gamma_op, apply_lambda = gamma_lambda_forms(sys0)
        assert np.abs(gamma_op).max() == 0.0
        assert np.abs(apply_lambda(np.eye(2))).max() == 0.0

    def test_two_forms_agree(self, rng):
        p = ModelParams(omega=30.0, j=10.0, delta_rf=2.0, gamma_g=0.3)
        sys3 = build_eff3(p)
        gamma_op, apply_lambda = gamma_lambda_forms(sys3)
        h = sys3.hamiltonian
        for _ in range(20):
            r = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = r + r.conj().T
            jump_form = -1j * (h @ rho - rho @ h)
            for op in sys3.jumps:
                ll = op.conj().T @ op
                jump_form += op @ rho @ op.conj().T - 0.5 * (ll @ rho + rho @ ll)
            split_form = (-1j * (h @ rho - rho @ h)
                          - 0.5 * (gamma_op @ rho + rho @ gamma_op)
                          + apply_lambda(rho))
            assert np.abs(jump_form - split_form).max() < 1e-12


class TestDetunedOperator:
    def test_delta_sign_symmetry(self):
        omega, j, d = 30.0, 17.0, 6.5
        assert spectra.match_distance(
            linalg.eigvals(h_nh_detuned(omega, j, d)),
            linalg.eigvals(h_nh_detuned(omega, j, -d))) < 1e-12

    def test_reduction_matches_mirrored_display(self):
        p = ModelParams(omega=30.0, j=17.0, delta_rf=6.5)
        got = build_eff3(p).h_nh()
        assert np.abs(got - h_nh_detuned(30.0, 17.0, -6.5)).max() < 1e-9

    def test_block_diagonal_at_zero_drive(self):
        omega, d = 30.0, 5.0
        ev = linalg.eigvals(h_nh_detuned(omega, 0.0, d))
        assert spectra.match_distance(ev, np.array([d, -d, -2j * omega])) < 1e-12

    def test_triple_point_eigenvector(self):
        omega = 30.0
        j, d, e_tp = triple_point(omega)
        h = h_nh_detuned(omega, j, -d)  # reduction sign convention at +d
        _, _, vh = np.linalg.svd(h - e_tp * np.eye(3))
        fid = abs(np.vdot(vh[-1].conj(), triple_point_eigenvector()))
        assert fid >= 1 - 1e-6
