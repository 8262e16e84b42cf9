import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lioup import analytic, linalg, model, spectra, superop
from lioup.model import LindbladSystem, ModelParams, build_eff3, build_ground_relaxation
from lioup.superop import (BasisTag, FOCKLIOUVILLE, GELLMANN, devectorize,
                           fock_liouville, gamma_superop, gellmann_basis,
                           h_superop, hybrid_liouvillian, isotropic_extension,
                           lambda_superop, matrix_from_json, matrix_to_json,
                           nhh_superop, vectorize)

from conftest import find_signed_permutation, reference_hybrid_matrix

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.diag([1.0, -1.0]).astype(complex),
}


def random_system(rng, d, n_jumps, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = scale * (a + a.conj().T)
    jumps = tuple((f"l{k}",
                   scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))))
                  for k in range(n_jumps))
    return LindbladSystem(dim=d, hamiltonian=h, jumps=jumps)


def apply_hybrid(sys, q, rho):
    h_nh = sys.h_nh()
    out = -1j * (h_nh @ rho - rho @ h_nh.conj().T)
    for op in sys.jump_ops():
        out += q * op @ rho @ op.conj().T
    return out


class TestGellMannBasis:
    def test_d2_is_the_pauli_set(self):
        mats = gellmann_basis(2).matrices
        assert np.abs(mats[0] - PAULI["x"]).max() < 1e-15
        assert np.abs(mats[1] - PAULI["y"]).max() < 1e-15
        assert np.abs(mats[2] - PAULI["z"]).max() < 1e-15
        assert np.abs(mats[3] - np.eye(2)).max() < 1e-15

    def test_d3_contains_standard_set(self):
        mats = gellmann_basis(3).matrices
        lam8 = np.diag([1.0, 1.0, -2.0]) / math.sqrt(3.0)
        found = min(np.abs(m - lam8).max() for m in mats)
        assert found < 1e-15
        assert np.abs(mats[-1] - math.sqrt(2.0 / 3.0) * np.eye(3)).max() < 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_trace_orthogonality_and_hermiticity(self, d):
        mats = gellmann_basis(d).matrices
        gram = np.einsum("iab,jba->ij", mats, mats)
        assert np.abs(gram - 2.0 * np.eye(d * d)).max() < 1e-12
        for m in mats:
            assert np.abs(m - m.conj().T).max() < 1e-15

    def test_completeness(self, rng):
        gm = gellmann_basis(3)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = a + a.conj().T
        rebuilt = devectorize(vectorize(h, gm), gm)
        assert np.abs(rebuilt - h).max() < 1e-12


class TestVectorize:
    def test_maximally_mixed_has_only_identity_component(self):
        gm = gellmann_basis(3)
        v = vectorize(np.eye(3) / 3.0, gm)
        assert np.abs(v[:-1]).max() < 1e-15
        assert v[-1] == pytest.approx(1.0 / math.sqrt(6.0))

    def test_column_stacking_convention(self):
        tag = BasisTag(FOCKLIOUVILLE, 2)
        rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        assert np.array_equal(vectorize(rho, tag), [1, 0, 0, 0])
        rho01 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        # entry rho_01 lands at index 0 + 2*1
        assert np.array_equal(vectorize(rho01, tag), [0, 0, 1, 0])

    @pytest.mark.parametrize("kind", [GELLMANN, FOCKLIOUVILLE])
    def test_round_trip(self, rng, kind):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            basis = gellmann_basis(d) if kind == GELLMANN else BasisTag(kind, d)
            rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            assert np.abs(devectorize(vectorize(rho, basis), basis) - rho).max() < 1e-13

    def test_gellmann_components_of_hermitian_are_real(self, rng):
        gm = gellmann_basis(4)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        v = vectorize(a + a.conj().T, gm)
        assert np.abs(v.imag).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vectorize(np.eye(3), gellmann_basis(2))


class TestHamiltonianPart:
    def test_pauli_z_generator(self):
        gm = gellmann_basis(2)
        m = h_superop(PAULI["z"] / 2.0, gm)
        want = np.zeros((4, 4), dtype=complex)
        want[1, 0] = 1j  # mixes the x and y components
        want[0, 1] = -1j
        assert np.abs(m - want).max() < 1e-14

    def test_identity_commutes(self):
        assert np.abs(h_superop(np.eye(3), gellmann_basis(3))).max() < 1e-15

    def test_spectrum_is_pairwise_differences(self, rng):
        gm = gellmann_basis(3)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = a + a.conj().T
        ev = np.linalg.eigvalsh(h)
        pairs = np.array([-1j * (ei - ej) for ei in ev for ej in ev])
        got = linalg.eigvals(-1j * h_superop(h, gm))
        assert spectra.match_distance(got, pairs) < 1e-10

    def test_structure(self, rng):
        for d in (3, 4):
            gm = gellmann_basis(d)
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m = h_superop(a + a.conj().T, gm)
            assert np.abs(m + m.T).max() < 1e-12
            assert np.abs(m.real).max() < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            h_superop(np.array([[0.0, 1.0], [0.0, 0.0]]), gellmann_basis(2))


class TestRelaxationAndJumpParts:
    def test_empty_jump_set(self):
        gm = gellmann_basis(3)
        assert np.abs(gamma_superop([], gm)).max() == 0.0
        assert np.abs(lambda_superop([], gm)).max() == 0.0

    def test_isotropic_ground_set(self):
        gamma = 0.8
        gm = gellmann_basis(3)
        ops = build_ground_relaxation(gamma)
        ghat = gamma_superop(ops, gm)
        assert np.abs(ghat + gamma * np.eye(9)).max() < 1e-13
        lhat = lambda_superop(ops, gm)
        want = np.zeros((9, 9))
        want[8, 8] = gamma
        assert np.abs(lhat - want).max() < 1e-13

    def test_structure(self, rng):
        for d in (3, 4):
            gm = gellmann_basis(d)
            jumps = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                     for _ in range(3)]
            ghat = gamma_superop(jumps, gm)
            assert np.abs(ghat - ghat.T).max() < 1e-12
            assert np.abs(ghat.imag).max() < 1e-12

    def test_lambda_action_equivalence(self, rng):
        gm = gellmann_basis(3)
        jumps = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                 for _ in range(2)]
        lhat = lambda_superop(jumps, gm)
        for _ in range(5):
            r = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = r + r.conj().T
            want = sum(l @ rho @ l.conj().T for l in jumps)
            got = devectorize(lhat @ vectorize(rho, gm), gm)
            assert np.abs(got - want).max() < 1e-12

    def test_effective_jumps_touch_only_the_identity_row(self):
        p = ModelParams(omega=30.0, j=10.0)
        sys3 = build_eff3(p)
        gm = gellmann_basis(3)
        lhat = lambda_superop(sys3.jump_ops(), gm)
        assert np.abs(lhat[:8]).max() < 1e-12
        assert np.abs(lhat[8]).max() > 1.0


class TestHybridLiouvillian:
    def test_first_eight_rows_are_q_independent(self):
        p = ModelParams(omega=30.0, j=10.0)
        sys3 = build_eff3(p)
        m0 = hybrid_liouvillian(sys3, 0.0, "gellmann").matrix
        m1 = hybrid_liouvillian(sys3, 1.0, "gellmann").matrix
        assert np.abs(m0[:8] - m1[:8]).max() < 1e-12
        assert np.abs(m1[8]).max() < 1e-12  # trace preservation at q = 1

    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("delta", [0.0, 5.0])
    def test_matches_reference_matrix_up_to_signed_permutation(self, q, delta):
        omega, j = 30.0, 10.0
        p = ModelParams(omega=omega, j=j, delta_rf=delta, q=q)
        mine = hybrid_liouvillian(build_eff3(p), q, "gellmann").matrix
        ref = reference_hybrid_matrix(omega, j, delta, q)
        t = find_signed_permutation(mine, ref)
        assert t is not None
        assert np.abs(t @ mine @ t.T - ref).max() < 1e-9

    def test_reconciliation_is_parameter_independent(self):
        # one basis transformation works for every (omega, j, delta, q); it
        # must be derived at a generic point, away from the extra symmetries
        # of delta = 0 and q in {0, 1}
        p0 = ModelParams(omega=30.0, j=10.0, delta_rf=5.0, q=0.3)
        mine0 = hybrid_liouvillian(build_eff3(p0), 0.3, "gellmann").matrix
        t = find_signed_permutation(mine0, reference_hybrid_matrix(30.0, 10.0, 5.0, 0.3))
        for omega, j, delta, q in ((20.0, 5.0, 0.0, 0.0), (40.0, 25.0, 7.0, 1.0),
                                   (30.0, 15.0, -4.0, 0.7)):
            p = ModelParams(omega=omega, j=j, delta_rf=delta, q=q)
            mine = hybrid_liouvillian(build_eff3(p), q, "gellmann").matrix
            ref = reference_hybrid_matrix(omega, j, delta, q)
            assert np.abs(t @ mine @ t.T - ref).max() < 1e-9

    def test_q0_spectrum_analytic(self):
        for omega, j in ((30.0, 10.0), (30.0, 35.0), (20.0, 21.0)):
            p = ModelParams(omega=omega, j=j, q=0.0)
            ev = linalg.eigvals(hybrid_liouvillian(build_eff3(p), 0.0, "gellmann").matrix)
            want = analytic.nhh_superop_spectrum(omega, j)
            assert spectra.match_distance(ev, want) < 1e-8 * np.abs(want).max()

    def test_q0_equals_nhh_superop_spectrum(self):
        p = ModelParams(omega=30.0, j=10.0, delta_rf=3.0)
        sys3 = build_eff3(p)
        hyb = hybrid_liouvillian(sys3, 0.0, "gellmann")
        nhh = nhh_superop(sys3.h_nh(), gellmann_basis(3))
        assert spectra.match_distance(linalg.eigvals(hyb.matrix),
                                      linalg.eigvals(nhh.matrix)) < 1e-9
        assert hyb.origin == "hybrid" and nhh.origin == "nhh"

    def test_origin_tag_at_q1(self):
        p = ModelParams(omega=30.0, j=10.0)
        assert hybrid_liouvillian(build_eff3(p), 1.0, "gellmann").origin == "liouvillian"

    def test_rejects_bad_q(self):
        p = ModelParams(omega=30.0, j=10.0)
        with pytest.raises(ValueError):
            hybrid_liouvillian(build_eff3(p), 1.5, "gellmann")

    def test_action_equivalence_both_bases(self, rng):
        for d in (2, 3, 4):
            sys = random_system(rng, d, 3)
            for q in (0.0, 0.3, 1.0):
                gm = gellmann_basis(d)
                fl = BasisTag(FOCKLIOUVILLE, d)
                m_gm = hybrid_liouvillian(sys, q, gm).matrix
                m_fl = hybrid_liouvillian(sys, q, fl).matrix
                for _ in range(3):
                    r = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                    rho = r + r.conj().T
                    want = apply_hybrid(sys, q, rho)
                    got_gm = devectorize(m_gm @ vectorize(rho, gm), gm)
                    got_fl = devectorize(m_fl @ vectorize(rho, fl), fl)
                    scale = max(np.abs(want).max(), 1.0)
                    assert np.abs(got_gm - want).max() < 1e-11 * scale
                    assert np.abs(got_fl - want).max() < 1e-11 * scale


class TestGellMannSimilarity:
    def test_equals_the_direct_parts(self, rng):
        # the Kronecker path through S^H L S / 2 against M_ij = Tr(map(s_j) s_i)/2
        for d in (2, 3, 4):
            gm = gellmann_basis(d)
            sys = random_system(rng, d, 3)
            ops = sys.jump_ops()
            hhat = h_superop(sys.hamiltonian, gm)
            ghat = gamma_superop(ops, gm)
            lhat = lambda_superop(ops, gm)
            for q in (0.0, 0.3, 1.0):
                got = hybrid_liouvillian(sys, q, gm).matrix
                want = -1j * hhat + ghat + q * lhat
                assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    def test_nhh_superop_equals_the_direct_parts(self, rng):
        gm = gellmann_basis(3)
        sys = random_system(rng, 3, 2)
        ops = sys.jump_ops()
        want = -1j * h_superop(sys.hamiltonian, gm) + gamma_superop(ops, gm)
        got = nhh_superop(sys.h_nh(), gm).matrix
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


@st.composite
def model_params(draw):
    # ground scales stay below gamma_sp / 10, where the reduction is valid
    gamma_sp = draw(st.floats(1e3, 1e8))
    return ModelParams(
        omega=draw(st.floats(0.0, 100.0)), j=draw(st.floats(0.0, 100.0)),
        delta_rf=draw(st.floats(-100.0, 100.0)),
        delta_opt=gamma_sp * draw(st.floats(-2.0, 2.0)), gamma_sp=gamma_sp,
        gamma_g=draw(st.floats(0.0, 10.0)), q=draw(st.floats(0.0, 1.0)))


class TestGenerator:
    BUILDERS = {"eff3": build_eff3, "full4": model.build_full4_rwa}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=model_params(), name=st.sampled_from(["eff3", "full4"]),
           basis=st.sampled_from([GELLMANN, FOCKLIOUVILLE]))
    def test_matches_the_builders(self, p, name, basis):
        want = hybrid_liouvillian(self.BUILDERS[name](p), p.q, basis)
        got = superop.generator(name)(p, basis)
        assert np.abs(got.matrix - want.matrix).max() <= 1e-12 * np.abs(want.matrix).max()
        assert (got.basis, got.origin, got.q) == (want.basis, want.origin, want.q)

    def test_keeps_the_reduction_checks(self):
        gen = superop.generator("eff3")
        slow = ModelParams(omega_r=3.0, j=30.0, gamma_sp=10.0)
        with pytest.warns(UserWarning, match="dominate"):
            gen(slow, GELLMANN)
        singular = ModelParams(omega=1.0, gamma_sp=1e-310)
        for build in (build_eff3, lambda p: gen(p, GELLMANN)):
            with pytest.warns(UserWarning), pytest.raises(ValueError, match="singular"):
                build(singular)

    def test_rejects_a_basis_of_another_dimension(self):
        p = ModelParams(omega=30.0, j=10.0)
        with pytest.raises(ValueError):
            superop.generator("full4")(p, BasisTag(FOCKLIOUVILLE, 3))


class TestFockLiouville:
    def test_amplitude_damping_spectrum(self):
        sys = LindbladSystem(dim=2, hamiltonian=np.zeros((2, 2)),
                             jumps=(("down", np.array([[0.0, 1.0], [0.0, 0.0]])),))
        ev = linalg.eigvals(fock_liouville(sys, 1.0).matrix)
        assert spectra.match_distance(ev, np.array([0.0, -0.5, -0.5, -1.0])) < 1e-12

    def test_trace_preservation_left_null_vector(self, rng):
        sys = random_system(rng, 3, 2)
        sop = fock_liouville(sys, 1.0)
        vec_id = vectorize(np.eye(3), sop.basis)
        assert np.abs(vec_id.conj() @ sop.matrix).max() < 1e-12

    def test_four_level_groups(self):
        p = ModelParams(omega=30.0, j=10.0, gamma_sp=model.GAMMA_D2)
        sop = fock_liouville(model.build_full4_rwa(p), 1.0)
        ev = linalg.eigvals(sop.matrix)
        g = model.GAMMA_D2
        sizes = ((ev.real > -g / 4).sum(),
                 ((ev.real <= -g / 4) & (ev.real > -3 * g / 4)).sum(),
                 (ev.real <= -3 * g / 4).sum())
        assert sizes == (9, 6, 1)


class TestIsotropicExtension:
    def test_zero_gamma_is_identity(self):
        p = ModelParams(omega=30.0, j=10.0, q=0.0)
        base = hybrid_liouvillian(build_eff3(p), 0.0, "gellmann")
        ext = isotropic_extension(base, 0.0, 0.0)
        assert np.array_equal(ext.matrix, base.matrix)

    def test_matches_direct_construction_with_ground_jumps(self):
        omega, j, gamma = 30.0, 10.0, 0.37
        for q in (0.0, 0.5, 1.0):
            p = ModelParams(omega=omega, j=j, q=q)
            base = hybrid_liouvillian(build_eff3(p), q, "gellmann")
            ext = isotropic_extension(base, gamma, q)
            p_g = ModelParams(omega=omega, j=j, q=q, gamma_g=gamma)
            direct = hybrid_liouvillian(build_eff3(p_g), q, "gellmann")
            assert np.abs(ext.matrix - direct.matrix).max() < 1e-11

    def test_basis_guard(self):
        p = ModelParams(omega=30.0, j=10.0, q=0.0)
        fl = fock_liouville(build_eff3(p), 0.0)
        with pytest.raises(ValueError):
            isotropic_extension(fl, 0.1, 0.0)

    def test_q_mismatch_guard(self):
        p = ModelParams(omega=30.0, j=10.0, q=0.0)
        base = hybrid_liouvillian(build_eff3(p), 0.0, "gellmann")
        with pytest.raises(ValueError):
            isotropic_extension(base, 0.1, 1.0)


class TestJsonExport:
    def test_matrix_round_trip(self, rng):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_superoperator_export(self):
        p = ModelParams(omega=30.0, j=10.0)
        sop = hybrid_liouvillian(build_eff3(p), 1.0, "gellmann")
        doc = sop.to_json()
        assert doc["basis"] == {"kind": "gellmann", "dim": 3}
        assert doc["origin"] == "liouvillian"
        rebuilt = matrix_from_json(doc["matrix"])
        assert np.array_equal(rebuilt, sop.matrix)
