import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lioup import analytic, cli, linalg, model, spectra, superop
from lioup.model import LindbladSystem, ModelParams, build_eff3, build_ground_relaxation
from lioup.superop import (devectorize, gamma_superop, gellmann_basis,
                           h_superop, hybrid_liouvillian, superop_of_map,
                           vectorize)

from conftest import find_signed_permutation, model_params, reference_hybrid_matrix

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.diag([1.0, -1.0]).astype(complex),
}


def lambda_superop(jumps, d):
    """Quantum-jump (repopulation) superoperator, 1/2 sum Tr(L s_j L^dag s_i)."""
    ops = [np.asarray(l, dtype=complex) for l in jumps]

    def apply_fn(s):
        out = np.zeros_like(s)
        for l in ops:
            out += l @ s @ l.conj().T
        return out

    return superop_of_map(apply_fn, d)


def nhh_superop(h_nh):
    """Gell-Mann matrix of the jump-free generator rho -> -i(H rho - rho H^dag)
    of any square H: the Kronecker assembly without jumps, by similarity."""
    h_nh = np.asarray(h_nh, dtype=complex)
    s, s_inv = superop._gellmann_similarity(h_nh.shape[0])
    return s_inv @ superop.fock_liouville_matrix(h_nh, (), 0.0) @ s


def random_system(rng, d, n_jumps, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = scale * (a + a.conj().T)
    jumps = tuple(scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                  for _ in range(n_jumps))
    return LindbladSystem(h, jumps)


def apply_hybrid(sys, q, rho):
    h_nh = sys.h_nh()
    out = -1j * (h_nh @ rho - rho @ h_nh.conj().T)
    for op in sys.jumps:
        out += q * op @ rho @ op.conj().T
    return out


class TestGellMannBasis:
    def test_d2_is_the_pauli_set(self):
        mats = gellmann_basis(2)
        assert np.abs(mats[0] - PAULI["x"]).max() < 1e-15
        assert np.abs(mats[1] - PAULI["y"]).max() < 1e-15
        assert np.abs(mats[2] - PAULI["z"]).max() < 1e-15
        assert np.abs(mats[3] - np.eye(2)).max() < 1e-15

    def test_d3_contains_standard_set(self):
        mats = gellmann_basis(3)
        lam8 = np.diag([1.0, 1.0, -2.0]) / math.sqrt(3.0)
        found = min(np.abs(m - lam8).max() for m in mats)
        assert found < 1e-15
        assert np.abs(mats[-1] - math.sqrt(2.0 / 3.0) * np.eye(3)).max() < 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_trace_orthogonality_and_hermiticity(self, d):
        mats = gellmann_basis(d)
        gram = np.einsum("iab,jba->ij", mats, mats)
        assert np.abs(gram - 2.0 * np.eye(d * d)).max() < 1e-12
        for m in mats:
            assert np.abs(m - m.conj().T).max() < 1e-15

    def test_cached_and_read_only(self):
        assert gellmann_basis(3) is gellmann_basis(3)
        with pytest.raises(ValueError):
            gellmann_basis(3)[0, 0, 1] = 2.0

    def test_completeness(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = a + a.conj().T
        rebuilt = devectorize(vectorize(h))
        assert np.abs(rebuilt - h).max() < 1e-12


class TestVectorize:
    def test_maximally_mixed_has_only_identity_component(self):
        v = vectorize(np.eye(3) / 3.0)
        assert np.abs(v[:-1]).max() < 1e-15
        assert v[-1] == pytest.approx(1.0 / math.sqrt(6.0))

    def test_column_stacking_convention(self):
        # Fock-Liouville matrices act on rho.flatten(order="F"), where rho_01
        # lands at index 0 + 2*1: with H = |0><1|, rho -> -i(H rho - rho H^dag)
        # takes |1><1| to -i(|0><1| - |1><0|)
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        rho = np.diag([0.0, 1.0])
        got = superop.fock_liouville_matrix(h, (), 0.0) @ rho.flatten(order="F")
        assert np.array_equal(got, [0, 1j, -1j, 0])

    def test_round_trip(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            assert np.abs(devectorize(vectorize(rho)) - rho).max() < 1e-13

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="rho must be square"):
            vectorize(np.ones((2, 3)))

    def test_gellmann_components_of_hermitian_are_real(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        v = vectorize(a + a.conj().T)
        assert np.abs(v.imag).max() < 1e-12

    def test_rejects_unknown_names_and_dimensions(self):
        sys17 = LindbladSystem(np.eye(17))
        for d in (17, 1):
            with pytest.raises(ValueError, match="dimension"):
                hybrid_liouvillian(LindbladSystem(np.eye(d)), 0.0)
        for d in (1, 17):
            with pytest.raises(ValueError, match="dimension"):
                vectorize(np.eye(d))
            with pytest.raises(ValueError, match="dimension"):
                devectorize(np.zeros(d * d))
        with pytest.raises(ValueError, match="dimension"):
            hybrid_liouvillian(sys17, 0.5)
        with pytest.raises(ValueError, match="length"):
            devectorize(np.zeros(5))


class TestHamiltonianPart:
    def test_pauli_z_generator(self):
        m = h_superop(PAULI["z"] / 2.0)
        want = np.zeros((4, 4), dtype=complex)
        want[1, 0] = 1j  # mixes the x and y components
        want[0, 1] = -1j
        assert np.abs(m - want).max() < 1e-14

    def test_identity_commutes(self):
        assert np.abs(h_superop(np.eye(3))).max() < 1e-15

    def test_spectrum_is_pairwise_differences(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = a + a.conj().T
        ev = np.linalg.eigvalsh(h)
        pairs = np.array([-1j * (ei - ej) for ei in ev for ej in ev])
        got = linalg.eigvals(-1j * h_superop(h))
        assert spectra.match_distance(got, pairs) < 1e-10

    def test_structure(self, rng):
        for d in (3, 4):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m = h_superop(a + a.conj().T)
            assert np.abs(m + m.T).max() < 1e-12
            assert np.abs(m.real).max() < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            h_superop(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestRelaxationAndJumpParts:
    def test_empty_jump_set(self):
        assert np.abs(gamma_superop([], 3)).max() == 0.0
        assert np.abs(lambda_superop([], 3)).max() == 0.0

    def test_isotropic_ground_set(self):
        gamma = 0.8
        ops = build_ground_relaxation(gamma)
        ghat = gamma_superop(ops, 3)
        assert np.abs(ghat + gamma * np.eye(9)).max() < 1e-13
        lhat = lambda_superop(ops, 3)
        want = np.zeros((9, 9))
        want[8, 8] = gamma
        assert np.abs(lhat - want).max() < 1e-13

    def test_structure(self, rng):
        for d in (3, 4):
            jumps = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                     for _ in range(3)]
            ghat = gamma_superop(jumps, d)
            assert np.abs(ghat - ghat.T).max() < 1e-12
            assert np.abs(ghat.imag).max() < 1e-12

    def test_lambda_action_equivalence(self, rng):
        jumps = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                 for _ in range(2)]
        lhat = lambda_superop(jumps, 3)
        for _ in range(5):
            r = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = r + r.conj().T
            want = sum(l @ rho @ l.conj().T for l in jumps)
            got = devectorize(lhat @ vectorize(rho))
            assert np.abs(got - want).max() < 1e-12

    def test_effective_jumps_touch_only_the_identity_row(self):
        p = ModelParams(omega=30.0, j=10.0)
        sys3 = build_eff3(p)
        lhat = lambda_superop(sys3.jumps, 3)
        assert np.abs(lhat[:8]).max() < 1e-12
        assert np.abs(lhat[8]).max() > 1.0


class TestHybridLiouvillian:
    def test_first_eight_rows_are_q_independent(self):
        p = ModelParams(omega=30.0, j=10.0)
        sys3 = build_eff3(p)
        m0 = hybrid_liouvillian(sys3, 0.0)
        m1 = hybrid_liouvillian(sys3, 1.0)
        assert np.abs(m0[:8] - m1[:8]).max() < 1e-12
        assert np.abs(m1[8]).max() < 1e-12  # trace preservation at q = 1

    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("delta", [0.0, 5.0])
    def test_matches_reference_matrix_up_to_signed_permutation(self, q, delta):
        omega, j = 30.0, 10.0
        p = ModelParams(omega=omega, j=j, delta_rf=delta, q=q)
        mine = hybrid_liouvillian(build_eff3(p), q)
        ref = reference_hybrid_matrix(omega, j, delta, q)
        t = find_signed_permutation(mine, ref)
        assert t is not None
        assert np.abs(t @ mine @ t.T - ref).max() < 1e-9

    def test_reconciliation_is_parameter_independent(self):
        # one basis transformation works for every (omega, j, delta, q); it
        # must be derived at a generic point, away from the extra symmetries
        # of delta = 0 and q in {0, 1}
        p0 = ModelParams(omega=30.0, j=10.0, delta_rf=5.0, q=0.3)
        mine0 = hybrid_liouvillian(build_eff3(p0), 0.3)
        t = find_signed_permutation(mine0, reference_hybrid_matrix(30.0, 10.0, 5.0, 0.3))
        for omega, j, delta, q in ((20.0, 5.0, 0.0, 0.0), (40.0, 25.0, 7.0, 1.0),
                                   (30.0, 15.0, -4.0, 0.7)):
            p = ModelParams(omega=omega, j=j, delta_rf=delta, q=q)
            mine = hybrid_liouvillian(build_eff3(p), q)
            ref = reference_hybrid_matrix(omega, j, delta, q)
            assert np.abs(t @ mine @ t.T - ref).max() < 1e-9

    def test_q0_spectrum_analytic(self):
        for omega, j in ((30.0, 10.0), (30.0, 35.0), (20.0, 21.0)):
            p = ModelParams(omega=omega, j=j, q=0.0)
            ev = linalg.eigvals(hybrid_liouvillian(build_eff3(p), 0.0))
            want = analytic.nhh_superop_spectrum(omega, j)
            assert spectra.match_distance(ev, want) < 1e-8 * np.abs(want).max()

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_undriven_spectrum_analytic(self, q):
        # Omega = J = 0 takes jump_coupled_three's zeta = 0 branch
        want = analytic.hybrid_spectrum(0.0, 0.0, q)
        assert np.array_equal(want, np.zeros(9))
        p = ModelParams(omega=0.0, j=0.0, q=q)
        ev = linalg.eigvals(hybrid_liouvillian(build_eff3(p), q))
        assert spectra.match_distance(ev, want) == 0.0

    def test_q0_equals_nhh_superop_spectrum(self):
        p = ModelParams(omega=30.0, j=10.0, delta_rf=3.0)
        sys3 = build_eff3(p)
        hyb = hybrid_liouvillian(sys3, 0.0)
        nhh = nhh_superop(sys3.h_nh())
        assert spectra.match_distance(linalg.eigvals(hyb),
                                      linalg.eigvals(nhh)) < 1e-9

    def test_rejects_bad_q(self):
        p = ModelParams(omega=30.0, j=10.0)
        with pytest.raises(ValueError):
            hybrid_liouvillian(build_eff3(p), 1.5)

    def test_action_equivalence_both_bases(self, rng):
        for d in (2, 3, 4):
            sys = random_system(rng, d, 3)
            for q in (0.0, 0.3, 1.0):
                m_gm = hybrid_liouvillian(sys, q)
                m_fl = superop.fock_liouville_matrix(sys.hamiltonian, sys.jumps, q)
                for _ in range(3):
                    r = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                    rho = r + r.conj().T
                    want = apply_hybrid(sys, q, rho)
                    got_gm = devectorize(m_gm @ vectorize(rho))
                    got_fl = (m_fl @ rho.flatten(order="F")).reshape(d, d, order="F")
                    scale = max(np.abs(want).max(), 1.0)
                    assert np.abs(got_gm - want).max() < 1e-11 * scale
                    assert np.abs(got_fl - want).max() < 1e-11 * scale


class TestGellMannSimilarity:
    def test_equals_the_direct_parts(self, rng):
        # the Kronecker path through S^H L S / 2 against M_ij = Tr(map(s_j) s_i)/2
        for d in (2, 3, 4):
            sys = random_system(rng, d, 3)
            hhat = h_superop(sys.hamiltonian)
            ghat = gamma_superop(sys.jumps, d)
            lhat = lambda_superop(sys.jumps, d)
            for q in (0.0, 0.3, 1.0):
                got = hybrid_liouvillian(sys, q)
                want = -1j * hhat + ghat + q * lhat
                assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()

    def test_nhh_superop_equals_the_direct_parts(self, rng):
        sys = random_system(rng, 3, 2)
        want = -1j * h_superop(sys.hamiltonian) + gamma_superop(sys.jumps, 3)
        got = nhh_superop(sys.h_nh())
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


@st.composite
def detuned_params(draw):
    # the ranges over which the sign symmetries are checked
    gamma_sp = 10.0 ** draw(st.floats(3.0, 7.0))
    return ModelParams(
        omega=draw(st.floats(5.0, 50.0)), j=draw(st.floats(0.1, 60.0)),
        delta_rf=draw(st.floats(-30.0, 30.0)),
        delta_opt=gamma_sp * draw(st.floats(-0.05, 0.05)), gamma_sp=gamma_sp,
        gamma_g=draw(st.floats(0.0, 3.0)), q=draw(st.floats(0.0, 1.0)))


def sign_reversals(d):
    """For each (level, field) of model.SIGN_SYMMETRIC, the fixed real
    orthogonal Q with M(-x) = Q M(x) Q^T on the d-level model: the state
    reversal R, |1,1> <-> |1,-1>, on H_nh, and rho -> R rho R on the Gell-Mann
    generator for delta_rf; rho -> S R rho^T R S, S = diag(1, -1, 1, 1), for
    delta_opt."""
    r = np.eye(d)[[2, 1, 0, 3][:d]]
    s = np.diag([1.0, -1.0, 1.0, 1.0][:d])
    maps = {("superoperator", "delta_rf"): lambda x: r @ x @ r,
            ("superoperator", "delta_opt"): lambda x: s @ r @ x.T @ r @ s}
    out = {("operator", "delta_rf"): r}
    for key, fn in maps.items():
        q = superop_of_map(fn, d)
        assert not q.imag.any()
        out[key] = q.real
    return out


class TestGenerator:
    BUILDERS = {"eff3": build_eff3, "full4": model.build_full4_rwa}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=model_params(), name=st.sampled_from(["eff3", "full4"]))
    def test_matches_the_builders(self, p, name):
        sys = self.BUILDERS[name](p)
        want = hybrid_liouvillian(sys, p.q)
        gen = superop.generator(name)
        got = gen.matrices(p)[0]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        h_nh = gen.operators(p)[0]
        assert h_nh.dtype == np.complex128
        assert np.abs(h_nh - sys.h_nh()).max() <= 1e-12 * np.abs(sys.h_nh()).max()

    @pytest.mark.parametrize("gamma_sp", [1.0, 1e3, model.GAMMA_D2])
    def test_eff3_shift_and_rate_match_the_reduction(self, gamma_sp):
        # each coefficient against its own size: the bound above is relative
        # to the largest entry, which a small ground shift lies far below
        p = ModelParams(omega=0.05 * gamma_sp, gamma_sp=gamma_sp)
        grid = gamma_sp * np.outer([-1.0, 1.0], np.logspace(-3.0, 3.0, 61)).ravel()
        rows = model.LINEAR_FORMS["eff3"].coefficients(p, {"delta_opt": grid})
        for x, (shift, rate) in zip(grid.tolist(), rows[:, 2:4]):
            at = p.replace(delta_opt=x)
            sys4 = model.build_full4_rwa(at)
            sys3 = model.reduce_effective(sys4, at)
            want_shift = (sys3.hamiltonian[1, 1] - sys4.hamiltonian[1, 1]).real
            want_rate = sum(np.trace(op.conj().T @ op).real for op in sys3.jumps)
            assert len(sys3.jumps) == 3
            assert abs(shift - want_shift) <= 1e-13 * abs(want_shift), x
            assert abs(rate - want_rate) <= 1e-13 * want_rate, x

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=model_params(), name=st.sampled_from(["eff3", "full4"]))
    def test_jump_weight_enters_linearly(self, p, name):
        gen = superop.generator(name)
        m = gen.matrices(p)[0]
        m0, m1 = gen.matrices(p, {"q": [0.0, 1.0]})
        tol = 1e-12 * np.abs(m).max()
        assert np.abs(m - ((1.0 - p.q) * m0 + p.q * m1)).max() <= tol
        # the identity element's row: trace preservation at q = 1
        assert np.abs(m1[-1]).max() <= 1e-12 * np.abs(m1).max()

    # the unit vector that spans the jump term's columns, the vectorized
    # identity on the ground triplet: in eff3 the Gell-Mann identity element;
    # in full4 (1/2, sqrt(3)/2) on the last diagonal element and the
    # identity, whose weights on the excited state cancel
    JUMP_COLUMNS = {"eff3": np.eye(9)[8],
                    "full4": np.r_[np.zeros(14), 0.5, np.sqrt(3.0) / 2.0]}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(p=model_params(), name=st.sampled_from(["eff3", "full4"]),
           u=st.floats(0.0, 2.0), v=st.floats(-2.0, 2.0))
    def test_jump_term_has_rank_one(self, p, name, u, v):
        # Lambda = L(q=1) - L(q=0) = v w^T with v fixed per model, so that
        # det(L(q) - z) is linear in q.  Lambda is 0 where there are no jumps
        # (eff3 at omega = gamma_g = 0), which both bounds allow
        m0, m1 = superop.generator(name).matrices(p, {"q": [0.0, 1.0]})
        lam = m1 - m0
        sigma = np.linalg.svd(lam, compute_uv=False)
        assert sigma[1] <= 1e-12 * sigma[0]
        col = self.JUMP_COLUMNS[name]
        assert np.abs(lam - np.outer(col, col @ lam)).max() <= 1e-12 * sigma[0]
        # z lies right of the spectra, whose real parts are at most 0, since
        # next to an eigenvalue LU determinants lose every digit; the
        # matrices are in units of max|L0|, so no determinant leaves float range
        scale = np.abs(m0).max() or 1.0
        z = (0.5 + u + 1j * v) * np.eye(len(m0))
        a0, a1 = m0 / scale - z, m1 / scale - z
        det0, det1 = np.linalg.det(a0), np.linalg.det(a1)
        q = p.q
        got = np.linalg.det((1.0 - q) * a0 + q * a1)
        assert (abs(got - ((1.0 - q) * det0 + q * det1))
                <= 1e-12 * ((1.0 - q) * abs(det0) + q * abs(det1)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=model_params(), name=st.sampled_from(["eff3", "full4"]))
    def test_detuning_sign_is_the_state_reversal(self, p, name):
        # delta_rf -> -delta_rf is R: |1,1> <-> |1,-1>, at both levels
        gen = superop.generator(name)
        d = gen.form.dim
        r = np.eye(d)[[2, 1, 0, 3][:d]]
        mirrored = p.replace(delta_rf=-p.delta_rf)
        assert np.array_equal(gen.operators(mirrored)[0], r @ gen.operators(p)[0] @ r)
        rev = superop.superop_of_map(lambda s: r @ s @ r, d)
        m = gen.matrices(p)[0]
        assert (np.abs(gen.matrices(mirrored)[0] - rev @ m @ rev.T).max()
                <= 1e-12 * np.abs(m).max())

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(p=model_params(), name=st.sampled_from(["eff3", "full4"]))
    def test_optical_detuning_sign_conjugates_the_spectra(self, p, name):
        # -H_nh(delta_rf, delta_opt)^* is H_nh(-delta_rf, -delta_opt) under
        # the sign similarity diag(1, -1, 1, 1), and delta_rf -> -delta_rf is
        # the state reversal: so delta_opt -> -delta_opt maps each operator
        # eigenvalue E to -E^*, and leaves the real superoperator's spectrum
        gen = superop.generator(name)
        s = np.diag([1.0, -1.0, 1.0, 1.0][:gen.form.dim])
        flipped = p.replace(delta_opt=-p.delta_opt)
        both = flipped.replace(delta_rf=-p.delta_rf)
        h = gen.operators(p)[0]
        assert np.array_equal(gen.operators(both)[0], s @ -h.conj() @ s)
        ev = linalg.eigvals(h)
        got = linalg.eigvals(gen.operators(flipped)[0])
        assert spectra.match_distance(got, -ev.conj()) <= 1e-13 * np.abs(ev).max()
        ev = linalg.eigvals(gen.matrices(p)[0])
        got = linalg.eigvals(gen.matrices(flipped)[0])
        assert spectra.match_distance(got, ev) <= 1e-13 * np.abs(ev).max()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(p=detuned_params(), name=st.sampled_from(["eff3", "full4"]))
    def test_sign_symmetric_fields_are_fixed_similarities(self, p, name):
        # a sweep over a SIGN_SYMMETRIC field, on a range symmetric about
        # zero, solves half its grid: the stack at -x is the stack at x under
        # one fixed orthogonal similarity, checked on the matrices, whose
        # eigenvalues would lose digits near an EP
        gen = superop.generator(name)
        similarities = sign_reversals(gen.form.dim)
        assert set(similarities) == {(level, field) for level, fields
                                     in model.SIGN_SYMMETRIC.items()
                                     for field in fields}
        for (level, field), q in similarities.items():
            assert np.abs(q @ q.T - np.eye(len(q))).max() <= 1e-15
            build = gen.operators if level == "operator" else gen.matrices
            x = getattr(p, field)
            grid = np.array([x, 0.5 * x, 0.0, -x])
            for m, want in zip(build(p, {field: grid}), build(p, {field: -grid})):
                assert (np.abs(want - q @ m @ q.T).max()
                        <= 1e-14 * np.linalg.norm(m, 2))

    @pytest.mark.parametrize("name", ["eff3", "full4"])
    def test_operator_spectrum_keeps_the_optical_detuning_sign(self, name):
        # H_nh's eigenvalues go to -E^* under delta_opt -> -delta_opt, a
        # different set, so an operator-level delta_opt sweep is not mirrored
        assert "delta_opt" not in model.SIGN_SYMMETRIC["operator"]
        h = superop.generator(name).operators
        p = ModelParams(omega=30.0, j=10.0, delta_rf=3.0, delta_opt=2e3,
                        gamma_sp=1e4)
        ev = linalg.eigvals(h(p)[0])
        got = linalg.eigvals(h(p.replace(delta_opt=-p.delta_opt))[0])
        assert spectra.match_distance(got, ev) > 0.5 * np.abs(ev).max()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=model_params(), name=st.sampled_from(["eff3", "full4"]))
    def test_jump_free_generator_is_the_nhh_superoperator(self, p, name):
        gen = superop.generator(name)
        p0 = p.replace(q=0.0)
        m = gen.matrices(p0)[0]
        want = nhh_superop(gen.operators(p0)[0])
        assert np.abs(m - want).max() <= 1e-12 * np.abs(m).max()

    def test_keeps_the_reduction_checks(self):
        gen = superop.generator("eff3")
        slow = ModelParams(omega_r=3.0, j=30.0, gamma_sp=10.0)
        for build in (gen.matrices, gen.operators):
            with pytest.warns(UserWarning, match="dominate"):
                build(slow)
        singular = ModelParams(omega=1.0, gamma_sp=1e-310)
        for build in (build_eff3, gen.matrices, gen.operators):
            with pytest.warns(UserWarning), pytest.raises(ValueError, match="singular"):
                build(singular)
        # on a grid each check fires once, for all the points that trip it
        for build in (gen.matrices, gen.operators):
            with pytest.warns(UserWarning, match="dominate") as record:
                build(slow.replace(j=0.0), {"j": [0.0, 0.5, 30.0, 40.0]})
            assert len(record) == 1
            with pytest.warns(UserWarning), pytest.raises(ValueError, match="singular"):
                build(singular.replace(delta_opt=1.0), {"delta_opt": [-1.0, 0.0, 1.0]})

    @pytest.mark.parametrize("name", ["eff3", "full4"])
    def test_operator_terms_of_the_jump_weight_are_zero(self, name):
        gen = superop.generator(name)
        ops = gen.operator_terms
        assert ops.dtype == np.complex128 and not ops.flags.writeable
        p = ModelParams(omega=30.0, j=12.0, delta_rf=2.0, gamma_sp=1e4,
                        gamma_g=0.3, q=0.0)
        weighted = np.subtract(gen.form.coefficients(p.replace(q=1.0))[0],
                               gen.form.coefficients(p)[0]) != 0
        assert weighted.sum() == 2 and not ops[weighted].any()
        assert np.array_equal(gen.operators(p), gen.operators(p.replace(q=1.0)))

    def test_integer_params_give_float_coefficients(self):
        # every full4 coefficient is a field or a product of two, so integer
        # fields would give an integer row
        p = ModelParams(j=2, omega=4, omega_r=2, delta_rf=1, delta_opt=3,
                        gamma_sp=1, gamma_g=5, q=1)
        rows = superop.generator("full4").form.coefficients(p)
        assert rows.dtype == np.float64
        assert np.array_equal(rows, [reference_coefficients("full4", p)])

    @pytest.mark.parametrize("name", ["eff3", "full4"])
    def test_terms_are_real_and_equal_the_direct_parts(self, name):
        gen = superop.generator(name)
        assert gen.terms.dtype == np.float64 and not gen.terms.flags.writeable
        p = ModelParams(omega=30.0, j=12.0, delta_rf=2.0, delta_opt=40.0,
                        gamma_sp=1e4, gamma_g=0.3, q=0.6)
        m = gen.matrices(p)[0]
        assert m.dtype == np.float64
        # M_ij = Tr(map(s_j) s_i)/2, bypassing the Kronecker path
        sys = self.BUILDERS[name](p)
        want = (-1j * h_superop(sys.hamiltonian) + gamma_superop(sys.jumps, sys.dim)
                + p.q * lambda_superop(sys.jumps, sys.dim))
        assert np.abs(m - want).max() <= 1e-12 * np.abs(want).max()

    def test_build_rejects_terms_that_are_not_real(self, monkeypatch):
        # every Lindblad system maps Hermitian operators to Hermitian ones;
        # rho -> -i H rho does not, so its Gell-Mann matrix is complex
        form = model.LinearForm(
            build=lambda p: LindbladSystem(p.j * PAULI["x"]),
            columns=lambda v: (v["j"],),
            probes=(ModelParams(omega=1.0, j=1.0),))
        monkeypatch.setitem(model.LINEAR_FORMS, "not_real", form)
        monkeypatch.setattr(superop, "fock_liouville_matrix",
                            lambda h, jumps, q: -1j * np.kron(np.eye(len(h)), h))
        with pytest.raises(ValueError, match="not real"):
            superop.generator.__wrapped__("not_real")


def reference_coefficients(name, p):
    """The coefficients at one ModelParams in IEEE real arithmetic: for eff3
    the ground shift omega_r^2 delta_opt / |h_e|^2 and the decay rate
    gamma_sp omega_r^2 / |h_e|^2, with |h_e|^2 = delta_opt^2 + (gamma_sp / 2)^2."""
    if name == "full4":
        return (p.delta_rf, p.j, p.omega_r, p.delta_opt,
                p.gamma_sp, p.q * p.gamma_sp, p.gamma_g, p.q * p.gamma_g)
    abs_square = p.delta_opt * p.delta_opt + (0.5 * p.gamma_sp) * (0.5 * p.gamma_sp)
    shift = p.omega_r * p.omega_r * p.delta_opt / abs_square
    rate = p.gamma_sp * (p.omega_r * p.omega_r) / abs_square
    return (p.delta_rf, p.j, shift, rate, p.q * rate, p.gamma_g, p.q * p.gamma_g)


def sweep_values(field, p):
    """Values of a sweepable field inside the domain and the reduction's
    validity (ground scales up to 100 against gamma_sp >= 1e3)."""
    root = math.sqrt(p.gamma_sp)
    return {"j": st.floats(0.0, 100.0), "omega": st.floats(0.0, 100.0),
            "omega_r": st.floats(-10.0 * root, 10.0 * root),
            "delta_rf": st.floats(-100.0, 100.0),
            "delta_opt": st.floats(-2.0 * p.gamma_sp, 2.0 * p.gamma_sp),
            "gamma_g": st.floats(0.0, 10.0), "q": st.floats(0.0, 1.0)}[field]


def draw_points(data, fields, values):
    """`points` over `fields`, each a number or a list of one common length,
    drawn from the strategy values(field), and the points it stands for as
    one map of field values each."""
    n = data.draw(st.integers(1, 6))
    points = {f: data.draw(st.one_of(values(f), st.lists(values(f), min_size=n,
                                                          max_size=n)))
              for f in fields}
    size = n if any(isinstance(x, list) for x in points.values()) else 1
    return points, [{f: x[k] if isinstance(x, list) else x for f, x in points.items()}
                    for k in range(size)]


class TestGrid:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(p=model_params(), name=st.sampled_from(["eff3", "full4"]),
           fields=st.lists(st.sampled_from(sorted(cli.SWEEPABLE)), min_size=1,
                           max_size=2, unique=True).filter(
                               lambda f: set(f) != {"omega", "omega_r"}),
           data=st.data())
    def test_rows_are_the_points(self, p, name, fields, data):
        # every row has the bits of the matrix at p.replace(**point), with one
        # or two fields set to numbers or lists and omega and omega_r
        # re-derived from each other
        points, each = draw_points(data, fields, lambda f: sweep_values(f, p))
        gen = superop.generator(name)
        mats = gen.matrices(p, points)
        ops = gen.operators(p, points)
        assert mats.shape == (len(each),) + (gen.form.dim ** 2,) * 2
        assert ops.shape == (len(each),) + (gen.form.dim,) * 2
        rows = gen.form.coefficients(p, points)
        for point, row, m, h in zip(each, rows, mats, ops):
            at = p.replace(**point)
            assert np.array_equal(row, reference_coefficients(name, at))
            assert np.array_equal(m.ravel(), row @ gen.terms)
            assert np.array_equal(h.ravel(), row @ gen.operator_terms)
            assert np.array_equal(m, gen.matrices(at)[0])
            assert np.array_equal(h, gen.operators(at)[0])

    def test_coefficients_reject_unknown_fields_and_ragged_points(self):
        form = model.LINEAR_FORMS["full4"]
        p = ModelParams(omega=30.0, j=10.0)
        with pytest.raises(ValueError, match="unknown parameter 'x'"):
            form.coefficients(p, {"x": 1.0})
        for points in ({"j": [[1.0, 2.0]]}, {"j": [1.0, 2.0], "delta_rf": [1.0, 2.0, 3.0]}):
            with pytest.raises(ValueError, match="equal-length 1-D arrays"):
                form.coefficients(p, points)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=model_params(), seed=st.integers(0, 2 ** 32 - 1))
    def test_eff3_shift_and_rate_rows_are_the_closed_form(self, p, seed):
        # |delta_opt| below and above gamma_sp / 2, where either term of
        # |h_e|^2 dominates, and omega_r of both signs
        rng = np.random.default_rng(seed)
        side = rng.choice([-1.0, 1.0], 100)
        grids = {"delta_opt": p.gamma_sp * np.concatenate([
                     rng.uniform(-0.5, 0.5, 100), side * rng.uniform(0.5, 2.0, 100),
                     [-0.5, 0.5]]),
                 "omega_r": math.sqrt(p.gamma_sp) * rng.uniform(-10.0, 10.0, 200)}
        form = model.LINEAR_FORMS["eff3"]
        for field, values in grids.items():
            rows = form.coefficients(p, {field: values})
            want = [reference_coefficients("eff3", p.replace(**{field: x}))[2:4]
                    for x in values.tolist()]
            assert np.array_equal(rows[:, 2:4], want), field

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(gamma_sp=st.sampled_from([1e-310, 1e-3, 1.0, 1e3]),
           fields=st.lists(st.sampled_from(["j", "omega", "delta_opt"]), min_size=1,
                           max_size=2, unique=True),
           data=st.data())
    def test_checks_fire_on_a_grid_as_at_its_points(self, gamma_sp, fields, data):
        gen = superop.generator("eff3")
        p = ModelParams(omega=1.0, j=0.0, gamma_sp=gamma_sp)
        points, each = draw_points(data, fields, lambda f: st.sampled_from(
            [0.0, 1e-305, 0.01, 1.0, 50.0, 200.0]))

        def outcome(build, *args):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                try:
                    build(*args)
                    raised = False
                except ValueError as exc:
                    assert "singular" in str(exc)
                    raised = True
            assert all("dominate" in str(w.message) for w in record)
            return len(record), raised

        warned, raised = outcome(gen.matrices, p, points)
        at_each = [outcome(gen.matrices, p.replace(**point)) for point in each]
        assert warned == (1 if any(n for n, _ in at_each) else 0)
        assert raised == any(r for _, r in at_each)


@st.composite
def lindblad_systems(draw):
    d = draw(st.integers(2, 4))

    def complex_matrix():
        re, im = (draw(arrays(np.float64, (d, d), elements=st.floats(-1.0, 1.0)))
                  for _ in range(2))
        return re + 1j * im

    a = complex_matrix()
    jumps = tuple(complex_matrix() for _ in range(draw(st.integers(0, 3))))
    return LindbladSystem(a + a.conj().T, jumps)


class TestSpectralProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(sys=lindblad_systems(), q=st.floats(0.0, 1.0))
    def test_spectrum_is_closed_under_conjugation(self, sys, q):
        # L(q) commutes with rho -> rho^dag, so its spectrum is real as a
        # multiset even in complex arithmetic, where nothing pairs it
        ev = linalg.eigvals(superop.fock_liouville_matrix(sys.hamiltonian,
                                                          sys.jumps, q))
        scale = max(np.abs(ev).max(), 1e-300)
        assert spectra.match_distance(ev, ev.conj()) <= 1e-10 * scale

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(omega=st.floats(1.0, 100.0),
           ratio=st.floats(0.0, 3.0).filter(lambda r: abs(r - 1.0) >= 0.01),
           q=st.floats(0.0, 1.0))
    def test_six_eigenvalues_are_q_free(self, omega, ratio, q):
        # J = ratio * Omega / sqrt(2) keeps 1% from the order-2 EP at
        # ratio = 1, where the doubles -a1 and -a1* scatter like eps**(1/2):
        # up to 2e-8 of the spectral radius there, past the 1e-8 tolerance
        p = ModelParams(omega=omega, j=ratio * omega / math.sqrt(2.0), q=q)
        ev = linalg.eigvals(superop.generator("eff3").matrices(p)[0])
        scale = np.abs(ev).max()
        for lam in analytic.fixed_six(p.omega, p.j):
            assert np.abs(ev - lam).min() <= 1e-8 * scale  # criterion 3b


def kron_fock_liouville(h, jumps, q):
    """fock_liouville_matrix written with np.kron, term for term."""
    eye = np.eye(h.shape[0])
    m = -1j * (np.kron(eye, h) - np.kron(h.conj(), eye))
    for op in jumps:
        ll = op.conj().T @ op
        m += q * np.kron(op.conj(), op)
        m -= 0.5 * (np.kron(eye, ll) + np.kron(ll.T, eye))
    return m


class TestFockLiouville:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
    def test_equals_the_kronecker_products_bit_for_bit(self, rng, d, q):
        # the generator's terms B_k are solved from these matrices, so each
        # entry must be the single product np.kron forms
        for n_jumps in range(10):
            sys = random_system(rng, d, n_jumps)
            assert np.array_equal(
                superop.fock_liouville_matrix(sys.hamiltonian, sys.jumps, q),
                kron_fock_liouville(sys.hamiltonian, sys.jumps, q))

    @pytest.mark.parametrize("name", sorted(model.LINEAR_FORMS))
    def test_probes_equal_the_kronecker_products_bit_for_bit(self, name):
        form = model.LINEAR_FORMS[name]
        for p in form.probes:
            sys = form.build(p)
            assert np.array_equal(
                superop.fock_liouville_matrix(sys.hamiltonian, sys.jumps, p.q),
                kron_fock_liouville(sys.hamiltonian, sys.jumps, p.q))

    def test_amplitude_damping_spectrum(self):
        sys = LindbladSystem(np.zeros((2, 2)), jumps=(np.array([[0.0, 1.0], [0.0, 0.0]]),))
        ev = linalg.eigvals(superop.fock_liouville_matrix(sys.hamiltonian,
                                                          sys.jumps, 1.0))
        assert spectra.match_distance(ev, np.array([0.0, -0.5, -0.5, -1.0])) < 1e-12

    def test_trace_preservation_left_null_vector(self, rng):
        sys = random_system(rng, 3, 2)
        sop = superop.fock_liouville_matrix(sys.hamiltonian, sys.jumps, 1.0)
        vec_id = np.eye(3).flatten(order="F")
        assert np.abs(vec_id.conj() @ sop).max() < 1e-12

    def test_four_level_groups(self):
        p = ModelParams(omega=30.0, j=10.0, gamma_sp=model.GAMMA_D2)
        sys = model.build_full4_rwa(p)
        sop = superop.fock_liouville_matrix(sys.hamiltonian, sys.jumps, 1.0)
        ev = linalg.eigvals(sop)
        g = model.GAMMA_D2
        sizes = ((ev.real > -g / 4).sum(),
                 ((ev.real <= -g / 4) & (ev.real > -3 * g / 4)).sum(),
                 (ev.real <= -3 * g / 4).sum())
        assert sizes == (9, 6, 1)


class TestIsotropicExtension:
    def test_matches_direct_construction_with_ground_jumps(self):
        # the nine gamma_g ground jumps are, in the Gell-Mann basis with the
        # identity element last, the diagonal -gamma * diag(1, ..., 1, 1-q)
        omega, j, gamma = 30.0, 10.0, 0.37
        for q in (0.0, 0.5, 1.0):
            p = ModelParams(omega=omega, j=j, q=q)
            base = hybrid_liouvillian(build_eff3(p), q)
            direct = hybrid_liouvillian(build_eff3(p.replace(gamma_g=gamma)),
                                        q)
            shift = np.full(9, gamma)
            shift[-1] = gamma * (1.0 - q)
            assert np.abs(direct - (base - np.diag(shift))).max() < 1e-12
