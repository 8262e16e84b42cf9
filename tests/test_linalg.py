import numpy as np
import pytest

from lioup import linalg, model, spectra, superop


def random_complex(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestEig:
    def test_identity(self):
        dec = linalg.eig(np.eye(2))
        assert np.allclose(dec.values, [1.0, 1.0])

    def test_jordan_block_parallel_vectors(self):
        dec = linalg.eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(dec.values, [0.0, 0.0], atol=1e-12)
        overlap = abs(np.vdot(dec.right_vectors[:, 0], dec.right_vectors[:, 1]))
        assert overlap > 1 - 1e-6

    def test_pair_coalescence_at_critical_drive(self):
        omega = 30.0
        h = model.h_nh_tuned(omega, omega / np.sqrt(2.0))
        ev = linalg.eigvals(h)
        nonzero = sorted(ev, key=abs)[1:]
        assert all(abs(z + 30j) < 1e-5 for z in nonzero)

    def test_residuals_bounded(self, rng):
        for n in (3, 6, 9):
            a = random_complex(rng, n)
            dec = linalg.eig(a)
            assert dec.residuals.max() <= linalg.TOL_EIG * np.linalg.norm(a)

    def test_left_right_pairing(self, rng):
        a = random_complex(rng, 5)
        dec = linalg.eig(a, want_left=True)
        norm = np.linalg.norm(a)
        for i in range(5):
            u = dec.left_vectors[i]
            v = dec.right_vectors[:, i]
            err = abs(u @ a @ v - dec.values[i] * (u @ v))
            assert err <= linalg.TOL_EIG * norm

    def test_reconstruction(self, rng):
        a = random_complex(rng, 6)
        dec = linalg.eig(a)
        v = dec.right_vectors
        rebuilt = v @ np.diag(dec.values) @ np.linalg.inv(v)
        assert np.linalg.norm(rebuilt - a) <= 1e-8 * np.linalg.norm(a)

    def test_spectrum_invariant_under_permutation(self, rng):
        a = random_complex(rng, 7)
        p = np.eye(7)[rng.permutation(7)]
        assert spectra.match_distance(linalg.eigvals(p @ a @ p.T),
                                      linalg.eigvals(a)) <= 1e-9

    def test_deterministic_ordering(self, rng):
        a = random_complex(rng, 6)
        w1 = linalg.eigvals(a)
        w2 = linalg.eigvals(a.copy())
        assert np.array_equal(w1, w2)
        assert np.all(np.diff(w1.real) >= -1e-300)

    @pytest.mark.parametrize("d", [3, 9, 16])
    def test_stack_is_bitwise_the_per_matrix_result(self, rng, d):
        stack = np.array([random_complex(rng, d) for _ in range(40)])
        got = linalg.eigvals(stack)
        assert got.shape == (40, d)
        for w, a in zip(got, stack):
            assert np.array_equal(w, linalg.eigvals(a))

    def test_stack_validation(self):
        with pytest.raises(ValueError):
            linalg.eigvals(np.zeros((2, 2, 3)))
        bad = np.zeros((3, 2, 2))
        bad[1, 0, 0] = np.inf
        with pytest.raises(ValueError):
            linalg.eigvals(bad)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            linalg.eig(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            linalg.eig(np.array([[np.nan, 0], [0, 1.0]]))


class TestSvdRank:
    def test_zero_matrix(self):
        assert linalg.svd_rank(np.zeros((3, 3))) == 0

    def test_rank_one_outer_product(self, rng):
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        a = np.outer(u, v.conj())
        # independent oracle: all 2x2 Gram minors vanish for a rank-1 matrix
        worst = max(abs(a[i, k] * a[j, l] - a[i, l] * a[j, k])
                    for i in range(4) for j in range(i + 1, 4)
                    for k in range(4) for l in range(k + 1, 4))
        assert worst < 1e-12
        assert linalg.svd_rank(a) == 1

    def test_shifted_operator_at_triple_point(self):
        omega = 30.0
        j, d, e_tp = model.triple_point(omega)
        h = model.h_nh_detuned(omega, j, d)
        assert linalg.svd_rank(h - e_tp * np.eye(3)) == 2


class TestKron:
    def test_identity(self):
        assert np.array_equal(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_with_identity(self):
        sz = np.diag([1.0, -1.0])
        assert np.array_equal(linalg.kron(sz, np.eye(2)), np.diag([1, 1, -1, -1]).astype(complex))

    def test_commutator_kron_spectrum_is_pairwise_differences(self):
        p = model.ModelParams(omega=30.0, j=10.0, delta_rf=3.0, delta_opt=2.0,
                              gamma_sp=100.0)
        h = model.build_full4_rwa(p).hamiltonian
        big = linalg.kron(h, np.eye(4)) - linalg.kron(np.eye(4), h.T)
        ev = linalg.eigvals(h)
        pairs = np.array([ei - ej for ei in ev for ej in ev])
        assert spectra.match_distance(linalg.eigvals(big), pairs) < 1e-10

    def test_mixed_product(self, rng):
        a, b, c, d = (random_complex(rng, 3) for _ in range(4))
        lhs = linalg.kron(a, b) @ linalg.kron(c, d)
        rhs = linalg.kron(a @ c, b @ d)
        assert np.abs(lhs - rhs).max() < 1e-12 * np.abs(rhs).max()

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            linalg.kron(np.eye(64), np.eye(64))


class TestExpm:
    def test_zero(self):
        assert np.allclose(linalg.expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = linalg.expm(np.diag([-1.0, -2.0]).astype(complex))
        assert np.allclose(out, np.diag([np.exp(-1.0), np.exp(-2.0)]))

    def test_inverse_pairing(self, rng):
        a = random_complex(rng, 4)
        a *= 5.0 / np.linalg.norm(a)
        assert np.abs(linalg.expm(a) @ linalg.expm(-a) - np.eye(4)).max() < 1e-9

    def test_against_eigen_expansion(self, rng):
        p = model.ModelParams(omega=30.0, j=10.0, q=1.0)
        l = superop.hybrid_liouvillian(model.build_eff3(p), 1.0, "gellmann")
        r = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho0 = r @ r.conj().T
        rho0 /= np.trace(rho0)
        v0 = superop.vectorize(rho0, superop.gellmann_basis(3))
        t = 0.1
        via_expm = linalg.expm(l.matrix * t) @ v0
        dec = linalg.eig(l.matrix)
        coeff = np.linalg.solve(dec.right_vectors, v0)
        via_eig = dec.right_vectors @ (coeff * np.exp(dec.values * t))
        assert np.abs(via_expm - via_eig).max() < 1e-10


class TestCubicRoots:
    def test_triple_zero(self):
        assert np.allclose(linalg.cubic_roots(0, 0, 0), [0, 0, 0])

    def test_distinct_real(self):
        # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
        roots = linalg.cubic_roots(-6.0, 11.0, -6.0)
        assert np.allclose(np.sort(roots.real), [1, 2, 3], atol=1e-10)
        assert np.abs(roots.imag).max() < 1e-10

    def test_detuned_characteristic_cubic_at_triple_point(self):
        omega = 30.0
        _, d, e_tp = model.triple_point(omega)
        j = 4.0 * omega / (3.0 * np.sqrt(3.0))
        roots = linalg.cubic_roots(*model.characteristic_cubic(omega, j, d))
        # a triple root responds to coefficient rounding with its cube root
        assert np.abs(roots - e_tp).max() < 5e-4
        assert abs(roots.mean() - e_tp) < 1e-9

    def test_matches_operator_spectrum(self, rng):
        for _ in range(10):
            omega, j, d = rng.uniform(1, 50, size=3)
            roots = linalg.cubic_roots(*model.characteristic_cubic(omega, j, d))
            ev = linalg.eigvals(model.h_nh_detuned(omega, j, d))
            assert spectra.match_distance(roots, ev) < 1e-8 * max(np.abs(ev).max(), 1)

    def test_symmetric_functions_reproduce_coefficients(self, rng):
        for _ in range(25):
            c2, c1, c0 = (complex(*rng.normal(scale=3, size=2)) for _ in range(3))
            r = linalg.cubic_roots(c2, c1, c0)
            scale = max(abs(c2), abs(c1), abs(c0), 1.0)
            assert abs(-(r[0] + r[1] + r[2]) - c2) < 1e-8 * scale
            assert abs(r[0] * r[1] + r[0] * r[2] + r[1] * r[2] - c1) < 1e-8 * scale
            assert abs(-(r[0] * r[1] * r[2]) - c0) < 1e-8 * scale

    def test_residuals_small(self, rng):
        for _ in range(25):
            c2, c1, c0 = (complex(*rng.normal(scale=2, size=2)) for _ in range(3))
            scale = max(abs(c2), abs(c1), abs(c0), 1.0)
            for r in linalg.cubic_roots(c2, c1, c0):
                assert abs(r ** 3 + c2 * r ** 2 + c1 * r + c0) <= 1e-8 * scale


class TestPredicates:
    def test_hermitian(self, rng):
        a = random_complex(rng, 4)
        assert linalg.is_hermitian(a + a.conj().T)
        assert not linalg.is_hermitian(a + a.conj().T + 1e-6 * 1j * np.eye(4))

    def test_symmetry_flavours(self, rng):
        a = random_complex(rng, 4)
        assert linalg.is_symmetric(a + a.T)
        assert linalg.is_antisymmetric(a - a.T)
        assert linalg.is_real(a.real)
        assert linalg.is_imaginary(1j * a.real)
