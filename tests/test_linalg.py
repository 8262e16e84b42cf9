import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lioup import linalg, model, spectra, superop

from conftest import h_nh_detuned, h_nh_tuned, model_params


def random_complex(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def cubic_roots(c2, c1, c0):
    """Roots of the monic cubic x^3 + c2 x^2 + c1 x + c0, sorted by (re, im).

    Closed-form (Cardano) solution; the cube-root branch is picked with the
    larger magnitude so the subtraction p/(3u) never cancels catastrophically.
    """
    c2, c1, c0 = complex(c2), complex(c1), complex(c0)
    # depressed cubic t^3 + p t + q with x = t - c2/3
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * c2 ** 3 / 27.0 - c2 * c1 / 3.0 + c0
    shift = -c2 / 3.0
    if p == 0 and q == 0:
        roots = np.array([shift, shift, shift])
    else:
        disc = np.sqrt(0.25 * q * q + p ** 3 / 27.0 + 0j)
        u3a = -0.5 * q + disc
        u3b = -0.5 * q - disc
        u3 = u3a if abs(u3a) >= abs(u3b) else u3b
        u = u3 ** (1.0 / 3.0)
        omega = np.exp(2j * np.pi / 3.0)
        roots = []
        for k in range(3):
            uk = u * omega ** k
            roots.append(uk - p / (3.0 * uk) + shift)
        roots = np.array(roots)
    return roots[np.lexsort((roots.imag, roots.real))]


def characteristic_cubic(omega, j, delta):
    """Monic-cubic coefficients (c2, c1, c0) of the detuned NHH spectrum.

    x^3 + 2i*Omega x^2 - (2J^2 + delta^2) x - 2i*Omega*delta^2 = 0.  The
    delta^2 power of the constant term is fixed by expanding
    det(h_nh_detuned - x) and by the triple-point conditions it implies.
    """
    return (2j * omega, -(2 * j ** 2 + delta ** 2), -2j * omega * delta ** 2)


class TestEig:
    def test_identity(self):
        values, _ = linalg.eig(np.eye(2))
        assert np.allclose(values, [1.0, 1.0])

    def test_jordan_block_parallel_vectors(self):
        values, v = linalg.eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(values, [0.0, 0.0], atol=1e-12)
        overlap = abs(np.vdot(v[:, 0], v[:, 1]))
        assert overlap > 1 - 1e-6

    def test_pair_coalescence_at_critical_drive(self):
        omega = 30.0
        h = h_nh_tuned(omega, omega / np.sqrt(2.0))
        ev = linalg.eigvals(h)
        nonzero = sorted(ev, key=abs)[1:]
        assert all(abs(z + 30j) < 1e-5 for z in nonzero)

    def test_residuals_bounded(self, rng):
        for n in (3, 6, 9):
            a = random_complex(rng, n)
            values, v = linalg.eig(a)
            residuals = np.linalg.norm(a @ v - v * values, axis=0)
            assert residuals.max() <= 1e-9 * np.linalg.norm(a)

    def test_reconstruction(self, rng):
        a = random_complex(rng, 6)
        values, v = linalg.eig(a)
        rebuilt = v @ np.diag(values) @ np.linalg.inv(v)
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

    @pytest.mark.parametrize("d", [3, 9, 16])
    def test_real_stack_is_bitwise_the_per_matrix_result(self, rng, d):
        stack = rng.normal(size=(40, d, d))
        got = linalg.eigvals(stack)
        assert got.dtype == complex
        for w, a in zip(got, stack):
            assert np.array_equal(w, linalg.eigvals(a))

    @pytest.mark.parametrize("name", ["eff3", "full4"])
    def test_real_solve_gives_exact_conjugate_pairs(self, rng, name):
        p = model.ModelParams(omega=30.0, j=17.0, delta_rf=3.0, delta_opt=50.0,
                              gamma_sp=1e4, gamma_g=0.5, q=0.4)
        m = superop.generator(name).matrices(p)[0]
        stack = np.array([m] + [rng.normal(size=m.shape) for _ in range(5)])
        assert stack.dtype == np.float64
        for a, w in zip(stack, linalg.eigvals(stack)):
            assert np.array_equal(np.sort_complex(w), np.sort_complex(w.conj()))
            w_eig = linalg.eig(a)[0]
            assert np.array_equal(np.sort_complex(w_eig), np.sort_complex(w_eig.conj()))
            w_complex = linalg.eigvals(a.astype(complex))
            assert spectra.match_distance(w, w_complex) <= 1e-12 * np.abs(w).max()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=model_params(), name=st.sampled_from(["eff3", "full4"]))
    def test_eig_values_are_the_eigvals_bits(self, p, name):
        m = superop.generator(name).matrices(p)[0]
        assert m.dtype == np.float64
        assert np.array_equal(linalg.eig(m)[0], linalg.eigvals(m))

    def test_other_dtypes_are_solved_as_complex(self):
        a = np.array([[0, 1], [-1, 0]], dtype=np.int64)
        as_complex = linalg.eigvals(a.astype(complex))
        assert np.array_equal(linalg.eigvals(a), as_complex)
        assert np.array_equal(linalg.eigvals(a.astype(np.float32)[None])[0],
                              as_complex)

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

    def test_eig_and_expm_take_one_matrix(self):
        for f in (linalg.eig, linalg.expm):
            with pytest.raises(ValueError):
                f(np.zeros((2, 3, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            linalg.eig(np.array([[np.nan, 0], [0, 1.0]]))


class TestSvdRank:
    def test_shifted_operator_at_triple_point(self):
        omega = 30.0
        j, d, e_tp = model.triple_point(omega)
        h = h_nh_detuned(omega, j, d)
        assert np.linalg.matrix_rank(h - e_tp * np.eye(3), rtol=1e-7) == 2


class TestKron:
    def test_commutator_kron_spectrum_is_pairwise_differences(self):
        p = model.ModelParams(omega=30.0, j=10.0, delta_rf=3.0, delta_opt=2.0,
                              gamma_sp=100.0)
        h = model.build_full4_rwa(p).hamiltonian
        big = np.kron(h, np.eye(4)) - np.kron(np.eye(4), h.T)
        ev = linalg.eigvals(h)
        pairs = np.array([ei - ej for ei in ev for ej in ev])
        assert spectra.match_distance(linalg.eigvals(big), pairs) < 1e-10


class TestExpm:
    def test_zero(self):
        assert np.allclose(linalg.expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = linalg.expm(np.diag([-1.0, -2.0]).astype(complex))
        assert np.allclose(out, np.diag([np.exp(-1.0), np.exp(-2.0)]))

    def test_real_input_stays_real(self, rng):
        a = rng.normal(size=(9, 9))
        out = linalg.expm(a)
        assert out.dtype == np.float64
        as_complex = linalg.expm(a.astype(complex))
        assert np.abs(out - as_complex).max() <= 1e-12 * np.abs(out).max()

    def test_inverse_pairing(self, rng):
        a = random_complex(rng, 4)
        a *= 5.0 / np.linalg.norm(a)
        assert np.abs(linalg.expm(a) @ linalg.expm(-a) - np.eye(4)).max() < 1e-9

    def test_against_eigen_expansion(self, rng):
        p = model.ModelParams(omega=30.0, j=10.0, q=1.0)
        l = superop.hybrid_liouvillian(model.build_eff3(p), 1.0)
        r = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho0 = r @ r.conj().T
        rho0 /= np.trace(rho0)
        v0 = superop.vectorize(rho0)
        t = 0.1
        via_expm = linalg.expm(l * t) @ v0
        values, v = linalg.eig(l)
        coeff = np.linalg.solve(v, v0)
        via_eig = v @ (coeff * np.exp(values * t))
        assert np.abs(via_expm - via_eig).max() < 1e-10

    def test_one_norm_beyond_float_range(self):
        # l t is finite but its column sums are not; s still comes out (1020
        # squarings), and exp(l t) of this trace-preserving generator maps
        # every state to the stationary one
        p = model.ModelParams(omega=30.0, j=25.0, q=1.0)
        l = superop.generator("eff3").matrices(p)[0]
        a = l * 2.9e306
        with np.errstate(over="ignore"):
            assert np.isfinite(a).all() and np.isinf(np.abs(a).sum(axis=0)).any()
        values, vecs = linalg.eig(l)
        stat = vecs[:, np.argmin(np.abs(values))].real
        stat /= stat[-1] / superop.vectorize(np.eye(3) / 3.0)[-1].real
        v0 = superop.vectorize(np.diag([0.2, 0.5, 0.3])).real
        assert np.abs(linalg.expm(a) @ v0 - stat).max() < 1e-6

    @pytest.mark.parametrize("t", [1e4, 1e5, 1e7])
    def test_long_times_reach_the_stationary_state(self, t):
        # 29 to 39 squarings, which multiply a rounding error in the trace
        # row of the Pade approximant by 2^s; scaled to theta13 instead of
        # theta13 / 2, the state ended 2.1e-8 to 2.2e-5 away
        p = model.ModelParams(omega=30.0, j=10.0, delta_rf=3.0, delta_opt=100.0,
                              gamma_sp=1e5, q=1.0)
        l = superop.generator("full4").matrices(p)[0]
        values, vecs = linalg.eig(l)
        v0 = superop.vectorize(np.eye(4) / 4.0).real
        stat = vecs[:, np.argmin(np.abs(values))].real
        stat /= stat[-1] / v0[-1]
        assert np.abs(linalg.expm(l * t) @ v0 - stat).max() < 1e-10

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(name=st.sampled_from(["eff3", "full4"]), omega=st.floats(5.0, 50.0),
           j=st.floats(0.0, 50.0), delta_rf=st.floats(-50.0, 50.0),
           delta_opt=st.floats(-1000.0, 1000.0), log_gamma_sp=st.floats(3.0, 6.0),
           gamma_g=st.floats(0.0, 10.0), omega_t=st.floats(0.5, 5.0))
    def test_matches_scipy_on_model_propagators(self, name, omega, j, delta_rf,
                                                delta_opt, log_gamma_sp, gamma_g,
                                                omega_t):
        import scipy.linalg

        p = model.ModelParams(omega=omega, j=j, delta_rf=delta_rf, delta_opt=delta_opt,
                              gamma_sp=10.0 ** log_gamma_sp, gamma_g=gamma_g, q=1.0)
        a = superop.generator(name).matrices(p)[0] * (omega_t / omega)
        assert np.abs(linalg.expm(a) - scipy.linalg.expm(a)).max() < 1e-11

    def test_default_gamma_sp_matches_extended_precision(self):
        # full4 at the D2 line's gamma_sp ~ 3.6e7, t = 1: ||l||_1 ~ 3.6e7, so
        # 23 squarings; the propagator is within 3.7e-10 of a 40-digit
        # mpmath.expm (scipy's expm: 3.9e-10)
        import mpmath

        l = superop.generator("full4").matrices(model.ModelParams(omega=30.0, j=10.0))[0]
        with mpmath.workdps(40):
            want = np.array(mpmath.expm(mpmath.matrix(l.tolist())).tolist(), dtype=float)
        assert np.abs(linalg.expm(l) - want).max() < 1e-9


class TestCubicRoots:
    def test_triple_zero(self):
        assert np.allclose(cubic_roots(0, 0, 0), [0, 0, 0])

    def test_distinct_real(self):
        # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
        roots = cubic_roots(-6.0, 11.0, -6.0)
        assert np.allclose(np.sort(roots.real), [1, 2, 3], atol=1e-10)
        assert np.abs(roots.imag).max() < 1e-10

    def test_detuned_characteristic_cubic_at_triple_point(self):
        omega = 30.0
        _, d, e_tp = model.triple_point(omega)
        j = 4.0 * omega / (3.0 * np.sqrt(3.0))
        roots = cubic_roots(*characteristic_cubic(omega, j, d))
        # a triple root responds to coefficient rounding with its cube root
        assert np.abs(roots - e_tp).max() < 5e-4
        assert abs(roots.mean() - e_tp) < 1e-9

    def test_matches_operator_spectrum(self, rng):
        for _ in range(10):
            omega, j, d = rng.uniform(1, 50, size=3)
            roots = cubic_roots(*characteristic_cubic(omega, j, d))
            ev = linalg.eigvals(h_nh_detuned(omega, j, d))
            assert spectra.match_distance(roots, ev) < 1e-8 * max(np.abs(ev).max(), 1)

    def test_symmetric_functions_reproduce_coefficients(self, rng):
        for _ in range(25):
            c2, c1, c0 = (complex(*rng.normal(scale=3, size=2)) for _ in range(3))
            r = cubic_roots(c2, c1, c0)
            scale = max(abs(c2), abs(c1), abs(c0), 1.0)
            assert abs(-(r[0] + r[1] + r[2]) - c2) < 1e-8 * scale
            assert abs(r[0] * r[1] + r[0] * r[2] + r[1] * r[2] - c1) < 1e-8 * scale
            assert abs(-(r[0] * r[1] * r[2]) - c0) < 1e-8 * scale

    def test_residuals_small(self, rng):
        for _ in range(25):
            c2, c1, c0 = (complex(*rng.normal(scale=2, size=2)) for _ in range(3))
            scale = max(abs(c2), abs(c1), abs(c0), 1.0)
            for r in cubic_roots(c2, c1, c0):
                assert abs(r ** 3 + c2 * r ** 2 + c1 * r + c0) <= 1e-8 * scale

