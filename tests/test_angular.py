import math

import numpy as np
import pytest

from lioup.model import spin_ops, wigner3j

MOMENTA = range(4)  # 0, 1, 2, 3


def projections(j):
    return range(-j, j + 1)


def valid_triples():
    for j1 in MOMENTA:
        for j2 in MOMENTA:
            for j3 in MOMENTA:
                if abs(j1 - j2) <= j3 <= j1 + j2:
                    yield j1, j2, j3


class TestWigner3j:
    def test_contraction_with_zero_momentum(self):
        for m in (-1, 0, 1):
            val = wigner3j(1, 1, 0, -m, m, 0)
            assert abs(abs(val) - 1 / math.sqrt(3)) < 1e-15

    def test_odd_parity_with_zero_projections(self):
        assert wigner3j(1, 1, 1, 0, 0, 0) == 0.0

    def test_selection_rules_return_zero(self):
        assert wigner3j(1, 1, 0, 1, 0, 0) == 0.0  # projection sum violation
        assert wigner3j(2, 0, 1, 0, 0, 0) == 0.0  # triangle violation

    def test_invalid_projection_raises(self):
        with pytest.raises(ValueError):
            wigner3j(1, 1, 0, 2, -2, 0)
        with pytest.raises(ValueError, match="not an integer"):
            wigner3j(0.5, 0.5, 1, 0.5, -0.5, 0)

    def test_negative_momentum_raises(self):
        with pytest.raises(ValueError, match="negative angular momentum"):
            wigner3j(-1, 1, 0, 0, 0, 0)

    def test_squared_sum_rule(self):
        # sum over polarization and ground projection at fixed excited state
        for f, F in ((1, 0), (1, 1), (1, 2), (2, 1)):
            for M in projections(F):
                total = 0.0
                for eps in (-1, 0, 1):
                    for m in projections(f):
                        total += wigner3j(f, 1, F, -m, eps, M) ** 2
                assert abs(total - 1.0 / (2 * F + 1)) < 1e-14

    def test_against_sympy_oracle(self, rng):
        from sympy import Rational
        from sympy.physics.wigner import wigner_3j

        combos = []
        for j1, j2, j3 in valid_triples():
            for m1 in projections(j1):
                for m2 in projections(j2):
                    m3 = -(m1 + m2)
                    if abs(m3) <= j3:
                        combos.append((j1, j2, j3, m1, m2, m3))
        picks = rng.choice(len(combos), size=min(250, len(combos)), replace=False)
        for k in picks:
            j1, j2, j3, m1, m2, m3 = combos[k]
            mine = wigner3j(j1, j2, j3, m1, m2, m3)
            ref = float(wigner_3j(*(Rational(x) for x in combos[k])))
            assert abs(mine - ref) <= 1e-15 * max(1.0, abs(ref))

    def test_column_permutation_symmetry(self):
        for j1, j2, j3 in valid_triples():
            sign = (-1) ** (j1 + j2 + j3)
            for m1 in projections(j1):
                for m2 in projections(j2):
                    m3 = -(m1 + m2)
                    if abs(m3) > j3:
                        continue
                    base = wigner3j(j1, j2, j3, m1, m2, m3)
                    even = wigner3j(j2, j3, j1, m2, m3, m1)
                    odd = wigner3j(j2, j1, j3, m2, m1, m3)
                    flip = wigner3j(j1, j2, j3, -m1, -m2, -m3)
                    assert abs(even - base) < 1e-14
                    assert abs(odd - sign * base) < 1e-14
                    assert abs(flip - sign * base) < 1e-14

    def test_orthogonality(self):
        # sum_{m1 m2} (2 j3 + 1) 3j(j1 j2 j3; m1 m2 m3) 3j(j1 j2 j3'; m1 m2 m3')
        # = delta_j3j3' delta_m3m3', as W W^T = 1 with one row per (j3, m3)
        for j1 in MOMENTA:
            for j2 in MOMENTA:
                rows = [(j3, m3) for j3 in range(abs(j1 - j2), j1 + j2 + 1)
                        for m3 in projections(j3)]
                w = np.array([[math.sqrt(2 * j3 + 1) * wigner3j(j1, j2, j3, m1, m2, m3)
                               for m1 in projections(j1) for m2 in projections(j2)]
                              for j3, m3 in rows])
                assert np.abs(w @ w.T - np.eye(len(rows))).max() < 1e-13


class TestSpinOps:
    def test_f1_matrices(self):
        fx, fy, fz = spin_ops()
        assert np.allclose(fz, np.diag([1.0, 0.0, -1.0]))
        s = 1 / math.sqrt(2)
        assert np.allclose(fx, np.array([[0, s, 0], [s, 0, s], [0, s, 0]]))

    def test_commutation_and_casimir(self):
        fx, fy, fz = spin_ops()
        assert np.abs(fx @ fy - fy @ fx - 1j * fz).max() < 1e-12
        assert np.abs(fy @ fz - fz @ fy - 1j * fx).max() < 1e-12
        assert np.abs(fz @ fx - fx @ fz - 1j * fy).max() < 1e-12
        casimir = fx @ fx + fy @ fy + fz @ fz
        assert np.abs(casimir - 2.0 * np.eye(3)).max() < 1e-12

    def test_ground_hamiltonian_pattern(self):
        # -delta Fz + J sqrt(2) Fx carries plain J on the off-diagonals
        j, delta = 7.0, 0.0
        fx, _, fz = spin_ops()
        hg = -delta * fz + j * math.sqrt(2) * fx
        assert np.allclose(hg, np.array([[0, j, 0], [j, 0, j], [0, j, 0]]))
