"""Closed-form reference spectra of the resonant effective three-level model.

These expressions serve as independent oracles for the numerically assembled
generators: the jump-free superoperator spectrum, and the full hybrid
spectrum whose three jump-coupled eigenvalues are the roots of a real cubic
solved in radicals.
"""

import numpy as np


def _branch_sqrt(x):
    # principal complex square root, used consistently so the two "conjugate"
    # branches stay distinct when the radicand turns negative
    return np.sqrt(complex(x))


def alpha(omega, j, n=1):
    """alpha_n = Omega + i n sqrt(2 J^2 - Omega^2), principal branch."""
    return omega + 1j * n * _branch_sqrt(2 * j ** 2 - omega ** 2)


def fixed_six(omega, j):
    """The six hybrid-spectrum eigenvalues that do not depend on q."""
    a1 = alpha(omega, j)
    a1s = omega - 1j * _branch_sqrt(2 * j ** 2 - omega ** 2)
    return np.array([0.0, -2.0 * omega, -a1s, -a1s, -a1, -a1])


def jump_coupled_three(omega, j, q):
    """The three q-dependent hybrid eigenvalues, solved in radicals.

    They are 2/9 * (t_k + Omega (2q - 9)) where the t_k solve
    t^3 + 3 phi t - 2 nu = 0 with
    phi = 54 J^2 + Omega^2 (-4q^2 + 18q - 27) and
    nu  = Omega q (324 J^2 + Omega^2 (8q^2 - 54q + 81)).
    """
    phi = 54.0 * j ** 2 + omega ** 2 * (-4.0 * q ** 2 + 18.0 * q - 27.0)
    nu = omega * q * (324.0 * j ** 2 + omega ** 2 * (8.0 * q ** 2 - 54.0 * q + 81.0))
    zeta = _branch_sqrt(nu ** 2 + phi ** 3) + nu
    c = omega * (2.0 * q - 9.0)
    if zeta == 0:
        ts = np.zeros(3, dtype=complex)
    else:
        z = zeta ** (1.0 / 3.0)
        r3 = 1j * np.sqrt(3.0)
        ts = np.array([
            z - phi / z,
            phi / z * (1 + r3) / 2 - z * (1 - r3) / 2,
            phi / z * (1 - r3) / 2 - z * (1 + r3) / 2,
        ])
    return (2.0 / 9.0) * (ts + c)


def hybrid_spectrum(omega, j, q):
    """All nine eigenvalues of the resonant hybrid Liouvillian."""
    return np.concatenate([fixed_six(omega, j), jump_coupled_three(omega, j, q)])


def nhh_superop_spectrum(omega, j):
    """Jump-free (q = 0) superoperator spectrum:
    {0, -2Om, -a1*, -a1*, -a1, -a1, -2a1, -2a1*, -2Om}."""
    a1 = alpha(omega, j)
    a1s = omega - 1j * _branch_sqrt(2 * j ** 2 - omega ** 2)
    return np.array([0.0, -2 * omega, -a1s, -a1s, -a1, -a1,
                     -2 * a1, -2 * a1s, -2 * omega])
