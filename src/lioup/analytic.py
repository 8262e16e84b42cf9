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


def alpha(omega, j):
    """alpha_1 = Omega + i sqrt(2 J^2 - Omega^2), principal branch."""
    return omega + 1j * _branch_sqrt(2 * j ** 2 - omega ** 2)


def fixed_six(omega, j):
    """The six hybrid-spectrum eigenvalues that do not depend on q."""
    a1 = alpha(omega, j)
    a1s = omega - 1j * _branch_sqrt(2 * j ** 2 - omega ** 2)
    return np.array([0.0, -2.0 * omega, -a1s, -a1s, -a1, -a1])


def _cubic(omega, j2, q):
    # phi, nu and nu^2 + phi^3 of jump_coupled_three's cubic, at j2 = J^2
    phi = 54.0 * j2 + omega ** 2 * (-4.0 * q ** 2 + 18.0 * q - 27.0)
    nu = omega * q * (324.0 * j2 + omega ** 2 * (8.0 * q ** 2 - 54.0 * q + 81.0))
    return phi, nu, nu ** 2 + phi ** 3


def jump_coupled_three(omega, j, q):
    """The three q-dependent hybrid eigenvalues, solved in radicals.

    They are 2/9 * (t_k + Omega (2q - 9)) where the t_k solve
    t^3 + 3 phi t - 2 nu = 0 with
    phi = 54 J^2 + Omega^2 (-4q^2 + 18q - 27) and
    nu  = Omega q (324 J^2 + Omega^2 (8q^2 - 54q + 81)).
    """
    phi, nu, discriminant = _cubic(omega, j ** 2, q)
    zeta = _branch_sqrt(discriminant) + nu
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


def jump_coupled_ep(omega, q):
    """J*(q), where two jump-coupled eigenvalues coalesce, for 0 < q <= 1: the
    root of nu^2 + phi^3, a cubic in J^2 whose ends [0, Omega^2 / 2] differ in
    sign, and one Newton step on the unexpanded cubic, which rounds less."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], not {q}")
    c = _cubic(omega, np.polynomial.Polynomial([0.0, 1.0]), q)[2]
    x = next(r.real for r in c.roots() if r.imag == 0 and 0 <= r.real <= omega ** 2 / 2)
    return float(np.sqrt(x - _cubic(omega, x, q)[2] / c.deriv()(x)))


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
