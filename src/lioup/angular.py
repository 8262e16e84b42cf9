"""Angular-momentum utilities: Wigner 3j symbols and spin-f matrices.

The 3j symbol is evaluated from the Racah sum with exact integer arithmetic
(python ints / fractions), so the only rounding happens in the final
conversion to float.  These values seed every jump operator in the model, so
cancellation inside the alternating sum is not acceptable.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True, order=True)
class HalfInteger:
    """Angular momentum or projection stored exactly as twice its value."""

    twice: int

    @classmethod
    def of(cls, x):
        if isinstance(x, HalfInteger):
            return x
        if isinstance(x, int):
            return cls(2 * x)
        t = 2 * x
        r = round(t)
        if abs(t - r) > 1e-9:
            raise ValueError(f"{x!r} is not a half-integer")
        return cls(int(r))

    def __repr__(self):
        return f"{self.twice}/2" if self.twice % 2 else str(self.twice // 2)


def _twice(x):
    return HalfInteger.of(x).twice


def _check_projection(tj, tm, name):
    if abs(tm) > tj:
        raise ValueError(f"projection |{name}| exceeds its angular momentum")
    if (tj - tm) % 2:
        raise ValueError(f"projection {name} has wrong parity for its angular momentum")


def _fact2(twice_n):
    # factorial of an integer given as twice its (even) value
    if twice_n % 2:
        raise ValueError("non-integer factorial argument")
    n = twice_n // 2
    if n < 0:
        raise ValueError("negative factorial argument")
    return math.factorial(n)


def wigner3j(j1, j2, j3, m1, m2, m3):
    """Wigner 3j symbol (j1 j2 j3; m1 m2 m3), exact Racah evaluation.

    Selection-rule violations (projection sum, triangle) return 0.0 by
    convention.  Invalid projections (|m| > j or wrong parity) raise.
    """
    tj1, tj2, tj3 = _twice(j1), _twice(j2), _twice(j3)
    tm1, tm2, tm3 = _twice(m1), _twice(m2), _twice(m3)
    if min(tj1, tj2, tj3) < 0:
        raise ValueError("negative angular momentum")
    for tj, tm, name in ((tj1, tm1, "m1"), (tj2, tm2, "m2"), (tj3, tm3, "m3")):
        _check_projection(tj, tm, name)
    if tm1 + tm2 + tm3 != 0:
        return 0.0
    if tj3 > tj1 + tj2 or tj3 < abs(tj1 - tj2) or (tj1 + tj2 + tj3) % 2:
        return 0.0

    # triangle coefficient and projection factorials, all exact
    delta = Fraction(
        _fact2(tj1 + tj2 - tj3) * _fact2(tj1 - tj2 + tj3) * _fact2(-tj1 + tj2 + tj3),
        _fact2(tj1 + tj2 + tj3 + 2),
    )
    pi = (
        _fact2(tj1 + tm1) * _fact2(tj1 - tm1)
        * _fact2(tj2 + tm2) * _fact2(tj2 - tm2)
        * _fact2(tj3 + tm3) * _fact2(tj3 - tm3)
    )

    t_min = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    t_max = min((tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for t in range(t_min, t_max + 1):
        denom = (
            math.factorial(t)
            * _fact2(tj1 + tj2 - tj3 - 2 * t)
            * _fact2(tj1 - tm1 - 2 * t)
            * _fact2(tj2 + tm2 - 2 * t)
            * _fact2(tj3 - tj2 + tm1 + 2 * t)
            * _fact2(tj3 - tj1 - tm2 + 2 * t)
        )
        total += Fraction((-1) ** t, denom)
    if total == 0:
        return 0.0

    # value = phase * sign(total) * sqrt(delta * pi * total^2); single rounding
    phase = -1 if ((tj1 - tj2 - tm3) // 2) % 2 else 1
    sign = 1 if total > 0 else -1
    mag2 = delta * pi * total * total
    return phase * sign * math.sqrt(float(mag2))


def spin_ops(f):
    """Standard spin-f matrices (Fx, Fy, Fz) in the |f, m> basis, m = f..-f."""
    tf = _twice(f)
    if tf < 0:
        raise ValueError("f must be non-negative")
    n = tf + 1
    ms = np.array([(tf - 2 * k) / 2.0 for k in range(n)])  # f, f-1, ..., -f
    fz = np.diag(ms).astype(complex)
    fp = np.zeros((n, n), dtype=complex)
    ff = tf / 2.0
    for k in range(1, n):
        m = ms[k]  # raising |f, m> -> |f, m+1>, target row k-1
        fp[k - 1, k] = math.sqrt(ff * (ff + 1) - m * (m + 1))
    fm = fp.conj().T
    fx = (fp + fm) / 2.0
    fy = (fp - fm) / 2.0j
    return fx, fy, fz
