"""Builders for the driven, dissipative alkali-vapor model.

Basis conventions used throughout:

* ground manifold ordered by decreasing projection, |1,1>, |1,0>, |1,-1>;
  the excited state |0,0> is appended last in four-level matrices;
* the RF and optical couplings stored in ModelParams are the rotating-frame
  values (the J/2 -> J, Omega_R/2 -> Omega_R rescaling is already applied),
  so the builders carry plain J and Omega_R entries; the oscillating
  couplings of the lab frame are twice these values;
* in the detuned ground block the RF detuning enters as diag(-delta, 0,
  +delta).  Spectra are invariant under delta -> -delta, the state reversal
  |1,1> <-> |1,-1>, which maps this convention onto the mirrored
  diag(+delta, 0, -delta) of the detuned-regime analyses.

All rates and frequencies are plain angular frequencies in one shared unit.
Every builder, the effective reduction included, returns a LindbladSystem
for superop's one Kronecker assembly of L(q); a jump set is a tuple of d x d
arrays, in the order each builder documents.  The effective reduction
replaces each decay jump by its reduced form and passes the jumps that act
only inside the ground block through, so `build_eff3` is the reduction of
`build_full4_rwa`.
"""

import dataclasses
import functools
import itertools
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .angular import HalfInteger, spin_ops, wigner3j

# Excited-state linewidth of the 87Rb D2 line (f=1 -> F=0), the default
# spontaneous rate when only the reduced Rabi frequency is specified.
GAMMA_D2 = 2 * math.pi * 5.7e6


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of one model instance.

    Exactly one of (omega, omega_r) may be omitted; the other is derived
    from omega = omega_r**2 / gamma_sp.
    """

    j: float = 0.0
    omega: float | None = None
    omega_r: float | None = None
    delta_rf: float = 0.0
    delta_opt: float = 0.0
    gamma_sp: float = GAMMA_D2
    gamma_g: float = 0.0
    q: float = 1.0

    def __post_init__(self):
        if self.gamma_sp <= 0:
            raise ValueError("gamma_sp must be positive")
        if self.gamma_g < 0:
            raise ValueError("gamma_g must be non-negative")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        if self.j < 0:
            raise ValueError("j must be non-negative")
        if self.omega is None and self.omega_r is None:
            raise ValueError("provide omega or omega_r")
        if self.omega_r is not None:
            from_r = self.omega_r * self.omega_r / self.gamma_sp
        if self.omega is None:
            object.__setattr__(self, "omega", from_r)
        elif self.omega_r is None:
            object.__setattr__(self, "omega_r", math.sqrt(self.omega * self.gamma_sp))
        elif abs(self.omega - from_r) > 1e-9 * max(abs(self.omega), 1.0):
            raise ValueError(
                f"omega={self.omega} inconsistent with omega_r^2/gamma_sp={from_r}"
            )
        for name, value in vars(self).items():  # the fields, in order
            if not math.isfinite(value):
                raise ValueError(f"{name} is not finite")

    def replace(self, **kw):
        """Copy with fields replaced; omega/omega_r stay mutually consistent.

        Replacing one of the pair re-derives the other (with the new
        gamma_sp, if that is replaced too).
        """
        if "omega" in kw and "omega_r" not in kw:
            kw["omega_r"] = None
        elif "omega_r" in kw and "omega" not in kw:
            kw["omega"] = None
        return dataclasses.replace(self, **kw)


def check_box(p: ModelParams, box):
    """Raise ValueError unless p at every corner of `box`, a map of fields
    to (lo, hi), is valid; each field's domain is an interval, so then the
    whole box is."""
    for ends in itertools.product(*box.values()):
        corner = dict(zip(box, ends))
        try:
            p.replace(**corner)
        except ValueError as exc:
            raise ValueError(f"invalid params at {corner}: {exc}") from exc


@dataclass(frozen=True)
class LindbladSystem:
    """A Hermitian Hamiltonian plus a tuple of d x d jump operators, d = dim."""

    dim: int
    hamiltonian: np.ndarray
    jumps: tuple = ()

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.shape != (self.dim, self.dim):
            raise ValueError("hamiltonian has wrong shape")
        if not np.isfinite(h).all():
            raise ValueError("hamiltonian has non-finite entries")
        object.__setattr__(self, "hamiltonian", h)
        ops = []
        for k, op in enumerate(self.jumps):
            op = np.asarray(op, dtype=complex)
            if op.shape != (self.dim, self.dim):
                raise ValueError(f"jump {k} has wrong shape")
            ops.append(op)
        object.__setattr__(self, "jumps", tuple(ops))
        scale = max(np.linalg.norm(h), 1.0)
        if np.linalg.norm(h - h.conj().T) > 1e-12 * scale:
            raise ValueError("hamiltonian is not Hermitian")

    def h_nh(self):
        """Non-Hermitian Hamiltonian H - (i/2) sum L^dag L."""
        g = sum((op.conj().T @ op for op in self.jumps),
                np.zeros((self.dim, self.dim), dtype=complex))
        return self.hamiltonian - 0.5j * g


def _phase_to_i(op):
    # multiply by a unit phase so the first nonzero entry is +i * positive
    flat = op.ravel()
    idx = np.flatnonzero(np.abs(flat) > 0)
    if idx.size == 0:
        return op
    c = flat[idx[0]]
    return op * (1j * abs(c) / c)


def build_spont_jumps(f, F, gamma_sp):
    """Spontaneous-emission jump operators for an f -> F transition.

    Returns three block operators of dimension (2f+1)+(2F+1), ordered by the
    polarization label eps = +1, 0, -1; basis is ground m = f..-f followed by
    excited M = F..-F.

    The operator of label eps is sqrt(Gamma) * sum_mM 3j(f,1,F; -m,-eps,M)
    |f m><F M|, with its global phase fixed so the leading entry is +i *
    positive; for f=1 -> F=0 this is the explicit i*sqrt(Gamma/3)|1,-eps><0,0|
    form.  Global per-operator phases do not affect relaxation, repopulation,
    or any spectrum.

    The returned arrays are read-only.
    """
    f = HalfInteger.of(f)
    F = HalfInteger.of(F)
    if abs(f.twice - F.twice) > 2:
        raise ValueError("transition forbidden: |f - F| must be <= 1")
    ops = math.sqrt(gamma_sp) * _unit_spont_jumps(f, F)
    ops.flags.writeable = False
    return list(ops)


@functools.lru_cache(maxsize=None)
def _unit_spont_jumps(f, F):
    # exact 3j symbols are slow; they depend only on (f, F)
    ng, ne = f.twice + 1, F.twice + 1
    ops = np.zeros((3, ng + ne, ng + ne), dtype=complex)
    for op, eps in zip(ops, (-1, 0, 1)):
        for i in range(ng):
            for k in range(ne):
                op[i, ng + k] = wigner3j(f, 1, F, HalfInteger(2 * i - f.twice), eps,
                                         HalfInteger(F.twice - 2 * k))
    ops = np.array([_phase_to_i(op) for op in ops])
    ops.flags.writeable = False
    return ops


def build_ground_relaxation(gamma_g):
    """Nine isotropic ground-relaxation jumps sqrt(gamma/3) |1m><1n|, 3x3.

    Ordered by m, then n, each running over 1, 0, -1.
    """
    if gamma_g < 0:
        raise ValueError("gamma_g must be non-negative")
    ops = []
    amp = math.sqrt(gamma_g / 3.0)
    for m in range(3):
        for n in range(3):
            op = np.zeros((3, 3), dtype=complex)
            op[m, n] = amp
            ops.append(op)
    return ops


def _embed_ground(op3):
    out = np.zeros((4, 4), dtype=complex)
    out[:3, :3] = op3
    return out


def build_full4_rwa(p: ModelParams) -> LindbladSystem:
    """Four-level rotating-frame system in basis (|1,1>, |1,0>, |1,-1>, |0,0>).

    Hamiltonian [[-d, J, 0, 0], [J, 0, J, -Or], [0, J, d, 0], [0, -Or, 0, -D]].
    The jumps are the three spontaneous-emission operators, eps = +1, 0, -1,
    then, if gamma_g > 0, the nine ground-relaxation operators of
    `build_ground_relaxation` embedded in the 4-dimensional space.
    """
    d, D, J, Or = p.delta_rf, p.delta_opt, p.j, p.omega_r
    fx, _, fz = spin_ops(1)
    h = np.zeros((4, 4), dtype=complex)
    h[:3, :3] = -d * fz + J * math.sqrt(2.0) * fx  # ground block
    h[1, 3] = h[3, 1] = -Or
    h[3, 3] = -D
    jumps = build_spont_jumps(1, 0, p.gamma_sp)
    if p.gamma_g > 0:
        jumps += [_embed_ground(op) for op in build_ground_relaxation(p.gamma_g)]
    return LindbladSystem(dim=4, hamiltonian=h, jumps=tuple(jumps))


def _warn_unless_fast_decay(v):
    # v maps fields to numbers or to arrays along the points.  Each point is
    # checked on its own, and one warning covers them all, naming the point
    # where gamma_sp exceeds ten times its largest ground scale by the least
    scale = np.maximum(np.maximum(v["j"], np.abs(v["delta_rf"])), v["omega"])
    slack = np.ravel(v["gamma_sp"] - 10.0 * scale)
    worst = slack.argmin()
    if slack[worst] < 0.0:
        gamma_sp, scale = (np.broadcast_to(x, slack.shape)[worst]
                           for x in (v["gamma_sp"], scale))
        warnings.warn(
            "effective reduction assumes gamma_sp to dominate ground-state "
            f"scales (gamma_sp={gamma_sp:g}, max ground scale={scale:g})",
            stacklevel=3,
        )


def _check_excited_nhh(abs_h_e):
    if abs_h_e < 1e-300:
        raise ValueError("excited-state NHH is singular (gamma_sp = delta_opt = 0)")


def reduce_effective(sys4: LindbladSystem, p: ModelParams) -> LindbladSystem:
    """Eliminate the fast excited state via the effective-operator reduction.

    Implemented for a one-dimensional excited manifold (F=0): the last basis
    state decays at gamma_sp, everything before it is ground.  Returns the
    ground system with one reduced jump per decay jump, then each jump that
    acts only inside the ground block, restricted to it; any other jump has
    an excited-block part and is left out.
    """
    ngr = sys4.dim - 1
    h = sys4.hamiltonian
    _warn_unless_fast_decay(vars(p))

    h_g = h[:ngr, :ngr]
    h_e = h[ngr:, ngr:]
    v_plus = h[ngr:, :ngr]
    v_minus = v_plus.conj().T

    spont, ground = [], []
    for op in sys4.jumps:
        if not (op[:ngr, :ngr].any() or op[ngr:, ngr:].any()):
            spont.append(op)
        elif not (op[:ngr, ngr:].any() or op[ngr:, :].any()):
            ground.append(op[:ngr, :ngr])
    g_e = sum((op.conj().T @ op for op in spont),
              np.zeros((sys4.dim, sys4.dim), dtype=complex))[ngr:, ngr:]
    h_enh = h_e - 0.5j * g_e
    _check_excited_nhh(abs(h_enh[0, 0]))
    h_enh_inv = np.linalg.inv(h_enh)

    h_eff = h_g - 0.5 * (v_minus @ (h_enh_inv + h_enh_inv.conj().T) @ v_plus)
    l_eff = tuple((op[:ngr, ngr:] @ h_enh_inv @ v_plus) for op in spont)
    return LindbladSystem(dim=ngr, hamiltonian=h_eff, jumps=l_eff + tuple(ground))


def build_eff3(p: ModelParams) -> LindbladSystem:
    """Effective three-level system: reduced Hamiltonian and jump set.

    The jumps are the three reduced spontaneous-emission operators, eps = +1,
    0, -1, then, if gamma_g > 0, the nine of `build_ground_relaxation`.
    """
    return reduce_effective(build_full4_rwa(p), p)


@dataclass(frozen=True)
class LinearForm:
    """How a model's generator depends on its parameters.

    The hybrid Liouvillian of `build(p)` at jump weight p.q is exactly
    sum_k coefficients(p)[0, k] * B_k with fixed matrices B_k, and its
    non-Hermitian Hamiltonian `build(p).h_nh()` is sum_k
    coefficients(p)[0, k] * A_k.  Neither term set is written out: both
    follow from `build` at the `probes`, parameter sets whose coefficient
    vectors are linearly independent (see superop.generator), so the
    matrices stay defined by the builders alone.  `columns` takes a map of
    field names to numbers, some of which may be equal-length 1-D arrays,
    and returns the K coefficients, each a number or an array along them.
    """

    dim: int
    build: Callable[[ModelParams], LindbladSystem]
    columns: Callable[[dict], tuple]
    probes: tuple  # of ModelParams, one per coefficient

    def coefficients(self, p: ModelParams, points=None) -> np.ndarray:
        """The coefficients as an (n, K) float64 array, one row per point.

        `points` maps one or two fields to numbers or to equal-length 1-D
        arrays: one row per array entry, else the one row at p.  omega and
        omega_r re-derive each other as in ModelParams.replace, omega =
        omega_r * omega_r / gamma_sp.  Each coefficient is one closed-form
        expression that numbers and arrays evaluate alike, so each row has
        the bits of the row at the ModelParams it stands for.  No value is
        validated (see `check_box`); the eff3 fast-decay warning and the
        coefficient range checks run once over all the points.
        """
        v, points, n = dict(vars(p)), points or {}, None
        for field, x in points.items():
            if field not in v:
                raise ValueError(f"unknown parameter {field!r}")
            if np.ndim(x) == 0:
                v[field] = float(x)
                continue
            v[field] = x = np.asarray(x, dtype=float)
            if x.ndim != 1 or n not in (None, x.size):
                raise ValueError("values must be equal-length 1-D arrays")
            n = x.size
        if "omega" in points and "omega_r" not in points:
            v["omega_r"] = np.sqrt(v["omega"] * v["gamma_sp"])
        elif "omega_r" in points and "omega" not in points:
            v["omega"] = v["omega_r"] * v["omega_r"] / v["gamma_sp"]
        cols = self.columns(v)
        if n is None:
            return np.array([cols], dtype=float)
        return np.column_stack(np.broadcast_arrays(*cols))


def _full4_columns(v):
    # H is linear in delta_rf, j, omega_r and delta_opt; each dissipator
    # scales with its rate and its jump (repopulation) part with q times it
    return (v["delta_rf"], v["j"], v["omega_r"], v["delta_opt"], v["gamma_sp"],
            v["q"] * v["gamma_sp"], v["gamma_g"], v["q"] * v["gamma_g"])


def _eff3_columns(v):
    # reduce_effective on build_full4_rwa: the excited state has the scalar
    # NHH h_e = -delta_opt - i gamma_sp / 2 and couples to |1,0> through
    # -omega_r, so h_eff = h_g + shift |1,0><1,0| and the reduced jumps are
    # sqrt(gamma_sp) omega_r / h_e times fixed matrices whose L^dag L sum to
    # rate |1,0><1,0|, with shift = omega_r^2 delta_opt / |h_e|^2 and rate =
    # gamma_sp omega_r^2 / |h_e|^2
    _warn_unless_fast_decay(v)
    omega_r, delta_opt, gamma_sp = v["omega_r"], v["delta_opt"], v["gamma_sp"]
    with np.errstate(over="ignore"):  # inf, as on Python floats; |h_e|^2 is checked
        abs_square = delta_opt * delta_opt + (0.5 * gamma_sp) * (0.5 * gamma_sp)
        ok = np.ravel((abs_square > 0.0) & (abs_square < math.inf))
        if not ok.all():
            # the first point where |h_e|^2 leaves float range; a singular
            # excited NHH, |h_e| < 1e-300, is one
            d, g, a = (np.broadcast_to(x, ok.shape)[ok.argmin()]
                       for x in (delta_opt, gamma_sp, abs_square))
            _check_excited_nhh(math.hypot(d, 0.5 * g))
            raise ArithmeticError(
                "the eff3 decay rate gamma_sp omega_r^2 / |h_e|^2 leaves float "
                f"range: |h_e|^2 rounds to {a:g} at delta_opt = {d:.6g}, "
                f"gamma_sp = {g:.6g}")
        shift = omega_r * omega_r * delta_opt / abs_square
        rate = gamma_sp * (omega_r * omega_r) / abs_square
    return (v["delta_rf"], v["j"], shift, rate, v["q"] * rate,
            v["gamma_g"], v["q"] * v["gamma_g"])


# Probe values are powers of two small enough against gamma_sp = 1 that the
# effective reduction does not warn; each probe adds one coefficient to the
# ones before it.
_PROBE = ModelParams(omega_r=0.0, gamma_sp=1.0, q=0.0)

LINEAR_FORMS = {
    "full4": LinearForm(
        dim=4, build=build_full4_rwa, columns=_full4_columns,
        probes=(_PROBE, _PROBE.replace(q=1.0), _PROBE.replace(delta_rf=0.0625),
                _PROBE.replace(j=0.0625), _PROBE.replace(omega_r=0.25),
                _PROBE.replace(delta_opt=0.0625), _PROBE.replace(gamma_g=1.0),
                _PROBE.replace(gamma_g=1.0, q=1.0))),
    "eff3": LinearForm(
        dim=3, build=build_eff3, columns=_eff3_columns,
        probes=(_PROBE.replace(delta_rf=0.0625), _PROBE.replace(j=0.0625),
                _PROBE.replace(omega_r=0.25, delta_opt=0.5),
                _PROBE.replace(omega_r=0.25),
                _PROBE.replace(omega_r=0.25, q=1.0),
                _PROBE.replace(gamma_g=1.0), _PROBE.replace(gamma_g=1.0, q=1.0))),
}


def triple_point(omega):
    """(J, delta, E_tp) of the third-order degeneracy, delta taken positive."""
    d = 2.0 * omega / (3.0 * math.sqrt(3.0))
    j = 4.0 * omega / (3.0 * math.sqrt(3.0))
    return j, d, -2j * omega / 3.0


def triple_point_eigenvector():
    """Coalesced eigenvector at the triple point, basis (|1,1>, |1,0>, |1,-1>).

    In the builders' sign convention, diag(-delta, ., +delta), at
    delta = +delta_tp: the non-Hermitian Hamiltonian of `build_eff3` at
    `triple_point`, with q = 0.
    """
    s3 = math.sqrt(3.0)
    return np.array([1.0 / s3, (s3 - 3j) / 6.0, (s3 + 3j) / 6.0])
