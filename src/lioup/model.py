"""Builders for the driven, dissipative alkali-vapor model.

Basis conventions used throughout:

* ground manifold ordered by decreasing projection, |1,1>, |1,0>, |1,-1>;
  the excited state |0,0> is appended last in four-level matrices;
* the RF and optical couplings stored in ModelParams are the rotating-frame
  values (the J/2 -> J, Omega_R/2 -> Omega_R rescaling is already applied),
  so the builders carry plain J and Omega_R entries; the oscillating
  couplings of the lab frame are twice these values;
* in the detuned ground block the RF detuning enters as diag(-delta, 0,
  +delta).  Spectra are invariant under delta -> -delta; `h_nh_detuned`
  provides the mirrored sign convention used in the detuned-regime analyses.

All rates and frequencies are plain angular frequencies in one shared unit.
Every builder, the effective reduction included, returns a LindbladSystem
for superop's one Kronecker assembly of L(q); a jump set is a tuple of d x d
arrays, in the order each builder documents.
"""

import dataclasses
import functools
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .angular import HalfInteger, spin_ops, wigner3j

# Excited-state linewidth of the 87Rb D2 line (f=1 -> F=0), the default
# spontaneous rate when only the reduced Rabi frequency is specified.
GAMMA_D2 = 2 * math.pi * 5.7e6

_I_POWER = {-1: -1j, 0: 1.0 + 0j, 1: 1j}


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
        if self.omega is None:
            object.__setattr__(self, "omega", self.omega_r ** 2 / self.gamma_sp)
        elif self.omega_r is None:
            object.__setattr__(self, "omega_r", math.sqrt(self.omega * self.gamma_sp))
        else:
            expect = self.omega_r ** 2 / self.gamma_sp
            if abs(self.omega - expect) > 1e-9 * max(abs(self.omega), 1.0):
                raise ValueError(
                    f"omega={self.omega} inconsistent with omega_r^2/gamma_sp={expect}"
                )
        for name in ("j", "omega", "omega_r", "delta_rf", "delta_opt",
                     "gamma_sp", "gamma_g", "q"):
            if not math.isfinite(getattr(self, name)):
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


def build_spont_jumps(f, F, gamma_sp, convention="explicit"):
    """Spontaneous-emission jump operators for an f -> F transition.

    Returns three block operators of dimension (2f+1)+(2F+1), ordered by the
    polarization label eps = +1, 0, -1; basis is ground m = f..-f followed by
    excited M = F..-F.

    convention="generic" gives i**(F-f) * sqrt(Gamma) * sum_mM
    3j(f,1,F; -m,eps,M) |f m><F M| literally.  The default "explicit"
    convention relabels eps -> -eps and fixes each operator's global phase so
    the leading entry is +i * positive, which for f=1 -> F=0 reduces to the
    explicit i*sqrt(Gamma/3)|1,-eps><0,0| form.  Global per-operator phases
    do not affect relaxation, repopulation, or any spectrum.

    The returned arrays are read-only.
    """
    f = HalfInteger.of(f)
    F = HalfInteger.of(F)
    if abs(f.twice - F.twice) > 2:
        raise ValueError("transition forbidden: |f - F| must be <= 1")
    if convention not in ("explicit", "generic"):
        raise ValueError(f"unknown convention {convention!r}")
    ops = math.sqrt(gamma_sp) * _unit_spont_jumps(f, F, convention)
    ops.flags.writeable = False
    return list(ops)


@functools.lru_cache(maxsize=None)
def _unit_spont_jumps(f, F, convention):
    # exact 3j symbols are slow; they depend only on (f, F, convention)
    ng, ne = f.twice + 1, F.twice + 1
    dim = ng + ne
    dphase = _I_POWER[(F.twice - f.twice) // 2]

    def generic(eps):
        op = np.zeros((dim, dim), dtype=complex)
        for i in range(ng):
            tm = f.twice - 2 * i
            for k in range(ne):
                tM = F.twice - 2 * k
                w = wigner3j(f, 1, F, HalfInteger(-tm), eps, HalfInteger(tM))
                op[i, ng + k] = dphase * w
        return op

    if convention == "generic":
        ops = np.array([generic(eps) for eps in (1, 0, -1)])
    else:
        ops = np.array([_phase_to_i(generic(-eps)) for eps in (1, 0, -1)])
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


def _warn_unless_fast_decay(p):
    scale = max(p.j, abs(p.delta_rf), p.omega)
    if p.gamma_sp < 10.0 * scale:
        warnings.warn(
            "effective reduction assumes gamma_sp to dominate ground-state "
            f"scales (gamma_sp={p.gamma_sp:g}, max ground scale={scale:g})",
            stacklevel=3,
        )


def _check_excited_nhh(h_e):
    if abs(h_e) < 1e-300:
        raise ValueError("excited-state NHH is singular (gamma_sp = delta_opt = 0)")


def reduce_effective(sys4: LindbladSystem, p: ModelParams) -> LindbladSystem:
    """Eliminate the fast excited state via the effective-operator reduction.

    Implemented for a one-dimensional excited manifold (F=0): the last basis
    state decays at gamma_sp, everything before it is ground.  Returns the
    ground system with one reduced jump per decay jump; jumps that act
    purely inside the ground block pass through untouched and are left out.
    """
    ngr = sys4.dim - 1
    h = sys4.hamiltonian
    _warn_unless_fast_decay(p)

    h_g = h[:ngr, :ngr]
    h_e = h[ngr:, ngr:]
    v_plus = h[ngr:, :ngr]
    v_minus = v_plus.conj().T

    spont = []
    for op in sys4.jumps:
        if np.abs(op[:ngr, :ngr]).max() > 0 or np.abs(op[ngr:, ngr:]).max() > 0:
            continue  # ground-only or diagonal-block jumps are untouched
        spont.append(op)
    g_e = sum((op.conj().T @ op for op in spont),
              np.zeros((sys4.dim, sys4.dim), dtype=complex))[ngr:, ngr:]
    h_enh = h_e - 0.5j * g_e
    _check_excited_nhh(h_enh[0, 0])
    h_enh_inv = np.linalg.inv(h_enh)

    h_eff = h_g - 0.5 * (v_minus @ (h_enh_inv + h_enh_inv.conj().T) @ v_plus)
    l_eff = tuple((op[:ngr, ngr:] @ h_enh_inv @ v_plus) for op in spont)
    return LindbladSystem(dim=ngr, hamiltonian=h_eff, jumps=l_eff)


def build_eff3(p: ModelParams) -> LindbladSystem:
    """Effective three-level system: reduced Hamiltonian and jump set.

    The jumps are the three reduced spontaneous-emission operators, eps = +1,
    0, -1, then, if gamma_g > 0, the nine of `build_ground_relaxation`.
    """
    red = reduce_effective(build_full4_rwa(p), p)
    if p.gamma_g > 0:
        red = dataclasses.replace(
            red, jumps=red.jumps + tuple(build_ground_relaxation(p.gamma_g)))
    return red


@dataclass(frozen=True)
class LinearForm:
    """How a model's generator depends on its parameters.

    The hybrid Liouvillian of `build(p)` at jump weight p.q is exactly
    sum_k coefficients(p)[k] * B_k with fixed matrices B_k, and its
    non-Hermitian Hamiltonian `build(p).h_nh()` is sum_k coefficients(p)[k]
    * A_k.  Neither term set is written out: both follow from `build` at the
    `probes`, parameter sets whose coefficient vectors are linearly
    independent (see superop.generator), so the matrices stay defined by the
    builders alone.
    """

    dim: int
    build: Callable[[ModelParams], LindbladSystem]
    coefficients: Callable[[ModelParams], tuple]
    probes: tuple  # of ModelParams, one per coefficient


def _full4_coefficients(p):
    # H is linear in delta_rf, j, omega_r and delta_opt; each dissipator
    # scales with its rate and its jump (repopulation) part with q times it
    return (p.delta_rf, p.j, p.omega_r, p.delta_opt,
            p.gamma_sp, p.q * p.gamma_sp, p.gamma_g, p.q * p.gamma_g)


def _eff3_coefficients(p):
    # reduce_effective on build_full4_rwa: the excited state has the scalar
    # NHH h_e = -delta_opt - i gamma_sp / 2 and couples to |1,0> through
    # -omega_r, so h_eff = h_g - omega_r^2 Re(1/h_e) |1,0><1,0| and every
    # reduced jump is sqrt(gamma_sp) omega_r / h_e times a fixed matrix
    _warn_unless_fast_decay(p)
    h_e = complex(-p.delta_opt, -0.5 * p.gamma_sp)
    _check_excited_nhh(h_e)
    shift = -p.omega_r ** 2 * (1.0 / h_e).real
    rate = p.gamma_sp * p.omega_r ** 2 / abs(h_e) ** 2
    return (p.delta_rf, p.j, shift, rate, p.q * rate,
            p.gamma_g, p.q * p.gamma_g)


# Probe values are powers of two small enough against gamma_sp = 1 that the
# effective reduction does not warn; each probe adds one coefficient to the
# ones before it.
_PROBE = ModelParams(omega_r=0.0, gamma_sp=1.0, q=0.0)

LINEAR_FORMS = {
    "full4": LinearForm(
        dim=4, build=build_full4_rwa, coefficients=_full4_coefficients,
        probes=(_PROBE, _PROBE.replace(q=1.0), _PROBE.replace(delta_rf=0.0625),
                _PROBE.replace(j=0.0625), _PROBE.replace(omega_r=0.25),
                _PROBE.replace(delta_opt=0.0625), _PROBE.replace(gamma_g=1.0),
                _PROBE.replace(gamma_g=1.0, q=1.0))),
    "eff3": LinearForm(
        dim=3, build=build_eff3, coefficients=_eff3_coefficients,
        probes=(_PROBE.replace(delta_rf=0.0625), _PROBE.replace(j=0.0625),
                _PROBE.replace(omega_r=0.25, delta_opt=0.5),
                _PROBE.replace(omega_r=0.25),
                _PROBE.replace(omega_r=0.25, q=1.0),
                _PROBE.replace(gamma_g=1.0), _PROBE.replace(gamma_g=1.0, q=1.0))),
}


def h_nh_tuned(omega, j):
    """Resonant effective NHH [[0, J, 0], [J, -2i*Omega, J], [0, J, 0]]."""
    return np.array([[0, j, 0], [j, -2j * omega, j], [0, j, 0]], dtype=complex)


def h_nh_detuned(omega, j, delta):
    """Detuned effective NHH in the detuned-regime sign convention.

    diag(+delta, ., -delta); the builder convention of build_full4_rwa and
    reduce_effective carries the opposite sign, which mirrors the spectrum's
    delta -> -delta symmetry (state reversal |1,1> <-> |1,-1>).
    """
    return np.array([[delta, j, 0], [j, -2j * omega, j], [0, j, -delta]],
                    dtype=complex)


def triple_point(omega):
    """(J, delta, E_tp) of the third-order degeneracy, delta taken positive."""
    d = 2.0 * omega / (3.0 * math.sqrt(3.0))
    j = 4.0 * omega / (3.0 * math.sqrt(3.0))
    return j, d, -2j * omega / 3.0


def triple_point_eigenvector():
    """Coalesced eigenvector at the triple point, basis (|1,1>, |1,0>, |1,-1>).

    Matches `h_nh_detuned` at delta = -delta_tp, equivalently the
    reduce_effective sign convention at delta = +delta_tp.
    """
    s3 = math.sqrt(3.0)
    return np.array([1.0 / s3, (s3 - 3j) / 6.0, (s3 + 3j) / 6.0])
