"""Output checks that bypass the code paths being timed.

Spectra are compared with the closed forms in `lioup.analytic` where the
model is the resonant effective three-level one, and otherwise with a
reference generator rebuilt here from the model's defining matrices by
Kronecker products.  EP locations are compared with `omega/sqrt(2)` and the
acceptance tolerances of the validation suite, scaled by omega/30.  Evolution
output is checked for trace drift, agreement of the two propagation routes and
the final populations of a reference propagation.
"""

import csv
import io
import json
import math

import numpy as np
import scipy.linalg
import scipy.optimize

from lioup import analytic

REL_TOL = 1e-7  # per eigenvalue, relative to |lambda| + the ground-state scale
TRACE_TOL = 1e-9
ROUTE_TOL = 1e-8
POP_TOL = 1e-7
CLUSTER_REL = 1e-6  # lioup.spectra.TOL_CLUSTER_REL, restated


def _params(cfg):
    p = dict(j=0.0, delta_rf=0.0, delta_opt=0.0, gamma_g=0.0, q=1.0)
    p.update(cfg["params"])
    p["omega_r"] = math.sqrt(p["omega"] * p["gamma_sp"])
    return p


def reference_system(model, p):
    """Hamiltonian and jump operators, written out from the model definition.

    full4: basis (|1,1>, |1,0>, |1,-1>, |0,0>), spontaneous decay of |0,0> to
    each ground state at gamma_sp/3, isotropic ground relaxation.  eff3: the
    excited state adiabatically eliminated, h_eff = h_g - Re(1/h_e) V^dag V
    with h_e = -delta_opt - i gamma_sp/2.
    """
    d, J, Or, D = p["delta_rf"], p["j"], p["omega_r"], p["delta_opt"]
    h4 = np.array([[-d, J, 0, 0], [J, 0, J, -Or], [0, J, d, 0],
                   [0, -Or, 0, -D]], dtype=complex)
    amp = math.sqrt(p["gamma_sp"] / 3.0)
    if model == "full4":
        n, h = 4, h4
        jumps = []
        for g in range(3):
            op = np.zeros((4, 4), dtype=complex)
            op[g, 3] = amp
            jumps.append(op)
    else:
        n = 3
        inv = 1.0 / (-D - 0.5j * p["gamma_sp"])
        v = h4[3, :3]  # excited <- ground coupling row
        h = h4[:3, :3] - inv.real * np.outer(v.conj(), v)
        jumps = []
        for g in range(3):
            op = np.zeros((3, 3), dtype=complex)
            op[g, :] = amp * inv * v
            jumps.append(op)
    if p["gamma_g"] > 0:
        a = math.sqrt(p["gamma_g"] / 3.0)
        for m in range(3):
            for k in range(3):
                op = np.zeros((n, n), dtype=complex)
                op[m, k] = a
                jumps.append(op)
    return h, jumps


def reference_liouvillian(h, jumps, q):
    """Column-stacking Kronecker form of -i[H, .] + sum(q L.L^+ - {L^+L, .}/2)."""
    n = h.shape[0]
    eye = np.eye(n)
    m = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for op in jumps:
        ll = op.conj().T @ op
        m += q * np.kron(op.conj(), op) - 0.5 * (np.kron(eye, ll) + np.kron(ll.T, eye))
    return m


def _ground_scale(p):
    return p["omega"] + p["j"] + abs(p["delta_rf"]) + p["gamma_g"]


def _reference_spectrum(cfg, p):
    resonant = (cfg["model"] == "eff3" and p["delta_rf"] == 0.0
                and p["delta_opt"] == 0.0 and p["gamma_g"] == 0.0)
    if resonant:
        return analytic.hybrid_spectrum(p["omega"], p["j"], p["q"])
    h, jumps = reference_system(cfg["model"], p)
    return np.linalg.eigvals(reference_liouvillian(h, jumps, p["q"]))


def _spectrum_mismatch(got, ref, scale):
    """Worst eigenvalue error under the optimal pairing, in units of the
    tolerance; <= 1 passes."""
    got, ref = np.asarray(got), np.asarray(ref)
    if got.size != ref.size:
        return math.inf
    cost = np.abs(got[:, None] - ref[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    tol = REL_TOL * (np.abs(ref[cols]) + scale)
    return float((cost[rows, cols] / tol).max())


def _c(d):
    return complex(float(d["re"]), float(d["im"]))


def _check_spectrum(cmd, out):
    cfg, p = cmd.config, _params(cmd.config)
    doc = json.loads(out)
    ev = np.array([_c(z) for z in doc["eigenvalues"]])
    ref = _reference_spectrum(cfg, p)
    g = _ground_scale(p)
    bad = _spectrum_mismatch(ev, ref, g)
    if bad > 1.0:
        return [f"eigenvalues off the reference by {bad:.2f} tolerances"]
    fails = []
    # lioup clusters by single linkage at TOL_CLUSTER_REL of the spectral
    # diameter, so a cluster of m spans up to (m - 1) such steps
    diam = float(np.abs(ref[:, None] - ref[None, :]).max())
    radius = 1e-3 * g
    for rep in doc["degeneracies"]:
        c, m = _c(rep["cluster_value"]), rep["algebraic_mult"]
        reach = m * CLUSTER_REL * diam + 1e-4 * g
        near = int(np.count_nonzero(np.abs(ref - c) <= reach))
        if near < m:
            fails.append(f"cluster of {m} at {c:.6g} has {near} reference "
                         "eigenvalues nearby")
    if "ep_value" in cmd.expect:
        ep = cmd.expect["ep_value"]
        if not any(abs(_c(r["cluster_value"]) - ep) <= radius
                   and r["algebraic_mult"] >= 2 for r in doc["degeneracies"]):
            fails.append(f"no degeneracy reported at the EP value {ep:.6g}")
    return fails


def _csv_rows(out):
    rows = list(csv.reader(io.StringIO(out)))
    return rows[0], [[float(x) for x in r] for r in rows[1:]]


def _check_sweep(cmd, out, err):
    cfg, blk = cmd.config, cmd.config["sweep"]
    if "warning" in err:
        return [f"sweep reported failed points: {err.strip()[:200]}"]
    header, rows = _csv_rows(out)
    if len(rows) != blk["points"]:
        return [f"{len(rows)} rows for {blk['points']} grid points"]
    if not np.isfinite(np.array(rows)).all():
        return ["non-finite branch values"]
    nb = (len(header) - 1) // 2
    grid = np.linspace(blk["start"], blk["stop"], blk["points"])
    worst = 0.0
    for i in cmd.expect["rows"]:
        row = rows[i]
        got = np.array(row[1:1 + nb]) + 1j * np.array(row[1 + nb:])
        p = _params(cfg)
        p[blk["parameter"]] = float(grid[i])  # j or delta_rf
        worst = max(worst, _spectrum_mismatch(
            got, _reference_spectrum(cfg, p), _ground_scale(p)))
    if worst > 1.0:
        return [f"sampled rows off the reference by {worst:.2f} tolerances"]
    return []


def _check_findep(cmd, out, info):
    exp = cmd.expect
    reps = json.loads(out)["reports"]
    info["searches"] = 1
    if exp["kind"] == "pair":
        if len(reps) != 1:
            return [f"{len(reps)} pair EPs reported, expected exactly 1"]
        r = reps[0]
        if r["algebraic_mult"] != 2 or r["kind"] != "exceptional":
            return [f"pair EP reported as {r['kind']} of multiplicity "
                    f"{r['algebraic_mult']}"]
    else:
        reps = [r for r in reps
                if abs(_c(r["cluster_value"]) - exp["cluster"]) < exp["cluster_radius"]]
        if not reps:
            return ["no triple coalescence near -2*omega"]
        r = reps[0]
    err = abs(float(r["params"]["j"]) - exp["j"])
    info["loc_err"] = err
    if err > exp["tol_j"]:
        return [f"EP at j = {float(r['params']['j']):.9g}, expected "
                f"{exp['j']:.9g} +/- {exp['tol_j']:.2g}"]
    info["certified"] = 1
    return []


def _check_evolve(cmd, out):
    cfg, p = cmd.config, _params(cmd.config)
    arr = np.array(_csv_rows(out)[1])
    drift = float(np.abs(arr[:, 1] - 1.0).max())
    route = float(arr[:, -1].max()) if np.isfinite(arr[:, -1]).all() else math.inf
    fails = []
    if drift > TRACE_TOL:
        fails.append(f"trace drift {drift:.3g} > {TRACE_TOL:g}")
    if not route <= ROUTE_TOL:
        fails.append(f"route difference {route:.3g} > {ROUTE_TOL:g}")
    h, jumps = reference_system(cfg["model"], p)
    n = h.shape[0]
    rho0 = np.array([[complex(re, im) for re, im in row]
                     for row in cfg["evolve"]["rho0"]])
    t = cfg["evolve"]["t_max"]
    vt = scipy.linalg.expm(reference_liouvillian(h, jumps, 1.0) * t) @ rho0.flatten(order="F")
    pops = vt.reshape((n, n), order="F").diagonal().real
    pop_err = float(np.abs(arr[-1, 2:2 + n] - pops).max())
    if pop_err > POP_TOL:
        fails.append(f"final populations off the reference by {pop_err:.3g}")
    return fails


def check(cmd, out, err):
    """Failures (list of str) and, for find-ep, diagnostics (dict) of one
    command's output."""
    info = {}
    try:
        if cmd.subcommand == "spectrum":
            fails = _check_spectrum(cmd, out)
        elif cmd.subcommand == "sweep":
            fails = _check_sweep(cmd, out, err)
        elif cmd.subcommand == "find-ep":
            fails = _check_findep(cmd, out, info)
        else:
            fails = _check_evolve(cmd, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        fails = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return fails, info
