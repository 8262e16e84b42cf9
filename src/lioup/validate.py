"""Reference-result validation suite.

Each criterion checks a reference property of the model at its stated
parameters and tolerance.  The suite is exposed both to pytest (one test per
sub-criterion) and to the command line (`lioup validate`), which prints one
pass/fail line per entry.  Every model matrix comes from
superop.generator, the path that the other commands solve.  On random
systems criterion 9 checks the parts of the Kronecker assembly that the
generator is built from against the direct Gell-Mann parts, and criterion 12
its Gell-Mann spectra against the Fock-Liouville ones.

Two sub-criteria are marked `expected_fail`.  2d asks for the literal
multiplicities (algebraic 3, geometric 1) of the -2 Omega coalescence at
J = Omega/sqrt(2), but a J-independent simple branch also sits at -2 Omega,
so the cluster there is provably (algebraic 4, geometric 2), chains (3, 1).
7a: at the triple point the jump-free superoperator is a single eigenvalue
with Jordan chains of lengths (5, 3, 1), and an order-5 chain responds to
perturbations of size eps with eigenvalue scatter ~ eps**(1/5).  The nearest
double-precision parameters sit ~1e-13 from the exact degeneracy, so the
computed (and the true) eigenvalue spread there is ~1e-2, far above the
demanded 1e-6.  Both checks are implemented literally and report what they
measure.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, linalg, model, spectra, superop

OMEGA_REF = 30.0
SQ2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    description: str
    passed: bool
    expected_fail: bool = False
    details: str = ""


def _result(cid, description, passed, details="", expected_fail=False):
    return CriterionResult(cid=cid, description=description, passed=bool(passed),
                           expected_fail=expected_fail, details=details)


def _eff3_params(omega, j, delta=0.0, q=1.0, gamma_g=0.0):
    return model.ModelParams(omega=omega, j=j, delta_rf=delta, q=q,
                             gamma_g=gamma_g)


def _gm_liouvillian(p):
    return superop.generator("eff3").matrices(p)[0]


def _rel_match(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
    return spectra.match_distance(a, b) / scale


def criterion_1():
    """Operator pair coalescence at -i*Omega when 2 J^2 = Omega^2."""
    out = []
    omega = OMEGA_REF
    j_star = omega / SQ2
    gen = superop.generator("eff3")
    ev = linalg.eigvals(gen.operators(_eff3_params(omega, j_star, q=0.0))[0])
    nonzero = sorted(ev, key=lambda z: abs(z))[1:]
    dev = max(abs(z + 1j * omega) for z in nonzero)
    out.append(_result(
        "1a", "two nonzero operator eigenvalues coalesce at -30i for 2J^2 = Omega^2",
        dev <= 1e-5, f"max deviation from -30i: {dev:.3e}"))

    base = _eff3_params(omega, 20.0, q=0.0)
    reps = spectra.find_ep(gen.operators, {"j": (15.0, 30.0)}, 2, base)
    ok = (len(reps) == 1 and abs(reps[0].params.j - 21.2132) <= 1e-4
          and reps[0].kind == "exceptional")
    found = reps[0].params.j if reps else float("nan")
    out.append(_result(
        "1b", "gap search locates the pair coalescence at J = 21.2132 +/- 1e-4",
        ok, f"found J = {found:.6f}, expected {j_star:.6f}"))
    return out


def criterion_2():
    """Jump-free superoperator spectrum and its third-order coalescence."""
    out = []
    worst = 0.0
    for omega in (20.0, 30.0, 40.0):
        for j in (10.0, 21.2132, 35.0):
            p = _eff3_params(omega, j, q=0.0)
            ev = linalg.eigvals(_gm_liouvillian(p))
            worst = max(worst, _rel_match(ev, analytic.nhh_superop_spectrum(omega, j)))
    out.append(_result(
        "2a", "q=0 superoperator spectra equal the closed form on a 3x3 grid, rel 1e-8",
        worst <= 1e-8, f"worst relative mismatch: {worst:.3e}"))

    omega = OMEGA_REF
    base = _eff3_params(omega, 20.0, q=0.0)
    reps = spectra.find_ep(superop.generator("eff3").matrices, {"j": (18.0, 25.0)},
                           3, base)
    reps = [r for r in reps if abs(r.cluster_value + 2 * omega) < 1.0]
    ok_loc = len(reps) >= 1 and abs(reps[0].params.j - omega / SQ2) <= 1e-3
    found = reps[0].params.j if reps else float("nan")
    out.append(_result(
        "2b", "superoperator triple coalescence located at J = 21.2132 +/- 1e-3",
        ok_loc, f"found J = {found:.6f}"))

    if reps:
        r = reps[0]
        ok_chain = r.order == 3 and r.partition == (3, 1)
        detail = (f"cluster at {r.cluster_value:.6f}: algebraic {r.algebraic_mult}, "
                  f"geometric {r.geometric_mult}, order {r.order}, chains {r.partition}")
        out.append(_result(
            "2c", "the coalescence carries a single length-3 Jordan chain (order 3)",
            ok_chain, detail))
        # The -2*Omega eigenvalue also hosts a J-independent simple branch, so
        # the full cluster there is provably (algebraic 4, geometric 2) =
        # chains (3, 1); the literal (3, 1) multiplicity pair cannot be
        # measured on the whole superoperator.
        ok_lit = r.algebraic_mult == 3 and r.geometric_mult == 1
        out.append(_result(
            "2d", "literal cluster multiplicities (algebraic 3, geometric 1)",
            ok_lit, detail, expected_fail=True))
        # just off the coalescence the three moving branches share one
        # eigenvector while the simple bystander branch stays independent
        p_off = base.replace(j=omega / SQ2 - 1e-4)
        values, vecs = linalg.eig(_gm_liouvillian(p_off))
        vecs = vecs[:, np.argsort(np.abs(values + 2 * omega))[:4]]
        ov = np.abs(vecs.conj().T @ vecs) - np.eye(4)
        family = [k for k in range(4) if np.sort(ov[k])[-2] > 0.5]
        ok_fam = (len(family) == 3
                  and min(ov[a, b] for a in family for b in family if a != b) > 1 - 1e-3)
        out.append(_result(
            "2e", "three moving branches coalesce in one eigenvector near J*",
            ok_fam, f"family size {len(family)}"))
    return out


def criterion_3():
    """Hybrid spectra match the radical closed form; six eigenvalues are q-free."""
    out = []
    worst = 0.0
    for omega in (20.0, 30.0, 40.0):
        for j in (5.0, 15.0, 25.0, 35.0, 45.0):
            for q in (0.0, 0.5, 1.0):
                p = _eff3_params(omega, j, q=q)
                ev = linalg.eigvals(_gm_liouvillian(p))
                worst = max(worst, _rel_match(ev, analytic.hybrid_spectrum(omega, j, q)))
    out.append(_result(
        "3a", "hybrid spectra equal the closed form on a 45-point grid, rel 1e-7",
        worst <= 1e-7, f"worst relative mismatch: {worst:.3e}"))

    omega, j = OMEGA_REF, 10.0
    fixed = analytic.fixed_six(omega, j)
    worst = 0.0
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        ev = linalg.eigvals(_gm_liouvillian(_eff3_params(omega, j, q=q)))
        scale = np.abs(ev).max()
        for lam in fixed:
            worst = max(worst, np.abs(ev - lam).min() / scale)
    out.append(_result(
        "3b", "six eigenvalues are independent of q, rel 1e-8",
        worst <= 1e-8, f"worst drift: {worst:.3e}"))
    return out


def _jump_coupled_numeric(omega, j, q):
    """The three q-dependent eigenvalues, identified by removing the fixed six."""
    ev = list(linalg.eigvals(_gm_liouvillian(_eff3_params(omega, j, q=q))))
    for lam in analytic.fixed_six(omega, j):
        ev.pop(int(np.argmin(np.abs(np.array(ev) - lam))))
    movers = sorted(ev, key=lambda z: -z.real)
    lam7 = movers[0]
    lam8, lam9 = sorted(movers[1:], key=lambda z: -z.imag)
    return lam7, lam8, lam9


def criterion_4():
    """Weak jumps lift the triple coalescence by 4*Omega*q/3 at large J."""
    omega, q = OMEGA_REF, 0.001
    target = 4.0 * omega * q / 3.0
    worst78 = worst79 = worst89 = 0.0
    for j in (1e3, 2e3, 5e3):
        lam7, lam8, lam9 = _jump_coupled_numeric(omega, j, q)
        worst78 = max(worst78, abs((lam7 - lam8).real - target))
        worst79 = max(worst79, abs((lam7 - lam9).real - target))
        worst89 = max(worst89, abs((lam8 - lam9).real))
    ok = worst78 <= 1e-3 and worst79 <= 1e-3 and worst89 <= 1e-3
    return [_result(
        "4", "splittings Re(l7-l8), Re(l7-l9) -> 0.04 and Re(l8-l9) -> 0 for J >= 1e3",
        ok, f"|d78-0.04|<={worst78:.2e}, |d79-0.04|<={worst79:.2e}, |d89|<={worst89:.2e}")]


def criterion_5():
    """Triple-point location, eigenvalue, and coalesced eigenvector."""
    out = []
    omega = OMEGA_REF
    j_tp, d_tp, e_tp = model.triple_point(omega)
    base = _eff3_params(omega, 23.0, delta=11.0, q=0.0)
    gen = superop.generator("eff3")
    reps = spectra.find_ep(gen.operators, {"j": (20.0, 26.0), "delta_rf": (9.0, 14.0)},
                           3, base)
    ok_n = len(reps) == 1
    out.append(_result("5a", "exactly one triple coalescence in the search box",
                       ok_n, f"found {len(reps)}"))
    if not reps:
        return out
    r = reps[0]
    ok_loc = (abs(r.params.j - 23.0940) <= 1e-3
              and abs(r.params.delta_rf - 11.5470) <= 1e-3)
    out.append(_result(
        "5b", "triple point at (J, delta) = (23.0940, 11.5470) +/- 1e-3",
        ok_loc, f"found ({r.params.j:.6f}, {r.params.delta_rf:.6f}), "
        f"exact ({j_tp:.6f}, {d_tp:.6f})"))
    dev = abs(r.cluster_value - e_tp)
    out.append(_result(
        "5c", "triple eigenvalue -20i +/- 1e-6",
        dev <= 1e-6 and r.algebraic_mult == 3 and r.geometric_mult == 1,
        f"cluster {r.cluster_value:.8f}, deviation {dev:.2e}, kind {r.kind}"))

    h = gen.operators(r.params)[0]
    _, _, vh = np.linalg.svd(h - r.cluster_value * np.eye(3))
    vec = vh[-1].conj()
    fid = abs(np.vdot(vec, model.triple_point_eigenvector()))
    out.append(_result(
        "5d", "coalesced eigenvector fidelity >= 1 - 1e-6",
        fid >= 1 - 1e-6, f"fidelity {fid:.10f}"))
    return out


def criterion_6():
    """Detuning census: two pair coalescences, then one triple, then none."""
    out = []
    base = _eff3_params(OMEGA_REF, 23.0, delta=4.62, q=0.0)
    box = {"j": (0.01, 60.0)}
    build = superop.generator("eff3").operators

    reps = spectra.find_ep(build, box, 2, base)
    js = sorted(r.params.j for r in reps)
    ok = (len(reps) == 2 and abs(js[0] - 15.96476) <= 1e-3
          and abs(js[1] - 21.46947) <= 1e-3
          and all(r.algebraic_mult == 2 and r.geometric_mult == 1 for r in reps))
    out.append(_result(
        "6a", "|delta| = 4.62: exactly two pair coalescences in J <= 60",
        ok, f"found J = {[round(j, 5) for j in js]}"))

    reps3 = spectra.find_ep(build, box, 3, base.replace(delta_rf=11.547))
    ok = len(reps3) == 1 and reps3[0].order == 3 and reps3[0].geometric_mult == 1
    out.append(_result(
        "6b", "|delta| = 11.547: exactly one triple coalescence",
        ok, f"found {[(round(r.params.j, 5), r.order) for r in reps3]}"))

    none2 = spectra.find_ep(build, box, 2, base.replace(delta_rf=14.0))
    out.append(_result(
        "6c", "|delta| = 14: no degeneracies",
        len(none2) == 0, f"found {len(none2)}"))
    return out


def criterion_7():
    """Full spectral collapse of the jump-free superoperator at the triple point."""
    out = []
    omega = OMEGA_REF
    j_tp, d_tp, _ = model.triple_point(omega)
    p0 = _eff3_params(omega, j_tp, delta=d_tp, q=0.0)
    l0 = _gm_liouvillian(p0)
    ev = linalg.eigvals(l0)
    center = ev.mean()
    spread = float(np.abs(ev - center).max())
    out.append(_result(
        "7a", "all nine eigenvalues within 1e-6 of a single value",
        spread <= 1e-6, expected_fail=True,
        details=(f"measured spread {spread:.3e} about {center:.6f}; the exact "
                 "degeneracy carries a length-5 Jordan chain, so double "
                 "precision cannot resolve the collapse below ~(eps)**(1/5)")))

    _, reports = spectra.detect_degeneracy(l0)
    ok = (len(reports) == 1 and reports[0].algebraic_mult == 9
          and reports[0].geometric_mult == 3)
    detail = (f"chains {reports[0].partition}, geometric {reports[0].geometric_mult}"
              if reports else "no cluster")
    out.append(_result(
        "7b", "exactly three independent eigenvectors at the collapse",
        ok, detail))

    l1 = _gm_liouvillian(p0.replace(q=1.0))
    diam = spectra.spectral_diameter(linalg.eigvals(l1))
    _, reports = spectra.detect_degeneracy(l1, tol_cluster=1e-3 * diam)
    biggest = max((r.algebraic_mult for r in reports), default=1)
    out.append(_result(
        "7c", "quantum jumps break the nine-fold collapse (max cluster < 9 at q=1)",
        biggest < 9, f"largest cluster size {biggest}"))
    return out


def criterion_8():
    """Four-level Liouvillian: cluster sizes {9, 6, 1} and ground-sector match."""
    out = []
    omega, gamma = OMEGA_REF, model.GAMMA_D2
    sizes_ok, worst = True, 0.0
    for j in (5.0, 21.0, 35.0):
        p = model.ModelParams(omega=omega, j=j, gamma_sp=gamma, q=1.0)
        groups = spectra.real_part_groups(
            linalg.eigvals(superop.generator("full4").matrices(p)[0]))
        sizes_ok &= [g.size for g in groups] == [9, 6, 1] and all(
            np.all(np.abs(g.real + k * gamma / 2) < gamma / 4)
            for k, g in enumerate(groups))
        ev3 = linalg.eigvals(_gm_liouvillian(p))
        worst = max(worst, spectra.match_distance(groups[0], ev3))
    out.append(_result(
        "8a", "16x16 Liouvillian clusters into groups {9, 6, 1} near {0, -G/2, -G}",
        sizes_ok, ""))
    out.append(_result(
        "8b", "ground-sector eigenvalues match the reduced 9x9 within 1% of Omega",
        worst <= 0.01 * omega, f"worst |full - effective| = {worst:.3e}"))
    return out


def criterion_9():
    """Structural identities of the superoperator parts; spectral correspondence."""
    rng = np.random.default_rng(0)
    worst_h = worst_g = worst_c = 0.0
    for trial in range(50):
        d = 3 + trial % 2
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = a + a.conj().T
        jumps = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                 for _ in range(1 + trial % 3)]
        # the parts as the generator assembles them, each also against the
        # direct M_ij = Tr(map(s_j) s_i)/2 relative to its largest entry
        hhat = 1j * superop.hybrid_liouvillian(model.LindbladSystem(h), 0.0)
        ghat = superop.hybrid_liouvillian(model.LindbladSystem(0 * h, jumps), 0.0)
        g = sum(l.conj().T @ l for l in jumps)
        h_ref = superop.superop_of_map(lambda s: h @ s - s @ h, d)
        g_ref = superop.superop_of_map(lambda s: -0.5 * (g @ s + s @ g), d)
        worst_h = max(worst_h, np.abs(hhat + hhat.T).max(), np.abs(hhat.real).max(),
                      np.abs(hhat - h_ref).max() / np.abs(h_ref).max())
        worst_g = max(worst_g, np.abs(ghat - ghat.T).max(), np.abs(ghat.imag).max(),
                      np.abs(ghat - g_ref).max() / np.abs(g_ref).max())
        sys = model.LindbladSystem(h, tuple(jumps))
        worst_c = max(worst_c, spectra.correspondence_check(
            sys.h_nh(), linalg.eigvals(superop.hybrid_liouvillian(sys, 0.0))))
    ok = worst_h <= 1e-12 and worst_g <= 1e-12 and worst_c <= 1e-8
    return [_result(
        "9", "Hamiltonian part antisymmetric imaginary, relaxation part symmetric "
             "real, pairwise spectral correspondence <= 1e-8",
        ok, f"h: {worst_h:.2e}, gamma: {worst_g:.2e}, correspondence: {worst_c:.2e}")]


def criterion_10():
    """Isotropic ground relaxation shifts the spectrum by -gamma."""
    out = []
    omega, j, gamma = OMEGA_REF, 10.0, 0.7
    base0 = _gm_liouvillian(_eff3_params(omega, j, q=0.0))
    ext0 = _gm_liouvillian(_eff3_params(omega, j, q=0.0, gamma_g=gamma))
    dev0 = spectra.match_distance(linalg.eigvals(ext0),
                                  linalg.eigvals(base0) - gamma)
    out.append(_result(
        "10a", "q=0: every eigenvalue shifts by exactly -gamma",
        dev0 <= 1e-9, f"max deviation {dev0:.3e}"))

    ev1 = linalg.eigvals(_gm_liouvillian(_eff3_params(omega, j, q=1.0)))
    stationary = int(np.argmin(np.abs(ev1)))
    expected = np.array([lam - gamma if k != stationary else lam
                         for k, lam in enumerate(ev1)])
    ext1 = _gm_liouvillian(_eff3_params(omega, j, q=1.0, gamma_g=gamma))
    dev1 = spectra.match_distance(linalg.eigvals(ext1), expected)
    out.append(_result(
        "10b", "q=1: every eigenvalue but the stationary one shifts by -gamma",
        dev1 <= 1e-9, f"max deviation {dev1:.3e}"))
    return out


def criterion_11():
    """Trace preservation and agreement of the two propagation routes."""
    omega, j = OMEGA_REF, 10.0
    l1 = _gm_liouvillian(_eff3_params(omega, j, q=1.0))
    rng = np.random.default_rng(1)
    worst_tr = worst_diff = 0.0
    for _ in range(10):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho0 = a @ a.conj().T
        rho0 /= np.trace(rho0).real
        states, route_diff = spectra.evolve_check(l1, rho0, 5.0 / omega, 6)
        drift = np.abs(np.trace(states, axis1=1, axis2=2) - np.trace(rho0))
        worst_tr = max(worst_tr, drift.max())
        worst_diff = max(worst_diff, route_diff.max())
    ok = worst_tr <= 1e-9 and worst_diff <= 1e-8
    return [_result(
        "11", "q=1 evolution preserves trace to 1e-9; expm and eigen-expansion "
              "agree to 1e-8 for 10 random states",
        ok, f"trace drift {worst_tr:.2e}, route difference {worst_diff:.2e}")]


def criterion_12():
    """Gell-Mann and Fock-Liouville spectra agree for random systems."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(20):
        d = 2 + trial % 3
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = a + a.conj().T
        jumps = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                 for _ in range(1 + trial % 4)]
        sys = model.LindbladSystem(h, tuple(jumps))
        q = float(rng.uniform())
        ev_gm = linalg.eigvals(superop.hybrid_liouvillian(sys, q))
        ev_fl = linalg.eigvals(superop.fock_liouville_matrix(
            sys.hamiltonian, sys.jumps, q))
        worst = max(worst, _rel_match(ev_gm, ev_fl))
    return [_result(
        "12", "Gell-Mann and Fock-Liouville spectra agree, rel 1e-8, 20 random draws",
        worst <= 1e-8, f"worst relative mismatch {worst:.3e}")]


def criterion_13():
    """Quantum jumps move the pair EP of the jump-coupled eigenvalues to J*(q)."""
    ok, got = True, []
    for q in (0.1, 0.5, 1.0):
        j_star = analytic.jump_coupled_ep(OMEGA_REF, q)
        reps = spectra.find_ep(superop.generator("eff3").matrices, {"j": (1.0, 20.0)},
                               2, _eff3_params(OMEGA_REF, 10.0, q=q))
        ok &= (len(reps) == 1 and reps[0].kind == "exceptional"
               and abs(reps[0].params.j - j_star) <= 1e-6 * j_star)
        got.append((q, round(j_star, 6), [(r.kind, round(r.params.j, 6)) for r in reps]))
    return [_result("13a", "one exceptional superoperator pair in J <= 20, at J*(q) "
                    "rel 1e-6, for q = 0.1, 0.5, 1", ok, f"(q, J*, reports): {got}")]


CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13,
)


def run_all():
    results = []
    for fn in CRITERIA:
        results.extend(fn())
    return results


def format_report(results):
    lines = []
    n_pass = n_fail = n_xfail = 0
    for r in results:
        if r.passed:
            status = "PASS"
            n_pass += 1
        elif r.expected_fail:
            status = "XFAIL"
            n_xfail += 1
        else:
            status = "FAIL"
            n_fail += 1
        line = f"[{r.cid:>3}] {status:5} {r.description}"
        if r.details:
            line += f"  ({r.details})"
        lines.append(line)
    lines.append(f"summary: {n_pass} passed, {n_fail} failed, "
                 f"{n_xfail} expected-fail (documented)")
    return "\n".join(lines), n_fail == 0
