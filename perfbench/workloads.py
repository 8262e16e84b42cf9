"""Seeded command generators for the three benchmark workloads.

Each workload is an endless, seed-determined stream of `Command`s: a CLI
subcommand, the JSON config it receives, and what the oracle needs to know
about it.  The stream repeats a fixed cycle of command shapes and draws only
the numeric values, so the cost of a run is steady from seed to seed while
the inputs themselves differ.  The program sees nothing but the configs.

Frequencies are in one shared unit; omega is drawn around the validation
suite's reference value 30 so the acceptance tolerances, scaled by omega/30,
apply unchanged.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

# Never used while tuning the benchmark or an optimisation; run it only to
# confirm a gain measured on other seeds.
HELD_OUT_SEED = 20261017

WORKLOADS = ("sweep", "findep", "oneshot")

SWEEP_POINTS = 1001
# Commands per traced pass: fixed, so per-layer counts repeat exactly.
TRACE_COMMANDS = {"sweep": 4, "findep": 4, "oneshot": 160}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the facts its oracle check relies on."""

    subcommand: str
    config: dict
    expect: dict = field(default_factory=dict)

    def config_bytes(self):
        return json.dumps(self.config, sort_keys=True).encode()

    def key(self):
        """Generator key: evaluations sharing it could share precomputation."""
        p = self.config["params"]
        return (self.config["model"], self.config["basis"],
                p.get("gamma_sp"), p.get("delta_opt", 0.0))


def _r(x):
    # six significant digits keep configs short and exactly reproducible
    return float(f"{x:.6g}")


def _gamma_sp(rng, top=7.0):
    return _r(10.0 ** rng.uniform(4.0, top))


def _omega(rng):
    return _r(rng.uniform(20.0, 40.0))


def _cfg(model, basis, **params):
    return {"model": model, "basis": basis, "params": params}


# ---------------------------------------------------------------- sweep

def _sweep_command(rng, slot, points=SWEEP_POINTS):
    """Slot 0..3: eff3/Gell-Mann and full4/Fock-Liouville, alternating, over
    j and delta_rf.  Every slot carries ground relaxation: its nine extra
    jumps double the cost of a point, and equal costs keep the median
    latency of a run inside one slot's range."""
    om = _omega(rng)
    gsp = _gamma_sp(rng)
    model, basis = (("eff3", "gellmann") if slot % 2 == 0
                    else ("full4", "fockliouville"))
    params = dict(omega=om, q=_r(rng.uniform(0.0, 1.0)), gamma_sp=gsp,
                  gamma_g=_r(rng.uniform(0.01, 0.1) * om))
    if slot == 0:
        # resonant: delta_rf and delta_opt stay at zero
        params["j"] = _r(0.5 * om)
    else:
        params["delta_opt"] = _r(rng.uniform(-0.01, 0.01) * gsp)
    if slot < 2:
        blk = {"parameter": "j", "start": _r(0.05 * om), "stop": _r(2.0 * om)}
        if slot == 1:
            params["delta_rf"] = _r(rng.uniform(0.0, 0.5) * om)
    else:
        blk = {"parameter": "delta_rf", "start": _r(-om), "stop": _r(om)}
        params["j"] = _r(rng.uniform(0.2, 1.5) * om)
    cfg = _cfg(model, basis, **params)
    blk["points"] = points
    cfg["sweep"] = blk
    # grid rows the oracle recomputes
    rows = sorted(int(i) for i in rng.choice(points, size=4, replace=False))
    return Command("sweep", cfg, {"rows": rows})


# ---------------------------------------------------------------- findep

def _findep_command(rng, slot):
    """Slot 0, 2: operator-level pair search around j = omega/sqrt(2).
    Slot 1, 3: superoperator-level triple search at q = 0 (Gell-Mann, then
    Fock-Liouville)."""
    om = _omega(rng)
    gsp = _gamma_sp(rng)
    j_star = om / math.sqrt(2.0)
    scale = om / 30.0
    if slot % 2 == 0:
        lo = _r(j_star * (1.0 - rng.uniform(0.15, 0.35)))
        hi = _r(j_star * (1.0 + rng.uniform(0.15, 0.45)))
        cfg = _cfg("eff3", "gellmann", omega=om, j=_r(j_star), q=0.0,
                   gamma_sp=gsp, gamma_g=_r(rng.uniform(0.0, 0.1) * om))
        cfg["findep"] = {"box": {"j": [lo, hi]}, "target_mult": 2,
                         "level": "operator"}
        expect = {"kind": "pair", "j": j_star, "tol_j": 1e-4 * scale}
    else:
        lo = _r(j_star * (1.0 - rng.uniform(0.1, 0.2)))
        hi = _r(j_star * (1.0 + rng.uniform(0.1, 0.2)))
        basis = "gellmann" if slot == 1 else "fockliouville"
        cfg = _cfg("eff3", basis, omega=om, j=_r(j_star), q=0.0, gamma_sp=gsp)
        cfg["findep"] = {"box": {"j": [lo, hi]}, "target_mult": 3,
                         "level": "superoperator"}
        expect = {"kind": "triple_superop", "j": j_star, "tol_j": 1e-3 * scale,
                  "cluster": -2.0 * om, "cluster_radius": 1.0 * scale}
    return Command("find-ep", cfg, expect)


# ---------------------------------------------------------------- oneshot

def _random_rho(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    rho = 0.5 * (rho + rho.conj().T)
    return [[[float(z.real), float(z.imag)] for z in row] for row in rho]


def _oneshot_command(rng, slot):
    """Eight shapes: six spectra (both models, both bases, two at the
    operator pair EP j = omega/sqrt(2)) and two q = 1 evolutions."""
    om = _omega(rng)
    # Up to 1e6 only for the evolutions: with gamma_sp drawn up to 1e7, about
    # one full4 evolution in 650 had its eigen-expansion route drift ~1.2e-8
    # from expm, past the 1e-8 route check.
    gsp = _gamma_sp(rng, 7.0 if slot < 6 else 6.0)
    q = _r(rng.uniform(0.0, 1.0))
    detuned = dict(delta_rf=_r(rng.uniform(0.05, 0.5) * om),
                   delta_opt=_r(rng.uniform(-0.05, 0.05) * gsp))
    j = _r(rng.uniform(0.1, 1.5) * om)
    if slot == 0:
        cfg = _cfg("eff3", "gellmann", omega=om, j=j, q=q, gamma_sp=gsp)
        return Command("spectrum", cfg)
    if slot in (1, 4):
        basis = "fockliouville" if slot == 1 else "gellmann"
        cfg = _cfg("eff3", basis, omega=om, j=om / math.sqrt(2.0), q=q,
                   gamma_sp=gsp)
        return Command("spectrum", cfg, {"ep_value": -om})
    if slot == 2:
        cfg = _cfg("full4", "fockliouville", omega=om, j=j, q=q, gamma_sp=gsp,
                   gamma_g=_r(rng.uniform(0.0, 0.1) * om), **detuned)
        return Command("spectrum", cfg)
    if slot == 3:
        cfg = _cfg("full4", "gellmann", omega=om, j=j, q=q, gamma_sp=gsp,
                   **detuned)
        return Command("spectrum", cfg)
    if slot == 5:
        cfg = _cfg("eff3", "fockliouville", omega=om, j=j, q=q, gamma_sp=gsp,
                   gamma_g=_r(rng.uniform(0.01, 0.1) * om), **detuned)
        return Command("spectrum", cfg)
    model, basis, d = (("eff3", "gellmann", 3) if slot == 6
                       else ("full4", "fockliouville", 4))
    cfg = _cfg(model, basis, omega=om, j=j, q=1.0, gamma_sp=gsp, **detuned)
    cfg["evolve"] = {"t_max": _r(rng.uniform(0.5, 5.0) / om), "steps": 4,
                     "rho0": _random_rho(rng, d)}
    return Command("evolve", cfg)


_MAKERS = {"sweep": _sweep_command, "findep": _findep_command,
           "oneshot": _oneshot_command}
# Commands in one cycle of each workload's fixed mix of command shapes.
PERIOD = {"sweep": 4, "findep": 4, "oneshot": 8}


def commands(workload, seed):
    """Endless command stream of a workload; identical for identical seeds."""
    make, period = _MAKERS[workload], PERIOD[workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    k = 0
    while True:
        yield make(rng, k % period)
        k += 1


def warmup(workload, seed):
    """The untimed first command of a process: small, of the workload's kind."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), 1])
    if workload == "sweep":
        return _sweep_command(rng, 0, points=51)
    if workload == "findep":
        return _findep_command(rng, 0)
    return _oneshot_command(rng, 0)


def digest(cmds):
    """SHA-256 over the configs of a command sequence, in order."""
    h = hashlib.sha256()
    for c in cmds:
        h.update(c.subcommand.encode() + b"\0" + c.config_bytes() + b"\n")
    return h.hexdigest()
