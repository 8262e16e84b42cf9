"""Which SciPy packages and which `lioup` modules a CLI command loads.

SciPy is imported only inside the functions that call it, because loading
it costs more CPU than a spectrum command's whole computation; likewise
`lioup.validate` only for `lioup validate`.  Each case runs `lioup.cli.main`
in a fresh interpreter and checks the module names it left in
`sys.modules`; nothing here is timed.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
from lioup import cli
rc = cli.main(sys.argv[1:])
print(json.dumps([rc] + [sorted(m for m in sys.modules
                                if m == pkg or m.startswith(pkg + "."))
                         for pkg in ("scipy", "lioup")]))
"""

PARAMS = {"omega": 30.0, "j": 10.0, "q": 1.0}


def run_fresh(tmp_path, command, cfg, package="scipy"):
    """(exit code, names of the modules of `package`, "scipy" or "lioup",
    loaded) of one command in a new interpreter; cfg None for `validate`."""
    argv = [command, "--out", str(tmp_path / "out")]
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv += ["--config", str(path)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    rc, scipy, lioup = json.loads(proc.stdout.strip().splitlines()[-1])
    return rc, set(scipy if package == "scipy" else lioup)


def test_spectrum_loads_no_scipy(tmp_path):
    rc, modules = run_fresh(tmp_path, "spectrum",
                            {"model": "eff3", "params": PARAMS})
    assert rc == 0
    assert modules == set()


@pytest.mark.parametrize("command,cfg", [
    ("spectrum", {"model": "full4", "params": PARAMS}),
    ("sweep", {"model": "eff3", "params": PARAMS, "sweep": {
        "parameter": "j", "start": 10.0, "stop": 20.0, "points": 5}}),
    ("find-ep", {"model": "eff3", "params": PARAMS, "findep": {
        "box": {"j": [15.0, 30.0]}, "target_mult": 2, "level": "operator"}}),
    ("evolve", {"model": "eff3", "params": PARAMS,
                "evolve": {"rho0": "mixed", "t_max": 0.2, "steps": 4}}),
])
def test_command_loads_only_its_pipeline(tmp_path, command, cfg):
    # lioup.validate and lioup.analytic in particular stay unloaded
    rc, modules = run_fresh(tmp_path, command, cfg, package="lioup")
    assert rc == 0
    assert modules == {"lioup", "lioup.cli", "lioup.linalg", "lioup.model",
                       "lioup.spectra", "lioup.superop"}


def test_config_error_loads_no_scipy(tmp_path):
    rc, modules = run_fresh(tmp_path, "spectrum",
                            {"model": "eff3", "params": PARAMS, "colour": 1})
    assert rc == 2
    assert modules == set()


def test_evolve_loads_linalg_but_not_optimize(tmp_path):
    rc, modules = run_fresh(tmp_path, "evolve", {
        "model": "eff3", "params": PARAMS,
        "evolve": {"rho0": "mixed", "t_max": 0.2, "steps": 4}})
    assert rc == 0
    assert "scipy.linalg" in modules
    assert "scipy.optimize" not in modules


@pytest.mark.parametrize("level", ["operator", "superoperator"])
def test_find_ep_loads_no_scipy(tmp_path, level):
    # the EP search and its certification run on NumPy alone
    rc, modules = run_fresh(tmp_path, "find-ep", {
        "model": "eff3", "params": {**PARAMS, "q": 0.5},
        "findep": {"box": {"j": [5.0, 15.0]}, "target_mult": 2, "level": level}})
    assert rc == 0
    assert modules == set()


def test_validate_loads_linalg_but_not_optimize(tmp_path):
    # criterion 11 evolves through linalg.expm; J*(q) is a cubic's root
    rc, modules = run_fresh(tmp_path, "validate", None)
    assert rc == 0
    assert "scipy.linalg" in modules
    assert not any(m == "scipy.optimize" or m.startswith("scipy.optimize.")
                   for m in modules)


@pytest.mark.parametrize("cfg", [
    # detuned: every step is settled by the nearest neighbours
    pytest.param({
        "model": "eff3",
        "params": {"omega": 28.0623, "j": 23.3127, "q": 0.262313,
                   "gamma_sp": 40772.3, "gamma_g": 2.17575, "delta_opt": -179.065},
        "sweep": {"parameter": "delta_rf", "start": -28.0623, "stop": 28.0623,
                  "points": 101}}, id="detuned"),
    # resonant: the exact doubles leave steps for the assignment solver
    pytest.param({
        "model": "eff3", "params": PARAMS,
        "sweep": {"parameter": "j", "start": 10.0, "stop": 20.0, "points": 5}},
        id="resonant"),
    # operator level: the step across the EP at j = omega/sqrt(2) is unclear
    pytest.param({
        "model": "eff3", "params": PARAMS,
        "sweep": {"parameter": "j", "start": 15.0, "stop": 25.0, "points": 5,
                  "level": "operator"}}, id="operator"),
])
def test_every_sweep_loads_no_scipy(tmp_path, cfg):
    rc, modules = run_fresh(tmp_path, "sweep", cfg)
    assert rc == 0
    assert modules == set()
