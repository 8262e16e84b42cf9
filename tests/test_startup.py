"""Which SciPy packages and which `lioup` modules a CLI command loads.

No command loads SciPy, whose import costs more CPU than a spectrum
command's whole computation; `lioup.validate` loads only for `lioup
validate`.  Each case runs `lioup.cli.main` in a fresh interpreter and
checks the module names it left in `sys.modules`; nothing here is timed.
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


@pytest.mark.parametrize("command,cfg,code", [
    pytest.param("spectrum", {"model": "eff3", "params": PARAMS}, 0, id="spectrum"),
    pytest.param("spectrum", {"model": "eff3", "params": PARAMS, "colour": 1}, 2,
                 id="config_error"),
    # criterion 11 evolves through linalg.expm; J*(q) is a cubic's root
    pytest.param("validate", None, 0, id="validate"),
    pytest.param("evolve", {"model": "eff3", "params": PARAMS, "evolve": {
        "rho0": "mixed", "t_max": 0.2, "steps": 4}}, 0, id="evolve"),
    # the EP search and its certification
    *(pytest.param("find-ep", {
        "model": "eff3", "params": {**PARAMS, "q": 0.5},
        "findep": {"box": {"j": [5.0, 15.0]}, "target_mult": 2, "level": level}},
        0, id=f"find_ep_{level}") for level in ("operator", "superoperator")),
    # detuned: every step is settled by the nearest neighbours
    pytest.param("sweep", {
        "model": "eff3",
        "params": {"omega": 28.0623, "j": 23.3127, "q": 0.262313,
                   "gamma_sp": 40772.3, "gamma_g": 2.17575, "delta_opt": -179.065},
        "sweep": {"parameter": "delta_rf", "start": -28.0623, "stop": 28.0623,
                  "points": 101}}, 0, id="sweep_detuned"),
    # resonant: the exact doubles leave steps for the assignment solver
    pytest.param("sweep", {
        "model": "eff3", "params": PARAMS,
        "sweep": {"parameter": "j", "start": 10.0, "stop": 20.0, "points": 5}},
        0, id="sweep_resonant"),
    # operator level: the step across the EP at j = omega/sqrt(2) is unclear
    pytest.param("sweep", {
        "model": "eff3", "params": PARAMS,
        "sweep": {"parameter": "j", "start": 15.0, "stop": 25.0, "points": 5,
                  "level": "operator"}}, 0, id="sweep_operator"),
])
def test_no_command_loads_scipy(tmp_path, command, cfg, code):
    rc, modules = run_fresh(tmp_path, command, cfg)
    assert rc == code
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
