"""Which SciPy packages, and whether `lioup.validate`, a CLI command loads.

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

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
from lioup import cli
rc = cli.main(sys.argv[1:])
print(json.dumps([rc, sorted(m for m in sys.modules if m == "scipy"
                             or m.startswith("scipy.") or m == "lioup.validate")]))
"""

PARAMS = {"omega": 30.0, "j": 10.0, "q": 1.0}


def run_fresh(tmp_path, command, cfg):
    """(exit code, names of the SciPy modules and of lioup.validate if
    loaded) of one command in a new interpreter."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, command, "--config", str(path),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    rc, modules = json.loads(proc.stdout.strip().splitlines()[-1])
    return rc, set(modules)


def test_spectrum_loads_no_scipy(tmp_path):
    rc, modules = run_fresh(tmp_path, "spectrum",
                            {"model": "eff3", "params": PARAMS})
    assert rc == 0
    assert modules == set()


def test_spectrum_does_not_load_validate(tmp_path):
    rc, modules = run_fresh(tmp_path, "spectrum",
                            {"model": "full4", "params": PARAMS})
    assert rc == 0
    assert "lioup.validate" not in modules


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


def test_sweep_with_only_clear_steps_loads_no_scipy(tmp_path):
    # a detuned sweep whose every step is settled by the nearest neighbours,
    # so the assignment solver is never called
    rc, modules = run_fresh(tmp_path, "sweep", {
        "model": "eff3",
        "params": {"omega": 28.0623, "j": 23.3127, "q": 0.262313,
                   "gamma_sp": 40772.3, "gamma_g": 2.17575, "delta_opt": -179.065},
        "sweep": {"parameter": "delta_rf", "start": -28.0623, "stop": 28.0623,
                  "points": 101}})
    assert rc == 0
    assert modules == set()


def test_sweep_loads_optimize(tmp_path):
    rc, modules = run_fresh(tmp_path, "sweep", {
        "model": "eff3", "params": PARAMS,
        "sweep": {"parameter": "j", "start": 10.0, "stop": 20.0, "points": 5}})
    assert rc == 0
    assert "scipy.optimize" in modules
