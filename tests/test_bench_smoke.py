"""Smoke run of the benchmark's command mix against its output oracle.

perfbench/workloads.py, perfbench/oracle.py and perfbench/tracer.py are
loaded read-only from their source (no bytecode is written next to them).
Each command runs through cli.main with its output captured, and the oracle
must find nothing wrong: the four sweep slots on small grids, then one cycle
of the oneshot and of the findep command mix.  Each `spectrum` report's
`indices` must also point at listed eigenvalues of its cluster, and its
multiplicities, order and Jordan chains must agree.  One repetition and no
timing gates.  The Jordan chains of the spectra among the first 80 oneshot
commands of seed 1 must match an ordered Schur form's.  The tracer's
targets must name callables of the program, so that a rename breaks this
suite and not only traced benchmark runs.
"""

import ast
import contextlib
import importlib
import io
import itertools
import json
import pathlib
import sys
import types

import numpy as np
import pytest

from lioup import cli, spectra, superop

from conftest import inconsistent_reports, misindexed_reports, schur_partition

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SEED = 3
SWEEP_POINTS = 51


def _load(name):
    path = PERFBENCH / f"{name}.py"
    mod = types.ModuleType(f"perfbench_{name}")
    mod.__file__ = str(path)
    sys.modules[mod.__name__] = mod  # dataclasses resolve their module here
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), mod.__dict__)
    return mod


workloads = _load("workloads")
oracle = _load("oracle")
tracer = _load("tracer")


def _commands():
    rng = np.random.default_rng([SEED, workloads.WORKLOADS.index("sweep")])
    sweeps = [workloads._sweep_command(rng, slot, points=SWEEP_POINTS)
              for slot in range(workloads.PERIOD["sweep"])]
    cycles = []
    for workload in ("oneshot", "findep"):
        stream = workloads.commands(workload, SEED)
        cycles += [next(stream) for _ in range(workloads.PERIOD[workload])]
    return sweeps + cycles


COMMANDS = _commands()


@pytest.mark.parametrize("cmd", COMMANDS,
                         ids=[f"{k}-{c.subcommand}" for k, c in enumerate(COMMANDS)])
def test_oracle_accepts_the_output(tmp_path, cmd):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cmd.config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([cmd.subcommand, "--config", str(path)])
    assert rc == 0, err.getvalue()
    fails, _ = oracle.check(cmd, out.getvalue(), err.getvalue())
    assert fails == []
    if cmd.subcommand == "spectrum":
        doc = json.loads(out.getvalue())
        assert misindexed_reports(doc) == []
        assert inconsistent_reports(doc["degeneracies"]) == []


SCHUR_COMMANDS = [(k, cmd) for k, cmd in enumerate(itertools.islice(
    workloads.commands("oneshot", 1), 80)) if cmd.subcommand == "spectrum"]


@pytest.mark.parametrize("cmd", [cmd for _, cmd in SCHUR_COMMANDS],
                         ids=[f"seed1-{k}" for k, _ in SCHUR_COMMANDS])
def test_jordan_chains_match_an_ordered_schur_form(cmd):
    # the matrix `spectrum` solves
    m = superop.generator(cmd.config["model"]).matrices(
        cli.params_from_config(cmd.config))[0]
    values, reports = spectra.detect_degeneracy(m)
    assert [r.partition for r in reports] == [
        schur_partition(m, values, r.indices) for r in reports]


def _traced_modules():
    """The short-name -> lioup module map that perfbench/run.py hands the tracer."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["modules"]):
            return {k.value: importlib.import_module(f"lioup.{v.id}")
                    for k, v in zip(node.value.keys, node.value.values)}
    raise AssertionError("no `modules` map in perfbench/run.py")


@pytest.mark.parametrize("mod,attr,name", tracer.TARGETS,
                         ids=[t[2] for t in tracer.TARGETS])
def test_tracer_targets_exist(mod, attr, name):
    assert callable(getattr(_traced_modules()[mod], attr, None)), name
