"""Command-line front end.

    lioup spectrum|sweep|find-ep|validate|evolve --config cfg.json [--out f]

Configs are JSON; unknown keys are rejected before any computation.  Numeric
output uses fixed %.12e formatting so identical configs produce byte-identical
files.  Exit codes: 0 success, 1 validation-criteria failure, 2 schema or
config error, 3 numerical failure.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, linalg, model, spectra, superop, validate

FLOAT_FMT = "%.12e"

TOLERANCES = {
    "tol_eig": linalg.TOL_EIG,
    "tol_rank": linalg.TOL_RANK,
    "tol_cluster_rel": spectra.TOL_CLUSTER_REL,
    "tol_class_rel": spectra.TOL_CLASS_REL,
}

PARAM_KEYS = {"omega", "omega_r", "j", "delta_rf", "delta_opt",
              "gamma_sp", "gamma_g", "q"}
SWEEPABLE = {"j", "omega", "omega_r", "delta_rf", "delta_opt", "gamma_g"}


class SchemaError(Exception):
    pass


def _fmt(x):
    return FLOAT_FMT % float(x)


def _check_keys(obj, allowed, path):
    if not isinstance(obj, dict):
        raise SchemaError(f"'{path}' must be an object")
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"unknown key '{path}.{key}'")


def _number(obj, key, path, required=False, default=None):
    if key not in obj:
        if required:
            raise SchemaError(f"missing key '{path}.{key}'")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"'{path}.{key}' must be a number")
    try:
        v = float(v)
    except OverflowError:  # an integer beyond float range
        v = math.inf
    if not math.isfinite(v):
        raise SchemaError(f"'{path}.{key}' must be finite")
    return v


def _integer(blk, key, path):
    v = blk.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 2:
        raise SchemaError(f"'{path}.{key}' must be an integer >= 2")
    return v


def _level(cfg, blk, path):
    """The block's `level` as a builder: the model's gen.operator or gen.matrix."""
    level = blk.get("level", "superoperator")
    if level not in ("superoperator", "operator"):
        raise SchemaError(f"'{path}.level' must be 'superoperator' or 'operator'")
    gen = superop.generator(cfg["model"])
    return gen.operator if level == "operator" else gen.matrix


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read config: {exc}") from exc
    _check_keys(cfg, {"model", "basis", "params", "spectrum", "sweep",
                      "findep", "evolve"}, "config")
    if cfg.get("model") not in ("eff3", "full4"):
        raise SchemaError("'config.model' must be 'eff3' or 'full4'")
    # Every command solves the model's real Gell-Mann generator whatever the
    # basis: S / sqrt(2) is unitary, so spectrum and conditioning are the
    # same, and `basis` is only echoed in the metadata.
    basis = cfg.get("basis", "gellmann" if cfg["model"] == "eff3" else "fockliouville")
    if basis not in ("gellmann", "fockliouville"):
        raise SchemaError("'config.basis' must be 'gellmann' or 'fockliouville'")
    cfg["basis"] = basis
    if "params" not in cfg:
        raise SchemaError("missing key 'config.params'")
    _check_keys(cfg["params"], PARAM_KEYS, "config.params")
    return cfg


def params_from_config(cfg):
    raw = {k: _number(cfg["params"], k, "config.params") for k in cfg["params"]}
    try:
        return model.ModelParams(**raw)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid 'config.params': {exc}") from exc


def _metadata(cfg):
    return {"tool": "lioup", "version": __version__, "config": cfg,
            "tolerances": {k: _fmt(v) for k, v in TOLERANCES.items()}}


def _complex_json(z):
    return {"re": _fmt(z.real), "im": _fmt(z.imag)}


def _report_json(r):
    out = {
        "cluster_value": _complex_json(r.cluster_value),
        "algebraic_mult": r.algebraic_mult,
        "geometric_mult": r.geometric_mult,
        "order": r.order,
        "kind": r.kind,
        "partition": list(r.partition),
        "indices": list(r.indices),
        "gap_residual": _fmt(r.gap_residual),
        "vector_overlap": _fmt(r.vector_overlap),
        "flags": list(r.flags),
    }
    if r.params is not None:
        out["params"] = {k: _fmt(getattr(r.params, k))
                         for k in ("omega", "omega_r", "j", "delta_rf",
                                   "delta_opt", "gamma_sp", "gamma_g", "q")}
    return out


def _real_part_groups(values):
    reals = np.sort(values.real)
    spread = reals[-1] - reals[0]
    if spread == 0.0:
        return [{"size": len(reals), "mean_re": _fmt(reals.mean())}]
    groups = spectra._single_linkage(reals + 0j, 0.05 * spread)
    out = []
    for g in groups:
        out.append({"size": len(g), "mean_re": _fmt(np.mean(reals[list(g)]))})
    out.sort(key=lambda d: float(d["mean_re"]), reverse=True)
    return out


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_metadata(cfg, out_path, extra=None):
    if out_path:
        doc = _metadata(cfg)
        if extra:
            doc.update(extra)
        with open(f"{out_path}.meta.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def cmd_spectrum(cfg, out_path):
    tol_cluster = None
    if "spectrum" in cfg:
        _check_keys(cfg["spectrum"], {"tol_cluster"}, "config.spectrum")
        tol_cluster = _number(cfg["spectrum"], "tol_cluster", "config.spectrum")
        if tol_cluster is not None and tol_cluster <= 0:
            raise SchemaError("'config.spectrum.tol_cluster' must be positive")
    m = superop.generator(cfg["model"]).matrix(params_from_config(cfg))
    ev, reports = spectra.detect_degeneracy(m, tol_cluster=tol_cluster)
    doc = {
        "metadata": _metadata(cfg),
        "eigenvalues": [_complex_json(z) for z in ev],
        "classifications": spectra.classify(ev),
        "splittings": [[i, j, _fmt(re), _fmt(im)]
                       for i, j, re, im in spectra.splittings(ev)],
        "degeneracies": [_report_json(r) for r in reports],
        "real_part_groups": _real_part_groups(ev),
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", out_path)
    return 0


def cmd_sweep(cfg, out_path):
    if "sweep" not in cfg:
        raise SchemaError("missing key 'config.sweep'")
    blk = cfg["sweep"]
    _check_keys(blk, {"parameter", "start", "stop", "points", "level"},
                "config.sweep")
    parameter = blk.get("parameter")
    if parameter not in SWEEPABLE:
        raise SchemaError(f"'config.sweep.parameter' must be one of {sorted(SWEEPABLE)}")
    start = _number(blk, "start", "config.sweep", required=True)
    stop = _number(blk, "stop", "config.sweep", required=True)
    points = _integer(blk, "points", "config.sweep")
    if stop <= start:
        raise SchemaError("'config.sweep.stop' must exceed start")
    builder = _level(cfg, blk, "config.sweep")

    p = params_from_config(cfg)
    grid = np.linspace(start, stop, points)
    result = spectra.sweep(builder, parameter, grid, p)

    nb = result.branches.shape[0]
    header = ([parameter] + [f"re_{k + 1}" for k in range(nb)]
              + [f"im_{k + 1}" for k in range(nb)])
    row_fmt = ",".join([FLOAT_FMT] * (1 + 2 * nb))
    table = np.column_stack([result.grid, result.branches.real.T,
                             result.branches.imag.T])
    lines = [",".join(header)] + [row_fmt % tuple(row.tolist()) for row in table]
    _emit("\r\n".join(lines) + "\r\n", out_path)
    _emit_metadata(cfg, out_path, extra={
        "branch_provenance": "columns follow the (re, im)-sorted eigenvalues "
                             "at the first grid point, continuity-tracked by "
                             "minimal-total-distance assignment",
        "ep_candidates": [{"index": i, parameter: _fmt(grid[i])}
                          for i in result.ep_candidates],
        "failures": [{"index": i, parameter: _fmt(grid[i]), "message": msg}
                     for i, msg in result.failures]})
    if result.failures:
        for idx, msg in result.failures:
            print(f"warning: grid point {idx} failed: {msg}", file=sys.stderr)
    return 0


def cmd_find_ep(cfg, out_path):
    if "findep" not in cfg:
        raise SchemaError("missing key 'config.findep'")
    blk = cfg["findep"]
    _check_keys(blk, {"box", "target_mult", "level"}, "config.findep")
    box_raw = blk.get("box")
    if not isinstance(box_raw, dict) or not 1 <= len(box_raw) <= 2:
        raise SchemaError("'config.findep.box' must map 1 or 2 parameters to ranges")
    box = {}
    for key, rng in box_raw.items():
        if key not in SWEEPABLE:
            raise SchemaError(f"'config.findep.box.{key}' is not a searchable parameter")
        if (not isinstance(rng, list) or len(rng) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float))
                       for v in rng)):
            raise SchemaError(f"'config.findep.box.{key}' must be [lo, hi]")
        box[key] = tuple(_number({key: v}, key, "config.findep.box") for v in rng)
    target = _integer(blk, "target_mult", "config.findep")
    builder = _level(cfg, blk, "config.findep")

    p = params_from_config(cfg)
    reports = spectra.find_ep(builder, box, target, p)
    doc = {"metadata": _metadata(cfg),
           "reports": [_report_json(r) for r in reports]}
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", out_path)
    return 0


def cmd_evolve(cfg, out_path):
    if "evolve" not in cfg:
        raise SchemaError("missing key 'config.evolve'")
    blk = cfg["evolve"]
    _check_keys(blk, {"rho0", "t_max", "steps"}, "config.evolve")
    t_max = _number(blk, "t_max", "config.evolve", required=True)
    if t_max <= 0:
        raise SchemaError("'config.evolve.t_max' must be positive")
    steps = _integer(blk, "steps", "config.evolve")

    p = params_from_config(cfg)
    if p.q != 1.0:
        raise SchemaError("'config.params.q' must be 1 for evolve: hybrid "
                          "generators with q < 1 are not trace-preserving")
    gen = superop.generator(cfg["model"])
    d = gen.form.dim

    spec0 = blk.get("rho0", "mixed")
    if spec0 == "mixed":
        rho0 = np.eye(d) / d
    elif isinstance(spec0, list):
        try:
            rho0 = superop.matrix_from_json(spec0)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"invalid 'config.evolve.rho0': {exc}") from exc
        if rho0.shape != (d, d):
            raise SchemaError(f"'config.evolve.rho0' must be {d}x{d}")
    else:
        raise SchemaError("'config.evolve.rho0' must be 'mixed' or a matrix of "
                          "[re, im] pairs")

    times = np.linspace(0.0, t_max, steps)
    try:
        res = spectra.evolve_check(gen.matrix(p), rho0, times)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    header = ["t", "trace"] + [f"pop_{k + 1}" for k in range(d)] + ["route_diff"]
    lines = [",".join(header)]
    for t, rho, diff in zip(times, res.rho_expm, res.max_diff):
        row = [_fmt(t), _fmt(np.trace(rho).real)]
        row += [_fmt(rho[k, k].real) for k in range(d)]
        row.append(_fmt(diff))  # NaN when the generator is defective
        lines.append(",".join(row))
    _emit("\r\n".join(lines) + "\r\n", out_path)
    _emit_metadata(cfg, out_path)
    return 0


def cmd_validate(out_path):
    results = validate.run_all()
    report, ok = validate.format_report(results)
    _emit(report + "\n", out_path)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lioup",
        description="Spectra and exceptional points of the driven dissipative "
                    "alkali-vapor model")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "sweep", "find-ep", "evolve", "validate"):
        sp = sub.add_parser(name)
        if name != "validate":
            sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            return cmd_validate(args.out)
        cfg = load_config(args.config)
        handler = {"spectrum": cmd_spectrum, "sweep": cmd_sweep,
                   "find-ep": cmd_find_ep, "evolve": cmd_evolve}[args.command]
        return handler(cfg, args.out)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (linalg.ConvergenceError, np.linalg.LinAlgError, FloatingPointError,
            ValueError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
