"""Command-line front end.

    lioup spectrum|sweep|find-ep|validate|evolve --config cfg.json [--out f]

Configs are JSON; unknown keys are rejected before any computation.  Numeric
output uses fixed %.12e formatting so identical configs produce byte-identical
files.  Exit codes: 0 success, 1 validation-criteria failure, 2 schema or
config error or an unwritable --out, 3 numerical failure, 4 partial result
(a sweep wrote its output, but some grid points failed).
"""

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import __version__, model, spectra, superop

FLOAT_FMT = "%.12e"

TOLERANCES = {
    "tol_class_rel": spectra.TOL_CLASS_REL,
    "cluster_c": spectra.CLUSTER_C,
}

PARAM_KEYS = tuple(f.name for f in dataclasses.fields(model.ModelParams))
# The keys a config may hold, each mapped to its block's keys or to None
CONFIG_KEYS = {"model": None, "basis": None, "params": PARAM_KEYS,
               "sweep": ("parameter", "start", "stop", "points", "level"),
               "findep": ("box", "target_mult", "level"),
               "evolve": ("rho0", "t_max", "steps")}
SWEEPABLE = {"j", "omega", "omega_r", "delta_rf", "delta_opt", "gamma_g", "q"}


class SchemaError(Exception):
    pass


def _fmt(x):
    return FLOAT_FMT % float(x)


@functools.lru_cache(maxsize=None)
def _format_words():
    """The 4-byte words `_format_rows` builds its cells from, made on first
    use: every 4-digit group, sign with lead digit and point, exponent field
    and separator; then, at offset k + 22 for -22 <= k <= 44, the factors
    10**clip(k, 0, 22), 10**max(k - 22, 0) and 10**max(-k, 0), which a
    double holds exactly."""
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), axis=-1)
    heads = [f"{sign}{lead}." for sign in ("", "-") for lead in range(10)]
    tails = [f"e{e:+03d}" for e in range(-99, 100)]
    return (quads.reshape(-1, 4).copy().view(np.uint32).ravel(),
            np.array(heads, dtype="S4").view(np.uint32),
            np.array(tails, dtype="S4").view(np.uint32),
            np.array([",", "\r\n"], dtype="S4").view(np.uint32),
            np.array([float(10 ** min(max(k, 0), 22)) for k in range(-22, 45)]),
            np.array([float(10 ** max(k - 22, 0)) for k in range(-22, 45)]),
            np.array([float(10 ** max(-k, 0)) for k in range(-22, 45)]))


def _format_rows(table):
    """CSV rows of a 2-D float array, each value as FLOAT_FMT % x, the values
    joined by ',' and each row ended by CRLF, as a list of pieces of text
    formatted a block of rows at a time: joined, they are byte for byte the
    text of per-value formatting."""
    table = np.asarray(table, dtype=float)
    step = max(1, 4096 // table.shape[1])
    return [_format_block(table[r:r + step]) for r in range(0, len(table), step)]


def _format_block(x):
    # %.12e prints m = rint(|x| 10**(12 - e)) as d.dddddddddddd with the
    # exponent e = floor(log10 |x|).  Scaled by exact powers of ten, one
    # factor for e >= -10 and two below, s takes at most two roundings, so
    # it lies within 2.3e-3 of the exact value (s < 1e13, 2**-53 relative
    # each) and rint(s) is the correctly rounded m unless s lies within 4e-3
    # of a half.  Such values, non-finite ones and those whose exponent
    # needs a power beyond 10**44 or 10**-22 go through FLOAT_FMT.
    quads, heads, tails, seps, up, up_more, down = _format_words()
    a = np.abs(x)
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(a))
    fast = (e >= -32.0) & (e <= 34.0)  # so that -22 <= 12 - e <= 44
    zero = a == 0.0
    a = np.where(fast, a, 1.0)
    k = np.where(fast, 34.0 - e, 22.0).astype(np.intp)  # 12 - e, offset by 22
    s = a * up[k] * up_more[k] / down[k]
    m = np.rint(s)
    # Should log10 miss by one next to a power of ten, s leaves [1e12, 1e13)
    # unless it lies within rounding of an end, where both exponents print
    # the same text
    fast &= (s >= 1e12) & (s < 1e13) & (np.abs(s - m) < 0.5 - 4e-3)
    top = m == 1e13  # rounded up to the next power of ten
    m[top] = 1e12
    k[top] -= 1
    m[~fast] = 0.0
    fast |= zero
    k[zero] = 34
    lead, rest = np.divmod(m.astype(np.int64), 10 ** 12)
    g1, rest = np.divmod(rest, 10 ** 8)
    g2, g3 = np.divmod(rest, 10 ** 4)
    # one cell of six words per value: the NUL-padded text of at most 20
    # bytes, then the separator; the NULs are dropped once, at the end
    cells = np.empty(x.shape + (6,), dtype=np.uint32)
    cells[..., 0] = heads[lead + 10 * np.signbit(x)]
    cells[..., 1] = quads[g1]
    cells[..., 2] = quads[g2]
    cells[..., 3] = quads[g3]
    cells[..., 4] = tails[133 - k]  # e + 99
    cells[..., 5] = seps[0]
    cells[:, -1, 5] = seps[1]
    slow = ~fast
    if slow.any():
        text = [FLOAT_FMT % v for v in x[slow].tolist()]
        cells[slow, :5] = np.array(text, dtype="S20").view(np.uint32).reshape(-1, 5)
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def _matrix_from_json(rows):
    """A complex matrix from nested lists of [re, im] pairs."""
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _check_keys(obj, allowed, path):
    if not isinstance(obj, dict):
        raise SchemaError(f"'{path}' must be an object")
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"unknown key '{path}.{key}'")


def _number(obj, key, path):
    if key not in obj:
        raise SchemaError(f"missing key '{path}.{key}'")
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


def load_config(path):
    """The config at `path` as parsed, every block's keys in CONFIG_KEYS."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemaError(f"cannot read config: {exc}") from exc
    _check_keys(cfg, CONFIG_KEYS, "config")
    if cfg.get("model") not in ("eff3", "full4"):
        raise SchemaError("'config.model' must be 'eff3' or 'full4'")
    # Every command solves the model's real Gell-Mann generator whatever the
    # basis: S / sqrt(2) is unitary, so spectrum and conditioning are the
    # same, and `basis` is only echoed in the metadata.
    if cfg.get("basis", "gellmann") not in ("gellmann", "fockliouville"):
        raise SchemaError("'config.basis' must be 'gellmann' or 'fockliouville'")
    _block(cfg, "params")
    for name, allowed in CONFIG_KEYS.items():
        if allowed is not None and name in cfg:
            _check_keys(cfg[name], allowed, f"config.{name}")
    return cfg


def _block(cfg, name):
    if name not in cfg:
        raise SchemaError(f"missing key 'config.{name}'")
    return cfg[name]


def params_from_config(cfg):
    raw = {k: _number(cfg["params"], k, "config.params") for k in cfg["params"]}
    try:
        return model.ModelParams(**raw)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid 'config.params': {exc}") from exc


def _search_space(cfg, name, box, box_path, q_key):
    """(params, generator, level, builder) of the `name` block, whose level
    is "superoperator" (the default) or "operator".  The block varies the
    fields of `box`, a map of fields to (lo, hi) set at `box_path`, and q,
    if among them, at `q_key`; the params must be valid at every corner."""
    level = cfg[name].get("level", "superoperator")
    if level not in ("superoperator", "operator"):
        raise SchemaError(f"'config.{name}.level' must be 'superoperator' or 'operator'")
    if level == "operator" and "q" in box:
        raise SchemaError(f"'{q_key}' cannot vary q at operator level: H_nh "
                          "does not depend on q")
    p = params_from_config(cfg)
    try:
        model.check_box(p, box)
    except ValueError as exc:
        raise SchemaError(f"'{box_path}' has {exc}") from exc
    gen = superop.generator(cfg["model"])
    return p, gen, level, gen.operators if level == "operator" else gen.matrices


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
    }
    if r.params is not None:
        out["params"] = {k: _fmt(getattr(r.params, k)) for k in PARAM_KEYS}
    return out


def _csv(header, table):
    """CSV text: the header line, then the rows of a 2-D float array."""
    return "".join([",".join(header) + "\r\n"] + _format_rows(table))


def _json(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(text, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write output: {exc}") from exc


def _emit_metadata(cfg, out_path, extra=None):
    if out_path:
        _emit(_json({**_metadata(cfg), **(extra or {})}), f"{out_path}.meta.json")


def cmd_spectrum(cfg, out_path):
    m = superop.generator(cfg["model"]).matrices(params_from_config(cfg))[0]
    ev, reports = spectra.detect_degeneracy(m)
    doc = {
        "metadata": _metadata(cfg),
        "eigenvalues": [_complex_json(z) for z in ev],
        "classifications": spectra.classify(ev),
        "splittings": [[i, j, _fmt(re), _fmt(im)]
                       for i, j, re, im in spectra.splittings(ev)],
        "degeneracies": [_report_json(r) for r in reports],
        "real_part_groups": [{"size": g.size, "mean_re": _fmt(g.real.mean())}
                             for g in spectra.real_part_groups(ev)],
    }
    _emit(_json(doc), out_path)
    return 0


def cmd_sweep(cfg, out_path):
    blk = _block(cfg, "sweep")
    parameter = blk.get("parameter")
    if not isinstance(parameter, str) or parameter not in SWEEPABLE:
        raise SchemaError(f"'config.sweep.parameter' must be one of {sorted(SWEEPABLE)}")
    start = _number(blk, "start", "config.sweep")
    stop = _number(blk, "stop", "config.sweep")
    points = _integer(blk, "points", "config.sweep")
    if stop <= start:
        raise SchemaError("'config.sweep.stop' must exceed start")
    p, _, level, build = _search_space(cfg, "sweep", {parameter: (start, stop)},
                                       "config.sweep", "config.sweep.parameter")
    grid = np.linspace(start, stop, points)
    # a range symmetric about zero in a field whose sign the spectrum ignores
    # gets an exactly antisymmetric grid, the linspace's first half negated
    # into its second, and the sweep solves half of it
    mirrored = parameter in model.SIGN_SYMMETRIC[level] and start == -stop
    if mirrored:
        half = grid[:points // 2]
        grid = np.concatenate([half, np.zeros(points % 2), -half[::-1]])
    branches, candidates, failures = spectra.sweep(build(p, {parameter: grid}),
                                                   mirrored)

    nb = branches.shape[0]
    header = ([parameter] + [f"re_{k + 1}" for k in range(nb)]
              + [f"im_{k + 1}" for k in range(nb)])
    table = np.column_stack([grid, branches.real.T, branches.imag.T])
    _emit(_csv(header, table), out_path)
    _emit_metadata(cfg, out_path, extra={
        "branch_provenance": "columns follow the (re, im)-sorted eigenvalues "
                             "at the first solved grid point, each shared "
                             "block tracked by minimal-total-distance assignment; "
                             "a column is one branch only up to its first EP "
                             "candidate, past which a rounding-level change may "
                             "swap the labels of the coalescing pair",
        "ep_candidates": [{"index": i, parameter: _fmt(grid[i])}
                          for i in candidates],
        "failures": [{"index": i, parameter: _fmt(grid[i]), "message": msg}
                     for i, msg in failures]})
    for idx, msg in failures:
        print(f"warning: grid point {idx} failed: {msg}", file=sys.stderr)
    return 4 if failures else 0


def cmd_find_ep(cfg, out_path):
    blk = _block(cfg, "findep")
    box_raw = blk.get("box")
    if not isinstance(box_raw, dict) or not 1 <= len(box_raw) <= 2:
        raise SchemaError("'config.findep.box' must map 1 or 2 parameters to ranges")
    box = {}
    for key, rng in box_raw.items():
        if key not in SWEEPABLE:
            raise SchemaError(f"'config.findep.box.{key}' is not a searchable parameter")
        if not isinstance(rng, list) or len(rng) != 2:
            raise SchemaError(f"'config.findep.box.{key}' must be [lo, hi]")
        box[key] = tuple(_number({key: v}, key, "config.findep.box") for v in rng)
        if box[key][1] <= box[key][0]:
            raise SchemaError(f"'config.findep.box.{key}' must have lo < hi")
    target = _integer(blk, "target_mult", "config.findep")
    p, gen, level, build = _search_space(cfg, "findep", box, "config.findep.box",
                                         "config.findep.box.q")
    dim = gen.form.dim if level == "operator" else gen.form.dim ** 2
    if target > dim:
        raise SchemaError(f"'config.findep.target_mult' must be at most {dim}, "
                          f"the dimension at {level} level")
    reports = spectra.find_ep(build, box, target, p)
    doc = {"metadata": _metadata(cfg),
           "reports": [_report_json(r) for r in reports]}
    _emit(_json(doc), out_path)
    return 0


def cmd_evolve(cfg, out_path):
    blk = _block(cfg, "evolve")
    t_max = _number(blk, "t_max", "config.evolve")
    if t_max <= 0:
        raise SchemaError("'config.evolve.t_max' must be positive")
    steps = _integer(blk, "steps", "config.evolve")

    p = params_from_config(cfg)
    gen = superop.generator(cfg["model"])
    d = gen.form.dim

    spec0 = blk.get("rho0", "mixed")
    if spec0 == "mixed":
        rho0 = np.eye(d) / d
    elif isinstance(spec0, list):
        try:
            rho0 = _matrix_from_json(spec0)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"invalid 'config.evolve.rho0': {exc}") from exc
        if rho0.shape != (d, d):
            raise SchemaError(f"'config.evolve.rho0' must be {d}x{d}")
    else:
        raise SchemaError("'config.evolve.rho0' must be 'mixed' or a matrix of "
                          "[re, im] pairs")

    try:
        states, route_diff = spectra.evolve_check(gen.matrices(p)[0], rho0,
                                                  t_max, steps)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    header = ["t", "trace"] + [f"pop_{k + 1}" for k in range(d)] + ["route_diff"]
    # route_diff is NaN for a defective generator (eigenvector condition
    # number above 1e12), and where the eigen-expansion overflows at long times
    times = np.linspace(0.0, t_max, steps)  # the times evolve_check steps to
    table = np.column_stack([times, np.trace(states, axis1=1, axis2=2).real,
                             states.diagonal(axis1=1, axis2=2).real, route_diff])
    _emit(_csv(header, table), out_path)
    _emit_metadata(cfg, out_path)
    return 0


def cmd_validate(out_path):
    from . import validate  # its checks and closed forms serve this command only

    _emit("", out_path)  # an unwritable --out fails before the suite runs
    report, ok = validate.format_report(validate.run_all())
    _emit(report + "\n", out_path)
    return 0 if ok else 1


@functools.lru_cache(maxsize=None)
def _parser():
    """The argument parser, built once per process."""
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
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

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
    except (np.linalg.LinAlgError, ArithmeticError, ValueError,
            RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
