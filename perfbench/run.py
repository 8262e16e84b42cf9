"""lioup benchmark: closed-loop CLI workloads with outside-in layer tracing.

    python3 perfbench/run.py --workload sweep|findep|oneshot|all --seed N \
        --seconds S --trace 0|1

Run from anywhere; the program is imported from `src/` next to this
directory.  One client sends `lioup.cli.main([...])` commands on configs
generated from the seed, each only after the previous one returned; the CLI
runs with its default thread count.  Every output is checked by an oracle
that does not use the timed code path (see oracle.py).

Before any timed run, `lioup.validate.run_all()` must pass (expected
failures aside); its result is cached per source tree under `.perfbench_out/`.

--trace 0 measures for S seconds.  It prints ops_per_s, op_p50_ms,
op_tail_ms, cpu_ms_per_op, fail_ratio, setup_s and peak_rss_mb; the JSON line
carries the gated ones (END_TO_END_UNITS).
--trace 1 runs a fixed, seed-determined command list once untraced and twice
traced, reports per-layer metrics from the traced passes, and fails the run
if any per-layer count differs between the two passes.  It adds the layer
figures of a fixed, seeded set of four find-ep searches.

`findep` runs like the others but is not one of the gated workloads in
BENCHMARK.json: Nelder-Mead either converges in about 200 evaluations or
stops at its 4000-evaluation cap, so the throughput of 30-second runs,
resampled from 96 measured searches, spread by 35-45% (quartile distance over
median).

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a readable
report with the environment, the input digests and every failing input.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_SAMPLES = 7
# Peak RSS is read after a fixed number of commands, so that it does not
# depend on how many commands a run completes: in the sweep workload it keeps
# rising slowly with every sweep run (about 87 MB after 2, 98-105 MB after
# 10-17 on a 2-CPU x86 machine).
RSS_AFTER = {"sweep": 4, "findep": 4, "oneshot": 400}
TAIL_MIN_BEYOND = 10
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
COUNT_KEYS = ("calls", "find_ep_evals", "generator_evals")

# The gated metrics.  Wall-clock figures (ops_per_s, op_p50_ms, op_tail_ms)
# are printed but not gated: on a shared 2-CPU machine the same seed's wall
# time per sweep command swings up to 2x within minutes while its CPU time
# moves about 15%, so a wall-clock bound of 25% would refuse changes at random.
END_TO_END_UNITS = {"cpu_ms_per_op": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def environment():
    import numpy
    import scipy

    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def _source_key(env):
    h = hashlib.sha256(json.dumps([env["python"], env["numpy"], env["scipy"]]).encode())
    pkg = os.path.join(SRC, "lioup")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:20]


def preflight(env):
    """Result of the validation suite for this source tree (cached)."""
    path = os.path.join(OUT, f"preflight-{_source_key(env)}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "preflight.py")],
                          capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        return {"ok": False, "ms": math.nan,
                "failed": [f"preflight crashed: {proc.stderr.strip()[-500:]}"]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, path)
    return result


def setup_seconds(workload, seed, work):
    """(wall, CPU) seconds of fresh interpreters up to their first result."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.join(HERE, "probe.py"), "--workload",
                 workload, "--seed", str(seed), "--config-dir", work],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=60)
        if not line.startswith("ok ") or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({line or 'no output'}): "
                               f"{err.strip()[-500:]}")
        samples.append((t1 - t0, float(line.split()[1])))
    return samples


class Client:
    """The closed-loop client: one command at a time, each output checked."""

    def __init__(self, work):
        from lioup import cli
        import oracle

        self._cli, self._oracle = cli, oracle
        self._path = os.path.join(work, "config.json")
        self.failures = []  # (command, reasons)
        self.infos = []

    def run(self, cmd):
        """Run and check one command; returns (seconds, CPU seconds)."""
        with open(self._path, "w", encoding="utf-8") as fh:
            json.dump(cmd.config, fh)
        out, err = io.StringIO(), io.StringIO()
        argv = [cmd.subcommand, "--config", self._path]
        rc, crash = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                rc = self._cli.main(argv)
            except Exception:  # noqa: BLE001 - a crash is a failed command
                crash = traceback.format_exc(limit=3)
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
        if crash is not None:
            reasons = [f"raised: {crash.strip().splitlines()[-1]}"]
        elif rc != 0:
            reasons = [f"exit code {rc}: {err.getvalue().strip()[:300]}"]
        else:
            reasons, info = self._oracle.check(cmd, out.getvalue(), err.getvalue())
            self.infos.append(info)
        if reasons:
            self.failures.append((cmd, reasons))
        return dt, dc


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tail(lat):
    """Highest of the usual percentiles with >= 10 samples beyond it."""
    n = len(lat)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            return p, float(statistics.quantiles(lat, n=1000, method="inclusive")[
                int(round(p * 10)) - 1])
    return None, None


def run_timed(workload, args, work, setup):
    import workloads

    client = Client(work)
    client.run(workloads.warmup(workload, args.seed))
    stream = workloads.commands(workload, args.seed)
    lat, cpu = [], []
    rss_mb = None
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end:
        dt, dc = client.run(next(stream))
        lat.append(dt)
        cpu.append(dc)
        if len(lat) == RSS_AFTER[workload]:
            rss_mb = _peak_rss_mb()
    n = len(lat)
    if rss_mb is None:
        rss_mb = _peak_rss_mb()
    # Throughput and CPU cost per command are taken over each complete cycle
    # of the workload's command mix, and the median cycle is reported: every
    # cycle holds the same mix, and a stall caused outside the program in one
    # cycle does not move the median.
    period = workloads.PERIOD[workload]
    cycles = [range(c, c + period) for c in range(0, n - period + 1, period)]
    cycles = cycles or [range(n)]
    ops = statistics.median(len(ix) / sum(lat[i] for i in ix) for ix in cycles)
    cpu_op = statistics.median(sum(cpu[i] for i in ix) / len(ix) for ix in cycles)
    p_tail, tail = _tail(lat)
    setup_wall = statistics.median(w for w, _ in setup)
    report = {
        "cpu_ms_per_op": 1e3 * cpu_op,
        "setup_s": statistics.median(c for _, c in setup),
        "peak_rss_mb": rss_mb,
    }
    lines = [
        f"  ops_per_s      {ops:.6g} 1/s   (median of {len(cycles)} cycles; "
        f"{n} commands, {n / sum(lat):.6g} 1/s over the whole run)",
        f"  op_p50_ms      {1e3 * statistics.median(lat):.6g} ms   (n={n})",
        (f"  op_tail_ms     {1e3 * tail:.6g} ms at p{p_tail:g}   (n={n}, "
         f"{n - math.ceil(n * p_tail / 100.0)} beyond)") if tail is not None else
        f"  op_tail_ms     n/a   (n={n}: no percentile has {TAIL_MIN_BEYOND} "
        "samples beyond it)",
        f"  cpu_ms_per_op  {report['cpu_ms_per_op']:.6g} ms   (median of "
        f"{len(cycles)} cycles)",
        f"  fail_ratio     {len(client.failures) / (n + 1):.6g}   "
        f"({len(client.failures)} of {n + 1}, the warm-up included)",
        f"  setup_s        {report['setup_s']:.6g} s CPU   (median of "
        f"{len(setup)} fresh processes; {setup_wall:.6g} s wall to first result)",
        f"  peak_rss_mb    {rss_mb:.6g} MB   (after the first "
        f"{min(n, RSS_AFTER[workload])} commands; {_peak_rss_mb():.6g} MB at the end)",
    ]
    return report, n + 1, client.failures, lines  # + 1: the warm-up


def _layer_metrics(summary, keys, preflight_ms, overhead):
    calls, ms, self_ms = summary["calls"], summary["ms"], summary["self_ms"]
    m = {}
    for fn in ("linalg.eigvals", "linalg.eig", "linalg.expm", "angular.wigner3j",
               "superop.superop_of_map"):
        m[f"{fn}.calls"] = (calls.get(fn, 0), "count")
        m[f"{fn}.ms"] = (ms.get(fn, 0.0), "ms")
    for fn in ("model.build_eff3", "model.build_full4_rwa", "model.reduce_effective",
               "superop.hybrid_liouvillian", "spectra.sweep",
               "spectra.detect_degeneracy", "spectra.evolve_check", "cli.main"):
        m[f"{fn}.calls"] = (calls.get(fn, 0), "count")
        m[f"{fn}.self_ms"] = (self_ms.get(fn, 0.0), "ms")
    m["spectra.sweep.threads"] = (summary["sweep_threads"], "count")
    m["cli.main.ms"] = (ms.get("cli.main", 0.0), "ms")
    layers = {}
    for name, v in self_ms.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + v
    for layer in ("cli", "spectra", "superop", "model", "angular", "linalg"):
        m[f"layer.{layer}.self_ms"] = (layers.get(layer, 0.0), "ms")
    wall = ms.get("cli.main", 0.0)
    m["trace.accounted_ratio"] = (sum(layers.values()) / wall if wall else 0.0, "ratio")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    m["validate.run_all.ms"] = (preflight_ms, "ms")
    evals = summary["generator_evals"]
    m["workload.key_reuse_share"] = (1.0 - len(keys) / evals if evals else 0.0, "ratio")
    return {k: (float(v), u) for k, (v, u) in m.items()}


def _find_ep_metrics(summary, infos):
    searches = summary["calls"].get("spectra.find_ep", 0)
    evals = summary["find_ep_evals"]
    n = sum(i.get("searches", 0) for i in infos)
    m = {
        "spectra.find_ep.calls": (searches, "count"),
        "spectra.find_ep.self_ms": (summary["self_ms"].get("spectra.find_ep", 0.0), "ms"),
        "spectra.find_ep.evals": (evals, "count"),
        "spectra.find_ep.evals_per_search": (evals / searches if searches else 0.0,
                                             "count"),
        "spectra.find_ep.certified_ratio": (
            sum(i.get("certified", 0) for i in infos) / n if n else 0.0, "ratio"),
        "spectra.find_ep.loc_err_max": (
            max((i["loc_err"] for i in infos if "loc_err" in i), default=0.0),
            "omega_unit"),
    }
    return {k: (float(v), u) for k, (v, u) in m.items()}


def _traced_passes(client, cmds, modules):
    """Two traced passes over `cmds`: merged summary, walls, first tracer and
    any per-layer count that differed between the passes."""
    import tracer

    summaries, walls, first = [], [], None
    for _ in range(2):
        tr = tracer.Tracer(modules)
        tr.install()
        try:
            walls.append(_one_pass(client, cmds, tr))
        finally:
            tr.uninstall()
        summaries.append(tracer.summarize(tr.spans))
        first = first or tr
    problems = [f"per-layer count '{key}' differs between two traced passes: "
                f"{summaries[0][key]} vs {summaries[1][key]}"
                for key in COUNT_KEYS if summaries[0][key] != summaries[1][key]]
    merged = dict(summaries[0])
    for key in ("ms", "self_ms"):
        merged[key] = {k: 0.5 * (v + summaries[1][key].get(k, 0.0))
                       for k, v in summaries[0][key].items()}
    return merged, walls, first, problems


def _one_pass(client, cmds, tr=None):
    wall = 0.0
    for i, cmd in enumerate(cmds):
        if tr is not None:
            tr.command = i
        wall += client.run(cmd)[0]
    return wall


def run_traced(workload, args, work, preflight_ms):
    import workloads
    from lioup import cli, linalg, model, spectra, superop

    modules = {"cli": cli, "linalg": linalg, "model": model, "spectra": spectra,
               "superop": superop}
    client = Client(work)
    client.run(workloads.warmup(workload, args.seed))
    stream = workloads.commands(workload, args.seed)
    cmds = [next(stream) for _ in range(workloads.TRACE_COMMANDS[workload])]

    untraced = _one_pass(client, cmds)
    summary, walls, tr, problems = _traced_passes(client, cmds, modules)
    trace_path = os.path.join(OUT, f"trace-{workload}-seed{args.seed}.jsonl.gz")
    tr.write(trace_path)
    metrics = _layer_metrics(summary, {c.key() for c in cmds}, preflight_ms,
                             statistics.mean(walls) / untraced)

    # find-ep searches are too unsteady in cost to time as a gated workload
    # (see the module docstring); their layer figures come from a seeded probe
    probe_stream = workloads.commands("findep", args.seed)
    probe = [next(probe_stream) for _ in range(workloads.TRACE_COMMANDS["findep"])]
    client.infos.clear()
    found, _, _, probe_problems = _traced_passes(client, probe, modules)
    metrics.update(_find_ep_metrics(found, client.infos))
    problems += probe_problems

    acc = metrics["trace.accounted_ratio"][0]
    if abs(acc - 1.0) > 0.05:
        problems.append(f"layer self times account for {acc:.3f} of command wall time")
    lines = [f"  {name:<40} {v:.6g} {unit}" for name, (v, unit) in metrics.items()]
    lines.append(f"  spans of the first traced pass: {trace_path}")
    attempted = 1 + 3 * len(cmds) + 2 * len(probe)
    return metrics, attempted, client.failures, problems, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "findep", "oneshot", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lioup", "__init__.py")):
        print(f"error: no lioup package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work):
    import workloads

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    pre = preflight(env)
    print(f"preflight: lioup.validate.run_all() {pre['ms']:.1f} ms, "
          f"{len(pre['failed'])} failed, expected failures {pre.get('xfailed')}")
    if not pre["ok"]:
        for f in pre["failed"]:
            print(f"  FAIL {f}")
        print("error: validation preflight failed; refusing to report",
              file=sys.stderr)
        return 1

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in names:
        stream = workloads.commands(w, args.seed)
        first = [next(stream) for _ in range(workloads.TRACE_COMMANDS[w])]
        print(f"workload {w}: seed {args.seed}, inputs sha256 "
              f"{workloads.digest(first)} (first {len(first)} commands), "
              f"held-out seed {workloads.HELD_OUT_SEED}")
        if args.trace:
            m, n, fails, problems, lines = run_traced(w, args, work, pre["ms"])
        else:
            setup = setup_seconds(w, args.seed, work)
            report, n, fails, lines = run_timed(w, args, work, setup)
            m = {k: (v, END_TO_END_UNITS[k]) for k, v in report.items()}
            problems = []
        print("\n".join(lines))
        for cmd, reasons in fails:
            print(f"  FAILED {cmd.subcommand} {json.dumps(cmd.config, sort_keys=True)}")
            for r in reasons:
                print(f"    {r}")
        for p in problems:
            print(f"  PROBLEM {p}")
        correct = correct and not fails and not problems
        attempted += n
        failed += len(fails)
        prefix = f"{w}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
