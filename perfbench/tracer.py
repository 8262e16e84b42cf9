"""Outside-in span recorder for lioup's public functions.

`Tracer.install()` replaces each target function, under the module attribute
its callers look up, by a wrapper that records one span per call: name,
start, end, thread, parent span and command id.  Spans stay in memory until
`write()`.  Nothing inside the program changes.

Self time is charged so that every instant of a command belongs to exactly
one share of the spans running then.  At each instant the "leaf" spans are the
open spans with no open child, across all threads; the instant is split
evenly between them.  For code on one thread this is duration minus the
union of child intervals.  For `spectra.sweep`, whose builders run on pool
threads, the sweep is charged only while none of its children is open, and
builders that overlap on two threads share the overlap instead of both
claiming it, so layer self times add up to the command's wall time.
"""

import gzip
import itertools
import json
import threading
import time
from collections import defaultdict

# (module attribute to replace, reported name).  angular.wigner3j is wrapped
# where model looks it up, since model imports it by name.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("spectra", "sweep", "spectra.sweep"),
    ("spectra", "find_ep", "spectra.find_ep"),
    ("spectra", "detect_degeneracy", "spectra.detect_degeneracy"),
    ("spectra", "evolve_check", "spectra.evolve_check"),
    ("spectra", "classify", "spectra.classify"),
    ("spectra", "splittings", "spectra.splittings"),
    ("superop", "hybrid_liouvillian", "superop.hybrid_liouvillian"),
    ("superop", "superop_of_map", "superop.superop_of_map"),
    ("model", "build_eff3", "model.build_eff3"),
    ("model", "build_full4_rwa", "model.build_full4_rwa"),
    ("model", "reduce_effective", "model.reduce_effective"),
    ("model", "wigner3j", "angular.wigner3j"),
    ("linalg", "eigvals", "linalg.eigvals"),
    ("linalg", "eig", "linalg.eig"),
    ("linalg", "expm", "linalg.expm"),
)
NAMES = tuple(t[2] for t in TARGETS)


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self, modules):
        self._modules = modules  # short module name -> module object
        self._saved = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._main_stack = None
        self.command = -1
        # (id, name index, start, end, thread ident, parent id, command id)
        self.spans = []

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, fn, idx):
        ids, spans, clock = self._ids, self.spans, time.perf_counter
        get_ident = threading.get_ident

        def wrapper(*args, **kwargs):
            st = self._stack()
            if st:
                parent = st[-1]
            else:
                # a pool worker: its work was caused by the open span of the
                # thread that runs the command (spectra.sweep)
                main = self._main_stack
                parent = main[-1] if main else 0
            sid = next(ids)
            st.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                st.pop()
                spans.append((sid, idx, t0, t1, get_ident(), parent, self.command))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        self._main_stack = self._stack()
        for idx, (mod, attr, _) in enumerate(TARGETS):
            module = self._modules[mod]
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, idx))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path):
        """Write the spans as gzipped JSON lines, in order of completion."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, idx, t0, t1, tid, parent, cmd in self.spans:
                fh.write(json.dumps({"id": sid, "name": NAMES[idx], "start": t0,
                                     "end": t1, "thread": tid, "parent": parent,
                                     "command": cmd}) + "\n")


def self_times(spans):
    """Self time of each span, in seconds, by the even split of leaf time."""
    events = []
    parent_of = {}
    for sid, _, t0, t1, _, parent, _ in spans:
        parent_of[sid] = parent
        events.append((t0, 0, sid))  # at equal times, starts go first
        events.append((t1, 1, sid))
    events.sort()
    self_t = dict.fromkeys(parent_of, 0.0)
    open_children = defaultdict(int)
    open_spans, leaves = set(), set()
    prev = events[0][0] if events else 0.0
    for t, is_end, sid in events:
        if leaves:
            share = (t - prev) / len(leaves)
            for s in leaves:
                self_t[s] += share
        prev = t
        parent = parent_of[sid]
        if not is_end:
            open_spans.add(sid)
            leaves.add(sid)
            if parent in open_spans:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            open_spans.discard(sid)
            leaves.discard(sid)
            if parent in open_spans:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return self_t


def summarize(spans):
    """Per-name calls, inclusive ms and self ms, plus derived layer figures."""
    self_t = self_times(spans)
    calls = defaultdict(int)
    incl = defaultdict(float)
    excl = defaultdict(float)
    name_of = {}
    parent_of = {}
    for sid, idx, t0, t1, tid, parent, _ in spans:
        name = NAMES[idx]
        name_of[sid], parent_of[sid] = name, parent
        calls[name] += 1
        incl[name] += t1 - t0
        excl[name] += self_t[sid]

    def ancestor(sid, name):
        sid = parent_of.get(sid, 0)
        while sid:
            if name_of[sid] == name:
                return sid
            sid = parent_of.get(sid, 0)
        return 0

    evals = 0
    sweep_threads = defaultdict(set)
    builders = {"model.build_eff3", "model.build_full4_rwa",
                "superop.hybrid_liouvillian"}
    top_builds = 0
    for sid, idx, _, _, tid, parent, _ in spans:
        name = NAMES[idx]
        if name == "linalg.eigvals" and ancestor(sid, "spectra.find_ep"):
            evals += 1
        if name in builders:
            sw = ancestor(sid, "spectra.sweep")
            if sw:
                sweep_threads[sw].add(tid)
        if name == "model.build_full4_rwa":
            top_builds += 1  # once per generator evaluation, nested or not
    threads = sorted(len(v) for v in sweep_threads.values())
    return {
        "calls": dict(calls),
        "ms": {k: 1e3 * v for k, v in incl.items()},
        "self_ms": {k: 1e3 * v for k, v in excl.items()},
        "find_ep_evals": evals,
        "sweep_threads": threads[len(threads) // 2] if threads else 0,
        "generator_evals": top_builds,
    }
