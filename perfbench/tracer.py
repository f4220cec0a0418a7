"""Span tracing of kerr_thermo from outside the package, and the per-layer numbers.

``install`` replaces every public kerr_thermo function in every module
namespace that binds it (``cli`` and ``estimation`` import ``propagate`` by
name, so both bindings are swapped) with a wrapper that records a span: name,
start, end, parent span and run id.  ``DensityMatrix``'s validating
constructor is wrapped the same way.  Two private cli hooks add the
per-point span (``cli.point``) and one ``cli.compute`` span per truncation
attempt, so cutoff escalations can be counted.

Spans stay in memory and are written when the run ends.  Pool workers
inherit the wrappers when forked; a worker started by spawn re-installs them
from the environment (see ``scenario.py``).  A worker writes its spans after
each sweep point, because the pool ends it without running exit handlers.

Timestamps come from ``time.perf_counter_ns``, which on Linux reads
CLOCK_MONOTONIC, one clock shared by every process of the run.
"""

from __future__ import annotations

import csv
import functools
import glob
import importlib
import inspect
import os
import time
from collections import defaultdict

# Environment variables that carry the tracing set-up into pool workers.
ENV_DIR = "PERFBENCH_TRACE_DIR"
ENV_RUN_ID = "PERFBENCH_RUN_ID"
ENV_ROOT_PID = "PERFBENCH_ROOT_PID"

MODULES = (
    "kerr_thermo",
    "kerr_thermo.fock",
    "kerr_thermo.dynamics",
    "kerr_thermo.fidelity",
    "kerr_thermo.estimation",
    "kerr_thermo.measurement",
    "kerr_thermo.spectral",
    "kerr_thermo.config",
    "kerr_thermo.cli",
)

# Work counts read off a span's return value.
_RESULT_COUNTS = {
    "dynamics.propagate": lambda traj: len(traj.states),
    "measurement.heterodyne_povm": lambda povm: povm.n_outcomes,
}


class Tracer:
    """In-memory span recorder for one process of a traced run."""

    def __init__(self, out_dir: str, run_id: str, root_pid: int):
        self.out_dir = out_dir
        self.run_id = run_id
        self.root_pid = root_pid
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0

    def _own(self) -> None:
        # A forked pool worker inherits the parent's spans; it starts afresh.
        if os.getpid() != self.pid:
            self._reset()

    def wrap(self, fn, name: str):
        count_of = _RESULT_COUNTS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._own()
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(span_id)
            count = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count_of is not None:
                    count = count_of(result)
                return result
            finally:
                end = clock()
                self.stack.pop()
                self.spans.append((span_id, parent, name, start, end, count))

        return traced

    def flush(self) -> None:
        """Append this process's spans to its span file and forget them."""
        if not self.spans:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.csv")
        with open(path, "a", newline="") as fh:
            writer = csv.writer(fh)
            for span_id, parent, name, start, end, count in self.spans:
                writer.writerow((self.pid, span_id, parent, name, start, end, count, self.run_id))
        self.spans = []

    def flush_if_worker(self) -> None:
        if os.getpid() != self.root_pid:
            self.flush()


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def install(out_dir: str, run_id: str, root_pid: int) -> Tracer:
    """Wrap kerr_thermo's public functions; every later call records a span."""
    tracer = Tracer(out_dir, run_id, root_pid)
    wrapped: dict[int, object] = {}
    modules = [importlib.import_module(name) for name in MODULES]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if not obj.__module__.startswith("kerr_thermo"):
                continue
            if id(obj) not in wrapped:
                wrapped[id(obj)] = tracer.wrap(obj, _span_name(obj))
            setattr(module, attr, wrapped[id(obj)])

    from kerr_thermo import cli, fock

    fock.DensityMatrix.__post_init__ = tracer.wrap(fock.DensityMatrix.__post_init__, "fock.DensityMatrix")

    run_point = tracer.wrap(cli._run_point, "cli.point")

    @functools.wraps(cli._run_point)
    def point_then_flush(args):
        try:
            return run_point(args)
        finally:
            tracer.flush_if_worker()

    cli._run_point = point_then_flush

    retry = cli._with_truncation_retry

    @functools.wraps(retry)
    def retry_with_spans(config, compute):
        return retry(config, tracer.wrap(compute, "cli.compute"))

    cli._with_truncation_retry = retry_with_spans
    return tracer


def install_from_env() -> Tracer | None:
    """Install tracing in a spawned pool worker when the run is traced."""
    out_dir = os.environ.get(ENV_DIR)
    if not out_dir:
        return None
    return install(out_dir, os.environ[ENV_RUN_ID], int(os.environ[ENV_ROOT_PID]))


# --------------------------------------------------------------------------
# Analysis: spans -> per-layer metrics.


def load_spans(out_dir: str) -> list[dict]:
    spans = []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.csv"))):
        with open(path, newline="") as fh:
            for pid, span_id, parent, name, start, end, count, run_id in csv.reader(fh):
                spans.append(
                    {
                        "key": (int(pid), int(span_id)),
                        "parent": (int(pid), int(parent)) if int(parent) >= 0 else None,
                        "name": name,
                        "start": int(start),
                        "end": int(end),
                        "count": int(count),
                        "run_id": run_id,
                    }
                )
    return spans


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def link_workers(spans: list[dict], root_pid: int) -> None:
    """Make each pool worker's top-level spans children of the root ``cli.run``.

    That call is what waits for them.
    """
    runs = [s for s in spans if s["key"][0] == root_pid and s["name"] == "cli.run"]
    for s in spans:
        if s["parent"] is None and s["key"][0] != root_pid and runs:
            s["parent"] = min(runs, key=lambda r: abs(r["start"] - s["start"]))["key"]


def layer_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed work counts, total and self seconds.

    Self time is a span's duration minus the part of it covered by its child
    spans; children running in parallel workers are counted once.
    """
    children: dict[tuple, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "count": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for s in spans:
        dur = s["end"] - s["start"]
        covered = _covered([(c["start"], c["end"]) for c in children[s["key"]]], s["start"], s["end"])
        entry = totals[s["name"]]
        entry["calls"] += 1
        entry["count"] += s["count"]
        entry["total_s"] += dur / 1e9
        entry["self_s"] += (dur - covered) / 1e9
    return totals


def count_below(spans: list[dict], name_prefix: str, ancestor_prefix: str) -> int:
    """Spans named ``name_prefix*`` that have an ancestor named ``ancestor_prefix*``."""
    by_key = {s["key"]: s for s in spans}

    def has_ancestor(s: dict) -> bool:
        node = by_key.get(s["parent"])
        while node is not None:
            if node["name"].startswith(ancestor_prefix):
                return True
            node = by_key.get(node["parent"])
        return False

    return sum(1 for s in spans if s["name"].startswith(name_prefix) and has_ancestor(s))
