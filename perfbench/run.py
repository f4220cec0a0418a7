"""Seeded scenario benchmark for kerr-thermo.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each scenario runs in a fresh process (``scenario.py``), one at a time, from
the source tree next to this directory.  With ``--trace 0`` the run repeats
the workload's scenario, two to four times, until the timed scenario time
reaches ``--seconds`` (at least two, so the CSV bytes of two runs can be
compared), starts a set-up-only process before each scenario and more until
five set-up times exist, checks the outputs against
independent oracles outside the timed region, and reports medians of the
end-to-end metrics.  With ``--trace 1`` it runs the scenario once untraced
and once traced and reports per-layer metrics from the spans, with the
traced-minus-untraced wall time as the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count sweep points (failed: raised, timed out, or failed a check
or the determinism comparison).  Lines before it are for people.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_SAMPLES = 2
MAX_SAMPLES = 4
SETUP_SAMPLES = 5
# The whole run must end well inside three minutes; a scenario that would
# push past this is killed and its sweep points count as failed.
RUN_DEADLINE_S = 165.0
SCENARIO_TIMEOUT_S = 100.0
# Time kept back for the oracles and the report after the last scenario.
CHECK_RESERVE_S = 15.0

END_TO_END = (
    ("setup_s", "s"),
    ("scenario_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("dynamics.propagate.calls", "count"),
    ("dynamics.propagate.states", "count"),
    ("dynamics.propagate.self_s", "s"),
    ("dynamics.liouvillian_matrix.calls", "count"),
    ("dynamics.liouvillian_matrix.self_s", "s"),
    ("dynamics.steady_state.calls", "count"),
    ("dynamics.steady_state.self_s", "s"),
    ("fock.DensityMatrix.calls", "count"),
    ("fock.DensityMatrix.self_s", "s"),
    ("fock.gibbs_populations.calls", "count"),
    ("estimation.perturbed_trajectories.calls", "count"),
    ("estimation.propagations_per_point", "count"),
    ("estimation.qfi_series.self_s", "s"),
    ("estimation.qfi.calls", "count"),
    ("estimation.qfi.self_s", "s"),
    ("measurement.cfi_series.self_s", "s"),
    ("measurement.outcome_distribution.calls", "count"),
    ("measurement.heterodyne_povm.self_s", "s"),
    ("measurement.heterodyne_povm.outcomes", "count"),
    ("measurement.homodyne_povm.self_s", "s"),
    ("fidelity.thermalization_trace.self_s", "s"),
    ("fidelity.effective_temperature.calls", "count"),
    ("fidelity.effective_temperature.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.points", "count"),
    ("cli.ncut_retries", "count"),
    ("cli.csv_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)

THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "KERR_THERMO_JOBS",
)


@dataclass
class Sample:
    """One scenario process: its inputs, where it wrote, and what it measured."""

    label: str
    jobs: int | None
    points: int
    out_dir: Path
    capture_dir: Path | None
    trace_dir: Path | None = None
    status: str = "not run"  # ok | timeout | error
    detail: str = ""
    wall_s: float = 0.0  # process start to exit, for pacing the run
    result: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _kill_session(proc: subprocess.Popen) -> None:
    """Kill the scenario's session (it and its pool workers) and wait until it is empty."""
    deadline = time.monotonic() + 10.0
    while True:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        proc.poll()
        if time.monotonic() > deadline:
            break
        time.sleep(0.01)
    proc.wait()


class Runner:
    """Launches scenario processes one at a time and keeps the run deadline."""

    def __init__(self, scenario: workloads.Scenario, work: Path, started: float):
        self.scenario = scenario
        self.work = work
        self.deadline = started + RUN_DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != "KERR_THERMO_JOBS"}
        self.points = len(workloads.resolve(scenario).sweep_points())

    def time_left(self) -> float:
        return self.deadline - CHECK_RESERVE_S - time.monotonic()

    def _launch(self, spec: dict, log_path: Path) -> tuple[str, str, float, dict]:
        timeout = min(SCENARIO_TIMEOUT_S, self.time_left())
        if timeout <= 1.0:
            return "timeout", "no time left before the run deadline", 0.0, {}
        spawned = time.monotonic()
        timed_out = False
        with open(log_path, "w") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "scenario.py"), json.dumps(spec)],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=self.env,
                cwd=ROOT,
                start_new_session=True,
            )
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                timed_out = True
            finally:
                _kill_session(proc)
        wall = time.monotonic() - spawned
        if timed_out:
            return "timeout", f"killed after {timeout:.0f} s", wall, {}
        if proc.returncode != 0:
            tail = log_path.read_text().strip().splitlines()[-1:] or ["(no output)"]
            return "error", f"exit {proc.returncode}: {tail[0]}", wall, {}
        with open(spec["result"]) as fh:
            result = json.load(fh)
        if not result["module"].startswith(str(SRC)):
            return "error", f"imported kerr_thermo from {result['module']}, not {SRC}", wall, {}
        result["setup_s"] = result.pop("ready_monotonic") - spawned
        return "ok", "", wall, result

    def _spec(self, label: str, *, setup_only: bool, jobs=None, out_dir=None, capture_dir=None,
              trace_dir=None) -> dict:
        return {
            "src": str(SRC),
            "preset": self.scenario.preset,
            "command": self.scenario.command,
            "overrides": list(self.scenario.overrides),
            "jobs": jobs,
            "setup_only": setup_only,
            "out_dir": str(out_dir) if out_dir else None,
            "capture_dir": str(capture_dir) if capture_dir else None,
            "trace_dir": str(trace_dir) if trace_dir else None,
            "run_id": f"{self.work.name}-{label}",
            "result": str(self.work / f"{label}.result.json"),
        }

    def scenario_run(self, label: str, *, jobs, traced: bool = False) -> Sample:
        sample = Sample(
            label=label,
            jobs=jobs,
            points=self.points,
            out_dir=self.work / label / "out",
            capture_dir=(self.work / label / "capture") if self.scenario.command == "thermalize" else None,
            trace_dir=(self.work / label / "spans") if traced else None,
        )
        for path in (sample.out_dir, sample.capture_dir, sample.trace_dir):
            if path is not None:
                path.mkdir(parents=True)
        spec = self._spec(
            label,
            setup_only=False,
            jobs=jobs,
            out_dir=sample.out_dir,
            capture_dir=sample.capture_dir,
            trace_dir=sample.trace_dir,
        )
        sample.status, sample.detail, sample.wall_s, sample.result = self._launch(
            spec, self.work / f"{label}.log"
        )
        return sample

    def setup_probe(self, label: str) -> float | None:
        status, _, _, result = self._launch(self._spec(label, setup_only=True), self.work / f"{label}.log")
        return result["setup_s"] if status == "ok" else None


def csv_bytes(sample: Sample) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(sample.out_dir.glob("*.csv"))}


def count_failures(samples: list[Sample], scenario: workloads.Scenario, notes: list[str]) -> tuple[int, int, bool]:
    """Sweep points attempted and failed, and whether every check passed.

    The oracles run on the first successful sample; another sample inherits
    their verdict when its CSV bytes equal that sample's, and fails every
    point otherwise.
    """
    attempted = sum(s.points for s in samples)
    failed = 0
    for s in samples:
        if not s.ok:
            failed += s.points
            notes.append(f"sample {s.label}: {s.status} ({s.detail})")
    ok_samples = [s for s in samples if s.ok]
    if not ok_samples:
        return attempted, failed, False
    reference = ok_samples[0]
    try:
        checks = workloads.run_checks(scenario, str(reference.out_dir), str(reference.capture_dir or ""))
    except Exception:  # an oracle that cannot run fails every point it judges
        checks = [workloads.CheckResult(-1, False, "oracle raised:\n" + traceback.format_exc())]
    for c in checks:
        notes.append(f"check {'PASS' if c.ok else 'FAIL'} point {c.point}: {c.detail}")
    bad_points = {c.point for c in checks if not c.ok}
    check_failed = reference.points if -1 in bad_points else len(bad_points)
    ref_bytes = csv_bytes(reference)
    identical = True
    for s in ok_samples:
        if s is reference or csv_bytes(s) == ref_bytes:
            failed += check_failed
        else:
            identical = False
            failed += s.points
            notes.append(f"determinism FAIL: {s.label} CSV bytes differ from {reference.label}")
    if identical and len(ok_samples) > 1:
        labels = ", ".join(f"{s.label} (jobs {'default' if s.jobs is None else s.jobs})" for s in ok_samples)
        notes.append(f"determinism PASS: {len(ref_bytes)} CSV files byte-identical across {labels}")
    return attempted, failed, failed == 0 and identical


# --------------------------------------------------------------------------
# Machine facts.


def _blas_libraries() -> list[dict]:
    """Every BLAS library mapped into this process, with version and thread count."""
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            base = os.path.basename(path).lower()
            if path.startswith("/") and ".so" in base and any(k in base for k in ("openblas", "mkl_rt", "blis")):
                paths.add(path)
    libs = []
    for path in sorted(paths):
        entry = {"library": os.path.basename(path)}
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    entry["config"] = get_config().decode()
                    entry["threads"] = get_threads()
        libs.append(entry)
    return libs


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def machine_facts() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (maps scipy's own BLAS)

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{build_blas.get('name', '?')} {build_blas.get('version', '?')}",
        "blas_libraries": _blas_libraries(),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
    }


# --------------------------------------------------------------------------
# Workload runs.


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4f}, q3 {q3:.4f}"


def run_untraced(runner: Runner, seconds: int, notes: list[str]) -> tuple[list[Sample], dict]:
    scenario = runner.scenario
    samples: list[Sample] = []
    probes: list[float] = []

    def probe() -> bool:
        value = runner.setup_probe(f"setup{len(probes) + 1}")
        if value is not None:
            probes.append(value)
        return value is not None

    while True:
        # A set-up-only process before each sample spreads the set-up times
        # over the run, so one slow stretch of the machine weighs less.
        probe()
        sample = runner.scenario_run(f"sample{len(samples) + 1}", jobs=scenario.jobs)
        samples.append(sample)
        if not sample.ok:
            break
        # --seconds budgets the timed scenario time, not the set-up probes.
        measured = sum(s.result["scenario_s"] for s in samples)
        typical = statistics.median(s.result["scenario_s"] for s in samples)
        if len(samples) >= MIN_SAMPLES and (len(samples) >= MAX_SAMPLES or measured + typical > seconds):
            break
        if statistics.median(s.wall_s for s in samples) > runner.time_left():
            notes.append("stopped sampling early to keep the run deadline")
            break
    ok = [s for s in samples if s.ok]
    setups = probes + [s.result["setup_s"] for s in ok]
    while ok and len(setups) < SETUP_SAMPLES and runner.time_left() > 5.0 and probe():
        setups.append(probes[-1])
    series = {
        "setup_s": setups,
        "scenario_s": [s.result["scenario_s"] for s in ok],
        "cpu_s": [s.result["cpu_s"] for s in ok],
        "peak_rss_mb": [s.result["peak_rss_mb"] for s in ok],
    }
    metrics = {}
    for name, unit in END_TO_END:
        if series[name]:
            metrics[name] = {"value": statistics.median(series[name]), "unit": unit}
            notes.append(f"{name:<12} {statistics.median(series[name]):10.4f} {unit:<3} "
                         f"(median; {_quartiles(series[name])})")
    return samples, metrics


def run_traced(runner: Runner, notes: list[str]) -> tuple[list[Sample], dict]:
    import tracer

    scenario = runner.scenario
    samples = [runner.scenario_run("untraced", jobs=scenario.jobs)]
    if samples[0].ok:
        samples.append(runner.scenario_run("traced", jobs=scenario.jobs, traced=True))
    if scenario.jobs is None and all(s.ok for s in samples):
        # The pool must write the same bytes as a serial run of the same inputs.
        samples.append(runner.scenario_run("serial", jobs=1))
    if not all(s.ok for s in samples[:2]):
        return samples, {}
    untraced, traced = samples[0], samples[1]
    spans = tracer.load_spans(str(traced.trace_dir))
    tracer.link_workers(spans, traced.result["pid"])
    totals = tracer.layer_totals(spans)

    def t(name: str, key: str) -> float:
        return totals[name][key] if name in totals else 0

    points = t("cli.point", "calls")
    values = {
        "estimation.propagations_per_point": (
            tracer.count_below(spans, "dynamics.propagate", "estimation.") / points if points else 0.0
        ),
        "dynamics.propagate.states": t("dynamics.propagate", "count"),
        "measurement.heterodyne_povm.outcomes": t("measurement.heterodyne_povm", "count"),
        "cli.points": points,
        "cli.ncut_retries": t("cli.compute", "calls") - points,
        "cli.csv_bytes": sum(len(b) for b in csv_bytes(traced).values()),
        "trace.overhead_s": traced.result["scenario_s"] - untraced.result["scenario_s"],
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name not in values:
            layer, key = name.rsplit(".", 1)
            values[name] = t(layer, key)
        metrics[name] = {"value": values[name], "unit": unit}
        notes.append(f"{name:<42} {values[name]:14.6g} {unit}")
    notes.append(
        f"tracing overhead: {values['trace.overhead_s']:.3f} s on "
        f"{untraced.result['scenario_s']:.3f} s untraced ({len(spans)} spans)"
    )
    return samples, metrics


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.monotonic()
    scenario = workloads.make_scenario(workload, seed)
    work = WORK / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(scenario, work, started)
    notes: list[str] = []
    print(f"== workload {workload}, seed {seed}, trace {trace}: {scenario.describe()}", flush=True)
    if trace:
        samples, metrics = run_traced(runner, notes)
    else:
        samples, metrics = run_untraced(runner, seconds, notes)
    attempted, failed, all_ok = count_failures(samples, scenario, notes)
    notes.append(f"failed_ops   {failed}/{attempted} = {failed / max(attempted, 1):.4f} "
                 f"(share of sweep points attempted)")
    expected = [name for name, _ in (PER_LAYER if trace else END_TO_END)]
    correct = all_ok and sorted(metrics) == sorted(expected)
    for line in notes:
        print(f"   {line}", flush=True)
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(work / "summary.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "scenario": scenario.describe(),
                   "samples": [{"label": s.label, "status": s.status, "detail": s.detail,
                                **s.result} for s in samples],
                   "notes": notes, **summary}, fh, indent=1)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running scenario's
    # session is killed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "kerr_thermo" / "__init__.py").is_file():
        print(f"error: no kerr_thermo source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("machine: " + json.dumps(machine_facts()), flush=True)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
