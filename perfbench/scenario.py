"""One scenario run in a fresh process: import, resolve the config, call cli.run.

Usage (the harness builds the JSON spec):

    python3 perfbench/scenario.py '<json spec>'

The spec names the source tree to import kerr_thermo from, the preset, the
command, the overrides, the job count, the output directory and the result
file.  The process records the CLOCK_MONOTONIC time at which kerr_thermo is
imported and the config resolved (the harness subtracts the time it started
the process), then the wall time, CPU time and peak RSS of ``cli.run``.

With ``setup_only`` the process stops after resolving the config.  With
``capture_dir`` the final state of every ``cli.propagate`` call is saved for
the thermalize oracle; with ``trace_dir`` every kerr_thermo call is traced.
Pool workers that start by spawn import this file as ``__mp_main__`` and
re-install both hooks from the environment.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

ENV_CAPTURE_DIR = "PERFBENCH_CAPTURE_DIR"


def install_capture(capture_dir: str) -> None:
    """Save each propagated trajectory's final state, keyed by its parameters."""
    import numpy as np
    from kerr_thermo import cli

    propagate = cli.propagate

    @functools.wraps(propagate)
    def capturing(rho0, params, grid, trunc, **kwargs):
        traj = propagate(rho0, params, grid, trunc, **kwargs)
        key = (params.delta, params.chi, params.drive, params.n_th, params.gamma)
        name = f"final-{os.getpid()}-{time.perf_counter_ns()}.npz"
        np.savez(os.path.join(capture_dir, name), params=np.array(key), final=traj.final.entries)
        return traj

    cli.propagate = capturing


def install_hooks_from_env():
    """Install the tracing and capture hooks the environment asks for.

    Tracing goes first, so the capture's file write stays outside the spans.
    """
    import tracer

    spans = tracer.install_from_env()
    capture_dir = os.environ.get(ENV_CAPTURE_DIR)
    if capture_dir:
        install_capture(capture_dir)
    return spans


def _cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _own_peak_rss_kib() -> int:
    """Peak RSS of this process image.

    ``ru_maxrss`` of RUSAGE_SELF is no good here: Linux carries it over
    ``execve``, so it would start at the launching harness's peak.  VmHWM
    belongs to the address space, which exec replaces.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(spec: dict) -> None:
    sys.path.insert(0, spec["src"])
    from kerr_thermo import cli
    from kerr_thermo.config import resolve_config

    config = resolve_config(
        preset=spec["preset"], overrides=tuple(spec["overrides"]), command=spec["command"]
    )
    result = {"ready_monotonic": time.monotonic(), "pid": os.getpid(), "module": cli.__file__}
    if not spec["setup_only"]:
        import tracer

        if spec.get("capture_dir"):
            os.environ[ENV_CAPTURE_DIR] = spec["capture_dir"]
        if spec.get("trace_dir"):
            os.environ[tracer.ENV_DIR] = spec["trace_dir"]
            os.environ[tracer.ENV_RUN_ID] = spec["run_id"]
            os.environ[tracer.ENV_ROOT_PID] = str(os.getpid())
        spans = install_hooks_from_env()

        self0 = resource.getrusage(resource.RUSAGE_SELF)
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        cli.run(config, out_dir=spec["out_dir"], jobs=spec["jobs"])
        wall = time.perf_counter() - start
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

        if spans is not None:
            spans.flush()
        result.update(
            scenario_s=wall,
            cpu_s=_cpu_seconds(self1) - _cpu_seconds(self0) + _cpu_seconds(kids1) - _cpu_seconds(kids0),
            # Both in KiB; the children figure is the largest pool worker's.
            peak_rss_mb=max(_own_peak_rss_kib(), kids1.ru_maxrss) / 1024.0,
            points=len(config.sweep_points()),
        )
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
elif __name__ == "__mp_main__":
    install_hooks_from_env()
