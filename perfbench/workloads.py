"""Seeded scenario inputs and the correctness oracles that judge their outputs.

A workload turns ``--seed`` into one ``kerr-thermo`` scenario: a preset, the
command, ``--override`` values drawn inside the presets' quoted parameter
ranges, and a job count.  The preset's own ``n_cut``, ``t_end`` and
``n_samples`` are never overridden, so a later change to preset defaults shows
up in the numbers.  Drawn values carry four decimals, as a user would type
them, and the values of one swept axis are distinct.

The checks recompute each scenario's physics by a route the scenario does not
take (steady-state solves against propagated states) and compare with the CSV
files and captured final states the run left behind.
"""

from __future__ import annotations

import csv
import glob
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("fisher", "thermalize", "steady", "thermalize-pool")

# Relative agreement of the plateau QFI with the steady-state stencil oracle.
QFI_ORACLE_RTOL = 1e-6
# Every CFI column must stay below QFI * (1 + this) at every sampled time.
CFI_BOUND_RTOL = 1e-6
# Max-abs distance of the final propagated state from the steady state.
FINAL_STATE_ATOL = 1e-9
# Absolute purity agreement between the steady-state solve and propagation to tau = 30.
PURITY_ATOL = 1e-9


@dataclass(frozen=True)
class Scenario:
    """What the benchmark hands the program: a preset, a command and overrides."""

    workload: str
    preset: str
    command: str
    overrides: tuple[str, ...]
    jobs: int | None  # None keeps the CLI default (all cores)
    check_index: int = 0  # sweep point the purity oracle re-derives

    def describe(self) -> str:
        jobs = "default" if self.jobs is None else str(self.jobs)
        return (
            f"preset {self.preset}, command {self.command}, jobs {jobs}, "
            f"overrides {' '.join(self.overrides)}"
        )


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _distinct(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    values: set[float] = set()
    while len(values) < count:
        values.add(_draw(rng, lo, hi))
    return sorted(values)


def _csv_list(values) -> str:
    return ",".join(f"{v:.4f}" for v in values)


def make_scenario(workload: str, seed: int) -> Scenario:
    """Draw the scenario of ``workload`` from ``seed``; the same seed gives the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    # thermalize-pool shares its inputs with thermalize, so the two must draw alike.
    base = "thermalize" if workload == "thermalize-pool" else workload
    rng = random.Random(f"{base}:{seed}")
    if base == "fisher":
        # A fig8 panel (n_th 0.05, 0.1 or 0.15) with chi, drive and the homodyne
        # angle drawn over the fig3/fig5/fig8 ranges.  n_th stays on the panel
        # values: the powered-RK4 map costs a matrix product per bit and per
        # set bit of its step count, the step count moves with n_th, and a
        # continuous n_th would move the cost by up to 15% from seed to seed.
        overrides = (
            f"n_th={rng.choice((0.05, 0.1, 0.15)):.4f}",
            f"chi={_draw(rng, 0.3, 1.0):.4f}",
            f"drive={_draw(rng, 0.5, 1.5):.4f}",
            f"homodyne_phis={_draw(rng, 0.0, 1.0):.4f}pi",
        )
        return Scenario(workload, "fig8a", "cfi", overrides, jobs=1)
    if base == "thermalize":
        # The fig2 corners: n_th 0.05 and 0.1 times two drives drawn in [0.5, 1].
        overrides = (
            "n_th=0.05,0.1",
            f"drive={_csv_list(_distinct(rng, 0.5, 1.0, 2))}",
        )
        jobs = None if workload == "thermalize-pool" else 1
        return Scenario(workload, "fig2a", "thermalize", overrides, jobs=jobs)
    # steady: a 6 x 5 chi x drive purity grid, the fig7a and fig7b scans combined.
    chis = _distinct(rng, 0.0, 1.0, 6)
    drives = _distinct(rng, 0.0, 1.0, 5)
    overrides = (
        f"n_th={_draw(rng, 0.05, 0.15):.4f}",
        f"chi={_csv_list(chis)}",
        f"drive={_csv_list(drives)}",
    )
    check_index = rng.randrange(len(chis) * len(drives))
    return Scenario(workload, "fig7a", "purity-sweep", overrides, jobs=1, check_index=check_index)


def resolve(scenario: Scenario):
    """The ScenarioConfig the program resolves from this scenario."""
    from kerr_thermo.config import resolve_config

    return resolve_config(
        preset=scenario.preset, overrides=scenario.overrides, command=scenario.command
    )


def read_csv(path: str) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(line for line in fh if not line.startswith("#"))]
    names = rows[0]
    return {name: [float(row[i]) for row in rows[1:]] for i, name in enumerate(names)}


@dataclass
class CheckResult:
    """Outcome of one oracle on one sweep point."""

    point: int
    ok: bool
    detail: str


def run_checks(scenario: Scenario, out_dir: str, capture_dir: str) -> list[CheckResult]:
    """Judge one sample's outputs; returns one result per checked sweep point."""
    config = resolve(scenario)
    if scenario.command == "cfi":
        return _check_fisher(config, out_dir)
    if scenario.command == "thermalize":
        return _check_thermalize(config, capture_dir)
    return _check_steady(config, out_dir, scenario.check_index)


def _check_fisher(config, out_dir: str) -> list[CheckResult]:
    import numpy as np
    from kerr_thermo.dynamics import steady_state
    from kerr_thermo.estimation import fd_step, qfi, stencil_combine

    cols = read_csv(os.path.join(out_dir, "cfi.csv"))
    qfi_col = np.array(cols["qfi"])
    params = config.params_at(config.sweep_points()[0])
    trunc = config.trunc()
    h = fd_step(params.n_th, config.fd())
    ss = {k: steady_state(params.with_n_th(params.n_th + k * h), trunc).entries for k in (-2, -1, 0, 1, 2)}
    drho = stencil_combine(ss[2], ss[1], ss[-1], ss[-2], h)
    drho = drho - (np.trace(drho) / trunc.n_cut) * np.eye(trunc.n_cut)
    rank_rel = max(1e-12, 25.0 * np.finfo(float).eps / h)
    oracle = qfi(ss[0], drho, rank_tol_rel=rank_rel).qfi
    rel = abs(qfi_col[-1] - oracle) / oracle
    problems = []
    if not rel <= QFI_ORACLE_RTOL:
        problems.append(f"plateau qfi {qfi_col[-1]:.10g} vs steady-state oracle {oracle:.10g} (rel {rel:.2e})")
    cfi_names = [name for name in cols if name.startswith("cfi")]
    for name in cfi_names:
        excess = np.array(cols[name]) - qfi_col * (1.0 + CFI_BOUND_RTOL)
        if np.any(excess > 0):
            problems.append(f"{name} exceeds qfi at {int(np.sum(excess > 0))} times")
    detail = "; ".join(problems) or (
        f"plateau qfi matches steady-state oracle to {rel:.1e}; "
        f"{len(cfi_names)} cfi columns <= qfi"
    )
    return [CheckResult(0, not problems, detail)]


def _check_thermalize(config, capture_dir: str) -> list[CheckResult]:
    import numpy as np
    from kerr_thermo.dynamics import steady_state

    finals = {}
    for path in glob.glob(os.path.join(capture_dir, "final-*.npz")):
        with np.load(path) as data:
            finals[tuple(float(x) for x in data["params"])] = data["final"]
    results = []
    for index, point in enumerate(config.sweep_points()):
        params = config.params_at(point)
        key = (params.delta, params.chi, params.drive, params.n_th, params.gamma)
        if key not in finals:
            results.append(CheckResult(index, False, "no final state captured"))
            continue
        ss = steady_state(params, config.trunc()).entries
        dist = float(np.abs(finals[key] - ss).max())
        ok = dist <= FINAL_STATE_ATOL
        results.append(CheckResult(index, ok, f"final state vs steady state max-abs {dist:.1e}"))
    return results


def _check_steady(config, out_dir: str, index: int) -> list[CheckResult]:
    from kerr_thermo.dynamics import TimeGrid, propagate, purity
    from kerr_thermo.fock import vacuum_state

    cols = read_csv(os.path.join(out_dir, "purity_sweep.csv"))
    points = config.sweep_points()
    if len(cols["purity"]) != len(points):
        return [CheckResult(index, False, f"{len(cols['purity'])} rows for {len(points)} points")]
    params = config.params_at(points[index])
    trunc = config.trunc()
    traj = propagate(vacuum_state(trunc), params, TimeGrid(t_end=30.0, n_samples=2), trunc)
    propagated = purity(traj.final)
    diff = abs(cols["purity"][index] - propagated)
    ok = math.isfinite(diff) and diff <= PURITY_ATOL
    return [CheckResult(index, ok, f"point {index} purity vs propagation to tau=30 differs by {diff:.1e}")]
