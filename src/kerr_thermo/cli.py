"""Scenario runner: dispatch a parsed config to the library and emit CSV series.

A run has two steps.  The compute step evaluates the sweep points in order,
in this process, inside one BLAS scope (one OpenBLAS thread with the idle
thread pool shut down, the caller's count restored on exit with the pool
still shut down), and aggregates the run report; a point's cutoff doubles on
leakage up to the cap that :mod:`~kerr_thermo.config` sets for the command's
kind, where the ``auto`` walk also stops.  The writer then writes every output
once: deterministic CSV files (comma separated, LF endings, 12
significant digits, '#' header comments embedding the resolved config hash)
plus ``run_report.txt`` with the resolved config echo, the truncation actually
used and how it was chosen, worst leakage, wall time, per-point summaries and
the warnings the interpreter's filters let through, once each; a filter that
turns a warning into an error fails the run like any other error.
``reproduce-figure`` runs the same compute step and merges the points' columns
in memory into one figure CSV and a sidecar.  File suffixes and column labels
print sweep values with :func:`~kerr_thermo.config.exact_text`, so distinct
values never share a file or a column.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import os
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import (
    COMMANDS,
    GAP_WINDOW,
    TABLE_COMMANDS,
    ScenarioConfig,
    exact_text,
    homodyne_label,
    resolve_config,
)
from .errors import ConfigError, KerrThermoError, TruncationError
from .estimation import cr_bound, qfi_series, tangent_trajectories
from .fidelity import EffTempTrace, default_search_max, thermalization_trace
from .fock import Truncation, mean_photon_number, vacuum_state
from .dynamics import _leakage, propagate, purity, steady_state
from .measurement import cfi_series, heterodyne_povm, homodyne_povm
from .presets import FIGURE_NAMES, PRESETS
from .spectral import gap_variance, spectrum

__all__ = ["run", "reproduce_figure", "main", "RunReport"]


@dataclass
class RunReport:
    """What actually happened during a run, for the sidecar report file."""

    command: str
    config_echo: str
    config_hash: str
    n_cut_used: int = 0
    n_cut_rule: str = "fixed"
    leakage_max: float = 0.0
    wall_time_s: float = 0.0
    blas: str = "not identified"
    out_dir: str = ""
    warnings: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    summaries: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            "kerr-thermo run report",
            f"version: {__version__}",
            f"command: {self.command}",
            f"config hash: {self.config_hash}",
            f"n_cut used: {self.n_cut_used}",
            f"n_cut rule: {self.n_cut_rule}",
            f"leakage max: {self.leakage_max:.3e}",
            f"wall time s: {self.wall_time_s:.2f}",
            f"blas: {self.blas}",
            "",
            "resolved config:",
        ]
        lines += [f"  {line}" for line in self.config_echo.strip().splitlines()]
        lines += ["", "outputs:"] + ([f"  - {name}" for name in self.outputs] or ["  (none)"])
        if self.summaries:
            lines += ["", "summaries:"] + [f"  {line}" for line in self.summaries]
        lines += ["", "warnings:"] + ([f"  - {w}" for w in self.warnings] or ["  (none)"])
        return "\n".join(lines) + "\n"


@dataclass
class _PointResult:
    columns: dict[str, np.ndarray]
    n_cut_used: int
    leakage_max: float
    summaries: list[str]


# A propagating command's try above this cutoff computes on the caller's
# OpenBLAS thread count; every other try, the cutoff certificate and the table
# commands at any cutoff compute on one.  Median wall / CPU s of 7
# fresh-process cfi runs of a fig8a point (201 samples, 2-core x86-64 VM), two
# threads against one: n_cut 12 0.050 / 0.086 against 0.053 / 0.051, 14
# 0.104 / 0.163 against 0.079 / 0.077, 16 0.130 / 0.214 against 0.117 /
# 0.116, 18 0.175 / 0.298 against 0.187 / 0.187.  thermalize gains 7-35% of
# its wall time from a second thread at n_cut 18-40.
_ONE_THREAD_NCUT_MAX = 16

# Name prefixes and suffixes of OpenBLAS's thread control: numpy 2 wheels
# export scipy_openblas_*64_, numpy 1.x wheels openblas_*64_, a system
# OpenBLAS openblas_* (scipy_openblas_* in an LP64 scipy-openblas build).
_OPENBLAS_NAMES = (("scipy_", "64_"), ("", "64_"), ("", ""), ("scipy_", ""))


class _OpenBlas:
    """An OpenBLAS, reached through its exported ctypes symbols.

    ``caller_threads`` is the count a run's BLAS scope restores on exit, and
    None outside a scope.
    """

    def __init__(self, lib, prefix: str, suffix: str):
        self._get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
        self._set = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
        get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
        self._get.argtypes, self._get.restype = [], ctypes.c_int
        self._set.argtypes, self._set.restype = [ctypes.c_int], None
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        self.name = " ".join(get_config().decode(errors="replace").split())
        # The routine OpenBLAS's own fork handler calls to join the pool's
        # workers, exported without prefix or suffix; None when missing.
        self._shutdown = getattr(lib, "blas_thread_shutdown_", None)
        if self._shutdown is not None:
            self._shutdown.argtypes, self._shutdown.restype = [], ctypes.c_int
        self.caller_threads: int | None = None

    def threads(self) -> int:
        return self._get()

    def set_threads(self, count: int) -> None:
        # Any set restarts a shut-down pool, even at the count it already has.
        if count != self._get():
            self._set(count)

    def park(self, count: int = 1) -> None:
        """``count`` threads, with the idle pool shut down where the library can.

        A new thread count does not stop a worker that is already spinning:
        it spins for about 0.12 s after numpy's import, after every threaded
        call and after a set restarts the pool.  Shutting the pool down
        joins it in about 0.1 ms; OpenBLAS starts it again at the next
        thread-count change or threaded call, at the count set here.
        """
        self.set_threads(count)
        if self._shutdown is not None:
            self._shutdown()


def _find_openblas(lib) -> _OpenBlas | None:
    """The OpenBLAS thread control ``lib`` exports under any known name, or None."""
    for prefix, suffix in _OPENBLAS_NAMES:
        try:
            return _OpenBlas(lib, prefix, suffix)
        except AttributeError:
            continue
    return None


@functools.cache
def _openblas() -> _OpenBlas | None:
    """The OpenBLAS numpy links, or None when no thread control is found.

    Looked up on first use, never at import.
    """
    try:
        return _find_openblas(ctypes.CDLL(np.linalg._umath_linalg.__file__))
    except OSError:
        return None


@contextlib.contextmanager
def _blas_scope():
    """A run's BLAS scope: one parked OpenBLAS thread, the caller's count restored after.

    The count is restored also when the block raises, and parked: setting it
    restarts the pool, whose new worker would otherwise spin for about
    0.12 s after the run.  No environment variable is read or set; without
    the OpenBLAS symbols the count is left as it is.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    blas.caller_threads = blas.threads()
    blas.park()
    try:
        yield
    finally:
        blas.park(blas.caller_threads)
        blas.caller_threads = None


@contextlib.contextmanager
def _try_threads(command: str, n_cut: int):
    """The BLAS threads of one try: the scope's one thread, or, for a try that
    ``_one_thread`` does not keep there, the caller's count, parked again after."""
    blas = _openblas()
    if blas is None or blas.caller_threads is None or _one_thread(command, n_cut):
        yield
        return
    blas.set_threads(blas.caller_threads)
    try:
        yield
    finally:
        blas.park()


def _one_thread(command: str, n_cut: int) -> bool:
    """Whether a try of ``command`` at ``n_cut`` computes on one BLAS thread.

    A table command's largest matrices are n_cut-sized blocks, so it stays
    on one thread at every cutoff.
    """
    return command in TABLE_COMMANDS or n_cut <= _ONE_THREAD_NCUT_MAX


def _blas_report(config: ScenarioConfig, results: list[_PointResult]) -> str:
    """The BLAS and the thread counts the points' final computes ran with."""
    blas = _openblas()
    if blas is None:
        return "not identified, thread count left as it is"
    counts = sorted(
        {1 if _one_thread(config.command, r.n_cut_used) else blas.threads() for r in results}
    )
    return f"{blas.name}, compute threads: {', '.join(map(str, counts))}"


def _format_value(x: float) -> str:
    return f"{x:.11e}"


def _point_suffix(config: ScenarioConfig, point: dict[str, float]) -> str:
    swept = config.swept_fields()
    if not swept:
        return ""
    return "_" + "_".join(f"{name}{exact_text(point[name])}" for name in swept)


def _with_truncation_retry(config: ScenarioConfig, compute):
    """Run ``compute(trunc)``, growing n_cut when the cutoff proves too small.

    It starts at ``config.trunc()``, the certified cutoff for ``n_cut = auto``,
    and n_cut doubles on each TruncationError up to ``config.n_cut_max()``, the
    cap of the command's kind that the ``auto`` walk also stops at.  A larger
    cutoff must be set explicitly.  When the retries run out the error names
    the last cutoff tried.
    Inside the run's BLAS scope a propagating command's try above n_cut
    ``_ONE_THREAD_NCUT_MAX`` gets the caller's thread count back and parks the
    pool again after; every other try stays on the scope's one thread.
    """
    limit = config.n_cut_max()
    n_cut = config.trunc().n_cut
    while True:
        try:
            with _try_threads(config.command, n_cut):
                return compute(Truncation(n_cut)), n_cut
        except TruncationError as exc:
            if n_cut >= limit:
                raise TruncationError(
                    f"{exc} (last cutoff tried: n_cut = {n_cut}; set a larger n_cut "
                    f"explicitly to go further)"
                ) from exc
            n_cut = min(2 * n_cut, limit)


def _point_label(config: ScenarioConfig, point: dict[str, float]) -> str:
    return f"point{_point_suffix(config, point) or ' (single)'}"


def _cutoff_rule(config: ScenarioConfig) -> str:
    """``fixed``, or ``auto`` with the sweep point whose certificate set the cutoff."""
    cert = config.cutoff_certificate
    if cert is None:
        return "fixed"
    point = config.sweep_points()[cert.point_index]
    return (
        f"auto, set by {_point_label(config, point)}: steady-state leakage "
        f"{cert.leakage:.3e}, steady-state qfi change n_cut -> n_cut + 2 "
        f"{cert.qfi_change:.3e} relative"
    )


def _run_point(args: tuple[ScenarioConfig, int]) -> _PointResult:
    # One (config, index) argument: perfbench/tracer.py wraps this function
    # with a one-argument wrapper to time each sweep point.
    config, index = args
    point = config.sweep_points()[index]
    try:
        return _run_point_inner(config, point)
    except (KerrThermoError, Warning) as exc:  # a Warning a filter raised
        where = ", ".join(f"{k} = {exact_text(v)}" for k, v in point.items())
        raise type(exc)(f"sweep point {index} ({where}): {exc}") from exc


def _run_point_inner(config: ScenarioConfig, point: dict) -> _PointResult:
    """Evaluate one sweep point.

    Each command supplies one ``compute(trunc)`` that returns ``(columns,
    summaries, leakage)``; the truncation retry runs it.
    """
    params = config.params_at(point)
    grid = config.grid()
    label = _point_label(config, point)

    if config.command == "thermalize":
        def compute(trunc):
            traj = propagate(vacuum_state(trunc), params, grid, trunc)
            search = default_search_max(traj.entries)
            trace = thermalization_trace(traj, search)
            columns = {
                "gamma_t": trace.times,
                "n_eff": trace.n_eff,
                "fidelity_at_opt": trace.fidelity_at_opt,
            }
            summary = (
                f"{label}: final n_eff = {trace.n_eff[-1]:.6g}, "
                f"final fidelity = {trace.fidelity_at_opt[-1]:.6g}, "
                f"search_max = {search:.6g}, "
                f"fidelity evaluations per state = {trace.evaluations.mean():.1f}"
            )
            return columns, [summary], traj.leakage_max

    elif config.command in ("qfi", "cfi"):
        def compute(trunc):
            trajectories = tangent_trajectories(params, grid, trunc)
            q_series = qfi_series(trajectories)
            columns = {"gamma_t": q_series.times, "qfi": q_series.values}
            summaries = [
                f"{label}: qfi: plateau = {q_series.plateau:.6g}, "
                f"cr bound = {cr_bound(q_series.plateau):.6g}"
            ]
            povms = {}
            if config.command == "cfi":  # a qfi run ignores homodyne_phis
                povms = {homodyne_label(phi): homodyne_povm(phi, trunc) for phi in config.homodyne_phis}
                povms["cfi_het"] = heterodyne_povm(
                    trunc, mean_photon=mean_photon_number(trajectories.central.entries[-1])
                )
            for name, povm in povms.items():
                series = cfi_series(trajectories, povm)
                columns[name] = series.values
                summaries.append(
                    f"{label}: {name}: plateau = {series.plateau:.6g}, "
                    f"max skipped mass = {series.max_skipped_mass:.3e}, "
                    f"completeness defect = {povm.completeness_defect:.3e}"
                )
            return columns, summaries, trajectories.central.leakage_max

    elif config.command == "spectrum":
        def compute(trunc):
            return {"var_gap": np.array([gap_variance(spectrum(params, trunc), *GAP_WINDOW)])}, [], 0.0

    else:  # purity-sweep
        def compute(trunc):
            ss = steady_state(params, trunc)
            columns = {
                "purity": np.array([purity(ss)]),
                "photon_number": np.array([mean_photon_number(ss)]),
            }
            return columns, [], _leakage(ss.entries)

    (columns, summaries, leakage), n_cut = _with_truncation_retry(config, compute)
    return _PointResult(columns, n_cut, leakage, summaries)


def _check_jobs(jobs: int | None) -> None:
    if jobs is not None and jobs != 1:
        raise ConfigError(
            f"jobs = {jobs!r}: sweep points run in order in one process, so jobs must be None or 1",
            field="jobs",
        )


def _compute(config: ScenarioConfig) -> tuple[RunReport, list[_PointResult]]:
    """Evaluate the sweep points in order, in this process, and aggregate the report.

    The cutoff certificate and every point run inside one BLAS scope
    (``_blas_scope``): one OpenBLAS thread, with the idle pool shut down on
    entry so no worker left spinning by numpy's import or an earlier call
    burns CPU through the run, and the caller's count restored on exit with
    the pool still shut down, so no worker spins past the run either.  Only
    a propagating command's try above n_cut ``_ONE_THREAD_NCUT_MAX`` gets the
    caller's count (see ``_with_truncation_retry``).  The report names the
    BLAS and the thread counts the points ran with.

    Warnings from the cutoff certificate and the points are recorded under the
    caller's filters: one that a filter turns into an error raises here, and
    the report lists every recorded message once.
    """
    with warnings.catch_warnings(record=True) as caught, _blas_scope():
        # Certify an auto cutoff once; the config caches it, and every point's retry starts there.
        trunc = config.trunc()
        results = [_run_point((config, i)) for i in range(len(config.sweep_points()))]

    report = RunReport(
        command=config.command,
        config_echo=config.canonical_text(),
        config_hash=config.config_hash(),
        n_cut_used=trunc.n_cut,
        n_cut_rule=_cutoff_rule(config),
        blas=_blas_report(config, results),
        warnings=list(dict.fromkeys(str(rec.message) for rec in caught)),
    )
    for res in results:
        report.n_cut_used = max(report.n_cut_used, res.n_cut_used)
        report.leakage_max = max(report.leakage_max, res.leakage_max)
        report.summaries.extend(res.summaries)
    return report, results


def _merged_rows(config: ScenarioConfig, results: list[_PointResult]) -> dict[str, np.ndarray]:
    """A table command's points stacked as the rows of one table.

    The swept fields lead as the abscissa columns; a single point is labelled by n_th.
    """
    points = config.sweep_points()
    merged = {
        name: np.array([point[name] for point in points])
        for name in config.swept_fields() or ("n_th",)
    }
    for name in results[0].columns:
        merged[name] = np.concatenate([r.columns[name] for r in results])
    return merged


def _merged_curves(config: ScenarioConfig, results: list[_PointResult]) -> dict[str, np.ndarray]:
    """The points' time series side by side, each label carrying its point suffix."""
    merged = {"gamma_t": results[0].columns["gamma_t"]}
    for res, point in zip(results, config.sweep_points()):
        suffix = _point_suffix(config, point)
        merged.update((f"{col}{suffix}", v) for col, v in res.columns.items() if col != "gamma_t")
    return merged


def _csv_text(config: ScenarioConfig, columns: dict[str, np.ndarray]) -> str:
    names = list(columns)
    length = len(next(iter(columns.values())))
    rows = [",".join(names)]
    for i in range(length):
        rows.append(",".join(_format_value(float(columns[name][i])) for name in names))
    header = (
        f"# kerr-thermo {__version__}\n"
        f"# command: {config.command}\n"
        f"# config-hash: {config.config_hash()}\n"
    )
    return header + "\n".join(rows) + "\n"


def _write(out_dir: str, report: RunReport, files: dict[str, str], start: float) -> RunReport:
    """Write every output file, then ``run_report.txt``; on failure remove every file opened."""
    written: list[str] = []
    try:
        for name, text in files.items():
            with open(os.path.join(out_dir, name), "w", newline="\n") as fh:
                written.append(name)
                fh.write(text)
        report.outputs = list(written)
        report.out_dir = out_dir
        report.wall_time_s = time.perf_counter() - start
        with open(os.path.join(out_dir, "run_report.txt"), "w", newline="\n") as fh:
            written.append("run_report.txt")
            fh.write(report.render())
        return report
    except Exception:
        for name in written:
            os.remove(os.path.join(out_dir, name))
        raise


def run(config: ScenarioConfig, out_dir: str | None = None, jobs: int | None = None) -> RunReport:
    """Execute a scenario, writing CSV outputs and a run report into ``out_dir``.

    ``out_dir=None`` falls back to the config's ``output_path``.  A failing
    sweep point raises before any file is written.  The sweep points run in
    order in this process; ``jobs`` accepts only None or 1 and any other value
    raises ConfigError.
    """
    _check_jobs(jobs)
    start = time.perf_counter()
    out_dir = config.output_path if out_dir is None else out_dir
    os.makedirs(out_dir, exist_ok=True)
    report, results = _compute(config)
    if config.command in TABLE_COMMANDS:
        tables = {f"{config.command.replace('-', '_')}.csv": _merged_rows(config, results)}
    else:
        tables = {
            f"{config.command}{_point_suffix(config, point)}.csv": res.columns
            for res, point in zip(results, config.sweep_points())
        }
    files = {name: _csv_text(config, cols) for name, cols in tables.items()}
    return _write(out_dir, report, files, start)


def _figure_checks(name: str, config: ScenarioConfig, cols: dict[str, np.ndarray]) -> list[str]:
    """Evaluate the trend checks on a figure's merged columns."""
    checks: list[str] = []

    def record(label: str, ok: bool) -> None:
        checks.append(f"[{'PASS' if ok else 'FAIL'}] {label}")

    if name.startswith("fig2"):
        n_eff = cols["n_eff"]
        trace = EffTempTrace(cols["gamma_t"], n_eff, cols["fidelity_at_opt"])
        record("n_eff converged over the final window", trace.final_window_change(0.1) <= 1e-3)
        n_th = config.n_th[0]
        record(
            f"final n_eff within 30% of n_th={n_th:g} (got {n_eff[-1]:.4g})",
            abs(n_eff[-1] - n_th) <= 0.3 * n_th,
        )
    elif name.startswith("fig3") or name.startswith("fig5"):
        plats = [values[-1] for col, values in cols.items() if col != "gamma_t"]
        record(
            "plateau qfi strictly increasing along the sweep "
            + " < ".join(f"{p:.4g}" for p in plats),
            all(a < b for a, b in zip(plats, plats[1:])),
        )
    elif name in ("fig4", "fig6"):
        record("gap variance increasing along the sweep", bool(np.all(np.diff(cols["var_gap"]) > 0)))
    elif name.startswith("fig7"):
        record("purity strictly decreasing along the sweep", bool(np.all(np.diff(cols["purity"]) < 0)))
    elif name.startswith("fig8"):
        for col, values in cols.items():
            if col.startswith("cfi"):
                ok = bool(np.all(values <= cols["qfi"] * (1 + 1e-6)))
                record(f"{col} <= qfi at every sampled time", ok)
    return checks


def reproduce_figure(name: str, out_dir: str | None = None) -> RunReport:
    """Run a named figure preset and emit one CSV per figure plus a sidecar.

    The CSV columns map onto the figure axes (one column per plotted curve);
    the sidecar lists the preset parameters, flags the inferred ones, and
    reports which trend checks passed.  The sweep points run in order in this
    process, as for :func:`run`.
    """
    start = time.perf_counter()
    if name not in PRESETS:
        raise ConfigError(
            f"unknown figure {name!r}; known: {', '.join(FIGURE_NAMES)}", field="preset"
        )
    config = resolve_config(preset=name)
    out_dir = config.output_path if out_dir is None else out_dir
    os.makedirs(out_dir, exist_ok=True)
    report, results = _compute(config)
    merge = _merged_rows if config.command in TABLE_COMMANDS else _merged_curves
    columns = merge(config, results)
    checks = _figure_checks(name, config, columns)
    report.summaries.extend(checks)

    preset = PRESETS[name]
    inferred = set(preset.get("_inferred", ()))
    sidecar = [f"{name}: parameters and checks", "", "parameters:"]
    for key, value in preset.items():
        if key.startswith("_"):
            continue
        marker = "  (inferred)" if key in inferred else ""
        sidecar.append(f"  {key} = {value}{marker}")
    sidecar += ["", "checks:"] + [f"  {c}" for c in checks]

    files = {
        f"{name}.csv": _csv_text(config, columns),
        f"{name}_params.txt": "\n".join(sidecar) + "\n",
    }
    return _write(out_dir, report, files, start)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kerr-thermo",
        description="Kerr-resonator reservoir thermometry: scenario runner",
    )
    parser.add_argument("command", choices=COMMANDS + ("reproduce-figure",))
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--preset", help="named preset (figure name for reproduce-figure)")
    parser.add_argument(
        "--out", default=None, help="output directory (default: config output_path or cwd)"
    )
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    args = parser.parse_args(argv)

    try:
        if args.command == "reproduce-figure":
            if not args.preset:
                raise ConfigError("reproduce-figure requires --preset <figure name>")
            if args.config or args.override:
                raise ConfigError("reproduce-figure takes no --config or --override")
            report = reproduce_figure(args.preset, out_dir=args.out)
        else:
            text = ""
            if args.config:
                with open(args.config) as fh:
                    text = fh.read()
            config = resolve_config(
                file_text=text,
                preset=args.preset,
                overrides=tuple(args.override),
                command=args.command,
            )
            report = run(config, out_dir=args.out)
    except (KerrThermoError, OSError, ValueError, Warning) as exc:  # a Warning a filter raised
        print(f"kerr-thermo: error: {exc}", file=sys.stderr)
        return 1
    for line in report.summaries:
        print(line)
    print(f"wrote {len(report.outputs)} file(s) to {report.out_dir} in {report.wall_time_s:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
