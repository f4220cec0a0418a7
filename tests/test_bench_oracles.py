"""The benchmark's own correctness checks, run on each workload's seed-1 and seed-2 draws.

``perfbench/workloads.py`` judges every benchmark run by oracles that import
library names (``fd_step``, ``stencil_combine``, ``qfi``, ``ScenarioConfig.fd``)
and by a capture hook on ``cli.propagate``.  The ``fisher`` oracle reads
``qfi(...).qfi``: that is the one reason ``qfi`` and its ``SldResult`` stay,
since every Fisher value of the library, the steady state's at tau = inf
included, comes from ``qfi_series`` or ``cfi_series`` on a pair.  Running them
here makes a library change that breaks what the benchmark uses fail the test
suite, not only the benchmark.
"""

import sys
from pathlib import Path

import pytest

from kerr_thermo import cli

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import scenario  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "name, seed",
    [pytest.param(name, 1, id=name) for name in workloads.WORKLOADS]
    + [pytest.param(name, 2, id=f"{name}-seed2") for name in workloads.WORKLOADS],
)
def test_workload_passes_its_checks(name, seed, tmp_path, monkeypatch):
    bench = workloads.make_scenario(name, seed)
    config = workloads.resolve(bench)
    out_dir, capture_dir = tmp_path / "out", tmp_path / "capture"
    capture_dir.mkdir()
    # install_capture replaces cli.propagate; monkeypatch puts it back
    monkeypatch.setattr(cli, "propagate", cli.propagate)
    scenario.install_capture(str(capture_dir))
    cli.run(config, out_dir=str(out_dir), jobs=bench.jobs)
    results = workloads.run_checks(bench, str(out_dir), str(capture_dir))
    assert results
    assert all(r.ok for r in results), [r.detail for r in results if not r.ok]
