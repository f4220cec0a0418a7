import errno
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kerr_thermo import (
    Truncation,
    cfi_series,
    default_search_max,
    heterodyne_povm,
    homodyne_povm,
    mean_photon_number,
    propagate,
    purity,
    qfi_series,
    steady_state,
    tangent_trajectories,
    thermalization_trace,
    vacuum_state,
)
from kerr_thermo import cli, config
from kerr_thermo.cli import main, reproduce_figure, run
from kerr_thermo.config import homodyne_label, parse_config, resolve_config
from kerr_thermo.errors import BracketBoundaryWarning, ConfigError, NumericalFailureError, TruncationError
from kerr_thermo.presets import FIGURE_NAMES, PRESETS

import figure_reference


FAST_THERMALIZE = """
command = thermalize
n_th = 0.1
n_cut = 20
t_end = 2
n_samples = 5
"""

FAST_QFI_SWEEP = """
command = qfi
n_th = 0.1
chi = 0, 0.4
drive = 0.5
delta = -3.5
n_cut = 16
t_end = 2
n_samples = 4
"""


def read_lines(path):
    with open(path) as fh:
        return fh.read()


def warn_while_certifying(monkeypatch):
    """Make the cutoff certificate warn; returns a config that certifies."""
    certify = config.certify_cutoff

    def warning(points, leakage_tol, n_cut_max):
        warnings.warn("certificate probe", UserWarning)
        return certify(points, leakage_tol, n_cut_max)

    monkeypatch.setattr(config, "certify_cutoff", warning)
    return FAST_THERMALIZE.replace("n_cut = 20", "n_cut = auto")


class TestParseConfig:
    def test_preset_expansion(self):
        cfg = parse_config("preset = fig3a\n")
        assert cfg.command == "qfi"
        assert cfg.n_th == (0.05,)
        assert cfg.delta == (-3.5,)
        assert cfg.drive == (1.0,)
        assert cfg.chi == (0.0, 0.3, 0.6)

    def test_missing_n_th_names_field(self):
        with pytest.raises(ConfigError, match="n_th"):
            parse_config("command = thermalize\n")

    def test_negative_n_th_domain_error(self):
        with pytest.raises(ConfigError, match="n_th"):
            parse_config("command = thermalize\nn_th = -0.1\n")

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("command = qfi\nn_th = 0.1\nbogus = 3\n")

    def test_syntax_error_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("command = qfi\nn_th = 0.1\nnot a pair\n")

    def test_pi_suffix(self):
        cfg = parse_config("command = cfi\nn_th = 0.1\nhomodyne_phis = 0.5pi, 0\n")
        assert cfg.homodyne_phis[0] == pytest.approx(np.pi / 2)
        assert cfg.homodyne_phis[1] == 0.0
        # a bare sign before the suffix means +-1
        cfg = parse_config("command = cfi\nn_th = 0.1\nhomodyne_phis = -pi, +pi, -0.5pi\n")
        assert cfg.homodyne_phis == (-np.pi, np.pi, -0.5 * np.pi)
        assert parse_config("command = cfi\nn_th = 0.1\nhomodyne_phis = - PI\n").homodyne_phis == (-np.pi,)
        for raw in ("pipi", "-", "--pi", "+-pi"):
            with pytest.raises(ConfigError, match="is not a number") as info:
                parse_config(f"command = cfi\nn_th = 0.1\nhomodyne_phis = {raw}\n")
            assert info.value.field == "homodyne_phis"

    def test_override_precedence(self):
        cfg = resolve_config(file_text="command = qfi\nn_th = 0.1\nn_cut = 12\n",
                             overrides=("n_cut=24",))
        assert cfg.n_cut == 24

    def test_preset_override_cannot_replace_the_preset_argument(self, tmp_path):
        with pytest.raises(ConfigError, match="preset 'fig3a' conflicts with config preset 'fig5a'") as info:
            resolve_config(preset="fig3a", overrides=("preset=fig5a",), command="qfi")
        assert info.value.field == "preset"
        same = resolve_config(preset="fig3a", overrides=("preset=fig3a",), command="qfi")
        assert same == resolve_config(preset="fig3a", command="qfi")
        out = tmp_path / "out"
        argv = ["qfi", "--preset", "fig3a", "--override", "preset=fig5a", "--out", str(out)]
        assert main(argv) == 1
        assert not out.exists()

    def test_all_presets_build(self):
        for name in FIGURE_NAMES:
            cfg = resolve_config(preset=name)
            assert cfg.command == PRESETS[name]["command"]

    def test_config_hash_stable(self):
        a = parse_config(FAST_THERMALIZE)
        b = parse_config(FAST_THERMALIZE)
        assert a.config_hash() == b.config_hash()

    def test_close_values_hash_apart(self):
        a = resolve_config(preset="fig3a", overrides=("n_th=0.1234567",))
        b = resolve_config(preset="fig3a", overrides=("n_th=0.1234568",))
        assert a.config_hash() != b.config_hash()

    def test_canonical_text_round_trips_every_preset(self):
        for name in FIGURE_NAMES:
            cfg = resolve_config(preset=name)
            assert parse_config(cfg.canonical_text()) == cfg, name

    def test_repeated_sweep_value_is_error(self):
        with pytest.raises(ConfigError, match="n_th lists a value twice"):
            parse_config("command = thermalize\nn_th = 0.1, 0.1\n")

    def test_n_cut_auto_parses_echoes_and_hashes_apart(self):
        auto = parse_config("command = qfi\nn_th = 0.1\nn_cut = auto\n")
        fixed = parse_config("command = qfi\nn_th = 0.1\nn_cut = 30\n")
        assert auto.n_cut is None
        assert "n_cut = auto\n" in auto.canonical_text()
        assert parse_config(auto.canonical_text()) == auto
        assert auto.config_hash() != fixed.config_hash()

    def test_n_cut_auto_with_spectrum_is_error(self):
        with pytest.raises(ConfigError, match="n_cut = auto") as info:
            parse_config("command = spectrum\nn_th = 0\nn_cut = auto\n")
        assert info.value.field == "n_cut"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("chi", "-1"),
            ("delta", "inf"),
            ("n_cut", "1"),
            ("chi", ","),
            ("n_cut", "12.5"),
        ],
    )
    def test_out_of_range_value_names_field(self, key, value):
        with pytest.raises(ConfigError, match=key) as info:
            parse_config(f"command = thermalize\nn_th = 0.1\nt_end = 1\nn_samples = 3\n{key} = {value}\n")
        assert info.value.field == key

    @pytest.mark.parametrize(
        "text, overrides, message, field, line",
        [
            pytest.param("command = thermalize\n = 3\n", (), "line 2: empty key", None, 2, id="empty-key"),
            pytest.param(
                "command = thermalize\nn_th = 0.1\nn_th = 0.2\n", (), "line 3: duplicate key 'n_th'", "n_th", 3,
                id="duplicate-key",
            ),
            pytest.param("n_th = 0.1\n", (), "missing required key 'command'", "command", None, id="no-command"),
            pytest.param("preset = fig99\n", (), "unknown preset 'fig99'", "preset", None, id="unknown-preset"),
            pytest.param(
                "preset = fig2a\n", ("n_th",), "override 'n_th' is not of the form key=value", None, None,
                id="override-without-equals",
            ),
        ],
    )
    def test_input_error_names_its_place(self, text, overrides, message, field, line):
        with pytest.raises(ConfigError) as info:
            resolve_config(file_text=text, overrides=overrides)
        assert (str(info.value), info.value.field, info.value.line) == (message, field, line)

    def test_removed_keys_are_unknown(self):
        # t_start only relabelled the time axis, abs_floor mattered only below
        # n_th ~ 1e-6, heterodyne_povm sizes its own grid from n_cut, and
        # rel_step, repetitions, gamma (the unit) and the gap window had one
        # value in use; so did leakage_tol (1e-8), integrator_step and
        # search_max (auto) and heterodyne (true on every cfi preset), which
        # are method options of the library, not inputs of a run
        for key in (
            "t_start", "abs_floor", "heterodyne_radius", "heterodyne_step", "rel_step", "repetitions",
            "gamma", "window_lo", "window_hi", "leakage_tol", "integrator_step", "search_max",
            "heterodyne",
        ):
            with pytest.raises(ConfigError, match=f"unknown key '{key}'") as info:
                parse_config(f"command = thermalize\nn_th = 0.1\n{key} = 1\n")
            assert info.value.field == key
            with pytest.raises(ConfigError, match=f"unknown key '{key}'") as info:
                resolve_config(preset="fig2a", overrides=(f"{key}=1",))
            assert info.value.field == key

    @pytest.mark.parametrize("command", ["qfi", "cfi"])
    @pytest.mark.parametrize("n_th", ["0", "1e-12"])
    def test_n_th_the_stencil_cannot_take_is_rejected_when_read(self, tmp_path, command, n_th):
        # 1e-12 is positive but leaves the stencil no room above abs_floor
        text = f"command = {command}\nn_th = {n_th}\nn_cut = 8\nt_end = 1\nn_samples = 3\n"
        with pytest.raises(ConfigError, match="n_th") as info:
            parse_config(text)
        assert info.value.field == "n_th"
        path, out = tmp_path / "scenario.cfg", tmp_path / "out"
        path.write_text(text)
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists()

    def test_reproduce_figure_is_not_a_config_command(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="unknown command") as info:
            run(parse_config("command = reproduce-figure\nn_th = 0.1\nn_cut = 8\n"), out_dir=str(out))
        assert info.value.field == "command"
        assert not out.exists()

    def test_readme_key_list_matches_the_parser(self):
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
        block = read_lines(readme).split("Keys:\n\n```\n", 1)[1].split("```", 1)[0]
        # a key line starts at column 0; its keys end at the first run of two spaces
        names = [
            name.strip()
            for line in block.splitlines()
            if line and not line[0].isspace()
            for name in re.split(r"\s{2,}", line)[0].split(",")
        ]
        assert sorted(names) == sorted(config._KNOWN_KEYS)
        assert set(config.parse_key_values("".join(f"{k} = 1\n" for k in names))) == set(names)

    def test_propagating_presets_certify_their_cutoff(self):
        for name in FIGURE_NAMES:
            cfg = resolve_config(preset=name)
            if name[:4] in ("fig2", "fig3", "fig5", "fig8"):
                assert cfg.n_cut is None, name
            else:
                assert isinstance(cfg.n_cut, int), name

    def test_resolving_does_not_certify(self, monkeypatch):
        def refuse(points, leakage_tol, n_cut_max):
            raise AssertionError("certified while resolving")

        monkeypatch.setattr(config, "certify_cutoff", refuse)
        cfg = resolve_config(preset="fig3a")
        assert parse_config(cfg.canonical_text()) == cfg


class TestRun:
    def test_thermalize_columns(self, tmp_path):
        cfg = parse_config(FAST_THERMALIZE)
        report = run(cfg, out_dir=str(tmp_path))
        text = read_lines(tmp_path / "thermalize.csv")
        assert text.splitlines()[0].startswith("# kerr-thermo")
        assert f"# config-hash: {cfg.config_hash()}" in text
        header = [ln for ln in text.splitlines() if not ln.startswith("#")][0]
        assert header == "gamma_t,n_eff,fidelity_at_opt"
        assert report.outputs == ["thermalize.csv"]
        assert (tmp_path / "run_report.txt").exists()

    def test_determinism_byte_identical(self, tmp_path):
        cfg = parse_config(FAST_THERMALIZE)
        run(cfg, out_dir=str(tmp_path / "a"))
        run(cfg, out_dir=str(tmp_path / "b"))
        assert read_lines(tmp_path / "a" / "thermalize.csv") == read_lines(
            tmp_path / "b" / "thermalize.csv"
        )

    def test_sweep_writes_one_csv_per_point(self, tmp_path):
        cfg = parse_config(FAST_QFI_SWEEP)
        report = run(cfg, out_dir=str(tmp_path))
        assert report.outputs == ["qfi_chi0.csv", "qfi_chi0.4.csv"]

    def test_close_sweep_values_write_distinct_files(self, tmp_path):
        text = FAST_THERMALIZE.replace("n_th = 0.1", "n_th = 0.1000001, 0.1000002")
        cfg = parse_config(text)
        report = run(cfg, out_dir=str(tmp_path))
        assert report.outputs == [
            "thermalize_n_th0.1000001.csv",
            "thermalize_n_th0.1000002.csv",
        ]
        written = sorted(p for p in os.listdir(tmp_path) if p.endswith(".csv"))
        assert written == report.outputs

    def test_close_homodyne_angles_give_two_columns(self, tmp_path):
        cfg = parse_config(
            "command = cfi\nn_th = 0.1\ndrive = 0.5\nn_cut = 12\nt_end = 1\nn_samples = 3\n"
            "homodyne_phis = 0.1000001pi, 0.1000002pi\n"
        )
        report = run(cfg, out_dir=str(tmp_path))
        rows = [ln for ln in read_lines(tmp_path / "cfi.csv").splitlines() if not ln.startswith("#")]
        assert rows[0] == "gamma_t,qfi,cfi_hom_phi0.1000001pi,cfi_hom_phi0.1000002pi,cfi_het"
        hom = [line for line in report.summaries if line.startswith("point (single): cfi_hom")]
        assert len(hom) == 2
        for line in hom:
            assert "max skipped mass = " in line and "completeness defect = " in line

    @pytest.mark.parametrize("raw", ["inf", "-inf", "infpi", "nan"])
    def test_non_finite_homodyne_angle_is_rejected(self, raw):
        with pytest.raises(ConfigError, match="homodyne_phis must be finite") as info:
            parse_config(f"command = cfi\nn_th = 0.1\nhomodyne_phis = 0, {raw}\n")
        assert info.value.field == "homodyne_phis"

    def test_huge_finite_homodyne_angle_runs(self, tmp_path):
        cfg = parse_config(
            "command = cfi\nn_th = 0.1\nn_cut = 8\nt_end = 1\nn_samples = 3\nhomodyne_phis = 1e300pi\n"
        )
        run(cfg, out_dir=str(tmp_path))
        rows = [ln for ln in read_lines(tmp_path / "cfi.csv").splitlines() if not ln.startswith("#")]
        assert rows[0] == "gamma_t,qfi,cfi_hom_phi1e+300pi,cfi_het"
        assert all(np.isfinite([float(x) for x in row.split(",")]).all() for row in rows[1:])

    def test_homodyne_label_collision_is_error(self):
        # phi / pi maps this angle and the next float up to one label
        phi = 3.4557519189487738
        with pytest.raises(ConfigError, match="share the column label cfi_hom_phi"):
            parse_config(
                f"command = cfi\nn_th = 0.1\nhomodyne_phis = {phi!r}, {float(np.nextafter(phi, 4.0))!r}\n"
            )

    def test_runs_leave_scipy_unimported(self, tmp_path):
        # the runtime needs numpy only: a cfi figure and a steady-state sweep
        # import no scipy module at all
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = (
            "import sys\n"
            "from kerr_thermo.cli import main, reproduce_figure\n"
            f"reproduce_figure('fig8a', out_dir={str(tmp_path / 'fig8a')!r})\n"
            f"assert main(['purity-sweep', '--preset', 'fig7a', '--out', {str(tmp_path / 'fig7a')!r}]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "assert not loaded, loaded\n"
            "assert 'multiprocessing' not in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_runs_leave_numpy_ma_unimported(self, tmp_path):
        # numpy.ma takes a fresh process about 10 ms to import, inside its
        # first point; a bare np.unique in the generator table once imported it
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = (
            "import sys\n"
            "from kerr_thermo.cli import run\n"
            "from kerr_thermo.config import parse_config\n"
            "for command in ('thermalize', 'cfi', 'purity-sweep'):\n"
            "    cfg = parse_config(f'command = {command}\\nn_th = 0.1\\ndrive = 0.5\\n'\n"
            "                       'n_cut = 8\\nt_end = 1\\nn_samples = 5\\n')\n"
            f"    run(cfg, out_dir={str(tmp_path)!r} + '/' + command)\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_package_exports_every_library_name(self):
        import kerr_thermo
        from kerr_thermo import dynamics, errors, estimation, fidelity, fock, measurement, spectral

        modules = (errors, fock, dynamics, fidelity, estimation, measurement, spectral)
        listed = [name for module in modules for name in module.__all__]
        # a star-import lets a later module shadow an earlier one silently
        assert len(listed) == len(set(listed))
        assert kerr_thermo.__all__ == ["__version__", *listed]
        for module in modules:
            for name in module.__all__:
                assert getattr(kerr_thermo, name) is getattr(module, name)

    def test_version_matches_pyproject(self):
        import kerr_thermo

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as f:
            version = re.search(r'^version = "([^"]+)"$', f.read(), re.MULTILINE).group(1)
        assert version == kerr_thermo.__version__

    def test_qfi_ignores_measurement_keys(self, tmp_path):
        cfg = parse_config(
            "command = qfi\nn_th = 0.1\ndrive = 0.5\nn_cut = 12\nt_end = 1\nn_samples = 3\n"
            "homodyne_phis = 0.3\n"
        )
        report = run(cfg, out_dir=str(tmp_path))
        rows = [ln for ln in read_lines(tmp_path / "qfi.csv").splitlines() if not ln.startswith("#")]
        assert rows[0] == "gamma_t,qfi"
        assert [line.split(": ")[1] for line in report.summaries] == ["qfi"]

    def test_cfi_sweep_summaries_name_the_point(self, tmp_path):
        cfg = parse_config(
            "command = cfi\nn_th = 0.1\nchi = 0, 0.4\ndrive = 0.5\nn_cut = 12\n"
            "t_end = 1\nn_samples = 3\nhomodyne_phis = 0\n"
        )
        report = run(cfg, out_dir=str(tmp_path))
        for chi in ("0", "0.4"):
            mine = [line for line in report.summaries if line.startswith(f"point_chi{chi}: ")]
            assert [line.split(": ")[1] for line in mine] == ["qfi", "cfi_hom_phi0pi", "cfi_het"]

    def test_auto_cutoff_certified_once(self, tmp_path, monkeypatch):
        calls = []
        certify = config.certify_cutoff

        def counting(points, leakage_tol, n_cut_max):
            calls.append(len(points))
            return certify(points, leakage_tol, n_cut_max)

        monkeypatch.setattr(config, "certify_cutoff", counting)
        text = FAST_THERMALIZE.replace("n_cut = 20", "n_cut = auto").replace(
            "n_th = 0.1", "n_th = 0.05, 0.1\nchi = 0.5\ndrive = 1\ndelta = -3.5"
        )
        report = run(parse_config(text), out_dir=str(tmp_path))
        assert calls == [2]
        cert = parse_config(text).cutoff_certificate
        assert report.n_cut_used == cert.n_cut
        rule = read_lines(tmp_path / "run_report.txt").splitlines()[5]
        decider = ("0.05", "0.1")[cert.point_index]
        assert rule.startswith(f"n_cut rule: auto, set by point_n_th{decider}: ")
        assert f"steady-state leakage {cert.leakage:.3e}" in rule

    def test_fixed_cutoff_report_rule(self, tmp_path):
        run(parse_config(FAST_THERMALIZE), out_dir=str(tmp_path))
        lines = read_lines(tmp_path / "run_report.txt").splitlines()
        assert lines[4:6] == ["n_cut used: 20", "n_cut rule: fixed"]

    def test_truncation_retry_starts_at_certified_cutoff(self, tmp_path, monkeypatch):
        tried = []
        propagate_ = cli.propagate

        def fail_first(rho0, params, grid, trunc, **kwargs):
            tried.append(trunc.n_cut)
            if len(tried) == 1:
                raise TruncationError("transient leakage")
            return propagate_(rho0, params, grid, trunc, **kwargs)

        monkeypatch.setattr(cli, "propagate", fail_first)
        cfg = parse_config(FAST_THERMALIZE.replace("n_cut = 20", "n_cut = auto"))
        report = run(cfg, out_dir=str(tmp_path))
        certified = cfg.trunc().n_cut
        assert tried == [certified, 2 * certified]
        assert report.n_cut_used == 2 * certified

    def test_truncation_auto_doubling(self, tmp_path):
        # resonant drive reaches |alpha|^2 = 1, far too much for four levels
        cfg = parse_config(
            "command = thermalize\nn_th = 0.0\ndrive = 1.0\ndelta = 0.0\nn_cut = 4\n"
            "t_end = 3\nn_samples = 4\n"
        )
        report = run(cfg, out_dir=str(tmp_path))
        assert report.n_cut_used >= 16

    def test_leakage_retry_reports_no_warnings(self, tmp_path):
        # the first cutoff fails on leakage part way through the trajectory,
        # whose later samples are still computed; none of that may warn
        cfg = parse_config(
            "command = thermalize\nn_th = 0.0\ndrive = 1.0\ndelta = 0.0\nn_cut = 4\n"
            "t_end = 3\nn_samples = 31\n"
        )
        report = run(cfg, out_dir=str(tmp_path))
        assert report.n_cut_used > 4
        assert report.warnings == []
        assert "warnings:\n  (none)\n" in read_lines(tmp_path / "run_report.txt")

    def test_truncation_retry_stops_at_dense_limit(self, tmp_path, monkeypatch):
        # a cutoff that is never enough: the retry grows n_cut 30 -> 48 and
        # gives up there, where the dense sample map's n_cut^6 cost caps
        # automatic growth; a larger n_cut must be set explicitly
        tried = []

        def never_enough(rho0, params, grid, trunc, **kwargs):
            tried.append(trunc.n_cut)
            assert trunc.n_cut <= 48
            raise TruncationError(f"too few levels at n_cut = {trunc.n_cut}")

        monkeypatch.setattr(cli, "propagate", never_enough)
        cfg = parse_config("command = thermalize\nn_th = 0.1\nn_cut = 30\nt_end = 1\nn_samples = 3\n")
        with pytest.raises(TruncationError, match="last cutoff tried: n_cut = 48.*set a larger n_cut"):
            run(cfg, out_dir=str(tmp_path))
        assert tried == [30, 48]

    def test_truncated_steady_state_retries_to_the_exact_purity(self, tmp_path, monkeypatch):
        # resonant drive 5 on the linear cavity: a displaced thermal state of
        # purity 1 / (1 + 2 n_th); 30 and 60 levels leak beyond leakage_tol
        tried = []
        steady_state_ = cli.steady_state

        def spy(params, trunc, **kwargs):
            tried.append(trunc.n_cut)
            return steady_state_(params, trunc, **kwargs)

        monkeypatch.setattr(cli, "steady_state", spy)
        cfg = parse_config("command = purity-sweep\nn_th = 0.05\ndelta = 0\ndrive = 5\nn_cut = 30\n")
        report = run(cfg, out_dir=str(tmp_path))
        assert tried == [30, 60, 120]
        assert report.n_cut_used == 120
        assert 0.0 < report.leakage_max <= 1e-8
        rows = [ln for ln in read_lines(tmp_path / "purity_sweep.csv").splitlines() if not ln.startswith("#")]
        assert float(rows[1].split(",")[1]) == pytest.approx(1.0 / 1.1, abs=1e-6)

    def test_steady_state_retry_stops_at_its_size_cap(self, tmp_path):
        cfg = parse_config("command = purity-sweep\nn_th = 0.05\ndelta = 0\ndrive = 10\nn_cut = 30\n")
        with pytest.raises(TruncationError, match="last cutoff tried: n_cut = 120.*set a larger n_cut"):
            run(cfg, out_dir=str(tmp_path))

    def test_auto_certifies_a_table_point_past_the_propagating_cap(self, tmp_path):
        # the drive-5 point above under auto: the walk goes past 48 levels, as
        # far as the retry may, and reaches the exact purity 1 / (1 + 2 n_th)
        cfg = parse_config("command = purity-sweep\nn_th = 0.05\ndelta = 0\ndrive = 5\nn_cut = auto\n")
        report = run(cfg, out_dir=str(tmp_path))
        assert 48 < cfg.cutoff_certificate.n_cut == report.n_cut_used <= 120
        rows = [ln for ln in read_lines(tmp_path / "purity_sweep.csv").splitlines() if not ln.startswith("#")]
        assert float(rows[1].split(",")[1]) == pytest.approx(1.0 / 1.1, abs=1e-8)

    def test_uncertifiable_table_point_names_the_table_cap(self, tmp_path):
        cfg = parse_config("command = purity-sweep\nn_th = 0.05\ndelta = 0\ndrive = 10\nn_cut = auto\n")
        with pytest.raises(TruncationError, match=r"no cutoff up to n_cut = 120 certifies sweep point 0"):
            run(cfg, out_dir=str(tmp_path))
        assert not os.listdir(tmp_path)

    def test_thermalize_summary_names_search_max(self, tmp_path):
        cfg = parse_config(FAST_THERMALIZE)
        report = run(cfg, out_dir=str(tmp_path))
        trunc = Truncation(cfg.n_cut)
        traj = propagate(vacuum_state(trunc), cfg.params_at(cfg.sweep_points()[0]), cfg.grid(), trunc)
        auto = default_search_max(traj.entries)
        evaluations = thermalization_trace(traj, auto).evaluations.mean()
        assert report.summaries[0].endswith(
            f", search_max = {auto:.6g}, fidelity evaluations per state = {evaluations:.1f}"
        )
        assert report.summaries[0] in read_lines(tmp_path / "run_report.txt")

    def test_purity_sweep_csv(self, tmp_path):
        cfg = parse_config(
            "command = purity-sweep\nn_th = 0.05\nchi = 0.2, 0.4\ndrive = 1.0\n"
            "delta = -3.5\nn_cut = 20\n"
        )
        run(cfg, out_dir=str(tmp_path))
        states = [steady_state(cfg.params_at(point), cfg.trunc()) for point in cfg.sweep_points()]
        got = printed_columns(tmp_path / "purity_sweep.csv")
        assert list(got) == ["chi", "purity", "photon_number"]
        assert got == {
            "chi": printed([0.2, 0.4]),
            "purity": printed([purity(ss) for ss in states]),
            "photon_number": printed([mean_photon_number(ss) for ss in states]),
        }

    def test_spectrum_csv(self, tmp_path):
        cfg = parse_config(
            "command = spectrum\nn_th = 0\nchi = 0.5\ndrive = 0\ndelta = -3.5\n"
            "n_cut = 80\n"
        )
        run(cfg, out_dir=str(tmp_path))
        rows = [ln for ln in read_lines(tmp_path / "spectrum.csv").splitlines() if not ln.startswith("#")]
        assert rows[0] == "n_th,var_gap"
        assert float(rows[1].split(",")[1]) == pytest.approx(38.5, abs=1e-9)

    def test_spectrum_computes_on_its_minimum_cutoff(self, tmp_path):
        # the gap window needs SPECTRUM_MIN_NCUT = 72 levels, so n_cut 30
        # computes on 72 and gives the numbers of asking for 72
        text = "command = spectrum\nn_th = 0\nchi = 0.5\ndrive = 0\ndelta = -3.5\nn_cut = {}\n"
        small, exact = (parse_config(text.format(n)) for n in (30, 72))
        assert small.trunc() == exact.trunc() == Truncation(72)
        raised, reference = (cli._run_point((cfg, 0)) for cfg in (small, exact))
        assert raised.n_cut_used == 72
        assert raised.columns["var_gap"].tobytes() == reference.columns["var_gap"].tobytes()
        assert run(small, out_dir=str(tmp_path)).n_cut_used == 72
        assert "n_cut used: 72" in read_lines(tmp_path / "run_report.txt").splitlines()

    def test_only_one_job(self, tmp_path, capsys):
        cfg = parse_config(FAST_THERMALIZE)
        with pytest.raises(ConfigError, match="jobs must be None or 1") as info:
            run(cfg, out_dir=str(tmp_path), jobs=2)
        assert info.value.field == "jobs"
        assert not os.listdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["thermalize", "--preset", "fig2a", "--out", str(tmp_path), "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_failing_sweep_point_identified_and_outputs_removed(self, tmp_path, monkeypatch):
        # the second point's propagation fails after the first point has run;
        # the error must name the sweep point it happened at, and no CSV of
        # the first point may be written
        propagate_ = cli.propagate

        def blow_up_at_n_th_2(rho0, params, grid, trunc, **kwargs):
            if params.n_th == 2.0:
                raise NumericalFailureError("non-finite state")
            return propagate_(rho0, params, grid, trunc, **kwargs)

        monkeypatch.setattr(cli, "propagate", blow_up_at_n_th_2)
        cfg = parse_config("command = thermalize\nn_th = 0.05, 2.0\nn_cut = 20\nt_end = 2\nn_samples = 5\n")
        with pytest.raises(NumericalFailureError, match=r"sweep point 1 \(.*n_th = 2\): non-finite state"):
            run(cfg, out_dir=str(tmp_path))
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".csv")]

    @pytest.mark.parametrize("failing", ["thermalize_n_th0.1.csv", "run_report.txt"])
    def test_write_failing_part_way_leaves_no_file(self, tmp_path, monkeypatch, failing):
        # the disk fills after 10 bytes of one file: that file goes with
        # every file written before it
        def open_(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            if os.path.basename(path) == failing:
                write = fh.write

                def full_disk(text):
                    write(text[:10])
                    fh.flush()
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

                fh.write = full_disk
            return fh

        monkeypatch.setattr(cli, "open", open_, raising=False)
        cfg = parse_config(FAST_THERMALIZE.replace("n_th = 0.1", "n_th = 0.05, 0.1"))
        with pytest.raises(OSError) as raised:
            run(cfg, out_dir=str(tmp_path))
        assert raised.value.errno == errno.ENOSPC
        assert not os.listdir(tmp_path)

    @pytest.mark.filterwarnings("default::kerr_thermo.errors.BracketBoundaryWarning")
    def test_boundary_warning_lands_in_report_once(self, tmp_path, monkeypatch):
        # a too-small effective-temperature bracket trips the same boundary
        # warning at both sweep points; the report keeps it exactly once
        monkeypatch.setattr(cli, "default_search_max", lambda entries: 0.05)
        cfg = parse_config("command = thermalize\nn_th = 0.4, 0.5\nn_cut = 20\nt_end = 4\nn_samples = 6\n")
        report = run(cfg, out_dir=str(tmp_path))
        boundary = [w for w in report.warnings if "search_max" in w]
        assert boundary == ["effective-temperature maximizer hit search_max = 0.05; enlarge the bracket"]
        assert boundary[0] in read_lines(tmp_path / "run_report.txt")

    def test_point_warning_raised_as_error_fails_the_run(self, tmp_path, monkeypatch):
        # the run keeps the caller's filters: under an error filter the same
        # boundary warning raises out of the first point and no file is written
        monkeypatch.setattr(cli, "default_search_max", lambda entries: 0.05)
        cfg = parse_config("command = thermalize\nn_th = 0.4, 0.5\nn_cut = 20\nt_end = 4\nn_samples = 6\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BracketBoundaryWarning, match="search_max = 0.05") as raised:
                run(cfg, out_dir=str(tmp_path))
        assert str(raised.value).startswith("sweep point 0 (delta = 0, chi = 0, drive = 0, n_th = 0.4): ")
        assert not os.listdir(tmp_path)

    @pytest.mark.filterwarnings("default::UserWarning")
    def test_certificate_warning_lands_in_report(self, tmp_path, monkeypatch):
        text = warn_while_certifying(monkeypatch)
        report = run(parse_config(text), out_dir=str(tmp_path))
        assert report.warnings == ["certificate probe"]
        assert "warnings:\n  - certificate probe\n" in read_lines(tmp_path / "run_report.txt")

    def test_certificate_warning_raised_as_error_exits_one(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "s.cfg").write_text(warn_while_certifying(monkeypatch))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["thermalize", "--config", str(tmp_path / "s.cfg"), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "kerr-thermo: error: certificate probe\n"
        assert not os.listdir(out)

    def test_input_config_file_not_mutated(self, tmp_path):
        cfgfile = tmp_path / "scenario.cfg"
        cfgfile.write_text(FAST_THERMALIZE)
        before = cfgfile.read_text()
        rc = main(["thermalize", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 0
        assert cfgfile.read_text() == before


needs_openblas = pytest.mark.skipif(
    cli._openblas() is None, reason="numpy's BLAS exports no OpenBLAS thread control"
)


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS set to 2 threads for the test, its own count restored after."""
    blas = cli._openblas()
    old = blas.threads()
    blas.set_threads(2)
    yield blas
    blas.set_threads(old)


def recording_threads(monkeypatch, blas, name):
    """Record the BLAS thread count at each call of ``cli.<name>``."""
    seen = []
    fn = getattr(cli, name)

    def recorded(*args, **kwargs):
        seen.append(blas.threads())
        return fn(*args, **kwargs)

    monkeypatch.setattr(cli, name, recorded)
    return seen


SMALL_THERMALIZE = FAST_THERMALIZE.replace("n_cut = 20", "n_cut = 14")


@needs_openblas
class TestBlasThreads:
    def test_thermalize_computes_on_one_thread(self, tmp_path, monkeypatch, two_blas_threads):
        seen = {
            name: recording_threads(monkeypatch, two_blas_threads, name)
            for name in ("propagate", "thermalization_trace")
        }
        run(parse_config(SMALL_THERMALIZE), out_dir=str(tmp_path))
        assert seen == {"propagate": [1], "thermalization_trace": [1]}
        assert two_blas_threads.threads() == 2
        lines = read_lines(tmp_path / "run_report.txt").splitlines()
        assert lines[4:6] == ["n_cut used: 14", "n_cut rule: fixed"]
        assert lines[8] == f"blas: {two_blas_threads.name}, compute threads: 1"

    def test_thermalize_above_the_threshold_keeps_the_count(self, tmp_path, monkeypatch, two_blas_threads):
        assert cli._ONE_THREAD_NCUT_MAX < 20
        seen = recording_threads(monkeypatch, two_blas_threads, "propagate")
        run(parse_config(FAST_THERMALIZE), out_dir=str(tmp_path))
        assert seen == [2]
        lines = read_lines(tmp_path / "run_report.txt").splitlines()
        assert lines[8] == f"blas: {two_blas_threads.name}, compute threads: 2"

    def test_retry_keeps_the_runs_count(self, tmp_path, monkeypatch, two_blas_threads):
        # n_cut 10 fails and the retry runs at 20, above the one-thread
        # cutoff, on the one count the run chose from its cutoff of 10
        seen = []
        propagate_ = cli.propagate

        def fail_first(rho0, params, grid, trunc, **kwargs):
            seen.append((trunc.n_cut, two_blas_threads.threads()))
            if len(seen) == 1:
                raise TruncationError("transient leakage")
            return propagate_(rho0, params, grid, trunc, **kwargs)

        monkeypatch.setattr(cli, "propagate", fail_first)
        run(parse_config(FAST_THERMALIZE.replace("n_cut = 20", "n_cut = 10")), out_dir=str(tmp_path))
        assert seen == [(10, 1), (20, 1)]
        lines = read_lines(tmp_path / "run_report.txt").splitlines()
        assert lines[4] == "n_cut used: 20"
        assert lines[8] == f"blas: {two_blas_threads.name}, compute threads: 1"

    def test_count_restored_when_a_point_raises(self, tmp_path, monkeypatch, two_blas_threads):
        propagate_ = cli.propagate
        seen = []

        def blow_up_at_n_th_2(rho0, params, grid, trunc, **kwargs):
            seen.append(two_blas_threads.threads())
            if params.n_th == 2.0:
                raise NumericalFailureError("non-finite state")
            return propagate_(rho0, params, grid, trunc, **kwargs)

        monkeypatch.setattr(cli, "propagate", blow_up_at_n_th_2)
        cfg = parse_config("command = thermalize\nn_th = 0.05, 2.0\nn_cut = 14\nt_end = 2\nn_samples = 5\n")
        with pytest.raises(NumericalFailureError):
            run(cfg, out_dir=str(tmp_path))
        assert seen == [1, 1]
        assert two_blas_threads.threads() == 2

    def test_cfi_computes_on_one_thread(self, tmp_path, monkeypatch, two_blas_threads):
        # the one-thread rule follows the cutoff alone, whatever the command
        seen = {
            name: recording_threads(monkeypatch, two_blas_threads, name)
            for name in ("tangent_trajectories", "qfi_series", "cfi_series")
        }
        run(parse_config(SMALL_CFI), out_dir=str(tmp_path))
        assert seen == {"tangent_trajectories": [1], "qfi_series": [1], "cfi_series": [1, 1]}
        assert two_blas_threads.threads() == 2
        report = read_lines(tmp_path / "run_report.txt").splitlines()
        assert report[8] == f"blas: {two_blas_threads.name}, compute threads: 1"

    def test_cfi_keeps_the_count(self, tmp_path, monkeypatch, two_blas_threads):
        # above the one-thread cutoff a cfi point computes on the process's count
        assert cli._ONE_THREAD_NCUT_MAX < 18
        seen = recording_threads(monkeypatch, two_blas_threads, "tangent_trajectories")
        run(parse_config(SMALL_CFI.replace("n_cut = 12", "n_cut = 18")), out_dir=str(tmp_path))
        assert seen == [2]
        assert two_blas_threads.threads() == 2
        report = read_lines(tmp_path / "run_report.txt").splitlines()
        assert report[8] == f"blas: {two_blas_threads.name}, compute threads: 2"


    def test_purity_sweep_computes_on_one_thread(self, tmp_path, monkeypatch, two_blas_threads):
        # a table command stays on one thread above the propagating commands' cutoff
        assert cli._ONE_THREAD_NCUT_MAX < 30
        seen = recording_threads(monkeypatch, two_blas_threads, "steady_state")
        run(parse_config(PURITY_SWEEP_30), out_dir=str(tmp_path))
        assert seen == [1, 1]
        assert two_blas_threads.threads() == 2
        report = read_lines(tmp_path / "run_report.txt").splitlines()
        assert report[8] == f"blas: {two_blas_threads.name}, compute threads: 1"

    def test_certificate_computes_on_one_thread(self, tmp_path, monkeypatch, two_blas_threads):
        seen = []
        certify = config.certify_cutoff

        def recorded(points, leakage_tol, n_cut_max):
            seen.append(two_blas_threads.threads())
            return certify(points, leakage_tol, n_cut_max)

        monkeypatch.setattr(config, "certify_cutoff", recorded)
        run(parse_config(FAST_THERMALIZE.replace("n_cut = 20", "n_cut = auto")), out_dir=str(tmp_path))
        assert seen == [1]
        assert two_blas_threads.threads() == 2

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task to count threads")
    def test_one_thread_try_runs_without_the_pool_worker(self, tmp_path, monkeypatch, two_blas_threads):
        # a threaded call gives the two-thread pool a worker; a one-thread run
        # computes with it shut down, a run above the cutoff has it back, and
        # no worker outlives a run until the next threaded call starts one
        if two_blas_threads._shutdown is None:
            pytest.skip("numpy's OpenBLAS exports no blas_thread_shutdown_")

        def tasks():
            return len(os.listdir("/proc/self/task"))

        def threaded_call():
            np.ones((256, 256)) @ np.ones((256, 256))

        seen = []
        propagate_ = cli.propagate

        def counting(*args, **kwargs):
            seen.append(tasks())
            return propagate_(*args, **kwargs)

        monkeypatch.setattr(cli, "propagate", counting)
        threaded_call()
        before = tasks()
        run(parse_config(SMALL_THERMALIZE), out_dir=str(tmp_path / "small"))
        run(parse_config(FAST_THERMALIZE), out_dir=str(tmp_path / "large"))
        assert seen == [before - 1, before]
        assert (tasks(), two_blas_threads.threads()) == (before - 1, 2)
        threaded_call()
        assert tasks() == before


SMALL_CFI = (
    "command = cfi\nn_th = 0.1\nchi = 0.4\ndrive = 0.5\nn_cut = 12\n"
    "t_end = 1\nn_samples = 3\nhomodyne_phis = 0\n"
)

PURITY_SWEEP_30 = "command = purity-sweep\nn_th = 0.05\nchi = 0.2, 0.4\ndrive = 1.0\ndelta = -3.5\nn_cut = 30\n"


class FakeOpenBlas:
    """A library exporting OpenBLAS's thread control under ``prefix`` and ``suffix``.

    It records every count set.  With ``shutdown`` it also exports
    ``blas_thread_shutdown_``, which counts its calls.
    """

    def __init__(self, prefix, suffix, shutdown=False):
        self.count = 2
        self.sets = []
        self.shutdowns = 0

        def get_config():
            return b"OpenBLAS 0.3.0  fake"

        def set_threads(n):
            self.sets.append(n)
            self.count = n

        setattr(self, f"{prefix}openblas_get_num_threads{suffix}", lambda: self.count)
        setattr(self, f"{prefix}openblas_set_num_threads{suffix}", set_threads)
        setattr(self, f"{prefix}openblas_get_config{suffix}", get_config)
        if shutdown:
            def shut_down():
                self.shutdowns += 1
                return 0

            self.blas_thread_shutdown_ = shut_down


@pytest.mark.parametrize("prefix, suffix", [("scipy_", "64_"), ("", "64_"), ("", ""), ("scipy_", "")])
def test_openblas_found_under_every_export_name(prefix, suffix):
    # numpy 2 wheels, numpy 1.x wheels, a system OpenBLAS, an LP64 scipy-openblas
    lib = FakeOpenBlas(prefix, suffix)
    blas = cli._find_openblas(lib)
    assert blas.name == "OpenBLAS 0.3.0 fake"
    blas.set_threads(1)
    assert (blas.threads(), lib.count) == (1, 1)


def test_no_openblas_thread_control_found():
    assert cli._find_openblas(object()) is None


def fake_openblas(monkeypatch, shutdown):
    """Make ``cli._openblas`` find a FakeOpenBlas; returns the fake library."""
    lib = FakeOpenBlas("scipy_", "64_", shutdown)
    blas = cli._find_openblas(lib)
    monkeypatch.setattr(cli, "_openblas", lambda: blas)
    return lib


@pytest.mark.parametrize("text, compute, counts", [
    # one shutdown on entering the run and one on leaving it, however many points it has
    pytest.param(SMALL_THERMALIZE.replace("n_th = 0.1", "n_th = 0.05, 0.1"), "propagate", [1, 1], id="n14"),
    # a run above the one-thread cutoff gets the caller's count once, after the certificate
    pytest.param(FAST_THERMALIZE.replace("n_th = 0.1", "n_th = 0.05, 0.1"), "propagate", [2, 2], id="n20"),
    pytest.param(PURITY_SWEEP_30, "steady_state", [1, 1], id="purity-n30"),
])
@pytest.mark.parametrize("shutdown", [True, False], ids=["shutdown", "no-shutdown"])
def test_pool_shut_down_on_entering_and_leaving_the_run(
    tmp_path, monkeypatch, text, compute, counts, shutdown
):
    # without blas_thread_shutdown_ the run sets the same counts and shuts
    # nothing down; each run sets one thread on entry and the caller's two
    # once, after the certificate or on leaving, whatever its cutoff
    lib = fake_openblas(monkeypatch, shutdown)
    seen = recording_threads(monkeypatch, cli._openblas(), compute)
    report = run(parse_config(text), out_dir=str(tmp_path))
    assert (lib.shutdowns, seen, lib.sets, lib.count) == (2 if shutdown else 0, counts, [1, 2], 2)
    assert report.blas == f"OpenBLAS 0.3.0 fake, compute threads: {counts[0]}"


def test_one_thread_caller_keeps_the_pool_shut_down(tmp_path, monkeypatch):
    # any set_num_threads call restarts a shut-down pool, so a caller already
    # on one thread gets its count back without one
    lib = fake_openblas(monkeypatch, shutdown=True)
    lib.count = 1
    run(parse_config(SMALL_THERMALIZE), out_dir=str(tmp_path))
    assert (lib.sets, lib.shutdowns, lib.count) == ([], 2, 1)


def test_run_without_blas_thread_control(tmp_path, monkeypatch):
    # a BLAS without the OpenBLAS symbols: the run completes and says so
    monkeypatch.setattr(cli, "_openblas", lambda: None)
    report = run(parse_config(SMALL_THERMALIZE), out_dir=str(tmp_path))
    assert report.blas == "not identified, thread count left as it is"
    assert read_lines(tmp_path / "run_report.txt").splitlines()[8] == f"blas: {report.blas}"
    assert (tmp_path / "thermalize.csv").exists()


class TestMainEntry:
    def test_exit_zero_and_files(self, tmp_path, capsys):
        cfgfile = tmp_path / "scenario.cfg"
        cfgfile.write_text(FAST_THERMALIZE)
        rc = main(["thermalize", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "thermalize.csv").exists()

    def test_message_names_the_config_output_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.cfg").write_text(FAST_THERMALIZE + "output_path = sub/dir\n")
        assert main(["thermalize", "--config", "s.cfg"]) == 0
        assert (tmp_path / "sub" / "dir" / "thermalize.csv").exists()
        assert "wrote 1 file(s) to sub/dir in " in capsys.readouterr().out

    def test_error_exit_code_and_message(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("command = qfi\n")  # n_th missing
        rc = main(["qfi", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 1
        assert "n_th" in capsys.readouterr().err

    def test_unknown_figure(self, tmp_path, capsys):
        rc = main(["reproduce-figure", "--preset", "fig99", "--out", str(tmp_path)])
        assert rc == 1
        assert "unknown figure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            pytest.param(["thermalize"], "n_th = 0.1\n = 3\n", "line 2: empty key", id="empty-key"),
            pytest.param(
                ["thermalize"], "n_th = 0.1\nn_th = 0.2\n", "line 2: duplicate key 'n_th'", id="duplicate-key"
            ),
            pytest.param(["thermalize", "--preset", "fig99"], None, "unknown preset 'fig99'", id="unknown-preset"),
            pytest.param(
                ["thermalize", "--preset", "fig2a", "--override", "n_th=,"], None,
                "n_th requires at least one value", id="empty-list",
            ),
            pytest.param(
                ["thermalize", "--preset", "fig2a", "--override", "n_samples=2.5"], None,
                "value '2.5' for n_samples is not an integer", id="non-integer",
            ),
            pytest.param(
                ["thermalize", "--preset", "fig2a", "--override", "n_th"], None,
                "override 'n_th' is not of the form key=value", id="override-without-equals",
            ),
            pytest.param(
                ["reproduce-figure"], None, "reproduce-figure requires --preset <figure name>",
                id="figure-without-preset",
            ),
            pytest.param(
                ["reproduce-figure", "--preset", "fig2a"], "n_th = 0.1\n",
                "reproduce-figure takes no --config or --override", id="figure-with-config",
            ),
            pytest.param(
                ["reproduce-figure", "--preset", "fig2a", "--override", "n_th=0.2"], None,
                "reproduce-figure takes no --config or --override", id="figure-with-override",
            ),
        ],
    )
    def test_input_error_exits_one(self, tmp_path, capsys, argv, text, message):
        if text is not None:
            (tmp_path / "scenario.cfg").write_text(text)
            argv = argv + ["--config", str(tmp_path / "scenario.cfg")]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"kerr-thermo: error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_override_flag(self, tmp_path):
        cfgfile = tmp_path / "scenario.cfg"
        cfgfile.write_text(FAST_THERMALIZE)
        rc = main(
            [
                "thermalize",
                "--config",
                str(cfgfile),
                "--out",
                str(tmp_path),
                "--override",
                "n_samples=3",
            ]
        )
        assert rc == 0
        rows = [
            ln
            for ln in read_lines(tmp_path / "thermalize.csv").splitlines()
            if not ln.startswith("#")
        ]
        assert len(rows) == 4  # header + 3 samples

    def test_commands_run_with_warnings_as_errors(self, tmp_path):
        # The runner reaches numpy's private np.linalg._umath_linalg for
        # OpenBLAS thread control, so a deprecation there must fail here
        # before it fails a run: one process under -X dev -W error runs a
        # small qfi, cfi, thermalize and purity-sweep.  The run records
        # warnings under the interpreter's filters, so -W error raises any
        # warning a run meets and fails it; each report must list none.
        runs = [
            ["qfi", "--preset", "fig3a", "--override", "chi=0.3"],
            ["cfi", "--preset", "fig8a", "--override", "n_samples=21"],
            ["thermalize", "--preset", "fig2a", "--override", "n_samples=21"],
            ["purity-sweep", "--preset", "fig7a", "--override", "chi=0.1,0.2"],
        ]
        runs = [argv + ["--out", str(tmp_path / argv[0])] for argv in runs]
        script = f"import sys\nfrom kerr_thermo.cli import main\nsys.exit(max(main(argv) for argv in {runs!r}))\n"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        for argv in runs:
            assert "warnings:\n  (none)\n" in read_lines(tmp_path / argv[0] / "run_report.txt"), argv[0]


class TestRunOracles:
    def test_qfi_final_row_thermal_value(self, tmp_path):
        cfg = parse_config(
            "command = qfi\nn_th = 0.05\nn_cut = 30\nt_end = 20\nn_samples = 5\n"
        )
        run(cfg, out_dir=str(tmp_path))
        rows = [ln for ln in read_lines(tmp_path / "qfi.csv").splitlines() if not ln.startswith("#")]
        assert rows[0] == "gamma_t,qfi"
        final_qfi = float(rows[-1].split(",")[1])
        assert final_qfi == pytest.approx(19.0476, abs=2e-3)


def printed_columns(path):
    """A CSV's columns by name, each value as the file prints it."""
    lines = [ln for ln in read_lines(path).splitlines() if not ln.startswith("#")]
    names = lines[0].split(",")
    return {name: [row.split(",")[i] for row in lines[1:]] for i, name in enumerate(names)}


def printed(values):
    return [f"{x:.11e}" for x in values]


class TestRunnerAddsNoDefaults:
    """Every CSV column is what the library's own calls give at
    ``config.trunc()``, with no argument the runner chooses for itself."""

    SHORT_GRID = ("t_end=3", "n_samples=7")

    def test_cfi_columns_are_the_library_series(self, tmp_path):
        cfg = resolve_config(preset="fig8a", overrides=self.SHORT_GRID)
        run(cfg, out_dir=str(tmp_path))
        params = cfg.params_at(cfg.sweep_points()[0])
        grid, trunc = cfg.grid(), cfg.trunc()
        pair = tangent_trajectories(params, grid, trunc)
        expected = {"gamma_t": pair.times, "qfi": qfi_series(pair).values}
        povms = {homodyne_label(phi): homodyne_povm(phi, trunc) for phi in cfg.homodyne_phis}
        povms["cfi_het"] = heterodyne_povm(trunc, mean_photon=mean_photon_number(pair.central.final))
        for name, povm in povms.items():
            expected[name] = cfi_series(pair, povm).values
        got = printed_columns(tmp_path / "cfi.csv")
        assert list(got) == ["gamma_t", "qfi", "cfi_hom_phi0.9pi", "cfi_het"]
        assert got == {name: printed(values) for name, values in expected.items()}

    def test_thermalize_columns_are_the_library_trace(self, tmp_path):
        cfg = resolve_config(preset="fig2a", overrides=self.SHORT_GRID)
        run(cfg, out_dir=str(tmp_path))
        trunc = cfg.trunc()
        traj = propagate(vacuum_state(trunc), cfg.params_at(cfg.sweep_points()[0]), cfg.grid(), trunc)
        trace = thermalization_trace(traj)
        expected = {"gamma_t": trace.times, "n_eff": trace.n_eff, "fidelity_at_opt": trace.fidelity_at_opt}
        assert printed_columns(tmp_path / "thermalize.csv") == {
            name: printed(values) for name, values in expected.items()
        }


# Each preset's cutoff rule, its cutoff (certified under auto) and its BLAS
# compute threads when the caller runs two: fig5c alone, at 18 levels, runs
# above the one-thread cutoff and computes on the caller's count.
PRESET_RUNS = {
    "fig2a": ("auto", 14, 1),
    "fig2b": ("auto", 14, 1),
    "fig2c": ("auto", 12, 1),
    "fig2d": ("auto", 12, 1),
    "fig3a": ("auto", 14, 1),
    "fig3b": ("auto", 16, 1),
    "fig3c": ("auto", 16, 1),
    "fig4": ("fixed", 72, 1),
    "fig5a": ("auto", 16, 1),
    "fig5b": ("auto", 16, 1),
    "fig5c": ("auto", 18, 2),
    "fig6": ("fixed", 72, 1),
    "fig7a": ("fixed", 30, 1),
    "fig7b": ("fixed", 30, 1),
    "fig8a": ("auto", 12, 1),
    "fig8b": ("auto", 14, 1),
    "fig8c": ("auto", 16, 1),
}


class TestReproduceFigure:
    def test_every_preset_passes_its_checks(self, tmp_path, request):
        # all 17 presets in one process: every sidecar check passes, each run
        # reports the cutoff and the thread count the table holds, and every
        # certificate and CSV column matches the committed reference
        # (tests/figure_reference.py states each column class's tolerance)
        blas = cli._openblas()
        if blas is not None:
            request.getfixturevalue("two_blas_threads")
        assert list(PRESET_RUNS) == list(FIGURE_NAMES)
        checks, records = [], {}
        for name, (rule, n_cut, threads) in PRESET_RUNS.items():
            report, records[name] = figure_reference.reproduce(name, tmp_path / name)
            sidecar = read_lines(tmp_path / name / f"{name}_params.txt").splitlines()
            checks += [line.strip() for line in sidecar if line.startswith("  [")]
            expected_blas = (
                f"{blas.name}, compute threads: {threads}" if blas else "not identified, thread count left as it is"
            )
            got = (report.n_cut_rule.split(",")[0], report.n_cut_used, report.blas)
            assert got == (rule, n_cut, expected_blas), name
        assert len(checks) == 24
        assert all(check.startswith("[PASS]") for check in checks), checks
        moves = figure_reference.column_moves(figure_reference.load_reference(), records)
        print("largest move per column, relative to its largest magnitude:")
        print(figure_reference.render_moves(moves))
        assert figure_reference.out_of_tolerance(moves) == {}

    def test_fig2a_thermalize(self, tmp_path):
        report = reproduce_figure("fig2a", out_dir=str(tmp_path))
        rows = [ln for ln in read_lines(tmp_path / "fig2a.csv").splitlines() if not ln.startswith("#")]
        assert rows[0] == "gamma_t,n_eff,fidelity_at_opt"
        sidecar = read_lines(tmp_path / "fig2a_params.txt")
        assert "[FAIL]" not in sidecar
        assert report.outputs == ["fig2a.csv", "fig2a_params.txt"]

    def test_fig2a_writes_only_its_own_files(self, tmp_path):
        # a CSV left by an earlier ``run`` in the same directory is neither
        # overwritten nor removed
        (tmp_path / "thermalize.csv").write_text("earlier output\n")
        reproduce_figure("fig2a", out_dir=str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == [
            "fig2a.csv",
            "fig2a_params.txt",
            "run_report.txt",
            "thermalize.csv",
        ]
        assert read_lines(tmp_path / "thermalize.csv") == "earlier output\n"

    def test_fig4_spectrum(self, tmp_path):
        report = reproduce_figure("fig4", out_dir=str(tmp_path))
        assert "fig4.csv" in report.outputs and "fig4_params.txt" in report.outputs
        sidecar = read_lines(tmp_path / "fig4_params.txt")
        assert "(inferred)" in sidecar
        assert "[PASS]" in sidecar
        rows = [ln for ln in read_lines(tmp_path / "fig4.csv").splitlines() if not ln.startswith("#")]
        assert rows[0] == "chi,var_gap"

    def test_fig7a_purity(self, tmp_path):
        report = reproduce_figure("fig7a", out_dir=str(tmp_path))
        rows = [ln for ln in read_lines(tmp_path / "fig7a.csv").splitlines() if not ln.startswith("#")]
        assert rows[0] == "chi,purity,photon_number"
        purities = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(a > b for a, b in zip(purities, purities[1:]))
