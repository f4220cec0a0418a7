import os
import re
import subprocess
import sys

import numpy as np
import pytest

from kerr_thermo import Truncation, default_search_max, propagate, vacuum_state
from kerr_thermo import cli, config
from kerr_thermo.cli import main, reproduce_figure, run
from kerr_thermo.config import parse_config, resolve_config
from kerr_thermo.errors import ConfigError, TruncationError
from kerr_thermo.presets import FIGURE_NAMES, PRESETS


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

    def test_cfi_requires_a_measurement(self):
        with pytest.raises(ConfigError, match="homodyne"):
            parse_config("command = cfi\nn_th = 0.1\n")

    def test_override_precedence(self):
        cfg = resolve_config(file_text="command = qfi\nn_th = 0.1\nn_cut = 12\n",
                             overrides=("n_cut=24",))
        assert cfg.n_cut == 24

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
            ("integrator_step", "-1"),
            ("integrator_step", "0"),
            ("integrator_step", "nan"),
            ("integrator_step", "inf"),
            ("integrator_step", "1.0"),  # above the sample spacing 0.5
            ("rel_step", "nan"),
            ("search_max", "-1"),
            ("gamma", "0"),
            ("chi", "-1"),
            ("delta", "inf"),
            ("n_cut", "1"),
            ("leakage_tol", "2"),
            # deleted keys: any value is rejected as an unknown key named in the error
            ("t_start", "-inf"),
            ("heterodyne_radius", "-2"),
            ("heterodyne_step", "nan"),
        ],
    )
    def test_out_of_range_value_names_field(self, key, value):
        with pytest.raises(ConfigError, match=key) as info:
            parse_config(f"command = thermalize\nn_th = 0.1\nt_end = 1\nn_samples = 3\n{key} = {value}\n")
        assert info.value.field == key

    def test_removed_keys_are_unknown(self):
        # t_start only relabelled the time axis, abs_floor mattered only below
        # n_th ~ 1e-6, heterodyne_povm sizes its own grid from n_cut, and
        # rel_step and repetitions had one value in use
        for key in (
            "t_start", "abs_floor", "heterodyne_radius", "heterodyne_step", "rel_step", "repetitions"
        ):
            with pytest.raises(ConfigError, match="unknown key") as info:
                parse_config(f"command = thermalize\nn_th = 0.1\n{key} = 1\n")
            assert info.value.field == key
            with pytest.raises(ConfigError, match="unknown key") as info:
                resolve_config(preset="fig2a", overrides=(f"{key}=1",))
            assert info.value.field == key

    @pytest.mark.parametrize("command", ["qfi", "cfi"])
    @pytest.mark.parametrize("n_th", ["0", "1e-12"])
    def test_n_th_the_stencil_cannot_take_is_rejected_when_read(self, tmp_path, command, n_th):
        # 1e-12 is positive but leaves the stencil no room above abs_floor
        text = f"command = {command}\nn_th = {n_th}\nheterodyne = true\nn_cut = 8\nt_end = 1\nn_samples = 3\n"
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
        def refuse(points, leakage_tol):
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
        assert rows[0] == "gamma_t,qfi,cfi_hom_phi0.1000001pi,cfi_hom_phi0.1000002pi"
        hom = [line for line in report.summaries if line.startswith("point (single): cfi_hom")]
        assert len(hom) == 2
        for line in hom:
            assert "max skipped mass = " in line and "completeness defect = " in line

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

    def test_package_exports_every_library_name(self):
        import kerr_thermo
        from kerr_thermo import dynamics, errors, estimation, fidelity, fock, measurement, spectral

        modules = (errors, fock, dynamics, fidelity, estimation, measurement, spectral)
        exported = set(kerr_thermo.__all__) - {"__version__"}
        assert exported == {name for module in modules for name in module.__all__}

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
            "t_end = 1\nn_samples = 3\nhomodyne_phis = 0\nheterodyne = true\n"
        )
        report = run(cfg, out_dir=str(tmp_path))
        for chi in ("0", "0.4"):
            mine = [line for line in report.summaries if line.startswith(f"point_chi{chi}: ")]
            assert [line.split(": ")[1] for line in mine] == ["qfi", "cfi_hom_phi0pi", "cfi_het"]

    def test_auto_cutoff_certified_once(self, tmp_path, monkeypatch):
        calls = []
        certify = config.certify_cutoff

        def counting(points, leakage_tol):
            calls.append(len(points))
            return certify(points, leakage_tol)

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
        cfg = parse_config("command = steady-state\nn_th = 0.05\ndelta = 0\ndrive = 10\nn_cut = 30\n")
        with pytest.raises(TruncationError, match="last cutoff tried: n_cut = 120.*set a larger n_cut"):
            run(cfg, out_dir=str(tmp_path))

    def test_thermalize_summary_names_search_max(self, tmp_path):
        cfg = parse_config(FAST_THERMALIZE)
        report = run(cfg, out_dir=str(tmp_path))
        trunc = Truncation(cfg.n_cut)
        traj = propagate(vacuum_state(trunc), cfg.params_at(cfg.sweep_points()[0]), cfg.grid(), trunc)
        auto = default_search_max(traj.final, 0.1)
        assert report.summaries[0].endswith(f", search_max = {auto:.6g} (auto)")
        assert report.summaries[0] in read_lines(tmp_path / "run_report.txt")
        cfg = parse_config(FAST_THERMALIZE + "search_max = 0.75\n")
        report = run(cfg, out_dir=str(tmp_path))
        assert report.summaries[0].endswith(", search_max = 0.75")

    def test_purity_sweep_csv(self, tmp_path):
        cfg = parse_config(
            "command = purity-sweep\nn_th = 0.05\nchi = 0.2, 0.4\ndrive = 1.0\n"
            "delta = -3.5\nn_cut = 20\n"
        )
        run(cfg, out_dir=str(tmp_path))
        text = read_lines(tmp_path / "purity_sweep.csv")
        rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert rows[0] == "chi,purity"
        assert len(rows) == 3

    def test_spectrum_csv(self, tmp_path):
        cfg = parse_config(
            "command = spectrum\nn_th = 0\nchi = 0.5\ndrive = 0\ndelta = -3.5\n"
            "n_cut = 80\nwindow_lo = 30\nwindow_hi = 50\n"
        )
        run(cfg, out_dir=str(tmp_path))
        rows = [ln for ln in read_lines(tmp_path / "spectrum.csv").splitlines() if not ln.startswith("#")]
        assert rows[0] == "n_th,var_gap"
        assert float(rows[1].split(",")[1]) == pytest.approx(38.5, abs=1e-9)

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

    def test_failing_sweep_point_identified_and_outputs_removed(self, tmp_path):
        # a step far beyond the RK4 stability limit blows up the run, and the
        # error must name the sweep point it happened at
        from kerr_thermo.errors import KerrThermoError

        cfg = parse_config(
            "command = thermalize\nn_th = 0.05, 2.0\nn_cut = 30\nt_end = 2\n"
            "n_samples = 5\nintegrator_step = 0.5\n"
        )
        with pytest.raises(KerrThermoError, match=r"sweep point 0.*n_th = 0\.05"):
            run(cfg, out_dir=str(tmp_path))
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".csv")]

    def test_boundary_warning_lands_in_report_once(self, tmp_path):
        # a too-small effective-temperature bracket trips the boundary warning
        # at many samples; the report keeps it exactly once
        cfg = parse_config(
            "command = thermalize\nn_th = 0.5\nn_cut = 30\nt_end = 4\n"
            "n_samples = 6\nsearch_max = 0.05\n"
        )
        report = run(cfg, out_dir=str(tmp_path))
        boundary = [w for w in report.warnings if "search_max" in w]
        assert len(boundary) == 1
        assert boundary[0] in read_lines(tmp_path / "run_report.txt")

    def test_input_config_file_not_mutated(self, tmp_path):
        cfgfile = tmp_path / "scenario.cfg"
        cfgfile.write_text(FAST_THERMALIZE)
        before = cfgfile.read_text()
        rc = main(["thermalize", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 0
        assert cfgfile.read_text() == before


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


class TestReproduceFigure:
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
        assert rows[0] == "chi,purity"
        purities = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(a > b for a, b in zip(purities, purities[1:]))
