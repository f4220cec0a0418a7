import os

import numpy as np
import pytest

from kerr_thermo.cli import main, reproduce_figure, run
from kerr_thermo.config import parse_config, resolve_config
from kerr_thermo.errors import ConfigError
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


class TestRun:
    def test_thermalize_columns(self, tmp_path):
        cfg = parse_config(FAST_THERMALIZE)
        report = run(cfg, out_dir=str(tmp_path), jobs=1)
        text = read_lines(tmp_path / "thermalize.csv")
        assert text.splitlines()[0].startswith("# kerr-thermo")
        assert f"# config-hash: {cfg.config_hash()}" in text
        header = [ln for ln in text.splitlines() if not ln.startswith("#")][0]
        assert header == "gamma_t,n_eff,fidelity_at_opt"
        assert report.outputs == ["thermalize.csv"]
        assert (tmp_path / "run_report.txt").exists()

    def test_determinism_byte_identical(self, tmp_path):
        cfg = parse_config(FAST_THERMALIZE)
        run(cfg, out_dir=str(tmp_path / "a"), jobs=1)
        run(cfg, out_dir=str(tmp_path / "b"), jobs=1)
        assert read_lines(tmp_path / "a" / "thermalize.csv") == read_lines(
            tmp_path / "b" / "thermalize.csv"
        )

    def test_sweep_writes_one_csv_per_point(self, tmp_path):
        cfg = parse_config(FAST_QFI_SWEEP)
        report = run(cfg, out_dir=str(tmp_path), jobs=1)
        assert report.outputs == ["qfi_chi0.csv", "qfi_chi0.4.csv"]

    def test_close_sweep_values_write_distinct_files(self, tmp_path):
        text = FAST_THERMALIZE.replace("n_th = 0.1", "n_th = 0.1000001, 0.1000002")
        cfg = parse_config(text)
        report = run(cfg, out_dir=str(tmp_path), jobs=1)
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
        report = run(cfg, out_dir=str(tmp_path), jobs=1)
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

    def test_cfi_sweep_summaries_name_the_point(self, tmp_path):
        cfg = parse_config(
            "command = cfi\nn_th = 0.1\nchi = 0, 0.4\ndrive = 0.5\nn_cut = 12\n"
            "t_end = 1\nn_samples = 3\nhomodyne_phis = 0\nheterodyne = true\n"
        )
        report = run(cfg, out_dir=str(tmp_path), jobs=1)
        for chi in ("0", "0.4"):
            mine = [line for line in report.summaries if line.startswith(f"point_chi{chi}: ")]
            assert [line.split(": ")[1] for line in mine] == ["qfi", "cfi_hom_phi0pi", "cfi_het"]

    def test_worker_pool_matches_serial(self, tmp_path):
        cfg = parse_config(FAST_QFI_SWEEP)
        run(cfg, out_dir=str(tmp_path / "serial"), jobs=1)
        run(cfg, out_dir=str(tmp_path / "pool"), jobs=2)
        for name in ("qfi_chi0.csv", "qfi_chi0.4.csv"):
            assert read_lines(tmp_path / "serial" / name) == read_lines(tmp_path / "pool" / name)

    def test_truncation_auto_doubling(self, tmp_path):
        # resonant drive reaches |alpha|^2 = 1, far too much for four levels
        cfg = parse_config(
            "command = thermalize\nn_th = 0.0\ndrive = 1.0\ndelta = 0.0\nn_cut = 4\n"
            "t_end = 3\nn_samples = 4\n"
        )
        report = run(cfg, out_dir=str(tmp_path), jobs=1)
        assert report.n_cut_used >= 16

    def test_purity_sweep_csv(self, tmp_path):
        cfg = parse_config(
            "command = purity-sweep\nn_th = 0.05\nchi = 0.2, 0.4\ndrive = 1.0\n"
            "delta = -3.5\nn_cut = 20\n"
        )
        run(cfg, out_dir=str(tmp_path), jobs=1)
        text = read_lines(tmp_path / "purity_sweep.csv")
        rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert rows[0] == "chi,purity"
        assert len(rows) == 3

    def test_spectrum_csv(self, tmp_path):
        cfg = parse_config(
            "command = spectrum\nn_th = 0\nchi = 0.5\ndrive = 0\ndelta = -3.5\n"
            "n_cut = 80\nwindow_lo = 30\nwindow_hi = 50\n"
        )
        run(cfg, out_dir=str(tmp_path), jobs=1)
        rows = [ln for ln in read_lines(tmp_path / "spectrum.csv").splitlines() if not ln.startswith("#")]
        assert rows[0] == "n_th,var_gap"
        assert float(rows[1].split(",")[1]) == pytest.approx(38.5, abs=1e-9)

    def test_env_jobs_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KERR_THERMO_JOBS", "1")
        cfg = parse_config(FAST_THERMALIZE)
        report = run(cfg, out_dir=str(tmp_path))
        assert report.outputs

    def test_failing_sweep_point_identified_and_outputs_removed(self, tmp_path):
        # a step far beyond the RK4 stability limit blows up the run, and the
        # error must name the sweep point it happened at
        from kerr_thermo.errors import KerrThermoError

        cfg = parse_config(
            "command = thermalize\nn_th = 0.05, 2.0\nn_cut = 30\nt_end = 2\n"
            "n_samples = 5\nintegrator_step = 0.5\n"
        )
        with pytest.raises(KerrThermoError, match=r"sweep point 0.*n_th = 0\.05"):
            run(cfg, out_dir=str(tmp_path), jobs=1)
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".csv")]

    def test_boundary_warning_lands_in_report_once(self, tmp_path):
        # a too-small effective-temperature bracket trips the boundary warning
        # at many samples; the report keeps it exactly once
        cfg = parse_config(
            "command = thermalize\nn_th = 0.5\nn_cut = 30\nt_end = 4\n"
            "n_samples = 6\nsearch_max = 0.05\n"
        )
        report = run(cfg, out_dir=str(tmp_path), jobs=1)
        boundary = [w for w in report.warnings if "search_max" in w]
        assert len(boundary) == 1
        assert boundary[0] in read_lines(tmp_path / "run_report.txt")

    def test_input_config_file_not_mutated(self, tmp_path):
        cfgfile = tmp_path / "scenario.cfg"
        cfgfile.write_text(FAST_THERMALIZE)
        before = cfgfile.read_text()
        rc = main(["thermalize", "--config", str(cfgfile), "--out", str(tmp_path), "--jobs", "1"])
        assert rc == 0
        assert cfgfile.read_text() == before


class TestMainEntry:
    def test_exit_zero_and_files(self, tmp_path, capsys):
        cfgfile = tmp_path / "scenario.cfg"
        cfgfile.write_text(FAST_THERMALIZE)
        rc = main(["thermalize", "--config", str(cfgfile), "--out", str(tmp_path), "--jobs", "1"])
        assert rc == 0
        assert (tmp_path / "thermalize.csv").exists()

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
                "--jobs",
                "1",
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
        run(cfg, out_dir=str(tmp_path), jobs=1)
        rows = [ln for ln in read_lines(tmp_path / "qfi.csv").splitlines() if not ln.startswith("#")]
        assert rows[0] == "gamma_t,qfi"
        final_qfi = float(rows[-1].split(",")[1])
        assert final_qfi == pytest.approx(19.0476, abs=2e-3)


class TestReproduceFigure:
    def test_fig2a_thermalize(self, tmp_path):
        report = reproduce_figure("fig2a", out_dir=str(tmp_path), jobs=1)
        rows = [ln for ln in read_lines(tmp_path / "fig2a.csv").splitlines() if not ln.startswith("#")]
        assert rows[0] == "gamma_t,n_eff,fidelity_at_opt"
        sidecar = read_lines(tmp_path / "fig2a_params.txt")
        assert "[FAIL]" not in sidecar
        assert report.outputs == ["fig2a.csv", "fig2a_params.txt"]

    def test_fig2a_writes_only_its_own_files(self, tmp_path):
        # a CSV left by an earlier ``run`` in the same directory is neither
        # overwritten nor removed
        (tmp_path / "thermalize.csv").write_text("earlier output\n")
        reproduce_figure("fig2a", out_dir=str(tmp_path), jobs=1)
        assert sorted(os.listdir(tmp_path)) == [
            "fig2a.csv",
            "fig2a_params.txt",
            "run_report.txt",
            "thermalize.csv",
        ]
        assert read_lines(tmp_path / "thermalize.csv") == "earlier output\n"

    def test_fig4_spectrum(self, tmp_path):
        report = reproduce_figure("fig4", out_dir=str(tmp_path), jobs=1)
        assert "fig4.csv" in report.outputs and "fig4_params.txt" in report.outputs
        sidecar = read_lines(tmp_path / "fig4_params.txt")
        assert "(inferred)" in sidecar
        assert "[PASS]" in sidecar
        rows = [ln for ln in read_lines(tmp_path / "fig4.csv").splitlines() if not ln.startswith("#")]
        assert rows[0] == "chi,var_gap"

    def test_fig7a_purity(self, tmp_path):
        report = reproduce_figure("fig7a", out_dir=str(tmp_path), jobs=1)
        rows = [ln for ln in read_lines(tmp_path / "fig7a.csv").splitlines() if not ln.startswith("#")]
        assert rows[0] == "chi,purity"
        purities = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(a > b for a, b in zip(purities, purities[1:]))
