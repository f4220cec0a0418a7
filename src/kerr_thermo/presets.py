"""Named parameter presets for the figure-style scenario runs.

Each preset is a flat config-key dictionary (see :mod:`kerr_thermo.config`).
Keys listed under ``_inferred`` are choices this package made (sweep values,
final times, sample counts, scan grids); the remaining physical parameters are
the quoted settings of the corresponding figure.  The sidecar file written by
``reproduce-figure`` repeats this split so reproduced data stays traceable.
"""

from __future__ import annotations

__all__ = ["PRESETS", "FIGURE_NAMES"]

_COMMON_DYNAMICS = {
    "delta": "-3.5",
    "n_cut": "auto",
    "t_end": "30",
    "n_samples": "201",
}

_SPECTRUM_COMMON = {
    "delta": "-3.5",
    "n_th": "0.0",
    "n_cut": "72",
}

_CHI_SCAN = "0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0"

PRESETS: dict[str, dict[str, str | tuple[str, ...]]] = {}

# Effective-temperature relaxation, four parameter corners.
for _name, _nth, _drive in (
    ("fig2a", "0.05", "1.0"),
    ("fig2b", "0.1", "1.0"),
    ("fig2c", "0.05", "0.5"),
    ("fig2d", "0.1", "0.5"),
):
    PRESETS[_name] = {
        "command": "thermalize",
        "n_th": _nth,
        "chi": "0.5",
        "drive": _drive,
        **_COMMON_DYNAMICS,
        "_inferred": ("t_end", "n_samples", "n_cut"),
    }

# QFI growth with the Kerr coefficient, one panel per reservoir occupation.
for _name, _nth in (("fig3a", "0.05"), ("fig3b", "0.1"), ("fig3c", "0.15")):
    PRESETS[_name] = {
        "command": "qfi",
        "n_th": _nth,
        "chi": "0, 0.3, 0.6",
        "drive": "1.0",
        **_COMMON_DYNAMICS,
        "_inferred": ("chi", "t_end", "n_samples", "n_cut"),
    }

PRESETS["fig4"] = {
    "command": "spectrum",
    "chi": _CHI_SCAN,
    "drive": "1.0",
    **_SPECTRUM_COMMON,
    "_inferred": ("chi", "n_cut"),
}

# QFI growth with the drive amplitude.
for _name, _nth in (("fig5a", "0.05"), ("fig5b", "0.1"), ("fig5c", "0.15")):
    PRESETS[_name] = {
        "command": "qfi",
        "n_th": _nth,
        "chi": "0.5",
        "drive": "0.5, 1.0, 1.5",
        **_COMMON_DYNAMICS,
        "_inferred": ("drive", "t_end", "n_samples", "n_cut"),
    }

PRESETS["fig6"] = {
    "command": "spectrum",
    "chi": "1.0",
    "drive": _CHI_SCAN,
    **_SPECTRUM_COMMON,
    "_inferred": ("drive", "n_cut"),
}

PRESETS["fig7a"] = {
    "command": "purity-sweep",
    "n_th": "0.05",
    "chi": _CHI_SCAN,
    "drive": "1.0",
    "delta": "-3.5",
    "n_cut": "30",
    "_inferred": ("chi", "drive", "n_cut"),
}

PRESETS["fig7b"] = {
    "command": "purity-sweep",
    "n_th": "0.05",
    "chi": "0.5",
    "drive": _CHI_SCAN,
    "delta": "-3.5",
    "n_cut": "30",
    "_inferred": ("chi", "drive", "n_cut"),
}

# Gaussian-measurement benchmark: QFI vs homodyne (phi = 0.9 pi) vs heterodyne.
for _name, _nth in (("fig8a", "0.05"), ("fig8b", "0.1"), ("fig8c", "0.15")):
    PRESETS[_name] = {
        "command": "cfi",
        "n_th": _nth,
        "chi": "0.65",
        "drive": "1.0",
        "homodyne_phis": "0.9pi",
        **_COMMON_DYNAMICS,
        "_inferred": ("t_end", "n_samples", "n_cut"),
    }

FIGURE_NAMES = tuple(sorted(PRESETS))
