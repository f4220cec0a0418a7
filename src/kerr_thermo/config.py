"""Scenario configuration: a flat key = value document with sweep lists.

Keys are exactly the field names below; values are scalars or comma-separated
lists.  The five physical parameters accept lists, and a run executes over the
Cartesian product of all lists given.  Angles accept a trailing ``pi`` factor
("0.9pi").  Unknown keys are errors, not warnings.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from itertools import product

from .errors import ConfigError
from .estimation import FdConfig
from .fock import SystemParams, Truncation
from .dynamics import TimeGrid
from .presets import PRESETS

__all__ = [
    "ScenarioConfig",
    "parse_config",
    "resolve_config",
    "exact_text",
    "homodyne_label",
    "COMMANDS",
]

COMMANDS = (
    "thermalize",
    "qfi",
    "cfi",
    "spectrum",
    "purity-sweep",
    "steady-state",
    "reproduce-figure",
)

# Fields whose values may be swept (comma lists).
SWEEPABLE = ("delta", "chi", "drive", "gamma", "n_th")

_DEFAULTS: dict[str, str] = {
    "delta": "0.0",
    "chi": "0.0",
    "drive": "0.0",
    "gamma": "1.0",
    "n_cut": "30",
    "leakage_tol": "1e-8",
    "t_start": "0.0",
    "t_end": "30.0",
    "n_samples": "201",
    "integrator_step": "auto",
    "rel_step": "1e-3",
    "abs_floor": "1e-9",
    "homodyne_phis": "",
    "heterodyne": "false",
    "heterodyne_radius": "auto",
    "heterodyne_step": "auto",
    "window_lo": "30",
    "window_hi": "50",
    "search_max": "auto",
    "repetitions": "1",
    "output_path": ".",
}

_KNOWN_KEYS = frozenset(_DEFAULTS) | {"command", "preset", "n_th"}


def exact_text(value: float) -> str:
    """``f"{value:g}"`` when that parses back to exactly ``value``, else ``repr``.

    Used for file suffixes, column labels and the config echo, so distinct
    values never print alike.
    """
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def homodyne_label(phi: float) -> str:
    """CSV column name of the homodyne CFI at quadrature angle ``phi``."""
    return f"cfi_hom_phi{exact_text(phi / math.pi)}pi"


def _echo(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return exact_text(value)
    if isinstance(value, tuple):
        return ", ".join(exact_text(v) for v in value)
    return str(value)


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully resolved, validated scenario."""

    command: str
    delta: tuple[float, ...]
    chi: tuple[float, ...]
    drive: tuple[float, ...]
    gamma: tuple[float, ...]
    n_th: tuple[float, ...]
    n_cut: int
    leakage_tol: float
    t_start: float
    t_end: float
    n_samples: int
    integrator_step: float | None
    rel_step: float
    abs_floor: float
    homodyne_phis: tuple[float, ...]
    heterodyne: bool
    heterodyne_radius: float | None
    heterodyne_step: float | None
    window_lo: int
    window_hi: int
    search_max: float | None
    repetitions: int
    output_path: str
    preset: str | None = None

    def trunc(self) -> Truncation:
        return Truncation(self.n_cut, self.leakage_tol)

    def grid(self) -> TimeGrid:
        return TimeGrid(
            t_end=self.t_end,
            n_samples=self.n_samples,
            t_start=self.t_start,
            integrator_step=self.integrator_step,
        )

    def fd(self) -> FdConfig:
        return FdConfig(rel_step=self.rel_step, abs_floor=self.abs_floor)

    def swept_fields(self) -> tuple[str, ...]:
        return tuple(name for name in SWEEPABLE if len(getattr(self, name)) > 1)

    def sweep_points(self) -> list[dict[str, float]]:
        """Cartesian product over the list-valued parameter fields, in order."""
        axes = [getattr(self, name) for name in SWEEPABLE]
        return [dict(zip(SWEEPABLE, combo)) for combo in product(*axes)]

    def params_at(self, point: dict[str, float]) -> SystemParams:
        return SystemParams(
            delta=point["delta"],
            chi=point["chi"],
            drive=point["drive"],
            n_th=point["n_th"],
            gamma=point["gamma"],
        )

    def canonical_text(self) -> str:
        """Key = value echo of the resolved configuration; it parses back to an equal config."""
        lines = [f"command = {self.command}"]
        if self.preset:
            lines.append(f"preset = {self.preset}")
        for f in fields(self):
            if f.name not in ("command", "preset"):
                lines.append(f"{f.name} = {_echo(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def _parse_number(raw: str, key: str) -> float:
    text = raw.strip().lower()
    factor = 1.0
    if text.endswith("pi"):
        factor = math.pi
        text = text[:-2].strip()
        if not text:
            text = "1"
    try:
        return float(text) * factor
    except ValueError:
        raise ConfigError(f"value {raw!r} for {key} is not a number", field=key) from None


def _parse_float_list(raw: str, key: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key} requires at least one value", field=key)
    return tuple(_parse_number(p, key) for p in parts)


def _parse_int(raw: str, key: str) -> int:
    try:
        value = int(raw.strip())
    except ValueError:
        raise ConfigError(f"value {raw!r} for {key} is not an integer", field=key) from None
    return value


def _parse_bool(raw: str, key: str) -> bool:
    text = raw.strip().lower()
    if text in ("true", "yes", "1", "on"):
        return True
    if text in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"value {raw!r} for {key} is not a boolean", field=key)


def _parse_optional(raw: str, key: str) -> float | None:
    if raw.strip().lower() in ("auto", "none", ""):
        return None
    return _parse_number(raw, key)


def parse_key_values(text: str) -> dict[str, str]:
    """Parse a flat key = value document; comments start with '#'."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", line=lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("empty key", line=lineno)
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", line=lineno, field=key)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", line=lineno, field=key)
        out[key] = value.strip()
    return out


def build_config(entries: dict[str, str]) -> ScenarioConfig:
    """Apply preset and defaults, validate every field, and freeze the scenario."""
    merged = dict(entries)
    preset_name = merged.pop("preset", None)
    if preset_name is not None:
        preset = PRESETS.get(preset_name)
        if preset is None:
            raise ConfigError(f"unknown preset {preset_name!r}", field="preset")
        for key, value in preset.items():
            if key.startswith("_"):
                continue
            merged.setdefault(key, value)

    command = merged.pop("command", None)
    if command is None:
        raise ConfigError("missing required key 'command'", field="command")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}", field="command")

    if "n_th" not in merged:
        raise ConfigError("missing required key 'n_th'", field="n_th")

    values = dict(_DEFAULTS)
    values.update(merged)

    cfg = ScenarioConfig(
        command=command,
        preset=preset_name,
        delta=_parse_float_list(values["delta"], "delta"),
        chi=_parse_float_list(values["chi"], "chi"),
        drive=_parse_float_list(values["drive"], "drive"),
        gamma=_parse_float_list(values["gamma"], "gamma"),
        n_th=_parse_float_list(values["n_th"], "n_th"),
        n_cut=_parse_int(values["n_cut"], "n_cut"),
        leakage_tol=_parse_number(values["leakage_tol"], "leakage_tol"),
        t_start=_parse_number(values["t_start"], "t_start"),
        t_end=_parse_number(values["t_end"], "t_end"),
        n_samples=_parse_int(values["n_samples"], "n_samples"),
        integrator_step=_parse_optional(values["integrator_step"], "integrator_step"),
        rel_step=_parse_number(values["rel_step"], "rel_step"),
        abs_floor=_parse_number(values["abs_floor"], "abs_floor"),
        homodyne_phis=(
            _parse_float_list(values["homodyne_phis"], "homodyne_phis")
            if values["homodyne_phis"].strip()
            else ()
        ),
        heterodyne=_parse_bool(values["heterodyne"], "heterodyne"),
        heterodyne_radius=_parse_optional(values["heterodyne_radius"], "heterodyne_radius"),
        heterodyne_step=_parse_optional(values["heterodyne_step"], "heterodyne_step"),
        window_lo=_parse_int(values["window_lo"], "window_lo"),
        window_hi=_parse_int(values["window_hi"], "window_hi"),
        search_max=_parse_optional(values["search_max"], "search_max"),
        repetitions=_parse_int(values["repetitions"], "repetitions"),
        output_path=values["output_path"],
    )
    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig) -> None:
    for name in SWEEPABLE:
        for value in getattr(cfg, name):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite", field=name)
    for name in SWEEPABLE + ("homodyne_phis",):
        values = getattr(cfg, name)
        if len(set(values)) < len(values):
            raise ConfigError(f"{name} lists a value twice", field=name)
    # phi / pi is not one-to-one on floats, so distinct angles can share a label
    labelled = {}
    for phi in cfg.homodyne_phis:
        other = labelled.setdefault(homodyne_label(phi), phi)
        if other != phi:
            raise ConfigError(
                f"homodyne_phis {other!r} and {phi!r} share the column label "
                f"{homodyne_label(phi)}",
                field="homodyne_phis",
            )
    for name in ("chi", "drive", "n_th"):
        if any(v < 0 for v in getattr(cfg, name)):
            raise ConfigError(f"{name} must be nonnegative", field=name)
    if any(g <= 0 for g in cfg.gamma):
        raise ConfigError("gamma must be positive", field="gamma")
    if cfg.n_cut < 2:
        raise ConfigError("n_cut must be >= 2", field="n_cut")
    if not 0 < cfg.leakage_tol < 1:
        raise ConfigError("leakage_tol must lie in (0, 1)", field="leakage_tol")
    if cfg.t_end <= cfg.t_start:
        raise ConfigError("t_end must exceed t_start", field="t_end")
    if cfg.n_samples < 2:
        raise ConfigError("n_samples must be >= 2", field="n_samples")
    if cfg.rel_step <= 0 or cfg.abs_floor <= 0:
        raise ConfigError("rel_step and abs_floor must be positive", field="rel_step")
    if not 0 <= cfg.window_lo < cfg.window_hi:
        raise ConfigError("need 0 <= window_lo < window_hi", field="window_lo")
    if cfg.repetitions < 1:
        raise ConfigError("repetitions must be >= 1", field="repetitions")
    if cfg.command == "cfi" and not cfg.homodyne_phis and not cfg.heterodyne:
        raise ConfigError(
            "cfi needs homodyne_phis and/or heterodyne = true", field="homodyne_phis"
        )
    if cfg.command in ("qfi", "cfi") and any(v == 0 for v in cfg.n_th):
        raise ConfigError(
            f"{cfg.command} differentiates in n_th and needs n_th > 0", field="n_th"
        )


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a configuration document."""
    return build_config(parse_key_values(text))


def resolve_config(
    file_text: str = "",
    preset: str | None = None,
    overrides: tuple[str, ...] = (),
    command: str | None = None,
) -> ScenarioConfig:
    """Combine config file, preset name, and key=value overrides into a scenario.

    Precedence (low to high): preset values, file keys, overrides, the command
    argument.
    """
    entries = parse_key_values(file_text)
    if preset is not None:
        entries.setdefault("preset", preset)
        if entries["preset"] != preset:
            raise ConfigError(
                f"preset {preset!r} conflicts with config preset {entries['preset']!r}",
                field="preset",
            )
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", field=key)
        entries[key] = value.strip()
    if command is not None:
        entries["command"] = command
    return build_config(entries)
