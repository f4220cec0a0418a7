"""Scenario configuration: a flat key = value document with sweep lists.

Keys are ``command``, ``preset`` and the config fields of
:class:`ScenarioConfig`; each field declares its default text and its parser
in one place.  Values are scalars or comma-separated lists.  The five physical
parameters accept lists, and a run executes over the Cartesian product of all
lists given.  Angles accept a trailing ``pi`` factor ("0.9pi").  Unknown keys
are errors, not warnings.  ``SystemParams``, ``Truncation`` and ``TimeGrid``
check their own fields and ``fd_step`` the stencil's placement; validation
calls them and adds only the rules that belong to a run.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field, fields
from itertools import product

from .errors import ConfigError
from .estimation import CutoffCertificate, FdConfig, certify_cutoff, fd_step
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
)

# Fields whose values may be swept (comma lists).
SWEEPABLE = ("delta", "chi", "drive", "gamma", "n_th")


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


def _parse_cutoff(raw: str, key: str) -> int | None:
    return None if raw.strip().lower() == "auto" else _parse_int(raw, key)


def _parse_optional(raw: str, key: str) -> float | None:
    if raw.strip().lower() in ("auto", "none", ""):
        return None
    return _parse_number(raw, key)


def _parse_angles(raw: str, key: str) -> tuple[float, ...]:
    return _parse_float_list(raw, key) if raw.strip() else ()


def _parse_text(raw: str, key: str) -> str:
    return raw


def _key(default: str | None, parse):
    """A config key's field: its default text (None: the key is required) and its parser."""
    return field(metadata={"default": default, "parse": parse})


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully resolved, validated scenario.

    Every field between ``command`` and ``preset`` is a config key.
    """

    command: str
    delta: tuple[float, ...] = _key("0.0", _parse_float_list)
    chi: tuple[float, ...] = _key("0.0", _parse_float_list)
    drive: tuple[float, ...] = _key("0.0", _parse_float_list)
    gamma: tuple[float, ...] = _key("1.0", _parse_float_list)
    n_th: tuple[float, ...] = _key(None, _parse_float_list)
    # None: n_cut = auto, certified from the steady state
    n_cut: int | None = _key("30", _parse_cutoff)
    leakage_tol: float = _key("1e-8", _parse_number)
    t_end: float = _key("30.0", _parse_number)
    n_samples: int = _key("201", _parse_int)
    integrator_step: float | None = _key("auto", _parse_optional)
    homodyne_phis: tuple[float, ...] = _key("", _parse_angles)
    heterodyne: bool = _key("false", _parse_bool)
    window_lo: int = _key("30", _parse_int)
    window_hi: int = _key("50", _parse_int)
    search_max: float | None = _key("auto", _parse_optional)
    output_path: str = _key(".", _parse_text)
    preset: str | None = None

    @functools.cached_property
    def cutoff_certificate(self) -> CutoffCertificate | None:
        """The steady-state certificate of ``n_cut = auto`` over the sweep; None when fixed.

        Computed on first use and cached on this instance, so the sweep
        points of a run share one certification.
        """
        if self.n_cut is not None:
            return None
        points = [self.params_at(point) for point in self.sweep_points()]
        return certify_cutoff(points, self.leakage_tol)

    def trunc(self) -> Truncation:
        """The cutoff of every point: ``n_cut``, or the certified one for ``auto``."""
        certificate = self.cutoff_certificate
        n_cut = self.n_cut if certificate is None else certificate.n_cut
        return Truncation(n_cut, self.leakage_tol)

    def grid(self) -> TimeGrid:
        return TimeGrid(
            t_end=self.t_end, n_samples=self.n_samples, integrator_step=self.integrator_step
        )

    def fd(self) -> FdConfig:
        """The stencil step of every qfi and cfi run: the library default."""
        return FdConfig()

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
        for f in _KEY_FIELDS:
            lines.append(f"{f.name} = {_echo(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


_KEY_FIELDS = tuple(f for f in fields(ScenarioConfig) if f.metadata)
_KNOWN_KEYS = frozenset(f.name for f in _KEY_FIELDS) | {"command", "preset"}


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

    values = {}
    for f in _KEY_FIELDS:
        raw = merged.get(f.name, f.metadata["default"])
        if raw is None:
            raise ConfigError(f"missing required key {f.name!r}", field=f.name)
        values[f.name] = f.metadata["parse"](raw, f.name)
    cfg = ScenarioConfig(command=command, preset=preset_name, **values)
    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig) -> None:
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
    # The library validates its own types and the stencil's placement, and
    # each of its messages starts with the name of the field it rejects.
    # n_cut 2 stands in for auto.
    try:
        for point in cfg.sweep_points():
            cfg.params_at(point)
            if cfg.command in ("qfi", "cfi"):
                fd_step(point["n_th"], cfg.fd())
        Truncation(2 if cfg.n_cut is None else cfg.n_cut, cfg.leakage_tol)
        cfg.grid()
    except ValueError as exc:
        raise ConfigError(str(exc), field=str(exc).split()[0]) from None
    if cfg.n_cut is None and cfg.command == "spectrum":
        raise ConfigError(
            "n_cut = auto does not apply to spectrum: the gap window needs "
            "window_hi + 22 levels, which no steady-state certificate covers",
            field="n_cut",
        )
    if cfg.search_max is not None and not (math.isfinite(cfg.search_max) and cfg.search_max > 0):
        raise ConfigError(
            f"search_max must be finite and positive, got {cfg.search_max}", field="search_max"
        )
    if not 0 <= cfg.window_lo < cfg.window_hi:
        raise ConfigError("need 0 <= window_lo < window_hi", field="window_lo")
    if cfg.command == "cfi" and not cfg.homodyne_phis and not cfg.heterodyne:
        raise ConfigError(
            "cfi needs homodyne_phis and/or heterodyne = true", field="homodyne_phis"
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
