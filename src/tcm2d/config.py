"""Flat key = value run configuration with [section] headers.

Sections and keys:

    [grid]    n, length
    [time]    dt, horizon
    [model]   eps, dealias, cfl_max
    [init]    preset, amplitude, mode_x, mode_y, band_lo, band_hi,
              u_amp, v_amp, theta_amp, seed
    [output]  diag_stride, snap_stride, dir

A random_band band_hi and a single_mode |mode_x|, |mode_y| may be at most
n // 3, the largest |k| the two-thirds mask keeps, so every initial mode
lies on the block that a step works on; a mode past it would evolve by
the linear terms alone. Products are always two-thirds dealiased, so
dealias must be true; the key stays so that every earlier config parses.

Only [grid] n, [time] dt and [time] horizon are required; everything else
falls back to the SimConfig defaults. Unknown sections or keys, malformed
lines and out-of-range values raise ConfigParseError with the offending
location. Every rule of SimConfig is checked at parse, the grid, a
horizon that is a whole number of steps, a positive cfl_max, the preset's
mode or band and a nonnegative seed included, so a config that parses can
run, and one that cannot fails before anything is written.
"""

from __future__ import annotations

import configparser
import dataclasses

from .errors import BadParams, ConfigParseError
from .model import SimConfig
from .storage import _read_text

# (section, key, SimConfig field, kind), in the order render_config writes them
_TABLE = (
    ("grid", "n", "n", int),
    ("grid", "length", "length", float),
    ("time", "dt", "dt", float),
    ("time", "horizon", "horizon", float),
    ("model", "eps", "eps", float),
    ("model", "dealias", None, bool),  # no field: always true
    ("model", "cfl_max", "cfl_max", float),
    ("init", "preset", "preset", str),
    ("init", "amplitude", "amplitude", float),
    ("init", "mode_x", "mode_x", int),
    ("init", "mode_y", "mode_y", int),
    ("init", "band_lo", "band_lo", int),
    ("init", "band_hi", "band_hi", int),
    ("init", "u_amp", "u_amp", float),
    ("init", "v_amp", "v_amp", float),
    ("init", "theta_amp", "theta_amp", float),
    ("init", "seed", "seed", int),
    ("output", "diag_stride", "diag_stride", int),
    ("output", "snap_stride", "snap_stride", int),
    ("output", "dir", "outdir", str),
)
_ROWS = {(section, key): (name, kind) for section, key, name, kind in _TABLE}
_SECTIONS = {section for section, _, _, _ in _TABLE}
_REQUIRED = {
    f.name
    for f in dataclasses.fields(SimConfig)
    if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
}


def _coerce(section: str, key: str, kind, raw: str):
    try:
        if kind is bool:
            low = raw.strip().lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return kind(raw)
    except ValueError as exc:
        raise ConfigParseError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def parse_config_text(text: str) -> SimConfig:
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigParseError(str(exc)) from exc

    values = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigParseError(f"unknown section [{section}]")
        for key, raw in cp.items(section):
            if (section, key) not in _ROWS:
                raise ConfigParseError(f"unknown key [{section}] {key}")
            name, kind = _ROWS[(section, key)]
            values[name] = _coerce(section, key, kind, raw)
    if values.pop(None, True) is not True:  # dealias
        raise ConfigParseError("dealias = False: products are always two-thirds dealiased")

    for section, key, name, _ in _TABLE:
        if name in _REQUIRED and name not in values:
            raise ConfigParseError(f"missing required key [{section}] {key}")

    try:
        return SimConfig(**values)
    except BadParams as exc:
        raise ConfigParseError(str(exc)) from exc


def parse_config_file(path) -> tuple[SimConfig, str]:
    """Parse a UTF-8 config file; returns the config and the raw text echo.
    A byte that is not UTF-8 raises ConfigParseError naming its line."""
    text = _read_text(path, "UTF-8")
    # the universal newlines that reading in text mode gives
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_config_text(text), text


def _render_value(kind, value) -> str:
    if kind is bool:
        return str(value).lower()
    return repr(value) if kind is float else str(value)


def render_config(cfg: SimConfig) -> str:
    """Canonical text form of a config (used when none was supplied).

    Every key is written except [output] dir, which appears only when set.
    """
    lines, current = [], None
    for section, key, name, kind in _TABLE:
        value = True if name is None else getattr(cfg, name)
        if name == "outdir" and not value:
            continue
        if section != current:
            if lines:
                lines.append("")
            lines.append(f"[{section}]")
            current = section
        lines.append(f"{key} = {_render_value(kind, value)}")
    return "\n".join(lines) + "\n"
