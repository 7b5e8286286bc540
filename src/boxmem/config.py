"""Flat key=value scenario files.

Format: a single ``[scenario]`` section, ``#`` comments, one key per line.
Each key is a ``ScenarioConfig`` field name with the field's file unit
appended (``trap_radius_um``, ``tau_dephase_ms``; unitless fields take the
bare name), so files diff cleanly.  An optional ``preset`` key selects the
base scenario; remaining keys override it.
"""

import configparser
from dataclasses import fields, replace

import numpy as np

from .errors import ConfigurationError
from .pipeline import ScenarioConfig, preset

# file unit suffix -> SI factor
_UNITS = {"uK": 1e-6, "um": 1e-6, "mm": 1e-3, "ms": 1e-3, "m_s2": 1.0}
MAX_SAMPLE_TIMES = 100_000  # a longer time grid is taken for a typo


def _key(f) -> str:
    unit = f.metadata.get("unit")
    return f"{f.name}_{unit}" if unit else f.name


# file key -> field, for every number and word field of ScenarioConfig;
# gravity = on|off and the time triple are parsed on their own
_FIELDS = {_key(f): f for f in fields(ScenarioConfig)
           if f.type in (int, float, str)}


def parse_scenario_file(path: str) -> ScenarioConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str        # unit-suffixed keys are case-sensitive
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigurationError(f"config: cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigurationError(f"config: parse error in {path}: {exc}") from exc
    if not parser.has_section("scenario"):
        raise ConfigurationError("config: missing [scenario] section")
    items = dict(parser.items("scenario"))

    base_name = items.pop("preset", None)
    cfg = ScenarioConfig() if base_name is None else preset(base_name)

    t_keys = {k: items.pop(k, None)
              for k in ("t_start_ms", "t_stop_ms", "t_step_ms")}
    overrides = {}
    for key, raw in items.items():
        if key == "gravity":
            if raw not in ("on", "off"):
                raise ConfigurationError("gravity: must be 'on' or 'off'")
            overrides["gravity_on"] = raw == "on"
            continue
        if key not in _FIELDS:
            raise ConfigurationError(f"config: unknown key '{key}'")
        f = _FIELDS[key]
        try:
            value = f.type(raw)
        except ValueError as exc:
            raise ConfigurationError(f"{key}: {exc}") from exc
        unit = f.metadata.get("unit")
        overrides[f.name] = value * _UNITS[unit] if unit else value

    if any(v is not None for v in t_keys.values()):
        if any(v is None for v in t_keys.values()):
            raise ConfigurationError(
                "times: t_start_ms, t_stop_ms, t_step_ms must be given together")
        try:
            t0, t1, dt = (float(t_keys[k])
                          for k in ("t_start_ms", "t_stop_ms", "t_step_ms"))
        except ValueError as exc:
            raise ConfigurationError(f"times: {exc}") from exc
        if dt <= 0 or t1 < t0:
            raise ConfigurationError("times: need t_step_ms > 0 and stop >= start")
        if not (t1 - t0) / dt + 1 <= MAX_SAMPLE_TIMES:     # NaN fails too
            raise ConfigurationError(
                f"times: more than {MAX_SAMPLE_TIMES} sample times")
        overrides["times"] = np.arange(t0, t1 + 0.5 * dt, dt) * 1e-3

    cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg
