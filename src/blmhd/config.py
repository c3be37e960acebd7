"""INI-style run configuration.

Sections and keys (defaults in parentheses; nx and ny are required):

[grid]       nx, ny, y_max (15.0), stretch (2.0), x_scheme (fd4)
[physics]    mu (1.0), kappa (1.0), eps (0.01)
[solver]     dt (0.001), t_end (0.1), scheme (imex-cn), cfl_safety (0.9),
             output_stride (1)
[monitors]   delta0 (0.25), l (2.0)
[experiment] m (2), initial (equilibrium), amplitude (0.05),
             ladder (0.1,0.05,0.025,0.0125), perturbation (1e-6)

m runs from 1 to pde.DEPTH_CAP, the deepest time derivative a tower builds.

Unknown sections or keys are errors; duplicate keys are errors citing both
line numbers; range violations name the offending "section.key".  The
steps round(t_end / dt) must be a multiple of output_stride (or fewer than
it), so that the stored states are evenly spaced (SolverConfig.check_stride,
which run() applies too).  Floats
and ladder rungs must be finite, rungs nonnegative (a final 0 is allowed),
and the ladder needs at least one rung.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .grid import GridSpec
from .pde import DEPTH_CAP
from .solver import SolverConfig


class ConfigError(ValueError):
    """Malformed or out-of-range configuration."""


_SCHEMA = {
    "grid": {
        "nx": ("int", None),
        "ny": ("int", None),
        "y_max": ("float", 15.0),
        "stretch": ("float", 2.0),
        "x_scheme": ("str", "fd4"),
    },
    "physics": {
        "mu": ("float", 1.0),
        "kappa": ("float", 1.0),
        "eps": ("float", 0.01),
    },
    "solver": {
        "dt": ("float", 0.001),
        "t_end": ("float", 0.1),
        "scheme": ("str", "imex-cn"),
        "cfl_safety": ("float", 0.9),
        "output_stride": ("int", 1),
    },
    "monitors": {
        "delta0": ("float", 0.25),
        "l": ("float", 2.0),
    },
    "experiment": {
        "m": ("int", 2),
        "initial": ("str", "equilibrium"),
        "amplitude": ("float", 0.05),
        "ladder": ("str", "0.1,0.05,0.025,0.0125"),
        "perturbation": ("float", 1e-6),
    },
}

_RANGES = {
    "grid.nx": lambda v: v >= 8,
    "grid.ny": lambda v: v >= 8,
    "grid.y_max": lambda v: v >= 10.0,
    "grid.stretch": lambda v: v >= 0.0,
    "grid.x_scheme": lambda v: v in ("fd4", "spectral"),
    "physics.mu": lambda v: v >= 0.0,
    "physics.kappa": lambda v: v >= 0.0,
    "physics.eps": lambda v: v >= 0.0,
    "solver.dt": lambda v: v > 0.0,
    "solver.t_end": lambda v: v > 0.0,
    "solver.scheme": lambda v: v in ("imex-cn", "imex-be"),
    "solver.cfl_safety": lambda v: 0.0 < v <= 1.0,
    "solver.output_stride": lambda v: v >= 1,
    "monitors.delta0": lambda v: v > 0.0,
    "monitors.l": lambda v: v >= 1.0,
    "experiment.m": lambda v: 1 <= v <= DEPTH_CAP,
    "experiment.initial": lambda v: v in ("equilibrium", "perturbed"),
    "experiment.amplitude": lambda v: v >= 0.0,
    "experiment.perturbation": lambda v: v >= 0.0,
    "experiment.ladder": lambda v: True,
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration: grid + solver + monitor + experiment values."""

    grid: GridSpec
    solver: SolverConfig
    m: int
    initial: str
    amplitude: float
    ladder: tuple
    perturbation: float
    output_stride: int = 1
    raw: dict = field(repr=False, default_factory=dict)


def _parse_text(text: str) -> dict:
    """Parse INI text into {section: {key: (value_str, lineno)}}."""
    data: dict = {}
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            data.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {section}.{key}")
        if key in data[section]:
            first = data[section][key][1]
            raise ConfigError(
                f"duplicate key {section}.{key} at lines {first} and {lineno}"
            )
        data[section][key] = (val, lineno)
    return data


def _convert(section: str, key: str, raw: str, lineno: int):
    kind = _SCHEMA[section][key][0]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(
            f"line {lineno}: {section}.{key} must be {kind}, got {raw!r}"
        ) from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration text."""
    data = _parse_text(text)
    values: dict = {}
    for section, keys in _SCHEMA.items():
        values[section] = {}
        for key, (kind, default) in keys.items():
            if section in data and key in data[section]:
                raw, lineno = data[section][key]
                values[section][key] = _convert(section, key, raw, lineno)
            elif default is not None:
                values[section][key] = default
            else:
                raise ConfigError(f"missing required key {section}.{key}")
    for section, keys in values.items():
        for key, val in keys.items():
            non_finite = isinstance(val, float) and not math.isfinite(val)
            if non_finite or not _RANGES[f"{section}.{key}"](val):
                raise ConfigError(f"out-of-range value for {section}.{key}: {val!r}")
    g = values["grid"]
    try:
        grid = GridSpec(
            nx=g["nx"],
            ny=g["ny"],
            y_max=g["y_max"],
            stretch=g["stretch"],
            x_scheme=g["x_scheme"],
        )
        solver = SolverConfig(
            mu=values["physics"]["mu"],
            kappa=values["physics"]["kappa"],
            eps=values["physics"]["eps"],
            dt=values["solver"]["dt"],
            t_end=values["solver"]["t_end"],
            scheme=values["solver"]["scheme"],
            cfl_safety=values["solver"]["cfl_safety"],
            delta0=values["monitors"]["delta0"],
            l=values["monitors"]["l"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        solver.check_stride(values["solver"]["output_stride"])
    except ValueError as exc:
        raise ConfigError(f"solver.t_end, solver.dt and solver.output_stride: {exc}") from exc
    e = values["experiment"]
    try:
        ladder = tuple(float(s) for s in e["ladder"].split(",") if s.strip())
        if not all(math.isfinite(r) and r >= 0.0 for r in ladder):
            raise ValueError
    except ValueError:
        raise ConfigError(
            f"out-of-range value for experiment.ladder: {e['ladder']!r}"
        ) from None
    if not ladder:
        raise ConfigError("experiment.ladder needs at least one rung")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("experiment.ladder must be strictly decreasing")
    return RunConfig(
        grid=grid,
        solver=solver,
        m=e["m"],
        initial=e["initial"],
        amplitude=e["amplitude"],
        ladder=ladder,
        perturbation=e["perturbation"],
        output_stride=values["solver"]["output_stride"],
        raw=values,
    )


def load_config(path) -> RunConfig:
    """Read and parse a configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def canonical_text(cfg: RunConfig) -> str:
    """Deterministic canonical rendering of a parsed configuration."""
    lines = []
    for section in sorted(cfg.raw):
        lines.append(f"[{section}]")
        for key in sorted(cfg.raw[section]):
            lines.append(f"{key} = {cfg.raw[section][key]!r}")
    return "\n".join(lines) + "\n"
